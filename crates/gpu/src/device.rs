//! GPU device description.

use mlscore_offload::PcieLink;
use mlscore_sim::{Bandwidth, ClockRate, SimDuration};

/// An analytic GPU device model: enough architecture to drive roofline-style
/// kernel estimates (compute rate, memory bandwidth, L2 capacity) plus the
/// host-side costs (kernel launch, PCIe link).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuDevice {
    /// Marketing name.
    pub name: String,
    /// Streaming multiprocessor count.
    pub sms: u32,
    /// SM clock.
    pub clock: ClockRate,
    /// L2 cache capacity in bytes (the paper contrasts the P100's 4 MB L2
    /// with the FPGA's 28.6 MB of BRAM).
    pub l2_bytes: u64,
    /// Device memory bandwidth.
    pub mem_bandwidth: Bandwidth,
    /// Peak single-precision throughput in FLOP/s.
    pub peak_flops: f64,
    /// Host-side cost of launching one kernel.
    pub kernel_launch: SimDuration,
    /// The PCIe link to the host.
    pub link: PcieLink,
}

impl GpuDevice {
    /// The paper's GPU: NVIDIA Tesla P100 (56 SMs @ ~1.33 GHz, 4 MB L2,
    /// 732 GB/s HBM2, ~9.3 TFLOP/s fp32) in an Azure NC6s_v2 VM, PCIe 3.0
    /// x16 to the host.
    pub fn tesla_p100() -> Self {
        Self {
            name: "Tesla P100".to_string(),
            sms: 56,
            clock: ClockRate::from_ghz(1.328),
            l2_bytes: 4 << 20,
            mem_bandwidth: Bandwidth::from_gb_per_sec(732.0),
            peak_flops: 9.3e12,
            kernel_launch: SimDuration::from_micros(8.0),
            link: PcieLink::gen3_x16(),
        }
    }

    /// A newer-generation device: NVIDIA Tesla V100 (80 SMs @ ~1.38 GHz,
    /// 6 MB L2, 900 GB/s HBM2, ~14 TFLOP/s fp32). The paper notes that
    /// "GPUs with larger caches can improve the slopes of the GPU
    /// performance curves and shift the crossover points" — this and
    /// [`GpuDevice::a100`] exist to test exactly that (ablation A6).
    pub fn tesla_v100() -> Self {
        Self {
            name: "Tesla V100".to_string(),
            sms: 80,
            clock: ClockRate::from_ghz(1.38),
            l2_bytes: 6 << 20,
            mem_bandwidth: Bandwidth::from_gb_per_sec(900.0),
            peak_flops: 14.0e12,
            kernel_launch: SimDuration::from_micros(7.0),
            link: PcieLink::gen3_x16(),
        }
    }

    /// NVIDIA A100 (108 SMs @ ~1.41 GHz, 40 MB L2, 1555 GB/s HBM2e,
    /// ~19.5 TFLOP/s fp32, PCIe 4.0): the 40 MB L2 holds the paper's
    /// entire 128-tree model on chip, removing the capacity misses the
    /// paper blames for the GPU's large-model slowdown.
    pub fn a100() -> Self {
        Self {
            name: "A100".to_string(),
            sms: 108,
            clock: ClockRate::from_ghz(1.41),
            l2_bytes: 40 << 20,
            mem_bandwidth: Bandwidth::from_gb_per_sec(1555.0),
            peak_flops: 19.5e12,
            kernel_launch: SimDuration::from_micros(7.0),
            link: PcieLink::gen4_x16(),
        }
    }

    /// Time to move `bytes` through device memory (bandwidth-bound).
    pub fn memory_time(&self, bytes: f64) -> SimDuration {
        SimDuration::from_secs(bytes / self.mem_bandwidth.bytes_per_sec())
    }

    /// Fraction of node-record reads that miss L2 for a model of
    /// `model_bytes`: 0 when the model fits, approaching 1 as it spills.
    pub fn l2_miss_fraction(&self, model_bytes: u64) -> f64 {
        let ratio = model_bytes as f64 / self.l2_bytes as f64;
        if ratio <= 1.0 {
            0.05 // cold misses only
        } else {
            // Capacity misses grow with the overflow factor.
            (1.0 - 1.0 / ratio).clamp(0.05, 0.95)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p100_matches_datasheet() {
        let g = GpuDevice::tesla_p100();
        assert_eq!(g.sms, 56);
        assert_eq!(g.l2_bytes, 4 << 20);
        assert!((g.mem_bandwidth.gb_per_sec() - 732.0).abs() < 1e-9);
    }

    #[test]
    fn newer_devices_strictly_improve() {
        let p100 = GpuDevice::tesla_p100();
        let v100 = GpuDevice::tesla_v100();
        let a100 = GpuDevice::a100();
        assert!(v100.l2_bytes > p100.l2_bytes);
        assert!(a100.l2_bytes > v100.l2_bytes);
        assert!(a100.mem_bandwidth.bytes_per_sec() > v100.mem_bandwidth.bytes_per_sec());
        // An 8 MB model misses on the P100's 4 MB L2 but fits in the
        // A100's 40 MB — the paper's large-cache argument.
        let model = 8_000_000u64;
        assert!(p100.l2_miss_fraction(model) > 0.04 + a100.l2_miss_fraction(model));
        assert_eq!(a100.l2_miss_fraction(model), 0.05);
    }

    #[test]
    fn memory_time_is_bandwidth_bound() {
        let g = GpuDevice::tesla_p100();
        let t = g.memory_time(732e9);
        assert!((t.as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn l2_miss_fraction_grows_past_capacity() {
        let g = GpuDevice::tesla_p100();
        assert_eq!(g.l2_miss_fraction(1 << 20), 0.05);
        let at_2x = g.l2_miss_fraction(8 << 20);
        let at_8x = g.l2_miss_fraction(32 << 20);
        assert!(at_2x > 0.4 && at_2x < 0.6);
        assert!(at_8x > at_2x);
        assert!(at_8x <= 0.95);
    }
}
