//! PCIe link timing model.
//!
//! Both accelerators in the paper attach over PCIe 3.0 x16. Transfers are
//! modelled with the alpha-beta form: a fixed per-DMA setup latency (driver
//! call, descriptor ring, doorbell) plus streaming at the link's *effective*
//! bandwidth (raw lane rate derated by encoding and DMA protocol
//! efficiency).

use serde::{Deserialize, Serialize};

use mlscore_sim::{Bandwidth, SimDuration};

/// PCIe generation, determining the per-lane data rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PcieGeneration {
    /// 8 GT/s per lane, 128b/130b encoding (~0.985 GB/s/lane raw).
    Gen3,
    /// 16 GT/s per lane (~1.969 GB/s/lane raw).
    Gen4,
    /// 32 GT/s per lane (~3.938 GB/s/lane raw).
    Gen5,
}

impl PcieGeneration {
    /// Raw per-lane bandwidth in bytes/s after line encoding.
    pub fn lane_bytes_per_sec(self) -> f64 {
        match self {
            PcieGeneration::Gen3 => 8e9 / 8.0 * (128.0 / 130.0),
            PcieGeneration::Gen4 => 16e9 / 8.0 * (128.0 / 130.0),
            PcieGeneration::Gen5 => 32e9 / 8.0 * (128.0 / 130.0),
        }
    }
}

/// A PCIe link with a DMA-setup latency and protocol efficiency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PcieLink {
    generation: PcieGeneration,
    lanes: u8,
    /// Fraction of raw bandwidth achieved by DMA streaming (TLP headers,
    /// flow control, completions). ~0.75–0.8 is typical for large DMAs.
    efficiency: f64,
    /// Fixed host-side latency to start one DMA.
    dma_setup: SimDuration,
}

impl PcieLink {
    /// Creates a link.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or `efficiency` is outside `(0, 1]`.
    pub fn new(
        generation: PcieGeneration,
        lanes: u8,
        efficiency: f64,
        dma_setup: SimDuration,
    ) -> Self {
        assert!(lanes > 0, "link needs at least one lane");
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency must be in (0, 1]"
        );
        Self {
            generation,
            lanes,
            efficiency,
            dma_setup,
        }
    }

    /// The paper's link: PCIe 3.0 x16, ~12 GB/s effective, with a 30 µs DMA
    /// setup cost.
    pub fn gen3_x16() -> Self {
        Self::new(
            PcieGeneration::Gen3,
            16,
            0.78,
            SimDuration::from_micros(30.0),
        )
    }

    /// A Gen4 x16 link (ablation A1).
    pub fn gen4_x16() -> Self {
        Self::new(
            PcieGeneration::Gen4,
            16,
            0.78,
            SimDuration::from_micros(30.0),
        )
    }

    /// A Gen5 x16 link (ablation A1).
    pub fn gen5_x16() -> Self {
        Self::new(
            PcieGeneration::Gen5,
            16,
            0.78,
            SimDuration::from_micros(30.0),
        )
    }

    /// Raw link bandwidth (before protocol derating).
    pub fn raw_bandwidth(&self) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.generation.lane_bytes_per_sec() * self.lanes as f64)
    }

    /// Effective streaming bandwidth seen by large DMAs.
    pub fn effective_bandwidth(&self) -> Bandwidth {
        self.raw_bandwidth().derated(self.efficiency)
    }

    /// Total time for one DMA of `bytes`: setup + streaming.
    pub fn transfer(&self, bytes: u64) -> SimDuration {
        self.dma_setup + self.effective_bandwidth().transfer_time(bytes)
    }

    /// Streaming-only time (no setup) — used when a transfer overlaps
    /// computation and only the rate matters.
    pub fn stream(&self, bytes: u64) -> SimDuration {
        self.effective_bandwidth().transfer_time(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen3_x16_effective_bandwidth_near_12gbs() {
        let link = PcieLink::gen3_x16();
        let bw = link.effective_bandwidth().gb_per_sec();
        assert!((11.0..13.0).contains(&bw), "bw {bw}");
    }

    #[test]
    fn generations_double_bandwidth() {
        let g3 = PcieLink::gen3_x16().effective_bandwidth().bytes_per_sec();
        let g4 = PcieLink::gen4_x16().effective_bandwidth().bytes_per_sec();
        let g5 = PcieLink::gen5_x16().effective_bandwidth().bytes_per_sec();
        assert!((g4 / g3 - 2.0).abs() < 1e-9);
        assert!((g5 / g4 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_includes_setup_stream_does_not() {
        let link = PcieLink::gen3_x16();
        let t = link.transfer(0);
        assert_eq!(t, link.dma_setup);
        assert_eq!(link.stream(0), mlscore_sim::SimDuration::ZERO);
        assert!(link.transfer(1 << 20) > link.stream(1 << 20));
    }

    #[test]
    fn small_transfers_are_latency_dominated() {
        let link = PcieLink::gen3_x16();
        let small = link.transfer(64);
        // 64 bytes stream in ~5 ns; setup is 30 µs.
        assert!(small.as_micros() < 31.0 && small.as_micros() > 29.0);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        PcieLink::new(PcieGeneration::Gen3, 0, 0.8, SimDuration::ZERO);
    }
}
