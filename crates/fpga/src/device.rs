//! FPGA device description.

use mlscore_offload::PcieLink;
use mlscore_sim::{ClockRate, SimDuration};

/// An FPGA card: fabric clock, on-chip BRAM capacity, and the host-side
/// costs of driving it.
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaDevice {
    /// Marketing name.
    pub name: String,
    /// Fabric clock of the synthesized design (the paper's engine closes
    /// timing at 250 MHz).
    pub clock: ClockRate,
    /// On-chip BRAM capacity in bytes (~28.6 MB on the Stratix 10 GX 2800,
    /// which the paper contrasts with the P100's 4 MB L2).
    pub bram_bytes: u64,
    /// The PCIe link to the host.
    pub link: PcieLink,
    /// Cost of one MMIO write to a Control/Status Register; arming a pass
    /// takes [`crate::csr::SETUP_WRITES_PER_PASS`] of these. The paper
    /// notes CSR setup is cheaper than the interrupt.
    pub csr_write: SimDuration,
    /// Cost of the completion interrupt back to the host.
    pub interrupt: SimDuration,
    /// Fixed host software cost per scoring call (the FPGA API functions
    /// the paper's "software overhead" component measures).
    pub software_overhead: SimDuration,
    /// Extra host software cost per additional engine pass.
    pub per_pass_software: SimDuration,
}

impl FpgaDevice {
    /// The paper's card: Intel Stratix 10 GX 2800, 250 MHz design clock,
    /// ~28.6 MB BRAM, PCIe 3.0 x16.
    pub fn stratix10_gx2800() -> Self {
        Self {
            name: "Stratix 10 GX 2800".to_string(),
            clock: ClockRate::from_mhz(250.0),
            bram_bytes: 30_000_000,
            link: PcieLink::gen3_x16(),
            csr_write: SimDuration::from_micros(1.5),
            interrupt: SimDuration::from_micros(120.0),
            software_overhead: SimDuration::from_micros(1200.0),
            per_pass_software: SimDuration::from_micros(60.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratix_parameters_match_paper() {
        let d = FpgaDevice::stratix10_gx2800();
        assert_eq!(d.clock.cycle_time(), SimDuration::from_nanos(4.0));
        assert!((d.bram_bytes as f64 / (1 << 20) as f64 - 28.6).abs() < 0.1);
        assert!(
            d.csr_write < d.interrupt,
            "CSR setup is cheaper than interrupt"
        );
    }
}
