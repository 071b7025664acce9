//! Control/Status Register (CSR) setup cost.
//!
//! The paper's engine is configured through CSRs and signals completion
//! through an interrupt ("FPGA setup overhead is less than completion
//! signal overhead because the former one is done by setting Control/Status
//! Registers and latter is done through interrupt"). The setup cost in the
//! timing model is *derived* from the MMIO write sequence that arms one
//! engine pass rather than being a loose constant.

use mlscore_sim::SimDuration;

/// MMIO writes that arm one engine pass: reset, record count, tree count,
/// pass index, result base, interrupt enable, start.
pub const SETUP_WRITES_PER_PASS: u32 = 7;

/// Setup time of one pass given the per-MMIO-write cost: the timing-model
/// quantity behind the Fig. 7 "FPGA setup" bar.
pub fn setup_time(csr_write: SimDuration) -> SimDuration {
    csr_write * SETUP_WRITES_PER_PASS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_time_is_writes_times_cost() {
        let t = setup_time(SimDuration::from_micros(2.0));
        assert_eq!(t, SimDuration::from_micros(14.0));
    }
}
