//! The Fig. 6 offload decomposition.
//!
//! Option 1 runs scoring on the host (`C_H`); Option 2 offloads it, paying
//! setup/signalling overhead `O`, data transfer `L`, and accelerator compute
//! `C_A`. An offload is worth it exactly when `O + L + C_A < C_H`. This
//! module turns a backend's [`TimingBreakdown`] into those aggregates and
//! answers the worth-it question.

use mlscore_sim::{SimDuration, StageClass, TimingBreakdown};

/// The `O` / `L` / `C_A` aggregates of one offloaded execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffloadCosts {
    /// Setup, completion signalling, and host software overheads (`O`).
    pub overhead: SimDuration,
    /// Host–accelerator data movement (`L`).
    pub transfer: SimDuration,
    /// Accelerator compute time (`C_A`).
    pub compute: SimDuration,
}

impl OffloadCosts {
    /// Extracts the aggregates from a backend breakdown (pipeline-class
    /// stages are ignored; they belong to Fig. 11, not Fig. 6).
    pub fn from_breakdown(breakdown: &TimingBreakdown) -> Self {
        Self {
            overhead: breakdown.total_class(StageClass::Overhead),
            transfer: breakdown.total_class(StageClass::Transfer),
            compute: breakdown.total_class(StageClass::Compute),
        }
    }

    /// Total offloaded execution time `O + L + C_A`.
    pub fn total(&self) -> SimDuration {
        self.overhead + self.transfer + self.compute
    }
}

/// Comparison of running on the host vs. offloading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffloadSummary {
    /// Host execution time (`C_H` in Fig. 6 Option 1).
    pub host: SimDuration,
    /// The offloaded execution's cost aggregates (Option 2).
    pub offload: OffloadCosts,
}

impl OffloadSummary {
    /// Builds a summary from the host time and an accelerator breakdown.
    pub fn new(host: SimDuration, accelerator: &TimingBreakdown) -> Self {
        Self {
            host,
            offload: OffloadCosts::from_breakdown(accelerator),
        }
    }

    /// `true` when offloading beats the host end to end.
    pub fn beneficial(&self) -> bool {
        self.offload.total() < self.host
    }

    /// End-to-end speedup of offloading over the host (values below 1 mean
    /// the offload lost).
    pub fn speedup(&self) -> f64 {
        self.host.ratio(self.offload.total())
    }

    /// Speedup of the *compute alone* (`C_H / C_A`) — the number prior works
    /// report when they ignore offload overheads; comparing it with
    /// [`OffloadSummary::speedup`] is the paper's core argument.
    pub fn kernel_speedup(&self) -> f64 {
        self.host.ratio(self.offload.compute)
    }

    /// The latency penalty factor of a *wrong* decision to offload
    /// (`>= 1`; the paper reports up to 10x for tiny jobs).
    pub fn mispick_penalty(&self) -> f64 {
        if self.beneficial() {
            1.0
        } else {
            self.offload.total().ratio(self.host)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscore_sim::Stage;

    fn ms(v: f64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn breakdown(o: f64, l: f64, c: f64) -> TimingBreakdown {
        let mut b = TimingBreakdown::new();
        b.add(Stage::AcceleratorSetup, ms(o / 2.0));
        b.add(Stage::SoftwareOverhead, ms(o / 2.0));
        b.add(Stage::InputTransfer, ms(l / 2.0));
        b.add(Stage::ResultTransfer, ms(l / 2.0));
        b.add(Stage::Scoring, ms(c));
        b
    }

    #[test]
    fn aggregates_by_class() {
        let costs = OffloadCosts::from_breakdown(&breakdown(1.0, 2.0, 4.0));
        assert_eq!(costs.overhead, ms(1.0));
        assert_eq!(costs.transfer, ms(2.0));
        assert_eq!(costs.compute, ms(4.0));
        assert_eq!(costs.total(), ms(7.0));
    }

    #[test]
    fn pipeline_stages_are_excluded() {
        let mut b = breakdown(1.0, 1.0, 1.0);
        b.add(Stage::PythonInvocation, ms(100.0));
        let costs = OffloadCosts::from_breakdown(&b);
        assert_eq!(costs.total(), ms(3.0));
    }

    #[test]
    fn beneficial_iff_offload_is_faster() {
        let fast_accel = OffloadSummary::new(ms(100.0), &breakdown(1.0, 1.0, 2.0));
        assert!(fast_accel.beneficial());
        assert!(fast_accel.speedup() > 20.0);
        assert_eq!(fast_accel.mispick_penalty(), 1.0);

        let tiny_job = OffloadSummary::new(ms(0.4), &breakdown(1.0, 1.0, 2.0));
        assert!(!tiny_job.beneficial());
        assert!(tiny_job.mispick_penalty() == 10.0);
    }

    #[test]
    fn kernel_speedup_exceeds_end_to_end() {
        // The paper's point: prior work reports C_H/C_A, but the user sees
        // C_H/(O+L+C_A), which is always smaller.
        let s = OffloadSummary::new(ms(40.0), &breakdown(2.0, 6.0, 2.0));
        assert!(s.kernel_speedup() > s.speedup());
        assert_eq!(s.kernel_speedup(), 20.0);
        assert_eq!(s.speedup(), 4.0);
    }
}
