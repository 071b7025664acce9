//! The LogCA analytic accelerator model (Altaf & Wood, ISCA '17), which the
//! paper cites (\[42\]) as prior work on accelerator overhead modelling.
//!
//! LogCA describes an offload with five parameters:
//!
//! * `L` — per-byte link latency (we fold it into `beta`, the inverse
//!   bandwidth),
//! * `o` — fixed offload overhead,
//! * `g` — granularity: the number of work items offloaded at once,
//! * `C` — computational index: host time per work item,
//! * `A` — acceleration: how many times faster the accelerator computes.
//!
//! With linear kernels (true for forest scoring: work scales with records)
//! the accelerated time is `T_acc(g) = o + beta * g + C * g / A` and the
//! host time is `T_host(g) = C * g`, giving closed forms for speedup, the
//! break-even granularity `g1`, and the peak speedup as `g -> inf` — the
//! same crossover structure Figures 9 and 10 display empirically.

use serde::{Deserialize, Serialize};

use mlscore_sim::SimDuration;

/// A LogCA model instance with linear (`beta`) transfer cost.
///
/// # Example
///
/// ```
/// use mlscore_offload::LogCa;
/// use mlscore_sim::SimDuration;
///
/// let m = LogCa::new(
///     SimDuration::from_millis(1.0),  // o: fixed offload overhead
///     SimDuration::from_nanos(10.0),  // beta: transfer time per item
///     SimDuration::from_micros(1.0),  // C: host time per item
///     50.0,                            // A: acceleration
/// );
/// // Break-even sits near o / (C(1-1/A) - beta) ≈ 1021 items.
/// let g1 = m.break_even().unwrap();
/// assert!(g1 > 1000.0 && g1 < 1050.0);
/// assert!(m.speedup(10.0) < 1.0);      // tiny jobs lose
/// assert!(m.speedup(1_000_000.0) > 30.0); // big jobs approach peak (~33x)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogCa {
    overhead: SimDuration,
    beta: SimDuration,
    host_per_item: SimDuration,
    acceleration: f64,
}

impl LogCa {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics unless `acceleration > 0` and `host_per_item > 0`.
    pub fn new(
        overhead: SimDuration,
        beta: SimDuration,
        host_per_item: SimDuration,
        acceleration: f64,
    ) -> Self {
        assert!(acceleration > 0.0, "acceleration must be positive");
        assert!(
            !host_per_item.is_zero(),
            "host time per item must be positive"
        );
        Self {
            overhead,
            beta,
            host_per_item,
            acceleration,
        }
    }

    /// Host execution time for granularity `g`.
    pub fn host_time(&self, g: f64) -> SimDuration {
        self.host_per_item * g
    }

    /// Accelerated execution time for granularity `g`:
    /// `o + beta*g + C*g/A`.
    pub fn accelerated_time(&self, g: f64) -> SimDuration {
        self.overhead + self.beta * g + self.host_per_item * (g / self.acceleration)
    }

    /// End-to-end speedup at granularity `g`.
    pub fn speedup(&self, g: f64) -> f64 {
        self.host_time(g).ratio(self.accelerated_time(g))
    }

    /// Peak speedup as `g -> inf`: `C / (beta + C/A)`.
    pub fn peak_speedup(&self) -> f64 {
        let c = self.host_per_item.as_secs();
        c / (self.beta.as_secs() + c / self.acceleration)
    }

    /// Break-even granularity `g1` where speedup is exactly 1, or `None`
    /// when the offload can never win (peak speedup <= 1).
    pub fn break_even(&self) -> Option<f64> {
        let c = self.host_per_item.as_secs();
        let denom = c * (1.0 - 1.0 / self.acceleration) - self.beta.as_secs();
        if denom <= 0.0 {
            return None;
        }
        Some(self.overhead.as_secs() / denom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LogCa {
        LogCa::new(
            SimDuration::from_millis(2.0),
            SimDuration::from_nanos(100.0),
            SimDuration::from_micros(2.0),
            40.0,
        )
    }

    #[test]
    fn speedup_is_monotone_in_granularity() {
        let m = model();
        let mut prev = 0.0;
        for g in [1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7] {
            let s = m.speedup(g);
            assert!(s > prev, "speedup must grow with g");
            prev = s;
        }
    }

    #[test]
    fn speedup_approaches_peak() {
        let m = model();
        assert!((m.speedup(1e9) - m.peak_speedup()).abs() < 0.01 * m.peak_speedup());
    }

    #[test]
    fn break_even_crosses_one() {
        let m = model();
        let g1 = m.break_even().unwrap();
        assert!(m.speedup(g1 * 0.9) < 1.0);
        assert!(m.speedup(g1 * 1.1) > 1.0);
        assert!((m.speedup(g1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hopeless_offload_has_no_break_even() {
        // Transfer slower than the host computes: never worth it.
        let m = LogCa::new(
            SimDuration::from_millis(1.0),
            SimDuration::from_micros(5.0),
            SimDuration::from_micros(2.0),
            100.0,
        );
        assert!(m.break_even().is_none());
        assert!(m.peak_speedup() < 1.0);
    }

    #[test]
    fn bigger_overhead_pushes_break_even_right() {
        let small = model();
        let big = LogCa::new(
            SimDuration::from_millis(20.0),
            SimDuration::from_nanos(100.0),
            SimDuration::from_micros(2.0),
            40.0,
        );
        assert!(big.break_even().unwrap() > small.break_even().unwrap() * 9.0);
    }
}
