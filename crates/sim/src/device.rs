//! The [`DeviceLedger`] slot-reservation model shared by the consolidation
//! analysis and the serving engine.
//!
//! Both `pipeline::concurrency` (offline makespan analysis) and
//! `mlscore-serve` (discrete-event serving simulation) need the same
//! primitive: a device with a fixed number of concurrent execution slots
//! (an FPGA card is one exclusive slot, a GPU exposes N streams, a CPU has
//! one seat per pool worker), where each unit of work occupies one slot for
//! a known duration and work beyond the slot count queues. Keeping the
//! reservation arithmetic here, in one place, guarantees the two analyses
//! cannot drift apart.

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimInstant};

/// Per-slot occupancy ledger for one device.
///
/// Reservations are greedy earliest-free-slot (ties broken by lowest slot
/// index), which is exact for the FIFO dispatch both users perform: work is
/// placed on the slot that frees first, starting no earlier than its ready
/// time.
///
/// # Example
///
/// ```
/// use mlscore_sim::{DeviceLedger, SimDuration, SimInstant};
///
/// let mut fpga = DeviceLedger::new(1);
/// let job = SimDuration::from_millis(4.0);
/// let (s0, e0) = fpga.reserve(SimInstant::ZERO, job);
/// let (s1, _) = fpga.reserve(SimInstant::ZERO, job);
/// assert_eq!(s0, SimInstant::ZERO);
/// assert_eq!(s1, e0); // exclusive device: second pass queues
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceLedger {
    free_at: Vec<SimInstant>,
    busy: SimDuration,
    reservations: u64,
}

impl DeviceLedger {
    /// Creates a ledger with `slots` concurrent execution slots, all free
    /// at the epoch.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "a device needs at least one slot");
        Self {
            free_at: vec![SimInstant::ZERO; slots],
            busy: SimDuration::ZERO,
            reservations: 0,
        }
    }

    /// Number of concurrent execution slots.
    pub fn slots(&self) -> usize {
        self.free_at.len()
    }

    /// Returns `true` if some slot is free at (or before) `at`.
    pub fn has_free_slot(&self, at: SimInstant) -> bool {
        self.free_at.iter().any(|&t| t <= at)
    }

    /// The instant the last reserved work completes (the epoch if nothing
    /// was reserved).
    pub fn completion(&self) -> SimInstant {
        *self.free_at.iter().max().expect("at least one slot")
    }

    /// Reserves the earliest-free slot for `dur` of work that becomes ready
    /// at `ready`, returning the `(start, end)` the work occupies. Ties
    /// between equally free slots go to the lowest index, so replays are
    /// deterministic.
    pub fn reserve(&mut self, ready: SimInstant, dur: SimDuration) -> (SimInstant, SimInstant) {
        let slot = self
            .free_at
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.cmp(b.1).then(a.0.cmp(&b.0)))
            .map(|(i, _)| i)
            // analyze: allow(P002, reason="invariant: new() asserts slots > 0, so free_at is never empty")
            .expect("at least one slot");
        let start = if self.free_at[slot] > ready {
            self.free_at[slot]
        } else {
            ready
        };
        let end = start + dur;
        self.free_at[slot] = end;
        self.busy += dur;
        self.reservations += 1;
        (start, end)
    }

    /// Total slot-seconds of reserved work.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Number of reservations made.
    pub fn reservations(&self) -> u64 {
        self.reservations
    }

    /// Fraction of slot-capacity used over `[epoch, horizon]`: busy time
    /// over `slots x horizon`. Zero for a zero horizon.
    pub fn utilization(&self, horizon: SimDuration) -> f64 {
        if horizon.is_zero() {
            0.0
        } else {
            self.busy.as_secs() / (horizon.as_secs() * self.slots() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: f64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn single_slot_serializes_work() {
        let mut d = DeviceLedger::new(1);
        let (s0, e0) = d.reserve(SimInstant::ZERO, ms(10.0));
        let (s1, e1) = d.reserve(SimInstant::ZERO, ms(5.0));
        assert_eq!(s0, SimInstant::ZERO);
        assert_eq!(s1, e0);
        assert_eq!(e1, SimInstant::ZERO + ms(15.0));
        assert_eq!(d.completion(), e1);
        assert_eq!(d.busy_time(), ms(15.0));
        assert_eq!(d.reservations(), 2);
    }

    #[test]
    fn multi_slot_runs_concurrently_then_queues() {
        let mut d = DeviceLedger::new(2);
        let (_, e0) = d.reserve(SimInstant::ZERO, ms(10.0));
        let (s1, _) = d.reserve(SimInstant::ZERO, ms(10.0));
        assert_eq!(s1, SimInstant::ZERO, "second stream is concurrent");
        let (s2, _) = d.reserve(SimInstant::ZERO, ms(1.0));
        assert_eq!(s2, e0, "third job waits for the earliest slot");
    }

    #[test]
    fn identical_jobs_complete_in_ceil_q_over_slots_rounds() {
        // The algebraic form `ceil(q / slots) * dur` the consolidation
        // analysis used to hard-code for one card must fall out of the
        // ledger for any card count.
        for slots in [1usize, 2, 3, 4] {
            let mut d = DeviceLedger::new(slots);
            let q = 10u32;
            for _ in 0..q {
                d.reserve(SimInstant::ZERO, ms(7.0));
            }
            let rounds = (q as usize).div_ceil(slots) as f64;
            assert_eq!(d.completion(), SimInstant::ZERO + ms(7.0) * rounds);
        }
    }

    #[test]
    fn ready_time_defers_start() {
        let mut d = DeviceLedger::new(2);
        let ready = SimInstant::from_secs(1.0);
        let (s, e) = d.reserve(ready, ms(2.0));
        assert_eq!(s, ready);
        assert_eq!(e, ready + ms(2.0));
        assert!(d.has_free_slot(ready));
        assert_eq!(d.free_at.iter().min(), Some(&SimInstant::ZERO));
    }

    #[test]
    fn utilization_accounts_slot_capacity() {
        let mut d = DeviceLedger::new(2);
        d.reserve(SimInstant::ZERO, ms(10.0));
        // 10 ms busy over 2 slots x 10 ms horizon = 50%.
        assert!((d.utilization(ms(10.0)) - 0.5).abs() < 1e-12);
        assert_eq!(d.utilization(SimDuration::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = DeviceLedger::new(0);
    }
}
