//! Windowed time-series metrics over simulated time.
//!
//! End-of-run aggregates answer *how much*; they cannot answer *when*. The
//! [`TimeSeriesRecorder`] rotates arrival counters, per-class completion,
//! shed and SLO-violation counters, a queue-depth peak, and per-device
//! busy time over fixed simulated-time windows, so a serving run yields a
//! series —
//! "the queue peaked in window 7, interactive attainment collapsed in
//! window 8" — instead of one number.
//!
//! Windows are half-open `[k·w, (k+1)·w)` intervals indexed by
//! `floor(t / w)`: an event exactly on a window edge belongs to the window
//! it *opens*. Recording is pure accumulation into a `BTreeMap`, so the
//! series is a deterministic function of the recorded event stream.

use std::collections::BTreeMap;

use mlscore_sim::{SimDuration, SimInstant};

/// Per-class slice of one window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassWindow {
    /// Requests of this class completed in the window (by completion time).
    pub completions: u64,
    /// Requests of this class shed in the window (by shed time).
    pub shed: u64,
    /// Completions in the window that violated the class's latency SLO.
    pub violations: u64,
}

impl ClassWindow {
    /// Fraction of the window's completions that met the latency SLO
    /// (`1.0` for a window with no completions — no budget was burned).
    pub fn attainment(&self) -> f64 {
        if self.completions == 0 {
            1.0
        } else {
            1.0 - self.violations as f64 / self.completions as f64
        }
    }
}

/// One fixed-length window of the series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Window {
    /// Requests that arrived during the window.
    pub arrivals: u64,
    /// Largest queue depth observed during the window.
    pub queue_depth_peak: u64,
    /// Per-class counters, keyed by class name.
    pub classes: BTreeMap<String, ClassWindow>,
    /// Device busy time overlapping the window, keyed by device name.
    /// A pass spanning several windows is split across them.
    pub busy: BTreeMap<String, SimDuration>,
}

impl Window {
    /// Total completions across classes.
    pub fn completions(&self) -> u64 {
        self.classes.values().map(|c| c.completions).sum()
    }

    /// Total shed requests across classes.
    pub fn shed(&self) -> u64 {
        self.classes.values().map(|c| c.shed).sum()
    }

    fn class_mut(&mut self, class: &str) -> &mut ClassWindow {
        self.classes.entry(class.to_string()).or_default()
    }
}

/// A rotating recorder of fixed-window serving metrics.
///
/// # Example
///
/// ```
/// use mlscore_sim::{SimDuration, SimInstant};
/// use mlscore_telemetry::TimeSeriesRecorder;
///
/// let mut series = TimeSeriesRecorder::new(SimDuration::from_millis(100.0));
/// let t = SimInstant::ZERO + SimDuration::from_millis(250.0);
/// series.record_arrival(t, "interactive");
/// series.record_completion(t, "interactive", false);
/// assert_eq!(series.windows().count(), 1);
/// assert_eq!(series.window_index(t), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesRecorder {
    window: SimDuration,
    windows: BTreeMap<u64, Window>,
}

impl TimeSeriesRecorder {
    /// A recorder rotating over windows of length `window`.
    ///
    /// # Panics
    ///
    /// Panics on a zero or negative window length.
    pub fn new(window: SimDuration) -> Self {
        assert!(
            window.as_secs() > 0.0,
            "time-series window length must be positive"
        );
        Self {
            window,
            windows: BTreeMap::new(),
        }
    }

    /// The fixed window length.
    pub fn window_len(&self) -> SimDuration {
        self.window
    }

    /// The window index instant `at` falls into: `floor(t / w)`, so an
    /// instant exactly on an edge opens the new window.
    pub fn window_index(&self, at: SimInstant) -> u64 {
        let idx = (at.as_secs() / self.window.as_secs()).floor();
        if idx <= 0.0 {
            0
        } else {
            idx as u64
        }
    }

    /// When window `index` starts.
    pub fn window_start(&self, index: u64) -> SimInstant {
        SimInstant::ZERO + self.window * index as f64
    }

    /// The recorded windows in index order. Only touched windows exist;
    /// an untouched gap between two indices means nothing happened there.
    pub fn windows(&self) -> impl Iterator<Item = (u64, &Window)> {
        self.windows.iter().map(|(&i, w)| (i, w))
    }

    /// Number of touched windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    fn window_mut(&mut self, at: SimInstant) -> &mut Window {
        let idx = self.window_index(at);
        self.windows.entry(idx).or_default()
    }

    /// Records one arrival.
    pub fn record_arrival(&mut self, at: SimInstant, class: &str) {
        let w = self.window_mut(at);
        w.arrivals += 1;
        // Touch the class so a window with arrivals but no completions
        // still reports the class at zero.
        w.class_mut(class);
    }

    /// Records one completion; `violated` marks a latency-SLO miss.
    pub fn record_completion(&mut self, at: SimInstant, class: &str, violated: bool) {
        let c = self.window_mut(at).class_mut(class);
        c.completions += 1;
        if violated {
            c.violations += 1;
        }
    }

    /// Records one shed request (rejected at a full queue, or unservable).
    pub fn record_shed(&mut self, at: SimInstant, class: &str) {
        self.window_mut(at).class_mut(class).shed += 1;
    }

    /// Records a queue-depth observation.
    pub fn record_queue_depth(&mut self, at: SimInstant, depth: u64) {
        let w = self.window_mut(at);
        w.queue_depth_peak = w.queue_depth_peak.max(depth);
    }

    /// Records `dur` of busy time on `device` starting at `start`,
    /// splitting the interval across every window it overlaps.
    pub fn record_busy(&mut self, device: &str, start: SimInstant, dur: SimDuration) {
        if dur.is_zero() {
            return;
        }
        let w = self.window.as_secs();
        let end = (start + dur).as_secs();
        let mut t = start.as_secs().max(0.0);
        while t < end {
            let idx = self.window_index(SimInstant::from_secs(t));
            let window_end = (idx as f64 + 1.0) * w;
            let slice_end = window_end.min(end);
            let slice = if slice_end > t {
                slice_end - t
            } else {
                // Float rounding pinned us to the edge: charge the rest
                // here rather than looping forever.
                end - t
            };
            *self
                .windows
                .entry(idx)
                .or_default()
                .busy
                .entry(device.to_string())
                .or_insert(SimDuration::ZERO) += SimDuration::from_secs(slice);
            if slice_end <= t {
                break;
            }
            t = slice_end;
        }
    }

    /// Peak queue depth across all windows.
    pub fn peak_queue_depth(&self) -> u64 {
        self.windows
            .values()
            .map(|w| w.queue_depth_peak)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: f64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn at_ms(v: f64) -> SimInstant {
        SimInstant::ZERO + ms(v)
    }

    #[test]
    fn events_rotate_into_floor_indexed_windows() {
        let mut s = TimeSeriesRecorder::new(ms(100.0));
        s.record_arrival(at_ms(0.0), "interactive");
        s.record_arrival(at_ms(99.9), "interactive");
        s.record_arrival(at_ms(100.0), "interactive"); // edge: opens window 1
        s.record_arrival(at_ms(250.0), "analytical");
        let windows: Vec<(u64, u64)> = s.windows().map(|(i, w)| (i, w.arrivals)).collect();
        assert_eq!(windows, vec![(0, 2), (1, 1), (2, 1)]);
        assert_eq!(s.window_index(at_ms(100.0)), 1);
        assert_eq!(s.window_start(2), at_ms(200.0));
    }

    #[test]
    fn completions_shed_and_violations_accumulate_per_class() {
        let mut s = TimeSeriesRecorder::new(ms(100.0));
        s.record_completion(at_ms(10.0), "interactive", false);
        s.record_completion(at_ms(20.0), "interactive", true);
        s.record_shed(at_ms(30.0), "analytical");
        let (_, w) = s.windows().next().expect("one window");
        assert_eq!(w.completions(), 2);
        assert_eq!(w.shed(), 1);
        let c = w.classes.get("interactive").expect("class");
        assert_eq!(c.violations, 1);
        assert_eq!(c.attainment(), 0.5);
        assert_eq!(ClassWindow::default().attainment(), 1.0);
    }

    #[test]
    fn queue_depth_tracks_peak() {
        let mut s = TimeSeriesRecorder::new(ms(100.0));
        s.record_queue_depth(at_ms(1.0), 3);
        s.record_queue_depth(at_ms(2.0), 9);
        s.record_queue_depth(at_ms(3.0), 4);
        let (_, w) = s.windows().next().expect("one window");
        assert_eq!(w.queue_depth_peak, 9);
        assert_eq!(s.peak_queue_depth(), 9);
    }

    #[test]
    fn busy_time_splits_across_windows_exactly() {
        let mut s = TimeSeriesRecorder::new(ms(100.0));
        // 250 ms pass starting at 50 ms: 50 in w0, 100 in w1, 100 in w2.
        s.record_busy("FPGA", at_ms(50.0), ms(250.0));
        let shares: Vec<(u64, f64)> = s
            .windows()
            .map(|(i, w)| {
                (
                    i,
                    w.busy
                        .get("FPGA")
                        .copied()
                        .unwrap_or(SimDuration::ZERO)
                        .as_millis(),
                )
            })
            .collect();
        assert_eq!(shares.len(), 3);
        let total: f64 = shares.iter().map(|(_, v)| v).sum();
        assert!((total - 250.0).abs() < 1e-9, "total {total}");
        assert!((shares[0].1 - 50.0).abs() < 1e-9);
        assert!((shares[1].1 - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_window_panics() {
        let _ = TimeSeriesRecorder::new(SimDuration::ZERO);
    }
}
