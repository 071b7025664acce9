//! Named counters and log-bucketed latency histograms.

use std::collections::BTreeMap;
use std::fmt;

use mlscore_sim::SimDuration;
use parking_lot::Mutex;

/// Number of logarithmic buckets; base-2 from 1 ns covers 1 ns to ~2.3 h.
const BUCKETS: usize = 64;

/// Lower bound of bucket 0, in seconds (1 ns).
const MIN_BUCKET_SECS: f64 = 1e-9;

/// A log-bucketed histogram of [`SimDuration`] samples.
///
/// Buckets double in width starting at 1 ns, so quantile estimates carry at
/// most one octave of error, while `min`/`max`/`sum`/`count` are exact.
/// Quantiles are clamped to the observed `[min, max]` range and are
/// monotone in the requested rank, so `p50 <= p95 <= p99 <= max` always
/// holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: SimDuration,
    min: SimDuration,
    max: SimDuration,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: SimDuration::ZERO,
            min: SimDuration::ZERO,
            max: SimDuration::ZERO,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(d: SimDuration) -> usize {
        let secs = d.as_secs();
        if secs <= MIN_BUCKET_SECS {
            return 0;
        }
        let idx = (secs / MIN_BUCKET_SECS).log2().floor() as usize;
        idx.min(BUCKETS - 1)
    }

    /// Upper bound of bucket `i`, in seconds.
    fn bucket_upper(i: usize) -> f64 {
        MIN_BUCKET_SECS * 2f64.powi(i as i32 + 1)
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        if self.count == 0 {
            self.min = d;
            self.max = d;
        } else {
            self.min = self.min.min(d);
            self.max = self.max.max(d);
        }
        self.count += 1;
        self.sum += d;
        self.counts[Self::bucket_index(d)] += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> SimDuration {
        self.sum
    }

    /// Exact smallest sample (zero if empty).
    pub fn min(&self) -> SimDuration {
        self.min
    }

    /// Exact largest sample (zero if empty).
    pub fn max(&self) -> SimDuration {
        self.max
    }

    /// Mean sample value (zero if empty).
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) estimated from bucket boundaries and
    /// clamped to the exact observed range.
    ///
    /// # Panics
    ///
    /// Panics on an empty histogram ("empty outcome"), matching the
    /// contract of the scheduler's percentile reporting.
    pub fn quantile(&self, q: f64) -> SimDuration {
        assert!(self.count > 0, "quantile of empty outcome");
        debug_assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        // Nearest-rank: the smallest bucket whose cumulative count reaches
        // ceil(q * count), then clamp into the exact observed range.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                let est = SimDuration::from_secs(Self::bucket_upper(i));
                return est.max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// The `p`-th percentile (`0..=100`); see [`Histogram::quantile`].
    pub fn percentile(&self, p: u8) -> SimDuration {
        self.quantile(f64::from(p) / 100.0)
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return write!(f, "(no samples)");
        }
        write!(
            f,
            "n={} mean={} p50={} p95={} p99={} max={}",
            self.count,
            self.mean(),
            self.percentile(50),
            self.percentile(95),
            self.percentile(99),
            self.max(),
        )
    }
}

/// A read-only copy of one histogram plus its name.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Registry key the histogram was recorded under.
    pub name: String,
    /// The histogram state at snapshot time.
    pub histogram: Histogram,
}

/// A thread-safe registry of named counters and histograms.
///
/// Keys are free-form dotted paths (`"sched.queries"`,
/// `"fpga.passes"`). Reads return copies, so a snapshot is stable while
/// recording continues.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to the named counter (creating it at zero).
    pub fn inc_counter(&self, name: &str, by: u64) {
        *self.counters.lock().entry(name.to_string()).or_insert(0) += by;
    }

    /// Current value of a counter (zero if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.lock().get(name).copied().unwrap_or(0)
    }

    /// Records a sample into the named histogram (creating it if new).
    pub fn record(&self, name: &str, d: SimDuration) {
        self.histograms
            .lock()
            .entry(name.to_string())
            .or_default()
            .record(d);
    }

    /// A copy of the named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.histograms.lock().get(name).cloned()
    }

    /// Copies of all histograms, sorted by name.
    pub fn histograms(&self) -> Vec<HistogramSnapshot> {
        self.histograms
            .lock()
            .iter()
            .map(|(name, h)| HistogramSnapshot {
                name: name.clone(),
                histogram: h.clone(),
            })
            .collect()
    }

    /// Renders every metric as aligned text, one per line.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (name, v) in self.counters.lock().iter() {
            writeln!(out, "counter   {name:<32} {v}").unwrap();
        }
        for (name, h) in self.histograms.lock().iter() {
            writeln!(out, "histogram {name:<32} {h}").unwrap();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: f64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn exact_aggregates() {
        let mut h = Histogram::new();
        for v in [10.0, 20.0, 30.0, 40.0] {
            h.record(us(v));
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), us(10.0));
        assert_eq!(h.max(), us(40.0));
        assert_eq!(h.mean(), us(25.0));
        assert_eq!(h.sum(), us(100.0));
    }

    #[test]
    fn quantiles_are_monotone_and_clamped() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(us(i as f64));
        }
        let p50 = h.percentile(50);
        let p95 = h.percentile(95);
        let p99 = h.percentile(99);
        assert!(p50 <= p95 && p95 <= p99 && p99 <= h.max());
        assert!(h.percentile(0) >= h.min());
        assert_eq!(h.percentile(100), h.max());
        // One-octave bucket error bound around the true medians.
        assert!(p50 >= us(250.0) && p50 <= us(1024.0), "p50={p50}");
    }

    #[test]
    #[should_panic(expected = "empty outcome")]
    fn quantile_of_empty_panics() {
        Histogram::new().percentile(50);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = Histogram::new();
        h.record(us(42.0));
        for p in [0, 1, 50, 99, 100] {
            assert_eq!(h.percentile(p), us(42.0));
        }
    }

    #[test]
    fn registry_counters_and_histograms() {
        let m = MetricsRegistry::new();
        m.inc_counter("sched.queries", 2);
        m.inc_counter("sched.queries", 3);
        assert_eq!(m.counter("sched.queries"), 5);
        assert_eq!(m.counter("missing"), 0);

        m.record("latency", us(5.0));
        m.record("latency", us(15.0));
        let h = m.histogram("latency").unwrap();
        assert_eq!(h.count(), 2);
        assert!(m.histogram("missing").is_none());

        let all = m.histograms();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].name, "latency");

        let text = m.render();
        assert!(text.contains("sched.queries"));
        assert!(text.contains("latency"));
    }
}
