//! Windowed SLO monitoring: per-class attainment and error-budget burn
//! rate over the run's time series, with alert events when a class burns
//! budget faster than the threshold.
//!
//! Attainment in a window is the fraction of that window's completions
//! that met the class latency SLO. The *burn rate* normalizes the miss
//! fraction by the error budget the target leaves: with a 99% target the
//! budget is 1%, so a window missing 3% of its completions burns at 3×.
//! Sustained burn above 1× exhausts the budget before the period ends;
//! the threshold of 2× flags windows that are clearly on fire
//! without alerting on single stray misses.

use mlscore_sim::SimInstant;
use mlscore_telemetry::TimeSeriesRecorder;

/// Length of one metrics window, in simulated milliseconds.
pub(crate) const WINDOW_MS: f64 = 100.0;

/// Latency-SLO attainment target; the error budget is `1 - SLO_TARGET`.
const SLO_TARGET: f64 = 0.99;

/// Burn-rate multiple above which a window raises an alert.
const BURN_THRESHOLD: f64 = 2.0;

/// One SLO alert: a class burned error budget faster than the threshold
/// during one metrics window.
#[derive(Debug, Clone, PartialEq)]
pub struct SloAlert {
    /// Index of the offending window.
    pub window: u64,
    /// When that window starts.
    pub at: SimInstant,
    /// The query class burning budget.
    pub class: String,
    /// Attainment in the window, in `[0, 1]`.
    pub attainment: f64,
    /// `(1 - attainment) / (1 - SLO_TARGET)` — budget-burn multiple.
    pub burn_rate: f64,
}

/// Scans a finished run's time series for budget-burn alerts.
///
/// A post-hoc scan (rather than an online monitor) keeps the engine's
/// event loop untouched and is equivalent in simulated time: windows are
/// complete by the time the run ends, so the alert set is identical.
#[derive(Debug, Clone, Copy)]
pub struct SloMonitor;

impl SloMonitor {
    /// Returns every `(window, class)` whose burn rate exceeds the 2×
    /// threshold against the 99% target, in window order then class order.
    ///
    /// Windows without completions for a class never alert (attainment is
    /// vacuously 1).
    pub fn scan(series: &TimeSeriesRecorder) -> Vec<SloAlert> {
        let budget = 1.0 - SLO_TARGET;
        let mut alerts = Vec::new();
        for (index, window) in series.windows() {
            for (class, slice) in &window.classes {
                if slice.completions == 0 {
                    continue;
                }
                let attainment = slice.attainment();
                let burn_rate = (1.0 - attainment) / budget;
                if burn_rate > BURN_THRESHOLD {
                    alerts.push(SloAlert {
                        window: index,
                        at: series.window_start(index),
                        class: class.clone(),
                        attainment,
                        burn_rate,
                    });
                }
            }
        }
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscore_sim::SimDuration;

    fn ms(v: f64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn at_ms(v: f64) -> SimInstant {
        SimInstant::ZERO + ms(v)
    }

    #[test]
    fn burning_windows_alert_and_healthy_ones_do_not() {
        let mut series = TimeSeriesRecorder::new(ms(WINDOW_MS));
        // Window 0: 1 of 4 violated -> burn 25x > 2x.
        for violated in [true, false, false, false] {
            series.record_completion(at_ms(10.0), "interactive", violated);
        }
        // Window 1: 1 of 100 violated -> burn 1x, within the threshold.
        for i in 0..100 {
            series.record_completion(at_ms(110.0), "interactive", i == 0);
        }
        let alerts = SloMonitor::scan(&series);
        assert_eq!(alerts.len(), 1);
        let alert = &alerts[0];
        assert_eq!(alert.window, 0);
        assert_eq!(alert.class, "interactive");
        assert!((alert.attainment - 0.75).abs() < 1e-12);
        assert!((alert.burn_rate - 25.0).abs() < 1e-9);
        assert_eq!(alert.at, SimInstant::ZERO);
    }

    #[test]
    fn empty_windows_never_alert() {
        let mut series = TimeSeriesRecorder::new(ms(WINDOW_MS));
        series.record_arrival(at_ms(5.0), "interactive"); // no completions
        assert!(SloMonitor::scan(&series).is_empty());
    }

    #[test]
    fn alerts_come_out_in_window_then_class_order() {
        let mut series = TimeSeriesRecorder::new(ms(WINDOW_MS));
        series.record_completion(at_ms(110.0), "interactive", true);
        series.record_completion(at_ms(10.0), "analytical", true);
        series.record_completion(at_ms(10.0), "interactive", true);
        let alerts = SloMonitor::scan(&series);
        let keys: Vec<(u64, &str)> = alerts
            .iter()
            .map(|a| (a.window, a.class.as_str()))
            .collect();
        assert_eq!(
            keys,
            vec![(0, "analytical"), (0, "interactive"), (1, "interactive")]
        );
    }
}
