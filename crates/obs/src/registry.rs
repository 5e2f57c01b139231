//! Dependency-free metrics registry with a Prometheus-style text renderer.
//!
//! Counters and [`LogHistogram`]s keyed by name, stored in `BTreeMap`s so the
//! rendered dump is deterministic (diffable across runs and PRs).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::LogHistogram;

#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, LogHistogram>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Set a counter to an absolute value.
    pub fn counter_set(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// Install a pre-built histogram under a name.
    pub fn histogram_set(&mut self, name: &str, hist: LogHistogram) {
        self.histograms.insert(name.to_string(), hist);
    }

    /// Render in the Prometheus text exposition format: counters as-is,
    /// histograms as cumulative `_bucket{le=...}` series plus `_sum`,
    /// `_count`, and quantile gauges.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, hist) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (upper, count) in hist.nonzero_buckets() {
                cumulative += count;
                let _ = writeln!(out, "{name}_bucket{{le=\"{upper}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", hist.count());
            let _ = writeln!(out, "{name}_sum {}", hist.sum());
            let _ = writeln!(out, "{name}_count {}", hist.count());
            for (label, pct) in [
                ("0.5", 50.0),
                ("0.9", 90.0),
                ("0.99", 99.0),
                ("0.999", 99.9),
            ] {
                let _ = writeln!(
                    out,
                    "{name}{{quantile=\"{label}\"}} {}",
                    hist.value_at_percentile(pct)
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histograms_render() {
        let mut reg = Registry::new();
        reg.counter_set("xover_completed", 97);
        // Absolute, not additive: the second set replaces the first.
        reg.counter_set("xover_completed", 100);
        let mut hist = LogHistogram::new();
        hist.record_n(10, 4);
        hist.record(1000);
        reg.histogram_set("xover_latency_cycles", hist);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE xover_completed counter"));
        assert!(text.contains("xover_completed 100"));
        assert!(text.contains("# TYPE xover_latency_cycles histogram"));
        assert!(text.contains("xover_latency_cycles_bucket{le=\"10\"} 4"));
        assert!(text.contains("xover_latency_cycles_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("xover_latency_cycles_count 5"));
        assert!(text.contains("xover_latency_cycles_sum 1040"));
        assert!(text.contains("quantile=\"0.5\""));
    }

    #[test]
    fn render_is_deterministic() {
        let mut a = Registry::new();
        a.counter_set("b", 2);
        a.counter_set("a", 1);
        let mut b = Registry::new();
        b.counter_set("a", 1);
        b.counter_set("b", 2);
        assert_eq!(a.render_prometheus(), b.render_prometheus());
    }
}
