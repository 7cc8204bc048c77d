//! Metric names, units, and the result line.

use crate::check::Checks;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
];

/// Per-layer metrics, reported by every traced run. Counts and ratios of
/// a layer that a workload does not use read 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("engine.jobs_submitted", "count"),
    ("engine.jobs_simulated", "count"),
    ("engine.baseline_hits", "count"),
    ("engine.prefix_hits", "count"),
    ("engine.prefix_misses", "count"),
    ("engine.prefix_hit_ratio", "ratio"),
    ("gpu.build_ms", "ms"),
    ("gpu.warmup_ns_per_cycle", "ns"),
    ("gpu.measured_ns_per_cycle", "ns"),
    ("gpu.ns_per_event", "ns"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.restore_ms", "ms"),
    ("snapshot.mb", "MB"),
    ("core.ipc", "1/cycle"),
    ("tlb.l1_per_cycle", "1/cycle"),
    ("tlb.l2_per_cycle", "1/cycle"),
    ("tlb.l2_miss_ratio", "ratio"),
    ("pagetable.walks_per_cycle", "1/cycle"),
    ("pagetable.pwc_per_cycle", "1/cycle"),
    ("cache.l2_data_per_cycle", "1/cycle"),
    ("cache.l2_xlat_per_cycle", "1/cycle"),
    ("cache.l2_xlat_bypassed_per_cycle", "1/cycle"),
    ("dram.data_per_cycle", "1/cycle"),
    ("dram.xlat_per_cycle", "1/cycle"),
    ("dram.row_hit_ratio", "ratio"),
    ("maskd.store_hit_ratio", "ratio"),
    ("maskd.jobs_simulated", "count"),
    ("maskd.refused", "count"),
    ("store.get_us", "us"),
    ("store.insert_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("loadgen.sent", "count"),
    ("trace.replayed_jobs", "count"),
    ("trace.traced_wall_s", "s"),
    ("sim.cycles", "count"),
    ("sim.events", "count"),
];

/// Metrics measured by one run, by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The value recorded under `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Prints every metric, one `metric <name> = <value> <unit>` line
    /// each; `listed` metrics come first, in order, `n/a` when a layer
    /// did not take part.
    pub fn print(&self, listed: &[(&str, &str)], extra_units: &[(&str, &str)]) {
        for (name, unit) in listed {
            match self.get(name) {
                Some(v) => println!("metric {name} = {v} {unit}"),
                None => println!("metric {name} = n/a {unit}"),
            }
        }
        for (name, unit) in extra_units {
            if listed.iter().any(|(l, _)| l == name) {
                continue;
            }
            if let Some(v) = self.get(name) {
                println!("metric {name} = {v} {unit}");
            }
        }
    }

    /// The final result line: exactly the `listed` metrics, a missing one
    /// reading 0.
    #[must_use]
    pub fn result_line(&self, listed: &[(&str, &str)], checks: &Checks) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            checks.failed == 0 && checks.attempted > 0,
            checks.attempted.max(1),
            checks.failed
        );
        for (i, (name, unit)) in listed.iter().enumerate() {
            let v = self.get(name).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let listed = text.matches("\"name\"").count();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads = crate::WORKLOADS.len();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
    }

    #[test]
    fn result_line_has_every_listed_metric() {
        let mut m = Metrics::default();
        m.set("wall_s", 1.5);
        m.set("setup_s", f64::NAN);
        let mut checks = Checks::default();
        checks.check("x", 1);
        let line = m.result_line(&END_TO_END, &checks);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    }
}
