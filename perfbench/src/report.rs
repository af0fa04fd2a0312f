//! Metric names, the human-readable log, and the final JSON line.

use std::collections::BTreeMap;
use std::fmt::Display;

/// End-to-end metrics, reported by every untraced run. Each workload
/// fills them from its own unit of work: a site for the crawls, a
/// user-epoch for simulate, a request for serve.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every traced run; a layer the
/// workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("webgen.generate_ms", "ms"),
    ("webgen.generate_allocs", "count"),
    ("net.fetch_count", "count"),
    ("net.fetch_busy_ms", "ms"),
    ("net.fetch_p50_us", "us"),
    ("net.fetch_p99_us", "us"),
    ("net.body_bytes", "bytes"),
    ("net.fetch_err_count", "count"),
    ("net.probe_fetch_count", "count"),
    ("net.resolve_count", "count"),
    ("net.resolve_fail_count", "count"),
    ("net.resolve_busy_ms", "ms"),
    ("crawler.campaign_ms", "ms"),
    ("crawler.exchange_ms", "ms"),
    ("crawler.unattributed_ms", "ms"),
    ("crawler.page_loads", "count"),
    ("crawler.page_load_p50_ms", "ms"),
    ("crawler.page_load_p99_ms", "ms"),
    ("crawler.worker_tail_ms", "ms"),
    ("crawler.probe_ms", "ms"),
    ("crawler.allocs_per_page_load", "count"),
    ("crawler.alloc_bytes_per_page_load", "bytes"),
    ("browser.self_ms", "ms"),
    ("browser.html_parse_ns_per_byte", "ns/byte"),
    ("browser.script_parse_ns_per_byte", "ns/byte"),
    ("browser.topics_calls", "count"),
    ("taxonomy.classify_ns", "ns"),
    ("analysis.evaluate_ms", "ms"),
    ("analysis.evaluate_allocs", "count"),
    ("analysis.render_ms", "ms"),
    ("analysis.colscan_ms", "ms"),
    ("export.write_bundle_ms", "ms"),
    ("export.write_bundle_allocs", "count"),
    ("export.bundle_bytes", "bytes"),
    ("columnar.encode_ms", "ms"),
    ("columnar.decode_ms", "ms"),
    ("columnar.store_bytes", "bytes"),
    ("obs.trace_spans", "count"),
    ("obs.trace_bytes", "bytes"),
    ("obs.trace_export_ms", "ms"),
    ("obs.metrics_render_ms", "ms"),
    ("obs.overhead_x", "x"),
    ("sim.universe_ms", "ms"),
    ("sim.advance_ms", "ms"),
    ("sim.advance_ns_per_visit", "ns"),
    ("sim.advance_allocs", "count"),
    ("sim.kanon_ms", "ms"),
    ("sim.attack_ms", "ms"),
    ("sim.attack_us_per_query", "us"),
    ("sim.attack_allocs", "count"),
    ("sim.arena_bytes", "bytes"),
    ("serve.build_ms", "ms"),
    ("serve.build_allocs", "count"),
    ("serve.p99_us.report", "us"),
    ("serve.p99_us.csv", "us"),
    ("serve.p99_us.metrics", "us"),
    ("serve.p99_us.healthz", "us"),
    ("serve.connect_p50_us", "us"),
    ("serve.non200_count", "count"),
    ("bench.trace_overhead_x", "x"),
    ("bench.spans", "count"),
];

/// Everything one run reports: metric values, operation counts and
/// the outcome of every output check.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted (runs of the workload, or requests).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    checks_failed: u64,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("?", |(_, u)| u)
}

impl Report {
    /// Print one comparison as `what: got <got> vs want <want>` and
    /// count it when it fails.
    pub fn check(&mut self, what: &str, got: impl Display, want: impl Display, ok: bool) -> bool {
        println!(
            "check {} {what}: got {got} vs want {want}",
            if ok { "[ok]  " } else { "[FAIL]" }
        );
        if !ok {
            self.checks_failed += 1;
        }
        ok
    }

    /// Record a metric (by its name in [`END_TO_END`] or [`PER_LAYER`])
    /// and print it with its unit and how it was measured.
    pub fn set(&mut self, name: &'static str, value: f64, how: &str) {
        debug_assert!(unit_of(name) != "?", "unknown metric {name}");
        println!("metric {name} = {value} {}  ({how})", unit_of(name));
        self.values.insert(name, value);
    }

    /// Print a line of context that is not a metric.
    pub fn note(&self, line: impl Display) {
        println!("  {line}");
    }

    /// The final JSON line: the end-to-end metrics for an untraced run,
    /// the per-layer metrics for a traced one.
    pub fn to_json(&self, traced: bool) -> String {
        let names = if traced { PER_LAYER } else { END_TO_END };
        let mut correct = self.checks_failed == 0 && self.failed == 0 && self.attempted > 0;
        let mut metrics = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => {
                    correct = false;
                    0.0
                }
                // A layer this workload does not run reads 0; an
                // end-to-end metric must always be measured.
                None => {
                    correct &= traced;
                    0.0
                }
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
    }

    /// The metric lists in the code and in BENCHMARK.json must agree.
    #[test]
    fn names_match_benchmark_json() {
        let json = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json next to the benchmark directory");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                json.contains(&needle),
                "{needle} missing from BENCHMARK.json"
            );
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn json_line_has_every_metric_and_flags_missing_e2e() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("setup_s", 0.5, "test");
        let line = r.to_json(false);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        let traced = r.to_json(true);
        assert!(traced.starts_with("{\"correct\": true"), "{traced}");
        assert!(traced.contains("\"bench.spans\": {\"value\": 0.0"));
    }
}
