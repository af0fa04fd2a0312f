//! Shared support for the benchmark harness.
//!
//! Every bench regenerates one table or figure of the paper. Since a
//! crawl is the expensive part, each bench binary builds the world and
//! runs the campaign **once** (cached in a `OnceLock`) and then
//! benchmarks the analysis it exercises; the regenerated table/figure is
//! printed around the Criterion run so `cargo bench` output can be
//! compared against the paper side by side.
//!
//! Scale is controlled by two environment variables:
//!
//! * `TOPICS_BENCH_SITES` — number of ranked sites (default 6,000);
//! * `TOPICS_BENCH_FULL=1` — force the paper's full 50,000.

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use std::time::Instant;
use topics_core::crawler::record::CampaignOutcome;
use topics_core::webgen::World;
use topics_core::{Lab, LabConfig};
use topics_obs::{MetricsSnapshot, Obs};

/// The live gauge holding the attestation-probe phase wall time.
pub const PROBE_WALL_GAUGE: &str = "phase_wall_us{phase=\"attestation-probe\"}";

/// The default benchmark scale (sites).
pub const DEFAULT_SITES: usize = 6_000;
/// The campaign seed shared by every bench.
pub const BENCH_SEED: u64 = 2_024;

/// Benchmark scale from the environment.
pub fn bench_sites() -> usize {
    if std::env::var("TOPICS_BENCH_FULL").as_deref() == Ok("1") {
        return 50_000;
    }
    std::env::var("TOPICS_BENCH_SITES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SITES)
}

/// A world plus the campaign crawled on it.
pub struct SharedCampaign {
    /// The synthetic web.
    pub lab: Lab,
    /// The crawl result.
    pub outcome: CampaignOutcome,
    /// Metrics snapshot of the setup crawl.
    pub metrics: MetricsSnapshot,
}

impl SharedCampaign {
    /// The world (convenience accessor).
    pub fn world(&self) -> &World {
        &self.lab.world
    }
}

/// Machine-readable summary of one perf-smoke run. `BENCH_summary.json`
/// holds an append-only array of these — one entry per recorded PR —
/// chained by [`chain_digest`] so CI can detect rewritten history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSummary {
    /// Ranked sites crawled.
    pub sites: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Wall-clock milliseconds the setup crawl took.
    pub crawl_wall_ms: u64,
    /// Successfully visited sites (|D_BA|).
    pub visited: usize,
    /// Banner-accepted sites (|D_AA|).
    pub accepted: usize,
    /// Wall-clock microseconds of the attestation-probe phase
    /// ([`PROBE_WALL_GAUGE`]); 0 in summaries from older builds.
    #[serde(default)]
    pub probe_wall_us: u64,
    /// Wall-clock milliseconds of the full evaluation + report render;
    /// 0 in entries from older builds.
    #[serde(default)]
    pub report_wall_ms: u64,
    /// Heap bytes allocated across the campaign run (counting
    /// allocator); 0 in entries from older builds.
    #[serde(default)]
    pub alloc_bytes: u64,
    /// OS peak RSS (`VmHWM`) of the recording process; 0 in entries
    /// from older builds or off Linux.
    #[serde(default)]
    pub peak_rss_bytes: u64,
    /// Wall-clock milliseconds to decode a 4-way segment split and
    /// stream it through the merge into the columnar store (what
    /// `topics-lab merge` runs, minus disk I/O); entries recorded before
    /// the JSON store was retired timed decode + batch merge + JSON
    /// re-serialisation instead. 0 in entries from older builds. Skipped from the encoding when zero so legacy
    /// entries keep their recorded [`chain_digest`].
    #[serde(default, skip_serializing_if = "u64_is_zero")]
    pub shard_merge_wall_ms: u64,
    /// Wall-clock milliseconds to encode the campaign into the columnar
    /// store (`ColumnarCampaign::from_outcome`); 0 in entries from
    /// builds without the column store. Skipped from the encoding when
    /// zero so legacy entries keep their recorded [`chain_digest`].
    #[serde(default, skip_serializing_if = "u64_is_zero")]
    pub encode_wall_ms: u64,
    /// Size in bytes of the encoded columnar store; 0 in entries from
    /// builds without the column store.
    #[serde(default, skip_serializing_if = "u64_is_zero")]
    pub store_bytes: u64,
    /// Wall-clock milliseconds of a full column scan
    /// (`topics_analysis::colscan::scan`) over the decoded store — the
    /// zero-deserialization query path; 0 in entries from builds
    /// without the column store.
    #[serde(default, skip_serializing_if = "u64_is_zero")]
    pub query_wall_ms: u64,
    /// Wall-clock milliseconds for 64 sequential `/api/report` fetches
    /// against an in-process `topics-lab serve` holding the store
    /// resident (steady-state query latency of the live service); 0 in
    /// entries from builds without the server. Skipped from the
    /// encoding when zero so legacy entries keep their recorded
    /// [`chain_digest`].
    #[serde(default, skip_serializing_if = "u64_is_zero")]
    pub serve_query_wall_ms: u64,
    /// Wall-clock milliseconds of one `simulate` engine run (arena
    /// advancement + k-anonymity + re-identification attack) at the
    /// smoke scale (`sites × 10` users, 10 epochs); 0 in entries from
    /// builds without the population engine. Skipped from the encoding
    /// when zero so legacy entries keep their recorded [`chain_digest`].
    #[serde(default, skip_serializing_if = "u64_is_zero")]
    pub simulate_wall_ms: u64,
    /// OS peak RSS (`VmHWM`) read right after the simulate run — an
    /// upper bound on the engine's resident footprint (the crawl runs
    /// later in the same process); 0 in entries from builds without the
    /// population engine or off Linux. Skipped from the encoding when
    /// zero so legacy entries keep their recorded [`chain_digest`].
    #[serde(default, skip_serializing_if = "u64_is_zero")]
    pub simulate_peak_rss: u64,
    /// Hash-chain value: [`chain_digest`] of the previous entry's chain
    /// and this entry with `chain` zeroed. 0 only in legacy entries.
    #[serde(default)]
    pub chain: u64,
}

/// `skip_serializing_if` predicate keeping zero-valued late-addition
/// columns out of the canonical encoding (chain stability).
fn u64_is_zero(v: &u64) -> bool {
    *v == 0
}

/// The chain value an entry must carry given its predecessor's chain.
///
/// FNV-1a over the predecessor chain (little-endian) followed by the
/// entry's canonical JSON with `chain` zeroed. Serde field order is
/// declaration order, so the encoding is deterministic.
pub fn chain_digest(prev_chain: u64, entry: &BenchSummary) -> u64 {
    let mut canonical = entry.clone();
    canonical.chain = 0;
    let json = serde_json::to_string(&canonical).expect("summary serialises");
    let mut buf = prev_chain.to_le_bytes().to_vec();
    buf.extend_from_slice(json.as_bytes());
    topics_net::seed::fnv1a(&buf)
}

/// Read the perf history. A legacy file holding a single summary object
/// is promoted to a one-entry history; `None` when missing or
/// unparsable.
pub fn read_history(path: &std::path::Path) -> Option<Vec<BenchSummary>> {
    let text = std::fs::read_to_string(path).ok()?;
    if let Ok(entries) = serde_json::from_str::<Vec<BenchSummary>>(&text) {
        return Some(entries);
    }
    serde_json::from_str::<BenchSummary>(&text)
        .ok()
        .map(|s| vec![s])
}

/// Verify the hash chain of a history. Entry 0 may carry `chain == 0`
/// (recorded before chaining existed); every other entry must equal
/// [`chain_digest`] of its predecessor. Returns the first violation.
pub fn verify_history(entries: &[BenchSummary]) -> Result<(), String> {
    let mut prev = 0u64;
    for (i, entry) in entries.iter().enumerate() {
        if !(i == 0 && entry.chain == 0) {
            let want = chain_digest(prev, entry);
            if entry.chain != want {
                return Err(format!(
                    "history entry {i} chain mismatch: recorded {}, expected {want} \
                     (history rewritten or truncated?)",
                    entry.chain
                ));
            }
        }
        prev = entry.chain;
    }
    Ok(())
}

/// Append an entry to the history at `path`, computing its chain value.
/// The existing history (if any) must verify first — appending never
/// repairs a broken chain silently.
pub fn append_entry(path: &std::path::Path, mut entry: BenchSummary) -> Result<(), String> {
    let mut entries = read_history(path).unwrap_or_default();
    verify_history(&entries)?;
    let prev = entries.last().map(|e| e.chain).unwrap_or(0);
    entry.chain = chain_digest(prev, &entry);
    entries.push(entry);
    let mut json = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        json.push_str(&serde_json::to_string(e).expect("summary serialises"));
    }
    json.push_str("\n]\n");
    std::fs::write(path, json).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// True when `new` extends `old` without touching existing entries —
/// the append-only contract CI enforces between the committed history
/// and the working-tree one.
pub fn is_append_only(old: &[BenchSummary], new: &[BenchSummary]) -> bool {
    new.len() >= old.len() && new[..old.len()] == *old
}

/// Regression gates: >30% slower or >25% more memory than the baseline
/// entry fails. Zero baselines (older recordings) and scale mismatches
/// skip the corresponding gate. Returns every violation, not just the
/// first.
pub fn check_regression(baseline: &BenchSummary, current: &BenchSummary) -> Vec<String> {
    let mut violations = Vec::new();
    if baseline.sites != current.sites {
        return violations;
    }
    // (label, baseline value, current value, limit numerator/denominator)
    let gates: [(&str, u64, u64, u64, u64); 12] = [
        (
            "crawl_wall_ms",
            baseline.crawl_wall_ms,
            current.crawl_wall_ms,
            13,
            10,
        ),
        (
            "probe_wall_us",
            baseline.probe_wall_us,
            current.probe_wall_us,
            13,
            10,
        ),
        (
            "report_wall_ms",
            baseline.report_wall_ms,
            current.report_wall_ms,
            13,
            10,
        ),
        (
            "alloc_bytes",
            baseline.alloc_bytes,
            current.alloc_bytes,
            5,
            4,
        ),
        (
            "peak_rss_bytes",
            baseline.peak_rss_bytes,
            current.peak_rss_bytes,
            5,
            4,
        ),
        (
            "shard_merge_wall_ms",
            baseline.shard_merge_wall_ms,
            current.shard_merge_wall_ms,
            13,
            10,
        ),
        (
            "encode_wall_ms",
            baseline.encode_wall_ms,
            current.encode_wall_ms,
            13,
            10,
        ),
        (
            "store_bytes",
            baseline.store_bytes,
            current.store_bytes,
            5,
            4,
        ),
        (
            "query_wall_ms",
            baseline.query_wall_ms,
            current.query_wall_ms,
            13,
            10,
        ),
        (
            "serve_query_wall_ms",
            baseline.serve_query_wall_ms,
            current.serve_query_wall_ms,
            13,
            10,
        ),
        (
            "simulate_wall_ms",
            baseline.simulate_wall_ms,
            current.simulate_wall_ms,
            13,
            10,
        ),
        (
            "simulate_peak_rss",
            baseline.simulate_peak_rss,
            current.simulate_peak_rss,
            5,
            4,
        ),
    ];
    for (label, base, cur, num, den) in gates {
        if base == 0 {
            continue;
        }
        let limit = base.saturating_mul(num) / den;
        if cur > limit {
            violations.push(format!(
                "{label} regressed: {cur} > {limit} ({num}/{den} × baseline {base})"
            ));
        }
    }
    violations
}

/// Index of the newest entry recorded at `sites` — the comparison
/// baseline, so an entry at another scale never hides an older
/// same-scale one.
pub fn newest_at_scale(history: &[BenchSummary], sites: usize) -> Option<usize> {
    history.iter().rposition(|e| e.sites == sites)
}

/// Read the newest entry of a history file (the comparison baseline);
/// `None` when missing, unparsable, or empty.
pub fn read_summary(path: &std::path::Path) -> Option<BenchSummary> {
    read_history(path)?.pop()
}

/// Where the bench summary is written: `TOPICS_BENCH_SUMMARY`, or
/// `BENCH_summary.json` in the working directory.
pub fn summary_path() -> std::path::PathBuf {
    std::env::var("TOPICS_BENCH_SUMMARY")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::PathBuf::from("BENCH_summary.json"))
}

/// The per-process shared campaign (built on first use).
pub fn shared() -> &'static SharedCampaign {
    static SHARED: OnceLock<SharedCampaign> = OnceLock::new();
    SHARED.get_or_init(|| {
        let sites = bench_sites();
        let obs = Obs::with_stderr_echo();
        obs.events.info(
            "bench-setup",
            vec![
                ("sites".into(), sites.into()),
                ("seed".into(), BENCH_SEED.into()),
            ],
        );
        let lab = Lab::new(LabConfig::quick(BENCH_SEED, sites));
        let crawl_started = Instant::now();
        let run = lab.run_observed(&obs);
        // The setup crawl only logs its timing. The perf-regression
        // ledger (BENCH_summary.json) is append-only and owned by the
        // perf_smoke binary's record mode — a cargo-bench warm-up run
        // must never clobber recorded history.
        obs.events.info(
            "bench-crawl-done",
            vec![
                ("visited".into(), run.visited_count().into()),
                ("accepted".into(), run.accepted_count().into()),
                (
                    "crawl_wall_ms".into(),
                    (crawl_started.elapsed().as_millis() as u64).into(),
                ),
            ],
        );
        SharedCampaign {
            lab,
            metrics: run.metrics,
            outcome: run.outcome,
        }
    })
}

/// Print a banner separating the regenerated artefact from Criterion's
/// timing output.
pub fn banner(title: &str) {
    eprintln!("\n================================================================");
    eprintln!("{title}");
    eprintln!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(sites: usize, probe: u64, alloc: u64) -> BenchSummary {
        BenchSummary {
            sites,
            seed: BENCH_SEED,
            crawl_wall_ms: 100,
            visited: sites * 4 / 5,
            accepted: sites / 4,
            probe_wall_us: probe,
            report_wall_ms: 20,
            alloc_bytes: alloc,
            peak_rss_bytes: 1 << 26,
            shard_merge_wall_ms: 15,
            encode_wall_ms: 12,
            store_bytes: 1 << 22,
            query_wall_ms: 4,
            serve_query_wall_ms: 6,
            simulate_wall_ms: 800,
            simulate_peak_rss: 1 << 27,
            chain: 0,
        }
    }

    #[test]
    fn history_appends_and_verifies_chain() {
        let dir = std::env::temp_dir().join(format!("bench-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.json");
        let _ = std::fs::remove_file(&path);

        append_entry(&path, entry(2_000, 7_000, 1 << 24)).unwrap();
        append_entry(&path, entry(2_000, 7_100, 1 << 24)).unwrap();
        let history = read_history(&path).unwrap();
        assert_eq!(history.len(), 2);
        assert!(verify_history(&history).is_ok());
        // Every appended entry carries a non-zero chain value.
        assert!(history.iter().all(|e| e.chain != 0));
        // read_summary returns the newest entry.
        assert_eq!(read_summary(&path).unwrap(), history[1]);

        // Tampering with a recorded value breaks the chain.
        let mut forged = history.clone();
        forged[0].probe_wall_us = 1;
        let err = verify_history(&forged).unwrap_err();
        assert!(err.contains("entry 0"), "{err}");

        // Dropping an entry from the middle breaks the chain too.
        let truncated = vec![history[1].clone()];
        assert!(verify_history(&truncated).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn legacy_single_object_history_is_promoted() {
        let dir = std::env::temp_dir().join(format!("bench-legacy-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.json");
        // A pre-ledger file: one bare object, no chain, no memory columns.
        std::fs::write(
            &path,
            r#"{"sites":2000,"seed":2024,"crawl_wall_ms":352,"visited":1737,"accepted":587,"probe_wall_us":7455}"#,
        )
        .unwrap();
        let history = read_history(&path).unwrap();
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].chain, 0, "legacy entries have no chain");
        assert_eq!(history[0].report_wall_ms, 0, "missing columns default");
        // A zero chain is tolerated at index 0 only.
        assert!(verify_history(&history).is_ok());
        // Appending on top of a legacy entry produces a verifiable chain.
        append_entry(&path, entry(2_000, 7_500, 1 << 24)).unwrap();
        let extended = read_history(&path).unwrap();
        assert_eq!(extended.len(), 2);
        assert!(verify_history(&extended).is_ok());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_only_contract_detects_rewrites() {
        let a = entry(2_000, 7_000, 1 << 24);
        let b = entry(2_000, 7_100, 1 << 24);
        let old = vec![a.clone()];
        assert!(is_append_only(&old, &[a.clone(), b.clone()]));
        assert!(is_append_only(&old, &old.clone()));
        assert!(!is_append_only(&old, &[]), "truncation is a rewrite");
        assert!(
            !is_append_only(&old, &[b.clone(), a.clone()]),
            "editing an existing entry is a rewrite"
        );
    }

    #[test]
    fn regression_gates_fire_at_the_documented_thresholds() {
        let base = entry(2_000, 10_000, 1_000_000);
        // At the limit: 1.30× time and 1.25× memory pass.
        let mut at = base.clone();
        at.probe_wall_us = 13_000;
        at.alloc_bytes = 1_250_000;
        assert!(check_regression(&base, &at).is_empty());
        // One past the limit fails, naming the metric.
        let mut over = at.clone();
        over.probe_wall_us = 13_001;
        let v = check_regression(&base, &over);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("probe_wall_us"), "{v:?}");
        // Memory gate is tighter (25%).
        let mut mem = base.clone();
        mem.alloc_bytes = 2_000_000;
        mem.peak_rss_bytes = base.peak_rss_bytes * 2;
        let v = check_regression(&base, &mem);
        assert_eq!(v.len(), 2, "{v:?}");
        // Zero baselines (older recordings) skip their gate.
        let mut legacy = base.clone();
        legacy.alloc_bytes = 0;
        legacy.peak_rss_bytes = 0;
        legacy.report_wall_ms = 0;
        assert!(check_regression(&legacy, &mem).is_empty());
        // Scale mismatch skips everything.
        let mut other_scale = over.clone();
        other_scale.sites = 6_000;
        assert!(check_regression(&base, &other_scale).is_empty());
    }

    #[test]
    fn crawl_wall_gate_fires_against_the_newest_same_scale_entry() {
        let base = entry(2_000, 10_000, 1_000_000);
        let mut at = base.clone();
        at.crawl_wall_ms = base.crawl_wall_ms * 13 / 10;
        assert!(check_regression(&base, &at).is_empty());
        let mut over = at.clone();
        over.crawl_wall_ms += 1;
        let v = check_regression(&base, &over);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("crawl_wall_ms"), "{v:?}");

        let mut older = base.clone();
        older.crawl_wall_ms = 500;
        let mut other_scale = base.clone();
        other_scale.sites = 50_000;
        let history = vec![older, base.clone(), other_scale];
        assert_eq!(newest_at_scale(&history, 2_000), Some(1));
        assert_eq!(newest_at_scale(&history, 6_000), None);
    }

    #[test]
    fn columnar_store_gates_fire() {
        let base = entry(2_000, 10_000, 1_000_000);
        // encode/query are time gates (13/10); store_bytes is a size
        // gate on the tighter 5/4 ratio.
        let mut over = base.clone();
        over.encode_wall_ms = base.encode_wall_ms * 13 / 10 + 1;
        over.query_wall_ms = base.query_wall_ms * 13 / 10 + 1;
        over.serve_query_wall_ms = base.serve_query_wall_ms * 13 / 10 + 1;
        over.store_bytes = base.store_bytes * 5 / 4 + 1;
        let v = check_regression(&base, &over);
        assert_eq!(v.len(), 4, "{v:?}");
        assert!(v.iter().any(|m| m.contains("encode_wall_ms")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("store_bytes")), "{v:?}");
        assert!(
            v.iter()
                .any(|m| m.contains("query_wall_ms") && !m.contains("serve_query_wall_ms")),
            "{v:?}"
        );
        assert!(v.iter().any(|m| m.contains("serve_query_wall_ms")), "{v:?}");
        // Pre-columnar baselines (zero columns) skip the new gates.
        let mut legacy = base.clone();
        legacy.encode_wall_ms = 0;
        legacy.store_bytes = 0;
        legacy.query_wall_ms = 0;
        legacy.serve_query_wall_ms = 0;
        assert!(check_regression(&legacy, &over)
            .iter()
            .all(|m| !m.contains("encode") && !m.contains("store") && !m.contains("query")));
    }

    #[test]
    fn simulate_gates_fire() {
        let base = entry(2_000, 10_000, 1_000_000);
        // simulate_wall_ms is a time gate (13/10); simulate_peak_rss a
        // memory gate on the tighter 5/4 ratio.
        let mut over = base.clone();
        over.simulate_wall_ms = base.simulate_wall_ms * 13 / 10 + 1;
        over.simulate_peak_rss = base.simulate_peak_rss * 5 / 4 + 1;
        let v = check_regression(&base, &over);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|m| m.contains("simulate_wall_ms")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("simulate_peak_rss")), "{v:?}");
        // At the limit passes.
        let mut at = base.clone();
        at.simulate_wall_ms = base.simulate_wall_ms * 13 / 10;
        at.simulate_peak_rss = base.simulate_peak_rss * 5 / 4;
        assert!(check_regression(&base, &at).is_empty());
        // Pre-engine baselines (zero columns) skip the new gates.
        let mut legacy = base.clone();
        legacy.simulate_wall_ms = 0;
        legacy.simulate_peak_rss = 0;
        assert!(check_regression(&legacy, &over)
            .iter()
            .all(|m| !m.contains("simulate")));
        // Zero-valued simulate columns stay out of the encoding so
        // legacy chain digests keep verifying.
        let json = serde_json::to_string(&legacy).unwrap();
        assert!(!json.contains("simulate_wall_ms"), "{json}");
        assert!(!json.contains("simulate_peak_rss"), "{json}");
        let json = serde_json::to_string(&base).unwrap();
        assert!(json.contains("simulate_wall_ms"), "{json}");
    }

    #[test]
    fn zero_columnar_columns_stay_out_of_the_canonical_encoding() {
        // A legacy entry re-serialised must not gain the new columns —
        // otherwise its recorded chain digest would stop verifying.
        let mut legacy = entry(2_000, 7_000, 1 << 24);
        legacy.encode_wall_ms = 0;
        legacy.store_bytes = 0;
        legacy.query_wall_ms = 0;
        legacy.serve_query_wall_ms = 0;
        let json = serde_json::to_string(&legacy).unwrap();
        assert!(!json.contains("encode_wall_ms"), "{json}");
        assert!(!json.contains("store_bytes"), "{json}");
        assert!(!json.contains("query_wall_ms"), "{json}");
        assert!(!json.contains("serve_query_wall_ms"), "{json}");
        let populated = entry(2_000, 7_000, 1 << 24);
        let json = serde_json::to_string(&populated).unwrap();
        assert!(json.contains("encode_wall_ms"), "{json}");
    }

    #[test]
    fn bench_sites_defaults() {
        // Do not set the env vars here (tests run in parallel); just
        // check the default path when unset.
        if std::env::var("TOPICS_BENCH_SITES").is_err()
            && std::env::var("TOPICS_BENCH_FULL").is_err()
        {
            assert_eq!(bench_sites(), DEFAULT_SITES);
        }
    }
}
