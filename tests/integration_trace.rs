//! Integration: the hierarchical trace subsystem.
//!
//! The trace is part of the determinism contract: with wall-clock and
//! operational worker spans stripped, the same seed and configuration
//! must serialize to byte-identical JSONL regardless of thread counts.
//! On top of the trace, the doctor report must profile a real campaign
//! and catch structural corruption.

use topics_core::crawler::record::CampaignOutcome;
use topics_core::net::fault::FaultProfile;
use topics_core::obs::{mem_profile, Obs, Trace, Tracer};
use topics_core::{diagnose, diagnose_trace, Lab, LabConfig};

const SITES: usize = 500;

fn traced_run(config: LabConfig) -> (CampaignOutcome, Trace) {
    let obs = Obs::new().with_trace();
    let run = Lab::new(config).run_observed(&obs);
    (run.outcome, obs.trace.finish())
}

fn stripped_jsonl(config: LabConfig) -> String {
    traced_run(config).1.stripped().to_jsonl()
}

#[test]
fn same_seed_traces_are_byte_identical_across_runs_and_thread_counts() {
    let config = || LabConfig::quick(23, SITES).with_threads(4);
    let baseline = stripped_jsonl(config());
    assert!(!baseline.is_empty());
    assert_eq!(
        baseline,
        stripped_jsonl(config()),
        "re-running the same configuration changes the stripped trace"
    );
    for probe_threads in [1, 4, 8] {
        assert_eq!(
            baseline,
            stripped_jsonl(config().with_probe_threads(probe_threads)),
            "--probe-threads {probe_threads} changes the stripped trace"
        );
    }
    // Crawl parallelism must not leak into the trace either.
    assert_eq!(
        baseline,
        stripped_jsonl(LabConfig::quick(23, SITES).with_threads(1)),
        "crawl thread count changes the stripped trace"
    );
}

#[test]
fn trace_survives_a_jsonl_round_trip() {
    let (_, trace) = traced_run(LabConfig::quick(29, 60).with_threads(2));
    let parsed = Trace::from_jsonl(&trace.to_jsonl()).expect("round trip parses");
    assert_eq!(trace.spans, parsed.spans);
    // The Chrome export wraps at least one event per span in the
    // `traceEvents` envelope Perfetto expects.
    let chrome = trace.to_chrome_json();
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.matches("\"ph\":").count() >= trace.spans.len());
}

#[test]
fn doctor_profiles_a_faulty_campaign() {
    let (outcome, trace) = traced_run(
        LabConfig::quick(37, SITES)
            .with_threads(2)
            .with_fault_profile(FaultProfile::parse("0.05").unwrap()),
    );
    let report = diagnose(&outcome, &trace, 10);
    assert!(report.is_healthy(), "violations: {:?}", report.violations());
    assert_eq!(report.attempted, SITES);

    // Critical path descends from a phase into campaign work.
    assert!(report.profile.critical_path.len() >= 2);

    // Worker utilization is present and sane for the crawl pool.
    let idle = report.profile.idle_fractions();
    let crawl_idle = idle
        .iter()
        .find(|(phase, _)| phase == "crawl")
        .map(|(_, f)| *f)
        .expect("crawl worker spans recorded");
    assert!((0.0..=1.0).contains(&crawl_idle));

    // Top-10 slowest visits, ranked.
    assert_eq!(report.profile.slowest_visits.len(), 10);
    let durations: Vec<u64> = report
        .profile
        .slowest_visits
        .iter()
        .map(|v| v.duration_ms)
        .collect();
    let mut sorted = durations.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(durations, sorted, "slowest visits are ordered");
    assert!(!report.profile.slowest_visits[0].domain.is_empty());

    // 5% faults produce retries, and the profiler clusters them.
    assert!(!report.profile.retry_clusters.is_empty());

    // The rendered report names every advertised section.
    let text = report.render();
    for needle in [
        "Trace/metric reconciliation",
        "Critical path",
        "Worker utilization",
        "Retry hot-spots",
        "Slowest visits",
    ] {
        assert!(text.contains(needle), "missing section {needle}");
    }
}

#[test]
fn doctor_detects_an_injected_orphan_in_a_serialized_trace() {
    let (outcome, trace) = traced_run(LabConfig::quick(41, 60).with_threads(2));
    // Corrupt the trace the way a broken writer would: through the
    // serialized fixture, not the in-memory structs.
    let corrupted: String = trace
        .to_jsonl()
        .lines()
        .enumerate()
        .map(|(i, line)| {
            let mut span: topics_core::obs::SpanRecord = serde_json::from_str(line).unwrap();
            if i == 5 {
                span.parent = Some(999_999);
            }
            format!("{}\n", serde_json::to_string(&span).unwrap())
        })
        .collect();
    let trace = Trace::from_jsonl(&corrupted).expect("corrupted fixture still parses");
    let report = diagnose(&outcome, &trace, 10);
    assert!(!report.is_healthy());
    assert!(
        report.violations().iter().any(|v| v.contains("orphan")),
        "violations: {:?}",
        report.violations()
    );
}

#[test]
fn doctor_names_a_parent_cycle_from_a_one_bit_flip() {
    // In the 3-site, seed-7 campaign probe span 121 hangs under span
    // 120; flipping the low bit of its ID gives it its parent's ID, so
    // the parent links form a loop. The analysers used to follow it
    // until memory ran out. World generation is traced first, as the
    // CLI's `crawl --sites 3 --seed 7 --trace-out` does.
    let obs = Obs::new().with_trace();
    let lab = {
        let _span = obs.phase("world-gen");
        Lab::new(LabConfig::quick(7, 3))
    };
    let outcome = lab.run_observed(&obs).outcome;
    let trace = obs.trace.finish();
    let mut bytes = trace.to_jsonl().into_bytes();
    let needle = br#"{"id":121,"parent":120,"name":"probe""#;
    let at = bytes
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("fixture holds probe span 121 under span 120");
    bytes[at + 8] ^= 0x01;
    let text = String::from_utf8(bytes).unwrap();
    assert!(text.contains(r#"{"id":120,"parent":120,"name":"probe""#));
    let trace = Trace::from_jsonl(&text).expect("the flip keeps the line valid JSON");

    let named = |violations: Vec<String>| {
        violations
            .iter()
            .any(|v| v.contains("parent is not an earlier ID") && v.contains("120"))
    };
    let report = diagnose(&outcome, &trace, 10);
    assert!(!report.is_healthy());
    assert!(named(report.violations()), "{:?}", report.violations());
    let report = diagnose_trace(&trace, 10);
    assert!(!report.is_healthy());
    assert!(named(report.violations()), "{:?}", report.violations());
    mem_profile(&trace, 10);
}

/// A hand-built traced campaign of a few dozen spans: every phase kind,
/// visits with nested page loads, fetches, retries and Topics calls,
/// probes, an operational worker span, and allocation attribution.
/// Wall times are pinned so the fixture's bytes repeat.
fn small_trace() -> Trace {
    let tracer = Tracer::enabled();
    tracer.phase("world-gen").end(None);
    let crawl = tracer.phase("crawl");
    for rank in 1..=3u64 {
        let at = rank * 1_000;
        let host = format!("site{rank}.example");
        let mut b = tracer.visit_builder().unwrap();
        let v = b.open("visit", Some(at));
        b.field(v, "domain", host.as_str());
        b.field(v, "rank", rank);
        b.field(v, "alloc_bytes", 4_096 * rank);
        b.field(v, "alloc_count", 10 * rank);
        b.field(v, "peak_bytes", 1_024 * rank);
        let pl = b.open("page-load", Some(at));
        b.field(pl, "alloc_bytes", 1_024 * rank);
        let f = b.leaf("fetch", Some(at), Some(at + 20));
        b.field(f, "host", host.as_str());
        let r = b.leaf("retry", Some(at + 5), Some(at + 15));
        b.field(r, "host", host.as_str());
        b.field(r, "attempt", 1u64);
        let c = b.leaf("topics-call", Some(at + 30), None);
        b.field(c, "caller", "ads.example");
        b.close(pl, Some(at + 50));
        b.close(v, Some(at + 80));
        crawl.attach(b);
    }
    let mut w = tracer.visit_builder().unwrap();
    let ws = w.open_op("worker", None);
    w.field(ws, "phase", "crawl");
    w.field(ws, "worker", 0u64);
    w.field(ws, "busy_us", 750u64);
    w.field(ws, "span_us", 1_000u64);
    w.field(ws, "items", 3u64);
    w.close(ws, None);
    crawl.attach(w);
    crawl.field("alloc_bytes", 100_000u64);
    crawl.field("alloc_count", 40u64);
    crawl.field("peak_bytes", 50_000u64);
    crawl.end(Some((1_000, 3_080)));
    let probe = tracer.phase("attestation-probe");
    for (i, domain) in ["ads.example", "cdn.example"].iter().enumerate() {
        let at = 4_000 + i as u64;
        let mut b = tracer.visit_builder().unwrap();
        let p = b.leaf("probe", Some(at), Some(at + 1));
        b.field(p, "domain", *domain);
        b.field(p, "attested", i == 0);
        probe.attach(b);
    }
    probe.field("cache_hits", 1u64);
    probe.end(Some((4_000, 4_002)));
    let mut trace = tracer.finish();
    for s in &mut trace.spans {
        s.wall_start_us = s.id * 10;
        s.wall_end_us = s.id * 10 + 5;
    }
    trace
}

/// The trace JSONL decoder sweep: every single-byte flip (masks 0x01
/// and 0x80) and every truncation of a small trace either fails to
/// decode with a typed error or decodes into a trace the doctor and the
/// memory profiler analyse to the end — never a panic or a hang.
#[test]
fn every_trace_flip_and_truncation_is_ok_or_a_typed_error() {
    let trace = small_trace();
    assert!(diagnose_trace(&trace, 10).is_healthy());
    let good = trace.to_jsonl().into_bytes();
    let mut cases = Vec::with_capacity(3 * good.len());
    for i in 0..good.len() {
        for mask in [0x01u8, 0x80] {
            let mut bad = good.clone();
            bad[i] ^= mask;
            cases.push((format!("flip {mask:#04x} at byte {i}"), bad));
        }
    }
    for len in 0..good.len() {
        cases.push((format!("truncation to {len} bytes"), good[..len].to_vec()));
    }
    let (mut decoded, mut refused) = (0, 0);
    for (what, bytes) in cases {
        let outcome = std::panic::catch_unwind(|| {
            // A file that is not UTF-8 is refused before the decoder.
            let Ok(text) = std::str::from_utf8(&bytes) else {
                return false;
            };
            match Trace::from_jsonl(text) {
                Ok(trace) => {
                    diagnose_trace(&trace, 10).render();
                    mem_profile(&trace, 10).render();
                    true
                }
                Err(e) => {
                    assert!(e.starts_with("trace line "), "untyped error {e:?}");
                    false
                }
            }
        });
        match outcome {
            Ok(true) => decoded += 1,
            Ok(false) => refused += 1,
            Err(_) => panic!("{what}: the decoder or an analyser panicked"),
        }
    }
    assert_eq!(decoded + refused, 3 * good.len());
    assert!(
        decoded > 0 && refused > 0,
        "{decoded} decoded, {refused} refused"
    );
}
