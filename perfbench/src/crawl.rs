//! The `crawl` and `crawl-observed` workloads: what `topics-lab crawl`
//! does, with the paper's configuration (corrupted fail-open
//! allow-list, faults off, 2 crawl threads) at 6,000 sites.
//!
//! Set-up is world generation. The measured part is the campaign
//! (crawl plus attestation probe), evaluation, the report and the
//! bundle write; `crawl-observed` adds what `--trace-out --alloc-stats
//! --metrics-out --events-out` turn on and must produce the identical
//! bundle.

use crate::report::Report;
use crate::spans::{self, Span};
use crate::tap::{self, Samples, Tap};
use crate::{layer, repeat, report_batch, stats, time, Ctx, Layer, THREADS};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use topics_core::browser::{html, script};
use topics_core::crawler::columnar::ColumnarCampaign;
use topics_core::crawler::record::CampaignOutcome;
use topics_core::crawler::{
    run_campaign_observed, tally_outcome, AllowListSetup, CampaignConfig, CrawlTarget,
};
use topics_core::export::{write_bundle, StoreKind};
use topics_core::obs::metrics::labeled;
use topics_core::obs::{alloc, MetricsSnapshot, Obs, Trace};
use topics_core::taxonomy::Classifier;
use topics_core::webgen::World;
use topics_core::{diagnose, evaluate, Lab, LabConfig};

/// Sites per campaign.
pub const SITES: usize = 6_000;

/// Files the observability flags add to the bundle directory; they
/// hold wall-clock times, so they are not part of the output digest.
const OBS_FILES: [&str; 3] = ["metrics.prom", "events.jsonl", "trace.jsonl"];

pub(crate) fn config(seed: u64, threads: usize) -> LabConfig {
    LabConfig::quick(seed, SITES)
        .with_allow_list(AllowListSetup::CorruptedFailOpen)
        .with_threads(threads)
}

/// What one pass of the crawl command produced.
struct Pass {
    outcome: CampaignOutcome,
    snapshot: MetricsSnapshot,
    trace: Option<Trace>,
    report: String,
    /// `(file, fnv1a)` of every bundle file except the observability
    /// outputs, sorted by name.
    digests: Vec<(String, u64)>,
    bundle_bytes: u64,
    trace_bytes: u64,
    work_s: f64,
    layers: BTreeMap<&'static str, Layer>,
}

/// The observability handle of one pass; `--alloc-stats` (allocation
/// counting) is on exactly when the pass is observed.
fn new_obs(observed: bool) -> Obs {
    alloc::set_enabled(observed);
    if observed {
        Obs::new().with_trace()
    } else {
        Obs::new()
    }
}

/// World generation, as the CLI runs it (under the `world-gen` phase).
fn setup(
    seed: u64,
    threads: usize,
    obs: &Obs,
    layers: &mut BTreeMap<&'static str, Layer>,
    parent: Option<u64>,
) -> (Lab, f64) {
    let cfg = config(seed, threads);
    let world = layer(layers, parent, "webgen.generate", |_| {
        let _phase = obs.phase("world-gen");
        World::generate(cfg.world)
    });
    let lab = Lab {
        world,
        campaign: cfg.campaign,
    };
    (lab, layers["webgen.generate"].secs)
}

/// One more timed world generation, outside any phase: a set-up sample
/// taken at another moment of the round.
fn setup_sample(seed: u64) -> f64 {
    time(|| World::generate(config(seed, THREADS).world)).1
}

/// The crawl command after world generation: campaign, evaluation,
/// bundle, the observability outputs when `observed`, and the report.
fn pass<W: CrawlTarget>(
    world: &W,
    campaign: &CampaignConfig,
    obs: &Obs,
    observed: bool,
    dir: &Path,
    parent: Option<u64>,
    mut layers: BTreeMap<&'static str, Layer>,
) -> Result<Pass, String> {
    let write = |name: &str, body: &[u8]| {
        std::fs::write(dir.join(name), body).map_err(|e| format!("writing {name}: {e}"))
    };
    let started = Instant::now();
    let outcome = layer(&mut layers, parent, "crawler.campaign", |id| {
        spans::set_parent(id);
        // As `Lab::run_observed`: progress events into the event log.
        run_campaign_observed(world, campaign, Some(obs), |done, total| {
            obs.events.info(
                "progress",
                vec![
                    ("done".to_owned(), done.into()),
                    ("total".to_owned(), total.into()),
                ],
            );
        })
    });
    tally_outcome(&outcome, &obs.metrics);
    let snapshot = obs.metrics.snapshot();
    let eval = layer(&mut layers, parent, "analysis.evaluate", |_| {
        let _phase = obs.phase("analysis");
        evaluate(&outcome)
    });
    layer(&mut layers, parent, "export.write_bundle", |_| {
        let _phase = obs.phase("export");
        write_bundle(dir, &outcome, &eval, false, StoreKind::default())
    })
    .map_err(|e| format!("writing bundle to {}: {e}", dir.display()))?;
    let mut trace = None;
    let mut trace_bytes = 0;
    if observed {
        let prom = layer(&mut layers, parent, "obs.metrics_render", |_| {
            alloc::publish(&obs.metrics);
            obs.metrics.snapshot().render_prometheus()
        });
        write(OBS_FILES[0], prom.as_bytes())?;
        write(OBS_FILES[1], obs.events.to_jsonl().as_bytes())?;
        let (t, body) = layer(&mut layers, parent, "obs.trace_export", |_| {
            let t = obs.trace.finish();
            let body = t.to_jsonl();
            (t, body)
        });
        write(OBS_FILES[2], body.as_bytes())?;
        trace_bytes = body.len() as u64;
        trace = Some(t);
    }
    let report = layer(&mut layers, parent, "analysis.render_report", |_| {
        eval.render_report()
    });
    let work_s = started.elapsed().as_secs_f64();

    let mut digests = Vec::new();
    let mut bundle_bytes = 0;
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("listing {}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| !OBS_FILES.contains(&n.as_str()))
        .collect();
    names.sort();
    for name in names {
        let bytes = std::fs::read(dir.join(&name)).map_err(|e| format!("reading {name}: {e}"))?;
        bundle_bytes += bytes.len() as u64;
        digests.push((name, stats::fnv1a(&bytes)));
    }
    Ok(Pass {
        outcome,
        snapshot,
        trace,
        report,
        digests,
        bundle_bytes,
        trace_bytes,
        work_s,
        layers,
    })
}

fn digest_summary(d: &[(String, u64)]) -> String {
    format!(
        "{} files, combined {:016x}",
        d.len(),
        stats::fnv1a(format!("{d:?}").as_bytes())
    )
}

/// The per-round output checks; prints each comparison.
fn check_pass(
    report: &mut Report,
    pass: &Pass,
    reference: &mut Option<Vec<(String, u64)>>,
    label: &str,
) -> bool {
    let mut ok = true;
    match reference {
        Some(want) => {
            ok &= report.check(
                &format!("{label} bundle digests (report.txt, every CSV, campaign file)"),
                digest_summary(&pass.digests),
                digest_summary(want),
                pass.digests == *want,
            );
        }
        None => {
            for (name, d) in &pass.digests {
                report.note(format!("{label} digest {name} {d:016x}"));
            }
            *reference = Some(pass.digests.clone());
        }
    }
    let report_file = pass
        .digests
        .iter()
        .find(|(n, _)| n == "report.txt")
        .map_or(0, |(_, d)| *d);
    ok &= report.check(
        &format!("{label} printed report == report.txt"),
        format!("{:016x}", stats::fnv1a(pass.report.as_bytes())),
        format!("{report_file:016x}"),
        stats::fnv1a(pass.report.as_bytes()) == report_file,
    );
    let attempted = pass.snapshot.counter("sites_attempted_total");
    ok &= report.check(
        &format!("{label} sites_attempted_total == sites"),
        attempted,
        SITES,
        attempted == SITES as u64,
    );
    let visits = pass.snapshot.counter("visits_total");
    ok &= report.check(
        &format!("{label} visits_total == visited sites in the outcome"),
        visits,
        pass.outcome.visited_count(),
        visits == pass.outcome.visited_count() as u64,
    );
    if let Some(trace) = &pass.trace {
        let visit_spans = trace.count_named("visit");
        ok &= report.check(
            &format!("{label} trace visit spans == sites"),
            visit_spans,
            SITES,
            visit_spans == SITES,
        );
    }
    ok
}

/// World generations per extra set-up sampling moment.
const SETUP_REPS: usize = 4;

/// One untraced round: set-up, then a pass. Returns the set-up samples
/// (`SETUP_REPS` before the round's own set-up, that set-up,
/// `SETUP_REPS` after the pass) and the pass.
fn plain_round(ctx: &Ctx, observed: bool, i: usize) -> Result<(Vec<f64>, Pass), String> {
    let dir = ctx.dir.join(format!("round{i}"));
    let mut samples: Vec<f64> = (0..SETUP_REPS).map(|_| setup_sample(ctx.seed)).collect();
    let obs = new_obs(observed);
    let mut layers = BTreeMap::new();
    let (lab, setup_s) = setup(ctx.seed, THREADS, &obs, &mut layers, None);
    let out = pass(
        &lab.world,
        &lab.campaign,
        &obs,
        observed,
        &dir,
        None,
        layers,
    );
    let _ = std::fs::remove_dir_all(&dir);
    let out = out?;
    drop(lab);
    samples.push(setup_s);
    samples.extend((0..SETUP_REPS).map(|_| setup_sample(ctx.seed)));
    Ok((samples, out))
}

pub fn run(ctx: &Ctx, observed: bool, traced: bool, report: &mut Report) -> Result<(), String> {
    if traced {
        return run_traced(ctx, observed, report);
    }
    let mut reference = None;
    let mut last = None;
    let rounds = repeat(ctx.seconds, 3, report, |i, report| {
        // One pass alive at a time, as in `topics-lab crawl`.
        last = None;
        let (setup_s, p) = plain_round(ctx, observed, i)?;
        let ok = check_pass(report, &p, &mut reference, &format!("round {i}"));
        report.note(format!(
            "round {i} layers: {}",
            p.layers
                .iter()
                .map(|(name, l)| format!("{name} {:.1} ms", l.secs * 1e3))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        let work_s = p.work_s;
        last = Some(p);
        Ok((setup_s, work_s, ok))
    })?;
    let last = last.expect("at least one round");
    report_batch(report, &rounds, SITES as f64, "sites_per_s (sites)");
    check_store_round_trip(report, &last);
    if observed {
        // The observability flags must not change what the crawl finds.
        let (_, plain) = plain_round(ctx, false, usize::MAX)?;
        report.check(
            "crawl-observed bundle digests == crawl bundle digests, same seed",
            digest_summary(&last.digests),
            digest_summary(&plain.digests),
            last.digests == plain.digests,
        );
        let trace = last.trace.as_ref().expect("observed pass has a trace");
        let doctor = diagnose(&last.outcome, trace, 10);
        report.check(
            "doctor on the written trace: violations",
            doctor.violations().len(),
            0,
            doctor.is_healthy(),
        );
    }
    Ok(())
}

/// The campaign re-read from its columnar store renders the same report.
fn check_store_round_trip(report: &mut Report, pass: &Pass) {
    let store = ColumnarCampaign::from_outcome(&pass.outcome);
    let reread = ColumnarCampaign::decode(store.bytes().to_vec())
        .and_then(|s| s.to_outcome())
        .map(|o| evaluate(&o).render_report());
    let got = match &reread {
        Ok(r) => format!("{:016x}", stats::fnv1a(r.as_bytes())),
        Err(e) => format!("error {e}"),
    };
    report.check(
        "report rendered from the columnar store == report.txt",
        got,
        format!("{:016x}", stats::fnv1a(pass.report.as_bytes())),
        reread.as_deref() == Ok(pass.report.as_str()),
    );
}

/// Campaign digest: FNV-1a of the columnar encoding of the outcome.
fn campaign_digest(outcome: &CampaignOutcome) -> (u64, u64) {
    let store = ColumnarCampaign::from_outcome(outcome);
    (stats::fnv1a(store.bytes()), store.bytes().len() as u64)
}

/// One traced round through the exchange decorator.
struct Traced {
    pass: Pass,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, u64>,
    samples: Samples,
    /// [`campaign_digest`] of the round's outcome.
    digest: u64,
}

/// `count_allocs` turns the counting allocator on for the whole round
/// (an observed round has it on regardless).
fn traced_round(
    ctx: &Ctx,
    observed: bool,
    threads: usize,
    count_allocs: bool,
    tag: &str,
) -> Result<Traced, String> {
    let dir = ctx.dir.join(format!("traced-{tag}"));
    spans::begin();
    let root = spans::open("bench.round", 0);
    let root_id = Some(root.id());
    let obs = new_obs(observed);
    if count_allocs {
        alloc::set_enabled(true);
    }
    let mut layers = BTreeMap::new();
    let (lab, _) = setup(ctx.seed, threads, &obs, &mut layers, root_id);
    let tapped = Tap::new(&lab.world);
    let pass = pass(
        &tapped,
        &lab.campaign,
        &obs,
        observed,
        &dir,
        root_id,
        layers,
    );
    root.close();
    let spans = spans::drain();
    let _ = std::fs::remove_dir_all(&dir);
    let mut pass = pass?;
    let (digest, store_bytes) = campaign_digest(&pass.outcome);
    let count = |name| spans.iter().filter(|s| s.name == name).count() as u64;
    let mut counts = BTreeMap::new();
    counts.insert(
        "net.fetch_count",
        count(tap::FETCH) + count(tap::PROBE_FETCH),
    );
    counts.insert("net.probe_fetch_count", count(tap::PROBE_FETCH));
    counts.insert(
        "net.resolve_count",
        count(tap::RESOLVE_RANKED) + count(tap::RESOLVE_THIRD_PARTY),
    );
    let c = &tapped.counts;
    use std::sync::atomic::Ordering::Relaxed;
    counts.insert("net.resolve_fail_count", c.resolve_failures.load(Relaxed));
    counts.insert("net.body_bytes", c.body_bytes.load(Relaxed));
    counts.insert("net.fetch_err_count", c.fetch_errors.load(Relaxed));
    counts.insert("crawler.page_loads", count(tap::PAGE_LOAD));
    counts.insert(
        "browser.topics_calls",
        pass.snapshot.counter("topics_calls_recorded_total"),
    );
    counts.insert("columnar.store_bytes", store_bytes);
    counts.insert("export.bundle_bytes", pass.bundle_bytes);
    if let Some(t) = pass.trace.take() {
        counts.insert("obs.trace_spans", t.stripped().spans.len() as u64);
        pass.trace = Some(t);
    }
    Ok(Traced {
        samples: tapped.take_samples(),
        digest,
        pass,
        spans,
        counts,
    })
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nanoseconds per byte of `f` over `bodies`, repeated for at least
/// 200 ms.
fn replay_ns_per_byte(bodies: &[String], f: impl Fn(&str)) -> f64 {
    let bytes: usize = bodies.iter().map(String::len).sum();
    if bytes == 0 {
        return 0.0;
    }
    let started = Instant::now();
    let mut passes = 0usize;
    while passes == 0 || started.elapsed() < Duration::from_millis(200) {
        for b in bodies {
            f(b);
        }
        passes += 1;
    }
    started.elapsed().as_nanos() as f64 / (bytes * passes) as f64
}

fn run_traced(ctx: &Ctx, observed: bool, report: &mut Report) -> Result<(), String> {
    // Untraced reference rounds: the base of the trace overhead, the
    // reference digests, and (observed) the campaign time with
    // observability on.
    let mut reference = None;
    let mut untraced = Vec::new();
    let mut obs_on = Vec::new();
    for i in 0..3 {
        let (_, p) = plain_round(ctx, observed, i)?;
        report.attempted += 1;
        if !check_pass(report, &p, &mut reference, &format!("untraced round {i}")) {
            report.failed += 1;
        }
        untraced.push(p.work_s);
        obs_on.push(p.layers["crawler.campaign"].secs);
    }
    let reference = reference.expect("reference digests");
    let mut obs_off = Vec::new();
    if observed {
        for i in 0..3 {
            let (_, p) = plain_round(ctx, false, 10 + i)?;
            obs_off.push(p.layers["crawler.campaign"].secs);
        }
    }

    // The program's own path, for the decorator's transparency check.
    let lab_run = Lab::new(config(ctx.seed, THREADS)).run();
    let (lab_digest, _) = campaign_digest(&lab_run.outcome);

    let a = traced_round(ctx, observed, THREADS, false, "a")?;
    report.attempted += 1;
    let mut reference_opt = Some(reference);
    if !check_pass(report, &a.pass, &mut reference_opt, "traced round") {
        report.failed += 1;
    }
    report.check(
        "campaign digest through the decorator == Lab::run",
        format!("{:016x}", a.digest),
        format!("{lab_digest:016x}"),
        a.digest == lab_digest,
    );
    let m = &lab_run.metrics;
    let want_loads = m.counter("sites_attempted_total") + m.counter("banner_accepted_total");
    report.check(
        "decorator page loads == sites_attempted_total + banner_accepted_total",
        a.counts["crawler.page_loads"],
        want_loads,
        a.counts["crawler.page_loads"] == want_loads,
    );
    let dns_failures = a.counts["net.resolve_fail_count"];
    report.check(
        "decorator DNS failures == net_dns_failures_total",
        dns_failures,
        m.counter("net_dns_failures_total"),
        dns_failures == m.counter("net_dns_failures_total"),
    );
    report.check(
        "decorator probe fetches == attestation_probes_sent_total",
        a.counts["net.probe_fetch_count"],
        m.counter("attestation_probes_sent_total"),
        a.counts["net.probe_fetch_count"] == m.counter("attestation_probes_sent_total"),
    );
    let page_fetches = a.counts["net.fetch_count"] - a.counts["net.probe_fetch_count"];
    let net_requests = m.counter_sum("net_requests_total");
    report.note(format!(
        "decorator page-load fetches {page_fetches} vs net_requests_total {net_requests} \
         (the program counts exchanges on the simulated clock, cache hits included)"
    ));
    drop(lab_run);

    // Self-test: the second traced round, on one thread and with
    // allocation counting, repeats every count exactly.
    let a_counts = a.counts.clone();
    let b = traced_round(ctx, observed, 1, true, "b")?;
    alloc::set_enabled(false);
    for (name, want) in &a_counts {
        let got = b.counts.get(name).copied().unwrap_or(u64::MAX);
        report.check(
            &format!("{name} repeats across traced runs at 2 and 1 threads"),
            got,
            want,
            got == *want,
        );
    }

    // ---- Per-layer metrics from the first traced round ----
    let spans = &a.spans;
    let self_times = spans::self_times(spans);
    let threads = THREADS as f64;
    let campaign = spans
        .iter()
        .find(|s| s.name == "crawler.campaign")
        .expect("campaign span");
    let durs = |names: &[&str]| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| s.dur_ns() as f64)
            .collect()
    };
    let fetches = durs(&[tap::FETCH, tap::PROBE_FETCH]);
    let resolves = durs(&[tap::RESOLVE_RANKED, tap::RESOLVE_THIRD_PARTY]);
    let pages = durs(&[tap::PAGE_LOAD]);
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let exchange_ms = (sum(&fetches) + sum(&resolves)) / 1e6 / threads;
    let browser_self_ms = spans
        .iter()
        .filter(|s| s.name == tap::PAGE_LOAD)
        .map(|s| self_times.get(&s.id).copied().unwrap_or(s.dur_ns()))
        .sum::<u64>() as f64
        / 1e6
        / threads;
    let mut worker_end: BTreeMap<u32, u64> = BTreeMap::new();
    let page_threads: BTreeSet<u32> = spans
        .iter()
        .filter(|s| s.name == tap::PAGE_LOAD)
        .map(|s| s.thread)
        .collect();
    for s in spans.iter().filter(|s| page_threads.contains(&s.thread)) {
        let e = worker_end.entry(s.thread).or_default();
        *e = (*e).max(s.end_ns);
    }
    let ends: Vec<u64> = worker_end.values().copied().collect();
    let tail = ends.iter().max().unwrap_or(&0) - ends.iter().min().unwrap_or(&0);
    let campaign_ms = ms(campaign.dur_ns());
    let la = &a.pass.layers;
    let lb = &b.pass.layers;

    report.set(
        "webgen.generate_ms",
        a.pass.layers["webgen.generate"].secs * 1e3,
        "World::generate span, traced round",
    );
    report.set(
        "webgen.generate_allocs",
        lb["webgen.generate"].allocs as f64,
        "allocations in World::generate (1-thread traced round)",
    );
    for name in [
        "net.fetch_count",
        "net.probe_fetch_count",
        "net.resolve_count",
        "net.resolve_fail_count",
        "net.body_bytes",
        "net.fetch_err_count",
        "crawler.page_loads",
        "browser.topics_calls",
        "columnar.store_bytes",
        "export.bundle_bytes",
    ] {
        report.set(name, a.counts[name] as f64, "count, traced round");
    }
    report.set(
        "net.fetch_busy_ms",
        sum(&fetches) / 1e6,
        "sum of fetch spans, thread-time",
    );
    report.set(
        "net.fetch_p50_us",
        stats::quantile(&fetches, 0.5) / 1e3,
        &format!("n={}", fetches.len()),
    );
    report.set(
        "net.fetch_p99_us",
        stats::quantile(&fetches, 0.99) / 1e3,
        &format!(
            "n={}, {} beyond",
            fetches.len(),
            stats::beyond(fetches.len(), 0.99)
        ),
    );
    report.set(
        "net.resolve_busy_ms",
        sum(&resolves) / 1e6,
        "sum of resolve spans, thread-time",
    );
    report.set(
        "crawler.campaign_ms",
        campaign_ms,
        "run_campaign_observed span",
    );
    report.set(
        "crawler.exchange_ms",
        exchange_ms,
        &format!("exchange spans, thread-time / {THREADS} threads"),
    );
    report.set(
        "browser.self_ms",
        browser_self_ms,
        &format!("page loads minus their exchanges, thread-time / {THREADS} threads"),
    );
    report.set(
        "crawler.unattributed_ms",
        campaign_ms - exchange_ms - browser_self_ms,
        "campaign minus exchange minus browser self",
    );
    report.note(format!(
        "partition of crawler.campaign_ms {campaign_ms:.1} ms = exchange {exchange_ms:.1} ms \
         + browser self {browser_self_ms:.1} ms + unattributed {:.1} ms \
         (idle worker tail, probe-phase bookkeeping, coordinator)",
        campaign_ms - exchange_ms - browser_self_ms
    ));
    report.set(
        "crawler.page_load_p50_ms",
        stats::quantile(&pages, 0.5) / 1e6,
        &format!("n={}", pages.len()),
    );
    report.set(
        "crawler.page_load_p99_ms",
        stats::quantile(&pages, 0.99) / 1e6,
        &format!(
            "n={}, {} beyond",
            pages.len(),
            stats::beyond(pages.len(), 0.99)
        ),
    );
    report.set(
        "crawler.worker_tail_ms",
        ms(tail),
        &format!(
            "spread of the last exchange end over {} crawl workers",
            ends.len()
        ),
    );
    report.set(
        "crawler.probe_ms",
        a.pass
            .snapshot
            .gauge(&labeled("phase_wall_us", "phase", "attestation-probe")) as f64
            / 1e3,
        "phase_wall_us{phase=\"attestation-probe\"} gauge",
    );
    let loads_b = b.counts["crawler.page_loads"].max(1) as f64;
    report.set(
        "crawler.allocs_per_page_load",
        lb["crawler.campaign"].allocs as f64 / loads_b,
        "campaign allocations / page loads (1-thread traced round)",
    );
    report.set(
        "crawler.alloc_bytes_per_page_load",
        lb["crawler.campaign"].bytes as f64 / loads_b,
        "campaign allocated bytes / page loads (1-thread traced round)",
    );

    // Replays of the sampled bodies and the hosts seen.
    let html_ns = replay_ns_per_byte(&a.samples.html, |b| {
        black_box(html::parse(b));
    });
    let script_ns = replay_ns_per_byte(&a.samples.scripts, |b| {
        let _ = black_box(script::parse(b));
    });
    report.set(
        "browser.html_parse_ns_per_byte",
        html_ns,
        &format!(
            "html::parse over {} sampled documents",
            a.samples.html.len()
        ),
    );
    report.set(
        "browser.script_parse_ns_per_byte",
        script_ns,
        &format!(
            "script::parse over {} sampled scripts",
            a.samples.scripts.len()
        ),
    );
    let hosts: BTreeSet<_> = a
        .pass
        .outcome
        .sites
        .iter()
        .flat_map(|s| {
            std::iter::once(&s.website).chain(
                s.before
                    .iter()
                    .chain(s.after.iter())
                    .flat_map(|v| v.party_domains.iter()),
            )
        })
        .cloned()
        .collect();
    let hosts: Vec<_> = hosts.into_iter().collect();
    let classifier = Classifier::new(ctx.seed);
    let started = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || started.elapsed() < Duration::from_millis(200) {
        for h in &hosts {
            black_box(classifier.classify(h));
        }
        calls += hosts.len().max(1);
    }
    report.set(
        "taxonomy.classify_ns",
        started.elapsed().as_nanos() as f64 / calls as f64,
        &format!(
            "Classifier::classify over {} distinct hosts seen",
            hosts.len()
        ),
    );

    report.set(
        "analysis.evaluate_ms",
        la["analysis.evaluate"].secs * 1e3,
        "evaluate span",
    );
    report.set(
        "analysis.evaluate_allocs",
        lb["analysis.evaluate"].allocs as f64,
        "allocations in evaluate (1-thread traced round)",
    );
    report.set(
        "analysis.render_ms",
        la["analysis.render_report"].secs * 1e3,
        "render_report span",
    );
    report.set(
        "export.write_bundle_ms",
        la["export.write_bundle"].secs * 1e3,
        "write_bundle span",
    );
    report.set(
        "export.write_bundle_allocs",
        lb["export.write_bundle"].allocs as f64,
        "allocations in write_bundle (1-thread traced round)",
    );
    let (store, encode_s) = time(|| ColumnarCampaign::from_outcome(&a.pass.outcome));
    let (decoded, decode_s) = time(|| ColumnarCampaign::decode(store.bytes().to_vec()));
    report.check(
        "columnar store of the traced campaign decodes",
        decoded
            .as_ref()
            .map_or_else(|e| e.to_string(), |_| "ok".into()),
        "ok",
        decoded.is_ok(),
    );
    report.set(
        "columnar.encode_ms",
        encode_s * 1e3,
        "ColumnarCampaign::from_outcome",
    );
    report.set(
        "columnar.decode_ms",
        decode_s * 1e3,
        "ColumnarCampaign::decode",
    );

    if observed {
        report.set(
            "obs.trace_spans",
            a.counts["obs.trace_spans"] as f64,
            "spans in the program's stripped trace",
        );
        report.set(
            "obs.trace_bytes",
            a.pass.trace_bytes as f64,
            "trace.jsonl bytes",
        );
        report.set(
            "obs.trace_export_ms",
            la["obs.trace_export"].secs * 1e3,
            "Tracer::finish + Trace::to_jsonl",
        );
        report.set(
            "obs.metrics_render_ms",
            la["obs.metrics_render"].secs * 1e3,
            "alloc::publish + snapshot + render_prometheus",
        );
        report.set(
            "obs.overhead_x",
            stats::median(&obs_on) / stats::median(&obs_off),
            &format!(
                "median campaign with observability on {:.1} ms / off {:.1} ms, n=3 each",
                stats::median(&obs_on) * 1e3,
                stats::median(&obs_off) * 1e3
            ),
        );
    }
    report.set(
        "bench.trace_overhead_x",
        a.pass.work_s / stats::median(&untraced),
        &format!(
            "traced pass {:.1} ms / median untraced pass {:.1} ms (n=3)",
            a.pass.work_s * 1e3,
            stats::median(&untraced) * 1e3
        ),
    );
    report.set(
        "bench.spans",
        spans.len() as f64,
        "spans the benchmark recorded, traced round",
    );
    ctx.write_spans(if observed { "crawl-observed" } else { "crawl" }, spans)?;
    // The serve workload is not gated (see the README); its layers are
    // measured here, on a fixture crawled from the same seed.
    if observed {
        crate::serve::layers(ctx, report)?;
    }
    Ok(())
}
