//! The `serve` workload: a closed loop of 2 client connections against
//! `topics-lab serve` bound to a fixture store (`campaign.col` plus
//! `trace.jsonl` from a 6,000-site crawl of the seed's world).
//!
//! Each client waits for a reply before sending its next request, as
//! dashboards and scrapers do, over a fixed seeded mix of endpoints.
//! Set-up is `Server::bind` (decode, scan and pre-render). A request
//! fails on a non-200 status, an I/O error or a body that differs from
//! the fixture's offline artefact.

use crate::report::Report;
use crate::spans;
use crate::stats::{self, SplitMix};
use crate::{layer, time, Ctx, THREADS};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use topics_core::analysis::colscan;
use topics_core::crawler::columnar::ColumnarCampaign;
use topics_core::export::{load_campaign, write_bundle, StoreKind};
use topics_core::obs::{alloc, Obs, Trace};
use topics_core::{diagnose, evaluate, http_fetch, Lab, ServeConfig, Server, API_ENDPOINTS};

/// Requests each client sends per server lifetime (one round).
const REQUESTS_PER_CLIENT: usize = 12_000;

/// Latency classes reported separately by the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Report,
    Csv,
    Trace,
    Metrics,
    Healthz,
}

/// The traffic mix: every endpoint with the same weight, as
/// `examples/serve_latency.rs` sweeps them, with its latency class.
const MIX: &[(&str, Class)] = &[
    ("/api/report", Class::Report),
    ("/api/table1", Class::Csv),
    ("/api/fig2", Class::Csv),
    ("/api/fig3", Class::Csv),
    ("/api/fig5", Class::Csv),
    ("/api/fig6", Class::Csv),
    ("/api/fig7", Class::Csv),
    ("/api/anomalous", Class::Csv),
    ("/api/doctor", Class::Trace),
    ("/api/profile", Class::Trace),
    ("/metrics", Class::Metrics),
    ("/healthz", Class::Healthz),
];

/// Build the fixture: crawl the seed's world with tracing on, write
/// the columnar bundle and trace, and the offline doctor and profile
/// reports the two trace-backed endpoints must reproduce.
pub fn make_fixture(dir: &Path, seed: u64) -> Result<(), String> {
    let bundle = dir.join("bundle");
    let obs = Obs::new().with_trace();
    let lab = {
        let _phase = obs.phase("world-gen");
        Lab::new(crate::crawl::config(seed, THREADS))
    };
    let run = lab.run_observed(&obs);
    let eval = {
        let _phase = obs.phase("analysis");
        evaluate(&run.outcome)
    };
    {
        let _phase = obs.phase("export");
        write_bundle(&bundle, &run.outcome, &eval, false, StoreKind::Columnar)
            .map_err(|e| format!("writing fixture bundle: {e}"))?;
    }
    let trace_text = obs.trace.finish().to_jsonl();
    std::fs::write(bundle.join("trace.jsonl"), &trace_text)
        .map_err(|e| format!("writing fixture trace: {e}"))?;

    // As `topics-lab doctor --campaign bundle/campaign.col` prints it.
    let outcome = load_campaign(&bundle.join("campaign.col"))
        .map_err(|e| format!("reading fixture store: {e}"))?;
    let trace = Trace::from_jsonl(&trace_text)?;
    let mut doctor = diagnose(&outcome, &trace, 10);
    let (checked, violations) = topics_core::doctor::verify_segments(&bundle, &outcome);
    if checked > 0 {
        doctor = doctor.with_segment_checks(checked, violations);
    }
    if let Some(check) = topics_core::doctor::verify_columnar(&bundle, &outcome) {
        doctor = doctor.with_columnar_check(check);
    }
    let expect = dir.join("expect");
    std::fs::create_dir_all(&expect).map_err(|e| e.to_string())?;
    std::fs::write(expect.join("doctor.txt"), doctor.render()).map_err(|e| e.to_string())?;
    std::fs::write(
        expect.join("profile.txt"),
        topics_core::obs::profile(&trace, 10).render(),
    )
    .map_err(|e| e.to_string())
}

/// The fixture, built by a child process, and the body each path must
/// answer with.
struct Fixture {
    campaign: PathBuf,
    expected: BTreeMap<&'static str, Vec<u8>>,
}

fn fixture(ctx: &Ctx) -> Result<Fixture, String> {
    let dir = ctx.dir.join("fixture");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = std::process::Command::new(exe)
        .arg("--make-serve-fixture")
        .arg(&dir)
        .args(["--seed", &ctx.seed.to_string()])
        .status()
        .map_err(|e| format!("spawning the fixture process: {e}"))?;
    if !status.success() {
        return Err(format!("fixture process exited with {status}"));
    }
    let read = |p: PathBuf| std::fs::read(&p).map_err(|e| format!("reading {}: {e}", p.display()));
    let bundle = dir.join("bundle");
    let mut expected = BTreeMap::new();
    for (path, file) in API_ENDPOINTS {
        expected.insert(*path, read(bundle.join(file))?);
    }
    expected.insert("/api/doctor", read(dir.join("expect/doctor.txt"))?);
    expected.insert("/api/profile", read(dir.join("expect/profile.txt"))?);
    expected.insert("/healthz", b"ok\n".to_vec());
    Ok(Fixture {
        campaign: bundle.join("campaign.col"),
        expected,
    })
}

/// Each client's request sequence: indices into [`MIX`], drawn
/// uniformly from the seed.
fn plans(seed: u64) -> Vec<Vec<usize>> {
    (0..THREADS as u64)
        .map(|c| {
            let mut rng = SplitMix(seed ^ (0x5eed_0000 + c));
            (0..REQUESTS_PER_CLIENT)
                .map(|_| (rng.next_u64() % MIX.len() as u64) as usize)
                .collect()
        })
        .collect()
}

/// One request as the client saw it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    mix: usize,
    latency_us: f64,
    connect_us: f64,
    status: u16,
    body_ok: bool,
}

/// GET `path` over a fresh connection, timing the connect separately
/// (the traced client; the untraced one calls `http_fetch`).
fn fetch_timed(addr: &str, path: &str) -> std::io::Result<(u16, Vec<u8>, f64)> {
    let started = Instant::now();
    let mut conn = TcpStream::connect(addr)?;
    let connect_us = started.elapsed().as_secs_f64() * 1e6;
    conn.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        conn,
        "GET {path} HTTP/1.1\r\nHost: topics-lab\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw)?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
    let end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(bad)?;
    let status = std::str::from_utf8(&raw[..end])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    Ok((status, raw[end + 4..].to_vec(), connect_us))
}

fn client(
    addr: &str,
    plan: &[usize],
    expected: &BTreeMap<&str, Vec<u8>>,
    traced: Option<u64>,
) -> Vec<Sample> {
    plan.iter()
        .map(|&mix| {
            let path = MIX[mix].0;
            let request = traced.map(|root| spans::open("serve.request", root));
            let started = Instant::now();
            let (result, connect_us) = match request {
                Some(_) => match fetch_timed(addr, path) {
                    Ok((status, body, connect_us)) => (Ok((status, body)), connect_us),
                    Err(e) => (Err(e), 0.0),
                },
                None => (
                    http_fetch(addr, "GET", path).map(|r| (r.status, r.body)),
                    0.0,
                ),
            };
            let latency_us = started.elapsed().as_secs_f64() * 1e6;
            if let Some(open) = request {
                let id = open.id();
                let span = open.close();
                let connect = spans::open_at("serve.connect", id, span.start_ns);
                connect.close_at(span.start_ns + (connect_us * 1e3) as u64);
            }
            let (status, body_ok) = match &result {
                Ok((status, body)) => (
                    *status,
                    match expected.get(path) {
                        Some(want) => body == want,
                        // `/metrics` is rendered per scrape: check its shape.
                        None => body.windows(19).any(|w| w == b"http_requests_total"),
                    },
                ),
                Err(_) => (0, false),
            };
            Sample {
                mix,
                latency_us,
                connect_us,
                status,
                body_ok,
            }
        })
        .collect()
}

/// One server lifetime: bind, the closed loop, a reconciling scrape,
/// shutdown.
struct RoundOut {
    setup_s: f64,
    wall_s: f64,
    samples: Vec<Sample>,
    served: u64,
    scraped_total: u64,
    non200_server: u64,
}

fn round(fx: &Fixture, plans: &[Vec<usize>], traced: Option<u64>) -> Result<RoundOut, String> {
    let config = ServeConfig {
        threads: THREADS,
        ..ServeConfig::new(fx.campaign.clone())
    };
    let mut layers = BTreeMap::new();
    let server = layer(&mut layers, traced, "serve.bind", |_| {
        Server::bind(&config, Arc::new(Obs::new()))
    })
    .map_err(|e| e.to_string())?;
    let setup_s = layers["serve.bind"].secs;
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    // No panic may leave this scope before `handle.stop()`, or the
    // server thread would never return.
    let (samples, panicked, wall_s, scrape, served) = std::thread::scope(|s| {
        let srv = s.spawn(|| server.run());
        let started = Instant::now();
        let clients: Vec<_> = plans
            .iter()
            .map(|plan| s.spawn(|| client(&addr, plan, &fx.expected, traced)))
            .collect();
        let mut samples = Vec::new();
        let mut panicked = 0;
        for c in clients {
            match c.join() {
                Ok(s) => samples.extend(s),
                Err(_) => panicked += 1,
            }
        }
        let wall_s = started.elapsed().as_secs_f64();
        let scrape = http_fetch(&addr, "GET", "/metrics");
        handle.stop();
        (samples, panicked, wall_s, scrape, srv.join())
    });
    let served = served.map_err(|_| "the server thread panicked".to_owned())?;
    if panicked > 0 {
        return Err(format!("{panicked} client thread(s) panicked"));
    }
    let scrape = scrape.map_err(|e| format!("scraping /metrics: {e}"))?;
    let body = String::from_utf8_lossy(&scrape.body);
    let sum = |prefix: &str, skip: &str| -> u64 {
        body.lines()
            .filter(|l| l.starts_with(prefix) && !l.starts_with(skip))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
            .sum()
    };
    Ok(RoundOut {
        setup_s,
        wall_s,
        served,
        scraped_total: sum("http_requests_total{", "#"),
        non200_server: sum(
            "http_responses_total{",
            "http_responses_total{status=\"200\"}",
        ),
        samples,
    })
}

/// Count failed requests and print the round's reconciliation.
fn check_round(report: &mut Report, out: &RoundOut, label: &str) -> bool {
    let sent = out.samples.len() as u64;
    let failed = out
        .samples
        .iter()
        .filter(|s| s.status != 200 || !s.body_ok)
        .count() as u64;
    report.attempted += sent;
    report.failed += failed;
    let mut ok = report.check(
        &format!("{label} requests answered 200 with the artefact's bytes"),
        sent - failed,
        sent,
        failed == 0,
    );
    ok &= report.check(
        &format!("{label} /metrics http_requests_total == requests sent + the scrape"),
        out.scraped_total,
        sent + 1,
        out.scraped_total == sent + 1,
    );
    ok &= report.check(
        &format!("{label} requests the server served == requests sent + the scrape"),
        out.served,
        sent + 1,
        out.served == sent + 1,
    );
    ok
}

pub fn run(ctx: &Ctx, traced: bool, report: &mut Report) -> Result<(), String> {
    let fx = fixture(ctx)?;
    let plans = plans(ctx.seed);
    for (path, body) in &fx.expected {
        report.note(format!(
            "expected {path}: {} bytes, fnv1a {:016x}",
            body.len(),
            stats::fnv1a(body)
        ));
    }
    if traced {
        return run_traced(ctx, &fx, &plans, true, report);
    }
    let started = Instant::now();
    let mut setup = Vec::new();
    let mut rates = Vec::new();
    let (mut p50s, mut p90s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let out = round(&fx, &plans, None)?;
        let i = rates.len();
        let ok = check_round(report, &out, &format!("round {i}"));
        println!(
            "round {i}: bind {:.4} s, {} requests in {:.4} s, check {}",
            out.setup_s,
            out.samples.len(),
            out.wall_s,
            if ok { "ok" } else { "FAILED" }
        );
        setup.push(out.setup_s);
        rates.push(out.samples.len() as f64 / out.wall_s);
        let latencies: Vec<f64> = out.samples.iter().map(|s| s.latency_us).collect();
        p50s.push(stats::quantile(&latencies, 0.5));
        p90s.push(stats::quantile(&latencies, 0.9));
        p99s.push(stats::quantile(&latencies, 0.99));
        let per_round = out.setup_s + out.wall_s;
        if rates.len() >= 3 && started.elapsed().as_secs_f64() + per_round > ctx.seconds {
            break;
        }
    }
    // Latencies are taken per round (one server lifetime of n requests)
    // and logged as the median over rounds, as the throughput is.
    let rounds = rates.len();
    let n = THREADS * REQUESTS_PER_CLIENT;
    report.set(
        "setup_s",
        stats::median(&setup),
        &format!("Server::bind, median of {} binds", setup.len()),
    );
    report.set(
        "items_per_s",
        stats::median(&rates),
        &format!(
            "req_per_s: median over {} rounds of {THREADS} closed-loop clients",
            rates.len()
        ),
    );
    report.note(format!(
        "req_p50_us {:.1}: median over {rounds} rounds of n={n} requests",
        stats::median(&p50s)
    ));
    report.note(format!(
        "req_p90_us {:.1}: median over {rounds} rounds of the p90 of n={n}, {} beyond",
        stats::median(&p90s),
        stats::beyond(n, 0.9)
    ));
    report.note(format!(
        "req_p99_us {:.1}: median over {rounds} rounds of the p99 of n={n}, {} beyond",
        stats::median(&p99s),
        stats::beyond(n, 0.99)
    ));
    report.set(
        "peak_rss_mib",
        stats::peak_rss_mib(),
        "VmHWM of the serving process",
    );
    Ok(())
}

/// The serve layers (`serve.*`, `analysis.colscan_ms`) measured from
/// another workload's traced run: one traced server lifetime on a
/// fixture of the same seed.
pub fn layers(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let fx = fixture(ctx)?;
    run_traced(ctx, &fx, &plans(ctx.seed), false, report)
}

/// The traced server lifetime and the store layers of `Server::bind`.
/// `standalone` (the `serve` workload itself) also runs two untraced
/// rounds for the trace overhead and reports the columnar and bench
/// metrics, which a crawl's traced run reports for itself otherwise.
fn run_traced(
    ctx: &Ctx,
    fx: &Fixture,
    plans: &[Vec<usize>],
    standalone: bool,
    report: &mut Report,
) -> Result<(), String> {
    let mut per_request = Vec::new();
    let untraced_rounds = if standalone { 2 } else { 0 };
    for i in 0..untraced_rounds {
        let out = round(fx, plans, None)?;
        check_round(report, &out, &format!("untraced round {i}"));
        per_request.push(out.wall_s / out.samples.len().max(1) as f64);
    }

    spans::begin();
    let root = spans::open("bench.round", 0);
    let out = round(fx, plans, Some(root.id()));
    root.close();
    let spans = spans::drain();
    let out = out?;
    check_round(report, &out, "traced round");
    let bind_ms = spans
        .iter()
        .find(|s| s.name == "serve.bind")
        .map_or(0.0, |s| s.dur_ns() as f64 / 1e6);

    // The store layers Server::bind runs, timed one by one.
    let bytes = std::fs::read(&fx.campaign).map_err(|e| e.to_string())?;
    let (store, decode_s) = time(|| ColumnarCampaign::decode(bytes.clone()));
    let store = store.map_err(|e| e.to_string())?;
    let (index, colscan_s) = time(|| colscan::scan(&store));
    report.check(
        "colscan over the fixture store",
        index
            .as_ref()
            .map_or_else(|e| e.to_string(), |_| "ok".into()),
        "ok",
        index.is_ok(),
    );
    let outcome = store.to_outcome().map_err(|e| e.to_string())?;
    let (reencoded, encode_s) = time(|| ColumnarCampaign::from_outcome(&outcome));
    report.check(
        "re-encoded store is byte-identical to campaign.col (fnv1a)",
        format!("{:016x}", stats::fnv1a(reencoded.bytes())),
        format!("{:016x}", stats::fnv1a(&bytes)),
        reencoded.bytes() == bytes.as_slice(),
    );
    alloc::set_enabled(true);
    let before = alloc::global_stats().alloc_count;
    let bound = Server::bind(
        &ServeConfig {
            threads: THREADS,
            ..ServeConfig::new(fx.campaign.clone())
        },
        Arc::new(Obs::new()),
    );
    let build_allocs = alloc::global_stats().alloc_count - before;
    alloc::set_enabled(false);
    let build_wall_ms = bound.map_err(|e| e.to_string())?.service().build_wall_ms();

    let class_p99 = |class: Class| -> (f64, usize) {
        let v: Vec<f64> = out
            .samples
            .iter()
            .filter(|s| MIX[s.mix].1 == class)
            .map(|s| s.latency_us)
            .collect();
        (stats::quantile(&v, 0.99), v.len())
    };
    report.set(
        "serve.build_ms",
        bind_ms,
        &format!("Server::bind span (build_wall_ms of the counting bind: {build_wall_ms} ms)"),
    );
    report.set(
        "serve.build_allocs",
        build_allocs as f64,
        "allocations in a separate Server::bind with counting on",
    );
    for (name, class) in [
        ("serve.p99_us.report", Class::Report),
        ("serve.p99_us.csv", Class::Csv),
        ("serve.p99_us.metrics", Class::Metrics),
        ("serve.p99_us.healthz", Class::Healthz),
    ] {
        let (p99, n) = class_p99(class);
        report.set(
            name,
            p99,
            &format!("n={n}, {} beyond", stats::beyond(n, 0.99)),
        );
    }
    let connects: Vec<f64> = out.samples.iter().map(|s| s.connect_us).collect();
    report.set(
        "serve.connect_p50_us",
        stats::quantile(&connects, 0.5),
        &format!("TcpStream::connect, n={}", connects.len()),
    );
    let non200 = out.samples.iter().filter(|s| s.status != 200).count() as u64;
    report.check(
        "client non-200 count == server non-200 responses",
        non200,
        out.non200_server,
        non200 == out.non200_server,
    );
    report.set(
        "serve.non200_count",
        non200 as f64,
        "client side, traced round",
    );
    report.set(
        "analysis.colscan_ms",
        colscan_s * 1e3,
        "colscan::scan of the decoded store",
    );
    if !standalone {
        return ctx.write_spans("serve", &spans);
    }
    report.set(
        "columnar.decode_ms",
        decode_s * 1e3,
        "ColumnarCampaign::decode of campaign.col",
    );
    report.set(
        "columnar.encode_ms",
        encode_s * 1e3,
        "ColumnarCampaign::from_outcome",
    );
    report.set(
        "columnar.store_bytes",
        bytes.len() as f64,
        "campaign.col bytes",
    );
    let traced_per_request = out.wall_s / out.samples.len().max(1) as f64;
    report.set(
        "bench.trace_overhead_x",
        traced_per_request / stats::median(&per_request),
        &format!(
            "traced {:.2} us / untraced {:.2} us wall per request (n=2 rounds)",
            traced_per_request * 1e6,
            stats::median(&per_request) * 1e6
        ),
    );
    report.set(
        "bench.spans",
        spans.len() as f64,
        "spans the benchmark recorded",
    );
    ctx.write_spans("serve", &spans)
}
