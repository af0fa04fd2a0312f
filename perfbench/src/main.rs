//! topics-lab benchmark: end-to-end and per-layer measurements of the
//! crawl, crawl-observed, simulate and serve workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload crawl --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Run from the repository root. The benchmark derives every input
//! from `--seed`, repeats the workload for about `--seconds` seconds,
//! checks the outputs, prints what it measured line by line and ends
//! with one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a separately traced run with `--trace 1`.
//! Working files live under `.perfbench/` and are removed afterwards,
//! except the traced run's span log `.perfbench/spans-<workload>.jsonl`.

mod crawl;
mod report;
mod serve;
mod sim;
mod spans;
mod stats;
mod tap;

use report::Report;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use topics_core::obs::alloc;

#[global_allocator]
static ALLOC: topics_core::obs::CountingAlloc = topics_core::obs::CountingAlloc;

/// Threads or client connections any workload uses (the 2-core box
/// the workloads were sized on).
pub const THREADS: usize = 2;

/// Root of the working files, relative to the working directory.
const WORK_ROOT: &str = ".perfbench";

/// What one invocation was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Working directory of this invocation.
    pub dir: PathBuf,
    /// Identifier shared by every span of this run.
    pub run_id: String,
}

impl Ctx {
    /// Write the traced run's spans next to the working directory.
    pub fn write_spans(&self, workload: &str, spans: &[spans::Span]) -> Result<(), String> {
        let path = Path::new(WORK_ROOT).join(format!("spans-{workload}.jsonl"));
        std::fs::write(&path, spans::to_jsonl(&self.run_id, spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("  {} spans written to {}", spans.len(), path.display());
        Ok(())
    }
}

/// Timings of the rounds a batch workload ran.
#[derive(Debug, Default)]
pub struct Rounds {
    /// Each round's fastest set-up time.
    pub setup_s: Vec<f64>,
    pub work_s: Vec<f64>,
    /// VmHWM in MiB when the first round ended.
    pub first_peak_rss_mib: f64,
}

/// Repeat `round` until about `seconds` have passed: a new round
/// starts only if one as long as the last still fits, and at least
/// `min_rounds` run. `round` returns its set-up samples in seconds,
/// taken at several moments of the round, its work seconds and its own
/// check outcome; a failed check counts the round failed.
///
/// A round's set-up time is the fastest of its samples: on the 2-vCPU
/// VM the workloads were sized on, core speed flips between two levels
/// about 1.7x apart every 0.5-2 s, and the median or mean of a run's
/// 5-50 ms set-ups follows the share of time spent at each level, which
/// differs from run to run by more than a code change would move it.
/// The fastest of several samples taken at different moments is the
/// set-up at the faster level. `setup_s` is the median over rounds.
pub fn repeat(
    seconds: f64,
    min_rounds: usize,
    report: &mut Report,
    mut round: impl FnMut(usize, &mut Report) -> Result<(Vec<f64>, f64, bool), String>,
) -> Result<Rounds, String> {
    let started = Instant::now();
    let mut out = Rounds::default();
    loop {
        let i = out.work_s.len();
        let t = Instant::now();
        let (setup, work, ok) = round(i, report)?;
        let fastest = setup.iter().copied().fold(f64::INFINITY, f64::min);
        let setup_line = format!(
            "setup fastest {fastest:.4} s of {} (mean {:.4}, max {:.4})",
            setup.len(),
            setup.iter().sum::<f64>() / setup.len().max(1) as f64,
            stats::max(&setup)
        );
        out.setup_s.push(fastest);
        out.work_s.push(work);
        if i == 0 {
            out.first_peak_rss_mib = stats::peak_rss_mib();
        }
        report.attempted += 1;
        if !ok {
            report.failed += 1;
        }
        println!(
            "round {i}: {setup_line}, work {work:.4} s, check {}",
            if ok { "ok" } else { "FAILED" }
        );
        let per_round = t.elapsed().as_secs_f64();
        let elapsed = started.elapsed().as_secs_f64();
        if out.work_s.len() >= min_rounds && elapsed + per_round > seconds {
            return Ok(out);
        }
    }
}

/// Seconds `f` took, with its result.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Wall time, allocation count and allocated bytes of one layer call.
/// The allocation fields are 0 unless the counting allocator is on.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layer {
    pub secs: f64,
    pub allocs: u64,
    pub bytes: u64,
}

/// Time `f` as layer `name`: a span under `parent` in a traced round,
/// and an allocation delta when counting is on.
pub fn layer<R>(
    layers: &mut BTreeMap<&'static str, Layer>,
    parent: Option<u64>,
    name: &'static str,
    f: impl FnOnce(u64) -> R,
) -> R {
    let before = alloc::global_stats();
    let (out, secs) = match parent {
        Some(p) => {
            let (out, span) = spans::timed(name, p, f);
            (out, span.dur_ns() as f64 / 1e9)
        }
        None => time(|| f(0)),
    };
    let after = alloc::global_stats();
    layers.insert(
        name,
        Layer {
            secs,
            allocs: after.alloc_count - before.alloc_count,
            bytes: after.alloc_bytes - before.alloc_bytes,
        },
    );
    out
}

/// Report the batch workloads' end-to-end metrics from their rounds:
/// `items` units of work per round, named `item_name` in the log.
pub fn report_batch(report: &mut Report, rounds: &Rounds, items: f64, item_name: &str) {
    let n = rounds.work_s.len();
    let work = stats::median(&rounds.work_s);
    report.set(
        "setup_s",
        stats::median(&rounds.setup_s),
        &format!("median over {n} rounds of each round's fastest set-up"),
    );
    report.set(
        "items_per_s",
        items / work,
        &format!("{item_name}: {items} per run / median run wall, n={n}"),
    );
    // The first round is one fresh process's set-up and pass, as the
    // CLI runs them; later rounds start on what the allocator kept
    // from earlier ones, so the whole run's peak grew with the number
    // of rounds (by 8-40% at 25 s on the three batch workloads).
    report.set(
        "peak_rss_mib",
        rounds.first_peak_rss_mib,
        "VmHWM of this process when the first round ended",
    );
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload crawl|crawl-observed|simulate|serve \
         --seed N --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let Some(seed) = value("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage();
    };
    // Internal mode: build the serve fixture in a child process, so
    // the serving process's peak RSS is not the fixture crawl's.
    if let Some(dir) = value("--make-serve-fixture") {
        return match serve::make_fixture(Path::new(dir), seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (Some(workload), Some(seconds), Some(trace)) = (
        value("--workload"),
        value("--seconds")
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|s| s.is_finite() && *s > 0.0),
        value("--trace"),
    ) else {
        return usage();
    };
    let traced = match trace {
        "0" => false,
        "1" => true,
        _ => return usage(),
    };
    let run_id = format!(
        "{workload}-seed{seed}-pid{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis())
    );
    let ctx = Ctx {
        seed,
        seconds,
        dir: Path::new(WORK_ROOT).join(&run_id),
        run_id,
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.dir) {
        eprintln!("error: creating {}: {e}", ctx.dir.display());
        return ExitCode::FAILURE;
    }
    println!(
        "topics-lab benchmark: workload {workload}, seed {seed}, {seconds} s, {} run {}, \
         {} available cores",
        if traced { "traced" } else { "untraced" },
        ctx.run_id,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut report = Report::default();
    let result = match workload {
        "crawl" => crawl::run(&ctx, false, traced, &mut report),
        "crawl-observed" => crawl::run(&ctx, true, traced, &mut report),
        "simulate" => sim::run(&ctx, traced, &mut report),
        "serve" => serve::run(&ctx, traced, &mut report),
        _ => {
            let _ = std::fs::remove_dir_all(&ctx.dir);
            return usage();
        }
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    if let Err(e) = result {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "ops: {} attempted, {} failed, fail_frac {}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    println!("{}", report.to_json(traced));
    ExitCode::SUCCESS
}
