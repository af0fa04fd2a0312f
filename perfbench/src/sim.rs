//! The `simulate` workload: the population engine at 30,000 users ×
//! 30 epochs on 2 threads, producing the k-anonymity and
//! re-identification curves of Jha et al.
//!
//! Set-up is the site universe. The measured part is arena advance,
//! the k-anonymity curve and the collection + linkage attack.

use crate::report::Report;
use crate::spans;
use crate::{layer, repeat, report_batch, stats, time, Ctx, Layer, THREADS};
use std::collections::BTreeMap;
use topics_core::baseline::simulate::{self, SimConfig, SimRun};
use topics_core::obs::alloc;
use topics_core::{write_sim_artefacts, SIM_KANON_FILE, SIM_REIDENT_FILE};

pub const USERS: usize = 30_000;
pub const EPOCHS: u64 = 30;

/// Universe builds per set-up sampling moment. One build takes about
/// 10 ms, so several per moment cost little.
const SETUP_REPS: usize = 8;

/// One simulation pass and what it measured.
struct Pass {
    run: SimRun,
    digests: [(&'static str, u64); 2],
    setup_s: Vec<f64>,
    work_s: f64,
    layers: BTreeMap<&'static str, Layer>,
}

fn pass(ctx: &Ctx, threads: usize, parent: Option<u64>, tag: &str) -> Result<Pass, String> {
    let cfg = SimConfig::new(ctx.seed, USERS, EPOCHS);
    cfg.validate()?;
    // An untraced pass also builds the universe again between the
    // measured layers (outside their timings): set-up samples taken at
    // several moments of the round, `SETUP_REPS` at each.
    let mut setup_s = Vec::new();
    let mut sample = || {
        if parent.is_none() {
            for _ in 0..SETUP_REPS {
                setup_s.push(time(|| simulate::build_universe(&cfg)).1);
            }
        }
    };
    sample();
    let mut layers = BTreeMap::new();
    let universe = layer(&mut layers, parent, "sim.build_universe", |_| {
        simulate::build_universe(&cfg)
    });
    let arena = layer(&mut layers, parent, "sim.build_arena", |_| {
        simulate::build_arena(&cfg, &universe, threads)
    })?;
    sample();
    let kanon = layer(&mut layers, parent, "sim.kanon_curve", |_| {
        simulate::kanon_curve(&arena, threads)
    });
    sample();
    let (reident, stats) = layer(&mut layers, parent, "sim.reident_curve", |_| {
        simulate::reident_curve(&cfg, &universe, &arena, threads)
    });
    sample();
    let run = SimRun {
        config: cfg,
        kanon,
        reident,
        stats,
        visits_total: arena.visits_total(),
        arena_bytes: arena.heap_bytes(),
    };
    drop(arena);
    let dir = ctx.dir.join(format!("sim-{tag}"));
    write_sim_artefacts(&dir, &run)?;
    let mut digests = [(SIM_KANON_FILE, 0), (SIM_REIDENT_FILE, 0)];
    for (name, d) in &mut digests {
        let bytes = std::fs::read(dir.join(*name)).map_err(|e| format!("reading {name}: {e}"))?;
        *d = stats::fnv1a(&bytes);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let work_s = ["sim.build_arena", "sim.kanon_curve", "sim.reident_curve"]
        .iter()
        .map(|n| layers[n].secs)
        .sum();
    setup_s.push(layers["sim.build_universe"].secs);
    Ok(Pass {
        run,
        digests,
        setup_s,
        work_s,
        layers,
    })
}

/// The per-pass output checks; prints each comparison.
fn check_pass(
    report: &mut Report,
    p: &Pass,
    reference: &mut Option<[(&'static str, u64); 2]>,
    label: &str,
) -> bool {
    let mut ok = true;
    match reference {
        Some(want) => {
            for ((name, got), (_, want)) in p.digests.iter().zip(want.iter()) {
                ok &= report.check(
                    &format!("{label} {name} digest"),
                    format!("{got:016x}"),
                    format!("{want:016x}"),
                    got == want,
                );
            }
        }
        None => {
            for (name, d) in &p.digests {
                report.note(format!("{label} digest {name} {d:016x}"));
            }
            *reference = Some(p.digests);
        }
    }
    let c = &p.run.config;
    let calls = c.users as u64 * c.context_sites as u64 * c.window * 2;
    ok &= report.check(
        &format!("{label} API calls == users × context × window × 2"),
        p.run.stats.api_calls,
        calls,
        p.run.stats.api_calls == calls,
    );
    let queries = c.sample.min(c.users) as u64 * c.window;
    ok &= report.check(
        &format!("{label} attack queries == sample × window"),
        p.run.stats.queries,
        queries,
        p.run.stats.queries == queries,
    );
    ok &= report.check(
        &format!("{label} curve rows (k-anonymity, re-identification) == (epochs, window)"),
        format!("({}, {})", p.run.kanon.len(), p.run.reident.len()),
        format!("({}, {})", c.epochs, c.window),
        p.run.kanon.len() as u64 == c.epochs && p.run.reident.len() as u64 == c.window,
    );
    ok
}

pub fn run(ctx: &Ctx, traced: bool, report: &mut Report) -> Result<(), String> {
    if traced {
        return run_traced(ctx, report);
    }
    let mut reference = None;
    let rounds = repeat(ctx.seconds, 3, report, |i, report| {
        let p = pass(ctx, THREADS, None, &i.to_string())?;
        let ok = check_pass(report, &p, &mut reference, &format!("round {i}"));
        Ok((p.setup_s, p.work_s, ok))
    })?;
    report_batch(
        report,
        &rounds,
        USERS as f64 * EPOCHS as f64,
        "user_epochs_per_s (users × epochs)",
    );
    Ok(())
}

fn run_traced(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let mut reference = None;
    let mut untraced = Vec::new();
    for i in 0..3 {
        let p = pass(ctx, THREADS, None, &format!("u{i}"))?;
        report.attempted += 1;
        if !check_pass(report, &p, &mut reference, &format!("untraced round {i}")) {
            report.failed += 1;
        }
        untraced.push(p.work_s);
    }

    spans::begin();
    let root = spans::open("bench.round", 0);
    let a = pass(ctx, THREADS, Some(root.id()), "a");
    root.close();
    let spans = spans::drain();
    let a = a?;
    report.attempted += 1;
    if !check_pass(report, &a, &mut reference, "traced round") {
        report.failed += 1;
    }

    // Self-test: one thread, allocation counting on, same counts and
    // byte-identical curves.
    alloc::set_enabled(true);
    let b = pass(ctx, 1, None, "b");
    alloc::set_enabled(false);
    let b = b?;
    report.attempted += 1;
    if !check_pass(report, &b, &mut reference, "1-thread round") {
        report.failed += 1;
    }
    for (name, got, want) in [
        ("sim.arena_bytes", b.run.arena_bytes, a.run.arena_bytes),
        ("sim visits", b.run.visits_total, a.run.visits_total),
        (
            "sim API calls",
            b.run.stats.api_calls,
            a.run.stats.api_calls,
        ),
        (
            "sim correct re-identifications",
            b.run.stats.correct,
            a.run.stats.correct,
        ),
    ] {
        report.check(
            &format!("{name} repeats across traced runs at 2 and 1 threads"),
            got,
            want,
            got == want,
        );
    }

    let la = &a.layers;
    let ms = |n: &str| la[n].secs * 1e3;
    report.set(
        "sim.universe_ms",
        ms("sim.build_universe"),
        "build_universe span",
    );
    report.set("sim.advance_ms", ms("sim.build_arena"), "build_arena span");
    report.set(
        "sim.advance_ns_per_visit",
        la["sim.build_arena"].secs * 1e9 / a.run.visits_total.max(1) as f64,
        &format!("build_arena / {} simulated visits", a.run.visits_total),
    );
    report.set(
        "sim.advance_allocs",
        b.layers["sim.build_arena"].allocs as f64,
        "allocations in build_arena (1-thread round)",
    );
    report.set("sim.kanon_ms", ms("sim.kanon_curve"), "kanon_curve span");
    report.set(
        "sim.attack_ms",
        ms("sim.reident_curve"),
        "reident_curve span",
    );
    report.set(
        "sim.attack_us_per_query",
        la["sim.reident_curve"].secs * 1e6 / a.run.stats.queries.max(1) as f64,
        &format!("reident_curve / {} queries", a.run.stats.queries),
    );
    report.set(
        "sim.attack_allocs",
        b.layers["sim.reident_curve"].allocs as f64,
        "allocations in reident_curve (1-thread round)",
    );
    report.set(
        "sim.arena_bytes",
        a.run.arena_bytes as f64,
        "PopulationArena::heap_bytes",
    );
    report.set(
        "bench.trace_overhead_x",
        a.work_s / stats::median(&untraced),
        &format!(
            "traced pass {:.1} ms / median untraced pass {:.1} ms (n=3)",
            a.work_s * 1e3,
            stats::median(&untraced) * 1e3
        ),
    );
    report.set(
        "bench.spans",
        spans.len() as f64,
        "spans the benchmark recorded",
    );
    ctx.write_spans("simulate", &spans)
}
