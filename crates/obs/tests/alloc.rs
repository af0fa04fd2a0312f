//! Integration: the counting allocator, measured for real.
//!
//! Unit tests inside the crate cannot observe the counters because the
//! test binary uses the plain system allocator; this suite installs
//! [`CountingAlloc`] as its `#[global_allocator]` and exercises the
//! full accounting stack. Counting is a process-wide toggle, so every
//! test serialises on one mutex and leaves counting disabled on exit.

use std::sync::{Barrier, Mutex};
use topics_obs::alloc::{self, AllocSpan, AllocStats, CountingAlloc, WindowSpan, PEAK_FOLD_BYTES};
use topics_obs::MetricsRegistry;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

static GATE: Mutex<()> = Mutex::new(());

/// Run `f` with counting enabled, serialised against the other tests.
fn counted<T>(f: impl FnOnce() -> T) -> T {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    alloc::set_enabled(true);
    let out = f();
    alloc::set_enabled(false);
    out
}

/// An allocation the optimiser cannot elide.
fn churn(bytes: usize) -> usize {
    let v: Vec<u8> = vec![7; bytes];
    std::hint::black_box(&v);
    v.len()
}

#[test]
fn disabled_allocator_records_nothing() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    assert!(!alloc::is_enabled());
    let before = alloc::thread_stats();
    churn(1 << 16);
    let after = alloc::thread_stats();
    assert_eq!(before, after, "counters moved while disabled");
}

#[test]
fn enabled_allocator_counts_on_both_scopes() {
    counted(|| {
        let g0 = alloc::global_stats();
        let t0 = alloc::thread_stats();
        churn(1 << 16);
        let g1 = alloc::global_stats();
        let t1 = alloc::thread_stats();
        assert!(g1.alloc_bytes - g0.alloc_bytes >= 1 << 16);
        assert!(g1.alloc_count > g0.alloc_count);
        assert!(g1.dealloc_bytes - g0.dealloc_bytes >= 1 << 16);
        assert!(t1.alloc_bytes - t0.alloc_bytes >= 1 << 16);
        assert!(g1.peak_bytes >= 1 << 16);
    });
}

#[test]
fn alloc_span_measures_thread_deltas_and_restores_nested_peaks() {
    counted(|| {
        let outer = AllocSpan::start();
        churn(1 << 14);
        let inner = AllocSpan::start();
        churn(1 << 18);
        let inner_delta = inner.finish();
        assert!(inner_delta.alloc_bytes >= 1 << 18);
        assert!(inner_delta.alloc_bytes < 1 << 19, "inner saw only itself");
        assert!(inner_delta.peak_bytes >= 1 << 18);
        let outer_delta = outer.finish();
        assert!(
            outer_delta.alloc_bytes >= (1 << 18) + (1 << 14),
            "outer includes the nested span"
        );
        assert!(
            outer_delta.peak_bytes >= inner_delta.peak_bytes,
            "nested peak folds back into the parent"
        );
    });
}

#[test]
fn alloc_span_is_inert_when_disabled() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let span = AllocSpan::start();
    churn(1 << 12);
    assert!(span.finish().is_zero());
    let window = WindowSpan::start();
    churn(1 << 12);
    assert!(window.finish().is_zero());
}

#[test]
fn window_span_sees_worker_thread_allocations() {
    counted(|| {
        let window = WindowSpan::start();
        let threads: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| churn(1 << 16)))
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let delta = window.finish();
        assert!(
            delta.alloc_bytes >= 4 << 16,
            "process window missed worker allocations: {delta:?}"
        );
        assert!(delta.alloc_count >= 4);
    });
}

#[test]
fn size_classes_feed_the_histogram_via_publish() {
    counted(|| {
        churn(100); // class 2⁷
        churn(1 << 20); // class 2²⁰
        let classes = alloc::size_class_counts();
        assert!(classes.iter().any(|&(bound, n)| bound == 128 && n > 0));
        assert!(classes.iter().any(|&(bound, n)| bound == 1 << 20 && n > 0));

        let registry = MetricsRegistry::new();
        alloc::publish(&registry);
        let snap = registry.snapshot();
        assert!(snap.gauge("mem_alloc_bytes") > 0);
        assert!(snap.gauge("mem_peak_bytes") > 0);
        let hist = &snap.histograms["alloc_size_bytes"];
        assert!(hist.count > 0);
        // The 1 MiB allocation resolves to a finite bucket, not +Inf.
        assert!(hist.quantile_checked(1.0).is_some());
        // And the whole family is operational: stripped away.
        let stripped = snap.clone().strip_wall_clock();
        assert!(stripped.gauges.is_empty());
        assert!(stripped.histograms.is_empty());
    });
}

/// Allocation and free counts and bytes from `a` to `b`.
fn delta(a: AllocStats, b: AllocStats) -> [u64; 4] {
    [
        b.alloc_count - a.alloc_count,
        b.alloc_bytes - a.alloc_bytes,
        b.dealloc_count - a.dealloc_count,
        b.dealloc_bytes - a.dealloc_bytes,
    ]
}

/// Mixed-size allocations, some freed at once, all freed by the end.
fn mixed_churn(seed: usize) {
    let mut held = Vec::new();
    for i in 0..500 {
        held.push(vec![seed as u8; 16 + (i * 37 + seed) % 700]);
        if i % 3 == 0 {
            held.swap_remove(i % held.len());
        }
    }
    std::hint::black_box(&held);
}

/// Run `workers` threads that each call `work` between two reads of the
/// global counters, and return the global delta and the sum of the
/// workers' own deltas. Barriers keep thread start-up and exit, and the
/// reading thread, outside the window.
fn exact_window(workers: usize, work: impl Fn(usize) + Sync) -> ([u64; 4], [u64; 4]) {
    let barrier = Barrier::new(workers + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (barrier, work) = (&barrier, &work);
                s.spawn(move || {
                    let t0 = alloc::thread_stats();
                    barrier.wait();
                    barrier.wait();
                    work(w);
                    let t1 = alloc::thread_stats();
                    barrier.wait();
                    barrier.wait();
                    delta(t0, t1)
                })
            })
            .collect();
        barrier.wait();
        let g0 = alloc::global_stats();
        barrier.wait();
        barrier.wait();
        let g1 = alloc::global_stats();
        barrier.wait();
        let mut threads = [0u64; 4];
        for h in handles {
            let d = h.join().unwrap();
            for (sum, v) in threads.iter_mut().zip(d) {
                *sum += v;
            }
        }
        (delta(g0, g1), threads)
    })
}

/// Assert that some run of `exact_window` has global == per-thread sum.
/// Threads of the test harness (reporting another test's result) can
/// allocate inside a window; they only ever add to the global side, so
/// the global delta is never below the threads' sum, and a window is
/// retried a few times for an exact match.
fn assert_exact(workers: usize, work: impl Fn(usize) + Sync) {
    for attempt in 1..=5 {
        let (global, threads) = exact_window(workers, &work);
        assert!(threads[0] > 0, "the workers allocated nothing");
        assert!(
            global.iter().zip(&threads).all(|(g, t)| g >= t),
            "global {global:?} lost counts of the threads' {threads:?}"
        );
        if global == threads {
            return;
        }
        assert!(attempt < 5, "global {global:?} != threads {threads:?}");
    }
}

#[test]
fn concurrent_threads_add_up_exactly_in_the_global_totals() {
    counted(|| assert_exact(4, mixed_churn));
}

#[test]
fn a_hundred_threads_one_at_a_time_keep_the_global_totals_exact() {
    // Far more threads than stripes, so later threads share stripes
    // with exited ones; none is ever alive beside another worker.
    const _: () = assert!(100 > 4 * alloc::STRIPES);
    counted(|| {
        for t in 0..100 {
            assert_exact(1, |_| mixed_churn(t));
        }
    });
}

#[test]
fn window_peak_sees_a_large_allocation_at_once() {
    counted(|| {
        // A free on another thread (the harness finishing a test) can
        // lower the process level inside the window, so only a window
        // that saw this thread's calls alone is judged.
        for attempt in 1..=5 {
            let (g0, t0) = (alloc::global_stats(), alloc::thread_stats());
            let window = WindowSpan::start();
            let span = AllocSpan::start();
            churn(1 << 20);
            let exact = span.finish().peak_bytes;
            let folded = window.finish().peak_bytes;
            let (g1, t1) = (alloc::global_stats(), alloc::thread_stats());
            if delta(g0, g1) != delta(t0, t1) {
                assert!(attempt < 5, "other threads allocated in every window");
                continue;
            }
            assert!(folded >= 1 << 20, "window peak {folded} < 1 MiB");
            assert!(
                folded + PEAK_FOLD_BYTES >= exact,
                "window peak {folded} short of the thread's exact {exact} by more than one fold"
            );
            return;
        }
    });
}

#[test]
fn window_peak_of_small_allocations_is_within_the_fold_slack() {
    const WORKERS: u64 = 4;
    const HELD: u64 = 1 << 20;
    const PIECE: usize = 1 << 10;
    counted(|| {
        let barrier = Barrier::new(WORKERS as usize + 1);
        let window = WindowSpan::start();
        std::thread::scope(|s| {
            for _ in 0..WORKERS {
                s.spawn(|| {
                    let mut held = Vec::with_capacity(HELD as usize / PIECE);
                    while held.len() < held.capacity() {
                        held.push(vec![1u8; PIECE]);
                    }
                    std::hint::black_box(&held);
                    // Every worker holds its megabyte at once ...
                    barrier.wait();
                    barrier.wait();
                });
            }
            barrier.wait();
            barrier.wait();
        });
        // ... and has freed it before the window closes.
        let peak = window.finish().peak_bytes;
        // Each allocating thread (the workers and this one) can grow
        // by less than one fold step unseen.
        let slack = (WORKERS + 1) * PEAK_FOLD_BYTES;
        assert!(
            peak + slack >= WORKERS * HELD,
            "window peak {peak} misses more than the fold slack"
        );
        assert!(
            peak <= WORKERS * (HELD + PEAK_FOLD_BYTES),
            "window peak {peak} above anything the workers held"
        );
    });
}

#[test]
fn peak_rss_is_reported_on_linux() {
    let rss = alloc::peak_rss_bytes();
    if cfg!(target_os = "linux") {
        let rss = rss.expect("VmHWM available on Linux");
        assert!(rss > 1 << 20, "peak RSS under 1 MiB is implausible: {rss}");
    }
}

#[test]
fn ballast_allocates_the_requested_bytes() {
    counted(|| {
        let span = AllocSpan::start();
        alloc::ballast(10 << 20);
        let delta = span.finish();
        assert!(
            delta.alloc_bytes >= 10 << 20,
            "ballast under-allocated: {delta:?}"
        );
    });
}
