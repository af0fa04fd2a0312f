//! Opt-in instrumented global allocator: alloc/dealloc/live/peak
//! accounting cheap enough to leave on.
//!
//! [`CountingAlloc`] wraps the system allocator. Binaries that want
//! memory observability install it once:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: topics_obs::alloc::CountingAlloc = topics_obs::alloc::CountingAlloc;
//! ```
//!
//! Counting is **off by default** — the hot path then costs exactly one
//! relaxed atomic load and a branch — and is switched on with
//! [`set_enabled`] (the CLI's `--alloc-stats` flag). When on, every
//! allocation updates thread-local `Cell`s and the calling thread's
//! *counter stripe* with relaxed atomics: no locks, no allocation, no
//! syscalls, so the allocator can never re-enter itself.
//!
//! **Stripes.** The process-wide counters are split into [`STRIPES`]
//! cache-line-aligned stripes, each holding allocated/freed bytes, the
//! free count and the [`SIZE_CLASSES`] per-class allocation counts (the
//! allocation count is their sum, live bytes are allocated minus freed).
//! A thread is dealt a stripe round-robin on its first counted call and
//! only ever writes that stripe, so workers of one pool never bounce a
//! counter line between cores. Stripes are never retired: a thread that
//! exits leaves its totals behind, and a later thread dealt the same
//! stripe adds to them. Readers ([`global_stats`], [`WindowSpan`],
//! [`size_class_counts`]) sum the stripes, so every count and byte
//! total is **exact**.
//!
//! **Peak.** The process-wide live level is a sum over stripes, too
//! costly to recompute per allocation, so the process and window
//! high-water marks are *folded* — set to the summed live level if it
//! is higher — only when a thread's own live level has grown by
//! [`PEAK_FOLD_BYTES`] since its last fold, at [`WindowSpan`] start and
//! finish, and when [`global_stats`] is read. A thread's growth between
//! folds is measured from its lowest level since the last fold, so
//! growth that no fold saw is under [`PEAK_FOLD_BYTES`] per thread: a
//! reported `peak_bytes` is a lower bound on the true high-water mark,
//! short of it by less than (threads that allocated) × 64 KiB. Any
//! single allocation of 64 KiB or more folds at once. Levels are signed
//! internally (freeing memory allocated before counting started goes
//! below zero), so a window's peak delta is right even then. The
//! thread-local [`AllocSpan`] peak needs no fold and stays exact.
//!
//! Two accounting scopes sit on top of the raw counters:
//!
//! * [`AllocSpan`] — a *thread-local* delta scope for one unit of work
//!   (one visit, one probe, one page load). Nesting is supported: a
//!   child span's peak watermark is folded back into its parent on
//!   finish.
//! * [`WindowSpan`] — a *process-wide* delta scope for one pipeline
//!   phase (all worker threads included). Top-level phases run
//!   sequentially, so resetting the window peak watermark at phase
//!   start is sound.
//!
//! The deltas become `alloc_bytes`/`alloc_count`/`peak_bytes` span
//! attributes on the trace, which [`crate::Trace::stripped`] removes —
//! allocation counts depend on thread scheduling and allocator
//! internals, so they are *operational* data, outside the determinism
//! contract. Crucially the counters only ever *observe*: enabling or
//! disabling them cannot change a single byte of `campaign.col` or a
//! stripped trace (the determinism suite pins this).

// The one place in the workspace that genuinely needs `unsafe`: a
// `GlobalAlloc` impl is an unsafe trait by definition. Everything the
// impl does beyond forwarding to `System` is lock-free arithmetic.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Number of power-of-two size classes tracked (2⁰ … 2⁴⁷ bytes; larger
/// allocations fold into the last class).
pub const SIZE_CLASSES: usize = 48;

/// Number of process-wide counter stripes threads are dealt.
pub const STRIPES: usize = 16;

/// Growth of one thread's live bytes that folds the summed live level
/// into the process and window peaks (see the module doc for the bound
/// this gives `peak_bytes`).
pub const PEAK_FOLD_BYTES: u64 = 64 << 10;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// One thread group's share of the process-wide counters. Aligned past
/// a cache line (and the adjacent-line prefetch pair) so no two stripes
/// share one.
#[repr(align(128))]
struct Stripe {
    alloc_bytes: AtomicU64,
    dealloc_bytes: AtomicU64,
    dealloc_count: AtomicU64,
    /// Allocation counts per size class (index = ⌈log₂ size⌉, capped).
    classes: [AtomicU64; SIZE_CLASSES],
}

impl Stripe {
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: Stripe = {
        #[allow(clippy::declare_interior_mutable_const)]
        const Z: AtomicU64 = AtomicU64::new(0);
        Stripe {
            alloc_bytes: Z,
            dealloc_bytes: Z,
            dealloc_count: Z,
            classes: [Z; SIZE_CLASSES],
        }
    };
}

static STRIPE_TABLE: [Stripe; STRIPES] = [Stripe::ZERO; STRIPES];
/// Round-robin cursor of the next stripe to deal.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of the folded live level since process start (never
/// reset). Signed like the live level: memory allocated before counting
/// started and freed since then counts below zero.
static G_PEAK_BYTES: AtomicI64 = AtomicI64::new(0);
/// High-water mark since the last [`WindowSpan`] start (resettable).
static G_WINDOW_PEAK: AtomicI64 = AtomicI64::new(0);

/// This thread's counters. Plain-data cells (no `Drop`), so no TLS
/// destructor is registered and access from inside the allocator is
/// always safe.
struct Local {
    /// Dealt stripe index + 1; 0 until the first counted call.
    stripe: Cell<usize>,
    alloc_bytes: Cell<u64>,
    alloc_count: Cell<u64>,
    dealloc_bytes: Cell<u64>,
    dealloc_count: Cell<u64>,
    /// Net live bytes. Signed: a thread may free memory another
    /// allocated.
    live: Cell<i64>,
    /// [`AllocSpan`] watermark: exact, updated on every allocation.
    peak: Cell<i64>,
    /// Lowest live level since this thread's last peak fold.
    fold_mark: Cell<i64>,
}

thread_local! {
    static LOCAL: Local = const {
        Local {
            stripe: Cell::new(0),
            alloc_bytes: Cell::new(0),
            alloc_count: Cell::new(0),
            dealloc_bytes: Cell::new(0),
            dealloc_count: Cell::new(0),
            live: Cell::new(0),
            peak: Cell::new(0),
            fold_mark: Cell::new(0),
        }
    };
}

impl Local {
    #[inline]
    fn stripe(&self) -> &'static Stripe {
        let dealt = match self.stripe.get() {
            0 => {
                let i = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
                self.stripe.set(i + 1);
                i
            }
            n => n - 1,
        };
        &STRIPE_TABLE[dealt]
    }
}

/// The instrumented allocator. Install as `#[global_allocator]`;
/// counting stays off until [`set_enabled`] flips it on.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

#[inline]
fn size_class(size: usize) -> usize {
    // ⌈log₂ size⌉, with size 0/1 in class 0.
    let bits = usize::BITS - size.max(1).next_power_of_two().leading_zeros() - 1;
    (bits as usize).min(SIZE_CLASSES - 1)
}

// Kept out of line: the allocator shims are inlined at every
// allocation site, and the counting path inlined with them grew the
// binary's text by 13%.
#[inline(never)]
fn record_alloc(size: usize) {
    let bytes = size as u64;
    // `try_with` cannot fail for a const, destructor-free key; should it
    // ever, stripe 0 keeps the process totals exact.
    let (stripe, fold) = LOCAL
        .try_with(|t| {
            t.alloc_bytes.set(t.alloc_bytes.get() + bytes);
            t.alloc_count.set(t.alloc_count.get() + 1);
            let live = t.live.get() + size as i64;
            t.live.set(live);
            t.peak.set(t.peak.get().max(live));
            let fold = live - t.fold_mark.get() >= PEAK_FOLD_BYTES as i64;
            if fold {
                t.fold_mark.set(live);
            }
            (t.stripe(), fold)
        })
        .unwrap_or((&STRIPE_TABLE[0], false));
    stripe.alloc_bytes.fetch_add(bytes, Ordering::Relaxed);
    stripe.classes[size_class(size)].fetch_add(1, Ordering::Relaxed);
    if fold {
        fold_peak();
    }
}

#[inline(never)]
fn record_dealloc(size: usize) {
    let bytes = size as u64;
    let stripe = LOCAL
        .try_with(|t| {
            t.dealloc_bytes.set(t.dealloc_bytes.get() + bytes);
            t.dealloc_count.set(t.dealloc_count.get() + 1);
            let live = t.live.get() - size as i64;
            t.live.set(live);
            t.fold_mark.set(t.fold_mark.get().min(live));
            t.stripe()
        })
        .unwrap_or(&STRIPE_TABLE[0]);
    stripe.dealloc_bytes.fetch_add(bytes, Ordering::Relaxed);
    stripe.dealloc_count.fetch_add(1, Ordering::Relaxed);
}

/// Sums of every stripe's counters.
struct Totals {
    alloc_bytes: u64,
    alloc_count: u64,
    dealloc_bytes: u64,
    dealloc_count: u64,
}

impl Totals {
    /// Read the allocation side of every stripe before the free side.
    /// Both only grow, so `live` never exceeds the live level at any
    /// instant between the two passes.
    fn read() -> Totals {
        let (mut alloc_bytes, mut alloc_count) = (0u64, 0u64);
        for s in &STRIPE_TABLE {
            alloc_bytes += s.alloc_bytes.load(Ordering::Relaxed);
            alloc_count += s
                .classes
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .sum::<u64>();
        }
        let (mut dealloc_bytes, mut dealloc_count) = (0u64, 0u64);
        for s in &STRIPE_TABLE {
            dealloc_bytes += s.dealloc_bytes.load(Ordering::Relaxed);
            dealloc_count += s.dealloc_count.load(Ordering::Relaxed);
        }
        Totals {
            alloc_bytes,
            alloc_count,
            dealloc_bytes,
            dealloc_count,
        }
    }

    /// Net live bytes since counting started; negative while more was
    /// freed than allocated (memory allocated before counting).
    fn live(&self) -> i64 {
        self.alloc_bytes.wrapping_sub(self.dealloc_bytes) as i64
    }
}

/// Raise the process and window peaks to `live`; returns the window
/// peak.
fn fold(live: i64) -> i64 {
    G_PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    G_WINDOW_PEAK.fetch_max(live, Ordering::Relaxed).max(live)
}

/// Fold the summed live level into the process and window peaks. Reads
/// only the byte counters, allocation side first as in [`Totals::read`].
#[cold]
fn fold_peak() {
    let allocated: u64 = STRIPE_TABLE
        .iter()
        .map(|s| s.alloc_bytes.load(Ordering::Relaxed))
        .sum();
    let freed: u64 = STRIPE_TABLE
        .iter()
        .map(|s| s.dealloc_bytes.load(Ordering::Relaxed))
        .sum();
    fold(allocated.wrapping_sub(freed) as i64);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if ENABLED.load(Ordering::Relaxed) {
            record_dealloc(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            // Count a grow/shrink as a fresh allocation of the new size
            // plus a free of the old one, on both scopes, so alloc and
            // dealloc totals stay balanced.
            record_alloc(new_size);
            record_dealloc(layout.size());
        }
        p
    }
}

/// Turn counting on or off. Off (the default) reduces the allocator to
/// one relaxed load per call. Counters are *not* reset by disabling, so
/// a snapshot after a run still reads the run's totals.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether allocations are currently being counted.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A point-in-time copy of one accounting scope's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes allocated (cumulative, including freed-again memory).
    pub alloc_bytes: u64,
    /// Allocation calls.
    pub alloc_count: u64,
    /// Bytes deallocated.
    pub dealloc_bytes: u64,
    /// Deallocation calls.
    pub dealloc_count: u64,
    /// Net live bytes right now (can go negative per-thread when a
    /// thread frees memory another allocated; clamped to 0 here).
    pub live_bytes: u64,
    /// High-water mark of live bytes: exact per thread, a lower bound
    /// within the fold slack process-wide (see the module doc).
    pub peak_bytes: u64,
}

/// Process-wide counters since the process started counting. Reading
/// them folds the current live level into the peaks.
pub fn global_stats() -> AllocStats {
    let totals = Totals::read();
    let live = totals.live();
    fold(live);
    AllocStats {
        alloc_bytes: totals.alloc_bytes,
        alloc_count: totals.alloc_count,
        dealloc_bytes: totals.dealloc_bytes,
        dealloc_count: totals.dealloc_count,
        live_bytes: live.max(0) as u64,
        peak_bytes: G_PEAK_BYTES.load(Ordering::Relaxed).max(0) as u64,
    }
}

/// This thread's counters since it started counting.
pub fn thread_stats() -> AllocStats {
    LOCAL.with(|t| AllocStats {
        alloc_bytes: t.alloc_bytes.get(),
        alloc_count: t.alloc_count.get(),
        dealloc_bytes: t.dealloc_bytes.get(),
        dealloc_count: t.dealloc_count.get(),
        live_bytes: t.live.get().max(0) as u64,
        peak_bytes: t.peak.get().max(0) as u64,
    })
}

/// The measured allocation delta of a finished [`AllocSpan`] or
/// [`WindowSpan`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocDelta {
    /// Bytes allocated inside the scope.
    pub alloc_bytes: u64,
    /// Allocation calls inside the scope.
    pub alloc_count: u64,
    /// Bytes deallocated inside the scope.
    pub dealloc_bytes: u64,
    /// Peak of (live bytes − live bytes at scope start) while the scope
    /// ran; 0 when the scope only freed memory.
    pub peak_bytes: u64,
}

impl AllocDelta {
    /// True when nothing was recorded (counting off, or a zero scope).
    pub fn is_zero(&self) -> bool {
        *self == AllocDelta::default()
    }
}

/// Thread-local allocation scope for one unit of work. Create with
/// [`AllocSpan::start`], finish with [`AllocSpan::finish`]; the scope
/// is a no-op (all-zero delta) while counting is disabled.
#[derive(Debug)]
#[must_use = "an unfinished AllocSpan measures nothing"]
pub struct AllocSpan {
    active: bool,
    start_alloc_bytes: u64,
    start_alloc_count: u64,
    start_dealloc_bytes: u64,
    start_live: i64,
    /// Parent scope's watermark, folded back in on finish.
    outer_peak: i64,
}

impl AllocSpan {
    /// Open a scope at the current thread counters and reset the
    /// thread's peak watermark to the current live level.
    pub fn start() -> AllocSpan {
        if !is_enabled() {
            return AllocSpan {
                active: false,
                start_alloc_bytes: 0,
                start_alloc_count: 0,
                start_dealloc_bytes: 0,
                start_live: 0,
                outer_peak: 0,
            };
        }
        LOCAL.with(|t| {
            let live = t.live.get();
            AllocSpan {
                active: true,
                start_alloc_bytes: t.alloc_bytes.get(),
                start_alloc_count: t.alloc_count.get(),
                start_dealloc_bytes: t.dealloc_bytes.get(),
                start_live: live,
                outer_peak: t.peak.replace(live),
            }
        })
    }

    /// Close the scope: the delta since [`AllocSpan::start`], with the
    /// parent watermark restored (so nested spans never hide a peak
    /// from their enclosing span).
    pub fn finish(self) -> AllocDelta {
        if !self.active {
            return AllocDelta::default();
        }
        LOCAL.with(|t| {
            let peak = t.peak.get();
            t.peak.set(peak.max(self.outer_peak));
            AllocDelta {
                alloc_bytes: t.alloc_bytes.get() - self.start_alloc_bytes,
                alloc_count: t.alloc_count.get() - self.start_alloc_count,
                dealloc_bytes: t.dealloc_bytes.get() - self.start_dealloc_bytes,
                peak_bytes: (peak - self.start_live).max(0) as u64,
            }
        })
    }
}

/// Process-wide allocation scope for one pipeline phase. All threads'
/// allocations land in the delta. Top-level phases run sequentially, so
/// the window peak watermark can be reset at scope start; do not nest
/// two `WindowSpan`s concurrently (the inner reset would truncate the
/// outer watermark — thread scopes use [`AllocSpan`] instead).
#[derive(Debug)]
#[must_use = "an unfinished WindowSpan measures nothing"]
pub struct WindowSpan {
    active: bool,
    start_alloc_bytes: u64,
    start_alloc_count: u64,
    start_dealloc_bytes: u64,
    start_live: i64,
}

impl WindowSpan {
    /// Open a process-wide scope and reset the window peak watermark to
    /// the current live level.
    pub fn start() -> WindowSpan {
        if !is_enabled() {
            return WindowSpan {
                active: false,
                start_alloc_bytes: 0,
                start_alloc_count: 0,
                start_dealloc_bytes: 0,
                start_live: 0,
            };
        }
        let totals = Totals::read();
        let live = totals.live();
        G_PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        G_WINDOW_PEAK.store(live, Ordering::Relaxed);
        WindowSpan {
            active: true,
            start_alloc_bytes: totals.alloc_bytes,
            start_alloc_count: totals.alloc_count,
            start_dealloc_bytes: totals.dealloc_bytes,
            start_live: live,
        }
    }

    /// Close the scope, folding the live level one last time, and
    /// return the process-wide delta.
    pub fn finish(self) -> AllocDelta {
        if !self.active {
            return AllocDelta::default();
        }
        let totals = Totals::read();
        let peak = fold(totals.live());
        AllocDelta {
            alloc_bytes: totals.alloc_bytes - self.start_alloc_bytes,
            alloc_count: totals.alloc_count - self.start_alloc_count,
            dealloc_bytes: totals.dealloc_bytes - self.start_dealloc_bytes,
            peak_bytes: (peak - self.start_live).max(0) as u64,
        }
    }
}

/// Per-size-class allocation counts as `(inclusive upper bound, count)`
/// pairs, smallest class first. Only classes with observations are
/// returned.
pub fn size_class_counts() -> Vec<(u64, u64)> {
    (0..SIZE_CLASSES)
        .filter_map(|i| {
            let n: u64 = STRIPE_TABLE
                .iter()
                .map(|s| s.classes[i].load(Ordering::Relaxed))
                .sum();
            (n > 0).then_some((1u64 << i, n))
        })
        .collect()
}

/// OS-reported peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`); `None` where procfs is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Publish the current allocation counters into a metrics registry:
/// `mem_*` gauges (live heap, process peak, counter totals, OS peak
/// RSS) plus the `alloc_size_bytes` histogram on power-of-two buckets.
/// All of these are operational series, removed by
/// [`crate::MetricsSnapshot::strip_wall_clock`].
pub fn publish(metrics: &crate::MetricsRegistry) {
    let stats = global_stats();
    metrics
        .gauge("mem_alloc_bytes")
        .set(stats.alloc_bytes as i64);
    metrics
        .gauge("mem_alloc_count")
        .set(stats.alloc_count as i64);
    metrics
        .gauge("mem_dealloc_bytes")
        .set(stats.dealloc_bytes as i64);
    metrics.gauge("mem_live_bytes").set(stats.live_bytes as i64);
    metrics.gauge("mem_peak_bytes").set(stats.peak_bytes as i64);
    if let Some(rss) = peak_rss_bytes() {
        metrics.gauge("mem_peak_rss_bytes").set(rss as i64);
    }
    let hist = metrics.histogram_with_buckets(
        "alloc_size_bytes",
        crate::metrics::DEFAULT_SIZE_BUCKETS_BYTES,
    );
    for (bound, count) in size_class_counts() {
        hist.observe_n(bound, count);
    }
}

/// Allocate (and immediately release) `bytes` of heap in bounded
/// chunks. This exists for the `mem-regression-fixture` CI feature: a
/// deliberate, measurable allocation regression that the perf ledger
/// must catch. Each chunk goes through `black_box` so the allocator
/// calls cannot be optimised away.
pub fn ballast(bytes: u64) {
    const CHUNK: u64 = 1 << 22; // 4 MiB
    let mut left = bytes;
    while left > 0 {
        let take = left.min(CHUNK) as usize;
        let chunk: Vec<u8> = std::hint::black_box(Vec::with_capacity(take));
        drop(chunk);
        left -= take as u64;
    }
}
