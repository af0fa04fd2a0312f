//! The benchmark's own span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each call into the
//! program: a name, a start, an end, a parent and the recording
//! thread, all under one run identifier. Each thread appends to its
//! own buffer (an uncontended lock per span), the buffers stay in
//! memory until the run ends, and [`drain`] collects them for the
//! per-layer arithmetic and the JSONL write-out.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder epoch;
/// `parent` 0 means a root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has started but not ended.
#[derive(Debug)]
#[must_use = "an open span records nothing until closed"]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }

    /// End the span now and record it on the calling thread.
    pub fn close(self) -> Span {
        self.close_at(now_ns())
    }

    /// End the span at `end_ns` and record it on the calling thread.
    pub fn close_at(self, end_ns: u64) -> Span {
        with_thread(|t| t.finish(self, end_ns))
    }
}

/// Per-thread state: the finished spans, the open "chain" span (a span
/// the next call of the same kind on this thread closes — the crawl's
/// page loads) and the end of the thread's latest span.
pub struct ThreadBuf {
    pub index: u32,
    pub spans: Vec<Span>,
    pub chain: Option<Open>,
    pub last_end_ns: u64,
}

impl ThreadBuf {
    /// End `open` at `end_ns` and record it in this buffer.
    pub fn finish(&mut self, open: Open, end_ns: u64) -> Span {
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            thread: self.index,
            start_ns: open.start_ns,
            end_ns,
        };
        self.spans.push(span);
        self.last_end_ns = self.last_end_ns.max(end_ns);
        span
    }
}

struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    parent: AtomicU64,
    generation: AtomicU64,
    threads: Mutex<Vec<Arc<Mutex<ThreadBuf>>>>,
}

fn recorder() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(|| Recorder {
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        parent: AtomicU64::new(0),
        generation: AtomicU64::new(0),
        threads: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static LOCAL: RefCell<Option<(u64, Arc<Mutex<ThreadBuf>>)>> = const { RefCell::new(None) };
}

/// Run `f` on the calling thread's buffer, registering it on first use
/// in the current recording (each `begin` and `drain` starts a new
/// generation of buffers).
pub fn with_thread<R>(f: impl FnOnce(&mut ThreadBuf) -> R) -> R {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let rec = recorder();
        let generation = rec.generation.load(Ordering::Relaxed);
        if slot.as_ref().is_none_or(|(s, _)| *s != generation) {
            let mut threads = rec.threads.lock().expect("recorder lock");
            let buf = Arc::new(Mutex::new(ThreadBuf {
                index: threads.len() as u32,
                spans: Vec::new(),
                chain: None,
                last_end_ns: 0,
            }));
            threads.push(Arc::clone(&buf));
            *slot = Some((generation, buf));
        }
        let (_, buf) = slot.as_ref().expect("registered buffer");
        let mut guard = buf.lock().expect("thread buffer lock");
        f(&mut guard)
    })
}

/// Nanoseconds since the recorder epoch.
pub fn now_ns() -> u64 {
    recorder().epoch.elapsed().as_nanos() as u64
}

/// Start recording: drop every buffer of an earlier recording.
pub fn begin() {
    let rec = recorder();
    rec.threads.lock().expect("recorder lock").clear();
    rec.generation.fetch_add(1, Ordering::SeqCst);
    rec.parent.store(0, Ordering::SeqCst);
}

/// Open a span now.
pub fn open(name: &'static str, parent: u64) -> Open {
    open_at(name, parent, now_ns())
}

/// Open a span that started at `start_ns`.
pub fn open_at(name: &'static str, parent: u64, start_ns: u64) -> Open {
    Open {
        id: recorder().next_id.fetch_add(1, Ordering::Relaxed),
        parent,
        name,
        start_ns,
    }
}

/// Time `f` as a span named `name` under `parent`; returns its result
/// and the finished span.
pub fn timed<R>(name: &'static str, parent: u64, f: impl FnOnce(u64) -> R) -> (R, Span) {
    let open = open(name, parent);
    let id = open.id();
    let out = f(id);
    (out, open.close())
}

/// The span that calls made from worker threads attach to (the crawl
/// campaign span while a campaign runs).
pub fn set_parent(id: u64) {
    recorder().parent.store(id, Ordering::SeqCst);
}

pub fn parent() -> u64 {
    recorder().parent.load(Ordering::Relaxed)
}

/// Stop recording and collect every thread's spans, oldest first. Open
/// chain spans are closed at their thread's last recorded end.
pub fn drain() -> Vec<Span> {
    let rec = recorder();
    rec.generation.fetch_add(1, Ordering::SeqCst);
    let threads: Vec<_> = rec
        .threads
        .lock()
        .expect("recorder lock")
        .drain(..)
        .collect();
    let mut out = Vec::new();
    for buf in threads {
        let mut t = buf.lock().expect("thread buffer lock");
        if let Some(open) = t.chain.take() {
            let end = t.last_end_ns.max(open.start_ns);
            t.finish(open, end);
        }
        out.append(&mut t.spans);
    }
    out.sort_by_key(|s| (s.start_ns, s.id));
    out
}

/// Self time of every span that has children: its duration minus the
/// part of its interval its children cover. Spans without children
/// are absent (their self time is their duration).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    children
        .into_iter()
        .filter_map(|(pid, mut kids)| {
            let p = by_id.get(&pid)?;
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (s, e) in kids {
                let (s, e) = (s.max(p.start_ns), e.min(p.end_ns));
                if e <= s {
                    continue;
                }
                cur = match cur {
                    Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                    Some((cs, ce)) => {
                        covered += ce - cs;
                        Some((s, e))
                    }
                    None => Some((s, e)),
                };
            }
            if let Some((cs, ce)) = cur {
                covered += ce - cs;
            }
            Some((pid, p.dur_ns().saturating_sub(covered)))
        })
        .collect()
}

/// Render spans as JSONL, one object per line, tagged with the run id.
pub fn to_jsonl(run_id: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"run\":\"{run_id}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.thread, s.start_ns, s.end_ns
        );
    }
    out
}

/// Serialises the tests that use the process-wide recorder.
#[cfg(test)]
pub static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 40),  // overlaps 2: union 10..40
            span(4, 1, 90, 120), // clipped to 90..100
            span(5, 2, 12, 14),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 30 - 10);
        assert_eq!(st[&2], 20 - 2);
        assert!(!st.contains_key(&3));
    }

    #[test]
    fn drain_closes_chain_spans_and_keeps_threads_apart() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        begin();
        let root = open("root", 0);
        let root_id = root.id();
        std::thread::scope(|s| {
            s.spawn(|| {
                with_thread(|t| t.chain = Some(open("chain", root_id)));
                let _ = timed("leaf", root_id, |_| ());
            });
        });
        root.close();
        let spans = drain();
        assert_eq!(spans.len(), 3);
        let chain = spans.iter().find(|s| s.name == "chain").unwrap();
        let leaf = spans.iter().find(|s| s.name == "leaf").unwrap();
        assert_eq!(
            chain.end_ns, leaf.end_ns,
            "chain closes at the thread's last end"
        );
        assert_eq!(chain.thread, leaf.thread);
        assert!(to_jsonl("r", &spans)
            .lines()
            .all(|l| l.contains("\"run\":\"r\"")));
    }
}
