//! Hierarchical trace spans: causal, per-visit span trees for the
//! campaign pipeline.
//!
//! The event log ([`crate::events`]) answers *what happened*; traces
//! answer *where the time went*. A [`Tracer`] owns one span tree per
//! campaign: `campaign → phase → visit → {fetch, retry, consent-click,
//! topics-call, probe}`. Every span carries both clocks — the simulated
//! campaign clock (`sim_start_ms`/`sim_end_ms`, deterministic) and wall
//! time in microseconds since the tracer's epoch (operational).
//!
//! ## Lock discipline and determinism
//!
//! Crawl and probe workers never touch the shared tracer on the hot
//! path. Each unit of work (one visit, one probe) records into a
//! private [`TraceBuilder`] — a plain `Vec` with local parent indices —
//! and the coordinating thread *attaches* finished builders under a
//! phase span in a deterministic order (visits by rank, probes by slot
//! index). Span IDs are assigned once, at [`Tracer::finish`], from that
//! attach order, so traces from the same seed are byte-identical no
//! matter how many worker threads ran.
//!
//! Spans whose shape depends on scheduling (per-worker utilization
//! spans) are flagged *operational* ([`TraceBuilder::open_op`]); the
//! seal sorts them after every deterministic span and
//! [`Trace::stripped`] drops them together with the wall-clock fields,
//! yielding the seed-reproducible view the determinism suite compares.

use crate::events::{fields_len_hint, write_json_fields, write_json_str, FieldValue};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Sentinel index used by span handles on a disabled tracer.
const DISABLED: usize = usize::MAX;

/// Span field keys carrying allocation-accounting data (attached when
/// the counting allocator is enabled). Like wall clocks, allocation
/// counts depend on thread scheduling and allocator internals, so
/// [`Trace::stripped`] removes these fields to keep the deterministic
/// view byte-identical whether or not instrumentation was on.
pub const ALLOC_FIELD_KEYS: &[&str] =
    &["alloc_bytes", "alloc_count", "dealloc_bytes", "peak_bytes"];

/// One span under construction (builder-local or tracer-global; the
/// meaning of `parent` differs — see the owning container).
#[derive(Debug, Clone)]
struct RawSpan {
    /// Index of the parent span in the owning container; `None` for a
    /// builder's root span (re-parented on attach) or a tracer-level
    /// phase span (re-parented under the synthetic campaign root).
    parent: Option<usize>,
    name: String,
    /// Operational spans depend on thread scheduling and are excluded
    /// from the deterministic view.
    op: bool,
    sim_start_ms: Option<u64>,
    sim_end_ms: Option<u64>,
    wall_start_us: u64,
    wall_end_us: u64,
    fields: Vec<(String, FieldValue)>,
}

impl RawSpan {
    fn new(parent: Option<usize>, name: &str, op: bool, sim_ms: Option<u64>, wall_us: u64) -> Self {
        RawSpan {
            parent,
            name: name.to_owned(),
            op,
            sim_start_ms: sim_ms,
            sim_end_ms: None,
            wall_start_us: wall_us,
            wall_end_us: 0,
            fields: Vec::new(),
        }
    }
}

/// A private, lock-free span subtree recorded by one unit of work (one
/// visit, one attestation probe, one worker thread). Obtained from
/// [`Tracer::visit_builder`] and handed back via [`TracerSpan::attach`].
#[derive(Debug)]
pub struct TraceBuilder {
    epoch: Instant,
    spans: Vec<RawSpan>,
    /// Stack of open span indices; new spans become children of the
    /// top of the stack.
    stack: Vec<usize>,
}

impl TraceBuilder {
    fn new(epoch: Instant) -> TraceBuilder {
        TraceBuilder {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn wall_us(&self) -> u64 {
        self.epoch.elapsed().as_micros().max(1) as u64
    }

    /// Open a span as a child of the innermost open span (or as the
    /// builder's root). Returns the index to pass to [`close`].
    ///
    /// [`close`]: TraceBuilder::close
    pub fn open(&mut self, name: &str, sim_ms: Option<u64>) -> usize {
        self.push(name, false, sim_ms)
    }

    /// Open an *operational* span — excluded from the deterministic
    /// stripped view (used for scheduling-dependent data such as
    /// per-worker utilization).
    pub fn open_op(&mut self, name: &str, sim_ms: Option<u64>) -> usize {
        self.push(name, true, sim_ms)
    }

    fn push(&mut self, name: &str, op: bool, sim_ms: Option<u64>) -> usize {
        let idx = self.spans.len();
        let wall = self.wall_us();
        self.spans.push(RawSpan::new(
            self.stack.last().copied(),
            name,
            op,
            sim_ms,
            wall,
        ));
        self.stack.push(idx);
        idx
    }

    /// Record a closed point-in-time or already-finished span (e.g. a
    /// `topics-call` or a single `retry` attempt).
    pub fn leaf(
        &mut self,
        name: &str,
        sim_start_ms: Option<u64>,
        sim_end_ms: Option<u64>,
    ) -> usize {
        let idx = self.push(name, false, sim_start_ms);
        self.close(idx, sim_end_ms.or(sim_start_ms));
        idx
    }

    /// Attach a field to an open or closed span.
    pub fn field(&mut self, idx: usize, key: &str, value: impl Into<FieldValue>) {
        if let Some(span) = self.spans.get_mut(idx) {
            span.fields.push((key.to_owned(), value.into()));
        }
    }

    /// Close a span, recording the simulated end time (if any) and the
    /// wall-clock end. Also closes any nested spans left open.
    pub fn close(&mut self, idx: usize, sim_end_ms: Option<u64>) {
        let wall = self.wall_us();
        while let Some(top) = self.stack.pop() {
            let span = &mut self.spans[top];
            if span.wall_end_us == 0 {
                span.wall_end_us = wall;
            }
            if top == idx {
                span.sim_end_ms = sim_end_ms.or(span.sim_start_ms);
                return;
            }
            span.sim_end_ms = span.sim_end_ms.or(span.sim_start_ms);
        }
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Latest simulated end time across all spans (used by the campaign
    /// to stamp deterministic phase bounds).
    pub fn max_sim_end(&self) -> Option<u64> {
        self.spans
            .iter()
            .filter_map(|s| s.sim_end_ms.or(s.sim_start_ms))
            .max()
    }

    /// Close any spans still open (defensive; called before attach).
    fn seal_open(&mut self) {
        let wall = self.wall_us();
        while let Some(top) = self.stack.pop() {
            let span = &mut self.spans[top];
            if span.wall_end_us == 0 {
                span.wall_end_us = wall;
            }
            span.sim_end_ms = span.sim_end_ms.or(span.sim_start_ms);
        }
    }
}

/// The campaign-wide trace collector. Disabled by default (all methods
/// are no-ops and [`Tracer::visit_builder`] returns `None`, so the
/// traced code paths cost one branch); enable with [`Tracer::enabled`].
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    inner: Mutex<Vec<RawSpan>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::disabled()
    }
}

impl Tracer {
    /// A tracer that records nothing (the default inside [`crate::Obs`]).
    pub fn disabled() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            inner: Mutex::new(Vec::new()),
        }
    }

    /// A live tracer.
    pub fn enabled() -> Tracer {
        Tracer {
            on: true,
            epoch: Instant::now(),
            inner: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.on
    }

    /// A private builder for one unit of work, or `None` when tracing
    /// is off (lets hot paths skip all recording).
    pub fn visit_builder(&self) -> Option<TraceBuilder> {
        self.on.then(|| TraceBuilder::new(self.epoch))
    }

    /// Open a top-level phase span (a direct child of the synthetic
    /// `campaign` root). No-op handle when disabled.
    pub fn phase(&self, name: &str) -> TracerSpan<'_> {
        if !self.on {
            return TracerSpan {
                tracer: self,
                idx: DISABLED,
            };
        }
        let wall = self.epoch.elapsed().as_micros().max(1) as u64;
        let mut inner = self.inner.lock();
        let idx = inner.len();
        inner.push(RawSpan::new(None, name, false, None, wall));
        TracerSpan { tracer: self, idx }
    }

    /// Number of spans recorded so far (excluding the synthetic root).
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Seal the trace: assign stable 1-based span IDs (the synthetic
    /// `campaign` root is ID 1), re-parent phase spans under the root,
    /// order deterministic spans before operational ones, and compute
    /// the root's simulated bounds from its children.
    pub fn finish(&self) -> Trace {
        let mut raw: Vec<RawSpan> = std::mem::take(&mut *self.inner.lock());
        let finished_wall = self.epoch.elapsed().as_micros().max(1) as u64;
        for span in &mut raw {
            if span.wall_end_us == 0 {
                span.wall_end_us = finished_wall;
            }
            span.sim_end_ms = span.sim_end_ms.or(span.sim_start_ms);
        }
        // Children are always appended after their parents, so one
        // forward pass propagates the operational flag down subtrees.
        for i in 0..raw.len() {
            if let Some(p) = raw[i].parent {
                if raw[p].op {
                    raw[i].op = true;
                }
            }
        }
        let sim_start = raw
            .iter()
            .filter(|s| !s.op)
            .filter_map(|s| s.sim_start_ms)
            .min();
        let sim_end = raw
            .iter()
            .filter(|s| !s.op)
            .filter_map(|s| s.sim_end_ms)
            .max();
        // Stable partition: deterministic spans keep their attach order
        // and take IDs 2..; operational spans follow.
        let det = raw.iter().filter(|s| !s.op).count() as u64;
        let (mut next_det, mut next_op) = (2u64, 2 + det);
        let new_id: Vec<u64> = raw
            .iter()
            .map(|s| {
                let next = if s.op { &mut next_op } else { &mut next_det };
                let id = *next;
                *next += 1;
                id
            })
            .collect();
        let mut spans = Vec::with_capacity(raw.len() + 1);
        spans.push(SpanRecord {
            id: 1,
            parent: None,
            name: "campaign".to_owned(),
            op: false,
            sim_start_ms: sim_start,
            sim_end_ms: sim_end,
            wall_start_us: 1,
            wall_end_us: finished_wall,
            fields: Vec::new(),
        });
        let mut op_spans = Vec::new();
        for (s, &id) in raw.into_iter().zip(&new_id) {
            let record = SpanRecord {
                id,
                parent: Some(s.parent.map_or(1, |p| new_id[p])),
                name: s.name,
                op: s.op,
                sim_start_ms: s.sim_start_ms,
                sim_end_ms: s.sim_end_ms,
                wall_start_us: s.wall_start_us,
                wall_end_us: s.wall_end_us,
                fields: s.fields,
            };
            if record.op {
                op_spans.push(record);
            } else {
                spans.push(record);
            }
        }
        spans.append(&mut op_spans);
        Trace { spans }
    }
}

/// Handle to a tracer-level phase span. Close it explicitly with
/// [`TracerSpan::end`] to stamp deterministic simulated bounds, or let
/// it drop (wall-clock close only).
#[derive(Debug)]
pub struct TracerSpan<'a> {
    tracer: &'a Tracer,
    idx: usize,
}

impl TracerSpan<'_> {
    /// Attach a field to the phase span.
    pub fn field(&self, key: &str, value: impl Into<FieldValue>) {
        if self.idx == DISABLED {
            return;
        }
        let mut inner = self.tracer.inner.lock();
        if let Some(span) = inner.get_mut(self.idx) {
            span.fields.push((key.to_owned(), value.into()));
        }
    }

    /// Stamp the span's simulated start time.
    pub fn sim_start(&self, sim_ms: u64) {
        if self.idx == DISABLED {
            return;
        }
        let mut inner = self.tracer.inner.lock();
        if let Some(span) = inner.get_mut(self.idx) {
            span.sim_start_ms = Some(sim_ms);
        }
    }

    /// Attach a finished builder's subtree under this span. Call in a
    /// deterministic order (rank order for visits, slot order for
    /// probes) — span IDs are assigned from attach order at seal time.
    pub fn attach(&self, mut builder: TraceBuilder) {
        if self.idx == DISABLED {
            return;
        }
        builder.seal_open();
        let mut inner = self.tracer.inner.lock();
        let offset = inner.len();
        for mut span in builder.spans {
            span.parent = Some(span.parent.map(|p| p + offset).unwrap_or(self.idx));
            inner.push(span);
        }
    }

    /// Close the span, stamping the simulated end (and start, if given).
    pub fn end(self, sim_bounds: Option<(u64, u64)>) {
        if self.idx == DISABLED {
            return;
        }
        let wall = self.tracer.epoch.elapsed().as_micros().max(1) as u64;
        let mut inner = self.tracer.inner.lock();
        if let Some(span) = inner.get_mut(self.idx) {
            if let Some((start, end)) = sim_bounds {
                span.sim_start_ms = Some(start);
                span.sim_end_ms = Some(end);
            }
            span.wall_end_us = wall;
        }
    }
}

impl Drop for TracerSpan<'_> {
    fn drop(&mut self) {
        if self.idx == DISABLED {
            return;
        }
        let wall = self.tracer.epoch.elapsed().as_micros().max(1) as u64;
        let mut inner = self.tracer.inner.lock();
        if let Some(span) = inner.get_mut(self.idx) {
            if span.wall_end_us == 0 {
                span.wall_end_us = wall;
            }
        }
    }
}

fn u64_is_zero(v: &u64) -> bool {
    *v == 0
}
fn bool_is_false(v: &bool) -> bool {
    !*v
}

/// One sealed span: stable ID, parent link, both clocks, fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Stable 1-based span ID (1 is always the `campaign` root).
    pub id: u64,
    /// Parent span ID; `None` only for the root.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub parent: Option<u64>,
    /// Span name (`crawl`, `visit`, `fetch`, `retry`, `topics-call`, …).
    pub name: String,
    /// Operational (scheduling-dependent) spans are dropped from the
    /// deterministic stripped view.
    #[serde(skip_serializing_if = "bool_is_false", default)]
    pub op: bool,
    /// Simulated-clock start, ms since campaign epoch.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub sim_start_ms: Option<u64>,
    /// Simulated-clock end.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub sim_end_ms: Option<u64>,
    /// Wall-clock start, µs since the tracer epoch (0 when stripped).
    #[serde(skip_serializing_if = "u64_is_zero", default)]
    pub wall_start_us: u64,
    /// Wall-clock end, µs since the tracer epoch (0 when stripped).
    #[serde(skip_serializing_if = "u64_is_zero", default)]
    pub wall_end_us: u64,
    /// Ordered key/value payload (domain, CP, retry attempt, …).
    #[serde(skip_serializing_if = "Vec::is_empty", default)]
    pub fields: Vec<(String, FieldValue)>,
}

impl SpanRecord {
    /// Value of a field, if present.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Simulated duration in ms, when both bounds are present and
    /// ordered.
    pub fn sim_duration_ms(&self) -> Option<u64> {
        match (self.sim_start_ms, self.sim_end_ms) {
            (Some(s), Some(e)) if e >= s => Some(e - s),
            _ => None,
        }
    }

    /// Wall-clock duration in µs (0 when stripped or inverted).
    pub fn wall_duration_us(&self) -> u64 {
        self.wall_end_us.saturating_sub(self.wall_start_us)
    }

    fn json_len_hint(&self) -> usize {
        160 + self.name.len() + fields_len_hint(&self.fields)
    }

    /// Append the span as one compact JSON object, byte-identical to
    /// `serde_json::to_string` of the derived `Serialize`: fields in
    /// declaration order, each omitted where its `skip_serializing_if`
    /// says so.
    pub(crate) fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        fn num(out: &mut String, key: &str, v: u64) {
            write!(out, ",\"{key}\":{v}").expect("writing to a String cannot fail");
        }
        write!(out, "{{\"id\":{}", self.id).expect("writing to a String cannot fail");
        if let Some(p) = self.parent {
            num(out, "parent", p);
        }
        out.push_str(",\"name\":");
        write_json_str(out, &self.name);
        if self.op {
            out.push_str(",\"op\":true");
        }
        if let Some(ms) = self.sim_start_ms {
            num(out, "sim_start_ms", ms);
        }
        if let Some(ms) = self.sim_end_ms {
            num(out, "sim_end_ms", ms);
        }
        if self.wall_start_us != 0 {
            num(out, "wall_start_us", self.wall_start_us);
        }
        if self.wall_end_us != 0 {
            num(out, "wall_end_us", self.wall_end_us);
        }
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":");
            write_json_fields(out, &self.fields);
        }
        out.push('}');
    }
}

/// A sealed, immutable span tree.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Spans in sealed order: root first, then deterministic spans in
    /// attach order, then operational spans.
    pub spans: Vec<SpanRecord>,
}

impl Trace {
    /// Look up a span by ID.
    pub fn span(&self, id: u64) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// Number of spans with the given name.
    pub fn count_named(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// The deterministic view: operational spans dropped, wall-clock
    /// fields zeroed, allocation-accounting fields
    /// ([`ALLOC_FIELD_KEYS`]) removed. Two same-seed runs produce
    /// byte-identical [`Trace::to_jsonl`] output of this view
    /// regardless of thread counts or whether the counting allocator
    /// was enabled.
    #[must_use]
    pub fn stripped(&self) -> Trace {
        Trace {
            spans: self
                .spans
                .iter()
                .filter(|s| !s.op)
                .map(|s| SpanRecord {
                    wall_start_us: 0,
                    wall_end_us: 0,
                    fields: s
                        .fields
                        .iter()
                        .filter(|(k, _)| !ALLOC_FIELD_KEYS.contains(&k.as_str()))
                        .cloned()
                        .collect(),
                    ..s.clone()
                })
                .collect(),
        }
    }

    /// JSONL export: one span object per line, in sealed order. Each
    /// line is written straight from the record and is byte-identical to
    /// `serde_json::to_string` of it, which [`Trace::from_jsonl`] reads.
    pub fn to_jsonl(&self) -> String {
        let hint = self.spans.iter().map(SpanRecord::json_len_hint).sum();
        let mut out = String::with_capacity(hint);
        for span in &self.spans {
            span.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parse a JSONL export back into a trace (the `doctor` loader).
    pub fn from_jsonl(text: &str) -> Result<Trace, String> {
        let mut spans = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let span: SpanRecord = serde_json::from_str(line)
                .map_err(|e| format!("trace line {}: {e}", lineno + 1))?;
            spans.push(span);
        }
        Ok(Trace { spans })
    }

    /// Chrome trace-event JSON (the `{"traceEvents": […]}` format),
    /// loadable in Perfetto / `chrome://tracing`. Spans with simulated
    /// bounds are laid out on the simulated clock (µs = sim ms × 1000);
    /// purely operational spans use wall time. Concurrent sibling
    /// subtrees are fanned out over synthetic track IDs so overlapping
    /// visits render side by side.
    pub fn to_chrome_json(&self) -> String {
        // Greedy lane assignment: direct children of phase spans that
        // overlap in simulated time go to separate tracks; descendants
        // inherit their ancestor's track.
        let mut tid = vec![0u64; self.spans.len()];
        let index_of: std::collections::BTreeMap<u64, usize> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            .collect();
        let phase_ids: std::collections::BTreeSet<u64> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(1))
            .map(|s| s.id)
            .collect();
        let mut lanes: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
        for (i, s) in self.spans.iter().enumerate() {
            let Some(parent) = s.parent else { continue };
            if phase_ids.contains(&parent) {
                let start = s.sim_start_ms.unwrap_or(0);
                let end = s.sim_end_ms.unwrap_or(start).max(start);
                let ends = lanes.entry(parent).or_default();
                let lane = match ends.iter().position(|&e| e <= start) {
                    Some(l) => {
                        ends[l] = end.max(start + 1);
                        l
                    }
                    None => {
                        ends.push(end.max(start + 1));
                        ends.len() - 1
                    }
                };
                tid[i] = lane as u64 + 1;
            } else if let Some(&pi) = index_of.get(&parent) {
                tid[i] = tid[pi];
            }
        }
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (ts, dur) = match (s.sim_start_ms, s.sim_end_ms) {
                (Some(start), end) => {
                    let e = end.unwrap_or(start).max(start);
                    (start * 1000, ((e - start) * 1000).max(1))
                }
                _ => (s.wall_start_us, s.wall_duration_us().max(1)),
            };
            let track = if s.op { 900 + tid[i] } else { tid[i] };
            out.push_str("{\"name\":");
            write_json_str(&mut out, &s.name);
            out.push_str(&format!(
                ",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":1,\"tid\":{track},\"args\":{{\"id\":{},\"parent\":{}",
                s.id,
                s.parent.unwrap_or(0),
            ));
            for (k, v) in &s.fields {
                out.push(',');
                write_json_str(&mut out, k);
                out.push(':');
                match v {
                    FieldValue::Str(t) => write_json_str(&mut out, t),
                    other => out.push_str(&other.to_string()),
                }
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

/// How one phase's child subtrees combine across shard traces in
/// [`merge_stripped`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeRule {
    /// Concatenate subtrees in input order — for work already striped
    /// disjointly across shards (visits by rank). Numeric phase fields
    /// sum.
    Concat,
    /// Subtrees may be duplicated across inputs (probes: several
    /// shards encounter the same domain): dedup by the string field
    /// `key` on each subtree's root, verify duplicates are structurally
    /// identical, sort by the key — byte order, matching the sealed
    /// slot order of the unsharded run — and set the phase field
    /// `count_field` to the deduplicated count. Other numeric phase
    /// fields sum.
    DedupByField {
        /// Root-span string field identifying a subtree.
        key: &'static str,
        /// Phase field overwritten with the deduplicated subtree count.
        count_field: &'static str,
    },
}

/// One trace's structure, decomposed for merging: phase spans (direct
/// children of the root) and, per phase, its child subtrees as index
/// lists into the trace's span vec (subtree root first, preorder).
struct Decomposed<'a> {
    root: &'a SpanRecord,
    phases: Vec<&'a SpanRecord>,
    subtrees: Vec<Vec<Vec<usize>>>,
}

fn decompose(trace: &Trace, which: usize) -> Result<Decomposed<'_>, String> {
    let root = trace
        .spans
        .first()
        .filter(|s| s.parent.is_none())
        .ok_or_else(|| format!("trace {which}: missing root span"))?;
    if trace.spans.iter().any(|s| s.op) {
        return Err(format!(
            "trace {which}: operational spans present — merge inputs must be stripped"
        ));
    }
    let mut phases: Vec<&SpanRecord> = Vec::new();
    let mut subtrees: Vec<Vec<Vec<usize>>> = Vec::new();
    // id → (phase position, subtree position) of the subtree the span
    // belongs to; phases map to themselves with no subtree.
    let mut home: std::collections::BTreeMap<u64, (usize, Option<usize>)> = Default::default();
    for (i, s) in trace.spans.iter().enumerate().skip(1) {
        let parent = s
            .parent
            .ok_or_else(|| format!("trace {which}: span {} has no parent", s.id))?;
        if parent == root.id {
            home.insert(s.id, (phases.len(), None));
            phases.push(s);
            subtrees.push(Vec::new());
            continue;
        }
        let &(phase, slot) = home
            .get(&parent)
            .ok_or_else(|| format!("trace {which}: span {} precedes its parent", s.id))?;
        let slot = match slot {
            // Direct child of a phase: a new subtree root.
            None => {
                subtrees[phase].push(vec![i]);
                subtrees[phase].len() - 1
            }
            Some(slot) => {
                subtrees[phase][slot].push(i);
                slot
            }
        };
        home.insert(s.id, (phase, Some(slot)));
    }
    Ok(Decomposed {
        root,
        phases,
        subtrees,
    })
}

/// A subtree with ids erased: local parent position, name, simulated
/// bounds, fields — what "the same probe recorded by two shards" must
/// agree on.
fn normalize(trace: &Trace, subtree: &[usize]) -> Vec<(Option<usize>, SpanRecord)> {
    let local: std::collections::BTreeMap<u64, usize> = subtree
        .iter()
        .enumerate()
        .map(|(pos, &i)| (trace.spans[i].id, pos))
        .collect();
    subtree
        .iter()
        .map(|&i| {
            let s = &trace.spans[i];
            let mut cleaned = s.clone();
            cleaned.id = 0;
            cleaned.parent = None;
            (s.parent.and_then(|p| local.get(&p).copied()), cleaned)
        })
        .collect()
}

/// Merge the numeric fields of per-trace phase spans: the key sequence
/// must match the first trace's; `U64` values sum, everything else must
/// be equal.
fn merge_fields(phase: &str, spans: &[&SpanRecord]) -> Result<Vec<(String, FieldValue)>, String> {
    let mut merged: Vec<(String, FieldValue)> = spans[0].fields.clone();
    for s in &spans[1..] {
        if s.fields.len() != merged.len() {
            return Err(format!("phase {phase}: field sets differ across traces"));
        }
        for ((k, acc), (k2, v)) in merged.iter_mut().zip(&s.fields) {
            if k != k2 {
                return Err(format!("phase {phase}: field order differs across traces"));
            }
            match (acc, v) {
                (FieldValue::U64(a), FieldValue::U64(b)) => *a += b,
                (a, b) if *a == *b => {}
                _ => {
                    return Err(format!(
                        "phase {phase}: non-summable field {k} differs across traces"
                    ))
                }
            }
        }
    }
    Ok(merged)
}

/// Deterministically merge stripped per-shard traces into the span tree
/// the unsharded run seals: one `campaign` root, the shared phase
/// sequence, and per phase the combined child subtrees — concatenated
/// or deduplicated per the matching [`MergeRule`] — renumbered with
/// dense sealed-order IDs. Phase simulated bounds take the min start
/// and max end across inputs; the root takes the min/max across input
/// roots.
///
/// Inputs must be [`Trace::stripped`] views sharing the same root name
/// and phase-name sequence, and every phase name must have a rule.
pub fn merge_stripped(traces: &[Trace], rules: &[(&str, MergeRule)]) -> Result<Trace, String> {
    if traces.is_empty() {
        return Err("no traces to merge".to_owned());
    }
    let parts: Vec<Decomposed<'_>> = traces
        .iter()
        .enumerate()
        .map(|(i, t)| decompose(t, i))
        .collect::<Result<_, _>>()?;
    let first = &parts[0];
    for (i, p) in parts.iter().enumerate().skip(1) {
        if p.root.name != first.root.name {
            return Err(format!("trace {i}: root name differs"));
        }
        if p.root.fields != first.root.fields {
            return Err(format!("trace {i}: root fields differ"));
        }
        let names = |d: &Decomposed<'_>| -> Vec<String> {
            d.phases.iter().map(|s| s.name.clone()).collect()
        };
        if names(p) != names(first) {
            return Err(format!("trace {i}: phase sequence differs"));
        }
    }

    let mut out: Vec<SpanRecord> = Vec::new();
    out.push(SpanRecord {
        id: 1,
        parent: None,
        name: first.root.name.clone(),
        op: false,
        sim_start_ms: parts.iter().filter_map(|p| p.root.sim_start_ms).min(),
        sim_end_ms: parts.iter().filter_map(|p| p.root.sim_end_ms).max(),
        wall_start_us: 0,
        wall_end_us: 0,
        fields: first.root.fields.clone(),
    });
    let mut next_id = 2u64;
    let emit_subtree = |out: &mut Vec<SpanRecord>,
                        next_id: &mut u64,
                        trace: &Trace,
                        subtree: &[usize],
                        phase_id: u64| {
        let mut new_ids: std::collections::BTreeMap<u64, u64> = Default::default();
        for &i in subtree {
            let s = &trace.spans[i];
            let id = *next_id;
            *next_id += 1;
            new_ids.insert(s.id, id);
            out.push(SpanRecord {
                id,
                parent: Some(
                    s.parent
                        .and_then(|p| new_ids.get(&p).copied())
                        .unwrap_or(phase_id),
                ),
                wall_start_us: 0,
                wall_end_us: 0,
                ..s.clone()
            });
        }
    };

    for (pos, phase) in first.phases.iter().enumerate() {
        let rule = rules
            .iter()
            .find(|(name, _)| *name == phase.name)
            .map(|&(_, r)| r)
            .ok_or_else(|| format!("no merge rule for phase {}", phase.name))?;
        let phase_spans: Vec<&SpanRecord> = parts.iter().map(|p| p.phases[pos]).collect();
        let mut fields = merge_fields(&phase.name, &phase_spans)?;
        let phase_id = next_id;
        next_id += 1;
        let record_at = out.len();
        out.push(SpanRecord {
            id: phase_id,
            parent: Some(1),
            name: phase.name.clone(),
            op: false,
            sim_start_ms: phase_spans.iter().filter_map(|s| s.sim_start_ms).min(),
            sim_end_ms: phase_spans.iter().filter_map(|s| s.sim_end_ms).max(),
            wall_start_us: 0,
            wall_end_us: 0,
            fields: Vec::new(),
        });
        match rule {
            MergeRule::Concat => {
                for (t, p) in parts.iter().enumerate() {
                    for subtree in &p.subtrees[pos] {
                        emit_subtree(&mut out, &mut next_id, &traces[t], subtree, phase_id);
                    }
                }
            }
            MergeRule::DedupByField { key, count_field } => {
                // key → (normalized shape, owning trace, subtree)
                type Entry<'a> = (Vec<(Option<usize>, SpanRecord)>, usize, &'a [usize]);
                let mut unique: std::collections::BTreeMap<String, Entry<'_>> = Default::default();
                for (t, p) in parts.iter().enumerate() {
                    for subtree in &p.subtrees[pos] {
                        let root = &traces[t].spans[subtree[0]];
                        let Some(FieldValue::Str(k)) = root.field(key) else {
                            return Err(format!(
                                "phase {}: subtree root {} lacks string field {key}",
                                phase.name, root.name
                            ));
                        };
                        let shape = normalize(&traces[t], subtree);
                        match unique.get(k) {
                            Some((existing, _, _)) if *existing != shape => {
                                return Err(format!(
                                    "phase {}: divergent duplicate subtrees for {key}={k}",
                                    phase.name
                                ));
                            }
                            Some(_) => {}
                            None => {
                                unique.insert(k.clone(), (shape, t, subtree));
                            }
                        }
                    }
                }
                let count = unique.len() as u64;
                match fields.iter_mut().find(|(k, _)| k == count_field) {
                    Some((_, v)) => *v = FieldValue::U64(count),
                    None => {
                        return Err(format!(
                            "phase {}: missing count field {count_field}",
                            phase.name
                        ))
                    }
                }
                for (_, (_, t, subtree)) in unique {
                    emit_subtree(&mut out, &mut next_id, &traces[t], subtree, phase_id);
                }
            }
        }
        std::mem::swap(&mut out[record_at].fields, &mut fields);
    }
    Ok(Trace { spans: out })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let tracer = Tracer::enabled();
        let phase = tracer.phase("crawl");
        let mut b = tracer.visit_builder().unwrap();
        let visit = b.open("visit", Some(100));
        b.field(visit, "domain", "site0.example");
        let fetch = b.open("fetch", Some(100));
        b.field(fetch, "host", "site0.example");
        b.close(fetch, Some(140));
        b.leaf("topics-call", Some(150), None);
        b.close(visit, Some(200));
        phase.attach(b);
        let mut w = tracer.visit_builder().unwrap();
        let ws = w.open_op("worker", None);
        w.field(ws, "worker", 0usize);
        w.close(ws, None);
        phase.attach(w);
        phase.end(Some((100, 200)));
        tracer.finish()
    }

    #[test]
    fn seal_assigns_stable_ids_and_parent_links() {
        let t = sample_trace();
        assert_eq!(t.spans[0].name, "campaign");
        assert_eq!(t.spans[0].id, 1);
        assert_eq!(t.spans[0].sim_start_ms, Some(100));
        assert_eq!(t.spans[0].sim_end_ms, Some(200));
        let phase = t.spans.iter().find(|s| s.name == "crawl").unwrap();
        assert_eq!(phase.parent, Some(1));
        let visit = t.spans.iter().find(|s| s.name == "visit").unwrap();
        assert_eq!(visit.parent, Some(phase.id));
        let fetch = t.spans.iter().find(|s| s.name == "fetch").unwrap();
        assert_eq!(fetch.parent, Some(visit.id));
        assert_eq!(fetch.sim_duration_ms(), Some(40));
        // IDs are dense and unique.
        let mut ids: Vec<u64> = t.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), t.spans.len());
        assert_eq!(*ids.last().unwrap(), t.spans.len() as u64);
    }

    #[test]
    fn operational_spans_sort_last_and_strip_out() {
        let t = sample_trace();
        let worker = t.spans.iter().find(|s| s.name == "worker").unwrap();
        assert!(worker.op);
        assert_eq!(
            worker.id,
            t.spans.len() as u64,
            "op spans take the last IDs"
        );
        let stripped = t.stripped();
        assert!(stripped.spans.iter().all(|s| !s.op));
        assert!(stripped
            .spans
            .iter()
            .all(|s| s.wall_start_us == 0 && s.wall_end_us == 0));
        assert_eq!(stripped.count_named("visit"), 1);
        assert_eq!(stripped.count_named("worker"), 0);
    }

    #[test]
    fn stripped_drops_alloc_fields_but_keeps_payload_fields() {
        let tracer = Tracer::enabled();
        let phase = tracer.phase("crawl");
        let mut b = tracer.visit_builder().unwrap();
        let visit = b.open("visit", Some(10));
        b.field(visit, "domain", "site0.example");
        b.field(visit, "alloc_bytes", 4096u64);
        b.field(visit, "alloc_count", 12u64);
        b.field(visit, "peak_bytes", 2048u64);
        b.close(visit, Some(20));
        phase.attach(b);
        phase.field("dealloc_bytes", 999u64);
        phase.end(Some((10, 20)));
        let t = tracer.finish();
        let stripped = t.stripped();
        let visit = stripped.spans.iter().find(|s| s.name == "visit").unwrap();
        assert_eq!(
            visit.fields,
            vec![(
                "domain".to_owned(),
                FieldValue::Str("site0.example".to_owned())
            )]
        );
        let phase = stripped.spans.iter().find(|s| s.name == "crawl").unwrap();
        assert!(phase.fields.is_empty());
        // The unstripped trace keeps the attribution.
        let full = t.spans.iter().find(|s| s.name == "visit").unwrap();
        assert_eq!(full.field("alloc_bytes"), Some(&FieldValue::U64(4096)));
    }

    #[test]
    fn stripped_jsonl_round_trips() {
        let t = sample_trace().stripped();
        let back = Trace::from_jsonl(&t.to_jsonl()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(tracer.visit_builder().is_none());
        let phase = tracer.phase("crawl");
        phase.field("sites", 10usize);
        phase.end(Some((0, 1)));
        assert!(tracer.is_empty());
        let t = tracer.finish();
        assert_eq!(t.spans.len(), 1, "just the synthetic root");
    }

    #[test]
    fn builder_close_also_closes_nested_spans() {
        let tracer = Tracer::enabled();
        let phase = tracer.phase("crawl");
        let mut b = tracer.visit_builder().unwrap();
        let outer = b.open("visit", Some(10));
        b.open("fetch", Some(10)); // left open on purpose
        b.close(outer, Some(50));
        phase.attach(b);
        drop(phase);
        let t = tracer.finish();
        let fetch = t.spans.iter().find(|s| s.name == "fetch").unwrap();
        assert_eq!(fetch.sim_end_ms, Some(10), "auto-closed at its start");
    }

    #[test]
    fn chrome_export_has_trace_events_with_sim_timestamps() {
        let t = sample_trace();
        let json = t.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":100000"), "sim ms → µs");
        assert!(json.contains("\"domain\":\"site0.example\""));
    }

    #[test]
    fn json_escape_handles_control_characters() {
        let escape = |s: &str| {
            let mut out = String::new();
            write_json_str(&mut out, s);
            out
        };
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}\u{1f}\u{7f}é"), "\"\\u0001\\u001f\u{7f}é\"");
    }

    /// Attach one deterministic visit subtree for `rank`.
    fn add_visit(tracer: &Tracer, phase: &TracerSpan<'_>, rank: u64) {
        let mut b = tracer.visit_builder().unwrap();
        let v = b.open("visit", Some(rank * 10));
        b.field(v, "domain", format!("site{rank}.example"));
        b.leaf("fetch", Some(rank * 10), Some(rank * 10 + 5));
        b.close(v, Some(rank * 10 + 9));
        phase.attach(b);
    }

    /// Attach one deterministic probe subtree for `domain` at `at` ms.
    fn add_probe(tracer: &Tracer, phase: &TracerSpan<'_>, domain: &str, at: u64) {
        let mut b = tracer.visit_builder().unwrap();
        let p = b.open("probe", Some(at));
        b.field(p, "domain", domain);
        b.leaf("fetch", Some(at), Some(at + 5));
        b.close(p, Some(at + 5));
        phase.attach(b);
    }

    /// A sealed + stripped two-phase trace: visits for `ranks`, probes
    /// for `(domain, at)` pairs, mimicking the campaign shape.
    fn campaign_trace(ranks: &[u64], probes: &[(&str, u64)]) -> Trace {
        let tracer = Tracer::enabled();
        {
            let phase = tracer.phase("crawl");
            for &r in ranks {
                add_visit(&tracer, &phase, r);
            }
            phase.field("sites", ranks.len());
            let lo = ranks.iter().map(|r| r * 10).min().unwrap_or(0);
            let hi = ranks.iter().map(|r| r * 10 + 9).max().unwrap_or(0);
            phase.end(Some((lo, hi)));
        }
        {
            let phase = tracer.phase("attestation-probe");
            for &(d, at) in probes {
                add_probe(&tracer, &phase, d, at);
            }
            phase.field("probes", probes.len());
            phase.field("cache_hits", 0u64);
            let lo = probes.iter().map(|&(_, at)| at).min().unwrap_or(0);
            let hi = probes.iter().map(|&(_, at)| at + 5).max().unwrap_or(0);
            phase.end(Some((lo, hi)));
        }
        tracer.finish().stripped()
    }

    const RULES: &[(&str, MergeRule)] = &[
        ("crawl", MergeRule::Concat),
        (
            "attestation-probe",
            MergeRule::DedupByField {
                key: "domain",
                count_field: "probes",
            },
        ),
    ];

    #[test]
    fn merge_stripped_reassembles_the_unsharded_trace() {
        // Probes sorted by domain in each input, duplicates identical —
        // exactly what per-shard campaign runs produce.
        let shard0 = campaign_trace(&[0, 1], &[("a.example", 100), ("b.example", 105)]);
        let shard1 = campaign_trace(&[2, 3], &[("b.example", 105), ("c.example", 110)]);
        let single = campaign_trace(
            &[0, 1, 2, 3],
            &[("a.example", 100), ("b.example", 105), ("c.example", 110)],
        );
        let merged = merge_stripped(&[shard0, shard1], RULES).unwrap();
        assert_eq!(merged, single);
        // A one-shard "merge" is the identity.
        let alone = merge_stripped(std::slice::from_ref(&single), RULES).unwrap();
        assert_eq!(alone, single);
    }

    #[test]
    fn merge_stripped_handles_empty_stripes() {
        let shard0 = campaign_trace(&[0, 1], &[("a.example", 100)]);
        let shard1 = campaign_trace(&[], &[("a.example", 100)]);
        let merged = merge_stripped(&[shard0.clone(), shard1], RULES).unwrap();
        assert_eq!(merged, shard0);
    }

    #[test]
    fn merge_stripped_rejects_bad_inputs() {
        let t = campaign_trace(&[0], &[("a.example", 100)]);
        let err =
            merge_stripped(std::slice::from_ref(&t), &[("crawl", MergeRule::Concat)]).unwrap_err();
        assert!(err.contains("no merge rule"), "{err}");

        // Same domain, different payload: the duplicate check trips.
        let conflicting = campaign_trace(&[1], &[("a.example", 101)]);
        let err = merge_stripped(&[t.clone(), conflicting], RULES).unwrap_err();
        assert!(err.contains("divergent duplicate"), "{err}");

        // Unstripped input (op spans survive) is refused.
        let raw = {
            let tracer = Tracer::enabled();
            let phase = tracer.phase("crawl");
            let mut b = tracer.visit_builder().unwrap();
            let w = b.open_op("worker", None);
            b.close(w, None);
            phase.attach(b);
            phase.end(Some((0, 1)));
            tracer.finish()
        };
        let err = merge_stripped(&[raw], RULES).unwrap_err();
        assert!(err.contains("must be stripped"), "{err}");

        assert!(merge_stripped(&[], RULES).is_err());
    }
}
