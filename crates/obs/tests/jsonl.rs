//! Integration: the direct JSONL writer against its serde reference.
//!
//! `Trace::to_jsonl` and `EventLog::to_jsonl` write JSON straight from
//! the records instead of going through the serde derives. Their
//! contract is byte identity with `serde_json::to_string` of the same
//! record, line for line, so every reader of the old files (the doctor,
//! `serve`, shard merges, golden comparisons) sees the same bytes. The
//! serde write path survives here only as that reference.

use topics_core::obs::{alloc, Event, EventLog, FieldValue, Level, Obs, SpanRecord, Trace};
use topics_core::{Lab, LabConfig};

/// Route the heap through the counting allocator, so the traced
/// campaign carries the allocation fields an `--alloc-stats` run writes.
#[global_allocator]
static ALLOC: topics_core::obs::CountingAlloc = topics_core::obs::CountingAlloc;

/// Assert that `jsonl` holds exactly one line per record, each equal to
/// the serde writer's output for that record.
fn assert_serde_identical<T: serde::Serialize>(what: &str, jsonl: &str, records: &[T]) {
    assert!(
        jsonl.is_empty() || jsonl.ends_with('\n'),
        "{what}: no final newline"
    );
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), records.len(), "{what}: line count");
    for (i, (line, record)) in lines.iter().zip(records).enumerate() {
        let reference = serde_json::to_string(record).expect("record serialises");
        assert_eq!(*line, reference, "{what}: line {} differs", i + 1);
    }
}

#[test]
fn a_traced_campaign_exports_exactly_the_serde_bytes() {
    let obs = Obs::new().with_trace();
    alloc::set_enabled(true);
    Lab::new(LabConfig::quick(41, 150).with_threads(2)).run_observed(&obs);
    alloc::set_enabled(false);
    let trace = obs.trace.finish();
    assert!(trace.spans.len() > 1_000, "a real span tree");
    assert!(
        trace.spans.iter().any(|s| s.op) && trace.spans.iter().any(|s| !s.fields.is_empty()),
        "the campaign exercises operational spans and fields"
    );

    let jsonl = trace.to_jsonl();
    assert_serde_identical("raw trace", &jsonl, &trace.spans);
    assert_eq!(Trace::from_jsonl(&jsonl).expect("trace parses"), trace);

    let stripped = trace.stripped();
    let stripped_jsonl = stripped.to_jsonl();
    assert_serde_identical("stripped trace", &stripped_jsonl, &stripped.spans);
    assert_eq!(
        Trace::from_jsonl(&stripped_jsonl).expect("parses"),
        stripped
    );

    let events = obs.events.events();
    assert!(!events.is_empty());
    assert_serde_identical("event log", &obs.events.to_jsonl(), &events);
}

/// Strings that exercise every escaping rule of the serde writer.
const TRICKY: &[&str] = &[
    "",
    "plain",
    "say \"hi\"",
    "C:\\topics\\lab",
    "line1\nline2\r\ttab",
    "\u{1}\u{8}\u{c}\u{1f}",
    "del\u{7f}",
    "smørrebrød → ☂ 𝄞",
];

fn span(id: u64, name: &str, fields: Vec<(String, FieldValue)>) -> SpanRecord {
    SpanRecord {
        id,
        parent: Some(1),
        name: name.to_owned(),
        op: false,
        sim_start_ms: None,
        sim_end_ms: None,
        wall_start_us: 0,
        wall_end_us: 0,
        fields,
    }
}

fn adversarial_trace() -> Trace {
    let mut spans = vec![SpanRecord {
        id: 1,
        parent: None,
        name: "campaign".to_owned(),
        op: true,
        sim_start_ms: Some(0),
        sim_end_ms: Some(u64::MAX),
        wall_start_us: 1,
        wall_end_us: u64::MAX,
        fields: Vec::new(),
    }];
    let values = [
        FieldValue::U64(0),
        FieldValue::U64(u64::MAX),
        FieldValue::I64(i64::MIN),
        FieldValue::I64(i64::MAX),
        FieldValue::I64(-1),
        FieldValue::F64(-0.0),
        FieldValue::F64(1.5),
        FieldValue::F64(3.0),
        FieldValue::F64(1e21),
        FieldValue::F64(-2.5e-7),
        FieldValue::F64(f64::MAX),
        FieldValue::Bool(true),
        FieldValue::Bool(false),
    ];
    let numbers = values
        .iter()
        .enumerate()
        .map(|(i, v)| (format!("n{i}"), v.clone()))
        .collect();
    spans.push(span(2, "numbers", numbers));
    for (i, s) in TRICKY.iter().enumerate() {
        let fields = vec![
            ((*s).to_owned(), FieldValue::Str((*s).to_owned())),
            ("k".to_owned(), FieldValue::Str(format!("{s}{s}"))),
        ];
        spans.push(span(3 + i as u64, s, fields));
    }
    let mut partial = span(100, "partial", Vec::new());
    partial.sim_start_ms = Some(7);
    partial.wall_end_us = 9;
    spans.push(partial);
    Trace { spans }
}

#[test]
fn hand_built_spans_match_the_serde_writer_and_round_trip() {
    let trace = adversarial_trace();
    let jsonl = trace.to_jsonl();
    assert_serde_identical("adversarial trace", &jsonl, &trace.spans);
    assert_eq!(
        Trace::from_jsonl(&jsonl).expect("adversarial trace parses"),
        trace
    );
    // Re-exporting what was read back reproduces the file, except that
    // `-0` reads back as the integer 0.
    let reread = Trace::from_jsonl(&jsonl).unwrap().to_jsonl();
    assert_eq!(reread, jsonl.replace("{\"F64\":-0}", "{\"F64\":0}"));
    assert_serde_identical(
        "empty trace",
        &Trace::default().to_jsonl(),
        &[] as &[SpanRecord],
    );
}

#[test]
fn hand_built_events_match_the_serde_writer() {
    let log = EventLog::new();
    for (i, s) in TRICKY.iter().enumerate() {
        let level = [Level::Debug, Level::Info, Level::Warn, Level::Error][i % 4];
        let sim_ms = (i % 2 == 0).then_some(i as u64 * 1_000);
        log.event(
            level,
            s,
            sim_ms,
            vec![
                ((*s).to_owned(), FieldValue::Str((*s).to_owned())),
                ("min".to_owned(), FieldValue::I64(i64::MIN)),
                ("half".to_owned(), FieldValue::F64(0.5)),
            ],
        );
    }
    log.info("no-fields", Vec::new());
    let events: Vec<Event> = log.events();
    assert_serde_identical("events", &log.to_jsonl(), &events);
}

#[test]
fn a_non_finite_float_exports_as_null_and_reads_back_as_a_typed_error() {
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let trace = Trace {
            spans: vec![span(1, "bad", vec![("x".to_owned(), FieldValue::F64(v))])],
        };
        let jsonl = trace.to_jsonl();
        assert_eq!(
            jsonl,
            "{\"id\":1,\"parent\":1,\"name\":\"bad\",\"fields\":[[\"x\",{\"F64\":null}]]}\n"
        );
        let err = Trace::from_jsonl(&jsonl).unwrap_err();
        assert!(err.starts_with("trace line 1:"), "{err}");
    }
    let log = EventLog::new();
    log.info("bad", vec![("x".to_owned(), FieldValue::F64(f64::NAN))]);
    assert!(log.to_jsonl().contains("[\"x\",{\"F64\":null}]"));
}

#[test]
fn wide_numbers_decode_without_wrapping_or_panicking() {
    // What `Display` writes for `FieldValue::F64(1e21)` reads back as
    // that float.
    let line = "{\"id\":1,\"name\":\"n\",\"fields\":[[\"x\",{\"F64\":1000000000000000000000}]]}";
    let t = Trace::from_jsonl(line).expect("a wide float literal parses");
    assert_eq!(t.spans[0].field("x"), Some(&FieldValue::F64(1e21)));
    // Integers past the i64 range are errors, never a wrapped value.
    for bad in ["-9223372036854775809", "-18446744073709551615"] {
        let line = format!("{{\"id\":1,\"name\":\"n\",\"fields\":[[\"x\",{{\"I64\":{bad}}}]]}}");
        assert!(Trace::from_jsonl(&line).is_err(), "{bad}");
    }
    let min = "{\"id\":1,\"name\":\"n\",\"fields\":[[\"x\",{\"I64\":-9223372036854775808}]]}";
    let t = Trace::from_jsonl(min).expect("i64::MIN parses");
    assert_eq!(t.spans[0].field("x"), Some(&FieldValue::I64(i64::MIN)));
    assert!(Trace::from_jsonl("{\"id\":18446744073709551616,\"name\":\"n\"}").is_err());
}
