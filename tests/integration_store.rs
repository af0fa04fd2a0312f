//! Integration: the campaign store contract.
//!
//! A bundle's dataset is `campaign.col`, the interned columnar store.
//! It loads back the exact `CampaignOutcome` the crawl produced, and its
//! column-scan index agrees with the row-struct `CampaignIndex` field
//! for field — plain and under fault injection. The store bytes are
//! deterministic: same seed → same file, regardless of thread count,
//! run repetition, or whether the store was written by a single crawl
//! or streamed out of a 1/2/4-shard segment merge.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;
use topics_core::analysis::colscan::{self, ColumnIndex};
use topics_core::analysis::dataset::DatasetId;
use topics_core::analysis::index::{CampaignIndex, PresenceCount};
use topics_core::crawler::columnar::ColumnarCampaign;
use topics_core::crawler::record::CampaignOutcome;
use topics_core::export::BUNDLE_FILES;
use topics_core::net::domain::Domain;
use topics_core::net::fault::FaultProfile;
use topics_core::obs::Obs;
use topics_core::{
    evaluate, load_campaign, merge_dir, run_shard, write_bundle, write_segment, Lab, LabConfig,
};

const SITES: usize = 200;

/// Unique temp dir per test (tests run concurrently in one process).
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("topics-istore-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const DATASETS: [DatasetId; 3] = [
    DatasetId::BeforeAccept,
    DatasetId::AfterAccept,
    DatasetId::AfterReject,
];

/// Every aggregate of the column scan must equal the row-struct index.
fn assert_index_equiv(outcome: &CampaignOutcome, col: &ColumnIndex, tag: &str) {
    let idx = CampaignIndex::new(outcome);
    let want_candidates: Vec<Domain> = idx.candidates().iter().map(|d| (*d).clone()).collect();
    assert_eq!(col.candidates, want_candidates, "{tag}: candidates");
    for (slot, id) in DATASETS.into_iter().enumerate() {
        assert_eq!(
            col.visit_counts[slot],
            idx.visits(id).len(),
            "{tag}: {id:?} visits"
        );
        assert_eq!(
            col.call_counts[slot],
            idx.calls(id).len(),
            "{tag}: {id:?} calls"
        );
        let want_parties: BTreeSet<Domain> = idx
            .calling_parties(id)
            .iter()
            .map(|d| (*d).clone())
            .collect();
        assert_eq!(
            col.calling_parties[slot], want_parties,
            "{tag}: {id:?} parties"
        );
        let want_presence: BTreeMap<Domain, PresenceCount> = idx
            .presence(id)
            .iter()
            .map(|(d, c)| ((*d).clone(), *c))
            .collect();
        assert_eq!(col.presence[slot], want_presence, "{tag}: {id:?} presence");
        let want_sites: BTreeMap<Domain, BTreeSet<Domain>> = idx
            .calling_sites(id)
            .iter()
            .map(|(d, s)| ((*d).clone(), s.iter().map(|w| (*w).clone()).collect()))
            .collect();
        assert_eq!(
            col.calling_sites[slot], want_sites,
            "{tag}: {id:?} calling sites"
        );
    }
    assert_eq!(
        col.unique_third_parties,
        idx.unique_third_parties(),
        "{tag}: third parties"
    );
    assert_eq!(
        col.questionable_ba_visits,
        idx.ba_tags().iter().filter(|t| t.questionable).count(),
        "{tag}: questionable visits"
    );
    assert_eq!(
        col.outcome_counts,
        outcome.outcome_counts(),
        "{tag}: outcome counts"
    );
}

/// Write the bundle for one outcome and assert its store loads back the
/// identical dataset and its column scan matches the row index.
fn assert_store_matches_rows(outcome: &CampaignOutcome, tag: &str) {
    let eval = evaluate(outcome);
    let dir = temp_dir(tag);
    write_bundle(&dir, outcome, &eval, false, Default::default()).unwrap();
    for artefact in BUNDLE_FILES {
        assert!(dir.join(artefact).is_file(), "{tag}: no {artefact}");
    }
    assert!(
        !dir.join("campaign.json").exists(),
        "{tag}: a bundle must not write campaign.json"
    );

    let loaded = load_campaign(&dir.join("campaign.col")).unwrap();
    assert_eq!(
        serde_json::to_string(&loaded).unwrap(),
        serde_json::to_string(outcome).unwrap(),
        "{tag}: the store does not load back the crawled dataset"
    );

    let store = ColumnarCampaign::decode(std::fs::read(dir.join("campaign.col")).unwrap()).unwrap();
    store.verify().unwrap();
    let col = colscan::scan(&store).unwrap();
    assert_index_equiv(&loaded, &col, tag);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn column_scan_matches_the_row_index() {
    let outcome = Lab::new(LabConfig::quick(67, SITES).with_threads(2))
        .run()
        .outcome;
    assert_store_matches_rows(&outcome, "plain");
}

#[test]
fn column_scan_matches_the_row_index_under_fault_injection() {
    let config = LabConfig::quick(73, SITES)
        .with_threads(2)
        .with_fault_profile(FaultProfile::parse("0.05").unwrap());
    let outcome = Lab::new(config).run().outcome;
    let counts = outcome.outcome_counts();
    assert!(
        counts.degraded + counts.failed > 0,
        "fault profile must actually degrade some sites"
    );
    assert_store_matches_rows(&outcome, "faulted");
}

#[test]
fn columnar_bytes_are_identical_across_runs_and_thread_counts() {
    let reference = ColumnarCampaign::from_outcome(
        &Lab::new(LabConfig::quick(71, 150).with_threads(1))
            .run()
            .outcome,
    );
    for threads in [1, 2, 4] {
        let outcome = Lab::new(LabConfig::quick(71, 150).with_threads(threads))
            .run()
            .outcome;
        let store = ColumnarCampaign::from_outcome(&outcome);
        assert_eq!(
            store.bytes(),
            reference.bytes(),
            "{threads}-thread store bytes differ"
        );
    }
}

#[test]
fn sharded_columnar_merge_reproduces_the_single_run_store() {
    for (tag, config) in [
        ("plain", LabConfig::quick(79, SITES).with_threads(2)),
        (
            "faulted",
            LabConfig::quick(83, SITES)
                .with_threads(2)
                .with_fault_profile(FaultProfile::parse("0.05").unwrap()),
        ),
    ] {
        let outcome = Lab::new(config.clone()).run().outcome;
        let single = ColumnarCampaign::from_outcome(&outcome);
        let report = evaluate(&outcome).render_report();
        for shards in [1, 2, 4] {
            let dir = temp_dir(&format!("merge-{tag}-{shards}"));
            for shard in 0..shards {
                let segment = run_shard(&config, shard, shards, &Obs::new().with_trace());
                write_segment(&dir, &segment).unwrap();
            }
            let merged = merge_dir(&dir).unwrap();
            assert_eq!(
                merged.store.bytes(),
                single.bytes(),
                "{tag}: {shards}-shard merged store differs from the single-run store"
            );
            assert_eq!(
                evaluate(&merged.outcome).render_report(),
                report,
                "{tag}: {shards}-shard report differs"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

fn lab(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_topics-lab"))
        .args(args)
        .output()
        .expect("topics-lab runs")
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("reading {name}: {e}"))
}

#[test]
fn cli_merged_store_matches_the_crawl_and_doctor_verifies_it() {
    let dir = temp_dir("cli");
    let crawl_dir = dir.join("crawl");
    let segs = dir.join("segs");

    let out = lab(&[
        "crawl",
        "--sites",
        "60",
        "--seed",
        "13",
        "--quiet",
        "--out",
        crawl_dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(crawl_dir.join("campaign.col").is_file());
    assert!(!crawl_dir.join("campaign.json").exists());

    // `report` re-renders report.txt from the bundle's store (printed
    // with one trailing newline).
    let report = lab(&["report", "--campaign", crawl_dir.to_str().unwrap()]);
    assert!(report.status.success());
    let mut want = read(&crawl_dir, "report.txt");
    want.push(b'\n');
    assert!(report.stdout == want, "report differs from report.txt");

    // A merged bundle reproduces the crawl-written store byte for byte.
    for spec in ["1/2", "2/2"] {
        let out = lab(&[
            "shard",
            "--shard",
            spec,
            "--sites",
            "60",
            "--seed",
            "13",
            "--quiet",
            "--out",
            segs.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let out = lab(&["merge", "--segments", segs.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        read(&segs, "campaign.col"),
        read(&crawl_dir, "campaign.col"),
        "merge must stream the same bytes the crawl wrote"
    );
    assert!(!segs.join("campaign.json").exists());

    // Doctor on the merged bundle verifies segments AND the store
    // (checksums, intern integrity, canonical bytes).
    let out = lab(&["doctor", "--campaign", segs.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("== Shard segments =="), "{stdout}");
    assert!(stdout.contains("== Columnar store =="), "{stdout}");
    assert!(stdout.contains("[ok] campaign.col"), "{stdout}");

    // The retired knob is an unknown flag, refused before any work.
    let out = lab(&["crawl", "--sites", "10", "--quiet", "--store", "columnar"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown flag \"--store\""),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Corrupting the store is caught at load time (exit 4): the
    // checksum fails before anything downstream can misread the bytes.
    let mut bytes = read(&segs, "campaign.col");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(segs.join("campaign.col"), &bytes).unwrap();
    let out = lab(&["doctor", "--campaign", segs.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(4),
        "doctor must fail on a corrupt store"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("campaign.col"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A JSON dump in the store's place is refused by magic (exit 4),
    // never parsed.
    std::fs::write(segs.join("campaign.col"), b"{\"schema_version\":1}").unwrap();
    let out = lab(&["report", "--campaign", segs.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(4));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("bad magic"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_dir_all(&dir).unwrap();
}
