//! Bundle export: write a campaign's dataset and every reproduced
//! artefact to a directory.

use crate::lab::Evaluation;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use topics_analysis::dataset::{DatasetId, Datasets};
use topics_analysis::export as csv;
use topics_crawler::columnar::{ColumnarCampaign, COLUMNAR_MAGIC};
use topics_crawler::record::CampaignOutcome;

/// The row-store file written by the JSON backend.
pub const CAMPAIGN_JSON_FILE: &str = "campaign.json";
/// The column-store file written by the columnar backend.
pub const CAMPAIGN_COLUMNAR_FILE: &str = "campaign.col";

/// Which on-disk representation a bundle's campaign dataset uses.
///
/// Both stores hold the identical dataset — [`load_campaign`] sniffs
/// the file's magic bytes, so every consumer (report, doctor, compare)
/// accepts either. `Json` stays the compatibility default; `Columnar`
/// is the interned struct-of-arrays layout in
/// [`topics_crawler::columnar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreKind {
    /// `campaign.json` — serde row structs, human-greppable.
    #[default]
    Json,
    /// `campaign.col` — checksummed columnar sections, lazy readable.
    Columnar,
}

impl StoreKind {
    /// Parse a `--store` flag value.
    pub fn parse(s: &str) -> Option<StoreKind> {
        match s {
            "json" => Some(StoreKind::Json),
            "columnar" | "col" => Some(StoreKind::Columnar),
            _ => None,
        }
    }

    /// The campaign file name this store writes.
    pub fn campaign_file(self) -> &'static str {
        match self {
            StoreKind::Json => CAMPAIGN_JSON_FILE,
            StoreKind::Columnar => CAMPAIGN_COLUMNAR_FILE,
        }
    }
}

impl std::fmt::Display for StoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StoreKind::Json => "json",
            StoreKind::Columnar => "columnar",
        })
    }
}

/// File names written by [`write_bundle`] with the default JSON store;
/// the columnar store swaps `campaign.json` for `campaign.col`.
pub const BUNDLE_FILES: [&str; 13] = [
    "campaign.json",
    "report.txt",
    "comparison.txt",
    "calls.csv",
    "sites.csv",
    "table1.csv",
    "fig2_presence.csv",
    "fig3_fractions.csv",
    "fig5_questionable.csv",
    "fig6_geo.csv",
    "fig7_cmp.csv",
    "sec4_anomalous.csv",
    "sec3_timeline.csv",
];

/// Write the full artefact bundle for a campaign:
///
/// * `campaign.json` or `campaign.col` (per `store`) — the raw dataset
///   (every visit, call and probe), loadable back with
///   [`load_campaign`];
/// * `report.txt` / `comparison.txt` — the rendered evaluation and the
///   paper-vs-measured table;
/// * one CSV per reproduced table/figure plus the raw calls/sites CSVs
///   and the enrolment timeline.
///
/// Every rendered artefact is computed from the in-memory outcome, so
/// the two stores produce byte-identical reports/CSVs — only the
/// campaign file differs.
pub fn write_bundle(
    dir: &Path,
    outcome: &CampaignOutcome,
    eval: &Evaluation,
    full_scale: bool,
    store: StoreKind,
) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    match store {
        StoreKind::Json => {
            let json = serde_json::to_string(outcome).expect("campaign serialises");
            fs::write(dir.join(CAMPAIGN_JSON_FILE), json)?;
        }
        StoreKind::Columnar => {
            let col = ColumnarCampaign::from_outcome(outcome);
            fs::write(dir.join(CAMPAIGN_COLUMNAR_FILE), col.bytes())?;
        }
    }
    write_artefacts(dir, outcome, eval, full_scale)
}

/// Write every rendered artefact except the campaign file itself —
/// what [`write_bundle`] adds on top of the store. Used directly by
/// `merge --store columnar`, which already holds the streamed store
/// bytes and must not re-encode them.
pub fn write_artefacts(
    dir: &Path,
    outcome: &CampaignOutcome,
    eval: &Evaluation,
    full_scale: bool,
) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join("report.txt"), eval.render_report())?;
    let rows = crate::compare::comparison_rows(eval, full_scale);
    fs::write(
        dir.join("comparison.txt"),
        crate::compare::render_comparison(&rows),
    )?;

    fs::write(dir.join("calls.csv"), csv::calls_csv(outcome))?;
    fs::write(dir.join("sites.csv"), csv::sites_csv(outcome))?;
    fs::write(dir.join("table1.csv"), csv::table1_csv(&eval.table1))?;
    fs::write(dir.join("fig2_presence.csv"), csv::presence_csv(&eval.fig2))?;
    fs::write(
        dir.join("fig3_fractions.csv"),
        csv::presence_csv(&eval.fig3),
    )?;
    fs::write(
        dir.join("fig5_questionable.csv"),
        csv::questionable_csv(&eval.fig5),
    )?;
    fs::write(dir.join("fig6_geo.csv"), csv::geo_csv(&eval.fig6))?;
    fs::write(dir.join("fig7_cmp.csv"), csv::cmp_csv(&eval.fig7))?;
    fs::write(
        dir.join("sec4_anomalous.csv"),
        csv::anomalous_csv(&eval.anomalous),
    )?;
    fs::write(
        dir.join("sec3_timeline.csv"),
        csv::timeline_csv(&eval.timeline),
    )?;
    Ok(())
}

/// Load a campaign dumped by [`write_bundle`], from either store.
///
/// The backend is sniffed from the file's magic bytes, not its name:
/// a `TOPICCOL` header means the columnar decoder (section checksums
/// and schema verified on the way in), anything else is parsed as
/// JSON. Unknown future `schema_version`s are a typed refusal in both
/// paths rather than a misparse.
pub fn load_campaign(path: &Path) -> io::Result<CampaignOutcome> {
    let bytes = fs::read(path)?;
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    if bytes.starts_with(&COLUMNAR_MAGIC) {
        let col =
            ColumnarCampaign::decode(bytes).map_err(|e| bad(format!("bad campaign.col: {e}")))?;
        return col
            .to_outcome()
            .map_err(|e| bad(format!("bad campaign.col: {e}")));
    }
    let json = String::from_utf8(bytes).map_err(|e| bad(format!("bad campaign.json: {e}")))?;
    let outcome: CampaignOutcome =
        serde_json::from_str(&json).map_err(|e| bad(format!("bad campaign.json: {e}")))?;
    outcome
        .check_schema()
        .map_err(|e| bad(format!("bad campaign.json: {e}")))?;
    Ok(outcome)
}

/// The campaign file inside a bundle directory, whichever store wrote
/// it. Prefers `campaign.json` when both exist (the stores hold the
/// same dataset, and JSON is the compatibility reader).
pub fn resolve_campaign_file(dir: &Path) -> Option<PathBuf> {
    for name in [CAMPAIGN_JSON_FILE, CAMPAIGN_COLUMNAR_FILE] {
        let p = dir.join(name);
        if p.is_file() {
            return Some(p);
        }
    }
    None
}

/// Quick sanity accessor used by tests: dataset sizes of a loaded
/// campaign.
pub fn dataset_sizes(outcome: &CampaignOutcome) -> (usize, usize) {
    let ds = Datasets::new(outcome);
    (
        ds.len(DatasetId::BeforeAccept),
        ds.len(DatasetId::AfterAccept),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate, Lab, LabConfig};

    #[test]
    fn bundle_round_trips() {
        let lab = Lab::new(LabConfig::quick(81, 200).with_threads(2));
        let outcome = lab.run();
        let eval = evaluate(&outcome);
        let dir = std::env::temp_dir().join(format!("topics-lab-test-{}", std::process::id()));
        write_bundle(&dir, &outcome, &eval, false, StoreKind::Json).unwrap();
        for f in BUNDLE_FILES {
            let p = dir.join(f);
            assert!(p.exists(), "missing {f}");
            assert!(fs::metadata(&p).unwrap().len() > 0, "{f} is empty");
        }
        assert_eq!(resolve_campaign_file(&dir), Some(dir.join("campaign.json")));
        let back = load_campaign(&dir.join("campaign.json")).unwrap();
        assert_eq!(dataset_sizes(&back), dataset_sizes(&outcome));
        assert_eq!(back.allow_list, outcome.allow_list);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn columnar_bundle_loads_back_identically() {
        let lab = Lab::new(LabConfig::quick(82, 150).with_threads(2));
        let outcome = lab.run().outcome;
        let eval = evaluate(&outcome);
        let dir = std::env::temp_dir().join(format!("topics-lab-coltest-{}", std::process::id()));
        write_bundle(&dir, &outcome, &eval, false, StoreKind::Columnar).unwrap();
        assert!(!dir.join("campaign.json").exists());
        let col_path = dir.join("campaign.col");
        assert_eq!(resolve_campaign_file(&dir), Some(col_path.clone()));
        let back = load_campaign(&col_path).unwrap();
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&outcome).unwrap(),
            "columnar load must reproduce the outcome exactly"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_kind_parses_flag_values() {
        assert_eq!(StoreKind::parse("json"), Some(StoreKind::Json));
        assert_eq!(StoreKind::parse("columnar"), Some(StoreKind::Columnar));
        assert_eq!(StoreKind::parse("col"), Some(StoreKind::Columnar));
        assert_eq!(StoreKind::parse("parquet"), None);
        assert_eq!(StoreKind::Json.campaign_file(), "campaign.json");
        assert_eq!(StoreKind::Columnar.campaign_file(), "campaign.col");
        assert_eq!(StoreKind::default(), StoreKind::Json);
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("topics-lab-garbage-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("campaign.json");
        fs::write(&p, "not json at all").unwrap();
        assert!(load_campaign(&p).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
