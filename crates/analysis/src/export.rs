//! Dataset export — CSV renderings of the datasets and of every
//! table/figure.
//!
//! The paper "offers our tools and dataset to the community"; this
//! module produces the same artefacts for a synthetic campaign: a raw
//! calls dataset, a per-site summary, and one CSV per reproduced
//! table/figure. All functions are pure (they return the CSV text);
//! writing to disk is the caller's business.

use crate::anomalous::AnomalousStats;
use crate::cmp_usage::Fig7;
use crate::figures::{GeoRow, PresenceRow, QuestionableRow};
use crate::table1::Table1;
use crate::timeline::Timeline;
use topics_crawler::record::{CampaignOutcome, Phase, VisitRecord};
use topics_net::region::Region;

/// Escape one CSV field (RFC 4180 style).
pub fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// Join fields into one CSV line.
pub fn csv_line<I: IntoIterator<Item = S>, S: AsRef<str>>(fields: I) -> String {
    fields
        .into_iter()
        .map(|f| csv_field(f.as_ref()))
        .collect::<Vec<_>>()
        .join(",")
}

/// The raw Topics-call dataset: one row per observed call, both phases.
///
/// Columns mirror what the paper's modified
/// `BrowsingTopicsSiteDataManagerImpl` logs, plus our context fields.
pub fn calls_csv(outcome: &CampaignOutcome) -> String {
    let mut out = String::from(
        "phase,website,caller,caller_site,call_type,root_context,script_source,permitted,topics_returned,timestamp_ms\n",
    );
    let mut rows = |phase: &str, v: &VisitRecord| {
        for c in &v.topics_calls {
            out.push_str(&csv_line([
                phase,
                v.website.as_str(),
                c.caller.as_str(),
                c.caller_site.as_str(),
                c.call_type.label(),
                if c.root_context { "root" } else { "iframe" },
                c.script_source.as_ref().map(|d| d.as_str()).unwrap_or(""),
                if c.permitted() { "1" } else { "0" },
                &c.topics_returned.to_string(),
                &c.timestamp.millis().to_string(),
            ]));
            out.push('\n');
        }
    };
    // D_BA then D_AA, each in site-rank order, as `Datasets::visits`
    // lists them.
    for v in outcome.sites.iter().filter_map(|s| s.before.as_ref()) {
        rows("before_accept", v);
    }
    let after = outcome.sites.iter().filter_map(|s| s.after.as_ref());
    for v in after.filter(|v| v.phase == Phase::AfterAccept) {
        rows("after_accept", v);
    }
    out
}

/// Per-site summary: one row per ranked site.
pub fn sites_csv(outcome: &CampaignOutcome) -> String {
    let mut out = String::from(
        "rank,website,region,visited,accepted,banner_found,parties_before,parties_after,calls_before,calls_after\n",
    );
    for s in &outcome.sites {
        let region = Region::of(&s.website).label();
        let b = s.before.as_ref();
        let a = s.after.as_ref();
        out.push_str(&csv_line([
            s.rank.to_string(),
            s.website.as_str().to_owned(),
            region.to_owned(),
            (b.is_some() as u8).to_string(),
            (a.is_some() as u8).to_string(),
            b.map(|v| v.banner_found as u8).unwrap_or(0).to_string(),
            b.map(|v| v.party_domains.len()).unwrap_or(0).to_string(),
            a.map(|v| v.party_domains.len()).unwrap_or(0).to_string(),
            b.map(|v| v.topics_calls.len()).unwrap_or(0).to_string(),
            a.map(|v| v.topics_calls.len()).unwrap_or(0).to_string(),
        ]));
        out.push('\n');
    }
    out
}

/// Table 1 as CSV.
pub fn table1_csv(t: &Table1) -> String {
    let mut out = String::from("dataset,class,count\n");
    let rows: [(&str, &str, usize); 7] = [
        ("", "allowed", t.allowed_total),
        ("", "allowed_not_attested", t.allowed_not_attested),
        ("d_aa", "allowed_attested", t.daa_allowed_attested),
        ("d_aa", "not_allowed_attested", t.daa_not_allowed_attested),
        ("d_aa", "not_allowed", t.daa_not_allowed),
        ("d_ba", "allowed_attested", t.dba_allowed_attested),
        ("d_ba", "not_allowed", t.dba_not_allowed),
    ];
    for (ds, class, n) in rows {
        out.push_str(&csv_line([ds, class, &n.to_string()]));
        out.push('\n');
    }
    out
}

/// Figures 2/3 rows as CSV.
pub fn presence_csv(rows: &[PresenceRow]) -> String {
    let mut out = String::from("cp,present,called,enabled_fraction\n");
    for r in rows {
        out.push_str(&csv_line([
            r.cp.as_str(),
            &r.present.to_string(),
            &r.called.to_string(),
            &format!("{:.4}", r.enabled_fraction()),
        ]));
        out.push('\n');
    }
    out
}

/// Figure 5 rows as CSV.
pub fn questionable_csv(rows: &[QuestionableRow]) -> String {
    let mut out = String::from("cp,websites\n");
    for r in rows {
        out.push_str(&csv_line([r.cp.as_str(), &r.websites.to_string()]));
        out.push('\n');
    }
    out
}

/// Figure 6 rows as CSV (one line per CP × region).
pub fn geo_csv(rows: &[GeoRow]) -> String {
    let mut out = String::from("cp,region,present,called,enabled_fraction\n");
    for r in rows {
        for (i, region) in Region::ALL.iter().enumerate() {
            let (present, called) = r.by_region[i];
            out.push_str(&csv_line([
                r.cp.as_str(),
                region.label(),
                &present.to_string(),
                &called.to_string(),
                &format!("{:.4}", r.enabled(*region)),
            ]));
            out.push('\n');
        }
    }
    out
}

/// Figure 7 as CSV.
pub fn cmp_csv(f: &Fig7) -> String {
    let mut out = String::from(
        "cmp,sites,questionable_sites,p_cmp,p_cmp_given_questionable,p_questionable_given_cmp\n",
    );
    for r in &f.rows {
        out.push_str(&csv_line([
            r.cmp.spec().name,
            &r.sites.to_string(),
            &r.questionable_sites.to_string(),
            &format!("{:.5}", r.p_cmp),
            &format!("{:.5}", r.p_cmp_given_questionable),
            &format!("{:.5}", r.p_questionable_given_cmp()),
        ]));
        out.push('\n');
    }
    out
}

/// §4 statistics as CSV.
pub fn anomalous_csv(s: &AnomalousStats) -> String {
    format!(
        "metric,value\ndistinct_cps,{}\ntotal_calls,{}\nsame_second_level_fraction,{:.4}\ngtm_cooccurrence,{:.4}\njavascript_fraction,{:.4}\nroot_context_fraction,{:.4}\ngtm_script_fraction,{:.4}\n",
        s.distinct_cps,
        s.total_calls,
        s.same_second_level_fraction,
        s.gtm_cooccurrence,
        s.javascript_fraction,
        s.root_context_fraction,
        s.gtm_script_fraction,
    )
}

/// §3 enrolment timeline as CSV.
pub fn timeline_csv(t: &Timeline) -> String {
    let mut out = String::from("year,month,enrolments\n");
    for ((y, m), n) in &t.by_month {
        out.push_str(&format!("{y},{m},{n}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetId, Datasets};
    use crate::testutil::tiny_outcome;
    use crate::{anomalous, cmp_usage, figures, table1 as t1, timeline as tl};

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_line(["a", "b,c"]), "a,\"b,c\"");
    }

    #[test]
    fn calls_csv_has_one_row_per_call() {
        let outcome = tiny_outcome();
        let csv = calls_csv(&outcome);
        let total_calls: usize = outcome
            .sites
            .iter()
            .flat_map(|s| s.before.iter().chain(s.after.iter()))
            .map(|v| v.topics_calls.len())
            .sum();
        assert_eq!(csv.lines().count(), 1 + total_calls);
        assert!(csv.starts_with("phase,website,caller"));
        assert!(csv.contains("before_accept"));
        assert!(csv.contains("after_accept"));
        assert!(csv.contains("googletagmanager"));
        // Rows follow the dataset views: D_BA, then D_AA, by rank; an
        // After-Reject visit is in neither.
        let mut rejected = outcome.clone();
        let flipped = rejected.sites.iter_mut().find_map(|s| s.after.as_mut());
        flipped.expect("an after visit").phase = Phase::AfterReject;
        for outcome in [outcome, rejected] {
            assert_calls_follow_the_datasets(&outcome);
        }
    }

    fn assert_calls_follow_the_datasets(outcome: &CampaignOutcome) {
        let csv = calls_csv(outcome);
        let ds = Datasets::new(outcome);
        let expected: Vec<String> = [
            (DatasetId::BeforeAccept, "before_accept"),
            (DatasetId::AfterAccept, "after_accept"),
        ]
        .into_iter()
        .flat_map(|(id, phase)| {
            ds.visits(id).flat_map(move |v| {
                v.topics_calls
                    .iter()
                    .map(move |c| format!("{phase},{},{}", v.website, c.caller))
            })
        })
        .collect();
        let got: Vec<String> = csv
            .lines()
            .skip(1)
            .map(|l| l.splitn(4, ',').take(3).collect::<Vec<_>>().join(","))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn sites_csv_covers_every_ranked_site() {
        let outcome = tiny_outcome();
        let csv = sites_csv(&outcome);
        assert_eq!(csv.lines().count(), 1 + outcome.sites.len());
        assert!(csv.contains("site-b.ru,.ru,1,0"));
        assert!(csv.contains("dead-site.com,.com,0,0"));
    }

    #[test]
    fn figure_csvs_render() {
        let outcome = tiny_outcome();
        let ds = Datasets::new(&outcome);
        let t = t1::table1(&ds);
        assert_eq!(table1_csv(&t).lines().count(), 8);
        let p = figures::fig2(&ds, 10);
        assert_eq!(presence_csv(&p).lines().count(), 1 + p.len());
        let q = figures::fig5(&ds, 10);
        assert_eq!(questionable_csv(&q).lines().count(), 1 + q.len());
        let g = figures::fig6(
            &ds,
            &[topics_net::domain::Domain::parse("violator.com").unwrap()],
        );
        assert_eq!(geo_csv(&g).lines().count(), 1 + 5);
        let f7 = cmp_usage::fig7(&ds);
        assert_eq!(cmp_csv(&f7).lines().count(), 1 + 15);
        let a = anomalous::anomalous_stats(&ds, DatasetId::AfterAccept);
        assert_eq!(anomalous_csv(&a).lines().count(), 8);
        let t = tl::timeline(&outcome);
        assert!(timeline_csv(&t).lines().count() > 1);
    }
}
