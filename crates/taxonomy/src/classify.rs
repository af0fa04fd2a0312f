//! The domain→topics classifier ("predefined language model" in §2.1).
//!
//! Chrome classifies a site by its hostname: an override list pins ~10k
//! well-known hosts to curated topics; everything else goes through an
//! on-device model that emits up to a handful of topics, or nothing when
//! the host is meaningless. We reproduce that interface with:
//!
//! * an **override table** the world generator populates with its ground
//!   truth (site → intended topics), mirroring Chrome's curated list, and
//! * a **deterministic fallback** hashing the registrable domain into 1–3
//!   topics, with a configurable unclassifiable rate.
//!
//! Classification happens per *registrable domain* — exactly the
//! granularity at which the Topics engine records observations.

use crate::tree::{Taxonomy, TaxonomyVersion, TopicId};
use std::collections::HashMap;
use topics_net::domain::Domain;
use topics_net::psl::{registrable_domain, registrable_str};
use topics_net::seed;

/// The result of classifying one site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Classification {
    /// The model produced topics (1–3, deduplicated, stable order).
    Topics(Vec<TopicId>),
    /// The model could not label the site; it contributes nothing to the
    /// epoch history.
    Unclassifiable,
}

impl Classification {
    /// The topics, or an empty slice when unclassifiable.
    pub fn topics(&self) -> &[TopicId] {
        match self {
            Classification::Topics(t) => t,
            Classification::Unclassifiable => &[],
        }
    }
}

/// Deterministic site classifier.
#[derive(Debug, Clone)]
pub struct Classifier {
    overrides: HashMap<Domain, Vec<TopicId>>,
    /// Probability that a non-overridden domain is unclassifiable.
    unclassifiable_rate: f64,
    version: TaxonomyVersion,
    seed: u64,
}

impl Classifier {
    /// Chrome's observed behaviour: a minority of hosts get no label.
    pub const DEFAULT_UNCLASSIFIABLE_RATE: f64 = 0.13;

    /// A classifier with no overrides and the default unclassifiable
    /// rate, targeting taxonomy v2.
    pub fn new(seed: u64) -> Classifier {
        Classifier::new_with_version(seed, TaxonomyVersion::V2)
    }

    /// A classifier targeting a specific taxonomy version (the model
    /// Chrome ships is version-locked: a v1 model never emits a topic id
    /// outside the 349-topic tree).
    pub fn new_with_version(seed: u64, version: TaxonomyVersion) -> Classifier {
        Classifier {
            overrides: HashMap::new(),
            unclassifiable_rate: Self::DEFAULT_UNCLASSIFIABLE_RATE,
            version,
            seed: seed::derive(seed, "classifier"),
        }
    }

    /// The taxonomy version this model targets.
    pub fn taxonomy_version(&self) -> TaxonomyVersion {
        self.version
    }

    /// Change the unclassifiable rate (clamped to `[0, 1]`).
    #[must_use]
    pub fn with_unclassifiable_rate(mut self, rate: f64) -> Classifier {
        self.unclassifiable_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Pin a domain (at registrable-domain granularity) to fixed topics,
    /// as Chrome's override list does for well-known sites.
    pub fn add_override(&mut self, domain: &Domain, topics: Vec<TopicId>) {
        self.overrides.insert(registrable_domain(domain), topics);
    }

    /// Number of override entries.
    pub fn override_count(&self) -> usize {
        self.overrides.len()
    }

    /// Classify a host. Subdomains share the registrable domain's label,
    /// matching Chrome (`sport.example.com` and `example.com` agree).
    pub fn classify(&self, host: &Domain) -> Classification {
        let reg = registrable_str(host);
        if let Some(t) = self.overrides.get(reg) {
            return if t.is_empty() {
                Classification::Unclassifiable
            } else {
                Classification::Topics(t.clone())
            };
        }
        self.fallback(reg)
    }

    /// Hash-based fallback for unknown domains: deterministic 1–3 topics
    /// from the returnable set, or unclassifiable.
    fn fallback(&self, reg: &str) -> Classification {
        let taxonomy = Taxonomy::of(self.version);
        let s = seed::derive(self.seed, reg);
        if seed::unit_f64(seed::derive(s, "uncls")) < self.unclassifiable_rate {
            return Classification::Unclassifiable;
        }
        let count = 1 + (seed::derive(s, "count") % 3) as usize; // 1..=3
        let returnable: u64 = (self.version.size() - 1) as u64;
        let sensitive = taxonomy.sensitive_root();
        let mut topics = Vec::with_capacity(count);
        let mut attempt = 0u64;
        while topics.len() < count && attempt < 32 {
            let pick = TopicId((seed::derive_idx(s, attempt) % returnable) as u16 + 1);
            attempt += 1;
            if pick == sensitive || topics.contains(&pick) {
                continue;
            }
            topics.push(pick);
        }
        topics.sort();
        Classification::Topics(topics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Domain {
        Domain::parse(s).unwrap()
    }

    #[test]
    fn deterministic_per_domain() {
        let c = Classifier::new(1);
        let a = c.classify(&d("news-site-42.com"));
        let b = c.classify(&d("news-site-42.com"));
        assert_eq!(a, b);
    }

    #[test]
    fn subdomains_share_label() {
        let c = Classifier::new(1);
        assert_eq!(
            c.classify(&d("example.com")),
            c.classify(&d("www.blog.example.com"))
        );
    }

    #[test]
    fn overrides_win() {
        let mut c = Classifier::new(1);
        let soccer = Taxonomy::global()
            .iter()
            .find(|t| t.name == "Soccer")
            .unwrap()
            .id;
        c.add_override(&d("fifa.com"), vec![soccer]);
        assert_eq!(
            c.classify(&d("www.fifa.com")),
            Classification::Topics(vec![soccer])
        );
        assert_eq!(c.override_count(), 1);
    }

    #[test]
    fn empty_override_means_unclassifiable() {
        let mut c = Classifier::new(1);
        c.add_override(&d("blank.org"), vec![]);
        assert_eq!(c.classify(&d("blank.org")), Classification::Unclassifiable);
    }

    #[test]
    fn fallback_emits_one_to_three_sorted_unique_topics() {
        let c = Classifier::new(9).with_unclassifiable_rate(0.0);
        for i in 0..2000 {
            match c.classify(&d(&format!("site{i}.net"))) {
                Classification::Topics(t) => {
                    assert!((1..=3).contains(&t.len()), "{} topics", t.len());
                    let mut sorted = t.clone();
                    sorted.sort();
                    sorted.dedup();
                    assert_eq!(sorted, t, "sorted and unique");
                    for id in &t {
                        assert!(Taxonomy::global().get(*id).is_some());
                        assert_ne!(*id, Taxonomy::global().sensitive_root());
                    }
                }
                Classification::Unclassifiable => panic!("rate is zero"),
            }
        }
    }

    #[test]
    fn unclassifiable_rate_is_respected() {
        let c = Classifier::new(5).with_unclassifiable_rate(0.25);
        let n = 10_000;
        let uncls = (0..n)
            .filter(|i| {
                matches!(
                    c.classify(&d(&format!("u{i}.org"))),
                    Classification::Unclassifiable
                )
            })
            .count();
        let rate = uncls as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn v1_model_stays_inside_the_v1_tree() {
        let c = Classifier::new_with_version(9, TaxonomyVersion::V1).with_unclassifiable_rate(0.0);
        assert_eq!(c.taxonomy_version(), TaxonomyVersion::V1);
        for i in 0..2_000 {
            if let Classification::Topics(t) = c.classify(&d(&format!("v1site{i}.com"))) {
                for id in t {
                    assert!(
                        (id.get() as usize) <= crate::tree::TAXONOMY_V1_SIZE,
                        "v1 model emitted v2-only topic {id}"
                    );
                }
            }
        }
    }

    #[test]
    fn classification_topics_accessor() {
        assert!(Classification::Unclassifiable.topics().is_empty());
        let t = Classification::Topics(vec![TopicId(3)]);
        assert_eq!(t.topics(), &[TopicId(3)]);
    }
}
