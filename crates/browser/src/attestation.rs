//! The browser-side attestation allow-list.
//!
//! Chromium enforces Privacy Sandbox enrolment through an allow-list file
//! (`privacy-sandbox-attestations.dat` in the
//! `PrivacySandboxAttestationsPreloaded` component folder), refreshed when
//! the browser starts. A Topics call from a caller that is not on the list
//! is blocked.
//!
//! §2.3 of the paper documents the implementation error this reproduction
//! preserves: **when the local allow-list database is corrupted or
//! missing, the browser allows *every* caller** (fail-open). The authors
//! corrupted the list on purpose, which is what made the §4 anomalous-call
//! measurements visible. We implement both the buggy behaviour (default,
//! as in Chromium 122) and the fixed fail-closed behaviour for the
//! ablation benchmark.

use std::collections::BTreeSet;
use topics_net::domain::Domain;
use topics_net::psl::{registrable_domain, registrable_str};

/// State of the on-disk allow-list component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllowListState {
    /// A healthy list of enrolled registrable domains.
    Healthy(BTreeSet<Domain>),
    /// The file exists but cannot be parsed (the paper's on-purpose
    /// corruption).
    Corrupted,
    /// The component folder is missing entirely.
    Missing,
}

/// How the enforcement code treats a corrupt/missing database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnforcementMode {
    /// Chromium 122 behaviour: corrupt/missing ⇒ every call allowed.
    FailOpen,
    /// The fixed behaviour (Google "declared to fix it in a future
    /// release"): corrupt/missing ⇒ every call blocked.
    FailClosed,
}

/// The decision for one caller, carrying *why* for instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum AllowDecision {
    /// Caller is on a healthy allow-list.
    AllowedEnrolled,
    /// Caller admitted because the database is corrupt/missing and the
    /// browser fails open — the bug the paper exploits.
    AllowedFailOpen,
    /// Caller is not on the (healthy) allow-list.
    BlockedNotEnrolled,
    /// Database corrupt/missing under fail-closed enforcement.
    BlockedFailClosed,
}

impl AllowDecision {
    /// Whether the Topics call proceeds.
    pub fn permits(self) -> bool {
        matches!(
            self,
            AllowDecision::AllowedEnrolled | AllowDecision::AllowedFailOpen
        )
    }
}

/// The attestation store consulted on every Topics API call.
#[derive(Debug, Clone)]
pub struct AttestationStore {
    state: AllowListState,
    mode: EnforcementMode,
}

impl AttestationStore {
    /// A store with a healthy allow-list of enrolled domains
    /// (normalised to registrable domains).
    pub fn healthy<I: IntoIterator<Item = Domain>>(enrolled: I) -> AttestationStore {
        let set = enrolled
            .into_iter()
            .map(|d| registrable_domain(&d))
            .collect();
        AttestationStore {
            state: AllowListState::Healthy(set),
            mode: EnforcementMode::FailOpen,
        }
    }

    /// A store whose database has been corrupted — the paper's crawler
    /// configuration.
    pub fn corrupted() -> AttestationStore {
        AttestationStore {
            state: AllowListState::Corrupted,
            mode: EnforcementMode::FailOpen,
        }
    }

    /// A store whose component folder is missing.
    pub fn missing() -> AttestationStore {
        AttestationStore {
            state: AllowListState::Missing,
            mode: EnforcementMode::FailOpen,
        }
    }

    /// Switch enforcement mode (the fixed browser for ablations).
    #[must_use]
    pub fn with_mode(mut self, mode: EnforcementMode) -> AttestationStore {
        self.mode = mode;
        self
    }

    /// The current enforcement mode.
    pub fn mode(&self) -> EnforcementMode {
        self.mode
    }

    /// True when the underlying database is unusable.
    pub fn is_degraded(&self) -> bool {
        !matches!(self.state, AllowListState::Healthy(_))
    }

    /// Decide whether `caller` may invoke the Topics API. Matching is at
    /// registrable-domain granularity, as in Chromium.
    pub fn check(&self, caller: &Domain) -> AllowDecision {
        match &self.state {
            AllowListState::Healthy(set) => {
                if set.contains(registrable_str(caller)) {
                    AllowDecision::AllowedEnrolled
                } else {
                    AllowDecision::BlockedNotEnrolled
                }
            }
            AllowListState::Corrupted | AllowListState::Missing => match self.mode {
                EnforcementMode::FailOpen => AllowDecision::AllowedFailOpen,
                EnforcementMode::FailClosed => AllowDecision::BlockedFailClosed,
            },
        }
    }

    /// The enrolled domains, when the database is healthy. This is what
    /// the paper reads off the June 6th, 2024 file (193 domains).
    pub fn enrolled(&self) -> Option<&BTreeSet<Domain>> {
        match &self.state {
            AllowListState::Healthy(set) => Some(set),
            _ => None,
        }
    }

    /// Simulate the on-startup component refresh: replace the database
    /// with a healthy list.
    pub fn refresh<I: IntoIterator<Item = Domain>>(&mut self, enrolled: I) {
        *self = AttestationStore::healthy(enrolled).with_mode(self.mode);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Domain {
        Domain::parse(s).unwrap()
    }

    #[test]
    fn healthy_list_allows_only_enrolled() {
        let store = AttestationStore::healthy([d("criteo.com"), d("doubleclick.net")]);
        assert_eq!(
            store.check(&d("criteo.com")),
            AllowDecision::AllowedEnrolled
        );
        assert_eq!(
            store.check(&d("bidder.criteo.com")),
            AllowDecision::AllowedEnrolled,
            "subdomains inherit enrolment of the registrable domain"
        );
        assert_eq!(
            store.check(&d("randomsite.com")),
            AllowDecision::BlockedNotEnrolled
        );
        assert!(!store.is_degraded());
    }

    #[test]
    fn corrupt_database_fails_open() {
        // The §2.3 bug: "the current implementation permits any Topics API
        // calls as default case when the internal database is corrupted or
        // missing".
        let store = AttestationStore::corrupted();
        assert!(store.is_degraded());
        let decision = store.check(&d("not-enrolled-at-all.com"));
        assert_eq!(decision, AllowDecision::AllowedFailOpen);
        assert!(decision.permits());
    }

    #[test]
    fn missing_database_fails_open_too() {
        let store = AttestationStore::missing();
        assert!(store.check(&d("anything.org")).permits());
    }

    #[test]
    fn fixed_browser_fails_closed() {
        let store = AttestationStore::corrupted().with_mode(EnforcementMode::FailClosed);
        let decision = store.check(&d("not-enrolled.com"));
        assert_eq!(decision, AllowDecision::BlockedFailClosed);
        assert!(!decision.permits());
    }

    #[test]
    fn fail_closed_does_not_affect_healthy_list() {
        let store =
            AttestationStore::healthy([d("criteo.com")]).with_mode(EnforcementMode::FailClosed);
        assert!(store.check(&d("criteo.com")).permits());
        assert!(!store.check(&d("other.com")).permits());
    }

    #[test]
    fn enrolled_is_normalised_and_readable() {
        let store = AttestationStore::healthy([d("www.criteo.com")]);
        let set = store.enrolled().unwrap();
        assert!(set.contains(&d("criteo.com")));
        assert_eq!(set.len(), 1);
        assert!(AttestationStore::corrupted().enrolled().is_none());
    }

    #[test]
    fn refresh_heals_a_corrupt_store() {
        let mut store = AttestationStore::corrupted();
        store.refresh([d("pubmatic.com")]);
        assert!(!store.is_degraded());
        assert!(store.check(&d("pubmatic.com")).permits());
        assert!(!store.check(&d("x.com")).permits());
    }
}
