//! The assembled synthetic web.
//!
//! [`World`] owns the full ground truth — the ranked site list, every
//! site's spec, the ad-platform registry — and implements
//! [`NetworkService`]: DNS with the paper's failure rates and an HTTP
//! handler that routes every URL the browser can produce: site pages
//! (rendered against the visitor's consent cookie), GTM containers, ad
//! tags and frames, CMP loaders, attestation well-known files, sibling ad
//! frames, corporate parent frames, alias redirects, and the long tail of
//! minor third parties.

use crate::names;
use crate::parties::{build_registry_with, AdPlatform, RegistryScenario};
use crate::render;
use crate::site::{generate_site, SiteModelConfig, SiteSpec};
use std::collections::HashMap;
use topics_net::clock::Timestamp;
use topics_net::dns::{DnsError, DnsPolicy, SimDns};
use topics_net::domain::Domain;
use topics_net::http::{HttpRequest, HttpResponse, OBSERVE_BROWSING_TOPICS};
use topics_net::psl::{registrable_domain, registrable_str};
use topics_net::seed;

use topics_net::service::NetworkService;
use topics_net::url::Url;
use topics_net::wellknown::{AttestationFile, ATTESTATION_PATH};
use topics_net::NetError;

/// Simulation day on which the October 17th, 2024 attestation-schema
/// update lands (adds the `enrollment_site` field). Day 0 = 2023-06-01.
pub const ENROLLMENT_SITE_UPDATE_DAY: u64 = 504;

/// World construction parameters.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Campaign seed: all ground truth derives from it.
    pub seed: u64,
    /// Number of ranked sites (the paper crawls 50,000).
    pub num_sites: usize,
    /// Site-model behaviour rates.
    pub site_model: SiteModelConfig,
    /// DNS failure model.
    pub dns_policy: DnsPolicy,
    /// Which deployment era the platform registry models.
    pub scenario: RegistryScenario,
}

impl WorldConfig {
    /// The paper's configuration at full scale.
    pub fn paper(seed: u64) -> WorldConfig {
        WorldConfig {
            seed,
            num_sites: 50_000,
            site_model: SiteModelConfig::default(),
            dns_policy: DnsPolicy::paper(),
            scenario: RegistryScenario::Paper2024,
        }
    }

    /// A scaled-down configuration for tests and quick runs; behaviour
    /// rates are identical, only the population shrinks.
    pub fn scaled(seed: u64, num_sites: usize) -> WorldConfig {
        WorldConfig {
            seed,
            num_sites,
            site_model: SiteModelConfig::default(),
            dns_policy: DnsPolicy::paper(),
            scenario: RegistryScenario::Paper2024,
        }
    }
}

/// The synthetic web.
pub struct World {
    config: WorldConfig,
    registry: Vec<AdPlatform>,
    sites: Vec<SiteSpec>,
    site_by_domain: HashMap<Domain, usize>,
    canonical_by_domain: HashMap<Domain, usize>,
    sibling_by_domain: HashMap<Domain, usize>,
    parent_calls: HashMap<Domain, bool>,
    party_by_domain: HashMap<Domain, usize>,
    dns: SimDns,
}

impl World {
    /// Build the world: generate the registry and every site spec.
    pub fn generate(config: WorldConfig) -> World {
        let registry = build_registry_with(config.seed, config.scenario);
        let mut sites = Vec::with_capacity(config.num_sites);
        let mut site_by_domain = HashMap::with_capacity(config.num_sites);
        let mut canonical_by_domain = HashMap::new();
        let mut sibling_by_domain = HashMap::new();
        let mut parent_calls = HashMap::new();
        for rank in 0..config.num_sites {
            let spec = generate_site(config.seed, rank, &registry, &config.site_model);
            site_by_domain.insert(spec.domain.clone(), rank);
            if let Some(canonical) = &spec.alias_of {
                canonical_by_domain.insert(canonical.clone(), rank);
            }
            if let Some(sibling) = &spec.sibling_frame {
                sibling_by_domain.insert(registrable_domain(sibling), rank);
            }
            if let Some((parent, calls)) = &spec.parent_frame {
                parent_calls.insert(parent.clone(), *calls);
            }
            sites.push(spec);
        }
        let party_by_domain = registry
            .iter()
            .enumerate()
            .map(|(i, p)| (p.domain.clone(), i))
            .collect();
        let dns = SimDns::new(config.dns_policy.clone(), config.seed);
        World {
            config,
            registry,
            sites,
            site_by_domain,
            canonical_by_domain,
            sibling_by_domain,
            parent_calls,
            party_by_domain,
            dns,
        }
    }

    /// The campaign seed.
    pub fn seed(&self) -> u64 {
        self.config.seed
    }

    /// A stable hash of the full construction config. Two worlds with
    /// equal fingerprints serve identical content for the same request
    /// and timestamp, so the value is safe to use as a memo-cache key.
    pub fn fingerprint(&self) -> u64 {
        seed::fnv1a(format!("{:?}", self.config).as_bytes())
    }

    /// The ranked site list, in rank order — the crawl targets.
    pub fn tranco_list(&self) -> Vec<Url> {
        self.sites
            .iter()
            .map(|s| Url::https(s.domain.clone(), "/"))
            .collect()
    }

    /// All site specs (ground truth, used by tests and ablations).
    pub fn sites(&self) -> &[SiteSpec] {
        &self.sites
    }

    /// The ad-platform registry (ground truth).
    pub fn registry(&self) -> &[AdPlatform] {
        &self.registry
    }

    /// The allow-list the browser's attestation component would download
    /// — every `allowed` platform's domain (193 at paper scale).
    pub fn allow_list(&self) -> Vec<Domain> {
        self.registry
            .iter()
            .filter(|p| p.allowed)
            .map(|p| p.domain.clone())
            .collect()
    }

    /// The minor-party domain for a pool index.
    fn minor_domain(&self, idx: u64) -> Domain {
        names::minor_party_domain(self.config.seed, idx)
    }

    /// Whether the request carries the consent cookie for any site.
    fn request_consented(req: &HttpRequest) -> bool {
        req.headers
            .get("Cookie")
            .is_some_and(|c| c.contains("euconsent=granted"))
    }

    /// Serve a ranked site's own paths.
    fn serve_site(&self, spec: &SiteSpec, req: &HttpRequest) -> HttpResponse {
        match req.url.path() {
            "/" => {
                // Pathological sites (≈0.3% of the ranked web) exercise
                // the crawler's failure handling.
                match spec.pathology {
                    Some(crate::site::Pathology::RedirectLoop) => {
                        return HttpResponse::redirect(&Url::https(spec.domain.clone(), "/"));
                    }
                    Some(crate::site::Pathology::ServerError) => {
                        let mut r = HttpResponse::not_found();
                        r.status = topics_net::http::StatusCode::InternalServerError;
                        return r;
                    }
                    Some(crate::site::Pathology::EmptyPage) => {
                        return HttpResponse::ok("text/html", "");
                    }
                    None => {}
                }
                if let Some(canonical) = &spec.alias_of {
                    // §4 case (ii): the ranked entry redirects to the
                    // canonical corporate domain.
                    return HttpResponse::redirect(&Url::https(canonical.clone(), "/"));
                }
                let consented = Self::request_consented(req);
                let visitor_is_eu = req.vantage == topics_net::http::Vantage::Europe;
                let html =
                    render::render_page_for(spec, &self.registry, consented, visitor_is_eu, |i| {
                        self.minor_domain(i)
                    });
                HttpResponse::ok("text/html", html)
            }
            "/main.css" => HttpResponse::ok("text/css", "body { margin: 0 }"),
            "/hero.jpg" => HttpResponse::ok("image/jpeg", "\u{1}JPG"),
            _ => HttpResponse::not_found(),
        }
    }

    /// Serve an ad platform's paths.
    fn serve_party(&self, party: &AdPlatform, req: &HttpRequest) -> HttpResponse {
        match req.url.path() {
            "/tag.js" => HttpResponse::ok("text/javascript", party.tag_script()),
            "/frame" => HttpResponse::ok("text/html", party.frame_document()),
            "/afr" => HttpResponse::ok("text/html", "<html><div>ad</div></html>"),
            "/bid" => {
                // Ad servers read the Sec-Browsing-Topics request header
                // (the fetch-type call's payload) and use it to pick a
                // creative; the response marks the caller as observing.
                let topics = req
                    .headers
                    .get(topics_net::http::SEC_BROWSING_TOPICS)
                    .and_then(topics_net::http::parse_topics_header)
                    .filter(|h| !h.topics.is_empty());
                let body = match topics {
                    Some(h) => format!(
                        "{{\"ad\":\"personalised-creative\",\"topics_used\":true,\"topic_count\":{}}}",
                        h.topics.len()
                    ),
                    None => "{\"ad\":\"contextual-creative\",\"topics_used\":false}".to_owned(),
                };
                let mut r = HttpResponse::ok("application/json", body);
                r.headers.set(OBSERVE_BROWSING_TOPICS, "?1");
                r
            }
            "/px.gif" | "/p.gif" => HttpResponse::ok("image/gif", "GIF89a"),
            "/analytics.js" => HttpResponse::ok(
                "text/javascript",
                format!("# analytics\nimg https://{}/px.gif\n", party.domain),
            ),
            _ => HttpResponse::not_found(),
        }
    }

    /// Serve the attestation well-known file for a registrable domain.
    /// A file only exists from its issue date onwards — probing before a
    /// platform enrolled returns 404, which the longitudinal experiment
    /// relies on.
    fn serve_attestation(&self, reg: &str, now: Timestamp) -> HttpResponse {
        match self.party_by_domain.get(reg) {
            Some(&i) if self.registry[i].attested => {
                let p = &self.registry[i];
                let issued = Timestamp::from_days(p.enrolled_day);
                if now < issued {
                    return HttpResponse::not_found();
                }
                // Files re-issued after the October 2024 schema update
                // carry the `enrollment_site` field (§3).
                let with_site =
                    now.millis() / topics_net::clock::MILLIS_PER_DAY >= ENROLLMENT_SITE_UPDATE_DAY;
                let file = AttestationFile::for_topics(&p.domain, issued, with_site);
                HttpResponse::ok("application/json", file.to_json())
            }
            Some(&i) if self.registry[i].attestation_malformed => {
                // A half-finished enrolment: the URL answers, but with
                // JSON the validator must reject.
                HttpResponse::ok(
                    "application/json",
                    "{\"attestation_version\": \"not-a-number\", \"oops\": [",
                )
            }
            _ => HttpResponse::not_found(),
        }
    }
}

impl NetworkService for World {
    fn resolve_ranked(&self, domain: &Domain) -> Result<(), DnsError> {
        // Pinned real-world domains (distillery.com) always resolve: the
        // paper positively observed them, so the ≈13% random failure
        // model must not erase them.
        let reg = registrable_str(domain);
        if crate::site::special_domain_ranks()
            .iter()
            .any(|(_, d)| d.as_str() == reg)
        {
            return Ok(());
        }
        self.dns.resolve_ranked(domain)
    }

    fn resolve_third_party(&self, domain: &Domain) -> Result<(), DnsError> {
        self.dns.resolve_third_party(domain)
    }

    fn fetch(&self, req: &HttpRequest, now: Timestamp) -> Result<HttpResponse, NetError> {
        let host = req.url.host();
        let reg = registrable_str(host);
        let path = req.url.path();

        // Attestation probes work against any host.
        if path == ATTESTATION_PATH {
            return Ok(self.serve_attestation(reg, now));
        }

        // GTM containers.
        if host.as_str() == render::GTM_HOST {
            if path == "/gtm.js" {
                if let Some(gtm) = req
                    .url
                    .query()
                    .and_then(|q| q.strip_prefix("id=GTM-"))
                    .and_then(|id| id.parse::<usize>().ok())
                    .and_then(|rank| self.sites.get(rank))
                    .and_then(|s| s.gtm.as_ref())
                {
                    return Ok(HttpResponse::ok(
                        "text/javascript",
                        render::render_gtm_container(gtm),
                    ));
                }
            }
            return Ok(HttpResponse::not_found());
        }

        // The secondary analytics library.
        if host.as_str() == render::EXTRA_LIB_HOST {
            return Ok(match path {
                "/stats.js" => HttpResponse::ok("text/javascript", render::render_extra_lib()),
                "/c.gif" => HttpResponse::ok("image/gif", "GIF89a"),
                _ => HttpResponse::not_found(),
            });
        }

        // Sibling ad frames (ad.<label>.net).
        if let Some(&rank) = self.sibling_by_domain.get(reg) {
            if path == "/adframe" {
                if let Some(gtm) = self.sites[rank].gtm.as_ref() {
                    return Ok(HttpResponse::ok(
                        "text/html",
                        render::render_sibling_frame(&gtm.container_id),
                    ));
                }
            }
            return Ok(HttpResponse::not_found());
        }

        // Corporate parent frames.
        if let Some(&calls) = self.parent_calls.get(reg) {
            if path == "/pframe" {
                return Ok(HttpResponse::ok(
                    "text/html",
                    render::render_parent_frame(calls),
                ));
            }
            return Ok(HttpResponse::not_found());
        }

        // Ranked sites — checked before parties so that distillery.com's
        // page wins over its party paths, which are disjoint anyway.
        if let Some(&rank) = self.site_by_domain.get(reg) {
            let spec = &self.sites[rank];
            if let Some(&i) = self.party_by_domain.get(reg) {
                // A domain that is both a ranked site and a platform
                // (distillery.com): party paths take precedence for
                // non-page requests.
                if path != "/" && path != "/main.css" && path != "/hero.jpg" {
                    return Ok(self.serve_party(&self.registry[i], req));
                }
            }
            return Ok(self.serve_site(spec, req));
        }

        // Canonical domains of alias sites.
        if let Some(&rank) = self.canonical_by_domain.get(reg) {
            let spec = &self.sites[rank];
            if path == "/" {
                let consented = Self::request_consented(req);
                let visitor_is_eu = req.vantage == topics_net::http::Vantage::Europe;
                let html =
                    render::render_page_for(spec, &self.registry, consented, visitor_is_eu, |i| {
                        self.minor_domain(i)
                    });
                return Ok(HttpResponse::ok("text/html", html));
            }
            return Ok(match path {
                "/main.css" => HttpResponse::ok("text/css", "body { margin: 0 }"),
                "/hero.jpg" => HttpResponse::ok("image/jpeg", "\u{1}JPG"),
                _ => HttpResponse::not_found(),
            });
        }

        // Ad platforms.
        if let Some(&i) = self.party_by_domain.get(reg) {
            return Ok(self.serve_party(&self.registry[i], req));
        }

        // CMP loaders.
        if let Some(cmp) = crate::cmp::cmp_by_domain(host) {
            return Ok(match path {
                "/cmp.js" => HttpResponse::ok(
                    "text/javascript",
                    render::render_cmp_script(cmp.spec().domain),
                ),
                "/px.gif" => HttpResponse::ok("image/gif", "GIF89a"),
                _ => HttpResponse::not_found(),
            });
        }

        // Minor third parties (cdn-*): inert scripts and pixels.
        if reg.starts_with("cdn-") {
            return Ok(match path {
                "/lib.js" => HttpResponse::ok("text/javascript", render::render_minor_script(reg)),
                "/p.gif" | "/b.gif" => HttpResponse::ok("image/gif", "GIF89a"),
                _ => HttpResponse::not_found(),
            });
        }

        Ok(HttpResponse::not_found())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topics_net::http::{Method, ResourceKind, StatusCode};

    fn world(n: usize) -> World {
        World::generate(WorldConfig::scaled(31, n))
    }

    fn get(w: &World, url: &str) -> HttpResponse {
        let req = HttpRequest::get(Url::parse(url).unwrap(), ResourceKind::Document);
        w.fetch(&req, Timestamp::from_days(302)).unwrap()
    }

    fn get_consented(w: &World, url: &str) -> HttpResponse {
        let mut req = HttpRequest::get(Url::parse(url).unwrap(), ResourceKind::Document);
        req.headers.set("Cookie", "euconsent=granted");
        w.fetch(&req, Timestamp::from_days(302)).unwrap()
    }

    #[test]
    fn serves_site_pages() {
        let w = world(100);
        let first = &w.sites()[0];
        if first.alias_of.is_none() {
            let r = get(&w, &format!("https://{}/", first.domain));
            assert_eq!(r.status, StatusCode::Ok);
            assert!(r.body.contains("<html>"));
        }
        let r = get(&w, &format!("https://{}/main.css", first.domain));
        assert_eq!(r.status, StatusCode::Ok);
    }

    #[test]
    fn alias_sites_redirect_to_canonical_which_serves() {
        let w = world(3_000);
        let alias = w
            .sites()
            .iter()
            .find(|s| s.alias_of.is_some() && s.gtm.is_some())
            .expect("some alias site with GTM in 3k");
        let r = get(&w, &format!("https://{}/", alias.domain));
        assert!(r.status.is_redirect());
        let loc = r.location().unwrap().to_owned();
        assert!(loc.contains(alias.alias_of.as_ref().unwrap().as_str()));
        let r2 = get(&w, &loc);
        assert_eq!(r2.status, StatusCode::Ok);
        assert!(
            r2.body.contains("gtm.js"),
            "alias canonicals carry GTM+topics"
        );
    }

    #[test]
    fn gtm_container_served_per_site() {
        let w = world(2_000);
        let with_gtm = w
            .sites()
            .iter()
            .find(|s| s.gtm.as_ref().is_some_and(|g| g.has_topics_tag))
            .expect("some topics-tagged GTM site");
        let id = &with_gtm.gtm.as_ref().unwrap().container_id;
        let r = get(
            &w,
            &format!("https://www.googletagmanager.com/gtm.js?id={id}"),
        );
        assert_eq!(r.status, StatusCode::Ok);
        assert!(r.body.contains("topics js"));
        // Unknown container 404s.
        let r = get(&w, "https://www.googletagmanager.com/gtm.js?id=GTM-999999");
        assert_eq!(r.status, StatusCode::NotFound);
    }

    #[test]
    fn party_endpoints_serve() {
        let w = world(100);
        let r = get(&w, "https://static.doubleclick.net/tag.js");
        assert_eq!(r.status, StatusCode::Ok);
        assert!(r.body.contains("consent {"), "doubleclick gates on consent");
        let r = get(&w, "https://ads.criteo.com/frame");
        assert!(r.body.contains("topics js"));
        let r = get(&w, "https://doubleclick.net/bid");
        assert!(r.observes_topics());
    }

    #[test]
    fn attestation_files_follow_ground_truth() {
        let w = world(100);
        // An attested platform serves a valid file.
        let r = get(
            &w,
            "https://criteo.com/.well-known/privacy-sandbox-attestations.json",
        );
        assert_eq!(r.status, StatusCode::Ok);
        let file = AttestationFile::parse_and_validate(&r.body).unwrap();
        // During the crawl (before October 2024), no enrollment_site.
        assert!(file.enrollment_site.is_none());
        // A non-attested allowed platform either 404s or serves a file
        // the validator rejects — never a valid attestation.
        let mut saw_404 = false;
        let mut saw_malformed = false;
        for p in w.registry().iter().filter(|p| p.allowed && !p.attested) {
            let r = get(&w, &format!("https://{}{ATTESTATION_PATH}", p.domain));
            if r.status == StatusCode::NotFound {
                saw_404 = true;
            } else {
                assert!(
                    AttestationFile::parse_and_validate(&r.body).is_err(),
                    "{} served a VALID file while marked !attested",
                    p.domain
                );
                saw_malformed = true;
            }
        }
        assert!(saw_404, "some non-attested platforms 404");
        assert!(saw_malformed, "some serve malformed JSON");
        // distillery.com is attested despite not being allowed.
        let r = get(&w, &format!("https://distillery.com{ATTESTATION_PATH}"));
        assert_eq!(r.status, StatusCode::Ok);
        // Random sites 404.
        let site0 = w.sites()[0].domain.clone();
        if site0.as_str() != "distillery.com" {
            let r = get(&w, &format!("https://{site0}{ATTESTATION_PATH}"));
            assert_eq!(r.status, StatusCode::NotFound);
        }
    }

    #[test]
    fn attestation_files_gain_enrollment_site_after_october_2024() {
        let w = world(50);
        let req = HttpRequest::get(
            Url::parse("https://criteo.com/.well-known/privacy-sandbox-attestations.json").unwrap(),
            ResourceKind::WellKnown,
        );
        let late = Timestamp::from_days(ENROLLMENT_SITE_UPDATE_DAY + 1);
        let r = w.fetch(&req, late).unwrap();
        let file = AttestationFile::parse_and_validate(&r.body).unwrap();
        assert_eq!(file.enrollment_site.as_deref(), Some("https://criteo.com"));
    }

    #[test]
    fn consent_cookie_changes_the_page() {
        let w = world(4_000);
        let gating = w
            .sites()
            .iter()
            .find(|s| s.gates_pre_consent && !s.platforms.is_empty() && s.alias_of.is_none())
            .expect("a gating site with platforms");
        let before = get(&w, &format!("https://{}/", gating.domain));
        let after = get_consented(&w, &format!("https://{}/", gating.domain));
        let party = &w.registry()[gating.platforms[0].0].domain;
        assert!(!before.body.contains(party.as_str()));
        assert!(after.body.contains(party.as_str()));
        assert!(before.body.contains("consent-banner"));
        assert!(!after.body.contains("consent-banner"));
    }

    #[test]
    fn sibling_frames_serve_gtm_wrapper() {
        let w = world(6_000);
        let with_sibling = w
            .sites()
            .iter()
            .find(|s| s.sibling_frame.is_some())
            .expect("a sibling-frame site in 6k");
        let sib = with_sibling.sibling_frame.as_ref().unwrap();
        let id = &with_sibling.gtm.as_ref().unwrap().container_id;
        let r = get(&w, &format!("https://{sib}/adframe?id={id}"));
        assert_eq!(r.status, StatusCode::Ok);
        assert!(r.body.contains("gtm.js"));
    }

    #[test]
    fn minor_parties_and_cmps_serve() {
        let w = world(100);
        let minor = names::minor_party_domain(31, 5);
        let r = get(&w, &format!("https://{minor}/lib.js"));
        assert_eq!(r.status, StatusCode::Ok);
        let r = get(&w, "https://cdn.onetrust.com/cmp.js");
        assert_eq!(r.status, StatusCode::Ok);
        assert!(r.body.contains("cookie"));
    }

    #[test]
    fn pathological_sites_fail_in_their_own_way() {
        use crate::site::Pathology;
        let w = world(20_000);
        let mut seen = std::collections::BTreeSet::new();
        for spec in w.sites().iter().filter(|s| s.pathology.is_some()) {
            let r = get(&w, &format!("https://{}/", spec.domain));
            match spec.pathology.unwrap() {
                Pathology::RedirectLoop => {
                    assert!(r.status.is_redirect());
                    assert!(r.location().unwrap().contains(spec.domain.as_str()));
                }
                Pathology::ServerError => {
                    assert_eq!(r.status, StatusCode::InternalServerError);
                }
                Pathology::EmptyPage => {
                    assert_eq!(r.status, StatusCode::Ok);
                    assert!(r.body.is_empty());
                }
            }
            seen.insert(format!("{:?}", spec.pathology.unwrap()));
        }
        assert_eq!(seen.len(), 3, "all three pathologies occur in 20k sites");
    }

    #[test]
    fn bid_endpoint_reads_the_topics_header() {
        let w = world(10);
        let mut req = HttpRequest::get(
            Url::parse("https://doubleclick.net/bid").unwrap(),
            ResourceKind::Fetch,
        );
        let plain = w.fetch(&req, Timestamp::ORIGIN).unwrap();
        assert!(plain.body.contains("\"topics_used\":false"));
        req.headers.set(
            topics_net::http::SEC_BROWSING_TOPICS,
            "(123 45);v=chrome.1:2",
        );
        let personalised = w.fetch(&req, Timestamp::ORIGIN).unwrap();
        assert!(personalised.body.contains("\"topics_used\":true"));
        assert!(personalised.observes_topics());
    }

    #[test]
    fn unknown_hosts_404() {
        let w = world(10);
        let r = get(&w, "https://completely-unknown-host.zz/");
        assert_eq!(r.status, StatusCode::NotFound);
    }

    #[test]
    fn post_requests_to_bid_endpoints_work() {
        let w = world(10);
        let mut req = HttpRequest::post(
            Url::parse("https://doubleclick.net/bid").unwrap(),
            ResourceKind::Fetch,
            "{\"topics\":[1,2,3]}".to_owned(),
        );
        req.headers.set("Content-Type", "application/json");
        assert_eq!(req.method, Method::Post);
        let r = w.fetch(&req, Timestamp::ORIGIN).unwrap();
        assert_eq!(r.status, StatusCode::Ok);
    }

    #[test]
    fn tranco_list_has_requested_size_and_order() {
        let w = world(500);
        let list = w.tranco_list();
        assert_eq!(list.len(), 500);
        assert_eq!(list[0].host(), &w.sites()[0].domain);
    }

    #[test]
    fn allow_list_matches_registry() {
        let w = world(10);
        let allow = w.allow_list();
        assert_eq!(allow.len(), crate::parties::totals::ALLOWED);
        assert!(allow.iter().any(|d| d.as_str() == "doubleclick.net"));
        assert!(!allow.iter().any(|d| d.as_str() == "distillery.com"));
    }
}
