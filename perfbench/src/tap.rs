//! A transparent decorator around the synthetic web's
//! `NetworkService`/`CrawlTarget` for the traced crawl.
//!
//! Every call is delegated unchanged; the decorator only records a
//! span around it, counts it, and samples response bodies for the
//! parse replays. Page loads are derived from outside: a page-load
//! span runs from one `resolve_ranked` call on a worker thread to the
//! next one on the same thread (the last one ends at the thread's last
//! exchange). Attestation probes (well-known fetches) have no page
//! load and attach to the campaign span.

use crate::spans;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use topics_core::crawler::CrawlTarget;
use topics_core::net::clock::Timestamp;
use topics_core::net::dns::DnsError;
use topics_core::net::domain::Domain;
use topics_core::net::error::NetError;
use topics_core::net::http::{HttpRequest, HttpResponse, ResourceKind};
use topics_core::net::service::NetworkService;
use topics_core::net::url::Url;

pub const RESOLVE_RANKED: &str = "net.resolve_ranked";
pub const RESOLVE_THIRD_PARTY: &str = "net.resolve_third_party";
pub const FETCH: &str = "net.fetch";
pub const PROBE_FETCH: &str = "net.probe_fetch";
pub const PAGE_LOAD: &str = "crawler.page_load";

/// Keep every `SAMPLE_EVERY`-th body of a kind, up to `SAMPLE_CAP`.
const SAMPLE_EVERY: u64 = 8;
const SAMPLE_CAP: usize = 1_500;

/// Counters the spans alone cannot carry.
#[derive(Debug, Default)]
pub struct TapCounts {
    pub body_bytes: AtomicU64,
    pub fetch_errors: AtomicU64,
    pub resolve_failures: AtomicU64,
    html_seen: AtomicU64,
    script_seen: AtomicU64,
}

/// Response bodies sampled by content type, for the parse replays.
#[derive(Debug, Default)]
pub struct Samples {
    pub html: Vec<String>,
    pub scripts: Vec<String>,
}

pub struct Tap<'w, W: CrawlTarget> {
    inner: &'w W,
    pub counts: TapCounts,
    samples: Mutex<Samples>,
}

impl<'w, W: CrawlTarget> Tap<'w, W> {
    pub fn new(inner: &'w W) -> Self {
        Tap {
            inner,
            counts: TapCounts::default(),
            samples: Mutex::new(Samples::default()),
        }
    }

    pub fn take_samples(&self) -> Samples {
        std::mem::take(&mut *self.samples.lock().expect("samples lock"))
    }

    fn sample(&self, response: &HttpResponse) {
        let ct = response.content_type().unwrap_or("");
        let (seen, html) = if ct.starts_with("text/html") {
            (&self.counts.html_seen, true)
        } else if ct.contains("javascript") {
            (&self.counts.script_seen, false)
        } else {
            return;
        };
        if seen.fetch_add(1, Relaxed) % SAMPLE_EVERY != 0 {
            return;
        }
        let mut s = self.samples.lock().expect("samples lock");
        let bucket = if html { &mut s.html } else { &mut s.scripts };
        if bucket.len() < SAMPLE_CAP {
            bucket.push(response.body.clone());
        }
    }
}

/// Record a leaf span `name` over `start..now` under `parent`, or under
/// the thread's open page load when `parent` is `None`.
fn leaf(name: &'static str, parent: Option<u64>, start_ns: u64) {
    let end = spans::now_ns();
    spans::with_thread(|t| {
        let parent = parent
            .or_else(|| t.chain.as_ref().map(spans::Open::id))
            .unwrap_or_else(spans::parent);
        let open = spans::open_at(name, parent, start_ns);
        t.finish(open, end);
    });
}

impl<W: CrawlTarget> NetworkService for Tap<'_, W> {
    fn resolve_ranked(&self, domain: &Domain) -> Result<(), DnsError> {
        let start = spans::now_ns();
        let page = spans::with_thread(|t| {
            if let Some(prev) = t.chain.take() {
                t.finish(prev, start);
            }
            let open = spans::open_at(PAGE_LOAD, spans::parent(), start);
            let id = open.id();
            t.chain = Some(open);
            id
        });
        let out = self.inner.resolve_ranked(domain);
        if out.is_err() {
            self.counts.resolve_failures.fetch_add(1, Relaxed);
        }
        leaf(RESOLVE_RANKED, Some(page), start);
        out
    }

    fn resolve_third_party(&self, domain: &Domain) -> Result<(), DnsError> {
        let start = spans::now_ns();
        let out = self.inner.resolve_third_party(domain);
        if out.is_err() {
            self.counts.resolve_failures.fetch_add(1, Relaxed);
        }
        leaf(RESOLVE_THIRD_PARTY, None, start);
        out
    }

    fn fetch(&self, request: &HttpRequest, now: Timestamp) -> Result<HttpResponse, NetError> {
        let start = spans::now_ns();
        let out = self.inner.fetch(request, now);
        if request.kind == ResourceKind::WellKnown {
            leaf(PROBE_FETCH, Some(spans::parent()), start);
        } else {
            leaf(FETCH, None, start);
        }
        match &out {
            Ok(response) => {
                self.counts
                    .body_bytes
                    .fetch_add(response.body.len() as u64, Relaxed);
                self.sample(response);
            }
            Err(_) => {
                self.counts.fetch_errors.fetch_add(1, Relaxed);
            }
        }
        out
    }
}

impl<W: CrawlTarget> CrawlTarget for Tap<'_, W> {
    fn targets(&self) -> Vec<Url> {
        self.inner.targets()
    }
    fn allow_list_snapshot(&self) -> Vec<Domain> {
        self.inner.allow_list_snapshot()
    }
    fn campaign_seed(&self) -> u64 {
        self.inner.campaign_seed()
    }
    fn probe_cache_key(&self) -> Option<u64> {
        self.inner.probe_cache_key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topics_core::crawler::columnar::ColumnarCampaign;
    use topics_core::crawler::run_campaign;
    use topics_core::webgen::World;
    use topics_core::LabConfig;

    /// Crawl a small world through the decorator at `threads`; returns
    /// the campaign digest and the per-name span counts.
    fn tapped(world: &World, threads: usize) -> (Vec<u8>, Vec<(&'static str, usize)>, u64) {
        let campaign = LabConfig::quick(7, 300).with_threads(threads).campaign;
        let tap = Tap::new(world);
        spans::begin();
        let root = spans::open("root", 0);
        spans::set_parent(root.id());
        let outcome = run_campaign(&tap, &campaign);
        root.close();
        let spans = spans::drain();
        let counts = [
            RESOLVE_RANKED,
            RESOLVE_THIRD_PARTY,
            FETCH,
            PROBE_FETCH,
            PAGE_LOAD,
        ]
        .map(|n| (n, spans.iter().filter(|s| s.name == n).count()))
        .to_vec();
        let bytes = ColumnarCampaign::from_outcome(&outcome).bytes().to_vec();
        (bytes, counts, tap.counts.body_bytes.load(Relaxed))
    }

    #[test]
    fn decorator_is_transparent_and_its_counts_repeat_across_threads() {
        let _lock = spans::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let world = World::generate(LabConfig::quick(7, 300).world);
        let plain = run_campaign(&world, &LabConfig::quick(7, 300).with_threads(2).campaign);
        let plain = ColumnarCampaign::from_outcome(&plain).bytes().to_vec();
        let (two, counts_two, body_two) = tapped(&world, 2);
        let (one, counts_one, body_one) = tapped(&world, 1);
        assert!(two == plain, "the decorator changed the campaign");
        assert!(one == plain, "thread count changed the campaign");
        assert_eq!(counts_two, counts_one);
        assert_eq!(body_two, body_one);
        let loads = counts_two.iter().find(|(n, _)| *n == PAGE_LOAD).unwrap().1;
        assert!(loads >= 300, "one page load per site at least, got {loads}");
        // Every page load opened with a ranked resolve.
        assert_eq!(counts_two[0].1, loads);
    }
}
