//! Public-suffix handling and registrable-domain (eTLD+1) computation.
//!
//! The Topics API identifies callers and sites by their *registrable
//! domain* (public suffix plus one label), and the paper's §4 analysis
//! compares second-level domains of calling party and visited site
//! (`www.foo.com` vs `ad.foo.net` → same party `foo`). We embed the subset
//! of the public-suffix list needed by the synthetic web: every plain TLD
//! we generate plus the multi-label suffixes in common use.

use crate::domain::Domain;

/// Multi-label public suffixes known to the simulation (a practical subset
/// of the PSL). Single-label TLDs need no table: any final label acts as a
/// suffix.
const MULTI_LABEL_SUFFIXES: &[&str] = &[
    // United Kingdom
    "co.uk", "org.uk", "ac.uk", "gov.uk", "net.uk", // Japan
    "co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp", // Brazil
    "com.br", "net.br", "org.br", "gov.br", // Australia
    "com.au", "net.au", "org.au", // India
    "co.in", "net.in", "org.in", // Russia (historic suffixes)
    "com.ru", "net.ru", "org.ru", // China
    "com.cn", "net.cn", "org.cn", // Mexico / Argentina
    "com.mx", "com.ar", // South Korea / Taiwan
    "co.kr", "or.kr", "com.tw", // Europe misc
    "com.pl", "net.pl", "com.gr", "com.pt", "com.ro", "co.at",
    // New Zealand / South Africa
    "co.nz", "co.za", // Turkey
    "com.tr",
];

/// Is `suffix` (e.g. `co.uk`) a known public suffix?
///
/// Any single label is treated as a public suffix; multi-label suffixes
/// must appear in the embedded table.
pub fn is_public_suffix(suffix: &str) -> bool {
    if suffix.is_empty() {
        return false;
    }
    let dots = suffix.bytes().filter(|&b| b == b'.').count();
    match dots {
        0 => true,
        1 => MULTI_LABEL_SUFFIXES.contains(&suffix),
        _ => false,
    }
}

/// The public suffix of a domain: the longest known suffix.
///
/// `www.example.co.uk` → `co.uk`; `www.example.com` → `com`.
pub fn public_suffix(domain: &Domain) -> &str {
    let host = domain.as_str();
    let bytes = host.as_bytes();
    let Some(last_dot) = bytes.iter().rposition(|&b| b == b'.') else {
        return host;
    };
    let tld = &host[last_dot + 1..];
    // Every multi-label suffix in the table ends in a two-letter country
    // code, so only such a host can have one; the rest skip the table.
    if tld.len() == 2 {
        let start = bytes[..last_dot]
            .iter()
            .rposition(|&b| b == b'.')
            .map_or(0, |i| i + 1);
        // With exactly two labels the whole host may be a bare suffix;
        // `registrable_str` then returns the host itself.
        let two = &host[start..];
        if MULTI_LABEL_SUFFIXES.contains(&two) {
            return two;
        }
    }
    tld
}

/// The registrable domain (eTLD+1) of a host, as a slice of the host.
///
/// The slice is label-aligned: it starts just after a `.` of the host, or
/// at its first byte when the host already is its own registrable domain
/// (or a bare public suffix). It allocates nothing, so callers that only
/// hash, compare or look the registrable domain up should use it;
/// [`registrable_domain`] is for callers that keep the result.
///
/// ```
/// use topics_net::domain::Domain;
/// use topics_net::psl::registrable_str;
///
/// let host = Domain::parse("ads.shop.example.co.uk").unwrap();
/// assert_eq!(registrable_str(&host), "example.co.uk");
/// ```
pub fn registrable_str(domain: &Domain) -> &str {
    let host = domain.as_str();
    let suffix_len = public_suffix(domain).len();
    if host.len() == suffix_len {
        return host;
    }
    let prefix = &host.as_bytes()[..host.len() - suffix_len - 1];
    let start = prefix.iter().rposition(|&b| b == b'.').map_or(0, |i| i + 1);
    &host[start..]
}

/// The registrable domain (eTLD+1) of a host, as an owned [`Domain`].
///
/// `a.b.example.co.uk` → `example.co.uk`; `www.example.com` → `example.com`.
///
/// ```
/// use topics_net::domain::Domain;
/// use topics_net::psl::registrable_domain;
///
/// let host = Domain::parse("ads.shop.example.co.uk").unwrap();
/// assert_eq!(registrable_domain(&host).as_str(), "example.co.uk");
/// ```
/// A host that already is its own registrable domain comes back as a
/// clone sharing its storage; otherwise the [`registrable_str`] slice is
/// copied once. If the host itself is a bare public suffix, it is
/// returned unchanged — the synthetic web never serves pages from bare
/// suffixes, and analysis treats such hosts as their own party.
pub fn registrable_domain(domain: &Domain) -> Domain {
    let reg = registrable_str(domain);
    if reg.len() == domain.as_str().len() {
        domain.clone()
    } else {
        Domain::from_label_suffix(reg)
    }
}

/// True when two hosts share the same *second-level label* even across
/// different suffixes — the paper's §4 notion of "the website and CP
/// second-level domains are the same, e.g. `www.foo.com` and `ad.foo.net`".
pub fn same_second_level_label(a: &Domain, b: &Domain) -> bool {
    second_level_label(a) == second_level_label(b)
}

/// The label immediately left of the public suffix (`foo` in
/// `www.foo.com`), or the whole host when it is a bare suffix.
pub fn second_level_label(domain: &Domain) -> &str {
    let host = domain.as_str();
    let suffix = public_suffix(domain);
    if host == suffix {
        return host;
    }
    let prefix = &host[..host.len() - suffix.len() - 1];
    prefix.rsplit('.').next().expect("non-empty prefix")
}

/// True when `a` and `b` have the same registrable domain.
pub fn same_site(a: &Domain, b: &Domain) -> bool {
    registrable_str(a) == registrable_str(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Domain {
        Domain::parse(s).unwrap()
    }

    #[test]
    fn simple_tld() {
        assert_eq!(public_suffix(&d("www.example.com")), "com");
        assert_eq!(
            registrable_domain(&d("www.example.com")).as_str(),
            "example.com"
        );
        assert_eq!(
            registrable_domain(&d("example.com")).as_str(),
            "example.com"
        );
    }

    #[test]
    fn multi_label_suffix() {
        assert_eq!(public_suffix(&d("www.example.co.uk")), "co.uk");
        assert_eq!(
            registrable_domain(&d("a.b.example.co.uk")).as_str(),
            "example.co.uk"
        );
    }

    #[test]
    fn bare_suffix_is_its_own_registrable() {
        assert_eq!(registrable_domain(&d("co.uk")).as_str(), "co.uk");
    }

    #[test]
    fn deep_subdomains() {
        assert_eq!(
            registrable_domain(&d("x.y.z.site.ne.jp")).as_str(),
            "site.ne.jp"
        );
        assert_eq!(registrable_domain(&d("x.y.z.site.ru")).as_str(), "site.ru");
    }

    #[test]
    fn second_level_cross_suffix_match() {
        // The paper's motivating example: www.foo.com vs ad.foo.net.
        assert!(same_second_level_label(&d("www.foo.com"), &d("ad.foo.net")));
        assert!(!same_second_level_label(
            &d("www.foo.com"),
            &d("www.bar.com")
        ));
        assert_eq!(second_level_label(&d("www.foo.co.uk")), "foo");
    }

    #[test]
    fn same_site_matches_registrable() {
        assert!(same_site(&d("a.foo.com"), &d("b.foo.com")));
        assert!(!same_site(&d("a.foo.com"), &d("foo.net")));
    }

    #[test]
    fn own_registrable_domain_shares_storage() {
        let host = d("example.com");
        let reg = registrable_domain(&host);
        assert!(std::ptr::eq(reg.as_str(), host.as_str()));
        assert_eq!(registrable_str(&d("www.example.com")), "example.com");
        assert_eq!(registrable_str(&d("co.uk")), "co.uk");
    }

    #[test]
    fn every_multi_label_suffix_ends_in_a_two_letter_label() {
        // `public_suffix` consults the table only for such hosts.
        for suffix in MULTI_LABEL_SUFFIXES {
            let (_, tld) = suffix.rsplit_once('.').expect("multi-label");
            assert_eq!(tld.len(), 2, "{suffix}");
            assert_eq!(public_suffix(&d(&format!("www.x.{suffix}"))), *suffix);
        }
    }

    #[test]
    fn is_public_suffix_cases() {
        assert!(is_public_suffix("com"));
        assert!(is_public_suffix("co.uk"));
        assert!(!is_public_suffix("example.com"));
        assert!(!is_public_suffix(""));
        assert!(!is_public_suffix("a.b.c"));
    }
}
