//! Property-based tests for the network substrate.

use proptest::prelude::*;
use topics_net::clock::Timestamp;
use topics_net::domain::Domain;
use topics_net::http::parse_topics_header;
use topics_net::psl::{
    is_public_suffix, public_suffix, registrable_domain, registrable_str, same_second_level_label,
    same_site,
};
use topics_net::region::Region;
use topics_net::seed;
use topics_net::url::Url;
use topics_net::wellknown::AttestationFile;

/// Strategy for syntactically valid hostnames (2–4 labels).
fn valid_domain() -> impl Strategy<Value = String> {
    let label = "[a-z][a-z0-9]{0,10}";
    prop::collection::vec(label.prop_map(|s: String| s), 2..=4).prop_map(|labels| labels.join("."))
}

/// Hosts built to stress the public-suffix scan: zero to three labels,
/// in mixed case, in front of a single-label suffix, a multi-label one
/// (`co.uk`) or a two-label name that is not a suffix. Zero labels give
/// bare suffixes and, for single-label suffixes, invalid hosts.
fn psl_host() -> impl Strategy<Value = String> {
    let suffix = prop_oneof![
        Just("com".to_owned()),
        Just("uk".to_owned()),
        Just("co.uk".to_owned()),
        Just("ne.jp".to_owned()),
        Just("com.br".to_owned()),
        Just("example.net".to_owned()),
        Just("CO.UK".to_owned()),
        // Short final labels around the two-letter boundary, after a
        // label that does or does not form a table suffix with them.
        (0..5usize, "[a-z0-9]{1,3}")
            .prop_map(|(i, tld)| format!("{}.{tld}", ["co", "com", "ne", "or", "xy"][i])),
    ];
    let labels = prop::collection::vec("[a-zA-Z0-9][a-zA-Z0-9-]{0,6}[a-zA-Z0-9]", 0..=3);
    (labels, suffix).prop_map(|(mut labels, suffix)| {
        labels.push(suffix);
        labels.join(".")
    })
}

/// The public suffix as computed before the two-letter shortcut: look
/// the last two labels up in the suffix table whatever the final label,
/// else take the final label.
fn public_suffix_reference(domain: &Domain) -> &str {
    let host = domain.as_str();
    let Some(idx) = host.rfind('.') else {
        return host;
    };
    let two = &host[host[..idx].rfind('.').map_or(0, |i| i + 1)..];
    if two.contains('.') && is_public_suffix(two) {
        two
    } else {
        &host[idx + 1..]
    }
}

/// The registrable domain as computed before [`registrable_str`]
/// existed: `format!` the label left of the suffix onto the suffix, then
/// validate the result again with [`Domain::parse`].
fn registrable_reference(domain: &Domain) -> Domain {
    let host = domain.as_str();
    let suffix = public_suffix_reference(domain);
    if host == suffix {
        return domain.clone();
    }
    let prefix = &host[..host.len() - suffix.len() - 1];
    let last_label = prefix.rsplit('.').next().expect("non-empty prefix");
    Domain::parse(&format!("{last_label}.{suffix}")).expect("labels recombine validly")
}

proptest! {
    #[test]
    fn registrable_fast_paths_match_the_reference(host in psl_host()) {
        let Ok(d) = Domain::parse(&host) else {
            // Only a bare single-label suffix is not a host.
            prop_assert!(!host.contains('.'));
            return;
        };
        prop_assert_eq!(public_suffix(&d), public_suffix_reference(&d));
        let reference = registrable_reference(&d);
        prop_assert_eq!(registrable_str(&d), reference.as_str());
        prop_assert_eq!(registrable_domain(&d), reference.clone());
        // The slice is label-aligned: the whole host, or what follows a dot.
        let host = d.as_str();
        let reg = registrable_str(&d);
        prop_assert!(reg.len() == host.len() || host.as_bytes()[host.len() - reg.len() - 1] == b'.');
        prop_assert!(host.ends_with(reg));
    }

    #[test]
    fn domain_parse_never_panics(input in ".*") {
        let _ = Domain::parse(&input);
    }

    #[test]
    fn valid_domains_roundtrip(host in valid_domain()) {
        let d = Domain::parse(&host).expect("generated hosts are valid");
        prop_assert_eq!(d.to_string(), host.clone());
        let re = Domain::parse(d.as_ref()).unwrap();
        prop_assert_eq!(re, d);
    }

    #[test]
    fn parse_is_case_insensitive(host in valid_domain()) {
        let upper = host.to_ascii_uppercase();
        prop_assert_eq!(
            Domain::parse(&host).unwrap(),
            Domain::parse(&upper).unwrap()
        );
    }

    #[test]
    fn registrable_domain_is_idempotent(host in valid_domain()) {
        let d = Domain::parse(&host).unwrap();
        let reg = registrable_domain(&d);
        prop_assert_eq!(registrable_domain(&reg), reg.clone());
        // The host is always a subdomain of (or equal to) its
        // registrable domain.
        prop_assert!(d.is_subdomain_of(&reg) || d == reg);
    }

    #[test]
    fn same_site_is_reflexive_and_symmetric(a in valid_domain(), b in valid_domain()) {
        let da = Domain::parse(&a).unwrap();
        let db = Domain::parse(&b).unwrap();
        prop_assert!(same_site(&da, &da));
        prop_assert_eq!(same_site(&da, &db), same_site(&db, &da));
        prop_assert_eq!(
            same_second_level_label(&da, &db),
            same_second_level_label(&db, &da)
        );
    }

    #[test]
    fn region_is_total_and_stable(host in valid_domain()) {
        let d = Domain::parse(&host).unwrap();
        let r = Region::of(&d);
        prop_assert_eq!(r, Region::of(&d));
        prop_assert!(Region::ALL.contains(&r));
    }

    #[test]
    fn url_fnv1a_equals_the_hash_of_its_text(
        host in valid_domain(),
        path in "(/[a-zA-Z0-9]{0,8}){1,3}",
        query in prop::option::of("[a-z0-9=&]{0,12}")
    ) {
        let text = match &query {
            Some(q) => format!("https://{host}{path}?{q}"),
            None => format!("https://{host}{path}"),
        };
        let url = Url::parse(&text).unwrap();
        prop_assert_eq!(url.fnv1a(), seed::fnv1a(url.to_string().as_bytes()));
    }

    #[test]
    fn url_parse_never_panics(input in ".*") {
        let _ = Url::parse(&input);
    }

    #[test]
    fn url_roundtrips_via_display(
        host in valid_domain(),
        path in "(/[a-z0-9]{1,8}){0,3}",
        query in prop::option::of("[a-z0-9=&]{1,12}")
    ) {
        let mut s = format!("https://{host}{}", if path.is_empty() { "/" } else { &path });
        if let Some(q) = &query {
            s.push('?');
            s.push_str(q);
        }
        let u = Url::parse(&s).expect("constructed URLs are valid");
        let re = Url::parse(&u.to_string()).unwrap();
        prop_assert_eq!(re, u);
    }

    #[test]
    fn url_display_then_parse_is_a_fixed_point(input in ".{0,80}") {
        // For any string that parses at all, display → parse → display
        // converges after one step (parsing is idempotent through the
        // canonical form).
        if let Ok(u) = Url::parse(&input) {
            let canonical = u.to_string();
            let re = Url::parse(&canonical).expect("canonical form reparses");
            prop_assert_eq!(&re, &u);
            prop_assert_eq!(re.to_string(), canonical);
        }
    }

    #[test]
    fn topics_header_parse_never_panics(input in ".*") {
        let _ = parse_topics_header(&input);
    }

    #[test]
    fn topics_header_roundtrips(
        topics in prop::collection::vec(any::<u16>(), 0..8),
        version in "[a-z]{1,8}\\.[0-9]{1,2}:[0-9]{1,2}"
    ) {
        // The header the browser would emit — `(1 2 3);v=chrome.1:2`,
        // with the empty list `();v=…` also legal.
        let ids = topics
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(" ");
        let value = format!("({ids});v={version}");
        let parsed = parse_topics_header(&value).expect("emitted headers parse");
        prop_assert_eq!(parsed.topics, topics);
        prop_assert_eq!(parsed.version, version);
    }

    #[test]
    fn attestation_parse_is_total_over_truncations(
        host in valid_domain(),
        days in 0u64..1000,
        with_site in any::<bool>(),
        cut in any::<u16>()
    ) {
        // The fault layer serves truncated attestation bodies; the
        // parser must reject them with an error, never a panic, and the
        // full body must keep round-tripping.
        let d = Domain::parse(&host).unwrap();
        let file = AttestationFile::for_topics(&d, Timestamp::from_days(days), with_site);
        let json = file.to_json();
        prop_assert_eq!(
            AttestationFile::parse_and_validate(&json).as_ref(),
            Ok(&file)
        );
        prop_assert!(json.is_ascii(), "any byte offset is a char boundary");
        let cut = usize::from(cut) % (json.len() + 1);
        let _ = AttestationFile::parse_and_validate(&json[..cut]);
        let _ = AttestationFile::parse_and_validate(&json[cut..]);
    }

    #[test]
    fn url_join_of_rooted_paths_keeps_host(
        host in valid_domain(),
        path in "/[a-z0-9]{1,10}"
    ) {
        let base = Url::parse(&format!("https://{host}/")).unwrap();
        let joined = base.join(&path).unwrap();
        prop_assert_eq!(joined.host(), base.host());
        prop_assert_eq!(joined.path(), path.as_str());
    }

    #[test]
    fn derive_is_deterministic_and_label_sensitive(
        parent in any::<u64>(),
        label_a in "[a-z]{1,12}",
        label_b in "[a-z]{1,12}"
    ) {
        prop_assert_eq!(seed::derive(parent, &label_a), seed::derive(parent, &label_a));
        if label_a != label_b {
            prop_assert_ne!(seed::derive(parent, &label_a), seed::derive(parent, &label_b));
        }
    }

    #[test]
    fn unit_f64_stays_in_range(s in any::<u64>()) {
        let x = seed::unit_f64(s);
        prop_assert!((0.0..1.0).contains(&x));
    }

    #[test]
    fn timestamps_produce_valid_civil_dates(ms in 0u64..(400 * 7 * 86_400_000)) {
        let (y, m, d) = Timestamp(ms).to_date();
        prop_assert!((2023..=2031).contains(&y));
        prop_assert!((1..=12).contains(&m));
        prop_assert!((1..=31).contains(&d));
        // Formatting is total.
        let text = Timestamp(ms).to_string();
        prop_assert!(text.ends_with('Z'));
    }

    #[test]
    fn epoch_is_monotone(a in any::<u32>(), b in any::<u32>()) {
        let (a, b) = (u64::from(a), u64::from(b));
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(Timestamp(lo).epoch() <= Timestamp(hi).epoch());
    }
}
