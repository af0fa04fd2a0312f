//! Property-based tests for the browser: the HTML parser, the TagScript
//! parser, and the Topics engine's privacy invariants.

use proptest::prelude::*;
use std::sync::Arc;
use topics_browser::html;
use topics_browser::origin::Site;
use topics_browser::script::{self, Stmt};
use topics_browser::topics::{TopicsEngine, EPOCH_WINDOW, TOP_N};
use topics_net::clock::Timestamp;
use topics_net::domain::Domain;
use topics_net::url::Url;
use topics_taxonomy::{Classifier, Taxonomy};

fn site(name: &str) -> Site {
    Site::of(&Url::parse(&format!("https://{name}/")).unwrap())
}

/// The HTML scanner as it was before it learned to work in place: it
/// lowercases a copy of the document (or of its rest) to find close tags
/// and nested opens, and owns every tag and attribute name. Kept only as
/// the slow reference that [`html::parse`] must agree with.
mod reference {
    use topics_browser::html::{Document, Node};

    struct Attr {
        name: String,
        value: String,
    }

    pub fn parse(html: &str) -> Document {
        let mut doc = Document::default();
        let bytes = html.as_bytes();
        let mut i = 0usize;
        while i < bytes.len() {
            if bytes[i] != b'<' {
                i += 1;
                continue;
            }
            if html[i..].starts_with("<!--") {
                i = html[i..]
                    .find("-->")
                    .map(|j| i + j + 3)
                    .unwrap_or(bytes.len());
                continue;
            }
            let Some((tag, attrs, self_closing, after)) = parse_tag(html, i) else {
                i += 1;
                continue;
            };
            i = after;
            match tag.as_str() {
                "script" => {
                    let src = attr(&attrs, "src");
                    let (inline, next) = if self_closing {
                        (String::new(), i)
                    } else {
                        read_raw_until_close(html, i, "script")
                    };
                    i = next;
                    doc.nodes.push(Node::Script {
                        src,
                        inline: inline.trim().to_owned(),
                    });
                }
                "iframe" => {
                    if let Some(src) = attr(&attrs, "src") {
                        let browsing_topics = attrs.iter().any(|a| a.name == "browsingtopics");
                        doc.nodes.push(Node::Iframe {
                            src,
                            browsing_topics,
                        });
                    }
                    if !self_closing {
                        let (_, next) = read_raw_until_close(html, i, "iframe");
                        i = next;
                    }
                }
                "img" => {
                    if let Some(src) = attr(&attrs, "src") {
                        doc.nodes.push(Node::Img { src });
                    }
                }
                "link" => {
                    let rel = attr(&attrs, "rel").unwrap_or_default();
                    if rel.eq_ignore_ascii_case("stylesheet") {
                        if let Some(href) = attr(&attrs, "href") {
                            doc.nodes.push(Node::Stylesheet { href });
                        }
                    }
                }
                "title" => {
                    let (text, next) = read_raw_until_close(html, i, "title");
                    i = next;
                    doc.title = Some(collapse_ws(&text));
                }
                "button" | "a" => {
                    let (raw, next) = read_nested_until_close(html, i, &tag);
                    i = next;
                    doc.nodes.push(Node::Clickable {
                        tag,
                        text: collapse_ws(&strip_tags(&raw)),
                        id: attr(&attrs, "id"),
                        classes: class_list(&attrs),
                    });
                }
                "div" => {
                    let (raw, _) = read_nested_until_close(html, i, "div");
                    doc.nodes.push(Node::Container {
                        classes: class_list(&attrs),
                        id: attr(&attrs, "id"),
                        text: collapse_ws(&strip_tags(&raw)),
                    });
                }
                _ => {}
            }
        }
        doc
    }

    fn parse_tag(html: &str, start: usize) -> Option<(String, Vec<Attr>, bool, usize)> {
        let bytes = html.as_bytes();
        let mut i = start + 1;
        if i >= bytes.len() {
            return None;
        }
        if bytes[i] == b'/' {
            let end = html[i..].find('>').map(|j| i + j + 1)?;
            return Some((String::new(), Vec::new(), true, end));
        }
        let name_start = i;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'!') {
            i += 1;
        }
        if i == name_start {
            return None;
        }
        let name = html[name_start..i].to_ascii_lowercase();
        let mut attrs = Vec::new();
        let mut self_closing = false;
        loop {
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i >= bytes.len() {
                return None;
            }
            if bytes[i] == b'>' {
                i += 1;
                break;
            }
            if bytes[i] == b'/' {
                self_closing = true;
                i += 1;
                continue;
            }
            let an_start = i;
            while i < bytes.len()
                && !bytes[i].is_ascii_whitespace()
                && bytes[i] != b'='
                && bytes[i] != b'>'
                && bytes[i] != b'/'
            {
                i += 1;
            }
            let an = html[an_start..i].to_ascii_lowercase();
            if an.is_empty() {
                i += 1;
                continue;
            }
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            let mut value = String::new();
            if i < bytes.len() && bytes[i] == b'=' {
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                    i += 1;
                }
                if i < bytes.len() && (bytes[i] == b'"' || bytes[i] == b'\'') {
                    let quote = bytes[i];
                    i += 1;
                    let v_start = i;
                    while i < bytes.len() && bytes[i] != quote {
                        i += 1;
                    }
                    value = html[v_start..i].to_owned();
                    i = (i + 1).min(bytes.len());
                } else {
                    let v_start = i;
                    while i < bytes.len() && !bytes[i].is_ascii_whitespace() && bytes[i] != b'>' {
                        i += 1;
                    }
                    value = html[v_start..i].to_owned();
                }
            }
            attrs.push(Attr { name: an, value });
        }
        Some((name, attrs, self_closing, i))
    }

    fn read_raw_until_close(html: &str, start: usize, tag: &str) -> (String, usize) {
        let close = format!("</{tag}");
        let lower = html[start..].to_ascii_lowercase();
        match lower.find(&close) {
            Some(j) => {
                let body = html[start..start + j].to_owned();
                let rest = &html[start + j..];
                let after = rest
                    .find('>')
                    .map(|k| start + j + k + 1)
                    .unwrap_or(html.len());
                (body, after)
            }
            None => (html[start..].to_owned(), html.len()),
        }
    }

    fn read_nested_until_close(html: &str, start: usize, tag: &str) -> (String, usize) {
        let open = format!("<{tag}");
        let close = format!("</{tag}");
        let lower = html.to_ascii_lowercase();
        let mut depth = 1usize;
        let mut i = start;
        while depth > 0 {
            let next_open = lower[i..].find(&open).map(|j| i + j);
            let next_close = lower[i..].find(&close).map(|j| i + j);
            match (next_open, next_close) {
                (Some(o), Some(c)) if o < c && is_tag_boundary(&lower, o + open.len()) => {
                    depth += 1;
                    i = o + open.len();
                }
                (_, Some(c)) => {
                    depth -= 1;
                    if depth == 0 {
                        let body = html[start..c].to_owned();
                        let after = lower[c..]
                            .find('>')
                            .map(|k| c + k + 1)
                            .unwrap_or(html.len());
                        return (body, after);
                    }
                    i = c + close.len();
                }
                _ => break,
            }
        }
        (html[start..].to_owned(), html.len())
    }

    fn is_tag_boundary(lower: &str, idx: usize) -> bool {
        match lower.as_bytes().get(idx) {
            Some(b) => b.is_ascii_whitespace() || *b == b'>' || *b == b'/',
            None => true,
        }
    }

    fn strip_tags(fragment: &str) -> String {
        let mut out = String::with_capacity(fragment.len());
        let mut in_tag = false;
        for ch in fragment.chars() {
            match ch {
                '<' => {
                    in_tag = true;
                    out.push(' ');
                }
                '>' => in_tag = false,
                c if !in_tag => out.push(c),
                _ => {}
            }
        }
        out
    }

    fn collapse_ws(s: &str) -> String {
        s.split_whitespace().collect::<Vec<_>>().join(" ")
    }

    fn attr(attrs: &[Attr], name: &str) -> Option<String> {
        attrs
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.value.clone())
    }

    fn class_list(attrs: &[Attr]) -> Vec<String> {
        attr(attrs, "class")
            .map(|c| c.split_whitespace().map(str::to_owned).collect())
            .unwrap_or_default()
    }
}

/// `html::parse` and the reference agree node for node and on the title.
fn assert_matches_reference(markup: &str) {
    let fast = html::parse(markup);
    let slow = reference::parse(markup);
    assert_eq!(fast.nodes, slow.nodes, "nodes of {markup:?}");
    assert_eq!(fast.title, slow.title, "title of {markup:?}");
}

/// Mixed-case markup fragments whose concatenations exercise every
/// branch of the scanner: case-folded tag and attribute names, spaced
/// close tags, nesting, near-miss names (`<divx>`, `<abbr>`), tags left
/// open and non-ASCII text and whitespace.
fn markup_fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("<DIV class='Banner cmp'>".to_owned()),
        Just("<div id=x>".to_owned()),
        Just("</div>".to_owned()),
        Just("</DIV >".to_owned()),
        Just("<divx>".to_owned()),
        Just("<Div/>".to_owned()),
        Just("<Script>".to_owned()),
        Just("<script SRC=\"https://a.example/s.js\">".to_owned()),
        Just("</Script >".to_owned()),
        Just("</SCRIPT>".to_owned()),
        Just("<IFRAME Src='https://f.example/x' BrowsingTopics>".to_owned()),
        Just("<iframe src=/f/>".to_owned()),
        Just("</iframe>".to_owned()),
        Just("<Button ID=ok Class='a b'>".to_owned()),
        Just("</BUTTON>".to_owned()),
        Just("<A href='#'>".to_owned()),
        Just("</a>".to_owned()),
        Just("<abbr>".to_owned()),
        Just("<TITLE>".to_owned()),
        Just("</Title>".to_owned()),
        Just("<img SRC=/p.gif>".to_owned()),
        Just("<LINK REL=StyleSheet HREF=/s.css>".to_owned()),
        Just("<!--".to_owned()),
        Just("-->".to_owned()),
        Just(" Accept\u{a0}all ".to_owned()),
        Just("Größe".to_owned()),
        "[a-zA-Z <>/='\"]{0,12}".prop_map(|s: String| s),
    ]
}

#[test]
fn html_parse_matches_the_reference_on_edge_cases() {
    for markup in [
        "<DIV class=x>upper</DIV><div>lower</div>",
        "<script>topics js</Script ><p>after</p>",
        "<SCRIPT>never closed",
        "<div class=outer><div class=inner>deep</div>tail</div><div>after</div>",
        "<div><divx>near miss</divx></div>",
        "<div><divx><div>skipped nest</div></div>tail</div>",
        "<div>unclosed <button>also unclosed",
        "<a href=x>link <abbr>inner</abbr></a><A>upper</A>",
        "<title> My \u{2003} Site </TITLE>",
        "<iframe src=/f browsingtopics /><IFRAME SRC=/g></Iframe>",
        "<img src=/a.png/><img src>",
        "<div>x</div",
        "<",
    ] {
        assert_matches_reference(markup);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn html_parse_matches_the_lowercase_copy_reference(
        parts in prop::collection::vec(markup_fragment(), 0..32)
    ) {
        assert_matches_reference(&parts.concat());
    }
}

proptest! {
    // ---- HTML parser --------------------------------------------------

    #[test]
    fn html_parse_never_panics(input in ".*") {
        let _ = html::parse(&input);
    }

    #[test]
    fn html_parse_never_panics_on_taggy_soup(
        parts in prop::collection::vec(
            prop_oneof![
                Just("<script>".to_owned()),
                Just("</script>".to_owned()),
                Just("<div class='x'>".to_owned()),
                Just("</div>".to_owned()),
                Just("<iframe src='https://a.example/f'>".to_owned()),
                Just("<button>".to_owned()),
                Just("<!--".to_owned()),
                Just("-->".to_owned()),
                "[a-zA-Z <>/='\"]{0,12}".prop_map(|s: String| s),
            ],
            0..24
        )
    ) {
        let soup = parts.concat();
        let _ = html::parse(&soup);
    }

    #[test]
    fn script_src_extraction_is_faithful(
        host in "[a-z]{2,10}", path in "[a-z]{1,10}"
    ) {
        let url = format!("https://{host}.example/{path}.js");
        let doc = html::parse(&format!(r#"<script src="{url}"></script>"#));
        prop_assert_eq!(doc.nodes.len(), 1);
        match &doc.nodes[0] {
            html::Node::Script { src, .. } => prop_assert_eq!(src.as_deref(), Some(url.as_str())),
            n => prop_assert!(false, "unexpected node {:?}", n),
        }
    }

    // ---- TagScript parser ----------------------------------------------

    #[test]
    fn script_errors_report_the_offending_line(
        before in prop::collection::vec(
            prop_oneof![
                Just("topics js".to_owned()),
                Just("".to_owned()),
                Just("   # a comment".to_owned()),
                Just("img https://cp.example/p.gif # trailing".to_owned()),
                Just("consent {\n  fetch https://cp.example/x\n}".to_owned()),
            ],
            0..8
        ),
        bad in prop_oneof![
            Just("bogus statement here".to_owned()),
            Just("topics js noobserve extra tokens".to_owned()),
            Just("ab 2 site {".to_owned()),
        ]
    ) {
        let mut src = String::new();
        for l in &before {
            src.push_str(l);
            src.push('\n');
        }
        let line = src.matches('\n').count() + 1;
        src.push_str(&bad);
        src.push_str("\ntopics js\n");
        let err = script::parse(&src).expect_err("the bad line fails");
        prop_assert_eq!(err.line, line, "{}", src);
        // An unclosed block names the line that opened it.
        let good = src.replacen(&bad, "topics js", 1);
        let opener = good.matches('\n').count() + 1;
        let err = script::parse(&format!("{good}consent {{\ntopics js"))
            .expect_err("the block never closes");
        prop_assert_eq!(err.line, opener);
        prop_assert_eq!(err.message.as_str(), "unclosed block");
    }

    #[test]
    fn script_parse_never_panics(input in ".*") {
        let _ = script::parse(&input);
    }

    #[test]
    fn generated_scripts_roundtrip(
        p in 0.0f64..=1.0,
        urls in prop::collection::vec("[a-z]{2,8}", 1..4)
    ) {
        // Build a script from known constructs; it must parse and the
        // statement count must match construction.
        let mut src = String::new();
        for u in &urls {
            src.push_str(&format!("fetch https://{u}.example/x\n"));
        }
        src.push_str(&format!("ab {p:.4} site {{\ntopics js\n}}\n"));
        src.push_str("consent {\ntopics fetch https://cp.example/bid\n}\n");
        let stmts = script::parse(&src).expect("constructed script parses");
        prop_assert_eq!(stmts.len(), urls.len() + 2);
        prop_assert_eq!(script::count_topics_statements(&stmts), 2);
        match &stmts[urls.len()] {
            Stmt::Ab { p: parsed, .. } => {
                prop_assert!((parsed - p).abs() < 1e-3, "p {} vs {}", parsed, p);
            }
            s => prop_assert!(false, "unexpected {:?}", s),
        }
    }

    // ---- Topics engine invariants ---------------------------------------

    #[test]
    fn answers_respect_all_privacy_invariants(
        profile_seed in any::<u64>(),
        visits_per_epoch in 1usize..25,
        call_epoch in 0u64..6
    ) {
        let taxonomy = Taxonomy::global();
        let classifier = Arc::new(Classifier::new(7).with_unclassifiable_rate(0.0));
        let caller = Domain::parse("adtech.example").unwrap();
        let mut engine = TopicsEngine::new(classifier, profile_seed, true);
        for epoch in 0..call_epoch {
            let t = Timestamp::from_weeks(epoch);
            for i in 0..visits_per_epoch {
                let s = site(&format!("hist{epoch}x{i}.com"));
                engine.record_visit(&s, t);
                engine.record_observation(&caller, &s, t);
            }
        }
        let now = Timestamp::from_weeks(call_epoch);
        let answer = engine
            .browsing_topics(&caller, &site("visited.com"), now)
            .expect("enabled engine always answers");
        // ≤ 3 topics, unique, valid ids, never sensitive, within the
        // 3-epoch window.
        prop_assert!(answer.topics.len() <= EPOCH_WINDOW as usize);
        let mut ids: Vec<_> = answer.topics.iter().map(|t| t.topic).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len(), before, "topics are unique");
        for t in &answer.topics {
            prop_assert!(taxonomy.get(t.topic).is_some());
            prop_assert!(t.topic != taxonomy.sensitive_root());
            prop_assert!(t.epoch < call_epoch);
            prop_assert!(call_epoch - t.epoch <= EPOCH_WINDOW);
        }
    }

    #[test]
    fn top5_always_has_five_unique_topics_when_any_history_exists(
        profile_seed in any::<u64>(),
        n_sites in 1usize..40
    ) {
        let classifier = Arc::new(Classifier::new(3).with_unclassifiable_rate(0.0));
        let mut engine = TopicsEngine::new(classifier, profile_seed, true);
        for i in 0..n_sites {
            engine.record_visit(&site(&format!("s{i}.com")), Timestamp::from_weeks(0));
        }
        let top = engine.top5(0);
        prop_assert_eq!(top.len(), TOP_N);
        let mut ids: Vec<_> = top.iter().map(|t| t.topic).collect();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len(), TOP_N);
    }

    #[test]
    fn noise_override_bounds_hold(p in -1.0f64..2.0) {
        let classifier = Arc::new(Classifier::new(3));
        let engine = TopicsEngine::new(classifier, 1, true).with_noise_probability(p);
        // Just constructing with an out-of-range p must clamp, and the
        // engine must still answer.
        let mut engine = engine;
        let a = engine.browsing_topics(
            &Domain::parse("x.example").unwrap(),
            &site("y.com"),
            Timestamp::from_weeks(4),
        );
        prop_assert!(a.is_some());
    }
}
