//! A tolerant HTML parser for the subset of markup the simulated web
//! serves and the crawler inspects.
//!
//! The measurement pipeline needs four things from a page:
//!
//! 1. the `<script>` tags (external `src` or inline body) — these drive
//!    tag execution and the §4 root-context semantics;
//! 2. the `<iframe>` tags, including the `browsingtopics` attribute that
//!    triggers the iframe-type Topics call;
//! 3. passive subresources (`<img>`, `<link rel=stylesheet>`) so the
//!    crawler can record "the URL of each first- and third-party object
//!    downloaded to render the page" (§2.2);
//! 4. visible clickable text (`<button>`, `<a>`, and container `<div>`s)
//!    for Priv-Accept's consent-banner detection.
//!
//! The parser is a forgiving single-pass tokenizer: unknown tags are
//! skipped, attributes may be quoted or bare, and malformed markup
//! degrades to text rather than failing. It scans the page in place:
//! tag and attribute names are borrowed slices matched
//! ASCII-case-insensitively, so the only strings it allocates are the
//! ones a [`Node`] keeps.

/// A parsed node of interest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// `<script src=…>` or `<script>inline</script>`.
    Script {
        /// External source URL, if any.
        src: Option<String>,
        /// Inline body (empty for external scripts).
        inline: String,
    },
    /// `<iframe src=…>`.
    Iframe {
        /// Frame document URL.
        src: String,
        /// True when the `browsingtopics` attribute is present — the
        /// iframe-type Topics API call.
        browsing_topics: bool,
    },
    /// `<img src=…>`.
    Img {
        /// Image URL.
        src: String,
    },
    /// `<link rel=stylesheet href=…>`.
    Stylesheet {
        /// Stylesheet URL.
        href: String,
    },
    /// A text-bearing element relevant to banner detection.
    Clickable {
        /// `button` or `a`.
        tag: String,
        /// Inner text with tags stripped, whitespace collapsed.
        text: String,
        /// `id` attribute, if present.
        id: Option<String>,
        /// `class` attribute tokens.
        classes: Vec<String>,
    },
    /// A `<div>` with its class list and flattened inner text (used to
    /// find banner containers).
    Container {
        /// `class` attribute tokens.
        classes: Vec<String>,
        /// `id` attribute, if present.
        id: Option<String>,
        /// Flattened text of the subtree.
        text: String,
    },
}

/// A parsed document.
#[derive(Debug, Clone, Default)]
pub struct Document {
    /// Nodes in document order.
    pub nodes: Vec<Node>,
    /// `<title>` text, if present.
    pub title: Option<String>,
}

impl Document {
    /// All script nodes in order.
    pub fn scripts(&self) -> impl Iterator<Item = &Node> {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Script { .. }))
    }

    /// All clickable (button/anchor) nodes.
    pub fn clickables(&self) -> impl Iterator<Item = &Node> {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Clickable { .. }))
    }
}

/// Parse a page. Never fails: unparsable input yields fewer nodes.
///
/// ```
/// use topics_browser::html::{parse, Node};
///
/// let doc = parse(r#"<script src="https://cdn.example/a.js"></script>"#);
/// assert!(matches!(&doc.nodes[0], Node::Script { src: Some(_), .. }));
/// ```
pub fn parse(html: &str) -> Document {
    let mut doc = Document::default();
    let bytes = html.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'<' {
            i += 1;
            continue;
        }
        // Comment?
        if html[i..].starts_with("<!--") {
            i = html[i..]
                .find("-->")
                .map(|j| i + j + 3)
                .unwrap_or(bytes.len());
            continue;
        }
        let Some(tag) = parse_tag(html, i) else {
            i += 1;
            continue;
        };
        i = tag.after;
        let name = tag.name;
        if name.eq_ignore_ascii_case("script") {
            let inline = if tag.self_closing {
                ""
            } else {
                let (body, next) = read_raw_until_close(html, i, "script");
                i = next;
                body
            };
            doc.nodes.push(Node::Script {
                src: tag.attr("src").map(str::to_owned),
                inline: inline.trim().to_owned(),
            });
        } else if name.eq_ignore_ascii_case("iframe") {
            if let Some(src) = tag.attr("src") {
                doc.nodes.push(Node::Iframe {
                    src: src.to_owned(),
                    browsing_topics: tag.attr("browsingtopics").is_some(),
                });
            }
            if !tag.self_closing {
                i = read_raw_until_close(html, i, "iframe").1;
            }
        } else if name.eq_ignore_ascii_case("img") {
            if let Some(src) = tag.attr("src") {
                doc.nodes.push(Node::Img {
                    src: src.to_owned(),
                });
            }
        } else if name.eq_ignore_ascii_case("link") {
            let rel = tag.attr("rel").unwrap_or_default();
            if rel.eq_ignore_ascii_case("stylesheet") {
                if let Some(href) = tag.attr("href") {
                    doc.nodes.push(Node::Stylesheet {
                        href: href.to_owned(),
                    });
                }
            }
        } else if name.eq_ignore_ascii_case("title") {
            let (text, next) = read_raw_until_close(html, i, "title");
            i = next;
            doc.title = Some(collapse_ws(|| text.chars()));
        } else if let Some(clickable) = ["button", "a"]
            .into_iter()
            .find(|c| name.eq_ignore_ascii_case(c))
        {
            let (raw, next) = read_nested_until_close(html, i, clickable);
            i = next;
            doc.nodes.push(Node::Clickable {
                tag: clickable.to_owned(),
                text: collapse_ws(|| visible_chars(raw)),
                id: tag.attr("id").map(str::to_owned),
                classes: class_list(&tag),
            });
        } else if name.eq_ignore_ascii_case("div") {
            // Do NOT advance past the div body: nested clickables and
            // scripts inside it must also be parsed as top-level nodes.
            let (raw, _) = read_nested_until_close(html, i, "div");
            doc.nodes.push(Node::Container {
                classes: class_list(&tag),
                id: tag.attr("id").map(str::to_owned),
                text: collapse_ws(|| visible_chars(raw)),
            });
        }
    }
    doc
}

/// An opening (or closing) tag, borrowed from the page.
struct Tag<'a> {
    html: &'a str,
    /// The tag name as written; empty for a closing tag.
    name: &'a str,
    /// Where the attribute list starts.
    attrs_at: usize,
    self_closing: bool,
    /// Index just after the tag's `>`.
    after: usize,
}

impl<'a> Tag<'a> {
    /// The value of the first attribute called `name` (lowercase),
    /// matched ASCII-case-insensitively; empty for a boolean attribute.
    fn attr(&self, name: &str) -> Option<&'a str> {
        let mut i = self.attrs_at;
        let mut self_closing = false;
        while let AttrStep::Attr(n, v) = attr_step(self.html, &mut i, &mut self_closing) {
            if n.eq_ignore_ascii_case(name) {
                return Some(v);
            }
        }
        None
    }
}

/// One step of the attribute scanner.
enum AttrStep<'a> {
    /// An attribute: `(name, value)`.
    Attr(&'a str, &'a str),
    /// The tag's closing `>`, with the index after it.
    End(usize),
    /// The input ended inside the tag.
    Unterminated,
}

/// Scan from `*i` to the next attribute or to the end of the tag,
/// noting a `/` on the way in `self_closing`.
fn attr_step<'a>(html: &'a str, i: &mut usize, self_closing: &mut bool) -> AttrStep<'a> {
    let bytes = html.as_bytes();
    loop {
        while *i < bytes.len() && bytes[*i].is_ascii_whitespace() {
            *i += 1;
        }
        if *i >= bytes.len() {
            return AttrStep::Unterminated;
        }
        if bytes[*i] == b'>' {
            *i += 1;
            return AttrStep::End(*i);
        }
        if bytes[*i] == b'/' {
            *self_closing = true;
            *i += 1;
            continue;
        }
        // Attribute name.
        let an_start = *i;
        while *i < bytes.len()
            && !bytes[*i].is_ascii_whitespace()
            && bytes[*i] != b'='
            && bytes[*i] != b'>'
            && bytes[*i] != b'/'
        {
            *i += 1;
        }
        let name = &html[an_start..*i];
        if name.is_empty() {
            *i += 1;
            continue;
        }
        while *i < bytes.len() && bytes[*i].is_ascii_whitespace() {
            *i += 1;
        }
        let mut value = "";
        if *i < bytes.len() && bytes[*i] == b'=' {
            *i += 1;
            while *i < bytes.len() && bytes[*i].is_ascii_whitespace() {
                *i += 1;
            }
            if *i < bytes.len() && (bytes[*i] == b'"' || bytes[*i] == b'\'') {
                let quote = bytes[*i];
                *i += 1;
                let v_start = *i;
                while *i < bytes.len() && bytes[*i] != quote {
                    *i += 1;
                }
                value = &html[v_start..*i];
                *i = (*i + 1).min(bytes.len());
            } else {
                let v_start = *i;
                while *i < bytes.len() && !bytes[*i].is_ascii_whitespace() && bytes[*i] != b'>' {
                    *i += 1;
                }
                value = &html[v_start..*i];
            }
        }
        return AttrStep::Attr(name, value);
    }
}

/// Parse `<tag attr=… >` starting at `start` (which points at `<`).
/// `None` when there is no tag name or the tag never ends.
fn parse_tag(html: &str, start: usize) -> Option<Tag<'_>> {
    let bytes = html.as_bytes();
    let mut i = start + 1;
    if i >= bytes.len() {
        return None;
    }
    if bytes[i] == b'/' {
        // Closing tag: skip to '>'.
        let after = html[i..].find('>').map(|j| i + j + 1)?;
        return Some(Tag {
            html,
            name: "",
            attrs_at: after,
            self_closing: true,
            after,
        });
    }
    let name_start = i;
    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'!') {
        i += 1;
    }
    if i == name_start {
        return None;
    }
    let attrs_at = i;
    let mut self_closing = false;
    let after = loop {
        match attr_step(html, &mut i, &mut self_closing) {
            AttrStep::Attr(..) => {}
            AttrStep::End(after) => break after,
            AttrStep::Unterminated => return None,
        }
    };
    Some(Tag {
        html,
        name: &html[name_start..attrs_at],
        attrs_at,
        self_closing,
        after,
    })
}

/// True when `haystack` starts with the lowercase ASCII `needle`,
/// ignoring ASCII case.
fn starts_with_ci(haystack: &[u8], needle: &str) -> bool {
    haystack.len() >= needle.len()
        && haystack[..needle.len()].eq_ignore_ascii_case(needle.as_bytes())
}

/// The first `</tag` at or after `from` — or, with `opens`, the first
/// `<tag` or `</tag`, whichever comes first — matching the lowercase
/// `tag` ASCII-case-insensitively. Returns the index of its `<` and
/// whether it closes.
fn find_tag_mark(html: &str, from: usize, tag: &str, opens: bool) -> Option<(usize, bool)> {
    let bytes = html.as_bytes();
    let mut at = from;
    while let Some(j) = html[at..].find('<') {
        let lt = at + j;
        let rest = &bytes[lt + 1..];
        if rest.first() == Some(&b'/') && starts_with_ci(&rest[1..], tag) {
            return Some((lt, true));
        }
        if opens && starts_with_ci(rest, tag) {
            return Some((lt, false));
        }
        at = lt + 1;
    }
    None
}

/// Raw text from `start` to the first `</tag`, returning (text, index
/// after the close tag's `>`). Used for script/title bodies where markup
/// inside is not interpreted.
fn read_raw_until_close<'a>(html: &'a str, start: usize, tag: &str) -> (&'a str, usize) {
    match find_tag_mark(html, start, tag, false) {
        Some((c, _)) => (&html[start..c], after_gt(html, c)),
        None => (&html[start..], html.len()),
    }
}

/// Like [`read_raw_until_close`] but respects nesting of the same tag
/// (needed for `<div>` inside `<div>`). An open such as `<divx` that does
/// not end the tag name is not nesting: the next close ends it.
fn read_nested_until_close<'a>(html: &'a str, start: usize, tag: &str) -> (&'a str, usize) {
    let mut depth = 1usize;
    let mut i = start;
    loop {
        let close = match find_tag_mark(html, i, tag, true) {
            Some((o, false)) if is_tag_boundary(html, o + 1 + tag.len()) => {
                depth += 1;
                i = o + 1 + tag.len();
                continue;
            }
            Some((o, false)) => find_tag_mark(html, o + 1, tag, false).map(|(c, _)| c),
            Some((c, true)) => Some(c),
            None => None,
        };
        let Some(c) = close else {
            return (&html[start..], html.len());
        };
        depth -= 1;
        if depth == 0 {
            return (&html[start..c], after_gt(html, c));
        }
        i = c + 2 + tag.len();
    }
}

/// The index after the first `>` at or after `from`, or the end.
fn after_gt(html: &str, from: usize) -> usize {
    html[from..]
        .find('>')
        .map(|k| from + k + 1)
        .unwrap_or(html.len())
}

/// True when the character at `idx` terminates a tag name (so `<divx`
/// does not count as `<div`).
fn is_tag_boundary(html: &str, idx: usize) -> bool {
    match html.as_bytes().get(idx) {
        Some(b) => b.is_ascii_whitespace() || *b == b'>' || *b == b'/',
        None => true,
    }
}

/// The characters of a fragment with its tags removed; each `<` reads as
/// a space.
fn visible_chars(fragment: &str) -> impl Iterator<Item = char> + '_ {
    let mut in_tag = false;
    fragment.chars().filter_map(move |ch| match ch {
        '<' => {
            in_tag = true;
            Some(' ')
        }
        '>' => {
            in_tag = false;
            None
        }
        c if !in_tag => Some(c),
        _ => None,
    })
}

/// Collapse runs of whitespace to single spaces and trim. `chars` is
/// walked twice, to size the result exactly and then to fill it.
fn collapse_ws<I: Iterator<Item = char>>(chars: impl Fn() -> I) -> String {
    fn each(chars: impl Iterator<Item = char>, mut emit: impl FnMut(char)) {
        let mut gap = false;
        let mut started = false;
        for c in chars {
            if c.is_whitespace() {
                gap = true;
                continue;
            }
            if gap && started {
                emit(' ');
            }
            gap = false;
            started = true;
            emit(c);
        }
    }
    let mut len = 0;
    each(chars(), |c| len += c.len_utf8());
    let mut out = String::with_capacity(len);
    each(chars(), |c| out.push(c));
    out
}

/// Split the `class` attribute into tokens.
fn class_list(tag: &Tag<'_>) -> Vec<String> {
    tag.attr("class")
        .map(|c| c.split_whitespace().map(str::to_owned).collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn external_and_inline_scripts() {
        let doc = parse(
            r#"<html><head>
            <script src="https://cdn.example.com/lib.js"></script>
            <script>topics js</script>
            </head></html>"#,
        );
        let scripts: Vec<_> = doc.scripts().collect();
        assert_eq!(scripts.len(), 2);
        match scripts[0] {
            Node::Script { src, inline, .. } => {
                assert_eq!(src.as_deref(), Some("https://cdn.example.com/lib.js"));
                assert!(inline.is_empty());
            }
            _ => unreachable!(),
        }
        match scripts[1] {
            Node::Script { src, inline, .. } => {
                assert!(src.is_none());
                assert_eq!(inline, "topics js");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn iframe_with_browsingtopics_attribute() {
        let doc = parse(
            r#"<iframe src="https://ad.example/frame" browsingtopics></iframe>
               <iframe src="https://other.example/f2"></iframe>"#,
        );
        let frames: Vec<_> = doc
            .nodes
            .iter()
            .filter_map(|n| match n {
                Node::Iframe {
                    src,
                    browsing_topics,
                    ..
                } => Some((src.clone(), *browsing_topics)),
                _ => None,
            })
            .collect();
        assert_eq!(
            frames,
            vec![
                ("https://ad.example/frame".to_owned(), true),
                ("https://other.example/f2".to_owned(), false)
            ]
        );
    }

    #[test]
    fn images_and_stylesheets() {
        let doc = parse(
            r#"<img src="https://px.example/p.gif">
               <link rel="stylesheet" href="/style.css">
               <link rel="icon" href="/favicon.ico">"#,
        );
        assert!(doc.nodes.contains(&Node::Img {
            src: "https://px.example/p.gif".into()
        }));
        assert!(doc.nodes.contains(&Node::Stylesheet {
            href: "/style.css".into()
        }));
        assert!(!doc
            .nodes
            .iter()
            .any(|n| matches!(n, Node::Stylesheet { href } if href == "/favicon.ico")));
    }

    #[test]
    fn clickable_text_is_flattened() {
        let doc =
            parse(r#"<button id="accept" class="cta big"><b>Accept</b>   all cookies</button>"#);
        match &doc.nodes[0] {
            Node::Clickable {
                tag,
                text,
                id,
                classes,
            } => {
                assert_eq!(tag, "button");
                assert_eq!(text, "Accept all cookies");
                assert_eq!(id.as_deref(), Some("accept"));
                assert_eq!(classes, &["cta", "big"]);
            }
            n => panic!("unexpected {n:?}"),
        }
    }

    #[test]
    fn banner_div_and_inner_button_both_surface() {
        let html = r#"
            <div class="cmp-banner" id="consent">
              <p>We value your privacy</p>
              <button>Alle akzeptieren</button>
            </div>"#;
        let doc = parse(html);
        let container = doc
            .nodes
            .iter()
            .find_map(|n| match n {
                Node::Container { classes, text, .. } if classes.contains(&"cmp-banner".into()) => {
                    Some(text.clone())
                }
                _ => None,
            })
            .expect("banner container parsed");
        assert!(container.contains("Alle akzeptieren"));
        // The button inside is also parsed as its own node.
        assert!(doc.clickables().any(|n| matches!(
            n,
            Node::Clickable { text, .. } if text == "Alle akzeptieren"
        )));
    }

    #[test]
    fn nested_divs_respect_depth() {
        let html = r#"<div class="outer"><div class="inner">deep</div>tail</div><div class="after">x</div>"#;
        let doc = parse(html);
        let texts: Vec<_> = doc
            .nodes
            .iter()
            .filter_map(|n| match n {
                Node::Container { classes, text, .. } => Some((classes.clone(), text.clone())),
                _ => None,
            })
            .collect();
        assert!(texts.contains(&(vec!["outer".into()], "deep tail".into())));
        assert!(texts.contains(&(vec!["inner".into()], "deep".into())));
        assert!(texts.contains(&(vec!["after".into()], "x".into())));
    }

    #[test]
    fn title_is_extracted() {
        let doc = parse("<html><title>  My   Site </title></html>");
        assert_eq!(doc.title.as_deref(), Some("My Site"));
    }

    #[test]
    fn comments_are_skipped() {
        let doc = parse(r#"<!-- <script src="https://evil/x.js"></script> --><img src="/a.png">"#);
        assert_eq!(doc.nodes.len(), 1);
        assert!(matches!(&doc.nodes[0], Node::Img { src } if src == "/a.png"));
    }

    #[test]
    fn malformed_markup_does_not_panic() {
        for html in [
            "<",
            "<scr",
            "<script src=",
            "<script>never closed",
            "<div><div>unbalanced",
            "<button>no close",
            "<iframe src='x'",
            "< script >",
            "<a href='#'",
        ] {
            let _ = parse(html); // must not panic
        }
    }

    #[test]
    fn bare_and_single_quoted_attributes() {
        let doc = parse("<img src=/pix.gif><iframe src='https://f.example/a'></iframe>");
        assert!(matches!(&doc.nodes[0], Node::Img { src } if src == "/pix.gif"));
        assert!(matches!(&doc.nodes[1], Node::Iframe { src, .. } if src == "https://f.example/a"));
    }

    #[test]
    fn gtm_style_snippet_parses() {
        // The real-world inclusion pattern from Figure 4: a script tag
        // placed directly in the page HTML.
        let html = r#"<script src="https://www.googletagmanager.com/gtm.js?id=GTM-XYZ"></script>"#;
        let doc = parse(html);
        match &doc.nodes[0] {
            Node::Script { src, .. } => assert_eq!(
                src.as_deref(),
                Some("https://www.googletagmanager.com/gtm.js?id=GTM-XYZ")
            ),
            n => panic!("unexpected {n:?}"),
        }
    }
}
