//! Differential oracle for the HTML parser.
//!
//! `Document::parse` fills the compact arena in one pass.  The module
//! `reference` below is the earlier parser, which drove the public
//! `DocumentBuilder` (one `create_element` / `append_child` per node); it
//! is kept here, and only here, as the specification.  Every test parses
//! the same input with both and demands identical documents: node links,
//! tag and attribute strings and symbols, text, interner order, serialized
//! bytes and content hash, under all eight `ParseOptions` combinations.

use proptest::prelude::*;
use wrapper_induction::dom::{to_html, Document, NodeId, ParseOptions};
use wrapper_induction::webgen::date::{OBSERVATION_END, OBSERVATION_START};
use wrapper_induction::webgen::{ArchiveSimulator, PageKind, Site, Vertical};

/// The builder-driven parser the arena parser replaced, unchanged except
/// that the `<!--` probe compares bytes: the original sliced the input at
/// `pos + 4`, which panicked when that split a multi-byte character.
mod reference {
    use wrapper_induction::dom::parser::{decode_entities, VOID_ELEMENTS};
    use wrapper_induction::dom::{Document, DocumentBuilder, ParseOptions};

    const AUTO_CLOSE_SAME: &[&str] = &["li", "p", "td", "th", "tr", "option", "dt", "dd"];
    const RAW_TEXT: &[&str] = &["script", "style"];

    pub fn parse(input: &str, options: ParseOptions) -> Document {
        let mut p = Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            options,
            builder: DocumentBuilder::new(),
        };
        while p.pos < p.bytes.len() {
            if p.bytes[p.pos] == b'<' {
                p.parse_markup();
            } else {
                p.parse_text();
            }
        }
        p.builder.finish_lenient()
    }

    struct Parser<'a> {
        input: &'a str,
        bytes: &'a [u8],
        pos: usize,
        options: ParseOptions,
        builder: DocumentBuilder,
    }

    impl Parser<'_> {
        fn peek(&self, ahead: usize) -> Option<u8> {
            self.bytes.get(self.pos + ahead).copied()
        }

        fn parse_text(&mut self) {
            let start = self.pos;
            while self.pos < self.bytes.len() && self.bytes[self.pos] != b'<' {
                self.pos += 1;
            }
            let raw = &self.input[start..self.pos];
            let decoded = if self.options.decode_entities {
                decode_entities(raw)
            } else {
                raw.to_string()
            };
            if self.options.skip_whitespace_text && decoded.trim().is_empty() {
                return;
            }
            self.builder.text(&decoded);
        }

        fn parse_markup(&mut self) {
            match self.peek(1) {
                Some(b'!') => {
                    if self.bytes[self.pos..].starts_with(b"<!--") {
                        match self.input[self.pos..].find("-->") {
                            Some(end) => self.pos += end + 3,
                            None => self.pos = self.bytes.len(),
                        }
                    } else {
                        self.skip_until(b'>');
                    }
                }
                Some(b'?') => self.skip_until(b'>'),
                Some(b'/') => self.parse_end_tag(),
                Some(c) if c.is_ascii_alphabetic() => self.parse_start_tag(),
                _ => {
                    self.builder.text("<");
                    self.pos += 1;
                }
            }
        }

        fn skip_until(&mut self, byte: u8) {
            while self.pos < self.bytes.len() && self.bytes[self.pos] != byte {
                self.pos += 1;
            }
            if self.pos < self.bytes.len() {
                self.pos += 1;
            }
        }

        fn name(&mut self) -> String {
            let start = self.pos;
            while self.pos < self.bytes.len()
                && (self.bytes[self.pos].is_ascii_alphanumeric() || self.bytes[self.pos] == b'-')
            {
                self.pos += 1;
            }
            let mut name = self.input[start..self.pos].to_string();
            if self.options.lowercase_names {
                name.make_ascii_lowercase();
            }
            name
        }

        fn parse_end_tag(&mut self) {
            self.pos += 2;
            let name = self.name();
            self.skip_until(b'>');
            if self.builder.has_open(&name) {
                self.builder.close_until(&name);
            }
        }

        fn parse_start_tag(&mut self) {
            self.pos += 1;
            let name = self.name();
            let mut attributes: Vec<(String, String)> = Vec::new();
            let mut self_closing = false;
            loop {
                self.skip_whitespace();
                match self.peek(0) {
                    None => break,
                    Some(b'>') => {
                        self.pos += 1;
                        break;
                    }
                    Some(b'/') => {
                        self.pos += 1;
                        if self.peek(0) == Some(b'>') {
                            self.pos += 1;
                            self_closing = true;
                            break;
                        }
                    }
                    Some(_) => match self.parse_attribute() {
                        Some(pair) => attributes.push(pair),
                        None => self.pos += 1,
                    },
                }
            }
            if AUTO_CLOSE_SAME.contains(&name.as_str()) && self.builder.has_open(&name) {
                self.builder.close_until(&name);
            }
            let attr_refs: Vec<(&str, &str)> = attributes
                .iter()
                .map(|(n, v)| (n.as_str(), v.as_str()))
                .collect();
            if VOID_ELEMENTS.contains(&name.as_str()) || self_closing {
                self.builder.void_element(&name, &attr_refs);
                return;
            }
            self.builder.open_element(&name, &attr_refs);
            if RAW_TEXT.contains(&name.as_str()) {
                self.parse_raw_text(&name);
            }
        }

        fn parse_raw_text(&mut self, tag: &str) {
            let close = format!("</{tag}");
            let rest = &self.input[self.pos..];
            let end = rest.to_ascii_lowercase().find(&close).unwrap_or(rest.len());
            let content = &rest[..end];
            if !content.trim().is_empty() {
                self.builder.text(content);
            }
            self.pos += end;
            if self.pos < self.bytes.len() {
                self.skip_until(b'>');
            }
            self.builder.close_until(tag);
        }

        fn skip_whitespace(&mut self) {
            while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
        }

        fn parse_attribute(&mut self) -> Option<(String, String)> {
            let name_start = self.pos;
            while self.pos < self.bytes.len() {
                let b = self.bytes[self.pos];
                if b.is_ascii_whitespace() || b == b'=' || b == b'>' || b == b'/' {
                    break;
                }
                self.pos += 1;
            }
            if self.pos == name_start {
                return None;
            }
            let mut name = self.input[name_start..self.pos].to_string();
            if self.options.lowercase_names {
                name.make_ascii_lowercase();
            }
            self.skip_whitespace();
            if self.peek(0) != Some(b'=') {
                return Some((name, String::new()));
            }
            self.pos += 1;
            self.skip_whitespace();
            let value = match self.peek(0) {
                Some(q @ (b'"' | b'\'')) => {
                    self.pos += 1;
                    let start = self.pos;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] != q {
                        self.pos += 1;
                    }
                    let v = self.input[start..self.pos].to_string();
                    if self.pos < self.bytes.len() {
                        self.pos += 1;
                    }
                    v
                }
                _ => {
                    let start = self.pos;
                    while self.pos < self.bytes.len() {
                        let b = self.bytes[self.pos];
                        if b.is_ascii_whitespace() || b == b'>' {
                            break;
                        }
                        self.pos += 1;
                    }
                    self.input[start..self.pos].to_string()
                }
            };
            let value = if self.options.decode_entities {
                decode_entities(&value)
            } else {
                value
            };
            Some((name, value))
        }
    }
}

/// All eight combinations of the three parse switches.
fn all_options() -> Vec<ParseOptions> {
    (0..8u8)
        .map(|bits| ParseOptions {
            lowercase_names: bits & 1 != 0,
            skip_whitespace_text: bits & 2 != 0,
            decode_entities: bits & 4 != 0,
        })
        .collect()
}

/// Everything observable about one node.
#[derive(Debug, PartialEq)]
struct NodeView<'a> {
    links: [Option<NodeId>; 5],
    tag: Option<&'a str>,
    tag_sym: Option<usize>,
    attributes: Vec<(&'a str, &'a str)>,
    attr_syms: Vec<(usize, usize)>,
    text: Option<&'a str>,
}

fn view(doc: &Document, id: NodeId) -> NodeView<'_> {
    NodeView {
        links: [
            doc.parent(id),
            doc.first_child(id),
            doc.last_child(id),
            doc.prev_sibling(id),
            doc.next_sibling(id),
        ],
        tag: doc.tag_name(id),
        tag_sym: doc.tag_sym(id).map(|s| s.index()),
        attributes: doc.attributes(id).iter().collect(),
        attr_syms: doc
            .attr_syms(id)
            .iter()
            .map(|&(n, v)| (n.index(), v.index()))
            .collect(),
        text: doc.text_content(id),
    }
}

/// Parses `html` with both parsers and reports the first difference.
fn compare(html: &str, options: &ParseOptions) -> Result<(), String> {
    let fast = Document::parse_with(html, options.clone()).map_err(|e| e.to_string())?;
    let spec = reference::parse(html, options.clone());
    let ctx = || format!("options {options:?}, input {html:?}");
    if fast.arena_len() != spec.arena_len() {
        return Err(format!(
            "arena length {} vs {} ({})",
            fast.arena_len(),
            spec.arena_len(),
            ctx()
        ));
    }
    for i in 0..fast.arena_len() {
        let id = NodeId::from_index(i);
        let (a, b) = (view(&fast, id), view(&spec, id));
        if a != b {
            return Err(format!("node {id}: {a:?} vs {b:?} ({})", ctx()));
        }
    }
    let (sa, sb): (Vec<&str>, Vec<&str>) = (
        fast.interner().strings().collect(),
        spec.interner().strings().collect(),
    );
    if sa != sb {
        return Err(format!("interner {sa:?} vs {sb:?} ({})", ctx()));
    }
    if to_html(&fast) != to_html(&spec) {
        return Err(format!("to_html differs ({})", ctx()));
    }
    if fast.content_hash() != spec.content_hash() {
        return Err(format!("content_hash differs ({})", ctx()));
    }
    Ok(())
}

fn assert_same_under_all_options(html: &str) {
    for options in all_options() {
        if let Err(e) = compare(html, &options) {
            panic!("{e}");
        }
    }
}

/// The prefix of `s` of at most `len` bytes, cut back to a char boundary.
fn truncated(s: &str, mut len: usize) -> &str {
    while !s.is_char_boundary(len) {
        len -= 1;
    }
    &s[..len]
}

#[test]
fn arena_parser_matches_reference_on_every_vertical_archive() {
    let mut pages = 0;
    let mut broken = 0;
    for (i, &vertical) in Vertical::ALL.iter().enumerate() {
        for kind in [PageKind::Detail, PageKind::Listing] {
            let site = Site::new(vertical, 3 + i as u64);
            let archive = ArchiveSimulator::new(site, 0, kind);
            // Every fourth 20-day capture, plus every broken one.
            let snapshots = archive.snapshots(OBSERVATION_START, OBSERVATION_END);
            for (n, snap) in snapshots.iter().enumerate() {
                if n % 4 != 0 && !snap.broken {
                    continue;
                }
                broken += usize::from(snap.broken);
                pages += 1;
                let html = to_html(&snap.doc);
                assert_same_under_all_options(&html);
                // Malformed captures: the page cut off mid-markup.
                if n % 8 == 0 {
                    let cut = html.len() * (1 + n % 3) / 4;
                    assert_same_under_all_options(truncated(&html, cut));
                }
            }
        }
    }
    assert!(pages >= 500, "only {pages} snapshots compared");
    assert!(broken > 0, "no broken capture in the corpus");
}

#[test]
fn arena_parser_matches_reference_on_hand_written_soup() {
    for html in [
        "",
        "plain text",
        "<",
        "a < b <> c </",
        "</>",
        "<!--",
        "<!-->x",
        "<!-é",
        "<!-- c --><?pi x?><!DOCTYPE html><p>x",
        "<ul><li>a<li>b<LI>c</ul>",
        "<table><tr><td>a<td>b<tr><td>c</table>",
        "<div></span><p>x</p></DIV></div>",
        "<script>if (a < b) { '</scr' + 'ipt>' }</SCRIPT ><p>y</p>",
        "<style>\n</style>  <STYLE>p{}</style",
        "<Script>x</script>",
        "<script/>text",
        "<p title=\"a &amp; b\" Data-X='&#65;' bare=v&lt;w disabled>x &lt; y &#x42; &nbsp;z &unknown; &</p>",
        "<div a=1 a=2 = / b>t</div>",
        "<img src=x><br/><span/>tail",
        "<DIV CLASS='X'><SPAN>t</SPAN></DIV>",
        "<p>é &#x1F600; &#xD800; &#1114112; &#+65; &ampx; &amp</p>",
        "<div>\n  <p>a</p>\n  </div>\u{a0}",
        "<a href='unterminated",
        "<div attr",
    ] {
        assert_same_under_all_options(html);
    }
}

/// Markup fragments a tag-soup input is stitched from.
const FRAGMENTS: &[&str] = &[
    "<div>",
    "<DiV class=\"a b\">",
    "</div>",
    "</Div>",
    "<span id=x>",
    "</span>",
    "<li>",
    "<LI>",
    "</li>",
    "<p>",
    "</P>",
    "<td>",
    "<tr>",
    "<table>",
    "</table>",
    "<br>",
    "<img src='a.png'>",
    "<span/>",
    "<p title=\"t &amp; u\"/>",
    "<input disabled value=go>",
    "<a HREF=q>",
    "</a>",
    "<script>",
    "</script>",
    "</SCRIPT>",
    "<Style>",
    "</style >",
    "</b>",
    "</i>",
    "<",
    "< ",
    "</",
    ">",
    "/>",
    "=",
    "\"",
    "'",
    "<!-- c -->",
    "<!--",
    "-->",
    "<!DOCTYPE html>",
    "<?xml x?>",
    "&amp;",
    "&lt;",
    "&#65;",
    "&#x4d;",
    "&bogus;",
    "&",
    "&nbsp;",
    " ",
    "\n  ",
    "text",
    "Word",
    "é",
    "<!-é",
];

fn arb_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(FRAGMENTS.to_vec()), 0..48)
        .prop_map(|parts| parts.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn arena_parser_matches_reference_on_tag_soup(html in arb_soup()) {
        for options in all_options() {
            if let Err(e) = compare(&html, &options) {
                return Err(TestCaseError::fail(e));
            }
        }
    }
}
