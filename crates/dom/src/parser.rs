//! A small, tolerant HTML parser.
//!
//! The parser is intentionally forgiving — real-world archive snapshots (which
//! the paper's evaluation is built on) are frequently broken, and the
//! synthetic archive in `wi-webgen` emulates that by serving malformed
//! snapshots from time to time.  The parser therefore follows the usual
//! "tag soup" conventions:
//!
//! * unknown or unclosed elements are closed implicitly at end of input,
//! * void elements (`<img>`, `<br>`, …) never take children,
//! * stray end tags are ignored,
//! * `<li>`, `<p>`, `<td>`, `<tr>`, `<option>` auto-close a preceding sibling
//!   of the same kind,
//! * comments, doctypes, and processing instructions are skipped,
//! * `<script>` and `<style>` contents are treated as raw text.
//!
//! It is not a full HTML5 tree construction algorithm, but it handles the
//! documents produced by [`crate::serializer::to_html`] (round-trip) and the
//! kind of markup found on template-driven sites.
//!
//! # One pass, straight into the arena
//!
//! The parser writes the compact arena of [`crate::node`] directly: tags and
//! attributes are interned as they are read (so symbols are numbered in
//! first-use order), text goes straight into the document's text buffer,
//! and each node is linked under the innermost open element without the
//! cycle check and index invalidation that the public mutation API pays
//! per call.  Names are lower-cased into one reused buffer, and entities
//! are decoded only where an `&` occurs.
//!
//! The same parser is the trust boundary for HTTP request bodies, so every
//! step is linear in the input, whatever its shape:
//!
//! * the open-element stack keeps a count of open elements per tag symbol,
//!   so an end tag (or an auto-closing start tag) whose tag is not open is
//!   rejected in O(1), and closing pops each element at most once;
//! * `<script>`/`<style>` bodies are scanned once, in place, for their
//!   close tag, ignoring ASCII case;
//! * comments and other markup are skipped in one forward scan.

use crate::document::{span_u32, Document};
use crate::error::{DomError, Result};
use crate::intern::Sym;
use crate::node::{Node, NodeId};

/// Options controlling HTML parsing.
#[derive(Debug, Clone)]
pub struct ParseOptions {
    /// Lower-case all tag and attribute names (default: true).
    pub lowercase_names: bool,
    /// If `true`, whitespace-only text nodes between elements are dropped
    /// (default: true).  Keeping them around only inflates positional indices
    /// without changing any of the paper's semantics.
    pub skip_whitespace_text: bool,
    /// Decode the basic named character entities (`&amp;` etc.) and numeric
    /// entities (default: true).
    pub decode_entities: bool,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            lowercase_names: true,
            skip_whitespace_text: true,
            decode_entities: true,
        }
    }
}

/// Tags that never have children ("void elements" in HTML).
pub const VOID_ELEMENTS: &[&str] = &[
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "param", "source",
    "track", "wbr",
];

/// Tags whose open tag implicitly closes a preceding unclosed element of the
/// same tag (a small subset of HTML's implied end tags).
const AUTO_CLOSE_SAME: &[&str] = &["li", "p", "td", "th", "tr", "option", "dt", "dd"];

/// Tags with raw-text content.
const RAW_TEXT: &[&str] = &["script", "style"];

/// Tag-class bits, cached per tag symbol.
const VOID: u8 = 1;
const AUTO_CLOSE: u8 = 2;
const RAW: u8 = 4;
const CLASSIFIED: u8 = 0x80;

/// Parses HTML text into a [`Document`] using default options.
pub fn parse_html(input: &str) -> Result<Document> {
    parse_html_with(input, ParseOptions::default())
}

/// Parses HTML text with explicit [`ParseOptions`].
///
/// Fails only for inputs of 4 GiB or more, whose offsets the arena's
/// 32-bit spans cannot hold; any smaller input parses (tag soup included).
pub fn parse_html_with(input: &str, options: ParseOptions) -> Result<Document> {
    if input.len() >= u32::MAX as usize {
        return Err(DomError::Parse {
            offset: 0,
            message: "input of 4 GiB or more".into(),
        });
    }
    Ok(Parser::new(input, options).parse())
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    options: ParseOptions,
    doc: Document,
    /// Open elements, innermost last; `stack[0]` is the synthetic root.
    stack: Vec<NodeId>,
    /// Number of open elements (root excluded) per tag symbol index.
    open: Vec<u32>,
    /// Tag-class bits per symbol index (`0` until first used as a tag).
    class: Vec<u8>,
    /// Reused buffer for lower-cased names and decoded attribute values.
    buf: String,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, options: ParseOptions) -> Self {
        // Size the buffers for a typical page (about one node per 26 bytes
        // of markup) without letting a huge body reserve memory up front.
        let hint = input.len().min(1 << 20);
        let mut doc = Document::with_capacity(hint / 24 + 8, hint / 48 + 4, hint / 3);
        doc.interner.reserve(hint / 64 + 16, hint / 16 + 64);
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            options,
            doc,
            stack: vec![NodeId(0)],
            open: Vec::new(),
            class: Vec::new(),
            buf: String::new(),
        }
    }

    fn parse(mut self) -> Document {
        while self.pos < self.bytes.len() {
            if self.bytes[self.pos] == b'<' {
                self.parse_markup();
            } else {
                self.parse_text();
            }
        }
        self.doc
    }

    /// Links a new node as the last child of the innermost open element.
    /// Parsing only ever appends, so there is no cycle to check and no
    /// index to invalidate (none can have been built yet).
    fn append(&mut self, tag: Sym, start: usize, len: usize) -> NodeId {
        let nodes = &mut self.doc.nodes;
        let id = NodeId(nodes.len() as u32);
        let parent = self.stack[self.stack.len() - 1];
        let mut node = Node::new(tag, span_u32(start), span_u32(len));
        node.parent = Some(parent);
        node.prev_sibling = nodes[parent.index()].last_child;
        match node.prev_sibling {
            Some(prev) => nodes[prev.index()].next_sibling = Some(id),
            None => nodes[parent.index()].first_child = Some(id),
        }
        nodes[parent.index()].last_child = Some(id);
        nodes.push(node);
        id
    }

    fn append_text(&mut self, start: usize) {
        let len = self.doc.text.len() - start;
        self.append(Sym::UNSET, start, len);
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn parse_text(&mut self) {
        let start = self.pos;
        self.pos = find_byte(self.bytes, start, b'<').unwrap_or(self.bytes.len());
        let raw = &self.input[start..self.pos];
        let text = &mut self.doc.text;
        let t0 = text.len();
        if self.options.decode_entities && raw.as_bytes().contains(&b'&') {
            decode_entities_into(raw, text);
        } else {
            text.push_str(raw);
        }
        if self.options.skip_whitespace_text && text[t0..].trim().is_empty() {
            text.truncate(t0);
            return;
        }
        self.append_text(t0);
    }

    fn parse_markup(&mut self) {
        debug_assert_eq!(self.bytes[self.pos], b'<');
        match self.peek(1) {
            Some(b'!') => {
                if self.bytes[self.pos..].starts_with(b"<!--") {
                    self.skip_comment();
                } else {
                    self.skip_until(b'>');
                }
            }
            Some(b'?') => self.skip_until(b'>'),
            Some(b'/') => self.parse_end_tag(),
            Some(c) if c.is_ascii_alphabetic() => self.parse_start_tag(),
            _ => {
                // A bare '<' in text; treat it literally.
                let t0 = self.doc.text.len();
                self.doc.text.push('<');
                self.append_text(t0);
                self.pos += 1;
            }
        }
    }

    fn skip_comment(&mut self) {
        // self.pos is at "<!--"
        match self.input[self.pos..].find("-->") {
            Some(end) => self.pos += end + 3,
            None => self.pos = self.bytes.len(),
        }
    }

    fn skip_until(&mut self, byte: u8) {
        self.pos = match find_byte(self.bytes, self.pos, byte) {
            Some(at) => at + 1,
            None => self.bytes.len(),
        };
    }

    /// Scans a tag name (`[A-Za-z0-9-]*`), returning its byte range.
    fn scan_name(&mut self) -> (usize, usize) {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && (self.bytes[self.pos].is_ascii_alphanumeric() || self.bytes[self.pos] == b'-')
        {
            self.pos += 1;
        }
        (start, self.pos)
    }

    fn parse_end_tag(&mut self) {
        self.pos += 2; // consume "</"
        let (start, end) = self.scan_name();
        self.skip_until(b'>');
        let input = self.input;
        let name = lowered(&input[start..end], &self.options, &mut self.buf);
        // Fast path: the end tag closes the innermost element; otherwise a
        // name the interner has never seen cannot be open.
        let top = self.doc.nodes[self.stack[self.stack.len() - 1].index()].tag;
        let tag = if self.stack.len() > 1 && self.doc.interner.resolve(top) == name {
            Some(top)
        } else {
            self.doc.interner.get(name)
        };
        // Ignore stray end tags for elements that are not open.
        if let Some(tag) = tag.filter(|&t| self.open_count(t) > 0) {
            self.close_until(tag);
        }
    }

    fn parse_start_tag(&mut self) {
        // Consume '<'.  The name's first byte is a letter (see
        // `parse_markup`), so it is never empty.
        self.pos += 1;
        let (start, end) = self.scan_name();
        let input = self.input;
        let name = lowered(&input[start..end], &self.options, &mut self.buf);
        let tag = self.doc.interner.intern(name);
        let attr_start = self.doc.attrs.len();
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
                Some(_) => {
                    if !self.parse_attribute() {
                        // Could not make progress: skip one byte to avoid an
                        // infinite loop on malformed input.
                        self.pos += 1;
                    }
                }
            }
        }

        let class = self.class_of(tag);
        // Implied end tags: <li> after <li>, <p> after <p>, etc. — the simple
        // tag-soup heuristic of closing up to the innermost open one.
        if class & AUTO_CLOSE != 0 && self.open_count(tag) > 0 {
            self.close_until(tag);
        }

        let id = self.append(tag, attr_start, self.doc.attrs.len() - attr_start);
        if class & VOID != 0 || self_closing {
            return;
        }
        self.stack.push(id);
        self.open[tag.index()] += 1;

        if class & RAW != 0 {
            self.parse_raw_text(tag);
        }
    }

    /// The class bits of a tag symbol, computed from its string on first
    /// use.  Also sizes the per-symbol tables to cover `tag`.
    fn class_of(&mut self, tag: Sym) -> u8 {
        let i = tag.index();
        if i >= self.class.len() {
            let n = self.doc.interner.len();
            self.class.resize(n, 0);
            self.open.resize(n, 0);
        }
        if self.class[i] == 0 {
            let name = self.doc.interner.resolve(tag);
            let mut bits = CLASSIFIED;
            if VOID_ELEMENTS.contains(&name) {
                bits |= VOID;
            }
            if AUTO_CLOSE_SAME.contains(&name) {
                bits |= AUTO_CLOSE;
            }
            if RAW_TEXT.contains(&name) {
                bits |= RAW;
            }
            self.class[i] = bits;
        }
        self.class[i]
    }

    fn open_count(&self, tag: Sym) -> u32 {
        self.open.get(tag.index()).copied().unwrap_or(0)
    }

    /// Pops open elements up to and including the innermost one tagged
    /// `tag`.  Callers check `open_count(tag) > 0` first, so the root is
    /// never popped.
    fn close_until(&mut self, tag: Sym) {
        while self.stack.len() > 1 {
            let Some(id) = self.stack.pop() else { break };
            let t = self.doc.nodes[id.index()].tag;
            self.open[t.index()] -= 1;
            if t == tag {
                break;
            }
        }
    }

    fn parse_raw_text(&mut self, tag: Sym) {
        let close = self.doc.interner.resolve(tag).as_bytes();
        let end = find_close_tag(self.bytes, self.pos, close).unwrap_or(self.bytes.len());
        let content = &self.input[self.pos..end];
        if !content.trim().is_empty() {
            let t0 = self.doc.text.len();
            self.doc.text.push_str(content);
            self.append_text(t0);
        }
        self.pos = end;
        if self.pos < self.bytes.len() {
            // consume the end tag.
            self.skip_until(b'>');
        }
        self.close_until(tag);
    }

    fn skip_whitespace(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    /// Parses one attribute onto the document's attribute buffer, interning
    /// its name and then its value.  Returns `false` (consuming nothing)
    /// when no attribute name starts here.
    fn parse_attribute(&mut self) -> bool {
        let name_start = self.pos;
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b.is_ascii_whitespace() || b == b'=' || b == b'>' || b == b'/' {
                break;
            }
            self.pos += 1;
        }
        if self.pos == name_start {
            return false;
        }
        let input = self.input;
        let name = lowered(&input[name_start..self.pos], &self.options, &mut self.buf);
        let name = self.doc.interner.intern(name);
        self.skip_whitespace();
        if self.peek(0) != Some(b'=') {
            let value = self.doc.interner.intern("");
            self.doc.attrs.push((name, value));
            return true;
        }
        self.pos += 1; // consume '='
        self.skip_whitespace();
        let raw = match self.peek(0) {
            Some(q @ (b'"' | b'\'')) => {
                let start = self.pos + 1;
                let end = find_byte(self.bytes, start, q).unwrap_or(self.bytes.len());
                // Past the closing quote, if there is one.
                self.pos = (end + 1).min(self.bytes.len());
                &self.input[start..end]
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
                &self.input[start..self.pos]
            }
        };
        let value = if self.options.decode_entities && raw.as_bytes().contains(&b'&') {
            self.buf.clear();
            decode_entities_into(raw, &mut self.buf);
            self.doc.interner.intern(&self.buf)
        } else {
            self.doc.interner.intern(raw)
        };
        self.doc.attrs.push((name, value));
        true
    }
}

/// `name`, ASCII-lower-cased into `buf` if the options ask for it and it
/// has an upper-case letter.
fn lowered<'s>(name: &'s str, options: &ParseOptions, buf: &'s mut String) -> &'s str {
    if options.lowercase_names && name.bytes().any(|b| b.is_ascii_uppercase()) {
        buf.clear();
        buf.push_str(name);
        buf.make_ascii_lowercase();
        buf
    } else {
        name
    }
}

/// Position of the first `byte` in `bytes[from..]`, as an index into `bytes`.
fn find_byte(bytes: &[u8], from: usize, byte: u8) -> Option<usize> {
    bytes[from..]
        .iter()
        .position(|&b| b == byte)
        .map(|at| from + at)
}

/// Position of the first `</tag` at or after `from`, comparing the tag
/// ASCII-case-insensitively (`tag` itself is lower case).  One forward
/// scan: each `<` is examined once.
fn find_close_tag(bytes: &[u8], from: usize, tag: &[u8]) -> Option<usize> {
    let mut at = from;
    while let Some(lt) = find_byte(bytes, at, b'<') {
        let name = lt + 2;
        if bytes.get(lt + 1) == Some(&b'/')
            && bytes.len() >= name + tag.len()
            && bytes[name..name + tag.len()].eq_ignore_ascii_case(tag)
        {
            return Some(lt);
        }
        at = lt + 1;
    }
    None
}

/// Decodes the most common HTML character entities.
///
/// Supports the five XML entities, `&nbsp;`, and decimal/hexadecimal numeric
/// character references.  Unknown entities are left untouched.
pub fn decode_entities(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    decode_entities_into(input, &mut out);
    out
}

/// [`decode_entities`], appending to `out`.
fn decode_entities_into(input: &str, out: &mut String) {
    let mut rest = input;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let body = &rest[amp + 1..];
        match entity(body) {
            Some((c, len)) => {
                out.push(c);
                // Skip the entity body and the ';'.
                rest = &body[len + 1..];
            }
            None => {
                out.push('&');
                rest = body;
            }
        }
    }
    out.push_str(rest);
}

/// The character encoded by the entity whose body starts `s` (just after
/// its `&`), with the byte length of that body; `None` if `s` does not
/// start with a known entity terminated by a `;` within 12 characters.
fn entity(s: &str) -> Option<(char, usize)> {
    let (len, _) = s.char_indices().take(12).find(|&(_, ch)| ch == ';')?;
    let entity = &s[..len];
    let c = match entity {
        "amp" => '&',
        "lt" => '<',
        "gt" => '>',
        "quot" => '"',
        "apos" => '\'',
        "nbsp" => ' ',
        _ if entity.starts_with('#') => {
            let code = if let Some(hex) = entity
                .strip_prefix("#x")
                .or_else(|| entity.strip_prefix("#X"))
            {
                u32::from_str_radix(hex, 16).ok()
            } else {
                entity[1..].parse::<u32>().ok()
            };
            char::from_u32(code?)?
        }
        _ => return None,
    };
    Some((c, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_document() {
        let doc = parse_html(
            r#"<html><head><title>T</title></head>
               <body><div id="main" class="content">
               <p>Hello <b>world</b></p></div></body></html>"#,
        )
        .unwrap();
        assert_eq!(doc.elements_by_tag("html").len(), 1);
        let div = doc.element_by_id("main").unwrap();
        assert_eq!(doc.attribute(div, "class"), Some("content"));
        assert_eq!(doc.normalized_text(div), "Hello world");
    }

    #[test]
    fn void_elements_take_no_children() {
        let doc = parse_html("<body><img src='a.png'><p>after</p></body>").unwrap();
        let img = doc.elements_by_tag("img")[0];
        assert_eq!(doc.children(img).count(), 0);
        let p = doc.elements_by_tag("p")[0];
        assert_eq!(doc.tag_name(doc.parent(p).unwrap()), Some("body"));
    }

    #[test]
    fn self_closing_syntax() {
        let doc = parse_html("<div><br/><span/>text</div>").unwrap();
        assert_eq!(doc.elements_by_tag("br").len(), 1);
        let span = doc.elements_by_tag("span")[0];
        assert_eq!(doc.children(span).count(), 0);
    }

    #[test]
    fn unclosed_elements_close_at_eof() {
        let doc = parse_html("<html><body><div><p>unclosed").unwrap();
        assert_eq!(doc.elements_by_tag("p").len(), 1);
        let p = doc.elements_by_tag("p")[0];
        assert_eq!(doc.normalized_text(p), "unclosed");
    }

    #[test]
    fn stray_end_tags_are_ignored() {
        let doc = parse_html("<div></span><p>x</p></div>").unwrap();
        assert_eq!(doc.elements_by_tag("p").len(), 1);
        assert_eq!(doc.elements_by_tag("span").len(), 0);
    }

    #[test]
    fn li_auto_close() {
        let doc = parse_html("<ul><li>one<li>two<li>three</ul>").unwrap();
        let ul = doc.elements_by_tag("ul")[0];
        let lis: Vec<_> = doc.element_children(ul).collect();
        assert_eq!(lis.len(), 3);
        assert_eq!(doc.normalized_text(lis[1]), "two");
        // none of the li are nested inside each other
        for &li in &lis {
            assert_eq!(doc.parent(li), Some(ul));
        }
    }

    #[test]
    fn comments_and_doctype_skipped() {
        let doc =
            parse_html("<!DOCTYPE html><!-- a comment --><html><body>x</body></html>").unwrap();
        assert_eq!(doc.elements_by_tag("html").len(), 1);
        let body = doc.elements_by_tag("body")[0];
        assert_eq!(doc.normalized_text(body), "x");
    }

    #[test]
    fn script_content_is_raw_text() {
        let doc = parse_html(
            "<body><script>if (a < b) { document.write('<div>'); }</script><p>y</p></body>",
        )
        .unwrap();
        // The '<div>' inside the script must not create an element.
        assert_eq!(doc.elements_by_tag("div").len(), 0);
        assert_eq!(doc.elements_by_tag("p").len(), 1);
        let script = doc.elements_by_tag("script")[0];
        assert!(doc.text_value(script).contains("document.write"));
    }

    #[test]
    fn attributes_quoted_unquoted_and_bare() {
        let doc = parse_html(r#"<input type=text name="q" disabled value='go'>"#).unwrap();
        let input = doc.elements_by_tag("input")[0];
        assert_eq!(doc.attribute(input, "type"), Some("text"));
        assert_eq!(doc.attribute(input, "name"), Some("q"));
        assert_eq!(doc.attribute(input, "value"), Some("go"));
        assert_eq!(doc.attribute(input, "disabled"), Some(""));
    }

    #[test]
    fn entities_are_decoded() {
        let doc = parse_html("<p title=\"a &amp; b\">x &lt; y &#65; &#x42; &nbsp;z &unknown;</p>")
            .unwrap();
        let p = doc.elements_by_tag("p")[0];
        assert_eq!(doc.attribute(p, "title"), Some("a & b"));
        let t = doc.text_value(p);
        assert!(t.contains("x < y A B"));
        assert!(t.contains("&unknown;"));
    }

    #[test]
    fn uppercase_names_are_lowered() {
        let doc = parse_html("<DIV CLASS='X'><SPAN>t</SPAN></DIV>").unwrap();
        assert_eq!(doc.elements_by_tag("div").len(), 1);
        let div = doc.elements_by_tag("div")[0];
        assert_eq!(doc.attribute(div, "class"), Some("X"));
    }

    #[test]
    fn whitespace_text_skipped_by_default_kept_on_request() {
        let html = "<div>\n  <p>a</p>\n  </div>";
        let doc = parse_html(html).unwrap();
        let div = doc.elements_by_tag("div")[0];
        assert_eq!(doc.children(div).count(), 1);

        let opts = ParseOptions {
            skip_whitespace_text: false,
            ..Default::default()
        };
        let doc2 = parse_html_with(html, opts).unwrap();
        let div2 = doc2.elements_by_tag("div")[0];
        assert_eq!(doc2.children(div2).count(), 3);
    }

    #[test]
    fn empty_and_text_only_inputs() {
        let doc = parse_html("").unwrap();
        assert!(doc.is_empty());
        let doc = parse_html("just text, no tags").unwrap();
        assert_eq!(doc.normalized_text(doc.root()), "just text, no tags");
    }

    #[test]
    fn bare_less_than_in_text() {
        let doc = parse_html("<p>1 < 2</p>").unwrap();
        let p = doc.elements_by_tag("p")[0];
        assert_eq!(doc.normalized_text(p), "1 < 2");
    }

    #[test]
    fn decode_entities_unit() {
        assert_eq!(decode_entities("a &amp; b"), "a & b");
        assert_eq!(decode_entities("no entities"), "no entities");
        assert_eq!(decode_entities("&#77;&#x4d;"), "MM");
        assert_eq!(decode_entities("&bogus; &"), "&bogus; &");
    }

    #[test]
    fn table_auto_close() {
        let doc = parse_html("<table><tr><td>a<td>b<tr><td>c</table>").unwrap();
        assert_eq!(doc.elements_by_tag("tr").len(), 2);
        assert_eq!(doc.elements_by_tag("td").len(), 3);
    }
}
