//! Serialization of documents back to HTML markup.

use crate::document::{Document, DOCUMENT_ROOT_TAG};
use crate::node::NodeId;
use crate::parser::VOID_ELEMENTS;

/// Options controlling HTML serialization.
#[derive(Debug, Clone)]
pub struct SerializeOptions {
    /// Pretty-print with indentation (default: false — compact output).
    pub pretty: bool,
    /// Indentation width when pretty-printing.
    pub indent: usize,
}

impl Default for SerializeOptions {
    fn default() -> Self {
        SerializeOptions {
            pretty: false,
            indent: 2,
        }
    }
}

/// Serializes the whole document to HTML using default options.
pub fn to_html(doc: &Document) -> String {
    to_html_with(doc, &SerializeOptions::default())
}

/// Serializes the whole document to HTML.
pub fn to_html_with(doc: &Document, options: &SerializeOptions) -> String {
    let mut out = String::new();
    for child in doc.children(doc.root()) {
        serialize_node(doc, child, options, 0, &mut out);
    }
    out
}

/// Serializes a single subtree to HTML.
pub fn subtree_to_html(doc: &Document, id: NodeId, options: &SerializeOptions) -> String {
    let mut out = String::new();
    serialize_node(doc, id, options, 0, &mut out);
    out
}

fn serialize_node(
    doc: &Document,
    id: NodeId,
    options: &SerializeOptions,
    depth: usize,
    out: &mut String,
) {
    match doc.tag_name(id) {
        None => {
            let t = doc.text_content(id).unwrap_or_default();
            if options.pretty {
                indent(out, depth, options.indent);
            }
            out.push_str(&escape_text(t));
            if options.pretty {
                out.push('\n');
            }
        }
        Some(tag) => {
            if tag == DOCUMENT_ROOT_TAG {
                for child in doc.children(id) {
                    serialize_node(doc, child, options, depth, out);
                }
                return;
            }
            if options.pretty {
                indent(out, depth, options.indent);
            }
            out.push('<');
            out.push_str(tag);
            for (name, value) in doc.attributes(id) {
                out.push(' ');
                out.push_str(name);
                out.push_str("=\"");
                out.push_str(&escape_attr(value));
                out.push('"');
            }
            let is_void = VOID_ELEMENTS.contains(&tag);
            if is_void {
                out.push('>');
                if options.pretty {
                    out.push('\n');
                }
                return;
            }
            out.push('>');
            let has_children = doc.first_child(id).is_some();
            if options.pretty && has_children {
                out.push('\n');
            }
            for child in doc.children(id) {
                serialize_node(doc, child, options, depth + 1, out);
            }
            if options.pretty && has_children {
                indent(out, depth, options.indent);
            }
            out.push_str("</");
            out.push_str(tag);
            out.push('>');
            if options.pretty {
                out.push('\n');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize, width: usize) {
    for _ in 0..depth * width {
        out.push(' ');
    }
}

/// Escapes text node content.
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
    out
}

/// Escapes attribute values (double-quote delimited).
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{el, text};
    use crate::parser::parse_html;

    #[test]
    fn serializes_compact_html() {
        let doc = el("div")
            .attr("id", "a")
            .child(el("span").text_child("x & y"))
            .child(el("img").attr("src", "p.png"))
            .into_document();
        let html = to_html(&doc);
        assert_eq!(
            html,
            r#"<div id="a"><span>x &amp; y</span><img src="p.png"></div>"#
        );
    }

    #[test]
    fn escapes_attributes() {
        let doc = el("a").attr("title", "say \"hi\" & <go>").into_document();
        let html = to_html(&doc);
        assert!(html.contains("say &quot;hi&quot; &amp; &lt;go>"));
    }

    #[test]
    fn roundtrip_parse_serialize_parse() {
        let original = r#"<html><head><title>T</title></head><body><div id="main" class="c"><ul><li>one</li><li>two</li></ul></div></body></html>"#;
        let doc = parse_html(original).unwrap();
        let html = to_html(&doc);
        let doc2 = parse_html(&html).unwrap();
        // Structural equivalence: same tags in the same order, same attributes.
        let tags1: Vec<_> = doc
            .descendants(doc.root())
            .filter_map(|n| doc.tag_name(n).map(String::from))
            .collect();
        let tags2: Vec<_> = doc2
            .descendants(doc2.root())
            .filter_map(|n| doc2.tag_name(n).map(String::from))
            .collect();
        assert_eq!(tags1, tags2);
        assert_eq!(to_html(&doc2), html);
    }

    #[test]
    fn pretty_printing_indents() {
        let doc = el("div").child(el("p").text_child("x")).into_document();
        let html = to_html_with(
            &doc,
            &SerializeOptions {
                pretty: true,
                indent: 2,
            },
        );
        assert!(html.contains("\n  <p>"));
    }

    #[test]
    fn subtree_serialization() {
        let doc = el("div")
            .child(el("span").attr("class", "x").text_child("inner"))
            .into_document();
        let span = doc.elements_by_tag("span")[0];
        let html = subtree_to_html(&doc, span, &SerializeOptions::default());
        assert_eq!(html, r#"<span class="x">inner</span>"#);
    }

    #[test]
    fn text_helper_escapes() {
        assert_eq!(escape_text("a<b>&c"), "a&lt;b&gt;&amp;c");
        assert_eq!(escape_attr("a\"b"), "a&quot;b");
        let _ = text("x"); // silence unused import in non-test builds
    }
}
