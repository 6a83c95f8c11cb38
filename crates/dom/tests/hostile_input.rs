//! The parser is the trust boundary for request bodies, so its cost must
//! stay linear in the input whatever the markup's shape.  Each case below
//! is one the parser once handled in quadratic time (seconds to tens of
//! seconds at these sizes in a release build); the ceilings are loose
//! enough for an unoptimised build on a busy machine and still one to two
//! orders of magnitude under what quadratic work costs.

use std::time::{Duration, Instant};
use wi_dom::Document;

const CEILING: Duration = Duration::from_secs(10);

fn parse_within_ceiling(what: &str, html: &str) -> Document {
    let started = Instant::now();
    let doc = Document::parse(html).expect("tag soup always parses");
    let took = started.elapsed();
    assert!(
        took < CEILING,
        "{what}: parsing {} bytes took {took:?}",
        html.len()
    );
    doc
}

#[test]
fn deep_nesting_parses_in_linear_time() {
    let depth = 100_000;
    let html = "<div>".repeat(depth);
    let doc = parse_within_ceiling("100k nested <div>", &html);
    assert_eq!(doc.len(), depth + 1);
    // The deepest element hangs `depth` levels below the root; the order
    // and hash indexes build without recursion.
    let deepest = wi_dom::NodeId::from_index(depth);
    assert_eq!(doc.depth(deepest), depth);
    assert_ne!(doc.content_hash(), 0);
}

#[test]
fn stray_end_tags_are_rejected_in_constant_time() {
    let depth = 100_000;
    let mut html = "<div>".repeat(depth);
    html.push_str(&"</b>".repeat(100_000));
    // Closing tags that are open still work after the strays.
    html.push_str("</div><p>x</p>");
    let doc = parse_within_ceiling("100k nested <div> + 100k stray </b>", &html);
    let p = doc.elements_by_tag("p")[0];
    assert_eq!(doc.depth(p), depth);
    assert!(doc.elements_by_tag("b").is_empty());
}

#[test]
fn raw_text_close_tags_are_found_in_place() {
    let count = 20_000;
    let mut html = String::new();
    for i in 0..count {
        // Alternate the close tag's case: the search ignores ASCII case.
        html.push_str(if i % 2 == 0 {
            "<style>x</style>"
        } else {
            "<STYLE>y</StYlE>"
        });
    }
    let doc = parse_within_ceiling("20k <style> elements", &html);
    let styles = doc.elements_by_tag("style");
    assert_eq!(styles.len(), count);
    assert!(styles.iter().all(|&s| doc.parent(s) == Some(doc.root())));
    assert_eq!(doc.normalized_text(styles[1]), "y");
}

#[test]
fn multibyte_text_after_comment_opener_does_not_panic() {
    // `<!-` followed by a multi-byte character once made the comment probe
    // slice the input inside a character.
    let doc = Document::parse("<p><!-é>x</p>").unwrap();
    assert_eq!(doc.normalized_text(doc.root()), "x");
}
