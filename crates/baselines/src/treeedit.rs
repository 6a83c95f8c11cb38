//! A re-implementation of the probabilistic tree-edit approach of Dalvi,
//! Bohannon & Sha ("Robust web extraction: an approach based on a
//! probabilistic tree-edit model", SIGMOD 2009 — reference [6] of the paper).
//!
//! The original system learns a site-specific model of how pages change
//! (probabilities of node insertion, deletion and attribute change) from a
//! few historical snapshot pairs, enumerates candidate XPath expressions in a
//! fragment *strictly weaker* than dsXPath (only `child`/`descendant` axes,
//! at most one predicate per step, equality predicates only), and ranks them
//! by their probability of still selecting the target after the page changes.
//!
//! The re-implementation keeps exactly those ingredients:
//!
//! * [`ChangeModel::learn`] estimates per-feature change probabilities from
//!   consecutive snapshot pairs (id stability, class stability, positional
//!   stability, tag-population drift),
//! * [`TreeEditInducer::induce`] enumerates accurate candidates in the weak
//!   fragment and ranks them by estimated survival probability.

use crate::canonical::extract_union;
use std::collections::HashMap;
use wi_dom::{Document, NodeId};
use wi_induction::{ExtractError, Extractor};
use wi_xpath::{evaluate_with, Axis, NodeTest, Predicate, Query, Step};

/// Per-feature change probabilities (per snapshot step).
#[derive(Debug, Clone)]
pub struct ChangeModel {
    /// Probability that a given `id` attribute value disappears or changes.
    pub p_id_change: f64,
    /// Probability that a given `class` attribute value disappears/changes.
    pub p_class_change: f64,
    /// Probability that any other attribute value changes.
    pub p_attr_change: f64,
    /// Probability that the positional index of a node among its same-tag
    /// siblings changes.
    pub p_position_change: f64,
    /// Probability that a tag disappears from the page entirely.
    pub p_tag_change: f64,
}

impl Default for ChangeModel {
    fn default() -> Self {
        ChangeModel {
            p_id_change: 0.02,
            p_class_change: 0.05,
            p_attr_change: 0.10,
            p_position_change: 0.25,
            p_tag_change: 0.01,
        }
    }
}

impl ChangeModel {
    /// Learns change probabilities from consecutive snapshot pairs of the
    /// same page.
    pub fn learn(snapshots: &[&Document]) -> ChangeModel {
        if snapshots.len() < 2 {
            return ChangeModel::default();
        }
        let mut id_total = 0usize;
        let mut id_kept = 0usize;
        let mut class_total = 0usize;
        let mut class_kept = 0usize;
        let mut attr_total = 0usize;
        let mut attr_kept = 0usize;
        let mut pos_total = 0usize;
        let mut pos_kept = 0usize;
        let mut tag_total = 0usize;
        let mut tag_kept = 0usize;

        for pair in snapshots.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let feats_a = attribute_features(a);
            let feats_b = attribute_features(b);
            for key in feats_a.keys() {
                let kept = feats_b.contains_key(key);
                match key.1.as_str() {
                    "id" => {
                        id_total += 1;
                        id_kept += usize::from(kept);
                    }
                    "class" => {
                        class_total += 1;
                        class_kept += usize::from(kept);
                    }
                    _ => {
                        attr_total += 1;
                        attr_kept += usize::from(kept);
                    }
                }
            }
            // Positional stability: compare canonical signatures (tag,
            // sibling index) populations.
            let pos_a = positional_features(a);
            let pos_b = positional_features(b);
            for key in &pos_a {
                pos_total += 1;
                pos_kept += usize::from(pos_b.contains(key));
            }
            let tags_a = tag_population(a);
            let tags_b = tag_population(b);
            for t in &tags_a {
                tag_total += 1;
                tag_kept += usize::from(tags_b.contains(t));
            }
        }

        let ratio = |kept: usize, total: usize, default: f64| {
            if total == 0 {
                default
            } else {
                (1.0 - kept as f64 / total as f64).clamp(0.001, 0.9)
            }
        };
        ChangeModel {
            p_id_change: ratio(id_kept, id_total, 0.02),
            p_class_change: ratio(class_kept, class_total, 0.05),
            p_attr_change: ratio(attr_kept, attr_total, 0.10),
            p_position_change: ratio(pos_kept, pos_total, 0.25),
            p_tag_change: ratio(tag_kept, tag_total, 0.01),
        }
    }

    /// Estimated probability that a query still works after one snapshot
    /// step: the product of the survival probabilities of its features.
    pub fn survival_probability(&self, query: &Query) -> f64 {
        let mut p = 1.0;
        for step in &query.steps {
            p *= 1.0 - self.p_tag_change;
            if step.predicates.is_empty() {
                // An unconstrained step depends on the sibling population.
                p *= 1.0 - self.p_position_change / 2.0;
            }
            for pred in &step.predicates {
                match pred {
                    Predicate::Position(_) | Predicate::LastOffset(_) => {
                        p *= 1.0 - self.p_position_change;
                    }
                    Predicate::HasAttribute(name) => {
                        p *= 1.0 - self.attr_change(name) / 2.0;
                    }
                    Predicate::StringCompare { source, .. } => match source {
                        wi_xpath::TextSource::Attribute(name) => {
                            p *= 1.0 - self.attr_change(name);
                        }
                        wi_xpath::TextSource::NormalizedText => {
                            p *= 1.0 - self.p_attr_change;
                        }
                    },
                    Predicate::Path(_) => p *= 1.0 - self.p_attr_change,
                }
            }
        }
        p
    }

    fn attr_change(&self, name: &str) -> f64 {
        match name {
            "id" => self.p_id_change,
            "class" => self.p_class_change,
            _ => self.p_attr_change,
        }
    }
}

type AttrFeature = (String, String, String); // tag, attr name, attr value

fn attribute_features(doc: &Document) -> HashMap<AttrFeature, usize> {
    let mut out = HashMap::new();
    for n in doc.descendants(doc.root()) {
        if let Some(tag) = doc.tag_name(n) {
            for (name, value) in doc.attributes(n) {
                *out.entry((tag.to_string(), name.to_string(), value.to_string()))
                    .or_insert(0) += 1;
            }
        }
    }
    out
}

fn positional_features(doc: &Document) -> std::collections::HashSet<(String, usize, String)> {
    doc.descendants(doc.root())
        .filter_map(|n| {
            let tag = doc.tag_name(n)?.to_string();
            let parent_tag = doc
                .parent(n)
                .and_then(|p| doc.tag_name(p))
                .unwrap_or("")
                .to_string();
            Some((tag, doc.sibling_index(n), parent_tag))
        })
        .collect()
}

fn tag_population(doc: &Document) -> std::collections::HashSet<String> {
    doc.descendants(doc.root())
        .filter_map(|n| doc.tag_name(n).map(String::from))
        .collect()
}

/// The Dalvi'09-style inducer: weak fragment + survival-probability ranking.
#[derive(Debug, Clone)]
pub struct TreeEditInducer {
    /// The learned (or default) change model used for ranking.
    pub model: ChangeModel,
    /// How many candidates to return.
    pub k: usize,
}

impl TreeEditInducer {
    /// Creates an inducer with a learned model.
    pub fn new(model: ChangeModel, k: usize) -> Self {
        TreeEditInducer { model, k: k.max(1) }
    }

    /// Induces ranked candidate expressions selecting exactly `target`.
    ///
    /// The fragment is deliberately weaker than dsXPath: only `child` and
    /// `descendant` axes, at most one predicate per step, equality
    /// predicates only (no string functions, no sideways axes).
    pub fn induce(&self, doc: &Document, target: NodeId) -> Vec<Query> {
        let mut candidates: Vec<Query> = Vec::new();

        // Single-step candidates anchored directly on the target.
        for step in self.node_steps(doc, target, Axis::Descendant) {
            candidates.push(Query::new(vec![step]));
        }

        // Two-step candidates: anchor on an ancestor, then a child/descendant
        // step to the target.
        for anchor in doc.ancestors(target).take(6) {
            if anchor == doc.root() {
                continue;
            }
            for anchor_step in self.node_steps(doc, anchor, Axis::Descendant) {
                for target_step in self.node_steps(doc, target, Axis::Child) {
                    candidates.push(Query::new(vec![anchor_step.clone(), target_step]));
                }
                for target_step in self.node_steps(doc, target, Axis::Descendant) {
                    candidates.push(Query::new(vec![anchor_step.clone(), target_step]));
                }
            }
        }

        // Keep only accurate candidates and rank by survival probability.
        // One pooled context serves the whole accuracy filter.
        let mut cx = wi_xpath::EvalContext::new();
        let mut accurate: Vec<(Query, f64)> = candidates
            .into_iter()
            .filter(|q| evaluate_with(&mut cx, q, doc, doc.root()) == vec![target])
            .map(|q| {
                let p = self.model.survival_probability(&q);
                (q, p)
            })
            .collect();
        accurate.sort_by(|a, b| {
            b.1.total_cmp(&a.1)
                .then_with(|| a.0.to_string().cmp(&b.0.to_string()))
        });
        let mut seen = std::collections::HashSet::new();
        accurate.retain(|(q, _)| seen.insert(q.to_string()));
        accurate.truncate(self.k);
        accurate.into_iter().map(|(q, _)| q).collect()
    }

    /// Induces a [`TreeEditWrapper`] for a set of annotated targets: the
    /// top-ranked (highest survival probability) candidate per target,
    /// extracted as a union.
    pub fn induce_wrapper(&self, doc: &Document, targets: &[NodeId]) -> TreeEditWrapper {
        let mut sorted = targets.to_vec();
        doc.sort_document_order(&mut sorted);
        TreeEditWrapper {
            queries: sorted
                .iter()
                .filter_map(|&t| self.induce(doc, t).into_iter().next())
                .collect(),
        }
    }

    /// Candidate steps describing one node in the weak fragment: bare tag,
    /// tag with one attribute equality, or tag with a positional predicate.
    fn node_steps(&self, doc: &Document, node: NodeId, axis: Axis) -> Vec<Step> {
        let Some(tag) = doc.tag_name(node) else {
            return vec![Step::new(axis, NodeTest::Text)];
        };
        let mut steps = vec![Step::new(axis, NodeTest::tag(tag))];
        for (name, value) in doc.attributes(node) {
            if value.is_empty() {
                continue;
            }
            steps.push(
                Step::new(axis, NodeTest::tag(tag))
                    .with_predicate(Predicate::attr_equals(name, value)),
            );
        }
        steps.push(
            Step::new(axis, NodeTest::tag(tag))
                .with_predicate(Predicate::Position(doc.sibling_index(node) as u32)),
        );
        steps
    }
}

/// The applied form of the tree-edit baseline: the survival-ranked top
/// expression of each annotated target.
#[derive(Debug, Clone)]
pub struct TreeEditWrapper {
    /// One top-ranked expression per target, in document order of the
    /// targets (targets for which no accurate candidate exists are skipped).
    pub queries: Vec<Query>,
}

impl TreeEditWrapper {
    /// The textual form of the wrapper (expressions joined by ` | `).
    pub fn expression(&self) -> String {
        self.queries
            .iter()
            .map(|q| q.to_string())
            .collect::<Vec<_>>()
            .join(" | ")
    }
}

impl Extractor for TreeEditWrapper {
    fn extract_with(
        &self,
        cx: &mut wi_xpath::EvalContext,
        doc: &Document,
        context: NodeId,
    ) -> Result<Vec<NodeId>, ExtractError> {
        extract_union(cx, &self.queries, doc, context)
    }

    fn describe(&self) -> String {
        self.expression()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wi_dom::parse_html;
    use wi_xpath::evaluate;

    fn page(extra_class: &str) -> Document {
        parse_html(&format!(
            r#"<html><body>
              <div id="nav"><a href="/">home</a></div>
              <div id="content" class="{extra_class}">
                <h4 class="inline">Director:</h4>
                <span class="name" itemprop="name">Martin Scorsese</span>
              </div>
            </body></html>"#
        ))
        .unwrap()
    }

    #[test]
    fn learns_change_probabilities_from_snapshots() {
        let a = page("main20");
        let b = page("main16"); // class changed
        let c = page("main16");
        let model = ChangeModel::learn(&[&a, &b, &c]);
        assert!(model.p_class_change > 0.0);
        assert!(model.p_id_change <= model.p_class_change + 1e-9);
        assert!(model.p_tag_change < 0.2);
    }

    #[test]
    fn default_model_for_insufficient_data() {
        let a = page("x");
        let m = ChangeModel::learn(&[&a]);
        assert!((m.p_position_change - 0.25).abs() < 1e-9);
    }

    #[test]
    fn induces_accurate_ranked_candidates() {
        let doc = page("main");
        let span = doc.elements_by_tag("span")[0];
        let inducer = TreeEditInducer::new(ChangeModel::default(), 10);
        let result = inducer.induce(&doc, span);
        assert!(!result.is_empty());
        for q in &result {
            assert_eq!(evaluate(q, &doc, doc.root()), vec![span], "{q}");
            // Weak fragment only.
            assert!(q
                .steps
                .iter()
                .all(|s| matches!(s.axis, Axis::Child | Axis::Descendant)));
            assert!(q.steps.iter().all(|s| s.predicates.len() <= 1));
        }
        // Attribute-anchored candidates outrank position-anchored ones under
        // the default model.
        let first = result[0].to_string();
        assert!(first.contains("@"), "unexpected top candidate {first}");
        assert!(
            !result[0]
                .steps
                .iter()
                .any(|s| s.predicates.iter().any(Predicate::is_positional)),
            "top candidate must not rely on positions: {first}"
        );
    }

    #[test]
    fn induced_wrapper_extracts_through_the_trait() {
        let doc = page("main");
        let span = doc.elements_by_tag("span")[0];
        let inducer = TreeEditInducer::new(ChangeModel::default(), 5);
        let wrapper = inducer.induce_wrapper(&doc, &[span]);
        assert_eq!(wrapper.queries.len(), 1);
        assert_eq!(wrapper.extract_root(&doc).unwrap(), vec![span]);
        assert_eq!(wrapper.describe(), wrapper.expression());
    }

    #[test]
    fn survival_probability_ordering() {
        let model = ChangeModel::default();
        let by_id = wi_xpath::parse_query(r#"descendant::div[@id="content"]"#).unwrap();
        let by_class = wi_xpath::parse_query(r#"descendant::div[@class="main"]"#).unwrap();
        let by_pos = wi_xpath::parse_query("descendant::div[3]").unwrap();
        let long =
            wi_xpath::parse_query(r#"descendant::div[@id="content"]/child::div[2]/child::span[1]"#)
                .unwrap();
        let p_id = model.survival_probability(&by_id);
        let p_class = model.survival_probability(&by_class);
        let p_pos = model.survival_probability(&by_pos);
        let p_long = model.survival_probability(&long);
        assert!(p_id > p_class);
        assert!(p_class > p_pos);
        assert!(p_long < p_id);
        assert!((0.0..=1.0).contains(&p_long));
    }
}
