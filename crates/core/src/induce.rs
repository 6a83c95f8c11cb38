//! `induce(S, K)` — Algorithm 3 of the paper: two-directional paths and
//! multiple samples.
//!
//! For every sample `⟨u_i, V_i⟩` the algorithm first checks whether some base
//! axis reaches all targets from the context node; if so a single
//! [`crate::induce_path`] run suffices (one-directional query).  Otherwise a
//! *two-directional* query is induced through the least common ancestor
//! `l_i` of the targets (or of targets ∪ {u_i}): the tail from `l_i` to the
//! targets is induced first and seeded into the `best` table, then the head
//! from `u_i` to `l_i` is induced on top of it, with the accuracy of all
//! intermediate instances measured against the real targets.
//!
//! Finally, the per-sample candidate sets are aggregated: every candidate is
//! re-evaluated on **all** samples, its counts are summed, and the best-K
//! instances under the paper's ranking are returned.

use crate::config::InductionConfig;
use crate::induce_path::{induce_path_with, Tables};
use crate::sample::{counts_against, Sample};
use crate::spine::{common_base_axis, spine};
use wi_dom::NodeId;
use wi_scoring::{rank_order, Counts, QueryInstance};
use wi_xpath::PrefixEvaluator;

/// Induces the best-K ranked query instances for a set of samples.
///
/// Returns an empty vector when no sample is well-formed or no candidate
/// expression could be generated (e.g. targets unreachable from the context).
///
/// Per-sample induction fans out over the available cores through
/// [`crate::fan_out`] (one candidate engine per sample), and all
/// candidate evaluation — the Algorithm 2 tables and the aggregation
/// re-scoring — runs through the shared-prefix trie engine.  The results are
/// byte-identical to [`crate::reference::induce_reference`], the retained
/// naive path.
pub fn induce(samples: &[Sample<'_>], config: &InductionConfig) -> Vec<QueryInstance> {
    let usable: Vec<&Sample<'_>> = samples.iter().filter(|s| s.is_well_formed()).collect();
    if usable.is_empty() {
        return Vec::new();
    }

    // One candidate engine per sample; the per-sample results come back in
    // input order, so the aggregated candidate list is the sequential one.
    let all_candidates = crate::fan_out(&usable, || (), |_, s| induce_sample(s, config))
        .into_iter()
        .flatten()
        .collect();
    aggregate(&usable, all_candidates, config)
}

/// Induces candidates for a single sample (Lines 2–15 of Algorithm 3).
pub fn induce_sample(sample: &Sample<'_>, config: &InductionConfig) -> Vec<QueryInstance> {
    let mut eval = PrefixEvaluator::new(sample.doc);
    induce_sample_with(&mut eval, sample, config)
}

/// [`induce_sample`], evaluating candidates through the caller's engine.
///
/// Telemetry: each call counts into `wi_induce_samples_total`, its wall
/// time lands in the `wi_induce_sample_latency_us` histogram, and — when
/// tracing is on — an `induce.sample` span records the fan-out timing.
pub fn induce_sample_with(
    eval: &mut PrefixEvaluator<'_>,
    sample: &Sample<'_>,
    config: &InductionConfig,
) -> Vec<QueryInstance> {
    let started = std::time::Instant::now();
    let result = induce_sample_inner(eval, sample, config);
    let metrics = crate::telemetry::induce_metrics();
    metrics.samples.inc();
    metrics.sample_latency_us.observe_us(started.elapsed());
    wi_obs::record_span(
        "induce.sample",
        started,
        &[
            ("targets", sample.targets.len() as u64),
            ("instances", result.len() as u64),
        ],
    );
    result
}

fn induce_sample_inner(
    eval: &mut PrefixEvaluator<'_>,
    sample: &Sample<'_>,
    config: &InductionConfig,
) -> Vec<QueryInstance> {
    let doc = sample.doc;
    let u = sample.context;
    let targets = sample.targets;

    // Degenerate case: the only target is the context node itself.
    if targets.len() == 1 && targets[0] == u {
        return vec![QueryInstance::epsilon(&config.params)];
    }

    if let Some(axis) = common_base_axis(doc, u, targets) {
        let mut tables = Tables::init(doc, u, targets, axis, config);
        return induce_path_with(eval, u, targets, axis, &mut tables, config);
    }

    // Two-directional query via the least common ancestor.
    let mut lca = match doc.least_common_ancestor(targets) {
        Some(l) => l,
        None => return Vec::new(),
    };
    if common_base_axis(doc, u, &[lca]).is_none() || lca == u {
        let mut with_context: Vec<NodeId> = targets.to_vec();
        with_context.push(u);
        lca = match doc.least_common_ancestor(&with_context) {
            Some(l) => l,
            None => return Vec::new(),
        };
    }
    if lca == u {
        // The context node itself is the common ancestor: the targets are
        // plain descendants after all (can happen when `targets` contained
        // `u`); retry one-directionally without the context node.
        let filtered: Vec<NodeId> = targets.iter().copied().filter(|&t| t != u).collect();
        if let Some(axis) = common_base_axis(doc, u, &filtered) {
            let mut tables = Tables::init(doc, u, &filtered, axis, config);
            return induce_path_with(eval, u, &filtered, axis, &mut tables, config);
        }
        return Vec::new();
    }

    // Tail: from the LCA down (or sideways) to the targets.
    let Some(tail_axis) = common_base_axis(doc, lca, targets) else {
        return Vec::new();
    };
    let mut tail_tables = Tables::init(doc, lca, targets, tail_axis, config);
    let tail = induce_path_with(eval, lca, targets, tail_axis, &mut tail_tables, config);
    if tail.is_empty() {
        return Vec::new();
    }

    // Head: from the context node to the LCA, with best(lca) seeded by the
    // tail instances and all intermediate accuracies measured against the
    // real targets.
    let Some(head_axis) = common_base_axis(doc, u, &[lca]) else {
        return Vec::new();
    };
    let mut tables = Tables::init(doc, u, &[lca], head_axis, config);
    tables.seed_best(lca, tail);
    if let Some(head_spine) = spine(doc, head_axis, u, lca) {
        let without_lca: Vec<NodeId> = head_spine.iter().copied().filter(|&n| n != lca).collect();
        tables.seed_targets(&without_lca, targets);
    }
    induce_path_with(eval, u, &[lca], head_axis, &mut tables, config)
}

/// Aggregates per-sample candidates over all samples (Line 16 of
/// Algorithm 3): each distinct expression is re-evaluated on every sample,
/// its counts summed, and the global best-K returned.
///
/// With the shared engine, one trie per sample memoizes the prefixes all
/// candidates share, so the `candidates × samples` re-evaluation touches
/// each distinct `(sample, prefix)` pair once.
fn aggregate(
    samples: &[&Sample<'_>],
    candidates: Vec<QueryInstance>,
    config: &InductionConfig,
) -> Vec<QueryInstance> {
    let started = std::time::Instant::now();
    let mut engines: Vec<PrefixEvaluator<'_>> = if samples.len() == 1 {
        Vec::new()
    } else {
        samples
            .iter()
            .map(|s| PrefixEvaluator::new(s.doc))
            .collect()
    };
    let mut seen = std::collections::HashSet::new();
    let mut rescored: Vec<QueryInstance> = Vec::new();
    for candidate in candidates {
        if !seen.insert(candidate.query.render()) {
            continue;
        }
        let counts = if samples.len() == 1 {
            candidate.counts
        } else {
            let mut total = Counts::default();
            for (s, engine) in samples.iter().zip(engines.iter_mut()) {
                let selected = engine.evaluate(s.context, &candidate.query);
                total = total.add(&counts_against(selected, s.targets));
            }
            total
        };
        rescored.push(QueryInstance::new(candidate.query, counts, &config.params));
    }
    rescored.sort_by(rank_order);
    rescored.truncate(config.k);
    for engine in engines.iter_mut() {
        crate::telemetry::flush_trie(engine.take_trie_stats());
    }
    wi_obs::record_span(
        "induce.aggregate",
        started,
        &[("samples", samples.len() as u64)],
    );
    rescored
}

#[cfg(test)]
mod tests {
    use super::*;
    use wi_dom::parse_html;
    use wi_dom::Document;
    use wi_xpath::evaluate;

    fn cfg() -> InductionConfig {
        InductionConfig::default()
    }

    fn movie_page(director: &str, extra_div: bool) -> Document {
        let extra = if extra_div {
            r#"<div class="promo"><span class="itemprop">ad</span></div>"#
        } else {
            ""
        };
        parse_html(&format!(
            r#"<html><body>
              <div class="header"><input name="q" type="text"></div>
              {extra}
              <div class="txt-block">
                <h4 class="inline">Director:</h4>
                <a href="/n"><span class="itemprop" itemprop="name">{director}</span></a>
              </div>
              <div class="txt-block">
                <h4 class="inline">Stars:</h4>
                <a href="/s"><span class="itemprop" itemprop="name">Someone Else</span></a>
              </div>
            </body></html>"#
        ))
        .unwrap()
    }

    fn director_node(doc: &Document, name: &str) -> NodeId {
        doc.descendants(doc.root())
            .find(|&n| doc.tag_name(n) == Some("span") && doc.normalized_text(n) == name)
            .unwrap()
    }

    #[test]
    fn induces_exact_single_node_wrapper() {
        let doc = movie_page("Martin Scorsese", false);
        let target = director_node(&doc, "Martin Scorsese");
        let targets = vec![target];
        let sample = Sample::from_root(&doc, &targets);
        let result = induce(&[sample], &cfg());
        assert!(!result.is_empty());
        let top = &result[0];
        assert!(top.is_exact());
        assert_eq!(evaluate(&top.query, &doc, doc.root()), vec![target]);
    }

    #[test]
    fn induced_wrapper_generalises_to_new_page_of_same_template() {
        let doc = movie_page("Martin Scorsese", false);
        let target = director_node(&doc, "Martin Scorsese");
        let targets = vec![target];
        let sample = Sample::from_root(&doc, &targets);
        // Only template labels may be used in text predicates — the setting
        // the paper's robustness experiments use (Section 6.2).
        let config = cfg().with_text_policy(crate::config::TextPolicy::TemplateOnly(vec![
            "Director:".to_string(),
            "Stars:".to_string(),
        ]));
        let result = induce(&[sample], &config);
        let top = &result[0];

        // Apply the induced wrapper to a *different* movie page following the
        // same template — it must select the (different) director, even
        // though an extra promo div shifted positions.
        let other = movie_page("Sofia Coppola", true);
        let expected = director_node(&other, "Sofia Coppola");
        let selected = evaluate(&top.query, &other, other.root());
        assert_eq!(
            selected,
            vec![expected],
            "wrapper {} did not transfer",
            top.query
        );
    }

    #[test]
    fn multiple_samples_sharpen_the_wrapper() {
        let doc1 = movie_page("Martin Scorsese", false);
        let doc2 = movie_page("Quentin Tarantino", true);
        let t1 = vec![director_node(&doc1, "Martin Scorsese")];
        let t2 = vec![director_node(&doc2, "Quentin Tarantino")];
        let samples = [Sample::from_root(&doc1, &t1), Sample::from_root(&doc2, &t2)];
        let result = induce(&samples, &cfg());
        assert!(!result.is_empty());
        let top = &result[0];
        // The aggregated counts cover both samples.
        assert_eq!(top.tp(), 2);
        assert_eq!(top.fp(), 0);
        assert_eq!(top.fne(), 0);
        // And the wrapper works on both pages.
        assert_eq!(evaluate(&top.query, &doc1, doc1.root()), t1);
        assert_eq!(evaluate(&top.query, &doc2, doc2.root()), t2);
    }

    #[test]
    fn negative_noise_is_generalised_away() {
        // Annotate 5 of 6 list entries (one missed in the middle — negative
        // noise): dsXPath cannot express "all but the third item", so the
        // induced wrapper generalises to the whole list.
        let doc = parse_html(
            r#"<body>
              <div id="main">
                <ul class="cast">
                  <li class="actor">Robert De Niro</li>
                  <li class="actor">Joe Pesci</li>
                  <li class="actor">Ray Liotta</li>
                  <li class="actor">Lorraine Bracco</li>
                  <li class="actor">Paul Sorvino</li>
                  <li class="actor">Frank Sivero</li>
                </ul>
              </div>
            </body>"#,
        )
        .unwrap();
        let lis = doc.elements_by_class("actor");
        let noisy: Vec<NodeId> = lis
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 2)
            .map(|(_, &n)| n)
            .collect();
        let sample = Sample::from_root(&doc, &noisy);
        let result = induce(&[sample], &cfg());
        let top = &result[0];
        let selected = evaluate(&top.query, &doc, doc.root());
        assert_eq!(
            selected.len(),
            6,
            "expected the full list from {}",
            top.query
        );
    }

    #[test]
    fn positive_random_noise_is_ignored() {
        // All four list items annotated plus one random unrelated node: the
        // precision-biased F0.5 keeps the list-only wrapper on top.
        let doc = parse_html(
            r#"<body>
              <div id="nav"><a href="/x">nav</a></div>
              <div id="main">
                <ul class="cast">
                  <li class="actor">A</li>
                  <li class="actor">B</li>
                  <li class="actor">C</li>
                  <li class="actor">D</li>
                </ul>
              </div>
            </body>"#,
        )
        .unwrap();
        let mut targets = doc.elements_by_class("actor");
        targets.push(doc.elements_by_tag("a")[0]); // positive noise
        let sample = Sample::from_root(&doc, &targets);
        let result = induce(&[sample], &cfg());
        let top = &result[0];
        let selected = evaluate(&top.query, &doc, doc.root());
        assert_eq!(
            selected.len(),
            4,
            "wrapper {} should select exactly the list",
            top.query
        );
        assert!(selected.iter().all(|&n| doc.tag_name(n) == Some("li")));
    }

    #[test]
    fn two_directional_induction_from_inner_context() {
        // Context is a node *inside* the page (the img); targets are in a
        // sibling subtree, so no base axis reaches them directly.
        let doc = parse_html(
            r#"<body>
              <div class="product">
                 <div class="photo"><img src="p.png"></div>
                 <div class="details">
                   <span class="price">9.99</span>
                 </div>
              </div>
            </body>"#,
        )
        .unwrap();
        let img = doc.elements_by_tag("img")[0];
        let price = doc.elements_by_class("price");
        let sample = Sample::new(&doc, img, &price);
        let result = induce(&[sample], &cfg());
        assert!(
            !result.is_empty(),
            "two-directional induction found nothing"
        );
        let top = &result[0];
        assert_eq!(evaluate(&top.query, &doc, img), price);
        // The query must go up first and then down.
        assert!(
            top.query.steps[0].axis == wi_xpath::Axis::Ancestor
                || top.query.steps[0].axis == wi_xpath::Axis::Parent
        );
    }

    #[test]
    fn empty_and_malformed_samples() {
        let doc = parse_html("<body><p>x</p></body>").unwrap();
        let empty: Vec<NodeId> = Vec::new();
        let sample = Sample::from_root(&doc, &empty);
        assert!(induce(&[sample], &cfg()).is_empty());
        assert!(induce(&[], &cfg()).is_empty());
    }

    #[test]
    fn context_equals_target() {
        let doc = parse_html("<body><p>x</p></body>").unwrap();
        let p = doc.elements_by_tag("p")[0];
        let targets = vec![p];
        let sample = Sample::new(&doc, p, &targets);
        let result = induce(&[sample], &cfg());
        assert_eq!(result.len(), 1);
        assert!(result[0].query.is_empty());
    }

    #[test]
    fn result_is_ranked_and_bounded() {
        let doc = movie_page("Martin Scorsese", false);
        let target = vec![director_node(&doc, "Martin Scorsese")];
        let sample = Sample::from_root(&doc, &target);
        let config = cfg().with_k(5);
        let result = induce(&[sample], &config);
        assert!(result.len() <= 5);
        for pair in result.windows(2) {
            assert_ne!(
                rank_order(&pair[1], &pair[0]),
                std::cmp::Ordering::Less,
                "results must be sorted best-first"
            );
        }
    }
}
