//! Query instances and the paper's ranking order.
//!
//! A *query instance* `q = ⟨p, t+, f+, f−⟩` couples an XPath expression with
//! the counts it achieves on the current samples.  Instances are ranked by
//! the order `<` of Section 4: `q < q'` iff `F0.5(q) > F0.5(q')`, or the
//! F-scores tie and `score(q) < score(q')`.  Ties beyond that are broken by
//! the textual form of the expression so that rankings are deterministic
//! across runs.

use crate::fscore::Counts;
use crate::params::ScoringParams;
use crate::score::score_query;
use std::cmp::Ordering;
use wi_xpath::Query;

/// A query together with its accuracy counts and cached robustness score.
#[derive(Debug, Clone)]
pub struct QueryInstance {
    /// The XPath expression.
    pub query: Query,
    /// Accuracy counts on the samples the instance was evaluated against.
    pub counts: Counts,
    /// The robustness score of [`Self::query`] (smaller is better), cached at
    /// construction time.
    pub score: f64,
}

impl QueryInstance {
    /// Builds an instance, computing and caching the robustness score.
    pub fn new(query: Query, counts: Counts, params: &ScoringParams) -> Self {
        let score = score_query(&query, params);
        QueryInstance {
            query,
            counts,
            score,
        }
    }

    /// Builds an instance from an **already computed** robustness score.
    ///
    /// The caller must pass exactly `score_query(&query, params)` — the
    /// induction hot loop computes that value once for its admission
    /// pre-check and hands it in here so the score is never derived twice
    /// for the same candidate.
    pub fn from_parts(query: Query, counts: Counts, score: f64) -> Self {
        QueryInstance {
            query,
            counts,
            score,
        }
    }

    /// Builds the paper's initial "empty query" instance ε = ⟨ε, 1, 0, 0⟩.
    pub fn epsilon(params: &ScoringParams) -> Self {
        QueryInstance::new(Query::empty(), Counts::new(1, 0, 0), params)
    }

    /// The F0.5 accuracy of the instance.
    pub fn f05(&self) -> f64 {
        self.counts.f_05()
    }

    /// True positives.
    pub fn tp(&self) -> u32 {
        self.counts.tp
    }

    /// False positives.
    pub fn fp(&self) -> u32 {
        self.counts.fp
    }

    /// False negatives.
    pub fn fne(&self) -> u32 {
        self.counts.fne
    }

    /// Returns `true` if the instance selects exactly the annotated nodes.
    pub fn is_exact(&self) -> bool {
        self.counts.is_exact()
    }

    /// Replaces the counts (e.g. after re-evaluating the query against a
    /// different target set) keeping the cached score.
    pub fn with_counts(&self, counts: Counts) -> Self {
        QueryInstance {
            query: self.query.clone(),
            counts,
            score: self.score,
        }
    }
}

/// The paper's ranking order on query instances.
///
/// Returns `Ordering::Less` when `a` is ranked strictly better than `b`
/// (`a < b` in the paper's notation).
pub fn rank_order(a: &QueryInstance, b: &QueryInstance) -> Ordering {
    match b.f05().total_cmp(&a.f05()) {
        Ordering::Equal => match a.score.total_cmp(&b.score) {
            Ordering::Equal => {
                // Deterministic final tie break: shorter queries first, then
                // lexicographic on the rendered expression.
                match a.query.len().cmp(&b.query.len()) {
                    Ordering::Equal => a.query.to_string().cmp(&b.query.to_string()),
                    other => other,
                }
            }
            other => other,
        },
        other => other,
    }
}

/// Returns `true` if `a` is strictly better ranked than `b`.
pub fn strictly_better(a: &QueryInstance, b: &QueryInstance) -> bool {
    rank_order(a, b) == Ordering::Less
}

/// [`rank_order`] with the candidate side passed as parts, so a hot loop
/// can rank a prospective instance against a stored one **without
/// materializing it** (no query clone, no score recomputation): the
/// rendered expression is produced by `a_render` **only** on a complete
/// F-score/score/length tie.  The induction inner loop ranks millions of
/// prospective combinations that lose (or win) on the score comparison
/// alone; deferring the render means those never materialize the candidate
/// expression at all.
///
/// `a_f05` and `a_score` must be the candidate's `counts.f_05()` and
/// `score_query` values; the comparison is exactly
/// `rank_order(&QueryInstance::from_parts(query, …), b)` for the query
/// `a_render` describes.
pub fn rank_order_lazy(
    a_f05: f64,
    a_score: f64,
    a_len: usize,
    a_render: impl FnOnce() -> String,
    b: &QueryInstance,
) -> Ordering {
    match b.f05().total_cmp(&a_f05) {
        Ordering::Equal => match a_score.total_cmp(&b.score) {
            Ordering::Equal => match a_len.cmp(&b.query.len()) {
                Ordering::Equal => a_render().cmp(&b.query.to_string()),
                other => other,
            },
            other => other,
        },
        other => other,
    }
}

/// Sorts a vector of instances into ranking order (best first) and removes
/// duplicate expressions, keeping the best-ranked occurrence.
pub fn sort_and_dedup(instances: &mut Vec<QueryInstance>) {
    instances.sort_by(rank_order);
    let mut seen = std::collections::HashSet::new();
    instances.retain(|q| seen.insert(q.query.to_string()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use wi_xpath::parse_query;

    fn instance(expr: &str, tp: u32, fp: u32, fne: u32) -> QueryInstance {
        QueryInstance::new(
            parse_query(expr).unwrap(),
            Counts::new(tp, fp, fne),
            &ScoringParams::paper_defaults(),
        )
    }

    #[test]
    fn accuracy_dominates_score() {
        // A perfectly accurate but expensive query beats a cheap inaccurate
        // one.
        let accurate = instance("child::div[3]/child::span[7]", 5, 0, 0);
        let cheap = instance(r#"descendant::span[@itemprop="name"]"#, 5, 3, 0);
        assert!(strictly_better(&accurate, &cheap));
    }

    #[test]
    fn score_breaks_f_ties() {
        let robust = instance(r#"descendant::span[@itemprop="name"]"#, 5, 0, 0);
        let fragile = instance("child::div[3]/child::span[7]", 5, 0, 0);
        assert!(strictly_better(&robust, &fragile));
        assert_eq!(rank_order(&robust, &fragile), Ordering::Less);
        assert_eq!(rank_order(&fragile, &robust), Ordering::Greater);
    }

    #[test]
    fn identical_instances_are_equal_in_rank() {
        let a = instance(r#"descendant::div[@id="x"]"#, 1, 0, 0);
        let b = instance(r#"descendant::div[@id="x"]"#, 1, 0, 0);
        assert_eq!(rank_order(&a, &b), Ordering::Equal);
    }

    #[test]
    fn epsilon_instance() {
        let eps = QueryInstance::epsilon(&ScoringParams::paper_defaults());
        assert!(eps.query.is_empty());
        assert_eq!(eps.tp(), 1);
        assert_eq!(eps.score, 0.0);
        assert!(eps.is_exact());
    }

    #[test]
    fn sort_and_dedup_keeps_best() {
        let mut v = vec![
            instance("descendant::div", 1, 1, 0),
            instance(r#"descendant::div[@id="x"]"#, 1, 0, 0),
            instance("descendant::div", 1, 1, 0),
            instance(r#"descendant::span[@class="y"]"#, 1, 0, 0),
        ];
        sort_and_dedup(&mut v);
        assert_eq!(v.len(), 3);
        // Exact, cheap instances first.
        assert_eq!(v[0].query.to_string(), r#"descendant::div[@id="x"]"#);
        assert!(
            v.iter()
                .filter(|q| q.query.to_string() == "descendant::div")
                .count()
                == 1
        );
    }

    #[test]
    fn with_counts_preserves_score() {
        let a = instance(r#"descendant::div[@id="x"]"#, 1, 0, 0);
        let b = a.with_counts(Counts::new(3, 1, 2));
        assert_eq!(a.score, b.score);
        assert_eq!(b.tp(), 3);
    }

    #[test]
    fn deterministic_tie_break_on_text() {
        let a = instance(r#"descendant::div[@id="a"]"#, 1, 0, 0);
        let b = instance(r#"descendant::div[@id="b"]"#, 1, 0, 0);
        // Same structure, same counts, same score — order must still be
        // stable and antisymmetric.
        let ab = rank_order(&a, &b);
        let ba = rank_order(&b, &a);
        assert_ne!(ab, Ordering::Equal);
        assert_eq!(ab, ba.reverse());
    }
}
