//! Scoring parameters (Section 4) and their default values (Section 6.3).

use std::collections::BTreeMap;
use wi_xpath::{Axis, StringFunction};

/// All constants of the robustness scoring function.
///
/// The defaults are exactly the values the paper reports in Section 6.3
/// ("Parameter Choices"): no per-tag specialisation (`c_node() = c_* = 1`,
/// `c_default = 10`), positional factor 20, no-function-penalty 15,
/// no-predicate-penalty 1000, decay δ = 2.5, plus the axis / attribute /
/// function tables reproduced below.
#[derive(Debug, Clone)]
pub struct ScoringParams {
    /// Decay factor δ applied as `δ^(i-1)` to the i-th step's score.
    pub decay: f64,
    /// Per-axis scores.
    pub axis_scores: BTreeMap<Axis, f64>,
    /// Score of an axis not present in `axis_scores`.
    pub axis_default: f64,
    /// Score of the `node()` node test.
    pub nodetest_node: f64,
    /// Score of the `*` node test.
    pub nodetest_any_element: f64,
    /// Score of the `text()` node test.
    pub nodetest_text: f64,
    /// Per-tag node test scores (empty by default).
    pub tag_scores: BTreeMap<String, f64>,
    /// Default score of a tag node test not present in `tag_scores`.
    pub tag_default: f64,
    /// Per-attribute-name scores (`s_a`).
    pub attribute_scores: BTreeMap<String, f64>,
    /// Score of an attribute name not present in `attribute_scores`.
    pub attribute_default: f64,
    /// Per-function scores (`s_f`).
    pub function_scores: BTreeMap<StringFunction, f64>,
    /// Score of the `last()` construct in `[last()-n]` predicates.
    pub last_score: f64,
    /// Cost of accessing `normalize-space(.)` (`s_text`).
    pub text_access_score: f64,
    /// Positional factor `c_pos`: a positional predicate `[n]` costs
    /// `c_pos · n`.
    pub positional_factor: f64,
    /// Length factor `c_f`: string constants cost `c_f · length(w)`.
    pub length_factor: f64,
    /// Penalty `y` added when an attribute is tested for existence only
    /// (`[@a]`, i.e. no comparison function).
    pub no_function_penalty: f64,
    /// Penalty added to every step that carries no predicate at all.
    pub no_predicate_penalty: f64,
}

impl Default for ScoringParams {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

impl ScoringParams {
    /// The parameter values reported in Section 6.3 of the paper.
    pub fn paper_defaults() -> Self {
        let mut axis_scores = BTreeMap::new();
        axis_scores.insert(Axis::Descendant, 1.0);
        axis_scores.insert(Axis::Attribute, 1.0);
        axis_scores.insert(Axis::FollowingSibling, 1.0);
        axis_scores.insert(Axis::Child, 10.0);
        axis_scores.insert(Axis::Parent, 10.0);
        axis_scores.insert(Axis::Ancestor, 20.0);
        axis_scores.insert(Axis::PrecedingSibling, 25.0);

        let mut attribute_scores = BTreeMap::new();
        attribute_scores.insert("id".to_string(), 1.0);
        attribute_scores.insert("type".to_string(), 1.0);
        attribute_scores.insert("title".to_string(), 1.0);
        attribute_scores.insert("itemprop".to_string(), 1.0);
        attribute_scores.insert("class".to_string(), 5.0);
        attribute_scores.insert("for".to_string(), 10.0);
        attribute_scores.insert("name".to_string(), 50.0);

        let mut function_scores = BTreeMap::new();
        function_scores.insert(StringFunction::Equals, 1.0);
        function_scores.insert(StringFunction::Contains, 5.0);
        function_scores.insert(StringFunction::StartsWith, 5.0);
        function_scores.insert(StringFunction::EndsWith, 5.0);

        ScoringParams {
            decay: 2.5,
            axis_scores,
            axis_default: 100.0,
            nodetest_node: 1.0,
            nodetest_any_element: 1.0,
            nodetest_text: 1.0,
            tag_scores: BTreeMap::new(),
            tag_default: 10.0,
            attribute_scores,
            attribute_default: 1000.0,
            function_scores,
            last_score: 20.0,
            text_access_score: 5.0,
            positional_factor: 20.0,
            length_factor: 1.0,
            no_function_penalty: 15.0,
            no_predicate_penalty: 1000.0,
        }
    }

    /// A "flat" parameter set in which every constant is 1 and all penalties
    /// are 0.  This is the scoring used in the NP-hardness construction
    /// (Theorem 1: hardness holds already for a plus-compositional scoring
    /// with all scores set to 1) and is handy for ablation benchmarks.
    pub fn uniform() -> Self {
        ScoringParams {
            decay: 1.0,
            axis_scores: BTreeMap::new(),
            axis_default: 1.0,
            nodetest_node: 1.0,
            nodetest_any_element: 1.0,
            nodetest_text: 1.0,
            tag_scores: BTreeMap::new(),
            tag_default: 1.0,
            attribute_scores: BTreeMap::new(),
            attribute_default: 1.0,
            function_scores: BTreeMap::new(),
            last_score: 1.0,
            text_access_score: 1.0,
            positional_factor: 1.0,
            length_factor: 0.0,
            no_function_penalty: 0.0,
            no_predicate_penalty: 0.0,
        }
    }

    /// Looks up the score of an axis.
    pub fn axis_score(&self, axis: Axis) -> f64 {
        self.axis_scores
            .get(&axis)
            .copied()
            .unwrap_or(self.axis_default)
    }

    /// Looks up the score of an attribute name.
    pub fn attribute_score(&self, name: &str) -> f64 {
        self.attribute_scores
            .get(name)
            .copied()
            .unwrap_or(self.attribute_default)
    }

    /// Looks up the score of a string function.
    pub fn function_score(&self, f: StringFunction) -> f64 {
        self.function_scores.get(&f).copied().unwrap_or(1.0)
    }

    /// Looks up the score of a tag node test.
    pub fn tag_score(&self, tag: &str) -> f64 {
        self.tag_scores
            .get(tag)
            .copied()
            .unwrap_or(self.tag_default)
    }

    /// Returns a copy with a different decay factor (used by the decay
    /// ablation experiment, which sweeps δ between 0.5 and 5 as the paper
    /// describes).
    pub fn with_decay(mut self, decay: f64) -> Self {
        self.decay = decay;
        self
    }

    /// Returns a copy with the no-predicate penalty replaced (ablation).
    pub fn with_no_predicate_penalty(mut self, penalty: f64) -> Self {
        self.no_predicate_penalty = penalty;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_6_3() {
        let p = ScoringParams::paper_defaults();
        assert_eq!(p.decay, 2.5);
        assert_eq!(p.axis_score(Axis::Descendant), 1.0);
        assert_eq!(p.axis_score(Axis::Child), 10.0);
        assert_eq!(p.axis_score(Axis::Ancestor), 20.0);
        assert_eq!(p.axis_score(Axis::PrecedingSibling), 25.0);
        assert_eq!(p.attribute_score("id"), 1.0);
        assert_eq!(p.attribute_score("class"), 5.0);
        assert_eq!(p.attribute_score("name"), 50.0);
        assert_eq!(p.attribute_score("data-bogus"), 1000.0);
        assert_eq!(p.function_score(StringFunction::Equals), 1.0);
        assert_eq!(p.function_score(StringFunction::Contains), 5.0);
        assert_eq!(p.positional_factor, 20.0);
        assert_eq!(p.no_function_penalty, 15.0);
        assert_eq!(p.no_predicate_penalty, 1000.0);
        assert_eq!(p.tag_score("div"), 10.0);
        assert_eq!(p.nodetest_node, 1.0);
    }

    #[test]
    fn uniform_params_are_flat() {
        let p = ScoringParams::uniform();
        assert_eq!(p.axis_score(Axis::Child), p.axis_score(Axis::Descendant));
        assert_eq!(p.attribute_score("id"), p.attribute_score("class"));
        assert_eq!(p.no_predicate_penalty, 0.0);
        assert_eq!(p.decay, 1.0);
    }

    #[test]
    fn with_modifiers() {
        let p = ScoringParams::paper_defaults().with_decay(0.5);
        assert_eq!(p.decay, 0.5);
        let p = p.with_no_predicate_penalty(0.0);
        assert_eq!(p.no_predicate_penalty, 0.0);
    }

    #[test]
    fn params_are_cloneable_and_debuggable() {
        let p = ScoringParams::paper_defaults();
        let q = p.clone();
        assert!(!format!("{:?}", p).is_empty());
        assert_eq!(q.decay, p.decay);
    }
}
