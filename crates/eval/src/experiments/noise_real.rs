//! Section 6.4, "Real-Life Noise" — inducing wrappers from the annotations of
//! a (simulated) named-entity recogniser over product-listing pages, and
//! checking whether the top-ranked expression recovers the intended entity
//! list despite the annotation noise.

use crate::report::{pct, render_table};
use crate::scale::Scale;
use wi_induction::config::TextPolicy;
use wi_induction::{induce, InductionConfig, Sample};
use wi_webgen::datasets::ner_pages;
use wi_webgen::date::Day;
use wi_webgen::ner::{annotate_listing_page, EntityKind, NerConfig};
use wi_webgen::site::PageKind;
use wi_xpath::{evaluate_with, EvalContext};

/// Result of the NER-noise experiment on one page.
#[derive(Debug, Clone)]
pub struct NerPageResult {
    /// Site id.
    pub site: String,
    /// The entity kind annotated.
    pub entity: String,
    /// Negative noise of the NER annotations.
    pub negative_noise: f64,
    /// Positive noise of the NER annotations.
    pub positive_noise: f64,
    /// Whether the top-ranked induced expression selects exactly the true
    /// entity nodes.
    pub recovered: bool,
    /// The induced expression.
    pub expression: String,
}

/// Summary over all pages.
#[derive(Debug, Clone)]
pub struct NerReport {
    /// Per-page results.
    pub pages: Vec<NerPageResult>,
    /// Average negative noise.
    pub avg_negative: f64,
    /// Average positive noise.
    pub avg_positive: f64,
    /// Fraction of pages where the intended set was recovered exactly.
    pub recovered_fraction: f64,
}

/// Runs the real-life-noise experiment.
pub fn run(scale: &Scale) -> NerReport {
    let sites = ner_pages(scale.ner_pages);
    let ner_config = NerConfig::default();
    let mut pages = Vec::new();
    let mut cx = EvalContext::new();

    for (i, site) in sites.iter().enumerate() {
        let kind = EntityKind::ALL[i % EntityKind::ALL.len()];
        let (doc, annotation) =
            annotate_listing_page(site, i as u64, kind, &ner_config, 9000 + i as u64);
        if annotation.truth.is_empty() || annotation.annotated.is_empty() {
            continue;
        }
        let view = site.page_view(i as u64, Day(0), PageKind::Listing);
        let config = InductionConfig::default()
            .with_k(scale.k)
            .with_text_policy(TextPolicy::TemplateOnly(view.data.template_labels()));
        let sample = Sample::from_root(&doc, &annotation.annotated);
        let induced = induce(&[sample], &config);
        let (recovered, expression) = match induced.first() {
            Some(top) => {
                let mut selected = evaluate_with(&mut cx, &top.query, &doc, doc.root());
                doc.sort_document_order(&mut selected);
                let mut truth = annotation.truth.clone();
                doc.sort_document_order(&mut truth);
                (selected == truth, top.query.to_string())
            }
            None => (false, "(induction failed)".to_string()),
        };
        pages.push(NerPageResult {
            site: site.id.clone(),
            entity: format!("{kind:?}"),
            negative_noise: annotation.negative_noise,
            positive_noise: annotation.positive_noise,
            recovered,
            expression,
        });
    }

    let n = pages.len().max(1) as f64;
    NerReport {
        avg_negative: pages.iter().map(|p| p.negative_noise).sum::<f64>() / n,
        avg_positive: pages.iter().map(|p| p.positive_noise).sum::<f64>() / n,
        recovered_fraction: pages.iter().filter(|p| p.recovered).count() as f64 / n,
        pages,
    }
}

/// Renders the report.
pub fn render(scale: &Scale) -> String {
    let report = run(scale);
    let rows: Vec<Vec<String>> = report
        .pages
        .iter()
        .map(|p| {
            vec![
                p.site.clone(),
                p.entity.clone(),
                pct(p.negative_noise),
                pct(p.positive_noise),
                if p.recovered { "yes" } else { "NO" }.to_string(),
                p.expression.clone(),
            ]
        })
        .collect();
    format!(
        "== Section 6.4: real-life NER noise ==\navg negative noise {} | avg positive noise {} | intended set recovered on {} of pages\n{}",
        pct(report.avg_negative),
        pct(report.avg_positive),
        pct(report.recovered_fraction),
        render_table(
            &["site", "entity", "neg noise", "pos noise", "recovered", "top expression"],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ner_experiment_recovers_most_pages() {
        let mut scale = Scale::tiny();
        scale.ner_pages = 3;
        let report = run(&scale);
        assert!(!report.pages.is_empty());
        assert!(report.avg_negative >= 0.0);
        assert!(report.recovered_fraction >= 0.0);
        assert!(render(&scale).contains("NER"));
    }
}
