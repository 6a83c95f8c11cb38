//! Figure 7 — noise resistance: the fraction of samples for which induction
//! with noisy annotations returns the *same top-ranked expression* as
//! induction from the clean annotations, for the four noise models N1–N4 at
//! increasing intensities.

use super::induction_config_for;
use crate::report::{pct, render_table};
use crate::scale::Scale;
use wi_induction::{induce, Sample};
use wi_webgen::datasets::{negative_noise_samples, positive_noise_samples};
use wi_webgen::date::Day;
use wi_webgen::noise::{apply_noise, NoiseKind};
use wi_webgen::vocab::mix_seed;

/// Result row: one noise kind at one intensity.
#[derive(Debug, Clone)]
pub struct NoisePoint {
    /// The noise model.
    pub kind: String,
    /// The intensity (fraction of the target set).
    pub intensity: f64,
    /// Fraction of samples whose top-ranked expression is identical with and
    /// without noise.
    pub identical: f64,
    /// Number of samples evaluated.
    pub samples: usize,
}

/// Runs the Figure 7 experiment.
pub fn run(scale: &Scale) -> Vec<NoisePoint> {
    let negative_tasks = negative_noise_samples(scale.negative_noise_samples);
    let positive_tasks = positive_noise_samples(scale.positive_noise_samples);
    let mut out = Vec::new();

    for &kind in NoiseKind::ALL {
        let tasks = if kind.is_negative() {
            &negative_tasks
        } else {
            &positive_tasks
        };
        for &intensity in &scale.noise_intensities {
            let mut identical = 0usize;
            let mut total = 0usize;
            for (i, task) in tasks.iter().enumerate() {
                let (doc, targets) = task.page_with_targets(Day(0));
                if targets.len() < 3 {
                    continue;
                }
                let config = induction_config_for(task, scale.k);
                let clean_sample = Sample::from_root(&doc, &targets);
                let clean = induce(&[clean_sample], &config);
                let Some(clean_top) = clean.first() else {
                    continue;
                };
                let noisy_targets = apply_noise(
                    &doc,
                    &targets,
                    kind,
                    intensity,
                    mix_seed(&[i as u64, (intensity * 100.0) as u64, kind as u64]),
                );
                let noisy_sample = Sample::from_root(&doc, &noisy_targets);
                let noisy = induce(&[noisy_sample], &config);
                total += 1;
                if let Some(noisy_top) = noisy.first() {
                    if noisy_top.query == clean_top.query {
                        identical += 1;
                    }
                }
            }
            out.push(NoisePoint {
                kind: kind.label().to_string(),
                intensity,
                identical: identical as f64 / total.max(1) as f64,
                samples: total,
            });
        }
    }
    out
}

/// Renders the Figure 7 report.
pub fn render(scale: &Scale) -> String {
    let points = run(scale);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.kind.clone(),
                format!("{:.0}%", p.intensity * 100.0),
                pct(p.identical),
                p.samples.to_string(),
            ]
        })
        .collect();
    format!(
        "== Figure 7: identical induction results under annotation noise ==\n{}",
        render_table(
            &["noise model", "intensity", "identical results", "samples"],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale() -> Scale {
        let mut s = Scale::tiny();
        s.negative_noise_samples = 4;
        s.positive_noise_samples = 3;
        s
    }

    #[test]
    fn noise_experiment_produces_all_points() {
        let points = run(&scale());
        assert_eq!(points.len(), 4 * 4);
        for p in &points {
            assert!((0.0..=1.0).contains(&p.identical));
        }
    }

    #[test]
    fn positive_random_noise_is_mostly_harmless() {
        // The paper's headline noise claim: random positive noise barely
        // changes the induced wrapper even at high intensities.
        let points = run(&scale());
        let n4_high = points
            .iter()
            .find(|p| p.kind.starts_with("N4") && (p.intensity - 0.7).abs() < 1e-9)
            .unwrap();
        let n1_high = points
            .iter()
            .find(|p| p.kind.starts_with("N1") && (p.intensity - 0.7).abs() < 1e-9)
            .unwrap();
        assert!(
            n4_high.identical >= n1_high.identical,
            "N4@0.7 {} should be at least N1@0.7 {}",
            n4_high.identical,
            n1_high.identical
        );
    }

    #[test]
    fn render_contains_all_models() {
        let text = render(&scale());
        for label in ["N1", "N2", "N3", "N4"] {
            assert!(text.contains(label));
        }
    }
}
