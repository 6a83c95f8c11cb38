//! Experiment scaling: full paper-sized runs vs. quick smoke runs.

/// How large an experiment run should be.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Number of single-node tasks (paper: 53).
    pub single_tasks: usize,
    /// Number of multi-node tasks (paper: 50).
    pub multi_tasks: usize,
    /// Number of negative-noise samples (paper: 100).
    pub negative_noise_samples: usize,
    /// Number of positive-noise samples (paper: 50).
    pub positive_noise_samples: usize,
    /// Number of NER pages (paper: 10).
    pub ner_pages: usize,
    /// Number of hotel template groups for the WEIR comparison (paper: 5).
    pub weir_sets: usize,
    /// Pages per hotel template group (paper: 10).
    pub weir_pages_per_set: usize,
    /// Snapshot interval in days for the robustness runs (paper: 20).
    pub snapshot_interval: i64,
    /// Best-K bound used for induction (paper: top-10 reported).
    pub k: usize,
    /// Noise intensities evaluated in Figure 7.
    pub noise_intensities: [f64; 4],
}

impl Scale {
    /// The paper-sized configuration.
    pub fn full() -> Scale {
        Scale {
            single_tasks: 53,
            multi_tasks: 50,
            negative_noise_samples: 100,
            positive_noise_samples: 50,
            ner_pages: 10,
            weir_sets: 5,
            weir_pages_per_set: 10,
            snapshot_interval: 20,
            k: 10,
            noise_intensities: [0.1, 0.3, 0.5, 0.7],
        }
    }

    /// A reduced configuration for benches, CI and smoke tests.
    pub fn quick() -> Scale {
        Scale {
            single_tasks: 10,
            multi_tasks: 8,
            negative_noise_samples: 12,
            positive_noise_samples: 8,
            ner_pages: 4,
            weir_sets: 2,
            weir_pages_per_set: 5,
            snapshot_interval: 60,
            k: 5,
            noise_intensities: [0.1, 0.3, 0.5, 0.7],
        }
    }

    /// An even smaller configuration for unit tests of the harness itself.
    pub fn tiny() -> Scale {
        Scale {
            single_tasks: 3,
            multi_tasks: 3,
            negative_noise_samples: 4,
            positive_noise_samples: 3,
            ner_pages: 2,
            weir_sets: 1,
            weir_pages_per_set: 4,
            snapshot_interval: 120,
            k: 3,
            noise_intensities: [0.1, 0.3, 0.5, 0.7],
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_matches_paper_sizes() {
        let s = Scale::full();
        assert_eq!(s.single_tasks, 53);
        assert_eq!(s.multi_tasks, 50);
        assert_eq!(s.negative_noise_samples, 100);
        assert_eq!(s.positive_noise_samples, 50);
        assert_eq!(s.ner_pages, 10);
        assert_eq!(s.weir_sets, 5);
        assert_eq!(s.snapshot_interval, 20);
    }

    #[test]
    fn quick_and_tiny_are_smaller() {
        assert!(Scale::quick().single_tasks < Scale::full().single_tasks);
        assert!(Scale::tiny().single_tasks <= Scale::quick().single_tasks);
        assert_eq!(Scale::default(), Scale::full());
    }
}
