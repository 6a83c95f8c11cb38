//! Precision, recall, and Fβ (Section 2 of the paper).
//!
//! The paper chooses β = 0.5 so the F-score is biased towards precision —
//! spurious (noisy) annotations that would force over-general expressions are
//! punished harder than missed ones.

/// True positive / false positive / false negative counts of a query on a
/// set of samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Counts {
    /// `t+` — number of selected nodes that are annotated.
    pub tp: u32,
    /// `f+` — number of selected nodes that are not annotated.
    pub fp: u32,
    /// `f-` — number of annotated nodes that are not selected.
    pub fne: u32,
}

impl Counts {
    /// Creates a new count triple.
    pub fn new(tp: u32, fp: u32, fne: u32) -> Self {
        Counts { tp, fp, fne }
    }

    /// Component-wise sum, used when aggregating a query's performance over
    /// multiple samples.
    pub fn add(&self, other: &Counts) -> Counts {
        Counts {
            tp: self.tp + other.tp,
            fp: self.fp + other.fp,
            fne: self.fne + other.fne,
        }
    }

    /// Precision of these counts.
    pub fn precision(&self) -> f64 {
        precision(self.tp, self.fp)
    }

    /// Recall of these counts.
    pub fn recall(&self) -> f64 {
        recall(self.tp, self.fne)
    }

    /// Fβ of these counts.
    pub fn f_beta(&self, beta: f64) -> f64 {
        f_beta(self.tp, self.fp, self.fne, beta)
    }

    /// F0.5 — the paper's accuracy measure.
    pub fn f_05(&self) -> f64 {
        self.f_beta(0.5)
    }

    /// Returns `true` if the query selected exactly the annotated nodes.
    pub fn is_exact(&self) -> bool {
        self.fp == 0 && self.fne == 0 && self.tp > 0
    }
}

/// `prec = t+ / (t+ + f+)`; defined as 0 when nothing was selected.
pub fn precision(tp: u32, fp: u32) -> f64 {
    if tp + fp == 0 {
        0.0
    } else {
        f64::from(tp) / f64::from(tp + fp)
    }
}

/// `rec = t+ / (t+ + f-)`; defined as 0 when nothing was annotated.
pub fn recall(tp: u32, fne: u32) -> f64 {
    if tp + fne == 0 {
        0.0
    } else {
        f64::from(tp) / f64::from(tp + fne)
    }
}

/// The Fβ score `(1+β²)·P·R / (β²·P + R)`; 0 when both P and R are 0.
pub fn f_beta(tp: u32, fp: u32, fne: u32, beta: f64) -> f64 {
    let p = precision(tp, fp);
    let r = recall(tp, fne);
    if p == 0.0 && r == 0.0 {
        return 0.0;
    }
    let b2 = beta * beta;
    (1.0 + b2) * p * r / (b2 * p + r)
}

/// F0.5, the paper's choice (β = 0.5, precision-biased).
pub fn f_score_05(tp: u32, fp: u32, fne: u32) -> f64 {
    f_beta(tp, fp, fne, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_counts() {
        let c = Counts::new(5, 0, 0);
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.recall(), 1.0);
        assert_eq!(c.f_05(), 1.0);
        assert!(c.is_exact());
    }

    #[test]
    fn zero_cases() {
        assert_eq!(precision(0, 0), 0.0);
        assert_eq!(recall(0, 0), 0.0);
        assert_eq!(f_beta(0, 0, 0, 0.5), 0.0);
        assert_eq!(f_beta(0, 3, 2, 0.5), 0.0);
        assert!(!Counts::new(0, 0, 0).is_exact());
    }

    #[test]
    fn f05_is_precision_biased() {
        // Same harmonic ingredients, swapped: high precision / low recall
        // must beat low precision / high recall under β = 0.5.
        let precise = f_score_05(8, 0, 2); // P=1.0, R=0.8
        let recallish = f_score_05(8, 2, 0); // P=0.8, R=1.0
        assert!(precise > recallish);
        // And β = 2 would prefer the opposite.
        assert!(f_beta(8, 0, 2, 2.0) < f_beta(8, 2, 0, 2.0));
    }

    #[test]
    fn known_value() {
        // P = 0.5, R = 1.0, β=0.5 → (1.25·0.5·1)/(0.25·0.5+1) = 0.625/1.125
        let f = f_score_05(1, 1, 0);
        assert!((f - 0.555_555).abs() < 1e-5);
    }

    #[test]
    fn add_aggregates_counts() {
        let a = Counts::new(1, 2, 3);
        let b = Counts::new(10, 20, 30);
        let c = a.add(&b);
        assert_eq!(c, Counts::new(11, 22, 33));
    }

    #[test]
    fn f1_matches_classic_formula() {
        let f1 = f_beta(6, 2, 2, 1.0);
        // P = 0.75, R = 0.75 → F1 = 0.75
        assert!((f1 - 0.75).abs() < 1e-12);
    }
}
