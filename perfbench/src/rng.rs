//! A seeded splitmix64 generator: site-range choice and Poisson arrivals.

/// splitmix64 (Steele, Lea, Flood 2014): tiny, seedable, well mixed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An exponential inter-arrival gap in seconds for `rate` events/s.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / rate
    }
}

/// Poisson arrival offsets (seconds from the phase start) up to `duration`.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, duration: f64) -> Vec<f64> {
    let mut due = Vec::new();
    let mut t = rng.exp_gap(rate);
    while t < duration {
        due.push(t);
        t += rng.exp_gap(rate);
    }
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson_schedule(&mut Rng::new(7), 50.0, 2.0);
        let b = poisson_schedule(&mut Rng::new(7), 50.0, 2.0);
        let c = poisson_schedule(&mut Rng::new(8), 50.0, 2.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // 100 expected arrivals; a Poisson count this far off is a bug.
        assert!((60..140).contains(&a.len()), "{} arrivals", a.len());
    }
}
