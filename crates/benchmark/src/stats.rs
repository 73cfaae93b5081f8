//! Order statistics over timing samples: medians, quartiles, the highest
//! percentile the sample count supports, and geometric means of ratios.

/// Linear-interpolated quantile of an ascending-sorted, non-empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    /// The highest of p90/p99/p99.9 with at least ten samples beyond it.
    pub tail: Option<(&'static str, f64)>,
}

impl Summary {
    /// Summarise `samples`; panics on an empty slice (every metric is
    /// sized to have samples, so an empty one is a harness bug).
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "metric without samples");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        // Per-mille, so "ten samples beyond" is exact integer arithmetic.
        let tail = [("p99.9", 999), ("p99", 990), ("p90", 900)]
            .into_iter()
            .find(|&(_, permille)| s.len() * (1000 - permille) >= 10_000)
            .map(|(label, permille)| (label, quantile_sorted(&s, permille as f64 / 1e3)));
        Summary {
            n: s.len(),
            p25: quantile_sorted(&s, 0.25),
            p50: quantile_sorted(&s, 0.5),
            p75: quantile_sorted(&s, 0.75),
            tail,
        }
    }
}

/// Median of `samples` (panics when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

/// Geometric mean of positive ratios (panics when empty).
pub fn geomean(ratios: &[f64]) -> f64 {
    assert!(!ratios.is_empty(), "geometric mean of nothing");
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// Splitmix64: the benchmark's own seeded stream (request-mix order,
/// kernel seeds), so inputs depend on `--seed` and nothing else.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.p25, s.p50, s.p75), (5, 2.0, 3.0, 4.0));
        assert!(s.tail.is_none(), "5 samples support no tail percentile");
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(Summary::of(&v).tail.map(|t| t.0), Some("p90"));
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(Summary::of(&v).tail.map(|t| t.0), Some("p99"));
    }

    #[test]
    fn geomean_of_reciprocals_is_one() {
        assert!((geomean(&[4.0, 0.25]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn splitmix_is_seed_determined() {
        let (mut a, mut b, mut c) = (SplitMix(7), SplitMix(7), SplitMix(8));
        let (x, y, z) = (a.next(), b.next(), c.next());
        assert_eq!(x, y);
        assert_ne!(x, z);
    }
}
