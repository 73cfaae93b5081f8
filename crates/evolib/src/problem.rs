//! Optimisation problems: classic continuous test functions plus a
//! discrete knapsack (JECoLi's domains include both).

/// A minimisation problem over a real-valued genome.
pub trait Problem: Send + Sync {
    /// Problem name (diagnostics).
    fn name(&self) -> &str;
    /// Genome length.
    fn dims(&self) -> usize;
    /// Search-space bounds, applied per gene.
    fn bounds(&self) -> (f64, f64);
    /// Fitness (lower is better).
    fn evaluate(&self, genes: &[f64]) -> f64;
    /// The known global optimum value, for tests.
    fn optimum(&self) -> f64 {
        0.0
    }
}

/// Sphere function Σx² — unimodal, trivially smooth.
#[derive(Debug, Clone)]
pub struct Sphere {
    /// Dimensions.
    pub dims: usize,
}

impl Problem for Sphere {
    fn name(&self) -> &str {
        "sphere"
    }
    fn dims(&self) -> usize {
        self.dims
    }
    fn bounds(&self) -> (f64, f64) {
        (-5.12, 5.12)
    }
    fn evaluate(&self, genes: &[f64]) -> f64 {
        genes.iter().map(|x| x * x).sum()
    }
}

/// Rastrigin function — highly multimodal.
#[derive(Debug, Clone)]
pub struct Rastrigin {
    /// Dimensions.
    pub dims: usize,
}

impl Problem for Rastrigin {
    fn name(&self) -> &str {
        "rastrigin"
    }
    fn dims(&self) -> usize {
        self.dims
    }
    fn bounds(&self) -> (f64, f64) {
        (-5.12, 5.12)
    }
    fn evaluate(&self, genes: &[f64]) -> f64 {
        let a = 10.0;
        a * genes.len() as f64
            + genes
                .iter()
                .map(|x| x * x - a * (2.0 * std::f64::consts::PI * x).cos())
                .sum::<f64>()
    }
}

/// Rosenbrock valley — ill-conditioned, optimum at (1, …, 1).
#[derive(Debug, Clone)]
pub struct Rosenbrock {
    /// Dimensions.
    pub dims: usize,
}

impl Problem for Rosenbrock {
    fn name(&self) -> &str {
        "rosenbrock"
    }
    fn dims(&self) -> usize {
        self.dims
    }
    fn bounds(&self) -> (f64, f64) {
        (-2.048, 2.048)
    }
    fn evaluate(&self, genes: &[f64]) -> f64 {
        genes
            .windows(2)
            .map(|w| 100.0 * (w[1] - w[0] * w[0]).powi(2) + (1.0 - w[0]).powi(2))
            .sum()
    }
}

/// 0/1 knapsack encoded on a real genome (gene > 0.5 = take the item);
/// fitness is negated value with an over-capacity penalty.
#[derive(Debug, Clone)]
pub struct Knapsack {
    /// Item values.
    pub values: Vec<f64>,
    /// Item weights.
    pub weights: Vec<f64>,
    /// Capacity.
    pub capacity: f64,
}

impl Knapsack {
    /// A deterministic instance with `n` items.
    pub fn instance(n: usize) -> Knapsack {
        let values = (0..n)
            .map(|i| ((i * 37 + 11) % 50 + 1) as f64)
            .collect::<Vec<_>>();
        let weights = (0..n)
            .map(|i| ((i * 53 + 7) % 40 + 1) as f64)
            .collect::<Vec<_>>();
        let capacity = weights.iter().sum::<f64>() * 0.4;
        Knapsack {
            values,
            weights,
            capacity,
        }
    }
}

impl Problem for Knapsack {
    fn name(&self) -> &str {
        "knapsack"
    }
    fn dims(&self) -> usize {
        self.values.len()
    }
    fn bounds(&self) -> (f64, f64) {
        (0.0, 1.0)
    }
    fn evaluate(&self, genes: &[f64]) -> f64 {
        let mut value = 0.0;
        let mut weight = 0.0;
        for (i, g) in genes.iter().enumerate() {
            if *g > 0.5 {
                value += self.values[i];
                weight += self.weights[i];
            }
        }
        let penalty = if weight > self.capacity {
            (weight - self.capacity) * 100.0
        } else {
            0.0
        };
        -(value) + penalty
    }
    fn optimum(&self) -> f64 {
        f64::NEG_INFINITY // unknown in general; tests only check improvement
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sphere_optimum_at_origin() {
        let p = Sphere { dims: 4 };
        assert_eq!(p.evaluate(&[0.0; 4]), 0.0);
        assert!(p.evaluate(&[1.0; 4]) > 0.0);
    }

    #[test]
    fn rastrigin_optimum_at_origin() {
        let p = Rastrigin { dims: 3 };
        assert!(p.evaluate(&[0.0; 3]).abs() < 1e-9);
        assert!(p.evaluate(&[0.5; 3]) > 1.0);
    }

    #[test]
    fn rosenbrock_optimum_at_ones() {
        let p = Rosenbrock { dims: 5 };
        assert!(p.evaluate(&[1.0; 5]).abs() < 1e-12);
        assert!(p.evaluate(&[0.0; 5]) > 1.0);
    }

    #[test]
    fn knapsack_rewards_value_penalises_overweight() {
        let k = Knapsack::instance(10);
        let none = k.evaluate(&[0.0; 10]);
        let all = k.evaluate(&[1.0; 10]);
        assert_eq!(none, 0.0);
        assert!(all > none, "taking everything busts the capacity");
    }
}
