//! Parallel multi-start hill climbing: independent local searches from
//! random starts, exposed through the `Evolib.Hill.climb` for method (one
//! iteration per start), which the framework aspect parallelises with a
//! cyclic schedule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use aomp::cell::SyncSlice;
use aomp::range::LoopRange;

use crate::problem::Problem;
use crate::{Individual, RunResult};

/// Hill-climbing parameters.
#[derive(Debug, Clone)]
pub struct HillConfig {
    /// Independent restarts.
    pub starts: usize,
    /// Local-search steps per start.
    pub steps: usize,
    /// Perturbation scale.
    pub sigma: f64,
    /// Run seed.
    pub seed: u64,
}

impl Default for HillConfig {
    fn default() -> Self {
        Self {
            starts: 16,
            steps: 400,
            sigma: 0.2,
            seed: 0x411c,
        }
    }
}

fn rng_for(seed: u64, start: usize) -> StdRng {
    let mut z = seed ^ (start as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    StdRng::seed_from_u64(z)
}

fn climb_one(problem: &dyn Problem, cfg: &HillConfig, start: usize) -> Individual {
    let (lo, hi) = problem.bounds();
    let mut rng = rng_for(cfg.seed, start);
    let mut genes: Vec<f64> = (0..problem.dims()).map(|_| rng.gen_range(lo..hi)).collect();
    let mut fitness = problem.evaluate(&genes);
    for _ in 0..cfg.steps {
        let mut cand = genes.clone();
        let idx = rng.gen_range(0..cand.len());
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        cand[idx] = (cand[idx] + z * cfg.sigma).clamp(lo, hi);
        let f = problem.evaluate(&cand);
        if f < fitness {
            genes = cand;
            fitness = f;
        }
    }
    Individual { genes, fitness }
}

/// Run multi-start hill climbing; each start is one iteration of the
/// `Evolib.Hill.climb` for method.
pub fn run(problem: &dyn Problem, cfg: &HillConfig) -> RunResult {
    let mut results: Vec<Option<Individual>> = vec![None; cfg.starts];
    {
        let slots = SyncSlice::new(&mut results);
        aomp_weaver::call_for(
            "Evolib.Hill.climb",
            LoopRange::upto(0, cfg.starts as i64),
            |lo, hi, step| {
                let mut s = lo;
                while s < hi {
                    // SAFETY: slot s is owned by this thread per schedule.
                    unsafe { slots.set(s as usize, Some(climb_one(problem, cfg, s as usize))) };
                    s += step;
                }
            },
        );
    }
    let all: Vec<Individual> = results
        .into_iter()
        .map(|r| r.expect("every start ran"))
        .collect();
    let history: Vec<f64> = all.iter().map(|i| i.fitness).collect();
    let best = all
        .into_iter()
        .min_by(|a, b| a.fitness.total_cmp(&b.fitness))
        .expect("starts >= 1");
    RunResult {
        best,
        history,
        evaluations: cfg.starts * (cfg.steps + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aspects::assert_gated_twin;
    use crate::problem::Sphere;

    #[test]
    fn hill_climbing_descends() {
        let p = Sphere { dims: 4 };
        let r = run(&p, &HillConfig::default());
        assert!(r.best.fitness < 0.5, "fitness {}", r.best.fitness);
        assert_eq!(r.history.len(), 16);
    }

    #[test]
    fn hill_parallel_matches_sequential() {
        let p = Sphere { dims: 3 };
        // One `climb` per run: the eight runs are the gate's entries.
        assert_gated_twin(4, |seed| {
            let r = run(
                &p,
                &HillConfig {
                    starts: 8,
                    steps: 100,
                    seed,
                    ..HillConfig::default()
                },
            );
            (r.best, r.history)
        });
    }

    #[test]
    fn starts_are_independent_and_deterministic() {
        let p = Sphere { dims: 2 };
        let cfg = HillConfig {
            starts: 4,
            steps: 50,
            ..HillConfig::default()
        };
        let a = run(&p, &cfg);
        let b = run(&p, &cfg);
        assert_eq!(a.history, b.history);
    }
}
