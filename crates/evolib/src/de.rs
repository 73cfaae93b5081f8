//! Differential evolution (DE/rand/1/bin) — a second metaheuristic
//! reusing the same framework join points, so the one deployed aspect
//! parallelises it too (interface-style reuse, paper §II/§VII).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::aspects::eval::evaluate_population;
use crate::problem::Problem;
use crate::{Individual, RunResult};

/// DE's fitness-evaluation join point.
const EVALUATE: &str = "Evolib.DE.evaluate";

/// DE parameters.
#[derive(Debug, Clone)]
pub struct DeConfig {
    /// Population size (≥ 4 for rand/1).
    pub pop_size: usize,
    /// Generations.
    pub generations: usize,
    /// Differential weight F.
    pub f: f64,
    /// Crossover probability CR.
    pub cr: f64,
    /// Run seed.
    pub seed: u64,
}

impl Default for DeConfig {
    fn default() -> Self {
        Self {
            pop_size: 40,
            generations: 100,
            f: 0.7,
            cr: 0.9,
            seed: 0xdeed,
        }
    }
}

fn rng_for(seed: u64, generation: usize, slot: usize) -> StdRng {
    let mut z = seed
        ^ (generation as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)
        ^ (slot as u64).wrapping_mul(0xA5A5_1C69_845C_2B2B);
    z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    StdRng::seed_from_u64(z ^ (z >> 29))
}

/// Run DE on `problem`.
pub fn run(problem: &dyn Problem, cfg: &DeConfig) -> RunResult {
    assert!(cfg.pop_size >= 4, "DE/rand/1 needs at least 4 individuals");
    let (lo, hi) = problem.bounds();
    let dims = problem.dims();
    let mut rng = rng_for(cfg.seed, 0, usize::MAX);
    let mut pop: Vec<Individual> = (0..cfg.pop_size)
        .map(|_| Individual::new((0..dims).map(|_| rng.gen_range(lo..hi)).collect()))
        .collect();
    let mut evaluations = evaluate_population(EVALUATE, problem, &mut pop);
    let mut history = vec![best_of(&pop)];

    for generation in 1..=cfg.generations {
        // Build all trial vectors (sequential domain logic)...
        let mut trials: Vec<Individual> = Vec::with_capacity(cfg.pop_size);
        for i in 0..cfg.pop_size {
            let mut rng = rng_for(cfg.seed, generation, i);
            let (a, b, c) = distinct_three(cfg.pop_size, i, &mut rng);
            let jrand = rng.gen_range(0..dims);
            let genes: Vec<f64> = (0..dims)
                .map(|j| {
                    if j == jrand || rng.gen_bool(cfg.cr) {
                        (pop[a].genes[j] + cfg.f * (pop[b].genes[j] - pop[c].genes[j]))
                            .clamp(lo, hi)
                    } else {
                        pop[i].genes[j]
                    }
                })
                .collect();
            trials.push(Individual::new(genes));
        }
        // ...evaluate them through the woven join point...
        evaluations += evaluate_population(EVALUATE, problem, &mut trials);
        // ...and select.
        for (target, trial) in pop.iter_mut().zip(trials) {
            if trial.fitness <= target.fitness {
                *target = trial;
            }
        }
        history.push(best_of(&pop));
    }
    let best_idx = (0..pop.len())
        .min_by(|&a, &b| pop[a].fitness.total_cmp(&pop[b].fitness))
        .unwrap();
    RunResult {
        best: pop.swap_remove(best_idx),
        history,
        evaluations,
    }
}

fn best_of(pop: &[Individual]) -> f64 {
    pop.iter().map(|i| i.fitness).fold(f64::INFINITY, f64::min)
}

fn distinct_three(n: usize, exclude: usize, rng: &mut StdRng) -> (usize, usize, usize) {
    let mut pick = || loop {
        let v = rng.gen_range(0..n);
        if v != exclude {
            return v;
        }
    };
    let a = pick();
    let b = loop {
        let v = pick();
        if v != a {
            break v;
        }
    };
    let c = loop {
        let v = pick();
        if v != a && v != b {
            break v;
        }
    };
    (a, b, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aspects::assert_gated_twin;
    use crate::problem::{Rosenbrock, Sphere};

    #[test]
    fn de_optimises_sphere() {
        let p = Sphere { dims: 6 };
        let r = run(&p, &DeConfig::default());
        assert!(r.best.fitness < 0.1, "fitness {}", r.best.fitness);
    }

    #[test]
    fn de_improves_rosenbrock() {
        let p = Rosenbrock { dims: 4 };
        let r = run(
            &p,
            &DeConfig {
                generations: 150,
                ..DeConfig::default()
            },
        );
        assert!(*r.history.last().unwrap() < r.history[0] * 0.1);
    }

    #[test]
    fn de_selection_never_regresses() {
        let p = Sphere { dims: 3 };
        let r = run(
            &p,
            &DeConfig {
                generations: 30,
                ..DeConfig::default()
            },
        );
        assert!(r.history.windows(2).all(|w| w[1] <= w[0] + 1e-12));
    }

    #[test]
    fn de_parallel_and_sequential_runs_are_bit_identical() {
        let p = Sphere { dims: 4 };
        assert_gated_twin(3, |seed| {
            let r = run(
                &p,
                &DeConfig {
                    generations: 25,
                    seed,
                    ..DeConfig::default()
                },
            );
            (r.best, r.history)
        });
    }

    #[test]
    fn distinct_three_never_collides() {
        let mut rng = rng_for(1, 2, 3);
        for _ in 0..200 {
            let (a, b, c) = distinct_three(6, 2, &mut rng);
            assert!(a != 2 && b != 2 && c != 2);
            assert!(a != b && b != c && a != c);
        }
    }
}
