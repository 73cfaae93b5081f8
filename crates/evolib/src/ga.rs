//! A generational genetic algorithm — the core JECoLi-style
//! metaheuristic. The base code is purely sequential domain logic;
//! fitness evaluation goes through the `Evolib.GA.evaluate` join point
//! that [`crate::parallel_evaluation_aspect`] can weave.
//!
//! All randomness is counter-seeded per (run seed, generation, slot), so
//! results are bit-identical under any team size or schedule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::aspects::eval::evaluate_population;
use crate::problem::Problem;
use crate::{Individual, RunResult};

/// The GA's fitness-evaluation join point.
const EVALUATE: &str = "Evolib.GA.evaluate";

/// GA parameters.
#[derive(Debug, Clone)]
pub struct GaConfig {
    /// Population size.
    pub pop_size: usize,
    /// Generations to run.
    pub generations: usize,
    /// Tournament size for selection.
    pub tournament: usize,
    /// Probability of crossover per child.
    pub crossover_rate: f64,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Gaussian mutation step.
    pub mutation_sigma: f64,
    /// Individuals copied unchanged into the next generation.
    pub elitism: usize,
    /// Run seed.
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        Self {
            pop_size: 60,
            generations: 80,
            tournament: 3,
            crossover_rate: 0.9,
            mutation_rate: 0.1,
            mutation_sigma: 0.3,
            elitism: 2,
            seed: 0xec0_11b5,
        }
    }
}

fn rng_for(seed: u64, generation: usize, slot: usize) -> StdRng {
    // splitmix-style counter seeding: deterministic per (gen, slot).
    let mut z = seed
        ^ (generation as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (slot as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

fn random_individual(problem: &dyn Problem, rng: &mut StdRng) -> Individual {
    let (lo, hi) = problem.bounds();
    Individual::new((0..problem.dims()).map(|_| rng.gen_range(lo..hi)).collect())
}

fn tournament_select<'a>(pop: &'a [Individual], k: usize, rng: &mut StdRng) -> &'a Individual {
    let mut best = &pop[rng.gen_range(0..pop.len())];
    for _ in 1..k {
        let c = &pop[rng.gen_range(0..pop.len())];
        if c.fitness < best.fitness {
            best = c;
        }
    }
    best
}

fn crossover(a: &[f64], b: &[f64], rng: &mut StdRng) -> Vec<f64> {
    if rng.gen_bool(0.5) {
        // One-point.
        let cut = rng.gen_range(0..a.len());
        a[..cut].iter().chain(b[cut..].iter()).copied().collect()
    } else {
        // Arithmetic blend.
        let w: f64 = rng.gen_range(0.0..1.0);
        a.iter()
            .zip(b)
            .map(|(x, y)| w * x + (1.0 - w) * y)
            .collect()
    }
}

fn mutate(genes: &mut [f64], cfg: &GaConfig, bounds: (f64, f64), rng: &mut StdRng) {
    for g in genes.iter_mut() {
        if rng.gen_bool(cfg.mutation_rate) {
            // Box–Muller gaussian step.
            let u1: f64 = rng.gen_range(1e-12..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            *g = (*g + z * cfg.mutation_sigma).clamp(bounds.0, bounds.1);
        }
    }
}

/// Run the GA on `problem`.
pub fn run(problem: &dyn Problem, cfg: &GaConfig) -> RunResult {
    assert!(cfg.pop_size > cfg.elitism && cfg.pop_size >= 2);
    let mut rng = rng_for(cfg.seed, 0, usize::MAX);
    let mut pop: Vec<Individual> = (0..cfg.pop_size)
        .map(|_| random_individual(problem, &mut rng))
        .collect();
    let mut evaluations = evaluate_population(EVALUATE, problem, &mut pop);
    pop.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));
    let mut history = vec![pop[0].fitness];

    for generation in 1..=cfg.generations {
        let mut next: Vec<Individual> = pop[..cfg.elitism].to_vec();
        for slot in cfg.elitism..cfg.pop_size {
            let mut rng = rng_for(cfg.seed, generation, slot);
            let parent_a = tournament_select(&pop, cfg.tournament, &mut rng);
            let mut genes = if rng.gen_bool(cfg.crossover_rate) {
                let parent_b = tournament_select(&pop, cfg.tournament, &mut rng);
                crossover(&parent_a.genes, &parent_b.genes, &mut rng)
            } else {
                parent_a.genes.clone()
            };
            mutate(&mut genes, cfg, problem.bounds(), &mut rng);
            next.push(Individual::new(genes));
        }
        evaluations += evaluate_population(EVALUATE, problem, &mut next[cfg.elitism..]);
        pop = next;
        pop.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));
        history.push(pop[0].fitness);
    }
    RunResult {
        best: pop.swap_remove(0),
        history,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aspects::assert_gated_twin;
    use crate::problem::{Rastrigin, Sphere};

    #[test]
    fn ga_optimises_sphere() {
        let p = Sphere { dims: 6 };
        let r = run(&p, &GaConfig::default());
        assert!(r.best.fitness < 0.5, "fitness {}", r.best.fitness);
        assert!(
            r.history.windows(2).all(|w| w[1] <= w[0] + 1e-12),
            "elitism => monotone history"
        );
    }

    #[test]
    fn ga_improves_rastrigin() {
        let p = Rastrigin { dims: 4 };
        let r = run(&p, &GaConfig::default());
        assert!(
            r.best.fitness < r.history[0],
            "must improve over the random init"
        );
    }

    #[test]
    fn ga_parallel_and_sequential_runs_are_bit_identical() {
        let p = Sphere { dims: 5 };
        assert_gated_twin(4, |seed| {
            let r = run(
                &p,
                &GaConfig {
                    generations: 20,
                    seed,
                    ..GaConfig::default()
                },
            );
            (r.best, r.history, r.evaluations)
        });
    }

    #[test]
    fn evaluation_count_is_exact() {
        let p = Sphere { dims: 2 };
        let cfg = GaConfig {
            pop_size: 10,
            generations: 5,
            elitism: 2,
            ..GaConfig::default()
        };
        let r = run(&p, &cfg);
        assert_eq!(r.evaluations, 10 + 5 * 8);
    }
}
