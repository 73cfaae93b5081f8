//! # aomp-evolib — a JECoLi-style metaheuristic framework over AOmp
//!
//! The AOmpLib paper closes by reporting that "the library is being
//! successfully applied to many Java frameworks, enabling the independent
//! development of parallelism modules. One of such cases is the JECoLi
//! (Java Evolutionary Computation Library) that implements the main
//! metaheuristic optimisation algorithms" (§VII). This crate rebuilds
//! that case study in Rust: a small but real evolutionary-computation
//! framework whose *base code contains no parallelism at all* — the
//! expensive phases are exposed as join points, and a single aspect
//! module parallelises every algorithm in the framework at once via an
//! interface-style glob pointcut (`Evolib.*.evaluate`).
//!
//! Implemented metaheuristics:
//! * [`ga`] — a generational genetic algorithm (tournament selection,
//!   one-point/arithmetic crossover, gaussian mutation, elitism);
//! * [`de`] — differential evolution (DE/rand/1/bin);
//! * [`hill`] — parallel multi-start hill climbing;
//! * [`island`] — a coarse-grained island-model GA (the parallel-EC
//!   scheme of the paper's JECoLi reference \[18\]), built from region +
//!   thread-local field + master/barrier constructs.
//!
//! All randomness is counter-seeded per (generation, individual), so a
//! run is bit-identical regardless of thread count or schedule — which
//! the tests exploit to prove the aspect changes *performance structure*,
//! never *results*. That includes the aspect's adaptive `if` clause
//! ([`aomp_weaver::Mechanism::adaptive`]), which runs a join point on the
//! calling thread alone while its team round trip costs more than the
//! team saves: a GA generation's evaluation is about a microsecond.

#![warn(missing_docs)]

pub mod aspects;
pub mod de;
pub mod ga;
pub mod hill;
pub mod island;
pub mod problem;

pub use aspects::parallel_evaluation_aspect;
pub use problem::{Knapsack, Problem, Rastrigin, Rosenbrock, Sphere};

/// A candidate solution: a real-valued genome plus its fitness.
#[derive(Debug, Clone, PartialEq)]
pub struct Individual {
    /// Genome.
    pub genes: Vec<f64>,
    /// Fitness (lower is better; `f64::INFINITY` = unevaluated).
    pub fitness: f64,
}

impl Individual {
    /// Unevaluated individual with the given genome.
    pub fn new(genes: Vec<f64>) -> Self {
        Self {
            genes,
            fitness: f64::INFINITY,
        }
    }
}

/// Outcome of an optimisation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Best individual found.
    pub best: Individual,
    /// Best fitness per generation (convergence curve).
    pub history: Vec<f64>,
    /// Fitness evaluations performed.
    pub evaluations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn individual_starts_unevaluated() {
        let ind = Individual::new(vec![1.0, 2.0]);
        assert!(ind.fitness.is_infinite());
    }
}
