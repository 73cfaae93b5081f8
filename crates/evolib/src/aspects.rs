//! The parallelism modules of the framework — developed independently of
//! the algorithms, exactly as the paper's JECoLi case study advertises
//! ("enabling the independent development of parallelism modules").
//!
//! A single aspect covers *every* metaheuristic in the framework through
//! interface-style glob pointcuts: any algorithm exposing an
//! `Evolib.<Algo>.evaluate` for method gets a parallel region plus
//! dynamic work-sharing; any `Evolib.<Algo>.climb` gets a cyclic one.
//!
//! Both regions carry the adaptive `if` clause
//! ([`Mechanism::adaptive`]): a GA generation evaluates 64 cheap
//! individuals in about a microsecond, less than a team round trip, so
//! its region runs on the calling thread alone, while a body the team
//! speeds up keeps its team. Each join point is measured on its own, and
//! the results are the sequential ones either way.

use aomp::schedule::Schedule;
use aomp_weaver::{AspectModule, Mechanism, Pointcut};

/// Shared evaluation helpers used by every algorithm module.
pub(crate) mod eval {
    use crate::problem::Problem;
    use crate::Individual;
    use aomp::cell::SyncSlice;
    use aomp::range::LoopRange;

    /// Evaluate the population's fitness through the framework's
    /// `Evolib.<Algo>.evaluate` join point, named by `jp`. Each index is
    /// written by exactly one thread (schedule-owned), so the shared
    /// access is race-free by construction.
    pub fn evaluate_population(
        jp: &'static str,
        problem: &dyn Problem,
        pop: &mut [Individual],
    ) -> usize {
        let n = pop.len();
        let s = SyncSlice::new(pop);
        aomp_weaver::call_for(jp, LoopRange::upto(0, n as i64), |lo, hi, step| {
            let mut i = lo;
            while i < hi {
                // SAFETY: index i is owned by this thread per schedule.
                let ind = unsafe { s.get_mut(i as usize) };
                ind.fitness = problem.evaluate(&ind.genes);
                i += step;
            }
        });
        n
    }
}

/// The framework-wide parallelisation module: deploy it and every
/// algorithm in the crate runs its expensive phases on a team of
/// `threads` — or alone, where its measured team round trip costs more
/// than it saves; undeploy it and everything is sequential again.
pub fn parallel_evaluation_aspect(threads: usize) -> AspectModule {
    AspectModule::builder("ParallelEvolib")
        // Fitness evaluation: a combined parallel + dynamic for (fitness
        // costs can vary per individual, e.g. penalty branches).
        .bind(
            Pointcut::glob("Evolib.*.evaluate"),
            Mechanism::parallel().threads(threads).adaptive(),
        )
        .bind(
            Pointcut::glob("Evolib.*.evaluate"),
            Mechanism::for_loop(Schedule::Dynamic { chunk: 4 }),
        )
        // Multi-start local search: one start per slot, cyclic.
        .bind(
            Pointcut::glob("Evolib.*.climb"),
            Mechanism::parallel().threads(threads).adaptive(),
        )
        .bind(
            Pointcut::glob("Evolib.*.climb"),
            Mechanism::for_loop(Schedule::StaticCyclic),
        )
        .build()
}

/// Run `run(seed)` over eight seeds unwoven, then under one deployment of
/// [`parallel_evaluation_aspect`] on a private runtime: the results must
/// be equal, and the runtime must have run both ways — on its team and,
/// gated, alone. Warm-up runs each way twice; once a run has more than
/// 32 entries, a re-probe must have run the way the gate did not pick, so
/// both counts exceed warm-up's and a broken pick or re-probe fails.
#[cfg(test)]
pub(crate) fn assert_gated_twin<R>(threads: usize, run: impl Fn(u64) -> R)
where
    R: PartialEq + std::fmt::Debug,
{
    use aomp::obs::Counter;
    let seq: Vec<R> = (0..8).map(&run).collect();
    let rt = aomp::Runtime::builder().threads(threads).build();
    let woven: Vec<R> = {
        let _on = rt.enter();
        aomp_weaver::Weaver::global().with_deployed(parallel_evaluation_aspect(threads), || {
            (0..8).map(&run).collect()
        })
    };
    assert_eq!(seq, woven);
    let counters = rt.metrics_snapshot();
    let gated = counters.counter(Counter::RegionGated);
    // Leased from `rt`'s cache, or fresh where the cache cannot serve one.
    let team = counters.counter(Counter::RegionPooled) + counters.counter(Counter::RegionSpawned);
    let warm_up = if gated + team > 32 { 2 } else { 0 };
    assert!(
        gated > warm_up && team > warm_up,
        "gated {gated}, team {team}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Sphere};
    use crate::Individual;

    #[test]
    fn evaluate_population_fills_fitness_sequentially() {
        let p = Sphere { dims: 3 };
        let mut pop: Vec<Individual> = (0..10)
            .map(|i| Individual::new(vec![i as f64 * 0.1; 3]))
            .collect();
        eval::evaluate_population("Evolib.Test.evaluate", &p, &mut pop);
        for ind in &pop {
            assert_eq!(ind.fitness, p.evaluate(&ind.genes));
        }
    }

    #[test]
    fn aspect_parallelises_evaluation_without_changing_results() {
        let p = Sphere { dims: 4 };
        let make = || -> Vec<Individual> {
            (0..50)
                .map(|i| Individual::new(vec![(i as f64).sin(); 4]))
                .collect()
        };
        let mut seq = make();
        eval::evaluate_population("Evolib.AspectTest.evaluate", &p, &mut seq);
        let mut par = make();
        aomp_weaver::Weaver::global().with_deployed(parallel_evaluation_aspect(4), || {
            eval::evaluate_population("Evolib.AspectTest.evaluate", &p, &mut par);
        });
        assert_eq!(seq, par);
    }
}
