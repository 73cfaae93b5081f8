//! Per-layer metrics *computed* from a traced run rather than timed:
//! the attribution shares (traced `obs` counter deltas × the ledger's unit
//! costs ÷ the traced `solve_s`) and simcore's model-vs-measured residual.

use crate::report::Report;
use crate::stats::geomean;
use aomp_jgf::{crypt, moldyn, montecarlo, raytracer, series, sor, sparse, Size};
use aomp_simcore::models::{self, MolDynStrategy};
use aomp_simcore::{Machine, Simulator};

/// The layers a kernel workload's wall time is attributed to; whatever
/// they do not explain is the body's share.
pub const ATTRIBUTED: [&str; 6] = [
    "region",
    "workshare",
    "barrier",
    "critical",
    "task_deps",
    "nr",
];

/// Attribute one traced workload run. `run` carries the raw per-pass
/// counters (`_cnt.*`) and `_traced_solve_s`; `ledger` the unit costs;
/// `t` the team size. Members of a team pay member-concurrent costs
/// (static handouts, chunk grabs, uncontended locks, NR ops) in parallel,
/// so their wall-time share is the count ÷ `t`; barrier rounds tick once
/// per member per round.
pub fn attribute(workload: &str, run: &Report, ledger: &Report, t: usize, out: &mut Report) {
    let cnt = |name: &str| run.get(&format!("_cnt.{name}"));
    let ns = |name: &str| ledger.get(name);
    let t = t as f64;
    // One dispensed chunk, from the chunk-1 dynamic loop; guided,
    // adaptive, block-cyclic and taskloop handouts are costed the same.
    let per_chunk = ns("workshare.for_dynamic1_ns") / 4096.0;
    let chunks = cnt("chunk_dynamic")
        + cnt("chunk_guided")
        + cnt("chunk_adaptive")
        + cnt("chunk_block_cyclic")
        + cnt("chunk_taskloop");
    let contended = cnt("critical_contended");
    let seconds = [
        cnt("region_pooled") * ns("region.entry_pooled_ns")
            + cnt("region_spawned") * ns("region.entry_spawned_ns")
            + cnt("region_inline") * ns("region.entry_inline_ns"),
        cnt("chunk_static_block") / t * ns("workshare.for_static_block_ns")
            + cnt("chunk_static_cyclic") / t * ns("workshare.for_static_cyclic_ns")
            + chunks / t * per_chunk,
        cnt("barrier_rounds") / t * ns("barrier.round_ns"),
        contended * ns("critical.contended_ns")
            + (cnt("critical_acquired") - contended).max(0.0) / t * ns("critical.uncontended_ns"),
        cnt("task_spawned") / t * ns("task.spawn_wait_ns")
            + cnt("dep_tasks") * ns("deps.independent_task_ns"),
        (cnt("nr_writes") * ns("nr.write_ns") + cnt("nr_reads") * ns("nr.read_ns")) / t,
    ]
    .map(|nanos| nanos / 1e9);
    let solve = run.get("_traced_solve_s");
    for (layer, secs) in ATTRIBUTED.iter().zip(seconds) {
        out.put(format!("attr.{workload}.{layer}_share"), secs / solve);
    }
    out.put(
        format!("attr.{workload}.body_share"),
        1.0 - seconds.iter().sum::<f64>() / solve,
    );
}

/// `simcore.residual_geomean`: over the `jgf_coarse` kernels, the model's
/// speed-up on `Machine::i7()` at `t` threads ÷ the measured one.
/// Simulated-vs-measured and uncalibrated: 1.0 would mean the model
/// predicts this host.
pub fn simcore_residual(jgf: &Report, t: usize) -> f64 {
    let machine = Machine::i7();
    let sim = Simulator::new(machine.clone());
    let size = Size::A;
    let particles = moldyn::particles(moldyn::mm_for(size));
    let moldyn_model = |t| {
        models::moldyn(
            particles,
            10,
            t,
            MolDynStrategy::ThreadLocal,
            &machine,
            true,
        )
    };
    let modelled = [
        (
            "crypt",
            sim.speedup(&models::crypt(crypt::bytes_for(size), true), t),
        ),
        (
            "series",
            sim.speedup(&models::series(series::coefficients_for(size), true), t),
        ),
        (
            "sor",
            sim.speedup(&models::sor(sor::grid_for(size), sor::ITERATIONS, true), t),
        ),
        (
            "sparse",
            sim.speedup(
                &models::sparse(sparse::dims_for(size).1, sparse::ITERATIONS, true),
                t,
            ),
        ),
        // MolDyn's model is thread-aware (per-thread force arrays), so
        // its speed-up is taken against the 1-thread model explicitly.
        (
            "moldyn",
            sim.run(&moldyn_model(1), 1) / sim.run(&moldyn_model(t), t),
        ),
        (
            "montecarlo",
            sim.speedup(&models::montecarlo(montecarlo::runs_for(size), true), t),
        ),
        (
            "raytracer",
            sim.speedup(&models::raytracer(raytracer::resolution_for(size), true), t),
        ),
    ];
    let residuals: Vec<f64> = modelled
        .iter()
        .map(|(kernel, model)| {
            let measured = jgf.get(&format!("jgf.{kernel}.seq_ms"))
                / jgf.get(&format!("jgf.{kernel}.aomp_ms"));
            model / measured
        })
        .collect();
    geomean(&residuals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_and_body_sum_to_one() {
        let mut run = Report::default();
        for c in aomp::obs::Counter::ALL {
            run.put(format!("_cnt.{}", c.name()), 0.0);
        }
        run.put("_cnt.barrier_rounds", 2000.0); // 1000 rounds of a 2-team
        run.put("_cnt.region_pooled", 10.0);
        run.put("_traced_solve_s", 0.01);
        let mut ledger = Report::default();
        for name in [
            "workshare.for_dynamic1_ns",
            "workshare.for_static_block_ns",
            "workshare.for_static_cyclic_ns",
            "region.entry_spawned_ns",
            "region.entry_inline_ns",
            "critical.contended_ns",
            "critical.uncontended_ns",
            "task.spawn_wait_ns",
            "deps.independent_task_ns",
            "nr.write_ns",
            "nr.read_ns",
        ] {
            ledger.put(name, 100.0);
        }
        ledger.put("barrier.round_ns", 1000.0);
        ledger.put("region.entry_pooled_ns", 5000.0);
        let mut out = Report::default();
        attribute("w", &run, &ledger, 2, &mut out);
        // 1000 rounds x 1 us = 1 ms of 10 ms; 10 entries x 5 us = 50 us.
        assert!((out.get("attr.w.barrier_share") - 0.1).abs() < 1e-12);
        assert!((out.get("attr.w.region_share") - 0.005).abs() < 1e-12);
        assert!((out.get("attr.w.body_share") - 0.895).abs() < 1e-12);
        assert_eq!(out.values.len(), ATTRIBUTED.len() + 1);
    }
}
