//! `fine_grain` — runtime overhead dominates the body. LUFact at size A
//! runs ~4 barriers, 2 master sections and 1 for per column × 500 columns
//! inside one region (barrier / sync / workshare-static); the woven GA
//! pays one glob-matched weaver dispatch, one pooled region entry and a
//! dynamic chunk-4 handout per generation (weaver / pool / region /
//! workshare-dynamic). `annotated::run` is the only end-to-end path
//! through `aomp-macros`.

use super::{Cfg, Extras, Workload};
use crate::harness::{Kernel, Outcome, Role, Timed, Variant};
use crate::spans::Spans;
use aomp_evolib::ga::{self, GaConfig};
use aomp_evolib::{parallel_evaluation_aspect, Sphere};
use aomp_jgf::{lufact, Size};
use aomp_weaver::Weaver;

pub struct FineGrain;

pub struct Inputs {
    lufact: lufact::LufactData,
    problem: Sphere,
    ga: GaConfig,
    /// The unwoven GA's best fitness: the woven run must equal it.
    ga_best: f64,
}

impl Workload for FineGrain {
    type Inputs = Inputs;

    fn generate(cfg: &Cfg) -> Inputs {
        let problem = Sphere { dims: 8 };
        let ga = GaConfig {
            pop_size: 64,
            generations: if cfg.smoke { 50 } else { 2000 },
            seed: cfg.seed,
            ..GaConfig::default()
        };
        Inputs {
            lufact: lufact::generate(if cfg.smoke { Size::Small } else { Size::A }),
            ga_best: ga::run(&problem, &ga).best.fitness,
            problem,
            ga,
        }
    }

    fn kernels<'a>(i: &'a Inputs, cfg: &Cfg) -> Vec<Kernel<'a>> {
        let t = cfg.t;
        let lu_valid = |r: &lufact::LufactResult| lufact::validate(&i.lufact, r);
        let ga_valid = |r: &aomp_evolib::RunResult| r.best.fitness == i.ga_best;
        vec![
            Kernel {
                variants: vec![
                    Variant::new("jgf.lufact.seq", Role::Seq, move |_| {
                        Timed::kernel(|| lufact::seq::run(&i.lufact), lu_valid)
                    }),
                    Variant::new("jgf.lufact.mt", Role::Mt, move |_| {
                        Timed::kernel(|| lufact::mt::run(&i.lufact, t), lu_valid)
                    }),
                    Variant::new("jgf.lufact.aomp", Role::Woven, move |_| {
                        Timed::kernel(|| lufact::aomp::run(&i.lufact, t), lu_valid)
                    }),
                    // Team size comes from the runtime default, which
                    // main sets to T once.
                    Variant::new("jgf.lufact.annotated", Role::Woven, move |_| {
                        Timed::kernel(|| lufact::annotated::run(&i.lufact), lu_valid)
                    }),
                ],
            },
            Kernel {
                variants: vec![
                    Variant::new("evolib.ga.seq", Role::Seq, move |_| {
                        Timed::kernel(|| ga::run(&i.problem, &i.ga), ga_valid)
                    }),
                    Variant::new("evolib.ga.woven", Role::Woven, move |_| {
                        Timed::kernel(
                            || {
                                Weaver::global()
                                    .with_deployed(parallel_evaluation_aspect(t), || {
                                        ga::run(&i.problem, &i.ga)
                                    })
                            },
                            ga_valid,
                        )
                    }),
                ],
            },
        ]
    }

    fn extras(
        i: &Inputs,
        _cfg: &Cfg,
        outcome: &Outcome,
        _seconds: f64,
        _spans: &mut Spans,
        out: &mut Extras,
    ) -> (u64, u64) {
        // What weaving adds per generation (the advertised pooled entry is
        // ~2 us; the body is 64 evaluations of an 8-dim sphere).
        out.insert(
            "evolib.ga.per_generation_overhead_us".to_owned(),
            (outcome.median_of("evolib.ga.woven") - outcome.median_of("evolib.ga.seq")) * 1e6
                / i.ga.generations as f64,
        );
        (0, 0)
    }
}
