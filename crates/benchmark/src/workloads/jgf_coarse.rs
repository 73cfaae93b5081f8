//! `jgf_coarse` — the paper's Figure 13: Crypt, Series, SOR, Sparse,
//! MolDyn, MonteCarlo and RayTracer at size A, each as `seq`, the
//! hand-threaded `mt` and the aspect-woven `aomp`. One region entry and a
//! handful of handouts per 8–330 ms kernel, so the kernel bodies do
//! almost all the work: a runtime-layer optimisation predicts *no change*
//! here, and a codegen or shim-shape change shows only here.

use super::{Cfg, Extras, Workload};
use crate::harness::{Kernel, Outcome, Role, Timed, Variant};
use crate::spans::Spans;
use aomp_jgf::{crypt, moldyn, montecarlo, raytracer, series, sor, sparse, Size};

pub struct JgfCoarse;

pub struct Inputs {
    crypt: crypt::CryptData,
    series_n: usize,
    sor: sor::Grid,
    sor_iters: usize,
    sparse: sparse::SparseData,
    sparse_iters: usize,
    /// Sparse has no JGF validate: every variant must equal `seq` bitwise.
    sparse_golden: Vec<f64>,
    moldyn: moldyn::MolDynData,
    montecarlo: montecarlo::McData,
    scene: raytracer::Scene,
}

/// The three Figure 13 variants of one kernel.
macro_rules! fig13_kernel {
    ($name:literal, $seq:expr, $mt:expr, $aomp:expr, $valid:expr) => {
        Kernel {
            variants: vec![
                Variant::new(concat!("jgf.", $name, ".seq"), Role::Seq, move |_| {
                    Timed::kernel($seq, $valid)
                }),
                Variant::new(concat!("jgf.", $name, ".mt"), Role::Mt, move |_| {
                    Timed::kernel($mt, $valid)
                }),
                Variant::new(concat!("jgf.", $name, ".aomp"), Role::Woven, move |_| {
                    Timed::kernel($aomp, $valid)
                }),
            ],
        }
    };
}

impl Workload for JgfCoarse {
    type Inputs = Inputs;

    fn generate(cfg: &Cfg) -> Inputs {
        let size = if cfg.smoke { Size::Small } else { Size::A };
        let sparse = sparse::generate(size);
        let sparse_iters = if cfg.smoke { 10 } else { sparse::ITERATIONS };
        Inputs {
            crypt: crypt::generate(size),
            series_n: series::coefficients_for(size),
            sor: sor::generate(size),
            sor_iters: if cfg.smoke { 10 } else { sor::ITERATIONS },
            sparse_golden: sparse::seq::run(&sparse, sparse_iters),
            sparse,
            sparse_iters,
            moldyn: moldyn::generate(moldyn::mm_for(size), 10),
            montecarlo: montecarlo::generate(size),
            scene: raytracer::generate(size),
        }
    }

    fn kernels<'a>(i: &'a Inputs, cfg: &Cfg) -> Vec<Kernel<'a>> {
        let t = cfg.t;
        vec![
            fig13_kernel!(
                "crypt",
                || crypt::seq::run(&i.crypt),
                || crypt::mt::run(&i.crypt, t),
                || crypt::aomp::run(&i.crypt, t),
                |r| crypt::validate(&i.crypt, r)
            ),
            fig13_kernel!(
                "series",
                || series::seq::run(i.series_n),
                || series::mt::run(i.series_n, t),
                || series::aomp::run(i.series_n, t),
                series::validate
            ),
            fig13_kernel!(
                "sor",
                || sor::seq::run(&i.sor, i.sor_iters),
                || sor::mt::run(&i.sor, i.sor_iters, t),
                || sor::aomp::run(&i.sor, i.sor_iters, t),
                sor::validate
            ),
            fig13_kernel!(
                "sparse",
                || sparse::seq::run(&i.sparse, i.sparse_iters),
                || sparse::mt::run(&i.sparse, i.sparse_iters, t),
                || sparse::aomp::run(&i.sparse, i.sparse_iters, t),
                |r| *r == i.sparse_golden
            ),
            fig13_kernel!(
                "moldyn",
                || moldyn::seq::run(&i.moldyn),
                || moldyn::mt::run(&i.moldyn, t),
                || moldyn::aomp::run(&i.moldyn, t),
                moldyn::validate
            ),
            fig13_kernel!(
                "montecarlo",
                || montecarlo::seq::run(&i.montecarlo),
                || montecarlo::mt::run(&i.montecarlo, t),
                || montecarlo::aomp::run(&i.montecarlo, t),
                |r| montecarlo::validate(&i.montecarlo, r)
            ),
            fig13_kernel!(
                "raytracer",
                || raytracer::seq::run(&i.scene),
                || raytracer::mt::run(&i.scene, t),
                || raytracer::aomp::run(&i.scene, t),
                |r| raytracer::validate(&i.scene, r)
            ),
        ]
    }

    /// Computed (not measured) memory traffic of the two bandwidth-bound
    /// kernels: bytes from the array sizes ÷ the woven median.
    fn extras(
        i: &Inputs,
        _cfg: &Cfg,
        outcome: &Outcome,
        _seconds: f64,
        _spans: &mut Spans,
        out: &mut Extras,
    ) -> (u64, u64) {
        // SOR: every sweep reads and writes each f64 cell once.
        let sor_bytes = (i.sor_iters * i.sor.n * i.sor.n * 16) as f64;
        // Sparse: per nonzero a value, two indices, one gathered x and
        // one read-modify-written y, all 8 bytes wide.
        let sparse_bytes = (i.sparse_iters * i.sparse.val.len() * 48) as f64;
        out.insert(
            "jgf.sor.gbps_computed".to_owned(),
            sor_bytes / outcome.median_of("jgf.sor.aomp") / 1e9,
        );
        out.insert(
            "jgf.sparse.gbps_computed".to_owned(),
            sparse_bytes / outcome.median_of("jgf.sparse.aomp") / 1e9,
        );
        (0, 0)
    }
}
