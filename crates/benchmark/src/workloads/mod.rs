//! The four workloads. Each generates its inputs from the seed, builds
//! its kernels over them, and may add workload-specific layer metrics
//! after the pass loop.

pub mod fine_grain;
pub mod jgf_coarse;
pub mod serve_mix;
pub mod tasks_irregular;

use crate::harness::{Kernel, Outcome};
use crate::spans::Spans;
use std::collections::BTreeMap;

/// Workload names with the one-line reason each exists, in run order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "jgf_coarse",
        "seven JGF kernels at size A: kernel bodies do ~all the work, so a runtime-layer change predicts no change here (the bypass workload; paper Fig. 13)",
    ),
    (
        "fine_grain",
        "LUFact (~4 barriers + 2 master sections + 1 for per column) and a woven GA (dispatch + pooled entry + dynamic handout per generation): runtime overhead dominates the body",
    ),
    (
        "tasks_irregular",
        "dependence graphs, fork-join tasks, dynamic/adaptive handout on a skewed graph, contended critical and NR: the layers the other kernel workloads never touch",
    ),
    (
        "serve_mix",
        "aomp-serve under a four-class request mix in seeded order, closed loop: admission, executor, pooled entry and NR per request, oversubscribed (2 tenants x T threads + clients)",
    ),
];

/// Per-run settings shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    /// Team size: `min(nproc, 4)`, passed wherever a kernel takes one.
    pub t: usize,
    pub seed: u64,
    /// Tiny inputs, for the test that guards the metric names.
    pub smoke: bool,
}

/// Layer metrics a workload adds on top of its kernel rows.
pub type Extras = BTreeMap<String, f64>;

/// One workload: seeded inputs, kernels borrowing them, extra metrics.
pub trait Workload {
    type Inputs;

    /// Build the inputs from `cfg.seed` (counted in `setup_s`).
    fn generate(cfg: &Cfg) -> Self::Inputs;

    /// The kernels, borrowing `inputs`.
    fn kernels<'a>(inputs: &'a Self::Inputs, cfg: &Cfg) -> Vec<Kernel<'a>>;

    /// Layer metrics beyond the kernel rows, after the pass loop of a
    /// traced run; may record further spans. Returns operations
    /// (attempted, failed) it added.
    fn extras(
        _inputs: &Self::Inputs,
        _cfg: &Cfg,
        _outcome: &Outcome,
        _seconds: f64,
        _spans: &mut Spans,
        _out: &mut Extras,
    ) -> (u64, u64) {
        (0, 0)
    }
}
