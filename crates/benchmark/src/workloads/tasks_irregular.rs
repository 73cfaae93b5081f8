//! `tasks_irregular` — the layers the other two kernel workloads never
//! touch: `deps` (PageRank and BFS as dependence graphs), `task` /
//! `executor` as a fork-join engine (MonteCarlo futures), dynamic and
//! adaptive handout on skewed work (triangles on a power-law graph),
//! contended `critical` (MolDyn's Figure 15 variants) and `nr` as a hot
//! counter. It uses `workshare` and `executor` *differently* from the
//! other workloads (dynamic vs static; dependence release vs request
//! queue), so a gain for one use that costs the other shows.

use super::{Cfg, Workload};
use crate::harness::{Kernel, Role, Timed, Variant};
use aomp_irregular::triangles::TriSchedule;
use aomp_irregular::{bfs, pagerank, triangles, CsrGraph, GraphKind};
use aomp_jgf::{moldyn, montecarlo, Size};
use aomp_weaver::Weaver;

/// Power iterations per PageRank run (fixed: the twins do equal work).
const ITERS: usize = 10;
/// Vertex partitions of the dependence graphs.
const PARTS: usize = 16;
/// Depth bound of the BFS dependence graph; far above the eccentricity
/// of a power-law graph of this density.
const BFS_LEVELS: usize = 64;

pub struct TasksIrregular;

pub struct Inputs {
    graph: CsrGraph,
    oriented: CsrGraph,
    ranks: Vec<f64>,
    levels: Vec<i64>,
    triangles: u64,
    montecarlo: montecarlo::McData,
    moldyn: moldyn::MolDynData,
}

impl Workload for TasksIrregular {
    type Inputs = Inputs;

    fn generate(cfg: &Cfg) -> Inputs {
        let (n, deg) = if cfg.smoke { (1000, 8) } else { (20_000, 12) };
        let graph = CsrGraph::generate(GraphKind::PowerLaw, n, deg, cfg.seed);
        let oriented = triangles::orient(&graph);
        Inputs {
            ranks: pagerank::reference_iters(&graph, ITERS),
            levels: bfs::reference(&graph, 0),
            triangles: triangles::count_oriented(&oriented),
            graph,
            oriented,
            montecarlo: montecarlo::generate(if cfg.smoke { Size::Small } else { Size::A }),
            moldyn: moldyn::generate(moldyn::mm_for(Size::Small), 10),
        }
    }

    fn kernels<'a>(i: &'a Inputs, cfg: &Cfg) -> Vec<Kernel<'a>> {
        let t = cfg.t;
        let g = &i.graph;
        // Irregular kernels must equal their sequential reference bitwise.
        let ranks_ok = |r: &Vec<f64>| *r == i.ranks;
        let levels_ok = |r: &Vec<i64>| *r == i.levels;
        let tri_ok = |r: &u64| *r == i.triangles;
        let mc_ok = |r: &montecarlo::McResult| montecarlo::validate(&i.montecarlo, r);
        let triangles_under = move |label, schedule| {
            Variant::new(label, Role::Woven, move |_| {
                Timed::kernel(
                    || {
                        Weaver::global()
                            .with_deployed(triangles::aspect(t, schedule, &i.oriented), || {
                                triangles::count_oriented(&i.oriented)
                            })
                    },
                    tri_ok,
                )
            })
        };
        vec![
            Kernel {
                variants: vec![
                    Variant::new("irregular.pagerank.ref", Role::Seq, move |_| {
                        Timed::kernel(|| pagerank::reference_iters(g, ITERS), ranks_ok)
                    }),
                    Variant::new("irregular.pagerank.phased", Role::Woven, move |_| {
                        Timed::kernel(
                            || {
                                Weaver::global().with_deployed(pagerank::aspect(t), || {
                                    pagerank::run_phased(g, ITERS)
                                })
                            },
                            ranks_ok,
                        )
                    }),
                    Variant::new("irregular.pagerank.deps", Role::Woven, move |_| {
                        Timed::kernel(
                            || {
                                Weaver::global().with_deployed(pagerank::aspect_deps(t), || {
                                    pagerank::run_deps(g, ITERS, PARTS)
                                })
                            },
                            ranks_ok,
                        )
                    }),
                ],
            },
            Kernel {
                variants: vec![
                    Variant::new("irregular.bfs.ref", Role::Seq, move |_| {
                        Timed::kernel(|| bfs::reference(g, 0), levels_ok)
                    }),
                    Variant::new("irregular.bfs.run", Role::Woven, move |_| {
                        Timed::kernel(
                            || Weaver::global().with_deployed(bfs::aspect(t), || bfs::run(g, 0)),
                            levels_ok,
                        )
                    }),
                    Variant::new("irregular.bfs.deps", Role::Woven, move |_| {
                        Timed::kernel(
                            || {
                                Weaver::global().with_deployed(bfs::aspect_deps(t), || {
                                    bfs::run_deps(g, 0, BFS_LEVELS, PARTS)
                                })
                            },
                            levels_ok,
                        )
                    }),
                ],
            },
            Kernel {
                variants: vec![
                    Variant::new("irregular.triangles.seq", Role::Seq, move |_| {
                        Timed::kernel(|| triangles::count_oriented(&i.oriented), tri_ok)
                    }),
                    triangles_under("irregular.triangles.block", TriSchedule::Block),
                    triangles_under("irregular.triangles.dynamic", TriSchedule::Dynamic),
                    triangles_under("irregular.triangles.adaptive", TriSchedule::Adaptive),
                ],
            },
            // The MonteCarlo twins are jgf_coarse's rows; here they only
            // anchor the ratios of the task and NR variants.
            Kernel {
                variants: vec![
                    Variant::new("jgf.montecarlo.seq", Role::Seq, move |_| {
                        Timed::kernel(|| montecarlo::seq::run(&i.montecarlo), mc_ok)
                    })
                    .unexported(),
                    Variant::new("jgf.montecarlo.mt", Role::Mt, move |_| {
                        Timed::kernel(|| montecarlo::mt::run(&i.montecarlo, t), mc_ok)
                    })
                    .unexported(),
                    Variant::new("jgf.montecarlo.tasks", Role::Woven, move |_| {
                        Timed::kernel(|| montecarlo::tasks::run(&i.montecarlo), mc_ok)
                    }),
                    Variant::new("jgf.montecarlo.nr", Role::Woven, move |_| {
                        Timed::kernel(|| montecarlo::nr::run(&i.montecarlo, t), mc_ok)
                    }),
                ],
            },
            Kernel {
                variants: vec![
                    Variant::new("jgf.moldyn.small_seq", Role::Seq, move |_| {
                        Timed::kernel(|| moldyn::seq::run(&i.moldyn), moldyn::validate)
                    })
                    .unexported(),
                    Variant::new("jgf.moldyn.small_mt", Role::Mt, move |_| {
                        Timed::kernel(|| moldyn::mt::run(&i.moldyn, t), moldyn::validate)
                    })
                    .unexported(),
                    Variant::new("jgf.moldyn.critical", Role::Woven, move |_| {
                        Timed::kernel(
                            || moldyn::variants::run_critical(&i.moldyn, t),
                            moldyn::validate,
                        )
                    }),
                    Variant::new("jgf.moldyn.locks", Role::Woven, move |_| {
                        Timed::kernel(
                            || moldyn::variants::run_locks(&i.moldyn, t),
                            moldyn::validate,
                        )
                    }),
                ],
            },
        ]
    }
}
