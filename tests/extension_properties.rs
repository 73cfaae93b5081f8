//! Randomised property tests over the extension crates (evolib,
//! irregular, jgf) — invariants that must hold for arbitrary inputs.
//! Seeded deterministic loops (no proptest; the workspace builds
//! offline).

use aomplib::evolib::{self, Problem};
use aomplib::irregular::{bfs, triangles, CsrGraph, GraphKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_graph(rng: &mut StdRng) -> CsrGraph {
    let n = rng.gen_range(2usize..80);
    let deg = rng.gen_range(1usize..6);
    let seed = rng.gen_range(0u64..500);
    let kind = if rng.gen_bool(0.5) {
        GraphKind::PowerLaw
    } else {
        GraphKind::Uniform
    };
    CsrGraph::generate(kind, n, deg, seed)
}

#[test]
fn bfs_levels_satisfy_edge_relaxation() {
    for case in 0..32 {
        let mut rng = StdRng::seed_from_u64(100 + case);
        let g = arb_graph(&mut rng);
        let levels = bfs::reference(&g, 0);
        // Every edge (v, w) with v reached implies level[w] <= level[v]+1.
        for v in 0..g.vertices() {
            if levels[v] < 0 {
                continue;
            }
            for &w in g.neighbours(v) {
                let lw = levels[w as usize];
                assert!(
                    lw >= 0,
                    "case {case}: neighbour of a reached vertex is reached"
                );
                assert!(
                    lw <= levels[v] + 1,
                    "case {case}: edge relaxation: {} -> {}",
                    levels[v],
                    lw
                );
            }
        }
        // Parallel BFS agrees.
        let par =
            aomplib::weaver::Weaver::global().with_deployed(bfs::aspect(3), || bfs::run(&g, 0));
        assert_eq!(par, levels, "case {case}");
    }
}

#[test]
fn triangle_count_is_schedule_invariant() {
    for case in 0..32 {
        let mut rng = StdRng::seed_from_u64(200 + case);
        let g = arb_graph(&mut rng);
        let expect = triangles::reference(&g);
        let oriented = triangles::orient(&g);
        for sched in [
            triangles::TriSchedule::Dynamic,
            triangles::TriSchedule::DegreeBalanced,
        ] {
            let got = aomplib::weaver::Weaver::global()
                .with_deployed(triangles::aspect(3, sched, &oriented), || {
                    triangles::count_oriented(&oriented)
                });
            assert_eq!(got, expect, "case {case}: {}", sched.name());
        }
    }
}

#[test]
fn orientation_is_acyclic_by_rank() {
    for case in 0..32 {
        let mut rng = StdRng::seed_from_u64(300 + case);
        let g = arb_graph(&mut rng);
        // Every oriented edge points to an equal-or-higher-degree vertex
        // (ties broken by id): no 2-cycles survive.
        let o = triangles::orient(&g);
        for v in 0..o.vertices() {
            for &w in o.neighbours(v) {
                assert!(
                    !o.neighbours(w as usize).contains(&(v as u32)),
                    "case {case}: 2-cycle {v}<->{w}"
                );
            }
        }
    }
}

#[test]
fn ga_history_is_monotone_with_elitism() {
    for case in 0..32 {
        let mut rng = StdRng::seed_from_u64(400 + case);
        let seed = rng.gen_range(0u64..1000);
        let dims = rng.gen_range(2usize..6);
        let p = evolib::Sphere { dims };
        let cfg = evolib::ga::GaConfig {
            generations: 12,
            pop_size: 20,
            seed,
            ..Default::default()
        };
        let r = evolib::ga::run(&p, &cfg);
        assert!(
            r.history.windows(2).all(|w| w[1] <= w[0] + 1e-12),
            "case {case}"
        );
        assert!(r.best.fitness.is_finite(), "case {case}");
        // Genes stay in bounds.
        let (lo, hi) = p.bounds();
        assert!(
            r.best.genes.iter().all(|g| (lo..=hi).contains(g)),
            "case {case}"
        );
    }
}

#[test]
fn de_selection_never_regresses() {
    for case in 0..32 {
        let mut rng = StdRng::seed_from_u64(500 + case);
        let seed = rng.gen_range(0u64..1000);
        let p = evolib::Rastrigin { dims: 3 };
        let cfg = evolib::de::DeConfig {
            generations: 10,
            pop_size: 12,
            seed,
            ..Default::default()
        };
        let r = evolib::de::run(&p, &cfg);
        assert!(
            r.history.windows(2).all(|w| w[1] <= w[0] + 1e-12),
            "case {case}"
        );
    }
}

#[test]
fn montecarlo_tasks_match_for_loop_variant() {
    use aomplib::jgf::{montecarlo, Size};
    let d = montecarlo::generate(Size::Small);
    let by_for = montecarlo::aomp::run(&d, 3);
    let by_tasks = montecarlo::tasks::run(&d);
    assert_eq!(by_for.results, by_tasks.results);
}
