//! PageRank by pull-based power iteration.
//!
//! Each iteration is a for method over vertices (`Graph.pagerank.sweep`)
//! reading the previous rank buffer and writing the next (double
//! buffering, flipped by iteration parity) — disjoint by vertex, so any
//! schedule is race-free and the result is bitwise identical for every
//! team size. The convergence error is accumulated in a
//! `@ThreadLocalField` and folded at a master-broadcast value join
//! point, the same reduction idiom as the paper's MolDyn.
//!
//! Two formulations of the fixed-iteration kernel coexist:
//!
//! * [`run_phased`] — the classic barriered twin: every iteration is a
//!   work-shared sweep followed by a team barrier, so the slowest
//!   partition of iteration `k` gates *all* of iteration `k + 1`.
//! * [`run_deps`] — the dependent task graph: one task per (iteration,
//!   partition) with `depend(in:)` tags on the source-buffer partitions
//!   it actually reads (from the transpose's partition structure) and a
//!   `depend(out:)` tag on the destination partition it writes. A light
//!   partition starts iteration `k + 1` as soon as *its* in-neighbour
//!   partitions finish iteration `k` — on skewed graphs the hub
//!   partition no longer stalls everyone (the WAR hazard against the
//!   previous iteration's readers is handled by the runtime's reader-set
//!   tracking). Both are bitwise equal to [`reference_iters`].

use std::sync::Arc;

use aomp::cell::SyncVec;
use aomp::prelude::*;
use aomp_weaver::prelude::*;
use parking_lot::Mutex;

use crate::graph::CsrGraph;

/// Damping factor.
pub const DAMPING: f64 = 0.85;

/// The aspect parallelising [`run`].
pub fn aspect(threads: usize) -> AspectModule {
    AspectModule::builder("ParallelPageRank")
        .bind(
            Pointcut::call("Graph.pagerank.run"),
            Mechanism::parallel().threads(threads),
        )
        .bind(
            Pointcut::call("Graph.pagerank.sweep"),
            Mechanism::for_loop(Schedule::StaticBlock),
        )
        .bind(
            Pointcut::call("Graph.pagerank.sweep"),
            Mechanism::barrier_after(),
        )
        .bind(Pointcut::call("Graph.pagerank.error"), Mechanism::master())
        .bind(
            Pointcut::call("Graph.pagerank.error"),
            Mechanism::barrier_before(),
        )
        .build()
}

/// PageRank of `g`, iterating until the L1 delta falls below `tol` or
/// `max_iters` is reached. Returns `(ranks, iterations_used)`.
pub fn run(g: &CsrGraph, tol: f64, max_iters: usize) -> (Vec<f64>, usize) {
    let n = g.vertices();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let gt = g.transpose();
    let out_degree: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    // Double buffer, flipped by iteration parity.
    let bufs = [
        SyncVec::tracked(vec![1.0 / n as f64; n], "pagerank.ranks.even"),
        SyncVec::zeroed_tracked(n, "pagerank.ranks.odd"),
    ];
    let err_tlf = ThreadLocalField::new(0.0f64);
    let iters_done = Mutex::new(0usize);

    aomp_weaver::call("Graph.pagerank.run", || {
        for iter in 0..max_iters {
            let (src, dst) = (&bufs[iter % 2], &bufs[(iter + 1) % 2]);
            aomp_weaver::call_for(
                "Graph.pagerank.sweep",
                LoopRange::upto(0, n as i64),
                |lo, hi, step| {
                    let mut v = lo;
                    let mut local_err = 0.0;
                    while v < hi {
                        let vu = v as usize;
                        let mut sum = 0.0;
                        for &u in gt.neighbours(vu) {
                            let ud = out_degree[u as usize];
                            if ud > 0 {
                                // SAFETY: src is read-only during the sweep.
                                sum += unsafe { src.read(u as usize) } / ud as f64;
                            }
                        }
                        let nv = (1.0 - DAMPING) / n as f64 + DAMPING * sum;
                        // SAFETY: vertex vu is schedule-owned for writing.
                        unsafe {
                            local_err += (nv - src.read(vu)).abs();
                            dst.set(vu, nv);
                        }
                        v += step;
                    }
                    err_tlf.update_or_init(|| 0.0, |e| *e += local_err);
                },
            );
            // Master folds the error; the value is broadcast so every
            // thread takes the same branch below.
            let err: f64 = aomp_weaver::call_value("Graph.pagerank.error", || {
                let e = err_tlf.drain_locals().into_iter().sum();
                *iters_done.lock() = iter + 1;
                e
            });
            if err < tol {
                break;
            }
        }
    });
    let iters = *iters_done.lock();
    // The last-written buffer holds the result.
    // SAFETY: the region has joined; no concurrent access remains.
    let ranks = unsafe { bufs[iters % 2].snapshot() };
    (ranks, iters)
}

/// Sequential reference implementation for validation.
pub fn reference(g: &CsrGraph, tol: f64, max_iters: usize) -> (Vec<f64>, usize) {
    let n = g.vertices();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let gt = g.transpose();
    let out_degree: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let mut ranks = vec![1.0 / n as f64; n];
    let mut iters = 0;
    for _ in 0..max_iters {
        let mut next = vec![0.0; n];
        let mut err = 0.0;
        for (v, nx) in next.iter_mut().enumerate() {
            let mut sum = 0.0;
            for &u in gt.neighbours(v) {
                let ud = out_degree[u as usize];
                if ud > 0 {
                    sum += ranks[u as usize] / ud as f64;
                }
            }
            *nx = (1.0 - DAMPING) / n as f64 + DAMPING * sum;
            err += (*nx - ranks[v]).abs();
        }
        ranks = next;
        iters += 1;
        if err < tol {
            break;
        }
    }
    (ranks, iters)
}

/// Sequential reference for exactly `iters` power iterations (no
/// convergence test) — the oracle both fixed-iteration parallel
/// formulations are compared against bitwise.
pub fn reference_iters(g: &CsrGraph, iters: usize) -> Vec<f64> {
    let n = g.vertices();
    if n == 0 {
        return Vec::new();
    }
    let gt = g.transpose();
    let out_degree: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let mut ranks = vec![1.0 / n as f64; n];
    for _ in 0..iters {
        let mut next = vec![0.0; n];
        for (v, nx) in next.iter_mut().enumerate() {
            let mut sum = 0.0;
            for &u in gt.neighbours(v) {
                let ud = out_degree[u as usize];
                if ud > 0 {
                    sum += ranks[u as usize] / ud as f64;
                }
            }
            *nx = (1.0 - DAMPING) / n as f64 + DAMPING * sum;
        }
        ranks = next;
    }
    ranks
}

/// The barriered twin of [`run_deps`]: exactly `iters` sweeps, each a
/// work-shared for method with a trailing team barrier. Uses the same
/// join points as [`run`], so [`aspect`] parallelises it.
pub fn run_phased(g: &CsrGraph, iters: usize) -> Vec<f64> {
    let n = g.vertices();
    if n == 0 {
        return Vec::new();
    }
    let gt = g.transpose();
    let out_degree: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let bufs = [
        SyncVec::tracked(vec![1.0 / n as f64; n], "pagerank.ranks.even"),
        SyncVec::zeroed_tracked(n, "pagerank.ranks.odd"),
    ];
    aomp_weaver::call("Graph.pagerank.run", || {
        for iter in 0..iters {
            let (src, dst) = (&bufs[iter % 2], &bufs[(iter + 1) % 2]);
            aomp_weaver::call_for(
                "Graph.pagerank.sweep",
                LoopRange::upto(0, n as i64),
                |lo, hi, step| {
                    let mut v = lo;
                    while v < hi {
                        let vu = v as usize;
                        let mut sum = 0.0;
                        for &u in gt.neighbours(vu) {
                            let ud = out_degree[u as usize];
                            if ud > 0 {
                                // SAFETY: src is read-only during the sweep.
                                sum += unsafe { src.read(u as usize) } / ud as f64;
                            }
                        }
                        // SAFETY: vertex vu is schedule-owned for writing.
                        unsafe { dst.set(vu, (1.0 - DAMPING) / n as f64 + DAMPING * sum) };
                        v += step;
                    }
                },
            );
        }
    });
    // SAFETY: the region has joined; no concurrent access remains.
    unsafe { bufs[iters % 2].snapshot() }
}

/// Contiguous block bounds of partition `p` of `n` vertices in `parts`
/// partitions: `[lo, hi)`.
pub fn partition_bounds(n: usize, parts: usize, p: usize) -> (usize, usize) {
    (p * n / parts, (p + 1) * n / parts)
}

/// For each partition `p`, the partitions holding at least one
/// in-neighbour of a vertex of `p` — i.e. the source-buffer partitions
/// the `p`-sweep task reads. `gt` is the transpose of the graph.
pub fn source_partitions(gt: &CsrGraph, parts: usize) -> Vec<Vec<u64>> {
    let n = gt.vertices();
    let part_of = |v: usize| (v * parts / n).min(parts - 1);
    (0..parts)
        .map(|p| {
            let (lo, hi) = partition_bounds(n, parts, p);
            let mut seen = vec![false; parts];
            for v in lo..hi {
                for &u in gt.neighbours(v) {
                    seen[part_of(u as usize)] = true;
                }
            }
            (0..parts).filter(|&q| seen[q]).map(|q| q as u64).collect()
        })
        .collect()
}

/// The aspect parallelising [`run_deps`] — only a team is needed; the
/// ordering is carried by the dependence tags, not barriers.
pub fn aspect_deps(threads: usize) -> AspectModule {
    AspectModule::builder("DependentPageRank")
        .bind(
            Pointcut::call("Graph.pagerank.dag"),
            Mechanism::parallel().threads(threads),
        )
        .build()
}

/// PageRank as a dependent task graph: one task per (iteration,
/// partition), `in` tags on the source-buffer partitions it reads, an
/// `out` tag on the destination partition it writes. Bitwise equal to
/// [`reference_iters`] for any team size and partition count.
pub fn run_deps(g: &CsrGraph, iters: usize, parts: usize) -> Vec<f64> {
    let n = g.vertices();
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let gt = Arc::new(g.transpose());
    let out_degree: Arc<Vec<usize>> = Arc::new((0..n).map(|v| g.degree(v)).collect());
    let srcparts = source_partitions(&gt, parts);
    let bufs = Arc::new([
        SyncVec::tracked(vec![1.0 / n as f64; n], "pagerank.dag.even"),
        SyncVec::zeroed_tracked(n, "pagerank.dag.odd"),
    ]);
    let group = DepGroup::new();
    aomp_weaver::call("Graph.pagerank.dag", || {
        if !in_parallel() || thread_id() == 0 {
            for iter in 0..iters {
                let (src_name, dst_name) = if iter % 2 == 0 {
                    ("pagerank.dag.even", "pagerank.dag.odd")
                } else {
                    ("pagerank.dag.odd", "pagerank.dag.even")
                };
                for (p, sp) in srcparts.iter().enumerate() {
                    let mut deps: Vec<Dep> = sp
                        .iter()
                        .map(|&q| Dep::input(Tag::part(src_name, q)))
                        .collect();
                    deps.push(Dep::output(Tag::part(dst_name, p as u64)));
                    let (lo, hi) = partition_bounds(n, parts, p);
                    let bufs = Arc::clone(&bufs);
                    let gt = Arc::clone(&gt);
                    let out_degree = Arc::clone(&out_degree);
                    group.spawn(deps, move || {
                        let (src, dst) = (&bufs[iter % 2], &bufs[(iter + 1) % 2]);
                        for v in lo..hi {
                            let mut sum = 0.0;
                            for &u in gt.neighbours(v) {
                                let ud = out_degree[u as usize];
                                if ud > 0 {
                                    // SAFETY: the in-tag on u's partition
                                    // orders this read after its writer.
                                    sum += unsafe { src.read(u as usize) } / ud as f64;
                                }
                            }
                            // SAFETY: the out-tag makes this task the
                            // partition's sole writer.
                            unsafe { dst.set(v, (1.0 - DAMPING) / n as f64 + DAMPING * sum) };
                        }
                    });
                }
            }
            group.close();
        }
        group.run().expect("tag-derived dependences are acyclic");
    });
    // SAFETY: the graph has been joined; no concurrent access remains.
    unsafe { bufs[iters % 2].snapshot() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphKind;

    #[test]
    fn pagerank_matches_reference_bitwise() {
        let g = CsrGraph::generate(GraphKind::Uniform, 300, 5, 42);
        let (expect, expect_iters) = reference(&g, 1e-8, 100);
        // Unwoven.
        let (got, iters) = run(&g, 1e-8, 100);
        assert_eq!(got, expect);
        assert_eq!(iters, expect_iters);
        // Woven at several team sizes.
        for t in [2usize, 4] {
            let (got, iters) = Weaver::global().with_deployed(aspect(t), || run(&g, 1e-8, 100));
            assert_eq!(got, expect, "t={t}");
            assert_eq!(iters, expect_iters, "t={t}");
        }
    }

    #[test]
    fn ranks_sum_to_about_one() {
        let g = CsrGraph::generate(GraphKind::PowerLaw, 500, 6, 9);
        let (ranks, _) = run(&g, 1e-10, 200);
        let total: f64 = ranks.iter().sum();
        // Dangling vertices leak a little mass in this formulation.
        assert!(total > 0.5 && total <= 1.0 + 1e-9, "total {total}");
    }

    #[test]
    fn hub_gets_high_rank() {
        // star: everyone points at vertex 0.
        let edges: Vec<(u32, u32)> = (1..50u32).map(|v| (v, 0)).collect();
        let g = CsrGraph::from_edges(50, edges);
        let (ranks, _) = run(&g, 1e-10, 100);
        let hub = ranks[0];
        assert!(ranks[1..].iter().all(|&r| r < hub), "hub must dominate");
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, vec![]);
        let (ranks, iters) = run(&g, 1e-8, 10);
        assert!(ranks.is_empty());
        assert_eq!(iters, 0);
    }

    #[test]
    fn dep_graph_matches_reference_bitwise() {
        for kind in [GraphKind::Uniform, GraphKind::PowerLaw] {
            let g = CsrGraph::generate(kind, 300, 5, 42);
            let expect = reference_iters(&g, 8);
            // Unwoven (executor-mode graph).
            assert_eq!(run_deps(&g, 8, 6), expect, "{kind:?} unwoven");
            // Barriered twin, unwoven and woven.
            assert_eq!(run_phased(&g, 8), expect, "{kind:?} phased unwoven");
            for t in [2usize, 4] {
                let got = Weaver::global().with_deployed(aspect_deps(t), || run_deps(&g, 8, 2 * t));
                assert_eq!(got, expect, "{kind:?} deps t={t}");
                let got = Weaver::global().with_deployed(aspect(t), || run_phased(&g, 8));
                assert_eq!(got, expect, "{kind:?} phased t={t}");
            }
        }
    }

    #[test]
    fn source_partitions_cover_actual_reads() {
        let g = CsrGraph::generate(GraphKind::PowerLaw, 200, 4, 7);
        let gt = g.transpose();
        let parts = 5;
        let n = g.vertices();
        let sp = source_partitions(&gt, parts);
        let part_of = |v: usize| (v * parts / n).min(parts - 1);
        for (p, sources) in sp.iter().enumerate() {
            let (lo, hi) = partition_bounds(n, parts, p);
            for v in lo..hi {
                for &u in gt.neighbours(v) {
                    assert!(
                        sources.contains(&(part_of(u as usize) as u64)),
                        "partition {p} reads {u} but lacks its partition tag"
                    );
                }
            }
        }
    }

    #[test]
    fn dep_graph_zero_iters_and_empty() {
        let g = CsrGraph::from_edges(0, vec![]);
        assert!(run_deps(&g, 4, 2).is_empty());
        let g = CsrGraph::from_edges(3, vec![(0, 1), (1, 2)]);
        assert_eq!(run_deps(&g, 0, 2), vec![1.0 / 3.0; 3]);
    }
}
