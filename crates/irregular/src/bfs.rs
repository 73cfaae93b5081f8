//! Level-synchronous breadth-first search.
//!
//! The base program is a textbook frontier loop; each level's expansion
//! is a for method (`Graph.bfs.expand`) and the next-frontier collection
//! is a master point — so a deployed aspect turns it into the classic
//! parallel BFS (dynamic chunks over the frontier, barrier, master
//! merge) without touching this file's logic.
//!
//! [`run_deps`] replaces the two barriers per level with a dependent
//! task graph of two task kinds per level: a *scatter* task per source
//! partition scans the frontier segment that partition produced, once,
//! and buckets the neighbours by destination partition; a *claim* task
//! per destination partition takes its bucket from every scatter of the
//! level and claims the unreached vertices among them. `in` tags on the
//! scanned segment and on the buckets, `inout` tags on the destination
//! partition's level array and next segment carry exactly the orderings
//! level-synchronous BFS needs — and nothing more, so on skewed graphs
//! light partitions race ahead into the next level while the hub
//! partition is still expanding. A level costs `2 × parts` tasks.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use aomp::cell::SyncVec;
use aomp::prelude::*;
use aomp_weaver::prelude::*;
use parking_lot::Mutex;

use crate::graph::CsrGraph;

/// Unreached marker in the level array.
pub const UNREACHED: i64 = -1;

/// The aspect parallelising [`run`]: dynamic for over the frontier with
/// a trailing barrier, master-only frontier collection.
pub fn aspect(threads: usize) -> AspectModule {
    AspectModule::builder("ParallelBfs")
        .bind(
            Pointcut::call("Graph.bfs.run"),
            Mechanism::parallel().threads(threads),
        )
        .bind(
            Pointcut::call("Graph.bfs.expand"),
            Mechanism::for_loop(Schedule::Dynamic { chunk: 64 }),
        )
        .bind(
            Pointcut::call("Graph.bfs.expand"),
            Mechanism::barrier_after(),
        )
        .bind(Pointcut::call("Graph.bfs.collect"), Mechanism::master())
        .bind(
            Pointcut::call("Graph.bfs.collect"),
            Mechanism::barrier_after(),
        )
        .build()
}

struct BfsState<'a> {
    g: &'a CsrGraph,
    levels: Vec<AtomicI64>,
    discovered: ThreadLocalField<Vec<u32>>,
    frontier: Mutex<Vec<u32>>,
}

/// BFS levels from `source`; `UNREACHED` for unreachable vertices.
/// Deterministic under any team size (claims are atomic; the next
/// frontier is sorted).
pub fn run(g: &CsrGraph, source: usize) -> Vec<i64> {
    let n = g.vertices();
    let state = BfsState {
        g,
        levels: (0..n).map(|_| AtomicI64::new(UNREACHED)).collect(),
        discovered: ThreadLocalField::new(Vec::new()),
        frontier: Mutex::new(vec![source as u32]),
    };
    state.levels[source].store(0, Ordering::Relaxed);

    aomp_weaver::call("Graph.bfs.run", || {
        let mut level = 0i64;
        loop {
            let frontier_len = state.frontier.lock().len();
            if frontier_len == 0 {
                break;
            }
            // Expand the current frontier (work-shared by the aspect).
            aomp_weaver::call_for(
                "Graph.bfs.expand",
                LoopRange::upto(0, frontier_len as i64),
                |lo, hi, step| {
                    let frontier = state.frontier.lock().clone();
                    let mut i = lo;
                    while i < hi {
                        let v = frontier[i as usize] as usize;
                        for &w in state.g.neighbours(v) {
                            // Atomic claim: first visitor sets the level.
                            if state.levels[w as usize]
                                .compare_exchange(
                                    UNREACHED,
                                    level + 1,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                )
                                .is_ok()
                            {
                                state.discovered.update_or_init(Vec::new, |d| d.push(w));
                            }
                        }
                        i += step;
                    }
                },
            );
            // Master collects the next frontier from the thread-local
            // buffers (sorted for determinism).
            aomp_weaver::call("Graph.bfs.collect", || {
                let mut next: Vec<u32> = state
                    .discovered
                    .drain_locals()
                    .into_iter()
                    .flatten()
                    .collect();
                next.sort_unstable();
                *state.frontier.lock() = next;
            });
            level += 1;
        }
    });
    state.levels.into_iter().map(|l| l.into_inner()).collect()
}

/// Sequential reference BFS for validation.
pub fn reference(g: &CsrGraph, source: usize) -> Vec<i64> {
    let mut levels = vec![UNREACHED; g.vertices()];
    let mut frontier = vec![source as u32];
    levels[source] = 0;
    let mut level = 0;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &v in &frontier {
            for &w in g.neighbours(v as usize) {
                if levels[w as usize] == UNREACHED {
                    levels[w as usize] = level + 1;
                    next.push(w);
                }
            }
        }
        next.sort_unstable();
        frontier = next;
        level += 1;
    }
    levels
}

/// The aspect parallelising [`run_deps`] — a team and nothing else;
/// ordering is carried by the dependence tags.
pub fn aspect_deps(threads: usize) -> AspectModule {
    AspectModule::builder("DependentBfs")
        .bind(
            Pointcut::call("Graph.bfs.dag"),
            Mechanism::parallel().threads(threads),
        )
        .build()
}

/// Per-(level, partition) cells shared by [`run_deps`]'s tasks.
type Grid<T> = Arc<Vec<Vec<Mutex<T>>>>;

fn grid<T: Default>(levels: usize, parts: usize) -> Grid<T> {
    Arc::new(
        (0..levels)
            .map(|_| (0..parts).map(|_| Mutex::default()).collect())
            .collect(),
    )
}

/// BFS as a dependent task graph. `max_levels` bounds the DAG depth
/// (levels beyond it stay [`UNREACHED`]; pass `g.vertices()` for an
/// exact answer); `parts` is the vertex partition count. Bitwise equal
/// to [`reference`] whenever `max_levels` covers the eccentricity of
/// `source`.
pub fn run_deps(g: &CsrGraph, source: usize, max_levels: usize, parts: usize) -> Vec<i64> {
    let n = g.vertices();
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let part_of = move |v: usize| (v * parts / n).min(parts - 1);
    let levels = Arc::new(SyncVec::tracked(vec![UNREACHED; n], "bfs.dag.levels"));
    // segs[l][p]: frontier vertices claimed *into* partition p at level l.
    // buckets[l][sp][dp]: neighbours of segs[l][sp] that fall in dp (empty
    // until the scatter of (l, sp) has run).
    let segs: Grid<Vec<u32>> = grid(max_levels + 1, parts);
    let buckets: Grid<Vec<Vec<u32>>> = grid(max_levels, parts);
    // SAFETY: sole accessor — no tasks exist yet; the creation edges of
    // the spawns below order every task after this write.
    unsafe { levels.set(source, 0) };
    segs[0][part_of(source)].lock().push(source as u32);
    let graph = Arc::new(g.clone());
    let group = DepGroup::new();
    let seg = |l: usize, p: usize| Tag::part("bfs.seg", (l * parts + p) as u64);
    let bucket = |l: usize, p: usize| Tag::part("bfs.bucket", (l * parts + p) as u64);
    aomp_weaver::call("Graph.bfs.dag", || {
        if !in_parallel() || thread_id() == 0 {
            for l in 0..max_levels {
                for sp in 0..parts {
                    // Scatter: one scan of segment (l, sp), after the
                    // claim that wrote it. Touches no level entry.
                    let (segs, buckets, graph) =
                        (Arc::clone(&segs), Arc::clone(&buckets), Arc::clone(&graph));
                    group.spawn(
                        [Dep::input(seg(l, sp)), Dep::output(bucket(l, sp))],
                        move || {
                            let frontier = segs[l][sp].lock();
                            if frontier.is_empty() {
                                return;
                            }
                            let mut out = vec![Vec::new(); parts];
                            for &v in frontier.iter() {
                                for &w in graph.neighbours(v as usize) {
                                    out[part_of(w as usize)].push(w);
                                }
                            }
                            *buckets[l][sp].lock() = out;
                        },
                    );
                }
                for dp in 0..parts {
                    // Claim into dp: after every scatter of level l, and
                    // serialized per partition after all earlier claims.
                    let deps = (0..parts).map(|sp| Dep::input(bucket(l, sp))).chain([
                        Dep::inout(Tag::part("bfs.levels", dp as u64)),
                        Dep::inout(seg(l + 1, dp)),
                    ]);
                    let (levels, segs, buckets) =
                        (Arc::clone(&levels), Arc::clone(&segs), Arc::clone(&buckets));
                    group.spawn(deps, move || {
                        let lvl = (l + 1) as i64;
                        let mut found = Vec::new();
                        for from in buckets[l].iter() {
                            // dp is this bucket's only reader.
                            let Some(cands) = from.lock().get_mut(dp).map(std::mem::take) else {
                                continue;
                            };
                            for w in cands {
                                // SAFETY: the inout tag on dp's level
                                // partition makes this task its sole
                                // accessor right now.
                                if unsafe { levels.read(w as usize) } == UNREACHED {
                                    unsafe { levels.set(w as usize, lvl) };
                                    found.push(w);
                                }
                            }
                        }
                        if !found.is_empty() {
                            *segs[l + 1][dp].lock() = found;
                        }
                    });
                }
            }
            group.close();
        }
        group.run().expect("tag-derived dependences are acyclic");
    });
    // SAFETY: the graph has been joined; no concurrent access remains.
    unsafe { levels.snapshot() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphKind;

    #[test]
    fn bfs_on_a_path_graph() {
        let g = CsrGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(run(&g, 0), vec![0, 1, 2, 3]);
        assert_eq!(run(&g, 3), vec![UNREACHED, UNREACHED, UNREACHED, 0]);
    }

    #[test]
    fn parallel_bfs_matches_reference() {
        for kind in [GraphKind::Uniform, GraphKind::PowerLaw] {
            let g = CsrGraph::generate(kind, 500, 4, 11);
            let expect = reference(&g, 0);
            // Unwoven (sequential semantics).
            assert_eq!(run(&g, 0), expect, "{kind:?} unwoven");
            // Woven on several team sizes.
            for t in [2usize, 4] {
                let got = Weaver::global().with_deployed(aspect(t), || run(&g, 0));
                assert_eq!(got, expect, "{kind:?} t={t}");
            }
        }
    }

    #[test]
    fn unreachable_vertices_stay_unreached() {
        let g = CsrGraph::from_edges(5, vec![(0, 1), (3, 4)]);
        let levels = run(&g, 0);
        assert_eq!(levels[3], UNREACHED);
        assert_eq!(levels[4], UNREACHED);
    }

    #[test]
    fn dep_graph_bfs_matches_reference() {
        for kind in [GraphKind::Uniform, GraphKind::PowerLaw] {
            let g = CsrGraph::generate(kind, 400, 4, 11);
            let expect = reference(&g, 0);
            // Unwoven (executor-mode graph).
            assert_eq!(run_deps(&g, 0, 32, 3), expect, "{kind:?} unwoven");
            for t in [2usize, 4] {
                let got =
                    Weaver::global().with_deployed(aspect_deps(t), || run_deps(&g, 0, 32, 2 * t));
                assert_eq!(got, expect, "{kind:?} t={t}");
            }
        }
    }

    #[test]
    fn dep_graph_bfs_truncates_at_max_levels() {
        let g = CsrGraph::from_edges(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        let levels = run_deps(&g, 0, 2, 2);
        assert_eq!(levels, vec![0, 1, 2, UNREACHED, UNREACHED]);
        // Full depth recovers the reference.
        assert_eq!(run_deps(&g, 0, 5, 2), reference(&g, 0));
    }
}
