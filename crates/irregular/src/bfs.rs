//! Level-synchronous breadth-first search.
//!
//! The base program is a textbook frontier loop; each level's expansion
//! is a for method (`Graph.bfs.expand`) and the next-frontier collection
//! is a master point — so a deployed aspect turns it into the classic
//! parallel BFS (dynamic chunks over the frontier, barrier, master
//! merge) without touching this file's logic. A chunk claims like the
//! reference (a load before each CAS) and hands its finds on at once.
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
//! partition is still expanding. The graph grows while its levels find
//! work: the master wires level 0, and the last claim of level `l` wires
//! level `l + 2` (level 0's: 1 and 2) if `l` found a vertex, else closes
//! the group. A level is `2 × parts` tasks; a search of eccentricity `e`
//! wires `e + 2` levels, whatever `max_levels` allows.

use std::sync::atomic::Ordering::{AcqRel, Relaxed};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize};
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
    frontier: Mutex<Arc<Vec<u32>>>,
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
        frontier: Mutex::new(Arc::new(vec![source as u32])),
    };
    state.levels[source].store(0, Relaxed);

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
                    let frontier = Arc::clone(&state.frontier.lock());
                    let mut found = Vec::new();
                    for i in (lo..hi).step_by(step as usize) {
                        for &w in state.g.neighbours(frontier[i as usize] as usize) {
                            // Atomic claim: first visitor sets the level;
                            // the load spares claimed vertices the RMW.
                            let lw = &state.levels[w as usize];
                            if lw.load(Relaxed) == UNREACHED
                                && lw
                                    .compare_exchange(UNREACHED, level + 1, Relaxed, Relaxed)
                                    .is_ok()
                            {
                                found.push(w);
                            }
                        }
                    }
                    if !found.is_empty() {
                        state.discovered.update(|d| d.append(&mut found));
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
                *state.frontier.lock() = Arc::new(next);
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
type Grid<T> = Vec<Vec<Mutex<T>>>;

fn grid<T: Default>(levels: usize, parts: usize) -> Grid<T> {
    (0..levels)
        .map(|_| (0..parts).map(|_| Mutex::default()).collect())
        .collect()
}

/// One [`run_deps`] call: its graph, and the state its tasks share.
struct Dag {
    graph: CsrGraph,
    group: DepGroup,
    levels: SyncVec<i64>,
    parts: usize,
    /// segs[l][p]: frontier vertices claimed *into* partition p at level l.
    segs: Grid<Vec<u32>>,
    /// buckets[l][sp][dp]: neighbours of segs[l][sp] that fall in dp
    /// (empty until the scatter of (l, sp) has run).
    buckets: Grid<Vec<Vec<u32>>>,
    /// Per level: claims done, and whether any found a vertex. A claim sets
    /// the flag before its AcqRel count, which the last claim's acquires.
    tally: Vec<(AtomicUsize, AtomicBool)>,
    #[cfg(test)]
    spawned: AtomicUsize,
}

impl Dag {
    fn run(g: &CsrGraph, source: usize, max_levels: usize, parts: usize) -> (Vec<i64>, Arc<Dag>) {
        let parts = parts.clamp(1, g.vertices());
        let dag = Arc::new(Dag {
            graph: g.clone(),
            group: DepGroup::new(),
            levels: SyncVec::tracked(vec![UNREACHED; g.vertices()], "bfs.dag.levels"),
            parts,
            segs: grid(max_levels + 1, parts),
            buckets: grid(max_levels, parts),
            tally: (0..max_levels).map(|_| Default::default()).collect(),
            #[cfg(test)]
            spawned: AtomicUsize::new(0),
        });
        // SAFETY: sole accessor — no tasks exist yet; the creation edges
        // of the spawns order every task after this write.
        unsafe { dag.levels.set(source, 0) };
        dag.segs[0][dag.part_of(source)].lock().push(source as u32);
        aomp_weaver::call("Graph.bfs.dag", || {
            if !in_parallel() || thread_id() == 0 {
                dag.grow(0..1);
            }
            dag.group.run().expect("tag dependences are acyclic");
        });
        // SAFETY: the graph has been joined; no concurrent access remains.
        (unsafe { dag.levels.snapshot() }, dag)
    }

    fn part_of(&self, v: usize) -> usize {
        (v * self.parts / self.levels.len()).min(self.parts - 1)
    }

    /// Wire the `levels` that `max_levels` allows; if it allows none,
    /// close the group, as no later claim can spawn either.
    fn grow(self: &Arc<Self>, levels: std::ops::Range<usize>) {
        let levels = levels.start..levels.end.min(self.tally.len());
        if levels.is_empty() {
            self.group.close();
        }
        let seg = |l: usize, p: usize| Tag::part("bfs.seg", (l * self.parts + p) as u64);
        let bucket = |l: usize, p: usize| Tag::part("bfs.bucket", (l * self.parts + p) as u64);
        for l in levels {
            for sp in 0..self.parts {
                // Scatter: one scan of segment (l, sp), after the claim
                // that wrote it. Touches no level entry.
                let deps = [Dep::input(seg(l, sp)), Dep::output(bucket(l, sp))];
                let dag = Arc::clone(self);
                self.group.spawn(deps, move || {
                    let mut out = vec![Vec::new(); dag.parts];
                    for &v in dag.segs[l][sp].lock().iter() {
                        for &w in dag.graph.neighbours(v as usize) {
                            out[dag.part_of(w as usize)].push(w);
                        }
                    }
                    *dag.buckets[l][sp].lock() = out;
                });
            }
            for dp in 0..self.parts {
                // Claim into dp: after every scatter of level l, and
                // serialized per partition after all earlier claims.
                let deps = (0..self.parts).map(|sp| Dep::input(bucket(l, sp))).chain([
                    Dep::inout(Tag::part("bfs.levels", dp as u64)),
                    Dep::inout(seg(l + 1, dp)),
                ]);
                let dag = Arc::clone(self);
                self.group.spawn(deps, move || dag.claim(l, dp));
            }
            #[cfg(test)]
            self.spawned.fetch_add(2 * self.parts, Relaxed);
        }
    }

    fn claim(self: &Arc<Self>, l: usize, dp: usize) {
        let mut found = Vec::new();
        for from in &self.buckets[l] {
            // dp is this bucket's only reader.
            for w in std::mem::take(&mut from.lock()[dp]) {
                // SAFETY: the inout tag on dp's level partition makes
                // this task its sole accessor right now.
                if unsafe { self.levels.read(w as usize) } == UNREACHED {
                    unsafe { self.levels.set(w as usize, l as i64 + 1) };
                    found.push(w);
                }
            }
        }
        let (claims, any) = &self.tally[l];
        any.fetch_or(!found.is_empty(), Relaxed);
        *self.segs[l + 1][dp].lock() = found;
        if claims.fetch_add(1, AcqRel) + 1 < self.parts {
            return;
        }
        // The last claim of level l grows the graph, or closes it. Only a
        // claim may grow it: level l's claims run after the claim that
        // wired level l + 1, so l + 2 is wired after l + 1 on every
        // schedule. A spawn from outside the graph has no such order.
        self.grow(match l {
            _ if !any.load(Relaxed) => 0..0,
            0 => 1..3,
            _ => l + 2..l + 3,
        });
    }
}

/// BFS as a dependent task graph. `max_levels` bounds the DAG depth
/// (levels beyond it stay [`UNREACHED`]; pass `g.vertices()` for an
/// exact answer); `parts` is the vertex partition count. Bitwise equal
/// to [`reference`] whenever `max_levels` covers the eccentricity of
/// `source`.
pub fn run_deps(g: &CsrGraph, source: usize, max_levels: usize, parts: usize) -> Vec<i64> {
    if g.vertices() == 0 {
        return Vec::new();
    }
    Dag::run(g, source, max_levels, parts).0
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

    #[test]
    fn dep_graph_stops_when_its_work_does() {
        let g = CsrGraph::generate(GraphKind::PowerLaw, 400, 4, 11);
        let expect = reference(&g, 0);
        let e = *expect.iter().max().unwrap() as usize;
        for (t, parts) in [(0, 3), (2, 4), (4, 16)] {
            let dag = || Dag::run(&g, 0, 64, parts);
            let (got, dag) = match t {
                0 => dag(), // unwoven: the shared executor
                _ => Weaver::global().with_deployed(aspect_deps(t), dag),
            };
            assert_eq!(got, expect, "t={t}");
            assert!(dag.spawned.load(Relaxed) <= 2 * parts * (e + 2), "t={t}");
        }
    }
}
