//! Schedule exploration of the task-dependence layer end to end: the
//! dependent-task-graph kernels (`pagerank::run_deps`, `bfs::run_deps`)
//! stay bitwise equal to their sequential references on *every* explored
//! interleaving with the race oracle armed, and unwoven `bfs::run_deps`
//! grows its graph in level order on the shared executor; a successor
//! wired while its predecessor completes still runs after it; an
//! intentionally inverted `depend` pair (two tasks both claiming `in` on
//! the tag one of them writes) is flagged as a data race; and a failing
//! schedule's trace replays byte-for-byte.

use aomp_check as check;
use aomp_irregular::{bfs, pagerank, CsrGraph};
use aomp_weaver::Weaver;
use aomplib::prelude::*;
use aomplib::runtime::check::Tracked;
use aomplib::runtime::deps::{Dep, DepGroup};
use std::sync::Arc;

/// A tiny diamond-plus-tail graph: enough structure for two partitions
/// to exchange ranks/frontiers, small enough to explore.
fn tiny_graph() -> CsrGraph {
    CsrGraph::from_edges(
        6,
        vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 0)],
    )
}

/// [`tiny_graph`] plus a vertex at depth 5, split into three uneven
/// partitions (3, 2, 2 vertices) by `bfs::run_deps`.
fn uneven_graph() -> CsrGraph {
    CsrGraph::from_edges(
        7,
        vec![
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 0),
            (5, 6),
            (6, 3),
        ],
    )
}

/// Eccentricity of vertex 0 in [`uneven_graph`].
const UNEVEN_DEPTH: usize = 5;

// ---------------------------------------------------------------------------
// Differential oracle under exploration: the dependent graphs match
// their sequential references bitwise on every interleaving.
// ---------------------------------------------------------------------------

#[test]
fn dfs_dep_pagerank_is_bitwise_sequential() {
    let g = tiny_graph();
    let expect = pagerank::reference_iters(&g, 2);
    let report = check::Explorer::new().races(true).dfs(600, 48, || {
        let got = Weaver::global()
            .with_deployed(pagerank::aspect_deps(2), || pagerank::run_deps(&g, 2, 2));
        assert_eq!(got, expect, "dep pagerank diverged on an interleaving");
    });
    report.assert_ok();
    assert!(report.schedules() > 1, "exploration too shallow");
}

#[test]
fn pct_dep_pagerank_is_bitwise_sequential() {
    let g = tiny_graph();
    let expect = pagerank::reference_iters(&g, 3);
    check::Explorer::new()
        .races(true)
        .pct(check::seeds_from_env(16), 0xDA6, 3, || {
            let got = Weaver::global()
                .with_deployed(pagerank::aspect_deps(2), || pagerank::run_deps(&g, 3, 2));
            assert_eq!(got, expect, "dep pagerank diverged on an interleaving");
        })
        .assert_ok();
}

#[test]
fn dfs_dep_bfs_is_bitwise_sequential() {
    let g = tiny_graph();
    let expect = bfs::reference(&g, 0);
    let report = check::Explorer::new().races(true).dfs(600, 48, || {
        let got =
            Weaver::global().with_deployed(bfs::aspect_deps(2), || bfs::run_deps(&g, 0, 6, 2));
        assert_eq!(got, expect, "dep BFS diverged on an interleaving");
    });
    report.assert_ok();
    assert!(report.schedules() > 1, "exploration too shallow");
}

#[test]
fn pct_dep_bfs_is_bitwise_sequential() {
    let g = tiny_graph();
    let expect = bfs::reference(&g, 0);
    check::Explorer::new()
        .races(true)
        .pct(check::seeds_from_env(16), 0xBF5, 3, || {
            let got =
                Weaver::global().with_deployed(bfs::aspect_deps(2), || bfs::run_deps(&g, 0, 6, 2));
            assert_eq!(got, expect, "dep BFS diverged on an interleaving");
        })
        .assert_ok();
}

/// What `bfs::run_deps(g, 0, max_levels, _)` must return: the reference
/// with every level past `max_levels` left unreached.
fn truncated_reference(g: &CsrGraph, max_levels: usize) -> Vec<i64> {
    let cut = |l: i64| {
        if l > max_levels as i64 {
            bfs::UNREACHED
        } else {
            l
        }
    };
    bfs::reference(g, 0).into_iter().map(cut).collect()
}

/// Depths to run the uneven graph at, one per way its group closes: at
/// the `max_levels` bound from level 0's last claim, from a middle
/// level's, and one level short of the last vertex; and, at twice the
/// graph's depth, on the first level that finds nothing.
const UNEVEN_LEVELS: [usize; 4] = [1, 3, UNEVEN_DEPTH, 2 * UNEVEN_DEPTH];

/// Three partitions of uneven size, `max_levels` deep.
fn uneven_dep_bfs(max_levels: usize, expect: &[i64]) {
    let g = uneven_graph();
    let got =
        Weaver::global().with_deployed(bfs::aspect_deps(2), || bfs::run_deps(&g, 0, max_levels, 3));
    assert_eq!(
        got, expect,
        "uneven dep BFS at {max_levels} levels diverged on an interleaving"
    );
}

#[test]
fn dfs_uneven_dep_bfs_is_bitwise_sequential() {
    assert_eq!(
        bfs::reference(&uneven_graph(), 0).iter().max(),
        Some(&(UNEVEN_DEPTH as i64))
    );
    for max_levels in UNEVEN_LEVELS {
        let expect = truncated_reference(&uneven_graph(), max_levels);
        let report = check::Explorer::new()
            .races(true)
            .dfs(600, 48, || uneven_dep_bfs(max_levels, &expect));
        report.assert_ok();
        assert!(
            report.schedules() > 1,
            "exploration too shallow at {max_levels} levels"
        );
    }
}

#[test]
fn pct_uneven_dep_bfs_is_bitwise_sequential() {
    for max_levels in UNEVEN_LEVELS {
        let expect = truncated_reference(&uneven_graph(), max_levels);
        check::Explorer::new()
            .races(true)
            .pct(
                check::seeds_from_env(16),
                0x3BF5 + max_levels as u64,
                3,
                || uneven_dep_bfs(max_levels, &expect),
            )
            .assert_ok();
    }
}

/// Unwoven, `run_deps` runs on the shared executor, where no explorer
/// serializes the claims that grow the graph: a level wired before the
/// one it follows reads an unwritten segment and claims past its bound.
/// Every depth from closing at level 0 to closing on an empty level,
/// a few hundred times, against the truncated reference.
#[test]
fn executor_mode_dep_bfs_wires_levels_in_order() {
    let g = uneven_graph();
    for rep in 0..30 {
        for max_levels in 1..=2 * UNEVEN_DEPTH {
            let expect = truncated_reference(&g, max_levels);
            let got = bfs::run_deps(&g, 0, max_levels, 3);
            assert_eq!(got, expect, "max_levels={max_levels}, repetition {rep}");
        }
    }
}

// ---------------------------------------------------------------------------
// The completion window: a completing task publishes its releases with
// the group lock dropped (a hook event may block it), then commits. A
// successor wired in between must still get its release before it can
// run — or its read of the predecessor's write races.
// ---------------------------------------------------------------------------

/// Member 1 spawns, so member 0 — first in the explorer's default
/// order — runs the writer, and the decisions inside its completion are
/// the ones the bounded DFS below varies.
fn successor_wired_during_completion() {
    let cell = Arc::new(Tracked::new("late.successor", 0u64));
    let group = DepGroup::new();
    region::parallel_with(RegionConfig::new().threads(2), move || {
        if thread_id() == 1 {
            let (w, rd) = (Arc::clone(&cell), Arc::clone(&cell));
            group.spawn([Dep::output("late")], move || unsafe { w.set(7) });
            // An unrelated spawn: its creation release is a scheduling
            // point at which member 0 can start the writer before the
            // reader below is wired.
            group.spawn([], || {});
            group.spawn([Dep::input("late")], move || {
                assert_eq!(
                    unsafe { rd.read() },
                    7,
                    "successor ran before its predecessor"
                );
            });
            group.close();
        }
        group.run().expect("no cycles");
    });
}

#[test]
fn dfs_successor_wired_during_completion_sees_the_write() {
    // Every interleaving that diverges within the first 10 decisions:
    // enough to open the window, and a complete enumeration.
    let report =
        check::Explorer::new()
            .races(true)
            .dfs(2_000, 10, successor_wired_during_completion);
    report.assert_ok();
    assert!(!report.truncated, "the bounded enumeration must complete");
}

// ---------------------------------------------------------------------------
// The inverted pair: a producer that *claims* to only read. Two `in`
// clauses on one tag commute — the runtime is entitled to run them
// concurrently — so the hidden write must surface as a data race.
// ---------------------------------------------------------------------------

fn inverted_depend_pair() {
    let cell = Arc::new(Tracked::new("inverted.depend", 0u64));
    let group = DepGroup::new();
    let (w, rd) = (Arc::clone(&cell), Arc::clone(&cell));
    region::parallel_with(RegionConfig::new().threads(2), move || {
        if thread_id() == 0 {
            let w = Arc::clone(&w);
            let rd = Arc::clone(&rd);
            // BUG: the writer's clause says `in` — inverted from the
            // `out` its body needs — so no edge orders the pair.
            group.spawn([Dep::input("handoff")], move || unsafe { w.set(7) });
            group.spawn([Dep::input("handoff")], move || {
                let _ = unsafe { rd.read() };
            });
            group.close();
        }
        group.run().expect("no cycles");
    });
}

#[test]
fn dfs_flags_the_inverted_depend_pair() {
    let report = check::Explorer::new()
        .races(true)
        .dfs(2_000, 64, inverted_depend_pair);
    let hit = report
        .runs
        .iter()
        .find(|r| r.race.is_some())
        .expect("an inverted depend pair must race on some interleaving");
    let msg = hit.failure.as_deref().expect("a race fails its schedule");
    assert!(msg.contains("data race"), "{msg}");
    assert!(
        msg.contains("inverted.depend"),
        "report must name the tracked site: {msg}"
    );
}

#[test]
fn pct_flags_the_inverted_depend_pair() {
    let report = check::Explorer::new().races(true).pct(
        check::seeds_from_env(16),
        0x1BADDE9,
        3,
        inverted_depend_pair,
    );
    assert!(
        report.runs.iter().any(|r| r.race.is_some()),
        "an inverted depend pair must race under PCT priorities"
    );
}

// ---------------------------------------------------------------------------
// Reproduction: a failing dependence schedule replays byte-for-byte and
// re-finds the same race; a clean schedule replays to the same digest.
// ---------------------------------------------------------------------------

#[test]
fn racy_dep_schedule_replays_byte_for_byte() {
    let explorer = check::Explorer::new().races(true);
    let report = explorer.random(check::seeds_from_env(16), 0xDE9_5EED, inverted_depend_pair);
    let failing = report
        .runs
        .iter()
        .find(|r| r.race.is_some())
        .expect("no racy schedule to replay");
    let replayed = explorer.replay(&failing.trace, inverted_depend_pair);
    assert_eq!(
        replayed.trace.digest(),
        failing.trace.digest(),
        "replay must reproduce the schedule byte-for-byte"
    );
    let (a, b) = (
        failing.race.as_ref().expect("found above"),
        replayed
            .race
            .as_ref()
            .expect("replay must re-find the race"),
    );
    assert_eq!(
        (a.prior.to_string(), a.current.to_string()),
        (b.prior.to_string(), b.current.to_string()),
        "replayed race must name the same access pair"
    );
}

#[test]
fn clean_dep_schedule_replays_byte_for_byte() {
    let g = tiny_graph();
    let expect = pagerank::reference_iters(&g, 2);
    let run_it = || {
        let got = Weaver::global()
            .with_deployed(pagerank::aspect_deps(2), || pagerank::run_deps(&g, 2, 2));
        assert_eq!(got, expect);
    };
    let explorer = check::Explorer::new().races(true);
    let report = explorer.random(check::seeds_from_env(4), 0xC1EA_7E57, run_it);
    report.assert_ok();
    let run = &report.runs[0];
    let replayed = explorer.replay(&run.trace, run_it);
    assert!(replayed.failure.is_none(), "{:?}", replayed.failure);
    assert_eq!(
        replayed.trace.digest(),
        run.trace.digest(),
        "a clean dependence schedule must replay to the same digest"
    );
}
