//! Schedule exploration of the task-dependence layer end to end: the
//! dependent-task-graph kernels (`pagerank::run_deps`, `bfs::run_deps`)
//! stay bitwise equal to their sequential references on *every* explored
//! interleaving with the race oracle armed; a successor wired while its
//! predecessor completes still runs after it; an intentionally inverted
//! `depend` pair (two tasks both claiming `in` on the tag one of them
//! writes) is flagged as a data race; a dependence cycle is reported
//! fallibly — no hang, stall watchdog silent — on every schedule; and a
//! failing schedule's trace replays byte-for-byte.

use aomp_check as check;
use aomp_irregular::{bfs, pagerank, CsrGraph};
use aomp_weaver::Weaver;
use aomplib::prelude::*;
use aomplib::runtime::check::Tracked;
use aomplib::runtime::deps::{Dep, DepError, DepGroup};
use std::sync::Arc;
use std::time::Duration;

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

/// Three partitions of uneven size, and twice as many levels as the
/// graph is deep: the trailing levels' scatter and claim tasks find
/// empty segments and buckets, and must still leave every level alone.
fn uneven_dep_bfs(expect: &[i64]) {
    let g = uneven_graph();
    let got = Weaver::global().with_deployed(bfs::aspect_deps(2), || {
        bfs::run_deps(&g, 0, 2 * UNEVEN_DEPTH, 3)
    });
    assert_eq!(got, expect, "uneven dep BFS diverged on an interleaving");
}

#[test]
fn dfs_uneven_dep_bfs_is_bitwise_sequential() {
    let expect = bfs::reference(&uneven_graph(), 0);
    assert_eq!(expect.iter().max(), Some(&(UNEVEN_DEPTH as i64)));
    let report = check::Explorer::new()
        .races(true)
        .dfs(600, 48, || uneven_dep_bfs(&expect));
    report.assert_ok();
    assert!(report.schedules() > 1, "exploration too shallow");
}

#[test]
fn pct_uneven_dep_bfs_is_bitwise_sequential() {
    let expect = bfs::reference(&uneven_graph(), 0);
    check::Explorer::new()
        .races(true)
        .pct(check::seeds_from_env(16), 0x3BF5, 3, || {
            uneven_dep_bfs(&expect)
        })
        .assert_ok();
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
// Cycles fail fallibly on every interleaving: the error comes back
// through release/run/wait, nothing runs, nothing hangs, and the stall
// watchdog (armed with a generous deadline) never fires.
// ---------------------------------------------------------------------------

#[test]
fn pct_dependence_cycle_is_fallible_and_watchdog_silent() {
    check::Explorer::new()
        .races(true)
        .pct(check::seeds_from_env(16), 0xC1C1E, 3, || {
            let group = DepGroup::held();
            let group2 = group.clone();
            let ran = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let ran2 = Arc::clone(&ran);
            let r = region::try_parallel_with(
                RegionConfig::new()
                    .threads(2)
                    .stall_deadline(Duration::from_secs(30)),
                move || {
                    if thread_id() == 0 {
                        let r1 = Arc::clone(&ran2);
                        let r2 = Arc::clone(&ran2);
                        let a = group2.spawn([], move || {
                            r1.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        });
                        let b = group2.spawn([], move || {
                            r2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        });
                        group2.edge(a, b);
                        group2.edge(b, a);
                        group2.close();
                        let err = group2.release().expect_err("two-node cycle");
                        assert!(matches!(&err, DepError::Cycle { nodes } if nodes.len() == 2));
                    }
                    barrier();
                    // Every member joins fallibly after the poisoned release.
                    assert!(matches!(group2.wait(), Err(DepError::Cycle { .. })));
                },
            );
            assert_eq!(r, Ok(()), "the watchdog fired on a fallible cycle");
            assert_eq!(
                ran.load(std::sync::atomic::Ordering::SeqCst),
                0,
                "no task of a cyclic graph may run"
            );
        })
        .assert_ok();
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
