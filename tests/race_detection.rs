//! The race-detection corpus: four seeded racy mini-programs, each the
//! smallest version of a bug class the vector-clock oracle must catch,
//! paired with a race-free twin that differs only by the missing
//! synchronisation. Every racy program must be flagged under both DFS
//! and PCT exploration with a report naming both conflicting access
//! sites; every twin must stay silent (zero false positives). A failing
//! schedule's trace must replay byte-for-byte and reproduce the same
//! race — the reproduction contract of `aomp-check`'s other oracles,
//! extended to races.
//!
//! A tracked wrapper reports iff it was built while a checker was armed;
//! the last section pins that rule. The unarmed cost contract is guarded
//! in its own test binary, `race_gate_unarmed` — a process none of these
//! explorations arm.

use aomp_check as check;
use aomplib::prelude::*;
use aomplib::runtime::cell::SyncSlice;
use aomplib::runtime::check::Tracked;
use aomplib::runtime::deps::{Dep, DepGroup};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// The corpus. Racy programs and their twins are free functions so the
// DFS and PCT tests drive the identical code.
// ---------------------------------------------------------------------------

/// BUG: two phases on a shared array with no barrier between them. Each
/// member writes its own half, then reads the *other* half; without the
/// barrier the cross-half read races the owner's writes on every
/// schedule.
fn racy_missing_barrier() {
    let mut data = vec![0usize; 4];
    missing_barrier_phases(SyncSlice::tracked(&mut data, "racy.phased"));
}

/// The region of [`racy_missing_barrier`], over a wrapper built elsewhere.
fn missing_barrier_phases(arr: SyncSlice<'_, usize>) {
    region::parallel_with(RegionConfig::new().threads(2), || {
        let me = thread_id();
        unsafe {
            arr.set(2 * me, me + 1);
            arr.set(2 * me + 1, me + 10);
        }
        // BUG: no `barrier()` here.
        let other = 1 - me;
        let _ = unsafe { arr.read(2 * other) + arr.read(2 * other + 1) };
    });
}

/// Twin: the same two phases separated by the barrier.
fn twin_barrier_separated() {
    let mut data = vec![0usize; 4];
    let arr = SyncSlice::tracked(&mut data, "ok.phased");
    region::parallel_with(RegionConfig::new().threads(2), || {
        let me = thread_id();
        // SAFETY: indices 2·me.. are owned by this member in this phase.
        unsafe {
            arr.set(2 * me, me + 1);
            arr.set(2 * me + 1, me + 10);
        }
        barrier();
        let other = 1 - me;
        // SAFETY: the barrier ordered the other member's writes.
        let _ = unsafe { arr.read(2 * other) + arr.read(2 * other + 1) };
    });
}

/// BUG: a dynamic loop whose body writes `x[i]` *and* `x[i+1]` under
/// `chunk = 1` — neighbouring chunks overlap by one element, and chunk
/// handouts carry no happens-before edge. Any schedule that hands
/// adjacent chunks to different members races on the shared boundary.
fn racy_overlapping_chunks() {
    let for_c = ForConstruct::new(Schedule::Dynamic { chunk: 1 });
    let mut data = vec![0usize; 5];
    let arr = SyncSlice::tracked(&mut data, "racy.chunks");
    region::parallel_with(RegionConfig::new().threads(2), || {
        for_c.execute(LoopRange::upto(0, 4), |lo, _hi, _step| {
            let i = lo as usize;
            // BUG: writes past the chunk's own element.
            unsafe {
                arr.set(i, 1);
                arr.set(i + 1, 2);
            }
        });
    });
}

/// Twin: the body touches only the chunk's own elements.
fn twin_disjoint_chunks() {
    let for_c = ForConstruct::new(Schedule::Dynamic { chunk: 1 });
    let mut data = vec![0usize; 5];
    let arr = SyncSlice::tracked(&mut data, "ok.chunks");
    region::parallel_with(RegionConfig::new().threads(2), || {
        for_c.execute(LoopRange::upto(0, 4), |lo, hi, _step| {
            let mut i = lo as usize;
            // SAFETY: the schedule owns [lo, hi) on this member.
            while i < hi as usize {
                unsafe { arr.set(i, 1) };
                i += 1;
            }
        });
    });
}

/// BUG: a shared scalar flag written by member 0 and read by member 1
/// with no synchronisation at all (no spin — under the serialised
/// checker the read simply sees whatever is there; the *race* is the
/// point, not the value).
fn racy_unsynchronised_flag() {
    let flag = Tracked::new("racy.flag", 0u32);
    region::parallel_with(RegionConfig::new().threads(2), || {
        if thread_id() == 0 {
            unsafe { flag.set(1) };
        } else {
            let _ = unsafe { flag.read() };
        }
    });
}

/// Twin: the flag handoff ordered by a barrier.
fn twin_flag_over_barrier() {
    let flag = Tracked::new("ok.flag", 0u32);
    region::parallel_with(RegionConfig::new().threads(2), || {
        if thread_id() == 0 {
            // SAFETY: sole accessor before the barrier.
            unsafe { flag.set(1) };
        }
        barrier();
        if thread_id() == 1 {
            // SAFETY: the barrier ordered the write.
            assert_eq!(unsafe { flag.read() }, 1);
        }
    });
}

/// BUG: a critical section protecting only the writer. The reader skips
/// the lock, so no release→acquire edge orders the pair — the classic
/// "half-locked" bug.
fn racy_critical_writer_only() {
    let h = CriticalHandle::new();
    let cell = Tracked::new("racy.cell", 0u64);
    region::parallel_with(RegionConfig::new().threads(2), || {
        if thread_id() == 0 {
            h.run(|| unsafe { cell.set(42) });
        } else {
            // BUG: read outside the critical section.
            let _ = unsafe { cell.read() };
        }
    });
}

/// Twin: reader and writer both inside the critical section.
fn twin_critical_both_sides() {
    let h = CriticalHandle::new();
    let cell = Tracked::new("ok.cell", 0u64);
    region::parallel_with(RegionConfig::new().threads(2), || {
        if thread_id() == 0 {
            // SAFETY: exclusive inside the critical section.
            h.run(|| unsafe { cell.set(42) });
        } else {
            // SAFETY: exclusive inside the critical section; either order
            // of the two sections is race-free (the value may be 0 or 42,
            // which is nondeterminism, not a race).
            h.run(|| {
                let _ = unsafe { cell.read() };
            });
        }
    });
}

/// BUG: a producer and a consumer task in one dependence group with no
/// `depend` clauses. Group membership alone orders nothing between
/// siblings — the tracker's dependence edges are per node, not a
/// conservative whole-group join — so any schedule that hands the two
/// tasks to different members races on the cell.
fn racy_missing_depend() {
    let cell = Arc::new(Tracked::new("racy.depend", 0u64));
    let group = DepGroup::new();
    let (w, rd) = (Arc::clone(&cell), Arc::clone(&cell));
    region::parallel_with(RegionConfig::new().threads(2), move || {
        if thread_id() == 0 {
            let w = Arc::clone(&w);
            let rd = Arc::clone(&rd);
            // BUG: neither task names the handoff tag.
            group.spawn([], move || unsafe { w.set(7) });
            group.spawn([], move || {
                let _ = unsafe { rd.read() };
            });
            group.close();
        }
        group.run().expect("no cycles");
    });
}

/// Twin: the same pair, differing only by the `depend` clauses — the
/// producer's `out` and the consumer's `in` on one tag give the tracker
/// a release→acquire edge whichever members run them.
fn twin_depend_ordered() {
    let cell = Arc::new(Tracked::new("ok.depend", 0u64));
    let group = DepGroup::new();
    let (w, rd) = (Arc::clone(&cell), Arc::clone(&cell));
    region::parallel_with(RegionConfig::new().threads(2), move || {
        if thread_id() == 0 {
            let w = Arc::clone(&w);
            let rd = Arc::clone(&rd);
            // SAFETY: the in-tag orders the read after the writer task.
            group.spawn([Dep::output("handoff")], move || unsafe { w.set(7) });
            group.spawn([Dep::input("handoff")], move || {
                assert_eq!(unsafe { rd.read() }, 7);
            });
            group.close();
        }
        group.run().expect("no cycles");
    });
}

type Program = fn();

const RACY: [(&str, Program, &str); 5] = [
    ("missing barrier", racy_missing_barrier, "racy.phased"),
    ("overlapping chunks", racy_overlapping_chunks, "racy.chunks"),
    ("unsynchronised flag", racy_unsynchronised_flag, "racy.flag"),
    (
        "critical writer only",
        racy_critical_writer_only,
        "racy.cell",
    ),
    ("missing depend", racy_missing_depend, "racy.depend"),
];

const TWINS: [(&str, Program); 5] = [
    ("barrier separated", twin_barrier_separated),
    ("disjoint chunks", twin_disjoint_chunks),
    ("flag over barrier", twin_flag_over_barrier),
    ("critical both sides", twin_critical_both_sides),
    ("depend ordered", twin_depend_ordered),
];

/// At least one explored schedule reported a race; the failure names the
/// race, both access kinds, and the tracked site.
fn assert_race_found(what: &str, report: &check::Report, site: &str) {
    let hit = report
        .runs
        .iter()
        .find(|r| r.race.is_some())
        .unwrap_or_else(|| {
            panic!(
                "{what}: no race found across {} explored schedules",
                report.schedules()
            )
        });
    let msg = hit
        .failure
        .as_deref()
        .expect("a race must fail its schedule");
    assert!(msg.contains("data race"), "{what}: {msg}");
    assert!(
        msg.contains(site),
        "{what}: report must name the tracked site `{site}`: {msg}"
    );
    let race = hit.race.as_ref().expect("found above");
    // The report names *both* conflicting accesses, at least one a write.
    assert!(
        race.prior.is_write || race.current.is_write,
        "{what}: a race needs at least one write: {race}"
    );
    assert_eq!(race.prior.name, race.current.name, "{what}: same site");
}

// ---------------------------------------------------------------------------
// Detection: every racy program flagged under both strategies.
// ---------------------------------------------------------------------------

#[test]
fn dfs_flags_every_racy_program() {
    for (what, f, site) in RACY {
        let report = check::Explorer::new().races(true).dfs(2_000, 64, f);
        assert_race_found(what, &report, site);
    }
}

#[test]
fn pct_flags_every_racy_program() {
    for (i, (what, f, site)) in RACY.into_iter().enumerate() {
        let seed = 0xbad_ace ^ (i as u64) << 8;
        let report = check::Explorer::new()
            .races(true)
            .pct(check::seeds_from_env(12), seed, 3, f);
        assert_race_found(what, &report, site);
    }
}

// ---------------------------------------------------------------------------
// Soundness: zero false positives on the race-free twins.
// ---------------------------------------------------------------------------

#[test]
fn dfs_race_free_twins_stay_silent() {
    for (what, f) in TWINS {
        let report = check::Explorer::new().races(true).dfs(2_000, 64, f);
        assert!(report.schedules() > 1, "{what}: exploration too shallow");
        report.assert_ok();
    }
}

#[test]
fn pct_race_free_twins_stay_silent() {
    for (i, (_what, f)) in TWINS.into_iter().enumerate() {
        let seed = 0x5afe ^ (i as u64) << 8;
        check::Explorer::new()
            .races(true)
            .pct(check::seeds_from_env(12), seed, 3, f)
            .assert_ok();
    }
}

// ---------------------------------------------------------------------------
// Reproduction: a race report's trace replays byte-for-byte and finds
// the same conflicting pair.
// ---------------------------------------------------------------------------

#[test]
fn race_report_replays_byte_for_byte() {
    let explorer = check::Explorer::new().races(true);
    for (what, f, _site) in RACY {
        let report = explorer.random(check::seeds_from_env(8), 0x2ace_5eed, f);
        let failing = report
            .runs
            .iter()
            .find(|r| r.race.is_some())
            .unwrap_or_else(|| panic!("{what}: no racy schedule to replay"));
        let replayed = explorer.replay(&failing.trace, f);
        assert_eq!(
            replayed.trace.digest(),
            failing.trace.digest(),
            "{what}: replay must reproduce the schedule byte-for-byte"
        );
        let (a, b) = (
            failing.race.as_ref().expect("found above"),
            replayed
                .race
                .as_ref()
                .expect("replay must re-find the race"),
        );
        // Same logical pair: site, index, thread, kind, event position.
        // (The raw `addr` differs run to run — each run allocates afresh.)
        assert_eq!(
            (a.prior.to_string(), a.current.to_string()),
            (b.prior.to_string(), b.current.to_string()),
            "{what}: replayed race must name the same access pair"
        );
    }
}

// ---------------------------------------------------------------------------
// The build-time rule: a tracked wrapper decides when it is built whether
// to report, and the explorer arms only while a schedule runs. So the
// same racy program is flagged when its wrapper is built inside the
// explored closure and checks nothing when the wrapper predates the
// exploration.
// ---------------------------------------------------------------------------

/// A tracked wrapper over fresh data, built where no checker can be
/// armed: inside a one-schedule exploration with the oracle off.
/// Sessions are serialised, so no sibling test arms the process-global
/// sink meanwhile.
fn built_unarmed(name: &'static str) -> SyncSlice<'static, usize> {
    let arr = std::cell::Cell::new(None);
    check::Explorer::new()
        .races(false)
        .random(1, 0, || {
            let data = Box::leak(vec![0usize; 4].into_boxed_slice());
            arr.set(Some(SyncSlice::tracked(data, name)));
        })
        .assert_ok();
    arr.get().expect("the schedule ran")
}

#[test]
fn a_tracked_wrapper_reports_iff_built_while_armed() {
    let explorer = check::Explorer::new().races(true);
    let inside = explorer.dfs(2_000, 64, racy_missing_barrier);
    assert_race_found("wrapper built inside", &inside, "racy.phased");

    let arr = built_unarmed("racy.phased");
    let before = explorer.dfs(2_000, 64, || missing_barrier_phases(arr));
    assert!(before.schedules() > 1, "exploration too shallow");
    before.assert_ok();
}
