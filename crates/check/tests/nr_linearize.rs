//! Linearizability of `aomp::nr` replicated state under schedule
//! exploration, with the race oracle armed.
//!
//! The structure under test is a prefix-sum counter: every write op
//! increments and returns the post-increment total. Under *any*
//! single-lock (sequentially consistent) execution, the multiset of
//! write responses is exactly `{1, 2, …, N}` and each thread's own
//! responses are strictly increasing (a thread's next op linearizes
//! after its previous one returned). Those two properties — plus the
//! final total — characterise the counter's linearizations completely,
//! so asserting them on every explored schedule proves the replicated
//! execution is indistinguishable from the single-lock reference.
//!
//! The counter's state lives in an [`aomp::check::Tracked`] cell, so
//! with [`Explorer::races`] on, every `dispatch`/`dispatch_mut` access
//! is judged against the happens-before relation built from the
//! `NrAppend`/`NrCombine`/`NrSync` hook events: zero races proves the
//! combiner publish → sync edges cover every cross-thread application
//! of a logged op.
//!
//! The [`Combiner`] section lock runs the same flat-combining protocol
//! over closure bodies; its program below drives a fetch-add section
//! through all three entry points and must match the same single-lock
//! reference.

use aomp::check::Tracked;
use aomp::nr::{Combiner, Dispatch, Replicated};
use aomp::prelude::*;
use aomp_check::{seeds_from_env, Explorer};
use std::sync::Mutex;

const THREADS: usize = 3;
const OPS_PER_THREAD: usize = 3;

/// The single-threaded structure being replicated: a counter whose
/// write op returns the post-increment value (a distinct "ticket" per
/// linearized op). State is a tracked cell so the race oracle sees
/// every access.
struct Counter {
    v: Tracked<u64>,
}

impl Counter {
    fn new(v: u64) -> Self {
        Counter {
            v: Tracked::new("nr.counter", v),
        }
    }
}

impl Clone for Counter {
    fn clone(&self) -> Self {
        // Only called at construction (one clone per replica), before
        // the team exists — outside-team tracked accesses are skipped.
        Counter::new(unsafe { self.v.read() })
    }
}

/// Unit write op: increment and return the new total.
#[derive(Clone, Debug)]
struct Inc;

impl Dispatch for Counter {
    type ReadOp = ();
    type WriteOp = Inc;
    type Response = u64;

    fn dispatch(&self, _op: &()) -> u64 {
        unsafe { self.v.read() }
    }

    fn dispatch_mut(&mut self, _op: &Inc) -> u64 {
        let n = unsafe { self.v.read() } + 1;
        unsafe { self.v.set(n) };
        n
    }
}

/// Run the replicated counter on a team; returns each thread's response
/// sequence (indexed by tid) and the final total.
fn nr_run(replicas: usize) -> (Vec<Vec<u64>>, u64) {
    let repl = Replicated::with_config(Counter::new(0), replicas, 128);
    let per: Mutex<Vec<Vec<u64>>> = Mutex::new(vec![Vec::new(); THREADS]);
    region::parallel_with(RegionConfig::new().threads(THREADS), || {
        let mut mine = Vec::with_capacity(OPS_PER_THREAD);
        for _ in 0..OPS_PER_THREAD {
            mine.push(repl.execute(Inc));
        }
        per.lock().unwrap()[thread_id()] = mine;
    });
    let total = repl.execute_ro(&());
    (per.into_inner().unwrap(), total)
}

/// The counter as a [`Combiner`] section, entered three ways in turn: a
/// flat-combined section (`run`, possibly executed by another member),
/// a section re-entered from inside one (`run` within `run`, executed
/// inline by whoever combines the outer one), and an inline section
/// (`run_inline`, which first combines the published ones).
fn combiner_run() -> (Vec<Vec<u64>>, u64) {
    let fc = Combiner::new();
    let cell = Tracked::new("combiner.counter", 0u64);
    let fetch_add = || unsafe {
        let n = cell.read() + 1;
        cell.set(n);
        n
    };
    let per: Mutex<Vec<Vec<u64>>> = Mutex::new(vec![Vec::new(); THREADS]);
    region::parallel_with(RegionConfig::new().threads(THREADS), || {
        let mut mine = Vec::with_capacity(OPS_PER_THREAD);
        for k in 0..OPS_PER_THREAD {
            mine.push(match k % 3 {
                0 => fc.run(fetch_add),
                1 => fc.run(|| fc.run(fetch_add)),
                _ => fc.run_inline(fetch_add),
            });
        }
        per.lock().unwrap()[thread_id()] = mine;
    });
    let total = unsafe { cell.read() };
    (per.into_inner().unwrap(), total)
}

/// The same program against the paper's single named lock — the
/// reference implementation the replicated one must be indistinguishable
/// from.
fn lock_run() -> (Vec<Vec<u64>>, u64) {
    let h = CriticalHandle::new();
    let cell = Tracked::new("lock.counter", 0u64);
    let per: Mutex<Vec<Vec<u64>>> = Mutex::new(vec![Vec::new(); THREADS]);
    region::parallel_with(RegionConfig::new().threads(THREADS), || {
        let mut mine = Vec::with_capacity(OPS_PER_THREAD);
        for _ in 0..OPS_PER_THREAD {
            mine.push(h.run(|| unsafe {
                let n = cell.read() + 1;
                cell.set(n);
                n
            }));
        }
        per.lock().unwrap()[thread_id()] = mine;
    });
    let total = unsafe { cell.read() };
    (per.into_inner().unwrap(), total)
}

/// The schedule-independent canonical form every linearization maps to:
/// the sorted response multiset plus the final total. Panics (failing
/// the schedule) if the per-thread sequences violate program order.
fn canonicalize(per: &[Vec<u64>], total: u64) -> (Vec<u64>, u64) {
    for (tid, seq) in per.iter().enumerate() {
        assert!(
            seq.windows(2).all(|w| w[0] < w[1]),
            "tid {tid}: responses must rise in program order, got {seq:?}"
        );
    }
    let mut all: Vec<u64> = per.iter().flatten().copied().collect();
    all.sort_unstable();
    (all, total)
}

#[test]
fn replicated_counter_linearizes_on_every_schedule() {
    let n = (THREADS * OPS_PER_THREAD) as u64;
    let expected: Vec<u64> = (1..=n).collect();
    let report = Explorer::new()
        .races(true)
        .random(seeds_from_env(24), 0x11EA_A12E, || {
            let (per, total) = nr_run(2);
            let (all, total) = canonicalize(&per, total);
            assert_eq!(
                all, expected,
                "write responses must be a permutation of 1..={n}"
            );
            assert_eq!(total, n, "the final read must observe every write");
        });
    report.assert_ok();
    assert!(
        report.runs.iter().all(|r| r.events > 0),
        "every schedule must drive the controller through hook events"
    );
    assert!(
        report.distinct_schedules() > 1,
        "the replicated program must expose real interleaving choice"
    );
}

#[test]
fn replicated_results_equal_single_lock_reference_bitwise() {
    // Both programs run in the *same* explored schedule; their canonical
    // forms must agree bitwise — the replicated structure is a drop-in
    // for the lock on every interleaving the explorer can produce.
    Explorer::new()
        .races(true)
        .random(seeds_from_env(16), 0x5A5A_11EA, || {
            let (nr_per, nr_total) = nr_run(2);
            let (lk_per, lk_total) = lock_run();
            assert_eq!(
                canonicalize(&nr_per, nr_total),
                canonicalize(&lk_per, lk_total),
                "replicated and single-lock executions must be indistinguishable"
            );
        })
        .assert_ok();
}

#[test]
fn combiner_sections_equal_single_lock_reference_bitwise() {
    // Every way into a Combiner section, race oracle armed: the section
    // body runs on whichever member combines, so only the combine →
    // sync edges order it against the poster and the next section.
    Explorer::new()
        .races(true)
        .random(seeds_from_env(16), 0xC0_4B1E, || {
            let (fc_per, fc_total) = combiner_run();
            let (lk_per, lk_total) = lock_run();
            assert_eq!(
                canonicalize(&fc_per, fc_total),
                canonicalize(&lk_per, lk_total),
                "combined and single-lock executions must be indistinguishable"
            );
        })
        .assert_ok();
}

#[test]
fn single_replica_degenerates_to_flat_combining_and_still_linearizes() {
    let n = (THREADS * OPS_PER_THREAD) as u64;
    Explorer::new()
        .races(true)
        .random(seeds_from_env(12), 0x01E_01E, || {
            let (per, total) = nr_run(1);
            let (all, _) = canonicalize(&per, total);
            assert_eq!(all, (1..=n).collect::<Vec<u64>>());
            assert_eq!(total, n);
        })
        .assert_ok();
}

/// Satellite: toggling metrics must not change the explored schedule
/// space — the instrumented acquire paths may count, but must not add,
/// remove, or reorder decision points.
#[test]
fn metrics_toggle_leaves_explored_traces_identical() {
    let program = || {
        let (per, total) = nr_run(2);
        canonicalize(&per, total);
        assert_eq!(total, (THREADS * OPS_PER_THREAD) as u64);
    };
    let digests = |metrics: bool| -> Vec<u64> {
        aomp::obs::set_metrics(metrics);
        let r = Explorer::new()
            .races(false)
            .random(seeds_from_env(12), 0x00D1_6E57_u64, program);
        aomp::obs::set_metrics(false);
        r.assert_ok();
        r.runs.iter().map(|run| run.trace.digest()).collect()
    };
    let off = digests(false);
    let on = digests(true);
    assert_eq!(
        off, on,
        "metrics gating must be invisible to the schedule space"
    );
}
