//! Schedule-coverage property test — regression for the `ChunkHandout`
//! coordinate-space fix.
//!
//! For every `Schedule` variant, drive a work-sharing loop under a
//! registered hook and assert two properties of the emitted
//! `ChunkHandout` events:
//!
//! 1. **Partition**: the union of the `[lo, hi)` iteration ranges covers
//!    `0..count` with every logical iteration appearing exactly once —
//!    this is only possible if all six schedules report the same
//!    coordinate system (before the fix, static-block emitted element
//!    values and static-cyclic emitted a strided element range).
//! 2. **Differential**: the loop bodies together visit exactly the
//!    elements a sequential loop visits, so the iteration→element
//!    mapping was not broken by computing static blocks in iteration
//!    space.
//!
//! Ranges include unit-stride, strided, negative-step and empty loops.

use aomplib::prelude::*;
use aomplib::runtime::hook::{self, HookEvent, SchedHook};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Captured handout: (kind, lo, hi) in iteration space.
type Handout = (&'static str, u64, u64);

struct CaptureHook {
    armed: AtomicBool,
    events: Mutex<Vec<Handout>>,
}

static CAPTURE: CaptureHook = CaptureHook {
    armed: AtomicBool::new(false),
    events: Mutex::new(Vec::new()),
};

impl SchedHook for CaptureHook {
    fn event(&self, ev: &HookEvent) {
        if !self.armed.load(Ordering::SeqCst) {
            return;
        }
        if let HookEvent::ChunkHandout { kind, lo, hi, .. } = *ev {
            self.events.lock().unwrap().push((kind, lo, hi));
        }
    }
}

/// Hooks and the obs gate are process-global; tests in this binary run on
/// parallel test threads, so every test takes this lock first.
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// The elements a sequential `for (i = start; ...; i += step)` visits.
fn seq_elements(range: LoopRange) -> Vec<i64> {
    let (start, end, step) = (range.start, range.end, range.step);
    let mut out = Vec::new();
    let mut i = start;
    while (step > 0 && i < end) || (step < 0 && i > end) {
        out.push(i);
        i += step;
    }
    out
}

/// Run one loop under the capture hook; return the handouts and the
/// elements the bodies visited.
fn run_captured(schedule: Schedule, range: LoopRange, threads: usize) -> (Vec<Handout>, Vec<i64>) {
    let visited: Mutex<Vec<i64>> = Mutex::new(Vec::new());
    CAPTURE.events.lock().unwrap().clear();
    CAPTURE.armed.store(true, Ordering::SeqCst);
    hook::register(&CAPTURE);
    let for_c = ForConstruct::new(schedule);
    region::parallel_with(RegionConfig::new().threads(threads), || {
        for_c.execute(range, |lo, hi, step| {
            let mut local = Vec::new();
            let mut i = lo;
            while (step > 0 && i < hi) || (step < 0 && i > hi) {
                local.push(i);
                i += step;
            }
            visited.lock().unwrap().extend(local);
        });
    });
    CAPTURE.armed.store(false, Ordering::SeqCst);
    hook::unregister();
    let events = std::mem::take(&mut *CAPTURE.events.lock().unwrap());
    let mut v = visited.into_inner().unwrap();
    v.sort_unstable();
    (events, v)
}

/// Assert the handouts partition `0..count` exactly once.
fn assert_partition(events: &[Handout], count: u64, what: &str) {
    let mut seen = vec![0u32; count as usize];
    for &(kind, lo, hi) in events {
        assert!(
            lo <= hi && hi <= count,
            "{what}: handout {kind} [{lo}, {hi}) outside iteration space 0..{count}"
        );
        for k in lo..hi {
            seen[k as usize] += 1;
        }
    }
    for (k, &n) in seen.iter().enumerate() {
        assert_eq!(
            n, 1,
            "{what}: iteration {k} appears {n} times in the handouts (count {count}): {events:?}"
        );
    }
}

fn all_schedules() -> Vec<(Schedule, &'static str)> {
    vec![
        (Schedule::StaticBlock, "static-block"),
        (Schedule::StaticCyclic, "static-cyclic"),
        (Schedule::Dynamic { chunk: 4 }, "dynamic"),
        (Schedule::Guided { min_chunk: 2 }, "guided"),
        (Schedule::BlockCyclic { chunk: 3 }, "block-cyclic"),
        (Schedule::Adaptive { min_chunk: 2 }, "adaptive"),
    ]
}

fn ranges() -> Vec<LoopRange> {
    vec![
        LoopRange::new(0, 37, 1),   // unit stride
        LoopRange::new(3, 50, 2),   // strided, offset start
        LoopRange::new(40, -1, -3), // negative step
        LoopRange::new(7, 8, 1),    // single iteration
    ]
}

#[test]
fn handouts_partition_iteration_space_for_every_schedule() {
    let _g = serialize();
    for (schedule, kind) in all_schedules() {
        for range in ranges() {
            for threads in [2, 3, 4] {
                let what = format!("{kind} over {range:?} with {threads} threads");
                let expect = seq_elements(range);
                let (events, visited) = run_captured(schedule, range, threads);
                assert!(
                    events.iter().all(|&(k, _, _)| k == kind),
                    "{what}: wrong kind in {events:?}"
                );
                assert_partition(&events, range.count(), &what);
                assert_eq!(visited, {
                    let mut e = expect;
                    e.sort_unstable();
                    e
                });
            }
        }
    }
}

#[test]
fn static_cyclic_handouts_are_single_iterations() {
    let _g = serialize();
    let range = LoopRange::new(0, 23, 1);
    let (events, _) = run_captured(Schedule::StaticCyclic, range, 3);
    assert!(!events.is_empty());
    for &(kind, lo, hi) in &events {
        assert_eq!(kind, "static-cyclic");
        assert_eq!(
            hi,
            lo + 1,
            "cyclic assignments are non-contiguous, so each handout must be one iteration"
        );
    }
}

#[test]
fn empty_range_emits_no_handouts() {
    let _g = serialize();
    for (schedule, kind) in all_schedules() {
        let (events, visited) = run_captured(schedule, LoopRange::new(5, 5, 1), 3);
        assert!(
            events.is_empty(),
            "{kind}: empty loop must hand out nothing, got {events:?}"
        );
        assert!(visited.is_empty());
    }
}

#[test]
fn handout_bounds_recover_elements() {
    // The documented way to map a handout back to elements: the event is
    // iteration-space, `LoopRange::element` converts. Spot-check with a
    // strided negative loop under the contiguous schedules.
    let _g = serialize();
    let range = LoopRange::new(40, -1, -3);
    for (schedule, _) in all_schedules() {
        let (events, _) = run_captured(schedule, range, 2);
        let expect = seq_elements(range);
        let mut from_events: Vec<i64> = events
            .iter()
            .flat_map(|&(_, lo, hi)| (lo..hi).map(|k| range.element(k)))
            .collect();
        from_events.sort_unstable();
        let mut e = expect;
        e.sort_unstable();
        assert_eq!(from_events, e);
    }
}
