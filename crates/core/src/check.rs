//! `aomp::check` — the runtime half of race detection: an armable sink
//! for *tracked* shared-memory accesses.
//!
//! The checker crate (`aomp-check`) builds a happens-before relation
//! from the [`hook`](crate::hook) event stream; what it cannot see from
//! events alone is the data. This module closes that gap with a
//! deliberately tiny instrumented-access layer:
//!
//! * [`SyncSlice::tracked`](crate::cell::SyncSlice::tracked) /
//!   [`SyncVec::tracked`](crate::cell::SyncVec::tracked) — shared arrays
//!   whose element accesses report `{address, index, is_write, thread}`
//!   shadow events to the armed [`AccessSink`];
//! * [`Tracked<T>`] — a named scalar cell for shared flags/counters in
//!   tests, with the same reporting.
//!
//! Cost discipline: a tracked wrapper or cell decides when it is built.
//! Built with no checker armed (gate bit [`obs::F_RACE`](crate::obs)
//! clear) it keeps no label, so every access is a plain memory operation
//! as for `new`/`zeroed`; built while armed, each access re-reads the
//! gate and goes silent after [`disarm`]. So it reports iff it was built
//! while armed: build it inside the explored closure. Arming is
//! process-global, one exploration session at a time; `aomp-check`
//! serialises sessions behind its own lock.

use std::cell::UnsafeCell;

use crate::hook::TeamId;
use crate::obs;
use parking_lot::Mutex;

/// One tracked shared-memory access, reported to the armed sink.
///
/// `addr` is the element's memory address — the identity the race
/// detector keys its shadow state on (aliased views of the same storage
/// collapse naturally). `name`/`index` are for humans: they name the
/// access site in a race report.
#[derive(Debug, Clone, Copy)]
pub struct AccessEvent {
    /// Address of the accessed element (stable for the array's lifetime).
    pub addr: usize,
    /// Declared name of the tracked array/cell (e.g. `"sor.G"`).
    pub name: &'static str,
    /// Element index within the tracked array (`0` for scalar cells).
    pub index: usize,
    /// `true` for writes (including `&mut` borrows), `false` for reads.
    pub is_write: bool,
}

/// Consumer of tracked accesses. Implemented by the `aomp-check`
/// exploration controller; armed for the duration of one explored
/// schedule.
pub trait AccessSink: Send + Sync {
    /// Called once per tracked access, on the accessing thread, with the
    /// thread's innermost team identity.
    fn access(&self, team: TeamId, tid: usize, ev: &AccessEvent);
}

static SINK: Mutex<Option<&'static dyn AccessSink>> = Mutex::new(None);

/// Arm race checking: subsequent tracked accesses report to `sink`.
///
/// Replaces any previously-armed sink. The registry holds `&'static`
/// because accesses may race with disarming on other threads; the
/// checker keeps its controller in a `static`.
pub fn arm(sink: &'static dyn AccessSink) {
    let mut g = SINK.lock();
    *g = Some(sink);
    obs::gate_set(obs::F_RACE);
}

/// Disarm race checking; wrappers built while armed go silent.
pub fn disarm() {
    let mut g = SINK.lock();
    obs::gate_clear(obs::F_RACE);
    *g = None;
}

/// True when a sink is armed. One relaxed load, read when a tracked
/// wrapper is built and, by one built while armed, on every access.
#[inline(always)]
pub fn armed() -> bool {
    obs::gate() & obs::F_RACE != 0
}

/// Report a tracked access if a sink is armed. Gate-checked here so call
/// sites can stay a single `report(..)` line; the slow path resolves the
/// calling thread's team context and skips accesses made outside any
/// team (setup/teardown code on the master thread races with nobody the
/// checker controls).
#[inline]
pub fn report(name: &'static str, addr: usize, index: usize, is_write: bool) {
    if armed() {
        report_slow(name, addr, index, is_write);
    }
}

#[cold]
fn report_slow(name: &'static str, addr: usize, index: usize, is_write: bool) {
    let sink = *SINK.lock();
    let Some(sink) = sink else { return };
    crate::ctx::with_current(|c| {
        if let Some(c) = c {
            let ev = AccessEvent {
                addr,
                name,
                index,
                is_write,
            };
            sink.access(c.shared.token(), c.tid, &ev);
        }
    });
}

/// A named, tracked scalar cell for shared state in tests — the
/// scalar counterpart of [`SyncSlice::tracked`](crate::cell::SyncSlice::tracked).
///
/// # Safety contract
/// Identical to [`SyncSlice`](crate::cell::SyncSlice): the cell is
/// unguarded, and callers must uphold a disjoint-writer discipline.
/// That contract is exactly what the race detector checks — a test that
/// *violates* it on purpose must only do so for `Copy` plain-old-data
/// (a torn `u64` under a real race is still initialised memory, and the
/// checker serialises explored schedules so accesses never physically
/// overlap there).
pub struct Tracked<T> {
    name: Option<&'static str>,
    cell: UnsafeCell<T>,
}

// SAFETY: access discipline is delegated to the caller (see type docs).
unsafe impl<T: Send> Sync for Tracked<T> {}
unsafe impl<T: Send> Send for Tracked<T> {}

impl<T> Tracked<T> {
    /// Wrap `v` under `name`; it reports iff built while armed (module docs).
    pub fn new(name: &'static str, v: T) -> Self {
        Self {
            name: armed().then_some(name),
            cell: UnsafeCell::new(v),
        }
    }

    #[inline]
    fn note(&self, is_write: bool) {
        if let Some(name) = self.name {
            report(name, self.cell.get() as usize, 0, is_write);
        }
    }

    /// Read the value by shared reference.
    ///
    /// # Safety
    /// No concurrent writer.
    #[inline]
    pub unsafe fn get(&self) -> &T {
        self.note(false);
        &*self.cell.get()
    }

    /// Write the value.
    ///
    /// # Safety
    /// This thread is the sole accessor for the duration of the store.
    #[inline]
    pub unsafe fn set(&self, v: T) {
        self.note(true);
        *self.cell.get() = v;
    }

    /// Unwrap the inner value.
    pub fn into_inner(self) -> T {
        self.cell.into_inner()
    }
}

impl<T: Copy> Tracked<T> {
    /// Copy the value out.
    ///
    /// # Safety
    /// No concurrent writer.
    #[inline]
    pub unsafe fn read(&self) -> T {
        self.note(false);
        *self.cell.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static HITS: AtomicUsize = AtomicUsize::new(0);

    struct CountingSink;
    impl AccessSink for CountingSink {
        fn access(&self, _team: TeamId, _tid: usize, _ev: &AccessEvent) {
            HITS.fetch_add(1, Ordering::SeqCst);
        }
    }

    // One test, not several: arming is process-global, and parallel test
    // threads observing each other's arm window would flake.
    #[test]
    fn arm_cycle_gates_reports_and_requires_team_context() {
        static SINK_IMPL: CountingSink = CountingSink;
        // Built unarmed: accesses are plain memory operations.
        let before = Tracked::new("before", 0u32);
        arm(&SINK_IMPL);
        let cell = Tracked::new("flag", 0u32);
        // Outside any team: gate is hot but the report is dropped (no
        // team context to attribute the access to).
        unsafe { cell.set(7) };
        assert_eq!(HITS.load(Ordering::SeqCst), 0);
        assert!(armed());
        crate::region::parallel_with(crate::region::RegionConfig::new().threads(1), || unsafe {
            cell.set(9);
            let _ = cell.read();
            // Built before arming: never reports, even inside a team.
            before.set(2);
        });
        disarm();
        assert_eq!(HITS.load(Ordering::SeqCst), 2);
        assert!(!armed());
        // Built while armed, accessed after disarming: silent again.
        crate::region::parallel_with(crate::region::RegionConfig::new().threads(1), || unsafe {
            cell.set(11);
        });
        assert_eq!(HITS.load(Ordering::SeqCst), 2);
        assert_eq!((cell.into_inner(), before.into_inner()), (11, 2));
    }
}
