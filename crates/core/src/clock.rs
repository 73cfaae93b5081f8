//! Monotonic time source for the stall watchdog, virtualisable in tests.
//!
//! Production code paths read wall-clock time. A test that wants to
//! exercise watchdog *logic* without waiting out (or flaking on) real
//! deadlines installs a [`VirtualClock`]: regions that arm a deadline
//! while it is held are watched on a process-global virtual counter that
//! the watchdog's own polls advance, so a 300 ms stall deadline elapses
//! in microseconds of real time — and the test's outcome no longer
//! depends on scheduler jitter (EXPERIMENTS.md documents ~2× timing
//! noise on 1-core CI runners).
//!
//! Two design rules keep concurrent tests sound:
//!
//! * **Mode is pinned at arm time.** A watched region samples [`mode`]
//!   once, when it registers with its runtime's watchdog, and its
//!   registry entry never mixes time bases: regions armed outside a
//!   virtual window are completely immune to one opening later, even
//!   though one thread sweeps both kinds.
//! * **Virtual time never goes backwards.** The counter is only ever
//!   advanced, never reset, so a virtual-mode entry that outlives its
//!   window still sees monotonic time (its deltas just stop racing).
//!
//! Scope: only the watchdog's notion of "how long since the team last
//! made progress" is virtualised. Bounded parks inside blocking
//! primitives stay real — they are liveness backstops, not measured
//! durations, and virtualising them would change scheduling behaviour.
//!
//! The clock stays process-global even though most other runtime state
//! moved onto [`Runtime`](crate::Runtime) instances: it is a test-only
//! guard (one virtual window at a time, enforced by [`SERIAL`]), and
//! each runtime's watchdog keeps a time base per watched region, pinned
//! at arm time, so regions from different runtimes never mix bases
//! within one window.

use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

static VIRTUAL: AtomicBool = AtomicBool::new(false);
/// Virtual nanoseconds. Monotone: advanced, never reset.
static VNOW: AtomicU64 = AtomicU64::new(0);
/// Only one virtual-clock window at a time: the clock is process-global.
static SERIAL: Mutex<()> = Mutex::new(());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// The time base a region is watched on, sampled once when it arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ClockMode {
    /// Wall-clock time (production).
    Real,
    /// The test-controlled virtual counter.
    Virtual,
}

impl ClockMode {
    /// Monotonic now on this base. Absolute values are meaningless across
    /// bases; callers only compare readings taken on the same mode.
    pub(crate) fn now(self) -> Duration {
        match self {
            ClockMode::Real => epoch().elapsed(),
            ClockMode::Virtual => Duration::from_nanos(VNOW.load(Ordering::Acquire)),
        }
    }
}

/// The sliver of real time a watchdog thread sleeps between two polls of
/// a virtual-mode region, so its sweep cannot monopolise a core between
/// the state changes it polls.
pub(crate) const VIRTUAL_YIELD: Duration = Duration::from_micros(200);

/// Bring virtual time up to `t` (a no-op if it is already past): the
/// watchdog thread is virtual time's pacemaker, and jumps to the next
/// poll that is due instead of sleeping until it.
pub(crate) fn advance_virtual_to(t: Duration) {
    let nanos = u64::try_from(t.as_nanos()).unwrap_or(u64::MAX);
    VNOW.fetch_max(nanos, Ordering::AcqRel);
}

/// The mode a region arming right now is watched on.
pub(crate) fn mode() -> ClockMode {
    if VIRTUAL.load(Ordering::Acquire) {
        ClockMode::Virtual
    } else {
        ClockMode::Real
    }
}

/// Guard that virtualises the watchdog clock for its lifetime.
/// Test-only by intent. Serialises: a second `install` blocks until the
/// first guard drops, because the clock is process-global.
pub struct VirtualClock {
    _serial: MutexGuard<'static, ()>,
}

impl VirtualClock {
    /// Open a virtual-clock window: regions that arm a stall deadline
    /// until the guard drops are watched on virtual time.
    pub fn install() -> Self {
        let serial = SERIAL.lock();
        VIRTUAL.store(true, Ordering::Release);
        Self { _serial: serial }
    }

    /// Advance virtual time by `d` (on top of the watchdog's
    /// self-advancing polls).
    pub fn advance(&self, d: Duration) {
        VNOW.fetch_add(d.as_nanos() as u64, Ordering::AcqRel);
    }

    /// The current virtual counter. Only deltas between readings are
    /// meaningful (the counter is shared and never reset).
    pub fn now(&self) -> Duration {
        Duration::from_nanos(VNOW.load(Ordering::Acquire))
    }
}

impl Drop for VirtualClock {
    fn drop(&mut self) {
        VIRTUAL.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_time_advances_without_real_time() {
        let started = Instant::now();
        let clock = VirtualClock::install();
        assert_eq!(mode(), ClockMode::Virtual);
        let before = clock.now();
        advance_virtual_to(before + Duration::from_secs(5));
        advance_virtual_to(before); // never backwards
        clock.advance(Duration::from_secs(5));
        assert!(clock.now() - before >= Duration::from_secs(10));
        assert!(started.elapsed() < Duration::from_secs(2));
        drop(clock);
        assert_eq!(mode(), ClockMode::Real);
    }

    #[test]
    fn real_mode_tracks_wall_clock() {
        let a = ClockMode::Real.now();
        std::thread::sleep(Duration::from_millis(2));
        assert!(ClockMode::Real.now() > a);
    }
}
