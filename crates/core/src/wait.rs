//! The one wait: spin briefly, then park — written once.
//!
//! Every wait a runtime thread performs on another goes through
//! [`wait_until`]: a barrier round, an idle team worker's next dispatch,
//! the master's join, a broadcast value, an ordered turn, a task join, a
//! future's value, a dependence group's next ready task, an idle
//! executor worker's next task, a critical section's lock — `@Replicated`
//! sections included, since `#[replicated]` and `Mechanism::replicated*`
//! are that lock under another name (flat combining lost to it at every
//! section size measured, and node replication pays only across NUMA
//! nodes). `nr`'s `Replicated<T>` keeps its own polling wait: it probes
//! lock-free conditions (a `try_lock`, a log slot's stamp, ring space)
//! that no condvar is notified for, and its waits made while holding a
//! replica's lock must not unwind.
//! Waking a parked thread costs ~20 µs on a loaded host while most such
//! waits end within a microsecond or two, so the wait first
//! polls its condition for [`SPIN_BUDGET`] and only then takes the
//! loss-free park.
//!
//! A wait made by a team *member* at a [`WaitSite`] is a [`member_wait`]:
//! the same call, registered — once per wait — with the member's team, so
//! the stall watchdog, the scheduler hook and the wait histograms see one
//! blocked member for as long as it stays blocked.
//!
//! How a wait spins follows from what the code can observe, never from a
//! setting (DESIGN.md "Waiting policy"): only a site whose condition has
//! a lock-free probe polls at all; a site whose last wait outlasted the
//! budget parks at once ([`Site`]); a process running more team threads
//! than it has CPUs yields between probes from the first one on
//! (libgomp's managed-threads rule), because the thread waited for may
//! need this very CPU; a registered scheduler hook disables polling, so
//! a checker's decision trace is a function of the schedule alone.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::ctx::TeamShared;
use crate::error::{WaitSite, WaitTimedOut};
use crate::hook;
use crate::obs::{self, Counter, Line};

/// Park timeout: bounds how long a thread sleeps before re-running its
/// `check` (team poison/cancel flags), so a panic or cancellation
/// elsewhere in the team cannot leave siblings blocked forever. The stall
/// watchdog piggybacks on the same tick.
pub(crate) const PARK_TIMEOUT: Duration = Duration::from_millis(5);

/// How long a wait polls before it parks. Must exceed the park → wake
/// round trip (20–40 µs on the 2-core reference host once loaded), or a
/// parked wait could never look quick enough to turn polling back on.
const SPIN_BUDGET: Duration = Duration::from_micros(100);

/// Probes separated by a bare `spin_loop` hint before the spin starts
/// yielding its time slice between probes (and reading the clock); none
/// when the process is oversubscribed.
const PURE_SPINS: u32 = 64;

/// Threads inside a team context — region masters and workers running a
/// body — process-wide, each counted once however deeply it is nested.
/// Every member writes it on entry and exit, so it sits alone in its
/// [`Line`]: the linker otherwise may place it beside a static every
/// event reads (`obs`'s gate byte), and each write would evict that
/// static's line from every other core.
static LIVE: Line<AtomicUsize> = Line(AtomicUsize::new(0));

/// The calling thread entered its outermost team context.
pub(crate) fn member_entered() {
    LIVE.0.fetch_add(1, Ordering::Relaxed);
}

/// The calling thread left its outermost team context.
pub(crate) fn member_left() {
    LIVE.0.fetch_sub(1, Ordering::Relaxed);
}

/// The throttle: whether every running team thread can have a CPU.
fn cpu_to_spare() -> bool {
    static CPUS: OnceLock<usize> = OnceLock::new();
    let cpus = CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from));
    // A waiter outside any team context (an idle worker, a top-level
    // master at its join) is not in `LIVE`: it counts itself.
    let me = usize::from(crate::ctx::level() == 0);
    LIVE.0.load(Ordering::Relaxed) + me <= *cpus
}

/// A caller's lock-free retry before it registers a wait at all: up to
/// [`PURE_SPINS`] probes a `spin_loop` hint apart, none when the process
/// is oversubscribed. `take` runs only once `probe` holds.
pub(crate) fn spin(probe: impl Fn() -> bool, mut take: impl FnMut() -> bool) -> bool {
    cpu_to_spare()
        && (0..PURE_SPINS).any(|_| {
            std::hint::spin_loop();
            probe() && take()
        })
}

/// One wait site's history: its last wait outlasted [`SPIN_BUDGET`]. A
/// heuristic shared by the site's waiters — relaxed, last writer wins.
#[derive(Debug, Default)]
pub(crate) struct Site(AtomicBool);

/// Block until `take` yields a value. `take` runs under `lock` and is the
/// wake condition proper: whoever makes it true does so under `lock`,
/// then notifies `cv`. `probe` is its lock-free preview — it must turn
/// true once `take` would succeed — and is all the spin phase touches.
/// `check` runs before every park and aborts the wait by unwinding
/// (poison/cancel); `park` (the scheduler hook's blocked callback) is
/// offered each would-be park first. Both run with `lock` released, so
/// they may block or unwind; re-running `take` under the lock right
/// before the condvar wait is what makes wake-ups loss-free.
/// `site: None` never polls; `check: None` says only a notification can
/// end the wait, so it parks unbounded instead of ticking.
pub(crate) fn wait_until<S, R>(
    site: Option<&Site>,
    (lock, cv): (&Mutex<S>, &Condvar),
    probe: impl Fn() -> bool,
    mut take: impl FnMut(&mut S) -> Option<R>,
    check: Option<&dyn Fn()>,
    park: impl Fn() -> bool,
) -> R {
    let poll = |take: &mut dyn FnMut(&mut S) -> Option<R>| {
        probe().then(|| take(&mut lock.lock())).flatten()
    };
    if let Some(r) = poll(&mut take) {
        return r;
    }
    let t0 = Instant::now();
    if site.is_some_and(|s| !s.0.load(Ordering::Relaxed)) && !hook::active() {
        let mut probes = if cpu_to_spare() { 0 } else { PURE_SPINS };
        while probes < PURE_SPINS || t0.elapsed() < SPIN_BUDGET {
            if probes < PURE_SPINS {
                probes += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
            if let Some(r) = poll(&mut take) {
                obs::count(Counter::WaitSpinHit);
                return r;
            }
        }
    }
    obs::count(Counter::WaitParked);
    let r = loop {
        check.inspect(|check| check());
        if !park() {
            let mut g = lock.lock();
            if let Some(r) = take(&mut g) {
                break r;
            }
            match check {
                Some(_) => drop(cv.wait_for(&mut g, PARK_TIMEOUT)),
                None => cv.wait(&mut g),
            }
        }
        if let Some(r) = poll(&mut take) {
            break r;
        }
    };
    if let Some(site) = site {
        site.0.store(t0.elapsed() >= SPIN_BUDGET, Ordering::Relaxed);
    }
    r
}

/// A bounded wait's deadline, `timeout` from now, as a test for its
/// `probe` and `take`: the error to report once it has passed. Nothing
/// announces a deadline, so the wait that polls it must tick.
pub(crate) fn expiry(timeout: Option<Duration>) -> impl Fn() -> Option<WaitTimedOut> {
    let deadline = timeout.map(|t| (Instant::now() + t, WaitTimedOut { timeout: t }));
    move || deadline.and_then(|(at, e)| (Instant::now() >= at).then_some(e))
}

/// [`wait_until`] as one registered wait of the calling team member at
/// `site`: a cancellation point, visible to the stall watchdog, its park
/// offered to the scheduler hook. Outside a team it is the bare wait,
/// which only a notification ends — unless `timed` says the condition
/// includes a deadline, which nothing announces, so the park ticks. It
/// registers even when the condition already holds; a caller that must
/// not look blocked then tries its condition first.
pub(crate) fn member_wait<S, R>(
    site: WaitSite,
    spin: Option<&Site>,
    sync: (&Mutex<S>, &Condvar),
    probe: impl Fn() -> bool,
    take: impl FnMut(&mut S) -> Option<R>,
    timed: bool,
) -> R {
    crate::ctx::with_current(|c| {
        let member = c.map(|c| (&*c.shared, c.tid));
        registered(member, site, timed, |check, park| {
            wait_until(spin, sync, probe, take, check, park)
        })
    })
}

/// The registration itself — all [`member_wait`] adds to [`wait_until`]
/// — around a `wait` handed the `check` and `park` to wait with: the
/// barrier's member arrives between registering and waiting.
pub(crate) fn registered<R>(
    member: Option<(&TeamShared, usize)>,
    site: WaitSite,
    timed: bool,
    wait: impl FnOnce(Option<&dyn Fn()>, &dyn Fn() -> bool) -> R,
) -> R {
    let Some((team, tid)) = member else {
        let tick: &dyn Fn() = &|| {};
        return wait(timed.then_some(tick), &|| false);
    };
    team.check_interrupt();
    let _w = team.begin_wait(tid, site);
    wait(Some(&|| team.check_interrupt()), &|| {
        hook::yield_blocked(team.token(), tid, site)
    })
}
