//! Team context: who am I, which team am I in, and the per-team shared
//! state that constructs synchronise through.
//!
//! A thread may be a member of a stack of nested teams (the paper supports
//! nested parallel regions, §III-D); the innermost team is the one all
//! constructs bind to, mirroring OpenMP's binding rules.
//!
//! Besides the barrier, the team owns a *slot map*: anonymous shared state
//! allocated on demand, keyed by `(construct key, encounter round)`. Each
//! construct handle (a `Single`, a `ForConstruct` with dynamic schedule,
//! an `Ordered`, …) owns a unique key; each thread counts its own
//! encounters of that construct. Under the SPMD execution model of
//! parallel regions — all team threads execute the same region body — the
//! `k`-th encounter of a construct on one thread pairs with the `k`-th
//! encounter on every sibling, so the slot map gives every construct
//! occurrence its own fresh shared state without any global registration.
//! Slots are reference-counted by team size and freed once every member
//! has detached.
//!
//! The team also carries the *interrupt* state of the robustness layer:
//! the poison flag (a member panicked), the cancel flag (OpenMP 4.0
//! `cancel parallel`, see [`cancel_team`]) and — when the region carries
//! a stall deadline — a per-member wait-site registry plus a team-wide
//! progress counter that the runtime's watchdog reads to distinguish
//! "slow" from "stuck".

use parking_lot::Mutex;
use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::barrier::SenseBarrier;
use crate::error::{self, Cancelled, WaitSite};
use crate::hook::{self, HookEvent};
use crate::wait;

/// Allocate a process-unique construct key. Every construct handle
/// (`Single`, `Master`, `ForConstruct`, `Ordered`, …) calls this once at
/// creation time.
pub(crate) fn fresh_key() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

struct SlotEntry {
    value: Arc<dyn Any + Send + Sync>,
    remaining: usize,
}

/// Wait-site bookkeeping, allocated only for watched teams (a stall
/// deadline is armed).
pub(crate) struct WatchState {
    /// What each member is currently blocked on (`None` = running).
    waiting: Mutex<Vec<Option<WaitSite>>>,
    /// Bumped on every team-visible progress event: entering/leaving a
    /// wait, every chunk handout, every broadcast publish. The watchdog
    /// declares a stall only when this counter stops moving.
    progress: AtomicU64,
    /// Set by the watchdog when it declares a stall; holds the blocked
    /// snapshot for [`RegionError::Stalled`](crate::error::RegionError).
    stalled: Mutex<Option<Vec<(usize, WaitSite)>>>,
}

impl WatchState {
    fn new(n: usize) -> Self {
        Self {
            waiting: Mutex::new(vec![None; n]),
            progress: AtomicU64::new(0),
            stalled: Mutex::new(None),
        }
    }
}

/// State shared by all members of one team (one parallel-region
/// execution).
pub(crate) struct TeamShared {
    /// Team size.
    pub n: usize,
    /// Nesting level: 1 for a team created outside any region.
    pub level: usize,
    /// The team barrier (implicit joins, `@BarrierBefore/After`, …).
    pub barrier: SenseBarrier,
    /// Set when a member panicked; checked by blocking primitives.
    pub poisoned: AtomicBool,
    /// Whether [`cancel_team`] may cancel this team (OpenMP requires the
    /// `cancel` feature to be requested; the stall watchdog bypasses it).
    pub cancellable: bool,
    /// Set when the team was cancelled; checked at every cancellation
    /// point.
    pub cancelled: AtomicBool,
    /// Present iff a stall watchdog is armed for this team.
    pub watch: Option<WatchState>,
    /// First *real* panic payload of the team (the region layer's exit
    /// classifier filters benign `Cancelled`/`TeamPoisoned` unwinds).
    /// Team state rather than master-stack state so that a member the
    /// master abandoned still co-owns the slot it may write to.
    pub first_panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Weak handle to the runtime this region resolved to — weak so a
    /// team (notably one held by an abandoned detached straggler, or
    /// parked in a hot team's job slot) never keeps its runtime alive.
    /// Member threads upgrade it to inherit the runtime for nested
    /// regions and tasks (see [`CtxGuard::enter`]).
    pub(crate) rt: crate::runtime::WeakRuntime,
    slots: Mutex<HashMap<(u64, u64), SlotEntry>>,
}

impl TeamShared {
    #[cfg(test)]
    pub fn new(n: usize, level: usize) -> Self {
        Self::with_robustness(n, level, false, false)
    }

    /// Team with explicit robustness settings: `cancellable` enables
    /// [`cancel_team`]; `watched` allocates the wait-site registry the
    /// stall watchdog reads.
    #[cfg(test)]
    pub fn with_robustness(n: usize, level: usize, cancellable: bool, watched: bool) -> Self {
        Self::for_runtime(
            n,
            level,
            cancellable,
            watched,
            crate::runtime::WeakRuntime::default(),
        )
    }

    /// Team bound to a runtime instance; the region layer's constructor.
    pub(crate) fn for_runtime(
        n: usize,
        level: usize,
        cancellable: bool,
        watched: bool,
        rt: crate::runtime::WeakRuntime,
    ) -> Self {
        Self {
            n,
            level,
            barrier: SenseBarrier::new(n),
            poisoned: AtomicBool::new(false),
            cancellable,
            cancelled: AtomicBool::new(false),
            watch: if watched {
                Some(WatchState::new(n))
            } else {
                None
            },
            first_panic: Mutex::new(None),
            rt,
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// Fetch (or lazily create) the shared state for occurrence `round` of
    /// construct `key`. The state type `T` is fixed by the construct.
    ///
    /// Panics if two constructs with the same key request different types
    /// — impossible through the public API since keys are private and
    /// unique per handle.
    pub fn slot<T>(&self, key: u64, round: u64) -> Arc<T>
    where
        T: Default + Send + Sync + 'static,
    {
        let mut slots = self.slots.lock();
        let entry = slots.entry((key, round)).or_insert_with(|| SlotEntry {
            value: Arc::new(T::default()),
            remaining: self.n,
        });
        Arc::clone(&entry.value)
            .downcast::<T>()
            .expect("aomp internal error: construct slot type mismatch")
    }

    /// Release one team member's reference to `(key, round)`; the slot is
    /// dropped when all `n` members have detached.
    pub fn detach_slot(&self, key: u64, round: u64) {
        let mut slots = self.slots.lock();
        if let Some(entry) = slots.get_mut(&(key, round)) {
            entry.remaining -= 1;
            if entry.remaining == 0 {
                slots.remove(&(key, round));
            }
        }
    }

    /// Number of construct slots some member still holds.
    #[cfg(test)]
    pub(crate) fn live_slots(&self) -> usize {
        self.slots.lock().len()
    }

    /// Check the poison flag, unwinding with
    /// [`TeamPoisoned`](crate::error::TeamPoisoned) if a sibling panicked.
    #[inline]
    pub fn check_poison(&self) {
        if self.poisoned.load(Ordering::Acquire) {
            error::poisoned();
        }
    }

    /// Check both interrupt flags: unwinds with
    /// [`TeamPoisoned`](crate::error::TeamPoisoned) if a sibling
    /// panicked, with [`Cancelled`] if the team was cancelled. Every
    /// blocking primitive and chunk handout is a cancellation point via
    /// this check.
    #[inline]
    pub fn check_interrupt(&self) {
        if self.poisoned.load(Ordering::Acquire) {
            error::poisoned();
        }
        if self.cancelled.load(Ordering::Acquire) {
            error::cancelled();
        }
    }

    /// Mark the team poisoned and wake blocked members.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        self.barrier.kick();
    }

    /// Mark the team cancelled and wake blocked members. `force` bypasses
    /// the [`cancellable`](Self::cancellable) gate (used by the stall
    /// watchdog). Returns whether the flag was set.
    pub fn cancel(&self, force: bool) -> bool {
        if !self.cancellable && !force {
            return false;
        }
        self.cancelled.store(true, Ordering::Release);
        self.bump_progress();
        self.barrier.kick();
        true
    }

    /// Record a team-visible progress event for the stall watchdog.
    /// Cheap no-op on unwatched teams.
    #[inline]
    pub fn bump_progress(&self) {
        if let Some(w) = &self.watch {
            w.progress.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current progress counter (watched teams only; 0 otherwise).
    pub fn progress(&self) -> u64 {
        self.watch
            .as_ref()
            .map_or(0, |w| w.progress.load(Ordering::Relaxed))
    }

    /// This team's identity for the scheduler hook layer: the address of
    /// the shared state, stable for the region's lifetime.
    pub(crate) fn token(&self) -> usize {
        self as *const TeamShared as usize
    }

    /// Register `tid` as blocked at `site` until the returned guard
    /// drops. No-op (and allocation-free) on unwatched teams. One gate
    /// load covers the hook event *and* the obs wait timer: with nothing
    /// listening this is a relaxed load plus the watch-slot branch.
    pub fn begin_wait<'a>(&'a self, tid: usize, site: WaitSite) -> WaitGuard<'a> {
        let g = crate::obs::gate();
        hook::emit_gated(g, || HookEvent::WaitRegister {
            team: self.token(),
            tid,
            site,
        });
        let obs = crate::obs::wait_begin(g, site);
        if let Some(w) = &self.watch {
            w.waiting.lock()[tid] = Some(site);
            w.progress.fetch_add(1, Ordering::Relaxed);
            WaitGuard {
                shared: Some((self, tid)),
                obs,
            }
        } else {
            WaitGuard { shared: None, obs }
        }
    }

    /// Snapshot of `(tid, site)` for every member currently blocked at a
    /// wait site.
    pub fn blocked_snapshot(&self) -> Vec<(usize, WaitSite)> {
        match &self.watch {
            None => Vec::new(),
            Some(w) => w
                .waiting
                .lock()
                .iter()
                .enumerate()
                .filter_map(|(tid, s)| s.map(|site| (tid, site)))
                .collect(),
        }
    }

    /// Record the watchdog's stall verdict (first verdict wins) and
    /// force-cancel the team so blocked members unwind.
    pub fn declare_stalled(&self, blocked: Vec<(usize, WaitSite)>) {
        if let Some(w) = &self.watch {
            let mut s = w.stalled.lock();
            if s.is_none() {
                *s = Some(blocked);
            }
        }
        self.cancel(true);
    }

    /// Take the stall verdict, if the watchdog declared one.
    pub fn take_stalled(&self) -> Option<Vec<(usize, WaitSite)>> {
        self.watch.as_ref().and_then(|w| w.stalled.lock().take())
    }

    /// Whether the watchdog has declared a stall (non-consuming).
    pub fn stall_declared(&self) -> bool {
        self.watch
            .as_ref()
            .is_some_and(|w| w.stalled.lock().is_some())
    }

    /// Team barrier entry with full interrupt handling: checked for
    /// poison/cancel before and during the wait, registered as a
    /// [`WaitSite::Barrier`] for the stall watchdog.
    pub fn team_barrier(&self, tid: usize) -> bool {
        let leader = wait::registered(
            Some((self, tid)),
            WaitSite::Barrier,
            false,
            |check, park| self.barrier.wait_park(check, park),
        );
        hook::emit(|| HookEvent::BarrierExit {
            team: self.token(),
            tid,
            leader,
        });
        leader
    }
}

/// RAII guard returned by [`TeamShared::begin_wait`]: clears the member's
/// wait-site slot (and bumps progress) on drop — including when the wait
/// unwinds with a poison/cancel panic — and closes the obs wait timer,
/// so blocked-time histograms include waits aborted by cancellation.
pub(crate) struct WaitGuard<'a> {
    shared: Option<(&'a TeamShared, usize)>,
    obs: Option<crate::obs::WaitTimer>,
}

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        if let Some((shared, tid)) = self.shared {
            if let Some(w) = &shared.watch {
                w.waiting.lock()[tid] = None;
                w.progress.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(t) = self.obs.take() {
            crate::obs::wait_end(t);
        }
    }
}

/// Per-thread view of a team membership.
pub(crate) struct TeamCtx {
    pub shared: Arc<TeamShared>,
    pub tid: usize,
    /// Per-construct encounter counters (see module docs).
    rounds: RefCell<HashMap<u64, u64>>,
}

impl TeamCtx {
    fn new(shared: Arc<TeamShared>, tid: usize) -> Self {
        Self {
            shared,
            tid,
            rounds: RefCell::new(HashMap::new()),
        }
    }

    /// The encounter round for construct `key` on this thread, counting
    /// from zero, incremented on each call.
    pub fn next_round(&self, key: u64) -> u64 {
        let mut rounds = self.rounds.borrow_mut();
        let r = rounds.entry(key).or_insert(0);
        let v = *r;
        *r += 1;
        v
    }
}

thread_local! {
    static STACK: RefCell<Vec<Rc<TeamCtx>>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for team membership; popping in `Drop` keeps the context
/// stack correct even when the region body panics. Poisoning on panic is
/// the region executor's job (it must distinguish real panics from benign
/// `Cancelled` unwinds, which a `Drop` impl cannot).
pub(crate) struct CtxGuard {
    shared: Arc<TeamShared>,
    tid: usize,
    /// Whether `enter` pushed the team's runtime onto the thread's
    /// entered-runtime stack (it did iff the weak handle was live).
    entered_rt: bool,
}

impl CtxGuard {
    pub fn enter(shared: Arc<TeamShared>, tid: usize) -> Self {
        let ctx = Rc::new(TeamCtx::new(Arc::clone(&shared), tid));
        let outermost = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            stack.push(ctx);
            stack.len() == 1
        });
        if outermost {
            wait::member_entered();
        }
        // Make the team's runtime the enclosing one for everything this
        // member starts (nested regions, tasks) — on every member thread,
        // master and hot-team workers alike. This is what makes a
        // nested region inherit its parent's runtime rather than falling
        // back to the default.
        let entered_rt = match shared.rt.upgrade() {
            Some(rt) => {
                crate::runtime::push_entered(rt);
                true
            }
            None => false,
        };
        hook::emit(|| HookEvent::MemberStart {
            team: shared.token(),
            tid,
        });
        Self {
            shared,
            tid,
            entered_rt,
        }
    }
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        if self.entered_rt {
            crate::runtime::pop_entered();
        }
        let outermost = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            stack.pop();
            stack.is_empty()
        });
        if outermost {
            wait::member_left();
        }
        // Also fires during unwinds; the hook contract forbids panicking
        // from `event`, so this cannot double-panic.
        hook::emit(|| HookEvent::MemberEnd {
            team: self.shared.token(),
            tid: self.tid,
        });
    }
}

/// Run `f` with the innermost team context, or `None` when the calling
/// thread is not inside a parallel region.
pub(crate) fn with_current<R>(f: impl FnOnce(Option<&Rc<TeamCtx>>) -> R) -> R {
    STACK.with(|s| {
        let stack = s.borrow();
        f(stack.last())
    })
}

/// Run `f` outside every team the calling thread is a member of, as a
/// task runs on an executor worker: inside, [`level`] reads 0 and no
/// construct binds to the hidden teams, and the thread no longer counts
/// as a running team thread. The hidden stack and that count come back
/// on every way out, unwinding included. A future's getter runs its
/// own unstarted producer this way.
pub(crate) fn detached<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(Vec<Rc<TeamCtx>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if !self.0.is_empty() {
                wait::member_entered();
            }
            let hidden = std::mem::take(&mut self.0);
            STACK.with(|s| *s.borrow_mut() = hidden);
        }
    }
    let hidden = STACK.with(|s| std::mem::take(&mut *s.borrow_mut()));
    if !hidden.is_empty() {
        wait::member_left();
    }
    let _restore = Restore(hidden);
    f()
}

/// A stable per-thread token (the address of a thread-local), used for
/// re-entrancy detection. Never zero.
pub(crate) fn thread_token() -> usize {
    thread_local! {
        static TOKEN: u8 = const { 0 };
    }
    TOKEN.with(|t| t as *const u8 as usize)
}

/// Nesting depth of parallel regions on this thread (0 outside any).
pub fn level() -> usize {
    STACK.with(|s| s.borrow().len())
}

/// This thread's id within the innermost team (`0..team_size()`), or 0
/// outside a parallel region — the paper's `getThreadId()`.
pub fn thread_id() -> usize {
    with_current(|c| c.map_or(0, |c| c.tid))
}

/// Size of the innermost team, or 1 outside a parallel region.
pub fn team_size() -> usize {
    with_current(|c| c.map_or(1, |c| c.shared.n))
}

/// True when called from inside a parallel region with more than one
/// member thread.
pub fn in_parallel() -> bool {
    with_current(|c| c.is_some_and(|c| c.shared.n > 1))
}

/// Team barrier: block until every thread of the innermost team arrives.
/// Outside a parallel region this is a no-op, preserving sequential
/// semantics. A cancellation point: unwinds with
/// [`Cancelled`](crate::error::Cancelled) if the team was cancelled.
pub fn barrier() {
    with_current(|c| {
        if let Some(c) = c {
            c.shared.team_barrier(c.tid);
        }
    })
}

/// Request cancellation of the innermost team — OpenMP 4.0's
/// `#pragma omp cancel parallel`.
///
/// Returns `true` if the cancel flag was set: the calling thread must be
/// inside a parallel region whose configuration opted in via
/// [`RegionConfig::cancellable`](crate::region::RegionConfig::cancellable)
/// (mirroring OpenMP, where cancellation must be activated). Returns
/// `false` (a no-op) otherwise.
///
/// After a successful cancel, every sibling observes the flag at its next
/// cancellation point — barrier entry, chunk handout of any schedule,
/// critical-section entry, single/master broadcast waits, task
/// spawns/joins, or an explicit [`cancellation_point`] — and skips to the
/// end of the region. The region then reports
/// [`RegionError::Cancelled`](crate::error::RegionError) through
/// [`region::try_parallel`](crate::region::try_parallel) (the panicking
/// API treats cancellation as a benign early exit).
pub fn cancel_team() -> bool {
    with_current(|c| {
        c.is_some_and(|c| {
            let done = c.shared.cancel(false);
            if done {
                hook::emit(|| HookEvent::CancelRequested {
                    team: c.shared.token(),
                    tid: c.tid,
                });
            }
            done
        })
    })
}

/// Explicit cancellation point — OpenMP 4.0's
/// `#pragma omp cancellation point parallel`.
///
/// Returns `Err(Cancelled)` if the innermost team has been cancelled, so
/// user code can short-circuit long computations with `?` and return
/// early; `Ok(())` otherwise (including outside any region). Also unwinds
/// with [`TeamPoisoned`](crate::error::TeamPoisoned) if a sibling
/// panicked, keeping poison semantics uniform.
pub fn cancellation_point() -> Result<(), Cancelled> {
    with_current(|c| match c {
        None => Ok(()),
        Some(c) => {
            hook::emit(|| HookEvent::CancellationPoint {
                team: c.shared.token(),
                tid: c.tid,
            });
            c.shared.check_poison();
            if c.shared.cancelled.load(Ordering::Acquire) {
                Err(Cancelled)
            } else {
                Ok(())
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_team_defaults() {
        assert_eq!(thread_id(), 0);
        assert_eq!(team_size(), 1);
        assert!(!in_parallel());
        assert_eq!(level(), 0);
        barrier(); // must not block
        assert!(!cancel_team()); // no team to cancel
        assert!(cancellation_point().is_ok());
    }

    #[test]
    fn ctx_guard_pushes_and_pops() {
        let shared = Arc::new(TeamShared::new(1, 1));
        {
            let _g = CtxGuard::enter(Arc::clone(&shared), 0);
            assert_eq!(level(), 1);
            assert_eq!(team_size(), 1);
            {
                let inner = Arc::new(TeamShared::new(1, 2));
                let _g2 = CtxGuard::enter(inner, 0);
                assert_eq!(level(), 2);
            }
            assert_eq!(level(), 1);
        }
        assert_eq!(level(), 0);
    }

    #[test]
    fn detached_hides_the_team_stack_and_restores_it_on_unwind() {
        let shared = Arc::new(TeamShared::new(2, 1));
        let _g = CtxGuard::enter(shared, 1);
        let inside = detached(|| (level(), thread_id(), team_size()));
        assert_eq!(inside, (0, 0, 1));
        let unwound = std::panic::catch_unwind(|| detached(|| panic!("inside")));
        assert!(unwound.is_err());
        assert_eq!((level(), thread_id(), team_size()), (1, 1, 2));
    }

    #[test]
    fn rounds_count_per_key() {
        let shared = Arc::new(TeamShared::new(1, 1));
        let ctx = TeamCtx::new(shared, 0);
        let k1 = fresh_key();
        let k2 = fresh_key();
        assert_eq!(ctx.next_round(k1), 0);
        assert_eq!(ctx.next_round(k1), 1);
        assert_eq!(ctx.next_round(k2), 0);
        assert_eq!(ctx.next_round(k1), 2);
    }

    #[test]
    fn slots_freed_after_all_detach() {
        let shared = TeamShared::new(2, 1);
        let key = fresh_key();
        let a: Arc<AtomicBool> = shared.slot(key, 0);
        let b: Arc<AtomicBool> = shared.slot(key, 0);
        assert!(Arc::ptr_eq(&a, &b));
        shared.detach_slot(key, 0);
        assert_eq!(shared.slots.lock().len(), 1);
        shared.detach_slot(key, 0);
        assert!(shared.slots.lock().is_empty());
    }

    #[test]
    fn distinct_rounds_get_distinct_slots() {
        let shared = TeamShared::new(1, 1);
        let key = fresh_key();
        let a: Arc<AtomicBool> = shared.slot(key, 0);
        let b: Arc<AtomicBool> = shared.slot(key, 1);
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn fresh_keys_unique() {
        let a = fresh_key();
        let b = fresh_key();
        assert_ne!(a, b);
    }

    #[test]
    fn cancel_respects_cancellable_gate() {
        let plain = TeamShared::new(2, 1);
        assert!(!plain.cancel(false), "non-cancellable team refuses cancel");
        assert!(!plain.cancelled.load(Ordering::Acquire));
        assert!(
            plain.cancel(true),
            "force (watchdog) cancel bypasses the gate"
        );
        assert!(plain.cancelled.load(Ordering::Acquire));

        let c = TeamShared::with_robustness(2, 1, true, false);
        assert!(c.cancel(false));
        assert!(c.cancelled.load(Ordering::Acquire));
    }

    #[test]
    fn wait_registry_tracks_blocked_members() {
        let t = TeamShared::with_robustness(3, 1, false, true);
        assert!(t.blocked_snapshot().is_empty());
        let p0 = t.progress();
        {
            let _g1 = t.begin_wait(1, WaitSite::Barrier);
            let _g2 = t.begin_wait(2, WaitSite::Critical);
            let snap = t.blocked_snapshot();
            assert_eq!(snap, vec![(1, WaitSite::Barrier), (2, WaitSite::Critical)]);
        }
        assert!(t.blocked_snapshot().is_empty());
        assert!(t.progress() > p0, "wait entry/exit count as progress");
    }

    #[test]
    fn unwatched_team_skips_registry() {
        let t = TeamShared::new(2, 1);
        let _g = t.begin_wait(0, WaitSite::Barrier);
        assert!(t.blocked_snapshot().is_empty());
        assert_eq!(t.progress(), 0);
    }

    #[test]
    fn declare_stalled_first_verdict_wins() {
        let t = TeamShared::with_robustness(2, 1, false, true);
        t.declare_stalled(vec![(0, WaitSite::Barrier)]);
        t.declare_stalled(vec![(1, WaitSite::Ordered)]);
        assert!(t.cancelled.load(Ordering::Acquire), "stall force-cancels");
        assert_eq!(t.take_stalled(), Some(vec![(0, WaitSite::Barrier)]));
        assert_eq!(t.take_stalled(), None);
    }
}
