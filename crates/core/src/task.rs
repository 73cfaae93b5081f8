//! `@Task`, `@TaskWait`, `@FutureTask` and `@FutureResult`.
//!
//! The paper's `@Task` "spawns a new parallel activity to execute the
//! annotated method" and can be used inside or outside parallel regions;
//! an additional method acts as the join point between spawning and
//! spawned activity (`@TaskWait`). `@FutureTask` targets methods with a
//! return value: the result object's getter/setter act as synchronisation
//! points (`@FutureResult`).
//!
//! Mapping: [`spawn`] creates a new activity; [`TaskGroup`] is the join
//! point for `@TaskWait`; [`FutureTask`] is the future whose
//! [`get`](FutureTask::get) is the `@FutureResult`-getter
//! synchronisation point, backed by a hand-built one-shot channel.
//!
//! Activities run on the shared task
//! [`executor`](crate::executor) (parked workers behind one queue) —
//! not one OS thread per task as in the paper's literal model. The
//! executor admits a task only when a worker is free or the pool can
//! grow; otherwise the spawn falls back to a dedicated thread, and on
//! thread exhaustion to *inline* execution on the caller (sequential
//! semantics) instead of panicking. A runtime's
//! [`task_workers`](crate::runtime::RuntimeBuilder::task_workers) cap
//! bounds the pool; spawns past it get thread-per-task.
//!
//! Dispatch outcomes are observable: with `AOMP_METRICS` on, the
//! [`obs`](crate::obs) registry counts spawned/pooled/dedicated/inline
//! tasks, admission refusals and executor park cycles
//! ([`obs::Counter::TaskSpawned`](crate::obs::Counter) and friends).
//!
//! Failure semantics: a producer's panic poisons its one-shot cell *with
//! the original payload*, which [`FutureTask::get`] re-raises
//! (`resume_unwind`) and [`FutureTask::try_get`] reports as a value.
//! Called inside a team, [`FutureTask::get`], [`TaskGroup::wait`] and
//! [`TaskGroup::spawn`] are cancellation points.
//!
//! The two joins are the paper's "synchronisation points", and wait the
//! way its barriers do: each is one `wait::member_wait` — registered
//! once, at [`WaitSite::FutureGet`] / [`WaitSite::TaskWait`], for the
//! stall watchdog, the scheduler hook and the wait histograms. A group's
//! join polls its lock-free `outstanding` count before it parks (the
//! group holds the history bit); a future's cell has no lock-free probe
//! and parks at once. [`FutureTask::get_timeout`] and
//! [`TaskGroup::wait_timeout`] bound the waits explicitly: the deadline
//! rides in the wait's condition.
//!
//! The getter says when the value must exist, not which thread computes
//! it. A future's getter that finds its own producer still queued on
//! the executor takes it back and runs it on the calling thread, as a
//! worker would: outside the caller's teams, in its spawning runtime
//! (the executor's module doc argues why this cannot deadlock). Only a
//! producer running elsewhere is waited for, so a bound limits that
//! wait; a producer that had not started runs to completion on the
//! caller. Under a registered scheduler hook every getter waits, so an
//! explored schedule stays a function of its seed. `TaskGroup::wait`
//! never runs a task itself.

use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::ctx;
use crate::error::{self, TaskPanicked, WaitSite, WaitTimedOut};
use crate::executor::Executor;
use crate::hook::{self, HookEvent};
use crate::wait::{self, Site};

/// One-shot rendezvous cell: written once by the producer, consumed once
/// by `get`.
enum ShotState<T> {
    Empty,
    Ready(T),
    Taken,
    /// Producer panicked before publishing; carries the panic payload
    /// when one was captured (a dropped unfulfilled promise has none).
    Poisoned(Payload),
}

/// What a failed producer left behind: its panic payload, if it had one.
type Payload = Option<Box<dyn Any + Send>>;

struct OneShot<T> {
    state: Mutex<ShotState<T>>,
    cv: Condvar,
}

impl<T> OneShot<T> {
    fn new() -> Self {
        Self {
            state: Mutex::new(ShotState::Empty),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, v: T) {
        let mut s = self.state.lock();
        debug_assert!(matches!(*s, ShotState::Empty));
        *s = ShotState::Ready(v);
        drop(s);
        self.cv.notify_all();
    }

    fn poison(&self, payload: Payload) {
        let mut s = self.state.lock();
        if matches!(*s, ShotState::Empty) {
            *s = ShotState::Poisoned(payload);
        }
        drop(s);
        self.cv.notify_all();
    }

    /// Consume the cell — the registered [`WaitSite::FutureGet`] wait —
    /// for the value or the failed producer's payload; `Err` once
    /// `timeout` passed with the cell still empty. The cell has no
    /// lock-free probe, so the wait parks.
    ///
    /// Panics only on double consumption (a programming error).
    fn take(&self, timeout: Option<Duration>) -> Result<Result<T, Payload>, WaitTimedOut> {
        let expired = wait::expiry(timeout);
        wait::member_wait(
            WaitSite::FutureGet,
            None,
            (&self.state, &self.cv),
            || true,
            |s| match std::mem::replace(s, ShotState::Taken) {
                ShotState::Ready(v) => Some(Ok(Ok(v))),
                ShotState::Poisoned(p) => Some(Ok(Err(p))),
                ShotState::Taken => panic!("aomp future result consumed twice"),
                ShotState::Empty => {
                    *s = ShotState::Empty;
                    expired().map(Err)
                }
            },
            timeout.is_some(),
        )
    }

    fn is_ready(&self) -> bool {
        matches!(
            *self.state.lock(),
            ShotState::Ready(_) | ShotState::Poisoned(_)
        )
    }
}

/// Spawn a detached parallel activity executing `f` — `@Task` without a
/// join point. Prefer [`TaskGroup::spawn`] when completion must be
/// awaited.
///
/// The task runs on the calling context's
/// [`Runtime`](crate::runtime::Runtime) — the innermost entered one
/// (inside a region: the region's), else the default runtime — and the
/// task body itself runs *in* that runtime, so regions and tasks it
/// starts inherit it too.
///
/// Never panics on resource exhaustion: with the executor saturated and
/// no thread to be had, `f` runs inline on the caller before `spawn`
/// returns (sequential semantics).
pub fn spawn<F>(f: F)
where
    F: FnOnce() + Send + 'static,
{
    spawn_in(&crate::runtime::current(), f)
}

pub(crate) fn spawn_in<F>(rt: &crate::runtime::Runtime, f: F)
where
    F: FnOnce() + Send + 'static,
{
    hook::emit_team(|team, tid| HookEvent::TaskSpawn { team, tid });
    rt.dispatch_task("aomp-task", in_runtime(rt, f));
}

/// Spawn an activity computing a value — `@FutureTask`. The returned
/// [`FutureTask`] is the `@FutureResult` object. Runtime resolution as
/// in [`spawn`].
pub fn spawn_future<T, F>(f: F) -> FutureTask<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    spawn_future_in(&crate::runtime::current(), f)
}

pub(crate) fn spawn_future_in<T, F>(rt: &crate::runtime::Runtime, f: F) -> FutureTask<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    hook::emit_team(|team, tid| HookEvent::TaskSpawn { team, tid });
    let shot = Arc::new(OneShot::new());
    let shot2 = Arc::clone(&shot);
    let ticket = rt.dispatch_task(
        "aomp-future-task",
        // Capture the panic payload so `get` can re-raise the *original*
        // panic instead of a generic "producer died" message.
        in_runtime(rt, move || match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => shot2.publish(v),
            Err(p) => shot2.poison(Some(p)),
        }),
    );
    FutureTask {
        shot,
        producer: ticket.map(|t| (Arc::clone(rt.executor()), t)),
    }
}

/// Wrap a task body so it executes with `rt` entered: anything the task
/// starts (nested tasks, regions) inherits the spawning context's
/// runtime instead of the default one. Weakly captured — a task that
/// outlives its runtime falls back to the surrounding resolution.
pub(crate) fn in_runtime<F>(rt: &crate::runtime::Runtime, f: F) -> crate::executor::Task
where
    F: FnOnce() + Send + 'static,
{
    let weak = rt.downgrade();
    Box::new(move || {
        let _g = weak.upgrade().map(|rt| rt.enter());
        f()
    })
}

/// Re-raise a failed producer's panic in the consumer.
fn raise(payload: Payload) -> ! {
    match payload {
        Some(p) => resume_unwind(p),
        None => panic!("aomp future task panicked before producing a result"),
    }
}

/// Handle to a value being computed by a spawned activity
/// (`@FutureTask`). [`get`](Self::get) blocks until the value is set —
/// the `@FutureResult` getter synchronisation point.
pub struct FutureTask<T> {
    shot: Arc<OneShot<T>>,
    /// Where the producer was queued, and under which ticket: the getter
    /// runs it itself if no worker has popped it yet. `None` for a
    /// [`future_pair`] and for a producer the executor refused.
    producer: Option<(Arc<Executor>, u64)>,
}

impl<T> std::fmt::Debug for FutureTask<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FutureTask")
            .field("shot", &self.shot)
            .finish_non_exhaustive()
    }
}

impl<T> std::fmt::Debug for OneShot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match *self.state.lock() {
            ShotState::Empty => "Empty",
            ShotState::Ready(_) => "Ready",
            ShotState::Taken => "Taken",
            ShotState::Poisoned(_) => "Poisoned",
        };
        write!(f, "OneShot({s})")
    }
}

impl<T> FutureTask<T> {
    /// Block until the producing activity publishes the value, then take
    /// it. If the producer panicked, re-raises its original panic
    /// payload. A cancellation point (and a [`WaitSite::FutureGet`] for
    /// the stall watchdog) when called inside a team.
    pub fn get(self) -> T {
        self.try_take(None)
            .expect("unbounded future get cannot time out")
            .unwrap_or_else(|p| raise(p))
    }

    /// Non-panicking variant of [`get`](Self::get): a producer panic is
    /// reported as [`TaskPanicked`] (with the payload summarised as a
    /// message) instead of unwinding the consumer.
    pub fn try_get(self) -> Result<T, TaskPanicked> {
        self.try_take(None)
            .expect("unbounded future get cannot time out")
            .map_err(|p| TaskPanicked {
                payload_msg: p.map_or_else(
                    || "producer dropped without publishing".to_owned(),
                    |p| error::payload_msg(p.as_ref()),
                ),
            })
    }

    /// Bounded variant of [`get`](Self::get): gives up after `timeout`.
    /// The future is consumed either way — on `Err` the producer's
    /// eventual value is discarded. Producer panics re-raise as in
    /// [`get`](Self::get).
    ///
    /// The bound limits waiting for a producer that is running
    /// elsewhere. A producer that had not started yet runs to completion
    /// on the caller, however long it takes, and its value is returned.
    pub fn get_timeout(self, timeout: Duration) -> Result<T, WaitTimedOut> {
        Ok(self.try_take(Some(timeout))?.unwrap_or_else(|p| raise(p)))
    }

    /// Deadline form of [`get_timeout`](Self::get_timeout): waits until
    /// the absolute instant `deadline`. An already-expired deadline
    /// still takes a value that is ready right now before reporting
    /// [`WaitTimedOut`] — the semantics a request server wants when
    /// propagating a request's time budget through chained waits. As
    /// there, a producer that had not started runs to completion on the
    /// caller: the deadline bounds only the wait for one running
    /// elsewhere.
    pub fn get_by(self, deadline: Instant) -> Result<T, WaitTimedOut> {
        let remaining = deadline.saturating_duration_since(Instant::now());
        self.get_timeout(remaining)
    }

    /// The `@FutureResult` getter proper; a team member's is a task join.
    /// A producer still queued runs here first, detached from the
    /// caller's teams (see the module doc), after which the cell is full.
    fn try_take(self, timeout: Option<Duration>) -> Result<Result<T, Payload>, WaitTimedOut> {
        if let Some((executor, ticket)) = &self.producer {
            if !hook::active() {
                // `get` is a cancellation point: a cancelled member
                // leaves its producer to a worker.
                ctx::with_current(|c| c.map(|c| c.shared.check_interrupt()));
                if let Some(task) = executor.withdraw(*ticket) {
                    ctx::detached(task);
                }
            }
        }
        let taken = self.shot.take(timeout);
        hook::emit_team(|team, tid| HookEvent::TaskJoin {
            team,
            tid,
            site: WaitSite::FutureGet,
        });
        taken
    }

    /// True when the value is available (or the producer failed) and
    /// [`get`](Self::get) would not block.
    pub fn is_ready(&self) -> bool {
        self.shot.is_ready()
    }
}

/// A manually-created future: the `@FutureResult` setter/getter pair
/// without a spawning activity. `promise()` gives the setter side.
pub fn future_pair<T: Send>() -> (FuturePromise<T>, FutureTask<T>) {
    let shot = Arc::new(OneShot::new());
    (
        FuturePromise {
            shot: Arc::clone(&shot),
        },
        FutureTask {
            shot,
            producer: None,
        },
    )
}

/// Setter side of a [`future_pair`] — the `@FutureResult` setter
/// synchronisation point.
#[derive(Debug)]
pub struct FuturePromise<T> {
    shot: Arc<OneShot<T>>,
}

impl<T> FuturePromise<T> {
    /// Publish the value, releasing all `get` waiters.
    pub fn set(self, v: T) {
        self.shot.publish(v);
    }
}

impl<T> Drop for FuturePromise<T> {
    fn drop(&mut self) {
        // If set() consumed self, state is Ready/Taken and poison is a
        // no-op; if the promise is dropped unfulfilled, wake getters.
        self.shot.poison(None);
    }
}

/// Inner state of a [`TaskGroup`].
#[derive(Default)]
struct GroupState {
    /// Decremented lock-free by finishing tasks: what a joiner polls.
    outstanding: AtomicUsize,
    failed: AtomicBool,
    /// Only makes the park loss-free: the task that drains the group
    /// passes through it before it notifies.
    lock: Mutex<()>,
    cv: Condvar,
    site: Site,
}

/// A join point between spawning and spawned activities — `@TaskWait`.
///
/// Tasks spawned through the group are counted; [`wait`](Self::wait)
/// blocks until all of them completed and panics if any of them panicked.
#[derive(Clone, Default)]
pub struct TaskGroup {
    state: Arc<GroupState>,
}

impl std::fmt::Debug for TaskGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskGroup")
            .field(
                "outstanding",
                &self.state.outstanding.load(Ordering::Relaxed),
            )
            .finish()
    }
}

impl TaskGroup {
    /// New, empty group.
    pub fn new() -> Self {
        Self::default()
    }

    /// Spawn `f` as a new activity tracked by this group (`@Task` with a
    /// join point). A cancellation point inside a team: once the team is
    /// cancelled no further tasks are spawned.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        ctx::with_current(|c| {
            if let Some(c) = c {
                c.shared.check_interrupt();
            }
        });
        hook::emit_team(|team, tid| HookEvent::TaskSpawn { team, tid });
        let state = Arc::clone(&self.state);
        state.outstanding.fetch_add(1, Ordering::AcqRel);
        let rt = crate::runtime::current();
        rt.dispatch_task(
            "aomp-task",
            in_runtime(&rt, move || {
                let ok = std::panic::catch_unwind(AssertUnwindSafe(f)).is_ok();
                if !ok {
                    state.failed.store(true, Ordering::Release);
                }
                let prev = state.outstanding.fetch_sub(1, Ordering::AcqRel);
                if prev == 1 {
                    let _g = state.lock.lock();
                    drop(_g);
                    state.cv.notify_all();
                }
            }),
        );
    }

    /// Number of not-yet-finished tasks.
    pub fn outstanding(&self) -> usize {
        self.state.outstanding.load(Ordering::Acquire)
    }

    /// Block until every task spawned so far has finished — `@TaskWait`.
    /// Panics if any task panicked. A cancellation point (and a
    /// [`WaitSite::TaskWait`]) when called inside a team.
    pub fn wait(&self) {
        self.wait_inner(None)
            .expect("unbounded task wait cannot time out");
    }

    /// Bounded variant of [`wait`](Self::wait): gives up after `timeout`,
    /// leaving the group intact (tasks keep running; a later
    /// [`wait`](Self::wait) can still join them).
    pub fn wait_timeout(&self, timeout: Duration) -> Result<(), WaitTimedOut> {
        self.wait_inner(Some(timeout))
    }

    /// Deadline form of [`wait_timeout`](Self::wait_timeout): waits
    /// until the absolute instant `deadline`. An expired deadline still
    /// observes a group that is already drained before reporting
    /// [`WaitTimedOut`] — see
    /// [`FutureTask::get_by`](crate::task::FutureTask::get_by).
    pub fn wait_until(&self, deadline: Instant) -> Result<(), WaitTimedOut> {
        let remaining = deadline.saturating_duration_since(Instant::now());
        self.wait_inner(Some(remaining))
    }

    fn wait_inner(&self, timeout: Option<Duration>) -> Result<(), WaitTimedOut> {
        // Empty group: nothing to join. Return before registering a wait
        // site or consulting the stall watchdog — a no-op join must not
        // look like a blocked member (and must not cost a park). The
        // failed flag is still honoured so a zero-outstanding group whose
        // last task panicked reports it at the next join, as before.
        if self.state.outstanding.load(Ordering::Acquire) == 0 {
            if self.state.failed.swap(false, Ordering::AcqRel) {
                panic!("aomp task group: a task panicked");
            }
            return Ok(());
        }
        let drained = || self.state.outstanding.load(Ordering::Acquire) == 0;
        let expired = wait::expiry(timeout);
        wait::member_wait(
            WaitSite::TaskWait,
            Some(&self.state.site),
            (&self.state.lock, &self.state.cv),
            || drained() || expired().is_some(),
            |_| {
                if drained() {
                    Some(Ok(()))
                } else {
                    expired().map(Err)
                }
            },
            timeout.is_some(),
        )?;
        if self.state.failed.swap(false, Ordering::AcqRel) {
            panic!("aomp task group: a task panicked");
        }
        hook::emit_team(|team, tid| HookEvent::TaskJoin {
            team,
            tid,
            site: WaitSite::TaskWait,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{CtxGuard, TeamShared};
    use crate::obs::Counter;
    use crate::runtime::Runtime;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn task_group_waits_for_all() {
        let group = TaskGroup::new();
        let sum = Arc::new(AtomicU64::new(0));
        for i in 0..8u64 {
            let sum = Arc::clone(&sum);
            group.spawn(move || {
                sum.fetch_add(i, Ordering::SeqCst);
            });
        }
        group.wait();
        assert_eq!(sum.load(Ordering::SeqCst), (0..8).sum::<u64>());
        assert_eq!(group.outstanding(), 0);
    }

    #[test]
    fn task_group_reusable_after_wait() {
        let group = TaskGroup::new();
        let hits = Arc::new(AtomicU64::new(0));
        for _round in 0..3 {
            for _ in 0..4 {
                let hits = Arc::clone(&hits);
                group.spawn(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
            group.wait();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 12);
    }

    #[test]
    fn future_task_returns_value() {
        let fut = spawn_future(|| 6 * 7);
        assert_eq!(fut.get(), 42);
    }

    #[test]
    fn future_task_many_producers() {
        let futures: Vec<FutureTask<u64>> =
            (0..10u64).map(|i| spawn_future(move || i * i)).collect();
        let total: u64 = futures.into_iter().map(|f| f.get()).sum();
        assert_eq!(total, (0..10u64).map(|i| i * i).sum::<u64>());
    }

    #[test]
    fn future_pair_set_get() {
        let (promise, fut) = future_pair::<&'static str>();
        let t = std::thread::spawn(move || fut.get());
        promise.set("done");
        assert_eq!(t.join().unwrap(), "done");
    }

    #[test]
    fn future_task_panics_propagate_original_payload() {
        let fut = spawn_future(|| -> u32 { panic!("producer dies: {}", 13) });
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| fut.get()));
        let p = r.expect_err("get must re-raise the producer panic");
        assert_eq!(error::payload_msg(p.as_ref()), "producer dies: 13");
    }

    #[test]
    fn try_get_reports_panic_without_unwinding() {
        let fut = spawn_future(|| -> u32 { panic!("deliberate task failure") });
        match fut.try_get() {
            Err(TaskPanicked { payload_msg }) => {
                assert_eq!(payload_msg, "deliberate task failure");
            }
            Ok(v) => panic!("expected failure, got {v}"),
        }
    }

    #[test]
    fn try_get_returns_value() {
        let fut = spawn_future(|| 11u32);
        assert_eq!(fut.try_get(), Ok(11));
    }

    #[test]
    fn get_timeout_expires_without_producer() {
        let (_promise, fut) = future_pair::<u32>();
        let t0 = Instant::now();
        let r = fut.get_timeout(Duration::from_millis(30));
        assert_eq!(
            r,
            Err(WaitTimedOut {
                timeout: Duration::from_millis(30)
            })
        );
        assert!(t0.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn get_timeout_returns_value_in_time() {
        let fut = spawn_future(|| 5u8);
        assert_eq!(fut.get_timeout(Duration::from_secs(10)), Ok(5));
    }

    #[test]
    fn dropped_promise_poisons_future() {
        let (promise, fut) = future_pair::<u32>();
        drop(promise);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| fut.get()));
        assert!(r.is_err());
    }

    #[test]
    fn dropped_promise_try_get_is_err() {
        let (promise, fut) = future_pair::<u32>();
        drop(promise);
        let e = fut.try_get().expect_err("unfulfilled promise");
        assert!(e.payload_msg.contains("without publishing"), "{e}");
    }

    #[test]
    fn task_group_wait_panics_if_task_failed() {
        let group = TaskGroup::new();
        group.spawn(|| panic!("task dies"));
        let g2 = group.clone();
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| g2.wait()));
        assert!(r.is_err());
        // Group must be reusable after the failure was reported.
        group.spawn(|| {});
        group.wait();
    }

    #[test]
    fn task_group_wait_timeout_leaves_group_intact() {
        let group = TaskGroup::new();
        let release = Arc::new(AtomicBool::new(false));
        let r2 = Arc::clone(&release);
        group.spawn(move || {
            while !r2.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let r = group.wait_timeout(Duration::from_millis(20));
        assert!(r.is_err(), "task still running: wait must time out");
        assert_eq!(group.outstanding(), 1);
        release.store(true, Ordering::Release);
        group.wait();
        assert_eq!(group.outstanding(), 0);
    }

    #[test]
    fn get_by_takes_ready_value_despite_expired_deadline() {
        let (promise, fut) = future_pair::<u8>();
        promise.set(9);
        let past = Instant::now() - Duration::from_secs(1);
        assert_eq!(fut.get_by(past), Ok(9));
    }

    #[test]
    fn get_by_times_out_without_producer() {
        let (_promise, fut) = future_pair::<u8>();
        let r = fut.get_by(Instant::now() + Duration::from_millis(20));
        assert!(r.is_err());
    }

    #[test]
    fn wait_until_on_drained_group_is_ok_despite_expired_deadline() {
        let group = TaskGroup::new();
        group.spawn(|| {});
        group.wait();
        let past = Instant::now() - Duration::from_secs(1);
        assert_eq!(group.wait_until(past), Ok(()));
    }

    #[test]
    fn is_ready_transitions() {
        let (promise, fut) = future_pair::<u8>();
        assert!(!fut.is_ready());
        promise.set(1);
        assert!(fut.is_ready());
        assert_eq!(fut.get(), 1);
    }

    #[test]
    fn empty_group_wait_skips_wait_site_and_watchdog() {
        // A watched team's progress counter bumps on every wait-site
        // entry/exit: joining an empty group must leave it untouched
        // (no registration, no watchdog consult) on all three wait
        // surfaces.
        let group = TaskGroup::new();
        let shared = Arc::new(crate::ctx::TeamShared::with_robustness(1, 1, false, true));
        let _g = crate::ctx::CtxGuard::enter(Arc::clone(&shared), 0);
        let p0 = shared.progress();
        group.wait();
        assert_eq!(group.wait_timeout(Duration::from_millis(5)), Ok(()));
        let past = Instant::now() - Duration::from_secs(1);
        assert_eq!(group.wait_until(past), Ok(()));
        assert_eq!(
            shared.progress(),
            p0,
            "empty join must not register a wait site"
        );
        assert!(shared.blocked_snapshot().is_empty());
    }

    /// A runtime whose executor books one idle worker with no thread
    /// behind it: a producer submitted to it stays queued until its
    /// getter withdraws it.
    fn workerless_runtime() -> Runtime {
        let rt = Runtime::builder().build();
        rt.executor().fake_idle_worker();
        rt
    }

    /// `TaskRunByGetter`, after checking that every spawn has exactly one
    /// dispatch outcome: a withdrawn producer counts as a pooled task.
    fn run_by_getter(rt: &Runtime) -> u64 {
        let m = rt.metrics_snapshot();
        assert_eq!(
            m.counter(Counter::TaskSpawned),
            m.counter(Counter::TaskPooled)
                + m.counter(Counter::TaskDedicated)
                + m.counter(Counter::TaskInline)
        );
        let n = m.counter(Counter::TaskRunByGetter);
        assert!(n <= m.counter(Counter::TaskPooled));
        n
    }

    #[test]
    fn getter_runs_its_queued_producer() {
        let rt = workerless_runtime();
        let fut = rt.spawn_future(|| 6 * 7);
        assert_eq!(rt.executor().books().0, 1, "queued, and no worker");
        assert_eq!(fut.get(), 42);
        assert_eq!(rt.executor().books().0, 0);
        assert_eq!(run_by_getter(&rt), 1);
    }

    #[test]
    fn member_getter_runs_its_producer_outside_the_team() {
        let rt = workerless_runtime();
        let _member = CtxGuard::enter(Arc::new(TeamShared::new(2, 1)), 1);
        let member = || (ctx::thread_id(), ctx::team_size(), ctx::level());
        let seen = Arc::new(Mutex::new(None));
        let (seen2, rt2) = (Arc::clone(&seen), rt.clone());
        let fut = rt.spawn_future(move || {
            *seen2.lock() = Some((
                ctx::level(),
                ctx::in_parallel(),
                crate::runtime::current() == rt2,
            ));
            5
        });
        assert_eq!(fut.get(), 5);
        assert_eq!(*seen.lock(), Some((0, false, true)), "as on a worker");
        assert_eq!(member(), (1, 2, 1));
        let fut = rt.spawn_future(|| -> u32 { panic!("producer dies on its getter") });
        let e = fut.try_get().expect_err("the producer panicked");
        assert_eq!(e.payload_msg, "producer dies on its getter");
        assert_eq!(member(), (1, 2, 1));
        assert_eq!(run_by_getter(&rt), 2);
    }

    /// `n` `spawn_future(..).get()` round trips on `rt`, split across two
    /// threads; each checks that its producer ran exactly once.
    fn round_trips(rt: &Runtime, n: usize) {
        let clients: Vec<_> = (0..2)
            .map(|_| {
                let rt = rt.clone();
                std::thread::spawn(move || {
                    for i in 0..n / 2 {
                        let runs = Arc::new(AtomicUsize::new(0));
                        let r = Arc::clone(&runs);
                        let got = rt
                            .spawn_future(move || {
                                r.fetch_add(1, Ordering::Relaxed);
                                i
                            })
                            .get();
                        assert_eq!((got, runs.load(Ordering::Relaxed)), (i, 1));
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().expect("a client's round trips");
        }
    }

    #[test]
    fn many_getters_run_every_producer_once_and_leave_the_books_clean() {
        // Two booked idle workers and no worker thread: every producer
        // waits for its getter, and each of the two clients always finds
        // a spare worker to claim, so the pool cannot grow.
        let rt = workerless_runtime();
        rt.executor().fake_idle_worker();
        let (.., workers) = rt.executor().books();
        round_trips(&rt, 10_000);
        let (pending, .., live) = rt.executor().books();
        assert_eq!(pending, 0);
        assert_eq!(live, workers, "the pool grew");
        assert_eq!(run_by_getter(&rt), 10_000);
        // The promises of withdrawn producers lapse at the next
        // submission, which holds the only one left.
        let last = rt.spawn_future(|| 0);
        let (pending, _, claims, _) = rt.executor().books();
        assert_eq!((pending, claims), (1, 1));
        assert_eq!(last.get(), 0);
    }

    #[test]
    fn getters_and_workers_race_for_producers_and_each_runs_once() {
        // Real workers pop what their getters have not withdrawn yet.
        let rt = Runtime::builder().build();
        round_trips(&rt, 10_000);
        assert_eq!(rt.executor().books().0, 0);
        run_by_getter(&rt);
    }

    #[test]
    fn detached_spawn_runs() {
        let flag = Arc::new(AtomicU64::new(0));
        let f2 = Arc::clone(&flag);
        spawn(move || {
            f2.store(7, Ordering::SeqCst);
        });
        while flag.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        assert_eq!(flag.load(Ordering::SeqCst), 7);
    }
}
