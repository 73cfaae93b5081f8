//! The task executor — parked workers behind `task::spawn`,
//! `task::spawn_future` and `TaskGroup::spawn`.
//!
//! The paper's `@Task` model is "spawn a new parallel activity"; v1.0
//! (and this runtime before hot teams) took that literally with one OS
//! thread per task. This module replaces thread-per-task with a pool of
//! workers, each owning a deque: submissions are distributed
//! round-robin, a worker pops its own queue from the front and steals
//! from the back of the others, so a burst of fine-grained tasks spreads
//! over the pool without a single contended queue.
//!
//! Stealing is *locality-aware steal-half*: an idle worker scans victims
//! same-socket first ([`schedule::steal_order`], driven by
//! `AOMP_SOCKETS`), and when it finds a non-empty deque it adopts the
//! whole back half — one lock acquisition amortised over half the
//! victim's backlog, and the adopted tasks then drain from the thief's
//! own queue instead of hammering the victim's lock once per task.
//!
//! Each [`Runtime`](crate::runtime::Runtime) owns one `Executor`
//! instance (the process-wide singleton of earlier versions is now just
//! the default runtime's executor), so two runtimes never share workers
//! and dropping a runtime can actually join its threads: workers hold
//! their own `Arc<Executor>` (not a `&'static`), honour the `shutdown`
//! flag after draining the queues, and [`Executor::shutdown_and_join`]
//! blocks until every worker thread has exited. A worker stuck in a
//! task that blocks forever delays that join — the same contract as
//! dropping a `TaskGroup` that never completes.
//!
//! ## Admission control, not queueing
//!
//! Tasks may block arbitrarily long in user code (a `FutureTask` producer
//! waiting on another future, a task sleeping on an external event), so
//! unbounded queueing behind a fixed worker count could deadlock a
//! program that was correct under thread-per-task. [`Executor::try_submit`]
//! therefore only *enqueues* when an idle worker is available to claim
//! the task or the pool may still grow; otherwise it hands the task back
//! and the caller falls back to a dedicated thread — and, if even that
//! spawn fails (thread exhaustion), to inline execution on the caller
//! (sequential semantics, see [`fallback_dispatch`]).
//!
//! A worker blocked in `FutureTask::get` / `TaskGroup::wait` pins its
//! worker but deliberately does NOT steal-and-run queued tasks while
//! blocked ("help joining"): running a stolen task inline on the
//! waiter's stack deadlocks when the stolen task transitively waits on a
//! future whose producer is suspended *below it on the same stack* — the
//! buried frame can only resume after the thief's frame returns, and the
//! thief waits on the buried frame. Liveness without helping holds
//! because a queued task always has a claimed idle worker to pop it, and
//! tasks refused by admission control run on dedicated threads.
//!
//! ## The idle wait
//!
//! A worker with nothing to pop waits through the one
//! [`wait`](crate::wait): it polls `pending` and `shutdown` for the spin
//! budget — a `spawn` → `wait` round trip ends well inside it, and a
//! parked worker costs tens of microseconds to wake — then parks, with
//! no timeout: `pending` is only incremented, and `shutdown` only set,
//! under the lock the park re-checks them under, so there is no wake-up
//! to lose and an idle executor costs nothing. The worker counts in
//! `Ctl::idle` from before its first probe until it leaves the wait, so
//! admission control sees a polling worker exactly as it sees a parked
//! one. Like every site the workers share one history bit: after a wait
//! that outlasted the budget the next one parks at once.
//!
//! Disabled together with the hot-team cache (`AOMP_NO_POOL=1` /
//! [`RuntimeBuilder::pooled(false)`](crate::runtime::RuntimeBuilder::pooled)):
//! every task then gets a dedicated thread, as before. The pool-enabled
//! gate lives on the runtime, not here — the runtime decides whether to
//! offer the task to its executor at all.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::obs::{self, Counter};
use crate::schedule;
use crate::wait::{self, Site};

/// Environment variable capping the *default runtime's* worker count.
/// Captured once when the default runtime is constructed
/// (see `runtime::default_runtime`); explicitly built runtimes ignore it.
pub const TASK_WORKERS_ENV: &str = "AOMP_TASK_WORKERS";

/// A queued task: the spawn surfaces wrap panic capture / completion
/// signalling into the closure, so the executor itself only runs it.
pub(crate) type Task = Box<dyn FnOnce() + Send + 'static>;

/// Worker-count fallback when no cap is configured: enough oversubscription
/// to absorb blocked tasks, bounded so a task storm cannot exhaust the
/// process thread limit.
pub(crate) fn default_max_workers() -> usize {
    let par = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (par * 4).clamp(8, 64)
}

struct Ctl {
    /// Workers inside their idle wait, polling or parked: a submission
    /// may claim either.
    idle: usize,
    /// Idle workers already promised to a submitted task but not yet out
    /// of their wait. `idle - claims` is the spare capacity admission
    /// control checks; claiming under the same lock closes the race
    /// where two submitters count one idle worker twice.
    claims: usize,
    /// Workers ever started (also the next worker id). They exit only at
    /// executor shutdown.
    live: usize,
}

pub(crate) struct Executor {
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Per-worker victim scan order: same-socket peers first in ring
    /// order, then remote sockets (see [`schedule::steal_order`]).
    steal_order: Vec<Vec<usize>>,
    inner: Mutex<Ctl>,
    cv: Condvar,
    /// Tasks enqueued but not yet popped — with `shutdown`, all an idle
    /// worker polls. Incremented under `inner` (so the park-side recheck
    /// is loss-free), decremented lock-free on pop.
    pending: AtomicUsize,
    /// The idle wait's history, shared by the workers.
    idle: Site,
    /// Round-robin enqueue cursor.
    next: AtomicUsize,
    max_workers: usize,
    /// Set once by [`shutdown_and_join`](Executor::shutdown_and_join);
    /// workers observe it after draining the queues.
    shutdown: AtomicBool,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// The owning runtime's counter scope; worker-side events (steals,
    /// parks) are attributed here as well as globally.
    scope: Arc<obs::Scope>,
}

impl Executor {
    pub(crate) fn new(max_workers: usize, scope: Arc<obs::Scope>) -> Arc<Executor> {
        let max = max_workers.max(1);
        let sockets = schedule::configured_sockets();
        Arc::new(Executor {
            queues: (0..max).map(|_| Mutex::new(VecDeque::new())).collect(),
            steal_order: (0..max)
                .map(|i| schedule::steal_order(i, max, sockets))
                .collect(),
            inner: Mutex::new(Ctl {
                idle: 0,
                claims: 0,
                live: 0,
            }),
            cv: Condvar::new(),
            pending: AtomicUsize::new(0),
            idle: Site::default(),
            next: AtomicUsize::new(0),
            max_workers: max,
            shutdown: AtomicBool::new(false),
            handles: Mutex::new(Vec::new()),
            scope,
        })
    }

    /// Try to run `task` on the pool. `Err` hands the task back when the
    /// pool is saturated (no idle worker to claim and no room to
    /// grow), shutting down, or a needed worker could not be spawned —
    /// the caller decides the fallback.
    pub(crate) fn try_submit(self: &Arc<Self>, task: Task) -> Result<(), Task> {
        if self.shutdown.load(Ordering::Acquire) {
            self.scope.record(Counter::TaskRefusedSaturated);
            return Err(task);
        }
        let mut g = self.inner.lock();
        // A promise lasts while its task is queued: once a busy worker
        // has popped that task, the idle worker it was promised to stays
        // in its wait, spare again.
        g.claims = g.claims.min(self.pending.load(Ordering::Relaxed));
        if g.idle > g.claims {
            g.claims += 1;
            self.enqueue(task);
            self.pending.fetch_add(1, Ordering::Relaxed);
            drop(g);
            self.cv.notify_one();
            self.scope.record(Counter::TaskPooled);
            return Ok(());
        }
        if g.live < self.max_workers {
            let id = g.live;
            g.live += 1;
            drop(g);
            let ex = Arc::clone(self);
            let spawned = std::thread::Builder::new()
                .name(format!("aomp-exec-{id}"))
                .spawn(move || worker_loop(ex, id));
            match spawned {
                Ok(h) => {
                    self.handles.lock().push(h);
                    self.enqueue(task);
                    let mut g = self.inner.lock();
                    self.pending.fetch_add(1, Ordering::Relaxed);
                    // A worker that went idle during the spawn is whom
                    // the notify below wakes for this task: promised, so
                    // the next submission does not count it as spare.
                    if g.idle > g.claims {
                        g.claims += 1;
                    }
                    drop(g);
                    self.cv.notify_one();
                    self.scope.record(Counter::TaskPooled);
                    Ok(())
                }
                Err(_) => {
                    self.inner.lock().live -= 1;
                    self.scope.record(Counter::TaskRefusedSaturated);
                    Err(task)
                }
            }
        } else {
            drop(g);
            self.scope.record(Counter::TaskRefusedSaturated);
            Err(task)
        }
    }

    /// Stop accepting work, wake every parked worker, and join them all.
    /// Workers drain already-enqueued tasks before exiting; a task
    /// blocked in user code delays the join for as long as it blocks.
    /// Called from `Runtime` teardown (at most once matters; idempotent).
    pub(crate) fn shutdown_and_join(&self) {
        {
            // Flip under `inner` so a worker deciding to park either sees
            // the flag before sleeping or is woken by the notify below —
            // no lost-shutdown window.
            let _g = self.inner.lock();
            self.shutdown.store(true, Ordering::Release);
        }
        self.cv.notify_all();
        let handles: Vec<_> = std::mem::take(&mut *self.handles.lock());
        let me = std::thread::current().id();
        for h in handles {
            // Teardown can run *on* a worker (a task's entered-runtime
            // guard dropping the last handle): never self-join — the
            // dropped handle detaches and the worker exits on its own
            // (it holds its own `Arc<Executor>`, so nothing dangles).
            if h.thread().id() == me {
                continue;
            }
            let _ = h.join();
        }
    }

    fn enqueue(&self, task: Task) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        self.queues[i].lock().push_back(task);
    }

    /// Pop a task: the worker's own queue from the front; when that is
    /// empty, steal the back half of the nearest non-empty victim's
    /// deque (near victims first), run the newest stolen task and adopt
    /// the rest into the own queue. Adopted tasks stay enqueued —
    /// `pending` drops only for the task actually returned.
    fn pop_any(&self, own: usize) -> Option<Task> {
        if let Some(t) = self.queues[own].lock().pop_front() {
            self.pending.fetch_sub(1, Ordering::Relaxed);
            return Some(t);
        }
        for &v in &self.steal_order[own] {
            // Cut the batch under the victim's lock alone, then append
            // under the own lock alone: never two queue locks at once.
            let mut batch = {
                let mut q = self.queues[v].lock();
                let len = q.len();
                if len == 0 {
                    continue;
                }
                q.split_off(len - len.div_ceil(2))
            };
            let t = batch.pop_back().expect("stolen batch is non-empty");
            self.pending.fetch_sub(1, Ordering::Relaxed);
            if !batch.is_empty() {
                self.queues[own].lock().append(&mut batch);
            }
            self.scope.record(Counter::TaskStolen);
            return Some(t);
        }
        None
    }
}

fn run_task(task: Task) {
    // A panicking task must not kill its worker. The spawn surfaces that
    // report panics (futures, groups) catch inside the closure and this
    // payload is already-handled or a detached `spawn`'s (whose contract
    // is the thread-per-task one: the panic is printed by the hook and
    // otherwise lost).
    let _ = catch_unwind(AssertUnwindSafe(task));
}

/// Owns its `Arc` (not `&'static`) so the executor — and with it the
/// runtime that owns it — is droppable once every worker has exited.
fn worker_loop(ex: Arc<Executor>, id: usize) {
    // Checked under `inner`, where the flag is flipped and `pending`
    // incremented, so a park cannot miss either.
    let wanted = || ex.pending.load(Ordering::Relaxed) > 0 || ex.shutdown.load(Ordering::Acquire);
    loop {
        while let Some(t) = ex.pop_any(id) {
            run_task(t);
        }
        {
            let mut g = ex.inner.lock();
            // Queues drained and shutdown requested: exit.
            if ex.shutdown.load(Ordering::Acquire) {
                return;
            }
            // A task enqueued since the scan above.
            if wanted() {
                continue;
            }
            // Idle from here — before the first probe, not the park — so
            // a submission claims a worker that is one probe away from
            // its task instead of growing the pool.
            g.idle += 1;
        }
        ex.scope.record(Counter::ExecParks);
        wait::wait_until(
            Some(&ex.idle),
            (&ex.inner, &ex.cv),
            wanted,
            |g| {
                wanted().then(|| {
                    g.idle -= 1;
                    g.claims = g.claims.saturating_sub(1);
                })
            },
            None,
            || false,
        );
        ex.scope.record(Counter::ExecUnparks);
    }
}

/// Run a task the executor refused (or was never offered, pool
/// disabled): a dedicated thread named `name` — the classic
/// thread-per-task path — else, when even that spawn fails, inline on
/// the caller. Inline degradation is the sequential semantics the paper
/// guarantees for unplugged annotations, and strictly better than the
/// panic it replaces: the task still runs, completion counters still
/// reach zero, futures still get their value. The outcome is recorded in
/// `scope`, the dispatching runtime's.
pub(crate) fn fallback_dispatch(name: &'static str, task: Task, scope: &obs::Scope) {
    // `Builder::spawn` consumes the closure even on error, so park the
    // task in a shared slot the caller can reclaim if the spawn fails.
    let slot = Arc::new(Mutex::new(Some(task)));
    let runner = Arc::clone(&slot);
    let spawned = std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            let t = runner.lock().take();
            if let Some(t) = t {
                t();
            }
        });
    match spawned {
        Ok(_) => scope.record(Counter::TaskDedicated),
        Err(_) => {
            let t = slot.lock().take();
            if let Some(t) = t {
                scope.record(Counter::TaskInline);
                t();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    fn test_exec(max: usize) -> Arc<Executor> {
        Executor::new(max, Arc::new(obs::Scope::new(true)))
    }

    fn submit_or_fallback(ex: &Arc<Executor>, task: Task) {
        if let Err(t) = ex.try_submit(task) {
            fallback_dispatch("aomp-task", t, &ex.scope);
        }
    }

    #[test]
    fn submitted_tasks_all_run() {
        let ex = test_exec(4);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let done = Arc::clone(&done);
            submit_or_fallback(
                &ex,
                Box::new(move || {
                    done.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        let t0 = std::time::Instant::now();
        while done.load(Ordering::SeqCst) < 64 {
            assert!(t0.elapsed() < Duration::from_secs(30), "tasks stuck");
            std::thread::yield_now();
        }
    }

    #[test]
    fn panicking_task_does_not_kill_worker() {
        let ex = test_exec(2);
        let done = Arc::new(AtomicUsize::new(0));
        submit_or_fallback(&ex, Box::new(|| panic!("task dies")));
        for _ in 0..8 {
            let done = Arc::clone(&done);
            submit_or_fallback(
                &ex,
                Box::new(move || {
                    done.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        let t0 = std::time::Instant::now();
        while done.load(Ordering::SeqCst) < 8 {
            assert!(t0.elapsed() < Duration::from_secs(30), "pool wedged");
            std::thread::yield_now();
        }
    }

    #[test]
    fn every_admitted_task_gets_a_worker() {
        // A worker that goes idle while the submitter is inside a thread
        // spawn is woken for that submission's task; the next submission
        // must not count it as spare capacity as well, or its task sits
        // queued with every worker busy. Here a quick first task frees
        // its worker in the middle of a burst of blocking tasks, each of
        // which must start while the others still block.
        const N: usize = 8;
        for round in 0..1000 {
            let ex = test_exec(N + 1);
            ex.try_submit(Box::new(|| {}))
                .ok()
                .expect("the first worker");
            let started = Arc::new(AtomicUsize::new(0));
            let all_started = Arc::new(AtomicUsize::new(0));
            for _ in 0..N {
                let (started, all_started) = (Arc::clone(&started), Arc::clone(&all_started));
                let admitted = ex.try_submit(Box::new(move || {
                    started.fetch_add(1, Ordering::SeqCst);
                    let t0 = std::time::Instant::now();
                    while t0.elapsed() < Duration::from_secs(2) {
                        if started.load(Ordering::SeqCst) == N {
                            all_started.fetch_add(1, Ordering::SeqCst);
                            return;
                        }
                        std::thread::sleep(Duration::from_micros(100));
                    }
                }));
                assert!(admitted.is_ok(), "the pool may still grow");
            }
            ex.shutdown_and_join();
            assert_eq!(
                all_started.load(Ordering::SeqCst),
                N,
                "round {round}: a task waited for a busy worker"
            );
        }
    }

    #[test]
    fn worker_in_its_idle_wait_is_claimable() {
        // A worker counts as idle from before its first probe, so a task
        // resubmitted the moment it is back in its wait — polling, the
        // waits here being quick ones — claims it: the pool never grows
        // past that one worker and no submission is refused.
        let ex = test_exec(4);
        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..1000 {
            let d = Arc::clone(&done);
            let admitted = ex.try_submit(Box::new(move || {
                d.fetch_add(1, Ordering::SeqCst);
            }));
            assert!(admitted.is_ok(), "submission {i} refused");
            let t0 = std::time::Instant::now();
            while done.load(Ordering::SeqCst) <= i || ex.inner.lock().idle == 0 {
                assert!(t0.elapsed() < Duration::from_secs(30), "task {i} stuck");
                std::hint::spin_loop();
            }
            assert_eq!(ex.inner.lock().live, 1, "submission {i} grew the pool");
        }
        assert_eq!(ex.scope.counter(Counter::TaskPooled), 1000);
        ex.shutdown_and_join();
    }

    #[test]
    fn promise_is_void_once_its_task_was_popped() {
        // Deterministic: the state is set by hand, no worker thread runs.
        // An idle worker was promised a task that a busy worker popped
        // before the wake-up landed; it stays in its wait, and the next
        // submission must claim it again rather than grow the pool.
        let ex = test_exec(2);
        *ex.inner.lock() = Ctl {
            idle: 1,
            claims: 1,
            live: 1,
        };
        assert!(ex.try_submit(Box::new(|| {})).is_ok());
        let g = ex.inner.lock();
        assert_eq!((g.idle, g.claims, g.live), (1, 1, 1), "claimed, not grown");
        assert_eq!(ex.pending.load(Ordering::Relaxed), 1);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn idle_workers_burn_no_cpu() {
        // `utime + stime`, in clock ticks, of the thread behind a
        // `/proc/<pid>/task/<tid>` directory.
        fn busy_ticks(task: &std::path::Path) -> u64 {
            let stat = std::fs::read_to_string(task.join("stat")).expect("worker is alive");
            // Fields after the parenthesised comm: state is the 1st,
            // utime and stime the 12th and 13th.
            let rest = &stat[stat.rfind(')').expect("comm in parentheses") + 2..];
            let fields: Vec<&str> = rest.split(' ').collect();
            fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
        }
        const N: usize = 2;
        let ex = test_exec(N);
        // Each task holds its worker until all have started, so they run
        // on N different workers, and leaves that worker's task directory.
        let workers = Arc::new(Mutex::new(Vec::new()));
        let started = Arc::new(AtomicUsize::new(0));
        for _ in 0..N {
            let (workers, started) = (Arc::clone(&workers), Arc::clone(&started));
            let admitted = ex.try_submit(Box::new(move || {
                let me = std::fs::read_link("/proc/thread-self").expect("procfs");
                workers.lock().push(std::path::Path::new("/proc").join(me));
                started.fetch_add(1, Ordering::SeqCst);
                while started.load(Ordering::SeqCst) < N {
                    std::thread::sleep(Duration::from_micros(100));
                }
            }));
            assert!(admitted.is_ok(), "the pool may still grow");
        }
        let t0 = std::time::Instant::now();
        while ex.inner.lock().idle < N {
            assert!(t0.elapsed() < Duration::from_secs(30), "workers stuck");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Past the spin budget: both are parked, with no tick to wake for.
        std::thread::sleep(Duration::from_millis(5));
        let workers = workers.lock().clone();
        assert_eq!(workers.len(), N);
        let before: Vec<u64> = workers.iter().map(|w| busy_ticks(w)).collect();
        std::thread::sleep(Duration::from_millis(50));
        let after: Vec<u64> = workers.iter().map(|w| busy_ticks(w)).collect();
        // USER_HZ is 100 on every Linux ABI: a tick is 10 ms.
        assert_eq!(after, before, "an idle worker ran");
        ex.shutdown_and_join();
    }

    #[test]
    fn steal_takes_half_and_keeps_victims_front() {
        // Deterministic: queues are manipulated directly, no worker
        // threads ever start (try_submit is never called).
        let ex = test_exec(4);
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..6 {
            let log = Arc::clone(&log);
            ex.queues[2]
                .lock()
                .push_back(Box::new(move || log.lock().push(i)) as Task);
            ex.pending.fetch_add(1, Ordering::Relaxed);
        }
        // Worker 0's own queue is empty: in (single-socket) ring order
        // 1, 2, 3 the first non-empty victim is queue 2. Of its 6
        // tasks the thief cuts the back half [3, 4, 5], runs the
        // newest and adopts the rest.
        let t = ex.pop_any(0).expect("steal must find the batch");
        t();
        assert_eq!(
            log.lock().as_slice(),
            &[5],
            "thief runs the newest stolen task"
        );
        assert_eq!(ex.queues[2].lock().len(), 3, "victim keeps its front half");
        assert_eq!(ex.queues[0].lock().len(), 2, "thief adopts the rest");
        assert_eq!(
            ex.pending.load(Ordering::Relaxed),
            5,
            "adopted tasks stay pending"
        );
        // The adopted tasks drain from the thief's own front, in order.
        ex.pop_any(0).unwrap()();
        ex.pop_any(0).unwrap()();
        assert_eq!(log.lock().as_slice(), &[5, 3, 4]);
        // Thief dry again: next steal comes from the victim's remainder.
        ex.pop_any(0).unwrap()();
        assert_eq!(log.lock().as_slice(), &[5, 3, 4, 2]);
    }

    #[test]
    fn own_queue_has_priority_over_stealing() {
        let ex = test_exec(2);
        let log = Arc::new(Mutex::new(Vec::new()));
        for (q, tag) in [(0usize, "own"), (1, "other")] {
            let log = Arc::clone(&log);
            ex.queues[q]
                .lock()
                .push_back(Box::new(move || log.lock().push(tag)) as Task);
            ex.pending.fetch_add(1, Ordering::Relaxed);
        }
        ex.pop_any(0).unwrap()();
        assert_eq!(log.lock().as_slice(), &["own"]);
    }

    #[test]
    fn steal_orders_are_rings_on_one_socket() {
        // AOMP_SOCKETS defaults to 1 in the test environment: every
        // worker's victim order is the plain ring after itself.
        let ex = test_exec(4);
        assert_eq!(ex.steal_order[0], vec![1, 2, 3]);
        assert_eq!(ex.steal_order[1], vec![2, 3, 0]);
        assert_eq!(ex.steal_order[3], vec![0, 1, 2]);
    }

    #[test]
    fn shutdown_refuses_submission_and_joins_workers() {
        let ex = test_exec(2);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let done = Arc::clone(&done);
            submit_or_fallback(
                &ex,
                Box::new(move || {
                    done.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        ex.shutdown_and_join();
        assert_eq!(ex.handles.lock().len(), 0, "all workers joined");
        let r = ex.try_submit(Box::new(|| {}));
        assert!(r.is_err(), "shut-down executor must hand the task back");
    }
}
