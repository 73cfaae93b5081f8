//! The task executor — parked workers behind `task::spawn`,
//! `task::spawn_future` and `TaskGroup::spawn`.
//!
//! The paper's `@Task` model is "spawn a new parallel activity"; v1.0
//! (and this runtime before hot teams) took that literally with one OS
//! thread per task. This module replaces thread-per-task with a pool of
//! workers behind one FIFO queue: a submission is pushed to the back and
//! a worker pops the front. The queue has its own lock, not the one
//! admission control counts workers under, so a worker's pop never
//! takes the admission lock.
//!
//! Each [`Runtime`](crate::runtime::Runtime) owns one `Executor`
//! instance (the process-wide singleton of earlier versions is now just
//! the default runtime's executor), so two runtimes never share workers
//! and dropping a runtime can actually join its threads: workers hold
//! their own `Arc<Executor>` (not a `&'static`), honour the `shutdown`
//! flag after draining the queue, and [`Executor::shutdown_and_join`]
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
//! worker but deliberately does NOT pop-and-run *other* queued tasks
//! while blocked ("help joining"): running an unrelated queued task
//! inline on the waiter's stack deadlocks when that task transitively
//! waits on a future whose producer is suspended *below it on the same
//! stack* — the buried frame can only resume after the helper's frame
//! returns, and the helper waits on the buried frame. Liveness without
//! helping holds because a queued task always has a claimed idle worker
//! to pop it, and tasks refused by admission control run on dedicated
//! threads.
//!
//! ## A getter runs its own producer
//!
//! The one task a waiter may take off the queue is the producer of the
//! very future it waits for: every submission hands back a ticket, and
//! `FutureTask`'s getter [`withdraw`](Executor::withdraw)s its producer
//! by that ticket while no worker has popped it, then runs it itself.
//! This cannot deadlock. The getter would block until that producer
//! finishes anyway, so running it first only moves the work. Each frame
//! on the getter's stack waits for the frame above it to return; a
//! producer that waits on something buried below it therefore waits on
//! its own consumer, and that wait was already a cycle when the producer
//! ran on another thread. A withdrawn task leaves nothing behind:
//! `pending` drops with it, the idle worker it was promised to stays in
//! its wait (it polls `pending`, now back to where it was), and the
//! stale promise lapses at the next submission like one whose task a
//! busy worker popped.
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
//! Every task is offered to the executor. A runtime built with a small
//! [`task_workers`](crate::runtime::RuntimeBuilder::task_workers) cap
//! sends the overflow down [`fallback_dispatch`]'s dedicated threads.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::obs::{self, Counter};
use crate::wait::{self, Site};

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

/// Submitted tasks, oldest first, each under the ticket its submission
/// handed back. Tickets grow with every push, so the queue is sorted by
/// them.
#[derive(Default)]
struct Queue {
    tasks: VecDeque<(u64, Task)>,
    next_ticket: u64,
}

impl Queue {
    fn push(&mut self, task: Task) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.tasks.push_back((ticket, task));
        ticket
    }
}

pub(crate) struct Executor {
    queue: Mutex<Queue>,
    inner: Mutex<Ctl>,
    cv: Condvar,
    /// Tasks enqueued but not yet popped — with `shutdown`, all an idle
    /// worker polls. Incremented under `inner` (so the park-side recheck
    /// is loss-free), decremented lock-free on pop.
    pending: AtomicUsize,
    /// The idle wait's history, shared by the workers.
    idle: Site,
    max_workers: usize,
    /// Set once by [`shutdown_and_join`](Executor::shutdown_and_join);
    /// workers observe it after draining the queue.
    shutdown: AtomicBool,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// The owning runtime's counter scope; worker-side events (parks)
    /// are attributed here as well as globally.
    scope: Arc<obs::Scope>,
}

impl Executor {
    pub(crate) fn new(max_workers: usize, scope: Arc<obs::Scope>) -> Arc<Executor> {
        Arc::new(Executor {
            queue: Mutex::new(Queue::default()),
            inner: Mutex::new(Ctl {
                idle: 0,
                claims: 0,
                live: 0,
            }),
            cv: Condvar::new(),
            pending: AtomicUsize::new(0),
            idle: Site::default(),
            max_workers: max_workers.max(1),
            shutdown: AtomicBool::new(false),
            handles: Mutex::new(Vec::new()),
            scope,
        })
    }

    /// Try to run `task` on the pool. `Ok` carries the ticket that
    /// [`withdraw`](Self::withdraw)s the task while it is still queued.
    /// `Err` hands the task back when the pool is saturated (no idle
    /// worker to claim and no room to grow), shutting down, or a needed
    /// worker could not be spawned — the caller decides the fallback.
    pub(crate) fn try_submit(self: &Arc<Self>, task: Task) -> Result<u64, Task> {
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
            let ticket = self.queue.lock().push(task);
            self.pending.fetch_add(1, Ordering::Relaxed);
            drop(g);
            self.cv.notify_one();
            self.scope.record(Counter::TaskPooled);
            return Ok(ticket);
        }
        if g.live < self.max_workers {
            let id = g.live;
            g.live += 1;
            drop(g);
            let ex = Arc::clone(self);
            let spawned = std::thread::Builder::new()
                .name(format!("aomp-exec-{id}"))
                .spawn(move || worker_loop(ex));
            match spawned {
                Ok(h) => {
                    self.handles.lock().push(h);
                    let ticket = self.queue.lock().push(task);
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
                    Ok(ticket)
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

    /// Pop the oldest queued task.
    fn pop(&self) -> Option<Task> {
        let (_, t) = self.queue.lock().tasks.pop_front()?;
        self.pending.fetch_sub(1, Ordering::Relaxed);
        Some(t)
    }

    /// Take the task submitted under `ticket` back out of the queue, for
    /// the caller to run: `None` once a worker has popped it. Only a
    /// future's getter calls this, for its own producer (see the module
    /// doc); the withdrawal counts in the runtime's scope.
    pub(crate) fn withdraw(&self, ticket: u64) -> Option<Task> {
        let mut q = self.queue.lock();
        let at = q.tasks.binary_search_by_key(&ticket, |e| e.0).ok()?;
        let (_, t) = q.tasks.remove(at)?;
        drop(q);
        self.pending.fetch_sub(1, Ordering::Relaxed);
        self.scope.record(Counter::TaskRunByGetter);
        Some(t)
    }
}

#[cfg(test)]
impl Executor {
    /// `(pending, idle, claims, live)` right now.
    pub(crate) fn books(&self) -> (usize, usize, usize, usize) {
        let g = self.inner.lock();
        (
            self.pending.load(Ordering::Relaxed),
            g.idle,
            g.claims,
            g.live,
        )
    }

    /// Book one started worker in its idle wait with no thread behind
    /// it: the next submission claims it and queues its task, which then
    /// runs only if its getter withdraws it.
    pub(crate) fn fake_idle_worker(&self) {
        let mut g = self.inner.lock();
        g.idle += 1;
        g.live += 1;
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
fn worker_loop(ex: Arc<Executor>) {
    // Checked under `inner`, where the flag is flipped and `pending`
    // incremented, so a park cannot miss either.
    let wanted = || ex.pending.load(Ordering::Relaxed) > 0 || ex.shutdown.load(Ordering::Acquire);
    loop {
        while let Some(t) = ex.pop() {
            run_task(t);
        }
        {
            let mut g = ex.inner.lock();
            // Queue drained and shutdown requested: exit.
            if ex.shutdown.load(Ordering::Acquire) {
                return;
            }
            // A task enqueued since the last pop.
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

/// Run a task the executor refused: a dedicated thread named `name` —
/// the classic thread-per-task path — else, when even that spawn fails,
/// inline on the caller. Inline degradation is the sequential semantics
/// the paper guarantees for unplugged annotations, and strictly better
/// than the panic it replaces: the task still runs, completion counters
/// still reach zero, futures still get their value. The outcome is
/// recorded in `scope`, the dispatching runtime's.
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
        Executor::new(max, Arc::new(obs::Scope::default()))
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
        assert_eq!(ex.scope.snapshot().counter(Counter::TaskPooled), 1000);
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
    fn withdraw_takes_back_only_a_queued_task() {
        // Deterministic: two booked idle workers, no worker thread.
        let ex = test_exec(2);
        ex.fake_idle_worker();
        ex.fake_idle_worker();
        let ran = Arc::new(AtomicUsize::new(0));
        let task = |bit: usize| -> Task {
            let ran = Arc::clone(&ran);
            Box::new(move || {
                ran.fetch_or(bit, Ordering::SeqCst);
            })
        };
        let first = ex.try_submit(task(1)).ok().expect("claims an idle worker");
        let second = ex.try_submit(task(2)).ok().expect("claims the other");
        assert_eq!(ex.books(), (2, 2, 2, 2));
        ex.withdraw(second).expect("still queued")();
        assert!(ex.withdraw(second).is_none(), "withdrawn once");
        assert_eq!(ex.pending.load(Ordering::Relaxed), 1);
        // A worker pops the first task: its getter finds nothing to take.
        ex.pop().expect("the first task")();
        assert!(ex.withdraw(first).is_none(), "popped by a worker");
        assert_eq!(ran.load(Ordering::SeqCst), 3);
        // Both promises lapse at the next submission: it claims a worker
        // rather than growing the pool.
        let third = ex.try_submit(task(4)).ok().expect("claims an idle worker");
        assert_eq!(ex.books(), (1, 2, 1, 2));
        assert!(ex.withdraw(third).is_some());
        let books = ex.scope.snapshot();
        assert_eq!(books.counter(Counter::TaskPooled), 3);
        assert_eq!(books.counter(Counter::TaskRunByGetter), 2);
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
