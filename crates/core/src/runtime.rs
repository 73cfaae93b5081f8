//! Runtime instances and the default-runtime configuration surface.
//!
//! Everything that used to be process-global — the default team size,
//! the parallel kill switch, the size-keyed hot-team cache and the task
//! executor — now lives on an instantiable [`Runtime`] handle. The free
//! functions in this module ([`default_threads`],
//! [`set_parallel_enabled`], …) are thin wrappers over a
//! lazily-initialised *default* runtime, so the OpenMP-style surface
//! the paper relies on (`OMP_NUM_THREADS` →
//! `AOMP_NUM_THREADS`, the process-wide kill switch for "programs can be
//! valid if annotations for parallelisation are ignored") is unchanged
//! for callers that never mention a runtime.
//!
//! ## Instances
//!
//! A [`Runtime`] is a cheap clonable `Arc`-backed handle. Two runtimes
//! share nothing: each owns its defaults, its hot-team cache and its
//! task-executor workers, and its own counter scope — so a per-tenant,
//! per-subsystem or per-test runtime is truly isolated from the rest of
//! the process. Regions and tasks resolve their runtime as:
//!
//! 1. [`RegionConfig::runtime`](crate::region::RegionConfig::runtime)
//!    (or `#[parallel(runtime = ..)]` / the weaver's
//!    `Mechanism::runtime(..)`), else
//! 2. the innermost *entered* runtime on the current thread — entered
//!    explicitly via the [`Runtime::enter`] guard, or implicitly by
//!    being a member of a region that resolved to that runtime (this is
//!    how nested regions and tasks inherit the enclosing runtime instead
//!    of falling back to the default one), else
//! 3. the default runtime.
//!
//! Dropping the last handle to a runtime tears it down: the hot-team
//! cache is closed (idle teams joined), the executor workers are woken,
//! drained and joined, and the stall-watchdog thread (if a region ever
//! armed a deadline) is joined. In-flight regions keep their runtime
//! alive through the master's frame, so teardown can only begin after
//! they return.
//!
//! ## Environment capture
//!
//! `AOMP_NUM_THREADS` is read exactly once, when the default runtime is
//! constructed, and seeds *only the default runtime*. [`Runtime::builder`]
//! ignores the environment entirely — an explicitly built runtime is
//! exactly what its builder says (a team size and a task-worker cap), no
//! matter what the process environment looks like.
//!
//! Pooling and the stall watchdog are chosen per region:
//! [`RegionConfig::pooled(false)`](crate::region::RegionConfig::pooled)
//! refuses the hot-team cache and
//! [`RegionConfig::stall_deadline`](crate::region::RegionConfig::stall_deadline)
//! arms the watchdog.
//!
//! The full `AOMP_*` environment surface (this module's variable plus
//! the observability opt-ins `AOMP_METRICS`/`AOMP_TRACE` handled by
//! [`obs`](crate::obs), the schedule override `AOMP_SCHEDULE`, and the
//! checker's `AOMP_CHECK_*`) is tabulated in the repository README.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use crate::error::RegionError;
use crate::executor::{self, Executor};
use crate::obs;
use crate::pool::{HotCache, HotLease};
use crate::region::RegionConfig;
use crate::watchdog::Watchdog;

/// Environment variable controlling the default runtime's team size.
/// Captured once at default-runtime construction; explicitly built
/// runtimes ignore it.
pub const NUM_THREADS_ENV: &str = "AOMP_NUM_THREADS";

struct RuntimeInner {
    /// `set_default_threads` override; 0 = unset (use `base_threads`).
    threads: AtomicUsize,
    /// Team-size default resolved at construction (builder value, or for
    /// the default runtime: env, else `available_parallelism`).
    base_threads: usize,
    parallel: AtomicBool,
    scope: Arc<obs::Scope>,
    cache: Arc<HotCache>,
    executor: Arc<Executor>,
    /// Registry of this runtime's watched regions; its thread starts
    /// with the first region that arms a stall deadline.
    watchdog: Arc<Watchdog>,
}

impl Drop for RuntimeInner {
    fn drop(&mut self) {
        // Last handle gone: bounded teardown. Close the cache first
        // (idle teams are parked, their join is prompt), then drain and
        // join the executor workers. A task blocked indefinitely in user
        // code delays this join — same contract as joining any pool.
        // The watchdog goes last: no region is in flight (each keeps a
        // handle), so its registry is empty and its thread parked.
        self.cache.close();
        self.executor.shutdown_and_join();
        self.watchdog.shutdown_and_join();
    }
}

/// An isolated runtime instance: team-size default, parallel kill
/// switch, hot-team cache, task executor, stall watchdog and a metrics
/// scope of its own.
///
/// Cheap to clone (an `Arc` handle); equality is identity. Most programs
/// never construct one — the free functions in this module and the
/// region/task entry points all use the lazily-initialised
/// [`default_runtime`]. Construct one with [`Runtime::builder`] when you
/// need isolation: a bounded sub-pool for one subsystem, hermetic tests,
/// or two differently-sized runtimes side by side.
///
/// ```
/// let rt = aomp::Runtime::builder().threads(2).build();
/// rt.parallel(|| {
///     // team of exactly 2, served by `rt`'s private hot-team cache
/// });
/// rt.parallel_with(aomp::region::RegionConfig::new().threads(2), || {});
/// drop(rt); // joins rt's pooled teams and executor workers
/// ```
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<RuntimeInner>,
}

impl PartialEq for Runtime {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Eq for Runtime {}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("threads", &self.default_threads())
            .field("parallel", &self.parallel_enabled())
            .finish()
    }
}

impl Runtime {
    /// Start building an explicit runtime. The builder ignores every
    /// `AOMP_*` environment variable — those seed the default runtime
    /// only.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// Enter this runtime on the current thread: until the returned
    /// guard drops, regions and tasks started from this thread (without
    /// an explicit [`RegionConfig::runtime`]) resolve to `self`. Guards
    /// nest; the innermost wins. The guard is `!Send` — it must drop on
    /// the thread that created it.
    pub fn enter(&self) -> RuntimeGuard {
        ENTERED.with(|s| s.borrow_mut().push(self.clone()));
        RuntimeGuard {
            _not_send: PhantomData,
        }
    }

    /// This runtime's default team size.
    pub fn default_threads(&self) -> usize {
        match self.inner.threads.load(Ordering::Relaxed) {
            0 => self.inner.base_threads,
            n => n,
        }
    }

    /// Override this runtime's default team size (like
    /// `omp_set_num_threads`). `n` must be at least 1.
    pub fn set_default_threads(&self, n: usize) {
        assert!(n >= 1, "default thread count must be >= 1");
        self.inner.threads.store(n, Ordering::Relaxed);
    }

    /// Whether parallel execution is enabled on this runtime.
    pub fn parallel_enabled(&self) -> bool {
        self.inner.parallel.load(Ordering::Relaxed)
    }

    /// Disable or re-enable parallel execution on this runtime. With
    /// parallelism disabled every region resolving to this runtime runs
    /// its body once on the calling thread.
    pub fn set_parallel_enabled(&self, enabled: bool) {
        self.inner.parallel.store(enabled, Ordering::Relaxed);
    }

    /// Execute `body` as a parallel region on this runtime (equivalent
    /// to [`region::parallel`](crate::region::parallel) with
    /// [`RegionConfig::runtime`] set).
    pub fn parallel<F>(&self, body: F)
    where
        F: Fn() + Sync,
    {
        crate::region::parallel_with(RegionConfig::new().runtime(self), body)
    }

    /// Execute a configured parallel region on this runtime; an explicit
    /// `cfg.runtime(..)` naming a different runtime wins over `self`.
    pub fn parallel_with<F>(&self, cfg: RegionConfig, body: F)
    where
        F: Fn() + Sync,
    {
        crate::region::parallel_with(self.apply_to(cfg), body)
    }

    /// Fallible region on this runtime; see
    /// [`region::try_parallel`](crate::region::try_parallel).
    pub fn try_parallel<F>(&self, body: F) -> Result<(), RegionError>
    where
        F: Fn() + Sync,
    {
        crate::region::try_parallel_with(RegionConfig::new().runtime(self), body)
    }

    /// Fallible configured region on this runtime; see
    /// [`region::try_parallel_with`](crate::region::try_parallel_with).
    pub fn try_parallel_with<F>(&self, cfg: RegionConfig, body: F) -> Result<(), RegionError>
    where
        F: Fn() + Sync,
    {
        crate::region::try_parallel_with(self.apply_to(cfg), body)
    }

    /// Spawn a detached task on this runtime's executor; see
    /// [`task::spawn`](crate::task::spawn).
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        crate::task::spawn_in(self, f)
    }

    /// Spawn a value-returning task on this runtime's executor; see
    /// [`task::spawn_future`](crate::task::spawn_future).
    pub fn spawn_future<T, F>(&self, f: F) -> crate::task::FutureTask<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        crate::task::spawn_future_in(self, f)
    }

    /// Point-in-time copy of this runtime's counter scope. Counters
    /// cover only activity attributed to this runtime; the latency
    /// histograms in the returned snapshot read zero (histograms are
    /// process-global, see [`obs::snapshot`](crate::obs::snapshot)).
    pub fn metrics_snapshot(&self) -> obs::Snapshot {
        self.inner.scope.snapshot()
    }

    /// Attribute one event to this runtime's counter scope (and, when
    /// metrics are armed, to the process-global registry). This is how
    /// layers above the core runtime — per-tenant admission control in
    /// `aomp-serve` — keep per-runtime accounting observably disjoint:
    /// each tenant bumps only its own runtime's scope, so one tenant's
    /// sheds and faults never move a neighbour's counters.
    pub fn record_counter(&self, c: obs::Counter) {
        self.inner.scope.record(c);
    }

    fn apply_to(&self, cfg: RegionConfig) -> RegionConfig {
        if cfg.has_runtime() {
            cfg
        } else {
            cfg.runtime(self)
        }
    }

    pub(crate) fn scope(&self) -> &Arc<obs::Scope> {
        &self.inner.scope
    }

    pub(crate) fn lease(&self, size: usize) -> Option<HotLease> {
        self.inner.cache.lease(size)
    }

    pub(crate) fn watchdog(&self) -> &Arc<Watchdog> {
        &self.inner.watchdog
    }

    pub(crate) fn downgrade(&self) -> WeakRuntime {
        WeakRuntime(Arc::downgrade(&self.inner))
    }

    /// Run `task` on this runtime: its executor when admission control
    /// accepts, else a dedicated thread, else inline (see
    /// [`executor::fallback_dispatch`]). A queued task's ticket comes
    /// back, for [`Executor::withdraw`]; `None` when it went elsewhere.
    pub(crate) fn dispatch_task(&self, name: &'static str, task: executor::Task) -> Option<u64> {
        self.inner.scope.record(obs::Counter::TaskSpawned);
        match self.inner.executor.try_submit(task) {
            Ok(ticket) => Some(ticket),
            Err(task) => {
                executor::fallback_dispatch(name, task, &self.inner.scope);
                None
            }
        }
    }

    pub(crate) fn executor(&self) -> &Arc<Executor> {
        &self.inner.executor
    }
}

/// Weak handle stored inside team state: a region's `TeamShared` must
/// not keep its runtime alive (abandoned detached stragglers would defer
/// teardown indefinitely, and the hot-team job slot would cycle), but
/// member threads need to find the runtime to inherit it for nested
/// regions and tasks.
#[derive(Clone, Default)]
pub(crate) struct WeakRuntime(Weak<RuntimeInner>);

impl WeakRuntime {
    pub(crate) fn upgrade(&self) -> Option<Runtime> {
        self.0.upgrade().map(|inner| Runtime { inner })
    }
}

/// Builder for an explicit [`Runtime`]: a team size and a task-worker
/// cap, each with a fixed default (documented per method); neither reads
/// the environment.
#[derive(Debug, Clone, Default)]
pub struct RuntimeBuilder {
    threads: Option<usize>,
    task_workers: Option<usize>,
}

impl RuntimeBuilder {
    /// Default team size (default: `available_parallelism`). Must be at
    /// least 1.
    pub fn threads(mut self, n: usize) -> Self {
        assert!(n >= 1, "default thread count must be >= 1");
        self.threads = Some(n);
        self
    }

    /// Cap the task-executor worker count (default: the
    /// `(available_parallelism × 4).clamp(8, 64)` the default runtime
    /// uses). Must be at least 1.
    pub fn task_workers(mut self, n: usize) -> Self {
        assert!(n >= 1, "task worker cap must be >= 1");
        self.task_workers = Some(n);
        self
    }

    /// Construct the runtime: resolves defaults, allocates the counter
    /// scope and the (initially empty) hot-team cache and executor.
    /// Workers are spawned lazily on first use, not here.
    pub fn build(self) -> Runtime {
        let base_threads = self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        let task_workers = self
            .task_workers
            .unwrap_or_else(executor::default_max_workers);
        let scope = Arc::new(obs::Scope::default());
        Runtime {
            inner: Arc::new(RuntimeInner {
                threads: AtomicUsize::new(0),
                base_threads,
                parallel: AtomicBool::new(true),
                cache: HotCache::new(Arc::clone(&scope)),
                executor: Executor::new(task_workers, Arc::clone(&scope)),
                watchdog: Watchdog::new(Arc::clone(&scope)),
                scope,
            }),
        }
    }
}

/// Scope guard returned by [`Runtime::enter`]; pops the entered runtime
/// when dropped. `!Send`: enter/exit must pair on one thread.
pub struct RuntimeGuard {
    _not_send: PhantomData<*const ()>,
}

impl Drop for RuntimeGuard {
    fn drop(&mut self) {
        ENTERED.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

thread_local! {
    /// Stack of entered runtimes on this thread: explicit `enter` guards
    /// interleaved with the implicit entries every region member pushes
    /// for its team's runtime (see `ctx::CtxGuard`). The top is "the
    /// enclosing runtime" for anything started from this thread.
    static ENTERED: RefCell<Vec<Runtime>> = const { RefCell::new(Vec::new()) };
}

pub(crate) fn push_entered(rt: Runtime) {
    ENTERED.with(|s| s.borrow_mut().push(rt));
}

pub(crate) fn pop_entered() {
    ENTERED.with(|s| {
        s.borrow_mut().pop();
    });
}

/// The runtime the current thread would use for an unconfigured region
/// or task: innermost entered runtime, else the default runtime.
pub(crate) fn current() -> Runtime {
    if let Some(rt) = ENTERED.with(|s| s.borrow().last().cloned()) {
        return rt;
    }
    default_runtime().clone()
}

// ---------------------------------------------------------------------
// The default runtime and its process-global wrapper surface
// ---------------------------------------------------------------------

/// The process's default runtime, constructed on first use. This is the
/// only constructor that reads the environment: `AOMP_NUM_THREADS` seeds
/// the team size, captured exactly once here. It is never dropped — its
/// workers live for the process.
pub fn default_runtime() -> &'static Runtime {
    static DEFAULT: OnceLock<Runtime> = OnceLock::new();
    DEFAULT.get_or_init(|| {
        RuntimeBuilder {
            threads: env_usize(NUM_THREADS_ENV),
            ..RuntimeBuilder::default()
        }
        .build()
    })
}

fn env_usize(var: &str) -> Option<usize> {
    let v = std::env::var(var).ok()?;
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// Default number of threads a parallel region uses when neither the
/// region configuration nor an aspect overrides it.
///
/// Reads the *default runtime*; resolution order there:
/// [`set_default_threads`] > `AOMP_NUM_THREADS` (captured at
/// default-runtime construction) > `std::thread::available_parallelism()`.
pub fn default_threads() -> usize {
    default_runtime().default_threads()
}

/// Override the default runtime's team size (like
/// `omp_set_num_threads`). `n` must be at least 1. Explicitly built
/// runtimes are unaffected.
pub fn set_default_threads(n: usize) {
    default_runtime().set_default_threads(n)
}

/// Disable or re-enable parallel execution on the default runtime.
///
/// With parallelism disabled every [`region::parallel`](crate::region::parallel)
/// runs its body once on the calling thread — the sequential semantics the
/// paper guarantees when aspects are unplugged. Useful for debugging and
/// for verifying that a parallelisation did not change program results.
/// Explicitly built runtimes have their own switch
/// ([`Runtime::set_parallel_enabled`]).
pub fn set_parallel_enabled(enabled: bool) {
    default_runtime().set_parallel_enabled(enabled)
}

/// Whether parallel execution is enabled on the default runtime
/// (default: `true`).
pub fn parallel_enabled() -> bool {
    default_runtime().parallel_enabled()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn set_default_threads_round_trips() {
        // Note: default-runtime state; restore afterwards.
        let before = default_threads();
        set_default_threads(3);
        assert_eq!(default_threads(), 3);
        set_default_threads(before.max(1));
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn zero_default_rejected() {
        set_default_threads(0);
    }

    #[test]
    fn parallel_enabled_toggle() {
        // A private runtime: the default one serves sibling tests.
        let rt = Runtime::builder().build();
        assert!(rt.parallel_enabled());
        rt.set_parallel_enabled(false);
        assert!(!rt.parallel_enabled());
        rt.set_parallel_enabled(true);
        assert!(rt.parallel_enabled());
    }

    #[test]
    fn enter_guard_nests_and_pops() {
        let a = Runtime::builder().threads(1).build();
        let b = Runtime::builder().threads(2).build();
        {
            let _ga = a.enter();
            assert_eq!(current(), a);
            {
                let _gb = b.enter();
                assert_eq!(current(), b);
            }
            assert_eq!(current(), a);
        }
        assert_eq!(&current(), default_runtime());
    }

    #[test]
    fn runtime_equality_is_identity() {
        let a = Runtime::builder().threads(1).build();
        let b = Runtime::builder().threads(1).build();
        assert_eq!(a, a.clone());
        assert_ne!(a, b);
    }
}
