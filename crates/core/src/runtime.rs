//! Runtime instances and the default-runtime configuration surface.
//!
//! Everything that used to be process-global — the default team size,
//! the parallel/pool kill switches, the default stall deadline, the
//! size-keyed hot-team cache and the task executor — now lives on an
//! instantiable [`Runtime`] handle. The free functions in
//! this module ([`default_threads`], [`set_parallel_enabled`], …) are
//! thin wrappers over a lazily-initialised *default* runtime, so the
//! OpenMP-style surface the paper relies on (`OMP_NUM_THREADS` →
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
//! `AOMP_NUM_THREADS` and `AOMP_NO_POOL` are read exactly once, when the
//! default runtime is constructed, and seed *only the default runtime*.
//! [`Runtime::builder`] ignores the environment entirely — an explicitly
//! built runtime is exactly what its builder says, no matter what the
//! process environment looks like.
//!
//! The full `AOMP_*` environment surface (this module's variables plus
//! the observability opt-ins `AOMP_METRICS`/`AOMP_TRACE` handled by
//! [`obs`](crate::obs), the schedule override `AOMP_SCHEDULE`, and the
//! checker's `AOMP_CHECK_*`) is tabulated in the repository README.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

use crate::error::RegionError;
use crate::executor::{self, Executor};
use crate::obs;
use crate::pool::{HotCache, HotLease, HotTeamStats};
use crate::region::RegionConfig;
use crate::watchdog::Watchdog;

/// Environment variable controlling the default runtime's team size.
/// Captured once at default-runtime construction; explicitly built
/// runtimes ignore it.
pub const NUM_THREADS_ENV: &str = "AOMP_NUM_THREADS";

/// Environment variable disabling the default runtime's hot-team cache
/// and task executor (`AOMP_NO_POOL=1`): every region builds a fresh team
/// and every task gets a dedicated thread. Captured once at
/// default-runtime construction; explicitly built runtimes ignore it
/// (they have [`RuntimeBuilder::pooled`]).
pub const NO_POOL_ENV: &str = "AOMP_NO_POOL";

struct RuntimeInner {
    /// `set_default_threads` override; 0 = unset (use `base_threads`).
    threads: AtomicUsize,
    /// Team-size default resolved at construction (builder value, or for
    /// the default runtime: env, else `available_parallelism`).
    base_threads: usize,
    parallel: AtomicBool,
    /// Fixed at construction: `AOMP_NO_POOL` / [`RuntimeBuilder::pooled`].
    pool: bool,
    /// Default stall deadline in nanoseconds; 0 = no watchdog.
    stall_nanos: AtomicU64,
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

/// An isolated runtime instance: defaults, kill switches, hot-team
/// cache, task executor, stall watchdog and a metrics scope of its own.
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
            .field("pool", &self.pool_enabled())
            .field("stall_deadline", &self.default_stall_deadline())
            .finish()
    }
}

impl Runtime {
    /// Start building an explicit runtime. The builder ignores every
    /// `AOMP_*` environment variable — those seed the default runtime
    /// only.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::new()
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

    /// Whether pooled execution (cached hot teams for regions, the
    /// executor for tasks) is enabled on this runtime. Fixed at
    /// construction; with pooling disabled every region builds a fresh
    /// team and every task runs on a dedicated thread — the fresh-team
    /// path the benchmark's `region.entry_spawned_ns` row times.
    pub fn pool_enabled(&self) -> bool {
        self.inner.pool
    }

    /// This runtime's default stall deadline, if one is armed.
    pub fn default_stall_deadline(&self) -> Option<Duration> {
        match self.inner.stall_nanos.load(Ordering::Relaxed) {
            0 => None,
            n => Some(Duration::from_nanos(n)),
        }
    }

    /// Arm (or with `None`, disarm) this runtime's default stall
    /// deadline; see [`set_default_stall_deadline`] for semantics and
    /// caveats.
    pub fn set_default_stall_deadline(&self, deadline: Option<Duration>) {
        let nanos = match deadline {
            None => 0,
            Some(d) => {
                assert!(!d.is_zero(), "stall deadline must be non-zero");
                u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
            }
        };
        self.inner.stall_nanos.store(nanos, Ordering::Relaxed);
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

    /// Per-runtime view of the hot-team counters (this runtime's share
    /// of the process-wide [`pool::hot_team_stats`](crate::pool::hot_team_stats)).
    /// All-zero when the runtime was built with `.metrics(false)`.
    pub fn hot_team_stats(&self) -> HotTeamStats {
        HotTeamStats::read(|c| self.inner.scope.counter(c))
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
    /// sheds and faults never move a neighbour's counters. No-op on a
    /// runtime built with `.metrics(false)` (scope side; the global
    /// registry still ticks when `AOMP_METRICS` is on).
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

    /// Run `task` on this runtime: its executor when pooling is enabled
    /// and admission control accepts, else a dedicated thread, else
    /// inline (see [`executor::fallback_dispatch`]).
    pub(crate) fn dispatch_task(&self, name: &'static str, task: executor::Task) {
        self.inner.scope.record(obs::Counter::TaskSpawned);
        let task = if self.pool_enabled() {
            match self.inner.executor.try_submit(task) {
                Ok(()) => return,
                Err(t) => t,
            }
        } else {
            self.inner.scope.record(obs::Counter::TaskRefusedDisabled);
            task
        };
        executor::fallback_dispatch(name, task, &self.inner.scope);
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

/// Builder for an explicit [`Runtime`]. Every knob has a fixed default
/// (documented per method); none of them read the environment.
#[derive(Debug, Clone)]
pub struct RuntimeBuilder {
    threads: Option<usize>,
    parallel: bool,
    pooled: bool,
    task_workers: Option<usize>,
    stall_deadline: Option<Duration>,
    metrics: bool,
}

impl RuntimeBuilder {
    fn new() -> Self {
        Self {
            threads: None,
            parallel: true,
            pooled: true,
            task_workers: None,
            stall_deadline: None,
            metrics: true,
        }
    }

    /// Default team size (default: `available_parallelism`). Must be at
    /// least 1.
    pub fn threads(mut self, n: usize) -> Self {
        assert!(n >= 1, "default thread count must be >= 1");
        self.threads = Some(n);
        self
    }

    /// Start with parallel execution enabled or disabled (default:
    /// enabled); toggleable later via [`Runtime::set_parallel_enabled`].
    pub fn parallel(mut self, enabled: bool) -> Self {
        self.parallel = enabled;
        self
    }

    /// Build with pooled execution enabled or disabled (default:
    /// enabled); see [`Runtime::pool_enabled`].
    pub fn pooled(mut self, enabled: bool) -> Self {
        self.pooled = enabled;
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

    /// Arm a default stall deadline for every region on this runtime
    /// (default: none); see [`set_default_stall_deadline`].
    pub fn stall_deadline(mut self, d: Duration) -> Self {
        assert!(!d.is_zero(), "stall deadline must be non-zero");
        self.stall_deadline = Some(d);
        self
    }

    /// Record per-runtime counters (default: `true`). With `false` the
    /// runtime's scope reads all-zero — including
    /// [`Runtime::hot_team_stats`] — while the process-global registry
    /// still sees its activity.
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
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
        let scope = Arc::new(obs::Scope::new(self.metrics));
        let stall_nanos = match self.stall_deadline {
            None => 0,
            Some(d) => u64::try_from(d.as_nanos()).unwrap_or(u64::MAX).max(1),
        };
        Runtime {
            inner: Arc::new(RuntimeInner {
                threads: AtomicUsize::new(0),
                base_threads,
                parallel: AtomicBool::new(self.parallel),
                pool: self.pooled,
                stall_nanos: AtomicU64::new(stall_nanos),
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
/// the team size and `AOMP_NO_POOL` the pool switch, each captured
/// exactly once here. It is never dropped — its workers live for the
/// process.
pub fn default_runtime() -> &'static Runtime {
    static DEFAULT: OnceLock<Runtime> = OnceLock::new();
    DEFAULT.get_or_init(|| {
        let no_pool = std::env::var(NO_POOL_ENV).is_ok_and(|v| {
            let v = v.trim();
            !v.is_empty() && v != "0"
        });
        RuntimeBuilder {
            threads: env_usize(NUM_THREADS_ENV),
            pooled: !no_pool,
            ..RuntimeBuilder::new()
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

/// Whether pooled execution (cached hot teams for regions, the shared
/// executor for tasks) is enabled on the default runtime: `true` unless
/// [`NO_POOL_ENV`] (`AOMP_NO_POOL=1`) was set when the default runtime
/// was constructed.
pub fn pool_enabled() -> bool {
    default_runtime().pool_enabled()
}

/// Arm (or with `None`, disarm) the default runtime's default stall
/// deadline.
///
/// Every parallel region whose own configuration does not set
/// [`RegionConfig::stall_deadline`](crate::region::RegionConfig::stall_deadline)
/// (and that resolves to the default runtime) inherits this value, so
/// one line converts every region's *synchronisation* stall — members
/// parked at barriers, broadcasts, criticals, task joins or the
/// end-of-region worker join — into a diagnosable
/// [`RegionError::Stalled`](crate::error::RegionError).
/// Per-region settings always win.
///
/// This is not a blanket hang kill switch:
/// [`region::parallel`](crate::region::parallel) and
/// [`region::try_parallel`](crate::region::try_parallel) accept
/// borrowing bodies and therefore always join every worker, so a member
/// wedged in non-cooperative user code (an unbounded sleep, a lost
/// external call) still delays its region until it returns. Abandoning
/// such a member requires a body that owns its captures — opt in per
/// call site with
/// [`region::try_parallel_detached`](crate::region::try_parallel_detached).
pub fn set_default_stall_deadline(deadline: Option<Duration>) {
    default_runtime().set_default_stall_deadline(deadline)
}

/// The default runtime's stall deadline, if one is armed.
pub fn default_stall_deadline() -> Option<Duration> {
    default_runtime().default_stall_deadline()
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
    fn stall_deadline_round_trips() {
        // A private runtime: no cross-test serialisation needed (the
        // pre-instance version of this test had to lock a global).
        let rt = Runtime::builder().threads(1).build();
        rt.set_default_stall_deadline(Some(Duration::from_millis(250)));
        assert_eq!(
            rt.default_stall_deadline(),
            Some(Duration::from_millis(250))
        );
        rt.set_default_stall_deadline(None);
        assert_eq!(rt.default_stall_deadline(), None);
    }

    #[test]
    fn parallel_enabled_toggle() {
        assert!(parallel_enabled());
        set_parallel_enabled(false);
        assert!(!parallel_enabled());
        set_parallel_enabled(true);
        assert!(parallel_enabled());
    }

    #[test]
    fn builder_knobs_round_trip() {
        let rt = Runtime::builder()
            .threads(3)
            .parallel(true)
            .pooled(false)
            .task_workers(2)
            .stall_deadline(Duration::from_secs(5))
            .metrics(false)
            .build();
        assert_eq!(rt.default_threads(), 3);
        assert!(rt.parallel_enabled());
        assert!(!rt.pool_enabled());
        assert_eq!(rt.default_stall_deadline(), Some(Duration::from_secs(5)));
        // metrics(false): the scope reads zero even after activity.
        rt.parallel(|| {});
        assert_eq!(rt.hot_team_stats(), HotTeamStats::default());
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
