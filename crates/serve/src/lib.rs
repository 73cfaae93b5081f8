//! # aomp-serve — multi-tenant request serving over aomp runtimes
//!
//! This crate turns the aomp runtime layer into a *server*: N tenants,
//! each pinned to its own [`aomp::Runtime`] (own workers, own hot-team
//! cache, own counter scope), accept a stream of requests whose bodies
//! are parallel task graphs ([`work::Workload`]) over the crate's
//! shared graph and loop kernels. Three robustness mechanisms compose:
//!
//! * **Deadline propagation** — a request's time budget flows into
//!   [`RegionConfig::stall_deadline`](aomp::region::RegionConfig::stall_deadline)
//!   and every bounded join
//!   ([`FutureTask::get_by`](aomp::task::FutureTask::get_by)), so a slow
//!   or wedged request resolves as [`ServeError::DeadlineExceeded`]
//!   instead of hanging a worker forever. A client waiting in
//!   [`ResponseHandle::wait`] before any worker picked its request up
//!   runs the request itself (a future's getter runs its own unstarted
//!   producer); the deadline is then enforced server-side all the same.
//! * **Admission control & load-shedding** — each tenant has a bounded
//!   in-flight queue; beyond capacity the server *rejects newest* with a
//!   [`ServeError::Shed`] carrying a retry-after hint derived from the
//!   tenant's observed service time. The cooperative client side is
//!   [`retry::submit_with_retry`] (jittered exponential backoff).
//! * **Fault injection** — a [`faults::FaultPlan`] deterministically
//!   panics, stalls or cancels a configurable fraction of requests,
//!   proving the server stays live and its counters stay consistent:
//!   after a drain, `accepted == completed + deadline_missed + faulted`
//!   per tenant, always.
//!
//! Because every tenant is its own runtime, a tenant's bursts, faults
//! and cancellations degrade only its own latency — the tenant-isolation
//! invariant checked by `aomp-check`'s
//! [`check_tenant_isolation`](../aomp_check/oracle/fn.check_tenant_isolation.html)
//! oracle. What tenants do share are the machine's cores: a request's
//! team runs at its tenant's full size only while the server's smoothed
//! count of running requests leaves cores free (OpenMP's `dyn-var`).

#![warn(missing_docs)]

pub mod faults;
pub mod loadgen;
pub mod retry;
pub mod work;

pub use faults::{Fault, FaultPlan};
pub use retry::{submit_with_retry, Backoff};
pub use work::{Output, Workload};

use aomp::nr::{Dispatch, Replicated};
use aomp::obs::{Counter, Lat};
use aomp::prelude::*;
use aomp::{obs, Runtime};
use aomp_irregular::graph::{CsrGraph, GraphKind};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Extra join slack [`ResponseHandle::wait`] allows past the request
/// deadline, covering watchdog diagnosis and unwind time.
const WAIT_GRACE: Duration = Duration::from_secs(5);

/// How many distinct workloads a server keeps a validation reference
/// for. Clients choose workload sizes freely, so the table is bounded:
/// a workload that finds it full is checked against a fresh computation.
const REFERENCE_CAPACITY: usize = 64;

/// `at + budget`, saturating a century out where `Instant + Duration`
/// would panic on overflow: an unbounded budget (`Duration::MAX`) is a
/// legitimate way to say "no deadline".
pub(crate) fn deadline_after(at: Instant, budget: Duration) -> Instant {
    const NEVER: Duration = Duration::from_secs(100 * 365 * 24 * 3600);
    at.checked_add(budget).unwrap_or_else(|| at + NEVER)
}

/// One tenant's capacity and policy knobs.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    name: String,
    threads: usize,
    queue_capacity: usize,
    default_deadline: Duration,
    faults: FaultPlan,
}

impl TenantSpec {
    /// A tenant with 2 worker threads, an in-flight capacity of 8, a
    /// 2-second default deadline and no fault injection.
    pub fn new(name: impl Into<String>) -> Self {
        TenantSpec {
            name: name.into(),
            threads: 2,
            queue_capacity: 8,
            default_deadline: Duration::from_secs(2),
            faults: FaultPlan::none(),
        }
    }

    /// At most this many members in each of this tenant's request teams
    /// (≥ 1). A request runs the full team while the server has cores to
    /// spare, and fewer members, down to one, while other requests are
    /// running on them.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Maximum in-flight (admitted, not yet resolved) requests before
    /// admission control sheds (≥ 1).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n.max(1);
        self
    }

    /// Deadline applied to requests that don't carry their own.
    pub fn default_deadline(mut self, d: Duration) -> Self {
        self.default_deadline = d;
        self
    }

    /// Fault-injection plan applied to this tenant's admitted requests.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }
}

/// Server-wide configuration: the tenant set and the shared graph that
/// [`Workload::DegreeSum`] requests traverse.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    tenants: Vec<TenantSpec>,
    graph_vertices: usize,
    graph_degree: usize,
    graph_seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerConfig {
    /// An empty configuration with a 4096-vertex power-law graph.
    pub fn new() -> Self {
        ServerConfig {
            tenants: Vec::new(),
            graph_vertices: 4096,
            graph_degree: 8,
            graph_seed: 42,
        }
    }

    /// Add a tenant.
    pub fn tenant(mut self, spec: TenantSpec) -> Self {
        self.tenants.push(spec);
        self
    }

    /// Size and seed of the shared request graph.
    pub fn graph(mut self, vertices: usize, avg_degree: usize, seed: u64) -> Self {
        self.graph_vertices = vertices.max(1);
        self.graph_degree = avg_degree.max(1);
        self.graph_seed = seed;
        self
    }

    /// Build the server: one [`Runtime`] per tenant plus the shared
    /// graph. Panics if no tenants were added.
    pub fn build(self) -> Server {
        assert!(
            !self.tenants.is_empty(),
            "a server needs at least one tenant"
        );
        let graph = Arc::new(CsrGraph::generate(
            GraphKind::PowerLaw,
            self.graph_vertices,
            self.graph_degree,
            self.graph_seed,
        ));
        let tenants = self
            .tenants
            .into_iter()
            .map(|spec| {
                let rt = Runtime::builder()
                    .threads(spec.threads)
                    .task_workers(spec.queue_capacity.max(2))
                    .build();
                TenantState {
                    spec,
                    rt,
                    depth: AtomicUsize::new(0),
                    seq: AtomicU64::new(0),
                    stats: Replicated::new(TenantStats::default()),
                }
            })
            .collect();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Server {
            inner: Arc::new(ServerInner {
                tenants,
                graph,
                references: References::default(),
                cores: CoreShare::new(cores),
            }),
        }
    }
}

/// Why a request did not produce a normal response.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// Admission control rejected the request: the tenant's in-flight
    /// queue was full. The request consumed no capacity; resubmit after
    /// `retry_after` (see [`retry::submit_with_retry`]).
    Shed {
        /// In-flight depth observed at rejection.
        queue_depth: usize,
        /// Server's estimate of when capacity will free up.
        retry_after: Duration,
    },
    /// The request was admitted but missed its deadline — in queue, via
    /// the region stall watchdog, or by finishing late.
    DeadlineExceeded {
        /// The request's total time budget.
        budget: Duration,
        /// Where the budget ran out.
        cause: DeadlineCause,
    },
    /// The request's region was cancelled (injected or cooperative).
    Cancelled,
    /// The request's region panicked, or its response failed
    /// validation.
    Faulted {
        /// Panic payload summary or validation diagnosis.
        msg: String,
    },
    /// The response future was dropped without resolving (server
    /// teardown mid-request).
    Lost,
}

/// Which phase exhausted a request's budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeadlineCause {
    /// Spent too long waiting for an executor slot.
    QueueWait,
    /// The region stall watchdog fired, or a fan-out join timed out.
    Stalled,
    /// The work completed, but after the deadline had passed.
    FinishedLate,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Shed {
                queue_depth,
                retry_after,
            } => write!(
                f,
                "request shed: tenant queue full at depth {queue_depth}, retry after {retry_after:?}"
            ),
            ServeError::DeadlineExceeded { budget, cause } => {
                let phase = match cause {
                    DeadlineCause::QueueWait => "while queued",
                    DeadlineCause::Stalled => "stalled in its region",
                    DeadlineCause::FinishedLate => "finished after the deadline",
                };
                write!(f, "request exceeded its {budget:?} deadline ({phase})")
            }
            ServeError::Cancelled => write!(f, "request cancelled"),
            ServeError::Faulted { msg } => write!(f, "request faulted: {msg}"),
            ServeError::Lost => write!(f, "response lost: server dropped the request"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A unit of work submitted to a tenant.
#[derive(Debug, Clone)]
pub struct Request {
    workload: Workload,
    deadline: Option<Duration>,
}

impl Request {
    /// A request running `workload` under the tenant's default deadline.
    pub fn new(workload: Workload) -> Self {
        Request {
            workload,
            deadline: None,
        }
    }

    /// Override the tenant's default deadline for this request.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// The workload this request runs.
    pub fn workload(&self) -> Workload {
        self.workload
    }
}

/// Join handle for an admitted request.
pub struct ResponseHandle {
    fut: FutureTask<Result<Output, ServeError>>,
    submitted: Instant,
    budget: Duration,
}

impl ResponseHandle {
    /// Block for the response, bounded by the request deadline plus a
    /// fixed grace period (the deadline itself is enforced server-side;
    /// the grace only covers watchdog diagnosis and unwind time).
    ///
    /// If no executor worker has started the request yet, the calling
    /// client runs it, on the tenant's runtime, and this returns once it
    /// finished. The bound does not apply to that run: the deadline is
    /// enforced server-side by the queue-wait check, the stall verdict
    /// and [`DeadlineCause::FinishedLate`], so [`ServeError::Lost`] is
    /// only reachable for a request that a worker runs.
    pub fn wait(self) -> Result<Output, ServeError> {
        let bound = deadline_after(self.submitted, self.budget.saturating_add(WAIT_GRACE));
        match self.fut.get_by(bound) {
            Ok(outcome) => outcome,
            Err(WaitTimedOut { .. }) => Err(ServeError::Lost),
        }
    }

    /// The request's total time budget.
    pub fn budget(&self) -> Duration {
        self.budget
    }
}

/// One tenant's observed service-time statistics.
///
/// The single-threaded structure is replicated via [`aomp::nr`]: every
/// completion *logs* an [`StatsOp::Observe`] under its replica's lock
/// and every replica applies the log in one order, so the EWMA fold —
/// which is *not* commutative — is deterministic and identical on every
/// replica, where the old lock-free read-modify-write could drop samples
/// under contention.
#[derive(Clone, Debug, Default)]
pub struct TenantStats {
    /// EWMA of successful service time, in nanoseconds (0 = no samples).
    pub ewma_service_ns: u64,
    /// Number of successful completions folded into the EWMA.
    pub samples: u64,
    /// Worst successful service time seen, in nanoseconds.
    pub max_service_ns: u64,
}

/// Write operations on [`TenantStats`] (the replication log alphabet).
#[derive(Clone, Debug)]
pub enum StatsOp {
    /// Fold one successful completion's service time into the stats.
    Observe {
        /// Service time of the completion, in nanoseconds.
        ns: u64,
    },
}

impl Dispatch for TenantStats {
    type ReadOp = ();
    type WriteOp = StatsOp;
    type Response = TenantStats;

    fn dispatch(&self, _op: &()) -> TenantStats {
        self.clone()
    }

    fn dispatch_mut(&mut self, op: &StatsOp) -> TenantStats {
        let StatsOp::Observe { ns } = *op;
        self.ewma_service_ns = if self.ewma_service_ns == 0 {
            ns
        } else {
            // 0.8 * prev + 0.2 * sample, in integer ns.
            self.ewma_service_ns - self.ewma_service_ns / 5 + ns / 5
        };
        self.samples += 1;
        self.max_service_ns = self.max_service_ns.max(ns);
        self.clone()
    }
}

struct TenantState {
    spec: TenantSpec,
    rt: Runtime,
    /// Admitted-but-unresolved requests; the admission bound.
    depth: AtomicUsize,
    /// Per-tenant request sequence number, feeds the fault plan.
    seq: AtomicU64,
    /// Service-time statistics, replicated shared state; drives
    /// retry-after.
    stats: Replicated<TenantStats>,
}

impl TenantState {
    /// Estimate how long a rejected client should wait before retrying:
    /// roughly one observed service time (capacity frees at that rate),
    /// clamped to something a client can reasonably sleep.
    fn retry_after(&self) -> Duration {
        let ewma = self.stats.execute_ro(&()).ewma_service_ns;
        let est = if ewma == 0 {
            self.spec.default_deadline / 4
        } else {
            Duration::from_nanos(ewma)
        };
        est.clamp(Duration::from_millis(1), Duration::from_secs(5))
    }

    fn observe_service(&self, took: Duration) {
        let ns = took.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.stats.execute(StatsOp::Observe { ns });
    }
}

struct ServerInner {
    tenants: Vec<TenantState>,
    graph: Arc<CsrGraph>,
    /// Validation references, shared by every tenant like the graph.
    references: References,
    /// The machine's cores, shared by every tenant's requests.
    cores: CoreShare,
}

/// Fixed-point scale of [`CoreShare`]'s load: one running request
/// reads 16.
const LOAD_ONE: usize = 16;

/// The load average's weight is `1 / 2^LOAD_SHIFT`: 1/8, as the
/// adaptive `if` clause's gate weighs its samples.
const LOAD_SHIFT: u32 = 3;

/// The cores of one server, shared by every tenant's requests: each
/// request's team is sized from how many requests have been running.
///
/// `running` counts the requests inside [`work::execute`], across all
/// tenants. Each entry samples it (this request included) into `load`,
/// an average ×[`LOAD_ONE`], and runs a team of `cores ×
/// LOAD_ONE / load` members, at least one and at most the tenant's
/// [`TenantSpec::threads`]. A lone request reads a load of one and gets
/// `min(threads, cores)` members; while requests overlap, the cores are
/// split between them.
///
/// Under a registered scheduler hook an entry takes the tenant's full
/// team and leaves `load` alone, so an explored schedule depends on its
/// seed and not on a neighbour's timing.
struct CoreShare {
    cores: usize,
    /// Both counts only steer team sizes and publish nothing: relaxed.
    running: AtomicUsize,
    load: AtomicUsize,
}

impl CoreShare {
    fn new(cores: usize) -> Self {
        CoreShare {
            cores: cores.max(1),
            running: AtomicUsize::new(0),
            load: AtomicUsize::new(0),
        }
    }

    /// Count one request as running until the returned guard drops, and
    /// size its team from at most `threads` members; `hooked` says a
    /// scheduler hook is registered.
    fn enter(&self, threads: usize, hooked: bool) -> (usize, Running<'_>) {
        let now = self.running.fetch_add(1, Ordering::Relaxed) + 1;
        let running = Running(self);
        if hooked {
            return (threads, running);
        }
        let load = self.sample(now * LOAD_ONE);
        let team = (self.cores * LOAD_ONE / load).clamp(1, threads);
        (team, running)
    }

    /// Fold one sample into the load average and return the new average
    /// (never 0 after a sample). Each fold moves at least one unit toward
    /// the sample, so a steady load is read exactly; truncating division
    /// would stop up to 7/16 of a request above it, which on two cores
    /// reads as two requests. Racing folds may lose a sample, as the
    /// gate's do: the average only steers team sizes.
    fn sample(&self, sample: usize) -> usize {
        let avg = self.load.load(Ordering::Relaxed);
        let next = if sample >= avg {
            avg + (sample - avg).div_ceil(1 << LOAD_SHIFT)
        } else {
            avg - (avg - sample).div_ceil(1 << LOAD_SHIFT)
        };
        self.load.store(next, Ordering::Relaxed);
        next
    }
}

/// One request counted in [`CoreShare`]'s `running` until it drops, on
/// every way out of [`work::execute`].
struct Running<'a>(&'a CoreShare);

impl Drop for Running<'_> {
    fn drop(&mut self) {
        self.0.running.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A server's validation references: [`Workload::expected`]'s value on
/// the server's graph, per distinct workload, computed once and kept
/// for the next request of the same workload (at most
/// [`REFERENCE_CAPACITY`] of them).
#[derive(Default)]
struct References {
    table: Mutex<HashMap<Workload, Output>>,
    /// Sequential references computed so far; a table hit computes none.
    computed: AtomicU64,
}

impl References {
    /// Check a completed response `out` of `workload` against the
    /// sequential reference: `Ok(out)` when they agree, `Faulted` when
    /// they differ. The reference is looked up; on a miss it is computed
    /// outside the lock, so a long computation never blocks another
    /// tenant's lookup, then inserted while the table has room.
    fn validate(
        &self,
        graph: &CsrGraph,
        workload: Workload,
        out: Output,
    ) -> Result<Output, ServeError> {
        let cached = self.lock().get(&workload).copied();
        let expected = cached.unwrap_or_else(|| {
            let fresh = workload.expected(graph);
            self.computed.fetch_add(1, Ordering::Relaxed);
            let mut table = self.lock();
            if table.len() < REFERENCE_CAPACITY {
                table.insert(workload, fresh);
            }
            fresh
        });
        if out == expected {
            Ok(out)
        } else {
            Err(ServeError::Faulted {
                msg: "response failed validation against the sequential reference".into(),
            })
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<Workload, Output>> {
        // Nothing panics while the table is held, and a half-done insert
        // cannot leave a wrong entry behind.
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A multi-tenant server: one isolated [`Runtime`] per tenant, bounded
/// admission, deadline-propagating request execution.
///
/// Cloning is cheap and shares the server.
#[derive(Clone)]
pub struct Server {
    inner: Arc<ServerInner>,
}

impl Server {
    /// Start configuring a server.
    pub fn config() -> ServerConfig {
        ServerConfig::new()
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.inner.tenants.len()
    }

    /// A tenant's configured name.
    pub fn tenant_name(&self, tenant: usize) -> &str {
        &self.inner.tenants[tenant].spec.name
    }

    /// The [`Runtime`] owning a tenant's workers and counter scope. Use
    /// [`Runtime::metrics_snapshot`] on it to read per-tenant serve
    /// counters.
    pub fn tenant_runtime(&self, tenant: usize) -> &Runtime {
        &self.inner.tenants[tenant].rt
    }

    /// A tenant's current in-flight depth.
    pub fn queue_depth(&self, tenant: usize) -> usize {
        self.inner.tenants[tenant].depth.load(Ordering::Acquire)
    }

    /// A linearizable snapshot of a tenant's service-time statistics
    /// (reads its [`aomp::nr::Replicated`] store after syncing to the
    /// operation-log tail).
    pub fn tenant_stats(&self, tenant: usize) -> TenantStats {
        self.inner.tenants[tenant].stats.execute_ro(&())
    }

    /// The shared graph that [`Workload::DegreeSum`] traverses.
    pub fn graph(&self) -> &Arc<CsrGraph> {
        &self.inner.graph
    }

    /// The answer `workload` must produce on this server — exposed so
    /// callers can validate responses end-to-end.
    ///
    /// Computed afresh on every call, sequentially on the calling thread:
    /// it is the timed work of a hand-written twin of a request, so it
    /// deliberately bypasses the reference table the server validates
    /// its own responses against.
    pub fn expected_output(&self, workload: Workload) -> Output {
        workload.expected(&self.inner.graph)
    }

    /// Offer `req` to `tenant`'s admission control.
    ///
    /// Admitted requests return a [`ResponseHandle`] and will resolve —
    /// successfully, or as a deadline/fault outcome — without outside
    /// help. Rejected requests return [`ServeError::Shed`] immediately
    /// and consume no tenant capacity.
    pub fn submit(&self, tenant: usize, req: Request) -> Result<ResponseHandle, ServeError> {
        let t = &self.inner.tenants[tenant];
        t.rt.record_counter(Counter::ServeSubmitted);
        // Reserve a queue slot (reject-newest): CAS so a racing burst
        // cannot overshoot the bound.
        let mut depth = t.depth.load(Ordering::Relaxed);
        loop {
            if depth >= t.spec.queue_capacity {
                t.rt.record_counter(Counter::ServeShed);
                return Err(ServeError::Shed {
                    queue_depth: depth,
                    retry_after: t.retry_after(),
                });
            }
            match t.depth.compare_exchange_weak(
                depth,
                depth + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(cur) => depth = cur,
            }
        }
        t.rt.record_counter(Counter::ServeAccepted);
        let budget = req.deadline.unwrap_or(t.spec.default_deadline);
        let submitted = Instant::now();
        let seq = t.seq.fetch_add(1, Ordering::Relaxed);
        let server = Arc::clone(&self.inner);
        let fut = t.rt.spawn_future(move || {
            run_request(&server, tenant, req.workload, budget, submitted, seq)
        });
        Ok(ResponseHandle {
            fut,
            submitted,
            budget,
        })
    }

    /// Block until every tenant's in-flight depth reaches zero, or the
    /// timeout elapses. Returns true on full drain. After a successful
    /// drain, per-tenant counters satisfy
    /// `accepted == completed + deadline_missed + faulted`.
    pub fn drain(&self, timeout: Duration) -> bool {
        let give_up = deadline_after(Instant::now(), timeout);
        loop {
            if self
                .inner
                .tenants
                .iter()
                .all(|t| t.depth.load(Ordering::Acquire) == 0)
            {
                return true;
            }
            if Instant::now() >= give_up {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Decrement the tenant's in-flight depth when the request resolves —
/// on success, error, or panic of the serving path itself.
struct DepthGuard<'a>(&'a TenantState);

impl Drop for DepthGuard<'_> {
    fn drop(&mut self) {
        self.0.depth.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The admitted request's whole lifecycle, run on the tenant's task
/// executor. Bumps exactly one of `ServeCompleted` /
/// `ServeDeadlineMissed` / `ServeFaulted` before returning.
///
/// A response that completes in time is checked against the sequential
/// reference through [`References::validate`], which computes that
/// reference once per distinct workload and server rather than once per
/// request. The work itself runs on a team sized by the server's
/// [`CoreShare`].
fn run_request(
    server: &ServerInner,
    tenant: usize,
    workload: Workload,
    budget: Duration,
    submitted: Instant,
    seq: u64,
) -> Result<Output, ServeError> {
    let t = &server.tenants[tenant];
    let graph = &server.graph;
    let _guard = DepthGuard(t);
    let queue_wait = submitted.elapsed();
    obs::record_latency(Lat::ServeQueueWait, queue_wait);
    let finish = |outcome: Result<Output, ServeError>| {
        let took = submitted.elapsed();
        obs::record_latency(Lat::ServeRequest, took);
        let counter = match &outcome {
            Ok(_) => {
                t.observe_service(took);
                Counter::ServeCompleted
            }
            Err(ServeError::DeadlineExceeded { .. }) => Counter::ServeDeadlineMissed,
            Err(_) => Counter::ServeFaulted,
        };
        t.rt.record_counter(counter);
        outcome
    };
    let remaining = match budget.checked_sub(queue_wait) {
        Some(r) if !r.is_zero() => r,
        _ => {
            return finish(Err(ServeError::DeadlineExceeded {
                budget,
                cause: DeadlineCause::QueueWait,
            }))
        }
    };
    let fault = t.spec.faults.decide(seq);
    if fault.is_some() {
        t.rt.record_counter(Counter::ServeFaultInjected);
    }
    let executed = {
        let (team, _running) = server.cores.enter(t.spec.threads, aomp::hook::active());
        work::execute(&t.rt, team, graph, workload, remaining, fault)
    };
    let outcome = match executed {
        Ok(out) => {
            if submitted.elapsed() > budget {
                Err(ServeError::DeadlineExceeded {
                    budget,
                    cause: DeadlineCause::FinishedLate,
                })
            } else {
                server.references.validate(graph, workload, out)
            }
        }
        Err(work::ExecError::TimedOut) => Err(ServeError::DeadlineExceeded {
            budget,
            cause: DeadlineCause::Stalled,
        }),
        Err(work::ExecError::Cancelled) => Err(ServeError::Cancelled),
        Err(work::ExecError::Panicked(msg)) => Err(ServeError::Faulted { msg }),
    };
    finish(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_server(capacity: usize) -> Server {
        Server::config()
            .graph(512, 6, 7)
            .tenant(
                TenantSpec::new("t0")
                    .threads(2)
                    .queue_capacity(capacity)
                    .default_deadline(Duration::from_secs(5)),
            )
            .build()
    }

    #[test]
    fn accepted_request_completes_and_validates() {
        let srv = small_server(4);
        let w = Workload::SumRange { n: 50_000 };
        let out = srv
            .submit(0, Request::new(w))
            .expect("admitted")
            .wait()
            .expect("completed");
        assert_eq!(out, srv.expected_output(w));
        assert!(srv.drain(Duration::from_secs(5)));
        let snap = srv.tenant_runtime(0).metrics_snapshot();
        assert_eq!(snap.counter(Counter::ServeAccepted), 1);
        assert_eq!(snap.counter(Counter::ServeCompleted), 1);
    }

    #[test]
    fn replicated_stats_count_every_completion() {
        let srv = small_server(64);
        let mut handles = Vec::new();
        for i in 0..16u64 {
            handles.push(
                srv.submit(0, Request::new(Workload::SumRange { n: 5_000 + i * 31 }))
                    .expect("admitted"),
            );
        }
        for h in handles {
            h.wait().expect("completed");
        }
        assert!(srv.drain(Duration::from_secs(30)));
        let stats = srv.tenant_stats(0);
        let snap = srv.tenant_runtime(0).metrics_snapshot();
        assert_eq!(
            stats.samples,
            snap.counter(Counter::ServeCompleted),
            "the replicated log must fold exactly one sample per completion"
        );
        assert!(stats.ewma_service_ns > 0);
        assert!(stats.max_service_ns >= stats.ewma_service_ns / 2);
    }

    #[test]
    fn counters_add_up_after_drain() {
        let srv = small_server(64);
        for i in 0..40u64 {
            let _ = srv.submit(0, Request::new(Workload::SumRange { n: 10_000 + i * 97 }));
        }
        assert!(srv.drain(Duration::from_secs(30)), "server failed to drain");
        let snap = srv.tenant_runtime(0).metrics_snapshot();
        let accepted = snap.counter(Counter::ServeAccepted);
        let resolved = snap.counter(Counter::ServeCompleted)
            + snap.counter(Counter::ServeDeadlineMissed)
            + snap.counter(Counter::ServeFaulted);
        assert_eq!(accepted, resolved, "counter choreography broken");
        assert_eq!(
            snap.counter(Counter::ServeSubmitted),
            accepted + snap.counter(Counter::ServeShed)
        );
    }

    #[test]
    fn zero_deadline_misses_in_queue() {
        let srv = small_server(4);
        let req = Request::new(Workload::SumRange { n: 1_000_000 }).deadline(Duration::ZERO);
        match srv.submit(0, req).expect("admitted").wait() {
            Err(ServeError::DeadlineExceeded { cause, .. }) => {
                assert_eq!(cause, DeadlineCause::QueueWait)
            }
            other => panic!("expected a queue-wait deadline miss, got {other:?}"),
        }
        assert!(srv.drain(Duration::from_secs(5)));
        let snap = srv.tenant_runtime(0).metrics_snapshot();
        assert_eq!(snap.counter(Counter::ServeDeadlineMissed), 1);
    }

    #[test]
    fn unbounded_deadline_completes_with_balanced_books() {
        // `Instant + Duration::MAX` overflows: the client-side wait bound
        // and the executor-side join deadline both have to saturate, or
        // the worker unwinds past `finish` and the books never balance.
        let srv = small_server(4);
        let work = [
            Workload::SumRange { n: 50_000 },
            Workload::Fanout {
                parts: 4,
                n: 50_000,
            },
        ];
        for w in work {
            let req = Request::new(w).deadline(Duration::MAX);
            let out = srv.submit(0, req).expect("admitted").wait();
            assert_eq!(out, Ok(srv.expected_output(w)));
        }
        assert!(srv.drain(Duration::MAX));
        let snap = srv.tenant_runtime(0).metrics_snapshot();
        assert_eq!(snap.counter(Counter::ServeAccepted), 2);
        assert_eq!(snap.counter(Counter::ServeCompleted), 2);
        assert_eq!(snap.counter(Counter::ServeDeadlineMissed), 0);
        assert_eq!(snap.counter(Counter::ServeFaulted), 0);
    }

    #[test]
    fn overload_sheds_instead_of_queueing() {
        let srv = small_server(2);
        let slow = Request::new(Workload::SumRange { n: 40_000_000 });
        let h0 = srv.submit(0, slow.clone());
        let h1 = srv.submit(0, slow.clone());
        // Capacity 2 is now reserved (even if a request finished already,
        // submit more until we observe a shed or prove the bound leaks).
        let mut shed = false;
        for _ in 0..64 {
            match srv.submit(0, slow.clone()) {
                Err(ServeError::Shed { retry_after, .. }) => {
                    assert!(retry_after >= Duration::from_millis(1));
                    shed = true;
                    break;
                }
                Ok(_) => {}
                Err(other) => panic!("unexpected submit error: {other}"),
            }
        }
        assert!(shed, "bounded queue never shed under sustained overload");
        drop((h0, h1));
        assert!(srv.drain(Duration::from_secs(60)));
        let snap = srv.tenant_runtime(0).metrics_snapshot();
        assert!(snap.counter(Counter::ServeShed) >= 1);
    }

    fn graph() -> CsrGraph {
        CsrGraph::generate(GraphKind::PowerLaw, 512, 6, 7)
    }

    fn rejected(outcome: Result<Output, ServeError>) -> bool {
        matches!(outcome, Err(ServeError::Faulted { .. }))
    }

    /// The reference answer of `w` on `g`, and one that differs from it
    /// in a single bit.
    fn right_and_wrong(g: &CsrGraph, w: Workload) -> (Output, Output) {
        let Output::U64(x) = w.expected(g);
        (Output::U64(x), Output::U64(x ^ 1))
    }

    #[test]
    fn validation_accepts_the_reference_and_rejects_anything_else_cold_and_warm() {
        let g = graph();
        let refs = References::default();
        let (a, b) = (
            Workload::SumRange { n: 10_000 },
            Workload::DegreeSum { rounds: 3 },
        );
        let (a_right, a_wrong) = right_and_wrong(&g, a);
        let (b_right, b_wrong) = right_and_wrong(&g, b);
        // Cold: `a` meets the table with a right answer, `b` with a wrong one.
        assert_eq!(refs.validate(&g, a, a_right), Ok(a_right));
        assert!(rejected(refs.validate(&g, b, b_wrong)));
        // Warm: both are in the table now.
        for _ in 0..2 {
            assert_eq!(refs.validate(&g, a, a_right), Ok(a_right));
            assert!(rejected(refs.validate(&g, a, a_wrong)));
            assert_eq!(refs.validate(&g, b, b_right), Ok(b_right));
            assert!(rejected(refs.validate(&g, b, b_wrong)));
        }
        assert_eq!(refs.computed.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn each_distinct_workload_computes_its_reference_once() {
        let g = graph();
        let refs = References::default();
        // Same answer, different keys: `Fanout` and `SumRange` over the
        // same range are distinct workloads.
        let work = [
            Workload::SumRange { n: 1_000 },
            Workload::SumRange { n: 1_001 },
            Workload::DegreeSum { rounds: 2 },
            Workload::Fanout { parts: 4, n: 1_000 },
        ];
        for _ in 0..3 {
            for w in work {
                let right = w.expected(&g);
                assert_eq!(refs.validate(&g, w, right), Ok(right));
            }
            assert_eq!(refs.computed.load(Ordering::Relaxed), work.len() as u64);
        }
    }

    #[test]
    fn a_full_reference_table_stops_growing_and_still_validates() {
        const PAST: u64 = 16;
        let g = graph();
        let refs = References::default();
        let cap = REFERENCE_CAPACITY as u64;
        for n in 0..cap + PAST {
            let w = Workload::SumRange { n };
            let (right, wrong) = right_and_wrong(&g, w);
            assert_eq!(refs.validate(&g, w, right), Ok(right));
            assert!(rejected(refs.validate(&g, w, wrong)));
        }
        assert_eq!(refs.lock().len(), REFERENCE_CAPACITY);
        // The first `cap` workloads were computed once each; every check
        // of the ones past the bound computed afresh.
        assert_eq!(refs.computed.load(Ordering::Relaxed), cap + 2 * PAST);
        let first = Workload::SumRange { n: 0 };
        assert!(rejected(refs.validate(&g, first, Output::U64(1))));
        assert_eq!(refs.computed.load(Ordering::Relaxed), cap + 2 * PAST);
    }

    #[test]
    fn served_requests_of_one_workload_share_one_reference() {
        let srv = small_server(4);
        let w = Workload::Fanout {
            parts: 3,
            n: 30_000,
        };
        for _ in 0..6 {
            let out = srv.submit(0, Request::new(w)).expect("admitted").wait();
            assert_eq!(out, Ok(srv.expected_output(w)));
        }
        assert!(srv.drain(Duration::from_secs(5)));
        assert_eq!(srv.inner.references.computed.load(Ordering::Relaxed), 1);
    }

    /// Teams of `threads` on a share of two cores, entered one at a time.
    fn lone_teams(share: &CoreShare, threads: usize, entries: usize) -> Vec<usize> {
        (0..entries)
            .map(|_| share.enter(threads, false).0)
            .collect()
    }

    #[test]
    fn lone_entries_get_the_full_team() {
        let share = CoreShare::new(2);
        assert_eq!(lone_teams(&share, 2, 64), vec![2; 64]);
        assert_eq!(share.load.load(Ordering::Relaxed), LOAD_ONE);
        // A team larger than the cores gets the cores, a smaller one
        // keeps its size.
        assert_eq!(lone_teams(&share, 8, 4), vec![2; 4]);
        assert_eq!(lone_teams(&share, 1, 4), vec![1; 4]);
        assert_eq!(share.running.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn entries_beside_a_running_request_share_the_cores() {
        let share = CoreShare::new(2);
        lone_teams(&share, 2, 64);
        let (held_team, held) = share.enter(2, false);
        assert_eq!(held_team, 2, "the first request found the cores free");
        // Every later entry reads two running requests: the load climbs
        // to two, exactly, and each of them runs alone.
        assert_eq!(lone_teams(&share, 2, 64), vec![1; 64]);
        assert_eq!(share.load.load(Ordering::Relaxed), 2 * LOAD_ONE);
        // With the cores split, a wider tenant gets one core too.
        assert_eq!(lone_teams(&share, 8, 4), vec![1; 4]);
        drop(held);
        // Once the neighbour is gone the load decays back to one, and the
        // full team returns.
        let after = lone_teams(&share, 2, 64);
        assert_eq!(after.last(), Some(&2));
        assert_eq!(share.load.load(Ordering::Relaxed), LOAD_ONE);
        assert_eq!(share.running.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn hooked_entries_get_the_tenant_team_and_leave_the_load_alone() {
        let share = CoreShare::new(2);
        let (_team, _held) = share.enter(2, false);
        let load = share.load.load(Ordering::Relaxed);
        let hooked: Vec<_> = (0..16).map(|_| share.enter(8, true)).collect();
        assert!(hooked.iter().all(|(team, _)| *team == 8));
        assert_eq!(share.load.load(Ordering::Relaxed), load);
        // Hooked requests still count as running.
        assert_eq!(share.running.load(Ordering::Relaxed), 17);
        drop(hooked);
        assert_eq!(share.running.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn running_returns_to_zero_after_a_fault_storm() {
        let srv = Server::config()
            .graph(512, 6, 7)
            .tenant(
                TenantSpec::new("stormy")
                    .threads(2)
                    .queue_capacity(16)
                    .default_deadline(Duration::from_millis(500))
                    .faults(
                        FaultPlan::none()
                            .seed(0x5EED)
                            .panic_fraction(0.25)
                            .cancel_fraction(0.25)
                            .stall_fraction(0.25),
                    ),
            )
            .build();
        let w = Workload::SumRange { n: 20_000 };
        let handles: Vec<_> = (0..32)
            .filter_map(|_| srv.submit(0, Request::new(w)).ok())
            .collect();
        let mut outcomes = [0usize; 4];
        for h in handles {
            let slot = match h.wait() {
                Ok(_) => 0,
                Err(ServeError::Faulted { .. }) => 1,
                Err(ServeError::Cancelled) => 2,
                Err(ServeError::DeadlineExceeded { .. }) => 3,
                Err(other) => panic!("unexpected outcome: {other}"),
            };
            outcomes[slot] += 1;
        }
        assert!(srv.drain(Duration::from_secs(30)));
        assert!(
            outcomes[1..].iter().all(|&n| n > 0),
            "every fault kind must fire: {outcomes:?}"
        );
        assert_eq!(srv.inner.cores.running.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn serve_error_is_std_error() {
        fn takes_error<E: std::error::Error>(_e: &E) {}
        let e = ServeError::Shed {
            queue_depth: 3,
            retry_after: Duration::from_millis(10),
        };
        takes_error(&e);
        assert!(e.to_string().contains("retry after"));
    }
}
