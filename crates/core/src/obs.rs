//! `aomp::obs` — runtime observability: process-wide metrics and a
//! chrome://tracing event recorder.
//!
//! The paper's whole evaluation (§V, Table 2, Figures 13–15) is about
//! *measuring* the library — region-entry overhead, load balance per
//! schedule, synchronisation cost. This module gives a running program
//! the same visibility the benchmarks have:
//!
//! * **Counters** ([`Counter`]) — monotonic event counts: regions by
//!   executor (pooled / spawned / inline, and of the inline ones those an
//!   adaptive `if` clause gated), hot-team cache hits and
//!   misses, barrier rounds, critical acquisitions and contention,
//!   ordered sections, chunk handouts per schedule kind, task dispatch
//!   outcomes (shared pool / dedicated thread / inline fallback),
//!   executor park/unpark cycles, admission-control refusals.
//! * **Latency histograms** ([`Lat`]) — coarse power-of-two-bucket
//!   nanosecond histograms for region round-trips (by executor) and for
//!   every [`WaitSite`] a team member blocks at (barrier, critical,
//!   ordered, broadcasts, task joins, region join).
//! * **Trace export** ([`trace`]) — a per-thread event recorder whose
//!   output loads in `chrome://tracing` / [Perfetto](https://ui.perfetto.dev):
//!   regions, members, criticals and ordered sections as nested
//!   begin/end slices, blocked waits as complete slices with duration,
//!   chunk handouts and broadcasts as instants.
//!
//! # Enabling
//!
//! Metrics and tracing are **off by default** and cost one relaxed
//! atomic load per instrumented site when off (the same discipline as
//! the [`hook`](crate::hook) layer; the benchmark ledger's
//! `obs.metrics_on_ratio` row measures the metrics-on side, and
//! `observability::metrics_on_and_watched_entries_stay_near_the_plain_pooled_entry`
//! guards it).
//! Opt in either way:
//!
//! * environment — `AOMP_METRICS=1` enables counters/histograms from
//!   process start; `AOMP_TRACE=out.json` arms the trace recorder, and
//!   the program must call [`trace::flush_env`] before exit to write the
//!   file;
//! * API — [`set_metrics`], [`trace::start`] / [`trace::stop_to_file`].
//!
//! Events attributed to a [`Runtime`](crate::runtime::Runtime) (regions
//! by executor, hot-team cache hits/misses, task outcomes) are also
//! counted in that runtime's own scope, which records whatever the gate
//! says: [`Runtime::metrics_snapshot`](crate::runtime::Runtime::metrics_snapshot)
//! reads them without opting in.
//!
//! # Reading
//!
//! ```
//! use aomp::obs;
//! use aomp::region::{self, RegionConfig};
//! obs::set_metrics(true);
//! let before = obs::snapshot();
//! region::parallel_with(RegionConfig::new().threads(2), || { /* work */ });
//! let delta = obs::snapshot().since(&before);
//! assert!(delta.counter(obs::Counter::RegionPooled) + delta.counter(obs::Counter::RegionSpawned) >= 1);
//! println!("{}", delta.render_text());
//! ```

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::error::WaitSite;
use crate::hook::HookEvent;

/// Environment variable enabling metrics from process start
/// (`AOMP_METRICS=1`; any non-empty value other than `0` counts).
pub const METRICS_ENV: &str = "AOMP_METRICS";
/// Environment variable arming the trace recorder and naming its output
/// file (`AOMP_TRACE=out.json`); see [`trace::flush_env`].
pub const TRACE_ENV: &str = "AOMP_TRACE";

// ---------------------------------------------------------------------
// The gate: one byte shared by the hook layer and obs
// ---------------------------------------------------------------------

/// Bit: a [`SchedHook`](crate::hook::SchedHook) is registered.
pub(crate) const F_HOOK: u8 = 1;
/// Bit: metrics (counters + histograms) are enabled.
pub(crate) const F_METRICS: u8 = 2;
/// Bit: the trace recorder is running.
pub(crate) const F_TRACE: u8 = 4;
/// Bit: a race-check access sink is armed (see [`crate::check`]).
/// Deliberately *not* part of [`F_EVENTS`]: tracked data accesses are
/// orders of magnitude more frequent than decision sites, so they get
/// their own bit and report nothing to metrics/trace.
pub(crate) const F_RACE: u8 = 8;
/// Bit: the gate has been initialised from the environment.
const F_INIT: u8 = 0x80;
/// Any consumer that wants decision-site events built.
pub(crate) const F_EVENTS: u8 = F_HOOK | F_METRICS | F_TRACE;

/// The combined fast-path gate. Every instrumented site (hook emits,
/// wait registration, obs probes) reads this one byte: when no hook is
/// registered and metrics/trace are off, the site costs exactly one
/// relaxed load plus a predictable branch. It sits alone in its
/// [`Line`]: the linker otherwise places it beside whatever static
/// comes next (the registry's last histogram, say), and every write to
/// that neighbour would evict the gate's line from every other core.
static GATE: Line<AtomicU8> = Line(AtomicU8::new(0));

/// 128 bytes to itself: a cache line plus the one an adjacent-line
/// prefetcher pulls in with it. For a static that every core reads or
/// writes on a hot path.
#[repr(align(128))]
pub(crate) struct Line<T>(pub(crate) T);

/// Read the gate, initialising it from the environment on first use.
#[inline(always)]
pub(crate) fn gate() -> u8 {
    let g = GATE.0.load(Ordering::Relaxed);
    if g & F_INIT == 0 {
        init_gate()
    } else {
        g
    }
}

#[cold]
fn init_gate() -> u8 {
    let mut bits = F_INIT;
    if env_truthy(METRICS_ENV) {
        bits |= F_METRICS;
    }
    if let Ok(path) = std::env::var(TRACE_ENV) {
        let path = path.trim();
        if !path.is_empty() {
            trace::arm_env(path.to_owned());
            bits |= F_TRACE;
        }
    }
    GATE.0.fetch_or(bits, Ordering::SeqCst) | bits
}

fn env_truthy(name: &str) -> bool {
    std::env::var(name)
        .map(|v| {
            let v = v.trim();
            !v.is_empty() && v != "0"
        })
        .unwrap_or(false)
}

pub(crate) fn gate_set(bit: u8) {
    gate();
    GATE.0.fetch_or(bit, Ordering::SeqCst);
}

pub(crate) fn gate_clear(bit: u8) {
    gate();
    GATE.0.fetch_and(!bit, Ordering::SeqCst);
}

/// Enable or disable the metrics registry at runtime (the programmatic
/// form of `AOMP_METRICS=1`). Counters are monotonic and never reset:
/// read them as deltas between [`snapshot`]s.
pub fn set_metrics(enabled: bool) {
    if enabled {
        gate_set(F_METRICS);
    } else {
        gate_clear(F_METRICS);
    }
}

/// Whether the metrics registry is currently enabled.
pub fn metrics_enabled() -> bool {
    gate() & F_METRICS != 0
}

// ---------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------

macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)+) => {
        /// A monotonic runtime counter. `as usize` is the registry index;
        /// [`name`](Counter::name) is the stable text/JSON key.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[non_exhaustive]
        #[repr(usize)]
        pub enum Counter {
            $($(#[$doc])* $variant,)+
        }

        /// Number of counters in the registry.
        const N_COUNTERS: usize = [$($name),+].len();

        impl Counter {
            /// Every counter, in registry order.
            pub const ALL: [Counter; N_COUNTERS] = [$(Counter::$variant),+];

            /// Stable snake_case name used by the text and JSON renders.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)+
                }
            }
        }
    };
}

counters! {
    /// Multi-thread regions served by a leased hot team.
    RegionPooled => "region_pooled",
    /// Multi-thread regions that built a fresh team.
    RegionSpawned => "region_spawned",
    /// Size-1 regions run inline on the caller.
    RegionInline => "region_inline",
    /// Hot teams created on cache misses (lower = better reuse).
    TeamsCreated => "teams_created",
    /// Hot-team leases served from the cache.
    PoolCacheHit => "pool_cache_hit",
    /// Hot-team leases that missed the cache.
    PoolCacheMiss => "pool_cache_miss",
    /// Team barrier rounds completed (one tick per member per round).
    BarrierRounds => "barrier_rounds",
    /// Critical sections acquired inside a team.
    CriticalAcquired => "critical_acquired",
    /// Critical acquisitions that found the lock held (contention).
    CriticalContended => "critical_contended",
    /// Ordered sections entered.
    OrderedSections => "ordered_sections",
    /// Single/master broadcast values published.
    Broadcasts => "broadcasts",
    /// Chunk handouts: one static-block assignment per member.
    ChunkStaticBlock => "chunk_static_block",
    /// Chunk handouts: one static-cyclic assignment per member.
    ChunkStaticCyclic => "chunk_static_cyclic",
    /// Chunk handouts: dynamic-schedule chunks dispensed.
    ChunkDynamic => "chunk_dynamic",
    /// Chunk handouts: guided-schedule chunks dispensed.
    ChunkGuided => "chunk_guided",
    /// Chunk handouts: block-cyclic chunks dealt.
    ChunkBlockCyclic => "chunk_block_cyclic",
    /// Chunk handouts: adaptive-schedule chunks dispensed.
    ChunkAdaptive => "chunk_adaptive",
    /// Adaptive schedule: ranges adopted from another thread (steal-half).
    ChunkAdaptiveSteals => "chunk_adaptive_steals",
    /// Chunk handouts: taskloop bites. Nothing increments it any more: a
    /// taskloop is the adaptive `@For`, so its handouts count as
    /// `chunk_adaptive`. It stays in [`Counter::ALL`] because snapshot
    /// readers name it.
    ChunkTaskloop => "chunk_taskloop",
    /// Dependent tasks spawned into a [`deps::DepGroup`](crate::deps).
    DepTasks => "dep_tasks",
    /// Tasks handed to [`task::spawn`](crate::task)-family dispatch.
    TaskSpawned => "task_spawned",
    /// Tasks admitted to the shared task executor.
    TaskPooled => "task_pooled",
    /// Tasks that fell back to a dedicated thread.
    TaskDedicated => "task_dedicated",
    /// Tasks that degraded to inline execution on the caller.
    TaskInline => "task_inline",
    /// Future producers a getter took back off the executor's queue and
    /// ran itself (a subset of `task_pooled`, so the spawn books still
    /// read `task_spawned == task_pooled + task_dedicated + task_inline`).
    TaskRunByGetter => "task_run_by_getter",
    /// Team-scoped task joins completed (`TaskGroup::wait`, `FutureTask::get`).
    TaskJoins => "task_joins",
    /// Admission refusals because the executor was saturated.
    TaskRefusedSaturated => "task_refused_saturated",
    /// Executor workers entering their idle wait (polled or parked).
    ExecParks => "exec_parks",
    /// Executor workers leaving their idle wait.
    ExecUnparks => "exec_unparks",
    /// Team cancellations requested.
    CancelsRequested => "cancels_requested",
    /// Regions a runtime's stall watchdog declared stalled and
    /// force-cancelled (one tick per verdict).
    RegionStalled => "region_stalled",
    /// Waits (barrier, dispatch, join, broadcast, ordered, task join,
    /// executor idle) that the spin phase caught before the thread parked.
    WaitSpinHit => "wait_spin_hit",
    /// Waits that went on to park (spin budget spent, or no spin: no
    /// lock-free probe, slow site, scheduler hook).
    WaitParked => "wait_parked",
    /// Trace events dropped because a per-thread buffer filled up.
    TraceDropped => "trace_dropped",
    /// Serve: requests offered to a server's admission control.
    ServeSubmitted => "serve_submitted",
    /// Serve: requests admitted past a tenant's bounded queue.
    ServeAccepted => "serve_accepted",
    /// Serve: requests shed (rejected-newest) by admission control.
    ServeShed => "serve_shed",
    /// Serve: admitted requests that completed successfully.
    ServeCompleted => "serve_completed",
    /// Serve: admitted requests that missed their deadline (expired in
    /// queue, or stalled/timed out mid-execution).
    ServeDeadlineMissed => "serve_deadline_missed",
    /// Serve: admitted requests that failed from an (injected or real)
    /// panic or cancellation inside the request body.
    ServeFaulted => "serve_faulted",
    /// Serve: faults injected by a `serve::faults` plan.
    ServeFaultInjected => "serve_fault_injected",
    /// Serve: resubmissions performed by the retry/backoff helper.
    ServeRetries => "serve_retries",
    /// Replicated structures: write operations executed.
    NrWrites => "nr_writes",
    /// Replicated structures: read operations served from a replica.
    NrReads => "nr_reads",
    /// Replicated structures: append passes. Every write is its own
    /// pass, so this equals [`NrWrites`](Counter::NrWrites).
    NrCombines => "nr_combines",
    /// Replicated structures: help passes applying the log to a lagging
    /// replica so an appender could reclaim log space.
    NrHelps => "nr_helps",
    /// The share of `region_inline` an adaptive `if` clause chose
    /// ([`RegionConfig::adaptive`](crate::region::RegionConfig::adaptive)):
    /// regions configured for a team that ran alone because the team
    /// measured dearer.
    RegionGated => "region_gated",
}

// ---------------------------------------------------------------------
// Latency histograms
// ---------------------------------------------------------------------

/// Histogram bucket count: bucket `i` holds samples with
/// `ns < 2^i` (cumulatively: bucket index = bit length of the sample).
const BUCKETS: usize = 40;

macro_rules! lats {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)+) => {
        /// A latency histogram in the registry. `as usize` is the index;
        /// [`name`](Lat::name) is the stable text/JSON key.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[non_exhaustive]
        #[repr(usize)]
        pub enum Lat {
            $($(#[$doc])* $variant,)+
        }

        /// Number of latency histograms in the registry.
        const N_LATS: usize = [$($name),+].len();

        impl Lat {
            /// Every histogram, in registry order.
            pub const ALL: [Lat; N_LATS] = [$(Lat::$variant),+];

            /// Stable snake_case name used by the text and JSON renders.
            pub fn name(self) -> &'static str {
                match self {
                    $(Lat::$variant => $name,)+
                }
            }
        }
    };
}

lats! {
    /// Round-trip of a pooled region (entry + body + join): with an
    /// empty body this is the Figure 13 hot-team entry overhead.
    RegionPooled => "region_pooled",
    /// Round-trip of a spawned region (entry + body + join).
    RegionSpawned => "region_spawned",
    /// Round-trip of an inline (size-1) region.
    RegionInline => "region_inline",
    /// Time blocked at a team barrier.
    WaitBarrier => "wait_barrier",
    /// Time blocked acquiring a critical lock.
    WaitCritical => "wait_critical",
    /// Time blocked on a `Single` broadcast.
    WaitSingleBroadcast => "wait_single_broadcast",
    /// Time blocked on a `Master` broadcast.
    WaitMasterBroadcast => "wait_master_broadcast",
    /// Time blocked for an ordered-section turn.
    WaitOrdered => "wait_ordered",
    /// Time blocked in `TaskGroup::wait`.
    WaitTaskWait => "wait_task_wait",
    /// Time blocked in `FutureTask::get`.
    WaitFutureGet => "wait_future_get",
    /// Time blocked on a replicated structure (a replica's lock, its
    /// data lock, a log slot's stamp, or operation-log space).
    WaitReplicated => "wait_replicated",
    /// Time the master blocked joining its workers at region end.
    WaitJoin => "wait_join",
    /// Body execution time of one dispensed chunk (adaptive schedule) —
    /// the handout→completion signal the adapter's EWMA is built from.
    ChunkBody => "chunk_body",
    /// End-to-end latency of admitted serve requests (submit to
    /// completion, shed requests excluded).
    ServeRequest => "serve_request",
    /// Time an admitted serve request spent queued before a worker
    /// picked it up.
    ServeQueueWait => "serve_queue_wait",
}

impl Lat {
    fn from_wait(site: WaitSite) -> Lat {
        match site {
            WaitSite::Barrier => Lat::WaitBarrier,
            WaitSite::Critical => Lat::WaitCritical,
            WaitSite::SingleBroadcast => Lat::WaitSingleBroadcast,
            WaitSite::MasterBroadcast => Lat::WaitMasterBroadcast,
            WaitSite::Ordered => Lat::WaitOrdered,
            WaitSite::TaskWait => Lat::WaitTaskWait,
            WaitSite::FutureGet => Lat::WaitFutureGet,
            WaitSite::Replicated => Lat::WaitReplicated,
            // `WaitSite` is non_exhaustive towards future sites; fold
            // unknown ones into the join bucket rather than dropping.
            _ => Lat::WaitJoin,
        }
    }
}

struct Hist {
    count: AtomicU64,
    sum_ns: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

impl Hist {
    const fn new() -> Hist {
        Hist {
            count: ZERO,
            sum_ns: ZERO,
            buckets: [ZERO; BUCKETS],
        }
    }

    fn record(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Bucket index of a nanosecond sample: its bit length, capped.
#[inline]
fn bucket_of(ns: u64) -> usize {
    ((u64::BITS - ns.leading_zeros()) as usize).min(BUCKETS - 1)
}

struct Registry {
    counters: [AtomicU64; N_COUNTERS],
    hists: [Hist; N_LATS],
}

#[allow(clippy::declare_interior_mutable_const)]
const HIST_ZERO: Hist = Hist::new();

static REG: Registry = Registry {
    counters: [ZERO; N_COUNTERS],
    hists: [HIST_ZERO; N_LATS],
};

/// Bump `c` if metrics are enabled: one relaxed load when they are not.
#[inline]
pub(crate) fn count(c: Counter) {
    if gate() & F_METRICS != 0 {
        count_slow(c);
    }
}

#[cold]
fn count_slow(c: Counter) {
    REG.counters[c as usize].fetch_add(1, Ordering::Relaxed);
}

/// Record a latency sample if metrics are enabled.
pub(crate) fn record_lat(l: Lat, d: Duration) {
    if gate() & F_METRICS != 0 {
        REG.hists[l as usize].record(d);
    }
}

/// Record a latency sample in the process-global registry (no-op with
/// metrics off). Public so layers built on top of aomp can time their
/// own work, such as [`Lat::ServeRequest`]; their counters go through
/// [`Runtime::record_counter`](crate::runtime::Runtime::record_counter).
#[inline]
pub fn record_latency(l: Lat, d: Duration) {
    record_lat(l, d);
}

// ---------------------------------------------------------------------
// Per-runtime counter scopes
// ---------------------------------------------------------------------

/// A counters-only registry owned by one
/// [`Runtime`](crate::runtime::Runtime) instance.
///
/// Every runtime-attributed event goes through [`Scope::record`], which
/// ticks the scope and, when metrics are on, the process-global registry
/// above — so [`snapshot`] stays the union of all metrics-on activity,
/// and the scope attributes region/pool/task events to the runtime that
/// executed them, which is what makes two concurrent runtimes observably
/// disjoint. Latency histograms are deliberately *not* scoped: they are
/// keyed by wait site, not by runtime, and stay process-global.
///
/// A scope always records, whatever the `AOMP_METRICS` gate says.
pub(crate) struct Scope {
    counters: [AtomicU64; N_COUNTERS],
}

impl Default for Scope {
    fn default() -> Self {
        Self {
            counters: [ZERO; N_COUNTERS],
        }
    }
}

impl Scope {
    /// Record one event of this scope's runtime: in the scope (one
    /// relaxed RMW) and, when metrics are armed, in the process-global
    /// registry.
    #[inline]
    pub(crate) fn record(&self, c: Counter) {
        count(c);
        self.counters[c as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Copy this scope as a [`Snapshot`] (histograms read zero — they
    /// are process-global, see the type docs).
    pub(crate) fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
            hists: [HistSnapshot::default(); N_LATS],
        }
    }
}

// ---------------------------------------------------------------------
// Instrumentation helpers used by the runtime modules
// ---------------------------------------------------------------------

/// Started when a member registers at a wait site with metrics or trace
/// on; finishing it (guard drop) records the blocked duration.
pub(crate) struct WaitTimer {
    site: WaitSite,
    start: Instant,
    metrics: bool,
    traced: bool,
}

/// Begin timing a blocked wait. `g` is the gate value the caller already
/// loaded (so the whole wait registration costs one load when disabled).
#[inline]
pub(crate) fn wait_begin(g: u8, site: WaitSite) -> Option<WaitTimer> {
    if g & (F_METRICS | F_TRACE) != 0 {
        Some(WaitTimer {
            site,
            start: Instant::now(),
            metrics: g & F_METRICS != 0,
            traced: g & F_TRACE != 0,
        })
    } else {
        None
    }
}

/// Finish a wait begun by [`wait_begin`].
pub(crate) fn wait_end(t: WaitTimer) {
    let dur = t.start.elapsed();
    if t.metrics {
        REG.hists[Lat::from_wait(t.site) as usize].record(dur);
    }
    if t.traced {
        trace::record_wait(t.site, t.start, dur);
    }
}

/// Stamp a region entry if metrics are on (regions also show up in the
/// trace via their `RegionStart`/`RegionEnd` hook events).
#[inline]
pub(crate) fn region_timer() -> Option<Instant> {
    if gate() & F_METRICS != 0 {
        Some(Instant::now())
    } else {
        None
    }
}

/// Record a region round-trip begun by [`region_timer`].
pub(crate) fn region_done(t: Option<Instant>, l: Lat) {
    if let Some(t0) = t {
        record_lat(l, t0.elapsed());
    }
}

/// Each `ChunkHandout` kind (as [`Schedule`](crate::schedule::Schedule)
/// reports it) with the counter its events tick and its trace name.
/// `static-cyclic` events tick nothing: that kind emits one event per
/// iteration, so [`chunk_cyclic`] counts its assignments instead.
const CHUNK_KINDS: [(&str, Option<Counter>, &str); 6] = [
    (
        "static-block",
        Some(Counter::ChunkStaticBlock),
        "chunk:static-block",
    ),
    ("static-cyclic", None, "chunk:static-cyclic"),
    ("dynamic", Some(Counter::ChunkDynamic), "chunk:dynamic"),
    ("guided", Some(Counter::ChunkGuided), "chunk:guided"),
    (
        "block-cyclic",
        Some(Counter::ChunkBlockCyclic),
        "chunk:block-cyclic",
    ),
    ("adaptive", Some(Counter::ChunkAdaptive), "chunk:adaptive"),
];

/// The counter and trace name of handout `kind`; an unknown kind ticks
/// nothing and traces as plain `chunk`.
fn chunk_kind(kind: &str) -> (Option<Counter>, &'static str) {
    CHUNK_KINDS
        .iter()
        .find(|k| k.0 == kind)
        .map_or((None, "chunk"), |&(_, counter, name)| (counter, name))
}

/// One static-cyclic assignment was handed to a member. Counted here
/// (once per member, like the other static schedule) rather than from
/// hook events: when a hook is registered the cyclic arm emits one
/// iteration-space `ChunkHandout` *per iteration* — its assignment is
/// non-contiguous — and counting those would inflate the metric.
#[inline]
pub(crate) fn chunk_cyclic(first_iter: u64, iters: u64) {
    let g = gate();
    if g & F_METRICS != 0 {
        count_slow(Counter::ChunkStaticCyclic);
    }
    if g & F_TRACE != 0 {
        trace::record_instant(
            "chunk:static-cyclic",
            Some(("first", first_iter as i64)),
            Some(("iters", iters as i64)),
        );
    }
}

/// Route a decision-site event into counters and the trace. Called from
/// the hook layer's cold path with the gate value it loaded.
pub(crate) fn record_event(g: u8, ev: &HookEvent) {
    if g & F_METRICS != 0 {
        let c = match ev {
            HookEvent::BarrierExit { .. } => Some(Counter::BarrierRounds),
            HookEvent::CriticalAcquire { .. } => Some(Counter::CriticalAcquired),
            HookEvent::OrderedEnter { .. } => Some(Counter::OrderedSections),
            HookEvent::BroadcastPublish { .. } => Some(Counter::Broadcasts),
            HookEvent::TaskJoin { .. } => Some(Counter::TaskJoins),
            HookEvent::CancelRequested { .. } => Some(Counter::CancelsRequested),
            HookEvent::ChunkHandout { kind, .. } => chunk_kind(kind).0,
            _ => None,
        };
        if let Some(c) = c {
            count_slow(c);
        }
    }
    if g & F_TRACE != 0 {
        trace::record_hook_event(ev);
    }
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// A point-in-time copy of the metrics registry. Counters are monotonic,
/// so the difference of two snapshots ([`Snapshot::since`]) attributes
/// exactly the activity between them.
#[derive(Debug, Clone)]
pub struct Snapshot {
    counters: [u64; N_COUNTERS],
    hists: [HistSnapshot; N_LATS],
}

/// One histogram's totals and buckets at snapshot time.
#[derive(Debug, Clone, Copy)]
pub struct HistSnapshot {
    count: u64,
    sum_ns: u64,
    buckets: [u64; BUCKETS],
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            count: 0,
            sum_ns: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl HistSnapshot {
    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Mean sample, nanoseconds (0 with no samples).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Upper bound (ns, exclusive) of the smallest bucket such that at
    /// least `q` (0..=1) of the samples fall at or below it — a coarse
    /// quantile with power-of-two resolution. 0 with no samples.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target.max(1) {
                return 1u64 << i.min(63);
            }
        }
        1u64 << (BUCKETS - 1).min(63)
    }

    fn since(&self, base: &HistSnapshot) -> HistSnapshot {
        let mut out = HistSnapshot {
            count: self.count.saturating_sub(base.count),
            sum_ns: self.sum_ns.saturating_sub(base.sum_ns),
            buckets: [0; BUCKETS],
        };
        for i in 0..BUCKETS {
            out.buckets[i] = self.buckets[i].saturating_sub(base.buckets[i]);
        }
        out
    }
}

/// Copy the current registry. Cheap (a few hundred relaxed loads). It
/// only moves while metrics are on; a runtime's own counts, kept whatever
/// the gate says, are read with
/// [`Runtime::metrics_snapshot`](crate::runtime::Runtime::metrics_snapshot).
pub fn snapshot() -> Snapshot {
    let mut counters = [0u64; N_COUNTERS];
    for (i, c) in REG.counters.iter().enumerate() {
        counters[i] = c.load(Ordering::Relaxed);
    }
    let mut hists = [HistSnapshot::default(); N_LATS];
    for (i, h) in REG.hists.iter().enumerate() {
        hists[i] = hist_snapshot(h);
    }
    Snapshot { counters, hists }
}

fn hist_snapshot(h: &Hist) -> HistSnapshot {
    let mut s = HistSnapshot {
        count: h.count.load(Ordering::Relaxed),
        sum_ns: h.sum_ns.load(Ordering::Relaxed),
        buckets: [0; BUCKETS],
    };
    for (j, b) in h.buckets.iter().enumerate() {
        s.buckets[j] = b.load(Ordering::Relaxed);
    }
    s
}

impl Snapshot {
    /// Value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// One latency histogram.
    pub fn hist(&self, l: Lat) -> &HistSnapshot {
        &self.hists[l as usize]
    }

    /// The activity between `base` and this snapshot.
    pub fn since(&self, base: &Snapshot) -> Snapshot {
        let mut counters = [0u64; N_COUNTERS];
        for (c, (a, b)) in counters
            .iter_mut()
            .zip(self.counters.iter().zip(base.counters.iter()))
        {
            *c = a.saturating_sub(*b);
        }
        let mut hists = [HistSnapshot::default(); N_LATS];
        for (h, (a, b)) in hists
            .iter_mut()
            .zip(self.hists.iter().zip(base.hists.iter()))
        {
            *h = a.since(b);
        }
        Snapshot { counters, hists }
    }

    /// Human-readable table: non-zero counters, then non-empty
    /// histograms with count / mean / coarse p50 / p99.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("counters:\n");
        let mut any = false;
        for c in Counter::ALL {
            let v = self.counter(c);
            if v != 0 {
                any = true;
                out.push_str(&format!("  {:<24} {v}\n", c.name()));
            }
        }
        if !any {
            out.push_str("  (all zero)\n");
        }
        out.push_str("latency (ns):\n");
        any = false;
        for l in Lat::ALL {
            let h = self.hist(l);
            if h.count() != 0 {
                any = true;
                out.push_str(&format!(
                    "  {:<24} n={:<8} mean={:<12.0} p50<{} p99<{}\n",
                    l.name(),
                    h.count(),
                    h.mean_ns(),
                    h.quantile_ns(0.5),
                    h.quantile_ns(0.99),
                ));
            }
        }
        if !any {
            out.push_str("  (no samples)\n");
        }
        out
    }

    /// JSON object with every counter and histogram (zeros included):
    /// `{"counters": {...}, "latency_ns": {name: {"count", "sum",
    /// "mean", "p50", "p99"}}}`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", c.name(), self.counter(*c)));
        }
        out.push_str("\n  },\n  \"latency_ns\": {");
        for (i, l) in Lat::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let h = self.hist(*l);
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"mean\": {:.1}, \"p50\": {}, \"p99\": {}}}",
                l.name(),
                h.count(),
                h.sum_ns(),
                h.mean_ns(),
                h.quantile_ns(0.5),
                h.quantile_ns(0.99),
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

// ---------------------------------------------------------------------
// Trace recorder
// ---------------------------------------------------------------------

/// Per-thread event recorder exporting
/// [chrome://tracing JSON](https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
/// (the "Trace Event Format"; also loadable in Perfetto).
///
/// While running ([`start`], or `AOMP_TRACE=out.json` in the
/// environment), every decision-site event and every timed wait is
/// appended to a buffer owned by the recording thread (no cross-thread
/// contention on the hot path; buffers are capped, overflow ticks
/// [`Counter::TraceDropped`] when metrics are on). [`stop_to_file`]
/// stops recording, drains all buffers and writes one JSON document.
pub mod trace {
    use super::*;

    /// Cap per thread, to bound memory on runaway runs.
    const MAX_EVENTS_PER_THREAD: usize = 1 << 18;

    struct Rec {
        name: &'static str,
        /// Trace-event phase: `B`/`E` (nested slice), `X` (complete
        /// slice with `dur`), `i` (instant).
        ph: char,
        ts_ns: u64,
        dur_ns: u64,
        tid: u64,
        args: [Option<(&'static str, i64)>; 2],
    }

    struct ThreadBuf {
        tid: u64,
        name: Option<String>,
        events: Mutex<Vec<Rec>>,
    }

    fn registry() -> &'static Mutex<Vec<&'static ThreadBuf>> {
        static R: OnceLock<Mutex<Vec<&'static ThreadBuf>>> = OnceLock::new();
        R.get_or_init(|| Mutex::new(Vec::new()))
    }

    fn epoch() -> Instant {
        static E: OnceLock<Instant> = OnceLock::new();
        *E.get_or_init(Instant::now)
    }

    fn now_ns() -> u64 {
        u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    thread_local! {
        static LOCAL: std::cell::OnceCell<&'static ThreadBuf> = const { std::cell::OnceCell::new() };
    }

    fn local() -> &'static ThreadBuf {
        LOCAL.with(|c| {
            *c.get_or_init(|| {
                static NEXT_TID: AtomicU64 = AtomicU64::new(1);
                // One leaked registration per OS thread that ever records
                // while tracing: bounded by thread count, reused across
                // start/stop cycles.
                let buf: &'static ThreadBuf = Box::leak(Box::new(ThreadBuf {
                    tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                    name: std::thread::current().name().map(str::to_owned),
                    events: Mutex::new(Vec::new()),
                }));
                registry().lock().push(buf);
                buf
            })
        })
    }

    fn push(rec: Rec) {
        let buf = local();
        let mut g = buf.events.lock();
        if g.len() < MAX_EVENTS_PER_THREAD {
            g.push(rec);
        } else {
            count(Counter::TraceDropped);
        }
    }

    fn push_now(name: &'static str, ph: char, args: [Option<(&'static str, i64)>; 2]) {
        let ts_ns = now_ns();
        let tid = local().tid;
        push(Rec {
            name,
            ph,
            ts_ns,
            dur_ns: 0,
            tid,
            args,
        });
    }

    /// Start (or restart) recording: clears all buffers and enables the
    /// trace bit. Events from every thread in the process are captured.
    pub fn start() {
        epoch();
        for buf in registry().lock().iter() {
            buf.events.lock().clear();
        }
        gate_set(F_TRACE);
    }

    /// Stop recording. Returns the number of buffered events. The
    /// buffers are kept until the next [`start`] or drained by
    /// [`stop_to_file`].
    pub fn stop() -> usize {
        gate_clear(F_TRACE);
        registry()
            .lock()
            .iter()
            .map(|b| b.events.lock().len())
            .sum()
    }

    /// Whether the recorder is currently running.
    pub fn running() -> bool {
        gate() & F_TRACE != 0
    }

    /// Stop recording, drain every thread's buffer and write one
    /// chrome://tracing JSON document to `path`. Returns the number of
    /// events written.
    pub fn stop_to_file(path: &str) -> std::io::Result<usize> {
        gate_clear(F_TRACE);
        let mut events: Vec<Rec> = Vec::new();
        let mut names: Vec<(u64, String)> = Vec::new();
        for buf in registry().lock().iter() {
            if let Some(n) = &buf.name {
                names.push((buf.tid, n.clone()));
            }
            events.append(&mut buf.events.lock());
        }
        events.sort_by_key(|r| r.ts_ns);
        let n = events.len();
        std::fs::write(path, render(&events, &names))?;
        Ok(n)
    }

    /// If `AOMP_TRACE=<path>` armed the recorder at startup, stop and
    /// write the file now; otherwise do nothing. A program that arms the
    /// recorder this way must call this once before exiting: nothing in
    /// the library calls it.
    pub fn flush_env() -> std::io::Result<usize> {
        match env_path() {
            Some(path) => stop_to_file(&path),
            None => Ok(0),
        }
    }

    fn env_path_slot() -> &'static Mutex<Option<String>> {
        static P: OnceLock<Mutex<Option<String>>> = OnceLock::new();
        P.get_or_init(|| Mutex::new(None))
    }

    pub(super) fn arm_env(path: String) {
        epoch();
        *env_path_slot().lock() = Some(path);
    }

    /// The `AOMP_TRACE` output path, if the recorder was armed by the
    /// environment.
    pub fn env_path() -> Option<String> {
        gate();
        env_path_slot().lock().clone()
    }

    fn render(events: &[Rec], names: &[(u64, String)]) -> String {
        let mut out = String::with_capacity(events.len() * 96 + 256);
        out.push_str("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
        let mut first = true;
        for (tid, name) in names {
            sep(&mut out, &mut first);
            out.push_str(&format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
                 \"args\": {{\"name\": \"{}\"}}}}",
                escape(name)
            ));
        }
        for r in events {
            sep(&mut out, &mut first);
            let ts_us = r.ts_ns as f64 / 1000.0;
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"ph\": \"{}\", \"ts\": {ts_us:.3}, \"pid\": 1, \"tid\": {}",
                r.name, r.ph, r.tid
            ));
            if r.ph == 'X' {
                out.push_str(&format!(", \"dur\": {:.3}", r.dur_ns as f64 / 1000.0));
            }
            if r.ph == 'i' {
                out.push_str(", \"s\": \"t\"");
            }
            if r.args.iter().any(Option::is_some) {
                out.push_str(", \"args\": {");
                let mut afirst = true;
                for a in r.args.iter().flatten() {
                    if !afirst {
                        out.push_str(", ");
                    }
                    afirst = false;
                    out.push_str(&format!("\"{}\": {}", a.0, a.1));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }

    fn sep(out: &mut String, first: &mut bool) {
        if !*first {
            out.push_str(",\n");
        } else {
            out.push('\n');
        }
        *first = false;
    }

    fn escape(s: &str) -> String {
        s.chars()
            .filter(|c| !c.is_control())
            .map(|c| match c {
                '"' => "\\\"".to_owned(),
                '\\' => "\\\\".to_owned(),
                c => c.to_string(),
            })
            .collect()
    }

    pub(super) fn record_instant(
        name: &'static str,
        a0: Option<(&'static str, i64)>,
        a1: Option<(&'static str, i64)>,
    ) {
        push_now(name, 'i', [a0, a1]);
    }

    pub(super) fn record_wait(site: WaitSite, start: Instant, dur: Duration) {
        let name = match site {
            WaitSite::Barrier => "wait:barrier",
            WaitSite::Critical => "wait:critical",
            WaitSite::SingleBroadcast => "wait:single-broadcast",
            WaitSite::MasterBroadcast => "wait:master-broadcast",
            WaitSite::Ordered => "wait:ordered",
            WaitSite::TaskWait => "wait:task-wait",
            WaitSite::FutureGet => "wait:future-get",
            WaitSite::Replicated => "wait:replicated",
            _ => "wait:join",
        };
        let ts_ns = u64::try_from(start.duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX);
        let dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        let tid = local().tid;
        push(Rec {
            name,
            ph: 'X',
            ts_ns,
            dur_ns,
            tid,
            args: [None, None],
        });
    }

    pub(super) fn record_hook_event(ev: &HookEvent) {
        match *ev {
            HookEvent::RegionStart { size, level, .. } => push_now(
                "region",
                'B',
                [Some(("size", size as i64)), Some(("level", level as i64))],
            ),
            HookEvent::RegionEnd { .. } => push_now("region", 'E', [None, None]),
            HookEvent::MemberStart { tid, .. } => {
                push_now("member", 'B', [Some(("tid", tid as i64)), None])
            }
            HookEvent::MemberEnd { .. } => push_now("member", 'E', [None, None]),
            HookEvent::BarrierExit { leader, .. } => push_now(
                "barrier-exit",
                'i',
                [Some(("leader", i64::from(leader))), None],
            ),
            HookEvent::CriticalAcquire { .. } => push_now("critical", 'B', [None, None]),
            HookEvent::CriticalRelease { .. } => push_now("critical", 'E', [None, None]),
            HookEvent::ChunkHandout { kind, lo, hi, .. } => {
                push_now(
                    chunk_kind(kind).1,
                    'i',
                    [Some(("lo", lo as i64)), Some(("hi", hi as i64))],
                );
            }
            HookEvent::BroadcastPublish { .. } => push_now("broadcast", 'i', [None, None]),
            HookEvent::BroadcastReceive { tid, .. } => {
                push_now("broadcast-recv", 'i', [Some(("tid", tid as i64)), None])
            }
            HookEvent::OrderedEnter { ticket, .. } => {
                push_now("ordered", 'B', [Some(("ticket", ticket as i64)), None])
            }
            HookEvent::OrderedExit { .. } => push_now("ordered", 'E', [None, None]),
            HookEvent::TaskSpawn { tid, .. } => {
                push_now("task-spawn", 'i', [Some(("tid", tid as i64)), None])
            }
            HookEvent::TaskJoin { .. } => push_now("task-join", 'i', [None, None]),
            HookEvent::TaskDepRelease { node, .. } => {
                push_now("task-dep-release", 'i', [Some(("node", node as i64)), None])
            }
            HookEvent::TaskDepReady { node, .. } => {
                push_now("task-dep-ready", 'i', [Some(("node", node as i64)), None])
            }
            HookEvent::CancelRequested { tid, .. } => {
                push_now("cancel", 'i', [Some(("tid", tid as i64)), None])
            }
            HookEvent::NrCombine { lo, hi, .. } => push_now(
                "nr-combine",
                'i',
                [Some(("lo", lo as i64)), Some(("hi", hi as i64))],
            ),
            // NrAppend/NrSync are one per operation — too chatty to plot;
            // WaitRegister is covered by the timed wait slice; explicit
            // cancellation-point polls are too chatty to plot.
            HookEvent::NrAppend { .. }
            | HookEvent::NrSync { .. }
            | HookEvent::CancellationPoint { .. }
            | HookEvent::WaitRegister { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_is_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn gate_has_a_line_to_itself() {
        let at = &GATE as *const Line<AtomicU8> as usize;
        assert_eq!(at % 128, 0, "GATE at {at:#x}");
        assert_eq!(std::mem::size_of_val(&GATE), 128);
    }

    #[test]
    fn counter_names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn gated_count_needs_metrics_enabled() {
        // Metrics may be enabled by a concurrent test; only assert the
        // enabled direction, which is monotonic under concurrency.
        set_metrics(true);
        let before = snapshot();
        count(Counter::CancelsRequested);
        let d = snapshot().since(&before);
        assert!(d.counter(Counter::CancelsRequested) >= 1);
        set_metrics(false);
    }

    #[test]
    fn hist_records_and_renders() {
        set_metrics(true);
        let before = snapshot();
        record_lat(Lat::WaitOrdered, Duration::from_nanos(900));
        record_lat(Lat::WaitOrdered, Duration::from_micros(3));
        let d = snapshot().since(&before);
        set_metrics(false);
        let h = d.hist(Lat::WaitOrdered);
        assert!(h.count() >= 2);
        assert!(h.sum_ns() >= 3900);
        assert!(h.mean_ns() > 0.0);
        assert!(h.quantile_ns(0.5) >= 1024);
        let text = d.render_text();
        assert!(text.contains("wait_ordered"), "{text}");
        let json = d.render_json();
        assert!(json.contains("\"wait_ordered\""), "{json}");
    }

    #[test]
    fn quantile_of_empty_hist_is_zero() {
        let h = HistSnapshot::default();
        assert_eq!(h.quantile_ns(0.5), 0);
        assert_eq!(h.mean_ns(), 0.0);
    }

    #[test]
    fn render_json_is_parseable_shape() {
        let s = snapshot();
        let j = s.render_json();
        // Minimal structural checks (the full parse lives in the
        // integration tests, which have a JSON parser available).
        assert!(j.trim_start().starts_with('{'));
        assert!(j.trim_end().ends_with('}'));
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced braces: {j}"
        );
        assert!(j.contains("\"counters\""));
        assert!(j.contains("\"latency_ns\""));
        assert!(j.contains("\"region_pooled\""));
    }
}
