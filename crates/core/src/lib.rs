//! # aomp — an OpenMP-mimic runtime for Rust
//!
//! This crate is the execution-model substrate of the AOmpLib reproduction
//! (Medeiros & Sobral, *AOmpLib: An Aspect Library for Large-Scale
//! Multi-Core Parallel Programming*, ICPP 2013).
//!
//! The paper's execution model is OpenMP's, bound to *method executions*:
//!
//! * **Parallel regions** ([`region::parallel`]) — the master thread creates
//!   a team of threads; every thread in the team executes the region body
//!   and implicitly joins at the end.
//! * **Work sharing** ([`workshare::ForConstruct`]) — *for methods* expose a
//!   loop's iteration space as `(start, end, step)` parameters; the
//!   construct rewrites the range per thread according to a
//!   [`schedule::Schedule`] (static by blocks, static cyclic, dynamic, or
//!   the guided extension).
//! * **Synchronisation** — team [`barrier`]s, named [`critical`] sections
//!   whose scope is *all* threads in the process (as in the paper),
//!   [`sync::Single`] / [`sync::Master`] constructs with result broadcast,
//!   readers/writer constructs, and [`workshare::Ordered`] sections.
//! * **Tasks** ([`task`]) — `@Task`-style spawned activities, `@TaskWait`
//!   groups and `@FutureTask`/`@FutureResult` futures backed by a one-shot
//!   channel.
//! * **Data sharing** ([`threadlocal`]) — `@ThreadLocalField` per-thread
//!   copies with the paper's read-initialisation rule and `@Reduce` merge
//!   points via the [`threadlocal::Reducer`] trait.
//! * **Observability** ([`obs`]) — opt-in runtime counters, latency
//!   histograms and chrome://tracing export (`AOMP_METRICS=1`,
//!   `AOMP_TRACE=out.json`), one relaxed atomic load per site when off.
//! * **Robustness** ([`error`], [`region::try_parallel`]) — panic
//!   poisoning, OpenMP 4.0-style team cancellation
//!   ([`ctx::cancel_team`] / [`ctx::cancellation_point`]), bounded waits,
//!   and a stall watchdog
//!   ([`RegionConfig::stall_deadline`](region::RegionConfig::stall_deadline))
//!   that converts deadlocks and hung workers into
//!   [`RegionError::Stalled`](error::RegionError) diagnoses.
//! * **Runtime instances** ([`Runtime`]) — every process-global above
//!   (team size, parallel kill switch, hot-team cache, task executor, counters)
//!   lives on an instantiable handle; the free functions are wrappers
//!   over a lazily-built default runtime, and [`Runtime::builder`] gives
//!   isolated runtimes that coexist without sharing workers or state and
//!   tear down (joining their threads) on drop.
//!
//! Sequential semantics are intrinsic: every construct degrades to plain
//! sequential execution when no team is active, so a program whose
//! parallelism modules are unplugged (see the `aomp-weaver` crate) is a
//! valid sequential program — the property the paper calls *sequential
//! semantics / incremental development*.
//!
//! ## Quick start
//!
//! ```
//! use aomp::prelude::*;
//! use std::sync::atomic::{AtomicI64, Ordering};
//!
//! let sum = AtomicI64::new(0);
//! let for_c = ForConstruct::new(Schedule::StaticBlock);
//! region::parallel_with(RegionConfig::new().threads(4), || {
//!     // A "for method": first three parameters are (start, end, step).
//!     for_c.execute(LoopRange::new(0, 100, 1), |lo, hi, step| {
//!         let mut local = 0;
//!         let mut i = lo;
//!         while i < hi {
//!             local += i;
//!             i += step;
//!         }
//!         sum.fetch_add(local, Ordering::Relaxed);
//!     });
//! });
//! assert_eq!(sum.load(Ordering::Relaxed), (0..100).sum::<i64>());
//! ```

#![warn(missing_docs)]

pub mod barrier;
pub mod cell;
pub mod check;
pub mod clock;
pub mod critical;
pub mod ctx;
pub mod deps;
pub mod error;
pub(crate) mod executor;
pub mod hook;
pub mod nr;
pub mod obs;
pub mod pool;
pub mod range;
pub mod reduction;
pub mod region;
pub mod runtime;
pub mod schedule;
pub mod sync;
pub mod task;
pub mod threadlocal;
pub(crate) mod wait;
pub(crate) mod watchdog;
pub mod workshare;

pub use crate::runtime::{Runtime, RuntimeBuilder, RuntimeGuard};

/// Convenient glob import for typical AOmpLib-style programs.
pub mod prelude {
    pub use crate::critical::{critical, critical_named, CriticalHandle};
    pub use crate::ctx::{
        barrier, cancel_team, cancellation_point, in_parallel, team_size, thread_id,
    };
    pub use crate::deps::{Dep, DepError, DepGroup, DepMode, Tag, TaskloopConstruct};
    pub use crate::error::{Cancelled, RegionError, TaskPanicked, WaitSite, WaitTimedOut};
    pub use crate::nr::{Dispatch, Replicated};
    pub use crate::pool::TeamPool;
    pub use crate::range::LoopRange;
    pub use crate::reduction::{
        FnReducer, MaxReducer, MinReducer, ProdReducer, SumReducer, VecSumReducer,
    };
    pub use crate::region::{self, RegionConfig};
    pub use crate::runtime::{self, Runtime};
    pub use crate::schedule::Schedule;
    pub use crate::sync::{Master, RwConstruct, Single};
    pub use crate::task::{self, FutureTask, TaskGroup};
    pub use crate::threadlocal::{Reducer, ThreadLocalField};
    pub use crate::workshare::{ForConstruct, Ordered};
}
