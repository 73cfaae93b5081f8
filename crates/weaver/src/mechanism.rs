//! Mechanisms: the parallelism semantics an aspect attaches to matched
//! join points — the library side of paper Table 1.
//!
//! Each [`Mechanism`] owns its runtime construct instance (its
//! `ForConstruct`, `Master`, lock, …), so distinct aspect instances get
//! distinct state — the property the paper highlights for the pointcut
//! style ("each aspect instance can use a different lock").

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use aomp::critical::CriticalHandle;
use aomp::deps::{Dep, DepGroup, TaskloopConstruct};
use aomp::range::LoopRange;
use aomp::region::{Gate, RegionConfig};
use aomp::schedule::Schedule;
use aomp::sync::{Master, RwConstruct, Single};
use aomp::workshare::ForConstruct;

use crate::joinpoint::JoinPoint;

/// Application-specific advice — the escape hatch behind the paper's
/// "case specific" aspects (Table 2, Sparse) and §III-C's "parallelism
/// specific code".
///
/// Default implementations just proceed, so an implementor overrides only
/// the join-point shapes it cares about. Inside the advice,
/// [`aomp::ctx::thread_id`] provides the paper's `getThreadId()`.
pub trait CustomAdvice: Send + Sync {
    /// Around-advice for plain join points.
    fn around(&self, jp: &JoinPoint<'_>, proceed: &mut dyn FnMut()) {
        let _ = jp;
        proceed();
    }

    /// Around-advice for for-method join points. `proceed` takes the
    /// (possibly rewritten) `(start, end, step)` triple and may be called
    /// any number of times — e.g. once per application-specific chunk.
    fn around_for(
        &self,
        jp: &JoinPoint<'_>,
        range: LoopRange,
        proceed: &mut dyn FnMut(i64, i64, i64),
    ) {
        let _ = jp;
        proceed(range.start, range.end, range.step);
    }
}

/// Semantics attachable to join points. Construct one via the associated
/// functions and [`bind`](crate::aspect::AspectBuilder::bind) it to a
/// [`Pointcut`](crate::pointcut::Pointcut).
pub struct Mechanism {
    pub(crate) kind: MechanismKind,
}

pub(crate) enum MechanismKind {
    Parallel(RegionConfig, Option<Gates>),
    For { construct: ForConstruct },
    BarrierBefore,
    BarrierAfter,
    MasterGate { construct: Master },
    SingleGate { construct: Single },
    Critical { handle: CriticalHandle },
    Reader { rw: Arc<RwConstruct> },
    Writer { rw: Arc<RwConstruct> },
    ReduceAfter { action: Arc<dyn Fn() + Send + Sync> },
    Custom { advice: Arc<dyn CustomAdvice> },
    Task { group: DepGroup, deps: Vec<Dep> },
    Taskloop { construct: TaskloopConstruct },
}

impl std::fmt::Debug for Mechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Mechanism::{}", self.kind_name())
    }
}

impl Mechanism {
    /// `@Parallel` — the matched method execution becomes a parallel
    /// region. Configure with [`threads`](Self::threads),
    /// [`cancellable`](Self::cancellable),
    /// [`stall_deadline`](Self::stall_deadline) and
    /// [`adaptive`](Self::adaptive).
    pub fn parallel() -> Self {
        Self {
            kind: MechanismKind::Parallel(RegionConfig::new(), None),
        }
    }

    /// Apply `set` to the [`RegionConfig`] a [`parallel`](Self::parallel)
    /// mechanism enters its regions with.
    fn region(mut self, setter: &str, set: impl FnOnce(RegionConfig) -> RegionConfig) -> Self {
        match &mut self.kind {
            MechanismKind::Parallel(cfg, _) => *cfg = set(std::mem::take(cfg)),
            _ => panic!("{setter}() only applies to Mechanism::parallel()"),
        }
        self
    }

    /// Set the team size of a [`parallel`](Self::parallel) mechanism —
    /// `@Parallel(threads = n)` / overriding `numThreads()`.
    pub fn threads(self, n: usize) -> Self {
        self.region("threads", |cfg| cfg.threads(n))
    }

    /// Control nesting of a [`parallel`](Self::parallel) mechanism.
    pub fn nested(self, nested: bool) -> Self {
        self.region("nested", |cfg| cfg.nested(nested))
    }

    /// Allow [`aomp::ctx::cancel_team`] inside regions woven by this
    /// mechanism — OpenMP 4.0 requires cancellation to be activated.
    pub fn cancellable(self) -> Self {
        self.region("cancellable", |cfg| cfg.cancellable(true))
    }

    /// Arm the stall watchdog for regions woven by this mechanism — see
    /// [`RegionConfig::stall_deadline`].
    pub fn stall_deadline(self, deadline: std::time::Duration) -> Self {
        self.region("stall_deadline", |cfg| cfg.stall_deadline(deadline))
    }

    /// Pin regions woven by this [`parallel`](Self::parallel) mechanism
    /// to an explicit [`aomp::Runtime`] — see
    /// [`RegionConfig::runtime`]. The handle is cheap to clone; the
    /// mechanism keeps the runtime alive for as long as the aspect is
    /// woven.
    pub fn runtime(self, rt: &aomp::Runtime) -> Self {
        self.region("runtime", |cfg| cfg.runtime(rt))
    }

    /// OpenMP's `if` clause, decided by measurement, for regions woven by
    /// this [`parallel`](Self::parallel) mechanism — see
    /// [`RegionConfig::adaptive`]. A region whose body costs less than
    /// its team round trip runs on the calling thread alone; one whose
    /// body the team speeds up keeps its team.
    ///
    /// The binding keeps one [`Gate`] per join-point name it matches, so
    /// a glob pointcut over `Evolib.*.evaluate` measures
    /// `Evolib.GA.evaluate` and `Evolib.DE.evaluate` apart. The gates live
    /// as long as the deployed module: undeploying drops them, and a new
    /// deployment starts measuring afresh.
    ///
    /// Opt in only where the body's result does not depend on the team
    /// size — a join point woven with a work-share, say — since a gated
    /// entry runs with a team of one.
    pub fn adaptive(mut self) -> Self {
        match &mut self.kind {
            MechanismKind::Parallel(_, gates) => *gates = Some(Gates::default()),
            _ => panic!("adaptive() only applies to Mechanism::parallel()"),
        }
        self
    }

    /// `@For(schedule = …)` — work-share a for method across the team.
    pub fn for_loop(schedule: Schedule) -> Self {
        Self {
            kind: MechanismKind::For {
                construct: ForConstruct::new(schedule),
            },
        }
    }

    /// `@For` without the trailing barrier of dynamic/guided schedules.
    pub fn for_loop_nowait(schedule: Schedule) -> Self {
        Self {
            kind: MechanismKind::For {
                construct: ForConstruct::new(schedule).nowait(),
            },
        }
    }

    /// `@BarrierBefore` — team barrier before the method executes.
    pub fn barrier_before() -> Self {
        Self {
            kind: MechanismKind::BarrierBefore,
        }
    }

    /// `@BarrierAfter` — team barrier after the method completes.
    pub fn barrier_after() -> Self {
        Self {
            kind: MechanismKind::BarrierAfter,
        }
    }

    /// `@Master` — only the team master executes the method; for
    /// value join points the result is broadcast to the whole team.
    pub fn master() -> Self {
        Self {
            kind: MechanismKind::MasterGate {
                construct: Master::new(),
            },
        }
    }

    /// `@Single` — exactly one (first-arriving) thread executes the
    /// method; for value join points the result is broadcast.
    pub fn single() -> Self {
        Self {
            kind: MechanismKind::SingleGate {
                construct: Single::new(),
            },
        }
    }

    /// `@Critical` with this aspect instance's own lock — the
    /// `criticalUsingSharedLock` variant scoped to one mechanism.
    pub fn critical() -> Self {
        Self {
            kind: MechanismKind::Critical {
                handle: CriticalHandle::new(),
            },
        }
    }

    /// `@Critical(id = name)` — process-wide named lock.
    pub fn critical_named(id: &str) -> Self {
        Self {
            kind: MechanismKind::Critical {
                handle: CriticalHandle::named(id),
            },
        }
    }

    /// `@Critical` sharing an explicit handle — the captured-lock /
    /// shared-lock pointcut variants.
    pub fn critical_with(handle: CriticalHandle) -> Self {
        Self {
            kind: MechanismKind::Critical { handle },
        }
    }

    /// `@Replicated` — [`critical`](Self::critical) under another name:
    /// the same owner-word lock, run on the calling member. Flat combining
    /// lost to that lock at every section size measured, and node
    /// replication's NUMA win needs more than one node; replicated *data*
    /// is [`aomp::nr::Replicated`].
    pub fn replicated() -> Self {
        Self::critical()
    }

    /// `@Replicated(id = name)` — [`critical_named`](Self::critical_named):
    /// one name space, so it excludes `@Critical(id = name)` too.
    pub fn replicated_named(id: &str) -> Self {
        Self::critical_named(id)
    }

    /// `@Reader` — shared access through `rw`. Pair with
    /// [`writer`](Self::writer) on the same construct.
    pub fn reader(rw: Arc<RwConstruct>) -> Self {
        Self {
            kind: MechanismKind::Reader { rw },
        }
    }

    /// `@Writer` — exclusive access through `rw`.
    pub fn writer(rw: Arc<RwConstruct>) -> Self {
        Self {
            kind: MechanismKind::Writer { rw },
        }
    }

    /// `@Reduce` — after the matched call completes on all threads
    /// (team barrier), the master runs `action` (typically
    /// [`ThreadLocalField::reduce`](aomp::threadlocal::ThreadLocalField::reduce)),
    /// then the team barriers again so every thread observes the merged
    /// value.
    pub fn reduce_after(action: impl Fn() + Send + Sync + 'static) -> Self {
        Self {
            kind: MechanismKind::ReduceAfter {
                action: Arc::new(action),
            },
        }
    }

    /// Application-specific advice (case-specific aspects).
    pub fn custom(advice: impl CustomAdvice + 'static) -> Self {
        Self {
            kind: MechanismKind::Custom {
                advice: Arc::new(advice),
            },
        }
    }

    /// `@Task(depend(…))` — the matched execution becomes a dependence
    /// node in this mechanism's own [`DepGroup`]: it waits for the
    /// predecessors its [`depends`](Self::depends) clauses imply, runs
    /// *undeferred* on the calling thread, then releases its successors.
    /// To order join points against each other their mechanisms must
    /// share a group — see [`task_in`](Self::task_in).
    pub fn task() -> Self {
        Self {
            kind: MechanismKind::Task {
                group: DepGroup::new(),
                deps: Vec::new(),
            },
        }
    }

    /// `@Task(depend(…))` spawning into a shared, explicit [`DepGroup`]
    /// — the captured-group analogue of
    /// [`critical_with`](Self::critical_with). Dependences only order
    /// tasks within one group, so bindings that must serialize against
    /// each other share the group.
    pub fn task_in(group: &DepGroup) -> Self {
        Self {
            kind: MechanismKind::Task {
                group: group.clone(),
                deps: Vec::new(),
            },
        }
    }

    /// The `depend(in/out/inout)` clauses of a [`task`](Self::task)
    /// mechanism.
    pub fn depends(mut self, clauses: impl IntoIterator<Item = Dep>) -> Self {
        match &mut self.kind {
            MechanismKind::Task { deps, .. } => deps.extend(clauses),
            _ => panic!("depends() only applies to Mechanism::task()"),
        }
        self
    }

    /// OpenMP 4.5 `taskloop` — work-share a for method as the adaptive
    /// `@For` with a trailing barrier, encountered by every member (see
    /// [`TaskloopConstruct`]).
    pub fn taskloop() -> Self {
        Self {
            kind: MechanismKind::Taskloop {
                construct: TaskloopConstruct::new(),
            },
        }
    }

    /// [`taskloop`](Self::taskloop) with an explicit min-chunk floor
    /// (OpenMP `grainsize`).
    pub fn taskloop_min_chunk(min_chunk: u64) -> Self {
        Self {
            kind: MechanismKind::Taskloop {
                construct: TaskloopConstruct::new().min_chunk(min_chunk),
            },
        }
    }

    /// Wrapping layer (see [`layer`]): lower layers are applied further
    /// out. The weaver sorts a join point's matched mechanisms by it,
    /// stably, so bindings that tie keep their binding order.
    pub(crate) fn layer(&self) -> u8 {
        match self.kind {
            MechanismKind::BarrierBefore => layer::BARRIER_BEFORE,
            MechanismKind::Parallel(..) => layer::PARALLEL,
            MechanismKind::MasterGate { .. } | MechanismKind::SingleGate { .. } => layer::GATE,
            MechanismKind::Critical { .. }
            | MechanismKind::Reader { .. }
            | MechanismKind::Writer { .. }
            | MechanismKind::Task { .. } => layer::LOCK,
            MechanismKind::Custom { .. } => layer::CUSTOM,
            MechanismKind::For { .. } => layer::FOR,
            MechanismKind::Taskloop { .. } => layer::TASKLOOP,
            MechanismKind::ReduceAfter { .. } => layer::REDUCE,
            MechanismKind::BarrierAfter => layer::BARRIER_AFTER,
        }
    }

    /// Mechanism name for diagnostics and the Table-2 metadata.
    pub fn kind_name(&self) -> &'static str {
        match &self.kind {
            MechanismKind::Parallel(..) => "parallel",
            MechanismKind::For { construct } => match construct.schedule() {
                Schedule::StaticBlock => "for(staticBlock)",
                Schedule::StaticCyclic => "for(staticCyclic)",
                Schedule::Dynamic { .. } => "for(dynamic)",
                Schedule::Guided { .. } => "for(guided)",
                Schedule::BlockCyclic { .. } => "for(blockCyclic)",
                Schedule::Adaptive { .. } => "for(adaptive)",
            },
            MechanismKind::BarrierBefore => "barrierBefore",
            MechanismKind::BarrierAfter => "barrierAfter",
            MechanismKind::MasterGate { .. } => "master",
            MechanismKind::SingleGate { .. } => "single",
            MechanismKind::Critical { .. } => "critical",
            MechanismKind::Reader { .. } => "reader",
            MechanismKind::Writer { .. } => "writer",
            MechanismKind::ReduceAfter { .. } => "reduce",
            MechanismKind::Custom { .. } => "custom",
            MechanismKind::Task { .. } => "task",
            MechanismKind::Taskloop { .. } => "taskloop",
        }
    }

    /// The region configuration a [`parallel`](Self::parallel) mechanism
    /// enters join point `jp` with.
    pub(crate) fn region_config(&self, jp: &str) -> Option<RegionConfig> {
        match &self.kind {
            MechanismKind::Parallel(cfg, None) => Some(cfg.clone()),
            MechanismKind::Parallel(cfg, Some(gates)) => Some(cfg.clone().adaptive(gates.of(jp))),
            _ => None,
        }
    }
}

/// The gates of an [`adaptive`](Mechanism::adaptive) `@Parallel`
/// binding: one per join-point name, made on its first dispatch.
#[derive(Default)]
pub(crate) struct Gates(RwLock<HashMap<String, Arc<Gate>>>);

impl Gates {
    fn of(&self, jp: &str) -> Arc<Gate> {
        if let Some(gate) = self.0.read().get(jp) {
            return Arc::clone(gate);
        }
        Arc::clone(self.0.write().entry(jp.to_owned()).or_default())
    }
}

/// The composition order, outermost first. `@For` sorts before
/// `@Taskloop` because only the first work-share of a join point applies
/// and the static schedule is the safer default.
pub(crate) mod layer {
    pub const BARRIER_BEFORE: u8 = 0;
    pub const PARALLEL: u8 = 1;
    pub const GATE: u8 = 2;
    pub const LOCK: u8 = 3;
    pub const CUSTOM: u8 = 4;
    pub const FOR: u8 = 5;
    pub const TASKLOOP: u8 = 6;
    pub const REDUCE: u8 = 7;
    pub const BARRIER_AFTER: u8 = 8;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_order_barriers_outermost() {
        assert!(Mechanism::barrier_before().layer() < Mechanism::parallel().layer());
        assert!(Mechanism::parallel().layer() < Mechanism::master().layer());
        assert!(Mechanism::master().layer() < Mechanism::critical().layer());
        assert!(Mechanism::critical().layer() < Mechanism::for_loop(Schedule::StaticBlock).layer());
        assert!(
            Mechanism::for_loop(Schedule::StaticBlock).layer()
                < Mechanism::reduce_after(|| {}).layer()
        );
        assert!(Mechanism::reduce_after(|| {}).layer() < Mechanism::barrier_after().layer());
    }

    #[test]
    fn kind_names_include_schedule() {
        assert_eq!(
            Mechanism::for_loop(Schedule::StaticCyclic).kind_name(),
            "for(staticCyclic)"
        );
        assert_eq!(
            Mechanism::for_loop(Schedule::DYNAMIC).kind_name(),
            "for(dynamic)"
        );
        assert_eq!(
            Mechanism::for_loop(Schedule::ADAPTIVE).kind_name(),
            "for(adaptive)"
        );
        assert_eq!(Mechanism::parallel().kind_name(), "parallel");
    }

    #[test]
    #[should_panic(expected = "only applies")]
    fn threads_on_non_parallel_panics() {
        let _ = Mechanism::master().threads(4);
    }

    #[test]
    fn region_config_carries_threads() {
        let cfg = Mechanism::parallel()
            .threads(7)
            .region_config("jp")
            .unwrap();
        assert_eq!(cfg, RegionConfig::new().threads(7));
        assert!(Mechanism::master().region_config("jp").is_none());
    }

    #[test]
    fn region_config_carries_robustness_settings() {
        let d = std::time::Duration::from_millis(750);
        let cfg = Mechanism::parallel()
            .threads(2)
            .cancellable()
            .stall_deadline(d)
            .region_config("jp")
            .unwrap();
        assert_eq!(
            cfg,
            RegionConfig::new()
                .threads(2)
                .cancellable(true)
                .stall_deadline(d)
        );
    }

    #[test]
    #[should_panic(expected = "only applies")]
    fn cancellable_on_non_parallel_panics() {
        let _ = Mechanism::critical().cancellable();
    }

    #[test]
    fn region_config_carries_runtime() {
        let rt = aomp::Runtime::builder().threads(2).build();
        let cfg = Mechanism::parallel()
            .runtime(&rt)
            .region_config("jp")
            .unwrap();
        assert_eq!(cfg, RegionConfig::new().runtime(&rt));
        let other = aomp::Runtime::builder().threads(2).build();
        assert_ne!(cfg, RegionConfig::new().runtime(&other));
    }

    #[test]
    #[should_panic(expected = "only applies")]
    fn runtime_on_non_parallel_panics() {
        let rt = aomp::Runtime::builder().build();
        let _ = Mechanism::master().runtime(&rt);
    }

    #[test]
    fn adaptive_keeps_one_gate_per_join_point() {
        let m = Mechanism::parallel().threads(2).adaptive();
        let ga = m.region_config("Evolib.GA.evaluate").unwrap();
        assert_eq!(ga, m.region_config("Evolib.GA.evaluate").unwrap());
        assert_ne!(ga, m.region_config("Evolib.DE.evaluate").unwrap());
        let redeployed = Mechanism::parallel().threads(2).adaptive();
        assert_ne!(ga, redeployed.region_config("Evolib.GA.evaluate").unwrap());
    }

    #[test]
    #[should_panic(expected = "only applies")]
    fn adaptive_on_non_parallel_panics() {
        let _ = Mechanism::critical().adaptive();
    }
}
