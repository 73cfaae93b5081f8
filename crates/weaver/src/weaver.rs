//! The weaver: deploys aspect modules and composes their mechanisms
//! around join points at run time.
//!
//! AspectJ weaves at compile or load time; the Rust mapping dispatches at
//! the join-point shims ([`call`], [`call_for`], [`call_value`]), which
//! the `aomp-macros` attribute macros generate in the position where the
//! AspectJ weaver would have rewritten the method (paper Figure 12). With
//! no deployed aspects a shim is a direct call — the unplugged program is
//! the sequential program.
//!
//! ## Composition order
//!
//! When several mechanisms match one join point they wrap it in a fixed,
//! deterministic order, and this module says that order once. The four
//! shims differ only in their leaf; each hands it to `dispatch`, which
//! sorts the matched mechanisms by `Mechanism::layer` (stably, so ties
//! keep binding order), drops the ones the mechanism × shape table
//! (`applies`) calls inert, and runs what happens outside the team:
//!
//! 1. `@BarrierBefore`s — on the team current at the call, the
//!    *enclosing* one (a no-op outside any region);
//! 2. the `@Parallel` region, if any (the later binding wins);
//! 3. per team member, `weave`, outermost first: the first
//!    `@Master`/`@Single` gate (a second is inert) → `@Critical`/
//!    `@Replicated`/`@Reader`/`@Writer`/`@Task` in binding order → custom
//!    advice in binding order, each handing its (possibly rewritten)
//!    range inward → the first work-share (`@For` before `@Taskloop`) →
//!    the body;
//! 4. per team member, the `@Reduce` points — outside the gate, inside
//!    the region: team barrier, the master merges, team barrier;
//! 5. `@BarrierAfter`s, on the enclosing team again.
//!
//! DESIGN.md carries the mechanism × join-point-shape table.
//!
//! ## One registry view per region
//!
//! The members of a woven `@Parallel` region dispatch the join points
//! inside it against the registry as it was when the region was entered.
//! A deploy, undeploy or enable toggle made meanwhile (by the region
//! itself or by another thread) reaches the next dispatch outside any
//! woven region, and the regions entered after it; so every member of a
//! team meets the same gates and barriers at every join point.

use parking_lot::{Mutex, RwLock};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use aomp::ctx;
use aomp::range::LoopRange;
use aomp::region::parallel_with;
use aomp::schedule::Schedule;
use aomp::workshare::{ForConstruct, ForScope};

use crate::aspect::AspectModule;
use crate::joinpoint::{JoinPoint, JoinPointKind};
use crate::mechanism::{layer, Mechanism, MechanismKind};

/// Identifies one deployment, for later [`Weaver::undeploy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AspectHandle(u64);

#[derive(Clone)]
struct Deployed {
    id: u64,
    module: Arc<AspectModule>,
    /// Disabled modules stay deployed but match nothing — a cheaper
    /// toggle than undeploy/redeploy for A/B experiments.
    enabled: bool,
}

/// One immutable view of the registry, in deployment order. Every change
/// publishes a new one, so a view pinned by a region never moves.
type View = Arc<Vec<Deployed>>;

thread_local! {
    /// The view of the woven `@Parallel` region this thread is a member
    /// of, if any (see the module docs).
    static PINNED: RefCell<Option<View>> = const { RefCell::new(None) };
}

/// Pins a view for one region member; restores the enclosing one on
/// every way out.
struct Pin(Option<View>);

impl Pin {
    fn new(view: &View) -> Self {
        Pin(PINNED.with_borrow_mut(|p| p.replace(Arc::clone(view))))
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        PINNED.with_borrow_mut(|p| *p = self.0.take());
    }
}

/// The aspect registry. Usually accessed through [`Weaver::global`].
pub struct Weaver {
    deployed: RwLock<View>,
    next_id: AtomicU64,
    /// Dispatch counters per join-point name (matched dispatches only;
    /// the unmatched fast path stays counter-free).
    stats: Mutex<HashMap<String, u64>>,
}

impl Default for Weaver {
    fn default() -> Self {
        Self::new()
    }
}

impl Weaver {
    /// A fresh, empty weaver (tests; embedded registries).
    pub fn new() -> Self {
        Self {
            deployed: RwLock::new(Arc::new(Vec::new())),
            next_id: AtomicU64::new(1),
            stats: Mutex::new(HashMap::new()),
        }
    }

    /// Change the registry by publishing a new view (the current one is
    /// copied only if a region still holds it).
    fn update<R>(&self, f: impl FnOnce(&mut Vec<Deployed>) -> R) -> R {
        f(Arc::make_mut(&mut self.deployed.write()))
    }

    /// The process-wide weaver that the [`call`]/[`call_for`]/
    /// [`call_value`] shims consult.
    pub fn global() -> &'static Weaver {
        static GLOBAL: OnceLock<Weaver> = OnceLock::new();
        GLOBAL.get_or_init(Weaver::new)
    }

    /// Deploy (plug in) an aspect module — the paper's load-time weaving.
    /// Later deployments wrap *inside* earlier ones when layers tie.
    pub fn deploy(&self, module: AspectModule) -> AspectHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.update(|dep| {
            dep.push(Deployed {
                id,
                module: Arc::new(module),
                enabled: true,
            })
        });
        AspectHandle(id)
    }

    /// Enable or disable a deployed module without undeploying it.
    /// Returns `false` if the handle is unknown.
    pub fn set_enabled(&self, handle: AspectHandle, enabled: bool) -> bool {
        self.update(|dep| match dep.iter_mut().find(|d| d.id == handle.0) {
            Some(d) => {
                d.enabled = enabled;
                true
            }
            None => false,
        })
    }

    /// Is the module deployed *and* enabled?
    pub fn is_enabled(&self, handle: AspectHandle) -> bool {
        self.deployed
            .read()
            .iter()
            .any(|d| d.id == handle.0 && d.enabled)
    }

    /// Snapshot of matched-dispatch counts per join-point name (a
    /// development aid, like AspectJ's weave-info).
    pub fn stats(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self
            .stats
            .lock()
            .iter()
            .map(|(k, c)| (k.clone(), *c))
            .collect();
        v.sort();
        v
    }

    /// Clear the dispatch counters.
    pub fn reset_stats(&self) {
        self.stats.lock().clear();
    }

    fn record(&self, name: &str) {
        let mut stats = self.stats.lock();
        // Every matched dispatch on every team thread lands here:
        // allocate the key on first sight only.
        if let Some(count) = stats.get_mut(name) {
            *count += 1;
        } else {
            stats.insert(name.to_owned(), 1);
        }
    }

    /// Undeploy (unplug) a module. Returns it if it was deployed.
    pub fn undeploy(&self, handle: AspectHandle) -> Option<Arc<AspectModule>> {
        self.update(|dep| {
            let idx = dep.iter().position(|d| d.id == handle.0)?;
            Some(dep.remove(idx).module)
        })
    }

    /// Remove every deployed module — back to the sequential program.
    pub fn undeploy_all(&self) {
        self.update(Vec::clear);
    }

    /// Names of currently deployed modules, in deployment order.
    pub fn deployed_names(&self) -> Vec<String> {
        self.deployed
            .read()
            .iter()
            .map(|d| d.module.name().to_owned())
            .collect()
    }

    /// Is this handle still deployed?
    pub fn is_deployed(&self, handle: AspectHandle) -> bool {
        self.deployed.read().iter().any(|d| d.id == handle.0)
    }

    /// Deploy `module` for the duration of `f`, then undeploy — a
    /// build-scoped weaving.
    pub fn with_deployed<R>(&self, module: AspectModule, f: impl FnOnce() -> R) -> R {
        let h = self.deploy(module);
        struct Undeploy<'a>(&'a Weaver, AspectHandle);
        impl Drop for Undeploy<'_> {
            fn drop(&mut self) {
                self.0.undeploy(self.1);
            }
        }
        let _guard = Undeploy(self, h);
        f()
    }

    /// The view `jp` dispatches against — the calling member's pinned one,
    /// else the current one — with its bindings matching `jp` as
    /// `(module index, binding index)`, sorted stably by their mechanism's
    /// layer; `None` when nothing matches.
    fn matched(&self, jp: &JoinPoint<'_>) -> Option<(View, Vec<(usize, usize)>)> {
        let pick = |view: &View| {
            let mut picks = Vec::new();
            for (di, d) in view.iter().enumerate().filter(|(_, d)| d.enabled) {
                for (bi, b) in d.module.bindings().iter().enumerate() {
                    if b.pointcut.matches(jp) {
                        picks.push((di, bi));
                    }
                }
            }
            picks.sort_by_key(|&(di, bi)| view[di].module.bindings()[bi].mechanism.layer());
            (!picks.is_empty()).then(|| (Arc::clone(view), picks))
        };
        PINNED.with_borrow(|pinned| match pinned {
            Some(view) => pick(view),
            None => pick(&self.deployed.read()),
        })
    }
}

/// The mechanism × shape table. A join point's shape is its
/// [`JoinPointKind`] plus, for a for method, whether its body is `scoped`
/// (needs a [`ForScope`]). `true` when a mechanism bound to a join point
/// of this shape applies, `false` when it is inert there; a binding that
/// can mean nothing panics naming the join point. Every pair not listed
/// applies.
fn applies(mechanism: &Mechanism, jp: &JoinPoint<'_>, scoped: bool) -> bool {
    match (&mechanism.kind, jp.kind) {
        (MechanismKind::Parallel(_), JoinPointKind::Value) => panic!(
            "@Parallel cannot apply to value-returning join point `{}` \
             (parallel regions are void-like)",
            jp.name
        ),
        (MechanismKind::Taskloop { .. }, JoinPointKind::ForMethod) if scoped => panic!(
            "@Taskloop cannot apply to scoped for join point `{}` \
             (a range task has no ForScope for its ordered sections; bind a @For)",
            jp.name
        ),
        (
            MechanismKind::For { .. } | MechanismKind::Taskloop { .. },
            JoinPointKind::Plain | JoinPointKind::Value,
        ) => false,
        _ => true,
    }
}

/// A gate step: run `inner` on the thread the `@Master`/`@Single` gate
/// elects.
type Gate<'a> = &'a dyn Fn(&MechanismKind, &mut dyn FnMut());

/// What a shim hands [`dispatch`]: its body as a leaf taking the
/// (possibly rewritten) range and the work-share's scope, plus what only
/// its shape can say about running it.
#[derive(Clone, Copy)]
enum Leaf<'a> {
    /// `Fn + Sync`: any member of a team may run it. Gates elect without
    /// a broadcast and `@Replicated` sections combine.
    Team(&'a (dyn Fn(LoopRange, Option<&ForScope<'_>>) + Sync)),
    /// Confined to the calling thread (a `FnOnce` whose result need not
    /// be `Send`): `@Replicated` runs inline, and the shim supplies the
    /// gate step because only it can name the broadcast type.
    Caller {
        gate: Gate<'a>,
        leaf: &'a dyn Fn(LoopRange, Option<&ForScope<'_>>),
    },
}

impl Leaf<'_> {
    fn run(&self, range: LoopRange, scope: Option<&ForScope<'_>>) {
        match self {
            Leaf::Team(leaf) => leaf(range, scope),
            Leaf::Caller { leaf, .. } => leaf(range, scope),
        }
    }
}

/// The gate step of the team shapes: no result, so no broadcast.
fn gate_nowait(gate: &MechanismKind, inner: &mut dyn FnMut()) {
    match gate {
        MechanismKind::MasterGate { construct } => construct.run_nowait(inner),
        MechanismKind::SingleGate { construct } => construct.run_nowait(inner),
        _ => unreachable!("non-gate mechanism in the gate layer"),
    };
}

/// One member's view of the join point being woven.
struct Member<'a> {
    jp: &'a JoinPoint<'a>,
    scoped: bool,
    leaf: Leaf<'a>,
}

/// Run `stack` — the join point's gate, lock, custom-advice and
/// work-share mechanisms in layer order — around the leaf, outermost
/// first, on the calling team member. `range` is what the enclosing
/// custom advice proceeded with.
fn weave(stack: &[&Mechanism], range: LoopRange, member: &Member<'_>) {
    let workshare = |construct: &ForConstruct| {
        construct.execute_scoped(range, |sub, scope| member.leaf.run(sub, Some(scope)))
    };
    let Some((mechanism, rest)) = stack.split_first() else {
        if !member.scoped {
            return member.leaf.run(range, None);
        }
        // A scoped body always gets a scope: with no @For to share one
        // across a team, the sequential one.
        assert!(
            !ctx::in_parallel(),
            "call_for_scoped(`{}`) inside a parallel region needs a woven @For mechanism \
             (per-thread ordered state would otherwise deadlock)",
            member.jp.name
        );
        return workshare(&ForConstruct::new(Schedule::StaticBlock));
    };
    let inner = |range| weave(rest, range, member);
    match &mechanism.kind {
        gate @ (MechanismKind::MasterGate { .. } | MechanismKind::SingleGate { .. }) => {
            // Only the first gate applies: a second one is inert.
            let gates = rest.iter().take_while(|m| m.layer() == layer::GATE).count();
            let mut inner = || weave(&rest[gates..], range, member);
            match member.leaf {
                Leaf::Team(_) => gate_nowait(gate, &mut inner),
                Leaf::Caller {
                    gate: broadcast, ..
                } => broadcast(gate, &mut inner),
            }
        }
        MechanismKind::Critical { handle } => handle.run(|| inner(range)),
        MechanismKind::Replicated { combiner } => match member.leaf {
            // SAFETY: the section is the rest of this weave. All it can
            // reach is `member` — a `Leaf::Team`, so a `Sync` leaf, plus
            // the join point — and `rest`, `&`s to `Sync` mechanisms, so
            // the combining team thread may run it while this one parks.
            // It returns `()`.
            Leaf::Team(_) => unsafe { combiner.run_unchecked(|| inner(range)) },
            Leaf::Caller { .. } => combiner.run_inline(|| inner(range)),
        },
        MechanismKind::Reader { rw } => rw.read(|| inner(range)),
        MechanismKind::Writer { rw } => rw.write(|| inner(range)),
        // An *undeferred* dependence node: wait for the predecessors the
        // clauses imply, run the rest inline, release the successors.
        MechanismKind::Task { group, deps } => {
            group.run_undeferred(deps.iter().copied(), || inner(range))
        }
        MechanismKind::Custom { advice } => match member.jp.kind {
            JoinPointKind::ForMethod => advice.around_for(member.jp, range, &mut |lo, hi, step| {
                inner(LoopRange::new(lo, hi, step))
            }),
            _ => advice.around(member.jp, &mut || inner(range)),
        },
        // Only the first work-share applies; `rest` can hold nothing else.
        MechanismKind::For { construct } => workshare(construct),
        MechanismKind::Taskloop { construct } => match member.leaf {
            Leaf::Team(leaf) => construct.execute(range, |lo, hi, step| {
                leaf(LoopRange::new(lo, hi, step), None)
            }),
            Leaf::Caller { .. } => unreachable!("@Taskloop is inert on value join points"),
        },
        MechanismKind::BarrierBefore
        | MechanismKind::Parallel(_)
        | MechanismKind::ReduceAfter { .. }
        | MechanismKind::BarrierAfter => unreachable!("dispatch keeps this layer out of the weave"),
    }
}

/// Let the deployed aspects act on one execution of the join point
/// `name`. Everything outside the team happens here, once; what each
/// team member runs is [`weave`].
fn dispatch(jp: &JoinPoint<'_>, scoped: bool, leaf: Leaf<'_>) {
    let range = jp.range.unwrap_or(LoopRange::upto(0, 0));
    let weaver = Weaver::global();
    // A view: the read lock is released before anything runs, so a body
    // may deploy, undeploy or dispatch again.
    let Some((view, picks)) = weaver.matched(jp) else {
        return weave(&[], range, &Member { jp, scoped, leaf });
    };
    weaver.record(jp.name);
    let matched: Vec<&Mechanism> = picks
        .iter()
        .map(|&(di, bi)| &view[di].module.bindings()[bi].mechanism)
        .filter(|m| applies(m, jp, scoped))
        .collect();
    let from = |layer| matched.partition_point(|m| m.layer() < layer);
    let pre_barriers = from(layer::PARALLEL);
    // The later @Parallel binding wins.
    let region = matched[pre_barriers..from(layer::GATE)].last();
    let stack = &matched[from(layer::GATE)..from(layer::REDUCE)];
    let reduces = &matched[from(layer::REDUCE)..from(layer::BARRIER_AFTER)];
    let post_barriers = matched.len() - from(layer::BARRIER_AFTER);
    let run_member = |leaf| {
        weave(stack, range, &Member { jp, scoped, leaf });
        // Reduce points: every member arrives, the master merges, every
        // member sees the merged value.
        for reduce in reduces {
            let MechanismKind::ReduceAfter { action } = &reduce.kind else {
                unreachable!("non-reduce mechanism in the reduce layer");
            };
            ctx::barrier();
            if ctx::thread_id() == 0 {
                action();
            }
            ctx::barrier();
        }
    };
    // Barriers bind to the team current here — the *enclosing* one.
    for _ in 0..pre_barriers {
        ctx::barrier();
    }
    match (region.and_then(|m| m.region_config()), leaf) {
        (Some(cfg), Leaf::Team(team)) => parallel_with(cfg, || {
            let _pin = Pin::new(&view);
            run_member(Leaf::Team(team))
        }),
        (Some(_), Leaf::Caller { .. }) => unreachable!("@Parallel panics on value join points"),
        (None, leaf) => run_member(leaf),
    }
    for _ in 0..post_barriers {
        ctx::barrier();
    }
}

/// Expose a plain method execution as a join point (`Type.method` name
/// convention) and let deployed aspects act on it. With no matching
/// aspects this is exactly `body()`.
///
/// `body` must be `Fn + Sync` because a matching `@Parallel` mechanism
/// executes it on every team thread.
pub fn call<F>(name: &str, body: F)
where
    F: Fn() + Sync,
{
    dispatch(&JoinPoint::plain(name), false, Leaf::Team(&|_, _| body()));
}

/// Expose a *for method* as a join point: `body(lo, hi, step)` receives
/// the (re)written iteration bounds exactly as the paper's for methods
/// receive their first three parameters. With no matching aspects the
/// body runs once with the full range.
pub fn call_for<F>(name: &str, range: LoopRange, body: F)
where
    F: Fn(i64, i64, i64) + Sync,
{
    let leaf = |sub: LoopRange, _: Option<&ForScope<'_>>| body(sub.start, sub.end, sub.step);
    let jp = JoinPoint::for_method(name, range);
    dispatch(&jp, false, Leaf::Team(&leaf));
}

/// Like [`call_for`] but the body also receives the
/// [`ForScope`], enabling `@Ordered` sections inside woven for methods
/// (the paper supports `@Ordered` only within the calling context of a
/// for method, §III-C). With no `@For` bound the body runs once over the
/// full range with a scope that runs ordered sections inline — outside a
/// team only; inside one it panics, because per-thread ordered state
/// would deadlock.
pub fn call_for_scoped<F>(name: &str, range: LoopRange, body: F)
where
    F: Fn(LoopRange, &ForScope<'_>) + Sync,
{
    let leaf = |sub: LoopRange, scope: Option<&ForScope<'_>>| {
        body(sub, scope.expect("a scoped weave supplies a scope"))
    };
    let jp = JoinPoint::for_method(name, range);
    dispatch(&jp, true, Leaf::Team(&leaf));
}

/// Expose a value-returning method execution as a join point. Supports
/// gating (`@Master`/`@Single` with result broadcast to the team — paper
/// §III-C), locks, custom advice (which must `proceed` exactly once),
/// reduce points and barriers. `@Parallel` panics, matching the paper's
/// model where parallel regions are `void`-like; `@For`/`@Taskloop` are
/// inert, as on every join point that is not a for method.
pub fn call_value<T, F>(name: &str, f: F) -> T
where
    T: Clone + Send + 'static,
    F: FnOnce() -> T,
{
    let (f, value) = (Cell::new(Some(f)), Cell::new(None));
    let proceeded = |times: &str| -> ! {
        panic!("custom advice on value join point `{name}` must proceed exactly once, not {times}")
    };
    let leaf = |_: LoopRange, _: Option<&ForScope<'_>>| match f.take() {
        Some(f) => value.set(Some(f())),
        None => proceeded("twice"),
    };
    let result = || value.take().unwrap_or_else(|| proceeded("never"));
    // The elected thread runs the rest of the weave and its result is
    // broadcast to the team.
    let broadcast = |gate: &MechanismKind, inner: &mut dyn FnMut()| {
        let elected = || {
            inner();
            result()
        };
        value.set(Some(match gate {
            MechanismKind::MasterGate { construct } => construct.run(elected),
            MechanismKind::SingleGate { construct } => construct.run(elected),
            _ => unreachable!("non-gate mechanism in the gate layer"),
        }));
    };
    let caller = Leaf::Caller {
        gate: &broadcast,
        leaf: &leaf,
    };
    dispatch(&JoinPoint::value(name), false, caller);
    result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::CustomAdvice;
    use crate::pointcut::Pointcut;
    use aomp::schedule::Schedule;
    use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering as AO};

    #[test]
    fn unmatched_call_proceeds_directly() {
        let hits = AtomicUsize::new(0);
        call("weaver.unmatched.plain", || {
            hits.fetch_add(1, AO::SeqCst);
        });
        assert_eq!(hits.load(AO::SeqCst), 1);
    }

    #[test]
    fn deploy_undeploy_lifecycle() {
        let w = Weaver::global();
        let before = w.deployed_names().len();
        let h = w.deploy(AspectModule::builder("lifecycle-test").build());
        assert!(w.is_deployed(h));
        assert_eq!(w.deployed_names().len(), before + 1);
        let m = w.undeploy(h).expect("was deployed");
        assert_eq!(m.name(), "lifecycle-test");
        assert!(!w.is_deployed(h));
        assert!(w.undeploy(h).is_none());
    }

    #[test]
    fn parallel_mechanism_runs_team() {
        let hits = AtomicUsize::new(0);
        let aspect = AspectModule::builder("par-test")
            .bind(
                Pointcut::call("weaver.test.par"),
                Mechanism::parallel().threads(4),
            )
            .build();
        Weaver::global().with_deployed(aspect, || {
            call("weaver.test.par", || {
                hits.fetch_add(1, AO::SeqCst);
            });
        });
        assert_eq!(hits.load(AO::SeqCst), 4);
        // After undeploy: sequential.
        call("weaver.test.par", || {
            hits.fetch_add(1, AO::SeqCst);
        });
        assert_eq!(hits.load(AO::SeqCst), 5);
    }

    #[test]
    fn parallel_for_composition_covers_range() {
        let sum = AtomicI64::new(0);
        let aspect = crate::aspect::parallel_for(
            "pf-test",
            "weaver.test.pfor",
            Schedule::StaticBlock,
            Some(3),
        );
        Weaver::global().with_deployed(aspect, || {
            call_for(
                "weaver.test.pfor",
                LoopRange::upto(0, 100),
                |lo, hi, step| {
                    let mut local = 0;
                    let mut i = lo;
                    while i < hi {
                        local += i;
                        i += step;
                    }
                    sum.fetch_add(local, AO::SeqCst);
                },
            );
        });
        assert_eq!(sum.load(AO::SeqCst), (0..100).sum::<i64>());
    }

    #[test]
    fn master_gate_on_plain_call() {
        let execs = AtomicUsize::new(0);
        let aspect = AspectModule::builder("master-test")
            .bind(
                Pointcut::call("weaver.test.masterwrap"),
                Mechanism::parallel().threads(4),
            )
            .bind(Pointcut::call("weaver.test.master"), Mechanism::master())
            .bind(
                Pointcut::call("weaver.test.master"),
                Mechanism::barrier_after(),
            )
            .build();
        Weaver::global().with_deployed(aspect, || {
            call("weaver.test.masterwrap", || {
                call("weaver.test.master", || {
                    execs.fetch_add(1, AO::SeqCst);
                });
            });
        });
        assert_eq!(execs.load(AO::SeqCst), 1, "only the master executes");
    }

    #[test]
    fn value_join_point_broadcasts_from_master() {
        let execs = AtomicUsize::new(0);
        let seen = parking_lot::Mutex::new(Vec::new());
        let aspect = AspectModule::builder("value-test")
            .bind(
                Pointcut::call("weaver.test.valwrap"),
                Mechanism::parallel().threads(3),
            )
            .bind(Pointcut::call("weaver.test.val"), Mechanism::master())
            .build();
        Weaver::global().with_deployed(aspect, || {
            call("weaver.test.valwrap", || {
                let v: i64 = call_value("weaver.test.val", || {
                    execs.fetch_add(1, AO::SeqCst);
                    777
                });
                seen.lock().push(v);
            });
        });
        assert_eq!(execs.load(AO::SeqCst), 1);
        assert_eq!(seen.into_inner(), vec![777, 777, 777]);
    }

    #[test]
    fn critical_mechanism_serialises() {
        struct Racy(std::cell::UnsafeCell<u64>);
        unsafe impl Sync for Racy {}
        let racy = Racy(std::cell::UnsafeCell::new(0));
        let racy = &racy; // capture the whole struct, not the UnsafeCell field
        let aspect = AspectModule::builder("crit-test")
            .bind(
                Pointcut::call("weaver.test.critwrap"),
                Mechanism::parallel().threads(4),
            )
            .bind(Pointcut::call("weaver.test.crit"), Mechanism::critical())
            .build();
        Weaver::global().with_deployed(aspect, || {
            call("weaver.test.critwrap", || {
                for _ in 0..500 {
                    call("weaver.test.crit", || unsafe { *racy.0.get() += 1 });
                }
            });
        });
        assert_eq!(unsafe { *racy.0.get() }, 2000);
    }

    #[test]
    fn replicated_mechanism_serialises() {
        struct Racy(std::cell::UnsafeCell<u64>);
        unsafe impl Sync for Racy {}
        impl Racy {
            fn bump(&self) {
                unsafe { *self.0.get() += 1 }
            }
            fn get(&self) -> u64 {
                unsafe { *self.0.get() }
            }
        }
        let racy = Racy(std::cell::UnsafeCell::new(0));
        let racy = &racy;
        let aspect = AspectModule::builder("repl-test")
            .bind(
                Pointcut::call("weaver.test.replwrap"),
                Mechanism::parallel().threads(4),
            )
            .bind(Pointcut::call("weaver.test.repl"), Mechanism::replicated())
            .build();
        Weaver::global().with_deployed(aspect, || {
            call("weaver.test.replwrap", || {
                for _ in 0..500 {
                    call("weaver.test.repl", || racy.bump());
                }
            });
        });
        assert_eq!(racy.get(), 2000);
    }

    #[test]
    fn replicated_value_join_point_runs_inline() {
        // The value path takes a `FnOnce() -> T` with no `Send` bound,
        // so the replicated mechanism must execute it on the calling
        // thread (inline combining) rather than batching it away.
        let seen = parking_lot::Mutex::new(Vec::new());
        let aspect = AspectModule::builder("repl-val-test")
            .bind(
                Pointcut::call("weaver.test.replvalwrap"),
                Mechanism::parallel().threads(3),
            )
            .bind(
                Pointcut::call("weaver.test.replval"),
                Mechanism::replicated_named("weaver.test.replval"),
            )
            .build();
        Weaver::global().with_deployed(aspect, || {
            call("weaver.test.replvalwrap", || {
                let me = std::thread::current().id();
                let v: std::thread::ThreadId =
                    call_value("weaver.test.replval", std::thread::current).id();
                assert_eq!(v, me, "value body ran on the calling thread");
                seen.lock().push(v);
            });
        });
        assert_eq!(seen.into_inner().len(), 3);
    }

    #[test]
    fn custom_for_advice_rewrites_range() {
        /// Gives every thread only the even iterations (a deliberately
        /// odd application-specific schedule).
        struct FirstHalf;
        impl CustomAdvice for FirstHalf {
            fn around_for(
                &self,
                _jp: &JoinPoint<'_>,
                range: LoopRange,
                proceed: &mut dyn FnMut(i64, i64, i64),
            ) {
                let mid = range.start + (range.end - range.start) / 2;
                proceed(range.start, mid, range.step);
            }
        }
        let sum = AtomicI64::new(0);
        let aspect = AspectModule::builder("cs-test")
            .bind(
                Pointcut::call("weaver.test.cs"),
                Mechanism::custom(FirstHalf),
            )
            .build();
        Weaver::global().with_deployed(aspect, || {
            call_for("weaver.test.cs", LoopRange::upto(0, 10), |lo, hi, step| {
                let mut i = lo;
                while i < hi {
                    sum.fetch_add(i, AO::SeqCst);
                    i += step;
                }
            });
        });
        assert_eq!(sum.load(AO::SeqCst), (0..5).sum::<i64>());
    }

    #[test]
    fn reduce_after_runs_once_on_master() {
        let reduced = AtomicUsize::new(0);
        let aspect = AspectModule::builder("reduce-test")
            .bind(
                Pointcut::call("weaver.test.redwrap"),
                Mechanism::parallel().threads(4),
            )
            .bind(
                Pointcut::call("weaver.test.red"),
                Mechanism::reduce_after({
                    let _ = ();
                    move || {}
                }),
            )
            .build();
        // Rebuild with a counting action (closures can't see test locals
        // through 'static, so use a static).
        drop(aspect);
        static REDUCED: AtomicUsize = AtomicUsize::new(0);
        REDUCED.store(0, AO::SeqCst);
        let aspect = AspectModule::builder("reduce-test")
            .bind(
                Pointcut::call("weaver.test.redwrap"),
                Mechanism::parallel().threads(4),
            )
            .bind(
                Pointcut::call("weaver.test.red"),
                Mechanism::reduce_after(|| {
                    REDUCED.fetch_add(1, AO::SeqCst);
                }),
            )
            .build();
        Weaver::global().with_deployed(aspect, || {
            call("weaver.test.redwrap", || {
                call("weaver.test.red", || {
                    reduced.fetch_add(0, AO::SeqCst);
                });
            });
        });
        assert_eq!(
            REDUCED.load(AO::SeqCst),
            1,
            "reduce action runs once per encounter"
        );
    }

    #[test]
    fn glob_pointcut_applies_to_many_methods() {
        let hits = AtomicUsize::new(0);
        let aspect = AspectModule::builder("glob-test")
            .bind(
                Pointcut::glob("GlobDemo.*"),
                Mechanism::parallel().threads(2),
            )
            .build();
        Weaver::global().with_deployed(aspect, || {
            call("GlobDemo.alpha", || {
                hits.fetch_add(1, AO::SeqCst);
            });
            call("GlobDemo.beta", || {
                hits.fetch_add(1, AO::SeqCst);
            });
            call("Other.gamma", || {
                hits.fetch_add(1, AO::SeqCst);
            });
        });
        assert_eq!(hits.load(AO::SeqCst), 2 + 2 + 1);
    }

    #[test]
    fn scoped_for_runs_ordered_sections_in_order() {
        let log = parking_lot::Mutex::new(Vec::new());
        let aspect = AspectModule::builder("ordered-test")
            .bind(
                Pointcut::call("weaver.test.orderedwrap"),
                Mechanism::parallel().threads(4),
            )
            .bind(
                Pointcut::call("weaver.test.ordered"),
                Mechanism::for_loop(Schedule::StaticCyclic),
            )
            .build();
        Weaver::global().with_deployed(aspect, || {
            call("weaver.test.orderedwrap", || {
                call_for_scoped(
                    "weaver.test.ordered",
                    LoopRange::upto(0, 24),
                    |sub, scope| {
                        for i in sub.iter() {
                            scope.ordered(i, || log.lock().push(i));
                        }
                    },
                );
            });
        });
        assert_eq!(*log.lock(), (0..24).collect::<Vec<i64>>());
    }

    #[test]
    fn scoped_for_sequential_fallback_runs_inline() {
        let log = parking_lot::Mutex::new(Vec::new());
        call_for_scoped(
            "weaver.test.ordered.seq",
            LoopRange::upto(0, 5),
            |sub, scope| {
                for i in sub.iter() {
                    scope.ordered(i, || log.lock().push(i));
                }
            },
        );
        assert_eq!(*log.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn disable_enable_toggles_matching() {
        let hits = AtomicUsize::new(0);
        let w = Weaver::global();
        let h = w.deploy(
            AspectModule::builder("toggle-test")
                .bind(
                    Pointcut::call("weaver.test.toggle"),
                    Mechanism::parallel().threads(3),
                )
                .build(),
        );
        let run = || {
            call("weaver.test.toggle", || {
                hits.fetch_add(1, AO::SeqCst);
            })
        };
        run();
        assert_eq!(hits.load(AO::SeqCst), 3);
        assert!(w.set_enabled(h, false));
        assert!(!w.is_enabled(h));
        run();
        assert_eq!(hits.load(AO::SeqCst), 4, "disabled module matches nothing");
        assert!(w.set_enabled(h, true));
        run();
        assert_eq!(hits.load(AO::SeqCst), 7);
        w.undeploy(h);
        assert!(!w.set_enabled(h, true), "unknown handles are rejected");
    }

    #[test]
    fn region_members_dispatch_against_the_view_at_entry() {
        let hits = AtomicUsize::new(0);
        let w = Weaver::global();
        let late = parking_lot::Mutex::new(None);
        let region = AspectModule::builder("pin-test")
            .bind(
                Pointcut::call("weaver.test.pinwrap"),
                Mechanism::parallel().threads(2),
            )
            .build();
        let hit = || {
            call("weaver.test.pinned", || {
                hits.fetch_add(1, AO::SeqCst);
            })
        };
        w.with_deployed(region, || {
            call("weaver.test.pinwrap", || {
                if ctx::thread_id() == 0 {
                    *late.lock() = Some(
                        w.deploy(
                            AspectModule::builder("pin-late")
                                .bind(Pointcut::call("weaver.test.pinned"), Mechanism::master())
                                .build(),
                        ),
                    );
                }
                ctx::barrier();
                hit();
            });
        });
        assert_eq!(
            hits.load(AO::SeqCst),
            2,
            "both members run it ungated: the deploy waits for the next region"
        );
        let late = late.into_inner().expect("deployed in the region");
        hit();
        assert_eq!(
            hits.load(AO::SeqCst),
            3,
            "outside a region it applies at once"
        );
        w.undeploy(late);
    }

    #[test]
    fn stats_count_matched_dispatches_only() {
        let w = Weaver::global();
        let h = w.deploy(
            AspectModule::builder("stats-test")
                .bind(
                    Pointcut::call("weaver.test.stats.matched"),
                    Mechanism::critical(),
                )
                .build(),
        );
        for _ in 0..5 {
            call("weaver.test.stats.matched", || {});
            call("weaver.test.stats.unmatched", || {});
        }
        let stats = w.stats();
        let count = stats
            .iter()
            .find(|(n, _)| n == "weaver.test.stats.matched")
            .map(|(_, c)| *c);
        assert!(count >= Some(5));
        assert!(!stats
            .iter()
            .any(|(n, _)| n == "weaver.test.stats.unmatched"));
        w.undeploy(h);
    }

    #[test]
    fn task_mechanism_orders_dependent_join_points() {
        // Writer join point then reader join point, bound with out/in
        // deps on one tag in one shared group: the runs stay ordered
        // even when each member of a team calls both.
        use aomp::deps::{Dep, DepGroup, Tag};
        static CELL: AtomicI64 = AtomicI64::new(0);
        static BAD_READS: AtomicUsize = AtomicUsize::new(0);
        CELL.store(0, AO::SeqCst);
        BAD_READS.store(0, AO::SeqCst);
        let group = DepGroup::new();
        let aspect = AspectModule::builder("task-dep-test")
            .bind(
                Pointcut::call("weaver.test.taskwrap"),
                Mechanism::parallel().threads(4),
            )
            .bind(
                Pointcut::call("weaver.test.task.write"),
                Mechanism::task_in(&group).depends([Dep::output(Tag::from("cell"))]),
            )
            .bind(
                Pointcut::call("weaver.test.task.read"),
                Mechanism::task_in(&group).depends([Dep::input(Tag::from("cell"))]),
            )
            .build();
        Weaver::global().with_deployed(aspect, || {
            call("weaver.test.taskwrap", || {
                call("weaver.test.task.write", || {
                    CELL.fetch_add(1, AO::SeqCst);
                });
                call("weaver.test.task.read", || {
                    // Every read must observe at least its own thread's
                    // preceding write (its in-dep waits on the last
                    // out-dep wired before it).
                    if CELL.load(AO::SeqCst) == 0 {
                        BAD_READS.fetch_add(1, AO::SeqCst);
                    }
                });
            });
        });
        assert_eq!(CELL.load(AO::SeqCst), 4);
        assert_eq!(BAD_READS.load(AO::SeqCst), 0);
    }

    #[test]
    fn taskloop_mechanism_covers_range() {
        let sum = AtomicI64::new(0);
        let aspect = AspectModule::builder("taskloop-test")
            .bind(
                Pointcut::call("weaver.test.tlwrap"),
                Mechanism::parallel().threads(4),
            )
            .bind(
                Pointcut::call("weaver.test.tl"),
                Mechanism::taskloop_min_chunk(4),
            )
            .build();
        Weaver::global().with_deployed(aspect, || {
            call("weaver.test.tlwrap", || {
                call_for("weaver.test.tl", LoopRange::upto(0, 100), |lo, hi, step| {
                    let mut i = lo;
                    while i < hi {
                        sum.fetch_add(i, AO::SeqCst);
                        i += step;
                    }
                });
            });
        });
        assert_eq!(sum.load(AO::SeqCst), (0..100).sum::<i64>());
    }

    #[test]
    fn taskloop_sequential_fallback_runs_inline() {
        let sum = AtomicI64::new(0);
        let aspect = AspectModule::builder("taskloop-seq-test")
            .bind(Pointcut::call("weaver.test.tlseq"), Mechanism::taskloop())
            .build();
        Weaver::global().with_deployed(aspect, || {
            call_for(
                "weaver.test.tlseq",
                LoopRange::upto(0, 10),
                |lo, hi, step| {
                    let mut i = lo;
                    while i < hi {
                        sum.fetch_add(i, AO::SeqCst);
                        i += step;
                    }
                },
            );
        });
        assert_eq!(sum.load(AO::SeqCst), (0..10).sum::<i64>());
    }

    #[test]
    #[should_panic(expected = "depends() only applies")]
    fn depends_on_non_task_mechanism_panics() {
        let _ = Mechanism::critical().depends([aomp::deps::Dep::input("cell")]);
    }

    #[test]
    #[should_panic(expected = "cannot apply to value-returning")]
    fn parallel_on_value_join_point_panics() {
        let aspect = AspectModule::builder("bad-value")
            .bind(
                Pointcut::call("weaver.test.badval"),
                Mechanism::parallel().threads(2),
            )
            .build();
        Weaver::global().with_deployed(aspect, || {
            let _: i64 = call_value("weaver.test.badval", || 1);
        });
    }
}
