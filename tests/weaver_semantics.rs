//! Finer weaver semantics: mechanism precedence, multiple deployments on
//! one join point, registry introspection, serde round-trips of the
//! simulator models, and the composition rules checked against
//! references — one row per rule of the mechanism × join-point-shape
//! table (DESIGN.md), and a fully loaded join point explored next to its
//! hand-nested twin.

use aomp_check as check;
use aomplib::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

#[test]
fn later_parallel_binding_wins_on_team_size() {
    // Two deployed modules both bind @Parallel to the same join point;
    // the plan keeps the later deployment's configuration.
    let seen = AtomicUsize::new(0);
    let w = Weaver::global();
    let h1 = w.deploy(
        AspectModule::builder("first")
            .bind(
                Pointcut::call("sem.par.double"),
                Mechanism::parallel().threads(2),
            )
            .build(),
    );
    let h2 = w.deploy(
        AspectModule::builder("second")
            .bind(
                Pointcut::call("sem.par.double"),
                Mechanism::parallel().threads(5),
            )
            .build(),
    );
    aomp_weaver::call("sem.par.double", || {
        seen.fetch_max(team_size(), Ordering::SeqCst);
    });
    w.undeploy(h1);
    w.undeploy(h2);
    assert_eq!(seen.load(Ordering::SeqCst), 5);
}

#[test]
fn barriers_wrap_outside_the_master_gate() {
    // Sequence check: with @Master + @BarrierBefore on one join point,
    // the barrier releases *before* the master body runs, so when a
    // worker passes the pre-barrier the master's previous-round effects
    // are complete.
    let w = Weaver::global();
    let log = parking_lot::Mutex::new(Vec::new());
    let h = w.deploy(
        AspectModule::builder("seq-order")
            .bind(
                Pointcut::call("sem.order.region"),
                Mechanism::parallel().threads(2),
            )
            .bind(Pointcut::call("sem.order.step"), Mechanism::master())
            .bind(
                Pointcut::call("sem.order.step"),
                Mechanism::barrier_before(),
            )
            .bind(Pointcut::call("sem.order.step"), Mechanism::barrier_after())
            .build(),
    );
    aomp_weaver::call("sem.order.region", || {
        for i in 0..5 {
            aomp_weaver::call("sem.order.step", || {
                log.lock().push(i);
            });
        }
    });
    w.undeploy(h);
    assert_eq!(
        *log.lock(),
        vec![0, 1, 2, 3, 4],
        "master steps are totally ordered by the barriers"
    );
}

#[test]
fn registry_introspection_reports_deployments() {
    let w = Weaver::global();
    let before = w.deployed_names();
    let h = w.deploy(AspectModule::builder("introspect-me").build());
    let after = w.deployed_names();
    assert_eq!(after.len(), before.len() + 1);
    assert!(after.contains(&"introspect-me".to_string()));
    assert!(w.is_deployed(h));
    w.undeploy(h);
    assert!(!w.is_deployed(h));
}

#[test]
fn dispatch_stats_accumulate_and_reset() {
    let w = Weaver::global();
    let h = w.deploy(
        AspectModule::builder("stats-sem")
            .bind(Pointcut::call("sem.stats.jp"), Mechanism::critical())
            .build(),
    );
    let base: u64 = w
        .stats()
        .iter()
        .find(|(n, _)| n == "sem.stats.jp")
        .map(|(_, c)| *c)
        .unwrap_or(0);
    for _ in 0..7 {
        aomp_weaver::call("sem.stats.jp", || {});
    }
    let now = w
        .stats()
        .iter()
        .find(|(n, _)| n == "sem.stats.jp")
        .map(|(_, c)| *c)
        .unwrap_or(0);
    assert!(now >= base + 7, "stats grew by at least the 7 dispatches");
    w.undeploy(h);
}

#[test]
fn value_join_point_with_locks_only() {
    // call_value through a critical mechanism (no gate): executes on the
    // calling thread under the lock.
    let w = Weaver::global();
    let h = w.deploy(
        AspectModule::builder("val-crit")
            .bind(Pointcut::call("sem.val.crit"), Mechanism::critical())
            .build(),
    );
    let v: u64 = aomp_weaver::call_value("sem.val.crit", || 99);
    assert_eq!(v, 99);
    w.undeploy(h);
}

#[test]
fn kind_pointcut_separates_for_and_plain() {
    // A Kind(ForMethod) pointcut work-shares every for method while
    // leaving plain calls alone.
    use aomplib::weaver::JoinPointKind;
    let w = Weaver::global();
    let h = w.deploy(
        AspectModule::builder("kind-sem")
            .bind(
                Pointcut::call("sem.kind.region"),
                Mechanism::parallel().threads(3),
            )
            .bind(
                Pointcut::kind(JoinPointKind::ForMethod).and(Pointcut::glob("sem.kind.*")),
                Mechanism::for_loop(Schedule::StaticBlock),
            )
            .build(),
    );
    let loop_hits = AtomicUsize::new(0);
    let plain_hits = AtomicUsize::new(0);
    aomp_weaver::call("sem.kind.region", || {
        aomp_weaver::call_for("sem.kind.loop", LoopRange::upto(0, 9), |lo, hi, step| {
            let mut i = lo;
            while i < hi {
                loop_hits.fetch_add(1, Ordering::SeqCst);
                i += step;
            }
        });
        aomp_weaver::call("sem.kind.plain", || {
            plain_hits.fetch_add(1, Ordering::SeqCst);
        });
    });
    w.undeploy(h);
    assert_eq!(
        loop_hits.load(Ordering::SeqCst),
        9,
        "for method work-shared exactly once"
    );
    assert_eq!(
        plain_hits.load(Ordering::SeqCst),
        3,
        "plain call replicated per thread"
    );
}

// ---------------------------------------------------------------------
// Paper §II: the inheritance anomaly. Parallelism must be retained
// across an interface's implementations — including ones added later by
// a user — without touching any implementation.
// ---------------------------------------------------------------------

/// The "Particle" interface of the paper's LAMMPS discussion.
trait ForceKernel: Sync {
    fn kind(&self) -> &'static str;
    /// Each implementation exposes its execution as the interface-level
    /// join point `ForceKernel.<kind>.compute`.
    fn compute(&self, hits: &AtomicUsize) {
        let name = format!("ForceKernel.{}.compute", self.kind());
        aomp_weaver::call(&name, || {
            self.compute_body(hits);
        });
    }
    fn compute_body(&self, hits: &AtomicUsize);
}

struct LennardJones;
impl ForceKernel for LennardJones {
    fn kind(&self) -> &'static str {
        "LJ"
    }
    fn compute_body(&self, hits: &AtomicUsize) {
        hits.fetch_add(1, Ordering::SeqCst);
    }
}

struct Coulomb;
impl ForceKernel for Coulomb {
    fn kind(&self) -> &'static str {
        "Coulomb"
    }
    fn compute_body(&self, hits: &AtomicUsize) {
        hits.fetch_add(10, Ordering::SeqCst);
    }
}

/// A "user-provided implementation" (the case §II says breaks
/// code-injection approaches): defined after the aspect, never mentioned
/// by it explicitly.
struct UserSupplied;
impl ForceKernel for UserSupplied {
    fn kind(&self) -> &'static str {
        "UserSupplied"
    }
    fn compute_body(&self, hits: &AtomicUsize) {
        hits.fetch_add(100, Ordering::SeqCst);
    }
}

#[test]
fn interface_pointcut_survives_new_implementations() {
    let w = Weaver::global();
    // One pointcut over the interface parallelises every implementation.
    let h = w.deploy(
        AspectModule::builder("InterfaceForce")
            .bind(
                Pointcut::glob("ForceKernel.*.compute"),
                Mechanism::parallel().threads(3),
            )
            .build(),
    );
    let hits = AtomicUsize::new(0);
    let kernels: Vec<Box<dyn ForceKernel>> = vec![
        Box::new(LennardJones),
        Box::new(Coulomb),
        Box::new(UserSupplied),
    ];
    for k in &kernels {
        k.compute(&hits);
    }
    w.undeploy(h);
    // Each implementation ran on a team of 3 — including the one the
    // aspect author never saw.
    assert_eq!(hits.load(Ordering::SeqCst), 3 * (1 + 10 + 100));
    // Unplugged: sequential, still correct.
    let hits2 = AtomicUsize::new(0);
    for k in &kernels {
        k.compute(&hits2);
    }
    assert_eq!(hits2.load(Ordering::SeqCst), 111);
}

// ---------------------------------------------------------------------
// The mechanism × join-point-shape table, one row per rule. Every row
// deploys its own aspect on its own join-point names (the weaver is
// process-global and the harness runs tests concurrently) and checks
// what ran against what the rule says must run.
// ---------------------------------------------------------------------

/// Deploy `aspect` around `f`.
fn woven<R>(aspect: AspectModule, f: impl FnOnce() -> R) -> R {
    Weaver::global().with_deployed(aspect, f)
}

/// The panic message of `f`, which must panic.
fn panic_of(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the binding must panic");
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload
            .downcast::<&str>()
            .map_or("non-string panic".to_owned(), |s| s.to_string()),
    }
}

fn sum_range(sum: &AtomicI64) -> impl Fn(i64, i64, i64) + Sync + '_ {
    move |lo, hi, step| {
        for i in LoopRange::new(lo, hi, step).iter() {
            sum.fetch_add(i, Ordering::SeqCst);
        }
    }
}

/// Custom advice narrowing the range: `Half` keeps the first half,
/// `Skip3` drops the first three iterations. They do not commute, so the
/// result names the nesting order.
struct Half;
impl CustomAdvice for Half {
    fn around_for(&self, _: &JoinPoint<'_>, r: LoopRange, proceed: &mut dyn FnMut(i64, i64, i64)) {
        proceed(r.start, r.start + (r.end - r.start) / 2, r.step);
    }
}
struct Skip3;
impl CustomAdvice for Skip3 {
    fn around_for(&self, _: &JoinPoint<'_>, r: LoopRange, proceed: &mut dyn FnMut(i64, i64, i64)) {
        proceed(r.start + 3 * r.step, r.end, r.step);
    }
}

/// Custom advice on a plain or value join point proceeding that many
/// times.
struct Proceeds(usize);
impl CustomAdvice for Proceeds {
    fn around(&self, _: &JoinPoint<'_>, proceed: &mut dyn FnMut()) {
        (0..self.0).for_each(|_| proceed());
    }
}

fn second_gate_is_inert() {
    // @Single then @Master on one join point. The master (tid 0) arrives
    // last, so @Single elects tid 1; were the @Master applied inside it,
    // nobody would run the body.
    let ran_on = Mutex::new(Vec::new());
    let aspect = AspectModule::builder("table-second-gate")
        .bind(
            Pointcut::call("table.gate2.region"),
            Mechanism::parallel().threads(2),
        )
        .bind(Pointcut::call("table.gate2.jp"), Mechanism::single())
        .bind(Pointcut::call("table.gate2.jp"), Mechanism::master())
        .build();
    woven(aspect, || {
        aomp_weaver::call("table.gate2.region", || {
            let give_up = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while thread_id() == 0
                && ran_on.lock().unwrap().is_empty()
                && std::time::Instant::now() < give_up
            {
                std::thread::yield_now();
            }
            aomp_weaver::call("table.gate2.jp", || {
                ran_on.lock().unwrap().push(thread_id())
            });
        });
    });
    assert_eq!(
        *ran_on.lock().unwrap(),
        vec![1],
        "the first gate alone elects"
    );
}

fn for_and_taskloop_are_inert_off_for_methods() {
    let hits = AtomicUsize::new(0);
    let aspect = AspectModule::builder("table-for-inert")
        .bind(
            Pointcut::call("table.inert.region"),
            Mechanism::parallel().threads(3),
        )
        .bind(
            Pointcut::glob("table.inert.jp.*"),
            Mechanism::for_loop(Schedule::StaticBlock),
        )
        .bind(Pointcut::glob("table.inert.jp.*"), Mechanism::taskloop())
        .build();
    woven(aspect, || {
        aomp_weaver::call("table.inert.region", || {
            aomp_weaver::call("table.inert.jp.plain", || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
            let v: usize = aomp_weaver::call_value("table.inert.jp.value", || 7);
            hits.fetch_add(v, Ordering::SeqCst);
        });
    });
    assert_eq!(
        hits.load(Ordering::SeqCst),
        3 * (1 + 7),
        "every member ran both bodies whole"
    );
}

fn for_beats_taskloop() {
    // Bound taskloop-first: the static-cyclic @For must still win, and it
    // alone hands each member a stride of the team size.
    let steps = Mutex::new(Vec::new());
    let sum = AtomicI64::new(0);
    let aspect = AspectModule::builder("table-for-beats-taskloop")
        .bind(
            Pointcut::call("table.fbt.jp"),
            Mechanism::parallel().threads(2),
        )
        .bind(
            Pointcut::call("table.fbt.jp"),
            Mechanism::taskloop_min_chunk(1),
        )
        .bind(
            Pointcut::call("table.fbt.jp"),
            Mechanism::for_loop(Schedule::StaticCyclic),
        )
        .build();
    woven(aspect, || {
        aomp_weaver::call_for("table.fbt.jp", LoopRange::upto(0, 10), |lo, hi, step| {
            steps.lock().unwrap().push(step);
            sum_range(&sum)(lo, hi, step);
        });
    });
    assert_eq!(*steps.lock().unwrap(), vec![2, 2]);
    assert_eq!(sum.load(Ordering::SeqCst), 45);
}

fn criticals_nest_in_binding_order() {
    // Reference: lock-order inversion. Member 0 takes A then B through
    // the weave (bound in that order); member 1 takes them by hand. Some
    // schedule deadlocks iff the hand order is the opposite one.
    let program = |hand_a_first: bool| {
        let (a, b) = (CriticalHandle::new(), CriticalHandle::new());
        let jp = || Pointcut::call("table.crit2.jp");
        let aspect = AspectModule::builder("table-critical-order")
            .bind(jp(), Mechanism::critical_with(a.clone()))
            .bind(jp(), Mechanism::critical_with(b.clone()))
            .build();
        woven(aspect, || {
            region::parallel_with(RegionConfig::new().threads(2), || match thread_id() {
                0 => aomp_weaver::call("table.crit2.jp", || {}),
                _ if hand_a_first => a.run(|| b.run(|| {})),
                _ => b.run(|| a.run(|| {})),
            });
        });
    };
    let same_order = check::Explorer::new().dfs(2_000, 64, || program(true));
    assert!(!same_order.truncated);
    same_order.assert_ok();
    // A lock deadlock costs the checker its two-second grace budget, so
    // take seeds one at a time and stop at the first.
    let inversion = (0..64).find_map(|seed| {
        let run = check::Explorer::new().replay_random(seed, || program(false));
        run.failure
    });
    let verdict = inversion.expect("woven A-then-B must be able to deadlock hand B-then-A");
    assert!(verdict.contains("deadlock"), "{verdict}");
}

fn custom_advices_compose_inward() {
    for (outer_first, expect) in [(true, 3 + 4), (false, 3 + 4 + 5)] {
        let sum = AtomicI64::new(0);
        let builder = AspectModule::builder("table-custom-order");
        let aspect = if outer_first {
            builder
                .bind(Pointcut::call("table.custom2.jp"), Mechanism::custom(Half))
                .bind(Pointcut::call("table.custom2.jp"), Mechanism::custom(Skip3))
        } else {
            builder
                .bind(Pointcut::call("table.custom2.jp"), Mechanism::custom(Skip3))
                .bind(Pointcut::call("table.custom2.jp"), Mechanism::custom(Half))
        };
        woven(aspect.build(), || {
            aomp_weaver::call_for("table.custom2.jp", LoopRange::upto(0, 10), sum_range(&sum));
        });
        assert_eq!(
            sum.load(Ordering::SeqCst),
            expect,
            "Half outermost: {outer_first}"
        );
    }
}

fn reduce_runs_after_the_gate_inside_the_region() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let reduce_log = Arc::clone(&log);
    let aspect = AspectModule::builder("table-reduce")
        .bind(
            Pointcut::call("table.reduce.jp"),
            Mechanism::parallel().threads(3),
        )
        .bind(Pointcut::call("table.reduce.jp"), Mechanism::master())
        .bind(
            Pointcut::call("table.reduce.jp"),
            Mechanism::reduce_after(move || {
                reduce_log
                    .lock()
                    .unwrap()
                    .push(("reduce", thread_id(), team_size()));
            }),
        )
        .build();
    woven(aspect, || {
        aomp_weaver::call("table.reduce.jp", || {
            log.lock().unwrap().push(("body", thread_id(), team_size()));
        });
    });
    // Once each, on the master of the woven team; the reduce point's
    // first barrier holds the merge until the gated body is done.
    assert_eq!(*log.lock().unwrap(), vec![("body", 0, 3), ("reduce", 0, 3)]);
}

fn barriers_bind_to_the_enclosing_team() {
    let arrived = AtomicUsize::new(0);
    let seen = Mutex::new(Vec::new());
    let aspect = AspectModule::builder("table-barrier-binding")
        .bind(
            Pointcut::call("table.barrier.jp"),
            Mechanism::barrier_before(),
        )
        .bind(
            Pointcut::call("table.barrier.jp"),
            Mechanism::parallel().threads(2),
        )
        .build();
    woven(aspect, || {
        // Outside any region the barrier is a no-op (this must not hang).
        aomp_weaver::call("table.barrier.jp", || {});
        // Inside one it holds every member of the *enclosing* team back
        // until all have arrived, however late.
        region::parallel_with(RegionConfig::new().threads(2), || {
            if thread_id() == 1 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            arrived.fetch_add(1, Ordering::SeqCst);
            aomp_weaver::call("table.barrier.jp", || {
                seen.lock().unwrap().push(arrived.load(Ordering::SeqCst));
            });
        });
    });
    assert!(seen.lock().unwrap().iter().all(|&n| n == 2), "{seen:?}");
}

fn custom_advice_on_a_value_join_point_proceeds_exactly_once() {
    let run = |times: usize| {
        let aspect = AspectModule::builder("table-value-custom")
            .bind(
                Pointcut::call("table.valcustom.jp"),
                Mechanism::custom(Proceeds(times)),
            )
            .build();
        woven(aspect, || {
            aomp_weaver::call_value("table.valcustom.jp", || 41u64) + 1
        })
    };
    assert_eq!(run(1), 42, "the advice is applied and the value returned");
    for (times, how) in [(0, "never"), (2, "twice")] {
        let message = panic_of(|| {
            run(times);
        });
        assert!(
            message.contains("`table.valcustom.jp`") && message.contains(how),
            "{message}"
        );
    }
}

fn bindings_that_mean_nothing_panic_naming_the_join_point() {
    let aspect = AspectModule::builder("table-panics")
        .bind(
            Pointcut::call("table.panics.value"),
            Mechanism::parallel().threads(2),
        )
        .bind(Pointcut::call("table.panics.scoped"), Mechanism::taskloop())
        .build();
    woven(aspect, || {
        let message = panic_of(|| {
            aomp_weaver::call_value("table.panics.value", || 1);
        });
        assert!(
            message.contains(
                "@Parallel cannot apply to value-returning join point `table.panics.value`"
            ),
            "{message}"
        );
        let message = panic_of(|| {
            aomp_weaver::call_for_scoped("table.panics.scoped", LoopRange::upto(0, 4), |_, _| {})
        });
        assert!(
            message
                .contains("@Taskloop cannot apply to scoped for join point `table.panics.scoped`"),
            "{message}"
        );
    });
}

fn a_scoped_for_method_needs_a_for_to_run_in_a_team() {
    // Unwoven, or woven without a @For: sequential scope outside a team,
    // a panic naming the join point inside one.
    let log = Mutex::new(Vec::new());
    let ordered = |sub: LoopRange, scope: &aomplib::runtime::workshare::ForScope<'_>| {
        for i in sub.iter() {
            scope.ordered(i, || log.lock().unwrap().push(i));
        }
    };
    let aspect = AspectModule::builder("table-scoped")
        .bind(Pointcut::call("table.scoped.jp"), Mechanism::critical())
        .build();
    woven(aspect, || {
        aomp_weaver::call_for_scoped("table.scoped.jp", LoopRange::upto(0, 3), ordered);
        let message = panic_of(|| {
            region::parallel_with(RegionConfig::new().threads(2), || {
                aomp_weaver::call_for_scoped("table.scoped.jp", LoopRange::upto(0, 3), |_, _| {});
            })
        });
        assert!(
            message.contains("`table.scoped.jp`") && message.contains("@For"),
            "{message}"
        );
    });
    assert_eq!(*log.lock().unwrap(), vec![0, 1, 2]);
}

#[test]
fn composition_table_rules_hold() {
    let rules: [(&str, fn()); 10] = [
        ("a second gate is inert", second_gate_is_inert),
        (
            "@For/@Taskloop are inert off for methods",
            for_and_taskloop_are_inert_off_for_methods,
        ),
        ("@For beats @Taskloop", for_beats_taskloop),
        (
            "locks nest in binding order",
            criticals_nest_in_binding_order,
        ),
        (
            "custom advice composes inward",
            custom_advices_compose_inward,
        ),
        (
            "reduce points: after the gate, inside the region",
            reduce_runs_after_the_gate_inside_the_region,
        ),
        (
            "barriers bind to the enclosing team",
            barriers_bind_to_the_enclosing_team,
        ),
        (
            "custom advice applies to value join points, once",
            custom_advice_on_a_value_join_point_proceeds_exactly_once,
        ),
        (
            "@Parallel on value / @Taskloop on scoped-for panic",
            bindings_that_mean_nothing_panic_naming_the_join_point,
        ),
        (
            "a scoped for method without @For is sequential",
            a_scoped_for_method_needs_a_for_to_run_in_a_team,
        ),
    ];
    for (rule, check) in rules {
        eprintln!("rule: {rule}");
        check();
    }
}

// ---------------------------------------------------------------------
// One join point carrying every layer, next to the same constructs
// called directly in the documented order. Same seeds, same protocol:
// the very same interleavings and the same final state on each.
// ---------------------------------------------------------------------

/// What one run of the loaded join point leaves behind.
#[derive(Debug, Default, PartialEq)]
struct Outcome {
    /// `(what, enclosing tid, woven-team tid)` in execution order.
    log: Vec<(&'static str, usize, usize)>,
    sum: i64,
}

/// The constructs both spellings are made of, fresh per schedule.
struct Loaded {
    master: Master,
    critical: CriticalHandle,
    for_construct: ForConstruct,
    outcome: Arc<Mutex<Outcome>>,
}

thread_local! {
    /// The enclosing team's tid, carried into the woven (nested) team.
    static ENCLOSING_TID: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Loaded {
    const RANGE: LoopRange = LoopRange {
        start: 0,
        end: 16,
        step: 1,
    };

    fn new() -> Self {
        Self {
            master: Master::new(),
            critical: CriticalHandle::new(),
            for_construct: ForConstruct::new(Schedule::StaticBlock),
            outcome: Arc::default(),
        }
    }

    fn region() -> RegionConfig {
        RegionConfig::new().threads(2)
    }

    fn note(outcome: &Mutex<Outcome>, what: &'static str) {
        outcome
            .lock()
            .unwrap()
            .log
            .push((what, ENCLOSING_TID.get(), thread_id()));
    }

    fn body(&self, lo: i64, hi: i64, step: i64) {
        Self::note(&self.outcome, "body");
        let part: i64 = LoopRange::new(lo, hi, step).iter().sum();
        self.outcome.lock().unwrap().sum += part;
    }

    /// Both spellings run inside a 2-member enclosing team, so the
    /// barriers before and after have someone to synchronise.
    fn in_enclosing_team(&self, join_point: impl Fn() + Sync) -> Outcome {
        region::parallel_with(Self::region(), || {
            ENCLOSING_TID.set(thread_id());
            join_point();
        });
        std::mem::take(&mut *self.outcome.lock().unwrap())
    }

    fn woven(&self) -> Outcome {
        let reduce_outcome = Arc::clone(&self.outcome);
        let jp = || Pointcut::call("loaded.jp");
        let aspect = AspectModule::builder("loaded")
            .bind(jp(), Mechanism::barrier_before())
            .bind(jp(), Mechanism::parallel().threads(2).nested(true))
            .bind(jp(), Mechanism::master())
            .bind(jp(), Mechanism::critical_with(self.critical.clone()))
            .bind(jp(), Mechanism::custom(Half))
            .bind(jp(), Mechanism::for_loop(Schedule::StaticBlock))
            .bind(
                jp(),
                Mechanism::reduce_after(move || Self::note(&reduce_outcome, "reduce")),
            )
            .bind(jp(), Mechanism::barrier_after())
            .build();
        woven(aspect, || {
            self.in_enclosing_team(|| {
                let tid = ENCLOSING_TID.get();
                aomp_weaver::call_for("loaded.jp", Self::RANGE, |lo, hi, step| {
                    ENCLOSING_TID.set(tid);
                    self.body(lo, hi, step)
                });
            })
        })
    }

    fn hand_nested(&self) -> Outcome {
        let jp = JoinPoint::for_method("loaded.jp", Self::RANGE);
        self.in_enclosing_team(|| {
            let tid = ENCLOSING_TID.get();
            barrier();
            region::parallel_with(Self::region().nested(true), || {
                ENCLOSING_TID.set(tid);
                self.master.run_nowait(|| {
                    self.critical.run(|| {
                        Half.around_for(&jp, Self::RANGE, &mut |lo, hi, step| {
                            self.for_construct
                                .execute(LoopRange::new(lo, hi, step), |lo, hi, step| {
                                    self.body(lo, hi, step)
                                });
                        });
                    });
                });
                barrier();
                if thread_id() == 0 {
                    Self::note(&self.outcome, "reduce");
                }
                barrier();
            });
            barrier();
        })
    }
}

#[test]
fn loaded_join_point_matches_its_hand_nested_twin_on_every_schedule() {
    let seeds = check::seeds_from_env(32);
    let explore = |run: fn(&Loaded) -> Outcome| {
        let outcomes = Mutex::new(Vec::new());
        let report = check::Explorer::new().random(seeds, 0x0E_EA5E, || {
            outcomes.lock().unwrap().push(run(&Loaded::new()));
        });
        report.assert_ok();
        assert_eq!(report.schedules(), seeds);
        (outcomes.into_inner().unwrap(), report.digests())
    };
    let (woven, woven_digests) = explore(Loaded::woven);
    let (hand, hand_digests) = explore(Loaded::hand_nested);
    assert_eq!(woven, hand, "same seeds, same final state on each schedule");
    assert_eq!(
        woven_digests, hand_digests,
        "same seeds, the very same interleavings"
    );
    assert!(woven_digests.len() > 1, "the exploration must branch");
    // The reference also pins what the composition computes: the master
    // of each woven team runs its static block of the advice-halved range.
    let first = &woven[0];
    assert_eq!(first.sum, 2 * (0..4).sum::<i64>());
    assert_eq!(
        first
            .log
            .iter()
            .filter(|(what, ..)| *what == "reduce")
            .count(),
        2
    );
}
