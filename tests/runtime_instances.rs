//! Explicit runtime instances: two [`Runtime`]s coexist in one process
//! sharing nothing — not hot teams, not executor workers, not counters —
//! nested regions inherit the enclosing runtime, and dropping a runtime
//! joins its threads within a bounded time.
//!
//! Every test takes [`SERIAL`]: some assert on process thread counts or
//! mutate the default runtime, and the rest stay out of their way.

use aomp::obs::Counter;
use aomp::region::RegionConfig;
use aomp::{ctx, region, runtime, Runtime};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// `(pooled regions, spawned regions, teams created)` on `rt` so far.
fn team_counts(rt: &Runtime) -> (u64, u64, u64) {
    let s = rt.metrics_snapshot();
    (
        s.counter(Counter::RegionPooled),
        s.counter(Counter::RegionSpawned),
        s.counter(Counter::TeamsCreated),
    )
}

#[test]
fn two_runtimes_observe_disjoint_counters() {
    let _s = serial();
    let a = Runtime::builder().threads(3).build();
    let b = Runtime::builder().threads(3).build();

    // Same team size on both, concurrently: if the hot-team cache or the
    // counters were shared, attribution below would bleed across.
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..3 {
                let hits = AtomicUsize::new(0);
                a.parallel(|| {
                    hits.fetch_add(1, Ordering::SeqCst);
                    ctx::barrier();
                });
                assert_eq!(hits.load(Ordering::SeqCst), 3);
            }
        });
        s.spawn(|| {
            for _ in 0..2 {
                let hits = AtomicUsize::new(0);
                b.parallel_with(RegionConfig::new().pooled(false), || {
                    hits.fetch_add(1, Ordering::SeqCst);
                    ctx::barrier();
                });
                assert_eq!(hits.load(Ordering::SeqCst), 3);
            }
        });
    });

    assert_eq!(
        team_counts(&a),
        (3, 0, 1),
        "runtime A: 3 pooled regions off one cached team"
    );
    assert_eq!(
        team_counts(&b),
        (0, 2, 0),
        "runtime B (pooled(false) regions): 2 spawned regions"
    );
    assert_eq!(b.metrics_snapshot().counter(Counter::PoolCacheMiss), 0);
}

#[test]
fn nested_region_inherits_the_enclosing_runtime() {
    let _s = serial();
    let rt = Runtime::builder().threads(4).build();
    let inner_sizes = Mutex::new(Vec::new());

    rt.parallel_with(RegionConfig::new().threads(2).nested(true), || {
        if ctx::thread_id() == 0 {
            // Free-function entry, no explicit runtime: must resolve to
            // `rt` (the member thread's ambient runtime), not the
            // process default — so the team size is rt's default of 4.
            region::parallel(|| {
                if ctx::thread_id() == 0 {
                    inner_sizes.lock().unwrap().push(ctx::team_size());
                }
            });
        }
        ctx::barrier();
    });

    assert_eq!(*inner_sizes.lock().unwrap(), vec![4]);
    let (pooled, spawned, _) = team_counts(&rt);
    assert_eq!(pooled, 1, "outer region pooled");
    assert_eq!(
        spawned, 1,
        "inner nested region spawned on rt, not on the default runtime"
    );
}

#[test]
fn spawned_tasks_inherit_the_spawning_runtime() {
    let _s = serial();
    let rt = Runtime::builder().threads(2).build();
    let done = std::sync::mpsc::channel();
    let tx = done.0;
    rt.spawn(move || {
        // The task body runs with the spawning runtime entered, so a
        // nested free-function spawn lands on the same executor.
        let inner_tx = tx.clone();
        aomp::task::spawn(move || {
            inner_tx.send(ctx::team_size()).unwrap();
        });
    });
    done.1
        .recv_timeout(Duration::from_secs(10))
        .expect("nested task ran");
    let snap = rt.metrics_snapshot();
    assert_eq!(
        snap.counter(Counter::TaskSpawned),
        2,
        "both the explicit and the nested spawn dispatch through rt"
    );
}

#[test]
fn refused_task_outcomes_are_attributed_to_their_runtime() {
    let _s = serial();
    let neighbour = Runtime::builder().threads(2).build();
    let outcomes = [
        Counter::TaskRefusedSaturated,
        Counter::TaskDedicated,
        Counter::TaskInline,
    ];
    let read = |rt: &Runtime| outcomes.map(|c| rt.metrics_snapshot().counter(c));

    // One worker, blocked: the second task is refused as saturated and
    // falls back to a dedicated thread.
    let saturated = Runtime::builder().threads(2).task_workers(1).build();
    let (release, blocked) = std::sync::mpsc::channel::<()>();
    let first = saturated.spawn_future(move || blocked.recv().ok());
    assert_eq!(saturated.spawn_future(|| 8).get(), 8);
    release.send(()).unwrap();
    assert_eq!(first.get(), Some(()));
    assert_eq!(read(&saturated), [1, 1, 0]);

    assert_eq!(read(&neighbour), [0; 3], "a neighbour's scope stays clean");
}

/// Thread ids (`/proc/self/task`) present right now, for the bounded
/// join assertion below. Linux-only, which CI is.
#[cfg(target_os = "linux")]
fn live_tids() -> std::collections::HashSet<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|e| Some(e.ok()?.file_name().to_string_lossy().into_owned()))
        .collect()
}

#[cfg(target_os = "linux")]
#[test]
fn dropping_a_runtime_joins_its_threads() {
    let _s = serial();
    let before = live_tids();

    let rt = Runtime::builder().threads(3).build();
    // Materialise both thread populations: a pooled team (parked on the
    // cache after the region) and at least one executor worker.
    rt.parallel(|| {
        ctx::barrier();
    });
    let (tx, rx) = std::sync::mpsc::channel();
    rt.spawn(move || tx.send(()).unwrap());
    rx.recv_timeout(Duration::from_secs(10)).expect("task ran");

    // Only the runtime's own threads (every team, executor and watchdog
    // thread is named `aomp-…`): the process also grows libtest threads —
    // the next test's is parked on `SERIAL` until this one returns.
    let is_runtime_thread = |tid: &String| {
        std::fs::read_to_string(format!("/proc/self/task/{tid}/comm"))
            .is_ok_and(|comm| comm.starts_with("aomp-"))
    };
    let during = live_tids();
    let born: Vec<String> = during
        .difference(&before)
        .filter(|tid| is_runtime_thread(tid))
        .cloned()
        .collect();
    assert!(
        !born.is_empty(),
        "the runtime should have spawned pool/executor threads"
    );

    drop(rt);

    // Drop joins the executor synchronously and tears down cached teams;
    // give stragglers a bounded grace period rather than a fixed sleep.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = live_tids();
        let leftover: Vec<&String> = born.iter().filter(|t| now.contains(*t)).collect();
        if leftover.is_empty() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "threads {leftover:?} outlived their runtime's drop"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn set_default_threads_affects_only_the_default_runtime() {
    let _s = serial();
    let rt = Runtime::builder().threads(3).build();
    let prev = runtime::default_threads();
    runtime::set_default_threads(7);
    assert_eq!(runtime::default_threads(), 7);
    assert_eq!(
        rt.default_threads(),
        3,
        "builder-configured runtimes ignore default-runtime mutation"
    );
    rt.set_default_threads(5);
    assert_eq!(runtime::default_threads(), 7, "and vice versa");
    runtime::set_default_threads(prev);
}

#[test]
fn builder_ignores_env_knobs() {
    let _s = serial();
    // Env vars seed the *default* runtime once at first use; the builder
    // never consults them.
    std::env::set_var("AOMP_NUM_THREADS", "193");
    let rt = Runtime::builder().build();
    assert_ne!(rt.default_threads(), 193);
    std::env::remove_var("AOMP_NUM_THREADS");
}

static MACRO_RT: OnceLock<Runtime> = OnceLock::new();

fn macro_rt() -> &'static Runtime {
    MACRO_RT.get_or_init(|| Runtime::builder().threads(2).build())
}

#[aomp_macros::parallel(runtime = macro_rt().clone())]
fn annotated_region(hits: &AtomicUsize) {
    hits.fetch_add(1, Ordering::SeqCst);
    ctx::barrier();
}

#[test]
fn parallel_macro_accepts_a_runtime_argument() {
    let _s = serial();
    let hits = AtomicUsize::new(0);
    annotated_region(&hits);
    assert_eq!(hits.load(Ordering::SeqCst), 2, "team size comes from rt");
    assert!(team_counts(macro_rt()).0 >= 1);
}

#[test]
fn region_config_runtime_pins_the_region() {
    let _s = serial();
    let rt = Runtime::builder().threads(2).build();
    let sizes = Mutex::new(Vec::new());
    // Free function + explicit cfg.runtime: no `enter` needed.
    region::parallel_with(RegionConfig::new().runtime(&rt), || {
        if ctx::thread_id() == 0 {
            sizes.lock().unwrap().push(ctx::team_size());
        }
    });
    assert_eq!(*sizes.lock().unwrap(), vec![2]);
    assert_eq!(team_counts(&rt).0, 1);
}

#[test]
fn enter_guard_redirects_free_functions() {
    let _s = serial();
    let rt = Runtime::builder().threads(3).build();
    {
        let _g = rt.enter();
        region::parallel(|| {
            ctx::barrier();
        });
    }
    assert_eq!(team_counts(&rt).0, 1);
    // Guard dropped: free functions are back on the default runtime.
    assert_ne!(runtime::default_threads(), 0);
}
