//! Integration tests for `aomp::obs`: metrics deltas over real kernels,
//! dispatch accounting under a task burst, and chrome://tracing export.
//!
//! Metrics and the trace recorder are process-global, so every test
//! takes a file-local lock and asserts with `>=` (activity from the
//! serialized neighbours only ever adds).

use aomplib::prelude::*;
use aomplib::runtime::obs::{self, Counter, Lat};
use aomplib::simcore::Json;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// A small SOR-flavoured kernel: dynamic-scheduled loop, barrier,
/// critical, and a future task — touching every counter family the
/// acceptance criteria name.
fn kernel() -> i64 {
    let sum = AtomicI64::new(0);
    let for_c = ForConstruct::new(Schedule::Dynamic { chunk: 8 });
    region::parallel_with(RegionConfig::new().threads(4), || {
        for_c.execute(LoopRange::new(0, 256, 1), |lo, hi, step| {
            let mut local = 0;
            let mut i = lo;
            while i < hi {
                local += i;
                i += step;
            }
            sum.fetch_add(local, Ordering::Relaxed);
        });
        barrier();
        critical_named("obs-test", || {
            sum.fetch_add(1, Ordering::Relaxed);
        });
        if thread_id() == 0 {
            // TaskJoin events are team-scoped: join the future in-team.
            let fut = task::spawn_future(|| 17);
            sum.fetch_add(fut.get(), Ordering::Relaxed);
        }
    });
    sum.load(Ordering::Relaxed)
}

#[test]
fn kernel_delta_reports_nonzero_counters() {
    let _g = serialize();
    obs::set_metrics(true);
    let before = obs::snapshot();
    let v = kernel();
    let delta = obs::snapshot().since(&before);
    obs::set_metrics(false);

    assert_eq!(v, (0..256).sum::<i64>() + 4 + 17);
    let regions = delta.counter(Counter::RegionPooled) + delta.counter(Counter::RegionSpawned);
    assert!(regions >= 1, "no region counted:\n{}", delta.render_text());
    assert!(
        delta.counter(Counter::ChunkDynamic) >= 4,
        "dynamic handouts"
    );
    assert!(delta.counter(Counter::BarrierRounds) >= 4, "barrier rounds");
    assert!(delta.counter(Counter::CriticalAcquired) >= 4, "criticals");
    assert!(delta.counter(Counter::TaskSpawned) >= 1, "task spawn");
    assert!(delta.counter(Counter::TaskJoins) >= 1, "future get join");
    // The barrier wait histogram saw the same rounds.
    assert!(delta.hist(Lat::WaitBarrier).count() >= 4);
    // Region round-trips were timed for whichever executor served them.
    let timed = delta.hist(Lat::RegionPooled).count()
        + delta.hist(Lat::RegionSpawned).count()
        + delta.hist(Lat::RegionInline).count();
    assert!(timed >= 1);
}

#[test]
fn task_burst_records_dispatch_outcomes() {
    let _g = serialize();
    obs::set_metrics(true);
    let before = obs::snapshot();
    let group = TaskGroup::new();
    for _ in 0..200 {
        group.spawn(|| {
            std::hint::black_box(0u64);
        });
    }
    group.wait();
    let delta = obs::snapshot().since(&before);
    obs::set_metrics(false);

    assert!(delta.counter(Counter::TaskSpawned) >= 200);
    let placed = delta.counter(Counter::TaskPooled)
        + delta.counter(Counter::TaskDedicated)
        + delta.counter(Counter::TaskInline);
    assert!(
        placed >= 200,
        "every spawn has a dispatch outcome:\n{}",
        delta.render_text()
    );
}

#[test]
fn metrics_render_json_is_valid() {
    let _g = serialize();
    let doc = Json::parse(&obs::snapshot().render_json()).expect("render_json parses");
    let counters = doc.get("counters").expect("counters object");
    for c in Counter::ALL {
        assert!(
            counters.get(c.name()).and_then(Json::as_f64).is_some(),
            "counter {} missing",
            c.name()
        );
    }
    let lat = doc.get("latency_ns").expect("latency_ns object");
    for l in Lat::ALL {
        let h = lat
            .get(l.name())
            .unwrap_or_else(|| panic!("hist {} missing", l.name()));
        for field in ["count", "sum", "mean", "p50", "p99"] {
            assert!(h.get(field).is_some(), "{}.{field} missing", l.name());
        }
    }
}

#[test]
fn metrics_off_a_pooled_region_counts_only_in_its_runtime() {
    let _g = serialize();
    // With metrics off nothing ticks the process registry, so the exact
    // checks below hold whatever ran before.
    obs::set_metrics(false);
    let rt = Runtime::builder().build();
    let team = || RegionConfig::new().threads(2);
    rt.parallel_with(team(), || {}); // warm: the next lease hits
    let (global, scoped) = (obs::snapshot(), rt.metrics_snapshot());
    rt.parallel_with(team(), || {});
    let (global, scoped) = (
        obs::snapshot().since(&global),
        rt.metrics_snapshot().since(&scoped),
    );
    for c in [Counter::RegionPooled, Counter::PoolCacheHit] {
        assert_eq!(scoped.counter(c), 1, "{}", c.name());
        assert_eq!(global.counter(c), 0, "{}", c.name());
    }
}

#[test]
fn trace_exports_loadable_chrome_json() {
    let _g = serialize();
    obs::trace::start();
    assert!(obs::trace::running());
    let for_c = ForConstruct::new(Schedule::StaticBlock);
    region::parallel_with(RegionConfig::new().threads(3), || {
        for_c.execute(LoopRange::new(0, 30, 1), |lo, hi, _step| {
            std::hint::black_box(hi - lo);
        });
        barrier();
        critical_named("obs-trace", || {});
    });
    let path = std::env::temp_dir().join("aomp-obs-trace-test.json");
    let path = path.to_str().expect("utf-8 temp path");
    let n = obs::trace::stop_to_file(path).expect("trace written");
    assert!(!obs::trace::running());
    assert!(n > 0, "trace captured no events");

    let text = std::fs::read_to_string(path).expect("trace readable");
    let doc = Json::parse(&text).expect("trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut names = std::collections::HashSet::new();
    for ev in events {
        // Every event carries the chrome://tracing required fields.
        assert!(ev.get("ph").and_then(Json::as_str).is_some());
        assert!(ev.get("pid").is_some());
        assert!(ev.get("tid").is_some());
        if ev.get("ph").and_then(Json::as_str) != Some("M") {
            assert!(ev.get("ts").and_then(Json::as_f64).is_some());
        }
        if let Some(name) = ev.get("name").and_then(Json::as_str) {
            names.insert(name.to_owned());
        }
    }
    assert!(names.contains("region"), "region slices in {names:?}");
    assert!(
        names.contains("chunk:static-block"),
        "handout instants in {names:?}"
    );
    assert!(
        names.contains("barrier-exit"),
        "barrier instants in {names:?}"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn wait_histograms_grow_under_contention() {
    let _g = serialize();
    obs::set_metrics(true);
    let before = obs::snapshot();
    let h = CriticalHandle::new();
    region::parallel_with(RegionConfig::new().threads(4), || {
        // Line every member up, then hold the lock long enough that the
        // other three must find it taken at least once.
        barrier();
        for _ in 0..20 {
            h.run(|| std::thread::sleep(Duration::from_micros(200)));
        }
        barrier();
    });
    let delta = obs::snapshot().since(&before);
    obs::set_metrics(false);
    assert!(delta.counter(Counter::CriticalAcquired) >= 80);
    assert!(delta.hist(Lat::WaitBarrier).count() >= 4);
    // 4 threads hammering one lock: at least one acquire must have found
    // it held (the contention probe) or blocked long enough to time.
    assert!(
        delta.counter(Counter::CriticalContended) >= 1
            || delta.hist(Lat::WaitCritical).count() >= 1
    );
}

#[test]
fn metrics_on_and_watched_entries_stay_near_the_plain_pooled_entry() {
    // Wall-clock-sensitive; skipped where AOMP_CHECK_NO_WALLCLOCK is set
    // (CI's schedule-check job, whose wall-clock leg clears it and runs
    // this in release).
    if std::env::var_os("AOMP_CHECK_NO_WALLCLOCK").is_some_and(|v| v != "0") {
        eprintln!("metrics_on_and_watched_entries_stay_near_the_plain_pooled_entry: skipped (AOMP_CHECK_NO_WALLCLOCK)");
        return;
    }
    let _g = serialize();
    const ITERS: u32 = 200;
    // Mean wall time of one empty region entry over a batch.
    let per_entry = |enter: &dyn Fn()| {
        let t0 = Instant::now();
        for _ in 0..ITERS {
            enter();
        }
        t0.elapsed() / ITERS
    };
    let plain = || region::parallel_with(RegionConfig::new().threads(2), || {});
    // The entry a served request pays: cancellable, with a stall deadline
    // registered with the runtime's watchdog.
    let watched = || {
        let cfg = RegionConfig::new()
            .threads(2)
            .cancellable(true)
            .stall_deadline(Duration::from_millis(500));
        region::try_parallel_with(cfg, || {}).expect("an empty region cannot fail");
    };
    // Best batch of five per configuration. The three alternate batch by
    // batch, so a burst of host noise cannot land on one of them only;
    // round 0 warms the hot-team cache and the watchdog thread.
    let mut best = [Duration::MAX; 3];
    for round in 0..6 {
        let plain_t = per_entry(&plain);
        obs::set_metrics(true);
        let metrics_on_t = per_entry(&plain);
        obs::set_metrics(false);
        let watched_t = per_entry(&watched);
        if round > 0 {
            for (b, t) in best.iter_mut().zip([plain_t, metrics_on_t, watched_t]) {
                *b = (*b).min(t);
            }
        }
    }
    let [plain, metrics_on, watched] = best;
    eprintln!("pooled entry: plain {plain:?}, metrics on {metrics_on:?}, watched {watched:?}");
    assert!(
        metrics_on <= plain * 5,
        "metrics-on pooled entry {metrics_on:?} vs metrics-off {plain:?}"
    );
    assert!(
        watched <= plain * 3,
        "watched pooled entry {watched:?} vs plain {plain:?}"
    );
}

#[test]
fn one_dependence_wait_is_one_sample_and_one_slice() {
    // A member that sleeps ~30 ms in `DepGroup::wait` waited once: one
    // histogram sample of that length and one trace slice, not one
    // park-tick-sized sample per tick.
    let _g = serialize();
    let waiting = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let g = DepGroup::new();
    // Spawned outside a team: the task runs on the executor, so the
    // joining member cannot help itself to it.
    let w = std::sync::Arc::clone(&waiting);
    g.spawn([], move || {
        while !w.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_micros(100));
        }
        std::thread::sleep(Duration::from_millis(30));
    });
    obs::set_metrics(true);
    obs::trace::start();
    let before = obs::snapshot();
    region::parallel_with(RegionConfig::new().threads(2), || {
        if thread_id() == 0 {
            waiting.store(true, Ordering::Release);
            g.wait().expect("no cycle");
        }
    });
    let delta = obs::snapshot().since(&before);
    obs::set_metrics(false);
    let path = std::env::temp_dir().join("aomp-obs-dep-wait-test.json");
    let path = path.to_str().expect("utf-8 temp path");
    obs::trace::stop_to_file(path).expect("trace written");

    let waits = delta.hist(Lat::WaitTaskWait);
    assert_eq!(waits.count(), 1, "one wait, one sample");
    assert!(
        waits.sum_ns() >= 25_000_000,
        "the sample is the whole wait: {} ns",
        waits.sum_ns()
    );
    let text = std::fs::read_to_string(path).expect("trace readable");
    let doc = Json::parse(&text).expect("trace is valid JSON");
    let slices = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array")
        .iter()
        .filter(|ev| ev.get("name").and_then(Json::as_str) == Some("wait:task-wait"))
        .count();
    assert_eq!(slices, 1, "one wait, one slice");
    let _ = std::fs::remove_file(path);
}
