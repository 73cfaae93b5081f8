//! Integration tests for the annotation style (`aomp-macros`): the Rust
//! stand-in for AOmpLib's `@Parallel`, `@For`, `@Critical`, `@Master`,
//! `@Single`, `@BarrierBefore/After`, `@Task`, `@FutureTask`.

use aomplib::prelude::*;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

static REGION_HITS: AtomicUsize = AtomicUsize::new(0);

#[parallel(threads = 4)]
fn annotated_region() {
    REGION_HITS.fetch_add(1, Ordering::SeqCst);
}

#[test]
fn parallel_attribute_creates_team() {
    REGION_HITS.store(0, Ordering::SeqCst);
    annotated_region();
    assert_eq!(REGION_HITS.load(Ordering::SeqCst), 4);
}

#[for_loop(schedule = "staticBlock")]
fn accumulate(start: i64, end: i64, step: i64, sum: &AtomicI64) {
    let mut local = 0;
    let mut i = start;
    while i < end {
        local += i;
        i += step;
    }
    sum.fetch_add(local, Ordering::SeqCst);
}

#[parallel(threads = 3)]
fn region_with_for(sum: &AtomicI64) {
    accumulate(0, 1000, 1, sum);
}

#[test]
fn for_loop_attribute_workshares() {
    let sum = AtomicI64::new(0);
    region_with_for(&sum);
    assert_eq!(sum.load(Ordering::SeqCst), (0..1000).sum::<i64>());
}

#[test]
fn for_loop_attribute_sequential_without_region() {
    let sum = AtomicI64::new(0);
    accumulate(0, 100, 1, &sum);
    assert_eq!(sum.load(Ordering::SeqCst), (0..100).sum::<i64>());
}

#[for_loop(schedule = "dynamic", chunk = 7)]
fn accumulate_dynamic(start: i64, end: i64, step: i64, sum: &AtomicI64) {
    let mut local = 0;
    let mut i = start;
    while i < end {
        local += i * 2;
        i += step;
    }
    sum.fetch_add(local, Ordering::SeqCst);
}

#[parallel(threads = 4)]
fn region_with_dynamic_for(sum: &AtomicI64) {
    accumulate_dynamic(0, 500, 1, sum);
}

#[test]
fn dynamic_for_attribute_covers_range() {
    let sum = AtomicI64::new(0);
    region_with_dynamic_for(&sum);
    assert_eq!(
        sum.load(Ordering::SeqCst),
        (0..500).map(|i| i * 2).sum::<i64>()
    );
}

// The paper Figure 8 pattern: @Master @BarrierBefore @BarrierAfter.
static MASTER_EXECS: AtomicUsize = AtomicUsize::new(0);

#[master]
#[barrier_before]
#[barrier_after]
fn master_step() {
    MASTER_EXECS.fetch_add(1, Ordering::SeqCst);
}

#[parallel(threads = 4)]
fn region_with_master_step() {
    for _ in 0..5 {
        master_step();
    }
}

#[test]
fn master_with_barriers_executes_once_per_encounter() {
    MASTER_EXECS.store(0, Ordering::SeqCst);
    region_with_master_step();
    assert_eq!(MASTER_EXECS.load(Ordering::SeqCst), 5);
}

static MASTER_VALUE_EXECS: AtomicUsize = AtomicUsize::new(0);

#[master]
fn master_value() -> u64 {
    MASTER_VALUE_EXECS.fetch_add(1, Ordering::SeqCst);
    4242
}

static BROADCAST_OK: AtomicUsize = AtomicUsize::new(0);

#[parallel(threads = 3)]
fn region_with_master_value() {
    if master_value() == 4242 {
        BROADCAST_OK.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn master_broadcasts_return_value() {
    MASTER_VALUE_EXECS.store(0, Ordering::SeqCst);
    BROADCAST_OK.store(0, Ordering::SeqCst);
    region_with_master_value();
    assert_eq!(MASTER_VALUE_EXECS.load(Ordering::SeqCst), 1);
    assert_eq!(
        BROADCAST_OK.load(Ordering::SeqCst),
        3,
        "all threads observe the master's value"
    );
}

static SINGLE_EXECS: AtomicUsize = AtomicUsize::new(0);

#[single]
fn single_init() -> i32 {
    SINGLE_EXECS.fetch_add(1, Ordering::SeqCst);
    7
}

static SINGLE_SUM: AtomicI64 = AtomicI64::new(0);

#[parallel(threads = 4)]
fn region_with_single() {
    SINGLE_SUM.fetch_add(single_init() as i64, Ordering::SeqCst);
}

#[test]
fn single_executes_once_and_broadcasts() {
    SINGLE_EXECS.store(0, Ordering::SeqCst);
    SINGLE_SUM.store(0, Ordering::SeqCst);
    region_with_single();
    assert_eq!(SINGLE_EXECS.load(Ordering::SeqCst), 1);
    assert_eq!(SINGLE_SUM.load(Ordering::SeqCst), 28);
}

// Non-atomic state protected only by @Critical.
static mut CRIT_COUNTER: u64 = 0;

#[critical(id = "annotation-test-lock")]
fn bump_unsafely() {
    // Safe because all callers serialise through the named critical lock.
    unsafe { CRIT_COUNTER += 1 };
}

#[parallel(threads = 4)]
fn region_with_critical() {
    for _ in 0..250 {
        bump_unsafely();
    }
}

#[test]
fn critical_attribute_serialises() {
    unsafe { CRIT_COUNTER = 0 };
    region_with_critical();
    assert_eq!(unsafe { CRIT_COUNTER }, 1000);
}

#[task]
fn fire_and_forget(counter: std::sync::Arc<AtomicUsize>) {
    counter.fetch_add(1, Ordering::SeqCst);
}

#[test]
fn task_attribute_spawns_activity() {
    let counter = std::sync::Arc::new(AtomicUsize::new(0));
    fire_and_forget(std::sync::Arc::clone(&counter));
    let mut spins = 0;
    while counter.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
        spins += 1;
        assert!(spins < 10_000_000, "task never ran");
    }
    assert_eq!(counter.load(Ordering::SeqCst), 1);
}

#[future_task]
fn compute_square(x: u64) -> u64 {
    x * x
}

#[test]
fn future_task_attribute_returns_future() {
    let futures: Vec<_> = (1..=5).map(compute_square).collect();
    let total: u64 = futures.into_iter().map(|f| f.get()).sum();
    assert_eq!(total, 1 + 4 + 9 + 16 + 25);
}

#[for_loop(schedule = "cyclic")]
fn record_cyclic(start: i64, end: i64, step: i64, sum: &AtomicI64) {
    // Record which elements this thread got; cyclic stride == team size.
    let mut i = start;
    let mut local = 0;
    while i < end {
        local += i;
        i += step;
    }
    sum.fetch_add(local, Ordering::SeqCst);
}

#[parallel(threads = 4)]
fn region_with_cyclic(sum: &AtomicI64) {
    record_cyclic(0, 37, 1, sum);
}

#[test]
fn cyclic_for_attribute_covers_range() {
    let sum = AtomicI64::new(0);
    region_with_cyclic(&sum);
    assert_eq!(sum.load(Ordering::SeqCst), (0..37).sum::<i64>());
}

#[for_loop(schedule = "blockCyclic", chunk = 5)]
fn accumulate_block_cyclic(start: i64, end: i64, step: i64, sum: &AtomicI64) {
    let mut local = 0;
    let mut i = start;
    while i < end {
        local += i;
        i += step;
    }
    sum.fetch_add(local, Ordering::SeqCst);
}

#[parallel(threads = 3)]
fn region_with_block_cyclic(sum: &AtomicI64) {
    accumulate_block_cyclic(0, 123, 1, sum);
}

#[test]
fn block_cyclic_for_attribute_covers_range() {
    let sum = AtomicI64::new(0);
    region_with_block_cyclic(&sum);
    assert_eq!(sum.load(Ordering::SeqCst), (0..123).sum::<i64>());
}

#[for_loop(schedule = "guided", min_chunk = 3)]
fn accumulate_guided(start: i64, end: i64, step: i64, sum: &AtomicI64) {
    let mut local = 0;
    let mut i = start;
    while i < end {
        local += i * i;
        i += step;
    }
    sum.fetch_add(local, Ordering::SeqCst);
}

#[parallel(threads = 4)]
fn region_with_guided(sum: &AtomicI64) {
    accumulate_guided(0, 200, 1, sum);
}

#[test]
fn guided_for_attribute_covers_range() {
    let sum = AtomicI64::new(0);
    region_with_guided(&sum);
    assert_eq!(
        sum.load(Ordering::SeqCst),
        (0..200).map(|i| i * i).sum::<i64>()
    );
}

#[for_loop(schedule = "adaptive", min_chunk = 2)]
fn accumulate_adaptive(start: i64, end: i64, step: i64, sum: &AtomicI64) {
    let mut local = 0;
    let mut i = start;
    while i < end {
        local += i * 3;
        i += step;
    }
    sum.fetch_add(local, Ordering::SeqCst);
}

#[parallel(threads = 4)]
fn region_with_adaptive(sum: &AtomicI64) {
    accumulate_adaptive(0, 250, 1, sum);
}

#[test]
fn adaptive_for_attribute_covers_range() {
    let sum = AtomicI64::new(0);
    region_with_adaptive(&sum);
    assert_eq!(
        sum.load(Ordering::SeqCst),
        (0..250).map(|i| i * 3).sum::<i64>()
    );
}

#[critical]
fn anonymous_critical_bump(counter: &AtomicUsize) {
    counter.fetch_add(1, Ordering::SeqCst);
}

#[test]
fn critical_attribute_without_id_uses_private_lock() {
    let counter = AtomicUsize::new(0);
    anonymous_critical_bump(&counter);
    anonymous_critical_bump(&counter);
    assert_eq!(counter.load(Ordering::SeqCst), 2);
}

#[single]
fn single_unit_step(counter: &AtomicUsize) {
    counter.fetch_add(1, Ordering::SeqCst);
}

#[parallel(threads = 4)]
fn region_with_unit_single() {
    static C: AtomicUsize = AtomicUsize::new(0);
    single_unit_step(&C);
    aomp::ctx::barrier();
    assert_eq!(C.load(Ordering::SeqCst), 1);
}

#[test]
fn unit_single_runs_once() {
    region_with_unit_single();
}

#[barrier_after]
fn barriered_value() -> u64 {
    thread_id() as u64
}

#[parallel(threads = 2)]
fn region_with_barriered_value() {
    let v = barriered_value();
    assert_eq!(
        v,
        thread_id() as u64,
        "barrier_after must pass the value through"
    );
}

#[test]
fn barrier_after_preserves_return_value() {
    region_with_barriered_value();
}

static IF_CLAUSE_HITS: AtomicUsize = AtomicUsize::new(0);

#[parallel(threads = 4, only_if = IF_CLAUSE_HITS.load(Ordering::SeqCst) >= 10)]
fn conditionally_parallel() {
    IF_CLAUSE_HITS.fetch_add(1, Ordering::SeqCst);
}

#[test]
fn only_if_clause_gates_parallelism() {
    IF_CLAUSE_HITS.store(0, Ordering::SeqCst);
    conditionally_parallel(); // condition false -> sequential (1 hit)
    assert_eq!(IF_CLAUSE_HITS.load(Ordering::SeqCst), 1);
    IF_CLAUSE_HITS.store(10, Ordering::SeqCst);
    conditionally_parallel(); // condition true -> team of 4
    assert_eq!(IF_CLAUSE_HITS.load(Ordering::SeqCst), 14);
}

#[parallel(threads = 2, only_if = "auto", runtime = rt)]
fn tiny_region(rt: &aomp::Runtime, hits: &AtomicUsize) {
    hits.fetch_add(1, Ordering::Relaxed);
}

#[test]
fn only_if_auto_runs_a_tiny_region_alone() {
    // A body far cheaper than a team round trip: after the four warm-up
    // entries the gate keeps it on the caller, bar a re-probe in 32.
    let rt = aomp::Runtime::builder().build();
    let hits = AtomicUsize::new(0);
    for _ in 0..512 {
        tiny_region(&rt, &hits);
    }
    let gated = rt
        .metrics_snapshot()
        .counter(aomp::obs::Counter::RegionGated) as usize;
    assert!(gated * 10 >= (512 - 4) * 9, "{gated} of 512 entries gated");
    // A gated entry runs the body once, a team entry once per member.
    assert_eq!(hits.load(Ordering::Relaxed), gated + 2 * (512 - gated));
}

// ---------------------------------------------------------------------
// Task dependences (`#[task(depend(...))]`) and `#[taskloop]`.

// Task parameters move into the activity, so each test hands the pair
// its own `'static` cells.
#[task(depend(out = "dep_cell"))]
fn dep_writer(cell: &'static AtomicI64) {
    cell.fetch_add(1, Ordering::SeqCst);
}

#[task(depend(in = "dep_cell"))]
fn dep_reader(cell: &'static AtomicI64, bad_reads: &'static AtomicUsize) {
    if cell.load(Ordering::SeqCst) == 0 {
        bad_reads.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn task_depend_attribute_orders_writer_before_reader() {
    static CELL: AtomicI64 = AtomicI64::new(0);
    static BAD_READS: AtomicUsize = AtomicUsize::new(0);
    let group = DepGroup::new();
    aomplib::runtime::deps::scope(&group, || {
        dep_writer(&CELL);
        dep_reader(&CELL, &BAD_READS);
    });
    group.wait().expect("acyclic");
    assert_eq!(CELL.load(Ordering::SeqCst), 1);
    assert_eq!(BAD_READS.load(Ordering::SeqCst), 0);
}

#[test]
fn task_depend_attribute_runs_inline_without_scope() {
    // Outside any ambient dependence scope a dependent task degrades to
    // an inline call — sequential semantics.
    static CELL: AtomicI64 = AtomicI64::new(0);
    static BAD_READS: AtomicUsize = AtomicUsize::new(0);
    dep_writer(&CELL);
    dep_reader(&CELL, &BAD_READS);
    assert_eq!(CELL.load(Ordering::SeqCst), 1);
    assert_eq!(BAD_READS.load(Ordering::SeqCst), 0);
}

#[taskloop(min_chunk = 4)]
fn taskloop_accumulate(start: i64, end: i64, step: i64, sum: &AtomicI64) {
    let mut local = 0;
    let mut i = start;
    while i < end {
        local += i;
        i += step;
    }
    sum.fetch_add(local, Ordering::SeqCst);
}

#[parallel(threads = 4)]
fn region_with_taskloop(sum: &AtomicI64) {
    taskloop_accumulate(0, 500, 1, sum);
}

#[test]
fn taskloop_attribute_covers_range_in_team() {
    let sum = AtomicI64::new(0);
    region_with_taskloop(&sum);
    assert_eq!(sum.load(Ordering::SeqCst), (0..500).sum::<i64>());
}

#[test]
fn taskloop_attribute_sequential_without_region() {
    let sum = AtomicI64::new(0);
    taskloop_accumulate(0, 100, 1, &sum);
    assert_eq!(sum.load(Ordering::SeqCst), (0..100).sum::<i64>());
}
