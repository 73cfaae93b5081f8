//! Integration: the pooled team executor composes with the rest of the
//! library — constructs, thread-local fields, the weaver and the JGF
//! kernels all behave identically under `TeamPool`.

use aomplib::prelude::*;
use aomplib::runtime::obs::Counter;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

#[test]
fn pool_with_for_and_reduce() {
    let pool = TeamPool::new(4);
    let field = ThreadLocalField::new(0i64);
    let for_c = ForConstruct::new(Schedule::StaticBlock);
    pool.parallel(|| {
        for_c.execute(LoopRange::upto(0, 1000), |lo, hi, step| {
            let mut local = 0;
            let mut i = lo;
            while i < hi {
                local += i;
                i += step;
            }
            field.update_or_init(|| 0, |v| *v += local);
        });
    });
    field.reduce(&SumReducer);
    assert_eq!(field.get_global(), (0..1000).sum::<i64>());
}

#[test]
fn pool_with_single_master_critical() {
    let pool = TeamPool::new(3);
    let single = Single::new();
    let master = Master::new();
    let crit = CriticalHandle::new();
    let singles = AtomicUsize::new(0);
    let masters = AtomicUsize::new(0);
    let crits = AtomicUsize::new(0);
    pool.parallel(|| {
        single.run(|| {
            singles.fetch_add(1, Ordering::SeqCst);
        });
        master.run(|| {
            masters.fetch_add(1, Ordering::SeqCst);
        });
        crit.run(|| {
            crits.fetch_add(1, Ordering::SeqCst);
        });
        barrier();
    });
    assert_eq!(singles.load(Ordering::SeqCst), 1);
    assert_eq!(masters.load(Ordering::SeqCst), 1);
    assert_eq!(crits.load(Ordering::SeqCst), 3);
}

#[test]
fn pool_repeated_regions_reuse_constructs() {
    let pool = TeamPool::new(2);
    let for_c = ForConstruct::new(Schedule::Dynamic { chunk: 3 });
    let total = AtomicI64::new(0);
    for _ in 0..10 {
        pool.parallel(|| {
            for_c.execute(LoopRange::upto(0, 50), |lo, hi, step| {
                let mut i = lo;
                while i < hi {
                    total.fetch_add(i, Ordering::Relaxed);
                    i += step;
                }
            });
        });
    }
    assert_eq!(total.load(Ordering::Relaxed), 10 * (0..50).sum::<i64>());
}

#[test]
fn pool_inside_weaver_woven_code() {
    // A pooled region can host woven join points (the weaver sees the
    // pool's team context like any other).
    let pool = TeamPool::new(3);
    let hits = AtomicUsize::new(0);
    let aspect = AspectModule::builder("PoolWeave")
        .bind(Pointcut::call("pool.it.master"), Mechanism::master())
        .build();
    Weaver::global().with_deployed(aspect, || {
        pool.parallel(|| {
            aomp_weaver::call("pool.it.master", || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
            barrier();
        });
    });
    assert_eq!(
        hits.load(Ordering::SeqCst),
        1,
        "master gate works inside the pool"
    );
}

#[test]
fn pool_runs_jgf_kernel() {
    use aomplib::jgf::{self, Size};
    // Drive the Series for-method body through a pooled team manually.
    let n = jgf::series::coefficients_for(Size::Small);
    let seq = jgf::series::seq::run(n);
    let pool = TeamPool::new(4);
    let mut a = vec![0.0; n];
    let mut b = vec![0.0; n];
    {
        let a_s = aomp::cell::SyncSlice::new(&mut a);
        let b_s = aomp::cell::SyncSlice::new(&mut b);
        let for_c = ForConstruct::new(Schedule::StaticCyclic);
        pool.parallel(|| {
            for_c.execute(LoopRange::upto(0, n as i64), |lo, hi, step| {
                let mut k = lo;
                while k < hi {
                    let (ak, bk) = jgf::series::coefficient_pair(k as usize);
                    // SAFETY: index k is schedule-owned.
                    unsafe {
                        a_s.set(k as usize, ak);
                        b_s.set(k as usize, bk);
                    }
                    k += step;
                }
            });
        });
    }
    assert_eq!(a, seq.coeffs[0]);
    assert_eq!(b, seq.coeffs[1]);
}

#[test]
fn user_owned_pool_is_distinct_from_the_runtime_cache() {
    // `TeamPool::parallel` runs on the pool's own private runtime — it
    // must neither consult nor count against the cache of the runtime the
    // caller has entered.
    let pool = TeamPool::new(6);
    let ambient = Runtime::builder().build();
    let _in_ambient = ambient.enter();
    let before = ambient.metrics_snapshot();
    for _ in 0..5 {
        let hits = AtomicUsize::new(0);
        pool.parallel(|| {
            hits.fetch_add(1, Ordering::SeqCst);
            barrier();
        });
        assert_eq!(hits.load(Ordering::SeqCst), 6);
    }
    let moved = ambient.metrics_snapshot().since(&before);
    assert!(
        Counter::ALL.iter().all(|&c| moved.counter(c) == 0),
        "TeamPool::parallel must not move the entered runtime's counters:\n{}",
        moved.render_text()
    );
}
