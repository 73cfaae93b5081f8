//! MonteCarlo over replicated shared state (`aomp::nr`) — the results
//! accumulator as a `Replicated` structure instead of a raw shared slice.
//!
//! The JGF code appends each run's result to a shared `results` vector
//! under a lock (the `@Critical` flavour of the accumulator). Here the
//! vector lives behind [`aomp::nr::Replicated`]: every thread *logs* a
//! `Record { k, v }` write operation under its replica's lock, and each
//! per-node replica replays the log. Because each record is keyed by its
//! run index, the final structure is independent of log order and the
//! variant stays bitwise identical to the sequential version — which
//! makes it a good differential oracle for the NR machinery on a real
//! workload.

use aomp::nr::{Dispatch, Replicated};
use aomp::prelude::*;

use super::{finish, simulate_run, McData, McResult};

/// One per-run result heading for the accumulator log.
#[derive(Clone, Debug)]
pub struct Record {
    /// Run index (slot in the results vector).
    pub k: usize,
    /// The run's expected return rate estimate.
    pub v: f64,
}

/// The single-threaded structure being replicated: the JGF `results`
/// vector with index-keyed insertion.
#[derive(Clone)]
pub struct Slots {
    results: Vec<f64>,
}

impl Slots {
    /// An accumulator with `nruns` zeroed slots.
    pub fn new(nruns: usize) -> Self {
        Slots {
            results: vec![0.0; nruns],
        }
    }
}

impl Dispatch for Slots {
    type ReadOp = usize;
    type WriteOp = Record;
    type Response = f64;

    fn dispatch(&self, op: &usize) -> f64 {
        self.results[*op]
    }

    fn dispatch_mut(&mut self, op: &Record) -> f64 {
        self.results[op.k] = op.v;
        op.v
    }
}

/// Run on `threads` threads, accumulating through the replicated store.
pub fn run(d: &McData, threads: usize) -> McResult {
    let repl = Replicated::new(Slots::new(d.nruns));
    let for_c = ForConstruct::new(Schedule::StaticCyclic);
    region::parallel_with(RegionConfig::new().threads(threads), || {
        for_c.execute(LoopRange::new(0, d.nruns as i64, 1), |lo, hi, st| {
            let mut k = lo;
            while k < hi {
                repl.execute(Record {
                    k: k as usize,
                    v: simulate_run(d, k as usize),
                });
                k += st;
            }
        });
    });
    repl.sync();
    finish(repl.read_direct(|s| s.results.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Size;
    use crate::montecarlo::{generate, validate};

    #[test]
    fn nr_matches_seq_bitwise() {
        let d = generate(Size::Small);
        let s = crate::montecarlo::seq::run(&d);
        for t in [1, 2, 4] {
            let r = run(&d, t);
            assert_eq!(r.results, s.results, "nr t={t}");
            assert_eq!(r.avg, s.avg, "nr t={t}");
            assert!(validate(&d, &r));
        }
    }

    #[test]
    fn replicated_reads_linearize_with_writes() {
        // A read issued after a write from the same thread must observe
        // it (reads catch the replica up to the log tail at invocation).
        let d = generate(Size::Small);
        let repl = Replicated::new(Slots::new(d.nruns));
        let v = simulate_run(&d, 3);
        repl.execute(Record { k: 3, v });
        assert_eq!(repl.execute_ro(&3usize), v);
    }

    /// A shared tally that is only sound under mutual exclusion —
    /// exercised through the `#[replicated]` annotation macro.
    struct Tally(std::cell::UnsafeCell<u64>);
    unsafe impl Sync for Tally {}
    impl Tally {
        fn bump(&self) -> u64 {
            unsafe {
                *self.0.get() += 1;
                *self.0.get()
            }
        }
        fn get(&self) -> u64 {
            unsafe { *self.0.get() }
        }
    }

    #[aomp_macros::replicated(id = "jgf.mc.tally")]
    fn bump_tally(t: &Tally) -> u64 {
        t.bump()
    }

    #[test]
    fn replicated_macro_serialises_sections() {
        let tally = Tally(std::cell::UnsafeCell::new(0));
        let tally = &tally;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(move || {
                    for _ in 0..250 {
                        bump_tally(tally);
                    }
                });
            }
        });
        assert_eq!(tally.get(), 1000);
    }
}
