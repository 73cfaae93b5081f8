//! A per-thread event executor — the second, finer-grained simulator
//! mode.
//!
//! [`Simulator`](crate::exec::Simulator) treats every step as bulk
//! synchronous (all threads advance together), which over-synchronises
//! programs whose steps are *not* barrier-separated: a master-only step
//! followed by un-barriered parallel work really overlaps with the other
//! threads' progress. [`EventSimulator`] keeps one virtual clock per
//! thread and only aligns them at [`Step::Barrier`] — so the two
//! executors agree exactly on barrier-separated programs (a property
//! test enforces this) and the event executor gives a lower, tighter
//! bound elsewhere.

use crate::machine::Machine;
use crate::model::{Program, Step};

/// Per-thread virtual-time executor.
#[derive(Debug, Clone)]
pub struct EventSimulator {
    /// The machine model.
    pub machine: Machine,
}

impl EventSimulator {
    /// Executor for `machine`.
    pub fn new(machine: Machine) -> Self {
        Self { machine }
    }

    /// Wall time (µs of virtual time) of `program` on `t` threads.
    pub fn run(&self, program: &Program, t: usize) -> f64 {
        let t = t.max(1);
        let m = &self.machine;
        let per_thread_rate = m.ops_per_us * m.thread_speed(t);
        let mut clocks = vec![0.0f64; t];
        for step in &program.steps {
            match *step {
                Step::Parallel {
                    ops,
                    bytes,
                    imbalance,
                } => {
                    let imb = if t == 1 { 1.0 } else { imbalance.max(1.0) };
                    // The last thread carries the most-loaded share (the
                    // master, thread 0, is the one that also runs Serial
                    // steps, so a skewed loop rarely lands on it); the
                    // rest split the remainder evenly.
                    let heavy = ops / t as f64 * imb;
                    let light = if t == 1 {
                        heavy
                    } else {
                        (ops - heavy).max(0.0) / (t as f64 - 1.0)
                    };
                    // Bandwidth is shared: each thread's traffic share is
                    // proportional to its compute share.
                    for (i, c) in clocks.iter_mut().enumerate() {
                        let share_ops = if i == t - 1 { heavy } else { light };
                        let share_bytes = if ops > 0.0 {
                            bytes * share_ops / ops
                        } else {
                            bytes / t as f64
                        };
                        let compute = share_ops / per_thread_rate;
                        let memory = share_bytes / (m.bw_bytes_per_us / t as f64);
                        *c += compute.max(memory);
                    }
                }
                Step::Replicated { ops, bytes } => {
                    let dt = (ops / per_thread_rate).max(bytes * t as f64 / m.bw_bytes_per_us);
                    for c in clocks.iter_mut() {
                        *c += dt;
                    }
                }
                Step::Serial { ops, bytes } => {
                    // Only the master advances; siblings keep computing
                    // whatever un-barriered work follows.
                    clocks[0] += (ops / m.ops_per_us).max(bytes / m.bw_bytes_per_us);
                }
                Step::Barrier => {
                    let release = clocks.iter().cloned().fold(0.0, f64::max) + m.barrier_cost(t);
                    for c in clocks.iter_mut() {
                        *c = release;
                    }
                }
                // Contended steps keep the bulk-synchronous formulas (the
                // serialisation already couples the threads).
                Step::Critical { .. } | Step::Locked { .. } => {
                    let dt = crate::exec::Simulator::new(self.machine.clone())
                        .run(&Program::new("step", vec![step.clone()]), t);
                    for c in clocks.iter_mut() {
                        *c += dt;
                    }
                }
            }
        }
        clocks.into_iter().fold(0.0, f64::max)
    }

    /// Speed-up of `program` on `t` threads relative to one thread.
    pub fn speedup(&self, program: &Program, t: usize) -> f64 {
        self.run(program, 1) / self.run(program, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Simulator;

    fn barrier_separated(phases: usize) -> Program {
        let mut steps = Vec::new();
        for i in 0..phases {
            steps.push(Step::Parallel {
                ops: 1e7 * (i + 1) as f64,
                bytes: 1e5,
                imbalance: 1.0,
            });
            steps.push(Step::Barrier);
        }
        Program::new("bs", steps)
    }

    #[test]
    fn agrees_with_bulk_sync_on_barrier_separated_programs() {
        let m = Machine::xeon();
        let bulk = Simulator::new(m.clone());
        let event = EventSimulator::new(m);
        let p = barrier_separated(5);
        for t in [1usize, 2, 6, 12, 24] {
            let a = bulk.run(&p, t);
            let b = event.run(&p, t);
            assert!((a - b).abs() / a < 1e-9, "t={t}: bulk {a} vs event {b}");
        }
    }

    #[test]
    fn serial_work_overlaps_without_barriers() {
        // Master-only step + un-barriered skewed parallel work: the event
        // executor overlaps the master's serial time with the heavy
        // worker's loop; the bulk one serialises everything.
        let m = Machine::i7();
        let p = Program::new(
            "overlap",
            vec![
                Step::Serial {
                    ops: 1e8,
                    bytes: 0.0,
                },
                Step::Parallel {
                    ops: 1e8,
                    bytes: 0.0,
                    imbalance: 2.0,
                },
                Step::Barrier,
            ],
        );
        let bulk = Simulator::new(m.clone()).run(&p, 4);
        let event = EventSimulator::new(m).run(&p, 4);
        assert!(event < bulk, "event {event} should beat bulk {bulk}");
    }

    #[test]
    fn event_never_beats_critical_path() {
        // Lower bound: total ops / machine peak.
        let m = Machine::xeon();
        let event = EventSimulator::new(m.clone());
        let p = barrier_separated(3);
        for t in [2usize, 12, 24] {
            let floor = p.total_ops() / m.total_rate(t);
            assert!(event.run(&p, t) >= floor - 1e-9, "t={t}");
        }
    }

    #[test]
    fn single_thread_reduces_to_sum_of_work() {
        let m = Machine::i7();
        let event = EventSimulator::new(m.clone());
        let p = Program::new(
            "seq",
            vec![
                Step::Parallel {
                    ops: 3.2e6,
                    bytes: 0.0,
                    imbalance: 1.5,
                },
                Step::Serial {
                    ops: 3.2e6,
                    bytes: 0.0,
                },
            ],
        );
        // 3.2e6 ops at 3200 ops/µs = 1000 µs each.
        assert!((event.run(&p, 1) - 2000.0).abs() < 1e-6);
    }

    #[test]
    fn imbalance_lands_on_a_worker() {
        let m = Machine::i7();
        let event = EventSimulator::new(m);
        let balanced = Program::new(
            "b",
            vec![Step::Parallel {
                ops: 1e8,
                bytes: 0.0,
                imbalance: 1.0,
            }],
        );
        let skewed = Program::new(
            "s",
            vec![Step::Parallel {
                ops: 1e8,
                bytes: 0.0,
                imbalance: 2.0,
            }],
        );
        assert!(event.run(&skewed, 4) > event.run(&balanced, 4) * 1.8);
    }
}
