//! The virtual-time executor: advances a bulk-synchronous step sequence
//! on a machine model and reports wall time and speed-up.

use crate::machine::Machine;
use crate::model::{Program, Step};

/// Executes [`Program`]s on a [`Machine`].
#[derive(Debug, Clone)]
pub struct Simulator {
    /// The machine model.
    pub machine: Machine,
}

impl Simulator {
    /// Simulator for `machine`.
    pub fn new(machine: Machine) -> Self {
        Self { machine }
    }

    /// Wall time (µs of virtual time) of `program` on `t` threads.
    pub fn run(&self, program: &Program, t: usize) -> f64 {
        let t = t.max(1);
        let m = &self.machine;
        let per_thread_rate = m.ops_per_us * m.thread_speed(t);
        let mut wall = 0.0f64;
        for step in &program.steps {
            wall += match *step {
                Step::Parallel {
                    ops,
                    bytes,
                    imbalance,
                } => {
                    let imb = if t == 1 { 1.0 } else { imbalance.max(1.0) };
                    let compute = ops / (t as f64) * imb / per_thread_rate;
                    let memory = bytes / m.bw_bytes_per_us;
                    compute.max(memory)
                }
                Step::Replicated { ops, bytes } => {
                    let compute = ops / per_thread_rate;
                    // Every thread pulls its own copy through memory.
                    let memory = bytes * t as f64 / m.bw_bytes_per_us;
                    compute.max(memory)
                }
                Step::Serial { ops, bytes } => {
                    // The master runs alone at full single-thread speed.
                    (ops / m.ops_per_us).max(bytes / m.bw_bytes_per_us)
                }
                Step::Barrier => m.barrier_cost(t),
                Step::Critical {
                    entries,
                    ops_each,
                    overlap_ops,
                    bytes,
                } => {
                    let hold = ops_each / m.ops_per_us + m.lock_entry_us;
                    let serial = entries * hold;
                    if t == 1 {
                        overlap_ops / per_thread_rate + serial
                    } else {
                        // Per-thread busy time: its compute share plus its
                        // own lock holds.
                        let compute = overlap_ops / t as f64 / per_thread_rate;
                        let own = compute + serial / t as f64;
                        // Lock utilisation relative to the compute that
                        // could hide it; once busy, queueing and
                        // cache-line handoffs inflate the serial path.
                        let util = if compute > 0.0 {
                            (serial / compute).min(1.0)
                        } else {
                            1.0
                        };
                        let handoffs = entries * m.handoff_us * util;
                        let serial_eff = (serial + handoffs) * (1.0 + (t as f64 - 1.0) * util);
                        let memory = bytes / m.bw_bytes_per_us;
                        own.max(serial_eff).max(memory)
                    }
                }
                Step::Locked {
                    entries,
                    ops_each,
                    nlocks,
                    overlap_ops,
                    bytes,
                } => {
                    let base = ops_each / per_thread_rate + m.lock_entry_us;
                    // Collision probability ≈ (t-1)/nlocks per entry; a
                    // collision costs one handoff.
                    let collide = if t == 1 {
                        0.0
                    } else {
                        ((t as f64 - 1.0) / nlocks).min(1.0) * m.handoff_us
                    };
                    let compute = (overlap_ops / t as f64) / per_thread_rate
                        + entries / t as f64 * (base + collide);
                    let memory = bytes / m.bw_bytes_per_us;
                    compute.max(memory)
                }
            };
        }
        wall
    }

    /// Speed-up of `program` on `t` threads relative to one thread.
    pub fn speedup(&self, program: &Program, t: usize) -> f64 {
        self.run(program, 1) / self.run(program, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> Simulator {
        Simulator::new(Machine::i7())
    }

    fn pure_compute(ops: f64) -> Program {
        Program::new(
            "c",
            vec![Step::Parallel {
                ops,
                bytes: 0.0,
                imbalance: 1.0,
            }],
        )
    }

    #[test]
    fn pure_compute_scales_linearly_to_core_count() {
        let s = sim();
        let p = pure_compute(1e9);
        let su4 = s.speedup(&p, 4);
        assert!((su4 - 4.0).abs() < 1e-9, "su4={su4}");
    }

    #[test]
    fn smt_gives_sublinear_beyond_cores() {
        let s = sim();
        let p = pure_compute(1e9);
        let su8 = s.speedup(&p, 8);
        assert!(su8 > 4.0 && su8 < 8.0, "su8={su8}");
    }

    #[test]
    fn memory_bound_phase_does_not_scale() {
        let s = sim();
        let p = Program::new(
            "m",
            vec![Step::Parallel {
                ops: 1e6,
                bytes: 1e9,
                imbalance: 1.0,
            }],
        );
        let su = s.speedup(&p, 8);
        assert!(su < 1.5, "memory-bound speedup should flatten: {su}");
    }

    #[test]
    fn imbalance_halves_scaling() {
        let s = sim();
        let balanced = pure_compute(1e9);
        let skewed = Program::new(
            "s",
            vec![Step::Parallel {
                ops: 1e9,
                bytes: 0.0,
                imbalance: 2.0,
            }],
        );
        assert!(s.speedup(&skewed, 4) < s.speedup(&balanced, 4) / 1.8);
    }

    #[test]
    fn critical_serialises() {
        let s = sim();
        let p = Program::new(
            "crit",
            vec![Step::Critical {
                entries: 1e6,
                ops_each: 10.0,
                overlap_ops: 1e8,
                bytes: 0.0,
            }],
        );
        let su = s.speedup(&p, 8);
        // 1e6 entries × ~0.17us ≈ 170ms serial vs 31ms compute: bounded.
        assert!(su < 2.0, "critical-bound speedup: {su}");
    }

    #[test]
    fn fine_grained_locks_scale_better_than_one_lock() {
        let s = sim();
        let shared = Program::new(
            "crit",
            vec![Step::Critical {
                entries: 1e5,
                ops_each: 10.0,
                overlap_ops: 1e8,
                bytes: 0.0,
            }],
        );
        let fine = Program::new(
            "locks",
            vec![Step::Locked {
                entries: 1e5,
                ops_each: 10.0,
                nlocks: 1e4,
                overlap_ops: 1e8,
                bytes: 0.0,
            }],
        );
        assert!(s.speedup(&fine, 8) > s.speedup(&shared, 8));
    }

    #[test]
    fn barriers_hurt_more_with_more_threads() {
        let s = sim();
        let mut steps = Vec::new();
        for _ in 0..10_000 {
            steps.push(Step::Parallel {
                ops: 1e4,
                bytes: 0.0,
                imbalance: 1.0,
            });
            steps.push(Step::Barrier);
        }
        let p = Program::new("b", steps);
        let su2 = s.speedup(&p, 2);
        let su8 = s.speedup(&p, 8);
        // Barrier overhead eats the gains as t grows.
        assert!(su8 < su2 * 3.0, "su2={su2} su8={su8}");
    }

    #[test]
    fn run_is_monotone_in_work() {
        let s = sim();
        assert!(s.run(&pure_compute(2e9), 4) > s.run(&pure_compute(1e9), 4));
    }

    #[test]
    fn hidden_critical_costs_nothing_extra() {
        // A rarely-entered critical section under heavy compute is fully
        // hidden: near-ideal scaling.
        let s = sim();
        let p = Program::new(
            "hidden",
            vec![Step::Critical {
                entries: 100.0,
                ops_each: 5.0,
                overlap_ops: 1e9,
                bytes: 0.0,
            }],
        );
        let su = s.speedup(&p, 4);
        assert!(su > 3.9, "hidden critical should scale: {su}");
    }

    #[test]
    fn serial_step_ignores_team_size() {
        let s = sim();
        let p = Program::new(
            "ser",
            vec![Step::Serial {
                ops: 1e6,
                bytes: 0.0,
            }],
        );
        assert_eq!(s.run(&p, 1), s.run(&p, 8));
    }
}
