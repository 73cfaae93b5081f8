//! Modelled programs and the virtual-time executor that runs them: a
//! program is a bulk-synchronous [`Step`] sequence, and [`Simulator`]
//! advances it on a machine model, reporting wall time and speed-up.

use crate::machine::Machine;

/// One bulk-synchronous step of a modelled program.
#[derive(Debug, Clone)]
pub enum Step {
    /// Work shared across the team: `ops` total abstract operations and
    /// `bytes` total memory traffic; the phase obeys a roofline —
    /// wall time = max(compute time of the most loaded thread, memory
    /// time at the shared bandwidth).
    Parallel {
        /// Total operations in the phase.
        ops: f64,
        /// Total bytes moved through the shared memory system.
        bytes: f64,
        /// Load imbalance: most-loaded thread's share relative to the
        /// even share (1.0 = perfectly balanced; 2.0 ≈ a triangular loop
        /// under a block schedule).
        imbalance: f64,
    },
    /// Every thread redundantly executes the same work (e.g. the pivot
    /// search each LUFact thread repeats).
    Replicated {
        /// Operations per thread.
        ops: f64,
        /// Bytes per thread.
        bytes: f64,
    },
    /// Only the master executes; the team waits (a `@Master` +
    /// barrier pattern).
    Serial {
        /// Operations on the master.
        ops: f64,
        /// Bytes moved by the master.
        bytes: f64,
    },
    /// A team barrier.
    Barrier,
    /// A parallel phase containing `entries` critical-section entries of
    /// `ops_each` operations guarded by **one** lock, overlapped with
    /// `overlap_ops` of ordinary work-shared compute. The serialised lock
    /// time can hide under the compute, but once the lock is busy a
    /// significant fraction of the time, queueing and cache-line handoffs
    /// inflate it (utilisation-dependent contention).
    Critical {
        /// Total entries across the team.
        entries: f64,
        /// Operations per entry (inside the lock).
        ops_each: f64,
        /// Work-shared compute ops overlapping the critical entries.
        overlap_ops: f64,
        /// Memory traffic of the phase.
        bytes: f64,
    },
    /// A parallel phase with fine-grained locked updates spread over
    /// `nlocks` independent locks (the per-particle locks variant):
    /// lock costs parallelise, with a collision probability
    /// ∝ threads/nlocks.
    Locked {
        /// Total locked updates across the team.
        entries: f64,
        /// Operations per update.
        ops_each: f64,
        /// Number of distinct locks.
        nlocks: f64,
        /// Work-shared compute ops overlapping the updates.
        overlap_ops: f64,
        /// Memory traffic of the phase.
        bytes: f64,
    },
}

/// A modelled program: a name plus its step sequence.
#[derive(Debug, Clone)]
pub struct Program {
    /// Display name (benchmark / variant).
    pub name: String,
    /// Bulk-synchronous steps.
    pub steps: Vec<Step>,
}

impl Program {
    /// Build a program.
    pub fn new(name: impl Into<String>, steps: Vec<Step>) -> Self {
        Self {
            name: name.into(),
            steps,
        }
    }

    /// Repeat a step group `times` times (iteration loops).
    pub fn repeat(name: impl Into<String>, group: Vec<Step>, times: usize) -> Self {
        let mut steps = Vec::with_capacity(group.len() * times);
        for _ in 0..times {
            steps.extend(group.iter().cloned());
        }
        Self {
            name: name.into(),
            steps,
        }
    }
}

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

    /// Every model's simulated wall time, as `f64` bits: the JGF
    /// size-A kernels `aomp-benchmark`'s `simcore.residual_geomean` reads
    /// on the i7, the Figure 13 kernels on the Xeon, and the Figure 15
    /// MolDyn grid corners. A change to any model or to `run` shows up
    /// here as a changed bit pattern.
    fn pinned_runs() -> Vec<(String, f64)> {
        use crate::models::{self, MolDynStrategy};
        use crate::{Machine, Simulator};
        let mut out = Vec::new();
        // Size A: crypt 3e6 bytes, LUFact order 500, Series 1000
        // coefficients, SOR 1000² × 100, Sparse 250k nonzeros × 200,
        // MolDyn 2048 particles (mm = 8) × 10 moves, MonteCarlo 2000
        // runs, RayTracer 150².
        let m = Machine::i7();
        let s = Simulator::new(m.clone());
        for t in [1usize, 2, 8] {
            let kernels = [
                models::crypt(3_000_000, true),
                models::lufact(500, true),
                models::series(1_000, true),
                models::sor(1_000, 100, true),
                models::sparse(250_000, 200, true),
                models::moldyn(2_048, 10, t, MolDynStrategy::ThreadLocal, &m, true),
                models::montecarlo(2_000, true),
                models::raytracer(150, true),
            ];
            for p in kernels {
                out.push((format!("i7 {} t={t}", p.name), s.run(&p, t)));
            }
        }
        let m = Machine::xeon();
        let s = Simulator::new(m.clone());
        for t in [1usize, 12, 24] {
            for aomp in [false, true] {
                let kernels = [
                    models::crypt(20_000_000, aomp),
                    models::lufact(1_000, aomp),
                    models::series(10_000, aomp),
                    models::sor(1_000, 100, aomp),
                    models::sparse(500_000, 200, aomp),
                    models::moldyn(8_788, 50, t, MolDynStrategy::ThreadLocal, &m, aomp),
                    models::montecarlo(60_000, aomp),
                    models::raytracer(500, aomp),
                ];
                for p in kernels {
                    out.push((format!("xeon {} t={t}", p.name), s.run(&p, t)));
                }
            }
        }
        for n in [864usize, 256_000] {
            for t in [4usize, 12] {
                for strategy in [
                    MolDynStrategy::ThreadLocal,
                    MolDynStrategy::Critical,
                    MolDynStrategy::Locks,
                ] {
                    let p = models::moldyn(n, 50, t, strategy, &m, false);
                    out.push((format!("xeon {} n={n} t={t}", p.name), s.run(&p, t)));
                }
            }
        }
        out
    }

    #[test]
    fn model_outputs_are_pinned() {
        const PINNED: &[(&str, u64)] = &[
            ("i7 Crypt Aomp t=1", 0x40db936000000000),
            ("i7 LUFact Aomp t=1", 0x40d9b7e9ea919e15),
            ("i7 Series Aomp t=1", 0x40e2624000000000),
            ("i7 SOR Aomp t=1", 0x4106fad000000000),
            ("i7 Sparse Aomp t=1", 0x4103265800000000),
            ("i7 MolDyn JGF Aomp t=1", 0x40f8c7b8e709eff6),
            ("i7 MonteCarlo Aomp t=1", 0x40dea3c000000000),
            ("i7 RayTracer Aomp t=1", 0x40c60f8000000000),
            ("i7 Crypt Aomp t=2", 0x40cb936000000000),
            ("i7 LUFact Aomp t=2", 0x40d01b3206d3a18d),
            ("i7 Series Aomp t=2", 0x40d2624000000000),
            ("i7 SOR Aomp t=2", 0x40f709cfffffffe8),
            ("i7 Sparse Aomp t=2", 0x40f41b7600000000),
            ("i7 MolDyn JGF Aomp t=2", 0x40e95d63ec11b6b4),
            ("i7 MonteCarlo Aomp t=2", 0x40cf40a000000000),
            ("i7 RayTracer Aomp t=2", 0x40b8444000000000),
            ("i7 Crypt Aomp t=8", 0x40b53649d89d89d9),
            ("i7 LUFact Aomp t=8", 0x40d51c4b74bc6951),
            ("i7 Series Aomp t=8", 0x40bc486276276276),
            ("i7 SOR Aomp t=8", 0x40f5e08e38e38e33),
            ("i7 Sparse Aomp t=8", 0x40e86a0000000000),
            ("i7 MolDyn JGF Aomp t=8", 0x40d3f111c948b3ea),
            ("i7 MonteCarlo Aomp t=8", 0x40b80a53b13b13b1),
            ("i7 RayTracer Aomp t=8", 0x40a2aaa762762762),
            ("xeon Crypt JGF t=1", 0x410b88df4737d1ce),
            ("xeon LUFact JGF t=1", 0x410eaf9791217df0),
            ("xeon Series JGF t=1", 0x411b88df4737d1ce),
            ("xeon SOR JGF t=1", 0x410b88df4737d1dc),
            ("xeon Sparse JGF t=1", 0x4116f20f6603d98c),
            ("xeon MolDyn JGF t=1", 0x4165510e384f40cf),
            ("xeon Monte Carlo JGF t=1", 0x4131358b8c82e321),
            ("xeon RayTracer JGF t=1", 0x41025b3f84cfe134),
            ("xeon Crypt Aomp t=1", 0x410ba51152c454b1),
            ("xeon LUFact Aomp t=1", 0x410ecefdac11a728),
            ("xeon Series Aomp t=1", 0x411ba51152c454b1),
            ("xeon SOR Aomp t=1", 0x410ba51152c4549c),
            ("xeon Sparse Aomp t=1", 0x4117098e6fa39bff),
            ("xeon MolDyn JGF Aomp t=1", 0x416566e1fe669ff6),
            ("xeon MonteCarlo Aomp t=1", 0x4131472ad3bab4ef),
            ("xeon RayTracer Aomp t=1", 0x41026e0b8c82e321),
            ("xeon Crypt JGF t=12", 0x40d25b3f84cfe134),
            ("xeon LUFact JGF t=12", 0x40f2f69ace6c03ee),
            ("xeon Series JGF t=12", 0x40e25b3f84cfe134),
            ("xeon SOR JGF t=12", 0x40e34d2723993ade),
            ("xeon Sparse JGF t=12", 0x40e4ed24924924a0),
            ("xeon MolDyn JGF t=12", 0x4139741d06caeba8),
            ("xeon Monte Carlo JGF t=12", 0x40f7678a9622a589),
            ("xeon RayTracer JGF t=12", 0x40caec3b070ec1c5),
            ("xeon Crypt Aomp t=12", 0x40d26e0b8c82e321),
            ("xeon LUFact Aomp t=12", 0x40f2f69ace6c03ee),
            ("xeon Series Aomp t=12", 0x40e26e0b8c82e321),
            ("xeon SOR Aomp t=12", 0x40e34d2723993ade),
            ("xeon Sparse Aomp t=12", 0x40e4ed24924924a0),
            ("xeon MolDyn JGF Aomp t=12", 0x41398e14b54ba7f0),
            ("xeon MonteCarlo Aomp t=12", 0x40f77f81ecc07b30),
            ("xeon RayTracer Aomp t=12", 0x40cb07ccabf32afd),
            ("xeon Crypt JGF t=24", 0x40cb31d95c76571c),
            ("xeon LUFact JGF t=24", 0x40f5319ac50f4467),
            ("xeon Series JGF t=24", 0x40db31d95c76571c),
            ("xeon SOR JGF t=24", 0x40e37f2723993ade),
            ("xeon Sparse JGF t=24", 0x40e4ed24924924a0),
            ("xeon MolDyn JGF t=24", 0x4136f4d2b0dad6c9),
            ("xeon Monte Carlo JGF t=24", 0x40f1562dc48b7122),
            ("xeon RayTracer JGF t=24", 0x40c3f15b21ac1dc0),
            ("xeon Crypt Aomp t=24", 0x40cb4db24b6c92d9),
            ("xeon LUFact Aomp t=24", 0x40f5319ac50f4467),
            ("xeon Series Aomp t=24", 0x40db4db24b6c92d9),
            ("xeon SOR Aomp t=24", 0x40e37f2723993ade),
            ("xeon Sparse Aomp t=24", 0x40e4ed24924924a0),
            ("xeon MolDyn JGF Aomp t=24", 0x41370c2e1647dc3b),
            ("xeon MonteCarlo Aomp t=24", 0x40f167ee767b9d9e),
            ("xeon RayTracer Aomp t=24", 0x40c405c7041c6bb1),
            ("xeon MolDyn JGF n=864 t=4", 0x40dbf084eacf72b1),
            ("xeon MolDyn Critical n=864 t=4", 0x40dbbaab54105d32),
            ("xeon MolDyn Locks n=864 t=4", 0x40e6f4e819c16e28),
            ("xeon MolDyn JGF n=864 t=12", 0x40d18bca2310a6f0),
            ("xeon MolDyn Critical n=864 t=12", 0x40f6bfe74f55dc36),
            ("xeon MolDyn Locks n=864 t=12", 0x40d07e7bde36204b),
            ("xeon MolDyn JGF n=256000 t=4", 0x41e20374634b5240),
            ("xeon MolDyn Critical n=256000 t=4", 0x41e1a95544646067),
            ("xeon MolDyn Locks n=256000 t=4", 0x41eda5754f205bba),
            ("xeon MolDyn JGF n=256000 t=12", 0x41d504629c87ad1e),
            ("xeon MolDyn Critical n=256000 t=12", 0x41d037ddedf11f8d),
            ("xeon MolDyn Locks n=256000 t=12", 0x41d3c405269e3693),
        ];
        let runs = pinned_runs();
        assert_eq!(runs.len(), PINNED.len());
        for ((label, wall), (want_label, want_bits)) in runs.iter().zip(PINNED) {
            assert_eq!(label, want_label);
            assert_eq!(wall.to_bits(), *want_bits, "{label}: {wall}");
        }
    }

    #[test]
    fn repeat_multiplies_steps() {
        let p = Program::repeat("r", vec![Step::Barrier, Step::Barrier], 5);
        assert_eq!(p.steps.len(), 10);
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
