//! Machine models: the paper's two evaluation hosts.

/// An SMP machine model. All rates are per microsecond of virtual time.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Display name.
    pub name: String,
    /// Physical cores.
    pub cores: usize,
    /// Hardware threads (with SMT).
    pub hw_threads: usize,
    /// Abstract operations per µs per core (single-thread throughput).
    pub ops_per_us: f64,
    /// SMT throughput bonus: running 2 threads on one core yields
    /// `smt_bonus` × one thread's throughput (≈ 1.25–1.35 in practice).
    pub smt_bonus: f64,
    /// Shared memory bandwidth in bytes per µs.
    pub bw_bytes_per_us: f64,
    /// Barrier cost: µs × log2(threads).
    pub barrier_us_log2: f64,
    /// Uncontended lock/critical entry cost in µs.
    pub lock_entry_us: f64,
    /// Extra per-entry cost when a contended line migrates between
    /// caches (higher across sockets).
    pub handoff_us: f64,
    /// Last-level cache capacity in bytes (total across sockets).
    pub l3_bytes: f64,
    /// Cores per socket (NUMA domain size).
    pub cores_per_socket: usize,
    /// Throughput penalty coefficient for phases whose hot data was
    /// allocated on one node while threads span sockets (remote-memory
    /// accesses): effective ops ×= 1 + penalty × (remote thread share).
    pub numa_penalty: f64,
}

impl Machine {
    /// The paper's machine 1: Intel i7, four 3.2 GHz cores sharing an
    /// 8 MB L3, 8 hardware threads.
    pub fn i7() -> Machine {
        Machine {
            name: "i7 (4c/8t, 3.2GHz)".into(),
            cores: 4,
            hw_threads: 8,
            ops_per_us: 3200.0,
            smt_bonus: 1.30,
            bw_bytes_per_us: 18_000.0,
            barrier_us_log2: 1.2,
            lock_entry_us: 0.05,
            handoff_us: 0.12,
            l3_bytes: 8.0e6,
            cores_per_socket: 4,
            numa_penalty: 0.0,
        }
    }

    /// The paper's machine 2: dual Xeon X5650, 2 × 6 cores at 2.66 GHz,
    /// 12 MB L3 per socket, 24 hardware threads.
    pub fn xeon() -> Machine {
        Machine {
            name: "Xeon X5650 (2x6c/24t, 2.66GHz)".into(),
            cores: 12,
            hw_threads: 24,
            ops_per_us: 2660.0,
            smt_bonus: 1.35,
            bw_bytes_per_us: 42_000.0,
            barrier_us_log2: 2.0,
            lock_entry_us: 0.06,
            handoff_us: 0.25,
            l3_bytes: 24.0e6,
            cores_per_socket: 6,
            numa_penalty: 1.5,
        }
    }

    /// Slowdown factor for single-node-allocated data touched by `t`
    /// threads: threads beyond the first socket pay remote accesses.
    pub fn numa_factor(&self, t: usize) -> f64 {
        if t <= self.cores_per_socket || self.numa_penalty == 0.0 {
            1.0
        } else {
            let remote_share = 1.0 - self.cores_per_socket as f64 / t as f64;
            1.0 + self.numa_penalty * remote_share
        }
    }

    /// Effective cache miss rate for a phase whose hot working set is
    /// `working_set` bytes: low while it fits in the last-level cache,
    /// approaching 1 as the set far exceeds it.
    pub fn miss_rate(&self, working_set: f64) -> f64 {
        if working_set <= self.l3_bytes {
            0.03
        } else {
            (1.0 - self.l3_bytes / working_set).clamp(0.03, 0.95)
        }
    }

    /// Per-thread compute throughput multiplier when `t` threads run:
    /// 1.0 while threads fit on distinct cores; beyond that each extra
    /// SMT sibling adds `smt_bonus − 1` core-equivalents, ramping the
    /// aggregate capacity smoothly from `cores` at `t = cores` to
    /// `cores·smt_bonus` at `t = 2·cores`.
    pub fn thread_speed(&self, t: usize) -> f64 {
        if t <= self.cores {
            1.0
        } else {
            let extra = (t - self.cores).min(self.cores) as f64;
            let capacity = self.cores as f64 + extra * (self.smt_bonus - 1.0);
            capacity / t as f64
        }
    }

    /// Aggregate compute throughput (ops/µs) of `t` threads.
    pub fn total_rate(&self, t: usize) -> f64 {
        self.ops_per_us * self.thread_speed(t) * t as f64
    }

    /// Barrier cost for a team of `t`.
    pub fn barrier_cost(&self, t: usize) -> f64 {
        if t <= 1 {
            0.0
        } else {
            self.barrier_us_log2 * (t as f64).log2()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_speed_full_until_cores() {
        let m = Machine::i7();
        assert_eq!(m.thread_speed(1), 1.0);
        assert_eq!(m.thread_speed(4), 1.0);
        assert!(m.thread_speed(8) < 1.0);
        // SMT: 8 threads on 4 cores deliver 4×1.3 cores' worth.
        assert!((m.total_rate(8) - m.ops_per_us * 4.0 * 1.3).abs() < 1e-9);
    }

    #[test]
    fn total_rate_monotone_in_threads() {
        for m in [Machine::i7(), Machine::xeon()] {
            let mut last = 0.0;
            for t in 1..=m.hw_threads {
                let r = m.total_rate(t);
                assert!(r >= last - 1e-9, "{} t={t}: {r} < {last}", m.name);
                last = r;
            }
        }
    }

    #[test]
    fn barrier_cost_grows_with_team() {
        let m = Machine::xeon();
        assert_eq!(m.barrier_cost(1), 0.0);
        assert!(m.barrier_cost(24) > m.barrier_cost(4));
    }

    #[test]
    fn numa_factor_kicks_in_beyond_one_socket() {
        let x = Machine::xeon();
        assert_eq!(x.numa_factor(4), 1.0);
        assert_eq!(x.numa_factor(6), 1.0);
        assert!(x.numa_factor(12) > 1.5);
        let i = Machine::i7();
        assert_eq!(i.numa_factor(8), 1.0, "single socket has no NUMA penalty");
    }

    #[test]
    fn xeon_peak_speedup_matches_paper_ballpark() {
        // Paper Figure 13: best kernels reach ~16–17× on 24 threads.
        let m = Machine::xeon();
        let peak = m.total_rate(24) / m.total_rate(1);
        assert!((15.0..18.0).contains(&peak), "peak={peak}");
    }
}
