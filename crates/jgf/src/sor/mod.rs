//! JGF SOR: successive over-relaxation on an n×n grid (ω = 1.25).
//!
//! The parallel JGF kernel uses red–black row ordering: each relaxation
//! step becomes two half-sweeps over rows of alternating parity with a
//! barrier between them, so rows updated concurrently never neighbour
//! each other. All three variants here (seq / mt / aomp) use the same
//! red–black ordering so their results are bitwise comparable, matching
//! how JGF validates its threaded SOR.
//!
//! Parallelisation (Table 2): M2FOR + M2M, then `PR, FOR (block), BR`.

pub mod aomp;
pub mod mt;
pub mod seq;

use crate::harness::Size;
use crate::meta::{Abstraction, BenchmarkMeta, ForKind, Refactoring};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Relaxation factor, as in JGF.
pub const OMEGA: f64 = 1.25;
/// Full red–black iterations (JGF uses 100).
pub const ITERATIONS: usize = 100;

/// Grid edge length per preset (JGF: A = 1000, B = 1500).
pub fn grid_for(size: Size) -> usize {
    match size {
        Size::Small => 34,
        Size::A => 1000,
        Size::B => 1500,
    }
}

/// A flattened n×n grid.
#[derive(Clone)]
pub struct Grid {
    /// Row-major cells.
    pub g: Vec<f64>,
    /// Edge length.
    pub n: usize,
}

/// Generate the random initial grid, JGF-style.
pub fn generate(size: Size) -> Grid {
    let n = grid_for(size);
    let mut rng = StdRng::seed_from_u64(0x50f2_5eed);
    let g = (0..n * n).map(|_| rng.gen_range(0.0..1.0) * 1e-6).collect();
    Grid { g, n }
}

/// Relax one row segment: the innermost update shared by every variant.
#[inline]
pub fn relax_row(g: &mut [f64], n: usize, i: usize) {
    let omega_over_four = OMEGA * 0.25;
    let one_minus_omega = 1.0 - OMEGA;
    for j in 1..n - 1 {
        let idx = i * n + j;
        g[idx] = omega_over_four * (g[idx - n] + g[idx + n] + g[idx - 1] + g[idx + 1])
            + one_minus_omega * g[idx];
    }
}

/// Relax one row through a shared grid view (element-level accesses, no
/// overlapping `&mut` slices). Bitwise identical to [`relax_row`].
///
/// # Safety contract (discharged by the red–black schedule)
/// Row `i` is owned by the calling thread for the half sweep; rows `i±1`
/// have the other parity and are not written during it.
#[inline]
pub fn relax_row_sync(g: &crate::shared::SyncSlice<'_, f64>, n: usize, i: usize) {
    let omega_over_four = OMEGA * 0.25;
    let one_minus_omega = 1.0 - OMEGA;
    for j in 1..n - 1 {
        let idx = i * n + j;
        // SAFETY: see the schedule contract above.
        unsafe {
            let v = omega_over_four
                * (g.read(idx - n) + g.read(idx + n) + g.read(idx - 1) + g.read(idx + 1))
                + one_minus_omega * g.read(idx);
            g.set(idx, v);
        }
    }
}

/// Sum of all grid cells — the JGF `Gtotal` validation value.
pub fn gtotal(grid: &Grid) -> f64 {
    grid.g.iter().sum()
}

/// Validation: total is finite and equals the sequential reference for
/// the same size (checked by the cross-variant tests); here we check
/// convergence sanity.
pub fn validate(grid: &Grid) -> bool {
    let t = gtotal(grid);
    t.is_finite()
}

/// Paper Table 2 row.
pub fn table2_meta() -> BenchmarkMeta {
    BenchmarkMeta {
        name: "SOR",
        refactorings: vec![
            (Refactoring::MoveToForMethod, 1),
            (Refactoring::MoveToMethod, 1),
        ],
        abstractions: vec![
            (Abstraction::ParallelRegion, 1),
            (Abstraction::For(ForKind::Block), 1),
            (Abstraction::Barrier, 1),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relax_row_uses_four_neighbours() {
        let n = 4;
        let mut g = vec![1.0; n * n];
        g[n + 1] = 0.0;
        relax_row(&mut g, n, 1);
        // cell (1,1): 1.25/4*(4 neighbours = 4.0) + (1-1.25)*0 = 1.25
        assert!((g[n + 1] - 1.25).abs() < 1e-12);
    }

    #[test]
    fn variants_agree_bitwise() {
        let grid = generate(Size::Small);
        let s = seq::run(&grid, ITERATIONS / 10);
        assert!(validate(&s));
        for t in [1, 2, 4] {
            let m = mt::run(&grid, ITERATIONS / 10, t);
            let a = aomp::run(&grid, ITERATIONS / 10, t);
            assert_eq!(m.g, s.g, "mt t={t}");
            assert_eq!(a.g, s.g, "aomp t={t}");
        }
    }

    #[test]
    fn iterations_change_the_grid() {
        let grid = generate(Size::Small);
        let s = seq::run(&grid, 3);
        assert_ne!(gtotal(&s), gtotal(&grid));
    }
}
