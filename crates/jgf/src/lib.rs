//! # aomp-jgf — the Java Grande Forum benchmarks of the AOmpLib paper
//!
//! The paper evaluates AOmpLib on the JGF section-2/3 benchmarks: Crypt,
//! LUFact, Series, SOR, SparseMatmult, MolDyn, MonteCarlo and RayTracer.
//! This crate ports each kernel to Rust in three versions:
//!
//! * `seq` — the sequential base program (paper Figure 2 style);
//! * `mt` — the hand-threaded JGF multi-thread parallelisation (paper
//!   Figure 3 style: explicit thread spawning, cyclic/block distribution
//!   and dependence management scattered through the base code) — the
//!   *baseline* of the paper's Figure 13;
//! * `aomp` — the AOmpLib parallelisation: the base code refactored into
//!   for methods (paper Figure 14) composed with aspect modules /
//!   annotation-style constructs from the `aomp` runtime.
//!
//! Every benchmark validates its result against JGF-style reference
//! checks, exposes its problem-size presets, and registers its paper
//! Table 2 metadata (refactorings and abstractions used) in [`meta`].
//!
//! MolDyn additionally provides the paper Figure 15 variants: force
//! updates under a global critical section, under one lock per particle,
//! and with the JGF thread-local force arrays.

#![warn(missing_docs)]

pub mod harness;
pub mod meta;
pub mod shared;

pub mod crypt;
pub mod lufact;
pub mod moldyn;
pub mod montecarlo;
pub mod raytracer;
pub mod series;
pub mod sor;
pub mod sparse;

pub use harness::Size;
pub use meta::{all_benchmarks, Abstraction, BenchmarkMeta, ForKind, Refactoring};
