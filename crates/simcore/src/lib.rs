//! # aomp-simcore — a deterministic virtual-time multicore simulator
//!
//! The AOmpLib paper evaluates on two machines we do not have (a 4-core /
//! 8-thread Intel i7 and a dual-socket 12-core / 24-thread Xeon X5650);
//! the hosts this reproduction runs on have far fewer hardware threads,
//! so their wall-clock speed-up cannot show the paper's 8- and 24-thread
//! curves. Per the substitution rule in DESIGN.md, this crate models
//! those machines analytically and replays each benchmark's parallel
//! structure on them, reproducing the *shape* of the paper's Figures 13
//! and 15: who wins, by roughly what factor, and where the crossovers
//! fall. The curves are uncalibrated models, not measurements; the
//! measured numbers come from `aomp-benchmark`.
//!
//! The model is deliberately simple and fully documented:
//!
//! * a [`machine::Machine`] has cores, SMT threads, per-core throughput,
//!   a shared memory bandwidth, and synchronisation costs;
//! * a [`Program`] is a bulk-synchronous sequence of [`Step`]s:
//!   `Parallel` (work-shared, roofline: max of compute time and memory
//!   time), `Replicated`, `Serial` (master only), `Barrier`, `Critical`
//!   (one lock, globally serialised, with cache-line handoff costs) and
//!   `Locked` (fine-grained updates over many locks);
//! * [`Simulator`] advances virtual time step by step, all threads
//!   together: a step's wall time is a function of the step, the machine
//!   and the team size `t` alone. Speed-up is the ratio of simulated
//!   1-thread time to simulated `t`-thread time.
//!
//! [`models`] contains the per-benchmark structural models, with every
//! operation/byte count derived from the actual Rust kernel inner loops
//! in `aomp-jgf` (see each function's comments). [`Json`] is a small
//! parser that `aomp-benchmark` reads its declaration and result lines
//! with; the crate writes no JSON.

#![warn(missing_docs)]

pub mod exec;
pub mod json;
pub mod machine;
pub mod models;

pub use exec::{Program, Simulator, Step};
pub use json::Json;
pub use machine::Machine;
