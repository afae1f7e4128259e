//! Experiment harness reproducing the evaluation of the PLDI 2023 paper
//! *"Dynamic Partial Order Reduction for Checking Correctness against
//! Transaction Isolation Levels"*.
//!
//! Each table and figure of §7.3 / Appendix F has a dedicated binary:
//!
//! | Paper artefact | Binary |
//! |---|---|
//! | Fig. 14a/b/c (cactus plots) | `fig14` |
//! | Table F.1 (application scalability detail) | `table_f1` |
//! | Fig. 15a (session scalability) | `fig15a` |
//! | Table F.2 | `table_f2` |
//! | Fig. 15b (transaction scalability) | `fig15b` |
//! | Table F.3 | `table_f3` |
//! | Ablation of the `Optimality` condition | `ablation` |
//!
//! The binaries accept `--full` (paper-sized configuration with 30-minute
//! timeouts), `--timeout <s>`, `--variants <n>`, `--sessions <n>` and
//! `--transactions <n>`; the default configuration is scaled down so that
//! the whole suite completes in minutes.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc;
pub mod experiments;
pub mod gate;
pub mod harness;
pub mod json;
pub mod tables;

pub use experiments::{
    experiment_fig14, experiment_fig14_with, experiment_sessions, experiment_transactions,
    fig14_mixed_algorithms, fig14_suite, flag_value, parse_levels, ExperimentOptions,
};
pub use harness::{average_speedup, run, Algorithm, Measurement};
pub use json::{write_experiment_json, JsonValue};

/// The counting allocator is installed for every binary, test and benchmark
/// of this crate so that peak-allocation numbers can be reported.
#[global_allocator]
static GLOBAL_ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;
