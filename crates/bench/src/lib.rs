//! # leonardo-bench — the experiment harness
//!
//! Shared utilities for the `e1`–`e17` experiment binaries (see
//! `DESIGN.md` §4 for the experiment index and `EXPERIMENTS.md` for the
//! recorded results). Each binary regenerates one of the paper's
//! quantitative claims; this crate provides the common measurement
//! machinery and the paper-vs-measured reporting format. The drivers the
//! binaries run live with their engines: the GA batch driver in
//! `leonardo_rtl::driver`, the campaign drivers in `leonardo_problems`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gait_problem;
pub mod harness;
pub mod mo_campaign;
pub mod problems_campaign;
pub mod report;
pub mod session;

pub use gait_problem::GaitRuleProblem;
pub use harness::{convergence_sample, parallel_map, trial_seeds, ConvergenceStats};
pub use mo_campaign::{
    max_set_walk_table, rule_walk_front, seeded_subsample_indices, WalkTableRow,
};
pub use problems_campaign::{problem_row, problem_table};
pub use report::{Comparison, ComparisonTable, Verdict};
pub use session::{trial_stats, ExperimentSession};
