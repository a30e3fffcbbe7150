//! # leonardo-problems — the evolvable-hardware problem catalog
//!
//! The paper's pipeline evolves exactly one artefact: the 36-bit gait
//! genome. ROADMAP item 4 calls scenario diversity the multiplier on that
//! substrate — one engine, many evolvable-hardware problems. This crate
//! is the catalog: every workload the repo can evolve, expressed through
//! the [`evo::evolvable::EvolvableProblem`] contract and registered in
//! [`problem_registry`] with a bit-parallel batch kernel per plane width.
//!
//! Shipped problems:
//!
//! * [`gait`] — the paper's three-rule gait landscape, re-expressed as a
//!   registry instance. A differential pin in `tests/gait_as_problem.rs`
//!   proves the generic path byte-identical to the legacy hard-coded one.
//! * [`mealy`] — Mealy-machine synthesis from I/O traces (the
//!   FSM-synthesis formulation of Bereza et al., arXiv:1307.6995):
//!   fitness is the number of trace output bits the encoded machine
//!   reproduces. Two instances: a hidden `1101` sequence detector
//!   recovered from traces alone, and the textbook serial adder
//!   (GA-designed sequential logic, Soleimani et al., arXiv:1110.1038).
//!
//! Each registry entry carries a [`kernel::KernelFamily`] that builds its
//! [`kernel::ProblemKernel`] at any plane width (`u64` through `W512`),
//! pinned lane-by-lane to the scalar fitness by the cross-problem
//! conformance suite and by the analysis gate's `check_problems` lint,
//! and a [`sweep::subspace_sweep`] drives any kernel over a sharded genome
//! subspace with bit-identical results at every width, shard count and
//! thread count.
//!
//! Two campaign drivers run evolution over the catalog:
//! [`campaign::problem_campaigns`] (seeded GA runs against any registry
//! problem, E17) and [`mo_campaign::nsga2_campaigns`] (NSGA-II over the
//! walker's objectives, E16). Both are bit-identical at any thread count.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod gait;
pub mod kernel;
pub mod mealy;
pub mod mo_campaign;
pub mod registry;
pub mod sweep;

pub use campaign::{problem_campaign, problem_campaigns, ProblemTrial};
pub use gait::GaitProblem;
pub use kernel::{GaitKernel, KernelFamily, MealyKernel, ProblemKernel};
pub use mealy::{MealyMachine, MealyProblem, Trace};
pub use mo_campaign::{nsga2_campaign, nsga2_campaigns, GaitMoProblem, MoCampaign, MoFrontRow};
pub use registry::{problem_registry, ProblemSpec};
pub use sweep::{subspace_sweep, SweepSummary};
