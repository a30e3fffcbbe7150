//! # evo — a general-purpose genetic-algorithm library
//!
//! The substrate GA library of the Leonardo / Discipulus Simplex
//! reproduction. Where the `discipulus` crate models the *hardware* GA
//! exactly as published (fixed operators, fixed draw sequence), this crate
//! provides the *software* toolbox needed by the experiment harness:
//!
//! * pluggable selection / crossover / mutation operators ([`select`],
//!   [`crossover`], [`mutate`]) over arbitrary-width bit-string genomes
//!   ([`genome`]);
//! * generational ([`ga`]) and steady-state ([`steady`]) GA engines;
//! * an NSGA-II multi-objective engine ([`mo`]) over Pareto machinery
//!   ([`pareto`]: non-dominated sort, crowding distance, crowded
//!   tournament);
//! * baseline searchers — random search, exhaustive enumeration,
//!   hill climbing, (1+1)-ES, simulated annealing ([`baselines`]);
//! * a deterministic multi-threaded island model ([`island`]);
//! * a parallel parameter-sweep driver ([`sweep`]) and sample statistics
//!   ([`stats`]);
//! * the one seeded generator every operator draws from ([`rng`]);
//! * the width-generic [`evolvable`] contract — named single-word
//!   integer-fitness problems (gait rules, FSM synthesis) that adapt onto
//!   every searcher here via [`evolvable::Evolvable`].
//!
//! ## Quick start
//!
//! ```
//! use evo::prelude::*;
//!
//! // maximize the number of ones in a 24-bit string
//! let problem = FnProblem::new(24, |g: &BitString| g.count_ones() as f64);
//! let config = GaConfig::default().with_population_size(32);
//! let mut ga = Ga::new(config, problem, 7);
//! let out = ga.run(200, Some(24.0));
//! assert_eq!(out.best_fitness, 24.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod crossover;
pub mod evolvable;
pub mod ga;
pub mod genome;
pub mod island;
pub mod mo;
pub mod mutate;
pub mod pareto;
pub mod problem;
pub mod rng;
pub mod select;
pub mod stats;
pub mod steady;
pub mod sweep;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::baselines::{
        exhaustive_search, hill_climber, one_plus_one_es, random_search, simulated_annealing,
        SearchBudget, SearchResult,
    };
    pub use crate::crossover::Crossover;
    pub use crate::evolvable::{Evolvable, EvolvableProblem};
    pub use crate::ga::{Ga, GaConfig, GaOutcome};
    pub use crate::genome::BitString;
    pub use crate::island::{IslandConfig, IslandModel, IslandOutcome};
    pub use crate::mo::{
        FnMultiObjective, MoOutcome, MultiObjective, MultiObjectiveGa, ScalarObjective,
    };
    pub use crate::mutate::Mutation;
    pub use crate::pareto::{
        crowding_distance, dominates, fast_non_dominated_sort, FrontPoint, ParetoRank,
    };
    pub use crate::problem::{FnProblem, Problem};
    pub use crate::select::Selection;
    pub use crate::stats::Summary;
    pub use crate::steady::{SteadyOutcome, SteadyStateGa};
    pub use crate::sweep::{SweepPoint, SweepReport, SweepRunner};
}
