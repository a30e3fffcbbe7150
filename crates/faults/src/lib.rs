//! Deterministic fault injection for the GAP RTL engines.
//!
//! The paper's robustness story (its E13 experiment) is that the
//! evolvable architecture *absorbs* radiation-style storage upsets: a
//! flipped population bit is just one more mutation, and the chip
//! re-converges. This crate turns that ad-hoc experiment into a
//! first-class subsystem with three layers:
//!
//! * [`FaultModel`] / [`Fault`] — *what* breaks: population-RAM bit
//!   flips, CA-RNG state upsets, best-genome-register flips, and
//!   persistent stuck-at-0/1 defects, each tied to the netlist node it
//!   lives on (the `analysis` gate lints that every node exists in both
//!   engine netlists).
//! * [`Injector`] — *where* it breaks: one trait implemented by the
//!   scalar [`leonardo_rtl::gap_rtl::GapRtl`] (via [`ScalarBank`]) and
//!   the 64-lane [`GapRtlXW<u64>`](leonardo_rtl::bitslice::GapRtlXW), so
//!   every campaign runs bit-exactly on either engine.
//! * [`Campaign`] — *how often* and *what happened*: a seeded sweep
//!   driver with per-lane CA fault streams ([`FaultRng`], which fixes
//!   the old `% 1152` modulo bias by mask-and-reject sampling), lane
//!   freezing at convergence, recovery metrics, and the **differential
//!   recovery oracle**: every campaign runs a fault-free twin from the
//!   same seeds and [`CampaignReport::verify`] proves each lane either
//!   reconverged, is flagged as corrupted, or is counted as a permanent
//!   failure — while [`CampaignReport::agrees_with`] pins scalar and
//!   X64 runs to identical results.
//!
//! Telemetry: campaigns emit `fault.inject` (trace) and `fault.recovery`
//! (metric) events through the [`leonardo_telemetry`] facade, and
//! [`CampaignReport::manifest_row`] summarises a campaign for the run
//! manifest's `campaigns` section.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod injector;
pub mod model;
pub mod rng;

pub use campaign::{Campaign, CampaignReport, LaneOutcome, LaneReport};
pub use injector::{Injector, ScalarBank};
pub use model::{AppliedFault, Fault, FaultModel};
pub use rng::{FaultRng, FAULT_SEED_XOR};
