//! The fault models: what can break, and where it lives in the netlist.
//!
//! Each [`FaultModel`] names one architecturally stored bit domain of the
//! GAP — a domain that exists, with the same per-lane addressing, on both
//! the scalar [`leonardo_rtl::gap_rtl::GapRtl`] and the 64-lane
//! [`GapRtlXW<u64>`](leonardo_rtl::bitslice::GapRtlXW) — plus the netlist
//! node the domain occupies (resolved through the `Describe` trait, and
//! linted by the `analysis` gate so a campaign can never name a node the
//! design does not have).

use discipulus::params::GapParams;

/// One class of storage fault a campaign can inject.
///
/// The first three are transient upsets (the stored bit flips once and
/// the machine runs on); [`FaultModel::StuckAt`] is a persistent defect —
/// the campaign driver re-asserts the forced value after every
/// generation, modelling a node welded to a rail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultModel {
    /// Flip one bit of the basis population storage (netlist node
    /// `basis`) — the classic E13 single-event upset.
    PopulationFlip,
    /// Flip one state cell of the free-running CA RNG (netlist node
    /// `rng_cells`), perturbing every future random decision.
    RngUpset,
    /// Flip one bit of the best-genome register (netlist node
    /// `best_genome_reg`) *without* touching the best-fitness register —
    /// the silent-corruption case the recovery oracle exists to flag.
    GenomeRegFlip,
    /// Hold one bit of the basis population storage at a constant value
    /// (a stuck-at-0 or stuck-at-1 defect on node `basis`).
    StuckAt(bool),
}

impl FaultModel {
    /// Every model, both stuck-at polarities included — the default
    /// campaign sweep axis.
    pub const ALL: [FaultModel; 5] = [
        FaultModel::PopulationFlip,
        FaultModel::RngUpset,
        FaultModel::GenomeRegFlip,
        FaultModel::StuckAt(false),
        FaultModel::StuckAt(true),
    ];

    /// Stable identifier used in telemetry events and manifest rows.
    pub const fn name(self) -> &'static str {
        match self {
            FaultModel::PopulationFlip => "population_flip",
            FaultModel::RngUpset => "rng_upset",
            FaultModel::GenomeRegFlip => "genome_reg_flip",
            FaultModel::StuckAt(false) => "stuck_at_0",
            FaultModel::StuckAt(true) => "stuck_at_1",
        }
    }

    /// The netlist node the model's bit domain lives on. The node must
    /// exist — with at least [`FaultModel::domain_bits`] bits per lane —
    /// in both the `gap` and `gap_x64` netlists; the `analysis` gate
    /// lints exactly that.
    pub const fn node(self) -> &'static str {
        match self {
            FaultModel::PopulationFlip | FaultModel::StuckAt(_) => "basis",
            FaultModel::RngUpset => "rng_cells",
            FaultModel::GenomeRegFlip => "best_genome_reg",
        }
    }

    /// Size of the model's per-lane bit domain: fault positions are drawn
    /// uniformly from `0..domain_bits`.
    pub fn domain_bits(self, params: &GapParams) -> u32 {
        match self {
            FaultModel::PopulationFlip | FaultModel::StuckAt(_) => params.population_bits() as u32,
            FaultModel::RngUpset => 32,
            FaultModel::GenomeRegFlip => 36,
        }
    }

    /// Whether the model is persistent (re-asserted every generation)
    /// rather than a one-shot transient.
    pub const fn is_persistent(self) -> bool {
        matches!(self, FaultModel::StuckAt(_))
    }
}

impl std::fmt::Display for FaultModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One concrete fault: a model instance at a bit position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The fault class.
    pub model: FaultModel,
    /// Bit position inside the model's domain
    /// (`0..model.domain_bits(params)`).
    pub pos: usize,
}

/// The receipt of an injected fault: enough to revert it exactly.
///
/// Reverting restores the bit that was stored *before* the injection —
/// for a flip that un-flips, for a stuck-at it releases the node back to
/// its pre-fault value — so inject-then-revert is an involution on the
/// whole machine state (a property test pins this on both engines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppliedFault {
    /// The fault that was injected.
    pub fault: Fault,
    /// The stored bit value the injection overwrote.
    pub prev: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_stable() {
        let names: Vec<&str> = FaultModel::ALL.iter().map(|m| m.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate model name");
        assert_eq!(FaultModel::PopulationFlip.name(), "population_flip");
        assert_eq!(FaultModel::StuckAt(true).name(), "stuck_at_1");
    }

    #[test]
    fn domains_match_the_paper_machine() {
        let p = GapParams::paper();
        assert_eq!(FaultModel::PopulationFlip.domain_bits(&p), 1152);
        assert_eq!(FaultModel::StuckAt(false).domain_bits(&p), 1152);
        assert_eq!(FaultModel::RngUpset.domain_bits(&p), 32);
        assert_eq!(FaultModel::GenomeRegFlip.domain_bits(&p), 36);
    }

    #[test]
    fn nodes_cover_the_three_storage_domains() {
        assert_eq!(FaultModel::PopulationFlip.node(), "basis");
        assert_eq!(FaultModel::StuckAt(true).node(), "basis");
        assert_eq!(FaultModel::RngUpset.node(), "rng_cells");
        assert_eq!(FaultModel::GenomeRegFlip.node(), "best_genome_reg");
    }

    #[test]
    fn only_stuck_at_is_persistent() {
        for m in FaultModel::ALL {
            assert_eq!(m.is_persistent(), matches!(m, FaultModel::StuckAt(_)));
        }
    }
}
