//! The [`Injector`] trait: one fault-injection surface over both RTL
//! engines.
//!
//! A campaign never talks to `GapRtl` or `GapRtlXW` directly — it talks
//! to an `Injector`, which exposes the three storage domains of
//! [`FaultModel`] as addressable bits plus the minimal stepping and
//! observation surface a driver needs. Both engines implement it (the
//! X64 engine generalising its one-hot lane-mask `inject_upset` path),
//! and [`ScalarBank`] lifts a vector of scalar chips to the same
//! multi-lane shape, so the *same* campaign code runs bit-exact on either
//! engine — the cross-engine half of the differential recovery oracle.
//!
//! Timing contract: faults are injected **between generations**. Both
//! engines are quiescent there (the X64 engine's deferred RNG dead-cycle
//! debt is always settled when `step_generation_masked` returns), which
//! is what makes a lockstep faulted run bit-exact across engines.

use crate::model::{AppliedFault, Fault, FaultModel};
use discipulus::genome::Genome;
use discipulus::params::GapParams;
use leonardo_rtl::bitslice::GapRtlXW;
use leonardo_rtl::gap_rtl::{GapRtl, GapRtlConfig};

/// A multi-lane GAP engine that supports deterministic fault injection.
///
/// Lanes are numbered `0..lane_count()`; single-chip implementations have
/// exactly one lane. All bit addressing follows the engines' fault ports
/// (population bits like the mutation unit, RNG cells LSB-first, genome
/// register bits in genome order).
pub trait Injector {
    /// Number of lanes this engine carries.
    fn lane_count(&self) -> usize;

    /// Engine identifier for telemetry and reports
    /// (`"rtl_scalar"` / `"rtl_x64"`).
    fn engine_name(&self) -> &'static str;

    /// The GAP parameters in force (shared by every lane).
    fn params(&self) -> &GapParams;

    /// Read the stored bit at `pos` of `model`'s domain on `lane`.
    fn fault_bit(&self, lane: usize, model: FaultModel, pos: usize) -> bool;

    /// Force the stored bit at `pos` of `model`'s domain on `lane`.
    fn set_fault_bit(&mut self, lane: usize, model: FaultModel, pos: usize, value: bool);

    /// Advance the lanes of `mask` (bit `l` selects lane `l`) by one
    /// generation; all others hold.
    fn step_lanes(&mut self, mask: u64);

    /// Mask of lanes still worth stepping: not converged and under the
    /// generation budget.
    fn running_mask(&self, max_generations: u64) -> u64;

    /// Whether one lane's best-fitness register reads maximal.
    fn converged(&self, lane: usize) -> bool;

    /// Generations executed by one lane.
    fn generation(&self, lane: usize) -> u64;

    /// System cycles elapsed on one lane.
    fn cycles(&self, lane: usize) -> u64;

    /// One lane's best-individual register (genome, fitness).
    fn best(&self, lane: usize) -> (Genome, u32);

    /// Inject `fault` into `lane` and return the receipt needed to revert
    /// it: a transient model flips the stored bit, a stuck-at forces it.
    fn inject(&mut self, lane: usize, fault: Fault) -> AppliedFault {
        let prev = self.fault_bit(lane, fault.model, fault.pos);
        let value = match fault.model {
            FaultModel::StuckAt(v) => v,
            _ => !prev,
        };
        if value != prev {
            self.set_fault_bit(lane, fault.model, fault.pos, value);
        }
        AppliedFault { fault, prev }
    }

    /// Undo an injected fault exactly, restoring the pre-fault bit.
    /// `inject` followed immediately by `revert` leaves the whole machine
    /// state bit-identical to an untouched twin (property-tested on both
    /// engines).
    fn revert(&mut self, lane: usize, applied: AppliedFault) {
        self.set_fault_bit(lane, applied.fault.model, applied.fault.pos, applied.prev);
    }

    /// Whether one lane's best-genome register *actually* holds a
    /// maximal-fitness genome — re-scored combinationally rather than
    /// read from the fitness register, so register corruption
    /// ([`FaultModel::GenomeRegFlip`]) is visible.
    fn best_is_genuine_max(&self, lane: usize) -> bool {
        let (genome, _) = self.best(lane);
        self.params().fitness.is_max(genome)
    }
}

impl Injector for GapRtl {
    fn lane_count(&self) -> usize {
        1
    }

    fn engine_name(&self) -> &'static str {
        "rtl_scalar"
    }

    fn params(&self) -> &GapParams {
        &self.config().params
    }

    fn fault_bit(&self, lane: usize, model: FaultModel, pos: usize) -> bool {
        assert_eq!(lane, 0, "scalar chip has one lane");
        match model {
            FaultModel::PopulationFlip | FaultModel::StuckAt(_) => self.population_bit(pos),
            FaultModel::RngUpset => self.rng_state_bit(pos),
            FaultModel::GenomeRegFlip => self.best_genome_bit(pos),
        }
    }

    fn set_fault_bit(&mut self, lane: usize, model: FaultModel, pos: usize, value: bool) {
        assert_eq!(lane, 0, "scalar chip has one lane");
        match model {
            FaultModel::PopulationFlip | FaultModel::StuckAt(_) => {
                self.set_population_bit(pos, value)
            }
            FaultModel::RngUpset => self.set_rng_state_bit(pos, value),
            FaultModel::GenomeRegFlip => self.set_best_genome_bit(pos, value),
        }
    }

    fn step_lanes(&mut self, mask: u64) {
        if mask & 1 != 0 {
            self.step_generation();
        }
    }

    fn running_mask(&self, max_generations: u64) -> u64 {
        u64::from(!GapRtl::converged(self) && GapRtl::generation(self) < max_generations)
    }

    fn converged(&self, lane: usize) -> bool {
        assert_eq!(lane, 0, "scalar chip has one lane");
        GapRtl::converged(self)
    }

    fn generation(&self, lane: usize) -> u64 {
        assert_eq!(lane, 0, "scalar chip has one lane");
        GapRtl::generation(self)
    }

    fn cycles(&self, lane: usize) -> u64 {
        assert_eq!(lane, 0, "scalar chip has one lane");
        self.clock().cycles()
    }

    fn best(&self, lane: usize) -> (Genome, u32) {
        assert_eq!(lane, 0, "scalar chip has one lane");
        GapRtl::best(self)
    }
}

impl Injector for GapRtlXW<u64> {
    fn lane_count(&self) -> usize {
        self.enabled().count_ones() as usize
    }

    fn engine_name(&self) -> &'static str {
        "rtl_x64"
    }

    fn params(&self) -> &GapParams {
        &self.config().params
    }

    fn fault_bit(&self, lane: usize, model: FaultModel, pos: usize) -> bool {
        match model {
            FaultModel::PopulationFlip | FaultModel::StuckAt(_) => self.population_bit(lane, pos),
            FaultModel::RngUpset => self.rng_state_bit(lane, pos),
            FaultModel::GenomeRegFlip => self.best_genome_bit(lane, pos),
        }
    }

    fn set_fault_bit(&mut self, lane: usize, model: FaultModel, pos: usize, value: bool) {
        match model {
            FaultModel::PopulationFlip | FaultModel::StuckAt(_) => {
                self.set_population_bit(lane, pos, value)
            }
            FaultModel::RngUpset => self.set_rng_state_bit(lane, pos, value),
            FaultModel::GenomeRegFlip => self.set_best_genome_bit(lane, pos, value),
        }
    }

    fn step_lanes(&mut self, mask: u64) {
        self.step_generation_masked(mask);
    }

    fn running_mask(&self, max_generations: u64) -> u64 {
        GapRtlXW::running_mask(self, max_generations)
    }

    fn converged(&self, lane: usize) -> bool {
        GapRtlXW::converged(self, lane)
    }

    fn generation(&self, lane: usize) -> u64 {
        GapRtlXW::generation(self, lane)
    }

    fn cycles(&self, lane: usize) -> u64 {
        GapRtlXW::cycles(self, lane)
    }

    fn best(&self, lane: usize) -> (Genome, u32) {
        GapRtlXW::best(self, lane)
    }
}

/// A bank of scalar chips presented as one multi-lane [`Injector`]:
/// lane `l` is the chip seeded `seeds[l]`, matching the X64 engine's
/// seed-to-lane mapping. This is what lets a campaign run the *same*
/// schedule on 64 scalar chips and one batch engine and demand
/// bit-identical results.
#[derive(Debug, Clone)]
pub struct ScalarBank {
    chips: Vec<GapRtl>,
}

impl ScalarBank {
    /// One paper-configured scalar chip per seed (at most 64, mirroring
    /// the batch engine's lane limit).
    ///
    /// # Panics
    /// Panics if `seeds` is empty or longer than 64.
    pub fn new(seeds: &[u32]) -> ScalarBank {
        assert!(
            !seeds.is_empty() && seeds.len() <= 64,
            "between 1 and 64 seeds"
        );
        ScalarBank {
            chips: seeds
                .iter()
                .map(|&s| GapRtl::new(GapRtlConfig::paper(s)))
                .collect(),
        }
    }

    /// The chip carried by one lane.
    pub fn chip(&self, lane: usize) -> &GapRtl {
        &self.chips[lane]
    }
}

impl Injector for ScalarBank {
    fn lane_count(&self) -> usize {
        self.chips.len()
    }

    fn engine_name(&self) -> &'static str {
        "rtl_scalar"
    }

    fn params(&self) -> &GapParams {
        &self.chips[0].config().params
    }

    fn fault_bit(&self, lane: usize, model: FaultModel, pos: usize) -> bool {
        self.chips[lane].fault_bit(0, model, pos)
    }

    fn set_fault_bit(&mut self, lane: usize, model: FaultModel, pos: usize, value: bool) {
        self.chips[lane].set_fault_bit(0, model, pos, value);
    }

    fn step_lanes(&mut self, mask: u64) {
        for (l, chip) in self.chips.iter_mut().enumerate() {
            if mask >> l & 1 == 1 {
                chip.step_generation();
            }
        }
    }

    fn running_mask(&self, max_generations: u64) -> u64 {
        let mut m = 0u64;
        for (l, chip) in self.chips.iter().enumerate() {
            if Injector::running_mask(chip, max_generations) != 0 {
                m |= 1u64 << l;
            }
        }
        m
    }

    fn converged(&self, lane: usize) -> bool {
        GapRtl::converged(&self.chips[lane])
    }

    fn generation(&self, lane: usize) -> u64 {
        GapRtl::generation(&self.chips[lane])
    }

    fn cycles(&self, lane: usize) -> u64 {
        self.chips[lane].clock().cycles()
    }

    fn best(&self, lane: usize) -> (Genome, u32) {
        GapRtl::best(&self.chips[lane])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leonardo_rtl::bitslice::GapRtlXWConfig;

    #[test]
    fn inject_is_a_flip_and_stuck_at_is_a_force() {
        let mut gap = GapRtl::new(GapRtlConfig::paper(42));
        let f = Fault {
            model: FaultModel::PopulationFlip,
            pos: 100,
        };
        let before = gap.fault_bit(0, f.model, f.pos);
        let applied = gap.inject(0, f);
        assert_eq!(applied.prev, before);
        assert_eq!(gap.fault_bit(0, f.model, f.pos), !before);
        gap.revert(0, applied);
        assert_eq!(gap.fault_bit(0, f.model, f.pos), before);

        let s = Fault {
            model: FaultModel::StuckAt(true),
            pos: 100,
        };
        let applied = gap.inject(0, s);
        assert!(gap.fault_bit(0, s.model, s.pos));
        gap.revert(0, applied);
        assert_eq!(gap.fault_bit(0, s.model, s.pos), before);
    }

    #[test]
    fn scalar_bank_lanes_match_x64_lanes_bit_for_bit() {
        let seeds = [0x1000u32, 0x1007, 0x100E];
        let mut bank = ScalarBank::new(&seeds);
        let mut x64 = GapRtlXW::<u64>::new(GapRtlXWConfig::paper(), &seeds);
        for model in FaultModel::ALL {
            let bits = model.domain_bits(bank.params());
            for pos in [0usize, 1, bits as usize - 1] {
                for l in 0..seeds.len() {
                    assert_eq!(
                        bank.fault_bit(l, model, pos),
                        x64.fault_bit(l, model, pos),
                        "{model} pos {pos} lane {l}"
                    );
                }
            }
        }
        // step both through the trait and compare the observation surface
        bank.step_lanes(0b111);
        x64.step_lanes(0b111);
        for l in 0..seeds.len() {
            assert_eq!(Injector::best(&bank, l), Injector::best(&x64, l));
            assert_eq!(
                Injector::generation(&bank, l),
                Injector::generation(&x64, l)
            );
            assert_eq!(Injector::cycles(&bank, l), Injector::cycles(&x64, l));
        }
    }
}
