//! The free-running cellular-automaton RNG as an RTL unit.
//!
//! Paper §3.2: the generator "generates a new pseudo-random number for all
//! genetic operators at each clock cycle \[...\] It does not depend on the
//! execution of the genetic algorithm."
//!
//! [`CaRngRtl`] therefore clocks unconditionally — `clock()` is called once
//! per system cycle whether or not anyone consumes the word — and is
//! bit-exact with the behavioural [`discipulus::rng::CellularRng`] (a unit
//! test locks the two together).

use crate::netlist::{Describe, StaticNetlist};
use crate::resources::Resources;
use crate::semantics::{Lit, Semantics, SeqCircuit};
use discipulus::rng::MAXIMAL_RULE_90_150;

/// One clock edge of a CA state word under `rule`: `left ⊕ right`, plus
/// `⊕ self` on rule-150 cells; null boundary. The one word form of the
/// rule, shared by [`CaRngRtl::clock`] and the batch initiator's
/// lane-major generator words.
#[inline(always)]
pub(crate) fn ca_next(s: u32, rule: u32) -> u32 {
    (s << 1) ^ (s >> 1) ^ (s & rule)
}

/// A seed's generator word: zero, the CA's only fixed point, is remapped
/// to 1.
#[inline]
pub(crate) fn seed_word(seed: u32) -> u32 {
    if seed == 0 {
        1
    } else {
        seed
    }
}

/// The 32-cell hybrid 90/150 CA generator as registered hardware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaRngRtl {
    state: u32,
    rule: u32,
}

impl CaRngRtl {
    /// Create with the certified maximal rule vector; zero seeds are
    /// remapped to 1 (the CA's only fixed point).
    pub fn new(seed: u32) -> CaRngRtl {
        CaRngRtl {
            state: seed_word(seed),
            rule: MAXIMAL_RULE_90_150,
        }
    }

    /// Resume from a raw state word, as a migrated chip does. Unlike
    /// [`CaRngRtl::new`] there is no zero remap: a register forced to zero
    /// stays on the fixed point it was left on.
    pub fn from_state(state: u32) -> CaRngRtl {
        CaRngRtl {
            state,
            rule: MAXIMAL_RULE_90_150,
        }
    }

    /// The current output word (the CA state register, valid this cycle).
    pub fn word(&self) -> u32 {
        self.state
    }

    /// One CA state-register cell — the observation half of the fault-
    /// injection port used by `leonardo-faults`.
    ///
    /// # Panics
    /// Panics if `cell ≥ 32`.
    pub fn state_bit(&self, cell: usize) -> bool {
        assert!(cell < 32, "CA cell out of range");
        self.state >> cell & 1 == 1
    }

    /// Force one CA state-register cell — the control half of the fault-
    /// injection port. An upset here models radiation flipping a state
    /// flip-flop of the free-running generator; the CA simply continues
    /// from the perturbed state (forcing the whole register to zero would
    /// park it on its only fixed point — a genuine permanent failure the
    /// fault campaigns are allowed to observe).
    ///
    /// # Panics
    /// Panics if `cell ≥ 32`.
    pub fn set_state_bit(&mut self, cell: usize, value: bool) {
        assert!(cell < 32, "CA cell out of range");
        self.state = (self.state & !(1 << cell)) | (u32::from(value) << cell);
    }

    /// Clock edge: advance the CA (`left ⊕ right`, plus `⊕ self` on
    /// rule-150 cells; null boundary).
    #[inline]
    pub fn clock(&mut self) {
        self.state = ca_next(self.state, self.rule);
    }

    /// Resource estimate: 32 state FFs, each fed by a 3-input XOR in the
    /// same CLB.
    pub fn resources(&self) -> Resources {
        Resources::unit(32, 32)
    }
}

impl Describe for CaRngRtl {
    fn netlist(&self) -> StaticNetlist {
        StaticNetlist::new("ca_rng")
            .claim(self.resources())
            .register("cells", 32)
            .wire("next_cells", 32) // left ⊕ right (⊕ self on rule-150 cells)
            .output("word", 32)
            .edge("cells", "next_cells")
            .edge("next_cells", "cells")
            .edge("cells", "word")
    }
}

impl Semantics for CaRngRtl {
    fn semantics(&self) -> SeqCircuit {
        let mut sc = SeqCircuit::new("ca_rng");
        let init: Vec<bool> = (0..32).map(|b| self.state >> b & 1 == 1).collect();
        let cells = sc.register("cells", &init);
        let c = &mut sc.circuit;
        // bit i of (s << 1) ^ (s >> 1) ^ (s & rule): neighbours with null
        // boundary, plus the self tap on rule-150 cells — derived from the
        // word expression in `ca_next`, not from the sliced engine
        let next: Vec<Lit> = (0..32)
            .map(|i| {
                let left = if i > 0 { cells[i - 1] } else { Lit::FALSE };
                let right = if i < 31 { cells[i + 1] } else { Lit::FALSE };
                let self_tap = if self.rule >> i & 1 == 1 {
                    cells[i]
                } else {
                    Lit::FALSE
                };
                let lr = c.xor(left, right);
                c.xor(lr, self_tap)
            })
            .collect();
        sc.set_next("cells", next);
        sc.output("word", cells);
        sc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discipulus::rng::{CellularRng, RngSource};

    #[test]
    fn bit_exact_with_behavioural_model() {
        let mut rtl = CaRngRtl::new(0xBEEF);
        let mut beh = CellularRng::new(0xBEEF);
        for _ in 0..10_000 {
            rtl.clock();
            assert_eq!(rtl.word(), beh.next_word());
        }
    }

    #[test]
    fn zero_seed_remapped() {
        assert_eq!(CaRngRtl::new(0).word(), 1);
    }

    #[test]
    fn free_running_changes_every_cycle() {
        let mut rtl = CaRngRtl::new(123);
        let mut last = rtl.word();
        for _ in 0..1000 {
            rtl.clock();
            assert_ne!(rtl.word(), 0, "CA must never reach the zero state");
            // with a maximal CA consecutive repeats are impossible
            assert_ne!(rtl.word(), last);
            last = rtl.word();
        }
    }

    #[test]
    fn semantics_matches_simulation() {
        let mut rtl = CaRngRtl::new(0xDEAD_BEEF);
        let sc = rtl.semantics();
        sc.validate().unwrap();
        let mut state = sc.initial_state();
        for i in 0..500 {
            let (next, outs) = sc.eval_step(&state, &[]);
            assert_eq!(outs[0].1, u64::from(rtl.word()), "cycle {i}");
            rtl.clock();
            state = next;
        }
    }

    #[test]
    fn resource_estimate() {
        let r = CaRngRtl::new(1).resources();
        assert_eq!(r.flip_flops, 32);
        assert_eq!(r.luts, 32);
        assert_eq!(r.clbs, 16, "XOR network packs into the state-FF CLBs");
    }
}
