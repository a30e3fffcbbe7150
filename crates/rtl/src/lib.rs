//! # leonardo-rtl — cycle-accurate model of the Discipulus Simplex FPGA
//!
//! The original system was synthesized from VHDL onto a Xilinx XC4036EX.
//! That hardware is not available here, so this crate substitutes a
//! register-transfer-level simulation: every unit of the chip is an
//! explicit finite-state machine over registered state, advanced one clock
//! cycle at a time, with cycle counts and a CLB/gate resource model.
//!
//! The substitution preserves exactly the properties the paper's
//! evaluation rests on:
//!
//! * **timing** — the 1 MHz wall-clock claims (≈10 min to converge, ≈19 h
//!   exhaustive) are pure cycle counts, which the simulation reproduces
//!   ([`gap_rtl`], experiment E2/E6);
//! * **area** — the 1244-CLB / 96 % / ≈40 k-gate figure is reproduced by a
//!   per-primitive cost model ([`resources`], experiment E4);
//! * **function** — the RTL GAP produces bit-identical populations to the
//!   behavioural `discipulus` model when fed the same random words
//!   (equivalence tests in `tests/`).
//!
//! Module map (mirrors Figures 3–5 of the paper):
//!
//! * [`sim`] — clocked-simulation kernel (cycle counter, probes)
//! * [`bitslice`] — width-generic SWAR batch engine (64–512 GAP
//!   instances per plane word, one lane per bit)
//! * [`driver`] — multi-seed GA drivers over the scalar and batch
//!   engines (lane refill, hand-off to narrower engines and scalar chips)
//! * [`primitives`] — registers, counters, RAMs, shift registers
//! * [`rng_rtl`] — the free-running cellular-automaton RNG
//! * [`fitness_rtl`] — the combinational three-rule fitness network
//! * [`gap_rtl`] — the Genetic Algorithm Processor (pipelined and
//!   sequential variants)
//! * [`walkctl_rtl`] — the reconfigurable walking state machine
//! * [`pwm`] — the 12-channel servo PWM bank
//! * [`bitstream`] — genome configuration bit-stream shift-loading
//! * [`top`] — the whole chip ([`top::DiscipulusTop`])
//! * [`vcd`] — waveform export for GTKWave-style inspection
//! * [`resources`] — CLB/FF/gate estimation
//! * [`netlist`] — static self-descriptions ([`netlist::Describe`]) for
//!   the design-verification linter in the `analysis` crate
//! * [`semantics`] — gate-level boolean semantics
//!   ([`semantics::Semantics`]) for the SAT-based symbolic prover in the
//!   `analysis` crate

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitslice;
pub mod bitstream;
pub mod control;
pub mod driver;
pub mod fitness_rtl;
pub mod gap_rtl;
pub mod netlist;
pub mod primitives;
pub mod pwm;
pub mod resources;
pub mod rng_rtl;
pub mod semantics;
pub mod sim;
pub mod top;
pub mod vcd;
pub mod walkctl_rtl;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::bitslice::{
        CaRngXW, FitnessUnitXW, GapRtlXW, GapRtlXWConfig, Plane, RamXW, LANES, W128, W256, W512,
    };
    pub use crate::bitstream::Bitstream;
    pub use crate::control::{CtrlState, GapControlFsm};
    pub use crate::fitness_rtl::FitnessUnit;
    pub use crate::gap_rtl::{CycleBreakdown, GapRtl, GapRtlConfig, LaneState};
    pub use crate::netlist::{Describe, DesignNetlist, StaticNetlist};
    pub use crate::pwm::{PwmChannel, ServoBank};
    pub use crate::resources::{ResourceReport, Resources, XC4036EX_CLBS};
    pub use crate::rng_rtl::CaRngRtl;
    pub use crate::semantics::{Circuit, Lit, Semantics, SeqCircuit};
    pub use crate::sim::{Clock, Probe};
    pub use crate::top::DiscipulusTop;
    pub use crate::vcd::VcdBuilder;
    pub use crate::walkctl_rtl::WalkControllerRtl;
}
