//! Bit-sliced (SWAR) batch simulation backend, 64 to 512 lanes wide.
//!
//! The classic parallel-pattern technique from EDA fault simulation,
//! applied to the whole Discipulus GAP: every logic signal is carried in a
//! [`Plane`] whose bit `l` belongs to simulation **lane** `l`, so one
//! update of a sliced unit advances `P::LANES` independent,
//! independently-seeded chip instances at once. The plane is `u64` on the
//! 64-lane engine and `[u64; N]` on the wide ones
//! ([`W128`]/[`W256`]/[`W512`]), whose elementwise word loops the compiler
//! autovectorizes — no intrinsics, no `unsafe`. [`GapRtlXW`] is the batch
//! counterpart of [`crate::gap_rtl::GapRtl`] and is **bit-exact per
//! lane** at every width: lane `l` of a seeded batch reproduces the
//! populations, best registers, cycle counts and drawn-word log of a
//! scalar `GapRtl` run with seed `l` — the lane-equivalence suite in
//! `tests/` and the per-width probes behind [`plane_registry`] lock the
//! engines together.
//!
//! Three representation tricks make this fast rather than merely parallel:
//!
//! * the free-running CA RNG is stored **transposed** ([`CaRngXW`]:
//!   `cells[i]` holds cell `i` of all lanes), so one clock edge of all
//!   generators is 32 shifted XOR planes instead of per-lane updates — and
//!   because the CA is linear over GF(2), uniform dead-cycle stretches
//!   (the 36-cycle crossover shift, the 38-cycle pipeline drain) are
//!   applied as precomputed jump matrices `M³⁶`, `M³⁸` in one go;
//! * the combinational fitness network is evaluated **bit-sliced**
//!   ([`FitnessUnitXW`]): 36 transposed genome-bit planes flow through the
//!   same boolean algebra as the scalar unit, with carry-save counters
//!   replacing popcounts, scoring `P::LANES` genomes per call;
//! * populations stay **lane-major** ([`RamXW`]), because selection and
//!   mutation address them with per-lane divergent indices; a whole-plane
//!   64×64 bit-matrix transpose ([`transpose::transposed_planes`], one
//!   plane op per step at every width) bridges the two layouts on demand,
//!   and fresh genomes are scored from the planes they were drawn as.
//!
//! Lanes diverge in *time* (mask-and-reject draws retry per lane, the
//! crossover decision draws a cut point only on success), which is handled
//! by masked clocking: every RNG step carries a lane mask — itself a
//! `Plane` — and lanes outside it hold state, so each lane always sits at
//! exactly the cycle its scalar twin would occupy. Converged lanes freeze
//! entirely, which is also what makes E13's SEU campaign cheap: an upset
//! is a one-hot lane-mask XOR into the population RAM
//! ([`GapRtlXW::inject_upset`]) instead of a per-fault rerun.
//!
//! The 64-lane engine is the width-generic one at `P = u64`, with no
//! second name: the netlist descriptions and SAT-checked semantics claims
//! are implemented on `GapRtlXW<u64>`, `CaRngXW<u64>`,
//! `FitnessUnitXW<u64>` and `RamXW<u64>`, under the pinned `*_x64` unit
//! names.

pub mod fitness_xw;
pub mod gap_xw;
pub mod plane;
pub mod ram_xw;
pub mod rng_xw;
pub mod transpose;

pub use fitness_xw::{
    consecutive_genome_planes, lane_score_lits, lane_unit_score_lits, FitnessUnitXW, LANE_BITS,
    LANE_INDEX_PLANES, SCORE_PLANES,
};
pub use gap_xw::{gather_scores, GapRtlXW, GapRtlXWConfig};
pub use plane::{plane_registry, Plane, PlaneWidth, Wide, W128, W256, W512};
pub use ram_xw::RamXW;
pub use rng_xw::CaRngXW;

/// Number of simulation lanes carried per machine word on the historical
/// 64-lane engine ([`Plane::LANES`] of `u64`; wide planes carry more).
pub const LANES: usize = 64;

/// Number of cells in the hybrid 90/150 CA generator (shared with the
/// scalar [`crate::rng_rtl::CaRngRtl`]).
pub const CELLS: usize = 32;
