//! The Genetic Algorithm Processor as cycle-accurate RTL.
//!
//! Mirrors Figure 5 of the paper: initiator, double-buffered population
//! storage (basis + intermediate), a selection unit and a crossover unit
//! that can run **pipelined** ("to decrease computation time by a factor of
//! about two, we ran the selection and crossover operators in a pipeline")
//! or sequentially (the E6 ablation), the combinational fitness unit, the
//! mutation unit, and the free-running CA random generator clocked every
//! system cycle.
//!
//! ## Cycle architecture
//!
//! The datapath is bit-serial where the original XC4000 implementation
//! would have been (multi-bit moves cost one cycle per bit):
//!
//! | phase | cost |
//! |-------|------|
//! | init | 3 cycles per individual (2 RNG words + 1 write) |
//! | fitness | 2 cycles per individual (RAM read + combinational score/commit) |
//! | selection (per pair) | 2 index draws + dual-port fitness read (2) + winner choice (1) per parent, crossover decision (1), cut-point draw (1 per rejection round), then a 36-cycle bit-serial copy of both parents into the pipeline registers |
//! | crossover (per pair) | 36-cycle bit-serial pass through the cut-point swapper + 2 commit writes |
//! | mutation (per flip) | address draw (1 per rejection round) + read-modify-write (3) |
//! | buffer swap | 1 cycle (bank-select toggle) |
//!
//! ## Randomness contract
//!
//! The RNG advances **every cycle** whether or not a unit consumes its
//! word. Decision points consume the word of their own cycle; every
//! consumed word is recorded in [`GapRtl::drawn_log`], in the same logical
//! order as the behavioural model's draw sequence. Replaying the log
//! through `discipulus::GeneticAlgorithmProcessor` therefore reproduces
//! the RTL populations bit-for-bit — the strongest functional-equivalence
//! statement the two models admit (timing differs; function does not).
//! All randomness is drawn inside the selection unit (the crossover unit
//! is a pure datapath), which is what keeps the logical draw order
//! independent of pipelining.

use crate::fitness_rtl::FitnessUnit;
use crate::primitives::Ram;
use crate::resources::{ResourceReport, Resources};
use crate::rng_rtl::CaRngRtl;
use crate::sim::Clock;
use discipulus::gap::Population;
use discipulus::genome::{Genome, GENOME_BITS};
use discipulus::params::GapParams;
use leonardo_telemetry as tele;

/// Configuration of the RTL GAP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapRtlConfig {
    /// Algorithm parameters (shared type with the behavioural model).
    pub params: GapParams,
    /// Whether selection and crossover overlap in the pipeline.
    pub pipelined: bool,
    /// Seed of the cellular-automaton generator.
    pub seed: u32,
    /// Record every consumed RNG word ([`GapRtl::drawn_log`], the replay
    /// interface of the equivalence tests). On in [`GapRtlConfig::paper`]
    /// and [`GapRtlConfig::unpipelined`]; a recorded chip keeps about 150
    /// words per generation, so long throughput runs switch it off.
    pub record_draws: bool,
}

impl GapRtlConfig {
    /// The paper's configuration (pipelined, parameters of §3.3), draw
    /// recording on.
    pub fn paper(seed: u32) -> GapRtlConfig {
        GapRtlConfig {
            params: GapParams::paper(),
            pipelined: true,
            seed,
            record_draws: true,
        }
    }

    /// The E6 ablation: identical but without the pipeline.
    pub fn unpipelined(seed: u32) -> GapRtlConfig {
        GapRtlConfig {
            pipelined: false,
            ..GapRtlConfig::paper(seed)
        }
    }

    /// Same configuration with draw recording off.
    pub fn unrecorded(mut self) -> GapRtlConfig {
        self.record_draws = false;
        self
    }
}

/// Cycle counts accumulated per phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleBreakdown {
    /// Initiator (population fill).
    pub init: u64,
    /// Fitness evaluation phases.
    pub fitness: u64,
    /// Selection + crossover (reproduction) phases.
    pub reproduce: u64,
    /// Mutation phases.
    pub mutate: u64,
    /// Control overhead (buffer swaps).
    pub overhead: u64,
}

impl CycleBreakdown {
    /// Total cycles across all phases: the chip's cycle count.
    pub fn total(&self) -> u64 {
        self.init + self.fitness + self.reproduce + self.mutate + self.overhead
    }

    /// The counter of one phase.
    pub(crate) fn phase_mut(&mut self, phase: Phase) -> &mut u64 {
        match phase {
            Phase::Init => &mut self.init,
            Phase::Fitness => &mut self.fitness,
            Phase::Reproduce => &mut self.reproduce,
            Phase::Mutate => &mut self.mutate,
            Phase::Overhead => &mut self.overhead,
        }
    }
}

/// Which phase a cycle belongs to (for the breakdown accounting).
#[derive(Clone, Copy)]
pub(crate) enum Phase {
    Init,
    Fitness,
    Reproduce,
    Mutate,
    Overhead,
}

/// One chip's architectural state at a generation boundary: what moves
/// when a trial migrates between the scalar [`GapRtl`] and a lane of the
/// batch engine ([`crate::bitslice::GapRtlXW`], any width), in either
/// direction.
///
/// Nothing else carries over. The score registers are recomputed from
/// the population on import, the intermediate buffer is rewritten by
/// every generation, and the generator owes no dead cycles at a
/// boundary. The draw log is not part of the state: an imported chip
/// logs only what it draws after the move.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneState {
    /// The CA generator's state word.
    pub rng: u32,
    /// The basis population, one 36-bit word per individual.
    pub population: Vec<u64>,
    /// The best-genome register.
    pub best_genome: u64,
    /// The best-fitness register.
    pub best_fitness: u32,
    /// Generations executed.
    pub generation: u64,
    /// Per-phase cycle accounting; its total is the system cycles elapsed.
    pub breakdown: CycleBreakdown,
}

/// Fixed cost of the bit-serial crossover datapath per pair: 36 shift
/// cycles plus two commit writes.
const XOVER_CYCLES: u64 = GENOME_BITS as u64 + 2;

/// The RTL Genetic Algorithm Processor.
#[derive(Debug, Clone)]
pub struct GapRtl {
    config: GapRtlConfig,
    clock: Clock,
    rng: CaRngRtl,
    fitness_unit: FitnessUnit,
    basis: Ram,
    intermediate: Ram,
    /// Fitness score registers, one per individual (small LUT RAM).
    scores: Vec<u32>,
    best_genome: Genome,
    best_fitness: u32,
    generation: u64,
    /// Consumed words, kept only with `record_draws`.
    drawn_log: Option<Vec<u32>>,
    /// Decision-point draws since construction (or import), recorded or
    /// not — the `draws` field of the telemetry events.
    draws: u64,
    breakdown: CycleBreakdown,
    initialized_best: bool,
}

impl GapRtl {
    /// Build the chip and run the initiator phase (population fill).
    ///
    /// # Panics
    /// Panics if the parameters fail validation.
    pub fn new(config: GapRtlConfig) -> GapRtl {
        let mut gap = GapRtl::blank(config, CaRngRtl::new(config.seed));
        gap.run_initiator();
        gap.run_fitness_phase();
        gap
    }

    /// The chip at power-on, before the initiator runs.
    fn blank(config: GapRtlConfig, rng: CaRngRtl) -> GapRtl {
        config.params.validate().expect("invalid GAP parameters");
        let n = config.params.population_size;
        GapRtl {
            config,
            clock: Clock::new(config.params.clock_hz),
            rng,
            fitness_unit: FitnessUnit::new(config.params.fitness),
            basis: Ram::new(n, 36, true),
            intermediate: Ram::new(n, 36, true),
            scores: vec![0; n],
            best_genome: Genome::ZERO,
            best_fitness: 0,
            generation: 0,
            drawn_log: config.record_draws.then(Vec::new),
            draws: 0,
            breakdown: CycleBreakdown::default(),
            initialized_best: false,
        }
    }

    /// A chip holding `state`, taken from a scalar chip or a batch lane
    /// with the same parameters and pipelining: from here on it is
    /// bit-exact with the chip the state came from. `config.seed` is not
    /// used; the state's generator word replaces the seeded one.
    ///
    /// # Panics
    /// Panics if the parameters fail validation or the state's population
    /// size differs from theirs.
    pub fn from_lane_state(config: GapRtlConfig, state: &LaneState) -> GapRtl {
        let mut gap = GapRtl::blank(config, CaRngRtl::from_state(state.rng));
        assert_eq!(
            state.population.len(),
            config.params.population_size,
            "lane state population size"
        );
        gap.basis.load(&state.population);
        for (score, &g) in gap.scores.iter_mut().zip(&state.population) {
            *score = gap.fitness_unit.evaluate(Genome::from_bits(g));
        }
        gap.best_genome = Genome::from_bits(state.best_genome);
        gap.best_fitness = state.best_fitness;
        gap.initialized_best = true;
        gap.generation = state.generation;
        gap.clock.advance(state.breakdown.total());
        gap.breakdown = state.breakdown;
        gap
    }

    /// The chip's state at the current generation boundary (every public
    /// method returns at one), for [`GapRtl::from_lane_state`] or
    /// [`crate::bitslice::GapRtlXW::from_lanes`].
    pub fn lane_state(&self) -> LaneState {
        LaneState {
            rng: self.rng.word(),
            population: (0..self.config.params.population_size)
                .map(|i| self.basis.peek(i))
                .collect(),
            best_genome: self.best_genome.bits(),
            best_fitness: self.best_fitness,
            generation: self.generation,
            breakdown: self.breakdown,
        }
    }

    /// Advance one system cycle: the free-running RNG steps, the clock
    /// counts, the phase accounting updates. Returns the RNG word valid
    /// in the new cycle (consumed or not).
    fn cycle(&mut self, phase: Phase) -> u32 {
        self.rng.clock();
        self.clock.tick();
        *self.breakdown.phase_mut(phase) += 1;
        self.rng.word()
    }

    /// A cycle whose RNG word is consumed by a decision point: logged.
    fn draw(&mut self, phase: Phase) -> u32 {
        let w = self.cycle(phase);
        self.draws += 1;
        if let Some(log) = self.drawn_log.as_mut() {
            log.push(w);
        }
        w
    }

    /// Mask-and-reject bounded draw, identical bit-for-bit to
    /// `discipulus::rng::RngSource::draw_below` (one cycle per attempt).
    fn draw_below(&mut self, bound: u32, phase: Phase) -> u32 {
        debug_assert!(bound > 0);
        let mask = bound.next_power_of_two().wrapping_sub(1) | (bound - 1);
        loop {
            let w = self.draw(phase) & mask;
            if w < bound {
                return w;
            }
        }
    }

    /// Threshold comparison on the low byte, identical to the behavioural
    /// `chance`.
    fn chance(&mut self, threshold: u8, phase: Phase) -> bool {
        ((self.draw(phase) & 0xFF) as u8) < threshold
    }

    /// Initiator: fill the basis population, 2 RNG words + 1 write cycle
    /// per individual (same word-assembly as the behavioural initiator).
    fn run_initiator(&mut self) {
        for i in 0..self.config.params.population_size {
            let lo = self.draw(Phase::Init) as u64;
            let hi = (self.draw(Phase::Init) & 0xF) as u64;
            self.cycle(Phase::Init); // write cycle
            self.basis.write(i, (lo | hi << 32) & ((1 << 36) - 1));
            self.basis.clock();
        }
    }

    /// Fitness phase: 2 cycles per individual (registered RAM read, then
    /// combinational score + commit), updating the best-individual
    /// registers exactly like the behavioural scan (strict improvement,
    /// ascending index).
    fn run_fitness_phase(&mut self) {
        if !self.initialized_best {
            // power-on: the best register latches individual 0
            let g = Genome::from_bits(self.basis.peek(0));
            self.best_genome = g;
            self.best_fitness = self.fitness_unit.evaluate(g);
            self.initialized_best = true;
        }
        for i in 0..self.config.params.population_size {
            self.cycle(Phase::Fitness); // address cycle
            self.cycle(Phase::Fitness); // data + score + commit cycle
            let g = Genome::from_bits(self.basis.peek(i));
            let f = self.fitness_unit.evaluate(g);
            self.scores[i] = f;
            if f > self.best_fitness {
                self.best_fitness = f;
                self.best_genome = g;
            }
        }
    }

    /// Selection-unit work for one parent: two index draws, a dual-port
    /// score read (2 cycles), and the threshold choice (1 cycle). Returns
    /// the chosen parent's index.
    fn select_parent(&mut self) -> usize {
        let n = self.config.params.population_size as u32;
        let i = self.draw_below(n, Phase::Reproduce) as usize;
        let j = self.draw_below(n, Phase::Reproduce) as usize;
        self.cycle(Phase::Reproduce); // dual-port score read, address
        self.cycle(Phase::Reproduce); // dual-port score read, data
        let (better, worse) = if self.scores[i] >= self.scores[j] {
            (i, j)
        } else {
            (j, i)
        };
        let t = self.config.params.selection_threshold.0;
        if self.chance(t, Phase::Reproduce) {
            better
        } else {
            worse
        }
    }

    /// Selection-unit work for one pair. Returns the pipeline register
    /// contents handed to the crossover unit: the two offspring words (cut
    /// already resolved — the crossover unit is a pure shift datapath) and
    /// the number of cycles the selection stage took.
    fn selection_stage(&mut self) -> (Genome, Genome, u64) {
        let start = self.clock.cycles();
        let idx_a = self.select_parent();
        let a = Genome::from_bits(self.basis.peek(idx_a));
        let idx_b = self.select_parent();
        let b = Genome::from_bits(self.basis.peek(idx_b));
        let t = self.config.params.crossover_threshold.0;
        let (c, d) = if self.chance(t, Phase::Reproduce) {
            let point = 1 + self.draw_below(GENOME_BITS as u32 - 1, Phase::Reproduce) as usize;
            a.crossover(b, point)
        } else {
            (a, b)
        };
        // bit-serial copy of both parents into the pipeline registers
        // (2-bit datapath, one bit of each per cycle)
        for _ in 0..GENOME_BITS {
            self.cycle(Phase::Reproduce);
        }
        (c, d, self.clock.cycles() - start)
    }

    /// Crossover-unit commit for one pair (the 36 shift cycles + 2 writes).
    /// In pipelined mode these cycles overlap the next selection stage, so
    /// the caller decides how many of them to account.
    fn crossover_commit(&mut self, pair: usize, c: Genome, d: Genome) {
        self.intermediate.write(2 * pair, c.bits());
        self.intermediate.clock();
        self.intermediate.write(2 * pair + 1, d.bits());
        self.intermediate.clock();
    }

    /// The reproduction phase: all pairs through selection ∥ crossover.
    fn run_reproduce_phase(&mut self) {
        let pairs = self.config.params.population_size / 2;
        if self.config.pipelined {
            // software model of the two-stage pipeline: while the crossover
            // unit drains pair p, the selection unit fills pair p+1; the
            // stage advances when the slower unit finishes
            let mut in_flight: Option<(usize, Genome, Genome)> = None;
            for pair in 0..pairs {
                let (c, d, sel_cycles) = self.selection_stage();
                if let Some((p, pc, pd)) = in_flight.take() {
                    // the crossover of the previous pair ran concurrently;
                    // pad if it was the slower stage
                    if XOVER_CYCLES > sel_cycles {
                        for _ in 0..XOVER_CYCLES - sel_cycles {
                            self.cycle(Phase::Reproduce);
                        }
                    }
                    self.crossover_commit(p, pc, pd);
                }
                in_flight = Some((pair, c, d));
            }
            if let Some((p, pc, pd)) = in_flight.take() {
                // drain the last pair
                for _ in 0..XOVER_CYCLES {
                    self.cycle(Phase::Reproduce);
                }
                self.crossover_commit(p, pc, pd);
            }
        } else {
            for pair in 0..pairs {
                let (c, d, _) = self.selection_stage();
                for _ in 0..XOVER_CYCLES {
                    self.cycle(Phase::Reproduce);
                }
                self.crossover_commit(pair, c, d);
            }
        }
    }

    /// Mutation phase: per flip, an address draw (with mask-and-reject
    /// retries) and a 3-cycle read-modify-write on the intermediate RAM.
    fn run_mutate_phase(&mut self) {
        let bits = self.config.params.population_bits() as u32;
        for _ in 0..self.config.params.mutations_per_generation {
            let pos = self.draw_below(bits, Phase::Mutate) as usize;
            self.cycle(Phase::Mutate); // read address
            self.cycle(Phase::Mutate); // read data
            let idx = pos / GENOME_BITS;
            let bit = pos % GENOME_BITS;
            let word = self.intermediate.peek(idx) ^ (1u64 << bit);
            self.cycle(Phase::Mutate); // write back
            self.intermediate.write(idx, word);
            self.intermediate.clock();
        }
    }

    /// Execute one full generation (reproduce → mutate → swap → fitness).
    pub fn step_generation(&mut self) {
        let cycles_before = self.clock.cycles();
        let draws_before = self.draws;
        self.run_reproduce_phase();
        self.run_mutate_phase();
        // bank-select toggle
        self.cycle(Phase::Overhead);
        std::mem::swap(&mut self.basis, &mut self.intermediate);
        self.generation += 1;
        self.run_fitness_phase();
        if tele::enabled_at(tele::Level::Trace) {
            tele::emit(
                tele::Level::Trace,
                "rtl.gap.generation",
                &[
                    ("generation", self.generation.into()),
                    ("cycles", (self.clock.cycles() - cycles_before).into()),
                    ("draws", (self.draws - draws_before).into()),
                    ("best_ever", self.best_fitness.into()),
                ],
            );
        }
    }

    /// Run generations until the maximum fitness is reached or
    /// `max_generations` pass; returns whether it converged.
    pub fn run_to_convergence(&mut self, max_generations: u64) -> bool {
        while !self.converged() && self.generation < max_generations {
            self.step_generation();
        }
        if tele::enabled_at(tele::Level::Metric) {
            let b = self.breakdown;
            tele::emit(
                tele::Level::Metric,
                "rtl.gap.run",
                &[
                    ("converged", self.converged().into()),
                    ("generations", self.generation.into()),
                    ("cycles", self.clock.cycles().into()),
                    ("draws", self.draws.into()),
                    ("cycles_init", b.init.into()),
                    ("cycles_fitness", b.fitness.into()),
                    ("cycles_reproduce", b.reproduce.into()),
                    ("cycles_mutate", b.mutate.into()),
                    ("cycles_overhead", b.overhead.into()),
                ],
            );
        }
        self.converged()
    }

    /// Whether the best register holds a maximal-fitness genome.
    pub fn converged(&self) -> bool {
        self.best_fitness == self.config.params.fitness.max_fitness()
    }

    /// The best individual register (genome, fitness).
    pub fn best(&self) -> (Genome, u32) {
        (self.best_genome, self.best_fitness)
    }

    /// Generations executed.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The system clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Per-phase cycle accounting.
    pub fn breakdown(&self) -> CycleBreakdown {
        self.breakdown
    }

    /// Every RNG word consumed at a decision point, in logical order
    /// (the replay interface of the equivalence tests).
    ///
    /// # Panics
    /// Panics unless the chip was built with `record_draws`.
    pub fn drawn_log(&self) -> &[u32] {
        self.drawn_log
            .as_deref()
            .expect("drawn-log recording disabled; build with record_draws")
    }

    /// The current basis population as a behavioural [`Population`].
    pub fn population(&self) -> Population {
        Population::from_genomes(
            (0..self.config.params.population_size)
                .map(|i| Genome::from_bits(self.basis.peek(i)))
                .collect(),
        )
    }

    /// The configuration in force.
    pub fn config(&self) -> &GapRtlConfig {
        &self.config
    }

    /// Inject a single-event upset: flip one bit of the basis population
    /// storage, addressed like the mutation unit (bit `pos % 36` of
    /// individual `pos / 36`). Models radiation-induced or electrical
    /// upsets of the flip-flop-based population RAM — a standing concern
    /// for evolvable hardware, and one the GA absorbs gracefully because
    /// an upset is indistinguishable from an extra mutation (experiment
    /// E13).
    ///
    /// # Panics
    /// Panics if `pos` exceeds the population bit count.
    pub fn inject_upset(&mut self, pos: usize) {
        assert!(
            pos < self.config.params.population_bits(),
            "upset position out of range"
        );
        let idx = pos / GENOME_BITS;
        let bit = pos % GENOME_BITS;
        let word = self.basis.peek(idx) ^ (1u64 << bit);
        self.basis.write(idx, word);
        self.basis.clock();
    }

    // --- fault-injection ports (used by `leonardo-faults`) --------------
    //
    // Each port exposes one architecturally stored bit for observation and
    // forcing, addressed exactly like the corresponding netlist node
    // (`basis`, `rng_cells`, `best_genome_reg`). Forcing happens between
    // generations, where the chip is quiescent, so a forced bit is
    // indistinguishable from a storage upset landing in the idle window.

    /// Read one bit of the basis population storage (netlist node
    /// `basis`), addressed like [`GapRtl::inject_upset`].
    ///
    /// # Panics
    /// Panics if `pos` exceeds the population bit count.
    pub fn population_bit(&self, pos: usize) -> bool {
        assert!(
            pos < self.config.params.population_bits(),
            "population bit out of range"
        );
        self.basis.peek(pos / GENOME_BITS) >> (pos % GENOME_BITS) & 1 == 1
    }

    /// Force one bit of the basis population storage.
    ///
    /// # Panics
    /// Panics if `pos` exceeds the population bit count.
    pub fn set_population_bit(&mut self, pos: usize, value: bool) {
        if self.population_bit(pos) != value {
            self.inject_upset(pos);
        }
    }

    /// Read one cell of the free-running CA RNG's state register (netlist
    /// node `rng_cells`).
    ///
    /// # Panics
    /// Panics if `cell ≥ 32`.
    pub fn rng_state_bit(&self, cell: usize) -> bool {
        self.rng.state_bit(cell)
    }

    /// Force one cell of the CA RNG's state register.
    ///
    /// # Panics
    /// Panics if `cell ≥ 32`.
    pub fn set_rng_state_bit(&mut self, cell: usize, value: bool) {
        self.rng.set_state_bit(cell, value);
    }

    /// Read one bit of the best-genome register (netlist node
    /// `best_genome_reg`).
    ///
    /// # Panics
    /// Panics if `bit ≥ 36`.
    pub fn best_genome_bit(&self, bit: usize) -> bool {
        assert!(bit < GENOME_BITS, "best-genome bit out of range");
        self.best_genome.bit(bit)
    }

    /// Force one bit of the best-genome register. The best-fitness
    /// register is deliberately left alone: a physical register upset
    /// corrupts the stored genome without re-running the comparator, which
    /// is exactly the silent-corruption case the differential recovery
    /// oracle exists to flag.
    ///
    /// # Panics
    /// Panics if `bit ≥ 36`.
    pub fn set_best_genome_bit(&mut self, bit: usize, value: bool) {
        assert!(bit < GENOME_BITS, "best-genome bit out of range");
        self.best_genome = self.best_genome.with_bit(bit, value);
    }

    /// Per-unit resource estimate of the GAP (Figure 5's boxes).
    pub fn resource_report(&self) -> ResourceReport {
        let mut rep = ResourceReport::new();
        rep.add("rng (32-cell CA)", self.rng.resources());
        rep.add("population RAM (basis)", self.basis.resources());
        rep.add("population RAM (interm.)", self.intermediate.resources());
        // score storage in LUT RAM (32 × 5 bits), best genome + fitness regs
        rep.add(
            "fitness score LUT-RAM",
            Resources::lut_ram_bits(self.scores.len() as u32 * 5),
        );
        rep.add("best-individual registers", Resources::unit(36 + 5, 4));
        rep.add("fitness unit", self.fitness_unit.resources());
        // selection unit: index + choice registers and compare logic; the
        // parent pipeline registers belong to the crossover unit's shift
        // registers (selection copies straight into them)
        rep.add("selection unit", Resources::unit(12, 24));
        // crossover unit: 2 offspring shift regs + 6-bit cut-point register
        rep.add("crossover unit", Resources::unit(2 * 36 + 6, 16));
        rep.add("mutation unit", Resources::unit(12, 10));
        // the initiator reuses the crossover write datapath; only the
        // control FSM state remains
        rep.add("initiator + control FSM", Resources::unit(8, 24));
        rep
    }
}

impl crate::netlist::Describe for GapRtl {
    fn netlist(&self) -> crate::netlist::StaticNetlist {
        let n = self.config.params.population_size as u32;
        // Figure 5's boxes as nets. The GAP is self-contained (seeded at
        // reset); its external face is the best-individual registers and
        // the serial configuration link to the walking controller.
        crate::netlist::StaticNetlist::new("gap")
            .claim(self.resource_report().total())
            // free-running CA random generator
            .register("rng_cells", 32)
            .wire("rng_next", 32)
            .edge("rng_cells", "rng_next")
            .edge("rng_next", "rng_cells")
            // double-buffered population storage
            .register("basis", n * 36)
            .register("intermediate", n * 36)
            .register("bank_select", 1)
            .edge("bank_select", "bank_select")
            // combinational fitness network scoring the RAM read port
            .wire("fitness_score", 5)
            .register("score_ram", n * 5)
            .register("best_genome_reg", 36)
            .register("best_fitness_reg", 5)
            .fan_in(&["basis", "bank_select"], "fitness_score")
            .edge("fitness_score", "score_ram")
            .fan_in(
                &["fitness_score", "best_fitness_reg", "basis"],
                "best_genome_reg",
            )
            .fan_in(&["fitness_score", "best_fitness_reg"], "best_fitness_reg")
            // selection unit: index/choice registers fed by RNG + scores
            .register("sel_regs", 12)
            .fan_in(&["rng_cells", "score_ram"], "sel_regs")
            // crossover unit: offspring shift registers + cut-point register
            .register("xover_shift", 2 * 36)
            .register("cut_point", 6)
            .edge("rng_cells", "cut_point")
            .fan_in(
                &["basis", "sel_regs", "cut_point", "xover_shift"],
                "xover_shift",
            )
            .edge("xover_shift", "intermediate")
            .fan_in(&["intermediate", "bank_select"], "basis")
            // mutation unit: address register + RMW path on the intermediate
            .register("mut_addr", 12)
            .edge("rng_cells", "mut_addr")
            .fan_in(&["mut_addr", "intermediate"], "intermediate")
            // initiator + control FSM sequencing the phases
            .register("ctrl_fsm", 8)
            .edge("ctrl_fsm", "ctrl_fsm")
            .edge("rng_cells", "basis")
            // external face: best individual + serial configuration link
            .output("best_genome", 36)
            .output("best_fitness", 5)
            .output("cfg_bit", 1)
            .edge("best_genome_reg", "best_genome")
            .edge("best_fitness_reg", "best_fitness")
            .fan_in(&["best_genome_reg", "ctrl_fsm"], "cfg_bit")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initiator_matches_behavioural_population() {
        // The RTL initiator and the behavioural Population::random consume
        // the same two words per genome from the same CA stream.
        let gap = GapRtl::new(GapRtlConfig::paper(42));
        let mut ca = discipulus::rng::CellularRng::new(42);
        // behavioural draw: the CA advanced 3 cycles per genome in RTL,
        // so replay the *log* rather than the raw stream
        let mut replay = discipulus::rng::ReplayRng::new(gap.drawn_log().to_vec());
        let pop = Population::random(32, &mut replay);
        assert_eq!(gap.population(), pop);
        // and the raw stream differs (the write cycles advanced the CA)
        let raw = Population::random(32, &mut ca);
        assert_ne!(gap.population(), raw);
    }

    #[test]
    fn generation_advances_clock_and_counters() {
        let mut gap = GapRtl::new(GapRtlConfig::paper(7));
        let c0 = gap.clock().cycles();
        gap.step_generation();
        assert_eq!(gap.generation(), 1);
        let spent = gap.clock().cycles() - c0;
        // sanity window for the documented cycle architecture
        assert!(spent > 500, "generation too cheap: {spent}");
        assert!(spent < 5000, "generation too expensive: {spent}");
    }

    #[test]
    fn breakdown_sums_to_clock() {
        let mut gap = GapRtl::new(GapRtlConfig::paper(9));
        for _ in 0..5 {
            gap.step_generation();
        }
        assert_eq!(gap.breakdown().total(), gap.clock().cycles());
    }

    #[test]
    fn pipelined_reproduction_is_faster() {
        let mut pipe = GapRtl::new(GapRtlConfig::paper(11));
        let mut seq = GapRtl::new(GapRtlConfig::unpipelined(11));
        for _ in 0..20 {
            pipe.step_generation();
            seq.step_generation();
        }
        let rp = pipe.breakdown().reproduce as f64;
        let rs = seq.breakdown().reproduce as f64;
        let speedup = rs / rp;
        // paper: "a factor of about two"
        assert!((1.4..=2.1).contains(&speedup), "pipeline speedup {speedup}");
    }

    #[test]
    fn best_register_monotone() {
        let mut gap = GapRtl::new(GapRtlConfig::paper(13));
        let mut last = gap.best().1;
        for _ in 0..50 {
            gap.step_generation();
            assert!(gap.best().1 >= last);
            last = gap.best().1;
        }
    }

    #[test]
    fn converges_like_the_chip() {
        let mut gap = GapRtl::new(GapRtlConfig::paper(5));
        assert!(gap.run_to_convergence(50_000), "RTL GAP did not converge");
        let (g, f) = gap.best();
        assert_eq!(f, GapParams::paper().fitness.max_fitness());
        assert!(GapParams::paper().fitness.is_max(g));
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = GapRtl::new(GapRtlConfig::paper(77));
        let mut b = GapRtl::new(GapRtlConfig::paper(77));
        for _ in 0..10 {
            a.step_generation();
            b.step_generation();
        }
        assert_eq!(a.population(), b.population());
        assert_eq!(a.clock().cycles(), b.clock().cycles());
        assert_eq!(a.drawn_log(), b.drawn_log());
    }

    #[test]
    #[should_panic(expected = "recording disabled")]
    fn drawn_log_requires_recording() {
        let gap = GapRtl::new(GapRtlConfig::paper(1).unrecorded());
        let _ = gap.drawn_log();
    }

    #[test]
    fn pipelining_changes_timing_not_validity() {
        // different RNG word timing ⇒ different populations, but both
        // configurations remain functional GAPs
        let mut pipe = GapRtl::new(GapRtlConfig::paper(3));
        let mut seq = GapRtl::new(GapRtlConfig::unpipelined(3));
        pipe.step_generation();
        seq.step_generation();
        assert_ne!(pipe.population(), seq.population());
        assert!(seq.run_to_convergence(50_000));
    }

    #[test]
    fn resource_report_dominated_by_population_storage() {
        let gap = GapRtl::new(GapRtlConfig::paper(1));
        let rep = gap.resource_report();
        let total = rep.total();
        let pop_clbs: u32 = rep
            .entries()
            .iter()
            .filter(|(n, _)| n.contains("population RAM"))
            .map(|(_, r)| r.clbs)
            .sum();
        assert_eq!(pop_clbs, 1152);
        assert!(
            pop_clbs as f64 / total.clbs as f64 > 0.75,
            "population storage must dominate, as on the real chip"
        );
    }
}

#[cfg(test)]
mod seu_tests {
    use super::*;

    #[test]
    fn upset_flips_exactly_one_population_bit() {
        let mut gap = GapRtl::new(GapRtlConfig::paper(31));
        let before = gap.population();
        gap.inject_upset(7 * 36 + 11);
        let after = gap.population();
        let mut diff = 0;
        for (a, b) in before.genomes().iter().zip(after.genomes()) {
            diff += a.hamming_distance(*b);
        }
        assert_eq!(diff, 1);
        assert_eq!(before.get(7).hamming_distance(after.get(7)), 1);
    }

    #[test]
    fn upset_is_an_involution() {
        let mut gap = GapRtl::new(GapRtlConfig::paper(32));
        let before = gap.population();
        gap.inject_upset(100);
        gap.inject_upset(100);
        assert_eq!(before, gap.population());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn upset_position_checked() {
        GapRtl::new(GapRtlConfig::paper(1)).inject_upset(1152);
    }

    #[test]
    fn gap_converges_under_sustained_upsets() {
        // one upset every generation (far above any physical rate): the GA
        // still converges — the upset is just one more mutation
        let mut gap = GapRtl::new(GapRtlConfig::paper(33));
        let mut upset_src = crate::rng_rtl::CaRngRtl::new(0x5EED);
        let mut converged = false;
        for _ in 0..100_000 {
            if gap.converged() {
                converged = true;
                break;
            }
            gap.step_generation();
            upset_src.clock();
            let pos = (upset_src.word() % 1152) as usize;
            gap.inject_upset(pos);
        }
        assert!(converged, "GAP did not converge under SEU injection");
    }
}
