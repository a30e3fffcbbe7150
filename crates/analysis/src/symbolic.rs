//! Symbolic model checking over the RTL units' gate-level semantics.
//!
//! Every check here is a **proof over all inputs**, not a test over
//! sampled ones: the unit's [`Semantics`] model is lowered to CNF
//! (`solver::cnf`) and a SAT query settles the property. Three families:
//!
//! * **Equivalence miters** — two independently derived circuits are
//!   instantiated over *shared* input variables and the solver is asked
//!   for an input where any output bit differs. UNSAT means the two
//!   functions agree on every one of the 2³⁶ genomes (or 2³² RNG
//!   states); SAT yields a concrete, replayable counterexample. The
//!   chain proven: behavioural gate spec ([`discipulus::gates`]) ↔ RTL
//!   [`FitnessUnit`] ↔ one lane of the sliced [`FitnessUnitX64`] ↔ the
//!   landscape sweep's per-genome function ([`BlockKernel`]), plus the
//!   scalar [`CaRngRtl`] step ↔ one lane of [`CaRngX64`]. Two more
//!   miters prove what the landscape's closed form relies on: the score
//!   splits by body side (`F(a ∨ b) + F(0) = F(a) + F(b)` for left-only
//!   `a`, right-only `b`) and the leg mirror keeps it.
//! * **k-induction invariants** — a property `P` of a sequential unit is
//!   proven by (base) no trace from reset violates `P` in the first `k`
//!   cycles, and (step) `k` consecutive `P`-states from an *arbitrary*
//!   state force `P` in the next cycle. Used for the GAP control FSM's
//!   strengthened invariant (one-hot state ∧ single-writer strobes),
//!   counter range bounds, and the best-fitness register's ≤ 26 bound.
//! * **Bounded reachability** — per-(state, depth) SAT queries over an
//!   unrolling from reset, cross-checked against an explicit-state
//!   enumeration of the same machine (the same exhaustive concrete walk
//!   the genome reachability checker applies to leg state machines).
//!
//! Transition properties of the RAM primitive (frame condition,
//! write-through, read-after-write ordering) are single-step UNSAT
//! queries over a free state — strictly stronger than induction, since
//! they hold from *any* state, reachable or not.
//!
//! Every proof appends a per-proof stat record (solver vars, clauses,
//! conflicts, decisions, wall time) to the report and mirrors it to the
//! telemetry layer as an `analysis.proof` metric event.

use crate::finding::Finding;
use crate::solver::cnf::{assert_words_differ, CircuitInstance};
use crate::solver::{SLit, SatResult, Solver, Stats};
use discipulus::fitness::FitnessSpec;
use discipulus::gates::{fitness_score_gates, GENOME_BITS};
use discipulus::genome::{Genome, LegId, Side, BITS_PER_LEG, NUM_LEGS};
use leonardo_landscape::BlockKernel;
use leonardo_rtl::bitslice::{CaRngX64, FitnessUnitX64};
use leonardo_rtl::control::{CtrlState, GapControlFsm, CTRL_STATES};
use leonardo_rtl::fitness_rtl::FitnessUnit;
use leonardo_rtl::primitives::{ModCounter, Ram, ShiftReg};
use leonardo_rtl::rng_rtl::CaRngRtl;
use leonardo_rtl::semantics::{Circuit, Gate, Lit, Semantics, SeqCircuit};
use leonardo_telemetry as tele;
use std::time::Instant;

/// Outcome and solver statistics of one proof obligation.
#[derive(Debug, Clone)]
pub struct ProofStat {
    /// Stable proof name (matches the finding's check name on failure).
    pub name: &'static str,
    /// The unit or miter the proof is about.
    pub context: String,
    /// Whether the property was proven (UNSAT where UNSAT was expected).
    pub proved: bool,
    /// Solver statistics of the deciding queries (summed when an
    /// obligation needs more than one).
    pub stats: Stats,
    /// Wall time of the whole obligation.
    pub millis: u128,
}

/// Findings plus per-proof statistics from a batch of symbolic checks.
#[derive(Debug, Clone, Default)]
pub struct SymbolicReport {
    /// Error findings (counterexamples) and warnings.
    pub findings: Vec<Finding>,
    /// One entry per proof obligation, in execution order.
    pub proofs: Vec<ProofStat>,
}

impl SymbolicReport {
    /// Merge another report into this one.
    pub fn merge(&mut self, other: SymbolicReport) {
        self.findings.extend(other.findings);
        self.proofs.extend(other.proofs);
    }

    /// Record one finished obligation: stat entry, telemetry event, and —
    /// when the proof failed — the counterexample finding.
    fn record(
        &mut self,
        name: &'static str,
        context: impl Into<String>,
        started: Instant,
        stats: Stats,
        counterexample: Option<String>,
    ) {
        let context = context.into();
        let millis = started.elapsed().as_millis();
        let proved = counterexample.is_none();
        if tele::enabled_at(tele::Level::Metric) {
            tele::emit(
                tele::Level::Metric,
                "analysis.proof",
                &[
                    ("proof", tele::Value::Str(name)),
                    ("proved", proved.into()),
                    ("vars", stats.vars.into()),
                    ("clauses", stats.clauses.into()),
                    ("conflicts", stats.conflicts.into()),
                    ("decisions", stats.decisions.into()),
                    ("propagations", stats.propagations.into()),
                    ("millis", (millis as u64).into()),
                ],
            );
        }
        if let Some(cex) = counterexample {
            self.findings
                .push(Finding::error(name, context.clone(), cex));
        }
        self.proofs.push(ProofStat {
            name,
            context,
            proved,
            stats,
            millis,
        });
    }
}

// ---------------------------------------------------------------------------
// instantiation helpers
// ---------------------------------------------------------------------------

/// The input-leaf index an IR literal was created as.
///
/// # Panics
/// Panics if the literal is not a plain (unnegated) input leaf — register
/// current-state words and declared inputs always are.
fn leaf_of(c: &Circuit, l: Lit) -> usize {
    assert!(!l.negated(), "ports are plain leaves");
    match c.gates()[l.node()] {
        Gate::Input(k) => k as usize,
        _ => panic!("literal is not an input leaf"),
    }
}

/// One time-frame of an unrolled sequential circuit.
#[derive(Debug)]
struct Frame {
    inst: CircuitInstance,
    /// Solver literals of each declared input port, in declaration order.
    inputs: Vec<Vec<SLit>>,
}

/// A `k`-frame unrolling of a [`SeqCircuit`] into a solver.
#[derive(Debug)]
struct Unrolling {
    frames: Vec<Frame>,
    /// `k + 1` state vectors: `states[t]` holds the register bits
    /// (concatenated in declaration order) *entering* frame `t`;
    /// `states[k]` is the state after the last frame.
    states: Vec<Vec<SLit>>,
}

impl Unrolling {
    /// Unroll `sc` for `k` frames. `init == Some(bits)` pins the first
    /// state to a concrete value (reset-anchored base case); `None`
    /// leaves it free (induction step, transition properties).
    /// `shared_inputs[t]`, when provided, supplies pre-existing solver
    /// literals for frame `t`'s input ports (flattened in declaration
    /// order) — the two-copy convergence miters drive both copies with
    /// them.
    fn build(
        solver: &mut Solver,
        sc: &SeqCircuit,
        k: usize,
        init: Option<&[bool]>,
        shared_inputs: Option<&[Vec<SLit>]>,
    ) -> Unrolling {
        sc.validate().expect("complete next-state functions");
        let state_width: usize = sc.regs.iter().map(|r| r.current.len()).sum();
        let mut state: Vec<SLit> = (0..state_width)
            .map(|_| SLit::pos(solver.new_var()))
            .collect();
        if let Some(bits) = init {
            assert_eq!(bits.len(), state_width, "init width");
            for (i, &b) in bits.iter().enumerate() {
                let l = if b { state[i] } else { state[i].not() };
                solver.add_clause(&[l]);
            }
        }
        let mut states = vec![state.clone()];
        let mut frames = Vec::with_capacity(k);
        for t in 0..k {
            let mut bindings = vec![SLit::pos(0); sc.circuit.num_inputs() as usize];
            let mut cursor = 0;
            for r in &sc.regs {
                for (i, &l) in r.current.iter().enumerate() {
                    bindings[leaf_of(&sc.circuit, l)] = state[cursor + i];
                }
                cursor += r.current.len();
            }
            let mut inputs = Vec::with_capacity(sc.inputs.len());
            let mut flat_cursor = 0;
            for port in &sc.inputs {
                let mut port_lits = Vec::with_capacity(port.bits.len());
                for &l in &port.bits {
                    let v = match shared_inputs {
                        Some(shared) => shared[t][flat_cursor],
                        None => SLit::pos(solver.new_var()),
                    };
                    flat_cursor += 1;
                    bindings[leaf_of(&sc.circuit, l)] = v;
                    port_lits.push(v);
                }
                inputs.push(port_lits);
            }
            let inst = CircuitInstance::with_inputs(solver, &sc.circuit, &bindings);
            state = sc
                .regs
                .iter()
                .flat_map(|r| r.next.iter().map(|&l| inst.lit(l)))
                .collect();
            states.push(state.clone());
            frames.push(Frame { inst, inputs });
        }
        Unrolling { frames, states }
    }

    /// Fresh per-frame input variables shaped for `shared_inputs` reuse.
    fn fresh_inputs(solver: &mut Solver, sc: &SeqCircuit, k: usize) -> Vec<Vec<SLit>> {
        let width: usize = sc.inputs.iter().map(|p| p.bits.len()).sum();
        (0..k)
            .map(|_| (0..width).map(|_| SLit::pos(solver.new_var())).collect())
            .collect()
    }

    /// The solver literals of input port `name` at frame `t`.
    fn input(&self, sc: &SeqCircuit, t: usize, name: &str) -> Vec<SLit> {
        let idx = sc
            .inputs
            .iter()
            .position(|p| p.name == name)
            .unwrap_or_else(|| panic!("unknown input `{name}`"));
        self.frames[t].inputs[idx].clone()
    }
}

/// Read a word's model value from a satisfying solver.
fn model_word(solver: &Solver, word: &[SLit]) -> u64 {
    word.iter()
        .enumerate()
        .map(|(i, &l)| u64::from(solver.lit_true(l)) << i)
        .sum()
}

/// `a < b` over equal-width little-endian words, built in the IR.
fn word_lt(c: &mut Circuit, a: &[Lit], b: &[Lit]) -> Lit {
    assert_eq!(a.len(), b.len(), "comparator widths");
    let mut lt = Lit::FALSE;
    for (&ai, &bi) in a.iter().zip(b) {
        let bit_lt = c.and(ai.not(), bi);
        let bit_eq = c.xnor(ai, bi);
        let keep = c.and(bit_eq, lt);
        lt = c.or(bit_lt, keep);
    }
    lt
}

// ---------------------------------------------------------------------------
// equivalence miters
// ---------------------------------------------------------------------------

/// Instantiate a purely combinational semantics over shared input
/// variables, binding port `bind.0` to the literals `bind.1`. Ports not
/// mentioned get fresh variables.
fn instantiate_comb(
    solver: &mut Solver,
    sc: &SeqCircuit,
    bind: &[(&str, &[SLit])],
) -> CircuitInstance {
    assert!(sc.regs.is_empty(), "combinational unit expected");
    let mut bindings: Vec<Option<SLit>> = vec![None; sc.circuit.num_inputs() as usize];
    for (name, lits) in bind {
        let port = sc
            .find_input(name)
            .unwrap_or_else(|| panic!("unknown input `{name}`"));
        assert_eq!(port.len(), lits.len(), "binding width for `{name}`");
        for (i, &l) in port.iter().enumerate() {
            bindings[leaf_of(&sc.circuit, l)] = Some(lits[i]);
        }
    }
    let bindings: Vec<SLit> = bindings
        .into_iter()
        .map(|b| b.unwrap_or_else(|| SLit::pos(solver.new_var())))
        .collect();
    CircuitInstance::with_inputs(solver, &sc.circuit, &bindings)
}

/// Compact display form of a spec's weights.
fn spec_tag(spec: FitnessSpec) -> String {
    format!(
        "w{}{}{}",
        spec.equilibrium_weight, spec.symmetry_weight, spec.coherence_weight
    )
}

/// Miter the behavioural gate-level fitness spec (the paper's 26 checks,
/// unit weights, derived in [`discipulus::gates`] with no RTL code in
/// the chain) against an RTL [`FitnessUnit`] — for **all 2³⁶ genomes**.
///
/// The gate runs this against `FitnessUnit::new(FitnessSpec::paper())`;
/// the `bad-fitness-unit` fixture passes a deliberately mis-specified
/// unit and harvests the counterexample genome.
pub fn miter_fitness_unit(unit: &FitnessUnit) -> SymbolicReport {
    let mut report = SymbolicReport::default();
    let started = Instant::now();
    let mut solver = Solver::new();
    let genome: Vec<SLit> = (0..GENOME_BITS)
        .map(|_| SLit::pos(solver.new_var()))
        .collect();

    // reference network: straight from the behavioural spec
    let mut reference = Circuit::new();
    let bits: [Lit; GENOME_BITS] = reference
        .new_input_word(GENOME_BITS)
        .try_into()
        .expect("genome width");
    let spec_score = fitness_score_gates(&mut reference, &bits);
    let ref_inst = CircuitInstance::with_inputs(&mut solver, &reference, &genome);
    let ref_out = ref_inst.word(&spec_score);

    let sc = unit.semantics();
    let inst = instantiate_comb(&mut solver, &sc, &[("genome", &genome)]);
    let rtl_out = inst.word(sc.find_output("fitness").expect("fitness output"));

    assert_words_differ(&mut solver, &ref_out, &rtl_out);
    let cex = match solver.solve() {
        SatResult::Unsat => None,
        SatResult::Sat => {
            let g = model_word(&solver, &genome);
            Some(format!(
                "fitness disagrees with the behavioural spec on genome {g:#011x}: \
                 spec={} rtl={} (replay: `analysis genome {g:x}`)",
                model_word(&solver, &ref_out),
                model_word(&solver, &rtl_out),
            ))
        }
    };
    report.record(
        "fitness-miter-spec",
        "fitness_unit",
        started,
        solver.stats(),
        cex,
    );
    report
}

/// Miter the scalar RTL fitness unit against one extracted lane of the
/// bit-sliced [`FitnessUnitX64`] and against the landscape sweep's
/// [`BlockKernel`] per-genome function, for every genome. (One lane
/// suffices: every sliced word operation is bitwise, so lane `l` of the
/// 64-lane network is the same gate function for every `l` — the lane
/// semantics' own pinning tests exercise that projection.)
pub fn check_fitness_lane_equivalence(spec: FitnessSpec) -> SymbolicReport {
    let mut report = SymbolicReport::default();
    let unit_sc = FitnessUnit::new(spec).semantics();

    // scalar RTL vs one lane of the 64-lane sliced network
    let started = Instant::now();
    let mut solver = Solver::new();
    let genome: Vec<SLit> = (0..GENOME_BITS)
        .map(|_| SLit::pos(solver.new_var()))
        .collect();
    let scalar = instantiate_comb(&mut solver, &unit_sc, &[("genome", &genome)]);
    let scalar_out = scalar.word(unit_sc.find_output("fitness").expect("fitness"));
    let lane_sc = FitnessUnitX64::new(spec).semantics();
    let lane = instantiate_comb(&mut solver, &lane_sc, &[("genome", &genome)]);
    let lane_out = lane.word(lane_sc.find_output("fitness").expect("fitness"));
    assert_words_differ(&mut solver, &scalar_out, &lane_out);
    let cex = match solver.solve() {
        SatResult::Unsat => None,
        SatResult::Sat => {
            let g = model_word(&solver, &genome);
            Some(format!(
                "sliced lane disagrees with scalar RTL on genome {g:#011x}: \
                 rtl={} lane={} (replay: `analysis genome {g:x}`)",
                model_word(&solver, &scalar_out),
                model_word(&solver, &lane_out),
            ))
        }
    };
    report.record(
        "fitness-miter-lane",
        format!("fitness_unit_x64 {}", spec_tag(spec)),
        started,
        solver.stats(),
        cex,
    );

    // scalar RTL vs the sweep kernel's per-(block, lane) genome function —
    // proving the fixed lane-index plane tables along the way
    let started = Instant::now();
    let mut solver = Solver::new();
    let genome: Vec<SLit> = (0..GENOME_BITS)
        .map(|_| SLit::pos(solver.new_var()))
        .collect();
    let scalar = instantiate_comb(&mut solver, &unit_sc, &[("genome", &genome)]);
    let scalar_out = scalar.word(unit_sc.find_output("fitness").expect("fitness"));
    let kernel_sc = BlockKernel::new(spec).semantics();
    let lane_bits = kernel_sc.find_input("lane").expect("lane").len();
    let kernel = instantiate_comb(
        &mut solver,
        &kernel_sc,
        &[
            ("lane", &genome[..lane_bits]),
            ("block", &genome[lane_bits..]),
        ],
    );
    let kernel_out = kernel.word(kernel_sc.find_output("fitness").expect("fitness"));
    assert_words_differ(&mut solver, &scalar_out, &kernel_out);
    let cex = match solver.solve() {
        SatResult::Unsat => None,
        SatResult::Sat => {
            let g = model_word(&solver, &genome);
            Some(format!(
                "sweep kernel disagrees with scalar RTL on genome {g:#011x} \
                 (block {:#x}, lane {}): rtl={} kernel={}",
                g >> lane_bits,
                g & ((1 << lane_bits) - 1),
                model_word(&solver, &scalar_out),
                model_word(&solver, &kernel_out),
            ))
        }
    };
    report.record(
        "fitness-miter-kernel",
        format!("block_kernel {}", spec_tag(spec)),
        started,
        solver.stats(),
        cex,
    );
    report
}

/// Whether genome bit `b` belongs to a left leg.
fn is_left_bit(b: usize) -> bool {
    LegId::from_index(b % (NUM_LEGS * BITS_PER_LEG) / BITS_PER_LEG).side() == Side::Left
}

/// Rebuild the `fitness` output of `unit` (a combinational network with
/// a 36-bit `genome` input) inside `c` over the literals `genome`. Copies
/// over shared or constant inputs then hash-cons and constant-fold
/// together before the solver sees them.
fn fitness_in(c: &mut Circuit, unit: &SeqCircuit, genome: &[Lit]) -> Vec<Lit> {
    let mut inputs = vec![Lit::FALSE; unit.circuit.num_inputs() as usize];
    let port = unit.find_input("genome").expect("genome input");
    for (&leaf, &g) in port.iter().zip(genome) {
        inputs[leaf_of(&unit.circuit, leaf)] = g;
    }
    let map = |nodes: &[Lit], l: Lit| {
        let n = nodes[l.node()];
        if l.negated() {
            n.not()
        } else {
            n
        }
    };
    let mut nodes: Vec<Lit> = Vec::with_capacity(unit.circuit.len());
    for gate in unit.circuit.gates() {
        let lit = match *gate {
            Gate::False => Lit::FALSE,
            Gate::Input(k) => inputs[k as usize],
            Gate::And(a, b) => c.and(map(&nodes, a), map(&nodes, b)),
            Gate::Xor(a, b) => c.xor(map(&nodes, a), map(&nodes, b)),
        };
        nodes.push(lit);
    }
    let out = unit.find_output("fitness").expect("fitness output");
    out.iter().map(|&l| map(&nodes, l)).collect()
}

/// Prove that the score of `unit` splits by body side: for **every**
/// left-only genome `a` and right-only genome `b`,
/// `F(a ∨ b) + F(0) = F(a) + F(b)`. This is what lets
/// [`leonardo_landscape::closed_form`] build any subcube's histogram as
/// the convolution of two side histograms. The `coupled-sides` fixture
/// passes a rule network with one check reading both sides.
pub fn check_side_separability(unit: &SeqCircuit, context: &str) -> SymbolicReport {
    let mut report = SymbolicReport::default();
    let started = Instant::now();
    // `genome` is a ∨ b: its left bits are a, its right bits b
    let mut c = Circuit::new();
    let genome = c.new_input_word(GENOME_BITS);
    let side = |left: bool| -> Vec<Lit> {
        (0..GENOME_BITS)
            .map(|b| {
                if is_left_bit(b) == left {
                    genome[b]
                } else {
                    Lit::FALSE
                }
            })
            .collect()
    };
    let scores = [
        fitness_in(&mut c, unit, &genome),
        fitness_in(&mut c, unit, &[Lit::FALSE; GENOME_BITS]),
        fitness_in(&mut c, unit, &side(true)),
        fitness_in(&mut c, unit, &side(false)),
    ];
    let joint = c.add_words(&scores[0], &scores[1]);
    let split = c.add_words(&scores[2], &scores[3]);
    let mut solver = Solver::new();
    let inst = CircuitInstance::new(&mut solver, &c);
    assert_words_differ(&mut solver, &inst.word(&joint), &inst.word(&split));
    let cex = match solver.solve() {
        SatResult::Unsat => None,
        SatResult::Sat => {
            let g = model_word(&solver, &inst.word(&genome));
            let [whole, empty, left, right] = scores.map(|w| model_word(&solver, &inst.word(&w)));
            Some(format!(
                "the score does not split by side at genome {g:#011x}: \
                 F(a|b) + F(0) = {whole} + {empty} but F(a) + F(b) = {left} + {right} \
                 (replay: `analysis genome {g:x}`)"
            ))
        }
    };
    report.record("side-separability", context, started, solver.stats(), cex);
    report
}

/// Prove that the left↔right leg mirror ([`Genome::mirrored`]) keeps the
/// score of `unit` for **every** genome — the closed form scores each
/// right side as its mirrored left side.
pub fn check_mirror_invariance(unit: &SeqCircuit, context: &str) -> SymbolicReport {
    let mut report = SymbolicReport::default();
    let started = Instant::now();
    let mut c = Circuit::new();
    let genome = c.new_input_word(GENOME_BITS);
    // bit b of the genome is bit `to` of its mirror image
    let mut mirrored = genome.clone();
    for (b, &lit) in genome.iter().enumerate() {
        let to = Genome::from_bits(1 << b).mirrored().bits().trailing_zeros();
        mirrored[to as usize] = lit;
    }
    let direct = fitness_in(&mut c, unit, &genome);
    let mirror = fitness_in(&mut c, unit, &mirrored);
    let mut solver = Solver::new();
    let inst = CircuitInstance::new(&mut solver, &c);
    let (direct, mirror) = (inst.word(&direct), inst.word(&mirror));
    assert_words_differ(&mut solver, &direct, &mirror);
    let cex = match solver.solve() {
        SatResult::Unsat => None,
        SatResult::Sat => {
            let g = model_word(&solver, &inst.word(&genome));
            Some(format!(
                "mirroring genome {g:#011x} changes its score from {} to {}",
                model_word(&solver, &direct),
                model_word(&solver, &mirror),
            ))
        }
    };
    report.record("mirror-invariance", context, started, solver.stats(), cex);
    report
}

/// Miter the scalar CA RNG's transition function against one lane of the
/// transposed 64-lane generator: the same 32-bit cell state must produce
/// the same next state and output word for **all 2³² states**, and the
/// power-on states must agree bit for bit.
pub fn check_rng_lane_equivalence(seed: u32) -> SymbolicReport {
    let mut report = SymbolicReport::default();
    let started = Instant::now();
    let scalar_sc = CaRngRtl::new(seed).semantics();
    let lane_sc = CaRngX64::new(&[seed]).semantics();

    let mut solver = Solver::new();
    let mut cex = if scalar_sc.initial_state() == lane_sc.initial_state() {
        None
    } else {
        Some(format!(
            "power-on state differs for seed {seed:#x}: scalar {:?} vs lane {:?}",
            scalar_sc.initial_state(),
            lane_sc.initial_state()
        ))
    };

    if cex.is_none() {
        let width: usize = scalar_sc.regs.iter().map(|r| r.current.len()).sum();
        let state: Vec<SLit> = (0..width).map(|_| SLit::pos(solver.new_var())).collect();
        // bind both copies' current cell state to the same variables
        let mut copies = Vec::with_capacity(2);
        for sc in [&scalar_sc, &lane_sc] {
            let mut bindings = vec![SLit::pos(0); sc.circuit.num_inputs() as usize];
            for (i, &l) in sc.regs[0].current.iter().enumerate() {
                bindings[leaf_of(&sc.circuit, l)] = state[i];
            }
            copies.push(CircuitInstance::with_inputs(
                &mut solver,
                &sc.circuit,
                &bindings,
            ));
        }
        let next_a: Vec<SLit> = scalar_sc.regs[0]
            .next
            .iter()
            .map(|&l| copies[0].lit(l))
            .collect();
        let next_b: Vec<SLit> = lane_sc.regs[0]
            .next
            .iter()
            .map(|&l| copies[1].lit(l))
            .collect();
        let out_a = copies[0].word(scalar_sc.find_output("word").expect("word"));
        let out_b = copies[1].word(lane_sc.find_output("word").expect("word"));
        let joined_a: Vec<SLit> = next_a.iter().chain(out_a.iter()).copied().collect();
        let joined_b: Vec<SLit> = next_b.iter().chain(out_b.iter()).copied().collect();
        assert_words_differ(&mut solver, &joined_a, &joined_b);
        cex = match solver.solve() {
            SatResult::Unsat => None,
            SatResult::Sat => {
                let s = model_word(&solver, &state);
                Some(format!(
                    "CA step disagrees between scalar and lane on state {s:#010x}: \
                     scalar next {:#010x} vs lane next {:#010x}",
                    model_word(&solver, &next_a),
                    model_word(&solver, &next_b),
                ))
            }
        };
    }
    report.record("rng-miter-lane", "ca_rng_x64", started, solver.stats(), cex);
    report
}

// ---------------------------------------------------------------------------
// k-induction and transition properties
// ---------------------------------------------------------------------------

/// A harvested counterexample input schedule: one `(input name, value)`
/// row per declared input, one entry per unrolled cycle.
type Schedule = Vec<Vec<(String, u64)>>;

/// Prove an IR property literal invariant by `k`-induction. The property
/// is a literal of the (possibly extended) semantics circuit, so it may
/// mention register state, inputs and outputs of one cycle. Returns a
/// counterexample description plus the harvested input schedule instead
/// of a finding, so callers can add unit-specific replay detail.
///
/// Base: no trace from the power-on state violates `p` in the first `k`
/// cycles. Step: `k` consecutive `p`-cycles from an arbitrary state
/// force `p` in the next cycle.
fn prove_k_induction(
    sc: &SeqCircuit,
    p: Lit,
    k: usize,
    stats: &mut Stats,
) -> Option<(String, Schedule)> {
    // base case
    let mut solver = Solver::new();
    let init = sc.initial_state();
    let unrolled = Unrolling::build(&mut solver, sc, k, Some(&init), None);
    let violated: Vec<SLit> = unrolled
        .frames
        .iter()
        .map(|f| f.inst.lit(p).not())
        .collect();
    solver.add_clause(&violated);
    let base = solver.solve();
    accumulate(stats, solver.stats());
    if base == SatResult::Sat {
        // harvest the input schedule up to the first violated frame
        let bad_frame = unrolled
            .frames
            .iter()
            .position(|f| !solver.lit_true(f.inst.lit(p)))
            .expect("some frame violates");
        let schedule: Schedule = unrolled.frames[..=bad_frame]
            .iter()
            .map(|f| {
                sc.inputs
                    .iter()
                    .enumerate()
                    .map(|(i, port)| (port.name.clone(), model_word(&solver, &f.inputs[i])))
                    .collect()
            })
            .collect();
        let rendered = render_schedule(&schedule);
        return Some((
            format!(
                "violated {} cycle(s) after reset; inputs: {rendered}",
                bad_frame + 1
            ),
            schedule,
        ));
    }

    // induction step: frames 0..k assumed, frame k asserted broken
    let mut solver = Solver::new();
    let unrolled = Unrolling::build(&mut solver, sc, k + 1, None, None);
    for f in &unrolled.frames[..k] {
        let pt = f.inst.lit(p);
        solver.add_clause(&[pt]);
    }
    let pk = unrolled.frames[k].inst.lit(p).not();
    solver.add_clause(&[pk]);
    let step = solver.solve();
    accumulate(stats, solver.stats());
    if step == SatResult::Sat {
        return Some((
            format!("not {k}-inductive: a {k}-step P-run from an unconstrained state can exit P"),
            Vec::new(),
        ));
    }
    None
}

fn accumulate(into: &mut Stats, s: Stats) {
    into.vars += s.vars;
    into.clauses += s.clauses;
    into.conflicts += s.conflicts;
    into.decisions += s.decisions;
    into.propagations += s.propagations;
    into.restarts += s.restarts;
}

fn render_schedule(schedule: &[Vec<(String, u64)>]) -> String {
    schedule
        .iter()
        .enumerate()
        .map(|(t, frame)| {
            let fields: Vec<String> = frame.iter().map(|(n, v)| format!("{n}={v}")).collect();
            format!("cycle {t}: {}", fields.join(" "))
        })
        .collect::<Vec<_>>()
        .join("; ")
}

/// The control FSM's strengthened safety invariant, by `k`-induction:
/// the state register is **one-hot** and at most one population-RAM
/// write strobe (`basis_we`, `xover_we`, `mut_we`) is asserted.
///
/// One-hotness is what makes write exclusivity inductive: with the state
/// bits unconstrained, two simultaneously-set state bits satisfy
/// exclusivity yet step into a double write, so the conjunction is the
/// invariant, not either half. `k = 6` lets the base case reach the
/// first `XoverCommit` cycle, which is where the seeded two-writer
/// decode defect (`two-writer-ram` fixture) fires — the counterexample
/// is a concrete input schedule, replayed on the concrete FSM before it
/// is reported.
pub fn check_control_invariant(fsm: &GapControlFsm) -> SymbolicReport {
    let mut report = SymbolicReport::default();
    let started = Instant::now();
    let mut sc = fsm.semantics();
    let state = sc.find_output("state").expect("state").clone();
    let strobes: Vec<Lit> = ["basis_we", "xover_we", "mut_we"]
        .iter()
        .map(|n| sc.find_output(n).expect("strobe")[0])
        .collect();
    let c = &mut sc.circuit;
    let one_hot = c.one_hot(&state);
    let mut exclusive = Lit::TRUE;
    for i in 0..strobes.len() {
        for j in i + 1..strobes.len() {
            let both = c.and(strobes[i], strobes[j]);
            exclusive = c.and(exclusive, both.not());
        }
    }
    let p = c.and(one_hot, exclusive);

    let mut stats = Stats::default();
    let cex = prove_k_induction(&sc, p, 6, &mut stats).map(|(msg, schedule)| {
        // replay the schedule on the concrete FSM to confirm the trace
        let mut concrete = *fsm;
        let mut confirmed = false;
        for frame in &schedule {
            // the violation is a function of the state *entering* the
            // cycle, so check before clocking
            let s = concrete.strobes();
            let writers = u32::from(s.basis_we) + u32::from(s.xover_we) + u32::from(s.mut_we);
            if writers > 1 || concrete.state().is_none() {
                confirmed = true;
            }
            let get = |name: &str| {
                frame
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v == 1)
                    .unwrap_or(false)
            };
            concrete.clock(get("reset"), get("step_done"), get("phase_done"));
        }
        let s = concrete.strobes();
        let writers = u32::from(s.basis_we) + u32::from(s.xover_we) + u32::from(s.mut_we);
        if writers > 1 || concrete.state().is_none() {
            confirmed = true;
        }
        let tag = if schedule.is_empty() {
            String::new()
        } else if confirmed {
            " [replayed on the concrete FSM]".to_string()
        } else {
            " [replay did NOT confirm — semantics/model divergence]".to_string()
        };
        format!("one-hot ∧ single-writer invariant {msg}{tag}")
    });
    report.record("ctrl-invariant", "gap_ctrl", started, stats, cex);
    report
}

/// Reset coverage of the control FSM: from **any** pair of states —
/// including non-one-hot garbage an upset could leave — one reset cycle
/// drives both copies to identical, defined state.
pub fn check_control_reset(fsm: &GapControlFsm) -> SymbolicReport {
    let mut report = SymbolicReport::default();
    let started = Instant::now();
    let sc = fsm.semantics();
    let mut solver = Solver::new();
    let shared = Unrolling::fresh_inputs(&mut solver, &sc, 1);
    let a = Unrolling::build(&mut solver, &sc, 1, None, Some(&shared));
    let b = Unrolling::build(&mut solver, &sc, 1, None, Some(&shared));
    // reset asserted in the shared frame
    let reset = a.input(&sc, 0, "reset");
    solver.add_clause(&[reset[0]]);
    assert_words_differ(&mut solver, &a.states[1], &b.states[1]);
    let cex = match solver.solve() {
        SatResult::Unsat => None,
        SatResult::Sat => Some(format!(
            "states {:#04x} and {:#04x} do not converge under one reset cycle",
            model_word(&solver, &a.states[0]),
            model_word(&solver, &b.states[0]),
        )),
    };
    report.record("ctrl-reset", "gap_ctrl", started, solver.stats(), cex);
    report
}

/// Bounded reachability of the control FSM from reset (reset held low
/// after power-on): every named state must be reachable, at exactly the
/// depth an explicit-state enumeration of the concrete `clock` function
/// computes. The SAT side asks "is state `s` reachable at depth `d`"
/// per (state, depth); the concrete side walks all four input
/// combinations per cycle — the same exhaustive style the genome
/// reachability checker applies to genome-induced leg machines.
pub fn check_control_reachability(fsm: &GapControlFsm) -> SymbolicReport {
    const DEPTH_CAP: usize = CTRL_STATES;
    let mut report = SymbolicReport::default();
    let started = Instant::now();
    let sc = fsm.semantics();

    // concrete BFS over the explicit state graph
    let mut concrete_depth = [usize::MAX; CTRL_STATES];
    let note_depth = |bits: u8, depth: usize, depths: &mut [usize; CTRL_STATES]| {
        for (i, s) in CtrlState::ALL.iter().enumerate() {
            if bits == s.one_hot() && depths[i] > depth {
                depths[i] = depth;
            }
        }
    };
    let mut frontier = vec![*fsm];
    let mut seen = std::collections::HashSet::new();
    seen.insert(fsm.state_bits());
    note_depth(fsm.state_bits(), 0, &mut concrete_depth);
    for depth in 1..=DEPTH_CAP {
        let mut next = Vec::new();
        for m in &frontier {
            for inputs in 0..4u8 {
                let mut stepped = *m;
                stepped.clock(false, inputs & 1 == 1, inputs & 2 == 2);
                note_depth(stepped.state_bits(), depth, &mut concrete_depth);
                if seen.insert(stepped.state_bits()) {
                    next.push(stepped);
                }
            }
        }
        frontier = next;
    }

    // symbolic unrolling: reset low throughout, per-(state, depth) queries
    let mut solver = Solver::new();
    let init = sc.initial_state();
    let unrolled = Unrolling::build(&mut solver, &sc, DEPTH_CAP, Some(&init), None);
    for t in 0..DEPTH_CAP {
        let reset = unrolled.input(&sc, t, "reset");
        solver.add_clause(&[reset[0].not()]);
    }
    let mut stats = Stats::default();
    let mut cex = None;
    for (i, s) in CtrlState::ALL.iter().enumerate() {
        let mut symbolic_depth = usize::MAX;
        for (d, state) in unrolled.states.iter().enumerate() {
            let bit = state[*s as usize];
            let (r, qstats, _) = solver.solve_with(&[bit]);
            accumulate(&mut stats, qstats);
            if r == SatResult::Sat {
                symbolic_depth = d;
                break;
            }
        }
        if cex.is_none() && symbolic_depth == usize::MAX {
            cex = Some(format!(
                "state {} unreachable within {DEPTH_CAP} cycles of reset",
                s.name()
            ));
        } else if cex.is_none() && symbolic_depth != concrete_depth[i] {
            cex = Some(format!(
                "state {} first reachable at depth {} symbolically but {} concretely",
                s.name(),
                symbolic_depth,
                render_depth(concrete_depth[i]),
            ));
        }
    }
    report.record("ctrl-reachability", "gap_ctrl", started, stats, cex);
    report
}

fn render_depth(d: usize) -> String {
    if d == usize::MAX {
        "unreached".to_string()
    } else {
        d.to_string()
    }
}

/// Range invariant of the modulo counters used as step/phase clocks:
/// `value < modulus`, by 1-induction (inductive because the wrap
/// comparison is an exact equality, not a power-of-two mask).
pub fn check_counter_range(modulus: u32) -> SymbolicReport {
    let mut report = SymbolicReport::default();
    let started = Instant::now();
    let counter = ModCounter::new(modulus);
    let mut sc = counter.semantics();
    let value = sc.find_output("value").expect("value").clone();
    let p = sc.circuit.lt_const(&value, u64::from(modulus));
    let mut stats = Stats::default();
    let cex = prove_k_induction(&sc, p, 1, &mut stats)
        .map(|(msg, _)| format!("counter range `value < {modulus}` {msg}"));
    report.record(
        "counter-range",
        format!("mod_counter[{modulus}]"),
        started,
        stats,
        cex,
    );
    report
}

/// The best-fitness register datapath never exceeds the spec's maximum
/// (26 for the paper spec — so the chip's 5-bit register, with headroom
/// to 31, can never saturate): a register fed by
/// `max(best, fitness(genome))` from a free genome every cycle, proven
/// by 1-induction. The solver re-derives the combinational
/// `fitness ≤ 26` bound inside the step case; the bound is also proven
/// on its own as `fitness-bound`.
pub fn check_best_fitness_bound() -> SymbolicReport {
    let mut report = SymbolicReport::default();
    let started = Instant::now();
    let max = FitnessSpec::paper().max_fitness();

    let mut sc = SeqCircuit::new("best_fitness_reg");
    let genome: [Lit; GENOME_BITS] = sc
        .input("genome", GENOME_BITS)
        .try_into()
        .expect("genome width");
    let best = sc.register("best", &[false; 5]);
    let c = &mut sc.circuit;
    let score = fitness_score_gates(c, &genome).to_vec();
    let improved = word_lt(c, &best, &score);
    let next = c.mux_word(improved, &score, &best);
    sc.set_next("best", next);
    let p = sc.circuit.lt_const(&best, u64::from(max) + 1);

    let mut stats = Stats::default();
    let cex = prove_k_induction(&sc, p, 1, &mut stats)
        .map(|(msg, _)| format!("best-fitness bound `best <= {max}` {msg}"));
    report.record(
        "best-fitness-bound",
        "best_fitness_reg",
        started,
        stats,
        cex,
    );

    // the combinational half on its own: fitness(genome) ≤ max, all genomes
    let started = Instant::now();
    let mut reference = Circuit::new();
    let bits: [Lit; GENOME_BITS] = reference
        .new_input_word(GENOME_BITS)
        .try_into()
        .expect("genome width");
    let score = fitness_score_gates(&mut reference, &bits).to_vec();
    let in_range = reference.lt_const(&score, u64::from(max) + 1);
    let mut solver = Solver::new();
    let inst = CircuitInstance::new(&mut solver, &reference);
    solver.add_clause(&[inst.lit(in_range).not()]);
    let cex = match solver.solve() {
        SatResult::Unsat => None,
        SatResult::Sat => {
            let genome_lits: Vec<SLit> = bits.iter().map(|&l| inst.lit(l)).collect();
            Some(format!(
                "fitness exceeds {max} on genome {:#011x}: got {}",
                model_word(&solver, &genome_lits),
                model_word(&solver, &inst.word(&score)),
            ))
        }
    };
    report.record(
        "fitness-bound",
        "fitness_unit",
        started,
        solver.stats(),
        cex,
    );
    report
}

/// Transition properties of the RAM primitive, proven from an
/// **arbitrary** state (stronger than induction — no reachability
/// assumption):
///
/// * *frame condition*: words the write port does not hit hold their value;
/// * *write-through*: an enabled write lands exactly in the addressed word;
/// * *read ordering*: the read register samples the post-write array
///   (write-before-read — the port ordering the GAP's same-cycle
///   commit/read-back traffic relies on).
pub fn check_ram_transition(depth: usize, width: u32) -> SymbolicReport {
    let mut report = SymbolicReport::default();
    let ram = Ram::new(depth, width, true);
    let mut sc = ram.semantics();
    let read_addr = sc.find_input("read_addr").expect("read_addr").clone();
    let write_addr = sc.find_input("write_addr").expect("write_addr").clone();
    let write_data = sc.find_input("write_data").expect("write_data").clone();
    let write_en = sc.find_input("write_en").expect("write_en")[0];
    let mem_cur = sc.regs[0].current.clone();
    let mem_next = sc.regs[0].next.clone();
    let read_next = sc.regs[1].next.clone();
    let w = width as usize;

    // per-address property literals over one shared semantics circuit —
    // asking the solver for a single violated address at a time keeps the
    // refutation local to that word's mux cone, where a monolithic
    // all-addresses conjunction makes it search across the whole array
    let c = &mut sc.circuit;
    let mut frame_props = Vec::with_capacity(depth);
    let mut write_props = Vec::with_capacity(depth);
    let mut read_props = Vec::with_capacity(depth);
    for a in 0..depth {
        let addr = c.const_word(a as u64, write_addr.len());
        let w_sel = c.eq_words(&write_addr, &addr);
        let w_hit = c.and(w_sel, write_en);
        let r_hit = c.eq_words(&read_addr, &addr);
        let cur = &mem_cur[a * w..(a + 1) * w];
        let nxt = &mem_next[a * w..(a + 1) * w];
        let held = c.eq_words(cur, nxt);
        let wrote = c.eq_words(nxt, &write_data);
        let read_sampled = c.eq_words(&read_next, nxt);
        // ¬hit → held
        frame_props.push(c.or(w_hit, held));
        // hit → wrote
        write_props.push(c.or(w_hit.not(), wrote));
        // read-addressed → the read register samples the updated word
        read_props.push(c.or(r_hit.not(), read_sampled));
    }

    let mut solver = Solver::new();
    let unrolled = Unrolling::build(&mut solver, &sc, 1, None, None);
    for (name, props, what) in [
        ("ram-frame", &frame_props, "unwritten words must hold"),
        (
            "ram-write-through",
            &write_props,
            "an enabled write must land in the addressed word",
        ),
        (
            "ram-read-order",
            &read_props,
            "the read register must sample the post-write array",
        ),
    ] {
        let started = Instant::now();
        let mut stats = Stats::default();
        let mut cex = None;
        for (a, &p) in props.iter().enumerate() {
            let pl = unrolled.frames[0].inst.lit(p);
            let (r, qstats, model) = solver.solve_with(&[pl.not()]);
            accumulate(&mut stats, qstats);
            if r == SatResult::Sat && cex.is_none() {
                let read = |w: &[SLit]| -> u64 {
                    w.iter()
                        .enumerate()
                        .map(|(i, &l)| u64::from(model.lit_true(l)) << i)
                        .sum()
                };
                cex = Some(format!(
                    "{what}: word {a} violated at write_addr={} write_en={} read_addr={}",
                    read(&unrolled.input(&sc, 0, "write_addr")),
                    read(&unrolled.input(&sc, 0, "write_en")),
                    read(&unrolled.input(&sc, 0, "read_addr")),
                ));
            }
        }
        report.record(name, format!("ram[{depth}x{width}]"), started, stats, cex);
    }
    report
}

/// The genome shift register flushes arbitrary state: two copies fed the
/// same input stream agree exactly after `width` cycles — whatever an
/// upset or power-on left in the register, `width` cycles of defined
/// input fully determine it.
pub fn check_shift_flush(width: u32) -> SymbolicReport {
    let mut report = SymbolicReport::default();
    let started = Instant::now();
    let sc = ShiftReg::new(width).semantics();
    let k = width as usize;
    let mut solver = Solver::new();
    let shared = Unrolling::fresh_inputs(&mut solver, &sc, k);
    let a = Unrolling::build(&mut solver, &sc, k, None, Some(&shared));
    let b = Unrolling::build(&mut solver, &sc, k, None, Some(&shared));
    assert_words_differ(&mut solver, &a.states[k], &b.states[k]);
    let cex = match solver.solve() {
        SatResult::Unsat => None,
        SatResult::Sat => Some(format!(
            "states {:#011x} and {:#011x} still differ after {width} shared input cycles",
            model_word(&solver, &a.states[0]),
            model_word(&solver, &b.states[0]),
        )),
    };
    report.record(
        "shift-flush",
        format!("shift_reg[{width}]"),
        started,
        solver.stats(),
        cex,
    );
    report
}

/// The full symbolic battery the gate runs: every miter and invariant on
/// the real (non-fixture) design.
pub fn check_symbolic(seed: u32) -> SymbolicReport {
    let params = discipulus::params::GapParams::paper();
    let mut report = SymbolicReport::default();
    report.merge(miter_fitness_unit(&FitnessUnit::new(FitnessSpec::paper())));
    report.merge(check_fitness_lane_equivalence(FitnessSpec::paper()));
    report.merge(check_fitness_lane_equivalence(FitnessSpec::without(
        discipulus::fitness::Rule::Equilibrium,
    )));
    for spec in [
        FitnessSpec::paper(),
        FitnessSpec::without(discipulus::fitness::Rule::Symmetry),
    ] {
        let unit = FitnessUnit::new(spec).semantics();
        let context = format!("fitness_unit {}", spec_tag(spec));
        report.merge(check_side_separability(&unit, &context));
        report.merge(check_mirror_invariance(&unit, &context));
    }
    report.merge(check_rng_lane_equivalence(seed));
    let fsm = GapControlFsm::new();
    report.merge(check_control_invariant(&fsm));
    report.merge(check_control_reset(&fsm));
    report.merge(check_control_reachability(&fsm));
    report.merge(check_counter_range(GENOME_BITS as u32));
    report.merge(check_counter_range(params.population_size as u32));
    report.merge(check_best_fitness_bound());
    report.merge(check_ram_transition(
        params.population_size,
        GENOME_BITS as u32,
    ));
    report.merge(check_shift_flush(GENOME_BITS as u32));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitness_miter_proves_paper_unit() {
        let r = miter_fitness_unit(&FitnessUnit::new(FitnessSpec::paper()));
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert!(r.proofs.iter().all(|p| p.proved));
    }

    #[test]
    fn fitness_miter_catches_wrong_spec() {
        let bad = FitnessUnit::new(FitnessSpec::without(discipulus::fitness::Rule::Equilibrium));
        let r = miter_fitness_unit(&bad);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        // the counterexample genome must actually disagree
        let msg = &r.findings[0].message;
        let hex = msg
            .split("genome 0x")
            .nth(1)
            .and_then(|s| s.split(':').next())
            .expect("genome in message");
        let g = u64::from_str_radix(hex, 16).expect("hex genome");
        let genome = discipulus::genome::Genome::from_bits(g);
        assert_ne!(
            FitnessSpec::paper().evaluate(genome),
            FitnessSpec::without(discipulus::fitness::Rule::Equilibrium).evaluate(genome),
            "reported genome is not a counterexample"
        );
    }

    #[test]
    fn lane_and_kernel_miters_prove() {
        let r = check_fitness_lane_equivalence(FitnessSpec::paper());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.proofs.len(), 2);
    }

    #[test]
    fn side_separability_and_mirror_prove_on_the_paper_and_an_ablation() {
        use discipulus::fitness::Rule;
        for spec in [FitnessSpec::paper(), FitnessSpec::without(Rule::Symmetry)] {
            let unit = FitnessUnit::new(spec).semantics();
            let mut r = check_side_separability(&unit, "unit");
            r.merge(check_mirror_invariance(&unit, "unit"));
            assert!(r.findings.is_empty(), "{:?}", r.findings);
            assert_eq!(r.proofs.len(), 2);
        }
    }

    #[test]
    fn side_separability_catches_a_coupled_check() {
        let unit = crate::fixtures::coupled_sides();
        let r = check_side_separability(&unit, "coupled_sides");
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        // the reported genome must really break the split
        let msg = &r.findings[0].message;
        let hex = msg
            .split("genome 0x")
            .nth(1)
            .and_then(|s| s.split(':').next())
            .expect("genome in message");
        let g = u64::from_str_radix(hex, 16).expect("hex genome");
        let out = unit.find_output("fitness").expect("fitness");
        let score = |bits: u64| {
            let inputs: Vec<bool> = (0..GENOME_BITS).map(|b| bits >> b & 1 == 1).collect();
            Circuit::word_value(&unit.circuit.eval_nodes(&inputs), out)
        };
        let left = (0..GENOME_BITS)
            .filter(|&b| is_left_bit(b))
            .fold(0u64, |m, b| m | 1 << b);
        assert_ne!(
            score(g) + score(0),
            score(g & left) + score(g & !left),
            "reported genome is not a counterexample"
        );
    }

    #[test]
    fn rng_lane_miter_proves() {
        let r = check_rng_lane_equivalence(0xACE1);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn control_invariant_proves_on_good_fsm() {
        let r = check_control_invariant(&GapControlFsm::new());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn control_invariant_catches_two_writer_decode() {
        let r = check_control_invariant(&GapControlFsm::with_write_decode_bug());
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        let msg = &r.findings[0].message;
        assert!(
            msg.contains("[replayed on the concrete FSM]"),
            "counterexample must replay concretely: {msg}"
        );
    }

    #[test]
    fn control_reset_and_reachability_prove() {
        let fsm = GapControlFsm::new();
        let r1 = check_control_reset(&fsm);
        assert!(r1.findings.is_empty(), "{:?}", r1.findings);
        let r2 = check_control_reachability(&fsm);
        assert!(r2.findings.is_empty(), "{:?}", r2.findings);
    }

    #[test]
    fn counter_range_proves() {
        for m in [3u32, 32, 36, 49] {
            let r = check_counter_range(m);
            assert!(r.findings.is_empty(), "modulus {m}: {:?}", r.findings);
        }
    }

    #[test]
    fn best_fitness_bound_proves() {
        let r = check_best_fitness_bound();
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.proofs.len(), 2);
    }

    #[test]
    fn ram_transition_properties_prove() {
        let r = check_ram_transition(8, 6);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.proofs.len(), 3);
    }

    #[test]
    fn shift_flush_proves() {
        let r = check_shift_flush(12);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }
}
