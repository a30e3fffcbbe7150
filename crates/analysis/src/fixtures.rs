//! Deliberately broken designs and genomes: one fixture per defect class
//! the gate must catch. `analysis fixture <name>` runs the matching check
//! and must exit nonzero — the tests of the tests.

use discipulus::fitness::{FitnessSpec, Rule};
use discipulus::gates::{fitness_check_bits, SCORE_BITS};
use discipulus::genome::{Genome, LegGene, LegId, StepId, GENOME_BITS};
use leonardo_landscape::{Shard, ShardPlan};
use leonardo_rtl::bitslice::PlaneWidth;
use leonardo_rtl::control::GapControlFsm;
use leonardo_rtl::fitness_rtl::FitnessUnit;
use leonardo_rtl::netlist::{DesignNetlist, StaticNetlist};
use leonardo_rtl::resources::Resources;
use leonardo_rtl::semantics::{Lit, SeqCircuit};

/// A unit with a combinational feedback path no register cuts:
/// `a -> b -> a` through two wires.
pub fn combinational_loop() -> StaticNetlist {
    StaticNetlist::new("ring_oscillator")
        .claim(Resources::logic_functions(2))
        .wire("a", 1)
        .wire("b", 1)
        .output("y", 1)
        .edge("a", "b")
        .edge("b", "a")
        .edge("a", "y")
}

/// A design wiring an 8-bit output to a 4-bit input.
pub fn width_mismatch() -> DesignNetlist {
    DesignNetlist::new("width_mismatch")
        .unit(
            StaticNetlist::new("producer")
                .claim(Resources::unit(8, 8))
                .register("r", 8)
                .output("wide", 8)
                .edge("r", "r")
                .edge("r", "wide"),
        )
        .unit(
            StaticNetlist::new("consumer")
                .claim(Resources::unit(4, 4))
                .input("narrow", 4)
                .register("r", 4)
                .output("y", 4)
                .edge("narrow", "r")
                .edge("r", "y"),
        )
        .connect(("producer", "wide"), ("consumer", "narrow"))
}

/// A design whose claim cannot fit the XC4036EX's 1296 CLBs: a third
/// population buffer's worth of flip-flops on top of a full chip.
pub fn clb_overflow() -> DesignNetlist {
    DesignNetlist::new("clb_overflow").unit(
        StaticNetlist::new("monster_ram")
            .claim(Resources::flip_flop_bits(4 * 1152))
            .register("mem", 4 * 1152)
            .output("q", 36)
            .edge("mem", "mem")
            .edge("mem", "q"),
    )
}

/// A genome whose front-left leg is commanded Up in every vertical field
/// of both steps: the leg never touches the ground — a trap state the
/// static checker must flag without walking the robot.
pub fn trap_genome() -> Genome {
    let airborne = LegGene::from_bits(0b101); // pre Up, backward, post Up
    let mut g = Genome::ZERO;
    for step in StepId::ALL {
        g = g.with_leg_gene(step, LegId::ALL[0], airborne);
    }
    g
}

/// A landscape shard plan with a one-block hole between its two shards:
/// any sweep scheduled from it would silently skip 64 genomes — exactly
/// the defect the shard linter exists to catch.
pub fn broken_shard_plan() -> ShardPlan {
    ShardPlan::from_raw(
        12,
        vec![
            Shard {
                index: 0,
                start_block: 0,
                end_block: 31,
            },
            Shard {
                index: 1,
                start_block: 32,
                end_block: 64,
            },
        ],
    )
}

/// An RTL fitness unit built from the wrong spec (equilibrium rules
/// dropped): it lints clean, simulates fine, and still returns plausible
/// scores — only the symbolic miter against the behavioural paper spec
/// can tell, and it must return a concrete counterexample genome.
pub fn bad_fitness_unit() -> FitnessUnit {
    FitnessUnit::new(FitnessSpec::without(Rule::Equilibrium))
}

/// A rule network whose first equilibrium check reads both body sides:
/// "not all of LF, LM and RF raised before step 1" instead of the left
/// side's three legs. It is a plausible 26-check score (max 26, the
/// tripod still scores it), but the landscape no longer splits into a
/// left and a right part, so the closed form would be wrong for it; only
/// the side-separability proof can tell, with a counterexample genome.
pub fn coupled_sides() -> SeqCircuit {
    let mut sc = SeqCircuit::new("coupled_sides");
    let genome: [Lit; GENOME_BITS] = sc
        .input("genome", GENOME_BITS)
        .try_into()
        .expect("genome width");
    let c = &mut sc.circuit;
    let mut checks = fitness_check_bits(c, &genome);
    let pre = |leg: LegId| genome[Genome::bit_position(StepId::One, leg, 0)];
    let raised = c.and3(
        pre(LegId::LeftFront),
        pre(LegId::LeftMiddle),
        pre(LegId::RightFront), // the defect: a right leg in a left check
    );
    checks[0] = raised.not();
    let score = c.popcount(&checks, SCORE_BITS);
    sc.output("fitness", score);
    sc
}

/// A "miscompiled" plane width: the 128-lane batch GAP with one
/// population bit silently flipped mid-schedule — bit-for-bit what a
/// broken wide-kernel port looks like. The engine still lints clean and
/// steps without complaint; only the registry probe's comparison against
/// the scalar engine can tell, and it must name a diverging lane.
pub fn broken_plane_width() -> PlaneWidth {
    PlaneWidth {
        name: "w128",
        lanes: 128,
        words: 2,
        probe: broken_plane_probe,
    }
}

/// The broken "kernel": the real 128-lane engine run on the registry
/// probe's schedule, with a single stray population-bit flip in every
/// lane between the two generations.
fn broken_plane_probe() -> Result<(), String> {
    use leonardo_rtl::bitslice::{GapRtlXW, GapRtlXWConfig, Plane, W128};
    use leonardo_rtl::gap_rtl::{GapRtl, GapRtlConfig};

    let seeds: Vec<u32> = (0..128u32).map(|i| 0x5EED ^ (i << 8)).collect();
    let mut gap = GapRtlXW::<W128>::new(GapRtlXWConfig::paper(), &seeds);
    gap.step_generation();
    gap.inject_upset(17, W128::ONES); // the defect: a stray bit flip
    gap.step_generation();
    for l in [0usize, 64, 127] {
        let mut scalar = GapRtl::new(GapRtlConfig::paper(seeds[l]));
        scalar.step_generation();
        scalar.step_generation();
        if gap.population(l) != scalar.population() {
            return Err(format!(
                "w128: GapRtlXW lane {l} population diverges from the scalar GAP"
            ));
        }
    }
    Ok(())
}

/// A control FSM whose `mut_we` strobe also decodes the crossover-commit
/// state, putting two writers on the intermediate population RAM's single
/// write port. Structurally identical to the good FSM — the k-induction
/// write-exclusivity proof is the only check that catches it.
pub fn two_writer_ram() -> GapControlFsm {
    GapControlFsm::with_write_decode_bug()
}

/// A doc set with one dead cross-reference: the README links to an API
/// reference that does not exist in the (empty) file tree.
pub fn broken_doc_link() -> Vec<crate::docs_check::DocFile> {
    vec![crate::docs_check::DocFile {
        path: "README.md".to_string(),
        content: "See [the server API](docs/SERVER.md#post-evolve) for details.\n".to_string(),
    }]
}

/// A walk objective whose probe returns NaN on every genome — the
/// objective checker must flag the non-finite probe.
pub fn bad_objective() -> leonardo_walker::objectives::ObjectiveSpec {
    leonardo_walker::objectives::ObjectiveSpec {
        name: "bad_objective",
        unit: "mm",
        summary: "a deliberately broken objective that scores every genome NaN",
        probe: |_| f64::NAN,
    }
}

/// A problem whose fitness alternates between two values on successive
/// calls (hidden evaluation state — the classic broken-memoization bug)
/// and whose registered shape disagrees with the instance: the problem
/// checker must flag both the non-deterministic fitness and the
/// shape mismatch.
pub fn bad_problem() -> leonardo_problems::ProblemSpec {
    leonardo_problems::ProblemSpec {
        name: "bad_problem",
        summary: "a deliberately broken problem with stateful fitness",
        // the defect, part 1: the instance below says 8 bits / max 255
        width: 16,
        max_fitness: 64,
        make: || Box::new(FlickerProblem),
        // kernels are never exercised: the broken probe below keeps the
        // checker on the scalar path, so any registered kernel works
        kernel_u64: || Box::new(leonardo_problems::GaitKernel::paper()),
        kernel_w128: || Box::new(leonardo_problems::GaitKernel::paper()),
        kernel_w256: || Box::new(leonardo_problems::GaitKernel::paper()),
        kernel_w512: || Box::new(leonardo_problems::GaitKernel::paper()),
        probe: || Ok(()),
    }
}

/// The broken instance behind [`bad_problem`]: every `fitness` call
/// flips a hidden global bit into the score.
struct FlickerProblem;

impl evo::evolvable::EvolvableProblem for FlickerProblem {
    fn name(&self) -> &'static str {
        "bad_problem"
    }

    fn width(&self) -> usize {
        8 // the defect, part 2: disagrees with the registered 16
    }

    fn fitness(&self, genome: u64) -> u32 {
        use std::sync::atomic::{AtomicU32, Ordering};
        static CALLS: AtomicU32 = AtomicU32::new(0);
        let flicker = CALLS.fetch_add(1, Ordering::Relaxed) & 1;
        ((genome as u32) & 0x3F) ^ flicker
    }

    fn max_fitness(&self) -> Option<u32> {
        Some(64)
    }
}

/// A SERVER.md that documents every route except `POST /evolve` — the
/// registry cross-check must flag the served-but-undocumented route.
pub fn undocumented_route_md() -> String {
    let mut md = String::from("# leonardo-server API\n\n");
    for spec in leonardo_server::route_specs() {
        if spec.label == "POST /evolve" {
            continue; // the defect
        }
        md.push_str(&format!("## {}\n\n### Response\n\nschema\n\n", spec.label));
        for p in spec.query_params {
            md.push_str(&format!("- `{p}`: documented\n"));
        }
        md.push('\n');
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trap_genome_is_well_formed_but_trapped() {
        // structurally valid (any 36-bit value is) yet statically broken
        let g = trap_genome();
        assert!(crate::genome_check::well_formed(g).is_ok());
        assert!(crate::genome_check::StaticGait::derive(g).airborne_leg(LegId::ALL[0]));
    }

    #[test]
    fn broken_plan_skips_one_block() {
        let plan = broken_shard_plan();
        let covered: u64 = plan.shards().iter().map(Shard::blocks).sum();
        assert_eq!(plan.total_blocks() - covered, 1, "exactly one block lost");
    }

    #[test]
    fn overflow_fixture_exceeds_the_array() {
        let d = clb_overflow();
        assert!(crate::lint::packed_clbs(&d) > leonardo_rtl::resources::XC4036EX_CLBS);
    }
}
