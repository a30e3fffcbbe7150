//! The E17 registry-campaign table, pinned golden.
//!
//! The exact trial table the `e17_fsm` experiment prints — every
//! registered problem, the four recorded seeds, the 4000-generation GAP
//! budget, plus the subspace-sweep summary — is deterministic: a pure
//! function of the registry and the seeds. This suite pins it
//! byte-for-byte, so any drift in the GA, a problem's fitness, a trace
//! suite or a kernel fails loudly. Regenerate after an intentional
//! change with `UPDATE_GOLDEN=1 cargo test --test e17_problems`.
//!
//! The companion tests hold the provenance contracts: thread count and
//! plane width must be unobservable in every table byte, and the
//! recorded fsm_traces campaign must keep reaching full trace agreement
//! on at least 3 of the 4 seeds (the E17 acceptance floor).

use leonardo_bench::{problem_table, trial_seeds};
use leonardo_problems::{problem_campaigns, problem_registry, subspace_sweep};
use leonardo_rtl::bitslice::{W256, W512};
use std::fmt::Write as _;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/e17_problem_table.txt"
);

/// The e17 defaults: 4 recorded seeds, 4000-generation budget, 2^16
/// sweep corner over 8 shards.
const GENERATIONS: u64 = 4000;
const SWEEP_BITS: u32 = 16;
const SWEEP_SHARDS: usize = 8;

fn recorded_seeds() -> Vec<u64> {
    trial_seeds(4).into_iter().map(u64::from).collect()
}

/// Render the full e17 table: campaign trials and sweep summary per
/// registered problem, no wall times, no host shape.
fn render_table() -> String {
    let seeds = recorded_seeds();
    let mut out = format!(
        "# E17 registry campaigns: {} seeds, {GENERATIONS} generation budget\n\
         # sweep: low 2^{SWEEP_BITS} genomes over {SWEEP_SHARDS} shards\n",
        seeds.len()
    );
    for spec in problem_registry() {
        let trials = problem_campaigns::<W256>(spec, &seeds, GENERATIONS, 0);
        out.push_str(&problem_table(spec, &trials));
        let bits = SWEEP_BITS.min(spec.width as u32);
        let sweep = subspace_sweep::<W256>(spec, bits, SWEEP_SHARDS, 0);
        writeln!(
            out,
            "  sweep 2^{bits}: best fitness {} held by {} genome(s), first {:#x}\n",
            sweep.best_fitness,
            sweep.best_count(),
            sweep.best_genome
        )
        .unwrap();
    }
    out
}

#[test]
fn e17_table_matches_the_golden_pin() {
    let rendered = render_table();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden file missing — regenerate with UPDATE_GOLDEN=1 cargo test --test e17_problems",
    );
    assert_eq!(
        rendered, golden,
        "the E17 table drifted from the golden pin; if the GA, a problem \
         definition or a trace suite changed intentionally, regenerate \
         with UPDATE_GOLDEN=1"
    );
}

#[test]
fn fsm_traces_reaches_full_agreement_on_at_least_three_recorded_seeds() {
    let spec = leonardo_problems::ProblemSpec::find("fsm_traces").expect("registered");
    let trials = problem_campaigns::<u64>(spec, &recorded_seeds(), GENERATIONS, 0);
    let converged = trials.iter().filter(|t| t.converged).count();
    assert!(
        converged >= 3,
        "only {converged} of {} recorded seeds reached 100% trace agreement",
        trials.len()
    );
    for t in trials.iter().filter(|t| t.converged) {
        assert_eq!(t.best_fitness, spec.max_fitness);
    }
}

#[test]
fn e17_table_is_thread_count_unobservable() {
    // short-budget replica of the table path at 1 vs 3 workers
    let seeds = recorded_seeds();
    for spec in problem_registry() {
        let one = problem_campaigns::<W256>(spec, &seeds, 60, 1);
        let three = problem_campaigns::<W256>(spec, &seeds, 60, 3);
        assert_eq!(one, three, "{}: trials vary with thread count", spec.name);
        assert_eq!(
            problem_table(spec, &one),
            problem_table(spec, &three),
            "{}: table bytes vary with thread count",
            spec.name
        );
    }
}

#[test]
fn e17_table_is_plane_width_unobservable() {
    let seeds = recorded_seeds();
    for spec in problem_registry() {
        let narrow = problem_campaigns::<u64>(spec, &seeds, 60, 2);
        let wide = problem_campaigns::<W512>(spec, &seeds, 60, 2);
        assert_eq!(narrow, wide, "{}: trials vary with plane width", spec.name);
        let s_narrow = subspace_sweep::<u64>(spec, 10, 3, 2);
        let s_wide = subspace_sweep::<W512>(spec, 10, 5, 1);
        assert_eq!(
            s_narrow, s_wide,
            "{}: sweep varies with plane width",
            spec.name
        );
    }
}
