//! GA-vs-oracle regression: evolution must only ever find needles the
//! exhaustive enumeration also knows about.
//!
//! The exhaustive sweep (E15) and the analytic construction
//! (`max_fitness_genomes`, 36 x 49² patterns) independently agree on the
//! maximum-fitness set; this suite pins that set as a golden artefact —
//! cardinality plus an order-sensitive FNV-1a digest of the full
//! ascending list — and then requires every converged e1-style GA run to
//! land inside it. Regenerate after an intentional fitness-rule change
//! with `UPDATE_GOLDEN=1 cargo test --test landscape_oracle`.

use discipulus::fitness::{max_fitness_genomes, FitnessSpec};
use discipulus::gap::GeneticAlgorithmProcessor;
use discipulus::params::GapParams;
use leonardo_landscape::{max_set_pin, BlockKernel, FULL_SWEEP_MAX_SET};
use std::collections::HashSet;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/landscape_max_set.txt"
);

/// The analytic max set, ascending — the oracle the sweep reproduces.
fn analytic_max_set() -> Vec<u64> {
    let mut set: Vec<u64> = max_fitness_genomes().map(|g| g.bits()).collect();
    set.sort_unstable();
    set
}

#[test]
fn max_set_matches_the_golden_pin() {
    let set = analytic_max_set();
    let rendered = max_set_pin(&set);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden file missing — regenerate with UPDATE_GOLDEN=1 cargo test --test landscape_oracle",
    );
    assert_eq!(
        rendered, golden,
        "maximum-fitness set drifted from the golden pin; if the fitness \
         rules changed intentionally, regenerate with UPDATE_GOLDEN=1"
    );
    assert_eq!(set.len() as u64, FULL_SWEEP_MAX_SET);
}

#[test]
fn sweep_kernel_confirms_the_analytic_max_set() {
    // every ~700th member (plus both ends) re-scored by the exhaustive
    // sweep's kernel path: enumeration and construction must agree
    let spec = FitnessSpec::paper();
    let set = analytic_max_set();
    let mut kernel = BlockKernel::new(spec);
    for &g in set.iter().step_by(701).chain([set[set.len() - 1]].iter()) {
        let f = kernel.block_fitness(g / 64)[(g % 64) as usize];
        assert_eq!(f, spec.max_fitness(), "kernel disagrees at {g:#011x}");
    }
}

#[test]
fn converged_ga_winners_are_members_of_the_exhaustive_max_set() {
    let params = GapParams::paper();
    let oracle: HashSet<u64> = analytic_max_set().into_iter().collect();
    let spec = params.fitness;
    let mut kernel = BlockKernel::new(spec);
    let mut converged = 0;
    for seed in (0..6u32).map(|i| 0x1000 + 7 * i) {
        let mut gap = GeneticAlgorithmProcessor::new(params, seed);
        if !gap.run_to_convergence(50_000).converged {
            continue;
        }
        converged += 1;
        let (best, fitness) = gap.best();
        assert_eq!(fitness, spec.max_fitness(), "seed {seed}");
        assert!(
            oracle.contains(&best.bits()),
            "seed {seed}: GA winner {:#011x} is outside the exhaustive max set",
            best.bits()
        );
        // and the sweep kernel, independently, scores it maximal
        let swept = kernel.block_fitness(best.bits() / 64)[(best.bits() % 64) as usize];
        assert_eq!(swept, spec.max_fitness(), "seed {seed}");
    }
    assert!(converged >= 4, "only {converged}/6 trials converged");
}
