//! Conformance of the closed form: for every range below,
//! `closed_form_tally` must return exactly the tally `Tally::fold_blocks`
//! folds through the sweep kernel — histogram, max count and capped
//! ascending samples — under the paper's rules and an ablation. At 2³⁶
//! it must reproduce the committed E15 histogram and the golden max set.

use discipulus::fitness::{max_fitness_genomes, FitnessSpec, Rule};
use leonardo_landscape::kernel::{BlockKernelW, SweepPlane, Tally, BLOCK_GENOMES, TOTAL_BLOCKS};
use leonardo_landscape::{closed_form_tally, max_set_pin};
use std::ops::Range;

const SPECS: [FitnessSpec; 2] = [FitnessSpec::paper(), FitnessSpec::without(Rule::Symmetry)];
const CAPS: [usize; 4] = [0, 5, 14, 100];

fn repo_file(path: &str) -> String {
    let full = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{full}: {e}"))
}

/// The fold the sweep runs, over `blocks`.
fn folded(spec: FitnessSpec, blocks: Range<u64>, cap: usize) -> Tally {
    let mut tally = Tally::new(spec);
    tally.fold_blocks(&mut BlockKernelW::<SweepPlane>::new(spec), blocks, cap);
    tally
}

fn assert_matches_fold(spec: FitnessSpec, blocks: Range<u64>) {
    // one fold at the largest cap: a fold at a smaller cap keeps exactly
    // its ascending prefix (the kernel's unit tests pin that)
    let widest = folded(spec, blocks.clone(), CAPS[CAPS.len() - 1]);
    for cap in CAPS {
        let mut want = widest.clone();
        want.samples.truncate(cap);
        assert_eq!(
            closed_form_tally(spec, blocks.clone(), cap),
            want,
            "{spec:?}, blocks {blocks:#x?}, cap {cap}"
        );
    }
}

#[test]
fn every_low_subspace_matches_the_fold() {
    for spec in SPECS {
        for bits in 6..=20 {
            assert_matches_fold(spec, 0..1 << (bits - 6));
        }
    }
}

#[test]
fn unaligned_ranges_match_the_fold() {
    // 64-genome blocks; a 512-genome sweep block holds 8 of them
    let window = 0x180d_b000 / BLOCK_GENOMES..0x180d_c000 / BLOCK_GENOMES;
    let mut ranges = vec![
        // the 14 lowest maximal genomes, whole and cut inside sweep blocks
        window.clone(),
        window.start + 3..window.end - 5,
        window.start + 1..window.start + 2,
        // across the 2^28 and 2^30 genome boundaries
        (1 << 22) - 13..(1 << 22) + 1029,
        (1 << 24) - 4099..(1 << 24) + 7,
        // the top of the space
        TOTAL_BLOCKS - 2053..TOTAL_BLOCKS - 1,
    ];
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..6 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let start = x % (TOTAL_BLOCKS - 4096);
        ranges.push(start..start + 1 + (x >> 40) % 4095);
    }
    for spec in SPECS {
        for blocks in &ranges {
            assert_matches_fold(spec, blocks.clone());
        }
    }
}

#[test]
fn high_subspaces_match_the_analytic_max_set() {
    let spec = FitnessSpec::paper();
    let mut analytic: Vec<u64> = max_fitness_genomes().map(|g| g.bits()).collect();
    analytic.sort_unstable();
    for bits in 21..=36 {
        let tally = closed_form_tally(spec, 0..1 << (bits - 6), 32);
        let inside: Vec<u64> = analytic
            .iter()
            .copied()
            .filter(|&g| g < 1 << bits)
            .collect();
        assert_eq!(tally.hist.iter().sum::<u64>(), 1 << bits, "bits {bits}");
        assert_eq!(tally.max_count, inside.len() as u64, "bits {bits}");
        assert_eq!(tally.samples, inside[..inside.len().min(32)], "bits {bits}");
    }
}

#[test]
fn full_space_reproduces_e15_and_the_golden_max_set() {
    let tally = closed_form_tally(FitnessSpec::paper(), 0..TOTAL_BLOCKS, 1 << 17);
    let e15 = repo_file("results/e15_landscape.txt");
    let rows: Vec<u64> = e15
        .lines()
        .skip_while(|l| !l.starts_with("exact fitness histogram"))
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(level, line)| {
            let mut cells = line.split_whitespace();
            assert_eq!(cells.next(), Some(level.to_string().as_str()), "{line}");
            cells.next().and_then(|c| c.parse().ok()).expect("count")
        })
        .collect();
    assert_eq!(rows.len(), 27);
    assert_eq!(tally.hist, rows);

    assert_eq!(tally.samples.len() as u64, tally.max_count);
    assert_eq!(
        max_set_pin(&tally.samples),
        repo_file("tests/golden/landscape_max_set.txt")
    );
}
