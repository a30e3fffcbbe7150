//! Static verification of landscape shard plans.
//!
//! The exhaustive sweep's correctness claim — "the merged landscape is
//! exact for any shard/thread configuration" — rests on one arithmetic
//! invariant: the shard plan is an ordered, contiguous, exact partition
//! of the `2^(subspace_bits - 6)` block space. This linter checks that
//! invariant on a plan **without** running the sweep, so a refactor of
//! the partition arithmetic cannot silently drop or double-count
//! genomes. The gate runs it on every
//! shard count the sweep drivers use; `fixtures::broken_shard_plan` is
//! the seeded defect that must keep it honest.

use crate::finding::Finding;
use leonardo_landscape::ShardPlan;

/// Lint one shard plan: indices must ascend from zero, every shard must
/// be a well-formed half-open run starting where the previous one ended,
/// and the final shard must end exactly at the subspace's block count.
/// A partition more unbalanced than one block is reported as a warning
/// (it is legal, but a balanced plan is what `ShardPlan::new` promises).
pub fn check_shard_plan(plan: &ShardPlan) -> Vec<Finding> {
    let ctx = format!(
        "shard-plan 2^{} x {}",
        plan.subspace_bits(),
        plan.len().max(1)
    );
    let mut findings = Vec::new();
    if plan.is_empty() {
        findings.push(Finding::error(
            "shard-empty-plan",
            ctx,
            "plan has no shards, so no genome would be swept".to_string(),
        ));
        return findings;
    }
    let mut next = 0u64;
    for (i, s) in plan.shards().iter().enumerate() {
        if s.index != i {
            findings.push(Finding::error(
                "shard-index",
                ctx.clone(),
                format!("shard at position {i} carries index {}", s.index),
            ));
        }
        if s.end_block < s.start_block {
            findings.push(Finding::error(
                "shard-inverted",
                ctx.clone(),
                format!(
                    "shard {i} runs backwards: {}..{}",
                    s.start_block, s.end_block
                ),
            ));
            continue;
        }
        if s.start_block != next {
            let (what, lo, hi) = if s.start_block > next {
                ("gap", next, s.start_block)
            } else {
                ("overlap", s.start_block, next)
            };
            findings.push(Finding::error(
                "shard-coverage",
                ctx.clone(),
                format!("{what} before shard {i}: blocks {lo}..{hi} {what}ped"),
            ));
        }
        next = next.max(s.end_block);
    }
    if next != plan.total_blocks() {
        findings.push(Finding::error(
            "shard-coverage",
            ctx.clone(),
            format!("plan covers {next} of {} blocks", plan.total_blocks()),
        ));
    }
    let sizes: Vec<u64> = plan
        .shards()
        .iter()
        .map(|s| s.end_block.saturating_sub(s.start_block))
        .collect();
    let (min, max) = (
        sizes.iter().copied().min().unwrap_or(0),
        sizes.iter().copied().max().unwrap_or(0),
    );
    if findings.is_empty() && max - min > 1 {
        findings.push(Finding::warning(
            "shard-balance",
            ctx,
            format!("shard sizes span {min}..{max} blocks (balanced plans differ by <= 1)"),
        ));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finding::has_errors;
    use leonardo_landscape::{Shard, ShardPlan};

    #[test]
    fn generated_plans_are_clean() {
        for (bits, n) in [(6u32, 1usize), (14, 5), (20, 64), (24, 256), (36, 256)] {
            let findings = check_shard_plan(&ShardPlan::new(bits, n));
            assert!(findings.is_empty(), "2^{bits} x {n}: {findings:?}");
        }
    }

    #[test]
    fn gap_overlap_and_truncation_are_errors() {
        let gap = ShardPlan::from_raw(
            10,
            vec![
                Shard {
                    index: 0,
                    start_block: 0,
                    end_block: 5,
                },
                Shard {
                    index: 1,
                    start_block: 7,
                    end_block: 16,
                },
            ],
        );
        assert!(has_errors(&check_shard_plan(&gap)), "gap must be an error");

        let overlap = ShardPlan::from_raw(
            10,
            vec![
                Shard {
                    index: 0,
                    start_block: 0,
                    end_block: 9,
                },
                Shard {
                    index: 1,
                    start_block: 8,
                    end_block: 16,
                },
            ],
        );
        assert!(has_errors(&check_shard_plan(&overlap)));

        let short = ShardPlan::from_raw(
            10,
            vec![Shard {
                index: 0,
                start_block: 0,
                end_block: 15,
            }],
        );
        assert!(has_errors(&check_shard_plan(&short)));
    }

    #[test]
    fn inverted_and_misindexed_shards_are_errors() {
        let bad = ShardPlan::from_raw(
            10,
            vec![
                Shard {
                    index: 1,
                    start_block: 0,
                    end_block: 16,
                },
                Shard {
                    index: 0,
                    start_block: 16,
                    end_block: 12,
                },
            ],
        );
        let findings = check_shard_plan(&bad);
        assert!(findings.iter().any(|f| f.check == "shard-index"));
        assert!(findings.iter().any(|f| f.check == "shard-inverted"));
    }

    #[test]
    fn imbalance_is_a_warning_not_an_error() {
        let lumpy = ShardPlan::from_raw(
            10,
            vec![
                Shard {
                    index: 0,
                    start_block: 0,
                    end_block: 13,
                },
                Shard {
                    index: 1,
                    start_block: 13,
                    end_block: 16,
                },
            ],
        );
        let findings = check_shard_plan(&lumpy);
        assert!(!has_errors(&findings));
        assert!(findings.iter().any(|f| f.check == "shard-balance"));
    }
}
