//! Pareto machinery for multi-objective search: dominance, fast
//! non-dominated sorting, crowding distance, and the crowded-comparison
//! tournament — the NSGA-II operator set (Deb et al. 2002).
//!
//! All objectives are **maximized**; callers negate costs. Objective
//! values must be finite — the functions panic on NaN rather than
//! propagate an unordered comparison into selection.
//!
//! The crowding distance here deviates from the textbook sweep in one
//! deliberate way: it is a pure function of the *multiset* of objective
//! values in a front and the individual's own objective vector, so it is
//! permutation-invariant even when a front contains duplicated rows
//! (where the classical sort-and-neighbour formulation depends on the tie
//! order the sort happened to produce). Every point sitting at an
//! objective's minimum or maximum gets `inf`, and an interior point's
//! per-objective contribution spans the gap between the nearest *distinct*
//! values on either side.

use crate::genome::BitString;
use crate::rng::SmallRng;
use std::cmp::Ordering;

/// `true` iff `a` Pareto-dominates `b`: at least as good in every
/// objective and strictly better in at least one (all maximized).
///
/// # Panics
/// Panics if the vectors differ in length or contain NaN.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "objective vectors differ in length");
    let mut strictly_better = false;
    for (&x, &y) in a.iter().zip(b) {
        assert!(!x.is_nan() && !y.is_nan(), "NaN objective value");
        if x < y {
            return false;
        }
        if x > y {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Fast non-dominated sort: partition `objectives` (one vector per
/// individual) into fronts. Front 0 is the Pareto-optimal set; every
/// member of front `k+1` is dominated by at least one member of front
/// `k`; members of one front never dominate each other. Every index
/// appears in exactly one front.
///
/// # Panics
/// Panics on NaN or ragged objective vectors.
pub fn fast_non_dominated_sort(objectives: &[Vec<f64>]) -> Vec<Vec<usize>> {
    let n = objectives.len();
    // S[p]: indices p dominates; dominated_by[p]: how many dominate p
    let mut dominated: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut dominated_by = vec![0usize; n];
    for p in 0..n {
        for q in p + 1..n {
            if dominates(&objectives[p], &objectives[q]) {
                dominated[p].push(q);
                dominated_by[q] += 1;
            } else if dominates(&objectives[q], &objectives[p]) {
                dominated[q].push(p);
                dominated_by[p] += 1;
            }
        }
    }
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&p| dominated_by[p] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &p in &current {
            for &q in &dominated[p] {
                dominated_by[q] -= 1;
                if dominated_by[q] == 0 {
                    next.push(q);
                }
            }
        }
        next.sort_unstable();
        fronts.push(std::mem::replace(&mut current, next));
    }
    fronts
}

/// Crowding distance of each member of `front` (indices into
/// `objectives`), in `front` order.
///
/// Per objective: members at the front's minimum or maximum value get
/// `inf`; an interior member contributes the normalized span between the
/// nearest distinct values below and above its own. An objective with no
/// spread across the front contributes nothing. A front with no spread in
/// *any* objective is all-boundary: every member gets `inf`.
///
/// # Panics
/// Panics on NaN objective values.
pub fn crowding_distance(objectives: &[Vec<f64>], front: &[usize]) -> Vec<f64> {
    if front.is_empty() {
        return Vec::new();
    }
    let m = objectives[front[0]].len();
    let mut distance = vec![0.0f64; front.len()];
    let mut any_spread = false;
    // `obj` indexes the inner (objective) axis, not `objectives` itself
    #[allow(clippy::needless_range_loop)]
    for obj in 0..m {
        let mut values: Vec<f64> = front.iter().map(|&i| objectives[i][obj]).collect();
        assert!(values.iter().all(|v| !v.is_nan()), "NaN objective value");
        values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite objective"));
        values.dedup();
        let (lo, hi) = (values[0], values[values.len() - 1]);
        if lo == hi {
            continue; // no spread: this objective cannot separate anyone
        }
        any_spread = true;
        let span = hi - lo;
        for (slot, &i) in front.iter().enumerate() {
            let v = objectives[i][obj];
            if v == lo || v == hi {
                distance[slot] = f64::INFINITY;
            } else if distance[slot].is_finite() {
                let pos = values.partition_point(|&x| x < v);
                // v is interior, so values[pos] == v with distinct
                // neighbours on both sides
                distance[slot] += (values[pos + 1] - values[pos - 1]) / span;
            }
        }
    }
    if !any_spread {
        // every member is simultaneously at every objective's boundary
        distance.iter_mut().for_each(|d| *d = f64::INFINITY);
    }
    distance
}

/// The full NSGA-II ranking of a population: per-individual front rank,
/// per-individual crowding distance, and the fronts themselves.
#[derive(Debug, Clone)]
pub struct ParetoRank {
    /// `rank[i]`: index of the front individual `i` sits in (0 = Pareto
    /// front).
    pub rank: Vec<usize>,
    /// `crowding[i]`: crowding distance of individual `i` within its
    /// front.
    pub crowding: Vec<f64>,
    /// The fronts, best first, each listing individual indices.
    pub fronts: Vec<Vec<usize>>,
}

impl ParetoRank {
    /// Rank a population by its objective vectors.
    pub fn of(objectives: &[Vec<f64>]) -> ParetoRank {
        let fronts = fast_non_dominated_sort(objectives);
        let mut rank = vec![0usize; objectives.len()];
        let mut crowding = vec![0.0f64; objectives.len()];
        for (f, front) in fronts.iter().enumerate() {
            let d = crowding_distance(objectives, front);
            for (slot, &i) in front.iter().enumerate() {
                rank[i] = f;
                crowding[i] = d[slot];
            }
        }
        ParetoRank {
            rank,
            crowding,
            fronts,
        }
    }

    /// Crowded comparison, `Less` meaning `a` is the better individual:
    /// lower front rank wins; within a front the larger crowding distance
    /// wins; a full tie is `Equal`.
    pub fn crowded_compare(&self, a: usize, b: usize) -> Ordering {
        self.rank[a].cmp(&self.rank[b]).then_with(|| {
            self.crowding[b]
                .partial_cmp(&self.crowding[a])
                .expect("crowding is never NaN")
        })
    }

    /// Binary crowded tournament: draw two uniform indices and return the
    /// crowded-comparison winner (the first draw on a full tie). A
    /// dominated individual can never beat one that dominates it, because
    /// non-dominated sorting puts the dominator in a strictly earlier
    /// front.
    pub fn tournament(&self, rng: &mut SmallRng) -> usize {
        let n = self.rank.len();
        let a = rng.random_range(0..n);
        let b = rng.random_range(0..n);
        match self.crowded_compare(a, b) {
            Ordering::Greater => b,
            _ => a,
        }
    }
}

/// One member of a Pareto front: genome plus its objective vector.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontPoint {
    /// The genome.
    pub genome: BitString,
    /// Its objective vector (all maximized).
    pub objectives: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_is_strict() {
        assert!(dominates(&[2.0, 1.0], &[1.0, 1.0]));
        assert!(dominates(&[2.0, 2.0], &[1.0, 1.0]));
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0]));
        assert!(!dominates(&[2.0, 0.0], &[1.0, 1.0]));
        assert!(!dominates(&[1.0, 1.0], &[2.0, 1.0]));
    }

    #[test]
    fn sort_partitions_a_simple_ladder() {
        // three strictly ordered points plus one incomparable to the middle
        let objs = vec![
            vec![3.0, 3.0], // front 0
            vec![2.0, 2.0], // front 1
            vec![1.0, 1.0], // front 2
            vec![0.0, 4.0], // incomparable to all but none dominates it
        ];
        let fronts = fast_non_dominated_sort(&objs);
        assert_eq!(fronts[0], vec![0, 3]);
        assert_eq!(fronts[1], vec![1]);
        assert_eq!(fronts[2], vec![2]);
    }

    #[test]
    fn sort_handles_duplicates() {
        let objs = vec![vec![1.0, 1.0], vec![1.0, 1.0], vec![0.0, 0.0]];
        let fronts = fast_non_dominated_sort(&objs);
        assert_eq!(fronts[0], vec![0, 1]);
        assert_eq!(fronts[1], vec![2]);
    }

    #[test]
    fn crowding_boundary_is_infinite_interior_is_finite() {
        let objs = vec![
            vec![0.0, 3.0],
            vec![1.0, 2.0],
            vec![2.0, 1.0],
            vec![3.0, 0.0],
        ];
        let front = vec![0, 1, 2, 3];
        let d = crowding_distance(&objs, &front);
        assert!(d[0].is_infinite() && d[3].is_infinite());
        assert!(d[1].is_finite() && d[2].is_finite());
        // symmetric layout: equal interior distances
        assert_eq!(d[1], d[2]);
    }

    #[test]
    fn crowding_is_permutation_invariant_with_duplicates() {
        let objs = vec![
            vec![0.0, 3.0],
            vec![1.5, 1.5],
            vec![1.5, 1.5],
            vec![3.0, 0.0],
        ];
        let a = crowding_distance(&objs, &[0, 1, 2, 3]);
        let b = crowding_distance(&objs, &[3, 2, 1, 0]);
        assert_eq!(a[0], b[3]);
        assert_eq!(a[1], b[2]);
        assert_eq!(a[2], b[1]);
        assert_eq!(a[3], b[0]);
        // the duplicated interior pair get identical finite distances
        assert!(a[1].is_finite());
        assert_eq!(a[1], a[2]);
    }

    #[test]
    fn degenerate_front_is_all_boundary() {
        let objs = vec![vec![1.0, 1.0]; 5];
        let d = crowding_distance(&objs, &[0, 1, 2, 3, 4]);
        assert!(d.iter().all(|x| x.is_infinite()));
    }

    #[test]
    fn rank_assigns_fronts_and_crowding() {
        let objs = vec![vec![2.0, 2.0], vec![1.0, 1.0], vec![2.0, 2.0]];
        let r = ParetoRank::of(&objs);
        assert_eq!(r.rank, vec![0, 1, 0]);
        assert!(r.crowding[0].is_infinite());
        assert_eq!(r.fronts.len(), 2);
    }

    #[test]
    fn crowded_compare_prefers_rank_then_spread() {
        let objs = vec![
            vec![0.0, 3.0], // rank 0, boundary
            vec![1.0, 2.0], // rank 0, interior
            vec![2.0, 0.5], // rank 0, boundary
            vec![0.5, 0.5], // rank 1 (dominated by index 1)
        ];
        let r = ParetoRank::of(&objs);
        assert_eq!(r.rank, vec![0, 0, 0, 1]);
        assert_eq!(r.crowded_compare(0, 3), Ordering::Less);
        assert_eq!(r.crowded_compare(3, 0), Ordering::Greater);
        assert_eq!(r.crowded_compare(0, 1), Ordering::Less); // inf beats finite
        assert_eq!(r.crowded_compare(0, 0), Ordering::Equal);
    }

    #[test]
    fn tournament_favours_the_dominating_individual() {
        let objs = vec![vec![2.0, 2.0], vec![1.0, 1.0]];
        let r = ParetoRank::of(&objs);
        let mut rng = SmallRng::seed_from_u64(9);
        // index 1 can only ever win the (1, 1) draw (probability 1/4);
        // whenever index 0 is drawn at all it must win
        let wins0 = (0..400).filter(|_| r.tournament(&mut rng) == 0).count();
        assert!(wins0 > 250, "dominator won only {wins0}/400 tournaments");
    }
}
