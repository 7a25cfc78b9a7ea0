//! Pareto-front extraction for multi-objective design spaces.
//!
//! Scalar rewards collapse trade-offs into one number; when the user-
//! defined target is genuinely multi-objective (latency *and* power
//! *and* area, as in FARSIGym's budgets), the exploration dataset's
//! Pareto-optimal designs are the artifact an architect actually wants.
//! All comparisons here treat every metric as **minimized**; negate a
//! metric to maximize it.

use crate::trajectory::Dataset;

/// Whether `a` dominates `b`: no metric worse, at least one strictly
/// better (both minimized).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut strictly_better = false;
    for (&x, &y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Indices of the Pareto-optimal points (minimization, duplicates kept).
///
/// `O(n²)` pairwise filtering — fine for exploration datasets of up to a
/// few hundred thousand points.
pub fn pareto_front(points: &[Vec<f64>]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            !points
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && dominates(other, &points[i]))
        })
        .collect()
}

/// The Pareto front of a dataset over selected observation metrics
/// (all minimized). Returns row indices (see [`Dataset::get`]).
///
/// Infeasible transitions are excluded — their observations are
/// placeholders, not real costs.
pub fn dataset_pareto_front(dataset: &Dataset, metrics: &[usize]) -> Vec<usize> {
    let candidates: Vec<(usize, Vec<f64>)> = dataset
        .iter()
        .enumerate()
        .filter(|(_, t)| t.feasible)
        .map(|(i, t)| (i, metrics.iter().map(|&m| t.observation[m]).collect()))
        .collect();
    let points: Vec<Vec<f64>> = candidates.iter().map(|(_, p)| p.clone()).collect();
    pareto_front(&points)
        .into_iter()
        .map(|k| candidates[k].0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{Observation, StepResult};
    use crate::space::Action;
    use crate::trajectory::Transition;

    #[test]
    fn dominance_semantics() {
        assert!(dominates(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0])); // trade-off
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0])); // equal
    }

    #[test]
    fn front_of_a_convex_trade_off() {
        let points = vec![
            vec![1.0, 5.0], // front
            vec![2.0, 3.0], // front
            vec![4.0, 1.0], // front
            vec![3.0, 4.0], // dominated by (2,3)
            vec![5.0, 5.0], // dominated by everything
        ];
        assert_eq!(pareto_front(&points), vec![0, 1, 2]);
    }

    #[test]
    fn single_point_is_its_own_front() {
        assert_eq!(pareto_front(&[vec![3.0]]), vec![0]);
        assert!(pareto_front(&[]).is_empty());
    }

    #[test]
    fn dataset_front_skips_infeasible_points() {
        let mut d = Dataset::new();
        let mut push = |obs: Vec<f64>, feasible: bool| {
            let mut result = StepResult::terminal(Observation::new(obs), 0.0);
            result.feasible = feasible;
            d.push(Transition::new("toy", "rw", Action::new(vec![0]), &result));
        };
        push(vec![1.0, 5.0], true); // 0: front
        push(vec![0.0, 0.0], false); // 1: would dominate all, but infeasible
        push(vec![2.0, 3.0], true); // 2: front
        push(vec![3.0, 4.0], true); // 3: dominated by 2
        assert_eq!(dataset_pareto_front(&d, &[0, 1]), vec![0, 2]);
    }

    #[test]
    fn duplicate_optima_are_all_kept() {
        let points = vec![vec![1.0, 1.0], vec![1.0, 1.0], vec![2.0, 2.0]];
        assert_eq!(pareto_front(&points), vec![0, 1]);
    }
}
