//! BigSubs-style label-propagation selection (paper §2.4 "scalable view
//! selection", reference [24]).
//!
//! The original BigSubs formulation alternates between two sides of the
//! bipartite query↔subexpression graph: queries probabilistically *assign*
//! their potential savings to candidate subexpressions, and candidates are
//! probabilistically kept or dropped under a storage penalty, iterating to
//! convergence. It scales to datacenter workloads because each round is a
//! linear pass over graph edges — no combinatorial search.
//!
//! This reproduction keeps the structure (alternating label rounds over the
//! bipartite graph, benefit attribution under the topmost-wins interaction
//! rule, Lagrangian storage pressure with probabilistic perturbation to
//! escape local optima) with a deterministic seeded RNG.

use super::{within_constraints, Selection, SelectionConstraints, ViewSelector};
use crate::candidates::{materialization_write_cost, SelectionProblem};
use cv_common::rng::DetRng;

/// Label-propagation selector.
#[derive(Debug, Clone)]
pub struct LabelPropagationSelector {
    pub rounds: usize,
    pub seed: u64,
    /// Perturbation probability for the probabilistic rounding step.
    pub flip_probability: f64,
}

impl Default for LabelPropagationSelector {
    fn default() -> Self {
        LabelPropagationSelector { rounds: 12, seed: 0xC10D, flip_probability: 0.15 }
    }
}

impl ViewSelector for LabelPropagationSelector {
    fn name(&self) -> &'static str {
        "label-propagation"
    }

    fn select(&self, problem: &SelectionProblem, constraints: &SelectionConstraints) -> Selection {
        let n = problem.candidates.len();
        if n == 0 {
            return Selection::default();
        }
        let mut rng = DetRng::seed(self.seed);

        // Initial labels: select everything (query side then prunes).
        let mut mask = vec![true; n];
        if !within_constraints(problem, &mask, constraints) {
            // Too big: start from density order under budget instead.
            mask = density_seed(problem, constraints);
        }
        // Keep the density solution as the initial incumbent so rounds can
        // only improve on it.
        let seed = density_seed(problem, constraints);
        let (seed_value, _) = problem.evaluate(&seed);
        let (start_value, _) = problem.evaluate(&mask);
        let (mut best_mask, mut best_value) =
            if seed_value > start_value { (seed, seed_value) } else { (mask.clone(), start_value) };

        for round in 0..self.rounds {
            // --- Query-side round: attribute each query's savings to the
            // topmost selected occurrence covering it, tracking how many
            // instance groups (distinct strict signatures) each candidate
            // would actually materialize.
            let mut attributed = vec![0.0f64; n];
            let mut groups: Vec<cv_common::HashSet<cv_common::Sig128>> =
                vec![Default::default(); n];
            for q in &problem.queries {
                for occ in &q.occurrences {
                    if !mask[occ.candidate] {
                        continue;
                    }
                    let nested = q.occurrences.iter().any(|other| {
                        mask[other.candidate]
                            && other.span.0 <= occ.span.0
                            && occ.span.1 <= other.span.1
                            && other.span != occ.span
                    });
                    if !nested {
                        attributed[occ.candidate] += occ.work;
                        groups[occ.candidate].insert(occ.strict);
                    }
                }
            }

            // --- Subexpression-side round: keep candidates whose attributed
            // benefit beats their per-instance-group production + write
            // costs, with a small probabilistic flip to escape local optima
            // (BigSubs' probabilistic rounding).
            let mut scored: Vec<(usize, f64)> = (0..n)
                .map(|i| {
                    let c = &problem.candidates[i];
                    let g = groups[i].len() as f64;
                    let net =
                        attributed[i] - g * (c.avg_subtree_work + materialization_write_cost(c));
                    (i, net)
                })
                .collect();
            for (i, net) in &mut scored {
                let keep = *net > 0.0;
                let flip = round + 1 < self.rounds && rng.chance(self.flip_probability);
                mask[*i] = keep != flip;
            }

            // --- Budget projection: if over budget, drop lowest net-value
            // per byte until feasible (the Lagrangian pressure step).
            scored.sort_by(|a, b| {
                let da = a.1 / problem.candidates[a.0].storage() as f64;
                let db = b.1 / problem.candidates[b.0].storage() as f64;
                da.total_cmp(&db)
            });
            let mut k = 0;
            while !within_constraints(problem, &mask, constraints) && k < scored.len() {
                mask[scored[k].0] = false;
                k += 1;
            }

            let (value, _) = problem.evaluate(&mask);
            if value > best_value && within_constraints(problem, &mask, constraints) {
                best_value = value;
                best_mask = mask.clone();
            }
        }

        // Final cleanup: drop anything with non-positive marginal value.
        let mut improved = true;
        while improved {
            improved = false;
            let (current, _) = problem.evaluate(&best_mask);
            for i in 0..n {
                if best_mask[i] {
                    best_mask[i] = false;
                    let (without, _) = problem.evaluate(&best_mask);
                    if without >= current {
                        improved = true;
                        break;
                    }
                    best_mask[i] = true;
                }
            }
        }
        if problem.evaluate(&best_mask).0 <= 0.0 {
            return Selection::default();
        }
        Selection::from_mask(problem, &best_mask)
    }
}

/// Density-ordered feasible seed.
fn density_seed(problem: &SelectionProblem, constraints: &SelectionConstraints) -> Vec<bool> {
    let n = problem.candidates.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        problem.candidates[b].density().total_cmp(&problem.candidates[a].density())
    });
    let mut mask = vec![false; n];
    for i in order {
        mask[i] = true;
        if !within_constraints(problem, &mask, constraints) {
            mask[i] = false;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::build_problem;
    use crate::candidates::tests::demo_repo;
    use crate::selection::ExactSelector;

    #[test]
    fn finds_near_optimal_solution() {
        let p = build_problem(&demo_repo(4), 2);
        let constraints = SelectionConstraints::default();
        let lp = LabelPropagationSelector::default().select(&p, &constraints);
        let exact = ExactSelector::default().select(&p, &constraints);
        assert!(lp.est_savings > 0.0);
        // Within 5% of the oracle on this instance.
        assert!(
            lp.est_savings >= exact.est_savings * 0.95,
            "lp {} vs exact {}",
            lp.est_savings,
            exact.est_savings
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let p = build_problem(&demo_repo(3), 2);
        let c = SelectionConstraints::default();
        let s1 = LabelPropagationSelector::default().select(&p, &c);
        let s2 = LabelPropagationSelector::default().select(&p, &c);
        assert_eq!(s1.chosen, s2.chosen);
    }

    #[test]
    fn handles_interacting_candidates() {
        // Must not pick both the Filter and its nested Join.
        let p = build_problem(&demo_repo(4), 2);
        let sel = LabelPropagationSelector::default().select(&p, &SelectionConstraints::default());
        let filter = p.candidates[p.candidate_index_by_kind("Filter")].recurring;
        let join = p.candidates[p.candidate_index_by_kind("Join")].recurring;
        assert!(!(sel.chosen.contains(&filter) && sel.chosen.contains(&join)));
    }

    #[test]
    fn respects_tight_budget() {
        let p = build_problem(&demo_repo(4), 2);
        let smallest = p.candidates.iter().map(|c| c.storage()).min().unwrap();
        let sel = LabelPropagationSelector::default()
            .select(&p, &SelectionConstraints::with_budget(smallest));
        assert!(sel.est_storage <= smallest);
    }
}
