//! The penalty-ordered relaxation schedule.
//!
//! All three algorithms walk the *same* sequence of relaxations: "computes
//! its closure and sorts its predicates by increasing penalty order …
//! \[then\] drops the predicate with the lowest penalty" (Section 5.1.1).
//! Predicate dropping is achieved through the operators of Section 3.5
//! (paper footnote 6), so the schedule is built greedily: at each state,
//! apply the applicable operator whose dropped-predicate set has the lowest
//! total penalty.
//!
//! Each step records the *new* predicates it drops relative to the original
//! closure — penalties are properties of the original query, so the score
//! of answers admitted at step `i` is `base − Σ_{j ≤ i} penalty(j)`,
//! independent of derivation order (Theorem 3).

use crate::context::EngineContext;
use crate::score::PenaltyModel;
use flexpath_ftsearch::Budget;
use flexpath_tpq::{applicable_ops, closure_of, relaxation_step, Predicate, RelaxOp, Tpq};

/// One scheduled relaxation step.
#[derive(Debug, Clone)]
pub struct ScheduledStep {
    /// Operator applied at this step.
    pub op: RelaxOp,
    /// The query after this step.
    pub query: Tpq,
    /// Closure predicates newly dropped by this step (relative to the
    /// original query's closure), with their penalties.
    pub new_dropped: Vec<(Predicate, f64)>,
    /// Penalty of this step (sum over `new_dropped`).
    pub step_penalty: f64,
    /// Cumulative penalty after this step.
    pub cumulative_penalty: f64,
    /// Structural score of answers first admitted by this step.
    pub ss_after: f64,
}

/// Builds the greedy penalty-ordered schedule for `original`.
///
/// Stops when no operator applies, when `max_steps` is reached, or when the
/// total count of droppable structural/contains predicates would exceed 64
/// (the encoded bitset width).
pub fn build_schedule(
    ctx: &EngineContext,
    model: &PenaltyModel,
    original: &Tpq,
    max_steps: usize,
) -> Vec<ScheduledStep> {
    build_schedule_reported(ctx, model, original, max_steps, &Budget::unlimited()).0
}

/// Work counters from one schedule construction, for the observability
/// layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleBuildReport {
    /// Governor checkpoints taken (one per greedy step attempted).
    pub checkpoints: u64,
    /// Applicable operators scored across all steps.
    pub ops_scored: u64,
}

/// [`build_schedule`] under a resource [`Budget`], returning a
/// [`ScheduleBuildReport`] of the work performed alongside the schedule.
///
/// The budget is checkpointed between steps; when it trips, the (valid)
/// prefix built so far is returned. Schedule prefixes are always usable —
/// each step only depends on the steps before it.
///
/// Within one step every applicable operator is scored in operator-index
/// order and the winner is the smallest penalty, earliest operator on ties
/// (strict `<`).
pub fn build_schedule_reported(
    ctx: &EngineContext,
    model: &PenaltyModel,
    original: &Tpq,
    max_steps: usize,
    budget: &Budget,
) -> (Vec<ScheduledStep>, ScheduleBuildReport) {
    let base = model.base_structural_score(original);
    let original_closure = original.closure();
    let mut steps: Vec<ScheduledStep> = Vec::new();
    let mut current = original.clone();
    let mut dropped_so_far = flexpath_tpq::PredicateSet::new();
    let mut bits_used = 0usize;
    let mut report = ScheduleBuildReport::default();

    while steps.len() < max_steps {
        report.checkpoints += 1;
        if budget.check_now() {
            break;
        }
        // Score every applicable operator; pick the cheapest, first-listed
        // on ties.
        type Candidate = (RelaxOp, Tpq, Vec<(Predicate, f64)>, f64);
        let ops = applicable_ops(&current);
        report.ops_scored += ops.len() as u64;
        let mut best: Option<Candidate> = None;
        for op in ops {
            let Ok(step) = relaxation_step(&current, &op) else {
                continue;
            };
            // New drops relative to the ORIGINAL closure (weighted preds only).
            let after_closure = closure_of(&step.result.logical());
            let new_dropped: Vec<(Predicate, f64)> = original_closure
                .difference(&after_closure)
                .iter()
                .filter(|p| !dropped_so_far.contains(p))
                .filter(|p| model.weights().weight(p) > 0.0)
                .map(|p| (p.clone(), model.penalty(ctx, p, budget)))
                .collect();
            if new_dropped.is_empty() {
                // The operator did not weaken the query w.r.t. the original
                // closure (e.g. a no-op diamond); skip it.
                continue;
            }
            let penalty: f64 = new_dropped.iter().map(|(_, pi)| pi).sum();
            if best.as_ref().is_none_or(|b| penalty < b.3) {
                best = Some((op, step.result, new_dropped, penalty));
            }
        }
        let Some((op, next, new_dropped, step_penalty)) = best else {
            break;
        };
        if bits_used + new_dropped.len() > 64 {
            break;
        }
        bits_used += new_dropped.len();
        for (p, _) in &new_dropped {
            dropped_so_far.insert(p.clone());
        }
        let cumulative = steps.last().map(|s| s.cumulative_penalty).unwrap_or(0.0) + step_penalty;
        steps.push(ScheduledStep {
            op,
            query: next.clone(),
            new_dropped,
            step_penalty,
            cumulative_penalty: cumulative,
            ss_after: base - cumulative,
        });
        current = next;
    }
    (steps, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{q1, setup, TWO_ARTICLES};
    use flexpath_tpq::TpqBuilder;

    #[test]
    fn schedule_is_penalty_monotone_in_cumulative_score() {
        let q = q1();
        let (ctx, model) = setup(TWO_ARTICLES, &q);
        let steps = build_schedule(&ctx, &model, &q, 64);
        assert!(!steps.is_empty());
        let mut last_ss = model.base_structural_score(&q);
        for s in &steps {
            assert!(s.step_penalty >= 0.0);
            assert!(s.ss_after <= last_ss + 1e-12, "ss must not increase");
            last_ss = s.ss_after;
        }
    }

    #[test]
    fn schedule_drops_disjoint_predicate_sets() {
        let q = q1();
        let (ctx, model) = setup(TWO_ARTICLES, &q);
        let steps = build_schedule(&ctx, &model, &q, 64);
        let mut seen = std::collections::HashSet::new();
        for s in &steps {
            for (p, _) in &s.new_dropped {
                assert!(seen.insert(p.clone()), "predicate {p} dropped twice");
            }
        }
    }

    #[test]
    fn schedule_reaches_full_relaxation() {
        let q = q1();
        let (ctx, model) = setup(TWO_ARTICLES, &q);
        let steps = build_schedule(&ctx, &model, &q, 64);
        // The last query should be maximally relaxed: a single node with the
        // contains predicate promoted to the root.
        let final_q = &steps.last().unwrap().query;
        assert_eq!(final_q.node_count(), 1);
        assert_eq!(final_q.node(0).contains.len(), 1);
    }

    #[test]
    fn first_step_is_the_cheapest_available() {
        let q = q1();
        let (ctx, model) = setup(TWO_ARTICLES, &q);
        let steps = build_schedule(&ctx, &model, &q, 64);
        // Recompute all first-step penalties by hand and compare.
        let mut penalties = Vec::new();
        for op in applicable_ops(&q) {
            let step = relaxation_step(&q, &op).unwrap();
            let p: f64 = step
                .dropped
                .iter()
                .filter(|p| model.weights().weight(p) > 0.0)
                .map(|p| model.penalty(&ctx, p, &Budget::unlimited()))
                .sum();
            penalties.push(p);
        }
        let min = penalties.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            (steps[0].step_penalty - min).abs() < 1e-12,
            "first step penalty {} ≠ min {}",
            steps[0].step_penalty,
            min
        );
    }

    #[test]
    fn max_steps_caps_the_schedule() {
        let q = q1();
        let (ctx, model) = setup(TWO_ARTICLES, &q);
        let steps = build_schedule(&ctx, &model, &q, 2);
        assert_eq!(steps.len(), 2);
    }

    #[test]
    fn single_node_query_has_empty_schedule() {
        let q = TpqBuilder::new("article").build();
        let (ctx, model) = setup(TWO_ARTICLES, &q);
        assert!(build_schedule(&ctx, &model, &q, 64).is_empty());
    }

    #[test]
    fn cumulative_penalty_accumulates() {
        let q = q1();
        let (ctx, model) = setup(TWO_ARTICLES, &q);
        let steps = build_schedule(&ctx, &model, &q, 64);
        let mut acc = 0.0;
        for s in &steps {
            acc += s.step_penalty;
            assert!((s.cumulative_penalty - acc).abs() < 1e-9);
        }
    }
}
