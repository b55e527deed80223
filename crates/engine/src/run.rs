//! What every top-K run does before and after its search loop.
//!
//! DPO and the single-pass driver (SSO, Hybrid) differ only in the loop
//! between [`Run::begin`] and [`Run::finish`]. Before it, all three set up
//! the tracer, the budget and the penalty model and build the same
//! penalty-ordered schedule; after it, all three derive [`Completeness`]
//! the same way, record the same whole-query root counters, latch the
//! governor trip and feed the process-wide registry.

use crate::context::EngineContext;
use crate::governor::{reason_key, Budget, CheckpointSite, Completeness, ExhaustReason};
use crate::metrics::{self, Counter, Timer, Tracer};
use crate::schedule::{build_schedule_reported, ScheduledStep};
use crate::score::PenaltyModel;
use crate::topk::{Algorithm, Answer, ExecStats, TopKRequest, TopKResult};
use flexpath_ftsearch::CacheStats;
use std::time::Instant;

/// One top-K run between its prologue and its epilogue.
pub(crate) struct Run<'a> {
    ctx: &'a EngineContext,
    request: &'a TopKRequest,
    algorithm: Algorithm,
    started: Instant,
    cache_before: Option<CacheStats>,
    /// Steps cut off the schedule by `max_relaxations_enumerated`, kept so
    /// the completeness report can estimate remaining work.
    truncated_steps: usize,
    /// The run's tracer, rooted at a span named after the algorithm
    /// (disabled unless the request collects a trace).
    pub tracer: Tracer,
    /// The run's budget, from the request's limits and cancel token.
    pub budget: Budget,
    /// Penalties of the original query's closure predicates.
    pub model: PenaltyModel,
    /// The relaxation schedule, already truncated to the request's
    /// enumeration cap.
    pub schedule: Vec<ScheduledStep>,
    /// Structural score of an exact answer.
    pub base_ss: f64,
}

impl<'a> Run<'a> {
    /// The shared prologue, ending with the closed `schedule` span.
    pub fn begin(ctx: &'a EngineContext, request: &'a TopKRequest, algorithm: Algorithm) -> Self {
        // lint:allow(determinism): wall-clock feeds only duration stats, which
        // the trace/counter fingerprints exclude.
        let started = Instant::now();
        let mut tracer = if request.collect_trace {
            Tracer::enabled(algorithm.key())
        } else {
            Tracer::disabled()
        };
        let cache_before = tracer.is_enabled().then(|| ctx.ft_cache_stats());
        let budget = request.limits.budget(request.cancel.clone());
        let model = PenaltyModel::new(&request.query, request.weights.clone());
        tracer.begin("schedule");
        let (mut schedule, sched_report) = build_schedule_reported(
            ctx,
            &model,
            &request.query,
            request.max_relaxation_steps,
            &budget,
        );
        let mut truncated_steps = 0usize;
        if let Some(cap) = request.limits.max_relaxations_enumerated {
            if schedule.len() > cap {
                truncated_steps = schedule.len() - cap;
                schedule.truncate(cap);
            }
        }
        tracer.add("schedule.steps", schedule.len() as u64);
        tracer.add("schedule.truncated", truncated_steps as u64);
        tracer.add("schedule.ops_scored", sched_report.ops_scored);
        tracer.add("governor.checkpoint.schedule", sched_report.checkpoints);
        tracer.end();
        let base_ss = model.base_structural_score(&request.query);
        Run {
            ctx,
            request,
            algorithm,
            started,
            cache_before,
            truncated_steps,
            tracer,
            budget,
            model,
            schedule,
            base_ss,
        }
    }

    /// The shared epilogue. `explored` is the number of relaxation steps
    /// whose evaluation completed; algorithm-specific root counters are
    /// added to [`Run::tracer`] by the caller beforehand.
    pub fn finish(mut self, answers: Vec<Answer>, stats: ExecStats, explored: usize) -> TopKResult {
        let completeness = if let Some(reason) = self.budget.tripped() {
            Completeness::Exhausted {
                reason,
                relaxations_explored: explored,
                relaxations_remaining_estimate: self.schedule.len() - explored
                    + self.truncated_steps,
            }
        } else if self.truncated_steps > 0 && answers.len() < self.request.k {
            // The enumeration cap hid relaxations that might have produced
            // the missing answers; everything actually enumerated ran to
            // completion.
            Completeness::Exhausted {
                reason: ExhaustReason::RelaxationBudget,
                relaxations_explored: explored,
                relaxations_remaining_estimate: self.truncated_steps,
            }
        } else {
            Completeness::Complete
        };
        self.tracer
            .add_root("evaluations", stats.evaluations as u64);
        // The full-text cache delta for this run and the postings total —
        // all under `nd.` because cache hit/miss splits (and hence postings
        // scanned through the cache) legitimately vary with thread
        // scheduling.
        if let Some(before) = self.cache_before {
            let after = self.ctx.ft_cache_stats();
            let delta = [
                ("nd.cache.hits", after.hits, before.hits),
                ("nd.cache.misses", after.misses, before.misses),
                ("nd.cache.inserts", after.inserts, before.inserts),
                ("nd.cache.evictions", after.evictions, before.evictions),
            ];
            for (key, after, before) in delta {
                self.tracer.add_root(key, after.saturating_sub(before));
            }
            self.tracer
                .add_root("nd.ft.postings_scanned", self.budget.postings_scanned());
        }
        if let Some(reason) = completeness.exhaust_reason() {
            let site = CheckpointSite::for_reason(reason, self.algorithm.checkpoint_site());
            self.tracer.record_trip(site.name(), reason_key(reason));
        }
        let reg = metrics::global();
        reg.add(Counter::QueryCount, 1);
        reg.add(
            match self.algorithm {
                Algorithm::Dpo => Counter::QueryDpo,
                Algorithm::Sso => Counter::QuerySso,
                Algorithm::Hybrid => Counter::QueryHybrid,
            },
            1,
        );
        reg.observe_duration(Timer::QueryDuration, self.started.elapsed());
        TopKResult {
            answers,
            stats,
            completeness,
            trace: self.tracer.finish(),
        }
    }
}
