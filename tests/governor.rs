//! Resource-governor contract: deadlines, budgets, and cross-thread
//! cancellation degrade gracefully to best-effort top-K results instead of
//! panicking or running away — and DPO's partial results are exact rank
//! prefixes of the unbounded run (Theorem 3; see DESIGN.md, "Resource
//! governance & partial results").

use flexpath::{Algorithm, CancelToken, Completeness, ExhaustReason, FleXPath, QueryLimits};
use flexpath_xmark::{generate, XmarkConfig};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The paper's Section 6 scale point: a ~10MB XMark document, generated
/// once and shared by every test in this file.
fn big_session() -> &'static FleXPath {
    static SESSION: OnceLock<FleXPath> = OnceLock::new();
    SESSION.get_or_init(|| FleXPath::new(generate(&XmarkConfig::sized(10 * 1024 * 1024, 42))))
}

const XQ3: &str = "//item[./description/parlist/listitem and ./mailbox/mail/text[./bold and ./keyword and ./emph] and ./name and ./incategory]";

#[test]
fn one_ms_deadline_returns_exhausted_prefix_of_unbounded_dpo_run() {
    let flex = big_session();
    let unbounded = flex
        .query(XQ3)
        .unwrap()
        .top(100)
        .algorithm(Algorithm::Dpo)
        .execute();
    assert!(unbounded.is_complete());
    assert!(!unbounded.hits.is_empty());

    let bounded = flex
        .query(XQ3)
        .unwrap()
        .top(100)
        .algorithm(Algorithm::Dpo)
        .deadline(Duration::from_millis(1))
        .execute();
    // 1ms is not enough to finish a 100-answer search over 10MB: the run
    // must report exhaustion, not hang or panic.
    match bounded.completeness {
        Completeness::Exhausted { reason, .. } => {
            assert_eq!(reason, ExhaustReason::Deadline)
        }
        Completeness::Complete => panic!("1ms deadline cannot complete XQ3 at k=100"),
    }
    // Prefix property: whatever the bounded run returned is exactly the
    // leading slice of the unbounded ranking (completed DPO rounds only).
    assert!(bounded.hits.len() < unbounded.hits.len());
    assert_eq!(
        bounded.nodes(),
        unbounded.nodes()[..bounded.hits.len()].to_vec(),
        "deadline-bounded DPO answers must be a rank prefix of the unbounded run"
    );
}

#[test]
fn deadline_partial_results_are_prefixes_at_every_cutoff() {
    let flex = big_session();
    let unbounded = flex
        .query(XQ3)
        .unwrap()
        .top(60)
        .algorithm(Algorithm::Dpo)
        .execute();
    // Sample several deadlines: every partial result, wherever the clock
    // happened to cut the round loop, must be a prefix.
    for us in [200, 1_000, 5_000, 20_000] {
        let bounded = flex
            .query(XQ3)
            .unwrap()
            .top(60)
            .algorithm(Algorithm::Dpo)
            .deadline(Duration::from_micros(us))
            .execute();
        assert!(
            bounded.hits.len() <= unbounded.hits.len(),
            "deadline={us}µs produced more answers than the unbounded run"
        );
        assert_eq!(
            bounded.nodes(),
            unbounded.nodes()[..bounded.hits.len()].to_vec(),
            "deadline={us}µs result is not a prefix"
        );
    }
}

#[test]
fn cross_thread_cancellation_stops_within_50ms() {
    let flex = big_session();
    let cancel = CancelToken::new();
    let token = cancel.clone();
    let worker = std::thread::spawn(move || {
        big_session()
            .query(XQ3)
            .unwrap()
            .top(500)
            .algorithm(Algorithm::Dpo)
            .cancel(token)
            .execute()
    });
    // Let the query get properly underway before pulling the plug.
    std::thread::sleep(Duration::from_millis(20));
    let cancelled_at = Instant::now();
    cancel.cancel();
    let result = worker.join().expect("worker must not panic");
    let latency = cancelled_at.elapsed();
    assert!(
        latency < Duration::from_millis(50),
        "cancellation took {latency:?} (limit 50ms)"
    );
    // Either the query finished before the cancel landed, or it reports it.
    if let Completeness::Exhausted { reason, .. } = result.completeness {
        assert_eq!(reason, ExhaustReason::Cancelled);
    }
    let _ = flex;
}

#[test]
fn cancel_inside_the_prefilter_admits_nothing_and_dpo_keeps_a_rank_prefix() {
    use flexpath_engine::exec::evaluate_encoded;
    use flexpath_engine::{EncodedQuery, PenaltyModel, WeightAssignment};
    use flexpath_ftsearch::Budget;

    let flex = big_session();
    // The first checkpoint of an evaluation is inside the required-skeleton
    // prefilter (corpus-sized semijoins over the tag lists), so a token
    // that is already cancelled trips there: no roots reach the candidate
    // scan, nothing is examined, nothing is emitted.
    let q = flexpath_tpq::parse_query(XQ3).unwrap();
    let model = PenaltyModel::new(&q, WeightAssignment::uniform());
    let enc = EncodedQuery::exact(flex.context(), &model, &q);
    let token = CancelToken::new();
    token.cancel();
    let budget = Budget::new(None, Some(token), u64::MAX, u64::MAX, u64::MAX);
    let mut emitted = 0;
    let stats = evaluate_encoded(
        flex.context(),
        &enc,
        flexpath::RankingScheme::StructureFirst,
        &budget,
        |_| emitted += 1,
    );
    assert_eq!(budget.tripped(), Some(ExhaustReason::Cancelled));
    assert_eq!((emitted, stats.roots, stats.candidates_examined), (0, 0, 0));

    // Through DPO: wherever a cancel lands — round boundary, prefilter or
    // candidate scan — the interrupted round is discarded whole, so the
    // result is labelled and is an exact rank prefix of the unbounded run.
    // The prefilter is a large share of every round, so a sweep of delays
    // lands inside it many times over.
    let run = |cancel: Option<CancelToken>| {
        let query = flex.query(XQ3).unwrap().top(500).algorithm(Algorithm::Dpo);
        match cancel {
            Some(token) => query.cancel(token).execute(),
            None => query.execute(),
        }
    };
    let unbounded = run(None);
    assert!(unbounded.is_complete());
    for delay_us in (0..40).map(|i| i * 150) {
        let token = CancelToken::new();
        let bounded = std::thread::scope(|scope| {
            let canceller = token.clone();
            scope.spawn(move || {
                std::thread::sleep(Duration::from_micros(delay_us));
                canceller.cancel();
            });
            run(Some(token.clone()))
        });
        match bounded.completeness {
            Completeness::Exhausted { reason, .. } => assert_eq!(reason, ExhaustReason::Cancelled),
            Completeness::Complete => assert_eq!(bounded.hits.len(), unbounded.hits.len()),
        }
        assert!(bounded.hits.len() <= unbounded.hits.len());
        assert_eq!(
            bounded.nodes(),
            unbounded.nodes()[..bounded.hits.len()].to_vec(),
            "cancel after {delay_us}µs: DPO's committed rounds are not a rank prefix"
        );
    }
}

#[test]
fn zero_budgets_return_exhausted_without_panicking() {
    let flex = big_session();
    for alg in [Algorithm::Dpo, Algorithm::Sso, Algorithm::Hybrid] {
        let r = flex
            .query(XQ3)
            .unwrap()
            .top(10)
            .algorithm(alg)
            .limits(QueryLimits::default().with_max_candidate_answers(0))
            .execute();
        assert!(
            r.hits.is_empty(),
            "{alg}: zero answer budget admits nothing"
        );
        assert!(
            matches!(
                r.completeness,
                Completeness::Exhausted {
                    reason: ExhaustReason::AnswerBudget,
                    ..
                }
            ),
            "{alg}: got {:?}",
            r.completeness
        );
    }
}

#[test]
fn postings_budget_trips_with_the_right_reason() {
    let flex = big_session();
    let r = flex
        .query("//item[./description[.contains(\"gold\")]]")
        .unwrap()
        .top(10)
        .algorithm(Algorithm::Dpo)
        .limits(QueryLimits::default().with_max_ft_postings_scanned(1))
        .execute();
    match r.completeness {
        Completeness::Exhausted { reason, .. } => {
            assert_eq!(reason, ExhaustReason::PostingsBudget)
        }
        Completeness::Complete => {
            panic!("a 1-posting budget cannot cover a 10MB index scan")
        }
    }
}

#[test]
fn relaxation_enumeration_cap_reports_remaining_work() {
    let flex = big_session();
    // Force relaxation (k far beyond the exact answer universe — there are
    // fewer items than this in the whole document) but forbid any
    // relaxation from being enumerated.
    let r = flex
        .query(XQ3)
        .unwrap()
        .top(1_000_000)
        .algorithm(Algorithm::Dpo)
        .limits(QueryLimits::default().with_max_relaxations_enumerated(0))
        .execute();
    match r.completeness {
        Completeness::Exhausted {
            reason,
            relaxations_explored,
            relaxations_remaining_estimate,
        } => {
            assert_eq!(reason, ExhaustReason::RelaxationBudget);
            assert_eq!(relaxations_explored, 0);
            assert!(relaxations_remaining_estimate > 0);
        }
        Completeness::Complete => panic!("k=1M over XQ3 requires relaxations"),
    }
    // The exact round still ran: any answers returned are exact matches.
    for h in &r.hits {
        assert_eq!(h.relaxation_level, 0);
    }
}

#[test]
fn unlimited_limits_report_complete_across_algorithms() {
    let flex = big_session();
    for alg in [Algorithm::Dpo, Algorithm::Sso, Algorithm::Hybrid] {
        let r = flex
            .query("//item[./description/parlist]")
            .unwrap()
            .top(5)
            .algorithm(alg)
            .execute();
        assert!(r.is_complete(), "{alg}");
        assert_eq!(r.hits.len(), 5, "{alg}");
    }
}

#[test]
fn tripped_traces_cover_every_checkpoint_site_and_match_completeness() {
    use flexpath_engine::{reason_key, CheckpointSite};
    let flex = big_session();

    // One budget-tripped run per checkpoint site: budget-typed limits are
    // attributed to the site whose charge trips them, deadlines to the
    // driving loop of the chosen algorithm.
    let runs: Vec<(&str, flexpath::QueryResults)> = vec![
        (
            "schedule",
            flex.query(XQ3)
                .unwrap()
                .top(1_000_000)
                .algorithm(Algorithm::Dpo)
                .limits(QueryLimits::default().with_max_relaxations_enumerated(0))
                .trace()
                .execute(),
        ),
        (
            "ft_eval",
            flex.query("//item[./description[.contains(\"gold\")]]")
                .unwrap()
                .top(10)
                .algorithm(Algorithm::Dpo)
                .limits(QueryLimits::default().with_max_ft_postings_scanned(1))
                .trace()
                .execute(),
        ),
        (
            "candidate_loop",
            flex.query(XQ3)
                .unwrap()
                .top(10)
                .algorithm(Algorithm::Dpo)
                .limits(QueryLimits::default().with_max_candidate_answers(0))
                .trace()
                .execute(),
        ),
        (
            "dpo_round",
            flex.query(XQ3)
                .unwrap()
                .top(100)
                .algorithm(Algorithm::Dpo)
                .deadline(Duration::from_micros(1))
                .trace()
                .execute(),
        ),
        (
            "sso_pass",
            flex.query(XQ3)
                .unwrap()
                .top(100)
                .algorithm(Algorithm::Sso)
                .deadline(Duration::from_micros(1))
                .trace()
                .execute(),
        ),
        (
            "hybrid_pass",
            flex.query(XQ3)
                .unwrap()
                .top(100)
                .algorithm(Algorithm::Hybrid)
                .deadline(Duration::from_micros(1))
                .trace()
                .execute(),
        ),
    ];

    let mut seen = std::collections::BTreeSet::new();
    for (expected_site, r) in &runs {
        let reason = r
            .completeness
            .exhaust_reason()
            .unwrap_or_else(|| panic!("{expected_site}: run must trip its budget"));
        let trace = r.trace.as_ref().expect("trace requested");
        // The trip site in the trace matches what Completeness reports …
        assert_eq!(
            trace
                .root
                .counters
                .get(&format!("governor.trip.site.{expected_site}")),
            Some(&1),
            "{expected_site}: trip site missing or wrong; root counters: {:?}",
            trace.root.counters
        );
        // … and so does the trip reason.
        assert_eq!(
            trace
                .root
                .counters
                .get(&format!("governor.trip.reason.{}", reason_key(reason))),
            Some(&1),
            "{expected_site}: trip reason mismatch"
        );
        seen.insert(*expected_site);
    }
    // Together the six runs exercise every named checkpoint site.
    for site in CheckpointSite::ALL {
        assert!(
            seen.contains(site.name()),
            "checkpoint site {site} has no covering tripped run"
        );
    }
}

#[test]
fn checkpoint_counters_appear_in_traced_spans() {
    // Even an untripped run records how often each cooperative checkpoint
    // was consulted — the EXPLAIN ANALYZE signal for where a budget *would*
    // bite.
    let flex = big_session();
    let r = flex
        .query(XQ3)
        .unwrap()
        .top(20)
        .algorithm(Algorithm::Dpo)
        .trace()
        .execute();
    let trace = r.trace.expect("trace requested");
    assert!(trace.total("governor.checkpoint.schedule") > 0);
    assert!(trace.total("governor.checkpoint.dpo_round") > 0);
    assert!(trace.total("governor.checkpoint.candidate_loop") > 0);
}

#[test]
fn generous_deadline_matches_the_unbounded_run_exactly() {
    let flex = big_session();
    let unbounded = flex.query(XQ3).unwrap().top(20).execute();
    let bounded = flex
        .query(XQ3)
        .unwrap()
        .top(20)
        .deadline(Duration::from_secs(600))
        .execute();
    assert!(bounded.is_complete());
    assert_eq!(bounded.nodes(), unbounded.nodes());
}

#[test]
fn a_cancelled_schedule_build_scores_nothing() {
    use flexpath_engine::schedule::build_schedule_reported;
    use flexpath_engine::{PenaltyModel, ScheduleBuildReport, WeightAssignment};
    use flexpath_ftsearch::Budget;

    let flex = big_session();
    let q = flexpath_tpq::parse_query(XQ3).unwrap();
    let model = PenaltyModel::new(&q, WeightAssignment::uniform());
    let token = CancelToken::new();
    token.cancel();
    let budget = Budget::new(None, Some(token), u64::MAX, u64::MAX, u64::MAX);
    let (steps, report) = build_schedule_reported(flex.context(), &model, &q, 64, &budget);
    assert!(steps.is_empty());
    assert_eq!(
        report,
        ScheduleBuildReport {
            checkpoints: 1,
            ops_scored: 0
        }
    );
}

#[test]
fn a_postings_trip_inside_a_schedule_penalty_stops_the_build_and_caches_nothing() {
    use flexpath_engine::schedule::build_schedule_reported;
    use flexpath_engine::{PenaltyModel, ScheduleBuildReport, WeightAssignment};
    use flexpath_ftsearch::Budget;

    // No other test of this file evaluates this expression, so the shared
    // session's FT cache starts without it.
    const QUERY: &str = "//item[./description[.contains(\"porcelain\")]]";
    let flex = big_session();
    let ctx = flex.context();
    let q = flexpath_tpq::parse_query(QUERY).unwrap();
    let model = PenaltyModel::new(&q, WeightAssignment::uniform());

    // The first `contains` penalty is needed while the first step's
    // candidates are scored: the budget trips inside that evaluation, the
    // step is completed from what the truncated evaluation returned (never
    // used to rank), and the next step's checkpoint ends the build. The
    // reference build does the same (`schedule::tests`).
    let budget = Budget::new(None, None, 1, u64::MAX, u64::MAX);
    let (steps, report) = build_schedule_reported(ctx, &model, &q, 64, &budget);
    assert_eq!(budget.tripped(), Some(ExhaustReason::PostingsBudget));
    assert_eq!(steps.len(), 1);
    assert_eq!(
        report,
        ScheduleBuildReport {
            checkpoints: 2,
            ops_scored: flexpath_tpq::applicable_ops(&q).len() as u64
        }
    );

    // The same trip through the facade is reported, not hidden …
    let tripped = flex
        .query(QUERY)
        .unwrap()
        .top(10)
        .limits(QueryLimits::default().with_max_ft_postings_scanned(1))
        .execute();
    assert_eq!(
        tripped.completeness.exhaust_reason(),
        Some(ExhaustReason::PostingsBudget)
    );

    // … and neither run left its truncated evaluation behind: what the
    // cache hands an unbudgeted caller next is the whole evaluation.
    let expr = &q.node(1).contains[0];
    let whole = ctx.index().evaluate(ctx.doc(), expr);
    assert!(whole.len() > 1);
    assert_eq!(
        ctx.ft_eval(expr, &Budget::unlimited()).ranked(),
        whole.ranked()
    );
    let unbudgeted = flex.query(QUERY).unwrap().top(10).execute();
    assert!(unbudgeted.is_complete());
    assert_eq!(unbudgeted.hits.len(), 10);
}
