//! Figure runners: one function per figure of Section 6.
//!
//! Paper sizes are expressed in MB and scaled by a factor so that the same
//! code drives quick CI runs (`scale = 0.1`) and paper-scale runs
//! (`scale = 1.0`, up to 100 MB).

use crate::workload::{bench_session, QUERIES, XQ2, XQ3};
use flexpath::{Algorithm, ExecStats, FleXPath};
use std::time::Instant;

/// One timed execution.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Algorithm that ran.
    pub algorithm: String,
    /// Median wall-clock milliseconds over the repeats.
    pub millis: f64,
    /// Number of answers returned.
    pub answers: usize,
    /// Relaxation steps used/encoded.
    pub relaxations: usize,
    /// Evaluations (DPO rounds / SSO restarts + 1).
    pub evaluations: usize,
    /// Intermediate answers produced.
    pub intermediates: usize,
    /// Buckets materialized (SSO and Hybrid).
    pub buckets: usize,
    /// Free-form annotation (used by ablations, e.g. rank-quality metrics).
    pub note: String,
}

/// A named series point: x-label plus per-algorithm records.
#[derive(Debug, Clone)]
pub struct SeriesRow {
    /// X-axis label (query name, K, or document size).
    pub x: String,
    /// One record per algorithm, in the figure's algorithm order.
    pub records: Vec<RunRecord>,
}

/// A regenerated figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Figure id, e.g. `fig09`.
    pub id: String,
    /// What the paper's figure shows.
    pub title: String,
    /// X-axis meaning.
    pub x_label: String,
    /// Algorithm names in column order.
    pub algorithms: Vec<String>,
    /// The series.
    pub rows: Vec<SeriesRow>,
}

/// Static description of a reproducible figure.
#[derive(Debug, Clone, Copy)]
pub struct FigureSpec {
    /// Figure id accepted by the `repro` binary.
    pub id: &'static str,
    /// Paper caption paraphrase.
    pub title: &'static str,
}

/// All reproducible figures and ablations.
pub const FIGURES: [FigureSpec; 12] = [
    FigureSpec {
        id: "fig09",
        title: "Varying number of relaxations (1MB, K=50): DPO vs SSO",
    },
    FigureSpec {
        id: "fig10",
        title: "Varying K (10MB, Q3): DPO vs SSO",
    },
    FigureSpec {
        id: "fig11",
        title: "Varying document size (K=12, Q2): DPO vs SSO",
    },
    FigureSpec {
        id: "fig12",
        title: "Varying document size (K=500, Q2): DPO vs SSO",
    },
    FigureSpec {
        id: "fig13",
        title: "Varying number of relaxations (10MB, K=500): SSO vs Hybrid",
    },
    FigureSpec {
        id: "fig14",
        title: "Varying document size (K=500, Q3): SSO vs Hybrid",
    },
    FigureSpec {
        id: "fig15",
        title: "Varying K (10MB, Q3): SSO vs Hybrid",
    },
    FigureSpec {
        id: "fig16",
        title: "Varying K (100MB, Q3): SSO vs Hybrid",
    },
    FigureSpec {
        id: "ablation_buckets",
        title: "Ablation: bucketization vs score-sorted inserts",
    },
    FigureSpec {
        id: "ablation_pruning",
        title: "Ablation: threshold pruning on/off",
    },
    FigureSpec {
        id: "ablation_penalty_order",
        title: "Ablation: penalty-ordered vs reversed DPO schedule",
    },
    FigureSpec {
        id: "baselines",
        title: "Related-work baselines vs DPO/SSO/Hybrid (Section 7 strategies)",
    },
];

const MB: usize = 1 << 20;

/// Runs one `(query, k, algorithm)` cell against a prepared session,
/// reporting the median time over `repeats` executions.
pub fn run_once(
    flex: &FleXPath,
    query: &str,
    k: usize,
    algorithm: Algorithm,
    repeats: usize,
) -> RunRecord {
    let mut times = Vec::with_capacity(repeats.max(1));
    let mut answers = 0usize;
    let mut stats = ExecStats::default();
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        let r = flex
            .query(query)
            .expect("benchmark query parses")
            .top(k)
            .algorithm(algorithm)
            .execute();
        times.push(t.elapsed().as_secs_f64() * 1e3);
        answers = r.hits.len();
        stats = r.stats;
    }
    times.sort_by(f64::total_cmp);
    RunRecord {
        algorithm: algorithm.to_string(),
        millis: times[times.len() / 2],
        answers,
        relaxations: stats.relaxations_used,
        evaluations: stats.evaluations,
        intermediates: stats.intermediate_answers,
        buckets: stats.buckets,
        note: String::new(),
    }
}

fn scaled(mb: f64, scale: f64) -> usize {
    ((mb * scale * MB as f64) as usize).max(64 * 1024)
}

fn size_label(bytes: usize) -> String {
    format!("{:.2}MB", bytes as f64 / MB as f64)
}

fn sweep_queries(
    id: &str,
    title: &str,
    bytes: usize,
    k: usize,
    algorithms: &[Algorithm],
    repeats: usize,
) -> Series {
    let flex = bench_session(bytes);
    let rows = QUERIES
        .iter()
        .map(|(name, q)| SeriesRow {
            x: name.to_string(),
            records: algorithms
                .iter()
                .map(|&alg| run_once(&flex, q, k, alg, repeats))
                .collect(),
        })
        .collect();
    Series {
        id: id.into(),
        title: title.into(),
        x_label: "query (increasing relaxation opportunities)".into(),
        algorithms: algorithms.iter().map(|a| a.to_string()).collect(),
        rows,
    }
}

fn sweep_k(
    id: &str,
    title: &str,
    bytes: usize,
    query: &str,
    ks: &[usize],
    algorithms: &[Algorithm],
    repeats: usize,
) -> Series {
    let flex = bench_session(bytes);
    let rows = ks
        .iter()
        .map(|&k| SeriesRow {
            x: k.to_string(),
            records: algorithms
                .iter()
                .map(|&alg| run_once(&flex, query, k, alg, repeats))
                .collect(),
        })
        .collect();
    Series {
        id: id.into(),
        title: title.into(),
        x_label: "K".into(),
        algorithms: algorithms.iter().map(|a| a.to_string()).collect(),
        rows,
    }
}

#[allow(clippy::too_many_arguments)]
fn sweep_size(
    id: &str,
    title: &str,
    sizes_mb: &[f64],
    scale: f64,
    query: &str,
    k: usize,
    algorithms: &[Algorithm],
    repeats: usize,
) -> Series {
    let rows = sizes_mb
        .iter()
        .map(|&mb| {
            let bytes = scaled(mb, scale);
            let flex = bench_session(bytes);
            SeriesRow {
                x: size_label(bytes),
                records: algorithms
                    .iter()
                    .map(|&alg| run_once(&flex, query, k, alg, repeats))
                    .collect(),
            }
        })
        .collect();
    Series {
        id: id.into(),
        title: title.into(),
        x_label: "document size".into(),
        algorithms: algorithms.iter().map(|a| a.to_string()).collect(),
        rows,
    }
}

const K_SWEEP: [usize; 7] = [50, 100, 200, 300, 400, 500, 600];
const SIZES_MB: [f64; 5] = [1.0, 5.0, 10.0, 50.0, 100.0];

/// Regenerates one figure. `scale` multiplies the paper's document sizes;
/// `repeats` is the per-cell repetition count (median taken).
pub fn run_figure(id: &str, scale: f64, repeats: usize) -> Option<Series> {
    use Algorithm::{Dpo, Hybrid, Sso};
    let s = match id {
        "fig09" => sweep_queries(
            id,
            "Fig 9 — varying #relaxations (1MB, K=50): DPO vs SSO",
            scaled(1.0, scale),
            50,
            &[Dpo, Sso],
            repeats,
        ),
        "fig10" => sweep_k(
            id,
            "Fig 10 — varying K (10MB, Q3): DPO vs SSO",
            scaled(10.0, scale),
            XQ3,
            &K_SWEEP,
            &[Dpo, Sso],
            repeats,
        ),
        "fig11" => sweep_size(
            id,
            "Fig 11 — varying document size (K=12, Q2): DPO vs SSO",
            &SIZES_MB,
            scale,
            XQ2,
            12,
            &[Dpo, Sso],
            repeats,
        ),
        "fig12" => sweep_size(
            id,
            "Fig 12 — varying document size (K=500, Q2): DPO vs SSO",
            &SIZES_MB,
            scale,
            XQ2,
            500,
            &[Dpo, Sso],
            repeats,
        ),
        "fig13" => sweep_queries(
            id,
            "Fig 13 — varying #relaxations (10MB, K=500): SSO vs Hybrid",
            scaled(10.0, scale),
            500,
            &[Sso, Hybrid],
            repeats,
        ),
        "fig14" => sweep_size(
            id,
            "Fig 14 — varying document size (K=500, Q3): SSO vs Hybrid",
            &SIZES_MB,
            scale,
            XQ3,
            500,
            &[Sso, Hybrid],
            repeats,
        ),
        "fig15" => sweep_k(
            id,
            "Fig 15 — varying K (10MB, Q3): SSO vs Hybrid",
            scaled(10.0, scale),
            XQ3,
            &K_SWEEP,
            &[Sso, Hybrid],
            repeats,
        ),
        "fig16" => sweep_k(
            id,
            "Fig 16 — varying K (100MB, Q3): SSO vs Hybrid",
            scaled(100.0, scale),
            XQ3,
            &K_SWEEP,
            &[Sso, Hybrid],
            repeats,
        ),
        "baselines" => crate::harness::ablations::baselines(scale, repeats),
        "ablation_buckets" => crate::harness::ablations::buckets(scale, repeats),
        "ablation_pruning" => crate::harness::ablations::pruning(scale, repeats),
        "ablation_penalty_order" => crate::harness::ablations::penalty_order(scale, repeats),
        _ => return None,
    };
    Some(s)
}

/// Ablation studies for DESIGN.md's called-out decisions.
pub mod ablations {
    use super::*;
    use flexpath_engine::{build_schedule, EngineContext, PenaltyModel, WeightAssignment};

    /// The three related-work evaluation strategies of Section 7 against
    /// this paper's algorithms, on the same workload.
    pub fn baselines(scale: f64, repeats: usize) -> Series {
        use flexpath_engine::{
            data_relaxation_topk, dpo_topk, full_encoding_topk, hybrid_topk,
            rewrite_enumeration_topk, sso_topk, TopKRequest,
        };
        let flex = bench_session(scaled(2.0, scale));
        let ctx = flex.context();
        let k = 200usize;
        let mut rows = Vec::new();
        for (name, q) in [("Q2", crate::workload::XQ2), ("Q3", XQ3)] {
            let query = flexpath::parse_query(q).unwrap();
            let mut records = Vec::new();
            type Runner<'c> = Box<dyn Fn(&TopKRequest) -> flexpath_engine::TopKResult + 'c>;
            let runners: Vec<(&str, Runner)> = vec![
                ("DPO", Box::new(|r: &TopKRequest| dpo_topk(ctx, r))),
                ("SSO", Box::new(|r: &TopKRequest| sso_topk(ctx, r))),
                ("Hybrid", Box::new(|r: &TopKRequest| hybrid_topk(ctx, r))),
                (
                    "FullEncode",
                    Box::new(|r: &TopKRequest| full_encoding_topk(ctx, r)),
                ),
                (
                    "RewriteEnum",
                    Box::new(|r: &TopKRequest| rewrite_enumeration_topk(ctx, r, 2_000)),
                ),
                (
                    "DataRelax",
                    Box::new(|r: &TopKRequest| data_relaxation_topk(ctx, r)),
                ),
            ];
            for (label, run) in runners {
                let req = TopKRequest::new(query.clone(), k);
                let mut times = Vec::new();
                let mut last = None;
                for _ in 0..repeats.max(1) {
                    let t = Instant::now();
                    let result = run(&req);
                    times.push(t.elapsed().as_secs_f64() * 1e3);
                    last = Some(result);
                }
                times.sort_by(f64::total_cmp);
                let result = last.expect("at least one run");
                records.push(RunRecord {
                    algorithm: label.into(),
                    millis: times[times.len() / 2],
                    answers: result.answers.len(),
                    relaxations: result.stats.relaxations_used,
                    evaluations: result.stats.evaluations,
                    intermediates: result.stats.intermediate_answers,
                    buckets: result.stats.buckets,
                    note: if result.stats.shortcut_pairs > 0 {
                        format!("{} shortcut pairs", result.stats.shortcut_pairs)
                    } else {
                        String::new()
                    },
                });
            }
            rows.push(SeriesRow {
                x: name.to_string(),
                records,
            });
        }
        Series {
            id: "baselines".into(),
            title: "Related-work strategies (rewriting, full encoding, data relaxation)                     vs DPO/SSO/Hybrid, K=200"
                .into(),
            x_label: "query".into(),
            algorithms: vec![
                "DPO".into(),
                "SSO".into(),
                "Hybrid".into(),
                "FullEncode".into(),
                "RewriteEnum".into(),
                "DataRelax".into(),
            ],
            rows,
        }
    }

    /// The two bucketization flavors at growing K: SSO's generalized
    /// score-key buckets (`flexpath_engine::order`) vs Hybrid's
    /// satisfied-bitset buckets. The `buckets` column shows how many score
    /// classes each materializes.
    pub fn buckets(scale: f64, repeats: usize) -> Series {
        sweep_k(
            "ablation_buckets",
            "Ablation — order maintenance: SSO score-key buckets vs Hybrid bitset buckets",
            scaled(5.0, scale),
            XQ3,
            &[50, 200, 400, 600],
            &[Algorithm::Sso, Algorithm::Hybrid],
            repeats,
        )
    }

    /// Threshold pruning on/off (Hybrid): measured through intermediate
    /// answer counts at small K on a large answer universe.
    pub fn pruning(scale: f64, repeats: usize) -> Series {
        let flex = bench_session(scaled(5.0, scale));
        let mut rows = Vec::new();
        for k in [10usize, 50, 200] {
            let with = run_once(&flex, XQ2, k, Algorithm::Hybrid, repeats);
            // "off" = request so large that the threshold never binds.
            let mut without = run_once(&flex, XQ2, usize::MAX / 4, Algorithm::Hybrid, repeats);
            without.algorithm = "Hybrid-noprune".into();
            without.answers = with.answers;
            rows.push(SeriesRow {
                x: k.to_string(),
                records: vec![with, without],
            });
        }
        Series {
            id: "ablation_pruning".into(),
            title: "Ablation — threshold pruning bounds intermediate work".into(),
            x_label: "K".into(),
            algorithms: vec!["Hybrid".into(), "Hybrid-noprune".into()],
            rows,
        }
    }

    /// DPO with the penalty-ordered schedule vs the *reverse* order: the
    /// penalty order should reach K answers in fewer rounds and with higher
    /// worst-admitted scores.
    pub fn penalty_order(scale: f64, repeats: usize) -> Series {
        use flexpath_engine::EncodedQuery;
        let flex = bench_session(scaled(2.0, scale));
        let ctx: &EngineContext = flex.context();
        let query = flexpath::parse_query(XQ3).unwrap();
        let model = PenaltyModel::new(&query, WeightAssignment::uniform());
        let schedule = build_schedule(ctx, &model, &query, 64);
        let k = 300usize;

        let run_order = |reversed: bool| -> RunRecord {
            let mut times = Vec::new();
            let mut rounds_used = 0usize;
            let mut answers = 0usize;
            for _ in 0..repeats.max(1) {
                let t = Instant::now();
                let mut seen = std::collections::HashSet::new();
                let order: Vec<usize> = if reversed {
                    (0..schedule.len()).rev().collect()
                } else {
                    (0..schedule.len()).collect()
                };
                // Round 0 = exact query; then apply steps in the chosen
                // order, rebuilding the query cumulatively.
                let mut current = query.clone();
                answers = 0;
                seen.clear();
                rounds_used = 0;
                let count_round = |q: &flexpath::Tpq,
                                   seen: &mut std::collections::HashSet<flexpath::NodeId>|
                 -> usize {
                    let enc = EncodedQuery::exact(ctx, &model, q);
                    let mut fresh = 0usize;
                    flexpath_engine::exec::evaluate_encoded(
                        ctx,
                        &enc,
                        flexpath::RankingScheme::StructureFirst,
                        &flexpath::Budget::unlimited(),
                        |a| {
                            if seen.insert(a.node) {
                                fresh += 1;
                            }
                        },
                    );
                    fresh
                };
                answers += count_round(&current, &mut seen);
                for &si in &order {
                    if answers >= k {
                        break;
                    }
                    rounds_used += 1;
                    // Apply this step's operator to the *current* query.
                    if let Ok(next) = flexpath_tpq::apply_op(&current, &schedule[si].op) {
                        current = next;
                        answers += count_round(&current, &mut seen);
                    }
                }
                times.push(t.elapsed().as_secs_f64() * 1e3);
            }
            times.sort_by(f64::total_cmp);
            RunRecord {
                algorithm: if reversed {
                    "DPO-reversed"
                } else {
                    "DPO-penalty"
                }
                .into(),
                millis: times[times.len() / 2],
                answers: answers.min(k),
                relaxations: rounds_used,
                evaluations: rounds_used + 1,
                intermediates: answers,
                buckets: 0,
                note: String::new(),
            }
        };

        // Rank quality: which fraction of the true top-K (per-answer
        // scores, computed by Hybrid with full relaxation) does each
        // admission order recover within its first K admitted answers?
        // Penalty order admits answers in non-increasing score order by
        // construction; the reversed order admits low-score answers first
        // and misses high-score ones entirely at the cutoff.
        let truth: std::collections::HashSet<_> = flex
            .query(XQ3)
            .unwrap()
            .top(k)
            .algorithm(Algorithm::Hybrid)
            .execute()
            .hits
            .iter()
            .map(|h| h.node)
            .collect();
        let admitted_first_k = |reversed: bool| -> Vec<flexpath::NodeId> {
            let mut seen = std::collections::HashSet::new();
            let mut admitted = Vec::new();
            let order: Vec<usize> = if reversed {
                (0..schedule.len()).rev().collect()
            } else {
                (0..schedule.len()).collect()
            };
            let mut current = query.clone();
            let round = |q: &flexpath::Tpq,
                         seen: &mut std::collections::HashSet<flexpath::NodeId>,
                         admitted: &mut Vec<flexpath::NodeId>| {
                let enc = EncodedQuery::exact(ctx, &model, q);
                flexpath_engine::exec::evaluate_encoded(
                    ctx,
                    &enc,
                    flexpath::RankingScheme::StructureFirst,
                    &flexpath::Budget::unlimited(),
                    |a| {
                        if seen.insert(a.node) && admitted.len() < k {
                            admitted.push(a.node);
                        }
                    },
                );
            };
            round(&current, &mut seen, &mut admitted);
            for &si in &order {
                if admitted.len() >= k {
                    break;
                }
                if let Ok(next) = flexpath_tpq::apply_op(&current, &schedule[si].op) {
                    current = next;
                    round(&current, &mut seen, &mut admitted);
                }
            }
            admitted
        };
        let overlap = |reversed: bool| -> f64 {
            let admitted = admitted_first_k(reversed);
            if truth.is_empty() {
                return 1.0;
            }
            admitted.iter().filter(|n| truth.contains(n)).count() as f64 / truth.len() as f64
        };
        let mut forward = run_order(false);
        forward.note = format!("top-K overlap {:.0}%", overlap(false) * 100.0);
        let mut backward = run_order(true);
        backward.note = format!("top-K overlap {:.0}%", overlap(true) * 100.0);

        Series {
            id: "ablation_penalty_order".into(),
            title: "Ablation — DPO relaxation order: penalty-ascending vs reversed".into(),
            x_label: "order".into(),
            algorithms: vec!["DPO-penalty".into(), "DPO-reversed".into()],
            rows: vec![SeriesRow {
                x: format!("K={k}"),
                records: vec![forward, backward],
            }],
        }
    }
}
