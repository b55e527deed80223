//! The metric ledger: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` at the repository root lists the same names; a self-test
//! keeps the two in step.

use std::collections::BTreeMap;

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Reported by every workload's untraced run.
pub const END_TO_END: &[EndToEndDef] = &[
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEndDef {
        name: "ops_per_s",
        unit: "op/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEndDef {
        name: "latency_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEndDef {
        name: "latency_p95_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// Reported by every workload's traced run (zero where a layer does no
/// work on that workload — which is itself the layer-separation claim).
/// `✓` rows of the issue's table are marked exact: they repeat bit for bit
/// for one seed.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("xmark.generate_ms", "ms", false),
    ("xmldom.parse_ms", "ms", false),
    ("xmldom.stats_ms", "ms", false),
    ("xmldom.nodes", "count", true),
    ("ftsearch.index_build_ms", "ms", false),
    ("ftsearch.eval_ms", "ms", false),
    ("ftsearch.eval_calls", "count", true),
    ("ftsearch.postings_scanned", "count", false),
    ("ftsearch.cache_hit_ratio", "ratio", false),
    ("ftsearch.cache_hit_ratio.ft_hot", "ratio", false),
    ("ftsearch.cache_hit_ratio.ft_cold", "ratio", false),
    ("ftsearch.terms", "count", true),
    ("ftsearch.posting_entries", "count", true),
    ("tpq.parse_us_per_query", "us", false),
    ("tpq.closure_us_per_query", "us", false),
    ("engine.schedule_ms", "ms", false),
    ("engine.schedule_direct_ms", "ms", false),
    ("engine.eval_ms", "ms", false),
    ("engine.alg_ms.dpo", "ms", false),
    ("engine.alg_ms.sso", "ms", false),
    ("engine.alg_ms.hybrid", "ms", false),
    ("engine.governed_ratio", "ratio", false),
    ("engine.evaluations", "count", true),
    ("engine.intermediates", "count", true),
    ("engine.buckets", "count", true),
    ("engine.relaxations_used", "count", true),
    ("engine.pruned", "count", true),
    ("engine.candidates", "count", true),
    ("engine.join_pairs", "count", true),
    ("engine.saturated_breaks", "count", true),
    ("engine.schedule_ops_scored", "count", true),
    ("engine.answers_per_candidate", "ratio", false),
    ("engine.structural_join_ms", "ms", false),
    ("engine.order_offer_ns", "ns", false),
    ("core.class_ms.q1", "ms", false),
    ("core.class_ms.q2", "ms", false),
    ("core.class_ms.q3_k10", "ms", false),
    ("core.class_ms.q3_k500", "ms", false),
    ("core.class_ms.ft_hot", "ms", false),
    ("core.class_ms.ft_cold", "ms", false),
    ("core.class_ms.cheap", "ms", false),
    ("core.class_ms.mid", "ms", false),
    ("core.class_ms.ft", "ms", false),
    ("core.facade_self_ms", "ms", false),
    ("core.render_us_per_hit", "us", false),
    ("store.write_ms", "ms", false),
    ("store.file_bytes", "bytes", true),
    ("store.bytes_per_xml_byte", "ratio", true),
    ("store.open_us", "us", false),
    ("store.decode_doc_ms", "ms", false),
    ("store.decode_stats_ms", "ms", false),
    ("store.decode_index_ms", "ms", false),
    ("store.first_structural_ms", "ms", false),
    ("store.first_fulltext_ms", "ms", false),
    ("store.eager_open_ms", "ms", false),
    ("serve.read_request_us", "us", false),
    ("serve.json_parse_us", "us", false),
    ("serve.write_us", "us", false),
    ("serve.dispatch_ms.cheap", "ms", false),
    ("serve.dispatch_ms.mid", "ms", false),
    ("serve.dispatch_ms.ft", "ms", false),
    ("serve.query_duration_ms", "ms", false),
    ("serve.overhead_ms.cheap", "ms", false),
    ("serve.overhead_ms.mid", "ms", false),
    ("serve.overhead_ms.ft", "ms", false),
    ("serve.complete", "count", false),
    ("serve.partial", "count", false),
    ("serve.shed", "count", false),
    ("serve.errors", "count", false),
    ("serve.generator_late_ms_p99", "ms", false),
    ("serve.rate_p99_ms.r25", "ms", false),
    ("serve.rate_p99_ms.r50", "ms", false),
    ("serve.rate_p99_ms.r75", "ms", false),
    ("serve.rate_p99_ms.r100", "ms", false),
    ("serve.latency_p99_ms", "ms", false),
    ("serve.max_rate_ok_qps", "req/s", false),
    ("bench.failed_share", "ratio", false),
    ("bench.trace_overhead_share", "ratio", false),
    ("bench.noisy_blocks", "count", false),
];

/// The per-layer values of one traced run: every name present, zero until
/// a workload sets it.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Default for Ledger {
    fn default() -> Self {
        Ledger(PER_LAYER.iter().map(|(name, _, _)| (*name, 0.0)).collect())
    }
}

impl Ledger {
    /// Sets a metric. Panics on a name missing from [`PER_LAYER`]: that is
    /// a bug in the benchmark, caught by the first run of any workload.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.get_mut(name) {
            Some(slot) => *slot = value,
            None => panic!("metric {name:?} is not in the ledger"),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `(name, unit, exact, value)` in ledger order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, bool, f64)> + '_ {
        PER_LAYER
            .iter()
            .map(|(name, unit, exact)| (*name, *unit, *exact, self.get(name)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls `"name": "<x>"` … `"unit": "<y>"` pairs out of one array of
    /// `BENCHMARK.json` without a JSON parser of our own.
    fn names_and_units(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let open = start + json[start..].find('[').unwrap();
        let close = open + json[open..].find(']').unwrap();
        let field = |obj: &str, f: &str| {
            let at = obj.find(&format!("\"{f}\"")).unwrap();
            let rest = &obj[at + f.len() + 2..];
            let q1 = rest.find('"').unwrap();
            let q2 = q1 + 1 + rest[q1 + 1..].find('"').unwrap();
            rest[q1 + 1..q2].to_string()
        };
        json[open..close]
            .split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_code_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect();
        assert_eq!(names_and_units(&json, "end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names_and_units(&json, "per_layer"), layers);
        for def in END_TO_END {
            assert!(
                json.contains(&format!("\"bound\": {}", def.bound)),
                "{}",
                def.name
            );
        }
    }

    #[test]
    fn names_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for name in END_TO_END
            .iter()
            .map(|d| d.name)
            .chain(PER_LAYER.iter().map(|r| r.0))
        {
            assert!(name.len() <= 64 && seen.insert(name), "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|d| d.bound <= 0.25));
    }

    #[test]
    #[should_panic(expected = "not in the ledger")]
    fn an_unknown_metric_name_is_a_bug() {
        Ledger::default().set("no.such.metric", 1.0);
    }
}
