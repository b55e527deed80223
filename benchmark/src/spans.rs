//! The benchmark's own tracing: one span per call into a layer, recorded
//! from outside the product, kept in memory and written out as JSON lines
//! when the run ends.
//!
//! A span is `{id, parent, name, start_ns, end_ns, op_id, class}`; spans of
//! one op share its `op_id`. The product's `QueryTrace` (durations only, no
//! start times) is attached under the benchmark's `core.execute` span with
//! each child laid out back to back from its parent's start, names reduced
//! to their stem (`round[3] op=del_pred` → `round`).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// A product trace span, copied out of the product's own type by the
/// adapter so this module knows nothing about product crates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProductSpan {
    pub name: String,
    pub duration_ns: u64,
    pub counters: BTreeMap<String, u64>,
    pub children: Vec<ProductSpan>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub op_id: u64,
    pub class: &'static str,
}

/// `round[3] op=del_pred` → `round`, `pass[0]` → `pass`.
pub fn stem(name: &str) -> &str {
    let end = name.find(['[', ' ']).unwrap_or(name.len());
    &name[..end]
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Counts taken at the same boundaries as the spans.
    pub counts: BTreeMap<String, u64>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }
}

impl Recorder {
    /// Nanoseconds from the recorder's creation to `t`.
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn push(
        &mut self,
        name: &str,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
        op_id: u64,
        class: &'static str,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            op_id,
            class,
        });
        id
    }

    /// Sets the end of a span opened before its end was known.
    pub fn close(&mut self, id: u32, end_ns: u64) {
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns.max(span.start_ns);
    }

    pub fn count(&mut self, key: &str, n: u64) {
        *self.counts.entry(key.to_string()).or_insert(0) += n;
    }

    /// Attaches the *children* of a product trace root under `parent`
    /// (which covers the same call the root timed), laying siblings out
    /// back to back from `start_ns`. Product counters are summed into
    /// `counts` under `product.<key>`.
    pub fn attach_product(
        &mut self,
        parent: u32,
        root: &ProductSpan,
        start_ns: u64,
        op_id: u64,
        class: &'static str,
    ) {
        for (k, v) in &root.counters {
            self.count(&format!("product.{k}"), *v);
        }
        let mut cursor = start_ns;
        for child in &root.children {
            let end = cursor + child.duration_ns;
            let id = self.push(stem(&child.name), Some(parent), cursor, end, op_id, class);
            self.attach_product(id, child, cursor, op_id, class);
            cursor = end;
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span: its duration minus the part of that interval its direct
    /// children cover (children clipped to the parent and merged where they
    /// overlap, so a child can never make self time negative).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
                let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
                children[p as usize].push((start, end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (start, end) in kids.iter() {
                    let from = (*start).max(reach);
                    if *end > from {
                        covered += end - from;
                        reach = *end;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// `(total duration, self time)` in nanoseconds summed per span name.
    pub fn by_name(&self) -> BTreeMap<String, (u64, u64)> {
        let selfs = self.self_times_ns();
        let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let e = out.entry(s.name.clone()).or_insert((0, 0));
            e.0 += s.end_ns - s.start_ns;
            e.1 += self_ns;
        }
        out
    }

    /// Total duration of every span named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum::<f64>()
            / 1e6
    }

    /// Writes one JSON object per span, then one `{"count":…}` line per
    /// counter, then the extra lines the caller supplies (already JSON).
    pub fn write_jsonl(&self, path: &Path, extra: &[String]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self.self_times_ns();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"self_ns\":{self_ns},\"op_id\":{},\"class\":\"{}\"}}",
                s.id, s.name, s.start_ns, s.end_ns, s.op_id, s.class
            )?;
        }
        for (k, v) in &self.counts {
            writeln!(out, "{{\"count\":\"{k}\",\"value\":{v}}}")?;
        }
        for line in extra {
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_the_interval_children_cover() {
        let mut r = Recorder::default();
        let op = r.push("op", None, 0, 1000, 1, "q1");
        let parse = r.push("tpq.parse", Some(op), 0, 100, 1, "q1");
        let exec = r.push("core.execute", Some(op), 100, 900, 1, "q1");
        r.push("schedule", Some(exec), 100, 300, 1, "q1");
        r.push("round", Some(exec), 300, 850, 1, "q1");
        let selfs = r.self_times_ns();
        assert_eq!(selfs[op as usize], 100, "1000 − (100 + 800)");
        assert_eq!(selfs[parse as usize], 100, "leaf: all of it");
        assert_eq!(selfs[exec as usize], 50, "800 − (200 + 550)");
        let by = r.by_name();
        assert_eq!(by["core.execute"], (800, 50));
        assert!((r.total_ms("round") - 550e-6).abs() < 1e-12);
    }

    #[test]
    fn overlapping_or_overhanging_children_never_go_negative() {
        let mut r = Recorder::default();
        let p = r.push("p", None, 100, 200, 0, "c");
        r.push("a", Some(p), 90, 150, 0, "c"); // starts before the parent
        r.push("b", Some(p), 140, 260, 0, "c"); // overlaps a, ends after
        assert_eq!(r.self_times_ns()[p as usize], 0);
        let q = r.push("q", None, 0, 100, 1, "c");
        r.push("a", Some(q), 10, 30, 1, "c");
        r.push("b", Some(q), 20, 40, 1, "c"); // overlap counted once
        assert_eq!(r.self_times_ns()[q as usize], 70);
    }

    #[test]
    fn product_spans_attach_back_to_back_with_stemmed_names() {
        let leaf = |name: &str, ns| ProductSpan {
            name: name.to_string(),
            duration_ns: ns,
            ..ProductSpan::default()
        };
        let mut round = leaf("round[3] op=del_pred", 500);
        round.counters.insert("round.candidates".into(), 7);
        round.children.push(leaf("pass[0]", 200));
        let mut root = leaf("dpo", 900);
        root.counters.insert("evaluations".into(), 4);
        root.children = vec![leaf("parse", 50), leaf("schedule", 250), round];
        let mut r = Recorder::default();
        let exec = r.push("core.execute", None, 1000, 2000, 9, "q3_k10");
        r.attach_product(exec, &root, 1000, 9, "q3_k10");
        let names: Vec<&str> = r.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["core.execute", "parse", "schedule", "round", "pass"]
        );
        let round = &r.spans()[3];
        assert_eq!(
            (round.start_ns, round.end_ns, round.parent),
            (1300, 1800, Some(exec))
        );
        assert_eq!(r.spans()[4].parent, Some(3));
        assert!(r
            .spans()
            .iter()
            .all(|s| s.op_id == 9 && s.class == "q3_k10"));
        assert_eq!(r.counts["product.evaluations"], 4);
        assert_eq!(r.counts["product.round.candidates"], 7);
        // execute self = 1000 − (50 + 250 + 500); round self = 500 − 200.
        let selfs = r.self_times_ns();
        assert_eq!((selfs[0], selfs[3]), (200, 300));
    }
}
