//! Text and JSON rendering of regenerated figures.

use crate::harness::Series;
use flexpath_serve::json::JsonBuf;
use std::fmt::Write as _;

/// Renders a figure as an aligned text table (what `repro` prints and what
/// EXPERIMENTS.md embeds).
pub fn render_table(series: &Series) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", series.title);
    let _ = writeln!(out, "x = {}", series.x_label);
    // Header.
    let _ = write!(out, "{:>12} |", "x");
    for alg in &series.algorithms {
        let _ = write!(out, " {alg:>10} ms |");
    }
    let _ = writeln!(out, " notes");
    let width = 14 + series.algorithms.len() * 16 + 6;
    let _ = writeln!(out, "{}", "-".repeat(width));
    for row in &series.rows {
        let _ = write!(out, "{:>12} |", row.x);
        for rec in &row.records {
            let _ = write!(out, " {:>13.3} |", rec.millis);
        }
        let notes: Vec<String> = row
            .records
            .iter()
            .map(|r| {
                let mut n = format!(
                    "{}: ans={} rel={} ev={} int={} bk={}",
                    r.algorithm,
                    r.answers,
                    r.relaxations,
                    r.evaluations,
                    r.intermediates,
                    r.buckets
                );
                if !r.note.is_empty() {
                    n.push_str(&format!(" [{}]", r.note));
                }
                n
            })
            .collect();
        let _ = writeln!(out, " {}", notes.join("; "));
    }
    out
}

/// JSON rendering (stable field order), through the workspace's one
/// escaping writer.
pub fn render_json(series: &Series) -> String {
    let mut b = JsonBuf::new();
    b.raw("{");
    b.key("id").string(&series.id);
    b.key("title").string(&series.title);
    b.key("x_label").string(&series.x_label);
    b.key("rows").raw("[");
    for row in &series.rows {
        b.comma().raw("{");
        b.key("x").string(&row.x);
        b.key("records").raw("[");
        for r in &row.records {
            b.comma().raw("{");
            b.key("algorithm").string(&r.algorithm);
            // Four decimals, so regenerated files diff cleanly.
            b.key("millis").raw(&format!("{:.4}", r.millis));
            b.key("answers").u64(r.answers as u64);
            b.key("relaxations").u64(r.relaxations as u64);
            b.key("evaluations").u64(r.evaluations as u64);
            b.key("intermediates").u64(r.intermediates as u64);
            b.key("buckets").u64(r.buckets as u64);
            b.key("note").string(&r.note);
            b.raw("}");
        }
        b.raw("]}");
    }
    b.raw("]}");
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{RunRecord, SeriesRow};
    use flexpath_serve::json::Json;

    fn sample() -> Series {
        Series {
            id: "figXX".into(),
            title: "sample".into(),
            x_label: "K".into(),
            algorithms: vec!["DPO".into(), "SSO".into()],
            rows: vec![SeriesRow {
                x: "50".into(),
                records: vec![
                    RunRecord {
                        algorithm: "DPO".into(),
                        millis: 1.5,
                        answers: 50,
                        relaxations: 2,
                        evaluations: 3,
                        intermediates: 80,
                        buckets: 0,
                        note: String::new(),
                    },
                    RunRecord {
                        algorithm: "SSO".into(),
                        millis: 1.0,
                        answers: 50,
                        relaxations: 2,
                        evaluations: 1,
                        intermediates: 75,
                        buckets: 0,
                        note: String::new(),
                    },
                ],
            }],
        }
    }

    #[test]
    fn table_contains_all_cells() {
        let t = render_table(&sample());
        assert!(t.contains("sample"));
        assert!(t.contains("1.500"));
        assert!(t.contains("1.000"));
        assert!(t.contains("int=75"));
    }

    #[test]
    fn json_is_parsable_shape() {
        let mut series = sample();
        series.rows[0].records[1].note = "tab\there \"quoted\"\nnext line".into();
        let j = render_json(&series);
        assert!(j.contains("\"id\":\"figXX\""));
        assert!(j.contains("\"millis\":1.0000"));
        let parsed = flexpath_serve::json::parse(j.as_bytes()).expect("valid JSON");
        let Some(Json::Array(rows)) = parsed.get("rows") else {
            panic!("rows must be an array: {j}");
        };
        let Some(Json::Array(records)) = rows[0].get("records") else {
            panic!("records must be an array: {j}");
        };
        assert_eq!(records[0].get("answers").and_then(Json::as_u64), Some(50));
        assert_eq!(
            records[1].get("note").and_then(Json::as_str),
            Some("tab\there \"quoted\"\nnext line")
        );
    }
}
