//! Text and JSON rendering of regenerated figures.

use crate::harness::Series;
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

/// JSON rendering (stable field order).
pub fn render_json(series: &Series) -> String {
    serde_json_lite(series)
}

// A tiny hand-rolled JSON writer: the workspace carries no serialization
// dependency, so the harness serializes its own (flat, simple) structures
// directly.
fn serde_json_lite(series: &Series) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"id\":\"{}\",\"title\":\"{}\",\"x_label\":\"{}\",\"rows\":[",
        esc(&series.id),
        esc(&series.title),
        esc(&series.x_label)
    );
    for (i, row) in series.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"x\":\"{}\",\"records\":[", esc(&row.x));
        for (j, r) in row.records.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"algorithm\":\"{}\",\"millis\":{:.4},\"answers\":{},\"relaxations\":{},\"evaluations\":{},\"intermediates\":{},\"buckets\":{},\"note\":\"{}\"}}",
                esc(&r.algorithm),
                r.millis,
                r.answers,
                r.relaxations,
                r.evaluations,
                r.intermediates,
                r.buckets,
                esc(&r.note)
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{RunRecord, SeriesRow};

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
        let j = render_json(&sample());
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"id\":\"figXX\""));
        assert!(j.contains("\"millis\":1.0000"));
        // Balanced braces/brackets.
        let opens = j.matches('{').count();
        let closes = j.matches('}').count();
        assert_eq!(opens, closes);
    }
}
