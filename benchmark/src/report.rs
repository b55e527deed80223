//! Printing: every metric by name with its unit, the result object the
//! driver reads, and the `--repeat` summary. Also runs the multi-pass modes
//! (`all`, `--repeat`), one child process per pass so each pass starts with
//! a fresh peak-RSS mark, fresh process-wide engine counters and no warm
//! allocator.

use crate::layers;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats;
use crate::workloads::{EndToEnd, Params, Res, Traced};
use std::collections::BTreeMap;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn print_host_facts(workload: &str, p: &Params, traced: bool) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# {workload} ({} pass{}): seed {} seconds {} | nproc {nproc} | cpu {} | {} | commit {} | mmap {}",
        if traced { "traced" } else { "untraced" },
        if p.smoke { ", smoke" } else { "" },
        p.seed,
        p.seconds,
        cpu_model(),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        if layers::mmap_enabled() { "on" } else { "off" },
    );
    if workload == "cold_start" {
        println!("# cold_start reads come from the OS page cache: this is the sandbox's decode cost, not a device's");
    }
}

pub fn print_end_to_end(workload: &str, e: &EndToEnd) {
    for def in END_TO_END {
        let note = match def.name {
            "latency_p50_ms" | "latency_p95_ms" => format!("  (n = {})", e.samples),
            _ => String::new(),
        };
        println!(
            "{workload} {:<24} {:>16.6} {}{note}",
            def.name,
            e.value(def.name),
            def.unit
        );
    }
    let share = e.failed as f64 / e.attempted.max(1) as f64;
    println!(
        "{workload} {:<24} {share:>16.6} ratio  ({} of {} ops)",
        "failed_share", e.failed, e.attempted
    );
    println!(
        "{workload} {:<24} {:>16} count",
        "bench.noisy_blocks", e.noisy_blocks
    );
    println!(
        "{workload} {:<24} {:016x}",
        "answers_digest", e.answers_digest
    );
    for note in &e.notes {
        println!("# {note}");
    }
    if let Some(why) = &e.first_failure {
        println!("# FAILED: {why}");
    }
}

pub fn print_traced(workload: &str, t: &Traced) {
    for (name, unit, exact, value) in t.ledger.rows() {
        let mark = if exact { " ✓" } else { "" };
        if value.fract() == 0.0 && value.abs() < 1e15 {
            println!("{workload} {name:<34} {value:>16.0} {unit}{mark}");
        } else {
            println!("{workload} {name:<34} {value:>16.6} {unit}{mark}");
        }
    }
    println!(
        "{workload} {:<34} {:016x}",
        "answers_digest", t.answers_digest
    );
    println!("# span                 total ms      self ms   (self = span minus what its children cover)");
    for (name, (total, own)) in &t.self_times {
        println!(
            "# {name:<16} {:>12.3} {:>12.3}",
            *total as f64 / 1e6,
            *own as f64 / 1e6
        );
    }
    println!("# spans written to {}", t.trace_file.display());
    if let Some(why) = &t.first_failure {
        println!("# FAILED: {why}");
    }
}

pub struct ResultLine {
    pub line: String,
    pub correct: bool,
}

/// The contract's result object: `correct`, `attempted`, `failed`, and the
/// metrics of this pass, each value with all the digits measured.
pub fn result_line<'a>(
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (&'a str, &'a str, f64)>,
) -> ResultLine {
    let correct = failed == 0 && attempted > 0;
    let body: Vec<String> = metrics
        .map(|(name, unit, value)| {
            // A failed op reads +∞ (it missed every limit); JSON has no
            // such number, and the run is reported incorrect anyway.
            // (`+ 0.0` turns the -0.0 an empty sum yields into 0.)
            let value = if value.is_finite() {
                value + 0.0
            } else {
                f64::MAX
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    ResultLine {
        line: format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            attempted.max(1),
            body.join(", ")
        ),
        correct,
    }
}

/// Reads back a [`result_line`]: `(correct, name → value)`.
fn parse_result_line(line: &str) -> Option<(bool, BTreeMap<String, f64>)> {
    let correct = line.contains("\"correct\": true");
    let metrics = &line[line.find("\"metrics\": {")? + 12..];
    let mut out = BTreeMap::new();
    for entry in metrics.split("\"}").filter(|e| e.contains("\"value\": ")) {
        let name_start = entry.find('"')? + 1;
        let name_end = name_start + entry[name_start..].find('"')?;
        let value_start = entry.find("\"value\": ")? + 9;
        let value_end = value_start + entry[value_start..].find(',')?;
        out.insert(
            entry[name_start..name_end].to_string(),
            entry[value_start..value_end].parse().ok()?,
        );
    }
    Some((correct, out))
}

/// Runs one pass in a child process, echoing its report.
fn child_pass(workload: &str, p: &Params, traced: bool) -> Res<(bool, BTreeMap<String, f64>)> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &p.seed.to_string()])
        .args([
            "--seconds",
            &p.seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ]);
    if p.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawning a pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in &lines {
        println!("{l}");
    }
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    parse_result_line(last).ok_or(format!(
        "{workload} ({}) ended without a result (exit {:?})",
        if traced { "traced" } else { "untraced" },
        out.status.code()
    ))
}

/// `repeat` sets of (untraced, traced) passes over `names`. Prints every
/// metric of every pass; with `repeat > 1` also the per-metric median,
/// quartiles and spread against the bound, and checks that the two halves
/// of the sets agree within each bound and that exact counters repeat.
pub fn run_sets(names: &[&str], p: &Params, repeat: usize) -> Res<bool> {
    let mut ok = true;
    // (workload, metric) → one value per set.
    let mut e2e: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut exact: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for set in 0..repeat {
        if repeat > 1 {
            println!("## set {} of {repeat}", set + 1);
        }
        for name in names {
            let (correct, values) = child_pass(name, p, false)?;
            ok &= correct;
            for (metric, v) in values {
                e2e.entry((name.to_string(), metric)).or_default().push(v);
            }
            let (correct, values) = child_pass(name, p, true)?;
            ok &= correct;
            for (metric, _, is_exact) in PER_LAYER {
                if *is_exact {
                    let v = values.get(*metric).copied().unwrap_or(0.0);
                    exact
                        .entry((name.to_string(), metric.to_string()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    if repeat > 1 {
        println!("## summary over {repeat} sets: median [q1, q3] spread vs bound");
        for name in names {
            for def in END_TO_END {
                let values = &e2e[&(name.to_string(), def.name.to_string())];
                let median = stats::median(values);
                let (q1, q3) = stats::quartiles(values);
                let spread = (q3 - q1) / median;
                let (first, second) = values.split_at(values.len() / 2);
                let (a, b) = (stats::median(first), stats::median(second));
                let worsening = if def.higher_is_better {
                    (a - b) / a
                } else {
                    (b - a) / a
                };
                let agree = worsening <= def.bound;
                // Quartiles need a handful of values; setup_s is exempt from
                // the spread rule (the acceptance check exempts it too).
                let steady = repeat < 4 || def.name == "setup_s" || spread <= def.bound;
                ok &= agree && steady;
                println!(
                    "{name} {:<16} {median:>14.6} [{q1:.6}, {q3:.6}] {} spread {:.4} bound {:.2} halves {:+.4}{}{}",
                    def.name,
                    def.unit,
                    spread,
                    def.bound,
                    worsening,
                    if steady { "" } else { "  SPREAD > BOUND" },
                    if agree { "" } else { "  SETS DISAGREE" },
                );
            }
        }
        for ((name, metric), values) in &exact {
            if values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                ok = false;
                println!("{name} {metric} is not bit-equal between sets: {values:?}");
            }
        }
        println!(
            "## exact counters {} between sets",
            if ok { "repeat" } else { "or bounds FAILED" }
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_round_trips_and_keeps_every_digit() {
        let r = result_line(
            1000,
            0,
            [
                ("latency_ms", "ms", 1.2034567890123),
                ("setup_s", "s", 0.8127),
            ]
            .into_iter(),
        );
        assert!(r.correct);
        assert_eq!(
            r.line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034567890123, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        let (correct, values) = parse_result_line(&r.line).unwrap();
        assert!(correct);
        assert_eq!(values["latency_ms"], 1.2034567890123);
        assert_eq!(values["setup_s"], 0.8127);
    }

    #[test]
    fn any_failed_op_makes_the_run_incorrect() {
        let r = result_line(10, 1, [("x", "ms", f64::INFINITY)].into_iter());
        assert!(!r.correct);
        assert!(r
            .line
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1"));
        assert!(!r.line.contains("inf"));
        assert!(
            !result_line(0, 0, std::iter::empty()).correct,
            "nothing attempted is not a pass"
        );
    }
}
