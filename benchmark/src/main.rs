//! The repository benchmark. One command, four workloads, end-to-end and
//! per-layer metrics; see `README.md` beside this crate for what each
//! number means and `BENCHMARK.json` at the repository root for the
//! contract the numbers are held to.
//!
//! ```text
//! flexpath-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one pass of one workload; the last stdout line is the result JSON
//! flexpath-benchmark [--workload <name>|all] [--seed <n>] [--smoke] [--repeat <N>]
//!     untraced then traced pass of each workload, every metric printed
//! ```

mod frozen;
mod layers;
mod metrics;
mod noise;
mod openloop;
mod report;
mod rng;
mod scratch;
mod spans;
mod stats;
mod workloads;

use workloads::{Params, Res};

/// `run_seconds` of `BENCHMARK.json`; the default when `--seconds` is not
/// given.
const RUN_SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 0.5;

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    repeat: usize,
}

fn parse_args() -> Res<Args> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: frozen::DEFAULT_SEED,
        seconds: None,
        trace: None,
        smoke: false,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; choose one of {} or all",
            args.workload,
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

fn run_end_to_end(workload: &str, p: &Params) -> Res<workloads::EndToEnd> {
    match workload {
        "structural_relax" => workloads::end_to_end(&workloads::structural::Structural, p),
        "fulltext_mix" => workloads::end_to_end(&workloads::fulltext::FullText::new(p.seed), p),
        "cold_start" => workloads::end_to_end(&workloads::cold::ColdStart, p),
        _ => workloads::serve::end_to_end(p),
    }
}

fn run_traced(workload: &str, p: &Params) -> Res<workloads::Traced> {
    match workload {
        "structural_relax" => workloads::traced(&workloads::structural::Structural, p),
        "fulltext_mix" => workloads::traced(&workloads::fulltext::FullText::new(p.seed), p),
        "cold_start" => workloads::traced(&workloads::cold::ColdStart, p),
        _ => workloads::serve::traced(p),
    }
}

/// One pass of one workload in this process. Prints the metrics by name
/// and unit, then the result object as the last line.
fn single_pass(workload: &str, p: &Params, traced: bool) -> Res<bool> {
    report::print_host_facts(workload, p, traced);
    let outcome = if traced {
        let t = run_traced(workload, p)?;
        report::print_traced(workload, &t);
        report::result_line(
            t.attempted,
            t.failed,
            t.ledger
                .rows()
                .map(|(name, unit, _, value)| (name, unit, value)),
        )
    } else {
        let e = run_end_to_end(workload, p)?;
        report::print_end_to_end(workload, &e);
        report::result_line(
            e.attempted,
            e.failed,
            metrics::END_TO_END
                .iter()
                .map(|d| (d.name, d.unit, e.value(d.name))),
        )
    };
    println!("{}", outcome.line);
    Ok(outcome.correct)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flexpath-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let p = Params {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            SMOKE_SECONDS
        } else {
            RUN_SECONDS
        }),
        smoke: args.smoke,
    };
    let result = match (args.workload.as_str(), args.trace) {
        (workload, Some(traced)) if workload != "all" && args.repeat == 1 => {
            single_pass(workload, &p, traced)
        }
        (workload, _) => {
            let names: Vec<&str> = workloads::NAMES
                .iter()
                .copied()
                .filter(|n| workload == "all" || *n == workload)
                .collect();
            report::run_sets(&names, &p, args.repeat)
        }
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("flexpath-benchmark: {e}");
            std::process::exit(1);
        }
    }
}
