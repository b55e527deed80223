//! One-shot reproduction driver for the paper's figures.
//!
//! ```text
//! repro all                      # every figure, CI scale (0.1 × paper sizes)
//! repro fig10 fig15              # selected figures
//! repro all --scale 1.0          # paper-scale document sizes (1–100 MB)
//! repro all --repeats 5          # median of 5 runs per cell
//! repro all --json out.json      # also dump machine-readable series
//! repro all --metrics results/metrics.json
//!                                # dump the engine metrics registry
//!                                # (same JSON the CLI's --metrics shows)
//! repro --recorder-overhead results/recorder_overhead.json
//!                                # flight-recorder cost per query on the
//!                                # fig10 workload (must stay < 2%)
//! repro all --store results/store
//!                                # cache sessions in a persistent store:
//!                                # first run indexes+saves, later runs
//!                                # skip generation and preprocessing
//! repro --list                   # list figure ids
//! ```
//!
//! Figures run one after another: timing figures on a shared machine
//! would contend with each other.

use flexpath_bench::harness::{run_figure, FIGURES};
use flexpath_bench::report::{render_json, render_table};
use flexpath_serve::json::JsonBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut figures: Vec<String> = Vec::new();
    let mut scale = 0.1f64;
    let mut repeats = 3usize;
    let mut json_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut recorder_overhead_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => {
                for f in FIGURES {
                    println!("{:<24} {}", f.id, f.title);
                }
                return;
            }
            "--scale" => {
                i += 1;
                scale = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(scale);
            }
            "--repeats" => {
                i += 1;
                repeats = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(repeats);
            }
            "--json" => {
                i += 1;
                json_path = args.get(i).cloned();
            }
            "--metrics" => {
                i += 1;
                metrics_path = args.get(i).cloned();
            }
            "--recorder-overhead" => {
                i += 1;
                match args.get(i) {
                    Some(path) => recorder_overhead_path = Some(path.clone()),
                    None => {
                        eprintln!("--recorder-overhead requires an output path");
                        std::process::exit(2);
                    }
                }
            }
            "--store" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => flexpath_bench::workload::set_store_dir(dir),
                    None => {
                        eprintln!("--store requires a directory");
                        std::process::exit(2);
                    }
                }
            }
            "all" => figures.extend(FIGURES.iter().map(|f| f.id.to_string())),
            other => figures.push(other.to_string()),
        }
        i += 1;
    }
    if let Some(path) = &recorder_overhead_path {
        let report = flexpath_bench::recorder_overhead::run(scale);
        println!("{}", report.render_table());
        write_report(path, &report.render_json());
    }
    if figures.is_empty() {
        if recorder_overhead_path.is_some() {
            return;
        }
        eprintln!(
            "usage: repro <all|figNN|ablation_*>... [--scale F] [--repeats N] [--json PATH] \
             [--metrics PATH] [--store DIR] [--recorder-overhead PATH]"
        );
        eprintln!("       repro --list");
        std::process::exit(2);
    }
    figures.dedup();

    println!(
        "reproducing {} figure(s) at scale {scale} ({} repeats per cell)\n",
        figures.len(),
        repeats
    );

    let mut all = Vec::new();
    for id in &figures {
        match run_figure(id, scale, repeats) {
            Some(series) => {
                println!("{}\n", render_table(&series));
                all.push(series);
            }
            None => eprintln!("unknown figure id: {id} (try --list)"),
        }
    }
    all.sort_by(|a, b| a.id.cmp(&b.id));
    if let Some(path) = json_path {
        let body: Vec<String> = all.iter().map(render_json).collect();
        write_report(&path, &format!("[{}]", body.join(",")));
    }
    if let Some(path) = metrics_path {
        // The cumulative engine registry over every figure just run — the
        // same JSON `GET /metrics?format=json` serves.
        let mut b = JsonBuf::new();
        b.metrics_snapshot(&flexpath_engine::metrics::global().snapshot());
        write_report(&path, &b.finish());
    }
}

/// Writes `body` to `path`, creating parent directories as needed
/// (`--json results/run.json` should create `results/`, not error).
fn write_report(path: &str, body: &str) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("cannot create {}: {e}", parent.display());
                std::process::exit(1);
            }
        }
    }
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
}
