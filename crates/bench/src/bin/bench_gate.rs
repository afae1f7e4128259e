//! Bench-regression gate: re-runs the deterministic courseware rows of
//! Fig. 14 and fails (exit 1) if any count (`histories`, `end_states`,
//! `explore_calls`) or `levels` spec label differs from the committed
//! `BENCH_fig14.json`, or if any re-run row breaks an engine or explorer
//! invariant (memo misses counted once, one cause per rebuild, no clones
//! on serial rows — see [`txdpor_bench::gate::invariant_failures`]).
//!
//! The exploration counts are pure functions of the algorithm and the
//! (seeded) benchmark program, so they are machine-independent — unlike
//! wall-clock time and peak allocation, which are reported but never
//! gated. Rows that timed out in the baseline are skipped (a timed-out
//! run's counts depend on where the clock cut it off). Rows the re-run
//! produces that the baseline does not know are listed once as *new* and
//! do not fail the gate; missing, mismatching and extra rows are collected
//! into one readable report (see [`txdpor_bench::gate`]).
//!
//! Usage: `cargo run --release -p txdpor-bench --bin bench_gate --
//! [--baseline BENCH_fig14.json] [--timeout <s>] [--apps courseware]`
//!
//! With `--parallel <fig14.json>` it re-runs nothing and instead compares
//! the `CC parN` rows of that fig14 document with its serial `CC` rows
//! (see [`txdpor_bench::gate::compare_parallel`]): counts must be
//! bit-identical and the average speedup over rows whose serial run took
//! at least `--min-serial-secs` must reach `--min-speedup`. The summary is
//! printed and written to `--out`. Exit status: 0 on success, 1 on a count
//! mismatch or insufficient speedup, 2 on malformed input.
//! `cargo run --release -p txdpor-bench --bin bench_gate -- --parallel
//! BENCH_fig14_par4.json [--workers 4] [--min-speedup 1.5]
//! [--min-serial-secs 2] [--out parallel_comparison.txt]`

use std::time::Duration;

use txdpor_bench::gate::{algorithm_for_label, baseline_rows, compare, compare_parallel};
use txdpor_bench::json::JsonValue;
use txdpor_bench::{experiment_fig14_with, flag_value, ExperimentOptions};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(path) = flag_value(&args, "--parallel") {
        std::process::exit(parallel_gate(&args, &path));
    }
    let baseline_path =
        flag_value(&args, "--baseline").unwrap_or_else(|| "BENCH_fig14.json".to_owned());
    let apps = flag_value(&args, "--apps").unwrap_or_else(|| "courseware".to_owned());
    let timeout: u64 = flag_value(&args, "--timeout")
        .and_then(|v| v.parse().ok())
        .unwrap_or(60);

    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_gate: cannot read {baseline_path}: {e}");
            std::process::exit(1);
        }
    };
    let doc = match JsonValue::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bench_gate: cannot parse {baseline_path}: {e}");
            std::process::exit(1);
        }
    };
    let config = doc.get("config");
    let field = |key: &str| -> usize {
        match config.and_then(|c| c.get(key)).and_then(JsonValue::as_i64) {
            Some(v) => v as usize,
            None => {
                eprintln!("bench_gate: baseline config lacks {key:?}");
                std::process::exit(1);
            }
        }
    };
    let app_names: Vec<String> = apps.split(',').map(|s| s.trim().to_owned()).collect();
    let options = ExperimentOptions {
        variants: field("variants"),
        sessions: field("sessions"),
        transactions: field("transactions"),
        timeout: Duration::from_secs(timeout),
        apps: Some(app_names.clone()),
        levels: None,
    };

    // Benchmarks are named `<app>-<variant>`: match the app name exactly,
    // mirroring the suite filter of `fig14_suite`.
    let in_suite = |bench: &str| {
        app_names.iter().any(|a| {
            bench
                .strip_prefix(a.as_str())
                .is_some_and(|rest| rest.starts_with('-'))
        })
    };
    let (gated, notices) = baseline_rows(&doc, in_suite);
    if gated.iter().all(|r| r.timed_out) {
        eprintln!("bench_gate: no gateable rows for apps {apps:?} in {baseline_path}");
        for n in &notices {
            eprintln!("note {n}");
        }
        std::process::exit(1);
    }

    // Re-run every algorithm with a count-comparable (non-timed-out)
    // baseline row on those apps; algorithms whose baseline rows all
    // timed out have nothing to compare and would only burn the timeout.
    let mut algorithms = Vec::new();
    for row in gated.iter().filter(|r| !r.timed_out) {
        match algorithm_for_label(&row.algorithm) {
            Some(a) if !algorithms.contains(&a) => algorithms.push(a),
            _ => {}
        }
    }
    let measured = experiment_fig14_with(&options, &algorithms);

    let mut report = compare(&gated, &measured, timeout);
    report.notices.splice(0..0, notices);
    print!("{}", report.render(&baseline_path));
    if !report.ok() {
        std::process::exit(1);
    }
}

/// The `--parallel` mode; returns the exit status.
fn parallel_gate(args: &[String], path: &str) -> i32 {
    let number = |flag: &str, default: f64| -> Option<f64> {
        flag_value(args, flag).map_or(Some(default), |v| v.parse().ok())
    };
    let workers = flag_value(args, "--workers").map_or(Some(4), |v| v.parse::<usize>().ok());
    let (Some(workers), Some(min_speedup), Some(min_serial_secs)) = (
        workers,
        number("--min-speedup", 1.5),
        number("--min-serial-secs", 2.0),
    ) else {
        eprintln!("bench_gate: --workers, --min-speedup and --min-serial-secs take numbers");
        return 2;
    };
    let out = flag_value(args, "--out").unwrap_or_else(|| "parallel_comparison.txt".to_owned());
    let report = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| JsonValue::parse(&text))
        .and_then(|doc| compare_parallel(&doc, workers, min_speedup, min_serial_secs));
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_gate: cannot compare {path}: {e}");
            return 2;
        }
    };
    let text = report.render(path);
    print!("{text}");
    if let Err(e) = std::fs::write(&out, &text) {
        eprintln!("bench_gate: cannot write {out}: {e}");
        return 2;
    }
    if report.ok() {
        0
    } else {
        1
    }
}
