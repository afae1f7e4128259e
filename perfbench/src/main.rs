//! End-to-end and per-layer benchmark of txdpor.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <explore-cc|explore-strong|simulate|explore-par2> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --pin [--fig14 BENCH_fig14.json]
//! ```
//!
//! A run sets up five times (load the pinned answers, draw and generate
//! the seed's case list, run an unmeasured warm-up) and reports the median
//! set-up time. It then repeats measured passes over the case list until
//! `--seconds` is used up, checking every answer; times are scaled to a
//! reference speed (see `calibrate`). With `--trace 0` the
//! last stdout line carries the end-to-end metrics; with `--trace 1`
//! passes alternate between traced and untraced, the spans are written to
//! `perfbench/traces/`, and the line carries the per-layer metrics.

mod calibrate;
mod expected;
mod pin;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;

use crate::expected::Expected;
use crate::stats::{median, ratio, tail, RATIOS};
use crate::trace::{totals_by_name, Tracer};
use crate::workload::{build_cases, run_case, Case, Counters, Workload};

// Peak heap per case comes from `txdpor_bench::alloc`, whose counting
// allocator the `txdpor-bench` library installs in every binary linking it.

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest measured passes of a run (of each kind, when tracing); the tail
/// percentile is chosen for this many passes.
const MIN_PASSES: usize = 5;
/// Case id of spans outside any case.
const NO_CASE: u32 = u32::MAX;
/// Per-layer times read off the spans around the calls into the layers:
/// `(metric, span)`. Together the spans give a traced pass's coverage.
const SPAN_METRICS: [(&str, &str); 4] = [
    ("explore.span_ms", "explore"),
    ("store.run_ms", "store.run"),
    ("analysis.check_witnessed_ms", "analysis.check_witnessed"),
    ("history.replay_ms", "history.replay"),
];

/// End-to-end metrics with their units, in report order.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("verdict_ms_p50", "ms"),
    ("verdict_ms_tail", "ms"),
    ("work_per_s", "1/s"),
    ("peak_alloc_mb", "MiB"),
];

/// Per-layer metrics with their units, in report order.
const PER_LAYER: [(&str, &str); 35] = [
    ("apps.generate_ms", "ms"),
    ("explore.span_ms", "ms"),
    ("explore.self_ms", "ms"),
    ("explore.calls", "count"),
    ("explore.end_states", "count"),
    ("explore.outputs", "count"),
    ("explore.output_yield", "ratio"),
    ("explore.statically_pruned", "count"),
    ("explore.steals", "count"),
    ("history.clones", "count"),
    ("history.bytes_copied", "bytes"),
    ("history.check.full_rebuilds", "count"),
    ("history.check.incremental_share", "ratio"),
    ("history.check.cpu_ms", "ms"),
    ("history.check.checks", "count"),
    ("history.check.memo_hit_rate", "ratio"),
    ("history.check.memo_evictions", "count"),
    ("history.check.shared_memo_hits", "count"),
    ("history.replay_ms", "ms"),
    ("analysis.check_witnessed_ms", "ms"),
    ("analysis.components", "count"),
    ("analysis.largest_component", "count"),
    ("analysis.violations", "count"),
    ("store.run_ms", "ms"),
    ("store.messages", "count"),
    ("store.messages_per_s", "1/s"),
    ("store.dropped", "count"),
    ("store.rpc_resends", "count"),
    ("store.attempts_aborted", "count"),
    ("store.commit_yield", "ratio"),
    ("store.given_up", "count"),
    ("store.wal_replayed", "count"),
    ("store.crashes", "count"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    Pin(Option<PathBuf>),
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut pin = false;
    let mut fig14 = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            pin = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = || format!("{flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--fig14" => fig14 = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if pin {
        return Ok(Command::Pin(fig14));
    }
    let workload = workload.ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("--workload is required (one of {})", names.join(", "))
    })?;
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

struct Setup {
    cases: Vec<Case>,
    seconds: f64,
    generate_ms: f64,
}

/// Loads the pinned answers, generates the seed's inputs and warms up on
/// the cheapest case of every application.
fn setup(workload: Workload, seed: u64, tracer: &mut Tracer) -> Result<Setup, String> {
    let before = calibrate::kernel_ms(workload.threads());
    let start = Instant::now();
    tracer.enter("setup", NO_CASE);
    let expected = tracer.span("expected.load", NO_CASE, || {
        Expected::load(&bench_dir().join("expected"))
    });
    let expected = match expected {
        Ok(e) => e,
        Err(e) => {
            tracer.exit();
            return Err(e);
        }
    };
    let generate = Instant::now();
    let cases = tracer.span("apps.generate", NO_CASE, || {
        build_cases(workload, seed, &expected)
    });
    let generate_ms = generate.elapsed().as_secs_f64() * 1e3;
    let mut cheapest: BTreeMap<&str, &Case> = BTreeMap::new();
    for case in &cases {
        let e = cheapest.entry(case.app()).or_insert(case);
        if case.pinned_cost_ms() < e.pinned_cost_ms() {
            *e = case;
        }
    }
    tracer.enter("warmup", NO_CASE);
    for case in cheapest.values() {
        run_case(case, NO_CASE, &mut Tracer::new(false), &mut Counters::new());
    }
    tracer.exit();
    tracer.exit();
    let seconds = start.elapsed().as_secs_f64();
    let kernel_ms = (before + calibrate::kernel_ms(workload.threads())) / 2.0;
    Ok(Setup {
        cases,
        seconds: seconds * calibrate::REFERENCE_MS / kernel_ms,
        generate_ms,
    })
}

/// One measured pass over the case list. Times are scaled to the
/// reference speed (see [`calibrate`]) unless named `raw`.
struct Pass {
    traced: bool,
    wall_s: f64,
    raw_wall_s: f64,
    case_ms: Vec<f64>,
    peak_bytes: usize,
    counters: Counters,
    failures: Vec<String>,
    /// Total and self nanoseconds per span name (traced passes only).
    spans: BTreeMap<&'static str, (u64, u64)>,
}

/// Reference-kernel samples per pass: one before each block of cases.
const CALIBRATIONS_PER_PASS: usize = 20;

fn run_pass(cases: &[Case], threads: usize, tracer: &mut Tracer) -> Pass {
    let mark = tracer.len();
    let mut counters = Counters::new();
    let mut case_ms = Vec::with_capacity(cases.len());
    let mut failures = Vec::new();
    let mut peak_bytes = 0;
    let (mut wall_s, mut raw_wall_s) = (0.0, 0.0);
    let block = cases.len().div_ceil(CALIBRATIONS_PER_PASS).max(1);
    tracer.enter("pass", NO_CASE);
    for (b, chunk) in cases.chunks(block).enumerate() {
        let kernel_ms = tracer.span("calibrate", NO_CASE, || calibrate::kernel_ms(threads));
        let scale = calibrate::REFERENCE_MS / kernel_ms;
        let start = Instant::now();
        for (j, case) in chunk.iter().enumerate() {
            let out = run_case(case, (b * block + j) as u32, tracer, &mut counters);
            case_ms.push(out.ms * scale);
            peak_bytes = peak_bytes.max(out.peak_bytes);
            if let Some(f) = out.failure {
                failures.push(format!("{}: {f}", case.label()));
            }
        }
        let raw = start.elapsed().as_secs_f64();
        raw_wall_s += raw;
        wall_s += raw * scale;
    }
    tracer.exit();
    Pass {
        traced: tracer.enabled(),
        wall_s,
        raw_wall_s,
        case_ms,
        peak_bytes,
        counters,
        failures,
        spans: totals_by_name(&tracer.since(mark)),
    }
}

/// Counters that must repeat exactly between passes (everything but
/// times).
fn counts(c: &Counters) -> impl Iterator<Item = (&&'static str, &f64)> {
    c.iter()
        .filter(|(k, _)| !k.ends_with("_ms") && !k.ends_with("_s"))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Command::Run(a)) => a,
        Ok(Command::Pin(fig14)) => {
            if let Err(e) = pin::pin(&bench_dir().join("expected"), fig14.as_deref()) {
                eprintln!("perfbench: pin failed: {e}");
                exit(1);
            }
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(2);
        }
    };
    let name = args.workload.name();
    let mut tracer = Tracer::new(args.trace);
    let mut untraced = Tracer::new(false);

    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        match setup(args.workload, args.seed, &mut tracer) {
            Ok(s) => setups.push(s),
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                exit(1);
            }
        }
    }
    let setup_s = median(&setups.iter().map(|s| s.seconds).collect::<Vec<_>>());
    let generate_ms = median(&setups.iter().map(|s| s.generate_ms).collect::<Vec<_>>());
    let cases = setups.pop().expect("at least one set-up").cases;
    println!(
        "[perfbench] {name} seed {}: {} cases pinned at {:.1} ms, set-up {setup_s:.3} s \
         (median of {SETUPS})",
        args.seed,
        cases.len(),
        cases.iter().map(Case::pinned_cost_ms).sum::<f64>()
    );

    // Measured passes; when tracing, traced and untraced passes alternate.
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let traced = args.trace && passes.len() % 2 == 0;
        let threads = args.workload.threads();
        let pass = run_pass(
            &cases,
            threads,
            if traced { &mut tracer } else { &mut untraced },
        );
        passes.push(pass);
        let kinds = if args.trace { 2 } else { 1 };
        let typical = median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        if passes.len() >= MIN_PASSES * kinds
            && start.elapsed().as_secs_f64() + typical > args.seconds
        {
            break;
        }
    }

    let mut failures: Vec<String> = Vec::new();
    let mut failed = 0;
    for (i, p) in passes.iter().enumerate() {
        failed += p.failures.len();
        failures.extend(p.failures.iter().map(|f| format!("pass {i}: {f}")));
    }
    if args.workload.threads() == 1 {
        for (i, p) in passes.iter().enumerate().skip(1) {
            for ((k, a), (_, b)) in counts(&passes[0].counters).zip(counts(&p.counters)) {
                if a != b {
                    failed += 1;
                    failures.push(format!("pass {i}: counter {k} = {b}, pass 0 had {a}"));
                }
            }
        }
    }
    for f in &failures {
        println!("[perfbench] FAIL {f}");
    }
    let attempted: usize = passes.iter().map(|p| p.case_ms.len()).sum();

    let metrics = if args.trace {
        if let Err(e) = write_trace(&tracer, name, args.seed) {
            eprintln!("perfbench: cannot write the trace: {e}");
        }
        per_layer(args.workload, &passes, generate_ms)
    } else {
        end_to_end(args.workload, &passes, setup_s)
    };
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    let units: BTreeMap<&str, &str> = END_TO_END.into_iter().chain(PER_LAYER).collect();
    for (i, (k, v)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{k}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            units[k]
        );
    }
    println!("{line}}}}}");
}

fn walls(passes: &[&Pass]) -> Vec<f64> {
    passes.iter().map(|p| p.wall_s).collect()
}

fn counter(c: &Counters, name: &str) -> f64 {
    c.get(name).copied().unwrap_or(0.0)
}

/// Work of one pass: explore calls, or simulated runs checked.
fn work(workload: Workload, c: &Counters) -> f64 {
    match workload {
        Workload::Simulate => counter(c, "store.runs"),
        _ => counter(c, "explore.calls"),
    }
}

fn end_to_end(workload: Workload, passes: &[Pass], setup_s: f64) -> Vec<(&'static str, f64)> {
    let all: Vec<&Pass> = passes.iter().collect();
    let samples: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.case_ms.iter().copied())
        .collect();
    let planned = passes[0].case_ms.len() * MIN_PASSES;
    let tail = tail(&samples, planned).expect("MIN_PASSES passes leave ten samples beyond p50");
    let wall_s = median(&walls(&all));
    let per_s: Vec<f64> = passes
        .iter()
        .map(|p| ratio(work(workload, &p.counters), p.wall_s))
        .collect();
    let peaks: Vec<f64> = passes
        .iter()
        .map(|p| p.peak_bytes as f64 / (1024.0 * 1024.0))
        .collect();
    let pass_walls: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.3}/{:.3}", p.wall_s, p.raw_wall_s))
        .collect();
    println!(
        "[perfbench] pass wall_s scaled/raw: {}",
        pass_walls.join(" ")
    );
    println!(
        "[perfbench] {} passes, wall_s median {wall_s:.4}; verdict_ms_tail is p{} over {} \
         case samples ({} beyond it)",
        passes.len(),
        tail.percentile,
        tail.samples,
        tail.beyond
    );
    vec![
        ("setup_s", setup_s),
        ("wall_s", wall_s),
        ("verdict_ms_p50", median(&samples)),
        ("verdict_ms_tail", tail.value),
        ("work_per_s", median(&per_s)),
        ("peak_alloc_mb", median(&peaks)),
    ]
}

fn per_layer(workload: Workload, passes: &[Pass], generate_ms: f64) -> Vec<(&'static str, f64)> {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let plain: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let over_traced =
        |f: &dyn Fn(&Pass) -> f64| median(&traced.iter().map(|p| f(p)).collect::<Vec<_>>());
    let span_ms = |p: &Pass, name: &str| p.spans.get(name).map_or(0.0, |s| s.0 as f64 / 1e6);
    let serial_explore = matches!(workload, Workload::ExploreCc | Workload::ExploreStrong);

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (name, _) in PER_LAYER {
        m.insert(name, over_traced(&|p| counter(&p.counters, name)));
    }
    for (name, span) in SPAN_METRICS {
        m.insert(name, over_traced(&|p| span_ms(p, span)));
    }
    for (name, num, base) in RATIOS {
        m.insert(
            name,
            over_traced(&|p| ratio(counter(&p.counters, num), counter(&p.counters, base))),
        );
    }
    m.insert("apps.generate_ms", generate_ms);
    m.insert(
        "explore.self_ms",
        if serial_explore {
            over_traced(&|p| span_ms(p, "explore") - counter(&p.counters, "history.check.cpu_ms"))
        } else {
            0.0
        },
    );
    let (traced_wall, plain_wall) = (median(&walls(&traced)), median(&walls(&plain)));
    m.insert(
        "trace.overhead",
        ratio(traced_wall - plain_wall, plain_wall),
    );
    m.insert(
        "trace.coverage",
        over_traced(&|p| {
            let covered: f64 = SPAN_METRICS.iter().map(|(_, s)| span_ms(p, s)).sum();
            ratio(covered / 1e3, p.raw_wall_s)
        }),
    );

    println!(
        "[perfbench] traced wall_s {traced_wall:.4} vs untraced {plain_wall:.4} \
         (overhead base: untraced wall_s)"
    );
    for (name, num, base) in RATIOS {
        println!("[perfbench] {name} = {num} / {base}");
    }
    let mut names: Vec<&str> = traced
        .iter()
        .flat_map(|p| p.spans.keys().copied())
        .collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let total = over_traced(&|p| p.spans.get(name).map_or(0.0, |s| s.0 as f64 / 1e6));
        let own = over_traced(&|p| p.spans.get(name).map_or(0.0, |s| s.1 as f64 / 1e6));
        println!("[perfbench] span {name}: {total:.2} ms per pass, self {own:.2} ms");
    }
    PER_LAYER.iter().map(|&(name, _)| (name, m[name])).collect()
}

fn write_trace(tracer: &Tracer, workload: &str, seed: u64) -> std::io::Result<()> {
    let dir = bench_dir().join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}-seed{seed}.tsv"));
    std::fs::write(&path, tracer.to_tsv())?;
    println!("[perfbench] spans written to {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expected::{ExploreAnswer, SimAnswer, SimKey};
    use crate::workload::{generate_program, sim_config, Algo};
    use txdpor_history::IsolationLevel;

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = bench_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc = txdpor_bench::json::JsonValue::parse(&text).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn cases_record_every_ratio_operand() {
        let program = generate_program(txdpor_apps::App::Twitter, 1, [0, 1, 2]);
        let explore_case = Case::Explore {
            name: "twitter-1:012".into(),
            algo: Algo::Ce(IsolationLevel::CausalConsistency),
            program,
            answer: ExploreAnswer {
                histories: 68,
                end_states: 68,
                explore_calls: 509,
                cost_ms: 0.0,
            },
        };
        let key = SimKey {
            app: "twitter".into(),
            shape: "2x2".into(),
            deployment: "ser".into(),
            faults: "lossy".into(),
            seed: 1,
        };
        let sim_case = Case::Simulate {
            config: Box::new(sim_config(&key)),
            answer: SimAnswer {
                verdict: "consistent".into(),
                fingerprint: String::new(),
                cost_ms: 0.0,
            },
            key,
        };
        let mut tracer = Tracer::new(true);
        let mut c = Counters::new();
        let out = run_case(&explore_case, 0, &mut tracer, &mut c);
        assert_eq!(out.failure, None, "twitter-1 CC matches the fig14 baseline");
        let out = run_case(&sim_case, 1, &mut tracer, &mut c);
        assert!(out.failure.unwrap().contains("pinned consistent / "));
        for (name, num, base) in RATIOS {
            assert!(c.contains_key(num), "{name}: numerator {num} not recorded");
            assert!(c.contains_key(base), "{name}: base {base} not recorded");
        }
        let spans = totals_by_name(&tracer.since(0));
        for (_, s) in SPAN_METRICS {
            assert!(spans.contains_key(s), "span {s} not recorded");
        }
    }

    #[test]
    fn arguments() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        match parse_args(&argv("--workload simulate --seed 7 --seconds 5 --trace 1")) {
            Ok(Command::Run(a)) => {
                assert_eq!(a.workload, Workload::Simulate);
                assert_eq!((a.seed, a.seconds, a.trace), (7, 5.0, true));
            }
            _ => panic!("valid arguments rejected"),
        }
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload simulate --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload simulate --bogus 1")).is_err());
    }
}
