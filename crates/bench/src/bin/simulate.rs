//! Runs the benchmark applications against the simulated distributed
//! store (`txdpor-store`) and checks every recorded execution against the
//! deployment's claimed isolation spec with the witnessed checker.
//!
//! One row per `(app, deployment, fault plan, seed)`: the simulation is a
//! pure function of that tuple, so every verdict — consistent with a
//! replaying witness, or a minimal violation core — can be reproduced
//! exactly by re-running the same configuration.
//!
//! Usage: `cargo run --release -p txdpor-bench --bin simulate [options]`
//!
//! - `--apps <name[,name...]>` — applications (default: all five);
//! - `--deployments <name[,name...]>` — `ser`, `si`, `causal`, `mixed`
//!   (the app's mixed scenario), `si-unchecked`, `no-wal` (default: all);
//! - `--faults <plan>` — a fault-plan preset or `key=value` spec, e.g.
//!   `lossy` or `delay=5..400,drop=0.05,crash=0@2000..12000`; repeat the
//!   flag for several plans (default: `lossy`). Explicitly-written
//!   `crash=` clauses must name shards of the actual cluster
//!   (`--shards`); presets instead reduce their indexes modulo the shard
//!   count;
//! - `--seeds <n[,n...]>` — run seeds (default: `1,2,3`);
//! - `--sessions <n>`, `--transactions <n>`, `--shards <n>` — workload
//!   shape and cluster size;
//! - `--repeat-check` — run every configuration twice and fail unless the
//!   recorded histories are bit-identical;
//! - `--require consistent|violation` — exit 3 unless every row is
//!   consistent (with a replaying witness), resp. at least one row is a
//!   violation (with a closed core);
//! - `--json <path>` — write the rows as JSON.
//!
//! Exit codes: 0 success, 1 I/O error, 2 malformed arguments, 3 a
//! `--repeat-check` or `--require` check failed. All failures print a
//! readable reason; none panic.

use std::process::exit;

use txdpor_analysis::DecomposingChecker;
use txdpor_apps::{app_sim_config, mixed_deployment, App};
use txdpor_bench::json::JsonValue;
use txdpor_history::ConsistencyChecker;
use txdpor_store::{run_simulation, Deployment, FaultPlan};

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Require {
    Consistent,
    Violation,
}

struct Args {
    apps: Vec<App>,
    deployments: Vec<String>,
    faults: Vec<(String, FaultPlan)>,
    seeds: Vec<u64>,
    sessions: usize,
    transactions: usize,
    shards: u32,
    repeat_check: bool,
    require: Option<Require>,
    json: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    fn value(args: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
        args.next()
            .cloned()
            .ok_or_else(|| format!("{flag} expects a value"))
    }
    let mut parsed = Args {
        apps: App::ALL.to_vec(),
        deployments: DEPLOYMENT_NAMES.iter().map(|s| s.to_string()).collect(),
        faults: vec![(
            "lossy".into(),
            FaultPlan::preset("lossy").expect("\"lossy\" is a built-in fault preset"),
        )],
        seeds: vec![1, 2, 3],
        sessions: 3,
        transactions: 2,
        shards: 3,
        repeat_check: false,
        require: None,
        json: None,
    };
    let mut faults_given = false;
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--apps" => {
                let v = value(&mut args, "--apps")?;
                parsed.apps = v
                    .split(',')
                    .map(|name| {
                        let name = name.trim();
                        App::ALL
                            .into_iter()
                            .find(|a| a.name() == name)
                            .ok_or_else(|| {
                                format!(
                                    "--apps: unknown application {name:?} (expected one of {})",
                                    App::ALL.map(|a| a.name()).join(", ")
                                )
                            })
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--deployments" => {
                let v = value(&mut args, "--deployments")?;
                parsed.deployments = v
                    .split(',')
                    .map(|name| {
                        let name = name.trim();
                        if DEPLOYMENT_NAMES.contains(&name) {
                            Ok(name.to_string())
                        } else {
                            Err(format!(
                                "--deployments: unknown deployment {name:?} (expected one of {})",
                                DEPLOYMENT_NAMES.join(", ")
                            ))
                        }
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--faults" => {
                // One plan per occurrence (a `key=value` spec itself
                // contains commas); repeat the flag for several plans.
                // The first occurrence replaces the default.
                let v = value(&mut args, "--faults")?;
                let s = v.trim();
                let plan = s
                    .parse::<FaultPlan>()
                    .map_err(|e| format!("--faults: {e}"))?;
                if !faults_given {
                    parsed.faults.clear();
                    faults_given = true;
                }
                parsed.faults.push((s.to_string(), plan));
            }
            "--seeds" => {
                let v = value(&mut args, "--seeds")?;
                parsed.seeds = v
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<u64>()
                            .map_err(|_| format!("--seeds expects numbers, got {:?}", s.trim()))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--sessions" => {
                let v = value(&mut args, "--sessions")?;
                parsed.sessions = v
                    .parse()
                    .map_err(|_| format!("--sessions expects a number, got {v:?}"))?;
            }
            "--transactions" => {
                let v = value(&mut args, "--transactions")?;
                parsed.transactions = v
                    .parse()
                    .map_err(|_| format!("--transactions expects a number, got {v:?}"))?;
            }
            "--shards" => {
                let v = value(&mut args, "--shards")?;
                parsed.shards = v
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("--shards expects a positive number, got {v:?}"))?;
            }
            "--repeat-check" => parsed.repeat_check = true,
            "--require" => {
                let v = value(&mut args, "--require")?;
                parsed.require = Some(match v.as_str() {
                    "consistent" => Require::Consistent,
                    "violation" => Require::Violation,
                    other => {
                        return Err(format!(
                            "--require expects 'consistent' or 'violation', got {other:?}"
                        ))
                    }
                });
            }
            "--json" => parsed.json = Some(value(&mut args, "--json")?),
            other => return Err(format!("unknown flag {other:?} (see --help in the source)")),
        }
    }
    // Cluster-dependent validation happens after the whole command line is
    // read, because `--shards` may legally follow `--faults`. Presets are
    // exempt: their crash indexes reduce modulo the shard count by design.
    for (fname, plan) in &parsed.faults {
        if FaultPlan::preset(fname).is_none() {
            plan.validate_cluster(parsed.shards)
                .map_err(|e| format!("--faults {fname:?}: {e}"))?;
        }
    }
    Ok(parsed)
}

const DEPLOYMENT_NAMES: [&str; 6] = ["ser", "si", "causal", "mixed", "si-unchecked", "no-wal"];

fn deployment_for(name: &str, app: App) -> Deployment {
    match name {
        "ser" => Deployment::ser(),
        "si" => Deployment::si(),
        "causal" => Deployment::causal(),
        "mixed" => mixed_deployment(app),
        "si-unchecked" => Deployment::si_unchecked(),
        "no-wal" => Deployment::no_wal(),
        other => unreachable!("deployment {other} validated at parse time"),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simulate: {e}");
            exit(2);
        }
    };

    let mut rows: Vec<JsonValue> = Vec::new();
    let mut violations = 0usize;
    let mut failures: Vec<String> = Vec::new();

    for app in &args.apps {
        for dname in &args.deployments {
            for (fname, faults) in &args.faults {
                for &seed in &args.seeds {
                    let label = format!("{}/{dname}/{fname}/{seed}", app.name());
                    let mut cfg = app_sim_config(
                        *app,
                        args.sessions,
                        args.transactions,
                        seed,
                        deployment_for(dname, *app),
                        faults.clone(),
                    );
                    cfg.num_shards = args.shards;
                    let out = run_simulation(&cfg);
                    let fingerprint = out.history.fingerprint_hash();
                    if args.repeat_check {
                        let replay = run_simulation(&cfg);
                        if replay.history.fingerprint_hash() != fingerprint
                            || replay.stats != out.stats
                        {
                            failures.push(format!(
                                "{label}: replay diverged — simulation is not deterministic"
                            ));
                        }
                    }
                    // The decomposing wrapper splits the recorded history
                    // along its communication graph and checks components
                    // independently; verdicts (witness included) are
                    // recombined, so the row's semantics are unchanged.
                    let mut checker = DecomposingChecker::new(&out.claimed, true);
                    let verdict = checker.check_witnessed(&out.history);
                    let engine = checker.stats();
                    let (verdict_str, detail) = match (verdict.witness(), verdict.violation()) {
                        (Some(w), _) => {
                            if w.replays(&out.history, &out.claimed) {
                                ("consistent", String::new())
                            } else {
                                failures.push(format!("{label}: witness does not replay"));
                                ("consistent-unreplayable", String::new())
                            }
                        }
                        (None, Some(v)) => {
                            violations += 1;
                            let closed = v
                                .cycle
                                .iter()
                                .zip(v.cycle.iter().cycle().skip(1))
                                .all(|(e, next)| e.to == next.from);
                            if !closed {
                                failures
                                    .push(format!("{label}: violation core is not a closed cycle"));
                            }
                            ("violation", v.to_string())
                        }
                        (None, None) => unreachable!("verdict carries witness or violation"),
                    };
                    if args.require == Some(Require::Consistent) && verdict_str != "consistent" {
                        failures.push(format!("{label}: expected consistent, got {verdict_str}"));
                    }
                    // Recovery invariants hold for every deployment —
                    // no-wal loses durability, not shard-local sanity — so
                    // a breach is always a failure, `--require` or not.
                    for b in &out.invariant_breaches {
                        failures.push(format!("{label}: invariant breach: {b}"));
                    }
                    let recovery = if out.stats.crashes == 0 {
                        String::new()
                    } else {
                        format!(
                            ", {} crashes, {} wal replayed, {}+{} in-doubt (commit/presumed-abort)",
                            out.stats.crashes,
                            out.stats.wal_replayed,
                            out.stats.indoubt_committed,
                            out.stats.indoubt_aborted,
                        )
                    };
                    println!(
                        "[simulate] {label}: {verdict_str} ({} committed, {} aborted attempts, \
                         {} resends, {} dropped, {} given up{recovery}){}",
                        out.stats.committed,
                        out.stats.attempts_aborted,
                        out.stats.rpc_resends,
                        out.stats.dropped,
                        out.stats.given_up,
                        if detail.is_empty() {
                            String::new()
                        } else {
                            format!("\n           core: {detail}")
                        }
                    );
                    rows.push(JsonValue::Object(vec![
                        ("app".into(), JsonValue::str(app.name())),
                        ("deployment".into(), JsonValue::str(dname.clone())),
                        ("faults".into(), JsonValue::str(fname.clone())),
                        ("seed".into(), JsonValue::uint(seed)),
                        ("claimed".into(), JsonValue::str(out.claimed.label())),
                        ("verdict".into(), JsonValue::str(verdict_str)),
                        ("violation".into(), {
                            if detail.is_empty() {
                                JsonValue::Null
                            } else {
                                JsonValue::str(detail.clone())
                            }
                        }),
                        ("components".into(), JsonValue::uint(checker.components())),
                        (
                            "largest_component".into(),
                            JsonValue::uint(checker.largest_component()),
                        ),
                        // Named as in fig14's rows.
                        (
                            "check_cpu_nanos".into(),
                            JsonValue::uint(engine.check_nanos),
                        ),
                        ("search_nodes".into(), JsonValue::uint(engine.search_nodes)),
                        (
                            "fingerprint".into(),
                            JsonValue::str(format!("{:016x}{:016x}", fingerprint.0, fingerprint.1)),
                        ),
                        ("committed".into(), JsonValue::uint(out.stats.committed)),
                        ("given_up".into(), JsonValue::uint(out.stats.given_up)),
                        ("messages".into(), JsonValue::uint(out.stats.messages)),
                        ("dropped".into(), JsonValue::uint(out.stats.dropped)),
                        ("duplicated".into(), JsonValue::uint(out.stats.duplicated)),
                        ("rpc_resends".into(), JsonValue::uint(out.stats.rpc_resends)),
                        (
                            "attempts_aborted".into(),
                            JsonValue::uint(out.stats.attempts_aborted),
                        ),
                        ("sim_time_us".into(), JsonValue::uint(out.stats.sim_time_us)),
                        ("crashes".into(), JsonValue::uint(out.stats.crashes)),
                        ("crash_drops".into(), JsonValue::uint(out.stats.crash_drops)),
                        (
                            "wal_replayed".into(),
                            JsonValue::uint(out.stats.wal_replayed),
                        ),
                        (
                            "indoubt_committed".into(),
                            JsonValue::uint(out.stats.indoubt_committed),
                        ),
                        (
                            "indoubt_aborted".into(),
                            JsonValue::uint(out.stats.indoubt_aborted),
                        ),
                        (
                            "invariant_breaches".into(),
                            JsonValue::Array(
                                out.invariant_breaches
                                    .iter()
                                    .map(|b| JsonValue::str(b.clone()))
                                    .collect(),
                            ),
                        ),
                    ]));
                }
            }
        }
    }

    if args.require == Some(Require::Violation) && violations == 0 {
        failures.push("expected at least one violation, every row was consistent".into());
    }

    println!(
        "\ntotal rows: {}, violations: {}, check failures: {}",
        rows.len(),
        violations,
        failures.len()
    );

    if let Some(path) = &args.json {
        let doc = JsonValue::Object(vec![
            ("experiment".into(), JsonValue::str("simulate")),
            (
                "config".into(),
                JsonValue::Object(vec![
                    ("sessions".into(), JsonValue::uint(args.sessions as u64)),
                    (
                        "transactions".into(),
                        JsonValue::uint(args.transactions as u64),
                    ),
                    ("shards".into(), JsonValue::uint(args.shards as u64)),
                ]),
            ),
            ("rows".into(), JsonValue::Array(rows)),
        ]);
        if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("simulate: failed to write {path}: {e}");
            exit(1);
        }
        println!("wrote {path}");
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("simulate: FAIL: {f}");
        }
        exit(3);
    }
}
