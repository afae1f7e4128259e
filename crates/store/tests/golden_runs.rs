//! Golden runs: pinned counters and history fingerprints of seeded
//! simulations, so a store change that perturbs the random draws or the
//! `(time, seq)` order of events fails here rather than only in the
//! benchmark's pinned answers.
//!
//! Every deployment runs under `lossy` and `crash-chaos`, in a long shape
//! (4 sessions × 16 transactions) and a contended one (6 × 4). A change
//! that is meant to alter runs must say why in its description and re-pin
//! the table from the failure message, which prints every row.

use txdpor_program::dsl::*;
use txdpor_program::Program;
use txdpor_store::{
    run_simulation, run_simulation_traced, Deployment, FaultPlan, ProtocolMode, SimConfig,
};

/// A bank over `accounts` accounts: transfers (read two, write two),
/// deposits (read-modify-write one) and audits (read three), assigned by
/// a fixed arithmetic pattern so the program is a pure function of its
/// shape.
fn bank_program(sessions: usize, transactions: usize, accounts: usize) -> Program {
    let acct = |k: usize| g(format!("a{}", k % accounts));
    let ss = (0..sessions)
        .map(|s| {
            let txs = (0..transactions)
                .map(|t| {
                    let k = s * 7 + t * 3;
                    match (s + t) % 3 {
                        0 => tx(
                            "transfer",
                            vec![
                                read("x", acct(k)),
                                read("y", acct(k + 1)),
                                write(acct(k), sub(local("x"), cint(1))),
                                write(acct(k + 1), add(local("y"), cint(1))),
                            ],
                        ),
                        1 => tx(
                            "deposit",
                            vec![
                                read("x", acct(k + 2)),
                                write(acct(k + 2), add(local("x"), cint(5))),
                            ],
                        ),
                        _ => tx(
                            "audit",
                            vec![
                                read("x", acct(k)),
                                read("y", acct(k + 1)),
                                read("z", acct(k + 2)),
                            ],
                        ),
                    }
                })
                .collect();
            session(txs)
        })
        .collect();
    program(ss)
}

fn deployments() -> Vec<Deployment> {
    vec![
        Deployment::ser(),
        Deployment::si(),
        Deployment::causal(),
        Deployment::mixed(vec![("transfer".into(), ProtocolMode::Serializable)]),
        Deployment::si_unchecked(),
        Deployment::no_wal(),
    ]
}

/// One line per run: deployment, faults, sessions × transactions, seed,
/// then the pinned messages, dropped, committed, crashes, wal_replayed and
/// history fingerprint.
const GOLDEN: &str = "
ser          lossy       4x16  1  1377   94 64 0  0 b2460d597fcb06ec77b44364431ccff7
ser          lossy       6x4   2   537   36 24 0  0 9f23329e1240aec7c00365184b19a9f1
ser          crash-chaos 4x16  3  1608  140 64 3  8 b11e9a9b5a27087c6a00638da6ce4c71
ser          crash-chaos 6x4   4   976  106 24 3 12 8b17e07c96576440cd01175560f6d3a6
si           lossy       4x16  5  1001   42 64 0  0 141947bad3afe995aa58f6b56ff05958
si           lossy       6x4   6   430   23 24 0  0 4fd4e3e3fb5c9ac717432b871e52f016
si           crash-chaos 4x16  7  1336  142 64 3  3 bc82d25116521b11a8f4b40ba0e813d6
si           crash-chaos 6x4   8   629   68 24 3  4 b4fe94558b23f89e420db794ad8fedce
causal       lossy       4x16  9   898   55 64 0  0 baeac879cb4e1d5568093a921131bf58
causal       lossy       6x4  10   402   17 24 0  0 abb84f7bf4088c76f7db080940212c06
causal       crash-chaos 4x16 11  1128  116 64 3  3 8c49275c0b954e9f9a6c9daf06f23235
causal       crash-chaos 6x4  12   440   42 24 3  4 972eb25dfd2f86333ac3545bad6afeb2
mixed        lossy       4x16 13  1024   54 64 0  0 c3d8ec94c5e5df380bc386c5c2d14206
mixed        lossy       6x4  14   513   27 24 0  0 7285481ff92a9ee062d0515a174c76bb
mixed        crash-chaos 4x16 15  1177  125 64 3  7 9b752c360444402306309b8b662ff005
mixed        crash-chaos 6x4  16   499   38 24 3  2 72025b42b9fc72e84cd8f7fef6d4f9cd
si-unchecked lossy       4x16 17   971   47 64 0  0 9c7f24bd3b4ded23361ab497fd99f3e7
si-unchecked lossy       6x4  18   376   19 24 0  0 0200ad132180c713f8430539df804341
si-unchecked crash-chaos 4x16 19  1205  113 64 3  5 43f13104a1dc455d882198fc3efc5dd9
si-unchecked crash-chaos 6x4  20   460   51 24 3  4 acecc0568126b6ceaa378712705c0c7a
no-wal       lossy       4x16 21  1051   54 64 0  0 a4f896b944ae876fe797636f5b4bbae6
no-wal       lossy       6x4  22   531   22 24 0  0 c325b5cade4fb6289d359a908bd2e50c
no-wal       crash-chaos 4x16 23  1202  139 64 3  1 dca4459a1b8c292560241ed966d637d1
no-wal       crash-chaos 6x4  24   527   46 24 3  3 415946afc8598682c2cc6e1a1a15ea46
";

#[test]
fn seeded_runs_match_their_golden_counters_and_fingerprints() {
    let mut got = Vec::new();
    let mut seed = 0u64;
    for deployment in deployments() {
        for faults in ["lossy", "crash-chaos"] {
            for (sessions, transactions) in [(4, 16), (6, 4)] {
                seed += 1;
                let cfg = SimConfig::new(
                    bank_program(sessions, transactions, 5),
                    deployment.clone(),
                    seed,
                    FaultPlan::preset(faults).expect("built-in preset"),
                );
                let out = run_simulation(&cfg);
                let s = out.stats;
                let (hi, lo) = out.history.fingerprint_hash();
                got.push(format!(
                    "{:<12} {faults:<11} {:<4} {seed:>2} {:>5} {:>4} {:>2} {} {:>2} {hi:016x}{lo:016x}",
                    deployment.name,
                    format!("{sessions}x{transactions}"),
                    s.messages,
                    s.dropped,
                    s.committed,
                    s.crashes,
                    s.wal_replayed
                ));
            }
        }
    }
    let want: Vec<&str> = GOLDEN.trim().lines().collect();
    assert!(
        got == want,
        "golden runs changed; the runs now read:\n{}",
        got.join("\n")
    );
}

#[test]
fn the_traced_run_is_the_same_run() {
    for deployment in [Deployment::si(), Deployment::no_wal()] {
        let cfg = SimConfig::new(
            bank_program(6, 4, 5),
            deployment,
            5,
            FaultPlan::preset("crash-chaos").expect("built-in preset"),
        );
        let plain = run_simulation(&cfg);
        let (traced, trace) = run_simulation_traced(&cfg);
        assert_eq!(plain.stats, traced.stats);
        assert_eq!(
            plain.history.fingerprint_hash(),
            traced.history.fingerprint_hash()
        );
        assert!(trace.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        assert_eq!(trace.last(), Some(&traced.stats.sim_time_us));
    }
}
