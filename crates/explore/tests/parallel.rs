//! Determinism of the parallel frontier exploration: partitioning the
//! exploration tree across workers must not change what is explored. Every
//! deterministic quantity of the report — end states, outputs, blocked
//! reads, explore calls and the set of output-history fingerprints — must
//! be bit-identical to a serial run.

use std::collections::BTreeSet;

use txdpor_apps::workload::{client_program, App, WorkloadConfig};
use txdpor_explore::{explore, explore_with_assertion, AssertionCtx, ExploreConfig};
use txdpor_history::{HistoryFingerprint, IsolationLevel};
use txdpor_program::dsl::*;
use txdpor_program::Program;

fn fingerprints(report: &txdpor_explore::ExplorationReport) -> BTreeSet<HistoryFingerprint> {
    report.histories.iter().map(|h| h.fingerprint()).collect()
}

fn assert_parallel_matches_serial(program: &Program, config: ExploreConfig, workers: usize) {
    let serial = explore(program, config.clone().collecting_histories()).unwrap();
    let parallel = explore(program, config.collecting_histories().with_workers(workers)).unwrap();
    assert_eq!(serial.outputs, parallel.outputs, "outputs differ");
    assert_eq!(serial.end_states, parallel.end_states, "end states differ");
    assert_eq!(serial.blocked, parallel.blocked, "blocked counts differ");
    assert_eq!(
        serial.explore_calls, parallel.explore_calls,
        "explore calls differ"
    );
    assert_eq!(serial.max_events, parallel.max_events, "max events differ");
    assert_eq!(
        fingerprints(&serial),
        fingerprints(&parallel),
        "output-history fingerprint sets differ"
    );
}

fn two_writers_two_readers() -> Program {
    program(vec![
        session(vec![tx("w2", vec![write(g("x"), cint(2))])]),
        session(vec![tx("r1", vec![read("a", g("x"))])]),
        session(vec![tx("r2", vec![read("b", g("x"))])]),
        session(vec![tx("w4", vec![write(g("x"), cint(4))])]),
    ])
}

fn long_fork() -> Program {
    program(vec![
        session(vec![tx("wx", vec![write(g("x"), cint(1))])]),
        session(vec![tx("wy", vec![write(g("y"), cint(1))])]),
        session(vec![tx("r1", vec![read("a", g("x")), read("b", g("y"))])]),
        session(vec![tx("r2", vec![read("c", g("y")), read("d", g("x"))])]),
    ])
}

/// A program with a dynamically indexed global: the row that is read
/// depends on a value read earlier in the same transaction, so different
/// branches intern different variable names in different orders. The
/// canonical fingerprints must still line up between serial and parallel.
fn indexed_rows() -> Program {
    program(vec![
        session(vec![tx(
            "writer",
            vec![write(g("sel"), cint(1)), write(gi("row", cint(1)), cint(7))],
        )]),
        session(vec![tx(
            "reader",
            vec![read("i", g("sel")), read("v", gi("row", local("i")))],
        )]),
    ])
}

#[test]
fn parallel_matches_serial_on_explore_ce() {
    for workers in [2, 4] {
        assert_parallel_matches_serial(
            &two_writers_two_readers(),
            ExploreConfig::explore_ce(IsolationLevel::CausalConsistency),
            workers,
        );
    }
}

#[test]
fn parallel_matches_serial_on_all_causally_extensible_levels() {
    let p = long_fork();
    for level in IsolationLevel::CAUSALLY_EXTENSIBLE {
        assert_parallel_matches_serial(&p, ExploreConfig::explore_ce(level), 3);
    }
}

#[test]
fn parallel_matches_serial_on_explore_ce_star() {
    assert_parallel_matches_serial(
        &long_fork(),
        ExploreConfig::explore_ce_star(
            IsolationLevel::CausalConsistency,
            IsolationLevel::Serializability,
        ),
        4,
    );
}

#[test]
fn parallel_matches_serial_without_optimality() {
    // The redundant ablation produces duplicate outputs; the duplicate
    // count is a deterministic function of the tree and must also match.
    let p = two_writers_two_readers();
    let config = ExploreConfig::explore_ce(IsolationLevel::CausalConsistency)
        .without_optimality()
        .tracking_duplicates();
    let serial = explore(&p, config.clone().collecting_histories()).unwrap();
    let parallel = explore(&p, config.collecting_histories().with_workers(4)).unwrap();
    assert_eq!(serial.outputs, parallel.outputs);
    assert_eq!(serial.duplicate_outputs, parallel.duplicate_outputs);
    assert!(
        parallel.duplicate_outputs > 0,
        "ablation should be redundant"
    );
    assert_eq!(fingerprints(&serial), fingerprints(&parallel));
}

#[test]
fn parallel_matches_serial_with_indexed_globals() {
    assert_parallel_matches_serial(
        &indexed_rows(),
        ExploreConfig::explore_ce(IsolationLevel::CausalConsistency),
        4,
    );
}

/// Each worker meets tpcc's dynamically indexed `order[oid]` rows in its
/// own order. With a numbering per worker, stolen nodes and shared
/// verdict-memo keys would mix two numberings: a run stops with a replay
/// mismatch or loses a few explore calls. The race needs real interleaving
/// and does not fire on every run, so the case repeats.
#[test]
fn tpcc_indexed_rows_get_one_numbering_across_workers() {
    let base = client_program(&WorkloadConfig::paper_default(App::Tpcc, 4));
    let program = Program {
        sessions: [2, 1, 0].map(|i| base.sessions[i].clone()).to_vec(),
        ..base
    };
    let config =
        ExploreConfig::explore_ce(IsolationLevel::CausalConsistency).collecting_histories();
    let serial = explore(&program, config.clone()).unwrap();
    let serial_fingerprints = fingerprints(&serial);
    for run in 0..8 {
        let parallel = explore(&program, config.clone().with_workers(2))
            .unwrap_or_else(|e| panic!("run {run} failed: {e}"));
        assert_eq!(
            (serial.outputs, serial.end_states, serial.explore_calls),
            (
                parallel.outputs,
                parallel.end_states,
                parallel.explore_calls
            ),
            "run {run} diverged from serial"
        );
        assert_eq!(serial_fingerprints, fingerprints(&parallel), "run {run}");
    }
}

#[test]
fn parallel_matches_serial_without_memo() {
    assert_parallel_matches_serial(
        &two_writers_two_readers(),
        ExploreConfig::explore_ce(IsolationLevel::CausalConsistency).without_memo(),
        2,
    );
}

#[test]
fn parallel_counts_assertion_violations() {
    // Lost-update program: two increments of x; under CC the final counter
    // can miss an increment, and the number of violating histories is
    // deterministic.
    let incr = || {
        tx(
            "incr",
            vec![read("a", g("x")), write(g("x"), add(local("a"), cint(1)))],
        )
    };
    let p = program(vec![session(vec![incr()]), session(vec![incr()])]);
    let assertion = |ctx: &AssertionCtx<'_>| {
        ctx.committed_values_of("x")
            .contains(&txdpor_history::Value::Int(2))
    };
    let serial = explore_with_assertion(
        &p,
        ExploreConfig::explore_ce(IsolationLevel::CausalConsistency),
        Some(&assertion),
    )
    .unwrap();
    let parallel = explore_with_assertion(
        &p,
        ExploreConfig::explore_ce(IsolationLevel::CausalConsistency).with_workers(3),
        Some(&assertion),
    )
    .unwrap();
    assert_eq!(serial.assertion_violations, parallel.assertion_violations);
    assert!(parallel.assertion_violations > 0);
    assert!(parallel.violating_history.is_some());
}

#[test]
fn worker_count_exceeding_frontier_is_safe() {
    // More workers than tasks: the spawn is capped at the frontier size,
    // so no thread is created just to idle.
    let p = program(vec![
        session(vec![tx("w", vec![write(g("x"), cint(1))])]),
        session(vec![tx("r", vec![read("a", g("x"))])]),
    ]);
    let report = explore(
        &p,
        ExploreConfig::explore_ce(IsolationLevel::CausalConsistency).with_workers(16),
    )
    .unwrap();
    assert_eq!(report.outputs, 2);
    assert!(
        report.workers <= 16,
        "never more workers than requested, got {}",
        report.workers
    );
}

/// The starvation workload that motivated work stealing: one session with
/// several multi-read transactions (nearly all reordering mass), flanked
/// by trivial blind-writer sessions. Under a static root partition the
/// worker owning the heavy subtree does almost everything; with stealing
/// the counts must still be bit-identical to serial.
fn skewed_subtree() -> Program {
    program(vec![
        session(vec![
            tx(
                "hot1",
                vec![read("a", g("x")), read("b", g("y")), read("c", g("z"))],
            ),
            tx("hot2", vec![read("d", g("y")), read("e", g("z"))]),
        ]),
        session(vec![tx("w1", vec![write(g("x"), cint(1))])]),
        session(vec![tx("w2", vec![write(g("y"), cint(2))])]),
        session(vec![tx("w3", vec![write(g("z"), cint(3))])]),
    ])
}

#[test]
fn skewed_subtree_is_bit_identical_under_stealing() {
    for workers in [2, 4] {
        assert_parallel_matches_serial(
            &skewed_subtree(),
            ExploreConfig::explore_ce(IsolationLevel::CausalConsistency),
            workers,
        );
    }
}

#[test]
fn skewed_subtree_star_filter_is_bit_identical_under_stealing() {
    for workers in [2, 4] {
        assert_parallel_matches_serial(
            &skewed_subtree(),
            ExploreConfig::explore_ce_star(
                IsolationLevel::CausalConsistency,
                IsolationLevel::Serializability,
            ),
            workers,
        );
    }
}

/// Deterministic pseudo-random program generator for the stress loop: a
/// few sessions of single-transaction reader/writer mixes over a small
/// variable pool, shaped by a seeded LCG so every run explores the same
/// family of trees.
fn generated_program(seed: u64) -> Program {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let vars = ["x", "y", "z"];
    let sessions = 2 + next(2) as usize; // 2-3 sessions
    let mut out = Vec::new();
    let mut reads = 0usize;
    for s in 0..sessions {
        let steps = 1 + next(2) as usize; // 1-2 steps per transaction
        let mut body = Vec::new();
        for k in 0..steps {
            let var = vars[next(vars.len() as u64) as usize];
            if next(2) == 0 {
                body.push(write(g(var), cint(next(4) as i64)));
            } else {
                reads += 1;
                body.push(read(format!("l{s}_{k}"), g(var)));
            }
        }
        out.push(session(vec![tx(format!("t{s}"), body)]));
    }
    if reads == 0 {
        // Keep at least one read so the exploration has branching.
        out.push(session(vec![tx("rd", vec![read("lr", g("x"))])]));
    }
    program(out)
}

#[test]
fn stress_many_seeds_and_worker_counts() {
    // Exercises the steal protocol and termination detection across many
    // small trees: every seed must be bit-identical at every worker count.
    for seed in 0..12u64 {
        let p = generated_program(seed);
        let config = ExploreConfig::explore_ce(IsolationLevel::CausalConsistency);
        let serial = explore(&p, config.clone().collecting_histories()).unwrap();
        for workers in [2, 3, 4] {
            let parallel = explore(
                &p,
                config.clone().collecting_histories().with_workers(workers),
            )
            .unwrap();
            assert_eq!(
                (serial.outputs, serial.end_states, serial.explore_calls),
                (
                    parallel.outputs,
                    parallel.end_states,
                    parallel.explore_calls
                ),
                "seed {seed} diverged at {workers} workers"
            );
            assert_eq!(
                fingerprints(&serial),
                fingerprints(&parallel),
                "seed {seed} fingerprints diverged at {workers} workers"
            );
        }
    }
}
