//! End-to-end integration tests spanning all crates: benchmark application
//! workloads are generated, explored under several isolation levels and
//! algorithms, and the results are cross-checked for soundness,
//! completeness and optimality.

use txdpor::prelude::*;
use txdpor_apps::courseware;

/// Small client programs (2 sessions × 2 transactions) of every application.
fn small_workloads() -> Vec<(App, Program)> {
    App::ALL
        .into_iter()
        .map(|app| {
            (
                app,
                client_program(&WorkloadConfig {
                    app,
                    sessions: 2,
                    transactions_per_session: 2,
                    seed: 1,
                }),
            )
        })
        .collect()
}

#[test]
fn app_workloads_explore_soundly_under_every_level() {
    for (app, p) in small_workloads() {
        for level in [
            IsolationLevel::ReadCommitted,
            IsolationLevel::ReadAtomic,
            IsolationLevel::CausalConsistency,
        ] {
            let report = explore(
                &p,
                ExploreConfig::explore_ce(level)
                    .collecting_histories()
                    .tracking_duplicates(),
            )
            .unwrap();
            assert!(report.outputs >= 1, "{app} under {level} has no behaviour");
            assert_eq!(
                report.duplicate_outputs, 0,
                "{app} under {level}: duplicates"
            );
            assert_eq!(
                report.blocked, 0,
                "{app} under {level}: blocked exploration"
            );
            for h in &report.histories {
                assert!(level.satisfies(h), "{app} under {level}: unsound output");
                assert_eq!(h.num_pending(), 0, "{app}: incomplete output history");
                assert_eq!(
                    h.num_transactions(),
                    p.num_transactions(),
                    "{app}: output history missing transactions"
                );
            }
        }
    }
}

#[test]
fn explore_matches_dfs_on_app_workloads() {
    use std::collections::BTreeSet;
    for (app, p) in small_workloads() {
        let level = IsolationLevel::CausalConsistency;
        let mine = explore(&p, ExploreConfig::explore_ce(level).collecting_histories()).unwrap();
        let baseline = dfs_explore(&p, DfsConfig::new(level).collecting_histories()).unwrap();
        let a: BTreeSet<_> = mine.histories.iter().map(|h| h.fingerprint()).collect();
        let b: BTreeSet<_> = baseline.histories.iter().map(|h| h.fingerprint()).collect();
        assert_eq!(a, b, "{app}: explore-ce and DFS disagree");
        assert!(
            baseline.end_states >= mine.end_states,
            "{app}: the baseline cannot reach fewer end states"
        );
    }
}

#[test]
fn star_algorithms_filter_monotonically() {
    for (app, p) in small_workloads() {
        let cc = explore(
            &p,
            ExploreConfig::explore_ce(IsolationLevel::CausalConsistency),
        )
        .unwrap();
        let si = explore(
            &p,
            ExploreConfig::explore_ce_star(
                IsolationLevel::CausalConsistency,
                IsolationLevel::SnapshotIsolation,
            ),
        )
        .unwrap();
        let ser = explore(
            &p,
            ExploreConfig::explore_ce_star(
                IsolationLevel::CausalConsistency,
                IsolationLevel::Serializability,
            ),
        )
        .unwrap();
        assert_eq!(
            si.end_states, cc.end_states,
            "{app}: same exploration expected"
        );
        assert!(ser.outputs <= si.outputs, "{app}: SER admits more than SI");
        assert!(si.outputs <= cc.outputs, "{app}: SI admits more than CC");
        assert!(ser.outputs >= 1, "{app}: no serializable behaviour");
    }
}

#[test]
fn weaker_base_levels_explore_more_end_states() {
    // §7.3: the performance gap grows as the base level weakens because the
    // number of enumerated end states grows. The Fig. 10 program (an atomic
    // writer of x and y against a reader of both) separates the levels: the
    // trivial base enumerates the fractured read that CC/RA forbid.
    let p = program(vec![
        session(vec![tx(
            "reader",
            vec![read("a", g("x")), read("b", g("y"))],
        )]),
        session(vec![tx(
            "writer",
            vec![write(g("x"), cint(2)), write(g("y"), cint(2))],
        )]),
    ]);
    let cc = explore(
        &p,
        ExploreConfig::explore_ce(IsolationLevel::CausalConsistency),
    )
    .unwrap();
    let ra = explore(
        &p,
        ExploreConfig::explore_ce_star(
            IsolationLevel::ReadAtomic,
            IsolationLevel::CausalConsistency,
        ),
    )
    .unwrap();
    let rc = explore(
        &p,
        ExploreConfig::explore_ce_star(
            IsolationLevel::ReadCommitted,
            IsolationLevel::CausalConsistency,
        ),
    )
    .unwrap();
    let trivial = explore(
        &p,
        ExploreConfig::explore_ce_star(IsolationLevel::Trivial, IsolationLevel::CausalConsistency),
    )
    .unwrap();
    // All enumerate the same CC histories…
    assert_eq!(cc.outputs, ra.outputs);
    assert_eq!(cc.outputs, rc.outputs);
    assert_eq!(cc.outputs, trivial.outputs);
    // …but weaker bases explore at least as many end states.
    assert!(ra.end_states >= cc.end_states);
    assert!(rc.end_states >= ra.end_states);
    assert!(trivial.end_states >= rc.end_states);
    assert!(
        trivial.end_states > cc.end_states,
        "the trivial base should show measurable redundancy"
    );
}

#[test]
fn courseware_invariant_analysis() {
    let mut p = program(vec![
        session(vec![
            courseware::enroll(0, 0),
            courseware::get_enrollments(0),
        ]),
        session(vec![courseware::enroll(1, 0)]),
    ]);
    p.init_values = courseware::initial_values();
    let cc = explore_with_assertion(
        &p,
        ExploreConfig::explore_ce(IsolationLevel::CausalConsistency),
        Some(&courseware::capacity_invariant),
    )
    .unwrap();
    assert!(cc.has_violation());
    let h = cc.violating_history.expect("violating history collected");
    assert!(IsolationLevel::CausalConsistency.satisfies(&h));
    let ser = explore_with_assertion(
        &p,
        ExploreConfig::explore_ce_star(
            IsolationLevel::CausalConsistency,
            IsolationLevel::Serializability,
        ),
        Some(&courseware::capacity_invariant),
    )
    .unwrap();
    assert!(!ser.has_violation());
}

#[test]
fn timeouts_terminate_large_explorations() {
    // tpcc 4×3 under CC runs for seconds even in a release build, so the
    // 50 ms timeout fires in every build profile.
    let p = client_program(&WorkloadConfig {
        app: App::Tpcc,
        sessions: 4,
        transactions_per_session: 3,
        seed: 1,
    });
    let report = explore(
        &p,
        ExploreConfig::explore_ce(IsolationLevel::CausalConsistency)
            .with_timeout(std::time::Duration::from_millis(50)),
    )
    .unwrap();
    assert!(report.timed_out);
    assert!(report.duration < std::time::Duration::from_secs(30));
}
