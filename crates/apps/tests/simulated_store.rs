//! End-to-end: every benchmark application executed against the simulated
//! distributed store under network faults, with the recorded history
//! checked against the deployment's claimed isolation spec.

use txdpor_apps::{app_deployments, app_sim_config, App};
use txdpor_history::engine_for_spec;
use txdpor_store::{run_simulation, Deployment, FaultPlan};

#[test]
fn every_app_is_deterministic_per_seed_under_faults() {
    for app in App::ALL {
        for preset in ["jitter", "lossy"] {
            let cfg = app_sim_config(
                app,
                3,
                2,
                13,
                Deployment::si(),
                FaultPlan::preset(preset).unwrap(),
            );
            let a = run_simulation(&cfg);
            let b = run_simulation(&cfg);
            assert_eq!(
                a.history.fingerprint_hash(),
                b.history.fingerprint_hash(),
                "{}/{preset}: replay diverged",
                app.name()
            );
            assert_eq!(a.stats, b.stats, "{}/{preset}", app.name());
        }
    }
}

#[test]
fn every_app_passes_every_honest_deployment_with_a_replayable_witness() {
    for app in App::ALL {
        for deployment in app_deployments(app) {
            if !deployment.honest() {
                continue; // the dishonest ones are exercised below
            }
            for preset in ["lossy", "crashy"] {
                for seed in [1u64, 23] {
                    let cfg = app_sim_config(
                        app,
                        3,
                        2,
                        seed,
                        deployment.clone(),
                        FaultPlan::preset(preset).unwrap(),
                    );
                    let out = run_simulation(&cfg);
                    let label = format!("{}/{}/{preset}/{}", app.name(), deployment.name, seed);
                    assert!(out.stats.committed > 0, "{label}: nothing committed");
                    assert!(out.errors.is_empty(), "{label}: {:?}", out.errors);
                    assert!(
                        out.invariant_breaches.is_empty(),
                        "{label}: {:?}",
                        out.invariant_breaches
                    );
                    let verdict = engine_for_spec(&out.claimed).check_witnessed(&out.history);
                    let witness = verdict.witness().unwrap_or_else(|| {
                        panic!(
                            "{label}: honest deployment violated its claim: {}",
                            verdict.violation().unwrap()
                        )
                    });
                    assert!(
                        witness.replays(&out.history, &out.claimed),
                        "{label}: witness does not replay"
                    );
                }
            }
        }
    }
}

#[test]
fn the_weakened_deployment_is_caught_on_at_least_one_workload() {
    // si-unchecked runs causal-mode concurrency control while claiming
    // Snapshot Isolation; under contention some app workload must produce
    // a lost update the checker flags. Sweep a few seeds per app and
    // require at least one catch overall (each catch's core must chain
    // into a closed cycle).
    let mut caught = Vec::new();
    'apps: for app in App::ALL {
        for seed in 0..8u64 {
            let cfg = app_sim_config(
                app,
                4,
                3,
                seed,
                Deployment::si_unchecked(),
                FaultPlan::preset("jitter").unwrap(),
            );
            let out = run_simulation(&cfg);
            let verdict = engine_for_spec(&out.claimed).check_witnessed(&out.history);
            if let Some(violation) = verdict.violation() {
                let cycle = &violation.cycle;
                assert!(cycle.len() >= 2);
                for (e, next) in cycle.iter().zip(cycle.iter().cycle().skip(1)) {
                    assert_eq!(e.to, next.from, "core is not a closed cycle: {violation}");
                }
                caught.push((app.name(), seed));
                continue 'apps;
            }
        }
    }
    assert!(
        !caught.is_empty(),
        "no app workload exposed the weakened deployment"
    );
}

#[test]
fn the_crash_unsafe_deployment_is_caught_under_each_crash_preset() {
    // no-wal loses undecided prewrite state on crash, so a concurrent
    // writer can slip past a forgotten lock and violate the claimed
    // Snapshot Isolation's first-committer-wins. Each crash preset must be
    // caught on at least one app × seed, with a closed violation core.
    for preset in ["crashy", "crash-chaos"] {
        let mut caught = Vec::new();
        for app in App::ALL {
            for seed in 0..8u64 {
                let cfg = app_sim_config(
                    app,
                    4,
                    3,
                    seed,
                    Deployment::no_wal(),
                    FaultPlan::preset(preset).unwrap(),
                );
                let out = run_simulation(&cfg);
                assert!(
                    out.invariant_breaches.is_empty(),
                    "{}/{preset}/{seed}: {:?}",
                    app.name(),
                    out.invariant_breaches
                );
                let verdict = engine_for_spec(&out.claimed).check_witnessed(&out.history);
                if let Some(violation) = verdict.violation() {
                    let cycle = &violation.cycle;
                    assert!(cycle.len() >= 2);
                    for (e, next) in cycle.iter().zip(cycle.iter().cycle().skip(1)) {
                        assert_eq!(e.to, next.from, "core is not a closed cycle: {violation}");
                    }
                    caught.push((app.name(), seed));
                }
            }
        }
        assert!(
            !caught.is_empty(),
            "{preset}: no app workload exposed the crash-unsafe deployment"
        );
    }
}

#[test]
fn contended_store_histories_stay_cheap_to_check() {
    // Contended courseware runs: 6 sessions × 8 transactions under SI
    // with lossy links, and 8 × 4 under crash-chaos for every honest
    // deployment. Their recorded histories are where a commit-order
    // search that explores dead overwrites blows up (millions of nodes
    // per check). The bound counts search nodes, not time, so it is
    // deterministic.
    let mut rows = Vec::new();
    for seed in 1..=4u64 {
        rows.push((6, 8, Deployment::si(), "lossy", seed));
    }
    for deployment in app_deployments(App::Courseware) {
        if !deployment.honest() {
            continue;
        }
        for seed in 1..=4u64 {
            rows.push((8, 4, deployment.clone(), "crash-chaos", seed));
        }
    }
    assert_eq!(rows.len(), 20);
    for (sessions, transactions, deployment, preset, seed) in rows {
        let label = format!(
            "courseware {sessions}x{transactions}/{}/{preset}/{seed}",
            deployment.name
        );
        let cfg = app_sim_config(
            App::Courseware,
            sessions,
            transactions,
            seed,
            deployment,
            FaultPlan::preset(preset).unwrap(),
        );
        let out = run_simulation(&cfg);
        let mut engine = engine_for_spec(&out.claimed);
        let verdict = engine.check_witnessed(&out.history);
        let witness = verdict.witness().unwrap_or_else(|| {
            panic!(
                "{label}: honest deployment violated its claim: {}",
                verdict.violation().unwrap()
            )
        });
        assert!(
            witness.replays(&out.history, &out.claimed),
            "{label}: witness does not replay"
        );
        let nodes = engine.stats().search_nodes;
        assert!(
            nodes <= 250_000,
            "{label}: the commit-order search visited {nodes} nodes"
        );
    }
}
