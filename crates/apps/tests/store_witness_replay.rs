//! Differential test of the witness replay on histories the simulated
//! store recorded: `axioms::check_with_order_spec` must answer exactly
//! like the literal definition kept in
//! `testkit::literal_check_with_order_spec`, on the witnesses the
//! `simulate` pipeline replays and on perturbations of them.

use txdpor_analysis::DecomposingChecker;
use txdpor_apps::{app_deployments, app_sim_config, App};
use txdpor_history::axioms::check_with_order_spec;
use txdpor_history::testkit::{literal_check_with_order_spec, perturbed_orders};
use txdpor_history::{engine_for_spec, ConsistencyChecker, IsolationLevel, LevelSpec, TxId};
use txdpor_store::{run_simulation, FaultPlan};

#[test]
fn replay_answers_like_the_literal_definition_on_recorded_histories() {
    let (mut histories, mut witnesses, mut ran, mut rejected) = (0u64, 0u64, 0u64, 0u64);
    for app in App::ALL {
        for deployment in app_deployments(app) {
            for faults in ["lossy", "crash-chaos"] {
                for seed in [1u64, 2] {
                    let cfg = app_sim_config(
                        app,
                        3,
                        4,
                        seed,
                        deployment.clone(),
                        FaultPlan::preset(faults).expect("built-in preset"),
                    );
                    let out = run_simulation(&cfg);
                    let h = &out.history;
                    let label = format!("{}/{}/{faults}/{seed}", app.name(), deployment.name);
                    histories += 1;
                    let specs: Vec<LevelSpec> = std::iter::once(out.claimed.clone())
                        .chain(IsolationLevel::ALL.into_iter().map(LevelSpec::uniform))
                        .collect();
                    // The claimed spec's witness as `simulate` computes it,
                    // then one engine witness per uniform level that holds.
                    let mut orders: Vec<Vec<TxId>> = Vec::new();
                    let claimed = DecomposingChecker::new(&out.claimed, true).check_witnessed(h);
                    orders.extend(claimed.witness().map(|w| w.commit_order.clone()));
                    for spec in &specs[1..] {
                        let verdict = engine_for_spec(spec).check_witnessed(h);
                        orders.extend(verdict.witness().map(|w| w.commit_order.clone()));
                    }
                    witnesses += orders.len() as u64;
                    for (k, witness) in orders.iter().enumerate() {
                        let variants = std::iter::once(("witness", witness.clone()))
                            .chain(perturbed_orders(h, witness, seed * 64 + k as u64));
                        for (name, order) in variants {
                            for spec in &specs {
                                let fast = check_with_order_spec(h, spec, &order);
                                let literal = literal_check_with_order_spec(h, spec, &order);
                                assert_eq!(
                                    fast, literal,
                                    "{label}: {name} of witness {k} replayed under {spec}: \
                                     {order:?}\n{h}"
                                );
                                ran += 1;
                                rejected += u64::from(!fast);
                            }
                        }
                    }
                }
            }
        }
    }
    println!(
        "witness replay on recorded histories: {histories} histories, {witnesses} witnesses, \
         {ran} (history, spec, order) triples, {rejected} rejected"
    );
    assert!(
        rejected > ran / 4 && rejected < ran - ran / 4,
        "{rejected} of {ran} rejected: both answers need coverage"
    );
}
