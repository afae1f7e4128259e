//! Soundness of the static read/write-set analysis against every
//! dynamically explored execution of all five benchmark applications:
//! each executed transaction's events must fall inside its type's static
//! footprint.

use txdpor_analysis::ProgramFootprints;
use txdpor_apps::{client_program, App, WorkloadConfig};
use txdpor_explore::{explore, ExploreConfig};
use txdpor_history::IsolationLevel;

#[test]
fn static_footprints_cover_every_explored_execution() {
    for app in App::ALL {
        for seed in 1..=2u64 {
            let p = client_program(&WorkloadConfig {
                app,
                sessions: 2,
                transactions_per_session: 2,
                seed,
            });
            let fps = ProgramFootprints::analyze(&p);
            let report = explore(
                &p,
                ExploreConfig::explore_ce(IsolationLevel::CausalConsistency).collecting_histories(),
            )
            .unwrap_or_else(|e| panic!("{app} seed {seed} failed to explore: {e}"));
            assert!(report.outputs > 0, "{app} seed {seed} explored nothing");
            for h in &report.histories {
                // Superset property: every dynamic read/write is covered
                // by the static set of its transaction type.
                if let Err(e) = fps.check_covers_history(h, &report.vars) {
                    panic!("{app} seed {seed}: {e}");
                }
            }
        }
    }
}
