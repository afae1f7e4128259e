//! Serial `explore-ce` runs in place: it never clones a history. This test
//! is alone in its file because the clone counters are process-wide, and
//! a test running alongside it would clone.

use txdpor_apps::workload::{client_program, App, WorkloadConfig};
use txdpor_explore::{explore, ExploreConfig};
use txdpor_history::{clone_stats, reset_clone_stats, IsolationLevel};

#[test]
fn serial_explore_ce_clones_no_history() {
    for app in App::ALL {
        let program = client_program(&WorkloadConfig::paper_default(app, 1));
        reset_clone_stats();
        let report = explore(
            &program,
            ExploreConfig::explore_ce(IsolationLevel::CausalConsistency),
        )
        .expect("benchmark programs replay cleanly");
        let (clones, bytes) = clone_stats();
        assert!(report.outputs > 0, "{app:?}: no output");
        assert_eq!(
            (clones, bytes),
            (0, 0),
            "{app:?}: {} explore calls cloned histories",
            report.explore_calls
        );
    }
}
