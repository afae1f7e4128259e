//! Property tests for the `History` undo journal, driven by random
//! interleavings of the benchmark application workloads.
//!
//! The exploration algorithms rely on the rollback contract: after
//! `checkpoint → mutate* → rollback`, the history must be bit-identical to
//! its pre-mutation state — structurally (`==`), canonically
//! (`fingerprint()` / `fingerprint_hash()`), and in the incrementally
//! maintained rolling hash the consistency-engine memos key on
//! (`live_hash()`). Each case replays a random scheduler walk of a random
//! app workload, checkpoints at a random depth, keeps walking (with extra
//! set/unset churn on wr edges), rolls back and compares against a
//! snapshot clone.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use txdpor_apps::workload::{client_program, App, WorkloadConfig};
use txdpor_history::{Event, EventId, EventKind, History, TxId, VarTable};
use txdpor_program::{initial_history, oracle_next, Program, SchedulerStep, TxStep};

/// Applies one scheduler step to the history, choosing the wr source of
/// external reads at random among the committed writers. Returns `false`
/// when the program is finished.
fn apply_random_step(
    program: &Program,
    h: &mut History,
    vars: &mut VarTable,
    rng: &mut StdRng,
) -> bool {
    let fresh_event = EventId(h.max_event_id() + 1);
    match oracle_next(program, h, vars).expect("workload programs replay cleanly") {
        SchedulerStep::Finished => false,
        SchedulerStep::Begin {
            session,
            program_index,
        } => {
            let tx = TxId(h.max_tx_id() + 1);
            h.begin_transaction(
                session,
                tx,
                program_index,
                Event::new(fresh_event, EventKind::Begin),
            );
            true
        }
        SchedulerStep::Continue { session, step } => {
            match step {
                TxStep::Read {
                    var,
                    internal_value,
                } => {
                    h.append_event(session, Event::new(fresh_event, EventKind::Read(var)));
                    if internal_value.is_none() {
                        let writers = h.committed_writers_of(var);
                        let pick = writers[rng.gen_range(0..writers.len())];
                        h.set_wr(fresh_event, pick);
                    }
                }
                TxStep::Write { var, value } => {
                    h.append_event(
                        session,
                        Event::new(fresh_event, EventKind::Write(var, value)),
                    );
                }
                TxStep::Commit => {
                    h.append_event(session, Event::new(fresh_event, EventKind::Commit));
                }
                TxStep::Abort => {
                    h.append_event(session, Event::new(fresh_event, EventKind::Abort));
                }
            }
            true
        }
    }
}

/// Extra churn on the wr relation: re-point every re-pointable external
/// read to a random committed writer, unset it, and restore a random
/// choice — the set/unset traffic `ValidWrites` generates.
fn churn_wr_edges(h: &mut History, rng: &mut StdRng) {
    let reads = h.reads_from();
    for (_, read, var, _) in reads {
        let writers = h.committed_writers_of(var);
        h.set_wr(read, writers[rng.gen_range(0..writers.len())]);
        h.unset_wr(read);
        h.set_wr(read, writers[rng.gen_range(0..writers.len())]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn rollback_restores_histories_from_app_workloads(
        (app_idx, seed, prefix, muts) in (0usize..5, 1u64..1000, 0usize..14, 1usize..12)
    ) {
        let app = App::ALL[app_idx];
        let program = client_program(&WorkloadConfig {
            app,
            sessions: 3,
            transactions_per_session: 2,
            seed,
        });
        let mut vars = VarTable::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xd0_07);
        let mut h = initial_history(&program, &mut vars);

        // Random prefix walk (journal disarmed: no checkpoint here).
        for _ in 0..prefix {
            if !apply_random_step(&program, &mut h, &mut vars, &mut rng) {
                break;
            }
        }

        // Snapshot, checkpoint, keep mutating, churn wr edges, roll back.
        let snapshot = h.clone();
        let mark = h.checkpoint();
        let mut progressed = false;
        for _ in 0..muts {
            if !apply_random_step(&program, &mut h, &mut vars, &mut rng) {
                break;
            }
            progressed = true;
        }
        churn_wr_edges(&mut h, &mut rng);
        if progressed {
            prop_assert!(h != snapshot || h.num_events() == snapshot.num_events());
        }
        h.rollback(mark);

        prop_assert_eq!(&h, &snapshot);
        prop_assert_eq!(h.live_hash(), snapshot.live_hash());
        prop_assert_eq!(h.fingerprint_hash(), snapshot.fingerprint_hash());
        prop_assert_eq!(h.fingerprint(), snapshot.fingerprint());
        prop_assert_eq!(h.max_event_id(), snapshot.max_event_id());
        prop_assert_eq!(h.max_tx_id(), snapshot.max_tx_id());
        prop_assert_eq!(h.num_pending(), snapshot.num_pending());

        // The restored history is indistinguishable going forward: the same
        // walk applied to the original and the restored history agree.
        let mut rng_a = StdRng::seed_from_u64(seed ^ 0xbeef);
        let mut rng_b = StdRng::seed_from_u64(seed ^ 0xbeef);
        let mut replay = snapshot.clone();
        let mut vars_b = vars.clone();
        for _ in 0..muts {
            let a = apply_random_step(&program, &mut h, &mut vars, &mut rng_a);
            let b = apply_random_step(&program, &mut replay, &mut vars_b, &mut rng_b);
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(&h, &replay);
        prop_assert_eq!(h.live_hash(), replay.live_hash());
    }
}
