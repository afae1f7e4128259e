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
//! set/unset churn on wr edges), then descends under a nested checkpoint
//! the way the explorer pops a doomed suffix (`unset_wr`, `pop_event`,
//! `retract_begin`). Both rollbacks are compared against snapshot clones,
//! and each must emit exactly the inverses of the mutations it undoes,
//! newest first.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use txdpor_apps::workload::{client_program, App, WorkloadConfig};
use txdpor_history::{Event, EventId, EventKind, History, HistoryDelta, SessionId, TxId, VarTable};
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

/// A `pop_doomed`-style descent: up to `steps` times, takes the last event
/// from the last transaction of a random session that no read reads from —
/// unsetting a read's wr dependency before popping it, and retracting a
/// begin-only transaction whole. No read is left reading from a removed
/// event, as in the explorer's doomed suffixes.
fn descend(h: &mut History, steps: usize, rng: &mut StdRng) {
    for _ in 0..steps {
        let unread: Vec<(SessionId, TxId)> = h
            .sessions()
            .filter_map(|(s, txs)| txs.last().map(|t| (s, *t)))
            .filter(|(_, t)| h.wr().all(|(_, w)| w != *t))
            .collect();
        if unread.is_empty() {
            return;
        }
        let (s, t) = unread[rng.gen_range(0..unread.len())];
        let events = &h.tx(t).events;
        if events.len() == 1 {
            h.retract_begin(s);
        } else {
            let last = events[events.len() - 1].id;
            h.unset_wr(last);
            h.pop_event(s);
        }
    }
}

/// The deltas emitted since generation `gen`.
fn deltas_since(h: &History, gen: u64) -> Vec<HistoryDelta> {
    h.deltas_since(gen)
        .expect("the window holds one case's deltas")
        .copied()
        .collect()
}

/// The deltas a rollback of `forward` must emit: their inverses, newest
/// first.
fn undo_of(forward: &[HistoryDelta]) -> Vec<HistoryDelta> {
    forward.iter().rev().map(|d| d.inverse()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn rollback_restores_histories_from_app_workloads(
        (app_idx, seed, prefix, muts, descent) in
            (0usize..5, 1u64..1000, 0usize..14, 1usize..12, 1usize..24)
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
        let marked = h.generation();
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

        // Descend under a nested checkpoint, then roll the descent back.
        let outer_forward = deltas_since(&h, marked);
        let inner_snapshot = h.clone();
        let inner = h.checkpoint();
        let inner_marked = h.generation();
        descend(&mut h, descent, &mut rng);
        let forward = deltas_since(&h, inner_marked);
        let undone = h.generation();
        h.rollback(inner);
        prop_assert_eq!(deltas_since(&h, undone), undo_of(&forward));
        prop_assert_eq!(&h, &inner_snapshot);
        prop_assert_eq!(h.live_hash(), inner_snapshot.live_hash());
        prop_assert_eq!(h.fingerprint_hash(), inner_snapshot.fingerprint_hash());
        prop_assert_eq!(h.fingerprint(), inner_snapshot.fingerprint());
        prop_assert_eq!(h.max_event_id(), inner_snapshot.max_event_id());
        prop_assert_eq!(h.max_tx_id(), inner_snapshot.max_tx_id());
        prop_assert_eq!(h.num_pending(), inner_snapshot.num_pending());

        let undone = h.generation();
        h.rollback(mark);
        prop_assert_eq!(deltas_since(&h, undone), undo_of(&outer_forward));

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
