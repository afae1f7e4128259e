//! Property tests for the incremental consistency engines, driven by random
//! interleavings of the benchmark application workloads.
//!
//! A long-lived engine follows one history through random scheduler walks,
//! checkpoint/mutate/rollback cycles, `ValidWrites`-style wr churn and
//! nested `pop_doomed`-style descents (`unset_wr`, `pop_event`,
//! `retract_begin`), syncing its index from the history's mutation-delta
//! log. At every step its verdict must be bit-identical to a fresh
//! from-scratch engine on the same history — for every isolation level,
//! with and without result memoisation — and each of its memo misses must
//! be counted exactly once, as an incremental sync or a full rebuild. This pins the whole observer
//! pipeline: delta recording (including the inverse deltas emitted by
//! rollbacks and `retract_begin`), incremental closure maintenance, the
//! LIFO undo stack and each destructive fallback path.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use txdpor_apps::workload::{client_program, App, MixedScenario, WorkloadConfig};
use txdpor_history::axioms::oracle_satisfies;
use txdpor_history::{
    engine_for, engine_for_spec_with, engine_for_with, ConsistencyChecker, Engine, Event, EventId,
    EventKind, History, IsolationLevel, LevelSpec, SessionId, TxId, VarTable, DELTA_LOG_CAPACITY,
};
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

/// `ValidWrites`-style churn: re-point every re-pointable external read to
/// a random committed writer, unset it, and restore a random choice. The
/// replacement `set_wr` and the out-of-po-order re-insertions exercise the
/// engines' destructive-unset and full-rebuild fallbacks.
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

/// Which verdict an engine of the fleet must reproduce.
#[derive(Clone, Copy)]
enum Reference {
    /// A fresh from-scratch check of the same spec.
    Fresh,
    /// The axiom-level oracle.
    Oracle,
}

/// A fleet of long-lived engines, each paired with the [`LevelSpec`] it
/// decides: one per isolation level (memoisation disabled so every check
/// exercises the sync-and-decide path) plus an [`Engine`] on uniform
/// `true`, which `engine_for` hands to another engine type, all answering
/// to the axiom oracle; a memoised causal engine for the production
/// configuration; and the *mixed* engines of the given specs.
struct EngineFleet {
    engines: Vec<(Box<dyn ConsistencyChecker>, LevelSpec, Reference)>,
}

impl EngineFleet {
    fn new(mixed_specs: &[LevelSpec]) -> Self {
        let mut engines: Vec<(Box<dyn ConsistencyChecker>, LevelSpec, Reference)> =
            IsolationLevel::ALL
                .into_iter()
                .map(|level| {
                    (
                        engine_for_with(level, false),
                        LevelSpec::uniform(level),
                        Reference::Oracle,
                    )
                })
                .collect();
        let trivial = LevelSpec::uniform(IsolationLevel::Trivial);
        engines.push((
            Box::new(Engine::new(trivial.clone(), false)),
            trivial,
            Reference::Oracle,
        ));
        engines.push((
            engine_for(IsolationLevel::CausalConsistency),
            LevelSpec::uniform(IsolationLevel::CausalConsistency),
            Reference::Fresh,
        ));
        for spec in mixed_specs {
            engines.push((
                engine_for_spec_with(spec, false),
                spec.clone(),
                Reference::Fresh,
            ));
            engines.push((
                engine_for_spec_with(spec, true),
                spec.clone(),
                Reference::Fresh,
            ));
        }
        EngineFleet { engines }
    }

    /// Asserts every engine agrees with its reference verdict and has
    /// counted each memo miss once, as an incremental sync or a full
    /// rebuild. The churn can re-point a read at its own transaction,
    /// which the axioms do not cover; such histories fall back to the
    /// fresh check.
    fn assert_agree(&mut self, h: &History) {
        let self_read = h
            .reads_from()
            .iter()
            .any(|(reader, _, _, source)| reader == source);
        for (engine, spec, reference) in &mut self.engines {
            let expected = match reference {
                Reference::Oracle if !self_read => oracle_satisfies(h, spec.default_level()),
                _ => spec.satisfies(h),
            };
            assert_eq!(
                engine.check(h),
                expected,
                "incrementally synced {spec} engine disagrees with its reference on\n{h}"
            );
            let s = engine.stats();
            assert_eq!(
                s.incremental_hits + s.full_rebuilds,
                s.memo_misses,
                "{spec} engine miscounted how its memo misses were served"
            );
            assert_eq!(
                s.rebuild_causes.total(),
                s.full_rebuilds,
                "{spec} engine miscounted the causes of its rebuilds"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn incremental_engines_match_fresh_engines(
        (app_idx, seed, prefix, muts, descent) in
            (0usize..5, 1u64..1000, 0usize..12, 1usize..10, 1usize..24)
    ) {
        let app = App::ALL[app_idx];
        let program = client_program(&WorkloadConfig {
            app,
            sessions: 3,
            transactions_per_session: 2,
            seed,
        });
        let mut vars = VarTable::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1dc0_ffee);
        let mut h = initial_history(&program, &mut vars);
        // The app's paper-shaped mixed scenarios, resolved against this
        // program, ride along in the fleet.
        let mixed_specs: Vec<LevelSpec> = MixedScenario::scenarios_for(app)
            .into_iter()
            .map(|sc| sc.spec_for(&program))
            .collect();
        let mut fleet = EngineFleet::new(&mixed_specs);
        fleet.assert_agree(&h);

        // Random prefix walk with the engines shadowing every step.
        for _ in 0..prefix {
            if !apply_random_step(&program, &mut h, &mut vars, &mut rng) {
                break;
            }
            fleet.assert_agree(&h);
        }

        // Checkpoint, keep walking (checking as we go), churn wr edges,
        // roll back — the engines must follow the inverse deltas too.
        let snapshot = h.clone();
        let mark = h.checkpoint();
        for _ in 0..muts {
            if !apply_random_step(&program, &mut h, &mut vars, &mut rng) {
                break;
            }
            fleet.assert_agree(&h);
        }
        churn_wr_edges(&mut h, &mut rng);
        fleet.assert_agree(&h);

        // Descend under a nested checkpoint, checking at every step, and
        // roll the descent back.
        let inner_snapshot = h.clone();
        let inner = h.checkpoint();
        for _ in 0..descent {
            descend(&mut h, 1, &mut rng);
            fleet.assert_agree(&h);
        }
        h.rollback(inner);
        prop_assert_eq!(&h, &inner_snapshot);
        fleet.assert_agree(&h);

        h.rollback(mark);
        prop_assert_eq!(&h, &snapshot);
        fleet.assert_agree(&h);

        // The engines keep tracking after the rollback.
        for _ in 0..muts {
            if !apply_random_step(&program, &mut h, &mut vars, &mut rng) {
                break;
            }
            fleet.assert_agree(&h);
        }
    }
}

/// Regression: a churn burst that overflows [`DELTA_LOG_CAPACITY`] between
/// two engine syncs — with a checkpoint open across the burst — followed
/// by a rollback must leave every engine on the *full-rebuild* path (the
/// trimmed delta window is unreplayable), never on a silently divergent
/// incremental sync — and count that rebuild under the trimmed window.
/// Verdicts are pinned bit-identical to fresh engines on both sides of the
/// overflow boundary.
#[test]
fn delta_log_eviction_with_open_checkpoint_forces_full_rebuild() {
    let program = client_program(&WorkloadConfig {
        app: App::Tpcc,
        sessions: 3,
        transactions_per_session: 2,
        seed: 5,
    });
    let mut vars = VarTable::new();
    let mut rng = StdRng::seed_from_u64(0xeb1c7);
    let mut h = initial_history(&program, &mut vars);
    // Walk until at least one re-pointable external read exists.
    while h.reads_from().is_empty() {
        assert!(
            apply_random_step(&program, &mut h, &mut vars, &mut rng),
            "tpcc workloads read before finishing"
        );
    }
    let mixed = MixedScenario::TpccPaymentSer.spec_for(&program);
    let mut fleet = EngineFleet::new(std::slice::from_ref(&mixed));
    fleet.assert_agree(&h); // sync every engine at the pre-burst generation

    let stats_before: Vec<_> = fleet.engines.iter().map(|(e, _, _)| e.stats()).collect();

    // Open a checkpoint and churn one read's wr edge until the delta ring
    // has wrapped well past the engines' sync generation, then roll back.
    let snapshot = h.clone();
    let synced_gen = h.generation();
    let mark = h.checkpoint();
    let (_, read, var, _) = h.reads_from()[0];
    let writers = h.committed_writers_of(var);
    for i in 0..DELTA_LOG_CAPACITY {
        h.set_wr(read, writers[i % writers.len()]);
        h.unset_wr(read);
        h.set_wr(read, writers[(i + 1) % writers.len()]);
        h.unset_wr(read);
    }
    h.rollback(mark);
    assert_eq!(h, snapshot, "rollback must restore the history exactly");
    assert!(
        h.deltas_since(synced_gen).is_none(),
        "the burst must actually trim the engines' sync window"
    );

    // Every engine re-syncs by rebuilding — and answers exactly like a
    // fresh engine. Memoised engines may legitimately serve the restored
    // (structurally pre-burst) history from their memo instead; what is
    // forbidden is an *incremental* sync across the trimmed window.
    // Uniform `true` decides without syncing any index, so it is exempt.
    fleet.assert_agree(&h);
    for ((engine, spec, _), before) in fleet.engines.iter().zip(stats_before) {
        if spec.as_uniform() == Some(IsolationLevel::Trivial) {
            continue;
        }
        let after = engine.stats();
        let rebuilt = after.full_rebuilds > before.full_rebuilds;
        assert_eq!(
            after.rebuild_causes.window - before.rebuild_causes.window,
            after.full_rebuilds - before.full_rebuilds,
            "{spec} engine blamed a trimmed delta window on another cause"
        );
        let memo_served = after.memo_hits > before.memo_hits;
        assert!(
            rebuilt || memo_served,
            "{spec} engine crossed a trimmed delta window without a rebuild"
        );
        assert_eq!(
            after.incremental_hits, before.incremental_hits,
            "{spec} engine claimed an incremental sync across a trimmed delta window"
        );
    }

    // And keeps tracking incrementally afterwards.
    for _ in 0..6 {
        if !apply_random_step(&program, &mut h, &mut vars, &mut rng) {
            break;
        }
        fleet.assert_agree(&h);
    }
}
