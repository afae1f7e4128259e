//! Re-ordering of events in histories: `ComputeReorderings` and `Swap`
//! (§5.2).
//!
//! After the current history is extended with a commit event, the
//! exploration may branch on *re-ordered* histories in which an earlier
//! read now reads from the freshly committed transaction. `Swap` removes
//! every event that is ordered after the read and does not belong to the
//! causal past of the committed transaction, producing a feasible history
//! with exactly one pending transaction (the one holding the re-ordered
//! read).
//!
//! The explorer applies an accepted swap in place ([`apply_swap`]) to the
//! one history it explores, under a checkpoint it later rolls back;
//! [`swap`] builds the swapped history as a copy and is the reference the
//! in-place version is tested against.

use std::collections::BTreeSet;
use std::ops::Range;

use txdpor_analysis::ProgramFootprints;
use txdpor_history::{EventId, EventKind, History, TxId, TxSet};

use crate::ordered::OrderedHistory;

/// A candidate re-ordering: an external read `r` and the last committed
/// transaction `t` it should be made to read from.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Reordering {
    /// The read event whose `wr` dependency will be redirected.
    pub read: EventId,
    /// The transaction it will read from after the swap.
    pub target: TxId,
}

/// `ComputeReorderings(h_<)` (§5.2): returns a non-empty set only when the
/// last event of the history order is a commit. Each returned pair consists
/// of an external read `r` of some earlier transaction and the
/// just-committed transaction `t`, such that `t` writes `var(r)` and the
/// transaction of `r` is not causally before `t`.
pub fn compute_reorderings(h: &OrderedHistory) -> Vec<Reordering> {
    compute_reorderings_and_ancestors(h, None, &mut 0)
        .map(|(_, out)| out)
        .unwrap_or_default()
}

/// Like [`compute_reorderings`], also handing back the causal ancestors of
/// the just-committed target so the explorer can reuse the BFS across the
/// `Optimality` trials and the swaps it applies (`None` when the last
/// event is not a commit).
///
/// When static `footprints` are supplied, candidate transactions whose
/// type is statically independent of the target's type are skipped before
/// their external reads are scanned, bumping `pruned` once per skip. The
/// returned set of reorderings is *identical* either way: static
/// independence means the target's write set cannot overlap the
/// candidate's read set, so the per-read `writes_var` filter below would
/// have rejected every read of the skipped transaction anyway.
pub(crate) fn compute_reorderings_and_ancestors(
    h: &OrderedHistory,
    footprints: Option<&ProgramFootprints>,
    pruned: &mut u64,
) -> Option<(TxSet, Vec<Reordering>)> {
    let last = h.last()?;
    let last_event = h.history.event(last)?;
    if !last_event.kind.is_commit() {
        return None;
    }
    // The commit's owner: a logged transaction, never init.
    let target = h
        .history
        .tx_of_event(last)
        .expect("last event belongs to a transaction");
    let target_log = h.history.tx(target);
    // One backward BFS answers every `(tr(r), target) ∈ (so ∪ wr)*` query
    // below in O(1).
    let ancestors = h.history.causal_ancestors(target);
    let mut out = Vec::new();
    for log in h.history.transactions() {
        if log.id == target {
            continue;
        }
        if let Some(fps) = footprints {
            if fps.independent_logs(target_log, log) {
                debug_assert!(
                    log.external_reads().all(|r| {
                        let x = r.var().expect("read has a variable");
                        !target_log.writes_var(x)
                    }),
                    "statically independent candidate has a read the target writes"
                );
                *pruned += 1;
                continue;
            }
        }
        if ancestors.contains(log.id) {
            continue;
        }
        for read in log.external_reads() {
            let x = read.var().expect("read has a variable");
            if !target_log.writes_var(x) {
                continue;
            }
            // tr(r) < t holds for every other live transaction: every live
            // event is ordered, and `last`, the target's commit, is the
            // order's last event.
            debug_assert!(
                h.tx_before_event(log.id, last),
                "candidate {} is not ordered before the target's commit",
                log.id
            );
            out.push(Reordering {
                read: read.id,
                target,
            });
        }
    }
    Some((ancestors, out))
}

/// The set `D` of events deleted by `Swap(h, r, t)`: events strictly after
/// `r` in the history order whose transaction is not in the causal past of
/// `t` (including `t` itself).
pub fn doomed_events(h: &OrderedHistory, read: EventId, target: TxId) -> BTreeSet<EventId> {
    doomed_events_with(h, read, target, &h.history.causal_ancestors(target))
}

/// Like [`doomed_events`], with the causal ancestors of `target`
/// precomputed by the caller (the explorer computes them once per commit
/// and reuses them across every candidate re-ordering).
pub fn doomed_events_with(
    h: &OrderedHistory,
    read: EventId,
    target: TxId,
    ancestors: &TxSet,
) -> BTreeSet<EventId> {
    let r_pos = h.pos(read).expect("read is in the history order");
    h.order
        .iter()
        .enumerate()
        .filter(|(i, _)| *i > r_pos)
        .filter(|(_, e)| {
            let tx = h.history.tx_of_event(**e).expect("ordered event has owner");
            !(tx == target || ancestors.contains(tx))
        })
        .map(|(_, e)| *e)
        .collect()
}

/// Deletes the doomed events at the positions `range` of the order *in
/// place*, under the caller's checkpoint: every event there whose
/// transaction is outside the causal past of `target` is popped (in
/// reverse order, so each is the po-last of its session when reached),
/// and transactions reduced to their begin are retracted outright. Because
/// the doomed events of a session always form a suffix of its event
/// sequence (doomed transactions form a suffix of the session, and a
/// straddling transaction's kept events precede the cut), popping the
/// range up to the end of the order leaves a history structurally
/// identical to [`History::remove_events`] on the doomed set — same logs,
/// same wr relation, same rolling hash — without building a second
/// history. Adjacent ranges popped from the top down compose: popping
/// `b..len` and then `a..b` is popping `a..len`, which is how the
/// commit-wide `Optimality` pass descends a doomed suffix one stretch at a
/// time. The caller's [`History::rollback`] restores everything.
pub(crate) fn pop_doomed(
    history: &mut History,
    order: &[EventId],
    range: Range<usize>,
    target: TxId,
    ancestors: &TxSet,
) {
    for p in range.rev() {
        let e = order[p];
        let tx = history.tx_of_event(e).expect("ordered event is live");
        if tx == target || ancestors.contains(tx) {
            continue;
        }
        let log = history.tx(tx);
        let session = log.session;
        debug_assert_eq!(history.last_tx_of_session(session), Some(tx));
        if log.events.len() == 1 {
            debug_assert_eq!(log.events[0].id, e, "only the begin is left");
            history.retract_begin(session);
        } else {
            history.unset_wr(e);
            history.pop_event(session);
        }
    }
}

/// Applies `Swap(h_<, r, t)` to `h` in place, under the caller's
/// checkpoint: pops the doomed events, redirects `r` to read from `t` and
/// moves the events of `r`'s (now pending) transaction to the end of the
/// order. The result equals [`swap_with`] on the same
/// arguments — same history, order and rolling hash — without building a
/// second history. Rolling back to the checkpoint and restoring the order
/// undoes it. `ancestors` are the causal ancestors of `target`.
pub fn apply_swap(h: &mut OrderedHistory, read: EventId, target: TxId, ancestors: &TxSet) {
    let r_pos = h.pos(read).expect("read is ordered");
    pop_doomed(
        &mut h.history,
        &h.order,
        r_pos + 1..h.order.len(),
        target,
        ancestors,
    );
    h.history.set_wr(read, target);
    let read_tx = h
        .history
        .tx_of_event(read)
        .expect("read survives the deletion");
    let history = &h.history;
    h.order
        .retain(|e| history.tx_of_event(*e).is_some_and(|t| t != read_tx));
    h.order
        .extend(history.tx(read_tx).events.iter().map(|e| e.id));
}

/// `Swap(h_<, r, t)` (§5.2): produces the ordered history in which `r`
/// reads from `t`, all events after `r` outside the causal past of `t` are
/// removed, and the (now pending) transaction of `r` is moved to the end of
/// the history order. The explorer applies swaps in place
/// ([`apply_swap`]); this copying version is the reference it is tested
/// against.
pub fn swap(h: &OrderedHistory, read: EventId, target: TxId) -> OrderedHistory {
    swap_with(h, read, target, &h.history.causal_ancestors(target))
}

/// Like [`swap`], with the causal ancestors of `target` precomputed by the
/// caller.
pub fn swap_with(
    h: &OrderedHistory,
    read: EventId,
    target: TxId,
    ancestors: &TxSet,
) -> OrderedHistory {
    let doomed = doomed_events_with(h, read, target, ancestors);
    let mut history = h.history.remove_events(&doomed);
    // Redirect the wr dependency of the read to the target transaction.
    history.set_wr(read, target);
    let read_tx = history
        .tx_of_event(read)
        .expect("read survives the deletion");
    // The order keeps surviving events except those of the read's
    // transaction, then appends the read's transaction in program order.
    let mut order: Vec<EventId> = h
        .order
        .iter()
        .filter(|e| history.tx_of_event(**e).is_some_and(|t| t != read_tx))
        .copied()
        .collect();
    order.extend(history.tx(read_tx).events.iter().map(|e| e.id));
    OrderedHistory { history, order }
}

/// Checks whether the last event of a history is a commit and returns the
/// committed transaction; convenience used by the explorer.
pub fn last_committed_transaction(h: &OrderedHistory) -> Option<TxId> {
    let last = h.last()?;
    let ev = h.history.event(last)?;
    if matches!(ev.kind, EventKind::Commit) {
        h.history.tx_of_event(last)
    } else {
        None
    }
}

/// Asserts that [`apply_swap`] turns `h` into exactly [`swap`]`(h, read,
/// target)` — history, order and rolling hash — and that rolling it back
/// restores `h`.
#[cfg(test)]
pub(crate) fn assert_apply_swap_equals_swap(h: &OrderedHistory, read: EventId, target: TxId) {
    let ancestors = h.history.causal_ancestors(target);
    let want = swap_with(h, read, target, &ancestors);
    let mut got = h.clone();
    let mark = got.history.checkpoint();
    apply_swap(&mut got, read, target, &ancestors);
    assert_eq!(got.history, want.history, "swapped history differs");
    assert_eq!(got.order, want.order, "swapped order differs");
    assert_eq!(got.history.live_hash(), want.history.live_hash());
    assert_eq!(got.check_invariants(), Ok(()));
    got.history.rollback(mark);
    assert_eq!(got.history, h.history);
    assert_eq!(got.history.live_hash(), h.history.live_hash());
}

#[cfg(test)]
mod tests {
    use super::*;
    use txdpor_apps::workload::{client_program, App, WorkloadConfig};
    use txdpor_history::testkit::XorShift;
    use txdpor_history::{Event, EventKind, History, SessionId, Value, Var, VarTable};
    use txdpor_program::{initial_history, oracle_next, Program, SchedulerStep, TxStep};

    /// Builds the situation of Fig. 10b: session 0 has a committed reader of
    /// x and y (reading both from init), session 1 just committed a writer
    /// of x and y.
    fn fig10_history() -> OrderedHistory {
        let (x, y) = (Var(0), Var(1));
        let mut h = History::new([]);
        let mut order = Vec::new();
        let mut id = 0u32;
        let mut fresh = || {
            id += 1;
            EventId(id)
        };
        // t1 (session 0): read x <- init; read y <- init; commit
        let b = fresh();
        h.begin_transaction(SessionId(0), TxId(1), 0, Event::new(b, EventKind::Begin));
        order.push(b);
        let r1 = fresh();
        h.append_event(SessionId(0), Event::new(r1, EventKind::Read(x)));
        h.set_wr(r1, TxId::INIT);
        order.push(r1);
        let r2 = fresh();
        h.append_event(SessionId(0), Event::new(r2, EventKind::Read(y)));
        h.set_wr(r2, TxId::INIT);
        order.push(r2);
        let c = fresh();
        h.append_event(SessionId(0), Event::new(c, EventKind::Commit));
        order.push(c);
        // t2 (session 1): write x 2; write y 2; commit
        let b = fresh();
        h.begin_transaction(SessionId(1), TxId(2), 0, Event::new(b, EventKind::Begin));
        order.push(b);
        let w1 = fresh();
        h.append_event(
            SessionId(1),
            Event::new(w1, EventKind::Write(x, Value::Int(2))),
        );
        order.push(w1);
        let w2 = fresh();
        h.append_event(
            SessionId(1),
            Event::new(w2, EventKind::Write(y, Value::Int(2))),
        );
        order.push(w2);
        let c = fresh();
        h.append_event(SessionId(1), Event::new(c, EventKind::Commit));
        order.push(c);
        OrderedHistory { history: h, order }
    }

    #[test]
    fn reorderings_found_after_commit() {
        let h = fig10_history();
        let rs = compute_reorderings(&h);
        // Both reads of t1 can be re-ordered with the writer t2.
        assert_eq!(rs.len(), 2);
        assert!(rs.iter().all(|r| r.target == TxId(2)));
    }

    #[test]
    fn no_reordering_when_last_event_is_not_commit() {
        let mut h = fig10_history();
        // Truncate the last commit.
        let last = h.order.pop().unwrap();
        let doomed: BTreeSet<EventId> = [last].into_iter().collect();
        h.history = h.history.remove_events(&doomed);
        assert!(compute_reorderings(&h).is_empty());
    }

    #[test]
    fn no_reordering_for_causal_dependents() {
        // If the reader reads from the writer, they are causally related and
        // cannot be swapped.
        let x = Var(0);
        let mut h = History::new([]);
        let mut order = Vec::new();
        let mut id = 0u32;
        let mut fresh = || {
            id += 1;
            EventId(id)
        };
        let b = fresh();
        h.begin_transaction(SessionId(0), TxId(1), 0, Event::new(b, EventKind::Begin));
        order.push(b);
        let w = fresh();
        h.append_event(
            SessionId(0),
            Event::new(w, EventKind::Write(x, Value::Int(1))),
        );
        order.push(w);
        let c = fresh();
        h.append_event(SessionId(0), Event::new(c, EventKind::Commit));
        order.push(c);
        let b = fresh();
        h.begin_transaction(SessionId(1), TxId(2), 0, Event::new(b, EventKind::Begin));
        order.push(b);
        let r = fresh();
        h.append_event(SessionId(1), Event::new(r, EventKind::Read(x)));
        h.set_wr(r, TxId(1));
        order.push(r);
        let w2 = fresh();
        h.append_event(
            SessionId(1),
            Event::new(w2, EventKind::Write(x, Value::Int(2))),
        );
        order.push(w2);
        let c = fresh();
        h.append_event(SessionId(1), Event::new(c, EventKind::Commit));
        order.push(c);
        let oh = OrderedHistory { history: h, order };
        // The read of t2 reads from t1; swapping t1's read... there is no
        // read in t1, and t2's read is causally after t1 so no reordering
        // with target t2 is possible for t1 (t1 has no reads anyway).
        assert!(compute_reorderings(&oh).is_empty());
    }

    #[test]
    fn swap_removes_non_causal_suffix_and_redirects_wr() {
        let h = fig10_history();
        let rs = compute_reorderings(&h);
        let first_read = rs
            .iter()
            .find(|r| {
                h.history
                    .event(r.read)
                    .and_then(|e| e.var())
                    .map(|v| v == Var(0))
                    .unwrap_or(false)
            })
            .copied()
            .unwrap();
        let swapped = swap(&h, first_read.read, first_read.target);
        swapped.check_invariants().unwrap();
        // The read's transaction is now pending, positioned last, and reads
        // from t2; its second read (of y) and its commit were removed.
        assert_eq!(swapped.history.num_pending(), 1);
        assert_eq!(swapped.history.wr_of(first_read.read), Some(TxId(2)));
        let t1 = swapped.history.tx(TxId(1));
        assert_eq!(t1.events.len(), 2, "begin + read(x) remain");
        assert!(t1.is_pending());
        // t2 is fully retained.
        assert_eq!(swapped.history.tx(TxId(2)).events.len(), 4);
        // t1's events are at the end of the order.
        let last_two: Vec<TxId> = swapped.order[swapped.order.len() - 2..]
            .iter()
            .map(|e| swapped.history.tx_of_event(*e).unwrap())
            .collect();
        assert_eq!(last_two, vec![TxId(1), TxId(1)]);
    }

    #[test]
    fn doomed_set_is_strictly_after_the_read() {
        let h = fig10_history();
        let rs = compute_reorderings(&h);
        let r = rs[0];
        let doomed = doomed_events(&h, r.read, r.target);
        assert!(!doomed.contains(&r.read));
        let r_pos = h.pos(r.read).unwrap();
        for e in &doomed {
            assert!(h.pos(*e).unwrap() > r_pos);
        }
    }

    #[test]
    fn last_committed_transaction_helper() {
        let h = fig10_history();
        assert_eq!(last_committed_transaction(&h), Some(TxId(2)));
    }

    /// `compute_reorderings_and_ancestors` as it was before it walked the
    /// external reads in place: a vector of external reads per log, and
    /// every test asked per read.
    fn allocating_reorderings(
        h: &OrderedHistory,
        footprints: Option<&ProgramFootprints>,
        pruned: &mut u64,
    ) -> Option<Vec<Reordering>> {
        fn external_reads(log: &txdpor_history::TransactionLog) -> Vec<&Event> {
            let mut written: Vec<Var> = Vec::new();
            let mut out = Vec::new();
            for e in &log.events {
                match &e.kind {
                    EventKind::Read(x) if !written.contains(x) => out.push(e),
                    EventKind::Write(x, _) if !written.contains(x) => written.push(*x),
                    _ => {}
                }
            }
            out
        }
        let last = h.last()?;
        if !h.history.event(last)?.kind.is_commit() {
            return None;
        }
        let target = h.history.tx_of_event(last).unwrap();
        let ancestors = h.history.causal_ancestors(target);
        let target_log = (!target.is_init()).then(|| h.history.tx(target));
        let mut out = Vec::new();
        for log in h.history.transactions() {
            if log.id == target {
                continue;
            }
            if let (Some(fps), Some(target_log)) = (footprints, target_log) {
                if fps.independent_logs(target_log, log) {
                    *pruned += 1;
                    continue;
                }
            }
            for read in external_reads(log) {
                let x = read.var().unwrap();
                if !h.history.writes_var(target, x) || target.is_init() {
                    continue;
                }
                if ancestors.contains(log.id) {
                    continue;
                }
                if !h.tx_before_event(log.id, last) {
                    continue;
                }
                out.push(Reordering {
                    read: read.id,
                    target,
                });
            }
        }
        Some(out)
    }

    /// Runs `program` to completion along a random schedule: each new
    /// transaction comes from a random session, and each external read
    /// reads from a random committed writer. Calls `at_commit` after every
    /// commit.
    fn random_run(program: &Program, seed: u64, mut at_commit: impl FnMut(&OrderedHistory)) {
        let mut rng = XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let mut vars = VarTable::new();
        let mut h = OrderedHistory::new(initial_history(program, &mut vars));
        loop {
            let id = EventId(h.history.max_event_id() + 1);
            match oracle_next(program, &h.history, &mut vars).unwrap() {
                SchedulerStep::Finished => return,
                SchedulerStep::Begin { .. } => {
                    let open: Vec<SessionId> = (0..program.sessions.len() as u32)
                        .map(SessionId)
                        .filter(|s| {
                            h.history.session_txs(*s).len()
                                < program.sessions[s.0 as usize].transactions.len()
                        })
                        .collect();
                    let session = open[rng.below(open.len() as u64) as usize];
                    let index = h.history.session_txs(session).len();
                    let tx = TxId(h.history.max_tx_id() + 1);
                    let begin = Event::new(id, EventKind::Begin);
                    h.history.begin_transaction(session, tx, index, begin);
                    h.push(id);
                }
                SchedulerStep::Continue { session, step } => {
                    let (kind, external_read) = match step {
                        TxStep::Read {
                            var,
                            internal_value,
                        } => (
                            EventKind::Read(var),
                            internal_value.is_none().then_some(var),
                        ),
                        TxStep::Write { var, value } => (EventKind::Write(var, value), None),
                        TxStep::Commit => (EventKind::Commit, None),
                        TxStep::Abort => (EventKind::Abort, None),
                    };
                    let commit = kind.is_commit();
                    h.history.append_event(session, Event::new(id, kind));
                    h.push(id);
                    if let Some(x) = external_read {
                        let writers = h.history.committed_writers_of(x);
                        let writer = writers[rng.below(writers.len() as u64) as usize];
                        h.history.set_wr(id, writer);
                    }
                    if commit {
                        at_commit(&h);
                    }
                }
            }
        }
    }

    /// The in-place walk finds exactly the re-orderings of the allocating
    /// reference, in the same order, and prunes exactly as many
    /// candidates, with and without static footprints, at every commit of
    /// random runs of the five benchmark applications.
    #[test]
    fn reorderings_match_the_allocating_reference_on_random_histories() {
        let (mut commits, mut found, mut pruned) = (0, 0, 0);
        for app in [
            App::Courseware,
            App::ShoppingCart,
            App::Twitter,
            App::Wikipedia,
            App::Tpcc,
        ] {
            for seed in 1..=4 {
                let program = client_program(&WorkloadConfig {
                    app,
                    sessions: 3,
                    transactions_per_session: 3,
                    seed,
                });
                let footprints = ProgramFootprints::analyze(&program);
                for run in 0..4 {
                    random_run(&program, seed * 8 + run, |h| {
                        commits += 1;
                        for fps in [None, Some(&footprints)] {
                            let (mut got_pruned, mut want_pruned) = (0, 0);
                            let got = compute_reorderings_and_ancestors(h, fps, &mut got_pruned)
                                .map(|(_, r)| r);
                            let want = allocating_reorderings(h, fps, &mut want_pruned);
                            assert_eq!(got, want, "{app:?} seed {seed}:\n{}", h.history);
                            assert_eq!(got_pruned, want_pruned);
                            found += got.map_or(0, |r| r.len());
                            pruned += got_pruned;
                        }
                    });
                }
            }
        }
        assert!(commits > 500, "only {commits} commits");
        assert!(found > 100, "only {found} re-orderings");
        assert!(pruned > 100, "only {pruned} statically pruned candidates");
    }
}
