//! The `Optimality` condition restricting re-orderings (§5.3), together
//! with its two ingredients: the `swapped` predicate and the
//! `readLatest` predicate.
//!
//! Without this restriction the exploration is still sound and complete but
//! may enumerate the same history several times (see Fig. 12 and Fig. 13
//! for the two sources of redundancy the condition eliminates). The
//! condition requires that (i) the swapped history is consistent with the
//! exploration isolation level, and (ii) every read deleted by the swap, as
//! well as the re-ordered read itself, is not already swapped and reads
//! from the causally latest valid write.
//!
//! # One pass per commit
//!
//! The explorer decides every re-ordering of a just-committed `t` with
//! one `CommitPass`. For the reads of one commit, the condition's
//! questions are asked of nested prefixes of `h`: `readLatest(r')` is
//! decided on `h` without the doomed events at or after `r'`, and the swap
//! of `r` is that prefix for `r` extended with `r` reading from `t`. The
//! pass works over the commit's *pivots*: its re-ordered reads, plus,
//! under the full condition, every deleted read at or above the lowest of
//! them. Re-ordering `r` is approved when its swap is consistent and every
//! pivot at or above `r` is neither swapped nor fails `readLatest`.
//!
//! 1. On the intact history, one pass over the order gives every
//!    transaction's first and last position, the pivots, their writers
//!    and their `swapped` answers.
//! 2. The pass *descends* once: it pops the doomed suffix pivot by pivot,
//!    opening a checkpoint before each stretch. After a pivot's stretch
//!    is popped, the history is exactly that read's `readLatest` prefix.
//! 3. It then *ascends*. At each pivot it appends the read once under a
//!    trial. A re-ordered read is first checked reading from `t`: that is
//!    the swapped history, structurally identical to the swap the
//!    explorer applies, so it shares its memo entry. While some consistent
//!    re-ordering at or below the pivot is still alive, the pivot's
//!    `readLatest` is decided; a swapped pivot or a failure rejects every
//!    alive re-ordering. The trial and the stretch are rolled back.
//!
//! Each doomed event is popped and restored once per commit instead of
//! once per query, and no `readLatest` runs twice. The per-re-ordering
//! [`optimality`], [`swapped`] and [`read_latest`] run the same queries one
//! at a time, each on the explorer's history in place as a trial under a
//! checkpoint that is rolled back; they are the reference the pass is
//! tested against. Either way the condition is a verdict only: the
//! explorer applies an accepted swap itself when it visits that child.

use txdpor_history::{
    ConsistencyChecker, Event, EventId, EventKind, History, HistoryMark, SessionId, TxId, TxSet,
    Var, WrTrial,
};

use crate::ordered::OrderedHistory;
use crate::swap::{pop_doomed, Reordering};

/// Oracle-order key of a transaction: `(session, program index)`, with the
/// init transaction smaller than everything.
fn oracle_key(h: &OrderedHistory, t: TxId) -> (i64, i64) {
    if t.is_init() {
        return (-1, -1);
    }
    let log = h.history.tx(t);
    (log.session.0 as i64, log.program_index as i64)
}

/// The `swapped(h_<, r)` predicate (§5.3): whether the read `r` is the
/// pivot of a previous swap. A read is swapped when (1) it reads from a
/// transaction that follows it in the oracle order but precedes it in the
/// history order, (2) no transaction that precedes `tr(r)` in the oracle
/// order and precedes `r` in the history order is a causal successor of the
/// transaction read, (3) `r` is the first read of its transaction reading
/// from that transaction, and (4) no po-earlier read of the same
/// transaction is itself a swap pivot.
///
/// Condition (4) extends the paper's condition (3) to its stated intent
/// ("later read events from the same transaction as a swapped read must not
/// be considered as swapped"): once a transaction has been re-ordered at an
/// earlier read, the re-executed reads that follow it may read from
/// oracle-later transactions through `ValidWrites` without ever having been
/// the pivot of a swap; classifying them as swapped would disable
/// re-orderings that completeness requires.
pub fn swapped(h: &OrderedHistory, read: EventId) -> bool {
    if !swapped_pivot(h, read) {
        return false;
    }
    // Condition (4): r is the po-earliest swap pivot of its transaction.
    let reader_tx = h
        .history
        .tx_of_event(read)
        .expect("read belongs to a transaction");
    let log = h.history.tx(reader_tx);
    !log.read_events()
        .filter(|other| other.id != read && log.po_before(other.id, read))
        .any(|other| swapped_pivot(h, other.id))
}

/// Conditions (1)–(3) of the `swapped` predicate.
fn swapped_pivot(h: &OrderedHistory, read: EventId) -> bool {
    let Some(writer) = h.history.wr_of(read) else {
        return false;
    };
    let reader_tx = h
        .history
        .tx_of_event(read)
        .expect("read belongs to a transaction");
    // Condition (1): writer before r in history order, after r in oracle order.
    if !h.tx_before_event(writer, read) {
        return false;
    }
    if oracle_key(h, writer) <= oracle_key(h, reader_tx) {
        return false;
    }
    // Condition (2): no transaction t' with t' <_or tr(r), t' < r in history
    // order, and (writer, t') ∈ (so ∪ wr)+. One forward BFS from the writer
    // answers every membership query.
    let writer_descendants = h.history.causal_descendants(writer);
    for t_prime in h.history.tx_ids() {
        if oracle_key(h, t_prime) < oracle_key(h, reader_tx)
            && !h.event_before_tx(read, t_prime)
            && writer_descendants.contains(t_prime)
        {
            return false;
        }
    }
    // Condition (3): no earlier read of the same transaction reads from the
    // same writer.
    let log = h.history.tx(reader_tx);
    for other in log.read_events() {
        if other.id != read
            && log.po_before(other.id, read)
            && h.history.wr_of(other.id) == Some(writer)
        {
            return false;
        }
    }
    true
}

/// The `readLatest_I(h_<, r, t)` predicate (§5.3): whether `r` currently
/// reads from the causally latest valid transaction, i.e. the maximal
/// transaction (w.r.t. the history order) among those that write `var(r)`,
/// belong to the causal past of `tr(r)` once the events at or after `r`
/// outside the causal past of `t` are removed, and keep the history
/// consistent with the checker's level when `r` reads from them.
pub fn read_latest(
    h: &mut OrderedHistory,
    read: EventId,
    target: TxId,
    target_ancestors: &TxSet,
    checker: &mut dyn ConsistencyChecker,
) -> bool {
    let Some(current_writer) = h.history.wr_of(read) else {
        return false;
    };
    let read_event = h
        .history
        .event(read)
        .expect("read is in the history")
        .clone();
    let var = read_event.var().expect("read has a variable");
    let reader_tx = h
        .history
        .tx_of_event(read)
        .expect("read belongs to a transaction");
    let reader_session = h.history.tx(reader_tx).session;
    let r_pos = h.pos(read).expect("read is ordered");

    // h' = h \ { e | r ≤ e ∧ (tr(e), t) ∉ (so ∪ wr)* }, built in place
    // under a checkpoint instead of copying the history out of the arena
    // (the read itself is always deleted: its transaction is never in the
    // causal past of `t` when this predicate is evaluated).
    let history = &mut h.history;
    let mark = history.checkpoint();
    pop_doomed(
        history,
        &h.order,
        r_pos..h.order.len(),
        target,
        target_ancestors,
    );
    if !history.contains_tx(reader_tx) {
        // The reader's prefix always survives (its begin precedes r), so
        // this should not happen; be conservative if it does.
        history.rollback(mark);
        return false;
    }

    // Candidate writers: in the causal past of tr(r) within h' (excluding
    // the wr dependency of r itself, which was deleted together with r),
    // writing var(r), and keeping the history consistent when read from.
    // The trial `h' ⊕ r ⊕ wr(t', r)` extends the same arena and each
    // candidate's wr edge is set, checked and unset, so the consistency
    // engine syncs incrementally across the whole loop; the rollback
    // restores the node's history bit-for-bit.
    let reader_ancestors = history.causal_ancestors(reader_tx);
    let candidates: Vec<TxId> = std::iter::once(TxId::INIT)
        .chain(history.tx_ids())
        .collect();
    history.append_event(reader_session, read_event);
    let trial = history.prepare_wr_trial(read);
    let mut valid: Vec<TxId> = Vec::new();
    for t_prime in candidates {
        if !history.writes_var(t_prime, var) {
            continue;
        }
        if !t_prime.is_init() && t_prime != reader_tx && !reader_ancestors.contains(t_prime) {
            continue;
        }
        history.set_wr_trial(&trial, t_prime);
        let consistent = checker.check(history);
        history.unset_wr_trial(&trial);
        if consistent {
            valid.push(t_prime);
        }
    }
    history.rollback(mark);
    // The causally latest valid writer is the one whose last event comes
    // latest in the (restored) history order: the first event found by a
    // backward scan. `init` has no ordered events and only wins alone.
    if valid.is_empty() {
        return false;
    }
    let latest = h
        .order
        .iter()
        .rev()
        .find_map(|e| {
            let t = h.history.tx_of_event(*e).expect("ordered event is live");
            valid.contains(&t).then_some(t)
        })
        .unwrap_or(TxId::INIT);
    latest == current_writer
}

/// The full `Optimality(h_<, r, t)` condition (§5.3): the swapped history is
/// consistent with the checker's isolation level, and every deleted read
/// (plus `r` itself) is not already swapped and reads from the causally
/// latest valid write.
///
/// The consistency queries are funnelled through the caller's
/// [`ConsistencyChecker`] engine so that scratch buffers and the
/// fingerprint memo amortise across the whole exploration. Every query
/// runs on `h` in place under a checkpoint, and `h` is restored before
/// returning. The explorer decides a commit's re-orderings with one
/// `CommitPass` instead; this is the reference it is tested against.
pub fn optimality(
    h: &mut OrderedHistory,
    read: EventId,
    target: TxId,
    target_ancestors: &TxSet,
    checker: &mut dyn ConsistencyChecker,
    full_condition: bool,
) -> bool {
    // Consistency of the swapped history, decided on an in-place trial:
    // pop the doomed suffix, redirect the read, check, roll back. The
    // trial history is structurally identical to `swap(h, read, target)`
    // — same logs, same wr, same rolling hash — so the verdict (and even
    // the engine's memo entry) transfers to the swap the caller applies.
    let r_pos = h.pos(read).expect("read is ordered");
    let mark = h.history.checkpoint();
    pop_doomed(
        &mut h.history,
        &h.order,
        r_pos + 1..h.order.len(),
        target,
        target_ancestors,
    );
    h.history.set_wr(read, target);
    let consistent = checker.check(&h.history);
    h.history.rollback(mark);
    if !consistent {
        return false;
    }
    if full_condition {
        // Every read deleted by the swap, plus `r` itself, must not be
        // already swapped and must read from the causally latest valid
        // write.
        let mut to_check: Vec<EventId> = vec![read];
        for e in &h.order[r_pos + 1..] {
            let tx = h.history.tx_of_event(*e).expect("ordered event has owner");
            if tx == target || target_ancestors.contains(tx) {
                continue;
            }
            let ev = h.history.event(*e).expect("ordered event is live");
            if matches!(ev.kind, EventKind::Read(_)) && h.history.wr_of(*e).is_some() {
                to_check.push(*e);
            }
        }
        for r_prime in to_check {
            if swapped(h, r_prime) {
                return false;
            }
            if !read_latest(h, r_prime, target, target_ancestors, checker) {
                return false;
            }
        }
    }
    true
}

/// An unset slot of [`CommitPass`]: a transaction not met yet in the
/// order, or the re-ordering of a pivot that is no re-ordering's read.
const UNSET: u32 = u32::MAX;

/// A read the commit-wide pass stops at: a re-ordered read, or, under the
/// full condition, a read that some re-ordering deletes.
#[derive(Copy, Clone, Debug)]
struct Pivot {
    read: EventId,
    var: Var,
    /// Transaction and session of the read.
    tx: TxId,
    session: SessionId,
    /// Position of the read in the history order.
    pos: u32,
    /// Index of the re-ordering whose read this is, or [`UNSET`].
    reordering: u32,
    /// The transaction the read reads from in the intact history.
    writer: TxId,
    /// `swapped(h, read)` on the intact history.
    swapped: bool,
}

/// The commit-wide `Optimality` pass (see the module documentation). The
/// explorer owns one and reuses its buffers from commit to commit.
#[derive(Debug, Default)]
pub(crate) struct CommitPass {
    /// `TxId.0 ↦` first and last position of the transaction in the
    /// history order.
    spans: Vec<(u32, u32)>,
    /// `(position of the read, index)` of every re-ordering, sorted.
    by_pos: Vec<(u32, u32)>,
    /// The pivots, in history order.
    pivots: Vec<Pivot>,
    /// One checkpoint per popped stretch; the lowest pivot's is on top.
    marks: Vec<HistoryMark>,
    /// Indices of the re-orderings whose swap is consistent and that no
    /// pivot has rejected yet.
    alive: Vec<u32>,
    /// Candidate writers of the `readLatest` being decided.
    candidates: Vec<TxId>,
    /// `TxId.0 ↦` stamp of the last `swapped` scan that reached the
    /// transaction from the read's writer.
    reached: Vec<u32>,
    stamp: u32,
}

impl CommitPass {
    /// Decides `Optimality(h, r, t)` for every re-ordering `(r, t)` of
    /// `reorderings`, which all share the just-committed `t` whose causal
    /// ancestors are `ancestors`, and pushes the reads of the approved
    /// ones onto `approved` in the order of `reorderings`. The verdicts
    /// equal [`optimality`]'s; `h` is restored before returning.
    pub(crate) fn decide(
        &mut self,
        h: &mut OrderedHistory,
        reorderings: &[Reordering],
        ancestors: &TxSet,
        checker: &mut dyn ConsistencyChecker,
        full_condition: bool,
        approved: &mut Vec<EventId>,
    ) {
        let Some(target) = reorderings.first().map(|r| r.target) else {
            return;
        };
        debug_assert!(reorderings.iter().all(|r| r.target == target));
        self.collect_pivots(h, reorderings, target, ancestors, full_condition);
        if full_condition {
            for k in 0..self.pivots.len() {
                let p = self.pivots[k];
                self.pivots[k].swapped = self.swapped(h, p.read, p.tx);
            }
        }

        // Descent: pop the doomed suffix stretch by stretch, from the top.
        let mut end = h.order.len();
        for p in self.pivots.iter().rev() {
            let pos = p.pos as usize;
            self.marks.push(h.history.checkpoint());
            pop_doomed(&mut h.history, &h.order, pos..end, target, ancestors);
            end = pos;
        }

        // Ascent: each pivot's read is appended once, under a trial.
        let history = &mut h.history;
        self.alive.clear();
        for k in 0..self.pivots.len() {
            let p = self.pivots[k];
            let trial_mark = history.checkpoint();
            history.append_event(p.session, Event::new(p.read, EventKind::Read(p.var)));
            let trial = history.prepare_wr_trial(p.read);
            if p.reordering != UNSET {
                history.set_wr_trial(&trial, target);
                if checker.check(history) {
                    self.alive.push(p.reordering);
                }
                history.unset_wr_trial(&trial);
            }
            if full_condition
                && !self.alive.is_empty()
                && (p.swapped || !self.read_latest(history, &p, &trial, checker))
            {
                self.alive.clear();
            }
            history.rollback(trial_mark);
            history.rollback(self.marks.pop().expect("one mark per pivot"));
        }
        // `alive` grew in history order; report in the caller's order.
        self.alive.sort_unstable();
        approved.extend(self.alive.iter().map(|&i| reorderings[i as usize].read));
    }

    /// One pass over the order of `h`: the first and last position of
    /// every transaction.
    fn index_spans(&mut self, h: &OrderedHistory) {
        self.spans.clear();
        self.spans
            .resize(h.history.max_tx_id() as usize + 1, (UNSET, UNSET));
        for (pos, &e) in h.order.iter().enumerate() {
            let tx = h.history.tx_of_event(e).expect("ordered event is live");
            let span = &mut self.spans[tx.0 as usize];
            if span.0 == UNSET {
                span.0 = pos as u32;
            }
            span.1 = pos as u32;
        }
    }

    /// Reads the intact `h`: the position spans, then the pivots with
    /// their writers, from the lowest re-ordered read up.
    fn collect_pivots(
        &mut self,
        h: &OrderedHistory,
        reorderings: &[Reordering],
        target: TxId,
        ancestors: &TxSet,
        full_condition: bool,
    ) {
        self.index_spans(h);
        let history = &h.history;
        // A transaction's events are a contiguous block of the order, so
        // a read's position is its transaction's first plus its po index.
        self.by_pos.clear();
        self.by_pos
            .extend(reorderings.iter().enumerate().map(|(i, r)| {
                let tx = history
                    .tx_of_event(r.read)
                    .expect("re-ordered read is live");
                let po = history.tx(tx).po_position(r.read).expect("read in its log");
                let pos = self.spans[tx.0 as usize].0 + po as u32;
                debug_assert_eq!(h.order[pos as usize], r.read, "transaction block broken");
                (pos, i as u32)
            }));
        self.by_pos.sort_unstable();
        self.pivots.clear();
        let mut next = self.by_pos.iter().peekable();
        let lowest = self.by_pos[0].0 as usize;
        for (pos, &e) in h.order.iter().enumerate().skip(lowest) {
            let reordering = match next.next_if(|(p, _)| *p as usize == pos) {
                Some(&(_, i)) => i,
                None => UNSET,
            };
            let Some(writer) = history.wr_of(e) else {
                continue;
            };
            let tx = history.tx_of_event(e).expect("ordered event is live");
            // Every read of a doomed transaction above the lowest
            // re-ordered read is deleted by some re-ordering.
            let deleted = full_condition && tx != target && !ancestors.contains(tx);
            if reordering == UNSET && !deleted {
                continue;
            }
            let var = match history.event(e).map(|ev| &ev.kind) {
                Some(EventKind::Read(x)) => *x,
                _ => unreachable!("only reads have a writer"),
            };
            self.pivots.push(Pivot {
                read: e,
                var,
                tx,
                session: history.tx(tx).session,
                pos: pos as u32,
                reordering,
                writer,
                swapped: false,
            });
        }
        debug_assert!(next.next().is_none(), "a re-ordered read has no writer");
    }

    /// [`swapped`] on `h`, computed the pass's way.
    #[cfg(test)]
    pub(crate) fn swapped_read(&mut self, h: &OrderedHistory, read: EventId) -> bool {
        self.index_spans(h);
        let tx = h.history.tx_of_event(read).expect("read is live");
        self.swapped(h, read, tx)
    }

    /// Position of the last event of `t`; `-1` for init, which precedes
    /// every event.
    fn last_pos(&self, t: TxId) -> i64 {
        if t.is_init() {
            -1
        } else {
            self.spans[t.0 as usize].1 as i64
        }
    }

    /// [`swapped`] on the intact `h`, from the position table: the read is
    /// the po-first read of its transaction `tx` that satisfies conditions
    /// (1)–(3).
    fn swapped(&mut self, h: &OrderedHistory, read: EventId, tx: TxId) -> bool {
        let first = self.spans[tx.0 as usize].0 as usize;
        for (po, ev) in h.history.tx(tx).events.iter().enumerate() {
            debug_assert_eq!(h.order[first + po], ev.id, "transaction block broken");
            if ev.id == read {
                return self.swapped_pivot(h, read, tx, first + po);
            }
            if ev.kind.is_read() && self.swapped_pivot(h, ev.id, tx, first + po) {
                return false;
            }
        }
        unreachable!("the read belongs to its transaction")
    }

    /// Conditions (1)–(3) of [`swapped`] for `read`, of transaction
    /// `reader` at position `pos`, on the intact `h`.
    fn swapped_pivot(
        &mut self,
        h: &OrderedHistory,
        read: EventId,
        reader: TxId,
        pos: usize,
    ) -> bool {
        let history = &h.history;
        let Some(writer) = history.wr_of(read) else {
            return false;
        };
        // Condition (1): the writer precedes `r` in the history order and
        // follows it in the oracle order (init precedes everything).
        if writer.is_init()
            || self.last_pos(writer) >= pos as i64
            || oracle_key(h, writer) <= oracle_key(h, reader)
        {
            return false;
        }
        // Condition (3): no po-earlier read of the transaction reads from
        // the writer.
        let log = history.tx(reader);
        let before_read = log.events.iter().take_while(|ev| ev.id != read);
        if before_read
            .filter(|ev| ev.kind.is_read())
            .any(|ev| history.wr_of(ev.id) == Some(writer))
        {
            return false;
        }
        // Condition (2): no causal descendant of the writer that precedes
        // `tr(r)` in the oracle order starts before `r`. The order is
        // consistent with so ∪ wr and every transaction is a contiguous
        // block, so those descendants are found by one forward scan from
        // the writer's block to `r`, marking a transaction reached when
        // its session predecessor or one of its writers is.
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.reached.clear();
            self.stamp = 1;
        }
        self.reached.resize(self.spans.len(), 0);
        let stamp = self.stamp;
        self.reached[writer.0 as usize] = stamp;
        let reader_key = oracle_key(h, reader);
        for (p, &e) in h
            .order
            .iter()
            .enumerate()
            .take(pos)
            .skip(self.last_pos(writer) as usize + 1)
        {
            let u = history.tx_of_event(e).expect("ordered event is live");
            if self.reached[u.0 as usize] == stamp {
                continue;
            }
            let reached = if p == self.spans[u.0 as usize].0 as usize {
                let log = history.tx(u);
                let sidx = history.tx_session_index(u).expect("live transaction");
                sidx > 0
                    && self.reached[history.session_txs(log.session)[sidx - 1].0 as usize] == stamp
            } else {
                false
            } || history
                .wr_of(e)
                .is_some_and(|w| self.reached[w.0 as usize] == stamp);
            if reached {
                if oracle_key(h, u) < reader_key {
                    return false;
                }
                self.reached[u.0 as usize] = stamp;
            }
        }
        true
    }

    /// `readLatest(h, r, t)` for pivot `p`: `history` is `h` without the
    /// doomed events at or after `r`, extended with `r` reading from
    /// nothing (`trial` is its handle). Every candidate writer is tried as
    /// in [`read_latest`], and the latest valid one is compared, by its
    /// last position in the intact order, with the writer `r` reads from
    /// in `h`.
    fn read_latest(
        &mut self,
        history: &mut History,
        p: &Pivot,
        trial: &WrTrial,
        checker: &mut dyn ConsistencyChecker,
    ) -> bool {
        let reader_ancestors = history.causal_ancestors(p.tx);
        self.candidates.clear();
        self.candidates.push(TxId::INIT);
        self.candidates.extend(history.tx_ids().filter(|&t| {
            (t == p.tx || reader_ancestors.contains(t)) && history.writes_var(t, p.var)
        }));
        let mut latest: Option<TxId> = None;
        for &t in &self.candidates {
            history.set_wr_trial(trial, t);
            let consistent = checker.check(history);
            history.unset_wr_trial(trial);
            if consistent && latest.map_or(true, |l| self.last_pos(t) > self.last_pos(l)) {
                latest = Some(t);
            }
        }
        latest == Some(p.writer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swap::{apply_swap, compute_reorderings};
    use txdpor_history::{
        engine_for, Event, EventKind, History, IsolationLevel, SessionId, Value, Var,
    };

    struct Builder {
        h: History,
        order: Vec<EventId>,
        next_event: u32,
        next_tx: u32,
    }

    impl Builder {
        fn new() -> Self {
            Builder {
                h: History::new([]),
                order: Vec::new(),
                next_event: 0,
                next_tx: 0,
            }
        }
        fn fresh(&mut self) -> EventId {
            self.next_event += 1;
            EventId(self.next_event)
        }
        fn begin(&mut self, s: u32) -> TxId {
            self.next_tx += 1;
            let id = TxId(self.next_tx);
            let idx = self.h.session_txs(SessionId(s)).len();
            let e = Event::new(self.fresh(), EventKind::Begin);
            self.order.push(e.id);
            self.h.begin_transaction(SessionId(s), id, idx, e);
            id
        }
        fn write(&mut self, s: u32, x: Var, v: i64) {
            let e = Event::new(self.fresh(), EventKind::Write(x, Value::Int(v)));
            self.order.push(e.id);
            self.h.append_event(SessionId(s), e);
        }
        fn read(&mut self, s: u32, x: Var, from: TxId) -> EventId {
            let e = Event::new(self.fresh(), EventKind::Read(x));
            let id = e.id;
            self.order.push(id);
            self.h.append_event(SessionId(s), e);
            self.h.set_wr(id, from);
            id
        }
        fn commit(&mut self, s: u32) {
            let e = Event::new(self.fresh(), EventKind::Commit);
            self.order.push(e.id);
            self.h.append_event(SessionId(s), e);
        }
        fn done(self) -> OrderedHistory {
            OrderedHistory {
                history: self.h,
                order: self.order,
            }
        }
    }

    /// Fig. 12: two reading sessions and two writing sessions on x.
    /// History: t1=write(x,2) committed; t2=read(x)<-init; t3=read(x) with a
    /// given wr; t4=write(x,4) just committed.
    fn fig12(t3_reads_from_init: bool) -> (OrderedHistory, EventId, EventId) {
        let x = Var(0);
        let mut b = Builder::new();
        let t1 = b.begin(0);
        b.write(0, x, 2);
        b.commit(0);
        b.begin(1);
        let r2 = b.read(1, x, TxId::INIT);
        b.commit(1);
        b.begin(2);
        let r3 = if t3_reads_from_init {
            b.read(2, x, TxId::INIT)
        } else {
            b.read(2, x, t1)
        };
        b.commit(2);
        b.begin(3);
        b.write(3, x, 4);
        b.commit(3);
        (b.done(), r2, r3)
    }

    #[test]
    fn read_latest_distinguishes_fig12_branches() {
        let mut ck = engine_for(IsolationLevel::CausalConsistency);
        // In the branch where t3 reads from init, both deleted reads read
        // from their causally latest write (init is the only causal writer),
        // so the swap of (r2, t4) is enabled.
        let (mut h, r2, r3) = fig12(true);
        let target = TxId(4);
        let anc = h.history.causal_ancestors(target);
        let snapshot = h.clone();
        assert!(read_latest(&mut h, r2, target, &anc, ck.as_mut()));
        assert!(read_latest(&mut h, r3, target, &anc, ck.as_mut()));
        assert!(optimality(&mut h, r2, target, &anc, ck.as_mut(), true));
        assert_eq!(h, snapshot, "in-place trials must restore the history");

        // In the branch where t3 reads from t1: once the wr edge of r3
        // itself is excluded, t1 is not in r3's causal past, so the
        // causally latest valid writer is init while r3 reads from t1 —
        // the swap must be disabled (this is exactly Fig. 12's argument).
        let (mut h, r2, r3) = fig12(false);
        let anc = h.history.causal_ancestors(target);
        assert!(read_latest(&mut h, r2, target, &anc, ck.as_mut()));
        assert!(!read_latest(&mut h, r3, target, &anc, ck.as_mut()));
        assert!(!optimality(&mut h, r2, target, &anc, ck.as_mut(), true));
        // The ablation mode (consistency only) would still allow it.
        assert!(optimality(&mut h, r2, target, &anc, ck.as_mut(), false));
    }

    /// Fig. 10b: a committed reader of x and y (both from init) followed
    /// by a just-committed writer of x and y.
    fn fig10() -> OrderedHistory {
        let (x, y) = (Var(0), Var(1));
        let mut b = Builder::new();
        b.begin(0);
        b.read(0, x, TxId::INIT);
        b.read(0, y, TxId::INIT);
        b.commit(0);
        b.begin(1);
        b.write(1, x, 2);
        b.write(1, y, 2);
        b.commit(1);
        b.done()
    }

    /// Fig. 13b: readers of x and y (both from init), then the writer of
    /// y and the just-committed writer of x, one session each.
    fn fig13() -> OrderedHistory {
        let (x, y) = (Var(0), Var(1));
        let mut b = Builder::new();
        b.begin(0);
        b.read(0, x, TxId::INIT);
        b.commit(0);
        b.begin(1);
        b.read(1, y, TxId::INIT);
        b.commit(1);
        b.begin(2);
        b.write(2, y, 3);
        b.commit(2);
        b.begin(3);
        b.write(3, x, 4);
        b.commit(3);
        b.done()
    }

    /// History h1 of Fig. 13c: t1=read(x)<-init; t3=write(y,3) committed;
    /// t2=read(y)<-t3 (swapped earlier: t3 is after t2 in oracle order);
    /// t4=write(x,4) just committed. Returns the history and the reads of
    /// t1 and t2.
    fn fig13_swapped() -> (OrderedHistory, EventId, EventId) {
        let (x, y) = (Var(0), Var(1));
        let mut b = Builder::new();
        b.begin(0); // session 0: t1 = read x
        let r1 = b.read(0, x, TxId::INIT);
        b.commit(0);
        // session 2: t3 = write y (oracle position (2,0))
        b.begin(2);
        b.write(2, y, 3);
        b.commit(2);
        let t3 = TxId(2);
        // session 1: t2 = read y, reading from t3 which is later in oracle order
        b.begin(1);
        let r2 = b.read(1, y, t3);
        b.commit(1);
        // session 3: t4 = write x
        b.begin(3);
        b.write(3, x, 4);
        b.commit(3);
        (b.done(), r1, r2)
    }

    /// Fig. 13: four single-transaction sessions; after swapping t3 before
    /// t2, the read of t2 is "swapped" and must not be deleted by a later
    /// swap.
    #[test]
    fn swapped_reads_block_further_swaps() {
        let mut ck = engine_for(IsolationLevel::CausalConsistency);
        let (h1, r1, r2) = fig13_swapped();
        let t4 = TxId(4);
        h1.check_invariants().unwrap();

        // r2 is a swapped read; r1 is not.
        assert!(swapped(&h1, r2));
        assert!(!swapped(&h1, r1));

        // Swapping (r1, t4) would delete r2 (t2 is not in t4's causal past),
        // and r2 is swapped, so Optimality rejects it.
        let mut h1 = h1;
        let reorderings = compute_reorderings(&h1);
        assert!(reorderings.iter().any(|p| p.read == r1 && p.target == t4));
        let anc = h1.history.causal_ancestors(t4);
        assert!(!optimality(&mut h1, r1, t4, &anc, ck.as_mut(), true));
        // Without the swapped-check ablation it would be allowed.
        assert!(optimality(&mut h1, r1, t4, &anc, ck.as_mut(), false));
    }

    /// The pass's `swapped`, which finds the writer's causal descendants
    /// by one scan of the order, agrees with the reference on the two
    /// shapes explorations rarely build: a descendant reached through a
    /// session successor of the writer, and a transaction with two reads
    /// that satisfy conditions (1)–(3).
    #[test]
    fn pass_swapped_agrees_on_session_chains_and_second_pivots() {
        let (x, y) = (Var(0), Var(1));
        // w (session 2) writes x, its session successor t1 writes y, t2
        // (session 0, oracle-before the reader) reads y from t1, and the
        // reader (session 1) reads x from w: w reaches t2 through so then
        // wr, so the read is not swapped (condition (2)).
        let mut b = Builder::new();
        let w = b.begin(2);
        b.write(2, x, 1);
        b.commit(2);
        let t1 = b.begin(2);
        b.write(2, y, 1);
        b.commit(2);
        b.begin(0);
        b.read(0, y, t1);
        b.commit(0);
        b.begin(1);
        let r = b.read(1, x, w);
        b.commit(1);
        let h = b.done();
        h.check_invariants().unwrap();
        let mut pass = CommitPass::default();
        assert!(!swapped(&h, r));
        assert!(!pass.swapped_read(&h, r));

        // A reader (session 1) of x from w1 (session 2) and of y from w2
        // (session 3): both reads satisfy (1)–(3), only the first is
        // swapped (condition (4)).
        let mut b = Builder::new();
        let w1 = b.begin(2);
        b.write(2, x, 1);
        b.commit(2);
        let w2 = b.begin(3);
        b.write(3, y, 1);
        b.commit(3);
        b.begin(1);
        let rx = b.read(1, x, w1);
        let ry = b.read(1, y, w2);
        b.commit(1);
        let h = b.done();
        h.check_invariants().unwrap();
        assert!(swapped(&h, rx) && pass.swapped_read(&h, rx));
        assert!(!swapped(&h, ry) && !pass.swapped_read(&h, ry));
    }

    #[test]
    fn applied_swap_equals_swap() {
        // The in-place swap the explorer applies must produce exactly
        // `Swap(h, r, t)`: same history, same order, same rolling hash (so
        // memo entries transfer). Checked at every candidate re-ordering
        // of the Fig. 10, Fig. 12 (both branches) and Fig. 13 fixtures.
        let fixtures = [
            fig10(),
            fig12(true).0,
            fig12(false).0,
            fig13(),
            fig13_swapped().0,
        ];
        let mut checked = 0;
        for h in &fixtures {
            for r in compute_reorderings(h) {
                crate::swap::assert_apply_swap_equals_swap(h, r.read, r.target);
                checked += 1;
            }
        }
        assert!(checked >= 6, "only {checked} re-orderings checked");
        // The accepted Fig. 12 swap, as the explorer applies it.
        let (mut h, r2, _) = fig12(true);
        let target = TxId(4);
        let anc = h.history.causal_ancestors(target);
        let mut ck = engine_for(IsolationLevel::CausalConsistency);
        assert!(optimality(&mut h, r2, target, &anc, ck.as_mut(), true));
        let want = crate::swap::swap(&h, r2, target);
        apply_swap(&mut h, r2, target, &anc);
        assert_eq!(h.history, want.history);
        assert_eq!(h.order, want.order);
        assert_eq!(h.history.live_hash(), want.history.live_hash());
        h.check_invariants().unwrap();
    }

    #[test]
    fn reads_from_oracle_predecessors_are_not_swapped() {
        // A read from a transaction earlier in the oracle order is never
        // considered swapped.
        let x = Var(0);
        let mut b = Builder::new();
        let t1 = b.begin(0);
        b.write(0, x, 1);
        b.commit(0);
        b.begin(1);
        let r = b.read(1, x, t1);
        b.commit(1);
        let h = b.done();
        assert!(!swapped(&h, r));
    }

    #[test]
    fn optimality_rejects_inconsistent_swaps() {
        // A reader of x commits reading the initial value, then a writer of
        // x commits; swapping the read towards the writer yields a
        // consistent history, so Optimality returns the swapped history
        // (the inconsistent-swap rejection is exercised by the explorer
        // tests on stronger levels).
        let x = Var(0);
        let mut b = Builder::new();
        b.begin(0);
        let r = b.read(0, x, TxId::INIT);
        b.commit(0);
        b.begin(1);
        b.write(1, x, 1);
        b.commit(1);
        let mut h = b.done();
        let t2 = TxId(2);
        let mut ck = engine_for(IsolationLevel::CausalConsistency);
        let anc = h.history.causal_ancestors(t2);
        assert!(optimality(&mut h, r, t2, &anc, ck.as_mut(), true));
        apply_swap(&mut h, r, t2, &anc);
        h.check_invariants().unwrap();
        assert_eq!(h.history.wr_of(r), Some(t2));
    }
}
