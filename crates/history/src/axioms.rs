//! The axiomatic framework of Biswas & Enea used to define isolation levels
//! (§2.2.2, Fig. 2 and Fig. A.1), together with a slow reference *oracle*
//! checker that enumerates commit orders directly.
//!
//! Every axiom is a first-order formula of the shape
//!
//! ```text
//! ∀x. ∀t1 ≠ t2. ∀α.  ⟨t1, α⟩ ∈ wr_x ∧ t2 writes x ∧ φ(t2, α)  ⇒  ⟨t2, t1⟩ ∈ co
//! ```
//!
//! where `α` is a read event, `t1` the transaction it reads from, and `φ`
//! varies per axiom. The efficient checkers live in [`crate::check`]. Here,
//! [`axioms_hold_spec`] instantiates the axioms literally and backs the
//! exponential oracle used by tests and cross-validation, while
//! [`check_with_order_spec`] decides the same predicate on one given
//! commit order in a pass over the reads: it re-validates every witness.

use std::collections::BTreeMap;

use crate::arena::TxSet;
use crate::event::{EventId, EventKind};
use crate::history::History;
use crate::isolation::{IsolationLevel, LevelSpec};
use crate::relations::Digraph;
use crate::transaction::{TransactionLog, TxId};
use crate::value::Var;

/// One axiom of the framework.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Axiom {
    /// Read Committed: `φ(t2, α) := ⟨t2, α⟩ ∈ wr ∘ po`.
    ReadCommitted,
    /// Read Atomic: `φ(t2, α) := ⟨t2, tr(α)⟩ ∈ so ∪ wr`.
    ReadAtomic,
    /// Causal Consistency: `φ(t2, α) := ⟨t2, tr(α)⟩ ∈ (so ∪ wr)⁺`.
    Causal,
    /// Prefix (half of Snapshot Isolation):
    /// `φ(t2, α) := ⟨t2, tr(α)⟩ ∈ co* ∘ (so ∪ wr)`.
    Prefix,
    /// Conflict (half of Snapshot Isolation): `φ(t2, α)` holds when there is
    /// a transaction `t4` and a variable `y` such that both `t4` and `tr(α)`
    /// write `y`, `⟨t2, t4⟩ ∈ co*` and `⟨t4, tr(α)⟩ ∈ co`.
    Conflict,
    /// Serializability: `φ(t2, α) := ⟨t2, tr(α)⟩ ∈ co`.
    Serializability,
}

/// The axioms defining each isolation level.
pub fn axioms_for(level: IsolationLevel) -> &'static [Axiom] {
    match level {
        IsolationLevel::Trivial => &[],
        IsolationLevel::ReadCommitted => &[Axiom::ReadCommitted],
        IsolationLevel::ReadAtomic => &[Axiom::ReadAtomic],
        IsolationLevel::CausalConsistency => &[Axiom::Causal],
        IsolationLevel::PrefixConsistency => &[Axiom::Prefix],
        IsolationLevel::SnapshotIsolation => &[Axiom::Prefix, Axiom::Conflict],
        IsolationLevel::Serializability => &[Axiom::Serializability],
    }
}

/// A candidate commit order: a strict total order over the transactions of a
/// history, represented by the position of each transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitOrder {
    pos: BTreeMap<TxId, usize>,
}

impl CommitOrder {
    /// Builds a commit order from a sequence of transactions (first =
    /// smallest).
    pub fn from_sequence(seq: &[TxId]) -> Self {
        CommitOrder {
            pos: seq.iter().enumerate().map(|(i, t)| (*t, i)).collect(),
        }
    }

    /// Whether `a` is strictly before `b`.
    pub fn before(&self, a: TxId, b: TxId) -> bool {
        match (self.pos.get(&a), self.pos.get(&b)) {
            (Some(i), Some(j)) => i < j,
            _ => false,
        }
    }

    /// Whether `a` is before `b` or equal to it (`co*`).
    pub fn before_eq(&self, a: TxId, b: TxId) -> bool {
        a == b || self.before(a, b)
    }

    /// Number of ordered transactions.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Whether the order is empty.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }
}

/// Whether `φ_axiom(t2, α)` holds in `h` under commit order `co`, where the
/// read `α` belongs to `t3` and reads variable `x`.
fn premise_holds(
    axiom: Axiom,
    h: &History,
    co: &CommitOrder,
    t3: TxId,
    alpha: EventId,
    _x: Var,
    t2: TxId,
) -> bool {
    match axiom {
        Axiom::ReadCommitted => {
            // ∃ read c in t3, po-before α, reading from t2.
            let Some(log) = h.get_tx(t3) else {
                return false;
            };
            log.read_events()
                .filter(|c| log.po_before(c.id, alpha))
                .any(|c| h.wr_of(c.id) == Some(t2))
        }
        Axiom::ReadAtomic => h.so_or_wr(t2, t3),
        Axiom::Causal => h.causally_before(t2, t3),
        Axiom::Serializability => co.before(t2, t3),
        Axiom::Prefix => {
            // ∃ t4. ⟨t2, t4⟩ ∈ co* ∧ ⟨t4, t3⟩ ∈ so ∪ wr
            all_txs(h).any(|t4| co.before_eq(t2, t4) && h.so_or_wr(t4, t3))
        }
        Axiom::Conflict => {
            // ∃ t4, y. t3 writes y ∧ t4 writes y ∧ ⟨t2, t4⟩ ∈ co* ∧ ⟨t4, t3⟩ ∈ co
            let Some(log3) = h.get_tx(t3) else {
                return false;
            };
            let written: Vec<Var> = log3.visible_writes().keys().copied().collect();
            if written.is_empty() {
                return false;
            }
            all_txs(h).any(|t4| {
                co.before_eq(t2, t4)
                    && co.before(t4, t3)
                    && written.iter().any(|y| h.writes_var(t4, *y))
            })
        }
    }
}

/// All transactions of a history, init first.
fn all_txs(h: &History) -> impl Iterator<Item = TxId> + '_ {
    std::iter::once(TxId::INIT).chain(h.tx_ids())
}

/// Whether the given commit order satisfies all axioms of `level` for `h`.
/// Does not verify that the order extends `so ∪ wr`; see
/// [`check_with_order`] for the full witness check.
pub fn axioms_hold(h: &History, level: IsolationLevel, co: &CommitOrder) -> bool {
    axioms_hold_spec(h, &LevelSpec::uniform(level), co)
}

/// Mixed-level generalisation of [`axioms_hold`]: every read is checked
/// against the axioms of *its reader's* level, as assigned by the spec.
pub fn axioms_hold_spec(h: &History, spec: &LevelSpec, co: &CommitOrder) -> bool {
    for (t3, alpha, x, t1) in h.reads_from() {
        let axioms = axioms_for(spec.level_of_tx(h, t3));
        if axioms.is_empty() {
            continue;
        }
        for t2 in h.writers_of(x) {
            if t2 == t1 {
                continue;
            }
            for ax in axioms {
                if premise_holds(*ax, h, co, t3, alpha, x, t2) && !co.before(t2, t1) {
                    return false;
                }
            }
        }
    }
    true
}

/// Whether `order` is a valid witness that `h` satisfies `level`: it is a
/// permutation of all transactions of `h` (init included) that extends
/// `so ∪ wr` and satisfies the level's axioms.
pub fn check_with_order(h: &History, level: IsolationLevel, order: &[TxId]) -> bool {
    check_with_order_spec(h, &LevelSpec::uniform(level), order)
}

/// Mixed-level generalisation of [`check_with_order`]: whether `order` is a
/// valid witness that `h` satisfies `spec` — a permutation of all
/// transactions of `h` (init included) that extends `so ∪ wr` and satisfies
/// the axioms of every reader's assigned level.
///
/// This is what [`Witness::replays`](crate::Witness::replays) runs on every
/// witness the engines return, so it decides the literal definition — the
/// pairwise `so` and `wr` conditions and [`axioms_hold_spec`] over
/// [`CommitOrder`] — in one pass over the reads instead of instantiating
/// every axiom. Positions live in a dense `TxId ↦ position` table (an id
/// repeated in `order` takes its last position, as in
/// [`CommitOrder::from_sequence`]). `so ⊆ co` is tested on consecutive
/// session pairs with init first and `wr ⊆ co` once per read. Writers are
/// listed once per variable in order of position, and a read `α` of `t3`
/// from `t1` only tests the writers placed after `t1`: a writer `t2`
/// placed before `t1` satisfies every axiom's conclusion. Each premise
/// `φ(t2, α)` is read from data computed once per reader:
///
/// - RC: the sources of the reads of `t3` that precede `α`;
/// - RA: `so` and the sources of all reads of `t3`;
/// - CC: the causal ancestors of `t3`;
/// - SER: `t2` before `t3`, i.e. a position bound;
/// - Prefix: `t2` at or before the latest direct `so ∪ wr` predecessor of
///   `t3`, a position bound;
/// - Conflict: `t2` at or before the latest transaction placed before
///   `t3` that writes a variable `t3` writes, a position bound.
///
/// Under a bound only the first writer after `t1` can violate it. The
/// check uses only [`History`] queries, never the engines, so a witness
/// stays checkable without trusting the search that produced it.
pub fn check_with_order_spec(h: &History, spec: &LevelSpec, order: &[TxId]) -> bool {
    let Some(pos) = Positions::of_permutation(h, order) else {
        return false;
    };
    // so ⊆ co: init first, then every session in order. Positions are
    // distinct, so the consecutive pairs imply all the others.
    let init = pos.at(TxId::INIT);
    for (_, txs) in h.sessions() {
        let mut prev = init;
        for &t in txs {
            let p = pos.at(t);
            if p <= prev {
                return false;
            }
            prev = p;
        }
    }
    // wr ⊆ co, once per read, while listing the writers of every variable.
    let mut writers = Vec::new();
    for log in h.transactions() {
        let p = pos.at(log.id);
        let aborted = log.is_aborted();
        for e in &log.events {
            match e.kind {
                EventKind::Read(_) => match h.wr_of(e.id) {
                    Some(w) if w != log.id && !pos.get(w).is_some_and(|q| q < p) => {
                        return false;
                    }
                    _ => {}
                },
                EventKind::Write(x, _) if !aborted => writers.push((x, p, log.id)),
                _ => {}
            }
        }
    }
    writers.sort_unstable_by_key(|&(x, p, _)| (x, p));
    writers.dedup_by_key(|&mut (x, p, _)| (x, p));
    let mut replay = Replay {
        h,
        marks: vec![0; pos.0.len()],
        stamp: 0,
        pos,
        writers,
    };
    h.transactions().all(|log| replay.reader_holds(spec, log))
}

/// Sentinel of an unplaced transaction in [`Positions`].
const UNPLACED: usize = usize::MAX;

/// A commit order as a dense `TxId ↦ position` table.
struct Positions(Vec<usize>);

impl Positions {
    /// The positions of `order` if its ids are exactly the transactions of
    /// `h`, init included (repeats allowed, the last position wins);
    /// `None` for a missing or foreign id.
    fn of_permutation(h: &History, order: &[TxId]) -> Option<Positions> {
        let mut table = vec![UNPLACED; h.max_tx_id() as usize + 1];
        let mut distinct = 0;
        for (i, &t) in order.iter().enumerate() {
            if !h.contains_tx(t) {
                return None;
            }
            let k = t.0 as usize;
            if k >= table.len() {
                table.resize(k + 1, UNPLACED);
            }
            if table[k] == UNPLACED {
                distinct += 1;
            }
            table[k] = i;
        }
        (distinct == h.num_transactions() + 1).then_some(Positions(table))
    }

    /// The position of `t`, if placed.
    fn get(&self, t: TxId) -> Option<usize> {
        self.0.get(t.0 as usize).copied().filter(|&p| p != UNPLACED)
    }

    /// The position of a transaction of the history (all are placed).
    fn at(&self, t: TxId) -> usize {
        self.0[t.0 as usize]
    }
}

/// What a reader's level asks of a writer `t2` placed after a read's
/// source: the disjunction of the premises `φ(t2, α)` of its axioms.
enum Premise {
    /// SER, PC, SI: `t2` is placed before this position.
    Before(usize),
    /// RC: `t2` is the source of a read of the reader that precedes `α`
    /// (marked with the current stamp as the reads are visited).
    EarlierSource,
    /// RA: `t2` is `so`-before the reader or the source of one of its
    /// reads (marked with the current stamp).
    Direct,
    /// CC: `t2` is a causal ancestor of the reader.
    Ancestor(TxSet),
}

/// The state of one [`check_with_order_spec`] call once the permutation,
/// `so` and `wr` conditions hold.
struct Replay<'h> {
    h: &'h History,
    pos: Positions,
    /// `(variable, position, writer)` of every visible write, sorted by
    /// variable then position (init left implicit: it is placed first).
    writers: Vec<(Var, usize, TxId)>,
    /// Per-transaction stamps of the RC and RA premises.
    marks: Vec<u32>,
    stamp: u32,
}

impl Replay<'_> {
    /// The writers of `x` other than init, in order of position.
    fn writers_of(&self, x: Var) -> &[(Var, usize, TxId)] {
        let from = self.writers.partition_point(|w| w.0 < x);
        let to = self.writers.partition_point(|w| w.0 <= x);
        &self.writers[from..to]
    }

    /// Clears the marks for the next reader.
    fn next_stamp(&mut self) {
        self.stamp += 1;
    }

    fn mark(&mut self, t: TxId) {
        self.marks[t.0 as usize] = self.stamp;
    }

    fn marked(&self, t: TxId) -> bool {
        self.marks[t.0 as usize] == self.stamp
    }

    /// Whether every read of `log` satisfies the axioms of its level.
    fn reader_holds(&mut self, spec: &LevelSpec, log: &TransactionLog) -> bool {
        let h = self.h;
        let t3 = log.id;
        let p3 = self.pos.at(t3);
        let premise = match spec.level_of_tx(h, t3) {
            IsolationLevel::Trivial => return true,
            IsolationLevel::ReadCommitted => {
                self.next_stamp();
                Premise::EarlierSource
            }
            IsolationLevel::ReadAtomic => {
                self.next_stamp();
                for w in log.read_events().filter_map(|e| h.wr_of(e.id)) {
                    self.mark(w);
                }
                Premise::Direct
            }
            IsolationLevel::CausalConsistency => Premise::Ancestor(h.causal_ancestors(t3)),
            IsolationLevel::Serializability => Premise::Before(p3),
            IsolationLevel::PrefixConsistency => Premise::Before(self.latest_direct(log) + 1),
            IsolationLevel::SnapshotIsolation => {
                let prefix = self.latest_direct(log);
                let conflict = self.latest_conflict(log).unwrap_or(prefix);
                Premise::Before(prefix.max(conflict) + 1)
            }
        };
        for e in log.read_events() {
            let (Some(t1), Some(x)) = (h.wr_of(e.id), e.var()) else {
                continue;
            };
            let p1 = self.pos.at(t1);
            let writers = self.writers_of(x);
            let after = &writers[writers.partition_point(|w| w.1 <= p1)..];
            let violated = match &premise {
                Premise::Before(bound) => after.first().is_some_and(|w| w.1 < *bound),
                Premise::EarlierSource => after.iter().any(|w| self.marked(w.2)),
                Premise::Direct => after
                    .iter()
                    .any(|w| self.marked(w.2) || h.so_before(w.2, t3)),
                Premise::Ancestor(anc) => after.iter().any(|w| w.2 != t3 && anc.contains(w.2)),
            };
            if violated {
                return false;
            }
            if let Premise::EarlierSource = premise {
                self.mark(t1);
            }
        }
        true
    }

    /// The latest position of a direct `so ∪ wr` predecessor of `log`: its
    /// session predecessor (init for the first) or the source of one of its
    /// reads.
    fn latest_direct(&self, log: &TransactionLog) -> usize {
        let h = self.h;
        let sidx = h
            .tx_session_index(log.id)
            .expect("transaction of the history");
        let so_pred = match sidx {
            0 => TxId::INIT,
            i => h.session_txs(log.session)[i - 1],
        };
        log.read_events()
            .filter_map(|e| h.wr_of(e.id))
            .map(|w| self.pos.at(w))
            .fold(self.pos.at(so_pred), usize::max)
    }

    /// The latest position before `log` of a transaction (init included)
    /// writing a variable `log` writes; `None` when it writes nothing.
    fn latest_conflict(&self, log: &TransactionLog) -> Option<usize> {
        if log.is_aborted() {
            return None;
        }
        let p3 = self.pos.at(log.id);
        let init = self.pos.at(TxId::INIT);
        log.write_events()
            .filter_map(|e| e.var())
            .map(|y| {
                let writers = self.writers_of(y);
                match writers.partition_point(|w| w.1 < p3) {
                    0 => init,
                    k => writers[k - 1].1,
                }
            })
            .max()
    }
}

/// Slow reference checker: enumerates every total order extending
/// `so ∪ wr` and tests the axioms directly (Definition 2.2). Exponential;
/// only meant for small histories in tests and cross-validation.
pub fn oracle_satisfies(h: &History, level: IsolationLevel) -> bool {
    if matches!(level, IsolationLevel::Trivial) {
        return true;
    }
    oracle_satisfies_spec(h, &LevelSpec::uniform(level))
}

/// Mixed-level reference checker: enumerates every total order extending
/// `so ∪ wr` and tests the per-reader axioms ([`axioms_hold_spec`])
/// directly. Exponential; only meant for small histories in tests and
/// cross-validation of the operational mixed checker
/// ([`crate::check::satisfies_spec`]).
pub fn oracle_satisfies_spec(h: &History, spec: &LevelSpec) -> bool {
    let txs: Vec<TxId> = all_txs(h).collect();
    let index: BTreeMap<TxId, usize> = txs.iter().enumerate().map(|(i, t)| (*t, i)).collect();
    let mut g = Digraph::new(txs.len());
    for (i, a) in txs.iter().enumerate() {
        for (j, b) in txs.iter().enumerate() {
            if i != j && (h.so_before(*a, *b) || h.wr_tx_edge(*a, *b)) {
                g.add_edge(index[a], index[b]);
            }
        }
    }
    g.any_topological_order(|order| {
        let seq: Vec<TxId> = order.iter().map(|i| txs[*i]).collect();
        axioms_hold_spec(h, spec, &CommitOrder::from_sequence(&seq))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind};
    use crate::transaction::SessionId;
    use crate::value::Value;

    struct Builder {
        h: History,
        next_event: u32,
        next_tx: u32,
    }

    impl Builder {
        fn new() -> Self {
            Builder {
                h: History::new([]),
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
            self.h.begin_transaction(SessionId(s), id, idx, e);
            id
        }
        fn write(&mut self, s: u32, x: Var, v: i64) {
            let e = Event::new(self.fresh(), EventKind::Write(x, Value::Int(v)));
            self.h.append_event(SessionId(s), e);
        }
        fn read(&mut self, s: u32, x: Var, from: TxId) {
            let e = Event::new(self.fresh(), EventKind::Read(x));
            let id = e.id;
            self.h.append_event(SessionId(s), e);
            self.h.set_wr(id, from);
        }
        fn commit(&mut self, s: u32) {
            let e = Event::new(self.fresh(), EventKind::Commit);
            self.h.append_event(SessionId(s), e);
        }
    }

    /// Fig. 3: a Causal Consistency violation.
    fn fig3() -> History {
        let (x, y) = (Var(0), Var(1));
        let mut b = Builder::new();
        let t1 = b.begin(0);
        b.write(0, x, 1);
        b.commit(0);
        let t2 = b.begin(1);
        b.read(1, x, t1);
        b.write(1, x, 2);
        b.commit(1);
        let t4 = b.begin(2);
        b.read(2, x, t2);
        b.write(2, y, 1);
        b.commit(2);
        let _t3 = b.begin(3);
        b.read(3, x, t1);
        b.read(3, y, t4);
        b.commit(3);
        b.h
    }

    /// Lost update: both transactions read x from init and write it.
    fn lost_update() -> History {
        let x = Var(0);
        let mut b = Builder::new();
        b.begin(0);
        b.read(0, x, TxId::INIT);
        b.write(0, x, 1);
        b.commit(0);
        b.begin(1);
        b.read(1, x, TxId::INIT);
        b.write(1, x, 2);
        b.commit(1);
        b.h
    }

    /// Write skew: t1 reads x, writes y; t2 reads y, writes x; both read init.
    fn write_skew() -> History {
        let (x, y) = (Var(0), Var(1));
        let mut b = Builder::new();
        b.begin(0);
        b.read(0, x, TxId::INIT);
        b.write(0, y, 1);
        b.commit(0);
        b.begin(1);
        b.read(1, y, TxId::INIT);
        b.write(1, x, 1);
        b.commit(1);
        b.h
    }

    #[test]
    fn fig3_violates_cc_but_not_rc_ra() {
        let h = fig3();
        assert!(!oracle_satisfies(&h, IsolationLevel::CausalConsistency));
        assert!(oracle_satisfies(&h, IsolationLevel::ReadAtomic));
        assert!(oracle_satisfies(&h, IsolationLevel::ReadCommitted));
        assert!(!oracle_satisfies(&h, IsolationLevel::Serializability));
        assert!(!oracle_satisfies(&h, IsolationLevel::SnapshotIsolation));
        assert!(oracle_satisfies(&h, IsolationLevel::Trivial));
    }

    #[test]
    fn lost_update_allowed_by_cc_rejected_by_si_ser() {
        let h = lost_update();
        assert!(oracle_satisfies(&h, IsolationLevel::CausalConsistency));
        assert!(oracle_satisfies(&h, IsolationLevel::ReadAtomic));
        assert!(!oracle_satisfies(&h, IsolationLevel::SnapshotIsolation));
        assert!(!oracle_satisfies(&h, IsolationLevel::Serializability));
        // Without the Conflict axiom the concurrent writes are fine: lost
        // update separates PC from SI.
        assert!(oracle_satisfies(&h, IsolationLevel::PrefixConsistency));
    }

    #[test]
    fn write_skew_allowed_by_si_rejected_by_ser() {
        let h = write_skew();
        assert!(oracle_satisfies(&h, IsolationLevel::SnapshotIsolation));
        assert!(oracle_satisfies(&h, IsolationLevel::PrefixConsistency));
        assert!(oracle_satisfies(&h, IsolationLevel::CausalConsistency));
        assert!(!oracle_satisfies(&h, IsolationLevel::Serializability));
    }

    #[test]
    fn witness_check_requires_so_wr_extension() {
        let h = lost_update();
        // Valid serialization order exists for CC but the reversed init order
        // is not a witness.
        let bad = [TxId(1), TxId(2), TxId::INIT];
        assert!(!check_with_order(
            &h,
            IsolationLevel::CausalConsistency,
            &bad
        ));
        let good = [TxId::INIT, TxId(1), TxId(2)];
        assert!(check_with_order(
            &h,
            IsolationLevel::CausalConsistency,
            &good
        ));
        // Missing transactions are rejected.
        assert!(!check_with_order(
            &h,
            IsolationLevel::CausalConsistency,
            &[TxId::INIT]
        ));
        // A repeated id takes its last position; a foreign id is rejected.
        let cc = IsolationLevel::CausalConsistency;
        assert!(check_with_order(
            &h,
            cc,
            &[TxId(2), TxId::INIT, TxId(1), TxId(2)]
        ));
        assert!(!check_with_order(
            &h,
            cc,
            &[TxId::INIT, TxId(2), TxId(1), TxId::INIT]
        ));
        assert!(!check_with_order(&h, cc, &[TxId::INIT, TxId(1), TxId(9)]));
    }

    #[test]
    fn axioms_for_levels() {
        assert_eq!(axioms_for(IsolationLevel::Trivial).len(), 0);
        assert_eq!(axioms_for(IsolationLevel::SnapshotIsolation).len(), 2);
        assert_eq!(
            axioms_for(IsolationLevel::PrefixConsistency),
            &[Axiom::Prefix]
        );
        assert_eq!(
            axioms_for(IsolationLevel::Serializability),
            &[Axiom::Serializability]
        );
    }

    #[test]
    fn commit_order_basics() {
        let co = CommitOrder::from_sequence(&[TxId::INIT, TxId(1), TxId(2)]);
        assert!(co.before(TxId::INIT, TxId(2)));
        assert!(!co.before(TxId(2), TxId(1)));
        assert!(co.before_eq(TxId(1), TxId(1)));
        assert!(!co.before(TxId(1), TxId(9)));
        assert_eq!(co.len(), 3);
        assert!(!co.is_empty());
    }
}
