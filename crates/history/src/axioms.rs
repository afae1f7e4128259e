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
//! varies per axiom. The efficient checkers live in [`crate::check`]; the
//! functions here are used by tests and property-based cross-validation.

use std::collections::BTreeMap;

use crate::event::EventId;
use crate::history::History;
use crate::isolation::{IsolationLevel, LevelSpec};
use crate::relations::Digraph;
use crate::transaction::TxId;
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
pub fn check_with_order_spec(h: &History, spec: &LevelSpec, order: &[TxId]) -> bool {
    let co = CommitOrder::from_sequence(order);
    if co.len() != h.num_transactions() + 1 {
        return false;
    }
    for t in all_txs(h) {
        if !co.pos.contains_key(&t) {
            return false;
        }
    }
    // co must extend session order and the write-read relation. The wr
    // edges are checked from their list: testing every transaction pair
    // for one costs a pass over all wr edges per pair, which dominates the
    // replay of a recorded store history.
    for a in all_txs(h) {
        for b in all_txs(h) {
            if a != b && h.so_before(a, b) && !co.before(a, b) {
                return false;
            }
        }
    }
    h.wr_tx_edges().into_iter().all(|(a, b)| co.before(a, b)) && axioms_hold_spec(h, spec, &co)
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
