//! The decision procedure behind every engine but uniform `true`'s: the
//! commit-order search that decides Prefix Consistency, Snapshot
//! Isolation, Serializability and mixed per-transaction level assignments,
//! and its degeneration for specs without strong levels.
//!
//! Real databases run heterogeneous workloads — read-only analytics at
//! Read Committed next to payment transactions at Serializability — and a
//! [`LevelSpec`] assigns each transaction its own level. A history
//! satisfies a spec when there is a strict total commit order extending
//! `so ∪ wr` in which every transaction obeys the axioms of *its own*
//! level (the per-transaction generalisation of Definition 2.2, following
//! *On the Complexity of Checking Mixed Isolation Levels for SQL
//! Transactions*). A uniform spec is the degenerate case: uniform PC, SI
//! and SER run exactly this search, uniform RC, RA and CC its weak-only
//! degeneration below.
//!
//! The decision procedure composes two machineries:
//!
//! * **Weak readers** (RC/RA/CC): their axiom premises never mention the
//!   commit order, so each such read contributes a set of *forced* edges
//!   computed by the incrementally synced `WeakIndex`. The index is only
//!   synced when the spec assigns one of these levels somewhere.
//! * **Strong transactions** (SER/SI/PC): decided by a session-frontier
//!   search over commit orders (Biswas & Enea 2019), polynomial for a
//!   fixed number of sessions. Serializability transactions are placed
//!   *atomically* and must read each variable from its last committed
//!   writer. Snapshot Isolation transactions occupy a start/commit
//!   *interval*: reads are checked against the snapshot at start, and no
//!   transaction writing a common variable may commit inside the interval
//!   (the Conflict axiom; for two SI transactions this is the classical
//!   disjoint-interval rule — Cerone, Bernardi & Gotsman 2015). Prefix
//!   Consistency transactions occupy an interval with the same snapshot
//!   reads but no conflict rule in either direction. Weak and `true`
//!   transactions are placed atomically with no read constraint beyond
//!   `wr ⊆ co` and their forced edges.
//!
//! When the spec assigns no strong level the search degenerates to plain
//! acyclicity of `so ∪ wr ∪ forced`, decided by peeling its bit rows
//! (`WeakIndex`), and uniformly `true` accepts
//! every history. Which of the three procedures a spec needs is settled
//! once, when its `Decider` is built, so deciding a history inspects no
//! spec.
//!
//! # The search state and its two rules
//!
//! The search allocates nothing per node. Its state is one word per
//! session, `2 · frontier + started`: how many of the session's
//! transactions are committed, and whether the next one has started its
//! interval. A strong transaction *takes its snapshot* when it is placed
//! (SER) or started (SI, PC); its reads are checked then and never again.
//! Two rules keep the search on the state space of Biswas & Enea, the
//! session frontiers (dbcop implements the same search as constrained
//! linearization), generalised here per transaction:
//!
//! * **Dead overwrite.** A transaction `t` may not commit while a strong
//!   transaction `r ≠ t` that has not taken its snapshot reads a variable
//!   `t` visibly writes from that variable's current last writer. Last
//!   writers only ever move to newly committed transactions, and `r`'s
//!   source is already committed (or is init), so once `t` commits the
//!   source is never the last writer again and `r`'s snapshot can never
//!   pass. The rule cuts only subtrees that fail.
//! * **Frontier key.** Under the rule, every state the search reaches
//!   keeps an invariant: for each read `(x, w)` of a strong transaction
//!   that has not taken its snapshot, `w` is the last committed writer of
//!   `x` exactly when `w` is init, or is committed and visibly writes `x`.
//!   When `w` commits it becomes the last writer of `x`; until the reader
//!   takes its snapshot, the rule refuses every other writer of `x`, and
//!   the reader itself commits only after its snapshot. The snapshot test
//!   is stated through this invariant, so the search keeps no last-writer
//!   words, and every test it makes (snapshots, the rule, committed
//!   sources, forced-edge predecessors, SI conflicts) is a function of the
//!   session words. So is whether a state can be completed, and the
//!   session words alone key the failed-state table: an exact table of
//!   fixed-width states over one flat arena (`check::failed`).
//!
//! Neither rule changes a verdict or a witness. Every subtree they cut
//! would have failed, and the search still tries each node's children in
//! the same order, so the first child whose subtree succeeds is the same,
//! and so is the commit order the search records on the way: the witness.
//! A check visits at most `∏ 2 · (length + 1)` states over the sessions,
//! each expanded once: polynomial for a fixed number of sessions.

use crate::check::engine::RebuildCause;
use crate::check::failed::{self, FailedStates};
use crate::check::frontier::FrontierIndex;
use crate::check::weak::WeakIndex;
use crate::history::History;
use crate::isolation::{IsolationLevel, LevelSpec};
use crate::transaction::TxId;
use crate::value::Var;

/// Whether the history satisfies the level spec. Stateless entry point:
/// builds fresh indexes per call. Long-running explorations should use the
/// memoised engine from [`crate::check::engine::engine_for_spec`].
pub fn satisfies_spec(h: &History, spec: &LevelSpec) -> bool {
    Decider::new(spec.clone()).decide(h).0
}

/// The decision procedure a spec needs, chosen once when its [`Decider`]
/// is built.
#[derive(Clone, Copy, Debug)]
enum Procedure {
    /// Uniformly `true`, the paper's trivial level: every history is
    /// consistent, with no commit-order obligation. (A *mixed* spec with
    /// `true` positions keeps Definition 2.2's requirement that a commit
    /// order extending `so ∪ wr` exists.)
    Trivial,
    /// No strong level: the axioms reduce to the forced edges, and the
    /// spec holds iff `so ∪ wr ∪ forced` is acyclic.
    Weak,
    /// The commit-order search. `weak_readers` says whether the spec
    /// assigns RC, RA or CC somewhere: only those readers force edges, so
    /// the weak index is synced for the search only then.
    Search { weak_readers: bool },
}

/// The decision procedure for one level spec, with the indexes and
/// buffers it reuses across checks.
#[derive(Debug)]
pub(crate) struct Decider {
    spec: LevelSpec,
    procedure: Procedure,
    weak: WeakIndex,
    frontier: FrontierIndex,
    search: Search,
    /// `(uid, generation, verdict)` of the last decided history: an
    /// unchanged history is answered (and witnessed) without re-deciding.
    last: Option<(u64, u64, bool)>,
}

impl Decider {
    pub(crate) fn new(spec: LevelSpec) -> Self {
        let procedure = if spec.as_uniform() == Some(IsolationLevel::Trivial) {
            Procedure::Trivial
        } else if !spec.has_strong() {
            Procedure::Weak
        } else {
            Procedure::Search {
                weak_readers: [
                    IsolationLevel::ReadCommitted,
                    IsolationLevel::ReadAtomic,
                    IsolationLevel::CausalConsistency,
                ]
                .into_iter()
                .any(|l| spec.mentions(l)),
            }
        };
        Decider {
            procedure,
            weak: WeakIndex::new_spec(spec.clone()),
            frontier: FrontierIndex::default(),
            search: Search::default(),
            last: None,
            spec,
        }
    }

    /// Whether `h` satisfies the spec, and why deciding it rebuilt an
    /// index from scratch: the cause of the first index that rebuilt, or
    /// `None` when every sync replayed deltas or `h` is the history decided
    /// last. The deciding pass leaves its commit order behind for
    /// [`witness`](Self::witness).
    pub(crate) fn decide(&mut self, h: &History) -> (bool, Option<RebuildCause>) {
        if let Some((uid, gen, v)) = self.last {
            if uid == h.uid() && gen == h.generation() {
                return (v, None);
            }
        }
        let (v, rebuilt) = match self.procedure {
            Procedure::Trivial => (true, None),
            Procedure::Weak => {
                let rebuilt = self.weak.sync(h);
                (self.weak.decide(), rebuilt)
            }
            Procedure::Search { weak_readers } => {
                let mut rebuilt = None;
                if weak_readers {
                    rebuilt = self.weak.sync(h);
                    self.weak.collect_forced_tx(&mut self.search.forced);
                } else {
                    self.search.forced.clear();
                }
                let frontier = self.frontier.sync(h);
                (
                    self.search.decide(&self.spec, &self.frontier),
                    rebuilt.or(frontier),
                )
            }
        };
        self.last = Some((h.uid(), h.generation(), v));
        (v, rebuilt)
    }

    /// A commit order witnessing that `h` satisfies the spec, init first,
    /// or `None` when it does not: the order of the pass that decided `h`
    /// (re-deciding only when `h` is not the history decided last) — the
    /// commit order the search recorded, or, without strong levels, the
    /// order in which the weak index peeled `so ∪ wr ∪ forced`. Under
    /// uniform `true`, which decides nothing, it is the order in which
    /// peeling `so ∪ wr` removes the transactions.
    pub(crate) fn witness(&mut self, h: &History) -> Option<Vec<TxId>> {
        match self.procedure {
            Procedure::Trivial => {
                self.weak.sync(h);
                self.weak.decide().then(|| self.weak.order())
            }
            Procedure::Weak => self.decide(h).0.then(|| self.weak.order()),
            Procedure::Search { .. } => self.decide(h).0.then(|| self.search.order.clone()),
        }
    }

    /// Forgets the last verdict.
    pub(crate) fn reset(&mut self) {
        self.last = None;
    }

    /// The nodes the commit-order search visited since the last call: one
    /// per call that found the commit order incomplete.
    pub(crate) fn take_search_nodes(&mut self) -> u64 {
        std::mem::take(&mut self.search.nodes)
    }
}

/// The source of a read of the init transaction, which commits before
/// everything.
const INIT_SOURCE: u32 = u32::MAX;

/// One external read of a strong (SER, SI or PC) transaction whose source
/// can be the variable's last writer: the init transaction, or a writer
/// that visibly writes the variable. Listed under the variable for the
/// dead-overwrite rule.
#[derive(Clone, Copy, Debug)]
struct StrongRead {
    /// The reader's slot.
    slot: u32,
    /// The reader's session.
    session: u32,
    /// The smallest word of that session at which the reader has taken its
    /// snapshot: `2k + 1` for the session's `k`-th transaction (started, or
    /// committed).
    taken: u32,
    /// The slot of the writer it reads from, or [`INIT_SOURCE`].
    source: u32,
}

/// Reusable state of the commit-order search.
#[derive(Debug, Default)]
struct Search {
    /// Forced commit-order edges of the weak readers, as transaction ids.
    forced: Vec<(TxId, TxId)>,
    /// `slot ↦` the level the spec assigns the slot's transaction.
    level: Vec<IsolationLevel>,
    /// `slot ↦` forced-edge predecessor slots (must commit first).
    preds: Vec<Vec<u32>>,
    /// `slot ↦` whether the slot is committed in the current prefix.
    committed: Vec<bool>,
    /// Whether any transaction is at Snapshot Isolation (only those
    /// intervals constrain conflicting commits).
    any_si: bool,
    /// `Var.0 ↦` the strong reads of the variable (see [`StrongRead`]).
    strong_reads: Vec<Vec<StrongRead>>,
    /// The search state and failed-state key, one word per session:
    /// `2 · frontier + started`.
    state: Vec<u32>,
    /// Failed states of the current check (exact keys; reset per check).
    failed: FailedStates,
    /// The commit order of the current prefix, init first: the witness
    /// once the search succeeds.
    order: Vec<TxId>,
    /// Search nodes visited since [`Decider::take_search_nodes`] last
    /// took them.
    nodes: u64,
}

impl Search {
    /// Decides the spec over the synced frontier index, given the forced
    /// edges in `self.forced`.
    fn decide(&mut self, spec: &LevelSpec, idx: &FrontierIndex) -> bool {
        let n = idx.len();
        self.level.clear();
        self.level.resize(n, spec.default_level());
        for reads in &mut self.strong_reads {
            reads.clear();
        }
        for (s, txs) in idx.sessions.iter().enumerate() {
            for (k, &(_, slot)) in txs.iter().enumerate() {
                let level = spec.level_of(s as u32, k as u32);
                self.level[slot as usize] = level;
                if !matches!(
                    level,
                    IsolationLevel::Serializability
                        | IsolationLevel::SnapshotIsolation
                        | IsolationLevel::PrefixConsistency
                ) {
                    continue;
                }
                for &(x, w) in &idx.reads[slot as usize] {
                    let source = if w.is_init() {
                        INIT_SOURCE
                    } else {
                        match idx.slot_of(w) {
                            Some(ws) if idx.writes_var(ws as usize, x) => ws,
                            // A source that does not visibly write `x` is
                            // never its last writer: the read fails every
                            // snapshot and protects no value.
                            _ => continue,
                        }
                    };
                    let x = x.0 as usize;
                    if self.strong_reads.len() <= x {
                        self.strong_reads.resize_with(x + 1, Vec::new);
                    }
                    self.strong_reads[x].push(StrongRead {
                        slot,
                        session: s as u32,
                        taken: 2 * k as u32 + 1,
                        source,
                    });
                }
            }
        }
        self.any_si = self.level.contains(&IsolationLevel::SnapshotIsolation);
        for p in &mut self.preds {
            p.clear();
        }
        if self.preds.len() < n {
            self.preds.resize_with(n, Vec::new);
        }
        for &(a, b) in &self.forced {
            if b.is_init() {
                // A forced edge into the init transaction (co-first by
                // construction) is unsatisfiable.
                return false;
            }
            if a.is_init() {
                continue; // init commits before everything: always satisfied
            }
            let (Some(sa), Some(sb)) = (idx.slot_of(a), idx.slot_of(b)) else {
                return false;
            };
            self.preds[sb as usize].push(sa);
        }
        self.committed.clear();
        self.committed.resize(n, false);
        self.state.clear();
        self.state.resize(idx.sessions.len(), 0);
        self.failed.reset(self.state.len());
        self.order.clear();
        self.order.push(TxId::INIT);
        self.search(idx)
    }

    /// Whether `w` is the last committed writer of `x`, for a read of a
    /// strong transaction that has not taken its snapshot yet: `w` is init,
    /// or is committed and visibly writes `x` (the invariant of the module
    /// documentation).
    fn is_last_writer(&self, idx: &FrontierIndex, x: Var, w: TxId) -> bool {
        w.is_init()
            || idx
                .slot_of(w)
                .is_some_and(|ws| self.committed[ws as usize] && idx.writes_var(ws as usize, x))
    }

    /// Whether every external read of `slot` observes the last committed
    /// writer of its variable (a snapshot taken now).
    fn snapshot_ok(&self, idx: &FrontierIndex, slot: usize) -> bool {
        idx.reads[slot]
            .iter()
            .all(|&(x, w)| self.is_last_writer(idx, x, w))
    }

    /// Whether every writer `slot` reads from is already committed.
    fn sources_committed(&self, idx: &FrontierIndex, slot: usize) -> bool {
        idx.reads[slot].iter().all(|&(_, w)| {
            w.is_init() || idx.slot_of(w).is_some_and(|ws| self.committed[ws as usize])
        })
    }

    /// The dead-overwrite rule: whether committing `slot` would overwrite
    /// the last writer of a variable that a strong transaction other than
    /// `slot`, which has not taken its snapshot yet, reads from it. That
    /// reader's snapshot could then never pass.
    fn overwrites_a_snapshot(&self, idx: &FrontierIndex, slot: usize) -> bool {
        idx.visible_writes(slot).any(|x| {
            self.strong_reads.get(x.0 as usize).is_some_and(|reads| {
                reads.iter().any(|r| {
                    r.slot as usize != slot
                        && self.state[r.session as usize] < r.taken
                        && (r.source == INIT_SOURCE || self.committed[r.source as usize])
                })
            })
        })
    }

    /// Whether any started in-progress *Snapshot Isolation* transaction of
    /// another session visibly writes a variable that `slot` visibly
    /// writes. The Conflict axiom forbids a conflicting writer from
    /// committing inside an SI transaction's interval; Prefix Consistency
    /// has no Conflict axiom, so a started PC interval constrains nobody.
    fn conflicts_with_started(&self, idx: &FrontierIndex, skip: usize, slot: usize) -> bool {
        if !self.any_si {
            return false;
        }
        (0..idx.sessions.len()).any(|s| {
            let word = self.state[s];
            if s == skip || word & 1 == 0 {
                return false;
            }
            let slot2 = idx.sessions[s][(word >> 1) as usize].1 as usize;
            self.level[slot2] == IsolationLevel::SnapshotIsolation
                && idx.visible_writes(slot).any(|x| idx.writes_var(slot2, x))
        })
    }

    fn search(&mut self, idx: &FrontierIndex) -> bool {
        if self.order.len() == idx.len() + 1 {
            return true;
        }
        self.nodes += 1;
        let key = failed::hash(&self.state);
        if self.failed.contains(key, &self.state) {
            return false;
        }
        for s in 0..idx.sessions.len() {
            let word = self.state[s];
            let Some(&(t, slot)) = idx.sessions[s].get((word >> 1) as usize) else {
                continue;
            };
            let slot = slot as usize;
            let lvl = self.level[slot];
            let interval = matches!(
                lvl,
                IsolationLevel::SnapshotIsolation | IsolationLevel::PrefixConsistency
            );
            if interval && word & 1 == 0 {
                // Start t: snapshot reads, plus — for SI only — write-
                // conflict freedom against the other in-progress SI
                // transactions. PC starts are never conflict-constrained.
                if !self.snapshot_ok(idx, slot)
                    || (lvl == IsolationLevel::SnapshotIsolation
                        && self.conflicts_with_started(idx, s, slot))
                {
                    continue;
                }
                self.state[s] = word | 1;
                if self.search(idx) {
                    return true;
                }
                self.state[s] = word;
                continue;
            }
            // Commit t: the end of a started interval, or an atomic
            // placement (start = commit) for SER, the weak levels and
            // `true`. Forced-edge predecessors must be in, the commit
            // must not land inside a conflicting started SI interval
            // (reachable for atomic and PC commits only — two conflicting
            // SI intervals never overlap by the start rule), and it must
            // not overwrite a value a snapshot still has to see.
            let reads_ok = match lvl {
                _ if interval => true,
                // Serializability: every external read observes the last
                // committed writer at the placement point.
                IsolationLevel::Serializability => self.snapshot_ok(idx, slot),
                // Weak levels and `true`: the commit order merely extends
                // `wr` (the level's axioms are carried by the forced
                // edges).
                _ => self.sources_committed(idx, slot),
            };
            if !reads_ok
                || !self.preds[slot].iter().all(|&p| self.committed[p as usize])
                || self.conflicts_with_started(idx, s, slot)
                || self.overwrites_a_snapshot(idx, slot)
            {
                continue;
            }
            self.state[s] = (word & !1) + 2;
            self.committed[slot] = true;
            self.order.push(t);
            if self.search(idx) {
                return true;
            }
            self.order.pop();
            self.committed[slot] = false;
            self.state[s] = word;
        }
        self.failed.insert(key, &self.state);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventId, EventKind};
    use crate::isolation::IsolationLevel::*;
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
        fn abort(&mut self, s: u32) {
            let e = Event::new(self.fresh(), EventKind::Abort);
            self.h.append_event(SessionId(s), e);
        }
    }

    /// Decides `h` on a fresh engine, checks the verdict and its evidence
    /// against the axiom oracle, and returns the verdict with the number
    /// of search nodes the engine visited.
    fn decide_checked(h: &History, spec: &LevelSpec) -> (bool, u64) {
        let expected = crate::axioms::oracle_satisfies_spec(h, spec);
        let mut engine = crate::check::engine_for_spec(spec);
        let verdict = engine.check_witnessed(h);
        crate::testkit::assert_verdict_valid(h, spec, &verdict, expected, &format!("{spec}"));
        (expected, engine.stats().search_nodes)
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

    /// Long fork: two blind writers, two readers observing them in
    /// opposite orders.
    fn long_fork() -> History {
        let (x, y) = (Var(0), Var(1));
        let mut b = Builder::new();
        let t1 = b.begin(0);
        b.write(0, x, 1);
        b.commit(0);
        let t2 = b.begin(1);
        b.write(1, y, 1);
        b.commit(1);
        b.begin(2);
        b.read(2, x, t1);
        b.read(2, y, TxId::INIT);
        b.commit(2);
        b.begin(3);
        b.read(3, y, t2);
        b.read(3, x, TxId::INIT);
        b.commit(3);
        b.h
    }

    #[test]
    fn uniform_specs_match_uniform_checkers() {
        // Uniform specs are the degenerate mixed case: the one search must
        // reproduce each level's axioms.
        for h in [lost_update(), long_fork(), History::default()] {
            for level in IsolationLevel::ALL {
                assert_eq!(
                    satisfies_spec(&h, &LevelSpec::uniform(level)),
                    crate::axioms::oracle_satisfies(&h, level),
                    "uniform {level} spec diverged on\n{h}"
                );
            }
        }
    }

    #[test]
    fn lost_update_with_one_weak_increment() {
        let h = lost_update();
        // Both increments serializable: the anomaly is rejected.
        let both_ser = LevelSpec::uniform(Serializability);
        assert!(!satisfies_spec(&h, &both_ser));
        // Demote one increment to Read Committed: its stale read is now
        // allowed and the other (SER) increment can be placed first.
        let one_rc = both_ser.clone().with_override(0, 0, ReadCommitted);
        assert!(satisfies_spec(&h, &one_rc));
        let other_rc = both_ser.with_override(1, 0, ReadCommitted);
        assert!(satisfies_spec(&h, &other_rc));
    }

    #[test]
    fn long_fork_verdicts_follow_the_reader_levels() {
        let h = long_fork();
        // Both readers at SER: the opposite observation orders are
        // irreconcilable with one commit order.
        assert!(!satisfies_spec(&h, &LevelSpec::uniform(Serializability)));
        // Demoting ONE reader to CC frees the other's order.
        let spec = LevelSpec::uniform(Serializability).with_override(2, 0, CausalConsistency);
        assert!(satisfies_spec(&h, &spec));
        // Both readers at SI (writers at SER): the long fork is an SI
        // anomaly too — both snapshots cannot exist.
        let spec = LevelSpec::uniform(Serializability)
            .with_override(2, 0, SnapshotIsolation)
            .with_override(3, 0, SnapshotIsolation);
        assert!(!satisfies_spec(&h, &spec));
        // One snapshot reader, one RC reader is fine.
        let spec = LevelSpec::uniform(Serializability)
            .with_override(2, 0, SnapshotIsolation)
            .with_override(3, 0, ReadCommitted);
        assert!(satisfies_spec(&h, &spec));
    }

    #[test]
    fn forced_edges_of_weak_readers_constrain_the_strong_search() {
        // Session 0: t1 writes x. Session 1: t2 writes x. Session 2:
        // t3 (CC) reads x from t1 *after* reading y from t4 which read x
        // from t2 — forcing t2 before t1 in co. Session 3: t5 (SER) reads
        // x from t1: fine. But a SER read of x from t2 placed *after*
        // both writers is impossible when t1 must follow t2... build a
        // simpler shape: CC reader forces t2 < t1, SER reader of x=t2
        // must then be placed between t2 and t1 — satisfiable; a SER
        // reader of y (written only by t1... keep it direct:
        // CC reader in one transaction reads x from t2 then x from t1
        // (internal po order) — RC-style premise forces t2 < t1. A SER
        // transaction writing x and reading nothing can commit anywhere.
        let x = Var(0);
        let mut b = Builder::new();
        let t1 = b.begin(0);
        b.write(0, x, 1);
        b.commit(0);
        let t2 = b.begin(1);
        b.write(1, x, 2);
        b.commit(1);
        b.begin(2);
        b.read(2, x, t2);
        b.read(2, x, t1);
        b.commit(2);
        let h = b.h;
        // Reader at RC: reading t2 then t1 forces t2 < t1 — satisfiable
        // on its own (no cycle), even with the writers at SER.
        let spec = LevelSpec::uniform(Serializability).with_override(2, 0, ReadCommitted);
        assert!(satisfies_spec(&h, &spec));

        // Now add a second RC reader observing the writers in the
        // opposite internal order: t1 < t2 is also forced — a cycle no
        // commit order satisfies, whatever the writers' levels.
        let mut b = Builder::new();
        let t1 = b.begin(0);
        b.write(0, x, 1);
        b.commit(0);
        let t2 = b.begin(1);
        b.write(1, x, 2);
        b.commit(1);
        b.begin(2);
        b.read(2, x, t2);
        b.read(2, x, t1);
        b.commit(2);
        b.begin(3);
        b.read(3, x, t1);
        b.read(3, x, t2);
        b.commit(3);
        let h = b.h;
        let spec = LevelSpec::uniform(Serializability)
            .with_override(2, 0, ReadCommitted)
            .with_override(3, 0, ReadCommitted);
        assert!(!satisfies_spec(&h, &spec));
    }

    #[test]
    fn atomic_writer_may_not_commit_inside_a_conflicting_si_interval() {
        // Write skew with one SI transaction and one SER transaction that
        // write a *common* variable: t1 (SI) reads x=init writes x,y;
        // t2 (SER) reads y=init writes x. t2's stale read of y needs
        // placement before t1 commits y; t1's stale read of x needs its
        // snapshot before t2 commits x — so t2 must commit inside t1's
        // interval, which the common write of x forbids.
        let (x, y) = (Var(0), Var(1));
        let mut b = Builder::new();
        b.begin(0);
        b.read(0, x, TxId::INIT);
        b.write(0, x, 1);
        b.write(0, y, 1);
        b.commit(0);
        b.begin(1);
        b.read(1, y, TxId::INIT);
        b.write(1, x, 2);
        b.commit(1);
        let h = b.h;
        let spec = LevelSpec::uniform(SnapshotIsolation).with_override(1, 0, Serializability);
        assert!(!satisfies_spec(&h, &spec));
        // Without the write conflict (t2 writes z instead of x) the same
        // shape is accepted: t2 commits inside t1's interval.
        let z = Var(2);
        let mut b = Builder::new();
        b.begin(0);
        b.read(0, x, TxId::INIT);
        b.write(0, x, 1);
        b.write(0, y, 1);
        b.commit(0);
        b.begin(1);
        b.read(1, y, TxId::INIT);
        b.write(1, z, 2);
        b.commit(1);
        let h = b.h;
        let spec = LevelSpec::uniform(SnapshotIsolation).with_override(1, 0, Serializability);
        assert!(satisfies_spec(&h, &spec));
    }

    #[test]
    fn dead_overwrite_strands_a_ser_reader_in_another_session() {
        // t3 reads x from init, so committing t1 (which writes x) before
        // t3 is placed would strand it: the search refuses t1 until t3 is
        // placed. Session 2's read of y from init holds back the writers
        // of y in sessions 3 and 4 the same way.
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let mut b = Builder::new();
        let t1 = b.begin(0);
        b.write(0, x, 1);
        b.commit(0);
        let t3 = b.begin(1);
        b.read(1, x, TxId::INIT);
        b.write(1, z, 1);
        b.commit(1);
        b.begin(2);
        b.read(2, z, t3);
        b.read(2, y, TxId::INIT);
        b.commit(2);
        b.begin(3);
        b.write(3, y, 1);
        b.commit(3);
        b.begin(4);
        b.write(4, y, 2);
        b.commit(4);
        let consistent = b.h.clone();
        let spec = LevelSpec::uniform(Serializability);
        assert_eq!(decide_checked(&consistent, &spec), (true, 5));
        // A last reader of x from t1 and of z from init cannot be placed:
        // it needs t1 in and t3 out, but t3 must precede t1.
        b.begin(5);
        b.read(5, x, t1);
        b.read(5, z, TxId::INIT);
        b.commit(5);
        assert_eq!(decide_checked(&b.h, &spec), (false, 1));
    }

    #[test]
    fn dead_overwrite_strands_a_pending_ser_reader() {
        // t2 never commits, yet the search places it and its read of x
        // from init must see init: t1 may not commit before it.
        let x = Var(0);
        let mut b = Builder::new();
        let t1 = b.begin(0);
        b.write(0, x, 1);
        b.commit(0);
        b.begin(1);
        b.read(1, x, TxId::INIT);
        b.begin(2);
        b.read(2, x, t1);
        b.commit(2);
        let spec = LevelSpec::uniform(Serializability);
        assert_eq!(decide_checked(&b.h, &spec), (true, 3));
    }

    #[test]
    fn dead_overwrite_strands_an_aborted_ser_reader() {
        // An aborted transaction's writes are invisible, but its reads are
        // still snapshot reads at SER: t2 must be placed before t1.
        let (x, y) = (Var(0), Var(1));
        let mut b = Builder::new();
        let t1 = b.begin(0);
        b.write(0, x, 1);
        b.commit(0);
        b.begin(1);
        b.read(1, x, TxId::INIT);
        b.write(1, y, 1);
        b.abort(1);
        b.begin(2);
        b.read(2, x, t1);
        b.read(2, y, TxId::INIT);
        b.commit(2);
        let spec = LevelSpec::uniform(Serializability);
        assert_eq!(decide_checked(&b.h, &spec), (true, 3));
    }

    #[test]
    fn dead_overwrite_guards_an_si_reader_only_until_its_start() {
        // t2 (SI) reads x from init and writes y; t3 (SER) reads x from t1
        // and y from init. The only commit order starts t2, commits t1
        // inside t2's interval, places t3 and then commits t2. Before
        // t2's start the rule refuses t1; after it, t1 must be allowed.
        let (x, y) = (Var(0), Var(1));
        let mut b = Builder::new();
        let t1 = b.begin(0);
        b.write(0, x, 1);
        b.commit(0);
        b.begin(1);
        b.read(1, x, TxId::INIT);
        b.write(1, y, 1);
        b.commit(1);
        b.begin(2);
        b.read(2, x, t1);
        b.read(2, y, TxId::INIT);
        b.commit(2);
        let spec = LevelSpec::uniform(Serializability).with_override(1, 0, SnapshotIsolation);
        assert_eq!(decide_checked(&b.h, &spec), (true, 4));
        // At PC the same interval carries the same snapshot.
        let spec = LevelSpec::uniform(Serializability).with_override(1, 0, PrefixConsistency);
        assert_eq!(decide_checked(&b.h, &spec), (true, 4));
    }

    #[test]
    fn failed_states_are_keyed_on_the_session_frontier() {
        // Two RC readers force t1 < t2 and t2 < t1, so the search fails,
        // but only after trying every order of the other transactions.
        // Once session 4 has read y from init, the blind writers of y in
        // sessions 5 and 6 commit in either order: the two prefixes reach
        // one frontier with different last writers of y, and the second
        // is a failed state. The writers of z give that frontier
        // successors, which a key holding last writers would search again.
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let mut b = Builder::new();
        let t1 = b.begin(0);
        b.write(0, x, 1);
        b.commit(0);
        let t2 = b.begin(1);
        b.write(1, x, 2);
        b.commit(1);
        b.begin(2);
        b.read(2, x, t2);
        b.read(2, x, t1);
        b.commit(2);
        b.begin(3);
        b.read(3, x, t1);
        b.read(3, x, t2);
        b.commit(3);
        b.begin(4);
        b.read(4, y, TxId::INIT);
        b.commit(4);
        for (s, v) in [(5, 1), (6, 2)] {
            b.begin(s);
            b.write(s, y, v);
            b.commit(s);
        }
        for (s, v) in [(7, 1), (8, 2)] {
            b.begin(s);
            b.write(s, z, v);
            b.commit(s);
        }
        let spec = LevelSpec::uniform(Serializability)
            .with_override(2, 0, ReadCommitted)
            .with_override(3, 0, ReadCommitted);
        assert_eq!(decide_checked(&b.h, &spec), (false, 41));
    }

    #[test]
    fn empty_history_satisfies_every_spec() {
        let h = History::default();
        let spec = LevelSpec::uniform(CausalConsistency)
            .with_override(0, 0, Serializability)
            .with_override(1, 0, SnapshotIsolation);
        assert!(satisfies_spec(&h, &spec));
    }
}
