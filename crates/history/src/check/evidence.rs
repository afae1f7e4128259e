//! Evidence-producing verdicts: replayable witnesses and minimal violation
//! cores.
//!
//! The boolean checkers in [`crate::check`] answer *whether* a history
//! satisfies a spec; the evidence says *why* (following the witness/error
//! model of dbcop and the practical-explanations argument of *Making
//! Transaction Isolation Checking Practical*):
//!
//! * On success, a [`Witness`]: a total commit order over all transactions
//!   (init first) that extends `so ∪ wr` and satisfies every reader's
//!   axioms. It is independently replay-verifiable with
//!   [`crate::axioms::check_with_order_spec`] — see [`Witness::replays`].
//!   Witnesses come from the pass that decided the verdict: the commit
//!   order the commit-order search recorded as it decided, or — for specs
//!   without strong levels — the order in which the acyclicity test of
//!   `so ∪ wr ∪ forced` peeled the transactions (sweeps in vertex order,
//!   each removing the transactions with no unpeeled predecessor left).
//!   Nothing is re-derived on fresh indexes.
//! * On failure, a [`Violation`]: a cycle of `so`/`wr`/forced-`co` edges,
//!   each forced edge annotated with the [`AxiomInstance`] that forced it.
//!   The cycle is *simple* (every vertex is entered and left exactly once),
//!   so it is minimal in the sense that dropping any edge breaks it.
//!
//! Violation cores are reconstructed on demand, off the memoised hot path,
//! over fresh indexes (`reconstruct`). They are found by **saturation**:
//! starting from the `so ∪ wr` edges, commit-order edges that must hold in
//! *every* total commit order are derived from the axiom instances until
//! either the edge set becomes cyclic (the core) or a fixpoint is reached.
//! For the weak levels this is exactly the forced-edge computation of the
//! weak checker and therefore complete. For SER/SI/PC the premises mention
//! `co`, so two sound derivation rules are used per instance
//! `⟨t1, α⟩ ∈ wr_x ∧ t2 writes x ∧ φ(t2, α) ⇒ ⟨t2, t1⟩ ∈ co`:
//!
//! * **direct**: if `φ(t2, α)` already holds under the derived partial
//!   order, force `t2 < t1`;
//! * **contrapositive**: if `t1 < t2` is already derived, then `¬φ(t2, α)`
//!   must hold, and by totality of the commit order the negated premise
//!   forces edges of its own (e.g. for Serializability, the reader `t3`
//!   must precede `t2` — the classical anti-dependency edge).
//!
//! In the rare case where the saturation fixpoint is still acyclic although
//! the history is inconsistent, the reconstruction case-splits on an
//! unordered transaction pair ([`EdgeReason::Hypothesis`]); every
//! randomised corpus in the test suite is covered without hypotheses.

use std::collections::BTreeMap;
use std::fmt;

use crate::axioms::{axioms_for, check_with_order_spec, Axiom};
use crate::event::EventId;
use crate::history::History;
use crate::isolation::{IsolationLevel, LevelSpec};
use crate::transaction::TxId;
use crate::value::Var;

/// The outcome of an evidence-producing check
/// ([`check_witnessed`](crate::check::ConsistencyChecker::check_witnessed)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The history satisfies the spec; the witness proves it.
    Consistent(Witness),
    /// The history violates the spec; the violation core shows why.
    Inconsistent(Violation),
}

impl Verdict {
    /// Whether this is a [`Verdict::Consistent`] verdict.
    pub fn is_consistent(&self) -> bool {
        matches!(self, Verdict::Consistent(_))
    }

    /// The witness of a consistent verdict, if any.
    pub fn witness(&self) -> Option<&Witness> {
        match self {
            Verdict::Consistent(w) => Some(w),
            Verdict::Inconsistent(_) => None,
        }
    }

    /// The violation core of an inconsistent verdict, if any.
    pub fn violation(&self) -> Option<&Violation> {
        match self {
            Verdict::Consistent(_) => None,
            Verdict::Inconsistent(v) => Some(v),
        }
    }
}

/// A consistency witness: a strict total commit order over all transactions
/// of the history (init first) that extends `so ∪ wr` and satisfies the
/// axioms of every reader's assigned level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// The commit order, smallest (init) first.
    pub commit_order: Vec<TxId>,
}

impl Witness {
    /// Replays the witness against the axioms: whether `commit_order` is a
    /// permutation of all transactions of `h` extending `so ∪ wr` whose
    /// induced total order satisfies `spec`
    /// ([`crate::axioms::check_with_order_spec`]). The replay reads only
    /// [`History`] queries, never an engine or its indexes, so it checks a
    /// witness without trusting the search that produced it; it costs one
    /// pass over the reads plus a causal-ancestor set per CC reader.
    pub fn replays(&self, h: &History, spec: &LevelSpec) -> bool {
        check_with_order_spec(h, spec, &self.commit_order)
    }
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.commit_order.iter().enumerate() {
            if i > 0 {
                f.write_str(" < ")?;
            }
            fmt_tx(f, *t)?;
        }
        Ok(())
    }
}

/// A violation core: a simple cycle of commit-order edges no strict total
/// order can satisfy. Each edge either exists in the history (`so`, `wr`)
/// or is forced by an axiom instance of the violated spec; dropping any
/// edge breaks the cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The cycle edges, in order: `cycle[k].to == cycle[k + 1].from` and
    /// the last edge closes back to `cycle[0].from`.
    pub cycle: Vec<ViolationEdge>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.cycle.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            fmt_tx(f, e.from)?;
            write!(f, " -{}->", e.reason)?;
            if i + 1 == self.cycle.len() {
                f.write_str(" ")?;
                fmt_tx(f, e.to)?;
            }
        }
        Ok(())
    }
}

/// One edge of a [`Violation`] cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViolationEdge {
    /// Source transaction: committed before `to` in every candidate order.
    pub from: TxId,
    /// Target transaction.
    pub to: TxId,
    /// Why the edge must hold.
    pub reason: EdgeReason,
}

/// Why a [`ViolationEdge`] must hold in every total commit order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EdgeReason {
    /// The edge is in the history's session order.
    SessionOrder,
    /// The edge is in the history's write-read (reads-from) relation.
    WriteRead,
    /// The edge is forced by an axiom instance of the spec.
    Forced(AxiomInstance),
    /// Case-split assumption: the saturation fixpoint was acyclic, the
    /// reconstruction branched on an unordered pair, and *every*
    /// orientation leads to a cycle; this edge is the orientation of the
    /// displayed branch. Does not occur on the test corpora.
    Hypothesis,
}

impl fmt::Display for EdgeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeReason::SessionOrder => f.write_str("so"),
            EdgeReason::WriteRead => f.write_str("wr"),
            EdgeReason::Forced(i) => write!(f, "co[{i}]"),
            EdgeReason::Hypothesis => f.write_str("co[hyp]"),
        }
    }
}

/// The axiom instance forcing a commit-order edge: the reader `reader`
/// reads `var` from `source`, `writer` also writes `var`, and the axiom's
/// premise `φ(writer, α)` (or, for `contrapositive` edges, its totality
/// consequence given `source < writer`) forces the edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AxiomInstance {
    /// The violated axiom of the reader's level.
    pub axiom: Axiom,
    /// The transaction whose external read instantiates the axiom.
    pub reader: TxId,
    /// The variable the read observes.
    pub var: Var,
    /// The transaction the read observes (`tr(α)` — `t1` in the axiom).
    pub source: TxId,
    /// The conflicting writer of `var` (`t2` in the axiom).
    pub writer: TxId,
    /// Whether the edge comes from the contrapositive rule (negated
    /// premise under `source < writer`) rather than the direct one.
    pub contrapositive: bool,
}

impl fmt::Display for AxiomInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.axiom)?;
        if self.contrapositive {
            f.write_str("'")?;
        }
        f.write_str(" ")?;
        fmt_tx(f, self.reader)?;
        write!(f, ":x{}<-", self.var.0)?;
        fmt_tx(f, self.source)?;
        f.write_str(" vs ")?;
        fmt_tx(f, self.writer)
    }
}

fn fmt_tx(f: &mut fmt::Formatter<'_>, t: TxId) -> fmt::Result {
    if t.is_init() {
        f.write_str("init")
    } else {
        write!(f, "t{}", t.0)
    }
}

/// The violation core of a history the deciding engine rejected, built
/// over fresh (non-memoised) indexes so it never touches engine memo
/// slots. Called by the engines'
/// [`check_witnessed`](crate::check::ConsistencyChecker::check_witnessed);
/// witnesses come from the engines themselves.
pub(crate) fn reconstruct(h: &History, spec: &LevelSpec) -> Verdict {
    Verdict::Inconsistent(
        violation_core(h, spec)
            .expect("saturation with case splits finds a core for every inconsistent history"),
    )
}

/// A minimal violation core, or `None` when `h` actually satisfies `spec`
/// (every saturation branch reaches a consistent total order).
fn violation_core(h: &History, spec: &LevelSpec) -> Option<Violation> {
    if spec.as_uniform() == Some(IsolationLevel::Trivial) {
        // The trivial level rejects nothing: no core can exist.
        return None;
    }
    let mut sat = Saturation::new(h, spec);
    sat.find_cycle().map(|cycle| Violation { cycle })
}

/// The saturation state: the transactions of the history, the annotated
/// derived edge set, and its transitive closure.
struct Saturation<'h> {
    h: &'h History,
    /// All transactions, init first.
    txs: Vec<TxId>,
    /// `TxId ↦` vertex index in `txs`.
    index: BTreeMap<TxId, usize>,
    /// External reads: `(reader, read event, var, source)`, with the
    /// reader's axioms resolved through the spec.
    reads: Vec<(TxId, EventId, Var, TxId, &'static [Axiom])>,
    /// Annotated adjacency: `edges[a]` lists `(b, reason)` with the first
    /// derivation of each edge kept.
    edges: Vec<Vec<(usize, EdgeReason)>>,
    /// Edge-presence matrix (row-major `a * n + b`).
    present: Vec<bool>,
    /// Transitive closure of `present` (paths of length ≥ 1).
    closure: Vec<bool>,
}

impl<'h> Saturation<'h> {
    fn new(h: &'h History, spec: &'h LevelSpec) -> Self {
        let txs: Vec<TxId> = std::iter::once(TxId::INIT).chain(h.tx_ids()).collect();
        let index: BTreeMap<TxId, usize> = txs.iter().enumerate().map(|(i, t)| (*t, i)).collect();
        let n = txs.len();
        let mut sat = Saturation {
            h,
            txs,
            index,
            reads: Vec::new(),
            edges: vec![Vec::new(); n],
            present: vec![false; n * n],
            closure: vec![false; n * n],
        };
        for (t3, alpha, x, t1) in h.reads_from() {
            let axioms = axioms_for(spec.level_of_tx(h, t3));
            if !axioms.is_empty() {
                sat.reads.push((t3, alpha, x, t1, axioms));
            }
        }
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let (ta, tb) = (sat.txs[a], sat.txs[b]);
                if h.so_before(ta, tb) {
                    sat.add_edge(a, b, EdgeReason::SessionOrder);
                } else if h.wr_tx_edge(ta, tb) {
                    sat.add_edge(a, b, EdgeReason::WriteRead);
                }
            }
        }
        sat.close();
        sat
    }

    fn n(&self) -> usize {
        self.txs.len()
    }

    /// Records `a → b` unless already present. Returns whether it was new.
    fn add_edge(&mut self, a: usize, b: usize, reason: EdgeReason) -> bool {
        debug_assert_ne!(a, b);
        if self.present[a * self.n() + b] {
            return false;
        }
        let n = self.n();
        self.present[a * n + b] = true;
        self.edges[a].push((b, reason));
        true
    }

    /// Recomputes the transitive closure (Floyd–Warshall; the histories
    /// the evidence path sees are tiny).
    fn close(&mut self) {
        let n = self.n();
        self.closure.copy_from_slice(&self.present);
        for k in 0..n {
            for a in 0..n {
                if !self.closure[a * n + k] {
                    continue;
                }
                for b in 0..n {
                    if self.closure[k * n + b] {
                        self.closure[a * n + b] = true;
                    }
                }
            }
        }
    }

    fn before(&self, a: usize, b: usize) -> bool {
        self.closure[a * self.n() + b]
    }

    fn before_eq(&self, a: usize, b: usize) -> bool {
        a == b || self.before(a, b)
    }

    /// Whether `φ_axiom(t2, α)` *necessarily* holds: it is true under
    /// every total order extending the currently derived partial order.
    /// Sound but (for the co-dependent premises) not complete.
    fn premise_necessary(&self, axiom: Axiom, t3: TxId, alpha: EventId, t2: TxId) -> bool {
        let h = self.h;
        let (i2, i3) = (self.index[&t2], self.index[&t3]);
        match axiom {
            Axiom::ReadCommitted => {
                let Some(log) = h.get_tx(t3) else {
                    return false;
                };
                log.read_events()
                    .filter(|c| log.po_before(c.id, alpha))
                    .any(|c| h.wr_of(c.id) == Some(t2))
            }
            Axiom::ReadAtomic => h.so_or_wr(t2, t3),
            Axiom::Causal => h.causally_before(t2, t3),
            Axiom::Serializability => self.before(i2, i3),
            Axiom::Prefix => {
                (0..self.n()).any(|i4| self.before_eq(i2, i4) && h.so_or_wr(self.txs[i4], t3))
            }
            Axiom::Conflict => {
                let Some(log3) = h.get_tx(t3) else {
                    return false;
                };
                let written: Vec<Var> = log3.visible_writes().keys().copied().collect();
                if written.is_empty() {
                    return false;
                }
                (0..self.n()).any(|i4| {
                    self.before_eq(i2, i4)
                        && self.before(i4, i3)
                        && written.iter().any(|y| h.writes_var(self.txs[i4], *y))
                })
            }
        }
    }

    /// One saturation pass: derives every new edge the direct and
    /// contrapositive rules justify under the current closure. Returns
    /// whether anything was added.
    fn saturate_pass(&mut self) -> bool {
        let mut added = false;
        let mut pending: Vec<(usize, usize, EdgeReason)> = Vec::new();
        for k in 0..self.reads.len() {
            let (t3, alpha, x, t1, axioms) = self.reads[k];
            let (i1, i3) = (self.index[&t1], self.index[&t3]);
            for t2 in self.h.writers_of(x) {
                if t2 == t1 {
                    continue;
                }
                let i2 = self.index[&t2];
                for &axiom in axioms {
                    let instance = |contrapositive: bool| {
                        EdgeReason::Forced(AxiomInstance {
                            axiom,
                            reader: t3,
                            var: x,
                            source: t1,
                            writer: t2,
                            contrapositive,
                        })
                    };
                    // Direct: premise necessarily holds ⇒ t2 < t1.
                    if i2 != i1
                        && !self.present[i2 * self.n() + i1]
                        && self.premise_necessary(axiom, t3, alpha, t2)
                    {
                        pending.push((i2, i1, instance(false)));
                    }
                    // Contrapositive: t1 < t2 derived ⇒ ¬φ(t2, α), and by
                    // totality the negated premise forces edges.
                    if !self.before(i1, i2) {
                        continue;
                    }
                    match axiom {
                        // ¬(t2 < t3) ⇒ t3 < t2 (anti-dependency).
                        Axiom::Serializability if i3 != i2 && !self.present[i3 * self.n() + i2] => {
                            pending.push((i3, i2, instance(true)));
                        }
                        Axiom::Serializability => {}
                        Axiom::Prefix => {
                            // ∀t4 with ⟨t4,t3⟩ ∈ so ∪ wr: ¬(t2 ≤ t4)
                            // ⇒ t4 < t2.
                            for i4 in 0..self.n() {
                                if i4 != i2
                                    && !self.present[i4 * self.n() + i2]
                                    && self.h.so_or_wr(self.txs[i4], t3)
                                {
                                    pending.push((i4, i2, instance(true)));
                                }
                            }
                        }
                        Axiom::Conflict => {
                            // ∀t4 writing a common variable with t3:
                            // t2 ≤ t4 ⇒ ¬(t4 < t3) ⇒ t3 < t4.
                            let Some(log3) = self.h.get_tx(t3) else {
                                continue;
                            };
                            let written: Vec<Var> = log3.visible_writes().keys().copied().collect();
                            for i4 in 0..self.n() {
                                if i4 == i3
                                    || !self.before_eq(i2, i4)
                                    || self.present[i3 * self.n() + i4]
                                {
                                    continue;
                                }
                                if written.iter().any(|y| self.h.writes_var(self.txs[i4], *y)) {
                                    pending.push((i3, i4, instance(true)));
                                }
                            }
                        }
                        // Weak premises never mention co: the direct rule
                        // is already exact.
                        _ => {}
                    }
                }
            }
        }
        for (a, b, reason) in pending {
            if self.add_edge(a, b, reason) {
                added = true;
            }
        }
        if added {
            self.close();
        }
        added
    }

    /// Shortest simple cycle in the annotated edge set, if any.
    fn shortest_cycle(&self) -> Option<Vec<ViolationEdge>> {
        let n = self.n();
        let mut best: Option<Vec<usize>> = None; // vertex sequence v0..vk, v0 = vk target
        for v in 0..n {
            if !self.before(v, v) {
                continue;
            }
            // BFS from v back to v over the annotated edges.
            let mut parent: Vec<Option<usize>> = vec![None; n];
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(v);
            let mut found = false;
            'bfs: while let Some(a) = queue.pop_front() {
                for &(b, _) in &self.edges[a] {
                    if b == v {
                        parent[v] = Some(a);
                        found = true;
                        break 'bfs;
                    }
                    if parent[b].is_none() && b != v {
                        parent[b] = Some(a);
                        queue.push_back(b);
                    }
                }
            }
            if !found {
                continue;
            }
            // Every vertex the BFS reached has a parent on a path from `v`,
            // so the chain from `v`'s own parent walks back to `v`.
            let mut path = vec![v];
            let mut cur = parent[v].expect("the BFS found an edge back into v");
            while cur != v {
                path.push(cur);
                cur = parent[cur].expect("every vertex the BFS reached has a parent");
            }
            path.push(v);
            path.reverse(); // v, ..., v
            if best.as_ref().map_or(true, |b| path.len() < b.len()) {
                best = Some(path);
            }
        }
        let path = best?;
        let mut cycle = Vec::with_capacity(path.len() - 1);
        for w in path.windows(2) {
            let (a, b) = (w[0], w[1]);
            let reason = self.edges[a]
                .iter()
                .find(|(to, _)| *to == b)
                .map(|(_, r)| r.clone())
                .expect("cycle edge must be annotated");
            cycle.push(ViolationEdge {
                from: self.txs[a],
                to: self.txs[b],
                reason,
            });
        }
        Some(cycle)
    }

    /// Saturates to fixpoint; on an acyclic fixpoint, case-splits on the
    /// first unordered pair. Returns a cycle iff every completion of the
    /// derived partial order violates some axiom instance.
    fn find_cycle(&mut self) -> Option<Vec<ViolationEdge>> {
        while self.saturate_pass() {
            if let Some(cycle) = self.shortest_cycle() {
                return Some(cycle);
            }
        }
        if let Some(cycle) = self.shortest_cycle() {
            return Some(cycle);
        }
        // Acyclic fixpoint: the derived order may still have no consistent
        // completion. Branch on the first unordered pair; the history is
        // inconsistent iff both orientations cycle.
        let n = self.n();
        for a in 0..n {
            for b in a + 1..n {
                if self.before(a, b) || self.before(b, a) {
                    continue;
                }
                let mut forward = self.fork();
                forward.add_edge(a, b, EdgeReason::Hypothesis);
                forward.close();
                let fwd = forward.find_cycle()?;
                let mut backward = self.fork();
                backward.add_edge(b, a, EdgeReason::Hypothesis);
                backward.close();
                let bwd = backward.find_cycle()?;
                return Some(if fwd.len() <= bwd.len() { fwd } else { bwd });
            }
        }
        // Total and acyclic at fixpoint: the unique completion satisfies
        // every axiom instance, so the history is consistent.
        None
    }

    /// A clone of the saturation state for a case-split branch.
    fn fork(&self) -> Saturation<'h> {
        Saturation {
            h: self.h,
            txs: self.txs.clone(),
            index: self.index.clone(),
            reads: self.reads.clone(),
            edges: self.edges.clone(),
            present: self.present.clone(),
            closure: self.closure.clone(),
        }
    }
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

    /// Write skew: t1 reads x, writes y; t2 reads y, writes x; both from
    /// init.
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

    fn assert_simple_cycle(v: &Violation) {
        assert!(!v.cycle.is_empty(), "empty cycle");
        for (k, e) in v.cycle.iter().enumerate() {
            let next = &v.cycle[(k + 1) % v.cycle.len()];
            assert_eq!(e.to, next.from, "cycle must be closed: {v}");
        }
        let mut seen = std::collections::BTreeSet::new();
        for e in &v.cycle {
            assert!(seen.insert(e.from), "cycle must be simple: {v}");
        }
    }

    #[test]
    fn lost_update_core_under_si_uses_the_conflict_axiom() {
        let h = lost_update();
        let spec = LevelSpec::uniform(IsolationLevel::SnapshotIsolation);
        let core = violation_core(&h, &spec).expect("lost update violates SI");
        assert_simple_cycle(&Violation {
            cycle: core.cycle.clone(),
        });
        assert!(
            core.cycle
                .iter()
                .any(|e| matches!(&e.reason, EdgeReason::Forced(i) if i.axiom == Axiom::Conflict)),
            "{core}"
        );
    }

    #[test]
    fn write_skew_core_under_ser_is_the_antidependency_cycle() {
        let h = write_skew();
        let spec = LevelSpec::uniform(IsolationLevel::Serializability);
        let core = violation_core(&h, &spec).expect("write skew violates SER");
        assert_simple_cycle(&core);
        // Both edges are contrapositive SER instances: each reader must
        // precede the writer that overwrote its snapshot.
        assert_eq!(core.cycle.len(), 2, "{core}");
        for e in &core.cycle {
            assert!(
                matches!(&e.reason, EdgeReason::Forced(i)
                    if i.axiom == Axiom::Serializability && i.contrapositive),
                "{core}"
            );
        }
    }

    #[test]
    fn consistent_histories_have_no_core() {
        let h = write_skew();
        for level in [
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::PrefixConsistency,
            IsolationLevel::CausalConsistency,
        ] {
            assert_eq!(violation_core(&h, &LevelSpec::uniform(level)), None);
        }
    }

    #[test]
    fn reconstructed_witnesses_replay() {
        let h = lost_update();
        for level in [
            IsolationLevel::Trivial,
            IsolationLevel::ReadCommitted,
            IsolationLevel::CausalConsistency,
            IsolationLevel::PrefixConsistency,
        ] {
            let spec = LevelSpec::uniform(level);
            let v = crate::check::engine_for(level).check_witnessed(&h);
            let w = v.witness().expect("lost update is consistent here");
            assert!(w.replays(&h, &spec), "{level}: {w}");
        }
    }
}
