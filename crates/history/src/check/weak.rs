//! The forced commit-order edges of Read Committed, Read Atomic and Causal
//! Consistency readers.
//!
//! For these levels the premise `φ(t2, α)` of the axiom schema does not
//! mention the commit order, so the set of commit-order edges forced by the
//! axioms can be computed in a single pass. A spec without strong levels
//! holds iff `so ∪ wr ∪ forced` is acyclic, in which case the topological
//! order the acyclicity test visits is a witness commit order; a spec with
//! strong levels hands the forced edges to the commit-order search of
//! [`crate::check::mixed`]. Either way the [`Engine`] decides through this
//! index.
//!
//! # Incremental index
//!
//! The hot loops of the exploration (`ValidWrites`, `readLatest`, the DFS
//! baseline) re-check the *same* history after appending one event or
//! toggling one wr edge. `WeakIndex` therefore separates the check into
//! two parts:
//!
//! * **structural state** maintained across checks — the vertex table,
//!   per-session vertex lists, writers-per-var index, axiom instances
//!   (reads with a wr edge), the direct `so ∪ wr` matrix, its transitive
//!   closure (Causal Consistency only) and the base `so ∪ wr` graph. It
//!   syncs to a history by replaying the mutation deltas recorded since the
//!   last sync ([`History::deltas_since`]), paying O(delta) instead of
//!   O(events); reachability is updated under edge insertion by row-OR
//!   propagation from the new edge only. Inverse deltas (pops, unset wr
//!   edges) are undone by restoring the dirty closure rows saved when the
//!   matching forward delta was applied — mirroring the history's own
//!   checkpoint/undo journal — or, when the matching forward delta predates
//!   the last full rebuild, by recomputing just the affected relation. A
//!   delta stream the index cannot replay (an out-of-order wr insertion, a
//!   trimmed delta window, a different history) triggers a full rebuild.
//! * **per-check work** — collecting the forced commit-order edges from the
//!   axiom instances and testing acyclicity of `base ∪ forced` — which is
//!   bounded by the number of axiom instances, not by the history size.
//!
//! [`Engine`]: crate::check::engine::Engine

use crate::check::engine::RebuildCause;
use crate::history::{DeltaEventInfo, History, HistoryDelta};
use crate::isolation::{IsolationLevel, LevelSpec};
use crate::relations::{BitMatrix, Digraph};
use crate::transaction::TxId;
use crate::value::Var;

/// Absent-vertex sentinel of the direct-indexed `TxId.0 ↦ vertex` table.
const NO_VERTEX: u32 = u32::MAX;

/// One axiom instance: a read of `var` in transaction (vertex) `reader`
/// reading from `writer`, with `prefix` wr-reads of the same transaction
/// preceding it in program order (the Read Committed premise set).
#[derive(Debug)]
struct ReadInfo {
    /// Identifier of the read event (for delta matching).
    read: u32,
    reader: u32,
    writer: u32,
    /// Number of entries of `wr_seqs[reader]` that po-precede this read.
    prefix: u32,
    var: Var,
}

/// Undo record for one applied delta, restored in LIFO order when the
/// history rolls the corresponding mutation back.
#[derive(Debug)]
enum UndoRec {
    /// A `Begin`: the transaction is the last vertex; `g_edge` is the base
    /// edge added from its session predecessor (or the init vertex).
    Begin { tx: u32, g_edge: (u32, u32) },
    /// An appended event.
    Append { event: u32, kind: AppliedAppend },
    /// A fresh wr edge. `rows` is the `(start, count, row width)` of the
    /// saved closure rows in the [`SavedRows`] arena.
    SetWr {
        read: u32,
        so_wr_was_set: bool,
        g_pushed: bool,
        rows: (u32, u32, u32),
    },
}

/// What applying an `Append` delta changed, by event kind.
#[derive(Debug)]
enum AppliedAppend {
    /// Reads and commits leave the index untouched (a read only matters
    /// once its wr edge arrives; commit status is irrelevant to the weak
    /// levels).
    Inert,
    /// A write: `new_var` records whether this was the vertex's first
    /// (visible) write to the variable, i.e. whether the writers index and
    /// the per-vertex written-variable list gained an entry.
    Write { var: Var, new_var: bool },
    /// An abort: the vertex's writes were removed from the writers index at
    /// the recorded positions.
    Abort { removed: Vec<(Var, u32)> },
}

/// Arena for closure rows saved before an incremental update dirties them,
/// so a matched inverse delta restores them without recomputation.
#[derive(Debug, Default)]
struct SavedRows {
    words: Vec<u64>,
    /// `(row index, word offset into `words`)`; the row width is recorded
    /// per [`UndoRec::SetWr`] (the stride can only grow between save and
    /// restore, and only by then-undone mutations, so a restore zero-fills
    /// any extra words — whose columns were cleared by those undos).
    entries: Vec<(u32, u32)>,
}

/// Reusable, incrementally synced state for the forced edges of the weak
/// readers. One instance is owned by each `Decider` of
/// [`crate::check::mixed`].
#[derive(Debug)]
pub(crate) struct WeakIndex {
    /// Level assignment: each read contributes the forced edges of *its
    /// reader's* level (readers at `true`/PC/SI/SER contribute none — the
    /// strong levels are handled by the commit-order search in
    /// [`crate::check::mixed`]).
    spec: LevelSpec,
    /// Whether the transitive closure `reach` is maintained (present iff
    /// the spec assigns Causal Consistency somewhere).
    want_reach: bool,
    /// Identity + generation of the history this index is synced to.
    uid: u64,
    gen: u64,
    synced: bool,
    /// Vertex table: vertex 0 is the init transaction.
    txs: Vec<TxId>,
    /// Direct-indexed `TxId.0 ↦ vertex` ([`NO_VERTEX`] = absent).
    index: Vec<u32>,
    /// Per-vertex session id / position within the session (unused for 0).
    vtx_session: Vec<u32>,
    vtx_sidx: Vec<u32>,
    vtx_aborted: Vec<bool>,
    /// Per-vertex isolation level resolved from `spec` (default for 0).
    vtx_level: Vec<IsolationLevel>,
    /// Per-session vertex sequences (session order).
    session_vtx: Vec<Vec<u32>>,
    /// Per-vertex `(var, write-event count)` pairs, first-write order.
    vtx_writes: Vec<Vec<(Var, u32)>>,
    /// Per-variable non-aborted writer vertices.
    writers: Vec<Vec<u32>>,
    /// Direct `so ∪ wr` membership (all session pairs, init row, wr edges).
    so_wr: BitMatrix,
    /// Transitive closure of `so_wr` (maintained when `want_reach`).
    reach: BitMatrix,
    /// Base graph: session chains + init edges + wr edges (no forced edges).
    graph: Digraph,
    /// Axiom instances: reads with a wr dependency.
    reads: Vec<ReadInfo>,
    /// Per-vertex wr-read writer vertices, in program order, plus the po
    /// positions of those reads (ascending).
    wr_seqs: Vec<Vec<u32>>,
    wr_read_pos: Vec<Vec<u32>>,
    /// LIFO undo journal mirroring the history's, plus the saved-row arena.
    undo: Vec<UndoRec>,
    saved: SavedRows,
    // Per-check scratch.
    forced: Vec<(u32, u32)>,
    forced_heads: Vec<u32>,
    forced_sorted: Vec<u32>,
    indeg: Vec<u32>,
    /// The vertices in the order the last acyclicity test visited them: a
    /// topological order of `so ∪ wr ∪ forced` when it found no cycle.
    kahn: Vec<u32>,
    row_buf: Vec<u64>,
}

impl WeakIndex {
    /// Creates an empty index for an arbitrary level assignment. Readers at
    /// weak levels contribute their forced edges; readers at `true`, PC, SI
    /// or SER contribute none (see [`crate::check::mixed`] for how the
    /// strong levels are decided on top of this index).
    pub(crate) fn new_spec(spec: LevelSpec) -> Self {
        WeakIndex {
            want_reach: spec.mentions(IsolationLevel::CausalConsistency),
            spec,
            uid: 0,
            gen: 0,
            synced: false,
            txs: Vec::new(),
            index: Vec::new(),
            vtx_session: Vec::new(),
            vtx_sidx: Vec::new(),
            vtx_aborted: Vec::new(),
            vtx_level: Vec::new(),
            session_vtx: Vec::new(),
            vtx_writes: Vec::new(),
            writers: Vec::new(),
            so_wr: BitMatrix::default(),
            reach: BitMatrix::default(),
            graph: Digraph::default(),
            reads: Vec::new(),
            wr_seqs: Vec::new(),
            wr_read_pos: Vec::new(),
            undo: Vec::new(),
            saved: SavedRows::default(),
            forced: Vec::new(),
            forced_heads: Vec::new(),
            forced_sorted: Vec::new(),
            indeg: Vec::new(),
            kahn: Vec::new(),
            row_buf: Vec::new(),
        }
    }

    /// Brings the index in sync with `h`, replaying the recorded mutation
    /// deltas when possible and rebuilding from scratch otherwise. Returns
    /// why it rebuilt, or `None` when it did not.
    pub(crate) fn sync(&mut self, h: &History) -> Option<RebuildCause> {
        let cause = if self.synced && self.uid == h.uid() {
            if self.gen == h.generation() {
                return None;
            }
            match h.deltas_since(self.gen) {
                None => RebuildCause::Window,
                Some(mut deltas) => match deltas.find(|d| !self.apply(d)) {
                    None => {
                        self.gen = h.generation();
                        return None;
                    }
                    Some(d) => RebuildCause::Delta(*d),
                },
            }
        } else {
            RebuildCause::FirstSync
        };
        self.rebuild(h);
        Some(cause)
    }

    /// Decides the synced history's weak readers alone: collects the forced
    /// commit-order edges from the axiom instances and tests acyclicity of
    /// the base graph extended with them, leaving the visit order for
    /// [`order`](Self::order).
    pub(crate) fn decide(&mut self) -> bool {
        debug_assert!(self.synced, "decide on an unsynced index");
        self.collect_forced();
        self.forced_acyclic()
    }

    /// The transactions in the order the last [`decide`](Self::decide)
    /// visited them, init first: after an acyclic verdict, a topological
    /// order of `so ∪ wr ∪ forced` — a total commit order witnessing every
    /// weak reader's axioms, since the forced edges are exactly the
    /// constraints those axioms impose.
    pub(crate) fn order(&self) -> Vec<TxId> {
        self.kahn.iter().map(|&v| self.txs[v as usize]).collect()
    }

    /// Collects the commit-order edges forced by the axiom instances into
    /// `self.forced`, each read contributing under *its reader's* level
    /// (readers at `true`/SI/SER contribute nothing).
    fn collect_forced(&mut self) {
        let forced = &mut self.forced;
        forced.clear();
        for r in &self.reads {
            let (i3, i1) = (r.reader, r.writer);
            let level = self.vtx_level[i3 as usize];
            if !matches!(
                level,
                IsolationLevel::ReadCommitted
                    | IsolationLevel::ReadAtomic
                    | IsolationLevel::CausalConsistency
            ) {
                continue;
            }
            let var_writers = self
                .writers
                .get(r.var.0 as usize)
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            for i2 in std::iter::once(0).chain(var_writers.iter().copied()) {
                if i2 == i1 || i2 == i3 {
                    continue;
                }
                let premise = match level {
                    // ∃ read c of t3, po-before α, reading from t2.
                    IsolationLevel::ReadCommitted => {
                        self.wr_seqs[i3 as usize][..r.prefix as usize].contains(&i2)
                    }
                    IsolationLevel::ReadAtomic => self.so_wr.get(i2 as usize, i3 as usize),
                    IsolationLevel::CausalConsistency => self.reach.get(i2 as usize, i3 as usize),
                    _ => unreachable!(),
                };
                if premise {
                    forced.push((i2, i1));
                }
            }
        }
    }

    /// Collects the forced edges (see [`collect_forced`](Self::collect_forced))
    /// and hands them out as transaction-id pairs, for the mixed-level
    /// commit-order search which runs over transactions rather than this
    /// index's vertex numbering.
    pub(crate) fn collect_forced_tx(&mut self, out: &mut Vec<(TxId, TxId)>) {
        debug_assert!(self.synced, "collect_forced_tx on an unsynced index");
        self.collect_forced();
        out.clear();
        out.extend(
            self.forced
                .iter()
                .map(|&(a, b)| (self.txs[a as usize], self.txs[b as usize])),
        );
    }

    /// Tests acyclicity of the base graph extended with `self.forced`,
    /// recording the FIFO visit order in `self.kahn`.
    fn forced_acyclic(&mut self) -> bool {
        let forced = &mut self.forced;
        // Kahn's algorithm over the base graph plus the forced edges
        // (forced edges may repeat base edges; multiplicity is harmless as
        // long as in-degrees count it symmetrically). Forced edges are
        // bucketed by source with a counting sort so relaxation touches
        // each edge once instead of scanning the list per vertex.
        let n = self.txs.len();
        self.forced_heads.clear();
        self.forced_heads.resize(n + 1, 0);
        for &(a, _) in forced.iter() {
            self.forced_heads[a as usize + 1] += 1;
        }
        for v in 0..n {
            self.forced_heads[v + 1] += self.forced_heads[v];
        }
        self.forced_sorted.clear();
        self.forced_sorted.resize(forced.len(), 0);
        {
            let mut cursor = std::mem::take(&mut self.indeg);
            cursor.clear();
            cursor.extend_from_slice(&self.forced_heads[..n]);
            for &(a, b) in forced.iter() {
                let c = &mut cursor[a as usize];
                self.forced_sorted[*c as usize] = b;
                *c += 1;
            }
            self.indeg = cursor;
        }
        self.indeg.clear();
        self.indeg.resize(n, 0);
        for v in 0..n {
            for &w in self.graph.successors(v) {
                self.indeg[w] += 1;
            }
        }
        for &(_, b) in forced.iter() {
            self.indeg[b as usize] += 1;
        }
        // The queue is `kahn` read through a cursor: popped vertices stay
        // in place, so the visit order survives the test.
        self.kahn.clear();
        for v in 0..n {
            if self.indeg[v] == 0 {
                self.kahn.push(v as u32);
            }
        }
        let mut head = 0;
        while let Some(&v) = self.kahn.get(head) {
            head += 1;
            for &w in self.graph.successors(v as usize) {
                self.indeg[w] -= 1;
                if self.indeg[w] == 0 {
                    self.kahn.push(w as u32);
                }
            }
            let bucket =
                self.forced_heads[v as usize] as usize..self.forced_heads[v as usize + 1] as usize;
            for k in bucket {
                let b = self.forced_sorted[k];
                self.indeg[b as usize] -= 1;
                if self.indeg[b as usize] == 0 {
                    self.kahn.push(b);
                }
            }
        }
        self.kahn.len() == n
    }

    // ------------------------------------------------------------------
    // Full rebuild
    // ------------------------------------------------------------------

    /// Rebuilds every structure from scratch with a single pass over the
    /// transaction logs, and re-anchors the sync point at `h`'s current
    /// generation.
    fn rebuild(&mut self, h: &History) {
        self.undo.clear();
        self.saved.words.clear();
        self.saved.entries.clear();
        self.txs.clear();
        self.txs.push(TxId::INIT);
        self.txs.extend(h.tx_ids());
        let n = self.txs.len();
        self.index.clear();
        self.index.resize(h.max_tx_id() as usize + 1, NO_VERTEX);
        for (i, t) in self.txs.iter().enumerate() {
            self.index[t.0 as usize] = i as u32;
        }
        self.vtx_session.clear();
        self.vtx_session.resize(n, u32::MAX);
        self.vtx_sidx.clear();
        self.vtx_sidx.resize(n, u32::MAX);
        self.vtx_aborted.clear();
        self.vtx_aborted.resize(n, false);
        self.vtx_level.clear();
        self.vtx_level.resize(n, self.spec.default_level());
        for s in &mut self.session_vtx {
            s.clear();
        }
        for w in &mut self.vtx_writes {
            w.clear();
        }
        self.vtx_writes.resize_with(n, Vec::new);
        for w in &mut self.writers {
            w.clear();
        }
        for seq in &mut self.wr_seqs {
            seq.clear();
        }
        self.wr_seqs.resize_with(n, Vec::new);
        for pos in &mut self.wr_read_pos {
            pos.clear();
        }
        self.wr_read_pos.resize_with(n, Vec::new);
        self.reads.clear();
        self.graph.reset(n);
        self.so_wr.reset(n);

        for j in 1..n {
            self.so_wr.set(0, j);
        }
        for (sid, session) in h.sessions() {
            if self.session_vtx.len() <= sid.0 as usize {
                self.session_vtx.resize_with(sid.0 as usize + 1, Vec::new);
            }
            for (k, a) in session.iter().enumerate() {
                let i = self.index[a.0 as usize] as usize;
                self.session_vtx[sid.0 as usize].push(i as u32);
                self.vtx_session[i] = sid.0;
                self.vtx_sidx[i] = k as u32;
                self.vtx_level[i] = self.spec.level_of(sid.0, k as u32);
                let pred = if k == 0 {
                    0
                } else {
                    self.index[session[k - 1].0 as usize] as usize
                };
                self.graph.add_edge(pred, i);
                for b in &session[k + 1..] {
                    self.so_wr.set(i, self.index[b.0 as usize] as usize);
                }
                let log = h.tx(*a);
                let aborted = log.is_aborted();
                self.vtx_aborted[i] = aborted;
                for (po, e) in log.events.iter().enumerate() {
                    match &e.kind {
                        crate::event::EventKind::Write(x, _) => {
                            self.note_write(i as u32, *x, aborted);
                        }
                        crate::event::EventKind::Read(x) => {
                            if let Some(w) = h.wr_of(e.id) {
                                let iw = self.index[w.0 as usize];
                                self.push_read(e.id.0, i as u32, iw, *x, po as u32);
                                if iw as usize != i {
                                    self.graph.add_edge(iw as usize, i);
                                    self.so_wr.set(iw as usize, i);
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }

        // Causal reachability (so ∪ wr)+ as one packed transitive closure.
        if self.want_reach {
            self.reach.clone_from(&self.so_wr);
            self.reach.transitive_close();
        }
        self.uid = h.uid();
        self.gen = h.generation();
        self.synced = true;
    }

    /// Records a write event of vertex `i` to `x`: bumps the per-vertex
    /// count and indexes the writer on its first write (skipping the
    /// writers index for aborted vertices). Returns whether a new
    /// `(vertex, var)` entry was created.
    fn note_write(&mut self, i: u32, x: Var, aborted: bool) -> bool {
        if let Some(entry) = self.vtx_writes[i as usize]
            .iter_mut()
            .find(|(y, _)| *y == x)
        {
            entry.1 += 1;
            return false;
        }
        self.vtx_writes[i as usize].push((x, 1));
        if self.writers.len() <= x.0 as usize {
            self.writers.resize_with(x.0 as usize + 1, Vec::new);
        }
        if !aborted {
            self.writers[x.0 as usize].push(i);
        }
        true
    }

    /// Appends an axiom instance for a wr read of vertex `i` at po position
    /// `po` reading from vertex `iw`.
    fn push_read(&mut self, read: u32, i: u32, iw: u32, x: Var, po: u32) {
        let prefix = self.wr_seqs[i as usize].len() as u32;
        self.reads.push(ReadInfo {
            read,
            reader: i,
            writer: iw,
            prefix,
            var: x,
        });
        self.wr_seqs[i as usize].push(iw);
        self.wr_read_pos[i as usize].push(po);
    }

    // ------------------------------------------------------------------
    // Incremental delta replay
    // ------------------------------------------------------------------

    /// Applies one observed mutation. Returns `false` when the delta cannot
    /// be replayed incrementally (the caller falls back to a rebuild; the
    /// index may be left half-updated and must not be used before then).
    fn apply(&mut self, d: &HistoryDelta) -> bool {
        match *d {
            HistoryDelta::Begin { session, tx } => {
                self.apply_begin(session.0, tx);
                true
            }
            HistoryDelta::UndoBegin { tx, .. } => match self.undo.last() {
                Some(UndoRec::Begin { tx: t, .. }) if *t == tx.0 => {
                    let Some(UndoRec::Begin { g_edge, .. }) = self.undo.pop() else {
                        unreachable!()
                    };
                    self.undo_begin(g_edge);
                    true
                }
                None if self.txs.last() == Some(&tx) => {
                    // The matching Begin predates the last rebuild: undoing
                    // a begin needs no saved state (the vertex is the last
                    // one and fully disconnected on the outgoing side).
                    let v = (self.txs.len() - 1) as u32;
                    let s = self.vtx_session[v as usize] as usize;
                    let pred = match self.session_vtx[s].len() {
                        0 | 1 => 0,
                        k => self.session_vtx[s][k - 2],
                    };
                    self.undo_begin((pred, v));
                    true
                }
                // A `retract_begin` of a transaction that is not the newest
                // vertex (or a mismatched stack top) would need vertex
                // renumbering: rebuild instead.
                _ => false,
            },
            HistoryDelta::Append {
                event, info, tx, ..
            } => {
                let Some(&v) = self.index.get(tx.0 as usize) else {
                    return false;
                };
                if v == NO_VERTEX {
                    return false;
                }
                let kind = match info {
                    DeltaEventInfo::Read(_) | DeltaEventInfo::Commit => AppliedAppend::Inert,
                    DeltaEventInfo::Write(x) => {
                        debug_assert!(!self.vtx_aborted[v as usize]);
                        let new_var = self.note_write(v, x, false);
                        AppliedAppend::Write { var: x, new_var }
                    }
                    DeltaEventInfo::Abort => {
                        self.vtx_aborted[v as usize] = true;
                        let mut removed = Vec::new();
                        for k in 0..self.vtx_writes[v as usize].len() {
                            let (x, _) = self.vtx_writes[v as usize][k];
                            let list = &mut self.writers[x.0 as usize];
                            let pos = list
                                .iter()
                                .position(|w| *w == v)
                                .expect("aborted writer was indexed");
                            list.remove(pos);
                            removed.push((x, pos as u32));
                        }
                        AppliedAppend::Abort { removed }
                    }
                };
                self.undo.push(UndoRec::Append {
                    event: event.0,
                    kind,
                });
                true
            }
            HistoryDelta::Pop {
                event, tx, info, ..
            } => match self.undo.last() {
                Some(UndoRec::Append { event: e, .. }) if *e == event.0 => {
                    let Some(UndoRec::Append { kind, .. }) = self.undo.pop() else {
                        unreachable!()
                    };
                    let v = self.index[tx.0 as usize];
                    self.undo_append(v, kind);
                    true
                }
                None => self.destructive_pop(tx, info),
                Some(_) => false,
            },
            HistoryDelta::SetWr {
                read,
                reader,
                writer,
                var,
                po,
            } => self.apply_set_wr(read.0, reader, writer, var, po),
            HistoryDelta::UnsetWr {
                read,
                reader,
                writer,
                po,
                ..
            } => match self.undo.last() {
                Some(UndoRec::SetWr { read: r, .. }) if *r == read.0 => {
                    let Some(UndoRec::SetWr {
                        so_wr_was_set,
                        g_pushed,
                        rows,
                        ..
                    }) = self.undo.pop()
                    else {
                        unreachable!()
                    };
                    self.undo_set_wr(reader, writer, so_wr_was_set, g_pushed, rows);
                    true
                }
                None => self.destructive_unset_wr(read.0, reader, writer, po),
                Some(_) => false,
            },
        }
    }

    fn apply_begin(&mut self, session: u32, tx: TxId) {
        let v = self.txs.len() as u32;
        self.txs.push(tx);
        if self.index.len() <= tx.0 as usize {
            self.index.resize(tx.0 as usize + 1, NO_VERTEX);
        }
        debug_assert_eq!(self.index[tx.0 as usize], NO_VERTEX);
        self.index[tx.0 as usize] = v;
        if self.session_vtx.len() <= session as usize {
            self.session_vtx.resize_with(session as usize + 1, Vec::new);
        }
        let sidx = self.session_vtx[session as usize].len() as u32;
        let pred = self.session_vtx[session as usize]
            .last()
            .copied()
            .unwrap_or(0);
        self.vtx_session.push(session);
        self.vtx_sidx.push(sidx);
        self.vtx_aborted.push(false);
        self.vtx_level.push(self.spec.level_of(session, sidx));
        self.vtx_writes.push(Vec::new());
        self.wr_seqs.push(Vec::new());
        self.wr_read_pos.push(Vec::new());
        let n = v as usize + 1;
        self.so_wr.grow(n);
        self.so_wr.set(0, v as usize);
        for k in 0..sidx {
            let p = self.session_vtx[session as usize][k as usize] as usize;
            self.so_wr.set(p, v as usize);
        }
        self.graph.add_vertex();
        let added = self.graph.try_add_edge(pred as usize, v as usize);
        debug_assert!(added, "fresh vertex cannot have the base edge already");
        if self.want_reach {
            // The new vertex is a sink: its ancestors are the init vertex,
            // its session predecessor and everything reaching it.
            self.reach.grow(n);
            for w in 0..v as usize {
                if w == 0 || w == pred as usize || self.reach.get(w, pred as usize) {
                    self.reach.set(w, v as usize);
                }
            }
        }
        self.session_vtx[session as usize].push(v);
        self.undo.push(UndoRec::Begin {
            tx: tx.0,
            g_edge: (pred, v),
        });
    }

    /// Removes the last vertex (a begin-only transaction: no writes, no wr
    /// reads in either direction, by journal LIFO ordering).
    fn undo_begin(&mut self, g_edge: (u32, u32)) {
        let v = self.txs.len() - 1;
        debug_assert_eq!(g_edge.1 as usize, v);
        debug_assert!(self.vtx_writes[v].is_empty(), "begin undone with writes");
        debug_assert!(self.wr_seqs[v].is_empty(), "begin undone with wr reads");
        let tx = self.txs.pop().expect("vertex to pop");
        self.index[tx.0 as usize] = NO_VERTEX;
        let s = self.vtx_session.pop().expect("vertex session") as usize;
        self.vtx_sidx.pop();
        self.vtx_aborted.pop();
        self.vtx_level.pop();
        self.vtx_writes.pop();
        self.wr_seqs.pop();
        self.wr_read_pos.pop();
        let popped = self.session_vtx[s].pop();
        debug_assert_eq!(popped, Some(v as u32));
        self.graph.remove_edge(g_edge.0 as usize, v);
        self.graph.pop_vertex();
        self.so_wr.shrink(v);
        if self.want_reach {
            self.reach.shrink(v);
        }
    }

    fn undo_append(&mut self, v: u32, kind: AppliedAppend) {
        match kind {
            AppliedAppend::Inert => {}
            AppliedAppend::Write { var, new_var } => {
                let entry = self.vtx_writes[v as usize]
                    .iter_mut()
                    .rev()
                    .find(|(y, _)| *y == var)
                    .expect("undone write was recorded");
                entry.1 -= 1;
                if entry.1 == 0 {
                    debug_assert!(new_var, "count reached zero for a repeated write");
                    let (x, _) = self.vtx_writes[v as usize].pop().expect("write entry");
                    debug_assert_eq!(x, var, "write entries are undone in LIFO order");
                    if !self.vtx_aborted[v as usize] {
                        let popped = self.writers[var.0 as usize].pop();
                        debug_assert_eq!(popped, Some(v));
                    }
                }
            }
            AppliedAppend::Abort { removed } => {
                self.vtx_aborted[v as usize] = false;
                for (x, pos) in removed.into_iter().rev() {
                    self.writers[x.0 as usize].insert(pos as usize, v);
                }
            }
        }
    }

    /// Handles a `Pop` whose matching `Append` predates the last rebuild:
    /// the effects are recomputed from the per-vertex write counts instead
    /// of an undo record.
    fn destructive_pop(&mut self, tx: TxId, info: DeltaEventInfo) -> bool {
        let v = self.index[tx.0 as usize];
        match info {
            DeltaEventInfo::Read(_) | DeltaEventInfo::Commit => {}
            DeltaEventInfo::Write(x) => {
                let Some(k) = self.vtx_writes[v as usize]
                    .iter()
                    .position(|(y, _)| *y == x)
                else {
                    return false;
                };
                self.vtx_writes[v as usize][k].1 -= 1;
                if self.vtx_writes[v as usize][k].1 == 0 {
                    self.vtx_writes[v as usize].remove(k);
                    if !self.vtx_aborted[v as usize] {
                        let list = &mut self.writers[x.0 as usize];
                        let pos = list.iter().position(|w| *w == v).expect("writer indexed");
                        list.remove(pos);
                    }
                }
            }
            DeltaEventInfo::Abort => {
                self.vtx_aborted[v as usize] = false;
                for k in 0..self.vtx_writes[v as usize].len() {
                    let (x, _) = self.vtx_writes[v as usize][k];
                    self.writers[x.0 as usize].push(v);
                }
            }
        }
        true
    }

    fn apply_set_wr(&mut self, read: u32, reader: TxId, writer: TxId, var: Var, po: u32) -> bool {
        let (Some(&i), Some(&iw)) = (
            self.index.get(reader.0 as usize),
            self.index.get(writer.0 as usize),
        ) else {
            return false;
        };
        if i == NO_VERTEX || iw == NO_VERTEX {
            return false;
        }
        // Only po-in-order insertions keep the prefix fields of later
        // axiom instances valid; out-of-order churn forces a rebuild.
        if self.wr_read_pos[i as usize]
            .last()
            .is_some_and(|l| *l >= po)
        {
            return false;
        }
        self.push_read(read, i, iw, var, po);
        let (mut so_wr_was_set, mut g_pushed) = (true, false);
        let mut rows = (
            self.saved.entries.len() as u32,
            0u32,
            self.reach.words_per_row() as u32,
        );
        if iw != i {
            so_wr_was_set = self.so_wr.get(iw as usize, i as usize);
            if !so_wr_was_set {
                self.so_wr.set(iw as usize, i as usize);
            }
            g_pushed = self.graph.try_add_edge(iw as usize, i as usize);
            if self.want_reach {
                self.reach_insert_saving(iw as usize, i as usize);
                rows.1 = self.saved.entries.len() as u32 - rows.0;
            }
        }
        self.undo.push(UndoRec::SetWr {
            read,
            so_wr_was_set,
            g_pushed,
            rows,
        });
        true
    }

    /// Inserts edge `(u, v)` into the closure `reach`, saving every dirtied
    /// row in the arena: rows of `u` and of every vertex reaching `u` gain
    /// `v`'s successor set plus `v` itself.
    fn reach_insert_saving(&mut self, u: usize, v: usize) {
        if self.reach.get(u, v) {
            return;
        }
        let n = self.txs.len();
        self.row_buf.clear();
        self.row_buf.extend_from_slice(self.reach.row(v));
        for w in 0..n {
            if (w == u || self.reach.get(w, u)) && !self.reach.get(w, v) {
                let offset = self.saved.words.len() as u32;
                self.saved.words.extend_from_slice(self.reach.row(w));
                self.saved.entries.push((w as u32, offset));
                let buf = std::mem::take(&mut self.row_buf);
                self.reach.or_into_row_with_bit(w, &buf, v);
                self.row_buf = buf;
            }
        }
    }

    fn undo_set_wr(
        &mut self,
        reader: TxId,
        writer: TxId,
        so_wr_was_set: bool,
        g_pushed: bool,
        rows: (u32, u32, u32),
    ) {
        let i = self.index[reader.0 as usize];
        let iw = self.index[writer.0 as usize];
        let r = self.reads.pop().expect("read instance to undo");
        debug_assert_eq!((r.reader, r.writer), (i, iw));
        self.wr_seqs[i as usize].pop();
        self.wr_read_pos[i as usize].pop();
        if iw != i {
            if !so_wr_was_set {
                self.so_wr.clear_bit(iw as usize, i as usize);
            }
            if g_pushed {
                self.graph.remove_edge(iw as usize, i as usize);
            }
            if self.want_reach {
                let (start, len, width) = (rows.0 as usize, rows.1 as usize, rows.2 as usize);
                for k in (start..start + len).rev() {
                    let (row, offset) = self.saved.entries[k];
                    let words = &self.saved.words[offset as usize..offset as usize + width];
                    self.reach.restore_row(row as usize, words);
                }
                if len > 0 {
                    self.saved
                        .words
                        .truncate(self.saved.entries[start].1 as usize);
                }
                self.saved.entries.truncate(start);
            }
        }
    }

    /// Handles an `UnsetWr` whose matching `SetWr` predates the last
    /// rebuild: indexes are fixed up in place and (for Causal Consistency)
    /// the closure is recomputed from the direct relation — cheaper than a
    /// rebuild, which would also rescan every transaction log.
    fn destructive_unset_wr(&mut self, read: u32, reader: TxId, writer: TxId, po: u32) -> bool {
        let i = self.index[reader.0 as usize];
        let iw = self.index[writer.0 as usize];
        let Some(pos) = self.reads.iter().position(|r| r.read == read) else {
            return false;
        };
        self.reads.swap_remove(pos);
        let Ok(k) = self.wr_read_pos[i as usize].binary_search(&po) else {
            return false;
        };
        self.wr_seqs[i as usize].remove(k);
        self.wr_read_pos[i as usize].remove(k);
        for r in &mut self.reads {
            if r.reader == i && r.prefix > k as u32 {
                r.prefix -= 1;
            }
        }
        if iw != i {
            let still_wr = self.reads.iter().any(|r| r.reader == i && r.writer == iw);
            if !still_wr {
                let same_session =
                    iw != 0 && self.vtx_session[iw as usize] == self.vtx_session[i as usize];
                let so_pair = iw == 0
                    || (same_session && self.vtx_sidx[iw as usize] < self.vtx_sidx[i as usize]);
                if !so_pair {
                    self.so_wr.clear_bit(iw as usize, i as usize);
                }
                let chain_edge = if iw == 0 {
                    self.vtx_sidx[i as usize] == 0
                } else {
                    same_session && self.vtx_sidx[iw as usize] + 1 == self.vtx_sidx[i as usize]
                };
                if !chain_edge {
                    self.graph.remove_edge(iw as usize, i as usize);
                }
                if self.want_reach {
                    self.reach.clone_from(&self.so_wr);
                    self.reach.transitive_close();
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::engine::{ConsistencyChecker, Engine};
    use crate::check::satisfies;
    use crate::event::{Event, EventId, EventKind};
    use crate::transaction::SessionId;
    use crate::value::{Value, Var};

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

    /// Fig. 3: CC violation, RA/RC consistent.
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
        b.begin(3);
        b.read(3, x, t1);
        b.read(3, y, t4);
        b.commit(3);
        b.h
    }

    #[test]
    fn fig3_violates_cc_only() {
        let h = fig3();
        assert!(!satisfies(&h, IsolationLevel::CausalConsistency));
        assert!(satisfies(&h, IsolationLevel::ReadAtomic));
        assert!(satisfies(&h, IsolationLevel::ReadCommitted));
    }

    /// Fig. 9d under CC: read of y from init while reading x from a later
    /// transaction in the same session is a Read Atomic violation too.
    #[test]
    fn fractured_read_violates_ra_but_not_rc() {
        // t1 (session 0): write x 1, write y 1
        // t2 (session 1): read y <- t1 ; read x <- init
        let (x, y) = (Var(0), Var(1));
        let mut b = Builder::new();
        let t1 = b.begin(0);
        b.write(0, x, 1);
        b.write(0, y, 1);
        b.commit(0);
        b.begin(1);
        b.read(1, y, t1);
        b.read(1, x, TxId::INIT);
        b.commit(1);
        let h = b.h;
        assert!(!satisfies(&h, IsolationLevel::ReadAtomic));
        assert!(!satisfies(&h, IsolationLevel::CausalConsistency));
        // RC: the read of x from init is preceded (po) by a read from t1,
        // so t1 must precede init in co: violation of RC as well.
        assert!(!satisfies(&h, IsolationLevel::ReadCommitted));
        // Swapping the order of the two reads removes the RC violation.
        let mut b = Builder::new();
        let t1 = b.begin(0);
        b.write(0, x, 1);
        b.write(0, y, 1);
        b.commit(0);
        b.begin(1);
        b.read(1, x, TxId::INIT);
        b.read(1, y, t1);
        b.commit(1);
        let h = b.h;
        assert!(satisfies(&h, IsolationLevel::ReadCommitted));
        assert!(!satisfies(&h, IsolationLevel::ReadAtomic));
    }

    #[test]
    fn causal_violation_through_session_order() {
        // Session 0: t1 writes x=1 ; t2 writes x=2.
        // Session 1: t3 reads x from t1 — stale w.r.t. so: CC forbids
        // nothing here (t2 not causally before t3), so consistent.
        let x = Var(0);
        let mut b = Builder::new();
        let t1 = b.begin(0);
        b.write(0, x, 1);
        b.commit(0);
        b.begin(0);
        b.write(0, x, 2);
        b.commit(0);
        b.begin(1);
        b.read(1, x, t1);
        b.commit(1);
        assert!(satisfies(&b.h, IsolationLevel::CausalConsistency));

        // But if t3 first reads x from t2 then reads x again from t1 the
        // second read is internal-free and CC (even RC) is violated.
        let mut b = Builder::new();
        let t1 = b.begin(0);
        b.write(0, x, 1);
        b.commit(0);
        let t2 = b.begin(0);
        b.write(0, x, 2);
        b.commit(0);
        b.begin(1);
        b.read(1, x, t2);
        b.read(1, x, t1);
        b.commit(1);
        assert!(!satisfies(&b.h, IsolationLevel::ReadCommitted));
        assert!(!satisfies(&b.h, IsolationLevel::CausalConsistency));
    }

    #[test]
    fn reading_own_session_past_is_consistent() {
        let x = Var(0);
        let mut b = Builder::new();
        let t1 = b.begin(0);
        b.write(0, x, 1);
        b.commit(0);
        b.begin(0);
        b.read(0, x, t1);
        b.commit(0);
        for level in [
            IsolationLevel::ReadCommitted,
            IsolationLevel::ReadAtomic,
            IsolationLevel::CausalConsistency,
        ] {
            assert!(satisfies(&b.h, level));
        }
    }

    #[test]
    fn empty_history_is_consistent() {
        let h = History::default();
        for level in [
            IsolationLevel::ReadCommitted,
            IsolationLevel::ReadAtomic,
            IsolationLevel::CausalConsistency,
        ] {
            assert!(satisfies(&h, level));
        }
    }

    /// The incremental fast path: a candidate loop (set → check → unset)
    /// through one engine must answer exactly like fresh checks, and end up
    /// synced incrementally rather than via rebuilds.
    #[test]
    fn incremental_candidate_loop_matches_fresh_checks() {
        let x = Var(0);
        let mut b = Builder::new();
        let t1 = b.begin(0);
        b.write(0, x, 1);
        b.commit(0);
        let t2 = b.begin(1);
        b.write(1, x, 2);
        b.commit(1);
        b.begin(2);
        let mut h = b.h;
        let read = EventId(100);
        let mark = h.checkpoint();
        h.append_event(SessionId(2), Event::new(read, EventKind::Read(x)));

        let cc = IsolationLevel::CausalConsistency;
        let mut engine = Engine::new(LevelSpec::uniform(cc), false);
        engine.check(&h); // first sync: one rebuild
        assert_eq!(engine.stats().full_rebuilds, 1);
        for writer in [TxId::INIT, t1, t2] {
            h.set_wr(read, writer);
            let inc = engine.check(&h);
            let fresh = satisfies(&h, cc);
            assert_eq!(inc, fresh, "incremental disagrees for writer {writer}");
            h.unset_wr(read);
            assert_eq!(engine.check(&h), satisfies(&h, cc));
        }
        h.rollback(mark);
        assert!(engine.check(&h));
        let stats = engine.stats();
        assert_eq!(stats.full_rebuilds, 1, "candidate loop forced a rebuild");
        assert_eq!(stats.rebuild_causes.first_sync, 1);
        assert_eq!(stats.incremental_hits, 7);
    }

    /// A rebuild is counted under the first delta the index could not
    /// replay: here the `Pop` of an event older than the index's last
    /// rebuild, met with a newer `Append` on top of its undo stack.
    #[test]
    fn rebuild_is_blamed_on_the_unreplayable_delta() {
        let x = Var(0);
        let mut b = Builder::new();
        b.begin(0);
        b.write(0, x, 1);
        b.begin(1);
        let mut h = b.h;
        let mut engine = Engine::new(LevelSpec::uniform(IsolationLevel::CausalConsistency), false);
        engine.check(&h);
        h.append_event(
            SessionId(1),
            Event::new(EventId(100), EventKind::Write(x, Value::Int(2))),
        );
        h.pop_event(SessionId(0));
        engine.check(&h);
        let stats = engine.stats();
        assert_eq!(stats.full_rebuilds, 2);
        let causes = stats.rebuild_causes;
        assert_eq!((causes.first_sync, causes.pop, causes.total()), (1, 1, 2));
    }
}
