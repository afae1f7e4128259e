//! The forced commit-order edges of Read Committed, Read Atomic and Causal
//! Consistency readers, and the acyclicity test they feed.
//!
//! For these levels the premise `φ(t2, α)` of the axiom schema does not
//! mention the commit order, so the set of commit-order edges forced by the
//! axioms can be computed in a single pass. A spec without strong levels
//! holds iff `so ∪ wr ∪ forced` is acyclic, in which case the order in
//! which the acyclicity test peels the transactions is a witness commit
//! order; a spec with strong levels hands the forced edges to the
//! commit-order search of [`crate::check::mixed`]. Either way the
//! [`Engine`] decides through this index.
//!
//! # Bit rows
//!
//! Vertex 0 is the init transaction, and every set of vertices is a row of
//! `⌈n/64⌉` packed words. Relations are stored *transposed*: row `v` holds
//! what must commit before `v`.
//!
//! * `so_wr` row `v`: the direct `so ∪ wr` predecessors of `v` — init,
//!   every session predecessor and every transaction `v` reads from;
//! * `reach` row `v`: the ancestors of `v` under `so ∪ wr` (kept only when
//!   the spec assigns Causal Consistency somewhere);
//! * writer row `x`: init, which writes every variable, and every
//!   non-aborted transaction writing `x`.
//!
//! An axiom instance — reader `i3` reading `x` from `i1` — forces `i2`
//! before `i1` for every writer `i2` of `x` other than `i1` and `i3` that
//! satisfies the reader's premise. On rows that is one masked OR per
//! instance, `forced[i1] |= premise(i3) & writers[x] & !{i1, i3}`, where
//! `premise(i3)` is the reader's ancestor row (CC), its direct-predecessor
//! row (RA), or the writers of its po-earlier wr reads (RC). Acyclicity of
//! `so ∪ wr ∪ forced` is decided by *peeling*: sweeps over the live
//! vertices in vertex order remove every vertex whose `so_wr` and
//! `forced` rows have no live bit left, and the relation is acyclic iff
//! the sweeps peel every vertex.
//!
//! # Incremental index
//!
//! The hot loops of the exploration (`ValidWrites`, `readLatest`, the DFS
//! baseline) re-check the *same* history after appending one event or
//! toggling one wr edge. `WeakIndex` therefore separates the check into
//! two parts:
//!
//! * **structural state** maintained across checks — the vertex table,
//!   per-session vertex lists, the writer rows, the axiom instances (reads
//!   with a wr edge), `so_wr` and `reach`. It syncs to a history by
//!   replaying the mutation deltas recorded since the last sync
//!   ([`History::deltas_since`]), paying O(delta) instead of O(events). A
//!   new transaction's ancestor row is its session predecessor's plus that
//!   predecessor and init; a new wr edge `u → v` ORs `u` and `u`'s
//!   ancestors into the row of `v` and of every descendant of `v`. Inverse
//!   deltas (pops, unset wr edges) are undone by restoring the ancestor
//!   rows saved when the matching forward delta was applied — mirroring
//!   the history's own checkpoint/undo journal — or, when the matching
//!   forward delta predates the last full rebuild, by recomputing just the
//!   affected relation. A delta stream the index cannot replay (an
//!   out-of-order wr insertion, a trimmed delta window, a different
//!   history) triggers a full rebuild.
//! * **per-check work** — the masked ORs of the axiom instances and the
//!   peeling sweeps — which is bounded by the axiom instances and the
//!   vertices, not by the history's events.
//!
//! [`Engine`]: crate::check::engine::Engine

use crate::check::engine::RebuildCause;
use crate::history::{DeltaEventInfo, History, HistoryDelta};
use crate::isolation::{IsolationLevel, LevelSpec};
use crate::relations::{ones, BitMatrix};
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
    /// A `Begin`: the transaction is the last vertex.
    Begin { tx: u32 },
    /// An appended event.
    Append { event: u32, kind: AppliedAppend },
    /// A fresh wr edge. `rows` is the `(start, count, row width)` of the
    /// saved ancestor rows in the [`SavedRows`] arena.
    SetWr {
        read: u32,
        so_wr_was_set: bool,
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
    /// (visible) write to the variable, i.e. whether the writer rows and
    /// the per-vertex written-variable list gained an entry.
    Write { var: Var, new_var: bool },
    /// An abort: the vertex's bits were cleared from its writer rows.
    Abort,
}

/// Arena for ancestor rows saved before an incremental update dirties
/// them, so a matched inverse delta restores them without recomputation.
#[derive(Debug, Default)]
struct SavedRows {
    words: Vec<u64>,
    /// `(row index, word offset into `words`)`; the row width is recorded
    /// per [`UndoRec::SetWr`] (the stride can only grow between save and
    /// restore, and only by then-undone mutations, so a restore zero-fills
    /// any extra words — whose columns were cleared by those undos).
    entries: Vec<(u32, u32)>,
}

/// Per-variable writer rows at the row width of the vertex matrices: row
/// `x` holds init and every non-aborted vertex writing `x`.
#[derive(Debug, Default)]
struct WriterRows {
    /// Words per row: the stride of `WeakIndex::so_wr`.
    stride: usize,
    words: Vec<u64>,
}

impl WriterRows {
    /// Drops every row; rows created from now on are `stride` words wide.
    fn reset(&mut self, stride: usize) {
        self.stride = stride;
        self.words.clear();
    }

    /// Re-homes the rows at a wider stride (the new words start clear).
    fn widen(&mut self, stride: usize) {
        if stride == self.stride {
            return;
        }
        debug_assert!(stride > self.stride && self.stride > 0);
        let mut words = vec![0; self.words.len() / self.stride * stride];
        for (new, old) in words
            .chunks_exact_mut(stride)
            .zip(self.words.chunks_exact(self.stride))
        {
            new[..old.len()].copy_from_slice(old);
        }
        self.words = words;
        self.stride = stride;
    }

    /// Creates the rows up to `x`'s, each holding init alone.
    fn ensure(&mut self, x: Var) {
        while self.words.len() <= x.0 as usize * self.stride {
            let start = self.words.len();
            self.words.resize(start + self.stride, 0);
            self.words[start] = 1;
        }
    }

    /// The row of `x`, which must exist.
    fn row(&self, x: Var) -> &[u64] {
        let start = x.0 as usize * self.stride;
        &self.words[start..start + self.stride]
    }

    fn set(&mut self, x: Var, v: u32) {
        self.words[x.0 as usize * self.stride + v as usize / 64] |= 1 << (v % 64);
    }

    fn clear(&mut self, x: Var, v: u32) {
        self.words[x.0 as usize * self.stride + v as usize / 64] &= !(1 << (v % 64));
    }
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
    /// Whether the ancestor rows `reach` are maintained (iff the spec
    /// assigns Causal Consistency somewhere).
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
    /// Per-variable visible writers, one row per variable read or written.
    writers: WriterRows,
    /// Row `v`: the direct `so ∪ wr` predecessors of `v`.
    so_wr: BitMatrix,
    /// Row `v`: the ancestors of `v` under `so ∪ wr` (maintained when
    /// `want_reach`).
    reach: BitMatrix,
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
    /// Row `v`: the predecessors the axiom instances force on `v`.
    forced: BitMatrix,
    /// The Read Committed premise row of one axiom instance.
    premise: Vec<u64>,
    /// The vertices not yet peeled.
    live: Vec<u64>,
    /// The vertices in the order the last acyclicity test peeled them: a
    /// topological order of `so ∪ wr ∪ forced` when it peeled them all.
    peeled: Vec<u32>,
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
            writers: WriterRows::default(),
            so_wr: BitMatrix::default(),
            reach: BitMatrix::default(),
            reads: Vec::new(),
            wr_seqs: Vec::new(),
            wr_read_pos: Vec::new(),
            undo: Vec::new(),
            saved: SavedRows::default(),
            forced: BitMatrix::default(),
            premise: Vec::new(),
            live: Vec::new(),
            peeled: Vec::new(),
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

    /// Decides the synced history's weak readers alone: computes the rows
    /// of forced predecessors and peels `so ∪ wr ∪ forced`, leaving the
    /// peel order for [`order`](Self::order).
    pub(crate) fn decide(&mut self) -> bool {
        debug_assert!(self.synced, "decide on an unsynced index");
        self.collect_forced();
        self.peel()
    }

    /// The transactions in the order the last [`decide`](Self::decide)
    /// peeled them, init first. After an acyclic verdict this is a
    /// topological order of `so ∪ wr ∪ forced`: a total commit order
    /// witnessing every weak reader's axioms, since the forced edges are
    /// exactly the constraints those axioms impose.
    pub(crate) fn order(&self) -> Vec<TxId> {
        self.peeled.iter().map(|&v| self.txs[v as usize]).collect()
    }

    /// Computes the forced predecessor rows into `self.forced`: one masked
    /// OR per axiom instance, under *its reader's* level (readers at
    /// `true`/PC/SI/SER contribute nothing).
    fn collect_forced(&mut self) {
        let n = self.txs.len();
        let words = n.div_ceil(64);
        self.forced.reset(n);
        for r in &self.reads {
            let i3 = r.reader as usize;
            let premise = match self.vtx_level[i3] {
                // ∃ read c of t3, po-before α, reading from t2.
                IsolationLevel::ReadCommitted => {
                    self.premise.clear();
                    self.premise.resize(words, 0);
                    for &w in &self.wr_seqs[i3][..r.prefix as usize] {
                        self.premise[w as usize / 64] |= 1 << (w % 64);
                    }
                    &self.premise[..]
                }
                // t2 →(so ∪ wr) t3.
                IsolationLevel::ReadAtomic => &self.so_wr.row(i3)[..words],
                // t2 →(so ∪ wr)+ t3.
                IsolationLevel::CausalConsistency => &self.reach.row(i3)[..words],
                _ => continue,
            };
            self.forced
                .or_and_into_row(r.writer as usize, premise, self.writers.row(r.var), i3);
        }
    }

    /// Computes the forced edges (see [`collect_forced`](Self::collect_forced))
    /// and hands them out as transaction-id pairs, for the mixed-level
    /// commit-order search which runs over transactions rather than this
    /// index's vertex numbering.
    pub(crate) fn collect_forced_tx(&mut self, out: &mut Vec<(TxId, TxId)>) {
        debug_assert!(self.synced, "collect_forced_tx on an unsynced index");
        self.collect_forced();
        out.clear();
        for (v, &t) in self.txs.iter().enumerate() {
            out.extend(ones(self.forced.row(v)).map(|u| (self.txs[u], t)));
        }
    }

    /// Tests acyclicity of `so ∪ wr ∪ forced` by peeling: each sweep
    /// visits the live vertices in vertex order and removes every one
    /// with no live `so_wr` or `forced` predecessor left, appending it to
    /// `self.peeled`. The relation is acyclic iff the sweeps peel every
    /// vertex; a sweep that removes nothing leaves a cycle behind.
    fn peel(&mut self) -> bool {
        let n = self.txs.len();
        let words = n.div_ceil(64);
        self.live.clear();
        self.live.resize(words, u64::MAX);
        if n % 64 != 0 {
            self.live[words - 1] = (1 << (n % 64)) - 1;
        }
        self.peeled.clear();
        loop {
            let before = self.peeled.len();
            for w in 0..words {
                let mut bits = self.live[w];
                while bits != 0 {
                    let v = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let preds = self.so_wr.row(v).iter().zip(self.forced.row(v));
                    if preds.zip(&self.live).all(|((p, f), l)| (p | f) & l == 0) {
                        self.live[w] &= !(1 << (v % 64));
                        self.peeled.push(v as u32);
                    }
                }
            }
            if self.peeled.len() == n {
                return true;
            }
            if self.peeled.len() == before {
                return false;
            }
        }
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
        for seq in &mut self.wr_seqs {
            seq.clear();
        }
        self.wr_seqs.resize_with(n, Vec::new);
        for pos in &mut self.wr_read_pos {
            pos.clear();
        }
        self.wr_read_pos.resize_with(n, Vec::new);
        self.reads.clear();
        self.so_wr.reset(n);
        self.writers.reset(self.so_wr.words_per_row());

        for j in 1..n {
            self.so_wr.set(j, 0);
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
                for b in &session[..k] {
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
                                    self.so_wr.set(i, iw as usize);
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }

        // The ancestor rows (so ∪ wr)+ as one packed transitive closure of
        // the predecessor rows.
        if self.want_reach {
            self.reach.clone_from(&self.so_wr);
            self.reach.transitive_close();
        }
        self.uid = h.uid();
        self.gen = h.generation();
        self.synced = true;
    }

    /// Records a write event of vertex `i` to `x`: bumps the per-vertex
    /// count and, on its first write, adds the vertex to `x`'s writer row
    /// unless it is aborted. Returns whether a new `(vertex, var)` entry
    /// was created.
    fn note_write(&mut self, i: u32, x: Var, aborted: bool) -> bool {
        if let Some(entry) = self.vtx_writes[i as usize]
            .iter_mut()
            .find(|(y, _)| *y == x)
        {
            entry.1 += 1;
            return false;
        }
        self.vtx_writes[i as usize].push((x, 1));
        self.writers.ensure(x);
        if !aborted {
            self.writers.set(x, i);
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
        self.writers.ensure(x);
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
                Some(UndoRec::Begin { tx: t }) if *t == tx.0 => {
                    self.undo.pop();
                    self.undo_begin();
                    true
                }
                // The matching Begin predates the last rebuild: undoing a
                // begin needs no saved state (the vertex is the last one
                // and nothing reads from it).
                None if self.txs.last() == Some(&tx) => {
                    self.undo_begin();
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
                        for &(x, _) in &self.vtx_writes[v as usize] {
                            self.writers.clear(x, v);
                        }
                        AppliedAppend::Abort
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
                        rows,
                        ..
                    }) = self.undo.pop()
                    else {
                        unreachable!()
                    };
                    self.undo_set_wr(reader, writer, so_wr_was_set, rows);
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
        let (v, n) = (v as usize, v as usize + 1);
        self.so_wr.grow(n);
        self.writers.widen(self.so_wr.words_per_row());
        self.so_wr.set(v, 0);
        for &p in &self.session_vtx[session as usize] {
            self.so_wr.set(v, p as usize);
        }
        if self.want_reach {
            // The new vertex is a sink: its ancestors are its session
            // predecessor's, that predecessor and init.
            self.reach.grow(n);
            self.reach.or_row_into(pred as usize, v);
            self.reach.set(v, pred as usize);
            self.reach.set(v, 0);
        }
        self.session_vtx[session as usize].push(v as u32);
        self.undo.push(UndoRec::Begin { tx: tx.0 });
    }

    /// Removes the last vertex (a begin-only transaction: no writes, no wr
    /// reads in either direction, by journal LIFO ordering).
    fn undo_begin(&mut self) {
        let v = self.txs.len() - 1;
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
                        self.writers.clear(var, v);
                    }
                }
            }
            AppliedAppend::Abort => self.unabort(v),
        }
    }

    /// Takes back an abort of vertex `v`: its writes are visible again.
    fn unabort(&mut self, v: u32) {
        self.vtx_aborted[v as usize] = false;
        for &(x, _) in &self.vtx_writes[v as usize] {
            self.writers.set(x, v);
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
                        self.writers.clear(x, v);
                    }
                }
            }
            DeltaEventInfo::Abort => self.unabort(v),
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
        let mut so_wr_was_set = true;
        let mut rows = (
            self.saved.entries.len() as u32,
            0u32,
            self.reach.words_per_row() as u32,
        );
        if iw != i {
            so_wr_was_set = self.so_wr.get(i as usize, iw as usize);
            if !so_wr_was_set {
                self.so_wr.set(i as usize, iw as usize);
            }
            if self.want_reach {
                self.reach_insert_saving(iw as usize, i as usize);
                rows.1 = self.saved.entries.len() as u32 - rows.0;
            }
        }
        self.undo.push(UndoRec::SetWr {
            read,
            so_wr_was_set,
            rows,
        });
        true
    }

    /// Inserts edge `u → v` into the ancestor rows, saving every dirtied
    /// row in the arena: the rows of `v` and of every descendant of `v`
    /// gain `u` and `u`'s ancestors.
    fn reach_insert_saving(&mut self, u: usize, v: usize) {
        if self.reach.get(v, u) {
            return;
        }
        let n = self.txs.len();
        self.row_buf.clear();
        self.row_buf.extend_from_slice(self.reach.row(u));
        for w in 0..n {
            if (w == v || self.reach.get(w, v)) && !self.reach.get(w, u) {
                let offset = self.saved.words.len() as u32;
                self.saved.words.extend_from_slice(self.reach.row(w));
                self.saved.entries.push((w as u32, offset));
                self.reach.or_into_row_with_bit(w, &self.row_buf, u);
            }
        }
    }

    fn undo_set_wr(
        &mut self,
        reader: TxId,
        writer: TxId,
        so_wr_was_set: bool,
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
                self.so_wr.clear_bit(i as usize, iw as usize);
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
    /// the ancestor rows are recomputed from the direct relation — cheaper
    /// than a rebuild, which would also rescan every transaction log.
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
                let so_pair = iw == 0
                    || (self.vtx_session[iw as usize] == self.vtx_session[i as usize]
                        && self.vtx_sidx[iw as usize] < self.vtx_sidx[i as usize]);
                if !so_pair {
                    self.so_wr.clear_bit(i as usize, iw as usize);
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
    use crate::testkit::{assert_verdict_valid, random_history, XorShift};
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

    /// A random history of 8 sessions of 1–16 transactions over 4
    /// variables, generated session by session. Transactions numbered
    /// below `stale_from` read the latest committed write of each variable,
    /// the rest any committed write: with `stale_from` beyond the last
    /// transaction the history is serializable, hence consistent at every
    /// level.
    fn serial_history(seed: u64, stale_from: u32) -> History {
        let mut rng = XorShift(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
        let mut b = Builder::new();
        let mut writers = vec![vec![TxId::INIT]; 4];
        for s in 0..8 {
            for _ in 0..=rng.below(16) {
                let t = b.begin(s);
                let mut wrote = Vec::new();
                for _ in 0..=rng.below(3) {
                    let x = rng.below(4) as usize;
                    if rng.below(2) == 0 {
                        b.write(s, Var(x as u32), 1);
                        wrote.push(x);
                    } else if !wrote.contains(&x) {
                        let pick = if t.0 < stale_from {
                            writers[x].len() - 1
                        } else {
                            rng.below(writers[x].len() as u64) as usize
                        };
                        b.read(s, Var(x as u32), writers[x][pick]);
                    }
                }
                b.commit(s);
                for x in wrote {
                    writers[x].push(t);
                }
            }
        }
        b.h
    }

    /// Histories of 65–128 transactions, so every bit row spans two words:
    /// two from `random_history` (violations at every weak level but RC on
    /// some seeds), two serializable ones, and two that turn stale only
    /// from the 65th transaction on, so their first violations need both
    /// words of a row.
    fn wide_corpus() -> Vec<History> {
        let wide = |h: &History| (65..=130).contains(&h.num_transactions());
        let random = (0..).map(|seed| random_history(seed, 8, 16, 4));
        let serial = (0..).map(|seed| serial_history(seed, u32::MAX));
        let late = (0..).map(|seed| serial_history(seed, 65));
        (random.filter(wide).take(2))
            .chain(serial.filter(wide).take(2))
            .chain(late.filter(wide).take(2))
            .collect()
    }

    /// RC, RA, CC and a mix of the three by session and position.
    fn weak_specs() -> Vec<LevelSpec> {
        use IsolationLevel::*;
        let mut mixed = LevelSpec::uniform(CausalConsistency);
        for s in 0..8 {
            for k in 0..16 {
                let level = [ReadCommitted, ReadAtomic, CausalConsistency][((s + k) % 3) as usize];
                mixed = mixed.with_override(s, k, level);
            }
        }
        vec![
            LevelSpec::uniform(ReadCommitted),
            LevelSpec::uniform(ReadAtomic),
            LevelSpec::uniform(CausalConsistency),
            mixed,
        ]
    }

    /// No oracle scales to these histories, so each verdict is validated
    /// on its own terms: a witness must replay, a core must be a closed,
    /// simple, minimal cycle of real so/wr/forced edges.
    #[test]
    fn wide_histories_get_valid_evidence() {
        let (mut witnesses, mut cores) = (0, 0);
        for (k, h) in wide_corpus().iter().enumerate() {
            for spec in weak_specs() {
                let verdict = Engine::new(spec.clone(), true).check_witnessed(h);
                let consistent = verdict.is_consistent();
                let ctx = format!("{spec} on wide history {k}");
                assert_verdict_valid(h, &spec, &verdict, consistent, &ctx);
                if consistent {
                    witnesses += 1;
                } else {
                    cores += 1;
                }
            }
        }
        assert!(
            witnesses > 0 && cores > 0,
            "{witnesses} witnesses, {cores} cores"
        );
    }

    /// The incremental index over two-word rows: one engine fed a history
    /// one extension at a time — checkpoint, extend, check, roll back,
    /// check, extend again — answers like a fresh engine at every step,
    /// and the fresh engine's evidence holds up to the first violation.
    #[test]
    fn wide_histories_sync_one_extension_at_a_time() {
        for (k, h) in wide_corpus().iter().enumerate() {
            for spec in weak_specs() {
                let mut engine = Engine::new(spec.clone(), false);
                let mut g = History::new([]);
                let mut before = true;
                for (sid, txs) in h.sessions() {
                    for (idx, &t) in txs.iter().enumerate() {
                        for e in &h.tx(t).events {
                            let extend = |g: &mut History| {
                                if e.kind == EventKind::Begin {
                                    g.begin_transaction(sid, t, idx, e.clone());
                                } else {
                                    g.append_event(sid, e.clone());
                                }
                                if let Some(w) = h.wr_of(e.id) {
                                    g.set_wr(e.id, w);
                                }
                            };
                            let mark = g.checkpoint();
                            extend(&mut g);
                            let mut fresh = Engine::new(spec.clone(), false);
                            let after = fresh.check(&g);
                            let ctx = format!("{spec} on wide history {k} at {}", e.id);
                            // In the two-word range, at each commit up to
                            // the first violation and at that violation,
                            // the evidence vouches for the fresh verdict.
                            if before && t.0 >= 64 && (!after || e.kind == EventKind::Commit) {
                                let verdict = fresh.check_witnessed(&g);
                                assert_verdict_valid(&g, &spec, &verdict, after, &ctx);
                            }
                            assert_eq!(engine.check(&g), after, "extended: {ctx}");
                            g.rollback(mark);
                            assert_eq!(engine.check(&g), before, "rolled back: {ctx}");
                            extend(&mut g);
                            before = after;
                        }
                    }
                }
                assert_eq!(engine.check(&g), before);
                assert!(engine.stats().incremental_hits > 0);
            }
        }
    }
}
