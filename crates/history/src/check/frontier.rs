//! Per-transaction index for the commit-order search of
//! [`crate::check::mixed`], maintained incrementally from the history's
//! mutation deltas.
//!
//! The search consumes one view of a history: the transactions of each
//! session in session order, and per transaction its external reads
//! (variable + writer) and visible writes. [`FrontierIndex`] keeps that
//! view synced to a history the same way [`crate::check::weak::WeakIndex`]
//! does, replaying [`History::deltas_since`]. Unlike the weak index it
//! needs no undo journal: a delta, or an inverse delta emitted by a
//! rollback, is undone from the per-transaction write counts and read
//! lists. One delta is not replayable: an `UndoBegin` of a transaction
//! that is not the last slot, since removing it would renumber the slots
//! after it. [`History::retract_begin`] produces those when the explorer's
//! doomed-suffix descent retracts a transaction begun before others, and
//! they cause nearly all of this index's rebuilds. The *search* itself
//! still runs per check — only the index construction is amortised.

use crate::check::engine::RebuildCause;
use crate::history::{DeltaEventInfo, EventDelta, History, HistoryDelta, TxDelta, WrDelta};
use crate::transaction::TxId;
use crate::value::Var;

/// One write entry of a transaction: variable, number of live write events
/// to it, and the program-order position of the first one (used to decide
/// whether a read is internal).
#[derive(Copy, Clone, Debug)]
struct WriteEntry {
    var: Var,
    count: u32,
    first_po: u32,
}

/// Incrementally synced per-transaction view for the commit-order search.
#[derive(Debug, Default)]
pub(crate) struct FrontierIndex {
    uid: u64,
    gen: u64,
    synced: bool,
    /// `session id ↦` its transactions as `(id, slot)` in session order
    /// (gaps between session ids stay empty).
    pub(crate) sessions: Vec<Vec<(TxId, u32)>>,
    /// `slot ↦` external reads `(var, writer)` of the transaction.
    pub(crate) reads: Vec<Vec<(Var, TxId)>>,
    /// `slot ↦` write entries of the transaction.
    writes: Vec<Vec<WriteEntry>>,
    /// `slot ↦` whether the transaction aborted (its writes are invisible).
    aborted: Vec<bool>,
    /// Direct-indexed `TxId.0 ↦ slot` (`u32::MAX` = absent).
    index: Vec<u32>,
}

impl FrontierIndex {
    /// Number of indexed transactions.
    pub(crate) fn len(&self) -> usize {
        self.reads.len()
    }

    /// The slot of a transaction, `None` for unknown ids (including init).
    pub(crate) fn slot_of(&self, t: TxId) -> Option<u32> {
        match self.index.get(t.0 as usize) {
            Some(&slot) if slot != u32::MAX => Some(slot),
            _ => None,
        }
    }

    /// The *visible* writes of a slot (empty for aborted transactions).
    pub(crate) fn visible_writes(&self, slot: usize) -> impl Iterator<Item = Var> + '_ {
        let entries = if self.aborted[slot] {
            &[] as &[WriteEntry]
        } else {
            &self.writes[slot]
        };
        entries.iter().map(|e| e.var)
    }

    /// Whether the slot's transaction visibly writes `x`.
    pub(crate) fn writes_var(&self, slot: usize, x: Var) -> bool {
        !self.aborted[slot] && self.writes[slot].iter().any(|e| e.var == x)
    }

    /// Brings the index in sync with `h`, replaying recorded deltas when
    /// possible and rebuilding otherwise. Returns why it rebuilt, or
    /// `None` when it did not.
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

    fn rebuild(&mut self, h: &History) {
        for s in &mut self.sessions {
            s.clear();
        }
        self.reads.clear();
        self.writes.clear();
        self.aborted.clear();
        self.index.clear();
        self.index.resize(h.max_tx_id() as usize + 1, u32::MAX);
        let n = h.num_transactions();
        self.reads.resize_with(n, Vec::new);
        self.writes.resize_with(n, Vec::new);
        self.aborted.resize(n, false);
        for (slot, t) in h.transactions().enumerate() {
            self.index[t.id.0 as usize] = slot as u32;
        }
        for (sid, txs) in h.sessions() {
            if self.sessions.len() <= sid.0 as usize {
                self.sessions.resize_with(sid.0 as usize + 1, Vec::new);
            }
            for t in txs {
                let slot = self.index[t.0 as usize];
                self.sessions[sid.0 as usize].push((*t, slot));
                let log = h.tx(*t);
                self.aborted[slot as usize] = log.is_aborted();
                for (po, e) in log.events.iter().enumerate() {
                    match &e.kind {
                        crate::event::EventKind::Write(x, _) => {
                            self.note_write(slot, *x, po as u32);
                        }
                        crate::event::EventKind::Read(x) => {
                            if let Some(w) = h.wr_of(e.id) {
                                if !self.is_internal(slot, *x, po as u32) {
                                    self.reads[slot as usize].push((*x, w));
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        self.uid = h.uid();
        self.gen = h.generation();
        self.synced = true;
    }

    fn note_write(&mut self, slot: u32, x: Var, po: u32) {
        match self.writes[slot as usize].iter_mut().find(|e| e.var == x) {
            Some(e) => e.count += 1,
            None => self.writes[slot as usize].push(WriteEntry {
                var: x,
                count: 1,
                first_po: po,
            }),
        }
    }

    /// Whether a read of `x` at po position `po` is internal (po-preceded
    /// by a write to `x` in the same transaction).
    fn is_internal(&self, slot: u32, x: Var, po: u32) -> bool {
        self.writes[slot as usize]
            .iter()
            .any(|e| e.var == x && e.first_po < po)
    }

    fn apply(&mut self, d: &HistoryDelta) -> bool {
        match *d {
            HistoryDelta::Begin(TxDelta { session, tx, .. }) => {
                let slot = self.reads.len() as u32;
                if self.index.len() <= tx.0 as usize {
                    self.index.resize(tx.0 as usize + 1, u32::MAX);
                }
                self.index[tx.0 as usize] = slot;
                if self.sessions.len() <= session.0 as usize {
                    self.sessions.resize_with(session.0 as usize + 1, Vec::new);
                }
                self.sessions[session.0 as usize].push((tx, slot));
                self.reads.push(Vec::new());
                self.writes.push(Vec::new());
                self.aborted.push(false);
                true
            }
            HistoryDelta::UndoBegin(TxDelta { session, tx, .. }) => {
                // The transaction's log is begin-only (all reads and writes
                // popped). A rolled-back `Begin` is the last slot; a
                // retracted transaction need not be, and then the index
                // rebuilds rather than renumber the slots after it.
                if self.sessions[session.0 as usize].pop() != Some((tx, self.len() as u32 - 1)) {
                    return false;
                }
                let reads = self.reads.pop().expect("slot to pop");
                let writes = self.writes.pop().expect("slot to pop");
                self.aborted.pop();
                self.index[tx.0 as usize] = u32::MAX;
                reads.is_empty() && writes.is_empty()
            }
            HistoryDelta::Append(EventDelta { tx, info, po, .. }) => {
                let slot = self.index[tx.0 as usize];
                match info {
                    DeltaEventInfo::Read(_) | DeltaEventInfo::Commit => {}
                    DeltaEventInfo::Write(x) => self.note_write(slot, x, po),
                    DeltaEventInfo::Abort => self.aborted[slot as usize] = true,
                }
                true
            }
            HistoryDelta::Pop(EventDelta { tx, info, .. }) => {
                let slot = self.index[tx.0 as usize];
                match info {
                    DeltaEventInfo::Read(_) | DeltaEventInfo::Commit => {}
                    DeltaEventInfo::Write(x) => {
                        let Some(k) = self.writes[slot as usize].iter().position(|e| e.var == x)
                        else {
                            return false;
                        };
                        self.writes[slot as usize][k].count -= 1;
                        if self.writes[slot as usize][k].count == 0 {
                            self.writes[slot as usize].remove(k);
                        }
                    }
                    DeltaEventInfo::Abort => self.aborted[slot as usize] = false,
                }
                true
            }
            HistoryDelta::SetWr(WrDelta {
                reader,
                writer,
                var,
                po,
                ..
            }) => {
                let slot = self.index[reader.0 as usize];
                if !self.is_internal(slot, var, po) {
                    self.reads[slot as usize].push((var, writer));
                }
                true
            }
            HistoryDelta::UnsetWr(WrDelta {
                reader,
                writer,
                var,
                po,
                ..
            }) => {
                let slot = self.index[reader.0 as usize];
                if self.is_internal(slot, var, po) {
                    return true;
                }
                match self.reads[slot as usize]
                    .iter()
                    .rposition(|r| *r == (var, writer))
                {
                    Some(k) => {
                        self.reads[slot as usize].remove(k);
                        true
                    }
                    None => false,
                }
            }
        }
    }
}
