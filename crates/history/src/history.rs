//! Histories: the abstract representation of an execution's interaction
//! with the database (Definition 2.1).
//!
//! A history is a set of transaction logs together with a session order
//! `so` and a write-read (read-from) relation `wr` that associates every
//! external read with the transaction it reads from. The distinguished
//! initial transaction [`TxId::INIT`] writes the initial value of every
//! global variable and precedes all other transactions in `so`; it is kept
//! implicit (no explicit transaction log) which matches the paper's
//! treatment of `init` in figures.
//!
//! # Representation
//!
//! The history is stored as a flat arena rather than as id-keyed maps: the
//! transaction logs live in one dense vector, and the relations
//! `tx ↦ log`, `tx ↦ session position`, `event ↦ owner` and
//! `event ↦ wr source` are direct-indexed vectors over the raw `u32`
//! identifiers (`crate::arena`). Exploration engines allocate ids
//! contiguously per branch (see [`History::max_event_id`]), so lookups are
//! O(1) loads and cloning a history is a handful of flat copies. The
//! explorers rarely clone: only to hand a node to another worker, or to
//! keep an output history.
//!
//! # Undo journal
//!
//! Both explorers run their whole search on one history per worker. They
//! [`History::checkpoint`] it, mutate it in place through the journaled
//! mutators ([`History::append_event`], [`History::set_wr`],
//! [`History::unset_wr`], [`History::pop_event`],
//! [`History::retract_begin`], [`History::begin_transaction`]) and
//! [`History::rollback`] to the mark, which restores the history
//! bit-for-bit (asserted by property tests). Checkpoints nest: the
//! explore-ce traversal keeps one open per node on its path, and the
//! `ValidWrites`, `readLatest` and `Optimality` trials open theirs inside.
//! [`History::clone_at`] copies the history as it was at an open mark.
//! A rolling structural hash ([`History::live_hash`]) is maintained
//! incrementally across all mutations so that memoised consistency engines
//! obtain their key in O(1) instead of re-walking the history.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::arena::{IdMap, TxSet, NONE};
use crate::event::{Event, EventId, EventKind};
use crate::transaction::{SessionId, TransactionLog, TxId};
use crate::value::{Value, Var, VarTable};

/// Prepared coordinates of a read event for repeated wr-candidate trials
/// (see [`History::prepare_wr_trial`]).
#[derive(Copy, Clone, Debug)]
pub struct WrTrial {
    read: EventId,
    reader: TxId,
    var: Var,
    po: u32,
    key: u64,
}

/// A checkpoint of a [`History`], restored by [`History::rollback`].
///
/// Marks are positions in the undo journal; they must be rolled back in
/// LIFO order (rolling back an outer mark discards inner ones).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct HistoryMark {
    journal_len: usize,
}

/// One recorded mutation, undone (in reverse order) by `rollback`.
#[derive(Clone, Debug)]
enum JournalOp {
    /// A `begin_transaction`: the transaction is the last of `session`.
    Begin {
        session: SessionId,
        prev_max_event: u32,
        prev_max_tx: u32,
    },
    /// An `append_event` to the last transaction of `session`.
    Append {
        session: SessionId,
        prev_max_event: u32,
    },
    /// A `pop_event` from the last transaction of `session`; re-pushed on
    /// rollback.
    Pop { session: SessionId, event: Event },
    /// A `set_wr`/`unset_wr` of `read`; `prev` is the raw previous writer
    /// id ([`NONE`] for absent).
    SetWr { read: EventId, prev: u32 },
    /// A `retract_begin`: the begin-only transaction is re-begun on
    /// rollback.
    Retract {
        session: SessionId,
        tx: TxId,
        program_index: usize,
        begin: Event,
    },
}

// ----------------------------------------------------------------------
// Mutation observers: identity, generation and the delta log
// ----------------------------------------------------------------------

/// Source of fresh history identities (see [`History::uid`]).
static NEXT_HISTORY_UID: AtomicU64 = AtomicU64::new(1);

/// Number of mutations retained by the delta log. Observers whose sync
/// generation has been trimmed out of the window fall back to a full
/// rebuild, so the capacity only bounds how far behind an observer may lag
/// while still syncing incrementally (hot loops stay within a handful of
/// mutations). An explorer keeps one history for its whole run, so its
/// window is always full and the capacity is also the log's standing
/// memory. On the benchmark's exploration workloads this window takes
/// exactly as many full rebuilds as one twice as large.
pub const DELTA_LOG_CAPACITY: usize = 2048;

/// Structural summary of an appended or popped event, carried by
/// [`HistoryDelta`] so observers can replay mutations without consulting
/// the history (whose state has moved on by the time they sync). Written
/// values are omitted: no consistency axiom inspects them.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DeltaEventInfo {
    /// A read of the variable (its wr edge, if any, travels separately as
    /// [`HistoryDelta::SetWr`]).
    Read(Var),
    /// A write to the variable.
    Write(Var),
    /// A commit event.
    Commit,
    /// An abort event.
    Abort,
}

impl DeltaEventInfo {
    fn of(kind: &EventKind) -> Option<DeltaEventInfo> {
        match kind {
            EventKind::Read(x) => Some(DeltaEventInfo::Read(*x)),
            EventKind::Write(x, _) => Some(DeltaEventInfo::Write(*x)),
            EventKind::Commit => Some(DeltaEventInfo::Commit),
            EventKind::Abort => Some(DeltaEventInfo::Abort),
            EventKind::Begin => None,
        }
    }
}

/// One observed mutation of a [`History`], as recorded in the drainable
/// delta log (see [`History::deltas_since`]). Each primitive mutator emits
/// exactly one delta; a [`History::rollback`] emits the *inverse* deltas of
/// the operations it undoes, so the log is always a faithful chronological
/// account of the history's evolution. Every delta is self-contained:
/// observers never need to query the history for an entity that a later
/// delta in the same window may have removed again.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HistoryDelta {
    /// A transaction began (its log holds only the begin event).
    Begin {
        /// Session the transaction was appended to.
        session: SessionId,
        /// Identifier of the new transaction.
        tx: TxId,
    },
    /// A `Begin` was rolled back (the transaction is gone again; by journal
    /// LIFO ordering it was the most recently begun live transaction).
    UndoBegin {
        /// Session the transaction was removed from.
        session: SessionId,
        /// Identifier of the removed transaction.
        tx: TxId,
    },
    /// An event was appended to the (pending) transaction `tx`.
    Append {
        /// Owning transaction.
        tx: TxId,
        /// Identifier of the appended event.
        event: EventId,
        /// Structural summary of the event.
        info: DeltaEventInfo,
        /// Program-order position of the event within the transaction log.
        po: u32,
    },
    /// The po-last event of `tx` was popped again.
    Pop {
        /// Owning transaction.
        tx: TxId,
        /// Identifier of the popped event.
        event: EventId,
        /// Structural summary of the event.
        info: DeltaEventInfo,
        /// Program-order position the event had within the transaction log.
        po: u32,
    },
    /// The read acquired a wr dependency on `writer` (it had none before; a
    /// replacement is logged as an `UnsetWr` followed by a `SetWr`).
    SetWr {
        /// The read event.
        read: EventId,
        /// Transaction owning the read.
        reader: TxId,
        /// Transaction the read now reads from.
        writer: TxId,
        /// Variable being read.
        var: Var,
        /// Program-order position of the read within its transaction log.
        po: u32,
    },
    /// The read's wr dependency on `writer` was removed.
    UnsetWr {
        /// The read event.
        read: EventId,
        /// Transaction owning the read.
        reader: TxId,
        /// Transaction the read used to read from.
        writer: TxId,
        /// Variable being read.
        var: Var,
        /// Program-order position of the read within its transaction log.
        po: u32,
    },
}

/// A history `⟨T, so, wr⟩` (Definition 2.1).
#[derive(Debug)]
pub struct History {
    /// Initial values of global variables, written by the implicit `init`
    /// transaction, sorted by variable. Variables absent from the list
    /// have value `Value::Int(0)`.
    init_values: Vec<(Var, Value)>,
    /// Transaction-log arena, in allocation order.
    logs: Vec<TransactionLog>,
    /// `TxId.0 ↦` index into `logs`.
    tx_slot: IdMap,
    /// `TxId.0 ↦` position of the transaction within its session.
    tx_sidx: IdMap,
    /// `SessionId.0 ↦` the session's transaction sequence (session order).
    sessions: Vec<Vec<TxId>>,
    /// Write-read relation: `EventId.0 ↦` writer `TxId.0`.
    wr: IdMap,
    /// Reverse index: `EventId.0 ↦` owning `TxId.0` (excludes `init`).
    owner: IdMap,
    /// Number of pending (incomplete) transactions.
    pending: u32,
    /// Largest transaction id ever used in this branch (fresh-id source).
    max_tx_id: u32,
    /// Largest event id ever used in this branch (fresh-id source).
    max_event_id: u32,
    /// Rolling structural hash, updated on every mutation.
    hash: (u64, u64),
    /// Undo journal; only recording while a checkpoint is outstanding.
    journal: Vec<JournalOp>,
    /// Number of outstanding checkpoints.
    journal_depth: u32,
    /// Identity of this history instance (fresh per `new`/`clone`), used by
    /// observers to detect that their sync generation belongs to a
    /// different object.
    uid: u64,
    /// Generation of the oldest delta retained in `deltas`.
    delta_base: u64,
    /// Ring of the most recent mutations (capacity
    /// [`DELTA_LOG_CAPACITY`]); `generation()` = `delta_base + len`.
    deltas: VecDeque<HistoryDelta>,
}

// ----------------------------------------------------------------------
// Rolling-hash helpers
// ----------------------------------------------------------------------

/// Seed of the rolling structural hash. Nonzero so that the common empty
/// history never aliases all-zero slot sentinels in downstream tables
/// (e.g. the consistency engines' direct-mapped memo).
const HASH_SEED: (u64, u64) = (0x9e37_79b9_7f4a_7c15, 0x2545_f491_4f6c_dd1d);

/// Finalising 64-bit mixer (splitmix64).
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Absorbs one word into a running payload hash.
#[inline]
fn fold(h: u64, v: u64) -> u64 {
    mix(h ^ v.wrapping_mul(0xc2b2_ae3d_27d4_eb4f))
}

/// Position key of an event: session, index of its transaction within the
/// session, and program-order position. These coordinates are fixed at
/// push time and never change while the event is live, which is what makes
/// the XOR-composed rolling hash sound under push/pop/set/unset.
#[inline]
fn pos_key(session: u32, sidx: u32, po: u32) -> u64 {
    mix(((session as u64) << 42) ^ ((sidx as u64) << 21) ^ po as u64)
}

/// Canonical writer coordinate used by wr contributions.
#[inline]
fn writer_coord(session: u32, sidx: u32) -> u64 {
    ((session as u64) << 32) | sidx as u64
}

/// 128-bit contribution of a finished payload hash.
#[inline]
fn contrib(p: u64) -> (u64, u64) {
    (
        mix(p ^ 0x243f_6a88_85a3_08d3),
        mix(p ^ 0x1319_8a2e_0370_7344),
    )
}

/// Payload hash of an event (kind, variable, value) at a position key.
fn event_payload(key: u64, kind: &EventKind) -> u64 {
    let mut p = fold(key, 0x5eed);
    match kind {
        EventKind::Begin => p = fold(p, 0),
        EventKind::Commit => p = fold(p, 1),
        EventKind::Abort => p = fold(p, 2),
        EventKind::Write(x, v) => {
            p = fold(p, 3);
            p = fold(p, x.0 as u64);
            match v {
                Value::Int(i) => {
                    p = fold(p, 0);
                    p = fold(p, *i as u64);
                }
                Value::Set(s) => {
                    p = fold(p, 1);
                    p = fold(p, s.len() as u64);
                    for id in s {
                        p = fold(p, *id as u64);
                    }
                }
            }
        }
        EventKind::Read(x) => {
            p = fold(p, 4);
            p = fold(p, x.0 as u64);
        }
    }
    p
}

/// Payload hash of a wr edge at the read's position key.
#[inline]
fn wr_payload(key: u64, coord: u64) -> u64 {
    fold(fold(key, 0x77), coord)
}

#[inline]
fn xor_into(hash: &mut (u64, u64), c: (u64, u64)) {
    hash.0 ^= c.0;
    hash.1 ^= c.1;
}

impl History {
    /// Creates an empty history whose initial transaction writes the given
    /// initial values. Variables not listed default to `0`; a variable
    /// listed several times keeps its last value (map semantics).
    pub fn new<I: IntoIterator<Item = (Var, Value)>>(init_values: I) -> Self {
        let mut init: Vec<(Var, Value)> = Vec::new();
        for (x, v) in init_values {
            match init.binary_search_by_key(&x, |(y, _)| *y) {
                Ok(i) => init[i].1 = v,
                Err(i) => init.insert(i, (x, v)),
            }
        }
        History {
            init_values: init,
            logs: Vec::new(),
            tx_slot: IdMap::default(),
            tx_sidx: IdMap::default(),
            sessions: Vec::new(),
            wr: IdMap::default(),
            owner: IdMap::default(),
            pending: 0,
            max_tx_id: 0,
            max_event_id: 0,
            hash: HASH_SEED,
            journal: Vec::new(),
            journal_depth: 0,
            uid: NEXT_HISTORY_UID.fetch_add(1, Ordering::Relaxed),
            delta_base: 0,
            deltas: VecDeque::new(),
        }
    }

    /// The initial value of a global variable (default `0`).
    pub fn init_value(&self, x: Var) -> Value {
        self.init_values
            .iter()
            .find(|(y, _)| *y == x)
            .map(|(_, v)| v.clone())
            .unwrap_or_default()
    }

    /// Sets the initial value written by the `init` transaction for `x`.
    pub fn set_init_value(&mut self, x: Var, v: Value) {
        match self.init_values.binary_search_by_key(&x, |(y, _)| *y) {
            Ok(i) => self.init_values[i].1 = v,
            Err(i) => self.init_values.insert(i, (x, v)),
        }
    }

    /// All initial values explicitly recorded, sorted by variable.
    pub fn init_values(&self) -> &[(Var, Value)] {
        &self.init_values
    }

    // ------------------------------------------------------------------
    // Structure: transactions, sessions, events
    // ------------------------------------------------------------------

    /// Identifiers of all non-initial transactions, in ascending id order.
    pub fn tx_ids(&self) -> impl Iterator<Item = TxId> + '_ {
        self.tx_slot.iter().map(|(id, _)| TxId(id))
    }

    /// All non-initial transaction logs, in ascending [`TxId`] order.
    pub fn transactions(&self) -> impl Iterator<Item = &TransactionLog> {
        self.tx_slot
            .iter()
            .map(|(_, slot)| &self.logs[slot as usize])
    }

    /// Number of non-initial transactions.
    pub fn num_transactions(&self) -> usize {
        self.tx_slot.len()
    }

    /// Total number of events (excluding the implicit init writes).
    pub fn num_events(&self) -> usize {
        self.owner.len()
    }

    /// Largest transaction id used so far (0 when none); fresh ids for this
    /// exploration branch are allocated as `max_tx_id() + 1`.
    pub fn max_tx_id(&self) -> u32 {
        self.max_tx_id
    }

    /// Largest event id used so far (0 when none); fresh ids for this
    /// exploration branch are allocated as `max_event_id() + 1`.
    pub fn max_event_id(&self) -> u32 {
        self.max_event_id
    }

    /// The transaction log with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is [`TxId::INIT`] or unknown.
    pub fn tx(&self, id: TxId) -> &TransactionLog {
        self.get_tx(id)
            .unwrap_or_else(|| panic!("unknown transaction {id}"))
    }

    /// The transaction log with the given id, if it exists (never for init).
    #[inline]
    pub fn get_tx(&self, id: TxId) -> Option<&TransactionLog> {
        self.tx_slot.get(id.0).map(|slot| &self.logs[slot as usize])
    }

    /// Dense arena index of a transaction (its position in allocation
    /// order), used by the checking engines for direct-indexed scratch
    /// tables.
    #[inline]
    pub fn tx_index(&self, id: TxId) -> Option<usize> {
        self.tx_slot.get(id.0).map(|slot| slot as usize)
    }

    /// Position of a transaction within its session's order.
    #[inline]
    pub fn tx_session_index(&self, id: TxId) -> Option<usize> {
        self.tx_sidx.get(id.0).map(|i| i as usize)
    }

    /// Whether the history contains the given transaction (init always counts).
    pub fn contains_tx(&self, id: TxId) -> bool {
        id.is_init() || self.tx_slot.get(id.0).is_some()
    }

    /// Session order: for each non-empty session (ascending id), its
    /// transaction sequence.
    pub fn sessions(&self) -> impl Iterator<Item = (SessionId, &[TxId])> {
        self.sessions
            .iter()
            .enumerate()
            .filter(|(_, txs)| !txs.is_empty())
            .map(|(s, txs)| (SessionId(s as u32), txs.as_slice()))
    }

    /// Transactions of a session in session order.
    pub fn session_txs(&self, s: SessionId) -> &[TxId] {
        self.sessions
            .get(s.0 as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The last transaction of a session, if the session started any.
    pub fn last_tx_of_session(&self, s: SessionId) -> Option<TxId> {
        self.sessions
            .get(s.0 as usize)
            .and_then(|v| v.last().copied())
    }

    /// Owning transaction of an event.
    #[inline]
    pub fn tx_of_event(&self, e: EventId) -> Option<TxId> {
        self.owner.get(e.0).map(TxId)
    }

    /// The event with the given identifier.
    pub fn event(&self, e: EventId) -> Option<&Event> {
        let tx = self.tx_of_event(e)?;
        self.tx(tx).event(e)
    }

    /// Iterates over all events of the history with their owning
    /// transaction, in ascending transaction-id order.
    pub fn events(&self) -> impl Iterator<Item = (TxId, &Event)> {
        self.transactions()
            .flat_map(|t| t.events.iter().map(move |e| (t.id, e)))
    }

    /// Number of pending transactions.
    pub fn num_pending(&self) -> usize {
        self.pending as usize
    }

    /// Committed transactions, *excluding* the implicit init transaction.
    pub fn committed_txs(&self) -> Vec<TxId> {
        self.transactions()
            .filter(|t| t.is_committed())
            .map(|t| t.id)
            .collect()
    }

    /// Whether a transaction is committed. The init transaction is committed.
    pub fn is_committed(&self, t: TxId) -> bool {
        t.is_init() || self.get_tx(t).is_some_and(|t| t.is_committed())
    }

    /// Whether a transaction is complete (committed or aborted).
    pub fn is_complete_tx(&self, t: TxId) -> bool {
        t.is_init() || self.get_tx(t).is_some_and(|t| t.is_complete())
    }

    // ------------------------------------------------------------------
    // Checkpoint / rollback
    // ------------------------------------------------------------------

    /// Opens a checkpoint: subsequent mutations are recorded in the undo
    /// journal until the matching [`rollback`](History::rollback). While no
    /// checkpoint is outstanding the journal is not written, so permanent
    /// extensions pay nothing.
    pub fn checkpoint(&mut self) -> HistoryMark {
        self.journal_depth += 1;
        HistoryMark {
            journal_len: self.journal.len(),
        }
    }

    /// Undoes every mutation recorded since `mark`, restoring the history
    /// (structure, relations, counters and rolling hash) to its state at
    /// [`checkpoint`](History::checkpoint) time.
    ///
    /// # Panics
    ///
    /// Panics if no checkpoint is outstanding or the mark is stale (taken
    /// after mutations that were already rolled back).
    pub fn rollback(&mut self, mark: HistoryMark) {
        assert!(self.journal_depth > 0, "rollback without checkpoint");
        assert!(mark.journal_len <= self.journal.len(), "stale history mark");
        while self.journal.len() > mark.journal_len {
            let op = self.journal.pop().expect("journal entry");
            match op {
                JournalOp::Begin {
                    session,
                    prev_max_event,
                    prev_max_tx,
                } => {
                    let tx = self.undo_begin(session);
                    self.max_event_id = prev_max_event;
                    self.max_tx_id = prev_max_tx;
                    self.emit(HistoryDelta::UndoBegin { session, tx });
                }
                JournalOp::Append {
                    session,
                    prev_max_event,
                } => {
                    let (tx, po, event) = self.do_pop(session);
                    self.max_event_id = prev_max_event;
                    if let Some(info) = DeltaEventInfo::of(&event.kind) {
                        self.emit(HistoryDelta::Pop {
                            tx,
                            event: event.id,
                            info,
                            po,
                        });
                    }
                }
                JournalOp::Pop { session, event } => {
                    let info = DeltaEventInfo::of(&event.kind);
                    let id = event.id;
                    let (tx, po) = self.do_append(session, event);
                    if let Some(info) = info {
                        self.emit(HistoryDelta::Append {
                            tx,
                            event: id,
                            info,
                            po,
                        });
                    }
                }
                JournalOp::Retract {
                    session,
                    tx,
                    program_index,
                    begin,
                } => {
                    self.do_begin(session, tx, program_index, begin);
                    self.emit(HistoryDelta::Begin { session, tx });
                }
                JournalOp::SetWr { read, prev } => {
                    let (reader, var, po, key) = self.read_coords_key(read);
                    if let Some(cur) = self.wr.get(read.0) {
                        let c = contrib(wr_payload(key, self.tx_coord(TxId(cur))));
                        xor_into(&mut self.hash, c);
                        self.wr.clear(read.0);
                        self.emit(HistoryDelta::UnsetWr {
                            read,
                            reader,
                            writer: TxId(cur),
                            var,
                            po,
                        });
                    }
                    if prev != NONE {
                        self.wr.set(read.0, prev);
                        let c = contrib(wr_payload(key, self.tx_coord(TxId(prev))));
                        xor_into(&mut self.hash, c);
                        self.emit(HistoryDelta::SetWr {
                            read,
                            reader,
                            writer: TxId(prev),
                            var,
                            po,
                        });
                    }
                }
            }
        }
        self.journal_depth -= 1;
    }

    /// Whether a checkpoint is currently outstanding (journal armed).
    pub fn in_checkpoint(&self) -> bool {
        self.journal_depth > 0
    }

    /// A plain copy of the history as it was when `mark` was taken, while
    /// this history moves on from it: the arena is copied together with
    /// the journal written since the mark, and the copy is rolled back.
    /// Like [`Clone`], the copy has a fresh [`uid`](History::uid) and no
    /// outstanding checkpoint. An explorer uses it to hand a node it has
    /// descended below to another worker.
    ///
    /// # Panics
    ///
    /// Panics if the mark is stale (taken after mutations that were
    /// already rolled back).
    pub fn clone_at(&self, mark: HistoryMark) -> History {
        assert!(mark.journal_len <= self.journal.len(), "stale history mark");
        let mut copy = self.clone();
        copy.journal = self.journal[mark.journal_len..].to_vec();
        copy.journal_depth = 1;
        copy.rollback(HistoryMark { journal_len: 0 });
        // Drop the spent journal, and the inverse mutations, which are
        // not news to any observer of a fresh uid.
        copy.journal = Vec::new();
        copy.deltas = VecDeque::new();
        copy.delta_base = 0;
        copy
    }

    #[inline]
    fn record(&mut self, op: JournalOp) {
        if self.journal_depth > 0 {
            self.journal.push(op);
        }
    }

    // ------------------------------------------------------------------
    // Mutation observation (generation counter + delta log)
    // ------------------------------------------------------------------

    /// Identity of this history instance. Fresh for every `new` and every
    /// `clone`: two histories never share a uid, so an observer that
    /// remembers `(uid, generation)` can tell a stale sync point from a
    /// different history altogether.
    #[inline]
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Generation counter: incremented once per observed mutation
    /// (including the inverse mutations performed by
    /// [`rollback`](History::rollback)). `generation() == g` from a
    /// previous sync means the history is unchanged since then.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.delta_base + self.deltas.len() as u64
    }

    /// The mutations observed since generation `gen`, oldest first, or
    /// `None` when the window is gone — `gen` predates the retained
    /// [`DELTA_LOG_CAPACITY`] suffix or lies in the future (a sync point
    /// from another history). Observers replay the returned deltas to
    /// catch up and fall back to a full resync on `None`.
    pub fn deltas_since(&self, gen: u64) -> Option<impl Iterator<Item = &HistoryDelta> + '_> {
        if gen < self.delta_base || gen > self.generation() {
            return None;
        }
        Some(self.deltas.range((gen - self.delta_base) as usize..))
    }

    #[inline]
    fn emit(&mut self, delta: HistoryDelta) {
        if self.deltas.len() == DELTA_LOG_CAPACITY {
            self.deltas.pop_front();
            self.delta_base += 1;
        }
        self.deltas.push_back(delta);
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Starts a new transaction in session `s` with the given begin event,
    /// appending it to the session order.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already used, is the init id, or the event is not a
    /// begin event.
    pub fn begin_transaction(
        &mut self,
        s: SessionId,
        id: TxId,
        program_index: usize,
        begin: Event,
    ) {
        assert!(!id.is_init(), "cannot begin the init transaction");
        assert!(!self.contains_tx(id), "transaction {id} already exists");
        assert!(begin.kind.is_begin(), "first event must be begin");
        self.record(JournalOp::Begin {
            session: s,
            prev_max_event: self.max_event_id,
            prev_max_tx: self.max_tx_id,
        });
        self.do_begin(s, id, program_index, begin);
        self.emit(HistoryDelta::Begin { session: s, tx: id });
    }

    fn do_begin(&mut self, s: SessionId, id: TxId, program_index: usize, begin: Event) {
        if s.0 as usize >= self.sessions.len() {
            self.sessions.resize_with(s.0 as usize + 1, Vec::new);
        }
        let sidx = self.sessions[s.0 as usize].len() as u32;
        let c = contrib(event_payload(pos_key(s.0, sidx, 0), &begin.kind));
        xor_into(&mut self.hash, c);
        self.owner.set(begin.id.0, id.0);
        self.max_event_id = self.max_event_id.max(begin.id.0);
        self.max_tx_id = self.max_tx_id.max(id.0);
        // `begin_transaction` always seeds with a begin event; rebuilds
        // (`remove_events`) may seed a truncated log with any first kept
        // event, including one that completes the transaction outright.
        let complete = matches!(begin.kind, EventKind::Commit | EventKind::Abort);
        let mut log = TransactionLog::new(id, s, program_index);
        log.push(begin);
        self.tx_slot.set(id.0, self.logs.len() as u32);
        self.tx_sidx.set(id.0, sidx);
        self.logs.push(log);
        self.sessions[s.0 as usize].push(id);
        if !complete {
            self.pending += 1;
        }
    }

    /// Undoes the most recent live `begin_transaction` of `session` (its
    /// log holds only the begin event by journal-ordering), returning the
    /// removed transaction's id.
    fn undo_begin(&mut self, s: SessionId) -> TxId {
        let id = self.sessions[s.0 as usize]
            .pop()
            .expect("session has a transaction to undo");
        let log = self.detach_log(id);
        debug_assert_eq!(log.events.len(), 1, "begin undone with live events");
        let begin = &log.events[0];
        let sidx = self.sessions[s.0 as usize].len() as u32;
        let c = contrib(event_payload(pos_key(s.0, sidx, 0), &begin.kind));
        xor_into(&mut self.hash, c);
        self.owner.clear(begin.id.0);
        self.pending -= 1;
        id
    }

    /// Removes a transaction's log from the arena (swap-remove, fixing the
    /// moved log's slot). Arena slot order is a representation detail:
    /// every public traversal goes through `tx_slot` by id.
    fn detach_log(&mut self, id: TxId) -> TransactionLog {
        let slot = self.tx_slot.clear(id.0).expect("live transaction") as usize;
        self.tx_sidx.clear(id.0);
        let log = self.logs.swap_remove(slot);
        if slot < self.logs.len() {
            let moved = self.logs[slot].id;
            self.tx_slot.set(moved.0, slot as u32);
        }
        log
    }

    /// Removes the last transaction of session `s`, which must be a
    /// *begin-only* pending transaction (just its begin event) — the
    /// journaled counterpart of undoing a [`begin_transaction`] that
    /// predates the current checkpoint. The in-place trial extensions of
    /// the exploration use this to excise whole doomed transactions
    /// without copying the history; [`rollback`](History::rollback)
    /// re-begins the transaction.
    ///
    /// # Panics
    ///
    /// Panics if the session has no transaction or its last transaction
    /// holds more than its begin event (pop those first).
    ///
    /// [`begin_transaction`]: History::begin_transaction
    pub fn retract_begin(&mut self, s: SessionId) {
        let tx = self
            .last_tx_of_session(s)
            .unwrap_or_else(|| panic!("session {s} has no transaction"));
        assert_eq!(
            self.tx(tx).events.len(),
            1,
            "retracted transaction must be begin-only"
        );
        self.sessions[s.0 as usize].pop();
        let sidx = self.sessions[s.0 as usize].len() as u32;
        let mut log = self.detach_log(tx);
        let begin = log.events.pop().expect("begin event");
        assert!(begin.kind.is_begin(), "first event must be begin");
        let c = contrib(event_payload(pos_key(s.0, sidx, 0), &begin.kind));
        xor_into(&mut self.hash, c);
        self.owner.clear(begin.id.0);
        self.pending -= 1;
        self.record(JournalOp::Retract {
            session: s,
            tx,
            program_index: log.program_index,
            begin,
        });
        self.emit(HistoryDelta::UndoBegin { session: s, tx });
    }

    /// Appends an event to the last (pending) transaction of session `s`
    /// and returns the owning transaction id.
    ///
    /// # Panics
    ///
    /// Panics if the session has no pending last transaction.
    pub fn append_event(&mut self, s: SessionId, event: Event) -> TxId {
        let tx = self
            .last_tx_of_session(s)
            .unwrap_or_else(|| panic!("session {s} has no transaction"));
        assert!(
            self.tx(tx).is_pending(),
            "last transaction of {s} is complete"
        );
        self.record(JournalOp::Append {
            session: s,
            prev_max_event: self.max_event_id,
        });
        let info = DeltaEventInfo::of(&event.kind);
        let id = event.id;
        let (_, po) = self.do_append(s, event);
        if let Some(info) = info {
            self.emit(HistoryDelta::Append {
                tx,
                event: id,
                info,
                po,
            });
        }
        tx
    }

    fn do_append(&mut self, s: SessionId, event: Event) -> (TxId, u32) {
        let tx = self.sessions[s.0 as usize]
            .last()
            .copied()
            .expect("session has a transaction");
        let sidx = self.tx_sidx.get(tx.0).expect("tx session index");
        let slot = self.tx_slot.get(tx.0).expect("tx slot") as usize;
        let po = self.logs[slot].events.len() as u32;
        let c = contrib(event_payload(pos_key(s.0, sidx, po), &event.kind));
        xor_into(&mut self.hash, c);
        if matches!(event.kind, EventKind::Commit | EventKind::Abort) {
            self.pending -= 1;
        }
        self.owner.set(event.id.0, tx.0);
        self.max_event_id = self.max_event_id.max(event.id.0);
        self.logs[slot].events.push(event);
        (tx, po)
    }

    /// Removes and returns the last event of the last transaction of
    /// session `s` — the exact inverse of [`append_event`](History::append_event).
    ///
    /// # Panics
    ///
    /// Panics if the event is the transaction's begin (undo the begin via
    /// [`rollback`](History::rollback) instead) or if it is a read whose wr
    /// dependency has not been [`unset_wr`](History::unset_wr) first.
    pub fn pop_event(&mut self, s: SessionId) -> Event {
        let tx = self
            .last_tx_of_session(s)
            .unwrap_or_else(|| panic!("session {s} has no transaction"));
        let len = self.tx(tx).events.len();
        assert!(len > 1, "cannot pop a transaction's begin event");
        let (tx, po, event) = self.do_pop(s);
        self.record(JournalOp::Pop {
            session: s,
            event: event.clone(),
        });
        if let Some(info) = DeltaEventInfo::of(&event.kind) {
            self.emit(HistoryDelta::Pop {
                tx,
                event: event.id,
                info,
                po,
            });
        }
        event
    }

    fn do_pop(&mut self, s: SessionId) -> (TxId, u32, Event) {
        let tx = self.sessions[s.0 as usize]
            .last()
            .copied()
            .expect("session has a transaction");
        let sidx = self.tx_sidx.get(tx.0).expect("tx session index");
        let slot = self.tx_slot.get(tx.0).expect("tx slot") as usize;
        let event = self.logs[slot].events.pop().expect("event to pop");
        assert!(
            self.wr.get(event.id.0).is_none(),
            "popped read {} still has a wr dependency",
            event.id
        );
        let po = self.logs[slot].events.len() as u32;
        let c = contrib(event_payload(pos_key(s.0, sidx, po), &event.kind));
        xor_into(&mut self.hash, c);
        if matches!(event.kind, EventKind::Commit | EventKind::Abort) {
            self.pending += 1;
        }
        self.owner.clear(event.id.0);
        (tx, po, event)
    }

    /// Adds (or replaces) a write-read dependency `wr(writer, read)`.
    ///
    /// # Panics
    ///
    /// Panics if the read event is unknown, not a read, or the writer does
    /// not write the read's variable.
    pub fn set_wr(&mut self, read: EventId, writer: TxId) {
        let e = self.event(read).expect("read event must be in the history");
        let x = match &e.kind {
            EventKind::Read(x) => *x,
            other => panic!("wr target must be a read event, got {other}"),
        };
        assert!(
            self.writes_var(writer, x),
            "wr source {writer} does not write {x}"
        );
        let (reader, _, po, key) = self.read_coords_key(read);
        let prev = self.set_wr_keyed(read, writer, key);
        if let Some(prev) = prev {
            self.emit(HistoryDelta::UnsetWr {
                read,
                reader,
                writer: TxId(prev),
                var: x,
                po,
            });
        }
        self.emit(HistoryDelta::SetWr {
            read,
            reader,
            writer,
            var: x,
            po,
        });
    }

    fn do_set_wr(&mut self, read: EventId, writer: TxId) -> Option<u32> {
        let key = self.event_pos_key(read);
        self.set_wr_keyed(read, writer, key)
    }

    fn set_wr_keyed(&mut self, read: EventId, writer: TxId, key: u64) -> Option<u32> {
        let prev = self.wr.set(read.0, writer.0);
        if let Some(prev) = prev {
            let c = contrib(wr_payload(key, self.tx_coord(TxId(prev))));
            xor_into(&mut self.hash, c);
        }
        let c = contrib(wr_payload(key, self.tx_coord(writer)));
        xor_into(&mut self.hash, c);
        self.record(JournalOp::SetWr {
            read,
            prev: prev.unwrap_or(NONE),
        });
        prev
    }

    /// Removes the wr dependency of a read, if any — the inverse of
    /// [`set_wr`](History::set_wr). `ValidWrites`-style candidate trials
    /// must call this between candidates so that the next consistency check
    /// never sees the previous candidate's edge.
    pub fn unset_wr(&mut self, read: EventId) {
        if let Some(prev) = self.wr.clear(read.0) {
            let (reader, var, po, key) = self.read_coords_key(read);
            let c = contrib(wr_payload(key, self.tx_coord(TxId(prev))));
            xor_into(&mut self.hash, c);
            self.record(JournalOp::SetWr { read, prev });
            self.emit(HistoryDelta::UnsetWr {
                read,
                reader,
                writer: TxId(prev),
                var,
                po,
            });
        }
    }

    /// Removes the wr dependency of a read, if any (alias of
    /// [`unset_wr`](History::unset_wr), kept for the pre-journal API).
    pub fn clear_wr(&mut self, read: EventId) {
        self.unset_wr(read);
    }

    /// Resolves a read's coordinates once for a candidate loop that will
    /// set and unset its wr dependency many times (`ValidWrites`,
    /// `readLatest`, the DFS read branch). The returned handle is valid
    /// while the read stays live at the same position — i.e. until it is
    /// popped or its transaction retracted.
    ///
    /// # Panics
    ///
    /// Panics if the event is unknown or not a read.
    pub fn prepare_wr_trial(&self, read: EventId) -> WrTrial {
        let (reader, var, po, key) = self.read_coords_key(read);
        WrTrial {
            read,
            reader,
            var,
            po,
            key,
        }
    }

    /// Sets `wr(writer, read)` through a prepared handle — the fast path of
    /// [`set_wr`](History::set_wr), skipping the per-call coordinate
    /// resolution. The read must currently have no wr dependency.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the writer does not write the read's
    /// variable or the read already has a dependency.
    pub fn set_wr_trial(&mut self, trial: &WrTrial, writer: TxId) {
        debug_assert!(
            self.writes_var(writer, trial.var),
            "wr source {writer} does not write {}",
            trial.var
        );
        let prev = self.set_wr_keyed(trial.read, writer, trial.key);
        debug_assert!(prev.is_none(), "wr trial over an existing dependency");
        self.emit(HistoryDelta::SetWr {
            read: trial.read,
            reader: trial.reader,
            writer,
            var: trial.var,
            po: trial.po,
        });
    }

    /// Removes the wr dependency set through [`set_wr_trial`](History::set_wr_trial) — the fast
    /// path of [`unset_wr`](History::unset_wr).
    pub fn unset_wr_trial(&mut self, trial: &WrTrial) {
        if let Some(prev) = self.wr.clear(trial.read.0) {
            let c = contrib(wr_payload(trial.key, self.tx_coord(TxId(prev))));
            xor_into(&mut self.hash, c);
            self.record(JournalOp::SetWr {
                read: trial.read,
                prev,
            });
            self.emit(HistoryDelta::UnsetWr {
                read: trial.read,
                reader: trial.reader,
                writer: TxId(prev),
                var: trial.var,
                po: trial.po,
            });
        }
    }

    /// Owner, variable, program-order position and hash position key of a
    /// live read event, resolved in one pass over its transaction log (the
    /// wr mutators need all four).
    fn read_coords_key(&self, read: EventId) -> (TxId, Var, u32, u64) {
        let tx = self.tx_of_event(read).expect("event has an owner");
        let log = self.tx(tx);
        let po = log.po_position(read).expect("event in its log") as u32;
        let var = log.events[po as usize]
            .var()
            .expect("wr reads have a variable");
        let sidx = self.tx_sidx.get(tx.0).expect("tx session index");
        (tx, var, po, pos_key(log.session.0, sidx, po))
    }

    /// Position key of a live event (for hash contributions).
    fn event_pos_key(&self, e: EventId) -> u64 {
        let tx = self.tx_of_event(e).expect("event has an owner");
        let log = self.tx(tx);
        let po = log.po_position(e).expect("event in its log") as u32;
        let sidx = self.tx_sidx.get(tx.0).expect("tx session index");
        pos_key(log.session.0, sidx, po)
    }

    /// Canonical `(session, index)` coordinate of a transaction for hash
    /// contributions (`u64::MAX` for init).
    fn tx_coord(&self, t: TxId) -> u64 {
        if t.is_init() {
            u64::MAX
        } else {
            let log = self.tx(t);
            let sidx = self.tx_sidx.get(t.0).expect("tx session index");
            writer_coord(log.session.0, sidx)
        }
    }

    // ------------------------------------------------------------------
    // Write-read relation
    // ------------------------------------------------------------------

    /// The transaction a read event reads from, if it has a wr dependency.
    #[inline]
    pub fn wr_of(&self, read: EventId) -> Option<TxId> {
        self.wr.get(read.0).map(TxId)
    }

    /// The write-read relation as `(read event, writer transaction)` pairs,
    /// in ascending event-id order.
    pub fn wr(&self) -> impl Iterator<Item = (EventId, TxId)> + '_ {
        self.wr.iter().map(|(e, w)| (EventId(e), TxId(w)))
    }

    /// Number of wr edges (external reads with a dependency).
    pub fn wr_count(&self) -> usize {
        self.wr.len()
    }

    /// Whether `(a, b)` is in the transaction-level write-read relation:
    /// some read of `b` reads from `a`.
    pub fn wr_tx_edge(&self, a: TxId, b: TxId) -> bool {
        self.wr()
            .any(|(r, w)| w == a && self.tx_of_event(r) == Some(b))
    }

    /// All transaction-level write-read edges `(writer, reader)`.
    pub fn wr_tx_edges(&self) -> BTreeSet<(TxId, TxId)> {
        self.wr()
            .filter_map(|(r, w)| Some((w, self.tx_of_event(r)?)))
            .filter(|(w, r)| w != r)
            .collect()
    }

    /// External reads together with their variable, reader and writer:
    /// `(reader, read event, variable, writer)`.
    pub fn reads_from(&self) -> Vec<(TxId, EventId, Var, TxId)> {
        let mut out = Vec::new();
        for (r, w) in self.wr() {
            let reader = self.tx_of_event(r).expect("read owner");
            let x = self
                .event(r)
                .and_then(Event::var)
                .expect("read has a variable");
            out.push((reader, r, x, w));
        }
        out
    }

    // ------------------------------------------------------------------
    // Writers / read values
    // ------------------------------------------------------------------

    /// Whether transaction `t` writes variable `x` (visible writes). The
    /// init transaction writes every variable.
    pub fn writes_var(&self, t: TxId, x: Var) -> bool {
        if t.is_init() {
            return true;
        }
        self.get_tx(t).is_some_and(|t| t.writes_var(x))
    }

    /// The value of `t`'s visible write to `x`, if `t` writes `x`.
    pub fn visible_write_value(&self, t: TxId, x: Var) -> Option<Value> {
        if t.is_init() {
            return Some(self.init_value(x));
        }
        self.get_tx(t)?.visible_write_value(x).cloned()
    }

    /// All transactions (including `init` and pending ones, excluding
    /// aborted ones) that write variable `x`, in ascending id order.
    pub fn writers_of(&self, x: Var) -> Vec<TxId> {
        let mut out = vec![TxId::INIT];
        out.extend(
            self.transactions()
                .filter(|t| t.writes_var(x))
                .map(|t| t.id),
        );
        out
    }

    /// Committed transactions (including `init`) that write variable `x`,
    /// in ascending id order. These are the candidate sources of a wr
    /// dependency in the semantics.
    pub fn committed_writers_of(&self, x: Var) -> Vec<TxId> {
        let mut out = vec![TxId::INIT];
        out.extend(
            self.transactions()
                .filter(|t| t.is_committed() && t.writes_var(x))
                .map(|t| t.id),
        );
        out
    }

    /// The value returned by a read event: the last po-preceding write of
    /// the same transaction for internal reads, otherwise the visible write
    /// of the transaction designated by `wr`.
    pub fn read_value(&self, read: EventId) -> Option<Value> {
        let owner = self.tx_of_event(read)?;
        let log = self.get_tx(owner)?;
        let x = log.event(read)?.var()?;
        if let Some(v) = log.last_write_before(x, read) {
            return Some(v.clone());
        }
        let writer = self.wr_of(read)?;
        self.visible_write_value(writer, x)
    }

    // ------------------------------------------------------------------
    // Session order and causal order
    // ------------------------------------------------------------------

    /// Whether `(a, b)` is in the session order `so`: the init transaction
    /// precedes every other transaction, and transactions of the same
    /// session are ordered by their position.
    pub fn so_before(&self, a: TxId, b: TxId) -> bool {
        if a == b {
            return false;
        }
        if a.is_init() {
            return true;
        }
        if b.is_init() {
            return false;
        }
        let (ta, tb) = match (self.get_tx(a), self.get_tx(b)) {
            (Some(x), Some(y)) => (x, y),
            _ => return false,
        };
        if ta.session != tb.session {
            return false;
        }
        match (self.tx_sidx.get(a.0), self.tx_sidx.get(b.0)) {
            (Some(i), Some(j)) => i < j,
            _ => false,
        }
    }

    /// Whether `(a, b)` is in `so ∪ wr` (transaction level).
    pub fn so_or_wr(&self, a: TxId, b: TxId) -> bool {
        self.so_before(a, b) || self.wr_tx_edge(a, b)
    }

    /// The strict causal ancestors of `t`: every `t'` with
    /// `(t', t) ∈ (so ∪ wr)+`. One backward BFS; membership queries against
    /// the same pivot are then O(1), which is what the swap machinery uses
    /// (`ComputeReorderings`, `doomed_events` and `readLatest` all test many
    /// transactions against one pivot).
    pub fn causal_ancestors(&self, t: TxId) -> TxSet {
        let mut set = TxSet::with_capacity(self.max_tx_id.max(1));
        if t.is_init() {
            return set;
        }
        let mut queue: VecDeque<TxId> = VecDeque::new();
        let push_preds = |u: TxId, set: &mut TxSet, queue: &mut VecDeque<TxId>| {
            let Some(log) = self.get_tx(u) else { return };
            let sidx = self.tx_sidx.get(u.0).expect("tx session index") as usize;
            if sidx == 0 {
                set.insert(TxId::INIT);
            } else {
                let prev = self.sessions[log.session.0 as usize][sidx - 1];
                if set.insert(prev) {
                    queue.push_back(prev);
                }
            }
            for e in &log.events {
                if e.kind.is_read() {
                    if let Some(w) = self.wr_of(e.id) {
                        if w != u && set.insert(w) {
                            queue.push_back(w);
                        }
                    }
                }
            }
        };
        push_preds(t, &mut set, &mut queue);
        while let Some(u) = queue.pop_front() {
            push_preds(u, &mut set, &mut queue);
        }
        set
    }

    /// The strict causal descendants of `t`: every `t'` with
    /// `(t, t') ∈ (so ∪ wr)+` (one forward BFS, see
    /// [`causal_ancestors`](History::causal_ancestors)).
    pub fn causal_descendants(&self, t: TxId) -> TxSet {
        let mut set = TxSet::with_capacity(self.max_tx_id.max(1));
        // Reverse wr adjacency: writer slot ↦ readers.
        let mut readers: Vec<Vec<TxId>> = vec![Vec::new(); self.logs.len() + 1];
        for (r, w) in self.wr() {
            if let Some(reader) = self.tx_of_event(r) {
                if reader != w {
                    let slot = if w.is_init() {
                        self.logs.len()
                    } else {
                        self.tx_index(w).expect("writer slot")
                    };
                    readers[slot].push(reader);
                }
            }
        }
        let mut queue: VecDeque<TxId> = VecDeque::new();
        let push_succs = |u: TxId, set: &mut TxSet, queue: &mut VecDeque<TxId>| {
            if u.is_init() {
                for txs in &self.sessions {
                    if let Some(first) = txs.first() {
                        if set.insert(*first) {
                            queue.push_back(*first);
                        }
                    }
                }
                let rs = &readers[self.logs.len()];
                for r in rs {
                    if set.insert(*r) {
                        queue.push_back(*r);
                    }
                }
                return;
            }
            let Some(log) = self.get_tx(u) else { return };
            let sidx = self.tx_sidx.get(u.0).expect("tx session index") as usize;
            let session = &self.sessions[log.session.0 as usize];
            if sidx + 1 < session.len() {
                let next = session[sidx + 1];
                if set.insert(next) {
                    queue.push_back(next);
                }
            }
            for r in &readers[self.tx_index(u).expect("tx slot")] {
                if set.insert(*r) {
                    queue.push_back(*r);
                }
            }
        };
        push_succs(t, &mut set, &mut queue);
        while let Some(u) = queue.pop_front() {
            push_succs(u, &mut set, &mut queue);
        }
        set
    }

    /// Whether `(a, b)` is in the causal order `(so ∪ wr)+`.
    pub fn causally_before(&self, a: TxId, b: TxId) -> bool {
        if a == b {
            return false;
        }
        if a.is_init() {
            return !b.is_init();
        }
        if b.is_init() {
            return false;
        }
        self.causal_ancestors(b).contains(a)
    }

    /// Whether `(a, b)` is in `(so ∪ wr)*` (reflexive causal order).
    pub fn causally_before_eq(&self, a: TxId, b: TxId) -> bool {
        a == b || self.causally_before(a, b)
    }

    /// All causal predecessors of `t`: transactions `t'` with
    /// `(t', t) ∈ (so ∪ wr)+`. Always contains [`TxId::INIT`] for `t ≠ init`.
    pub fn causal_predecessors(&self, t: TxId) -> BTreeSet<TxId> {
        let mut preds = BTreeSet::new();
        if t.is_init() {
            return preds;
        }
        let set = self.causal_ancestors(t);
        if set.contains(TxId::INIT) {
            preds.insert(TxId::INIT);
        }
        for a in self.tx_ids() {
            if a != t && set.contains(a) {
                preds.insert(a);
            }
        }
        preds
    }

    /// Whether `t` is `(so ∪ wr)+`-maximal: no transaction is causally after it.
    pub fn is_causally_maximal(&self, t: TxId) -> bool {
        if t.is_init() {
            return self.num_transactions() == 0;
        }
        let desc = self.causal_descendants(t);
        !self
            .tx_ids()
            .any(|other| other != t && desc.contains(other))
    }

    // ------------------------------------------------------------------
    // Prefix construction (event removal)
    // ------------------------------------------------------------------

    /// Returns the history obtained by deleting the given events from its
    /// transaction logs (`h \ D` in §5.2). Transaction logs that become
    /// empty are removed altogether; wr dependencies whose read was removed
    /// are dropped. This is a single O(live-size) compact copy into a fresh
    /// arena.
    pub fn remove_events(&self, doomed: &BTreeSet<EventId>) -> History {
        let mut h = History::new(self.init_values.iter().cloned());
        for (_, txs) in self.sessions() {
            for t in txs {
                let log = self.tx(*t);
                let mut started = false;
                for e in &log.events {
                    if doomed.contains(&e.id) {
                        continue;
                    }
                    if !started {
                        h.do_begin(log.session, log.id, log.program_index, e.clone());
                        started = true;
                    } else {
                        h.do_append(log.session, e.clone());
                    }
                }
            }
        }
        for (r, w) in self.wr() {
            if h.tx_of_event(r).is_some() && h.contains_tx(w) {
                h.do_set_wr(r, w);
            }
        }
        h
    }

    // ------------------------------------------------------------------
    // Fingerprints (read-from equivalence)
    // ------------------------------------------------------------------

    /// A canonical, identifier-independent summary of the history used to
    /// compare histories up to read-from equivalence (same events per
    /// session/transaction and same `po`, `so`, `wr`).
    ///
    /// Transactions are identified by their `(session, index)` coordinates
    /// and variables by their order of first occurrence (scanning sessions,
    /// then transactions, then events), so the fingerprint is independent
    /// of both [`TxId`] allocation and [`crate::VarTable`] interning order.
    /// The latter makes fingerprints comparable across explorations that
    /// interned variables in different orders (e.g. parallel workers
    /// resolving dynamically indexed globals on different branches first).
    /// For histories generated from the same program this renaming is
    /// lossless: the events' structure, written values and read-from
    /// sources determine every resolved variable name.
    pub fn fingerprint(&self) -> HistoryFingerprint {
        // Map every transaction to its canonical coordinates (session, index).
        let coord = |t: TxId| -> WriterRef {
            if t.is_init() {
                WriterRef::Init
            } else {
                let log = self.tx(t);
                let idx = self.tx_session_index(t).expect("tx session index");
                WriterRef::Tx(log.session.0, idx)
            }
        };
        // Map every variable to its first-occurrence index.
        let mut var_ids: Vec<Var> = Vec::new();
        let mut canon = |x: Var| -> Var {
            match var_ids.iter().position(|y| *y == x) {
                Some(i) => Var(i as u32),
                None => {
                    var_ids.push(x);
                    Var(var_ids.len() as u32 - 1)
                }
            }
        };
        let mut sessions = Vec::new();
        for (s, txs) in self.sessions() {
            let mut fp_txs = Vec::new();
            for t in txs {
                let log = self.tx(*t);
                let mut evs = Vec::new();
                for e in &log.events {
                    let fp = match &e.kind {
                        EventKind::Begin => EventFingerprint::Begin,
                        EventKind::Commit => EventFingerprint::Commit,
                        EventKind::Abort => EventFingerprint::Abort,
                        EventKind::Write(x, v) => EventFingerprint::Write(canon(*x), v.clone()),
                        EventKind::Read(x) => {
                            EventFingerprint::Read(canon(*x), self.wr_of(e.id).map(coord))
                        }
                    };
                    evs.push(fp);
                }
                fp_txs.push(evs);
            }
            sessions.push((s.0, fp_txs));
        }
        HistoryFingerprint { sessions }
    }

    /// A 128-bit hash of the canonical fingerprint, computed by streaming
    /// the canonical structure into two independent hashers instead of
    /// materialising [`HistoryFingerprint`]'s nested vectors (which clones
    /// every event payload). Two histories with equal fingerprints always
    /// have equal hashes; the converse holds up to the negligible collision
    /// probability of 128 bits (hash compaction, as classically used by
    /// stateless model checkers for visited-state sets).
    pub fn fingerprint_hash(&self) -> (u64, u64) {
        // Two independent multiply-xorshift streams fed word by word: far
        // cheaper per word than a keyed hash.
        struct Mix(u64, u64);
        impl Mix {
            #[inline]
            fn add(&mut self, v: u64) {
                self.0 = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                self.0 ^= self.0 >> 29;
                self.1 = (self.1.rotate_left(23) ^ v).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
                self.1 ^= self.1 >> 31;
            }
        }
        let mut mix = Mix(0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344);
        // First-occurrence numbering of variables, as in `fingerprint`.
        // Histories touch few distinct variables, so a linear scan beats a
        // map here.
        let mut var_ids: Vec<Var> = Vec::new();
        let mut canon = |x: Var| -> u64 {
            match var_ids.iter().position(|y| *y == x) {
                Some(i) => i as u64,
                None => {
                    var_ids.push(x);
                    (var_ids.len() - 1) as u64
                }
            }
        };
        let coord = |t: TxId| -> u64 {
            if t.is_init() {
                u64::MAX
            } else {
                let log = self.tx(t);
                let idx = self.tx_session_index(t).expect("tx session index");
                ((log.session.0 as u64) << 32) | idx as u64
            }
        };
        for (s, txs) in self.sessions() {
            mix.add(s.0 as u64);
            mix.add(txs.len() as u64);
            for t in txs {
                let log = self.tx(*t);
                mix.add(log.events.len() as u64);
                for e in &log.events {
                    match &e.kind {
                        EventKind::Begin => mix.add(0),
                        EventKind::Commit => mix.add(1),
                        EventKind::Abort => mix.add(2),
                        EventKind::Write(x, v) => {
                            mix.add(3);
                            mix.add(canon(*x));
                            match v {
                                Value::Int(i) => {
                                    mix.add(0);
                                    mix.add(*i as u64);
                                }
                                Value::Set(s) => {
                                    mix.add(1);
                                    mix.add(s.len() as u64);
                                    for id in s {
                                        mix.add(*id as u64);
                                    }
                                }
                            }
                        }
                        EventKind::Read(x) => {
                            mix.add(4);
                            mix.add(canon(*x));
                            match self.wr_of(e.id) {
                                None => mix.add(0),
                                Some(w) => {
                                    mix.add(1);
                                    mix.add(coord(w));
                                }
                            }
                        }
                    }
                }
            }
        }
        (mix.0, mix.1)
    }

    /// The incrementally maintained rolling structural hash, updated in
    /// O(1) on every push/pop/set/unset. Unlike
    /// [`fingerprint_hash`](History::fingerprint_hash) it is *not*
    /// canonical in variable identifiers (it hashes the raw [`Var`] ids),
    /// which is exactly what a per-worker consistency-engine memo needs:
    /// within one exploration the variable table is fixed, so equal rolling
    /// hashes coincide with equal structure up to the usual 128-bit hash
    /// compaction, and the key costs a load instead of a walk of the
    /// history.
    #[inline]
    pub fn live_hash(&self) -> (u64, u64) {
        self.hash
    }

    /// Recomputes the rolling hash from scratch (used after bulk rewrites
    /// such as [`map_vars`](History::map_vars), and by debug assertions).
    fn recompute_live_hash(&mut self) {
        let mut hash = HASH_SEED;
        for (s, txs) in self.sessions() {
            for (sidx, t) in txs.iter().enumerate() {
                let log = self.tx(*t);
                for (po, e) in log.events.iter().enumerate() {
                    let key = pos_key(s.0, sidx as u32, po as u32);
                    xor_into(&mut hash, contrib(event_payload(key, &e.kind)));
                    if let Some(w) = self.wr_of(e.id) {
                        xor_into(&mut hash, contrib(wr_payload(key, self.tx_coord(w))));
                    }
                }
            }
        }
        self.hash = hash;
    }

    // ------------------------------------------------------------------
    // Variable renaming
    // ------------------------------------------------------------------

    /// Returns the history with every variable replaced by `f(var)`,
    /// including the init values. Used to translate histories produced
    /// against one [`crate::VarTable`] into another (e.g. when merging the
    /// outputs of parallel exploration workers).
    ///
    /// `f` must be injective on the variables of the history, otherwise
    /// distinct variables would be conflated.
    pub fn map_vars(&self, mut f: impl FnMut(Var) -> Var) -> History {
        let mut h = self.clone();
        h.init_values = Vec::new();
        for (x, v) in &self.init_values {
            let y = f(*x);
            match h.init_values.binary_search_by_key(&y, |(z, _)| *z) {
                Ok(i) => h.init_values[i].1 = v.clone(),
                Err(i) => h.init_values.insert(i, (y, v.clone())),
            }
        }
        for log in &mut h.logs {
            for e in &mut log.events {
                match &mut e.kind {
                    EventKind::Read(x) | EventKind::Write(x, _) => *x = f(*x),
                    _ => {}
                }
            }
        }
        h.recompute_live_hash();
        h
    }
}

impl Clone for History {
    /// A compact O(live-size) copy of the arena. The undo journal is *not*
    /// cloned: a clone is a plain snapshot with no outstanding checkpoints.
    fn clone(&self) -> Self {
        crate::stats::record_clone(self.heap_bytes_estimate());
        History {
            init_values: self.init_values.clone(),
            logs: self.logs.clone(),
            tx_slot: self.tx_slot.clone(),
            tx_sidx: self.tx_sidx.clone(),
            sessions: self.sessions.clone(),
            wr: self.wr.clone(),
            owner: self.owner.clone(),
            pending: self.pending,
            max_tx_id: self.max_tx_id,
            max_event_id: self.max_event_id,
            hash: self.hash,
            journal: Vec::new(),
            journal_depth: 0,
            uid: NEXT_HISTORY_UID.fetch_add(1, Ordering::Relaxed),
            delta_base: 0,
            deltas: VecDeque::new(),
        }
    }
}

impl History {
    /// Approximate heap footprint of the history in bytes (used by the
    /// benchmark clone counters).
    pub fn heap_bytes_estimate(&self) -> usize {
        let mut bytes = self.init_values.len() * std::mem::size_of::<(Var, Value)>()
            + self.logs.len() * std::mem::size_of::<TransactionLog>()
            + self.tx_slot.heap_bytes()
            + self.tx_sidx.heap_bytes()
            + self.wr.heap_bytes()
            + self.owner.heap_bytes()
            + self.sessions.len() * std::mem::size_of::<Vec<TxId>>();
        for log in &self.logs {
            bytes += log.events.len() * std::mem::size_of::<Event>();
        }
        for txs in &self.sessions {
            bytes += txs.len() * std::mem::size_of::<TxId>();
        }
        bytes
    }
}

impl PartialEq for History {
    /// Logical equality: same init values, session orders, transaction
    /// logs and wr relation. Arena slot order, id-allocation high-water
    /// marks and the journal are representation details and do not
    /// participate.
    fn eq(&self, other: &Self) -> bool {
        if self.init_values != other.init_values
            || self.num_events() != other.num_events()
            || self.num_transactions() != other.num_transactions()
            || self.wr_count() != other.wr_count()
        {
            return false;
        }
        let mut a = self.sessions();
        let mut b = other.sessions();
        loop {
            match (a.next(), b.next()) {
                (None, None) => break,
                (Some((sa, txa)), Some((sb, txb))) if sa == sb && txa == txb => {}
                _ => return false,
            }
        }
        for t in self.tx_ids() {
            if other.get_tx(t) != Some(self.tx(t)) {
                return false;
            }
        }
        self.wr().all(|(r, w)| other.wr_of(r) == Some(w))
    }
}

impl Eq for History {}

impl Default for History {
    fn default() -> Self {
        History::new(std::iter::empty())
    }
}

/// Reference to a writer transaction inside a [`HistoryFingerprint`],
/// identified canonically by session and position rather than by [`TxId`].
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WriterRef {
    /// The initial transaction.
    Init,
    /// The `index`-th transaction of session `session`.
    Tx(u32, usize),
}

/// Canonical summary of a single event inside a [`HistoryFingerprint`].
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventFingerprint {
    /// Begin event.
    Begin,
    /// Commit event.
    Commit,
    /// Abort event.
    Abort,
    /// Read of a variable, annotated with the writer it reads from
    /// (`None` for internal reads).
    Read(Var, Option<WriterRef>),
    /// Write of a value to a variable.
    Write(Var, Value),
}

/// Identifier-independent representation of a history, suitable for
/// detecting duplicate outputs of an exploration (read-from equivalence).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HistoryFingerprint {
    /// For each session (by id), the event fingerprints of its transactions
    /// in session order.
    pub sessions: Vec<(u32, Vec<Vec<EventFingerprint>>)>,
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (s, txs) in self.sessions() {
            writeln!(f, "session {s}:")?;
            for t in txs {
                let log = self.tx(*t);
                write!(f, "  {t} [{:?}]:", log.status())?;
                for e in &log.events {
                    write!(f, " {}", e.kind)?;
                    if let Some(w) = self.wr_of(e.id) {
                        write!(f, "<-{w}")?;
                    }
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

/// Helper for rendering a history with human-readable variable names.
#[derive(Debug)]
pub struct HistoryDisplay<'a> {
    history: &'a History,
    vars: &'a VarTable,
}

impl History {
    /// Renders the history using variable names from `vars`.
    pub fn display_with<'a>(&'a self, vars: &'a VarTable) -> HistoryDisplay<'a> {
        HistoryDisplay {
            history: self,
            vars,
        }
    }
}

impl fmt::Display for HistoryDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let h = self.history;
        for (s, txs) in h.sessions() {
            writeln!(f, "session {s}:")?;
            for t in txs {
                let log = h.tx(*t);
                write!(f, "  {t} [{:?}]:", log.status())?;
                for e in &log.events {
                    match &e.kind {
                        EventKind::Read(x) => {
                            write!(f, " read({})", self.vars.name(*x))?;
                            if let Some(w) = h.wr_of(e.id) {
                                write!(f, "<-{w}")?;
                            }
                        }
                        EventKind::Write(x, v) => {
                            write!(f, " write({},{v})", self.vars.name(*x))?;
                        }
                        other => write!(f, " {other}")?,
                    }
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u32, kind: EventKind) -> Event {
        Event::new(EventId(id), kind)
    }

    /// Builds the Causal Consistency violation history of Fig. 3:
    /// t1: write(x,1); t2: read(x)<-t1, write(x,2); t3: read(x)<-t1, read(y)<-t4;
    /// t4: read(x)<-t2, write(y,1).
    fn fig3_history() -> History {
        let x = Var(0);
        let y = Var(1);
        let mut h = History::new([]);
        let mut next = 0u32;
        let mut fresh = || {
            next += 1;
            EventId(next)
        };
        // t1 in session 0
        h.begin_transaction(SessionId(0), TxId(1), 0, ev(fresh().0, EventKind::Begin));
        h.append_event(
            SessionId(0),
            Event::new(fresh(), EventKind::Write(x, Value::Int(1))),
        );
        h.append_event(SessionId(0), Event::new(fresh(), EventKind::Commit));
        // t2 in session 1
        h.begin_transaction(SessionId(1), TxId(2), 0, ev(fresh().0, EventKind::Begin));
        let r2 = fresh();
        h.append_event(SessionId(1), Event::new(r2, EventKind::Read(x)));
        h.append_event(
            SessionId(1),
            Event::new(fresh(), EventKind::Write(x, Value::Int(2))),
        );
        h.append_event(SessionId(1), Event::new(fresh(), EventKind::Commit));
        // t4 in session 2
        h.begin_transaction(SessionId(2), TxId(4), 0, ev(fresh().0, EventKind::Begin));
        let r4 = fresh();
        h.append_event(SessionId(2), Event::new(r4, EventKind::Read(x)));
        h.append_event(
            SessionId(2),
            Event::new(fresh(), EventKind::Write(y, Value::Int(1))),
        );
        h.append_event(SessionId(2), Event::new(fresh(), EventKind::Commit));
        // t3 in session 3
        h.begin_transaction(SessionId(3), TxId(3), 0, ev(fresh().0, EventKind::Begin));
        let r3x = fresh();
        h.append_event(SessionId(3), Event::new(r3x, EventKind::Read(x)));
        let r3y = fresh();
        h.append_event(SessionId(3), Event::new(r3y, EventKind::Read(y)));
        h.append_event(SessionId(3), Event::new(fresh(), EventKind::Commit));
        h.set_wr(r2, TxId(1));
        h.set_wr(r4, TxId(2));
        h.set_wr(r3x, TxId(1));
        h.set_wr(r3y, TxId(4));
        h
    }

    #[test]
    fn structure_queries() {
        let h = fig3_history();
        assert_eq!(h.num_transactions(), 4);
        assert_eq!(h.num_pending(), 0);
        assert_eq!(h.committed_txs().len(), 4);
        assert!(h.is_committed(TxId::INIT));
        assert!(h.contains_tx(TxId::INIT));
        assert!(h.contains_tx(TxId(2)));
        assert!(!h.contains_tx(TxId(9)));
        assert_eq!(h.session_txs(SessionId(1)), &[TxId(2)]);
        assert_eq!(h.last_tx_of_session(SessionId(3)), Some(TxId(3)));
        assert_eq!(h.last_tx_of_session(SessionId(9)), None);
        assert_eq!(h.events().count(), h.num_events());
        assert_eq!(h.max_tx_id(), 4);
        assert_eq!(h.max_event_id(), 15);
    }

    #[test]
    fn retract_begin_round_trips_through_rollback() {
        // Build fig3, checkpoint, strip session 3 down to its begin and
        // retract it (exactly what the in-place swap trials do), then
        // retract... the rollback must restore everything bit-for-bit even
        // though another transaction was begun in between (exercising the
        // swap-remove arena path).
        let mut h = fig3_history();
        let snapshot = h.clone();
        let hash = h.live_hash();
        let mark = h.checkpoint();
        let s3 = SessionId(3);
        // Unset the wr edges of session 3's reads, pop its events, retract.
        let reads: Vec<EventId> = h.tx(TxId(3)).events[1..].iter().map(|e| e.id).collect();
        for e in reads.into_iter().rev() {
            h.unset_wr(e);
            h.pop_event(s3);
        }
        h.retract_begin(s3);
        assert!(!h.contains_tx(TxId(3)));
        assert_eq!(h.num_transactions(), 3);
        // Begin a fresh transaction elsewhere so the retracted slot is not
        // the arena tail at rollback time.
        h.begin_transaction(
            SessionId(0),
            TxId(9),
            1,
            Event::new(EventId(99), EventKind::Begin),
        );
        h.rollback(mark);
        assert_eq!(h, snapshot);
        assert_eq!(h.live_hash(), hash);
        assert_eq!(h.fingerprint(), snapshot.fingerprint());
    }

    #[test]
    #[should_panic(expected = "begin-only")]
    fn retract_begin_rejects_non_stub_transactions() {
        let mut h = fig3_history();
        h.retract_begin(SessionId(3));
    }

    #[test]
    fn mutation_deltas_are_observable_and_self_inverse() {
        let mut h = History::new([]);
        let g0 = h.generation();
        let uid = h.uid();
        h.begin_transaction(SessionId(0), TxId(1), 0, ev(1, EventKind::Begin));
        h.append_event(SessionId(0), ev(2, EventKind::Write(Var(0), Value::Int(1))));
        assert_eq!(h.generation(), g0 + 2);
        let deltas: Vec<HistoryDelta> = h.deltas_since(g0).unwrap().copied().collect();
        assert_eq!(
            deltas,
            vec![
                HistoryDelta::Begin {
                    session: SessionId(0),
                    tx: TxId(1)
                },
                HistoryDelta::Append {
                    tx: TxId(1),
                    event: EventId(2),
                    info: DeltaEventInfo::Write(Var(0)),
                    po: 1
                },
            ]
        );
        // A rollback emits the inverse deltas rather than rewinding the log.
        let mark = h.checkpoint();
        let g1 = h.generation();
        h.append_event(SessionId(0), ev(3, EventKind::Commit));
        h.rollback(mark);
        let tail: Vec<HistoryDelta> = h.deltas_since(g1).unwrap().copied().collect();
        assert_eq!(
            tail,
            vec![
                HistoryDelta::Append {
                    tx: TxId(1),
                    event: EventId(3),
                    info: DeltaEventInfo::Commit,
                    po: 2
                },
                HistoryDelta::Pop {
                    tx: TxId(1),
                    event: EventId(3),
                    info: DeltaEventInfo::Commit,
                    po: 2
                },
            ]
        );
        // Out-of-window and foreign sync points are rejected; clones are
        // fresh observers.
        assert!(h.deltas_since(h.generation() + 1).is_none());
        let clone = h.clone();
        assert_ne!(clone.uid(), uid);
        assert_eq!(clone.generation(), 0);
        assert_eq!(clone.deltas_since(0).unwrap().count(), 0);
    }

    #[test]
    fn delta_log_window_is_bounded() {
        let mut h = History::new([]);
        h.begin_transaction(SessionId(0), TxId(1), 0, ev(1, EventKind::Begin));
        let start = h.generation();
        for i in 0..DELTA_LOG_CAPACITY as u32 + 10 {
            let e = EventId(2 + 2 * i);
            h.append_event(SessionId(0), Event::new(e, EventKind::Read(Var(0))));
            h.set_wr(e, TxId::INIT);
            h.unset_wr(e);
            h.pop_event(SessionId(0));
        }
        assert!(h.deltas_since(start).is_none(), "window must be trimmed");
        let recent = h.generation() - 10;
        assert_eq!(h.deltas_since(recent).unwrap().count(), 10);
    }

    #[test]
    fn writers_and_values() {
        let h = fig3_history();
        let x = Var(0);
        let y = Var(1);
        assert!(h.writes_var(TxId::INIT, x));
        assert!(h.writes_var(TxId(1), x));
        assert!(h.writes_var(TxId(2), x));
        assert!(!h.writes_var(TxId(3), x));
        let wx = h.writers_of(x);
        assert!(wx.contains(&TxId::INIT) && wx.contains(&TxId(1)) && wx.contains(&TxId(2)));
        assert!(!wx.contains(&TxId(4)));
        assert_eq!(h.visible_write_value(TxId(2), x), Some(Value::Int(2)));
        assert_eq!(h.visible_write_value(TxId::INIT, y), Some(Value::Int(0)));
        assert_eq!(h.committed_writers_of(y), vec![TxId::INIT, TxId(4)]);
    }

    #[test]
    fn read_values_follow_wr() {
        let h = fig3_history();
        // t4's read of x reads from t2 which wrote 2.
        let (_, r4, _, w) = h
            .reads_from()
            .into_iter()
            .find(|(reader, _, _, _)| *reader == TxId(4))
            .unwrap();
        assert_eq!(w, TxId(2));
        assert_eq!(h.read_value(r4), Some(Value::Int(2)));
    }

    #[test]
    fn session_and_causal_order() {
        let h = fig3_history();
        assert!(h.so_before(TxId::INIT, TxId(3)));
        assert!(!h.so_before(TxId(3), TxId::INIT));
        assert!(!h.so_before(TxId(1), TxId(2))); // different sessions
        assert!(h.causally_before(TxId(1), TxId(2))); // via wr
        assert!(h.causally_before(TxId(2), TxId(3))); // t2 -> t4 -> t3
        assert!(h.causally_before(TxId::INIT, TxId(4)));
        assert!(!h.causally_before(TxId(3), TxId(1)));
        assert!(h.causally_before_eq(TxId(3), TxId(3)));
        let preds = h.causal_predecessors(TxId(3));
        assert!(preds.contains(&TxId(1)) && preds.contains(&TxId(2)) && preds.contains(&TxId(4)));
        assert!(preds.contains(&TxId::INIT));
        assert!(h.is_causally_maximal(TxId(3)));
        assert!(!h.is_causally_maximal(TxId(1)));
    }

    #[test]
    fn causal_sets_match_pairwise_queries() {
        let h = fig3_history();
        let all: Vec<TxId> = std::iter::once(TxId::INIT).chain(h.tx_ids()).collect();
        for t in &all {
            let anc = h.causal_ancestors(*t);
            let desc = h.causal_descendants(*t);
            for u in &all {
                assert_eq!(
                    anc.contains(*u),
                    h.causally_before(*u, *t),
                    "ancestors({t}) disagrees on {u}"
                );
                assert_eq!(
                    desc.contains(*u),
                    h.causally_before(*t, *u),
                    "descendants({t}) disagrees on {u}"
                );
            }
        }
    }

    #[test]
    fn wr_tx_edges_and_so_or_wr() {
        let h = fig3_history();
        assert!(h.wr_tx_edge(TxId(1), TxId(2)));
        assert!(h.wr_tx_edge(TxId(4), TxId(3)));
        assert!(!h.wr_tx_edge(TxId(2), TxId(1)));
        assert!(h.so_or_wr(TxId(2), TxId(4)));
        assert!(!h.so_or_wr(TxId(1), TxId(4)));
        assert_eq!(h.wr_tx_edges().len(), 4);
    }

    #[test]
    fn remove_events_builds_prefix() {
        let h = fig3_history();
        // Remove all events of t3 (session 3).
        let doomed: BTreeSet<EventId> = h.tx(TxId(3)).events.iter().map(|e| e.id).collect();
        let h2 = h.remove_events(&doomed);
        assert_eq!(h2.num_transactions(), 3);
        assert!(!h2.contains_tx(TxId(3)));
        assert!(h2.session_txs(SessionId(3)).is_empty());
        // wr entries of removed reads are gone; others remain.
        assert_eq!(h2.wr_count(), 2);
        // Removing nothing is the identity.
        assert_eq!(h.remove_events(&BTreeSet::new()), h);
        assert_eq!(h.remove_events(&BTreeSet::new()).live_hash(), h.live_hash());
    }

    #[test]
    fn fingerprints_identify_read_from_equivalence() {
        let h1 = fig3_history();
        let h2 = fig3_history();
        assert_eq!(h1.fingerprint(), h2.fingerprint());
        assert_eq!(h1.live_hash(), h2.live_hash());
        // Changing a wr dependency changes the fingerprint.
        let mut h3 = fig3_history();
        let (_, r3x, _, _) = h3
            .reads_from()
            .into_iter()
            .find(|(reader, _, x, _)| *reader == TxId(3) && *x == Var(0))
            .unwrap();
        h3.set_wr(r3x, TxId(2));
        assert_ne!(h1.fingerprint(), h3.fingerprint());
        assert_ne!(h1.live_hash(), h3.live_hash());
    }

    #[test]
    fn fingerprints_are_canonical_in_variable_ids() {
        // Renaming variables (order-preserving or not) leaves the
        // fingerprint unchanged: variables are numbered by first occurrence.
        let h = fig3_history();
        let shifted = h.map_vars(|x| Var(x.0 + 10));
        assert_eq!(h.fingerprint(), shifted.fingerprint());
        let swapped = h.map_vars(|x| Var(1 - x.0));
        assert_eq!(h.fingerprint(), swapped.fingerprint());
    }

    #[test]
    fn map_vars_rewrites_events_and_init_values() {
        let mut h = fig3_history();
        h.set_init_value(Var(0), Value::Int(9));
        let mapped = h.map_vars(|x| Var(x.0 + 5));
        assert_eq!(mapped.init_value(Var(5)), Value::Int(9));
        assert!(mapped.writes_var(TxId(1), Var(5)));
        assert!(!mapped.writes_var(TxId(1), Var(0)));
        assert_eq!(mapped.writers_of(Var(6)), vec![TxId::INIT, TxId(4)]);
        // wr edges and structure are untouched.
        assert_eq!(mapped.wr_count(), h.wr_count());
        assert_eq!(mapped.num_events(), h.num_events());
        // Identity mapping is the identity.
        assert_eq!(h.map_vars(|x| x), h);
        assert_eq!(h.map_vars(|x| x).live_hash(), h.live_hash());
    }

    #[test]
    fn display_does_not_panic() {
        let h = fig3_history();
        let s = h.to_string();
        assert!(s.contains("session"));
        let mut vars = VarTable::new();
        vars.intern("x");
        vars.intern("y");
        let s = h.display_with(&vars).to_string();
        assert!(s.contains("read(x)"));
    }

    #[test]
    fn empty_history_hash_is_not_the_zero_sentinel() {
        // Downstream tables (the engines' direct-mapped memo) use all-zero
        // slots as "empty"; the empty history's hash must not alias them.
        assert_ne!(History::default().live_hash(), (0, 0));
    }

    #[test]
    fn remove_events_keeps_pending_counter_in_sync() {
        // Dooming a transaction's begin while keeping its commit rebuilds a
        // log that is complete from its first event; the O(1) pending
        // counter must agree with the status scan.
        let scanned = |h: &History| h.transactions().filter(|t| t.is_pending()).count();
        let mut h = History::new([]);
        h.begin_transaction(SessionId(0), TxId(1), 0, ev(1, EventKind::Begin));
        h.append_event(SessionId(0), ev(2, EventKind::Commit));
        let h2 = h.remove_events(&BTreeSet::from([EventId(1)]));
        assert_eq!(h2.num_pending(), scanned(&h2));
        assert_eq!(h2.num_pending(), 0);
        // And symmetrically for a kept abort.
        let mut h = History::new([]);
        h.begin_transaction(SessionId(0), TxId(1), 0, ev(1, EventKind::Begin));
        h.append_event(SessionId(0), ev(2, EventKind::Abort));
        let h2 = h.remove_events(&BTreeSet::from([EventId(1)]));
        assert_eq!(h2.num_pending(), scanned(&h2));
    }

    #[test]
    fn duplicate_init_values_keep_the_last_entry() {
        // Map semantics, as with the previous BTreeMap representation.
        let h = History::new([(Var(0), Value::Int(1)), (Var(0), Value::Int(2))]);
        assert_eq!(h.init_value(Var(0)), Value::Int(2));
        assert_eq!(h.init_values().len(), 1);
        // A non-injective map_vars collapses entries the same way.
        let mut h = History::new([(Var(0), Value::Int(1)), (Var(1), Value::Int(2))]);
        h.set_init_value(Var(0), Value::Int(5));
        let collapsed = h.map_vars(|_| Var(0));
        assert_eq!(collapsed.init_values().len(), 1);
        assert_eq!(collapsed.init_value(Var(0)), Value::Int(2));
    }

    #[test]
    fn init_values_defaults() {
        let mut h = History::new([(Var(0), Value::Int(7))]);
        assert_eq!(h.init_value(Var(0)), Value::Int(7));
        assert_eq!(h.init_value(Var(5)), Value::Int(0));
        h.set_init_value(Var(5), Value::Int(3));
        assert_eq!(h.init_value(Var(5)), Value::Int(3));
        assert_eq!(h.init_values().len(), 2);
    }

    #[test]
    fn checkpoint_rollback_restores_history() {
        let mut h = fig3_history();
        let snapshot = h.clone();
        let hash_before = h.live_hash();
        let mark = h.checkpoint();
        // Mutate: new transaction, events, wr edges.
        h.begin_transaction(SessionId(4), TxId(5), 0, ev(100, EventKind::Begin));
        let r = EventId(101);
        h.append_event(SessionId(4), Event::new(r, EventKind::Read(Var(0))));
        h.set_wr(r, TxId(1));
        h.set_wr(r, TxId(2));
        h.unset_wr(r);
        h.set_wr(r, TxId::INIT);
        h.append_event(SessionId(4), ev(102, EventKind::Commit));
        assert_ne!(h, snapshot);
        assert_eq!(h.max_event_id(), 102);
        h.rollback(mark);
        assert_eq!(h, snapshot);
        assert_eq!(h.live_hash(), hash_before);
        assert_eq!(h.fingerprint(), snapshot.fingerprint());
        assert_eq!(h.max_event_id(), snapshot.max_event_id());
        assert_eq!(h.max_tx_id(), snapshot.max_tx_id());
        assert_eq!(h.num_pending(), snapshot.num_pending());
    }

    #[test]
    fn nested_checkpoints_roll_back_in_lifo_order() {
        let mut h = fig3_history();
        let outer_snapshot = h.clone();
        let outer = h.checkpoint();
        h.begin_transaction(SessionId(4), TxId(5), 0, ev(100, EventKind::Begin));
        let inner_snapshot = h.clone();
        let inner = h.checkpoint();
        let r = EventId(101);
        h.append_event(SessionId(4), Event::new(r, EventKind::Read(Var(0))));
        h.set_wr(r, TxId(1));
        h.unset_wr(r);
        h.rollback(inner);
        assert_eq!(h, inner_snapshot);
        h.rollback(outer);
        assert_eq!(h, outer_snapshot);
    }

    #[test]
    fn clone_at_copies_the_history_as_of_each_open_mark() {
        let mut h = fig3_history();
        let outer_snapshot = h.clone();
        let outer = h.checkpoint();
        h.begin_transaction(SessionId(4), TxId(5), 0, ev(100, EventKind::Begin));
        let inner_snapshot = h.clone();
        let inner = h.checkpoint();
        let r = EventId(101);
        h.append_event(SessionId(4), Event::new(r, EventKind::Read(Var(0))));
        h.set_wr(r, TxId(1));
        let commit = h.pop_event(SessionId(3));
        assert!(commit.kind.is_commit());
        let now = h.clone();
        for (mark, want) in [(outer, &outer_snapshot), (inner, &inner_snapshot)] {
            let copy = h.clone_at(mark);
            assert_eq!(&copy, want);
            assert_eq!(copy.live_hash(), want.live_hash());
            assert_eq!(copy.max_event_id(), want.max_event_id());
            assert_eq!(copy.max_tx_id(), want.max_tx_id());
            assert_eq!(copy.num_pending(), want.num_pending());
            assert!(!copy.in_checkpoint());
            assert_ne!(copy.uid(), h.uid());
        }
        // The source keeps its state and both checkpoints.
        assert_eq!(h, now);
        h.rollback(inner);
        assert_eq!(h, inner_snapshot);
        h.rollback(outer);
        assert_eq!(h, outer_snapshot);
    }

    #[test]
    fn pop_event_is_journaled_and_inverse_of_append() {
        let mut h = fig3_history();
        let snapshot = h.clone();
        let mark = h.checkpoint();
        // Pop t3's commit and the read of y (after unsetting its wr).
        let commit = h.pop_event(SessionId(3));
        assert!(commit.kind.is_commit());
        assert_eq!(h.num_pending(), 1);
        let r3y = h.tx(TxId(3)).events.last().unwrap().id;
        h.unset_wr(r3y);
        let read = h.pop_event(SessionId(3));
        assert!(read.kind.is_read());
        h.rollback(mark);
        assert_eq!(h, snapshot);
        assert_eq!(h.live_hash(), snapshot.live_hash());
        assert_eq!(h.num_pending(), 0);
    }

    #[test]
    #[should_panic(expected = "still has a wr dependency")]
    fn pop_event_requires_wr_unset() {
        let mut h = fig3_history();
        h.pop_event(SessionId(3)); // commit
        h.pop_event(SessionId(3)); // read(y) with live wr edge: panic
    }

    #[test]
    fn live_hash_matches_recomputation() {
        let mut h = fig3_history();
        let incremental = h.live_hash();
        h.recompute_live_hash();
        assert_eq!(h.live_hash(), incremental);
    }

    #[test]
    fn equality_is_representation_independent() {
        // A history rebuilt through remove_events has a different arena
        // layout (session-major slots) but must compare equal.
        let h = fig3_history();
        let rebuilt = h.remove_events(&BTreeSet::new());
        assert_eq!(h, rebuilt);
        assert_eq!(rebuilt, h);
        assert_eq!(h.fingerprint(), rebuilt.fingerprint());
        assert_eq!(h.live_hash(), rebuilt.live_hash());
    }
}
