//! Server nodes: MVCC shards (with a simulated write-ahead log and
//! crash–restart recovery) and the timestamp oracle.
//!
//! Each shard owns the version chains and lock table of its slice of the
//! key space and is driven purely by messages. Handlers are **idempotent**
//! — per-attempt state (`TxnState`) is kept forever (simulation runs are
//! bounded), so duplicated, reordered or late messages can never resurrect
//! a lock or re-install a version:
//!
//! * a `Read` for an attempt already decided is served without locking;
//! * a duplicate `Prewrite` of a prewritten/committed attempt is `Ok`
//!   without re-locking; after an abort it is `Conflict`;
//! * `Commit` and `Abort` are no-ops the second time.
//!
//! The correctness invariant the snapshot modes rely on: a version with
//! `ts <= s` is either installed or guarded by an exclusive lock with
//! `start_ts <= s` at the moment a snapshot-`s` read arrives (locks are
//! taken at prewrite, before the commit timestamp is drawn, and the oracle
//! is monotone).
//!
//! # WAL contract and recovery
//!
//! Every state transition is logged to the shard's [`Wal`] *in the same
//! atomic handler step* that applies it in memory — prewrites (with their
//! buffered writes), shared read-lock intents, and commit/abort decisions
//! (commit records inline the installed writes). [`Shard::crash`] discards
//! all volatile state but keeps the log; [`Shard::restart`] rebuilds
//! version chains, the lock table and per-attempt state by replaying it.
//! Replay reuses the same guarded apply primitives as the live handlers,
//! so it is idempotent by construction: a lock can only come back for an
//! attempt that is still undecided in the log, and a version can only be
//! installed once per attempt.
//!
//! Recovery leaves prewritten-but-undecided attempts *in doubt*: their
//! exclusive locks are held (preserving the snapshot-read invariant above)
//! and a [`Request::QueryDecision`] is sent to each attempt's coordinator.
//! The coordinator answers from its decision record — commit timestamp if
//! the attempt committed, otherwise **presumed abort** once it has moved
//! on ([`crate::msg::Decision`]). Losing these messages only delays
//! resolution: the ordinary commit/abort resends decide the attempt too.
//!
//! A shard built with durability off ([`Shard::with_durability`]) models
//! the deliberately broken `no-wal` deployment: commit/abort *decisions*
//! still reach the log, but prewrites and lock intents are volatile — a
//! crash forgets in-flight writers, so first-committer-wins can be
//! violated after restart (two writers of the same key both commit). The
//! end-to-end pipeline exists to catch exactly that.

use std::collections::{BTreeMap, BTreeSet};

use txdpor_history::{Value, Var};

use crate::msg::{Addr, Decision, Message, Payload, Reply, Request, TxnId};

/// The timestamp oracle: a monotone counter serving start and commit
/// timestamps. Timestamp 0 is reserved for initial versions.
#[derive(Debug, Default)]
pub struct Oracle {
    next: u64,
}

impl Oracle {
    /// Creates the oracle; the first timestamp served is 1.
    pub fn new() -> Self {
        Oracle { next: 0 }
    }

    /// Handles a timestamp request, returning the reply to `from`.
    pub fn handle(&mut self, from: Addr, req_id: u64, req: &Request) -> (Addr, Message) {
        match req {
            Request::StartTs | Request::CommitTs => {
                self.next += 1;
                (
                    from,
                    Message {
                        from: Addr::Oracle,
                        req_id,
                        payload: Payload::Reply(Reply::Ts(self.next)),
                    },
                )
            }
            // The router only ever addresses the oracle with Ts requests.
            other => unreachable!("oracle received a non-timestamp request: {other:?}"),
        }
    }
}

/// One installed version of a variable.
#[derive(Clone, Debug, PartialEq)]
pub struct Version {
    /// Commit timestamp of the version (0 for the initial version).
    pub ts: u64,
    /// The stored value.
    pub value: Value,
    /// The attempt that installed it (`None` for init).
    pub writer: Option<TxnId>,
}

/// The lock state of one variable.
#[derive(Clone, Debug, Default)]
struct Lock {
    /// Exclusive (prewrite) holder, with its start timestamp.
    exclusive: Option<(TxnId, u64)>,
    /// Shared (serializable read) holders.
    shared: BTreeSet<TxnId>,
}

impl Lock {
    fn is_free(&self) -> bool {
        self.exclusive.is_none() && self.shared.is_empty()
    }
}

/// Per-attempt state retained by a shard.
#[derive(Clone, Debug, PartialEq)]
enum TxnState {
    /// Prewritten: the buffered writes await a commit timestamp.
    Prewritten(Vec<(Var, Value)>),
    /// Committed (terminal).
    Committed,
    /// Aborted (terminal).
    Aborted,
}

/// One durable record of a shard's write-ahead log. Records are appended
/// in the same atomic handler step as the in-memory state change they
/// describe, and replayed in order by [`Shard::restart`].
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// A shared read-lock intent of a locking (serializable-mode) read.
    ReadLock {
        /// The locking attempt.
        txn: TxnId,
        /// The locked variable.
        var: Var,
    },
    /// A successful prewrite: exclusive locks taken, writes buffered.
    Prewrite {
        /// The prewriting attempt.
        txn: TxnId,
        /// Its start timestamp (lock metadata for snapshot-read blocking).
        start_ts: u64,
        /// The buffered writes destined for this shard.
        writes: Vec<(Var, Value)>,
    },
    /// A commit decision, with the versions it installs inlined so replay
    /// never depends on a prewrite record (the volatile `no-wal` shard
    /// logs commits but not prewrites).
    Commit {
        /// The committed attempt.
        txn: TxnId,
        /// Version timestamp of the installed writes.
        commit_ts: u64,
        /// The installed writes (empty for read-only participants).
        writes: Vec<(Var, Value)>,
    },
    /// An abort decision.
    Abort {
        /// The aborted attempt.
        txn: TxnId,
    },
}

/// The simulated write-ahead log of one shard: an append-only record list
/// that survives [`Shard::crash`].
pub type Wal = Vec<WalRecord>;

/// Recovery observability counters of one shard, aggregated into
/// [`SimStats`](crate::simulation::SimStats).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// WAL records replayed across all restarts of this shard.
    pub wal_replayed: u64,
    /// In-doubt attempts committed via a coordinator decision reply.
    pub indoubt_committed: u64,
    /// In-doubt attempts resolved by presumed abort via a decision reply.
    pub indoubt_aborted: u64,
}

/// A storage shard: version chains, lock table and per-attempt state for
/// its slice of the key space, plus the write-ahead log those are
/// rebuilt from after a crash.
#[derive(Debug)]
pub struct Shard {
    id: u32,
    /// Version chains, oldest first (insertion keeps `ts` sorted).
    versions: BTreeMap<Var, Vec<Version>>,
    locks: BTreeMap<Var, Lock>,
    txns: BTreeMap<TxnId, TxnState>,
    /// Initial values of the key space (vars absent here start at `Int(0)`).
    init: BTreeMap<Var, Value>,
    /// The write-ahead log; survives crashes.
    wal: Wal,
    /// Whether prewrites and lock intents reach the WAL. Decisions are
    /// always logged; see the module docs for the `no-wal` model.
    durable: bool,
    /// Request ids of shard-originated [`Request::QueryDecision`]s.
    next_req: u64,
    /// Recovery observability counters; survive crashes (they describe the
    /// run, not the node).
    recovery: RecoveryStats,
}

impl Shard {
    /// Creates shard `id` over the given initial values, with a durable
    /// write-ahead log.
    pub fn new(id: u32, init: BTreeMap<Var, Value>) -> Self {
        Shard::with_durability(id, init, true)
    }

    /// Creates shard `id` with explicit durability: `durable = false`
    /// models the broken `no-wal` node that loses undecided prewrite
    /// state (and shared-lock intents) on crash.
    pub fn with_durability(id: u32, init: BTreeMap<Var, Value>, durable: bool) -> Self {
        Shard {
            id,
            versions: BTreeMap::new(),
            locks: BTreeMap::new(),
            txns: BTreeMap::new(),
            init,
            wal: Vec::new(),
            durable,
            next_req: 0,
            recovery: RecoveryStats::default(),
        }
    }

    /// Recovery observability counters of this shard.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// This shard's index in the cluster.
    pub fn id(&self) -> u32 {
        self.id
    }

    fn reply(&self, to: Addr, req_id: u64, reply: Reply) -> (Addr, Message) {
        (
            to,
            Message {
                from: Addr::Shard(self.id),
                req_id,
                payload: Payload::Reply(reply),
            },
        )
    }

    /// The version chain of `var`, lazily seeded with the initial version.
    fn chain(&mut self, var: Var) -> &mut Vec<Version> {
        let init = self.init.get(&var).cloned().unwrap_or_default();
        self.versions.entry(var).or_insert_with(|| {
            vec![Version {
                ts: 0,
                value: init,
                writer: None,
            }]
        })
    }

    /// The latest version with `ts <= snapshot` (the initial version is
    /// always present, so this never fails).
    fn read_at(&mut self, var: Var, snapshot: u64) -> Version {
        self.chain(var)
            .iter()
            .rev()
            .find(|v| v.ts <= snapshot)
            .cloned()
            .expect("initial version has ts 0")
    }

    /// Releases every lock held by `txn`.
    fn release_locks(&mut self, txn: TxnId) {
        self.locks.retain(|_, lock| {
            if lock.exclusive.is_some_and(|(t, _)| t == txn) {
                lock.exclusive = None;
            }
            lock.shared.remove(&txn);
            !lock.is_free()
        });
    }

    /// Appends a WAL record. `decision` records (commit/abort) always
    /// reach the log; prewrite and lock-intent records only on durable
    /// shards — that asymmetry *is* the `no-wal` bug under test.
    fn log(&mut self, rec: WalRecord) {
        let decision = matches!(rec, WalRecord::Commit { .. } | WalRecord::Abort { .. });
        if self.durable || decision {
            self.wal.push(rec);
        }
    }

    /// Takes `txn`'s exclusive locks and buffers its writes (the state
    /// change of a successful prewrite). Shared by the live handler and
    /// WAL replay.
    fn apply_prewrite(&mut self, txn: TxnId, start_ts: u64, writes: Vec<(Var, Value)>) {
        for (var, _) in &writes {
            self.locks.entry(*var).or_default().exclusive = Some((txn, start_ts));
        }
        self.txns.insert(txn, TxnState::Prewritten(writes));
    }

    /// Marks `txn` committed, installs its versions at `commit_ts` and
    /// releases its locks. Shared by the live handler, WAL replay and
    /// in-doubt decision application; callers guard against re-applying.
    fn apply_commit(&mut self, txn: TxnId, commit_ts: u64, writes: Vec<(Var, Value)>) {
        self.txns.insert(txn, TxnState::Committed);
        for (var, value) in writes {
            let chain = self.chain(var);
            let at = chain.partition_point(|v| v.ts <= commit_ts);
            chain.insert(
                at,
                Version {
                    ts: commit_ts,
                    value,
                    writer: Some(txn),
                },
            );
        }
        self.release_locks(txn);
    }

    /// Marks `txn` aborted and releases its locks. Shared by the live
    /// handler, WAL replay and presumed-abort decision application.
    fn apply_abort(&mut self, txn: TxnId) {
        self.txns.insert(txn, TxnState::Aborted);
        self.release_locks(txn);
    }

    /// Handles one request, returning the reply to send: every data-plane
    /// request is answered by exactly one message.
    pub fn handle(&mut self, from: Addr, req_id: u64, req: Request) -> (Addr, Message) {
        match req {
            Request::Read {
                txn,
                var,
                snapshot,
                lock,
            } => self.handle_read(from, req_id, txn, var, snapshot, lock),
            Request::Prewrite {
                txn,
                start_ts,
                writes,
                conflict_check,
            } => self.handle_prewrite(from, req_id, txn, start_ts, writes, conflict_check),
            Request::Commit { txn, commit_ts } => self.handle_commit(from, req_id, txn, commit_ts),
            Request::Abort { txn } => self.handle_abort(from, req_id, txn),
            // The router only ever addresses shards with data-plane requests.
            other => unreachable!("shard {} received a non-shard request: {other:?}", self.id),
        }
    }

    fn handle_read(
        &mut self,
        from: Addr,
        req_id: u64,
        txn: TxnId,
        var: Var,
        snapshot: Option<u64>,
        lock: bool,
    ) -> (Addr, Message) {
        // Dead-attempt guard: a duplicate read arriving after the attempt
        // was decided must not (re-)take a shared lock on its behalf. The
        // client has long moved on, so the served value is irrelevant —
        // only the absence of a stray lock matters.
        let decided = matches!(
            self.txns.get(&txn),
            Some(TxnState::Committed | TxnState::Aborted)
        );
        match snapshot {
            Some(s) => {
                // A not-yet-installed version could be visible at this
                // snapshot iff some other attempt holds an exclusive lock
                // taken before the snapshot was drawn; make the client wait
                // for that commit/abort to resolve.
                let blocked = self
                    .locks
                    .get(&var)
                    .and_then(|l| l.exclusive)
                    .is_some_and(|(holder, start_ts)| holder != txn && start_ts <= s);
                if blocked && !decided {
                    return self.reply(from, req_id, Reply::ReadLocked);
                }
                let v = self.read_at(var, s);
                self.reply(
                    from,
                    req_id,
                    Reply::ReadOk {
                        value: v.value,
                        writer: v.writer,
                    },
                )
            }
            None => {
                let held_by_other = self
                    .locks
                    .get(&var)
                    .and_then(|l| l.exclusive)
                    .is_some_and(|(holder, _)| holder != txn);
                if held_by_other && !decided {
                    // No-wait strict two-phase locking: abort the reader.
                    return self.reply(from, req_id, Reply::ReadConflict);
                }
                if lock && !decided && self.locks.entry(var).or_default().shared.insert(txn) {
                    self.log(WalRecord::ReadLock { txn, var });
                }
                let v = self.read_at(var, u64::MAX);
                self.reply(
                    from,
                    req_id,
                    Reply::ReadOk {
                        value: v.value,
                        writer: v.writer,
                    },
                )
            }
        }
    }

    fn handle_prewrite(
        &mut self,
        from: Addr,
        req_id: u64,
        txn: TxnId,
        start_ts: u64,
        writes: Vec<(Var, Value)>,
        conflict_check: bool,
    ) -> (Addr, Message) {
        // Idempotency / dead-attempt guards first.
        match self.txns.get(&txn) {
            Some(TxnState::Prewritten(_) | TxnState::Committed) => {
                return self.reply(from, req_id, Reply::PrewriteOk);
            }
            Some(TxnState::Aborted) => {
                return self.reply(from, req_id, Reply::PrewriteConflict);
            }
            None => {}
        }
        // Lock conflicts: any exclusive or shared holder other than us.
        let lock_conflict = writes.iter().any(|(var, _)| {
            self.locks.get(var).is_some_and(|l| {
                l.exclusive.is_some_and(|(t, _)| t != txn) || l.shared.iter().any(|&t| t != txn)
            })
        });
        // First-committer-wins: a version newer than our snapshot means a
        // concurrent writer already committed.
        let version_conflict = conflict_check
            && writes
                .iter()
                .any(|&(var, _)| self.chain(var).last().is_some_and(|v| v.ts > start_ts));
        if lock_conflict || version_conflict {
            return self.reply(from, req_id, Reply::PrewriteConflict);
        }
        self.log(WalRecord::Prewrite {
            txn,
            start_ts,
            writes: writes.clone(),
        });
        self.apply_prewrite(txn, start_ts, writes);
        self.reply(from, req_id, Reply::PrewriteOk)
    }

    fn handle_commit(
        &mut self,
        from: Addr,
        req_id: u64,
        txn: TxnId,
        commit_ts: u64,
    ) -> (Addr, Message) {
        match self.txns.get(&txn) {
            Some(TxnState::Prewritten(writes)) => {
                let writes = writes.clone();
                self.log(WalRecord::Commit {
                    txn,
                    commit_ts,
                    writes: writes.clone(),
                });
                self.apply_commit(txn, commit_ts, writes);
            }
            Some(TxnState::Committed | TxnState::Aborted) => {} // idempotent
            None => {
                // A read-only (serializable) participant: nothing to
                // install, just release the shared locks.
                self.log(WalRecord::Commit {
                    txn,
                    commit_ts,
                    writes: Vec::new(),
                });
                self.apply_commit(txn, commit_ts, Vec::new());
            }
        }
        self.reply(from, req_id, Reply::CommitOk)
    }

    fn handle_abort(&mut self, from: Addr, req_id: u64, txn: TxnId) -> (Addr, Message) {
        match self.txns.get(&txn) {
            Some(TxnState::Committed) => {
                // A commit decision is final; an abort for a committed
                // attempt can only be a stale duplicate from a lost race
                // and must not undo anything.
            }
            Some(TxnState::Aborted) => {} // idempotent: no duplicate record
            _ => {
                self.log(WalRecord::Abort { txn });
                self.apply_abort(txn);
            }
        }
        self.reply(from, req_id, Reply::AbortOk)
    }

    /// Simulates a crash of this node: all volatile state — version
    /// chains, the lock table, per-attempt state — is discarded. The WAL
    /// (and the observability counters, which describe the run rather
    /// than the node) survive.
    pub fn crash(&mut self) {
        self.versions.clear();
        self.locks.clear();
        self.txns.clear();
    }

    /// Restarts the node after a [`Shard::crash`]: rebuilds state by
    /// replaying the WAL in order, then returns one
    /// [`Request::QueryDecision`] per in-doubt attempt (prewritten in the
    /// log with no decision record), addressed to the attempt's
    /// coordinator.
    ///
    /// Replay reuses the guarded apply primitives of the live handlers,
    /// so it is idempotent: a lock only resurrects for an attempt that is
    /// still undecided after the *whole* log is applied, and no version
    /// is ever installed twice.
    pub fn restart(&mut self) -> Vec<(Addr, Message)> {
        let wal = std::mem::take(&mut self.wal);
        for rec in &wal {
            self.recovery.wal_replayed += 1;
            match rec {
                WalRecord::ReadLock { txn, var } => {
                    // Re-intend the shared lock; a later Commit/Abort
                    // record releases it again during this same replay.
                    if !matches!(
                        self.txns.get(txn),
                        Some(TxnState::Committed | TxnState::Aborted)
                    ) {
                        self.locks.entry(*var).or_default().shared.insert(*txn);
                    }
                }
                WalRecord::Prewrite {
                    txn,
                    start_ts,
                    writes,
                } => {
                    if !self.txns.contains_key(txn) {
                        self.apply_prewrite(*txn, *start_ts, writes.clone());
                    }
                }
                WalRecord::Commit {
                    txn,
                    commit_ts,
                    writes,
                } => {
                    if !matches!(self.txns.get(txn), Some(TxnState::Committed)) {
                        self.apply_commit(*txn, *commit_ts, writes.clone());
                    }
                }
                WalRecord::Abort { txn } => {
                    if !matches!(self.txns.get(txn), Some(TxnState::Committed)) {
                        self.apply_abort(*txn);
                    }
                }
            }
        }
        self.wal = wal;
        let in_doubt: Vec<TxnId> = self
            .txns
            .iter()
            .filter(|(_, st)| matches!(st, TxnState::Prewritten(_)))
            .map(|(txn, _)| *txn)
            .collect();
        in_doubt
            .into_iter()
            .map(|txn| {
                self.next_req += 1;
                (
                    Addr::Client(txn.client),
                    Message {
                        from: Addr::Shard(self.id),
                        req_id: self.next_req,
                        payload: Payload::Request(Request::QueryDecision { txn }),
                    },
                )
            })
            .collect()
    }

    /// Applies a coordinator's [`Reply::Decision`] to an in-doubt attempt.
    /// Only a still-prewritten attempt is affected — duplicated, stale or
    /// raced decisions are dropped (a decision never changes once made,
    /// so this is safe, not just convenient).
    pub fn on_decision(&mut self, txn: TxnId, decision: Decision) {
        if !matches!(self.txns.get(&txn), Some(TxnState::Prewritten(_))) {
            return;
        }
        match decision {
            Decision::Committed(commit_ts) => {
                let Some(TxnState::Prewritten(writes)) = self.txns.get(&txn).cloned() else {
                    unreachable!("state checked above");
                };
                self.log(WalRecord::Commit {
                    txn,
                    commit_ts,
                    writes: writes.clone(),
                });
                self.apply_commit(txn, commit_ts, writes);
                self.recovery.indoubt_committed += 1;
            }
            Decision::Aborted => {
                self.log(WalRecord::Abort { txn });
                self.apply_abort(txn);
                self.recovery.indoubt_aborted += 1;
            }
            Decision::InProgress => {} // the ordinary protocol decides it
        }
    }

    /// Checks the shard's internal recovery invariants, returning a
    /// description of the first breach found: every exclusive lock is
    /// held by a prewritten (undecided) attempt, no shared lock belongs
    /// to a decided attempt (no resurrected locks), and every version
    /// chain is `ts`-sorted starting at the initial version with at most
    /// one version per installing attempt (no duplicate installs).
    pub fn check_invariants(&self) -> Result<(), String> {
        for (var, lock) in &self.locks {
            if lock.is_free() {
                return Err(format!("shard {}: empty lock entry for {var:?}", self.id));
            }
            if let Some((t, _)) = lock.exclusive {
                if !matches!(self.txns.get(&t), Some(TxnState::Prewritten(_))) {
                    return Err(format!(
                        "shard {}: exclusive lock on {var:?} held by non-prewritten {t:?}",
                        self.id
                    ));
                }
            }
            for t in &lock.shared {
                if matches!(
                    self.txns.get(t),
                    Some(TxnState::Committed | TxnState::Aborted)
                ) {
                    return Err(format!(
                        "shard {}: resurrected shared lock on {var:?} by decided {t:?}",
                        self.id
                    ));
                }
            }
        }
        for (var, chain) in &self.versions {
            if chain.first().map(|v| (v.ts, v.writer)) != Some((0, None)) {
                return Err(format!(
                    "shard {}: chain of {var:?} does not start at the initial version",
                    self.id
                ));
            }
            let mut writers = BTreeSet::new();
            for (a, b) in chain.iter().zip(chain.iter().skip(1)) {
                if a.ts > b.ts {
                    return Err(format!(
                        "shard {}: chain of {var:?} is not ts-sorted ({} > {})",
                        self.id, a.ts, b.ts
                    ));
                }
            }
            for v in chain.iter().filter(|v| v.writer.is_some()) {
                if !writers.insert(v.writer) {
                    return Err(format!(
                        "shard {}: duplicate version install of {var:?} by {:?}",
                        self.id, v.writer
                    ));
                }
                let writer = v.writer.expect("filtered to writer.is_some() above");
                if !matches!(self.txns.get(&writer), Some(TxnState::Committed)) {
                    return Err(format!(
                        "shard {}: {var:?} version installed by uncommitted {:?}",
                        self.id, v.writer
                    ));
                }
            }
        }
        Ok(())
    }

    /// Whether the shard holds any locks (used by end-of-run stranded-lock
    /// checks: once every client finished, all locks must be released).
    pub fn holds_locks(&self) -> bool {
        !self.locks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(c: u32, a: u32) -> TxnId {
        TxnId {
            client: c,
            attempt: a,
        }
    }

    fn expect_reply((_, reply): (Addr, Message)) -> Reply {
        match reply.payload {
            Payload::Reply(r) => r,
            other => panic!("expected a reply, got {other:?}"),
        }
    }

    fn prewrite(
        shard: &mut Shard,
        t: TxnId,
        start_ts: u64,
        var: Var,
        v: i64,
        check: bool,
    ) -> Reply {
        expect_reply(shard.handle(
            Addr::Client(t.client),
            1,
            Request::Prewrite {
                txn: t,
                start_ts,
                writes: vec![(var, Value::Int(v))],
                conflict_check: check,
            },
        ))
    }

    fn commit(shard: &mut Shard, t: TxnId, ts: u64) -> Reply {
        expect_reply(shard.handle(
            Addr::Client(t.client),
            2,
            Request::Commit {
                txn: t,
                commit_ts: ts,
            },
        ))
    }

    fn read_snapshot(shard: &mut Shard, t: TxnId, var: Var, s: u64) -> Reply {
        expect_reply(shard.handle(
            Addr::Client(t.client),
            3,
            Request::Read {
                txn: t,
                var,
                snapshot: Some(s),
                lock: false,
            },
        ))
    }

    #[test]
    fn snapshot_reads_see_the_version_at_their_timestamp() {
        let x = Var(0);
        let mut shard = Shard::new(0, BTreeMap::from([(x, Value::Int(7))]));
        let t = txn(0, 0);
        assert_eq!(prewrite(&mut shard, t, 1, x, 10, true), Reply::PrewriteOk);
        assert_eq!(commit(&mut shard, t, 5), Reply::CommitOk);
        // Snapshot below the commit sees init; at or above sees the write.
        assert_eq!(
            read_snapshot(&mut shard, txn(1, 1), x, 4),
            Reply::ReadOk {
                value: Value::Int(7),
                writer: None
            }
        );
        assert_eq!(
            read_snapshot(&mut shard, txn(1, 1), x, 5),
            Reply::ReadOk {
                value: Value::Int(10),
                writer: Some(t)
            }
        );
    }

    #[test]
    fn snapshot_reads_wait_on_possibly_visible_locks() {
        let x = Var(0);
        let mut shard = Shard::new(0, BTreeMap::new());
        let writer = txn(0, 0);
        assert_eq!(
            prewrite(&mut shard, writer, 3, x, 1, true),
            Reply::PrewriteOk
        );
        // Reader with snapshot >= the lock's start_ts must wait…
        assert_eq!(
            read_snapshot(&mut shard, txn(1, 1), x, 8),
            Reply::ReadLocked
        );
        // …but a snapshot from before the writer even started reads around.
        assert_eq!(
            read_snapshot(&mut shard, txn(1, 1), x, 2),
            Reply::ReadOk {
                value: Value::Int(0),
                writer: None
            }
        );
        assert_eq!(commit(&mut shard, writer, 9), Reply::CommitOk);
        assert_eq!(
            read_snapshot(&mut shard, txn(1, 1), x, 8),
            Reply::ReadOk {
                value: Value::Int(0),
                writer: None
            }
        );
    }

    #[test]
    fn first_committer_wins_rejects_stale_prewrites() {
        let x = Var(0);
        let mut shard = Shard::new(0, BTreeMap::new());
        let first = txn(0, 0);
        assert_eq!(
            prewrite(&mut shard, first, 1, x, 1, true),
            Reply::PrewriteOk
        );
        assert_eq!(commit(&mut shard, first, 4), Reply::CommitOk);
        // A concurrent writer that started before the commit is rejected…
        assert_eq!(
            prewrite(&mut shard, txn(1, 1), 2, x, 2, true),
            Reply::PrewriteConflict
        );
        // …unless the conflict check is off (the weakened protocol).
        assert_eq!(
            prewrite(&mut shard, txn(2, 2), 2, x, 3, false),
            Reply::PrewriteOk
        );
    }

    #[test]
    fn locking_reads_conflict_with_exclusive_locks_and_block_prewrites() {
        let x = Var(0);
        let mut shard = Shard::new(0, BTreeMap::new());
        let reader = txn(0, 0);
        // Shared lock via a locking read.
        assert_eq!(
            expect_reply(shard.handle(
                Addr::Client(0),
                1,
                Request::Read {
                    txn: reader,
                    var: x,
                    snapshot: None,
                    lock: true,
                },
            )),
            Reply::ReadOk {
                value: Value::Int(0),
                writer: None
            }
        );
        // Another attempt's prewrite hits the shared lock.
        assert_eq!(
            prewrite(&mut shard, txn(1, 1), 0, x, 1, false),
            Reply::PrewriteConflict
        );
        // After the reader commits (releasing locks), the prewrite goes
        // through, and a new locking read now hits the exclusive lock.
        assert_eq!(commit(&mut shard, reader, 0), Reply::CommitOk);
        assert_eq!(
            prewrite(&mut shard, txn(1, 2), 0, x, 1, false),
            Reply::PrewriteOk
        );
        assert_eq!(
            expect_reply(shard.handle(
                Addr::Client(2),
                9,
                Request::Read {
                    txn: txn(2, 3),
                    var: x,
                    snapshot: None,
                    lock: true,
                },
            )),
            Reply::ReadConflict
        );
    }

    #[test]
    fn duplicate_and_late_messages_are_harmless() {
        let x = Var(0);
        let mut shard = Shard::new(0, BTreeMap::new());
        let t = txn(0, 0);
        assert_eq!(prewrite(&mut shard, t, 1, x, 1, true), Reply::PrewriteOk);
        // Duplicate prewrite: still Ok, no double bookkeeping.
        assert_eq!(prewrite(&mut shard, t, 1, x, 1, true), Reply::PrewriteOk);
        assert_eq!(commit(&mut shard, t, 3), Reply::CommitOk);
        // Duplicate commit: idempotent, no second version.
        assert_eq!(commit(&mut shard, t, 3), Reply::CommitOk);
        assert_eq!(shard.versions[&x].len(), 2);
        // Late duplicate prewrite after commit: Ok but no lock comes back.
        assert_eq!(prewrite(&mut shard, t, 1, x, 1, true), Reply::PrewriteOk);
        assert!(shard.locks.is_empty());
        // A late abort for a committed attempt must not undo the commit.
        assert_eq!(
            expect_reply(shard.handle(Addr::Client(0), 7, Request::Abort { txn: t })),
            Reply::AbortOk
        );
        assert_eq!(shard.txns[&t], TxnState::Committed);

        // Aborted attempts stay dead: late prewrites conflict, late locking
        // reads do not leave a stray shared lock behind.
        let dead = txn(1, 1);
        assert_eq!(
            expect_reply(shard.handle(Addr::Client(1), 8, Request::Abort { txn: dead })),
            Reply::AbortOk
        );
        assert_eq!(
            prewrite(&mut shard, dead, 5, x, 9, true),
            Reply::PrewriteConflict
        );
        assert!(matches!(
            expect_reply(shard.handle(
                Addr::Client(1),
                9,
                Request::Read {
                    txn: dead,
                    var: x,
                    snapshot: None,
                    lock: true,
                },
            )),
            Reply::ReadOk { .. }
        ));
        assert!(shard.locks.is_empty());
    }

    fn abort(shard: &mut Shard, t: TxnId) -> Reply {
        expect_reply(shard.handle(Addr::Client(t.client), 4, Request::Abort { txn: t }))
    }

    fn query_targets(msgs: &[(Addr, Message)]) -> Vec<TxnId> {
        msgs.iter()
            .map(|(to, m)| match (&m.payload, to) {
                (Payload::Request(Request::QueryDecision { txn }), Addr::Client(c)) => {
                    assert_eq!(*c, txn.client, "query must go to the coordinator");
                    *txn
                }
                other => panic!("expected a decision query, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn recovery_replays_the_wal_and_queries_in_doubt_attempts() {
        let (x, y) = (Var(0), Var(1));
        let mut shard = Shard::new(0, BTreeMap::from([(x, Value::Int(7))]));
        let done = txn(0, 1);
        let in_doubt = txn(1, 1);
        // One attempt commits before the crash, another is prewritten.
        assert_eq!(
            prewrite(&mut shard, done, 1, x, 10, true),
            Reply::PrewriteOk
        );
        assert_eq!(commit(&mut shard, done, 3), Reply::CommitOk);
        assert_eq!(
            prewrite(&mut shard, in_doubt, 4, y, 20, true),
            Reply::PrewriteOk
        );
        shard.crash();
        assert!(shard.versions.is_empty() && shard.locks.is_empty() && shard.txns.is_empty());
        let queries = shard.restart();
        shard.check_invariants().expect("shard invariants hold");
        // Committed data is back, the in-doubt lock is resurrected, and
        // exactly the undecided attempt is queried.
        assert_eq!(
            read_snapshot(&mut shard, txn(2, 9), x, 3),
            Reply::ReadOk {
                value: Value::Int(10),
                writer: Some(done)
            }
        );
        assert_eq!(query_targets(&queries), vec![in_doubt]);
        assert_eq!(
            read_snapshot(&mut shard, txn(2, 9), y, 9),
            Reply::ReadLocked
        );
        // The coordinator answers Committed: the write installs once.
        shard.on_decision(in_doubt, Decision::Committed(6));
        shard.check_invariants().expect("shard invariants hold");
        assert_eq!(
            read_snapshot(&mut shard, txn(2, 9), y, 9),
            Reply::ReadOk {
                value: Value::Int(20),
                writer: Some(in_doubt)
            }
        );
        assert_eq!(shard.recovery_stats().indoubt_committed, 1);
        assert!(shard.recovery_stats().wal_replayed >= 3);
        // Crashing again replays the decision too — nothing is in doubt.
        shard.crash();
        assert!(shard.restart().is_empty());
        shard.check_invariants().expect("shard invariants hold");
        assert_eq!(shard.versions[&y].len(), 2, "no duplicate install");
    }

    #[test]
    fn presumed_abort_discards_the_recovered_prewrite() {
        let x = Var(0);
        let mut shard = Shard::new(0, BTreeMap::new());
        let t = txn(0, 1);
        assert_eq!(prewrite(&mut shard, t, 1, x, 5, true), Reply::PrewriteOk);
        shard.crash();
        let queries = shard.restart();
        assert_eq!(query_targets(&queries), vec![t]);
        shard.on_decision(t, Decision::Aborted);
        shard.check_invariants().expect("shard invariants hold");
        assert!(shard.locks.is_empty(), "presumed abort releases locks");
        assert_eq!(shard.recovery_stats().indoubt_aborted, 1);
        // The decision is final: a late duplicate prewrite conflicts, a
        // duplicate decision is a no-op, and InProgress never mutates.
        assert_eq!(
            prewrite(&mut shard, t, 1, x, 5, true),
            Reply::PrewriteConflict
        );
        shard.on_decision(t, Decision::Committed(9));
        assert!(shard.versions.get(&x).is_none_or(|c| c.len() == 1));
        let fresh = txn(2, 2);
        assert_eq!(
            prewrite(&mut shard, fresh, 2, x, 6, true),
            Reply::PrewriteOk
        );
        shard.on_decision(fresh, Decision::InProgress);
        assert_eq!(
            shard.txns[&fresh],
            TxnState::Prewritten(vec![(x, Value::Int(6))])
        );
    }

    #[test]
    fn shared_lock_intents_survive_crashes_until_decided() {
        let x = Var(0);
        let mut shard = Shard::new(0, BTreeMap::new());
        let reader = txn(0, 1);
        expect_reply(shard.handle(
            Addr::Client(0),
            1,
            Request::Read {
                txn: reader,
                var: x,
                snapshot: None,
                lock: true,
            },
        ));
        shard.crash();
        assert!(
            shard.restart().is_empty(),
            "shared locks are not 2PC in-doubt"
        );
        shard.check_invariants().expect("shard invariants hold");
        // The resurrected shared lock still blocks writers…
        assert_eq!(
            prewrite(&mut shard, txn(1, 2), 0, x, 1, false),
            Reply::PrewriteConflict
        );
        // …until the reader's commit (resent by the client) releases it.
        assert_eq!(commit(&mut shard, reader, 0), Reply::CommitOk);
        shard.crash();
        shard.restart();
        shard.check_invariants().expect("shard invariants hold");
        assert!(
            !shard.holds_locks(),
            "no resurrected lock for a decided read"
        );
        assert_eq!(
            prewrite(&mut shard, txn(1, 3), 0, x, 1, false),
            Reply::PrewriteOk
        );
    }

    #[test]
    fn volatile_shard_forgets_prewrites_and_violates_first_committer_wins() {
        let x = Var(0);
        let mut shard = Shard::with_durability(0, BTreeMap::new(), false);
        let a = txn(0, 1);
        let b = txn(1, 1);
        assert_eq!(prewrite(&mut shard, a, 1, x, 10, true), Reply::PrewriteOk);
        shard.crash();
        assert!(
            shard.restart().is_empty(),
            "nothing in doubt: the WAL lost it"
        );
        // The concurrent writer now sneaks past the lost lock…
        assert_eq!(prewrite(&mut shard, b, 2, x, 20, true), Reply::PrewriteOk);
        assert_eq!(commit(&mut shard, b, 5), Reply::CommitOk);
        // …and a's commit arrives to a shard that no longer knows its
        // writes: a is marked committed but installs nothing — the lost
        // update the checker must catch end to end.
        assert_eq!(commit(&mut shard, a, 6), Reply::CommitOk);
        shard.check_invariants().expect("shard invariants hold");
        assert_eq!(shard.versions[&x].len(), 2, "only b's version exists");
        // Decisions are still durable on the volatile shard: replaying
        // after another crash keeps b's version and a's decision.
        shard.crash();
        shard.restart();
        shard.check_invariants().expect("shard invariants hold");
        assert_eq!(shard.versions[&x].len(), 2);
        assert_eq!(shard.txns[&a], TxnState::Committed);
    }

    #[test]
    fn aborted_attempts_stay_dead_across_crashes() {
        let x = Var(0);
        let mut shard = Shard::new(0, BTreeMap::new());
        let t = txn(0, 1);
        assert_eq!(prewrite(&mut shard, t, 1, x, 5, true), Reply::PrewriteOk);
        assert_eq!(abort(&mut shard, t), Reply::AbortOk);
        shard.crash();
        assert!(shard.restart().is_empty(), "aborted attempt is decided");
        shard.check_invariants().expect("shard invariants hold");
        assert!(
            !shard.holds_locks(),
            "no resurrected lock for an aborted attempt"
        );
        // A late duplicate prewrite (e.g. a network duplicate delivered
        // after the restart) must not resurrect the attempt.
        assert_eq!(
            prewrite(&mut shard, t, 1, x, 5, true),
            Reply::PrewriteConflict
        );
        assert!(!shard.holds_locks());
    }

    #[test]
    fn read_only_serializable_commit_releases_shared_locks() {
        let x = Var(0);
        let mut shard = Shard::new(0, BTreeMap::new());
        let t = txn(0, 0);
        expect_reply(shard.handle(
            Addr::Client(0),
            1,
            Request::Read {
                txn: t,
                var: x,
                snapshot: None,
                lock: true,
            },
        ));
        assert!(!shard.locks.is_empty());
        assert_eq!(commit(&mut shard, t, 0), Reply::CommitOk);
        assert!(shard.locks.is_empty());
    }
}
