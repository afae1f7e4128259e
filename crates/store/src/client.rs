//! The client driver: one per session, executing its transaction sequence
//! against the cluster over RPCs with timeout/retry/exponential backoff.
//!
//! A client is a message-driven state machine. Each program transaction is
//! run as a sequence of *attempts*; an attempt that hits a conflict
//! (prewrite rejection, locking-read conflict) or an RPC timeout budget is
//! aborted everywhere it touched and retried after a jittered exponential
//! backoff, up to [`RetryPolicy::max_attempts`] — then the client gives up
//! on that transaction with a typed [`ClientError`] instead of panicking.
//!
//! The transaction body runs on the repo-wide interpreter of the
//! operational semantics, a [`TxCursor`] (`txdpor_program::semantics`).
//! Each attempt starts a fresh cursor and steps it, logging every write and
//! internal read as a [`ClientEvent`], until it reaches an external read;
//! the read's reply resumes the same cursor. Only external reads suspend
//! the body, and nothing is re-executed.
//!
//! Commit protocol (two-phase, Percolator-shaped): prewrite all written
//! shards (acquiring exclusive locks), then draw a commit timestamp, then
//! commit everywhere. **The commit decision point is the receipt of the
//! commit timestamp**: from there the attempt is recorded as committed and
//! `Commit` messages are resent indefinitely (the decision cannot be
//! rolled back, so the protocol keeps pushing until every shard learns
//! it). `Abort` messages are likewise resent until acknowledged by every
//! touched shard, which prevents stranded locks.
//!
//! The client is also the 2PC *coordinator's decision record*: every
//! commit decision is remembered (attempt → commit timestamp), and a shard
//! recovering from a crash may ask about an in-doubt attempt with
//! [`Request::QueryDecision`]. The answer follows the presumed-abort rule:
//! `Committed(ts)` if the decision was recorded, `InProgress` if the
//! queried attempt is the client's current attempt and still before its
//! decision point, and `Aborted` otherwise — no recorded commit means the
//! attempt did not and will never commit.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use txdpor_history::{Value, Var, VarTable};
use txdpor_program::{SemanticsError, TransactionDef, TxCursor, TxStep};

use crate::deploy::ProtocolMode;
use crate::msg::{Addr, Decision, Message, Payload, Reply, Request, TxnId};

/// Timeout, retry and backoff parameters of the client driver.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Backoff before the second attempt, in microseconds.
    pub base_us: u64,
    /// Multiplicative backoff growth per attempt.
    pub factor: u64,
    /// Upper bound of the (pre-jitter) backoff.
    pub cap_us: u64,
    /// Attempts per transaction before giving up with a typed error.
    pub max_attempts: u32,
    /// Relative jitter: the backoff is scaled by a uniform factor in
    /// `[1 - jitter_frac, 1 + jitter_frac]`.
    pub jitter_frac: f64,
    /// RPC timeout before a resend, in microseconds.
    pub rpc_timeout_us: u64,
    /// Resends of a single RPC before the attempt is abandoned (commit and
    /// abort RPCs are exempt — they resend until acknowledged).
    pub max_rpc_resends: u32,
    /// Delay before retrying a read that hit an in-flight commit's lock.
    pub locked_retry_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_us: 200,
            factor: 2,
            cap_us: 20_000,
            max_attempts: 25,
            jitter_frac: 0.2,
            rpc_timeout_us: 4_000,
            max_rpc_resends: 8,
            locked_retry_us: 300,
        }
    }
}

impl RetryPolicy {
    /// The jittered backoff before attempt `attempt + 1` (so `attempt` is
    /// the 1-based number of the attempt that just failed). The pre-jitter
    /// value is `min(cap_us, base_us * factor^(attempt-1))`; jitter scales
    /// it by a uniform factor in `[1 - jitter_frac, 1 + jitter_frac]`
    /// drawn from `rng`, and the result is at least 1 µs.
    pub fn backoff_us(&self, attempt: u32, rng: &mut StdRng) -> u64 {
        let exp = attempt.saturating_sub(1).min(63);
        let raw = self
            .base_us
            .saturating_mul(self.factor.saturating_pow(exp))
            .min(self.cap_us);
        let u: f64 = rng.gen();
        let scale = 1.0 + self.jitter_frac * (2.0 * u - 1.0);
        ((raw as f64 * scale) as u64).max(1)
    }
}

/// A typed client-driver failure, reported in
/// [`SimOutcome::errors`](crate::simulation::SimOutcome) instead of
/// panicking the simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// A transaction still conflicted (or timed out) after the policy's
    /// final attempt; the client gave it up and moved on.
    RetriesExhausted {
        /// The session (client) that gave up.
        session: u32,
        /// Program index of the abandoned transaction in its session.
        tx_index: usize,
        /// Name of the abandoned transaction type.
        name: String,
        /// How many attempts were made.
        attempts: u32,
    },
    /// The transaction body failed to evaluate (a workload bug, not a
    /// protocol bug); the client stops.
    Body {
        /// The session that hit the error.
        session: u32,
        /// Name of the offending transaction type.
        name: String,
        /// The evaluation error.
        detail: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::RetriesExhausted {
                session,
                tx_index,
                name,
                attempts,
            } => write!(
                f,
                "session {session} gave up on transaction {tx_index} ({name}) after {attempts} attempts"
            ),
            ClientError::Body {
                session,
                name,
                detail,
            } => write!(f, "session {session}: body of {name} failed to evaluate: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// One event of an attempt's local log, mirroring the history event kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientEvent {
    /// A read. `external` reads came over the network (their `writer` is
    /// the attempt whose version was served, `None` for init); internal
    /// reads observed the attempt's own earlier write.
    Read {
        /// Variable read.
        var: Var,
        /// Value observed.
        value: Value,
        /// Installing attempt of the served version (`None` for init;
        /// meaningless for internal reads).
        writer: Option<TxnId>,
        /// Whether the read was served over the network.
        external: bool,
    },
    /// A buffered write.
    Write {
        /// Variable written.
        var: Var,
        /// Value written.
        value: Value,
    },
}

/// A committed transaction as the client decided it, in commit-decision
/// order; the [`recorder`](crate::recorder) turns these into a `History`.
#[derive(Clone, Debug)]
pub struct CommittedTx {
    /// The session (client) that committed it.
    pub session: u32,
    /// Program index of the transaction within its session.
    pub program_index: usize,
    /// Transaction type name.
    pub name: String,
    /// The winning attempt.
    pub txn: TxnId,
    /// The protocol mode it ran under.
    pub mode: ProtocolMode,
    /// The attempt's event log.
    pub events: Vec<ClientEvent>,
}

/// A timer owned by a client.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TimerKind {
    /// RPC timeout for the request with this id.
    Rpc(u64),
    /// A backoff / locked-retry wake-up; stale generations are ignored.
    Wake(u64),
}

/// Side effects of one client step, applied to the network by the
/// simulation loop.
#[derive(Debug, Default)]
pub struct Effects {
    /// Messages to send: `(destination, message)`.
    pub sends: Vec<(Addr, Message)>,
    /// Timers to schedule: `(delay in µs, kind)`.
    pub timers: Vec<(u64, TimerKind)>,
}

/// An in-flight RPC.
#[derive(Clone, Debug)]
struct PendingRpc {
    to: Addr,
    req: Request,
    resends: u32,
    /// Commit/abort RPCs: resend until acknowledged, never time out.
    unlimited: bool,
}

/// What to do once an abort round-trip completes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum AfterAbort {
    /// The attempt failed: back off and retry the same transaction.
    RetryAttempt,
    /// The program aborted voluntarily: move on without retrying.
    NextTx,
}

#[derive(Clone, Debug)]
enum Phase {
    AwaitStartTs,
    AwaitRead {
        var: Var,
    },
    LockedWait {
        var: Var,
    },
    AwaitPrewrite {
        pending: BTreeSet<u32>,
        conflicted: bool,
    },
    AwaitCommitTs,
    Committing {
        pending: BTreeSet<u32>,
    },
    Aborting {
        pending: BTreeSet<u32>,
        then: AfterAbort,
    },
    BackoffWait,
    Done,
}

/// The per-session client driver. It runs each attempt's body on a
/// [`TxCursor`] of its own: a new attempt (a retry included) starts a fresh
/// one, and the cursor stays suspended at an external read until the
/// read's reply resumes it.
#[derive(Debug)]
pub struct Client {
    id: u32,
    txs: Vec<TransactionDef>,
    modes: Vec<ProtocolMode>,
    policy: RetryPolicy,
    num_shards: u32,
    rng: StdRng,

    cur: usize,
    attempt: u32,
    attempt_counter: u32,
    phase: Phase,

    txn: TxnId,
    start_ts: u64,
    /// The attempt's interpreter of the transaction body.
    cursor: TxCursor,
    events: Vec<ClientEvent>,
    touched: BTreeSet<u32>,
    next_req: u64,
    outstanding: BTreeMap<u64, PendingRpc>,
    wake_gen: u64,
    /// Coordinator decision record: attempt → commit timestamp, consulted
    /// by recovering shards via [`Request::QueryDecision`]. Absence of an
    /// entry means presumed abort (once the attempt is past its decision
    /// point).
    decisions: BTreeMap<u32, u64>,

    /// Total RPC resends performed (for run statistics).
    pub rpc_resends: u64,
    /// Attempts aborted due to conflicts or timeouts (for run statistics).
    pub attempts_aborted: u64,
}

impl Client {
    /// Creates the driver for session `id` running `txs` under the given
    /// per-transaction modes. The jitter stream is derived from the run
    /// seed and the client id, so runs are reproducible.
    pub fn new(
        id: u32,
        txs: Vec<TransactionDef>,
        modes: Vec<ProtocolMode>,
        policy: RetryPolicy,
        num_shards: u32,
        seed: u64,
    ) -> Self {
        assert_eq!(txs.len(), modes.len());
        assert!(num_shards > 0);
        let rng = StdRng::seed_from_u64(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(0xC1E5 + id as u64),
        );
        Client {
            id,
            txs,
            modes,
            policy,
            num_shards,
            rng,
            cur: 0,
            attempt: 0,
            attempt_counter: 0,
            phase: Phase::Done,
            txn: TxnId {
                client: id,
                attempt: 0,
            },
            start_ts: 0,
            cursor: TxCursor::new(),
            events: Vec::new(),
            touched: BTreeSet::new(),
            next_req: 0,
            outstanding: BTreeMap::new(),
            wake_gen: 0,
            decisions: BTreeMap::new(),
            rpc_resends: 0,
            attempts_aborted: 0,
        }
    }

    /// Whether the client has finished (or abandoned) its whole session.
    pub fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done) && self.cur >= self.txs.len()
    }

    fn mode(&self) -> ProtocolMode {
        self.modes[self.cur]
    }

    fn shard_of(&self, var: Var) -> u32 {
        var.0 % self.num_shards
    }

    fn addr(&self) -> Addr {
        Addr::Client(self.id)
    }

    /// Registers and emits an RPC, scheduling its timeout.
    fn send(&mut self, to: Addr, req: Request, unlimited: bool, fx: &mut Effects) {
        if let Addr::Shard(i) = to {
            self.touched.insert(i);
        }
        self.next_req += 1;
        let req_id = self.next_req;
        fx.sends.push((
            to,
            Message {
                from: self.addr(),
                req_id,
                payload: Payload::Request(req.clone()),
            },
        ));
        fx.timers
            .push((self.policy.rpc_timeout_us, TimerKind::Rpc(req_id)));
        self.outstanding.insert(
            req_id,
            PendingRpc {
                to,
                req,
                resends: 0,
                unlimited,
            },
        );
    }

    /// Kicks the client off (called once at simulation start).
    pub fn start(
        &mut self,
        vars: &mut VarTable,
        committed: &mut Vec<CommittedTx>,
        errors: &mut Vec<ClientError>,
        fx: &mut Effects,
    ) {
        if self.cur >= self.txs.len() {
            self.phase = Phase::Done;
            return;
        }
        self.start_attempt(vars, committed, errors, fx);
    }

    fn start_attempt(
        &mut self,
        vars: &mut VarTable,
        committed: &mut Vec<CommittedTx>,
        errors: &mut Vec<ClientError>,
        fx: &mut Effects,
    ) {
        self.attempt += 1;
        self.attempt_counter += 1;
        self.txn = TxnId {
            client: self.id,
            attempt: self.attempt_counter,
        };
        self.start_ts = 0;
        self.cursor = TxCursor::new();
        self.events.clear();
        self.touched.clear();
        self.outstanding.clear();
        if self.mode().snapshot_reads() {
            self.phase = Phase::AwaitStartTs;
            self.send(Addr::Oracle, Request::StartTs, false, fx);
        } else {
            self.step_body(vars, committed, errors, fx);
        }
    }

    fn next_tx(
        &mut self,
        vars: &mut VarTable,
        committed: &mut Vec<CommittedTx>,
        errors: &mut Vec<ClientError>,
        fx: &mut Effects,
    ) {
        self.cur += 1;
        self.attempt = 0;
        self.outstanding.clear();
        if self.cur >= self.txs.len() {
            self.phase = Phase::Done;
        } else {
            self.start_attempt(vars, committed, errors, fx);
        }
    }

    /// Resumes the attempt's cursor and acts on where the body stops: issue
    /// the external read's RPC, move to commit, or abort voluntarily.
    fn step_body(
        &mut self,
        vars: &mut VarTable,
        committed: &mut Vec<CommittedTx>,
        errors: &mut Vec<ClientError>,
        fx: &mut Effects,
    ) {
        match self.run_body(vars) {
            Ok(TxStep::Read { var, .. }) => {
                let snapshot = self.mode().snapshot_reads().then_some(self.start_ts);
                let lock = self.mode().lock_reads();
                self.phase = Phase::AwaitRead { var };
                self.send(
                    Addr::Shard(self.shard_of(var)),
                    Request::Read {
                        txn: self.txn,
                        var,
                        snapshot,
                        lock,
                    },
                    false,
                    fx,
                );
            }
            Ok(TxStep::Abort) => {
                self.abort_attempt(AfterAbort::NextTx, vars, committed, errors, fx)
            }
            // The commit: `run_body` consumes every write.
            Ok(_) => self.finish_body(vars, committed, errors, fx),
            Err(e) => self.body_failed(&e, errors),
        }
    }

    /// Steps the attempt's cursor through writes and internal reads,
    /// logging them, and returns the step it stops at: an external read,
    /// the commit or an abort.
    fn run_body(&mut self, vars: &mut VarTable) -> Result<TxStep, SemanticsError> {
        let def = &self.txs[self.cur];
        loop {
            match self.cursor.next(def, vars)? {
                TxStep::Read {
                    var,
                    internal_value: Some(value),
                } => {
                    self.events.push(ClientEvent::Read {
                        var,
                        value: value.clone(),
                        writer: None,
                        external: false,
                    });
                    self.cursor.read(def, value)?;
                }
                TxStep::Write { var, value } => {
                    self.events.push(ClientEvent::Write {
                        var,
                        value: value.clone(),
                    });
                    self.cursor.write(def, var, value)?;
                }
                stop => return Ok(stop),
            }
        }
    }

    /// The body failed to evaluate: report it and stop the session.
    fn body_failed(&mut self, e: &SemanticsError, errors: &mut Vec<ClientError>) {
        let detail = match e {
            SemanticsError::Eval(e) => e.to_string(),
            other => other.to_string(),
        };
        errors.push(ClientError::Body {
            session: self.id,
            name: self.txs[self.cur].name.clone(),
            detail,
        });
        self.cur = self.txs.len();
        self.phase = Phase::Done;
    }

    /// The final value of every variable the attempt wrote.
    fn write_set(&self) -> BTreeMap<Var, Value> {
        let mut ws = BTreeMap::new();
        for ev in &self.events {
            if let ClientEvent::Write { var, value } = ev {
                ws.insert(*var, value.clone());
            }
        }
        ws
    }

    /// Records the commit decision and starts pushing `Commit` everywhere
    /// the attempt touched.
    fn decide_commit(
        &mut self,
        commit_ts: u64,
        vars: &mut VarTable,
        committed: &mut Vec<CommittedTx>,
        errors: &mut Vec<ClientError>,
        fx: &mut Effects,
    ) {
        self.decisions.insert(self.txn.attempt, commit_ts);
        committed.push(CommittedTx {
            session: self.id,
            program_index: self.cur,
            name: self.txs[self.cur].name.clone(),
            txn: self.txn,
            mode: self.mode(),
            events: self.events.clone(),
        });
        let targets = self.touched.clone();
        if targets.is_empty() {
            self.next_tx(vars, committed, errors, fx);
            return;
        }
        self.outstanding.clear();
        for shard in &targets {
            self.send(
                Addr::Shard(*shard),
                Request::Commit {
                    txn: self.txn,
                    commit_ts,
                },
                true,
                fx,
            );
        }
        self.phase = Phase::Committing { pending: targets };
    }

    /// Body complete: prewrite the write set, or commit immediately when
    /// the attempt is read-only.
    fn finish_body(
        &mut self,
        vars: &mut VarTable,
        committed: &mut Vec<CommittedTx>,
        errors: &mut Vec<ClientError>,
        fx: &mut Effects,
    ) {
        let ws = self.write_set();
        if ws.is_empty() {
            // Read-only: nothing to install, the decision is immediate. A
            // locking-mode attempt still pushes `Commit` to release its
            // shared locks; snapshot-mode attempts touched nothing that
            // needs cleanup.
            if self.mode().lock_reads() {
                self.decide_commit(0, vars, committed, errors, fx);
            } else {
                committed.push(CommittedTx {
                    session: self.id,
                    program_index: self.cur,
                    name: self.txs[self.cur].name.clone(),
                    txn: self.txn,
                    mode: self.mode(),
                    events: self.events.clone(),
                });
                self.next_tx(vars, committed, errors, fx);
            }
            return;
        }
        let mut by_shard: BTreeMap<u32, Vec<(Var, Value)>> = BTreeMap::new();
        for (var, value) in ws {
            by_shard
                .entry(self.shard_of(var))
                .or_default()
                .push((var, value));
        }
        let pending: BTreeSet<u32> = by_shard.keys().copied().collect();
        for (shard, writes) in by_shard {
            self.send(
                Addr::Shard(shard),
                Request::Prewrite {
                    txn: self.txn,
                    start_ts: self.start_ts,
                    writes,
                    conflict_check: self.mode().conflict_check(),
                },
                false,
                fx,
            );
        }
        self.phase = Phase::AwaitPrewrite {
            pending,
            conflicted: false,
        };
    }

    /// Aborts the attempt everywhere it touched, then retries or moves on.
    fn abort_attempt(
        &mut self,
        then: AfterAbort,
        vars: &mut VarTable,
        committed: &mut Vec<CommittedTx>,
        errors: &mut Vec<ClientError>,
        fx: &mut Effects,
    ) {
        if then == AfterAbort::RetryAttempt {
            self.attempts_aborted += 1;
        }
        self.outstanding.clear();
        let targets = self.touched.clone();
        if targets.is_empty() {
            self.after_abort(then, vars, committed, errors, fx);
            return;
        }
        for shard in &targets {
            self.send(
                Addr::Shard(*shard),
                Request::Abort { txn: self.txn },
                true,
                fx,
            );
        }
        self.phase = Phase::Aborting {
            pending: targets,
            then,
        };
    }

    fn after_abort(
        &mut self,
        then: AfterAbort,
        vars: &mut VarTable,
        committed: &mut Vec<CommittedTx>,
        errors: &mut Vec<ClientError>,
        fx: &mut Effects,
    ) {
        match then {
            AfterAbort::NextTx => self.next_tx(vars, committed, errors, fx),
            AfterAbort::RetryAttempt => {
                if self.attempt >= self.policy.max_attempts {
                    errors.push(ClientError::RetriesExhausted {
                        session: self.id,
                        tx_index: self.cur,
                        name: self.txs[self.cur].name.clone(),
                        attempts: self.attempt,
                    });
                    self.next_tx(vars, committed, errors, fx);
                    return;
                }
                let delay = self.policy.backoff_us(self.attempt, &mut self.rng);
                self.wake_gen += 1;
                fx.timers.push((delay, TimerKind::Wake(self.wake_gen)));
                self.phase = Phase::BackoffWait;
            }
        }
    }

    /// The coordinator's verdict on one of its own attempts, following the
    /// presumed-abort rule (see the module docs).
    fn decision_of(&self, txn: TxnId) -> Decision {
        if let Some(&ts) = self.decisions.get(&txn.attempt) {
            return Decision::Committed(ts);
        }
        let before_decision_point = matches!(
            self.phase,
            Phase::AwaitStartTs
                | Phase::AwaitRead { .. }
                | Phase::LockedWait { .. }
                | Phase::AwaitPrewrite { .. }
                | Phase::AwaitCommitTs
        );
        if txn.attempt == self.attempt_counter && before_decision_point {
            Decision::InProgress
        } else {
            Decision::Aborted
        }
    }

    /// Handles a reply from a server, or a recovering shard's
    /// [`Request::QueryDecision`] about an in-doubt attempt.
    pub fn on_message(
        &mut self,
        msg: Message,
        vars: &mut VarTable,
        committed: &mut Vec<CommittedTx>,
        errors: &mut Vec<ClientError>,
        fx: &mut Effects,
    ) {
        let reply = match msg.payload {
            Payload::Reply(reply) => reply,
            Payload::Request(Request::QueryDecision { txn }) => {
                // Answer directly: no timer and no outstanding entry — a
                // lost answer is harmless because the ordinary
                // commit/abort resends resolve the attempt regardless
                // (the query is an accelerator, not a liveness
                // requirement).
                if txn.client == self.id {
                    fx.sends.push((
                        msg.from,
                        Message {
                            from: self.addr(),
                            req_id: msg.req_id,
                            payload: Payload::Reply(Reply::Decision {
                                txn,
                                decision: self.decision_of(txn),
                            }),
                        },
                    ));
                }
                return;
            }
            Payload::Request(_) => return, // clients serve nothing else
        };
        // Duplicate or stale replies have no outstanding entry: ignore.
        let Some(pending) = self.outstanding.remove(&msg.req_id) else {
            return;
        };
        let from_shard = match pending.to {
            Addr::Shard(i) => Some(i),
            _ => None,
        };
        match (&mut self.phase, reply) {
            (Phase::AwaitStartTs, Reply::Ts(ts)) => {
                self.start_ts = ts;
                self.step_body(vars, committed, errors, fx);
            }
            (Phase::AwaitCommitTs, Reply::Ts(ts)) => {
                self.decide_commit(ts, vars, committed, errors, fx);
            }
            (Phase::AwaitRead { var }, Reply::ReadOk { value, writer }) => {
                let var = *var;
                self.events.push(ClientEvent::Read {
                    var,
                    value: value.clone(),
                    writer,
                    external: true,
                });
                match self.cursor.read(&self.txs[self.cur], value) {
                    Ok(()) => self.step_body(vars, committed, errors, fx),
                    Err(e) => self.body_failed(&e, errors),
                }
            }
            (Phase::AwaitRead { var }, Reply::ReadLocked) => {
                let var = *var;
                self.wake_gen += 1;
                fx.timers
                    .push((self.policy.locked_retry_us, TimerKind::Wake(self.wake_gen)));
                self.phase = Phase::LockedWait { var };
            }
            (Phase::AwaitRead { .. }, Reply::ReadConflict) => {
                self.abort_attempt(AfterAbort::RetryAttempt, vars, committed, errors, fx);
            }
            (
                Phase::AwaitPrewrite {
                    pending: waiting,
                    conflicted,
                },
                r @ (Reply::PrewriteOk | Reply::PrewriteConflict),
            ) => {
                if let Some(shard) = from_shard {
                    waiting.remove(&shard);
                }
                if r == Reply::PrewriteConflict {
                    *conflicted = true;
                }
                if waiting.is_empty() {
                    if *conflicted {
                        self.abort_attempt(AfterAbort::RetryAttempt, vars, committed, errors, fx);
                    } else {
                        self.phase = Phase::AwaitCommitTs;
                        self.send(Addr::Oracle, Request::CommitTs, false, fx);
                    }
                }
            }
            (Phase::Committing { pending: waiting }, Reply::CommitOk) => {
                if let Some(shard) = from_shard {
                    waiting.remove(&shard);
                }
                if waiting.is_empty() {
                    self.next_tx(vars, committed, errors, fx);
                }
            }
            (
                Phase::Aborting {
                    pending: waiting,
                    then,
                },
                Reply::AbortOk,
            ) => {
                let then = *then;
                if let Some(shard) = from_shard {
                    waiting.remove(&shard);
                }
                if waiting.is_empty() {
                    self.after_abort(then, vars, committed, errors, fx);
                }
            }
            // Anything else is a reply that raced a phase change (e.g. a
            // PrewriteOk arriving after a sibling conflict already aborted
            // the attempt): the outstanding map was cleared at the
            // transition, so this arm is unreachable in practice, but
            // dropping the reply is always safe.
            _ => {}
        }
    }

    /// Handles one of the client's own timers.
    pub fn on_timer(
        &mut self,
        kind: TimerKind,
        vars: &mut VarTable,
        committed: &mut Vec<CommittedTx>,
        errors: &mut Vec<ClientError>,
        fx: &mut Effects,
    ) {
        match kind {
            TimerKind::Rpc(req_id) => {
                let Some(pending) = self.outstanding.get_mut(&req_id) else {
                    return; // answered or cancelled in the meantime
                };
                pending.resends += 1;
                if !pending.unlimited && pending.resends > self.policy.max_rpc_resends {
                    // The RPC budget is exhausted: treat it like a conflict
                    // and retry the whole attempt.
                    self.abort_attempt(AfterAbort::RetryAttempt, vars, committed, errors, fx);
                    return;
                }
                self.rpc_resends += 1;
                let (to, req) = (pending.to, pending.req.clone());
                fx.sends.push((
                    to,
                    Message {
                        from: self.addr(),
                        req_id,
                        payload: Payload::Request(req),
                    },
                ));
                fx.timers
                    .push((self.policy.rpc_timeout_us, TimerKind::Rpc(req_id)));
            }
            TimerKind::Wake(gen) => {
                if gen != self.wake_gen {
                    return; // stale wake-up from an earlier phase
                }
                match &self.phase {
                    Phase::BackoffWait => self.start_attempt(vars, committed, errors, fx),
                    Phase::LockedWait { var } => {
                        let var = *var;
                        let snapshot = self.mode().snapshot_reads().then_some(self.start_ts);
                        let lock = self.mode().lock_reads();
                        self.phase = Phase::AwaitRead { var };
                        self.send(
                            Addr::Shard(self.shard_of(var)),
                            Request::Read {
                                txn: self.txn,
                                var,
                                snapshot,
                                lock,
                            },
                            false,
                            fx,
                        );
                    }
                    _ => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mock clock: the tests accumulate the delays the policy asks for and
    /// assert on them directly — no real time is involved anywhere.
    #[test]
    fn backoff_grows_exponentially_and_respects_the_cap() {
        let policy = RetryPolicy {
            jitter_frac: 0.0,
            ..RetryPolicy::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let mut clock_us = 0u64;
        let mut previous = 0u64;
        for attempt in 1..=40 {
            let d = policy.backoff_us(attempt, &mut rng);
            assert!(d >= previous, "backoff must be monotone without jitter");
            assert!(
                d <= policy.cap_us,
                "attempt {attempt} exceeded the cap: {d}"
            );
            clock_us += d;
            previous = d;
        }
        // Without jitter the early doublings are exact.
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(policy.backoff_us(1, &mut rng), policy.base_us);
        assert_eq!(policy.backoff_us(2, &mut rng), policy.base_us * 2);
        assert_eq!(policy.backoff_us(3, &mut rng), policy.base_us * 4);
        // The mock clock never overflows even for absurd attempt counts.
        let mut rng = StdRng::seed_from_u64(1);
        clock_us += policy.backoff_us(u32::MAX, &mut rng);
        assert!(clock_us < u64::MAX / 2);
    }

    #[test]
    fn jitter_is_bounded_and_deterministic_under_seed() {
        let policy = RetryPolicy::default();
        let mut a = StdRng::seed_from_u64(77);
        let mut b = StdRng::seed_from_u64(77);
        let mut spread = std::collections::BTreeSet::new();
        for attempt in 1u32..=200 {
            let raw = policy
                .base_us
                .saturating_mul(
                    policy
                        .factor
                        .saturating_pow(attempt.saturating_sub(1).min(63)),
                )
                .min(policy.cap_us) as f64;
            let da = policy.backoff_us(attempt, &mut a);
            let db = policy.backoff_us(attempt, &mut b);
            assert_eq!(da, db, "same seed, same schedule");
            let lo = (raw * (1.0 - policy.jitter_frac) - 1.0) as u64;
            let hi = (raw * (1.0 + policy.jitter_frac) + 1.0) as u64;
            assert!(
                (lo..=hi).contains(&da),
                "attempt {attempt}: {da} not in [{lo}, {hi}]"
            );
            spread.insert(da);
        }
        assert!(spread.len() > 20, "jitter should actually vary the delays");
        // A different seed yields a different schedule.
        let mut c = StdRng::seed_from_u64(78);
        let differs = (1..=50).any(|k| {
            policy.backoff_us(k, &mut c) != {
                let mut a = StdRng::seed_from_u64(77);
                for _ in 1..k {
                    let _ = policy.backoff_us(1, &mut a);
                }
                policy.backoff_us(k, &mut a)
            }
        });
        assert!(differs);
    }

    #[test]
    fn gives_up_with_a_typed_error_after_max_attempts() {
        use txdpor_program::dsl::*;
        // One client, one transaction; every reply is thrown away, so every
        // attempt exhausts its RPC budget — the driver must give up with a
        // typed error (and must not panic or loop forever).
        let policy = RetryPolicy {
            max_attempts: 3,
            max_rpc_resends: 1,
            ..RetryPolicy::default()
        };
        let mut client = Client::new(
            0,
            vec![tx("t", vec![read("a", g("x")), write(g("x"), cint(1))])],
            vec![ProtocolMode::Snapshot],
            policy,
            1,
            42,
        );
        let mut vars = VarTable::new();
        let mut committed = Vec::new();
        let mut errors = Vec::new();
        // Mock clock: fire every scheduled timer in order, never deliver a
        // single reply.
        let mut timers: std::collections::VecDeque<TimerKind> = std::collections::VecDeque::new();
        let mut fx = Effects::default();
        client.start(&mut vars, &mut committed, &mut errors, &mut fx);
        timers.extend(fx.timers.drain(..).map(|(_, k)| k));
        let mut steps = 0;
        while let Some(kind) = timers.pop_front() {
            steps += 1;
            assert!(steps < 10_000, "driver must terminate");
            let mut fx = Effects::default();
            client.on_timer(kind, &mut vars, &mut committed, &mut errors, &mut fx);
            timers.extend(fx.timers.drain(..).map(|(_, k)| k));
        }
        assert!(client.is_done());
        assert!(committed.is_empty());
        assert_eq!(
            errors,
            vec![ClientError::RetriesExhausted {
                session: 0,
                tx_index: 0,
                name: "t".into(),
                attempts: 3,
            }]
        );
        assert_eq!(
            errors[0].to_string(),
            "session 0 gave up on transaction 0 (t) after 3 attempts"
        );
    }

    /// Sends a decision query for `(client 3, attempt)` and returns the
    /// answered decision, or `None` when the client stayed silent.
    fn query(c: &mut Client, from: u32, attempt: u32, vars: &mut VarTable) -> Option<Decision> {
        let (mut committed, mut errors) = (Vec::new(), Vec::new());
        let mut fx = Effects::default();
        c.on_message(
            Message {
                from: Addr::Shard(0),
                req_id: 99,
                payload: Payload::Request(Request::QueryDecision {
                    txn: TxnId {
                        client: from,
                        attempt,
                    },
                }),
            },
            vars,
            &mut committed,
            &mut errors,
            &mut fx,
        );
        assert!(committed.is_empty() && errors.is_empty());
        fx.sends.pop().map(|(to, m)| {
            assert_eq!(to, Addr::Shard(0), "answer goes back to the querier");
            match m.payload {
                Payload::Reply(Reply::Decision { txn, decision }) => {
                    assert_eq!(
                        txn,
                        TxnId {
                            client: from,
                            attempt
                        }
                    );
                    decision
                }
                other => panic!("expected a decision reply, got {other:?}"),
            }
        })
    }

    #[test]
    fn serves_coordinator_decisions_with_presumed_abort() {
        use txdpor_program::dsl::*;
        let mut c = Client::new(
            3,
            vec![tx("w", vec![write(g("x"), cint(1))])],
            vec![ProtocolMode::Snapshot],
            RetryPolicy::default(),
            1,
            7,
        );
        let mut vars = VarTable::new();
        let (mut committed, mut errors) = (Vec::new(), Vec::new());
        let deliver = |c: &mut Client, req_id: u64, reply: Reply, vars: &mut VarTable| {
            let (mut committed, mut errors) = (Vec::new(), Vec::new());
            let mut fx = Effects::default();
            c.on_message(
                Message {
                    from: Addr::Oracle,
                    req_id,
                    payload: Payload::Reply(reply),
                },
                vars,
                &mut committed,
                &mut errors,
                &mut fx,
            );
            assert!(errors.is_empty());
            committed
        };
        let mut fx = Effects::default();
        c.start(&mut vars, &mut committed, &mut errors, &mut fx);
        // Before the decision point, the current attempt is in progress…
        assert_eq!(query(&mut c, 3, 1, &mut vars), Some(Decision::InProgress));
        // …a query about someone else's attempt is not ours to answer…
        assert_eq!(query(&mut c, 2, 1, &mut vars), None);
        deliver(&mut c, 1, Reply::Ts(5), &mut vars); // start ts → prewrite (req 2)
        assert_eq!(query(&mut c, 3, 1, &mut vars), Some(Decision::InProgress));
        deliver(&mut c, 2, Reply::PrewriteOk, &mut vars); // → commit-ts (req 3)
        assert_eq!(query(&mut c, 3, 1, &mut vars), Some(Decision::InProgress));
        // …and receipt of the commit timestamp IS the decision point.
        let done = deliver(&mut c, 3, Reply::Ts(9), &mut vars);
        assert_eq!(done.len(), 1);
        assert_eq!(query(&mut c, 3, 1, &mut vars), Some(Decision::Committed(9)));
        deliver(&mut c, 4, Reply::CommitOk, &mut vars);
        assert!(c.is_done());
        // The decision record outlives the attempt; undecided past (or
        // unknown) attempts are presumed aborted.
        assert_eq!(query(&mut c, 3, 1, &mut vars), Some(Decision::Committed(9)));
        assert_eq!(query(&mut c, 3, 2, &mut vars), Some(Decision::Aborted));
    }

    /// Delivers `reply` to request `req_id` of `c`, as if from shard 0.
    fn reply(c: &mut Client, req_id: u64, reply: Reply, vars: &mut VarTable) -> Effects {
        let (mut committed, mut errors) = (Vec::new(), Vec::new());
        let mut fx = Effects::default();
        c.on_message(
            Message {
                from: Addr::Shard(0),
                req_id,
                payload: Payload::Reply(reply),
            },
            vars,
            &mut committed,
            &mut errors,
            &mut fx,
        );
        assert!(errors.is_empty(), "{errors:?}");
        fx
    }

    /// The requests of `fx`, with their ids.
    fn requests(fx: &Effects) -> Vec<(u64, Request)> {
        fx.sends
            .iter()
            .filter_map(|(_, m)| match &m.payload {
                Payload::Request(r) => Some((m.req_id, r.clone())),
                Payload::Reply(_) => None,
            })
            .collect()
    }

    /// A locking-read client on one shard running a body that writes x,
    /// reads it back internally, and under a guard on that read reads y
    /// externally and writes z from both reads.
    fn branching_client() -> Client {
        use txdpor_program::dsl::*;
        let body = vec![
            write(g("x"), cint(5)),
            read("a", g("x")), // internal
            iff(
                eq(local("a"), cint(5)),
                vec![
                    read("b", g("y")), // external
                    write(g("z"), add(local("a"), local("b"))),
                ],
            ),
        ];
        Client::new(
            0,
            vec![tx("t", body)],
            vec![ProtocolMode::Serializable],
            RetryPolicy::default(),
            1,
            3,
        )
    }

    #[test]
    fn step_body_logs_internal_reads_and_resumes_after_a_read() {
        let mut c = branching_client();
        let mut vars = VarTable::new();
        let (mut committed, mut errors) = (Vec::new(), Vec::new());
        let mut fx = Effects::default();
        c.start(&mut vars, &mut committed, &mut errors, &mut fx);
        let [x, y, z] = ["x", "y", "z"].map(|n| vars.intern(n));
        // The write and the internal read are logged; the guard holds, so
        // the body stops at the external read of y.
        let first = vec![
            ClientEvent::Write {
                var: x,
                value: Value::Int(5),
            },
            ClientEvent::Read {
                var: x,
                value: Value::Int(5),
                writer: None,
                external: false,
            },
        ];
        assert_eq!(c.events, first);
        let [(read_id, Request::Read { var, .. })] = requests(&fx)[..] else {
            panic!("expected one read request, got {:?}", requests(&fx));
        };
        assert_eq!(var, y);
        // The reply resumes the same cursor: z is written from both reads.
        let fx = reply(
            &mut c,
            read_id,
            Reply::ReadOk {
                value: Value::Int(7),
                writer: None,
            },
            &mut vars,
        );
        let mut want = first;
        want.push(ClientEvent::Read {
            var: y,
            value: Value::Int(7),
            writer: None,
            external: true,
        });
        want.push(ClientEvent::Write {
            var: z,
            value: Value::Int(12),
        });
        assert_eq!(c.events, want);
        let [(_, Request::Prewrite { writes, .. })] = &requests(&fx)[..] else {
            panic!("expected one prewrite, got {:?}", requests(&fx));
        };
        assert_eq!(writes, &vec![(x, Value::Int(5)), (z, Value::Int(12))]);
    }

    #[test]
    fn a_retried_attempt_restarts_its_cursor() {
        let mut c = branching_client();
        let mut vars = VarTable::new();
        let (mut committed, mut errors) = (Vec::new(), Vec::new());
        let mut fx = Effects::default();
        c.start(&mut vars, &mut committed, &mut errors, &mut fx);
        let first = c.events.clone();
        assert_eq!(first.len(), 2, "the write and the internal read");
        let [(read_id, Request::Read { txn, .. })] = requests(&fx)[..] else {
            panic!("expected one read request, got {:?}", requests(&fx));
        };
        // The locking read conflicts: the attempt aborts where it read…
        let fx = reply(&mut c, read_id, Reply::ReadConflict, &mut vars);
        let [(abort_id, Request::Abort { txn: aborted })] = requests(&fx)[..] else {
            panic!("expected one abort, got {:?}", requests(&fx));
        };
        assert_eq!(aborted, txn);
        assert_eq!(c.attempts_aborted, 1);
        // …backs off…
        let fx = reply(&mut c, abort_id, Reply::AbortOk, &mut vars);
        let [(_, wake @ TimerKind::Wake(_))] = fx.timers[..] else {
            panic!("expected one backoff timer, got {:?}", fx.timers);
        };
        // …and the next attempt logs the same write and internal read
        // again before it reads y under its own id.
        let mut fx = Effects::default();
        c.on_timer(wake, &mut vars, &mut committed, &mut errors, &mut fx);
        assert!(errors.is_empty());
        assert_eq!(c.events, first);
        let [(
            _,
            Request::Read {
                txn: retry, var, ..
            },
        )] = requests(&fx)[..]
        else {
            panic!("expected one read request, got {:?}", requests(&fx));
        };
        assert_eq!(var, vars.intern("y"));
        assert_eq!(
            retry,
            TxnId {
                client: 0,
                attempt: txn.attempt + 1
            }
        );
    }
}
