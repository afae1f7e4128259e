//! The deterministic simulation loop: a seeded event queue carrying every
//! message and timer of the deployment, with fault injection on the wire.
//!
//! The entire run is a function of `(program, deployment, num_shards,
//! seed, fault plan, retry policy)`: all scheduler state lives in ordered
//! containers, ties in the event queue are broken by a monotone sequence
//! number, and the only randomness is a single [`StdRng`] seeded from the
//! run seed (network delays and faults) plus per-client jitter streams
//! derived from it. Replaying a config therefore reproduces the exact same
//! message trace, the same commit order, and a bit-identical recorded
//! [`History`] — which is what makes checker verdicts on simulated runs
//! debuggable.
//!
//! Faults applied per message send, in order: partition (dropped while a
//! partition window covers the endpoint pair), random drop, duplication,
//! base delay, and a reorder spike (occasionally inflating one copy's
//! delay so it overtakes later traffic).
//!
//! Crash faults are scheduled, not random: every [`Crash`](crate::Crash)
//! window of the plan becomes a `Crash` event at its start (the shard
//! drops its volatile state) and a `Restart` event at its end (the shard
//! replays its WAL and queries coordinators about in-doubt attempts).
//! While a shard is down, messages addressed to it are dropped *at
//! delivery time* — the network buffered them, but nobody was listening.
//! Only shards crash: the oracle and the clients model the durable side of
//! the deployment. Shard invariants
//! ([`Shard::check_invariants`](crate::Shard)) are asserted after every
//! restart and at the end of the run; breaches are reported in
//! [`SimOutcome::invariant_breaches`] rather than panicking, so the
//! `simulate` binary can surface them as failures.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use txdpor_history::{History, LevelSpec, VarTable};
use txdpor_program::Program;

use crate::client::{Client, ClientError, CommittedTx, Effects, RetryPolicy, TimerKind};
use crate::deploy::Deployment;
use crate::fault::FaultPlan;
use crate::msg::{Addr, Message, Payload, Reply};
use crate::recorder::record;
use crate::server::{Oracle, Shard};

/// Everything a simulation run is a function of.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The client program (one session per client).
    pub program: Program,
    /// Mode assignment and isolation claims of the cluster.
    pub deployment: Deployment,
    /// Number of storage shards (variables are hashed across them).
    pub num_shards: u32,
    /// Seed of the network and jitter randomness.
    pub seed: u64,
    /// The fault plan applied to every message.
    pub faults: FaultPlan,
    /// Client timeout/retry/backoff parameters.
    pub retry: RetryPolicy,
    /// Hard cap on simulated time; runs that exceed it stop (clients that
    /// have not finished simply stop contributing transactions).
    pub max_sim_time_us: u64,
}

impl SimConfig {
    /// A config with default shards (3), retry policy, and time cap.
    pub fn new(program: Program, deployment: Deployment, seed: u64, faults: FaultPlan) -> Self {
        SimConfig {
            program,
            deployment,
            num_shards: 3,
            seed,
            faults,
            retry: RetryPolicy::default(),
            max_sim_time_us: 120_000_000,
        }
    }
}

/// Counters of one run, for JSON rows and smoke checks.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages enqueued on the wire (including duplicates).
    pub messages: u64,
    /// Messages lost to partitions or random drops.
    pub dropped: u64,
    /// Messages duplicated by the network.
    pub duplicated: u64,
    /// RPC resends performed by clients after timeouts.
    pub rpc_resends: u64,
    /// Attempts aborted by conflicts or timeout budgets.
    pub attempts_aborted: u64,
    /// Transactions that committed.
    pub committed: u64,
    /// Transactions abandoned after the retry budget.
    pub given_up: u64,
    /// Simulated time consumed, in microseconds.
    pub sim_time_us: u64,
    /// Shard crashes injected by the fault plan.
    pub crashes: u64,
    /// Messages dropped because their destination shard was down.
    pub crash_drops: u64,
    /// WAL records replayed across all shard recoveries.
    pub wal_replayed: u64,
    /// In-doubt attempts resolved to commit by a coordinator decision.
    pub indoubt_committed: u64,
    /// In-doubt attempts resolved by the presumed-abort rule.
    pub indoubt_aborted: u64,
}

/// The result of a run: the recorded history, its claimed spec, and run
/// statistics.
#[derive(Debug)]
pub struct SimOutcome {
    /// The committed execution, in commit-decision order.
    pub history: History,
    /// The variable interner shared by program and history.
    pub vars: VarTable,
    /// The deployment's claimed isolation spec for this history.
    pub claimed: LevelSpec,
    /// Run counters.
    pub stats: SimStats,
    /// Typed client failures (retry exhaustion, body errors).
    pub errors: Vec<ClientError>,
    /// Shard-invariant breaches detected after a restart or at the end of
    /// the run (empty on a healthy run — including every honest crashy
    /// run; a breach means the recovery path itself is broken).
    pub invariant_breaches: Vec<String>,
}

#[derive(Debug)]
enum SimEvent {
    Deliver { dst: Addr, msg: Message },
    Timer { client: u32, kind: TimerKind },
    Crash { shard: u32 },
    Restart { shard: u32 },
}

#[derive(Debug)]
struct QueuedEvent {
    time: u64,
    seq: u64,
    ev: SimEvent,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    /// Reversed so the `BinaryHeap` pops the *earliest* event; ties broken
    /// by insertion order for determinism.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

struct Network {
    rng: StdRng,
    faults: FaultPlan,
    num_shards: u32,
    nodes: u32,
    seq: u64,
    queue: BinaryHeap<QueuedEvent>,
    messages: u64,
    dropped: u64,
    duplicated: u64,
}

impl Network {
    fn push(&mut self, time: u64, ev: SimEvent) {
        self.seq += 1;
        self.queue.push(QueuedEvent {
            time,
            seq: self.seq,
            ev,
        });
    }

    /// Puts a message on the wire, applying the fault plan.
    fn send(&mut self, now: u64, from: Addr, to: Addr, msg: Message) {
        let (a, b) = (
            from.node_index(self.num_shards),
            to.node_index(self.num_shards),
        );
        if self.faults.partitioned(a, b, now, self.nodes) {
            self.dropped += 1;
            return;
        }
        if self.rng.gen_bool(self.faults.drop) {
            self.dropped += 1;
            return;
        }
        if self.rng.gen_bool(self.faults.dup) {
            self.duplicated += 1;
            self.deliver(now, to, msg.clone());
        }
        self.deliver(now, to, msg);
    }

    /// Schedules the delivery of one copy of a message: base delay plus an
    /// occasional reorder spike.
    fn deliver(&mut self, now: u64, to: Addr, msg: Message) {
        let mut delay = self
            .rng
            .gen_range(self.faults.delay_us.0..=self.faults.delay_us.1);
        if self.rng.gen_bool(self.faults.reorder) {
            delay += self.rng.gen_range(0..=self.faults.reorder_extra_us);
        }
        self.messages += 1;
        self.push(now + delay.max(1), SimEvent::Deliver { dst: to, msg });
    }

    /// Applies the side effects of a client step at time `now`, leaving
    /// the buffer empty for the next step.
    fn apply(&mut self, now: u64, client: u32, fx: &mut Effects) {
        for (to, msg) in fx.sends.drain(..) {
            self.send(now, Addr::Client(client), to, msg);
        }
        for (delay, kind) in fx.timers.drain(..) {
            self.push(now + delay.max(1), SimEvent::Timer { client, kind });
        }
    }
}

/// Runs one simulation to completion (all clients done, queue drained, or
/// the time cap reached) and records the committed execution.
///
/// The loop keeps no buffers of its own per message step: shard and
/// oracle handlers return their one reply, a message is moved into its
/// last copy on the wire, and the client steps share one effects buffer. The run is
/// bit-identical to [`run_simulation_traced`] on the same config; only
/// the list of decision points is not kept.
pub fn run_simulation(config: &SimConfig) -> SimOutcome {
    run(config, None)
}

/// Like [`run_simulation`], additionally returning the sorted distinct
/// simulated times (µs) at which events were processed — the decision
/// points a crash-at-every-step sweep can target. Recording them is the
/// only difference: the outcome equals `run_simulation`'s.
pub fn run_simulation_traced(config: &SimConfig) -> (SimOutcome, Vec<u64>) {
    let mut trace = Vec::new();
    let outcome = run(config, Some(&mut trace));
    (outcome, trace)
}

/// The simulation loop, pushing each distinct processing time to `trace`
/// when one is given.
fn run(config: &SimConfig, mut trace: Option<&mut Vec<u64>>) -> SimOutcome {
    let mut vars = VarTable::new();
    let init = config.program.initial_values_interned(&mut vars);
    let num_clients = config.program.sessions.len() as u32;

    let mut shards: Vec<Shard> = (0..config.num_shards)
        .map(|i| {
            Shard::with_durability(i, init.iter().cloned().collect(), config.deployment.durable)
        })
        .collect();
    let mut oracle = Oracle::new();
    let mut clients: Vec<Client> = config
        .program
        .sessions
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let txs = s.transactions.clone();
            let modes = txs
                .iter()
                .map(|t| config.deployment.mode_of(&t.name))
                .collect();
            Client::new(
                i as u32,
                txs,
                modes,
                config.retry,
                config.num_shards,
                config.seed,
            )
        })
        .collect();

    let mut net = Network {
        rng: StdRng::seed_from_u64(config.seed),
        faults: config.faults.clone(),
        num_shards: config.num_shards,
        nodes: config.num_shards + 1 + num_clients,
        seq: 0,
        queue: BinaryHeap::new(),
        messages: 0,
        dropped: 0,
        duplicated: 0,
    };

    let mut committed: Vec<CommittedTx> = Vec::new();
    let mut errors: Vec<ClientError> = Vec::new();
    let mut invariant_breaches: Vec<String> = Vec::new();
    let mut crashes_injected = 0u64;
    let mut crash_drops = 0u64;

    // Crash schedules are part of the plan, not of the random stream:
    // every window becomes one Crash and one Restart event up front, so
    // they land at exactly the planned times regardless of traffic.
    for c in &config.faults.crashes {
        let shard = c.node % config.num_shards;
        net.push(c.from_us, SimEvent::Crash { shard });
        net.push(c.until_us, SimEvent::Restart { shard });
    }

    // One buffer for every client step of the run, drained by `apply`.
    let mut fx = Effects::default();
    for (i, client) in clients.iter_mut().enumerate() {
        client.start(&mut vars, &mut committed, &mut errors, &mut fx);
        net.apply(0, i as u32, &mut fx);
    }

    let mut now = 0u64;
    while let Some(qe) = net.queue.pop() {
        if qe.time > config.max_sim_time_us {
            break;
        }
        if clients.iter().all(|c| c.is_done()) {
            break;
        }
        now = qe.time;
        if let Some(trace) = trace.as_deref_mut() {
            if trace.last() != Some(&now) {
                trace.push(now);
            }
        }
        match qe.ev {
            SimEvent::Crash { shard } => {
                crashes_injected += 1;
                shards[shard as usize].crash();
            }
            SimEvent::Restart { shard } => {
                let queries = shards[shard as usize].restart();
                if let Err(e) = shards[shard as usize].check_invariants() {
                    invariant_breaches.push(format!("shard {shard} after restart at {now}µs: {e}"));
                }
                for (to, msg) in queries {
                    net.send(now, Addr::Shard(shard), to, msg);
                }
            }
            SimEvent::Deliver { dst, msg } => match dst {
                Addr::Shard(i) => {
                    // A crashed shard processes nothing: traffic addressed
                    // to it during the outage is dropped on delivery.
                    if config.faults.crashed(i, now, config.num_shards) {
                        crash_drops += 1;
                    } else {
                        match msg.payload {
                            Payload::Request(req) => {
                                let (to, reply) =
                                    shards[i as usize].handle(msg.from, msg.req_id, req);
                                net.send(now, dst, to, reply);
                            }
                            // A coordinator's answer to a recovery query.
                            Payload::Reply(Reply::Decision { txn, decision }) => {
                                shards[i as usize].on_decision(txn, decision);
                            }
                            Payload::Reply(_) => {}
                        }
                    }
                }
                Addr::Oracle => {
                    if let Payload::Request(req) = msg.payload {
                        let (to, reply) = oracle.handle(msg.from, msg.req_id, &req);
                        net.send(now, dst, to, reply);
                    }
                }
                Addr::Client(c) => {
                    clients[c as usize].on_message(
                        msg,
                        &mut vars,
                        &mut committed,
                        &mut errors,
                        &mut fx,
                    );
                    net.apply(now, c, &mut fx);
                }
            },
            SimEvent::Timer { client, kind } => {
                clients[client as usize].on_timer(
                    kind,
                    &mut vars,
                    &mut committed,
                    &mut errors,
                    &mut fx,
                );
                net.apply(now, client, &mut fx);
            }
        }
    }

    // End-of-run shard audit. Once every client is done, every attempt is
    // decided *and acknowledged* (commit/abort resends are unlimited), so
    // no shard may still hold a lock — a held lock here is a resurrected
    // one, exactly the bug class recovery must not introduce.
    for shard in &shards {
        if let Err(e) = shard.check_invariants() {
            invariant_breaches.push(format!("shard {} at end of run: {e}", shard.id()));
        }
    }
    if clients.iter().all(|c| c.is_done()) {
        for shard in &shards {
            if shard.holds_locks() {
                invariant_breaches.push(format!(
                    "shard {} holds locks after all clients finished (stranded or resurrected lock)",
                    shard.id()
                ));
            }
        }
    }

    let given_up = errors
        .iter()
        .filter(|e| matches!(e, ClientError::RetriesExhausted { .. }))
        .count() as u64;
    let recovery = shards
        .iter()
        .map(|s| s.recovery_stats())
        .fold((0u64, 0u64, 0u64), |acc, r| {
            (
                acc.0 + r.wal_replayed,
                acc.1 + r.indoubt_committed,
                acc.2 + r.indoubt_aborted,
            )
        });
    let stats = SimStats {
        messages: net.messages,
        dropped: net.dropped,
        duplicated: net.duplicated,
        rpc_resends: clients.iter().map(|c| c.rpc_resends).sum(),
        attempts_aborted: clients.iter().map(|c| c.attempts_aborted).sum(),
        committed: committed.len() as u64,
        given_up,
        sim_time_us: now,
        crashes: crashes_injected,
        crash_drops,
        wal_replayed: recovery.0,
        indoubt_committed: recovery.1,
        indoubt_aborted: recovery.2,
    };
    let (history, claimed) = record(&committed, init, &config.deployment);
    SimOutcome {
        history,
        vars,
        claimed,
        stats,
        errors,
        invariant_breaches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txdpor_program::dsl::*;

    fn counter_program(sessions: usize, bumps: usize) -> Program {
        let mut ss = Vec::new();
        for _ in 0..sessions {
            let txs = (0..bumps)
                .map(|_| {
                    tx(
                        "bump",
                        vec![read("a", g("x")), write(g("x"), add(local("a"), cint(1)))],
                    )
                })
                .collect();
            ss.push(session(txs));
        }
        program(ss)
    }

    #[test]
    fn fault_free_serializable_run_commits_everything() {
        let cfg = SimConfig::new(
            counter_program(3, 2),
            Deployment::ser(),
            7,
            FaultPlan::none(),
        );
        let out = run_simulation(&cfg);
        assert_eq!(out.stats.committed, 6);
        assert_eq!(out.stats.given_up, 0);
        assert!(out.errors.is_empty());
        assert!(
            out.claimed.satisfies(&out.history),
            "serializable deployment must produce a serializable history"
        );
    }

    #[test]
    fn same_seed_same_history_different_seed_usually_differs() {
        let cfg = SimConfig::new(
            counter_program(3, 2),
            Deployment::si(),
            11,
            FaultPlan::preset("lossy").expect("lossy is a built-in preset"),
        );
        let a = run_simulation(&cfg);
        let b = run_simulation(&cfg);
        assert_eq!(a.history.fingerprint_hash(), b.history.fingerprint_hash());
        assert_eq!(a.stats, b.stats);
    }
}
