//! Deterministic test support: random well-formed histories and a
//! structural validator for evidence verdicts.
//!
//! These helpers back the cross-validation suites of this crate and the
//! decomposition property tests of `txdpor-analysis`; they are compiled
//! into the library (std-only, no test-only dependencies) so downstream
//! crates can reuse exactly the same corpus generators.

use crate::axioms;
use crate::check::{EdgeReason, Verdict};
use crate::event::{Event, EventId, EventKind};
use crate::history::History;
use crate::isolation::{IsolationLevel, LevelSpec};
use crate::transaction::{SessionId, TxId};
use crate::value::{Value, Var};

/// A tiny deterministic pseudo-random generator (xorshift), so corpus
/// generation does not need external crates.
#[derive(Clone, Debug)]
pub struct XorShift(pub u64);

impl XorShift {
    /// The next raw 64-bit state.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// A value uniform-ish in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Generates a small random history: `n_sessions` sessions, up to
/// `max_tx` transactions each, over `n_vars` variables. Reads pick an
/// arbitrary committed-so-far writer of the variable (or init), so the
/// result is always a well-formed history though not necessarily
/// consistent with any particular level. Every transaction commits.
pub fn random_history(seed: u64, n_sessions: u32, max_tx: u32, n_vars: u32) -> History {
    generate(seed, n_sessions, max_tx, n_vars, false)
}

/// Like [`random_history`], but a transaction may also abort, and the
/// last transaction of a session may stay pending. Reads still pick a
/// committed writer (or init): aborted and pending writes are never read.
/// The checkers treat pending and aborted transactions as readers like
/// any other (under SER, SI and PC they take snapshots too), which the
/// all-committed corpus never exercises.
pub fn random_history_with_pending_and_aborted(
    seed: u64,
    n_sessions: u32,
    max_tx: u32,
    n_vars: u32,
) -> History {
    generate(seed, n_sessions, max_tx, n_vars, true)
}

/// The generator behind [`random_history`] and
/// [`random_history_with_pending_and_aborted`]; the status draw is only
/// made when `unfinished` is set, so `random_history`'s stream and output
/// do not depend on it.
fn generate(seed: u64, n_sessions: u32, max_tx: u32, n_vars: u32, unfinished: bool) -> History {
    let mut rng = XorShift(seed.wrapping_mul(2654435761).wrapping_add(1));
    let mut h = History::new([]);
    let mut next_event = 0u32;
    let mut next_tx = 0u32;
    let mut committed_writers: Vec<(Var, TxId)> = Vec::new();
    let fresh = |next_event: &mut u32| {
        *next_event += 1;
        EventId(*next_event)
    };
    for s in 0..n_sessions {
        let n_tx = 1 + rng.below(max_tx as u64) as u32;
        for idx in 0..n_tx {
            next_tx += 1;
            let tx = TxId(next_tx);
            h.begin_transaction(
                SessionId(s),
                tx,
                idx as usize,
                Event::new(fresh(&mut next_event), EventKind::Begin),
            );
            let n_ops = 1 + rng.below(3);
            let mut wrote: Vec<Var> = Vec::new();
            for _ in 0..n_ops {
                let x = Var(rng.below(n_vars as u64) as u32);
                if rng.below(2) == 0 {
                    // write
                    let v = rng.below(5) as i64;
                    h.append_event(
                        SessionId(s),
                        Event::new(fresh(&mut next_event), EventKind::Write(x, Value::Int(v))),
                    );
                    wrote.push(x);
                } else {
                    // read; external only if not written before in this tx
                    let e = Event::new(fresh(&mut next_event), EventKind::Read(x));
                    let id = e.id;
                    h.append_event(SessionId(s), e);
                    if !wrote.contains(&x) {
                        let candidates: Vec<TxId> = std::iter::once(TxId::INIT)
                            .chain(
                                committed_writers
                                    .iter()
                                    .filter(|(y, _)| *y == x)
                                    .map(|(_, t)| *t),
                            )
                            .collect();
                        let pick = candidates[rng.below(candidates.len() as u64) as usize];
                        h.set_wr(id, pick);
                    }
                }
            }
            // A quarter of the transactions abort; a session's last one
            // stays pending with the same odds.
            let end = if !unfinished {
                Some(EventKind::Commit)
            } else {
                match rng.below(4) {
                    0 => Some(EventKind::Abort),
                    1 if idx + 1 == n_tx => None,
                    _ => Some(EventKind::Commit),
                }
            };
            let commits = end == Some(EventKind::Commit);
            if let Some(kind) = end {
                h.append_event(SessionId(s), Event::new(fresh(&mut next_event), kind));
            }
            if commits {
                for x in wrote {
                    committed_writers.push((x, tx));
                }
            }
        }
    }
    h
}

/// Draws a random per-transaction level assignment for the history: a
/// random default with roughly half the positions overridden, all seven
/// levels (PC, SI and `true` included) in the pool.
pub fn random_spec(seed: u64, h: &History) -> LevelSpec {
    let mut rng = XorShift(seed.wrapping_mul(0x9e3779b9).wrapping_add(0xabcdef));
    let n = IsolationLevel::ALL.len() as u64;
    let default = IsolationLevel::ALL[rng.below(n) as usize];
    let mut spec = LevelSpec::uniform(default);
    for (sid, txs) in h.sessions() {
        for k in 0..txs.len() {
            if rng.below(2) == 0 {
                let l = IsolationLevel::ALL[rng.below(n) as usize];
                spec = spec.with_override(sid.0, k as u32, l);
            }
        }
    }
    spec
}

/// The literal witness check: `order` is a permutation of the
/// transactions of `h` (init included), every `so` pair and every
/// transaction-level `wr` edge is ordered by it, and
/// [`axioms::axioms_hold_spec`] holds for it. This is the definition
/// [`axioms::check_with_order_spec`] decides in one pass over the reads;
/// the differential replay tests require the two to answer alike.
pub fn literal_check_with_order_spec(h: &History, spec: &LevelSpec, order: &[TxId]) -> bool {
    let co = axioms::CommitOrder::from_sequence(order);
    let txs: Vec<TxId> = std::iter::once(TxId::INIT).chain(h.tx_ids()).collect();
    co.len() == txs.len()
        && txs.iter().all(|t| order.contains(t))
        && txs
            .iter()
            .all(|&a| txs.iter().all(|&b| !h.so_before(a, b) || co.before(a, b)))
        && h.wr_tx_edges().into_iter().all(|(a, b)| co.before(a, b))
        && axioms::axioms_hold_spec(h, spec, &co)
}

/// Variants of a commit order for differential replay tests, each with its
/// name: two adjacent ids swapped, a window rotated by one, one id dropped,
/// one id duplicated, one id replaced by a foreign one. `seed` picks the
/// positions. Orders shorter than two ids get no swap or rotation.
pub fn perturbed_orders(h: &History, order: &[TxId], seed: u64) -> Vec<(&'static str, Vec<TxId>)> {
    let mut rng = XorShift(seed.wrapping_mul(0x2545f4914f6cdd1d).wrapping_add(7));
    let n = order.len() as u64;
    let mut out = Vec::new();
    if n >= 2 {
        let i = rng.below(n - 1) as usize;
        let mut swapped = order.to_vec();
        swapped.swap(i, i + 1);
        out.push(("swap", swapped));
        let from = rng.below(n - 1) as usize;
        let to = from + 2 + rng.below(n - from as u64 - 1) as usize;
        let mut rotated = order.to_vec();
        rotated[from..to].rotate_left(1);
        out.push(("rotate", rotated));
    }
    if n >= 1 {
        let mut dropped = order.to_vec();
        dropped.remove(rng.below(n) as usize);
        out.push(("drop", dropped));
        let mut duplicated = order.to_vec();
        let copy = duplicated[rng.below(n) as usize];
        duplicated.insert(rng.below(n + 1) as usize, copy);
        out.push(("duplicate", duplicated));
        let mut foreign = order.to_vec();
        foreign[rng.below(n) as usize] = TxId(h.max_tx_id() + 1);
        out.push(("foreign", foreign));
    }
    out
}

/// Validates an evidence verdict against the history it was produced
/// for: the witness must replay through the axiom-level oracle, the
/// violation cycle must be closed, simple, built from edges that
/// really exist (or axiom instances that really apply), and minimal —
/// dropping any single edge leaves the remaining edge set acyclic.
///
/// # Panics
///
/// Panics (with `ctx` in the message) on any structural defect.
pub fn assert_verdict_valid(
    h: &History,
    spec: &LevelSpec,
    verdict: &Verdict,
    expected: bool,
    ctx: &str,
) {
    match verdict {
        Verdict::Consistent(w) => {
            assert!(expected, "witness produced for an inconsistent {ctx}");
            assert!(
                w.replays(h, spec),
                "witness fails to replay for {ctx}: {w}\n{h}"
            );
        }
        Verdict::Inconsistent(v) => {
            assert!(!expected, "violation produced for a consistent {ctx}");
            assert!(!v.cycle.is_empty(), "empty violation cycle for {ctx}");
            let mut seen = std::collections::BTreeSet::new();
            for (k, e) in v.cycle.iter().enumerate() {
                let next = &v.cycle[(k + 1) % v.cycle.len()];
                assert_eq!(e.to, next.from, "cycle not closed for {ctx}: {v}");
                assert!(seen.insert(e.from), "cycle not simple for {ctx}: {v}");
                match &e.reason {
                    EdgeReason::SessionOrder => {
                        assert!(h.so_before(e.from, e.to), "bogus so edge for {ctx}: {v}");
                    }
                    EdgeReason::WriteRead => {
                        assert!(h.wr_tx_edge(e.from, e.to), "bogus wr edge for {ctx}: {v}");
                    }
                    EdgeReason::Forced(i) => {
                        assert!(
                            h.reads_from().iter().any(|(t3, _, x, t1)| *t3 == i.reader
                                && *x == i.var
                                && *t1 == i.source),
                            "axiom instance cites a non-existent read for {ctx}: {v}"
                        );
                        assert!(
                            h.writes_var(i.writer, i.var),
                            "axiom instance cites a non-writer for {ctx}: {v}"
                        );
                        assert!(
                            axioms::axioms_for(spec.level_of_tx(h, i.reader)).contains(&i.axiom),
                            "axiom instance outside the reader's level for {ctx}: {v}"
                        );
                    }
                    EdgeReason::Hypothesis => {
                        panic!("hypothesis edge on the committed corpus for {ctx}: {v}")
                    }
                }
            }
            // Minimality: dropping any one edge leaves an edge set with
            // no cycle at all (no vertex reaches itself).
            for drop in 0..v.cycle.len() {
                let rest: Vec<(TxId, TxId)> = v
                    .cycle
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| *k != drop)
                    .map(|(_, e)| (e.from, e.to))
                    .collect();
                for &(start, _) in &rest {
                    let mut frontier: Vec<TxId> = vec![start];
                    let mut reached = std::collections::BTreeSet::new();
                    while let Some(t) = frontier.pop() {
                        for &(a, b) in &rest {
                            if a == t && reached.insert(b) {
                                frontier.push(b);
                                assert_ne!(
                                    b, start,
                                    "cycle not minimal for {ctx}: \
                                     dropping edge {drop} leaves a cycle: {v}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
