//! Stateful consistency-checking engines.
//!
//! The exploration algorithms of the paper decide `h ∈ I` for a huge number
//! of *closely related* candidate histories: `ValidWrites` retries the same
//! trial history with every candidate writer, `Optimality` re-checks pruned
//! prefixes, and a swap only changes a suffix of the previous candidate.
//! The free functions in [`crate::check`] recompute everything from scratch
//! on every call; the engines here make the hot path incremental.
//!
//! There are two: [`TrivialEngine`] for uniform `true`, which accepts
//! everything, and [`Engine`] for every other spec, uniform or mixed. An
//! `Engine` picks the procedure of [`crate::check::mixed`] its spec needs
//! (forced-edge acyclicity alone, or the commit-order search) once, when
//! it is built, and adds two things:
//!
//! * **incrementally synced indexes** over the history it last saw
//!   (transaction vertex tables, writers-per-variable lists, axiom
//!   instances, word-packed reachability, the commit-order search's
//!   per-transaction view), kept current through the history's
//!   mutation-observer API — see *Syncing from the delta log* below — so a
//!   check after one appended event or one toggled wr edge pays delta
//!   cost, not a rebuild;
//! * a **result memo keyed by the rolling structural hash**
//!   ([`History::live_hash`]) folded with the spec's hash: the flat-arena
//!   history maintains the 128-bit key incrementally on every
//!   push/pop/set-wr, so a memo lookup is a load instead of a walk of the
//!   history. Re-deciding a history that is structurally equal to one seen
//!   before (e.g. the unchanged prefix re-reached after a rollback or a
//!   swap) is a single hash lookup.
//!
//! # Syncing from the delta log
//!
//! Each [`History`] exposes an identity ([`History::uid`], fresh per
//! `new`/`clone`), a per-mutation generation counter
//! ([`History::generation`]) and a bounded chronological log of
//! self-contained mutation records ([`History::deltas_since`], entries of
//! type [`crate::history::HistoryDelta`]); rollbacks emit the *inverse*
//! deltas of the operations they undo. Each index remembers the
//! `(uid, generation)` it is synced to and, on the next memo miss, replays
//! the missing window: forward deltas update the index and push an undo
//! record (dirtied reachability rows are saved first), inverse deltas pop
//! and restore those records in LIFO order — mirroring the history's own
//! checkpoint/undo journal — or, when the matching forward delta predates
//! the index's last rebuild, are applied destructively. Anything an index
//! cannot replay (another history's uid, a trimmed window, an
//! out-of-po-order wr insertion, a non-LIFO inverse) falls back to a full
//! rebuild. Every memo miss counts once: in
//! [`EngineStats::full_rebuilds`] if an index synced for it rebuilt, in
//! [`EngineStats::incremental_hits`] otherwise (an unchanged history
//! included), so the two add up to [`EngineStats::memo_misses`]. Each
//! rebuild is also counted under its cause in
//! [`EngineStats::rebuild_causes`] — the first index that rebuilt decides
//! it — so the causes add up to the rebuilds;
//! [`EngineStats::check_nanos`] is the time spent deciding misses.
//!
//! # Incrementality contract
//!
//! The memo assumes that consistency depends only on the structure the
//! rolling hash covers: per-session event sequences (`po`), session order,
//! written values and the `wr` relation by `(session, index)` writer
//! coordinates. This holds because the axioms of §2.2.2 only mention `po`,
//! `so`, `wr` and the existence of a commit order — never raw identifiers.
//! Unlike the canonical [`History::fingerprint_hash`], the rolling hash is
//! not invariant under *variable renaming* — irrelevant within one engine,
//! whose exploration interns variables consistently; renamed twins miss
//! the memo and simply recompute the same verdict.
//! Keys are hash-compacted to 128 bits (as classically done for
//! visited-state sets in stateless model checking), so a collision —
//! astronomically unlikely — could misclassify one history. The memo is a
//! direct-mapped table of 16-byte slots (the verdict is packed into one
//! key bit) that grows geometrically up to [`MEMO_CAPACITY`] slots;
//! colliding keys simply evict, so memory stays hard-bounded no matter how
//! long the exploration runs. Scratch buffers (the one-pass saturation
//! index of the weak readers, the state vector and failed-state set of the
//! commit-order search) likewise survive arbitrarily many
//! checkpoint/rollback cycles of the histories they are fed.

use std::sync::Arc;
use std::time::Instant;

use crate::check::evidence::{self, Verdict, Witness};
use crate::check::mixed;
use crate::check::shared::SharedMemo;
use crate::history::{History, HistoryDelta};
use crate::isolation::{IsolationLevel, LevelSpec};

/// Maximum number of slots of an engine's direct-mapped result memo
/// (16 bytes per slot: a hard 1 MiB ceiling per engine). The table starts
/// at `MEMO_INITIAL_SLOTS` and doubles while more than half full.
pub const MEMO_CAPACITY: usize = 1 << 16;

/// Initial slot count of the direct-mapped result memo.
const MEMO_INITIAL_SLOTS: usize = 1 << 10;

/// Counters exposed by every engine, for reporting and tests.
///
/// `check_nanos` is per-thread time: summed across parallel workers (via
/// [`EngineStats::absorb`]) it is CPU time, not wall time — see the field
/// documentation.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total number of `check` calls served.
    pub checks: u64,
    /// Number of calls answered from the fingerprint memo.
    pub memo_hits: u64,
    /// Number of calls that missed the memo (and ran the decision
    /// procedure). `checks = memo_hits + memo_misses` for memoised engines.
    pub memo_misses: u64,
    /// Number of memo insertions that overwrote a live entry with a
    /// different key (the direct-mapped table is lossy by design).
    pub memo_evictions: u64,
    /// Live entries of the memo table at observation time.
    pub memo_occupied: u64,
    /// Capacity (slots) of the memo table at observation time.
    pub memo_slots: u64,
    /// Memo misses decided without rebuilding an index: every index the
    /// decision needed replayed the history's deltas, or the history was
    /// the one decided last. Zero for [`TrivialEngine`], which has no
    /// indexes.
    pub incremental_hits: u64,
    /// Memo misses for which an index fell back to rebuilding from
    /// scratch. `incremental_hits + full_rebuilds = memo_misses` for
    /// [`Engine`].
    pub full_rebuilds: u64,
    /// `full_rebuilds`, split by why the first index that rebuilt for the
    /// miss could not sync incrementally; the causes sum to
    /// `full_rebuilds`.
    pub rebuild_causes: RebuildCauses,
    /// Memo hits served by the cross-worker [`SharedMemo`] (a subset of
    /// `memo_hits`): verdicts another worker published first. Zero for
    /// serial runs and engines without an attached shared memo.
    pub shared_memo_hits: u64,
    /// Total nanoseconds spent deciding memo misses (sync + decision
    /// procedure), measured on the thread running the engine. Memo hits
    /// are a single table probe and are not timed — an `Instant` pair per
    /// hit would dominate the hit itself.
    ///
    /// This is per-engine *CPU-side* time: [`absorb`](EngineStats::absorb)
    /// sums it across engines and workers, so on a parallel run the total
    /// is aggregate CPU time, not wall time — with 4 workers it can exceed
    /// the run's wall clock several-fold. Consumers that want wall time
    /// must measure it around the run (as the bench harness does), never
    /// derive it from this field.
    pub check_nanos: u64,
    /// Nodes visited by the commit-order search of SER, SI, PC and mixed
    /// specs: one per search call that found the commit order incomplete.
    /// A deterministic work counter, zero for specs without a strong
    /// level.
    pub search_nodes: u64,
}

impl EngineStats {
    /// Folds another engine's counters into this one (summing counts;
    /// occupancy and capacity add up across engines).
    pub fn absorb(&mut self, other: &EngineStats) {
        self.checks += other.checks;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.memo_evictions += other.memo_evictions;
        self.memo_occupied += other.memo_occupied;
        self.memo_slots += other.memo_slots;
        self.incremental_hits += other.incremental_hits;
        self.full_rebuilds += other.full_rebuilds;
        self.rebuild_causes.absorb(&other.rebuild_causes);
        self.shared_memo_hits += other.shared_memo_hits;
        // Summing per-thread nanoseconds yields aggregate CPU time (see
        // the field documentation) — callers wanting wall time must time
        // the run itself.
        self.check_nanos += other.check_nanos;
        self.search_nodes += other.search_nodes;
    }
}

/// Why an index synced for a memo miss rebuilt from scratch, counted once
/// per [`EngineStats::full_rebuilds`]: the first sync (or a history with
/// another [`History::uid`]), a sync generation trimmed out of the delta
/// window, or the kind of the first [`HistoryDelta`] the index could not
/// replay. Causes are recorded only on a rebuild, so the incremental path
/// pays nothing for them.
///
/// [`HistoryDelta`]: crate::history::HistoryDelta
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RebuildCauses {
    /// The index's first sync, or a history with another uid.
    pub first_sync: u64,
    /// The index's sync generation was no longer in the delta window.
    pub window: u64,
    /// A `Begin` delta the index could not replay.
    pub begin: u64,
    /// An `UndoBegin` delta the index could not replay.
    pub undo_begin: u64,
    /// An `Append` delta the index could not replay.
    pub append: u64,
    /// A `Pop` delta the index could not replay.
    pub pop: u64,
    /// A `SetWr` delta the index could not replay.
    pub set_wr: u64,
    /// An `UnsetWr` delta the index could not replay.
    pub unset_wr: u64,
}

impl RebuildCauses {
    /// Counts one rebuild of the given cause.
    pub(crate) fn record(&mut self, cause: RebuildCause) {
        *match cause {
            RebuildCause::FirstSync => &mut self.first_sync,
            RebuildCause::Window => &mut self.window,
            RebuildCause::Delta(HistoryDelta::Begin(_)) => &mut self.begin,
            RebuildCause::Delta(HistoryDelta::UndoBegin(_)) => &mut self.undo_begin,
            RebuildCause::Delta(HistoryDelta::Append(_)) => &mut self.append,
            RebuildCause::Delta(HistoryDelta::Pop(_)) => &mut self.pop,
            RebuildCause::Delta(HistoryDelta::SetWr(_)) => &mut self.set_wr,
            RebuildCause::Delta(HistoryDelta::UnsetWr(_)) => &mut self.unset_wr,
        } += 1;
    }

    /// The number of rebuilds counted, over all causes.
    pub fn total(&self) -> u64 {
        self.first_sync
            + self.window
            + self.begin
            + self.undo_begin
            + self.append
            + self.pop
            + self.set_wr
            + self.unset_wr
    }

    fn absorb(&mut self, other: &RebuildCauses) {
        self.first_sync += other.first_sync;
        self.window += other.window;
        self.begin += other.begin;
        self.undo_begin += other.undo_begin;
        self.append += other.append;
        self.pop += other.pop;
        self.set_wr += other.set_wr;
        self.unset_wr += other.unset_wr;
    }
}

/// Why one index rebuilt (see [`RebuildCauses`]).
#[derive(Copy, Clone, Debug)]
pub(crate) enum RebuildCause {
    /// First sync, or a history with another uid.
    FirstSync,
    /// The sync generation left the delta window.
    Window,
    /// The first delta the index could not replay.
    Delta(HistoryDelta),
}

/// A stateful decision procedure for `h ∈ I` at a fixed level
/// specification — one isolation level for every transaction (the paper's
/// setting), or a per-transaction [`LevelSpec`] assignment for mixed
/// workloads.
///
/// Engines are the unit of reuse of the checking layer: the exploration
/// algorithms create one engine per (spec, worker) and funnel every
/// consistency query of that worker through it, so scratch buffers and the
/// fingerprint memo amortise across the whole exploration. The stateless
/// entry points ([`crate::check::satisfies`],
/// [`IsolationLevel::satisfies`], [`LevelSpec::satisfies`]) remain as thin
/// wrappers over fresh indexes.
pub trait ConsistencyChecker: Send {
    /// The level specification this engine decides: uniform `true` for
    /// [`TrivialEngine`], the spec it was built for (uniform or mixed) for
    /// [`Engine`].
    fn spec(&self) -> LevelSpec;

    /// The single isolation level this engine decides.
    ///
    /// # Panics
    ///
    /// Panics for a genuinely mixed engine, which has no single level —
    /// use [`spec`](ConsistencyChecker::spec) there.
    fn level(&self) -> IsolationLevel {
        self.spec()
            .as_uniform()
            .expect("a mixed-level engine has no single isolation level")
    }

    /// Whether the history satisfies the engine's level specification
    /// (Definition 2.2, per-transaction for mixed specs).
    fn check(&mut self, h: &History) -> bool;

    /// Evidence-producing variant of [`check`](ConsistencyChecker::check):
    /// a [`Verdict`] carrying a replay-verifiable witness commit order on
    /// success, or a minimal cycle of `so`/`wr`/forced edges (with the
    /// axiom instances that forced them) on failure — see
    /// [`crate::check::evidence`].
    ///
    /// The boolean verdict comes from the memoised fast path (this call
    /// counts as a regular [`check`](ConsistencyChecker::check) in
    /// [`stats`](ConsistencyChecker::stats)). A consistent verdict carries
    /// the witness of the pass that decided it: the commit order the
    /// search recorded, or the order in which the acyclicity test of
    /// `so ∪ wr ∪ forced` peeled the transactions; a verdict served by
    /// the memo re-decides the history once on the engine's own indexes to
    /// get it. An inconsistent verdict's violation core is reconstructed on
    /// demand over fresh indexes ([`crate::check::evidence`]), so the
    /// 16-byte memo slots never store evidence.
    fn check_witnessed(&mut self, h: &History) -> Verdict;

    /// Attaches a cross-worker [`SharedMemo`]: the engine consults it
    /// before its private memo and publishes every fresh verdict to it,
    /// keyed by `live_hash ⊕ spec_hash` so verdicts decided under one spec
    /// are never served for another. The default is a no-op — engines
    /// without a memo (or with memoisation disabled) simply ignore it.
    fn attach_shared_memo(&mut self, _memo: Arc<SharedMemo>) {}

    /// Counters accumulated since creation (or the last [`reset`]).
    ///
    /// [`reset`]: ConsistencyChecker::reset
    fn stats(&self) -> EngineStats;

    /// Drops all memoised results and counters. Scratch allocations are
    /// kept.
    fn reset(&mut self);
}

/// Creates the engine for an isolation level, with result memoisation
/// enabled.
pub fn engine_for(level: IsolationLevel) -> Box<dyn ConsistencyChecker> {
    engine_for_with(level, true)
}

/// Creates the engine for an isolation level, choosing whether results are
/// memoised by fingerprint. Disabling memoisation reproduces the cost model
/// of the stateless free functions (used by the `no-memo` benchmark
/// configurations); scratch-buffer reuse stays on either way.
pub fn engine_for_with(level: IsolationLevel, memoize: bool) -> Box<dyn ConsistencyChecker> {
    engine_for_spec_with(&LevelSpec::uniform(level), memoize)
}

/// Creates the engine for a level specification, with result memoisation
/// enabled.
pub fn engine_for_spec(spec: &LevelSpec) -> Box<dyn ConsistencyChecker> {
    engine_for_spec_with(spec, true)
}

/// Creates the engine for a level specification: the [`TrivialEngine`] for
/// uniform `true`, an [`Engine`] for every other spec.
pub fn engine_for_spec_with(spec: &LevelSpec, memoize: bool) -> Box<dyn ConsistencyChecker> {
    match spec.as_uniform() {
        Some(IsolationLevel::Trivial) => Box::new(TrivialEngine::default()),
        _ => Box::new(Engine::new(spec.clone(), memoize)),
    }
}

/// The engine's result memo: a direct-mapped cache over 128-bit keys.
///
/// Keys are the [`History::live_hash`] — the rolling structural hash the
/// flat-arena history maintains incrementally — with the engine's spec
/// hash folded in, so a lookup costs a load and one table probe, no walk
/// and no allocation (hash compaction, as classically used for
/// visited-state sets in stateless model checking; the collision
/// probability is negligible at 127 bits — the lowest key
/// bit carries the memoised verdict). Slots hold `(key.0, key.1 | verdict)`
/// with `(0, 0)` as the empty sentinel; a colliding key overwrites the
/// previous occupant (lossy, never incorrect: verdicts are only trusted on
/// exact key matches). The table starts small and doubles while more than
/// half full, up to [`MEMO_CAPACITY`] slots — 16 bytes each, so an
/// engine's memo peaks at 1 MiB instead of the multi-megabyte id-keyed
/// map it replaces.
#[derive(Debug, Default)]
struct Memo {
    slots: Vec<(u64, u64)>,
    occupied: usize,
    enabled: bool,
    /// Cross-worker verdict table consulted before the private slots (and
    /// published to on every insert), under the same keys. `None` outside
    /// parallel exploration.
    shared: Option<Arc<SharedMemo>>,
    /// The engine's counters: the memo's own, plus the sync split and the
    /// deciding time that [`Engine::check`] adds.
    stats: EngineStats,
}

impl Memo {
    fn new(enabled: bool) -> Self {
        Memo {
            slots: Vec::new(),
            occupied: 0,
            enabled,
            shared: None,
            stats: EngineStats::default(),
        }
    }

    /// Looks up a key (the history's [`History::live_hash`] folded with
    /// the engine's spec hash), returning either the memoised
    /// verdict or the key to insert the freshly computed verdict under
    /// (`None` when memoisation is disabled). The shared cross-worker
    /// table, when attached, is consulted before the private slots — a
    /// sibling worker may have decided this history already.
    fn lookup(&mut self, key: (u64, u64)) -> Result<bool, Option<(u64, u64)>> {
        self.stats.checks += 1;
        if !self.enabled {
            self.stats.memo_misses += 1;
            return Err(None);
        }
        if let Some(shared) = &self.shared {
            if let Some(v) = shared.lookup(key) {
                self.stats.memo_hits += 1;
                self.stats.shared_memo_hits += 1;
                return Ok(v);
            }
        }
        if !self.slots.is_empty() {
            let (k0, k1v) = self.slots[key.0 as usize & (self.slots.len() - 1)];
            if k0 == key.0 && k1v & !1 == key.1 & !1 {
                self.stats.memo_hits += 1;
                return Ok(k1v & 1 == 1);
            }
        }
        self.stats.memo_misses += 1;
        Err(Some(key))
    }

    fn insert(&mut self, key: Option<(u64, u64)>, verdict: bool) {
        let Some(key) = key else { return };
        if let Some(shared) = &self.shared {
            shared.publish(key, verdict);
        }
        if self.slots.is_empty() {
            self.slots.resize(MEMO_INITIAL_SLOTS, (0, 0));
        } else if self.occupied * 2 >= self.slots.len() && self.slots.len() < MEMO_CAPACITY {
            // Double and re-home the live entries (each slot is
            // self-contained, so growth is a reinsertion pass).
            let doubled = self.slots.len() * 2;
            let old = std::mem::replace(&mut self.slots, vec![(0, 0); doubled]);
            self.occupied = 0;
            for (k0, k1v) in old {
                if (k0, k1v) != (0, 0) {
                    let slot = k0 as usize & (self.slots.len() - 1);
                    if self.slots[slot] == (0, 0) {
                        self.occupied += 1;
                    }
                    self.slots[slot] = (k0, k1v);
                }
            }
        }
        let slot = key.0 as usize & (self.slots.len() - 1);
        let prev = self.slots[slot];
        if prev == (0, 0) {
            self.occupied += 1;
        } else if prev.0 != key.0 || prev.1 & !1 != key.1 & !1 {
            self.stats.memo_evictions += 1;
        }
        self.slots[slot] = (key.0, (key.1 & !1) | verdict as u64);
    }

    /// Snapshot of the memo's counters plus its current occupancy.
    fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        s.memo_occupied = self.occupied as u64;
        s.memo_slots = self.slots.len() as u64;
        s
    }

    fn reset(&mut self) {
        self.slots.clear();
        self.slots.shrink_to_fit();
        self.occupied = 0;
        self.stats = EngineStats::default();
    }
}

/// Engine for the trivial level `true`: every history is consistent.
#[derive(Debug, Default)]
pub struct TrivialEngine {
    stats: EngineStats,
}

impl ConsistencyChecker for TrivialEngine {
    fn spec(&self) -> LevelSpec {
        LevelSpec::uniform(IsolationLevel::Trivial)
    }

    fn level(&self) -> IsolationLevel {
        IsolationLevel::Trivial
    }

    fn check(&mut self, _h: &History) -> bool {
        self.stats.checks += 1;
        true
    }

    /// Any topological order of `so ∪ wr` witnesses the trivial level.
    fn check_witnessed(&mut self, h: &History) -> Verdict {
        self.check(h);
        let commit_order = mixed::Decider::new(self.spec())
            .witness(h)
            .expect("a well-formed history's so ∪ wr is acyclic");
        Verdict::Consistent(Witness { commit_order })
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }

    fn reset(&mut self) {
        self.stats = EngineStats::default();
    }
}

/// Engine for every level specification but uniform `true`: the decision
/// procedure of [`mixed`] — acyclicity of `so ∪ wr ∪ forced` when the spec
/// names no strong level, otherwise the one commit-order search, composed
/// with the forced edges of the weak readers whenever the spec assigns RC,
/// RA or CC somewhere — over incrementally synced indexes, plus the
/// fingerprint memo.
///
/// The memo key folds [`LevelSpec::spec_hash`] into the history's rolling
/// hash, so a verdict memoised under one spec can never be served for
/// another, in the private memo or in an attached [`SharedMemo`].
#[derive(Debug)]
pub struct Engine {
    spec: LevelSpec,
    spec_hash: u64,
    memo: Memo,
    decider: mixed::Decider,
}

impl Engine {
    /// Creates an engine for an arbitrary level specification. Every spec
    /// is legal; [`engine_for_spec_with`] routes uniform `true` to the
    /// cheaper [`TrivialEngine`].
    pub fn new(spec: LevelSpec, memoize: bool) -> Self {
        Engine {
            spec_hash: spec.spec_hash(),
            decider: mixed::Decider::new(spec.clone()),
            spec,
            memo: Memo::new(memoize),
        }
    }
}

impl ConsistencyChecker for Engine {
    fn spec(&self) -> LevelSpec {
        self.spec.clone()
    }

    fn check(&mut self, h: &History) -> bool {
        let lh = h.live_hash();
        match self.memo.lookup((lh.0 ^ self.spec_hash, lh.1)) {
            Ok(v) => v,
            Err(key) => {
                // Only misses are timed: a hit is a single table probe,
                // and an `Instant` pair per hit would dominate it.
                let start = Instant::now();
                let (v, rebuilt) = self.decider.decide(h);
                self.memo.insert(key, v);
                let stats = &mut self.memo.stats;
                match rebuilt {
                    Some(cause) => {
                        stats.full_rebuilds += 1;
                        stats.rebuild_causes.record(cause);
                    }
                    None => stats.incremental_hits += 1,
                }
                stats.search_nodes += self.decider.take_search_nodes();
                stats.check_nanos += start.elapsed().as_nanos() as u64;
                v
            }
        }
    }

    /// The witness is the commit order recorded by the pass that decided
    /// `h`; a verdict served by the memo re-decides `h` once to record it.
    fn check_witnessed(&mut self, h: &History) -> Verdict {
        if self.check(h) {
            let start = Instant::now();
            let order = self.decider.witness(h);
            self.memo.stats.search_nodes += self.decider.take_search_nodes();
            self.memo.stats.check_nanos += start.elapsed().as_nanos() as u64;
            if let Some(commit_order) = order {
                return Verdict::Consistent(Witness { commit_order });
            }
        }
        evidence::reconstruct(h, &self.spec)
    }

    fn attach_shared_memo(&mut self, memo: Arc<SharedMemo>) {
        self.memo.shared = Some(memo);
    }

    fn stats(&self) -> EngineStats {
        self.memo.stats()
    }

    fn reset(&mut self) {
        self.memo.reset();
        self.decider.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventId, EventKind};
    use crate::transaction::{SessionId, TxId};
    use crate::value::{Value, Var};

    fn lost_update() -> History {
        let x = Var(0);
        let mut h = History::new([]);
        let mut id = 0u32;
        let mut fresh = || {
            id += 1;
            EventId(id)
        };
        for s in 0..2u32 {
            h.begin_transaction(
                SessionId(s),
                TxId(s + 1),
                0,
                Event::new(fresh(), EventKind::Begin),
            );
            let r = fresh();
            h.append_event(SessionId(s), Event::new(r, EventKind::Read(x)));
            h.set_wr(r, TxId::INIT);
            h.append_event(
                SessionId(s),
                Event::new(fresh(), EventKind::Write(x, Value::Int(s as i64 + 1))),
            );
            h.append_event(SessionId(s), Event::new(fresh(), EventKind::Commit));
        }
        h
    }

    #[test]
    fn engines_agree_with_free_functions() {
        let h = lost_update();
        for level in IsolationLevel::ALL {
            let mut engine = engine_for(level);
            assert_eq!(engine.level(), level);
            assert_eq!(
                engine.check(&h),
                crate::check::satisfies(&h, level),
                "engine disagrees with free function at {level}"
            );
        }
    }

    #[test]
    fn memo_hits_on_repeat_checks() {
        let h = lost_update();
        let mut engine = engine_for(IsolationLevel::CausalConsistency);
        let first = engine.check(&h);
        let second = engine.check(&h);
        assert_eq!(first, second);
        let stats = engine.stats();
        assert_eq!(stats.checks, 2);
        assert_eq!(stats.memo_hits, 1);
        engine.reset();
        assert_eq!(engine.stats(), EngineStats::default());
        assert_eq!(engine.check(&h), first);
        assert_eq!(engine.stats().memo_hits, 0);
    }

    #[test]
    fn unmemoized_engines_never_hit() {
        let h = lost_update();
        for level in IsolationLevel::ALL {
            let mut engine = engine_for_with(level, false);
            let a = engine.check(&h);
            let b = engine.check(&h);
            assert_eq!(a, b);
            assert_eq!(engine.stats().memo_hits, 0, "{level} hit a disabled memo");
        }
    }

    #[test]
    fn memo_distinguishes_different_histories() {
        // The lost-update history is CC-consistent but a variant where the
        // second read observes the first writer is also consistent while
        // having a different fingerprint — the memo must not conflate them.
        let h1 = lost_update();
        let mut h2 = lost_update();
        let (_, read, _, _) = h2
            .reads_from()
            .into_iter()
            .find(|(reader, _, _, _)| *reader == TxId(2))
            .unwrap();
        h2.set_wr(read, TxId(1));
        assert_ne!(h1.fingerprint(), h2.fingerprint());
        let mut engine = engine_for(IsolationLevel::Serializability);
        assert!(!engine.check(&h1), "lost update is not serializable");
        assert!(engine.check(&h2), "serial observation is serializable");
        assert_eq!(engine.stats().memo_hits, 0);
    }

    #[test]
    fn mixed_engine_with_uniform_spec_matches_per_level_engines() {
        // Every uniform spec's engine decides its level's axioms, and so
        // does an `Engine` on uniform `true`, the one spec `engine_for`
        // hands to another engine type.
        for h in [lost_update(), History::default()] {
            for level in IsolationLevel::ALL {
                let mut engine = engine_for(level);
                assert_eq!(engine.spec(), LevelSpec::uniform(level));
                assert_eq!(engine.level(), level);
                assert_eq!(
                    engine.check(&h),
                    crate::axioms::oracle_satisfies(&h, level),
                    "the {level} engine disagrees with the axioms"
                );
            }
            let trivial = IsolationLevel::Trivial;
            let mut engine = Engine::new(LevelSpec::uniform(trivial), true);
            assert_eq!(engine.level(), trivial);
            assert!(engine.check(&h), "uniform `true` accepts everything");
        }
    }

    #[test]
    fn check_witnessed_on_a_memo_hit_still_returns_evidence() {
        // A clone has a fresh uid but the same rolling hash, so the second
        // engine call is a memo hit on a history the engine never saw: the
        // witness must be re-derived, not taken from the previous pass.
        let mut corpus = vec![lost_update()];
        corpus.extend((0..40).map(|seed| crate::testkit::random_history(seed, 3, 2, 2)));
        for h in &corpus {
            for level in IsolationLevel::ALL {
                let spec = LevelSpec::uniform(level);
                let expected = crate::axioms::oracle_satisfies(h, level);
                let mut engine = Engine::new(spec.clone(), true);
                assert_eq!(engine.check(h), expected, "{level}");
                let twin = h.clone();
                let verdict = engine.check_witnessed(&twin);
                assert_eq!(engine.stats().memo_hits, 1, "{level}: not a memo hit");
                crate::testkit::assert_verdict_valid(
                    &twin,
                    &spec,
                    &verdict,
                    expected,
                    &format!("{level} memo hit"),
                );
            }
        }
    }

    #[test]
    fn engine_for_spec_routes_uniform_specs_to_per_level_engines() {
        let uniform = engine_for_spec(&LevelSpec::uniform(IsolationLevel::CausalConsistency));
        assert_eq!(uniform.level(), IsolationLevel::CausalConsistency);
        let spec = LevelSpec::uniform(IsolationLevel::CausalConsistency).with_override(
            0,
            0,
            IsolationLevel::Serializability,
        );
        let mixed = engine_for_spec(&spec);
        assert_eq!(mixed.spec(), spec);
    }

    #[test]
    #[should_panic(expected = "no single isolation level")]
    fn mixed_engine_has_no_single_level() {
        let spec = LevelSpec::uniform(IsolationLevel::CausalConsistency).with_override(
            0,
            0,
            IsolationLevel::Serializability,
        );
        engine_for_spec(&spec).level();
    }

    #[test]
    fn mixed_engine_memoises_and_resets() {
        let h = lost_update();
        let spec = LevelSpec::uniform(IsolationLevel::CausalConsistency).with_override(
            1,
            0,
            IsolationLevel::Serializability,
        );
        let mut engine = engine_for_spec(&spec);
        let first = engine.check(&h);
        // The SER increment reads x stale while the CC one overwrites it:
        // exactly one serialisation order remains and it satisfies the
        // spec (the CC read carries no last-writer obligation).
        assert!(first, "one weak increment makes the lost update admissible");
        assert_eq!(engine.check(&h), first);
        let stats = engine.stats();
        assert_eq!(stats.checks, 2);
        assert_eq!(stats.memo_hits, 1);
        engine.reset();
        assert_eq!(engine.stats(), EngineStats::default());
        assert_eq!(engine.check(&h), first);
        assert_eq!(engine.stats().memo_hits, 0);
    }

    #[test]
    fn spec_hash_separates_memo_keys_of_different_specs() {
        // Same history, two different specs: each engine decides under its
        // own spec; the folded spec hash keeps the keys distinct even
        // though the histories' rolling hashes are identical.
        let h = lost_update();
        let ser = LevelSpec::uniform(IsolationLevel::Serializability);
        let one_weak = ser
            .clone()
            .with_override(0, 0, IsolationLevel::ReadCommitted);
        let mut strict = Engine::new(ser.clone(), true);
        let mut lenient = Engine::new(one_weak, true);
        assert!(!strict.check(&h));
        assert!(lenient.check(&h));
        assert!(!strict.check(&h));
    }

    #[test]
    fn shared_memo_serves_cross_engine_hits() {
        // Worker A decides a history; worker B's fresh engine (cold
        // private memo) gets the verdict from the shared table.
        let h = lost_update();
        let shared = Arc::new(SharedMemo::new(2));
        for level in IsolationLevel::ALL {
            let mut a = engine_for(level);
            let mut b = engine_for(level);
            a.attach_shared_memo(Arc::clone(&shared));
            b.attach_shared_memo(Arc::clone(&shared));
            let verdict = a.check(&h);
            assert_eq!(a.stats().shared_memo_hits, 0, "{level}: A decided fresh");
            assert_eq!(b.check(&h), verdict);
            let sb = b.stats();
            if level == IsolationLevel::Trivial {
                continue; // no memo at all
            }
            assert_eq!(sb.memo_hits, 1, "{level}: B should hit");
            assert_eq!(sb.shared_memo_hits, 1, "{level}: B's hit came from A");
            assert_eq!(sb.memo_misses, 0);
        }
    }

    #[test]
    fn shared_memo_keys_are_spec_disjoint() {
        // Same history, same shared table, different levels/specs: the
        // folded spec hash must keep every verdict on its own key. SER
        // rejects the lost update while RC accepts it, so a key collision
        // would flip one of the answers.
        let h = lost_update();
        let shared = Arc::new(SharedMemo::new(2));
        let mut ser = engine_for(IsolationLevel::Serializability);
        let mut rc = engine_for(IsolationLevel::ReadCommitted);
        ser.attach_shared_memo(Arc::clone(&shared));
        rc.attach_shared_memo(Arc::clone(&shared));
        assert!(!ser.check(&h));
        assert!(rc.check(&h));
        assert_eq!(rc.stats().shared_memo_hits, 0, "RC must not see SER's key");
        // Another engine for the same uniform SER spec shares SER's key
        // (`live_hash ⊕ spec_hash`), so it *does* hit SER's entry.
        let mut other = engine_for(IsolationLevel::Serializability);
        other.attach_shared_memo(Arc::clone(&shared));
        assert!(!other.check(&h));
        assert_eq!(
            other.stats().shared_memo_hits,
            1,
            "engines of one spec share their keys"
        );
    }

    #[test]
    fn disabled_memo_skips_the_shared_table() {
        // The `no-memo` ablation must reproduce the stateless cost model:
        // nothing read from or published to the shared table.
        let h = lost_update();
        let shared = Arc::new(SharedMemo::new(2));
        let mut off = engine_for_with(IsolationLevel::CausalConsistency, false);
        off.attach_shared_memo(Arc::clone(&shared));
        let verdict = off.check(&h);
        assert_eq!(off.stats().shared_memo_hits, 0);
        // Nothing was published: a memoised engine still decides fresh.
        let mut on = engine_for(IsolationLevel::CausalConsistency);
        on.attach_shared_memo(shared);
        assert_eq!(on.check(&h), verdict);
        assert_eq!(on.stats().shared_memo_hits, 0, "no-memo engine published");
    }

    #[test]
    fn absorb_sums_shared_hits_and_cpu_nanos() {
        let mut total = EngineStats::default();
        let a = EngineStats {
            shared_memo_hits: 3,
            check_nanos: 100,
            search_nodes: 20,
            ..EngineStats::default()
        };
        let b = EngineStats {
            shared_memo_hits: 4,
            check_nanos: 50,
            search_nodes: 2,
            ..EngineStats::default()
        };
        total.absorb(&a);
        total.absorb(&b);
        // Summed across workers: aggregate CPU time (7 hits, 150 ns of
        // per-thread deciding time), NOT wall time.
        assert_eq!(total.shared_memo_hits, 7);
        assert_eq!(total.check_nanos, 150);
        assert_eq!(total.search_nodes, 22);
    }

    #[test]
    fn empty_history_is_consistent_on_a_warm_engine() {
        // Regression: the direct-mapped memo's empty-slot sentinel must not
        // alias the empty history's key — a warm engine once answered
        // `false` for `History::default()` straight from an untouched slot.
        for level in IsolationLevel::ALL {
            let mut engine = engine_for(level);
            engine.check(&lost_update()); // initialise the memo table
            assert!(
                engine.check(&History::default()),
                "warm {level} engine rejected the empty history"
            );
        }
    }
}
