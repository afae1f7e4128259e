//! The swapping-based stateless model checking algorithm `explore-ce` and
//! its filtered variant `explore-ce*` (Algorithms 1 and 2, §§4–6).
//!
//! # In-place traversal
//!
//! `explore-ce` is a depth-first recursion whose children differ from their
//! parent by one event or one swap, which is what lets it run in polynomial
//! space (Theorem 5.1). The traversal therefore runs on one
//! [`OrderedHistory`] per worker, and a node's children are *moves* on the
//! node's history:
//!
//! * at an external read, one move per `ValidWrites` writer: the read is
//!   appended and reads from that writer;
//! * at any other step, the step extension itself, visited in place, then
//!   one move per `Optimality`-approved re-ordering of the extension,
//!   applied by [`apply_swap`]. The re-orderings are decided before the
//!   extension's subtree is entered, all of a commit's at once, by the
//!   explorer's `CommitPass`: one descent and one ascent of the doomed
//!   suffix (see [`crate::optimality`]).
//!
//! A node with moves becomes a *frame* on an explicit stack, so the depth
//! is bounded by memory rather than by the thread stack. To visit a child,
//! the traversal takes a checkpoint of the frame's history, applies the
//! move, explores the child, then rolls back to the checkpoint and
//! restores the frame's order.
//!
//! `Next` (§5.1) steps the pending transaction's [`TxCursor`], which the
//! traversal carries from node to node. A read frame keeps the cursor as
//! it was at the read, and each of its moves resumes a copy with the value
//! of its writer. A swap rewrites the pending transaction's log, so the
//! step after a swap, like the first step of a task, rebuilds the cursor by
//! replaying that log.
//!
//! Parallel workers run the same traversal on every task they take. Worker
//! 0 starts at the root, so with no sibling asking for work it explores
//! exactly as a serial run does. Workers materialise children as histories
//! of their own only to hand work to a sibling that is idle: the untried
//! moves of the shallowest frame on their path.

use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, Mutex};

use txdpor_analysis::ProgramFootprints;
use txdpor_history::{
    engine_for_spec_with, ConsistencyChecker, Event, EventId, EventKind, History,
    HistoryFingerprint, HistoryMark, SessionId, TxId, TxSet, VarTable, Verdict,
};
use txdpor_program::{
    initial_history, oracle_next, replay_all, replay_pending, Program, SchedulerStep,
    SemanticsError, TransactionDef, TxCursor, TxStep,
};

use crate::assertion::{AssertionCtx, AssertionFn};
use crate::config::{ExplorationReport, ExploreConfig};
use crate::deadline::Deadline;
use crate::optimality::CommitPass;
use crate::ordered::OrderedHistory;
use crate::steal::{Backoff, StealPool};
use crate::swap::{apply_swap, compute_reorderings_and_ancestors};

/// Error raised by an exploration.
#[derive(Clone, Debug, PartialEq)]
pub enum ExploreError {
    /// The program and the explored history disagree (a replay error).
    Semantics(SemanticsError),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::Semantics(e) => write!(f, "semantics error: {e}"),
        }
    }
}

impl std::error::Error for ExploreError {}

impl From<SemanticsError> for ExploreError {
    fn from(e: SemanticsError) -> Self {
        ExploreError::Semantics(e)
    }
}

/// Runs the swapping-based exploration of `program` under `config`.
///
/// For `config = ExploreConfig::explore_ce(I)` with `I` prefix-closed and
/// causally extensible, the exploration is `I`-sound, `I`-complete,
/// strongly optimal and polynomial space (Theorem 5.1). For
/// `config = ExploreConfig::explore_ce_star(I0, I)` it enumerates the
/// histories of `I0` and outputs those consistent with `I`
/// (Corollary 6.2).
///
/// # Errors
///
/// Returns an error if the program cannot be replayed against an explored
/// history (which indicates a bug in the program model, e.g. an unbound
/// local variable).
///
/// # Examples
///
/// ```
/// use txdpor_explore::{explore, ExploreConfig};
/// use txdpor_history::IsolationLevel;
/// use txdpor_program::dsl::*;
///
/// // Two sessions racing on x: a writer and a reader.
/// let p = program(vec![
///     session(vec![tx("w", vec![write(g("x"), cint(1))])]),
///     session(vec![tx("r", vec![read("a", g("x"))])]),
/// ]);
/// let report = explore(&p, ExploreConfig::explore_ce(IsolationLevel::CausalConsistency))?;
/// // The reader sees either the initial value or the write: two histories.
/// assert_eq!(report.outputs, 2);
/// # Ok::<(), txdpor_explore::ExploreError>(())
/// ```
pub fn explore(
    program: &Program,
    config: ExploreConfig,
) -> Result<ExplorationReport, ExploreError> {
    explore_with_assertion(program, config, None)
}

/// Like [`explore`], additionally evaluating `assertion` on every output
/// history and counting violations.
///
/// # Errors
///
/// Same as [`explore`].
pub fn explore_with_assertion(
    program: &Program,
    config: ExploreConfig,
    assertion: Option<&AssertionFn>,
) -> Result<ExplorationReport, ExploreError> {
    assert!(
        config.exploration.is_causally_extensible(),
        "the exploration spec must be causally extensible; use explore_ce_star for {}",
        config.exploration
    );
    if config.workers > 1 {
        return explore_parallel(program, &config, assertion);
    }
    let mut explorer = Explorer::new(program, &config, assertion);
    let root = OrderedHistory::new(initial_history(program, &mut explorer.vars));
    explorer.explore(root, None)?;
    explorer.record_engine_stats();
    let mut report = explorer.report;
    report.duration = explorer.deadline.elapsed();
    report.workers = 1;
    report.vars = explorer.vars;
    Ok(report)
}

/// Parallel `explore-ce` over a work-stealing pool ([`StealPool`]). Worker
/// 0 runs on the calling thread and takes the root as its in-flight task:
/// it explores the whole tree in place, as a serial run would, except for
/// what it hands out. The `workers − 1` helper threads start idle. Each
/// worker has its own consistency engines and counters. A busy worker
/// whose sibling idles hands it the untried children of the shallowest
/// node on its path; idle workers steal the oldest tasks of a busy
/// sibling's deque. Termination is detected by the pool's in-flight
/// counter, so skewed trees keep every worker busy to the end.
///
/// The exploration tree is identical to the serial one (children of a node
/// depend only on that node, and every node is explored exactly once no
/// matter how tasks migrate), so the merged report agrees with a serial
/// run on every deterministic quantity: end states, outputs, blocked
/// reads, explore calls and the set of output-history fingerprints. Only
/// wall clock, engine counters such as memo hits, the order of collected
/// histories and the choice of the recorded violating history may differ.
fn explore_parallel(
    program: &Program,
    config: &ExploreConfig,
    assertion: Option<&AssertionFn>,
) -> Result<ExplorationReport, ExploreError> {
    let mut first = Explorer::new(program, config, assertion);
    let root = OrderedHistory::new(initial_history(program, &mut first.vars));
    // One variable numbering for every worker: handed-out nodes carry
    // variable ids between workers.
    let shared_vars = Arc::new(Mutex::new(std::mem::take(&mut first.vars)));
    first.vars = VarTable::backed_by(Arc::clone(&shared_vars));
    let pool: StealPool<OrderedHistory> = StealPool::new(config.workers);
    pool.hold();
    let failure: Mutex<Option<ExploreError>> = Mutex::new(None);
    let helpers = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..config.workers)
            .map(|w| {
                let vars = VarTable::backed_by(Arc::clone(&shared_vars));
                let deadline = first.deadline.clone();
                let (pool, failure) = (&pool, &failure);
                std::thread::Builder::new()
                    .name(format!("explore-worker-{w}"))
                    .spawn_scoped(scope, move || {
                        let mut helper = Explorer::new(program, config, assertion);
                        helper.vars = vars;
                        helper.deadline = deadline;
                        helper.work(pool, w, None, failure);
                        (helper.report, helper.seen)
                    })
                    .expect("spawning an exploration worker succeeds")
            })
            .collect();
        first.work(&pool, 0, Some(root), &failure);
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect::<Vec<_>>()
    });
    if let Some(e) = failure.into_inner().expect("failure lock") {
        return Err(e);
    }

    let mut report = first.report;
    let mut seen = first.seen;
    for (helper_report, helper_seen) in helpers {
        merge_worker(&mut report, helper_report);
        seen.extend(helper_seen);
    }
    if config.track_duplicates {
        report.duplicate_outputs = report.outputs - seen.len() as u64;
    }
    report.duration = first.deadline.elapsed();
    report.workers = config.workers;
    report.steals = pool.steals();
    report.vars = shared_vars
        .lock()
        .expect("workers only intern under the variable table's lock")
        .clone();
    Ok(report)
}

/// Folds one worker's report into the merged report. Workers share one
/// variable numbering, so histories and cores merge as they are.
fn merge_worker(report: &mut ExplorationReport, worker: ExplorationReport) {
    report.explore_calls += worker.explore_calls;
    report.end_states += worker.end_states;
    report.engine_stats.absorb(&worker.engine_stats);
    report.outputs += worker.outputs;
    report.blocked += worker.blocked;
    report.assertion_violations += worker.assertion_violations;
    report.timed_out |= worker.timed_out;
    report.max_events = report.max_events.max(worker.max_events);
    report.statically_pruned += worker.statically_pruned;
    report.histories.extend(worker.histories);
    if report.violating_history.is_none() {
        report.violating_history = worker.violating_history;
    }
    if report.first_rejection.is_none() {
        report.first_rejection = worker.first_rejection;
    }
}

/// The pending transaction of the explored history, with the cursor that
/// steps its body.
#[derive(Clone, Debug)]
struct Pending<'a> {
    session: SessionId,
    def: &'a TransactionDef,
    cursor: TxCursor,
}

/// The children of a frame's node, as moves on the frame's base history.
#[derive(Debug)]
enum Moves<'a> {
    /// At an external read: the read `event` of the `pending` transaction
    /// is appended and reads from each `ValidWrites` writer in turn. The
    /// cursor is at the read; each move resumes a copy of it. Boxed, so
    /// that every frame keeps the size of a swap frame.
    Reads {
        pending: Box<Pending<'a>>,
        event: Event,
        writers: Vec<TxId>,
    },
    /// After the commit of `target`: each read is swapped to read from it.
    /// The base is the step extension, and the swaps are its
    /// `Optimality`-approved re-orderings. Swaps rearrange the order, so
    /// the frame keeps its base `order`.
    Swaps {
        target: TxId,
        ancestors: TxSet,
        reads: Vec<EventId>,
        order: Vec<EventId>,
    },
}

/// A node of the exploration tree with children still to visit (or being
/// visited).
#[derive(Debug)]
struct Frame<'a> {
    /// Checkpoint at the base history, open while a child is explored:
    /// rolling back to it undoes the child's move and everything below.
    mark: HistoryMark,
    /// Length of the base order. Read moves only append to the order, so a
    /// read frame's base order is a prefix of the order its child leaves.
    order_len: usize,
    moves: Moves<'a>,
    /// Index of the next move to visit; it and the moves after it are
    /// untried.
    next: usize,
    /// Rolling hash and order of the base history, checked after every
    /// child.
    #[cfg(debug_assertions)]
    base: ((u64, u64), Vec<EventId>),
}

impl<'a> Frame<'a> {
    /// Opens a frame whose base is the current `h`.
    fn open(h: &mut OrderedHistory, moves: Moves<'a>) -> Frame<'a> {
        Frame {
            mark: h.history.checkpoint(),
            order_len: h.order.len(),
            moves,
            next: 0,
            #[cfg(debug_assertions)]
            base: (h.history.live_hash(), h.order.clone()),
        }
    }

    fn len(&self) -> usize {
        match &self.moves {
            Moves::Reads { writers, .. } => writers.len(),
            Moves::Swaps { reads, .. } => reads.len(),
        }
    }

    /// The base order, if the frame keeps it.
    fn base_order(&self) -> Option<&[EventId]> {
        match &self.moves {
            Moves::Reads { .. } => None,
            Moves::Swaps { order, .. } => Some(order),
        }
    }

    /// Applies move `k` to `h`, which is at the frame's base.
    fn apply(&self, k: usize, h: &mut OrderedHistory) {
        match &self.moves {
            Moves::Reads {
                pending,
                event,
                writers,
            } => {
                h.history.append_event(pending.session, event.clone());
                h.push(event.id);
                h.history.set_wr(event.id, writers[k]);
            }
            Moves::Swaps {
                target,
                ancestors,
                reads,
                ..
            } => apply_swap(h, reads[k], *target, ancestors),
        }
    }

    /// The pending transaction after move `k` was applied to `h`. A read
    /// move resumes a copy of the frame's cursor with the value of its
    /// writer. A swap rewrote the pending transaction's log: its cursor is
    /// rebuilt from that log at the next step.
    fn pending_after(&self, k: usize, h: &History) -> Result<Option<Pending<'a>>, SemanticsError> {
        let Moves::Reads {
            pending,
            event,
            writers,
        } = &self.moves
        else {
            return Ok(None);
        };
        let var = event.var().expect("a read frame holds a read event");
        let value = h.visible_write_value(writers[k], var).ok_or_else(|| {
            SemanticsError::ReplayMismatch {
                expected: format!("a write of {var} by {}", writers[k]),
                found: "none".to_owned(),
            }
        })?;
        let mut next = Pending::clone(pending);
        next.cursor.read(next.def, value)?;
        Ok(Some(next))
    }

    /// Returns `h` to the base once a child's subtree is done: rolls back
    /// to the checkpoint, closing it, and restores the base order.
    fn rewind(&self, h: &mut OrderedHistory) {
        h.history.rollback(self.mark);
        match self.base_order() {
            None => h.order.truncate(self.order_len),
            Some(order) => {
                h.order.clear();
                h.order.extend_from_slice(order);
            }
        }
        #[cfg(debug_assertions)]
        {
            debug_assert_eq!(
                h.history.live_hash(),
                self.base.0,
                "base history not restored"
            );
            debug_assert_eq!(h.order, self.base.1, "base order not restored");
        }
    }
}

/// The children behind the untried moves of `frames[d]`, in visit order,
/// each as a history of its own. `h` is at the base of the top frame; the
/// base of `frames[d]` is a copy of `h` as it was at the frame's
/// checkpoint, with the frame's base order. Moves must remain untried.
fn untried_children(h: &OrderedHistory, frames: &[Frame<'_>], d: usize) -> Vec<OrderedHistory> {
    let frame = &frames[d];
    debug_assert!(frame.next < frame.len(), "no untried move to materialise");
    // Up to the first frame from `d` on that keeps its base order, the
    // order only grew by appends.
    let order = frames[d..]
        .iter()
        .find_map(Frame::base_order)
        .unwrap_or(&h.order);
    let mut base = OrderedHistory {
        history: h.history.clone_at(frame.mark),
        order: order[..frame.order_len].to_vec(),
    };
    let last = frame.len() - 1;
    let mut children: Vec<OrderedHistory> = (frame.next..last)
        .map(|k| {
            let mut child = base.clone();
            frame.apply(k, &mut child);
            child
        })
        .collect();
    frame.apply(last, &mut base);
    children.push(base);
    children
}

/// Hands the untried moves of the shallowest frame that has any to worker
/// `w`'s deque, and closes them in the frame. `h` is at the base of the
/// top frame.
fn hand_out(
    h: &OrderedHistory,
    frames: &mut [Frame<'_>],
    pool: &StealPool<OrderedHistory>,
    w: usize,
) {
    let Some(d) = frames.iter().position(|f| f.next < f.len()) else {
        return;
    };
    let children = untried_children(h, frames, d);
    frames[d].next = frames[d].len();
    // Reversed: the owner pops LIFO, so it would resume at the first.
    pool.push_children(w, children.into_iter().rev());
}

struct Explorer<'a> {
    program: &'a Program,
    config: &'a ExploreConfig,
    assertion: Option<&'a AssertionFn>,
    vars: VarTable,
    report: ExplorationReport,
    seen: HashSet<HistoryFingerprint>,
    /// The run's clock and budget; parallel helpers copy worker 0's.
    deadline: Deadline,
    /// The pending transaction of the history being explored and its
    /// cursor, carried from step to step. `None` when the history has no
    /// pending transaction, or when its cursor must be rebuilt from the
    /// log: after a swap, and at the root of a task.
    pending: Option<Pending<'a>>,
    /// Engine deciding the exploration level, shared by `ValidWrites` and
    /// the `Optimality` checks of this explorer.
    checker: Box<dyn ConsistencyChecker>,
    /// The commit-wide `Optimality` pass, whose buffers every commit
    /// reuses.
    commit_pass: CommitPass,
    /// When set, `open_swaps` records here every history whose
    /// re-orderings it decides, for tests to replay.
    #[cfg(test)]
    commits: Option<Vec<OrderedHistory>>,
    /// Engine deciding the output level (`explore-ce*` only), handed each
    /// complete history whole. It keeps no memo: explore-ce reaches each
    /// complete history once.
    output_checker: Option<Box<dyn ConsistencyChecker>>,
    /// Static per-transaction-type read/write footprints of the program:
    /// the independence relation consulted before scanning reordering
    /// candidates, and (in debug builds) the soundness reference every
    /// complete execution is checked against.
    footprints: ProgramFootprints,
}

impl<'a> Explorer<'a> {
    fn new(
        program: &'a Program,
        config: &'a ExploreConfig,
        assertion: Option<&'a AssertionFn>,
    ) -> Self {
        Explorer {
            deadline: Deadline::start(config.timeout),
            program,
            config,
            assertion,
            vars: VarTable::new(),
            report: ExplorationReport::default(),
            seen: HashSet::new(),
            pending: None,
            checker: engine_for_spec_with(&config.exploration, config.memoize),
            commit_pass: CommitPass::default(),
            #[cfg(test)]
            commits: None,
            output_checker: (config.output != config.exploration)
                .then(|| engine_for_spec_with(&config.output, false)),
            footprints: ProgramFootprints::analyze(program),
        }
    }

    /// Fresh identifiers are derived from the history's id high-water marks
    /// (ids only need to be unique within a branch; fingerprints are
    /// identifier-independent). Keeping ids branch-local keeps the
    /// direct-indexed arena vectors dense no matter how long the
    /// exploration runs.
    fn fresh_event(h: &History) -> EventId {
        EventId(h.max_event_id() + 1)
    }

    fn fresh_tx(h: &History) -> TxId {
        TxId(h.max_tx_id() + 1)
    }

    /// Folds the engines' counters into the report (once, at the end of
    /// this explorer's run).
    fn record_engine_stats(&mut self) {
        let mut stats = self.checker.stats();
        if let Some(output) = &self.output_checker {
            stats.absorb(&output.stats());
        }
        self.report.engine_stats.absorb(&stats);
    }

    /// Whether the budget is spent (reading the clock once per
    /// [`DEADLINE_STRIDE`](crate::deadline::DEADLINE_STRIDE) nodes), and
    /// if so records the timeout.
    fn timed_out(&mut self) -> bool {
        let passed = self.deadline.passed();
        self.report.timed_out |= passed;
        passed
    }

    /// The loop of worker `w` of a parallel run: explores `held` (worker
    /// 0's root), then every task it pops or steals, until the pool is done
    /// or poisoned, and folds its engines' counters into its report. An
    /// error is stored in `failure` and poisons the pool; a panic poisons
    /// it and propagates.
    fn work(
        &mut self,
        pool: &StealPool<OrderedHistory>,
        w: usize,
        mut held: Option<OrderedHistory>,
        failure: &Mutex<Option<ExploreError>>,
    ) {
        let mut backoff = Backoff::default();
        let mut idle = false;
        while !pool.is_poisoned() {
            // Event/transaction identifiers only need to be unique within
            // a branch; the history tracks its own id high-water marks
            // (fingerprints are identifier-independent), so a task explores
            // identically wherever it lands.
            if let Some(task) = held.take().or_else(|| pool.pop_local(w)) {
                if std::mem::take(&mut idle) {
                    pool.leave_idle();
                }
                backoff.reset();
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.explore(task, Some((pool, w)))
                }));
                // Finished whatever the outcome: a failed or panicking task
                // must not keep the in-flight count above zero.
                pool.finish_task();
                match outcome {
                    Ok(Ok(())) => continue,
                    Ok(Err(e)) => {
                        *failure.lock().expect("failure lock") = Some(e);
                        pool.poison();
                        break;
                    }
                    Err(payload) => {
                        pool.poison();
                        std::panic::resume_unwind(payload);
                    }
                }
            }
            if pool.steal_into(w) > 0 {
                backoff.reset();
                continue;
            }
            if pool.is_done() {
                break;
            }
            if !std::mem::replace(&mut idle, true) {
                pool.enter_idle();
            }
            backoff.idle();
        }
        if idle {
            pool.leave_idle();
        }
        self.record_engine_stats();
    }

    /// Explores the subtree rooted at `h` in place (see the module
    /// documentation). With a `pool`, the explorer is worker `w` of a
    /// parallel run: it hands out untried moves whenever the pool
    /// [wants work](StealPool::wants_work), and stops early once the pool
    /// is poisoned.
    fn explore(
        &mut self,
        h: OrderedHistory,
        pool: Option<(&StealPool<OrderedHistory>, usize)>,
    ) -> Result<(), ExploreError> {
        self.traverse(h, pool, |_, _, _| {})
    }

    /// [`explore`](Explorer::explore), calling `before_move(h, frame, k)`
    /// before move `k` of `frame` is applied to `h`, its base.
    fn traverse(
        &mut self,
        mut h: OrderedHistory,
        pool: Option<(&StealPool<OrderedHistory>, usize)>,
        mut before_move: impl FnMut(&OrderedHistory, &Frame<'a>, usize),
    ) -> Result<(), ExploreError> {
        let mut frames: Vec<Frame<'a>> = Vec::new();
        self.pending = None;
        self.visit(&mut h, &mut frames)?;
        while let Some(top) = frames.last_mut() {
            top.rewind(&mut h);
            let k = top.next;
            // Past the deadline every visit returns at once: skip them.
            if k == top.len() || self.report.timed_out {
                frames.pop();
                continue;
            }
            top.next += 1;
            if let Some((pool, w)) = pool {
                // A sibling failed, so the run is lost: stop here rather
                // than finish a task that may be the rest of the tree.
                if pool.is_poisoned() {
                    return Ok(());
                }
                if pool.wants_work(w) {
                    hand_out(&h, &mut frames, pool, w);
                }
            }
            let top = frames.last_mut().expect("the top frame is still open");
            before_move(&h, top, k);
            top.mark = h.history.checkpoint();
            top.apply(k, &mut h);
            self.pending = top.pending_after(k, &h.history)?;
            self.visit(&mut h, &mut frames)?;
        }
        Ok(())
    }

    /// Visits the node `h` and, as long as it is a step, its extension —
    /// the node's first child — in place. Stops after a complete execution,
    /// a blocked read, or a read whose frame it pushed.
    fn visit(
        &mut self,
        h: &mut OrderedHistory,
        frames: &mut Vec<Frame<'a>>,
    ) -> Result<(), ExploreError> {
        while self.expand(h, frames)? {}
        Ok(())
    }

    /// Visits one node of the exploration tree (Algorithm 1): counts it,
    /// then either handles a complete execution, or pushes the frame of a
    /// read's `ValidWrites` children, or extends `h` in place by the
    /// node's step and returns `true`. The extension is then the node's
    /// first child, and the frame of its `Optimality`-approved
    /// re-orderings (Algorithm 2), if any, is already pushed. Once the
    /// budget is found spent it returns `false` without counting.
    fn expand(
        &mut self,
        h: &mut OrderedHistory,
        frames: &mut Vec<Frame<'a>>,
    ) -> Result<bool, ExploreError> {
        if self.timed_out() {
            return Ok(false);
        }
        self.report.explore_calls += 1;
        self.report.max_events = self.report.max_events.max(h.order.len());
        debug_assert_eq!(h.check_invariants(), Ok(()));
        let Some((mut pending, step)) = self.next_step(&h.history)? else {
            match oracle_next(self.program, &h.history, &mut self.vars)? {
                SchedulerStep::Begin {
                    session,
                    program_index,
                } => {
                    let def = self
                        .program
                        .transaction(session.0 as usize, program_index)
                        .expect("Next begins a transaction of the program");
                    let tx = Self::fresh_tx(&h.history);
                    let ev = Event::new(Self::fresh_event(&h.history), EventKind::Begin);
                    let id = ev.id;
                    h.history.begin_transaction(session, tx, program_index, ev);
                    h.push(id);
                    self.pending = Some(Pending {
                        session,
                        def,
                        cursor: TxCursor::new(),
                    });
                    return Ok(true);
                }
                SchedulerStep::Finished => self.handle_complete(h),
                SchedulerStep::Continue { .. } => {
                    unreachable!("a history without a pending transaction has nothing to continue")
                }
            }
            return Ok(false);
        };
        let session = pending.session;
        let kind = match step {
            TxStep::Read {
                var,
                internal_value: None,
            } => {
                let event = Event::new(Self::fresh_event(&h.history), EventKind::Read(var));
                let writers = self.valid_writes(h, session, &event);
                if writers.is_empty() {
                    self.report.blocked += 1;
                } else {
                    let moves = Moves::Reads {
                        pending: Box::new(pending),
                        event,
                        writers,
                    };
                    frames.push(Frame::open(h, moves));
                }
                return Ok(false);
            }
            TxStep::Read {
                var,
                internal_value: Some(value),
            } => {
                pending.cursor.read(pending.def, value)?;
                self.pending = Some(pending);
                EventKind::Read(var)
            }
            TxStep::Write { var, value } => {
                pending.cursor.write(pending.def, var, value.clone())?;
                self.pending = Some(pending);
                EventKind::Write(var, value)
            }
            // The transaction ends, and its cursor with it.
            TxStep::Commit => EventKind::Commit,
            TxStep::Abort => EventKind::Abort,
        };
        let commit = kind.is_commit();
        let ev = Event::new(Self::fresh_event(&h.history), kind);
        let id = ev.id;
        h.history.append_event(session, ev);
        h.push(id);
        if commit {
            self.open_swaps(h, frames);
        }
        Ok(true)
    }

    /// `Next(P, h)` (§5.1) for a history with a pending transaction: that
    /// transaction with its cursor, and the step the cursor is at. The
    /// cursor carried over from the previous step is resumed; without one
    /// it is rebuilt by replaying the transaction's log. `None` when `h`
    /// has no pending transaction.
    fn next_step(&mut self, h: &History) -> Result<Option<(Pending<'a>, TxStep)>, ExploreError> {
        let (pending, step) = match self.pending.take() {
            Some(mut pending) => {
                let step = pending.cursor.next(pending.def, &mut self.vars)?;
                (pending, step)
            }
            None => {
                let Some((log, def, cursor, step)) =
                    replay_pending(self.program, h, &mut self.vars)?
                else {
                    return Ok(None);
                };
                let pending = Pending {
                    session: log.session,
                    def,
                    cursor,
                };
                (pending, step)
            }
        };
        debug_assert_eq!(
            oracle_next(self.program, h, &mut self.vars),
            Ok(SchedulerStep::Continue {
                session: pending.session,
                step: step.clone(),
            }),
            "the pending transaction's cursor disagrees with replaying its log"
        );
        Ok(Some((pending, step)))
    }

    /// `exploreSwaps` (Algorithm 2) after the commit that ends `h`: decides
    /// `Optimality` for all its re-orderings in one `CommitPass` (one
    /// descent and one ascent of the doomed suffix, see
    /// [`crate::optimality`]) and pushes the frame of the approved ones, in
    /// the order `ComputeReorderings` lists them.
    fn open_swaps(&mut self, h: &mut OrderedHistory, frames: &mut Vec<Frame>) {
        // All re-orderings share the just-committed target: one
        // causal-ancestors BFS serves every candidate (the pass's doomed
        // suffix and the applied swaps).
        let Some((ancestors, reorderings)) = compute_reorderings_and_ancestors(
            h,
            Some(&self.footprints),
            &mut self.report.statically_pruned,
        ) else {
            return;
        };
        #[cfg(test)]
        if let Some(commits) = self.commits.as_mut().filter(|_| !reorderings.is_empty()) {
            commits.push(h.clone());
        }
        let mut reads = Vec::new();
        self.commit_pass.decide(
            h,
            &reorderings,
            &ancestors,
            self.checker.as_mut(),
            self.config.full_optimality,
            &mut reads,
        );
        if !reads.is_empty() {
            let moves = Moves::Swaps {
                target: reorderings[0].target,
                ancestors,
                reads,
                order: h.order.clone(),
            };
            frames.push(Frame::open(h, moves));
        }
    }

    /// `ValidWrites(h, e)` (§5.1): the committed transactions writing
    /// `var(e)` such that extending the history with `e` reading from them
    /// keeps it consistent with the exploration level.
    ///
    /// The trial extension mutates `h` in place under a checkpoint instead
    /// of cloning it: the read is appended once, and each candidate's wr
    /// edge is set, checked and explicitly unset, so no candidate's check
    /// ever observes the previous candidate's edge. The rollback restores
    /// `h` exactly (the history order is untouched: trial events are never
    /// pushed onto `h.order`).
    fn valid_writes(
        &mut self,
        h: &mut OrderedHistory,
        session: SessionId,
        ev: &Event,
    ) -> Vec<TxId> {
        let var = ev.var().expect("valid_writes takes a read event");
        let history = &mut h.history;
        let mark = history.checkpoint();
        history.append_event(session, ev.clone());
        let trial = history.prepare_wr_trial(ev.id);
        let mut out = Vec::new();
        for writer in history.committed_writers_of(var) {
            history.set_wr_trial(&trial, writer);
            let consistent = self.checker.check(history);
            history.unset_wr_trial(&trial);
            if consistent {
                out.push(writer);
            }
        }
        history.rollback(mark);
        out
    }

    /// Handles a complete execution: applies the `Valid` output filter,
    /// records statistics and evaluates the user assertion.
    fn handle_complete(&mut self, h: &OrderedHistory) {
        self.report.end_states += 1;
        #[cfg(debug_assertions)]
        if let Err(e) = self.footprints.check_covers_history(&h.history, &self.vars) {
            unreachable!("static footprint soundness violated: {e}");
        }
        let valid = match self.output_checker.as_mut() {
            None => true,
            Some(checker) => checker.check(&h.history),
        };
        if !valid {
            if self.report.first_rejection.is_none() {
                if let Some(checker) = self.output_checker.as_mut() {
                    // Once per run, off the hot path: the engine decided
                    // this history last and answers its boolean verdict
                    // again without deciding, so this only pays for the
                    // on-demand evidence reconstruction.
                    if let Verdict::Inconsistent(core) = checker.check_witnessed(&h.history) {
                        self.report.first_rejection = Some(core);
                    }
                }
            }
            return;
        }
        self.report.outputs += 1;
        if self.config.track_duplicates {
            let fp = h.history.fingerprint();
            if !self.seen.insert(fp) {
                self.report.duplicate_outputs += 1;
            }
        }
        if self.config.collect_histories {
            self.report.histories.push(h.history.clone());
        }
        if let Some(assertion) = self.assertion {
            if let Ok(envs) = replay_all(self.program, &h.history, &mut self.vars) {
                let ctx = AssertionCtx {
                    program: self.program,
                    history: &h.history,
                    vars: &self.vars,
                    envs: &envs,
                };
                if !assertion(&ctx) {
                    self.report.assertion_violations += 1;
                    if self.report.violating_history.is_none() {
                        self.report.violating_history = Some(h.history.clone());
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txdpor_history::{IsolationLevel, LevelSpec, Var};
    use txdpor_program::dsl::*;

    /// Fig. 10a: a reader of x and y against a writer of x and y.
    fn fig10_program() -> Program {
        program(vec![
            session(vec![tx(
                "reader",
                vec![read("a", g("x")), read("b", g("y"))],
            )]),
            session(vec![tx(
                "writer",
                vec![write(g("x"), cint(2)), write(g("y"), cint(2))],
            )]),
        ])
    }

    /// Fig. 12a: two readers of x and two writers of x, each in its own
    /// session.
    fn fig12_program() -> Program {
        program(vec![
            session(vec![tx("w2", vec![write(g("x"), cint(2))])]),
            session(vec![tx("r1", vec![read("a", g("x"))])]),
            session(vec![tx("r2", vec![read("b", g("x"))])]),
            session(vec![tx("w4", vec![write(g("x"), cint(4))])]),
        ])
    }

    /// Fig. 13a: a reader of x, a reader of y, a writer of y, a writer of x.
    fn fig13_program() -> Program {
        program(vec![
            session(vec![tx("rx", vec![read("a", g("x"))])]),
            session(vec![tx("ry", vec![read("b", g("y"))])]),
            session(vec![tx("wy", vec![write(g("y"), cint(3))])]),
            session(vec![tx("wx", vec![write(g("x"), cint(4))])]),
        ])
    }

    /// Fig. 8a / Fig. 11a style program with an abort guard.
    fn abort_program() -> Program {
        program(vec![
            session(vec![
                tx(
                    "guarded",
                    vec![
                        read("a", g("x")),
                        iff(eq(local("a"), cint(0)), vec![abort()]),
                        write(g("y"), cint(1)),
                    ],
                ),
                tx("reader", vec![read("b", g("x"))]),
            ]),
            session(vec![
                tx("wy", vec![write(g("y"), cint(3))]),
                tx("wx", vec![write(g("x"), cint(4))]),
            ]),
        ])
    }

    fn run(p: &Program, config: ExploreConfig) -> ExplorationReport {
        explore(p, config.tracking_duplicates().collecting_histories()).unwrap()
    }

    #[test]
    fn fig10_under_cc_enumerates_all_read_from_combinations() {
        // Under CC the reader can observe (x,y) ∈ {(0,0), (0,2)?, (2,0)?, (2,2)}.
        // Reading x=0, y=2 is allowed by CC? The writer writes x then y, so
        // reading y from the writer and x from init violates RA (fractured
        // read)... but the reader reads x first. Reading x=0,y=2 means x
        // from init and y from writer: RA violation but the premise needs
        // (writer, reader) ∈ so ∪ wr which holds via wr(y), and writer
        // writes x, so x must read from a transaction after the writer:
        // contradiction — not CC. Reading x=2, y=0 violates RC similarly?
        // The read of y comes po-after the read of x which read from the
        // writer, so RC forces writer < init in co: inconsistent. Hence
        // exactly 3 histories: (0,0), (2,2), and... let us just check the
        // count against the DFS baseline in the integration tests; here we
        // check soundness, optimality and strong optimality.
        let p = fig10_program();
        let report = run(
            &p,
            ExploreConfig::explore_ce(IsolationLevel::CausalConsistency),
        );
        assert!(report.outputs > 0);
        assert_eq!(report.duplicate_outputs, 0, "optimality violated");
        assert_eq!(report.blocked, 0, "strong optimality violated");
        assert_eq!(report.end_states, report.outputs);
        for h in &report.histories {
            assert!(
                IsolationLevel::CausalConsistency.satisfies(h),
                "unsound output"
            );
        }
    }

    #[test]
    fn fig12_optimality_no_duplicates() {
        let p = fig12_program();
        for level in [
            IsolationLevel::ReadCommitted,
            IsolationLevel::ReadAtomic,
            IsolationLevel::CausalConsistency,
        ] {
            let report = run(&p, ExploreConfig::explore_ce(level));
            assert_eq!(report.duplicate_outputs, 0, "duplicates under {level}");
            assert_eq!(report.blocked, 0, "blocked exploration under {level}");
            // Two independent writers and two independent readers of x:
            // each reader independently reads one of init/w2/w4 = 9 histories.
            assert_eq!(report.outputs, 9, "wrong count under {level}");
        }
    }

    #[test]
    fn fig13_optimality_no_duplicates() {
        let p = fig13_program();
        let report = run(
            &p,
            ExploreConfig::explore_ce(IsolationLevel::CausalConsistency),
        );
        assert_eq!(report.duplicate_outputs, 0);
        assert_eq!(report.blocked, 0);
        // Reader of x sees init or wx; reader of y sees init or wy: 4.
        assert_eq!(report.outputs, 4);
        // The x-transactions and y-transactions are statically
        // independent, so every commit skips its cross-pair reordering
        // candidates without scanning their reads.
        assert!(
            report.statically_pruned > 0,
            "disjoint-variable program must exercise the static pruner"
        );
    }

    /// Two disjoint lost-update pairs: sessions 0–1 race on x, sessions
    /// 2–3 race on y.
    fn two_pair_program() -> Program {
        let incr = |name: &str| {
            tx(
                "incr",
                vec![read("a", g(name)), write(g(name), add(local("a"), cint(1)))],
            )
        };
        program(vec![
            session(vec![incr("x")]),
            session(vec![incr("x")]),
            session(vec![incr("y")]),
            session(vec![incr("y")]),
        ])
    }

    #[test]
    fn output_filter_rejects_a_lost_update_within_one_pair() {
        let p = two_pair_program();
        let ser = LevelSpec::uniform(IsolationLevel::Serializability);
        let report = run(
            &p,
            ExploreConfig::explore_ce_star(
                IsolationLevel::CausalConsistency,
                IsolationLevel::Serializability,
            ),
        );
        assert!(report.statically_pruned > 0);
        // The filter must agree with the product of the one-pair counts:
        // each pair alone has 2 serializable histories out of 3 CC ones.
        assert_eq!(report.end_states, 9);
        assert_eq!(report.outputs, 4);
        for h in &report.histories {
            assert!(ser.satisfies(h));
        }
        // explore-ce*(CC, SER) walks the tree of explore-ce(CC), ids
        // included, so the first rejected end state is the first CC
        // output that SER rejects. Its core is a closed cycle of that
        // history, over the transactions of one pair.
        let core = report.first_rejection.expect("lost updates are rejected");
        let cc = run(
            &p,
            ExploreConfig::explore_ce(IsolationLevel::CausalConsistency),
        );
        let rejected = cc
            .histories
            .iter()
            .find(|h| !ser.satisfies(h))
            .expect("a CC history loses an update");
        txdpor_history::testkit::assert_verdict_valid(
            rejected,
            &ser,
            &Verdict::Inconsistent(core.clone()),
            false,
            "the first rejection",
        );
        let pairs: HashSet<u32> = core
            .cycle
            .iter()
            .filter(|e| !e.from.is_init())
            .map(|e| rejected.tx(e.from).session.0 / 2)
            .collect();
        assert_eq!(pairs.len(), 1, "core spans both pairs: {core}");
    }

    #[test]
    fn dfs_and_filtered_exploration_agree_on_disjoint_pairs() {
        // Under SER, the baseline's trial histories hold sessions of both
        // pairs; its engine must decide them whole as the filter does.
        let p = two_pair_program();
        let baseline = crate::dfs_explore(
            &p,
            crate::DfsConfig::new(IsolationLevel::Serializability).collecting_histories(),
        )
        .unwrap();
        let filtered = run(
            &p,
            ExploreConfig::explore_ce_star(
                IsolationLevel::CausalConsistency,
                IsolationLevel::Serializability,
            ),
        );
        let a: HashSet<_> = baseline.histories.iter().map(|h| h.fingerprint()).collect();
        let b: HashSet<_> = filtered.histories.iter().map(|h| h.fingerprint()).collect();
        assert_eq!(a, b, "baseline and filtered exploration disagree");
        assert_eq!(baseline.outputs, 4);
    }

    #[test]
    fn disabling_optimality_keeps_the_same_set_of_histories() {
        let p = fig12_program();
        let with = run(
            &p,
            ExploreConfig::explore_ce(IsolationLevel::CausalConsistency),
        );
        let without = run(
            &p,
            ExploreConfig::explore_ce(IsolationLevel::CausalConsistency).without_optimality(),
        );
        use std::collections::BTreeSet;
        let a: BTreeSet<_> = with.histories.iter().map(|h| h.fingerprint()).collect();
        let b: BTreeSet<_> = without.histories.iter().map(|h| h.fingerprint()).collect();
        assert_eq!(a, b, "ablation must not change the set of histories");
        assert!(
            without.outputs >= with.outputs,
            "ablation cannot output fewer histories"
        );
        assert!(
            without.duplicate_outputs > 0,
            "Fig. 12 forces redundancy without the Optimality check"
        );
    }

    #[test]
    fn aborting_transactions_are_handled() {
        let p = abort_program();
        let report = run(
            &p,
            ExploreConfig::explore_ce(IsolationLevel::CausalConsistency),
        );
        assert_eq!(report.duplicate_outputs, 0);
        assert_eq!(report.blocked, 0);
        assert!(report.outputs > 0);
        // Some histories must contain an aborted transaction (x read 0) and
        // some a committed write of y=1 (x read 4).
        let mut aborted = 0;
        let mut committed_guard = 0;
        for h in &report.histories {
            for t in h.transactions() {
                if t.is_aborted() {
                    aborted += 1;
                }
            }
            let y = report.vars.get("y").unwrap();
            if h.writers_of(y).len() > 2 {
                committed_guard += 1;
            }
        }
        assert!(aborted > 0, "no aborted execution explored");
        assert!(committed_guard > 0, "no execution where the guard commits");
    }

    /// The classic long-fork program: two blind writers and two readers
    /// observing the writes in opposite orders.
    fn long_fork_program() -> Program {
        program(vec![
            session(vec![tx("wx", vec![write(g("x"), cint(1))])]),
            session(vec![tx("wy", vec![write(g("y"), cint(1))])]),
            session(vec![tx("r1", vec![read("a", g("x")), read("b", g("y"))])]),
            session(vec![tx("r2", vec![read("c", g("y")), read("d", g("x"))])]),
        ])
    }

    #[test]
    fn explore_ce_star_filters_outputs() {
        let p = long_fork_program();
        let cc = run(
            &p,
            ExploreConfig::explore_ce(IsolationLevel::CausalConsistency),
        );
        let star = run(
            &p,
            ExploreConfig::explore_ce_star(
                IsolationLevel::CausalConsistency,
                IsolationLevel::Serializability,
            ),
        );
        // Same exploration, filtered outputs.
        assert_eq!(star.end_states, cc.end_states);
        assert!(star.outputs <= cc.outputs);
        assert_eq!(star.duplicate_outputs, 0);
        for h in &star.histories {
            assert!(IsolationLevel::Serializability.satisfies(h));
        }
        // Each reader independently observes one of {init, writer} for x and
        // y: 16 CC histories. Serializability forbids the two long-fork
        // observations (the readers seeing the writes in opposite orders).
        assert_eq!(cc.outputs, 16);
        assert_eq!(star.outputs, 14);
        assert!(star.outputs < cc.outputs);
        // The first filtered end state comes with its violation core: a
        // closed cycle whose forced edges carry SER axiom instances.
        let core = star
            .first_rejection
            .as_ref()
            .expect("a filtered run reports its first rejection");
        assert!(!core.cycle.is_empty());
        for (k, e) in core.cycle.iter().enumerate() {
            let next = &core.cycle[(k + 1) % core.cycle.len()];
            assert_eq!(e.to, next.from, "rejection core not a closed cycle");
        }
        assert!(
            cc.first_rejection.is_none(),
            "unfiltered exploration rejects nothing"
        );
    }

    #[test]
    fn mixed_target_spec_filters_exactly_the_spec_satisfying_histories() {
        use txdpor_history::LevelSpec;
        // Long fork with the two readers promoted to SER while the blind
        // writers stay CC. The exploration (base CC) must output
        // precisely the CC histories satisfying the mixed spec.
        let p = long_fork_program();
        let cc = run(
            &p,
            ExploreConfig::explore_ce(IsolationLevel::CausalConsistency),
        );
        let spec = LevelSpec::uniform(IsolationLevel::CausalConsistency)
            .with_override(2, 0, IsolationLevel::Serializability)
            .with_override(3, 0, IsolationLevel::Serializability);
        let mixed = run(
            &p,
            ExploreConfig::explore_ce_star_spec(
                LevelSpec::uniform(IsolationLevel::CausalConsistency),
                spec.clone(),
            ),
        );
        assert_eq!(mixed.end_states, cc.end_states);
        assert_eq!(mixed.duplicate_outputs, 0);
        let expected = cc.histories.iter().filter(|h| spec.satisfies(h)).count() as u64;
        assert_eq!(mixed.outputs, expected, "mixed filter disagrees");
        for h in &mixed.histories {
            assert!(spec.satisfies(h), "unsound mixed output");
        }
        // The axioms constrain each *reader* at its own level, so the two
        // SER readers rule out exactly the two opposite-order long-fork
        // observations — and since the blind writers have no reads, their
        // CC assignment changes nothing vs uniform SER.
        let ser = run(
            &p,
            ExploreConfig::explore_ce_star(
                IsolationLevel::CausalConsistency,
                IsolationLevel::Serializability,
            ),
        );
        assert_eq!(cc.outputs, 16);
        assert_eq!(mixed.outputs, 14);
        assert_eq!(mixed.outputs, ser.outputs);
        // Demoting one reader back to CC frees the other's observation:
        // a single SER reader filters nothing on this program.
        let one_ser = LevelSpec::uniform(IsolationLevel::CausalConsistency).with_override(
            2,
            0,
            IsolationLevel::Serializability,
        );
        let loose = run(
            &p,
            ExploreConfig::explore_ce_star_spec(
                LevelSpec::uniform(IsolationLevel::CausalConsistency),
                one_ser.clone(),
            ),
        );
        let expected = cc.histories.iter().filter(|h| one_ser.satisfies(h)).count() as u64;
        assert_eq!(loose.outputs, expected);
        assert_eq!(loose.outputs, cc.outputs);
    }

    #[test]
    fn mixed_weak_base_spec_is_explorable() {
        use std::collections::BTreeSet;
        use txdpor_history::LevelSpec;
        // Exploring under a *mixed weak* base (one RC reader in a CC
        // world) is legal — all levels causally extensible — and
        // enumerates a superset of the uniform CC histories, which a CC
        // output filter then recovers exactly.
        let p = long_fork_program();
        let base = LevelSpec::uniform(IsolationLevel::CausalConsistency)
            .with_override(3, 0, IsolationLevel::ReadCommitted)
            .with_override(2, 0, IsolationLevel::ReadCommitted);
        let target = LevelSpec::uniform(IsolationLevel::CausalConsistency);
        let mixed_base = run(
            &p,
            ExploreConfig::explore_ce_star_spec(base, target.clone()),
        );
        let cc = run(
            &p,
            ExploreConfig::explore_ce(IsolationLevel::CausalConsistency),
        );
        assert_eq!(mixed_base.duplicate_outputs, 0, "optimality violated");
        assert_eq!(mixed_base.blocked, 0, "strong optimality violated");
        let a: BTreeSet<_> = mixed_base
            .histories
            .iter()
            .map(|h| h.fingerprint())
            .collect();
        let b: BTreeSet<_> = cc.histories.iter().map(|h| h.fingerprint()).collect();
        assert_eq!(a, b, "filtered mixed-weak base must recover the CC set");
    }

    #[test]
    fn timeout_is_respected() {
        let p = fig12_program();
        let config = ExploreConfig::explore_ce(IsolationLevel::CausalConsistency)
            .with_timeout(std::time::Duration::ZERO);
        let report = explore(&p, config).unwrap();
        assert!(report.timed_out);
        assert_eq!(report.outputs, 0);
    }

    /// A budget that is never spent explores exactly what no budget does:
    /// reading the clock once per stride only changes when a spent budget
    /// is noticed.
    #[test]
    fn a_generous_timeout_gives_the_counts_of_no_timeout() {
        use crate::dfs::{dfs_explore, DfsConfig};
        use std::time::Duration;
        use txdpor_apps::workload::{client_program, App, WorkloadConfig};

        let p = client_program(&WorkloadConfig {
            app: App::ShoppingCart,
            sessions: 3,
            transactions_per_session: 3,
            seed: 1,
        });
        let budget = Duration::from_secs(3600);
        for config in [
            ExploreConfig::explore_ce(IsolationLevel::CausalConsistency),
            ExploreConfig::explore_ce_star(
                IsolationLevel::ReadAtomic,
                IsolationLevel::Serializability,
            ),
        ] {
            let free = run(&p, config.clone());
            let budgeted = run(&p, config.with_timeout(budget));
            assert!(!free.timed_out && !budgeted.timed_out);
            assert!(
                free.explore_calls > 2 * u64::from(crate::deadline::DEADLINE_STRIDE),
                "{} calls do not span several clock strides",
                free.explore_calls
            );
            assert_eq!(budgeted.explore_calls, free.explore_calls);
            assert_eq!(budgeted.end_states, free.end_states);
            assert_eq!(budgeted.outputs, free.outputs);
            assert_eq!(budgeted.blocked, free.blocked);
            assert_eq!(budgeted.statically_pruned, free.statically_pruned);
            let (b, f) = (budgeted.engine_stats, free.engine_stats);
            assert_eq!((b.checks, b.memo_hits), (f.checks, f.memo_hits));
            assert_eq!(b.full_rebuilds, f.full_rebuilds);
        }
        // The baseline on a smaller program: it visits far more nodes.
        let p = client_program(&WorkloadConfig {
            app: App::Twitter,
            sessions: 3,
            transactions_per_session: 2,
            seed: 1,
        });
        let dfs = DfsConfig::new(IsolationLevel::CausalConsistency);
        let free = dfs_explore(&p, dfs.clone()).unwrap();
        let budgeted = dfs_explore(&p, dfs.with_timeout(budget)).unwrap();
        assert!(!budgeted.timed_out);
        assert!(free.explore_calls > 2 * u64::from(crate::deadline::DEADLINE_STRIDE));
        assert_eq!(budgeted.explore_calls, free.explore_calls);
        assert_eq!(budgeted.end_states, free.end_states);
        assert_eq!(budgeted.outputs, free.outputs);
    }

    #[test]
    fn assertion_violations_are_detected() {
        // Lost-update program: two increments of x; under CC the final
        // counter can miss an increment.
        let incr = || {
            tx(
                "incr",
                vec![read("a", g("x")), write(g("x"), add(local("a"), cint(1)))],
            )
        };
        let p = program(vec![session(vec![incr()]), session(vec![incr()])]);
        let assertion = |ctx: &AssertionCtx<'_>| {
            // Serial executions end with some transaction writing 2.
            ctx.committed_values_of("x")
                .contains(&txdpor_history::Value::Int(2))
        };
        let report = explore_with_assertion(
            &p,
            ExploreConfig::explore_ce(IsolationLevel::CausalConsistency),
            Some(&assertion),
        )
        .unwrap();
        assert!(
            report.assertion_violations > 0,
            "lost update not found under CC"
        );
        assert!(report.violating_history.is_some());
        // Under serializability the assertion holds in every history.
        let report = explore_with_assertion(
            &p,
            ExploreConfig::explore_ce_star(
                IsolationLevel::CausalConsistency,
                IsolationLevel::Serializability,
            ),
            Some(&assertion),
        )
        .unwrap();
        assert_eq!(report.assertion_violations, 0);
    }

    #[test]
    fn error_display() {
        let e = ExploreError::Semantics(SemanticsError::MultiplePending);
        assert!(e.to_string().contains("semantics error"));
    }

    /// Regression test for the pool's panic-safety protocol: an assertion
    /// that panics on a complete history kills the worker evaluating it.
    /// The panic must drain the task's in-flight slot and poison the pool
    /// (siblings exit instead of spinning in `Backoff` on a count that
    /// can never reach zero) and then propagate through the scope join —
    /// so this test completes instead of hanging, and the surviving
    /// workers' results are simply discarded with the run.
    #[test]
    fn panicking_worker_task_propagates_without_hanging() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // Four sessions racing on x. Every complete history panics, so the
        // panic fires on worker 0 (the calling thread) or on the helper it
        // handed work to, whichever reaches one first; either way the
        // other worker must exit.
        let p = program(
            (0..4)
                .map(|k| {
                    session(vec![tx(
                        "bump",
                        vec![read("a", g("x")), write(g("x"), cint(k as i64))],
                    )])
                })
                .collect(),
        );
        let assertion: &crate::assertion::AssertionFn = &|_ctx| panic!("deliberate test panic");
        let config = ExploreConfig::explore_ce(IsolationLevel::CausalConsistency).with_workers(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            explore_with_assertion(&p, config, Some(assertion))
        }));
        assert!(result.is_err(), "the worker panic must propagate");
    }

    /// A write computed from a read: the reader's write of y is the x it
    /// read plus 10, in every output history, whichever writer of x the
    /// read got. With the reader between the writers' sessions, its read
    /// has two `ValidWrites` moves (init and the first writer), which must
    /// each resume their own copy of the reader's cursor, and a swap
    /// re-orders it to read the second writer. With the reader first, every
    /// non-init value comes from a swap.
    #[test]
    fn a_write_follows_the_value_its_read_returned() {
        use std::collections::BTreeSet;
        use txdpor_history::Value;
        let reader = || {
            tx(
                "r",
                vec![read("a", g("x")), write(g("y"), add(local("a"), cint(10)))],
            )
        };
        let writer = |v| tx("w", vec![write(g("x"), cint(v))]);
        let programs = [
            program(vec![
                session(vec![writer(1)]),
                session(vec![reader()]),
                session(vec![writer(2)]),
            ]),
            program(vec![
                session(vec![reader()]),
                session(vec![writer(1)]),
                session(vec![writer(2)]),
            ]),
        ];
        let configs = [
            ExploreConfig::explore_ce(IsolationLevel::CausalConsistency),
            ExploreConfig::explore_ce_star(
                IsolationLevel::ReadCommitted,
                IsolationLevel::CausalConsistency,
            ),
        ];
        for p in &programs {
            for config in &configs {
                let report = run(p, config.clone());
                assert_eq!(report.duplicate_outputs, 0);
                let x = report.vars.get("x").unwrap();
                let y = report.vars.get("y").unwrap();
                let mut seen = BTreeSet::new();
                for h in &report.histories {
                    let r = h
                        .transactions()
                        .find(|t| t.write_events().any(|e| e.var() == Some(y)))
                        .expect("the reader commits");
                    let read = r
                        .events
                        .iter()
                        .find(|e| e.kind == EventKind::Read(x))
                        .expect("the reader reads x");
                    let Some(Value::Int(a)) = h.read_value(read.id) else {
                        panic!("x reads an integer in\n{h}");
                    };
                    assert_eq!(
                        r.visible_write_value(y),
                        Some(&Value::Int(a + 10)),
                        "y is not x + 10 in\n{h}"
                    );
                    seen.insert(a);
                }
                assert_eq!(
                    seen,
                    BTreeSet::from([0, 1, 2]),
                    "under {}",
                    config.exploration
                );
            }
        }
    }

    /// The long fork with the readers' sessions first: every write then
    /// commits after the reads, which the exploration re-orders.
    fn readers_first_long_fork() -> Program {
        program(vec![
            session(vec![tx("r1", vec![read("a", g("x")), read("b", g("y"))])]),
            session(vec![tx("r2", vec![read("c", g("y")), read("d", g("x"))])]),
            session(vec![tx("wx", vec![write(g("x"), cint(1))])]),
            session(vec![tx("wy", vec![write(g("y"), cint(1))])]),
        ])
    }

    /// Every swap the traversal applies while exploring the Fig. 12 and
    /// long-fork programs equals the reference `Swap(h, r, t)`: same
    /// history, order and rolling hash.
    #[test]
    fn every_applied_swap_equals_swap() {
        let cc = ExploreConfig::explore_ce(IsolationLevel::CausalConsistency);
        let star = ExploreConfig::explore_ce_star(
            IsolationLevel::ReadCommitted,
            IsolationLevel::CausalConsistency,
        );
        for (p, min_swaps) in [
            (fig12_program(), 1),
            (long_fork_program(), 0),
            (readers_first_long_fork(), 1),
        ] {
            for config in [&cc, &star] {
                let mut explorer = Explorer::new(&p, config, None);
                let root = OrderedHistory::new(initial_history(&p, &mut explorer.vars));
                let mut swaps = 0;
                explorer
                    .traverse(root, None, |h, frame, k| {
                        if let Moves::Swaps { target, reads, .. } = &frame.moves {
                            crate::swap::assert_apply_swap_equals_swap(h, reads[k], *target);
                            swaps += 1;
                        }
                    })
                    .unwrap();
                assert!(swaps >= min_swaps, "{swaps} swaps applied");
                assert_eq!(explorer.report.outputs, run(&p, config.clone()).outputs);
            }
        }
    }

    /// A session whose second transaction reads what its first wrote,
    /// while another session writes the same variables. Under Read
    /// Committed the reader may read from init or from its session
    /// predecessor, so the causally latest valid writer is not the first
    /// candidate `readLatest` tries.
    fn read_own_session_program() -> Program {
        program(vec![
            session(vec![
                tx("w1", vec![write(g("x"), cint(1))]),
                tx("r", vec![read("a", g("x")), read("b", g("y"))]),
            ]),
            session(vec![tx(
                "w2",
                vec![write(g("y"), cint(2)), write(g("x"), cint(2))],
            )]),
        ])
    }

    /// The commit-wide `Optimality` pass decides exactly what the
    /// per-re-ordering reference `optimality` decides, at every commit met
    /// while exploring the Fig. 10, 12 and 13 programs, both session
    /// orders of the long fork, the abort program, a read-own-session
    /// program and small programs of four benchmark apps, under weak,
    /// filtered and no-`Optimality` configurations. It leaves the
    /// history, its order and its rolling hash as it found them, and its
    /// `swapped` agrees with the reference on every read. The fixtures
    /// must make the condition cut at least once for each reason: a
    /// swapped read, a failed `readLatest`, an inconsistent swap.
    #[test]
    fn commit_pass_agrees_with_per_reordering_optimality() {
        use crate::optimality::{optimality, read_latest, swapped};
        use crate::swap::doomed_events_with;
        use txdpor_apps::workload::{client_program, App, WorkloadConfig};
        use txdpor_history::engine_for_spec;

        let mut programs = vec![
            fig10_program(),
            fig12_program(),
            fig13_program(),
            long_fork_program(),
            readers_first_long_fork(),
            abort_program(),
            read_own_session_program(),
        ];
        for app in [
            App::Courseware,
            App::ShoppingCart,
            App::Twitter,
            App::Wikipedia,
        ] {
            programs.push(client_program(&WorkloadConfig {
                app,
                sessions: 3,
                transactions_per_session: 3,
                seed: 1,
            }));
        }
        let configs = [
            ExploreConfig::explore_ce(IsolationLevel::CausalConsistency),
            ExploreConfig::explore_ce_star(
                IsolationLevel::ReadCommitted,
                IsolationLevel::CausalConsistency,
            ),
            ExploreConfig::explore_ce_star(
                IsolationLevel::ReadAtomic,
                IsolationLevel::Serializability,
            ),
            ExploreConfig::explore_ce(IsolationLevel::CausalConsistency).without_optimality(),
        ];
        let (mut commits, mut swapped_cuts, mut read_latest_cuts, mut inconsistent) = (0, 0, 0, 0);
        for p in &programs {
            for config in &configs {
                let mut explorer = Explorer::new(p, config, None);
                explorer.commits = Some(Vec::new());
                let root = OrderedHistory::new(initial_history(p, &mut explorer.vars));
                explorer.explore(root, None).unwrap();
                // One pass for the whole run, as in the explorer: its
                // buffers carry over from commit to commit.
                let mut pass = CommitPass::default();
                let mut reference = engine_for_spec(&config.exploration);
                let mut engine = engine_for_spec(&config.exploration);
                let full = config.full_optimality;
                for mut h in explorer.commits.take().unwrap() {
                    commits += 1;
                    let (ancestors, reorderings) =
                        compute_reorderings_and_ancestors(&h, None, &mut 0).unwrap();
                    let mut want = Vec::new();
                    for r in &reorderings {
                        let ck = reference.as_mut();
                        if optimality(&mut h, r.read, r.target, &ancestors, ck, full) {
                            want.push(r.read);
                        } else if !optimality(&mut h, r.read, r.target, &ancestors, ck, false) {
                            inconsistent += 1;
                        } else {
                            // Cut by the full condition: by a read that
                            // is swapped or fails `readLatest`.
                            let doomed = doomed_events_with(&h, r.read, r.target, &ancestors);
                            let reads: Vec<EventId> = std::iter::once(r.read)
                                .chain(doomed.into_iter().filter(|e| h.history.wr_of(*e).is_some()))
                                .collect();
                            if reads.iter().any(|e| swapped(&h, *e)) {
                                swapped_cuts += 1;
                            }
                            if reads.iter().any(|e| {
                                !swapped(&h, *e)
                                    && !read_latest(&mut h, *e, r.target, &ancestors, ck)
                            }) {
                                read_latest_cuts += 1;
                            }
                        }
                    }
                    for e in h.order.clone() {
                        if h.history.wr_of(e).is_some() {
                            assert_eq!(pass.swapped_read(&h, e), swapped(&h, e), "swapped({e})");
                        }
                    }
                    let before = h.clone();
                    let mut got = Vec::new();
                    pass.decide(
                        &mut h,
                        &reorderings,
                        &ancestors,
                        engine.as_mut(),
                        full,
                        &mut got,
                    );
                    assert_eq!(got, want, "pass and reference disagree on\n{}", h.history);
                    assert_eq!(h, before, "the pass did not restore the history");
                    assert_eq!(h.history.live_hash(), before.history.live_hash());
                }
            }
        }
        assert!(commits > 50, "only {commits} commits met");
        assert!(swapped_cuts > 0, "no re-ordering cut by a swapped read");
        assert!(read_latest_cuts > 0, "no re-ordering cut by readLatest");
        assert!(inconsistent > 0, "no inconsistent swap");
    }

    /// Handing work out is exact. A single-threaded worker whose sibling
    /// is marked idle hands out the untried moves of its shallowest frame
    /// whenever its deque is empty; exploring every handed-out task as a
    /// task of its own reproduces the serial run's counts and output
    /// fingerprints.
    #[test]
    fn handed_out_moves_explore_to_the_serial_result() {
        use std::collections::BTreeSet;
        let cc = ExploreConfig::explore_ce(IsolationLevel::CausalConsistency);
        let cases = [
            (fig12_program(), cc.clone()),
            (fig12_program(), cc.clone().without_optimality()),
            (abort_program(), cc.clone()),
            (readers_first_long_fork(), cc),
            (
                readers_first_long_fork(),
                ExploreConfig::explore_ce_star(
                    IsolationLevel::ReadAtomic,
                    IsolationLevel::Serializability,
                ),
            ),
        ];
        for (p, config) in cases {
            let config = config.tracking_duplicates().collecting_histories();
            let serial = run(&p, config.clone());
            let pool = StealPool::new(2);
            pool.enter_idle();
            let mut worker = Explorer::new(&p, &config, None);
            pool.seed([OrderedHistory::new(initial_history(&p, &mut worker.vars))]);
            let mut tasks = 0;
            while let Some(task) = pool.pop_local(0) {
                worker.explore(task, Some((&pool, 0))).unwrap();
                pool.finish_task();
                tasks += 1;
            }
            assert!(pool.is_done());
            assert!(tasks > 1, "nothing was handed out");
            let got = &worker.report;
            assert_eq!(got.explore_calls, serial.explore_calls);
            assert_eq!(got.end_states, serial.end_states);
            assert_eq!(got.outputs, serial.outputs);
            assert_eq!(got.blocked, serial.blocked);
            assert_eq!(got.duplicate_outputs, serial.duplicate_outputs);
            assert_eq!(got.max_events, serial.max_events);
            let fingerprints = |r: &ExplorationReport| -> BTreeSet<_> {
                r.histories.iter().map(|h| h.fingerprint()).collect()
            };
            assert_eq!(fingerprints(got), fingerprints(&serial));
        }
    }

    /// A worker stops at its next move once the pool is poisoned: a failed
    /// sibling has lost the run, and worker 0's task is the whole tree.
    #[test]
    fn a_poisoned_pool_stops_the_traversal_at_the_next_move() {
        let p = fig12_program();
        let config = ExploreConfig::explore_ce(IsolationLevel::CausalConsistency);
        let serial = run(&p, config.clone());
        let pool = StealPool::new(2);
        pool.poison();
        let mut worker = Explorer::new(&p, &config, None);
        let root = OrderedHistory::new(initial_history(&p, &mut worker.vars));
        worker.explore(root, Some((&pool, 0))).unwrap();
        assert!(worker.report.explore_calls < serial.explore_calls);
        assert_eq!(worker.report.end_states, 0, "no complete history");
        assert!(serial.end_states > 0);
    }

    /// Regression test for the `ValidWrites` trial protocol: the candidate
    /// set on a history with two committed writers is pinned, every
    /// verdict agrees with a from-scratch check on an independent history
    /// clone (so no candidate's check can have observed a stale wr edge
    /// left by the previous candidate), and the trial leaves the node's
    /// history bit-identical.
    #[test]
    fn valid_writes_pins_two_writer_candidate_set() {
        use txdpor_history::{engine_for, History, IsolationLevel, Value};

        let x = Var(0);
        let mut history = History::new([]);
        let mut order = Vec::new();
        let mut id = 0u32;
        let mut fresh = || {
            id += 1;
            EventId(id)
        };
        // Session 0: t1 = write(x,1); session 1: t2 = write(x,2); both
        // committed. Session 2: t3 pending, about to read x.
        for (s, (t, v)) in [(TxId(1), 1i64), (TxId(2), 2i64)].into_iter().enumerate() {
            let b = fresh();
            history.begin_transaction(SessionId(s as u32), t, 0, Event::new(b, EventKind::Begin));
            order.push(b);
            let w = fresh();
            history.append_event(
                SessionId(s as u32),
                Event::new(w, EventKind::Write(x, Value::Int(v))),
            );
            order.push(w);
            let c = fresh();
            history.append_event(SessionId(s as u32), Event::new(c, EventKind::Commit));
            order.push(c);
        }
        let b = fresh();
        history.begin_transaction(SessionId(2), TxId(3), 0, Event::new(b, EventKind::Begin));
        order.push(b);
        let mut h = OrderedHistory { history, order };
        h.check_invariants().unwrap();
        let snapshot = h.clone();

        let p = fig12_program(); // any program: valid_writes only uses the checker
        let config = ExploreConfig::explore_ce(IsolationLevel::CausalConsistency);
        let mut explorer = Explorer::new(&p, &config, None);
        let ev = Event::new(EventId(100), EventKind::Read(x));
        let writers = explorer.valid_writes(&mut h, SessionId(2), &ev);

        // The candidate set is exactly {init, t1, t2} under CC.
        assert_eq!(writers, vec![TxId::INIT, TxId(1), TxId(2)]);
        // The trial rolled everything back.
        assert_eq!(h, snapshot);
        assert_eq!(h.history.live_hash(), snapshot.history.live_hash());
        // Cross-validate every candidate on an independent clone with a
        // fresh engine: identical verdicts, trial order irrelevant.
        for writer in &writers {
            let mut trial = snapshot.history.clone();
            trial.append_event(SessionId(2), ev.clone());
            trial.set_wr(ev.id, *writer);
            let mut engine = engine_for(IsolationLevel::CausalConsistency);
            assert!(
                engine.check(&trial),
                "candidate {writer} validated by the journal protocol but \
                 rejected from scratch"
            );
        }
    }
}
