//! Operational semantics of transactional programs (§2.3, Appendix B).
//!
//! A transaction body runs on a [`TxCursor`], a resumable interpreter that
//! holds the transaction's local state: its position in the body, the
//! valuation of its locals and the values it wrote. [`TxCursor::next`]
//! executes assignments and guards up to the next database step (a read, a
//! write, the commit or an abort) without consuming it, and
//! [`TxCursor::read`] and [`TxCursor::write`] consume it. A read returns
//! the transaction's own latest write of the variable when there is one
//! (rule `read-local`), which the cursor knows; otherwise it is external
//! (rule `read-extern`) and its value comes from the writer `wr` chooses.
//!
//! The history fixes the value of every read, so a transaction's log
//! drives a cursor along exactly one control-flow path. Replay is therefore
//! the way to *rebuild* a cursor: [`TxCursor::replay`] feeds a log to a
//! fresh cursor and checks that the body could have produced it. Callers
//! that step a transaction keep its cursor and replay only when they lose
//! it: the explorer keeps the pending transaction's cursor from step to
//! step and replays only after a swap rewrote that transaction's log or at
//! the root of a task; the store client keeps the cursor of each attempt
//! and never replays.
//!
//! [`oracle_next`] is the `Next` scheduler of §5.1 in replay form: it
//! completes the unique pending transaction first and otherwise starts the
//! oracle-order minimal unstarted transaction. The DFS baseline calls it
//! at every node; the explorer checks its own cursor against it in debug
//! builds.

use std::fmt;

use txdpor_history::{
    Event, EventId, EventKind, History, SessionId, TransactionLog, TxId, Value, Var, VarTable,
};

use crate::chain::Chain;
use crate::expr::{Env, EvalError};
use crate::instr::{Instr, Program, TransactionDef};

/// Error raised while replaying a history against a program.
#[derive(Clone, Debug, PartialEq)]
pub enum SemanticsError {
    /// An expression failed to evaluate.
    Eval(EvalError),
    /// The history contains events that the program cannot have produced.
    ReplayMismatch {
        /// What the program expected at this point.
        expected: String,
        /// What the history contains.
        found: String,
    },
    /// The history references a transaction absent from the program.
    UnknownTransaction {
        /// Session of the offending transaction.
        session: u32,
        /// Program index of the offending transaction.
        index: usize,
    },
    /// The history has more than one pending transaction, violating the
    /// scheduler invariant of §5.1.
    MultiplePending,
}

impl fmt::Display for SemanticsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemanticsError::Eval(e) => write!(f, "evaluation error: {e}"),
            SemanticsError::ReplayMismatch { expected, found } => {
                write!(f, "replay mismatch: expected {expected}, found {found}")
            }
            SemanticsError::UnknownTransaction { session, index } => {
                write!(f, "history references transaction {index} of session {session}, which the program does not define")
            }
            SemanticsError::MultiplePending => {
                write!(f, "history has more than one pending transaction")
            }
        }
    }
}

impl std::error::Error for SemanticsError {}

impl From<EvalError> for SemanticsError {
    fn from(e: EvalError) -> Self {
        SemanticsError::Eval(e)
    }
}

/// The next database step of a transaction.
#[derive(Clone, Debug, PartialEq)]
pub enum TxStep {
    /// A read instruction. `internal_value` is `Some(v)` when the
    /// transaction already wrote the variable (rule `read-local`), in which
    /// case the read returns `v` and needs no `wr` dependency; otherwise
    /// the read is external (rule `read-extern`) and the exploration must
    /// choose a writer.
    Read {
        /// Variable being read.
        var: Var,
        /// Value for internal reads.
        internal_value: Option<Value>,
    },
    /// A write instruction with its evaluated value.
    Write {
        /// Variable being written.
        var: Var,
        /// Value to write.
        value: Value,
    },
    /// The transaction body is finished; the next event is `commit`.
    Commit,
    /// An `abort` instruction; the next event is `abort`.
    Abort,
}

impl TxStep {
    /// What a log must hold at this step, for mismatch reports.
    fn expected(&self) -> String {
        match self {
            TxStep::Read { var, .. } => format!("read({var})"),
            TxStep::Write { var, .. } => format!("write({var})"),
            TxStep::Commit => "commit".to_owned(),
            TxStep::Abort => "abort".to_owned(),
        }
    }
}

/// Result of replaying a transaction's log.
#[derive(Clone, Debug, PartialEq)]
pub struct TxReplay {
    /// Valuation of local variables after consuming every logged event and
    /// the local instructions that follow them.
    pub env: Env,
    /// The next database step, or `None` if the log is complete.
    pub next: Option<TxStep>,
}

/// A resumable interpreter of one transaction body: the position in the
/// body, the valuation of the locals and the transaction's own writes.
///
/// A cursor does not hold its body: every call takes the
/// [`TransactionDef`] the cursor was started on, so cursors are plain
/// values that can be cloned, stored and sent between threads.
///
/// # Examples
///
/// ```
/// use txdpor_history::{Value, VarTable};
/// use txdpor_program::dsl::*;
/// use txdpor_program::{TxCursor, TxStep};
///
/// let def = tx("incr", vec![
///     read("a", g("x")),
///     write(g("x"), add(local("a"), cint(1))),
/// ]);
/// let mut vars = VarTable::new();
/// let mut cursor = TxCursor::new();
/// let TxStep::Read { var, internal_value: None } = cursor.next(&def, &mut vars)? else {
///     unreachable!("the body starts with an external read")
/// };
/// cursor.read(&def, Value::Int(41))?;
/// assert_eq!(
///     cursor.next(&def, &mut vars)?,
///     TxStep::Write { var, value: Value::Int(42) }
/// );
/// cursor.write(&def, var, Value::Int(42))?;
/// assert_eq!(cursor.next(&def, &mut vars)?, TxStep::Commit);
/// # Ok::<(), txdpor_program::SemanticsError>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TxCursor {
    /// The `if` instructions the cursor is inside, outermost first: each
    /// one's index in its block and whether it took its then-branch.
    /// Empty at the top level of the body.
    outer: Vec<(usize, bool)>,
    /// Index of the current instruction in the innermost block.
    at: usize,
    env: Env,
    /// The transaction's writes, newest first. Like the environment, they
    /// are shared with the cursor's copies.
    writes: Chain<(Var, Value)>,
}

impl TxCursor {
    /// A cursor at the start of a body: the transaction has just begun.
    pub fn new() -> Self {
        Self::default()
    }

    /// The valuation of the locals.
    pub fn env(&self) -> &Env {
        &self.env
    }

    /// The innermost block the cursor is in.
    fn block<'d>(&self, def: &'d TransactionDef) -> &'d [Instr] {
        let mut block = def.body.as_slice();
        for &(at, then) in &self.outer {
            block = match block.get(at) {
                Some(Instr::If {
                    then_branch,
                    else_branch,
                    ..
                }) => {
                    if then {
                        then_branch
                    } else {
                        else_branch
                    }
                }
                _ => &[],
            };
        }
        block
    }

    /// The value the transaction last wrote to `var`, if it wrote it.
    fn own_write(&self, var: Var) -> Option<&Value> {
        self.writes
            .iter()
            .find_map(|(x, v)| (*x == var).then_some(v))
    }

    /// Runs assignments and guards up to the next database step of `def`
    /// and returns that step without consuming it: calling `next` again
    /// returns the same step. The body's end is [`TxStep::Commit`].
    ///
    /// # Errors
    ///
    /// Returns an evaluation error from the body.
    pub fn next(
        &mut self,
        def: &TransactionDef,
        vars: &mut VarTable,
    ) -> Result<TxStep, SemanticsError> {
        let mut block = self.block(def);
        loop {
            match block.get(self.at) {
                None => {
                    let Some((at, _)) = self.outer.pop() else {
                        return Ok(TxStep::Commit);
                    };
                    self.at = at + 1;
                    block = self.block(def);
                }
                Some(Instr::Assign { local, expr }) => {
                    let v = expr.eval(&self.env)?;
                    self.env.set(local, v);
                    self.at += 1;
                }
                Some(Instr::If {
                    cond,
                    then_branch,
                    else_branch,
                }) => {
                    let then = cond.eval(&self.env)?.truthy();
                    self.outer.push((self.at, then));
                    self.at = 0;
                    block = if then { then_branch } else { else_branch };
                }
                Some(Instr::Read { global, .. }) => {
                    let var = global.resolve(&self.env, vars)?;
                    let internal_value = self.own_write(var).cloned();
                    return Ok(TxStep::Read {
                        var,
                        internal_value,
                    });
                }
                Some(Instr::Write { global, expr }) => {
                    let var = global.resolve(&self.env, vars)?;
                    let value = expr.eval(&self.env)?;
                    return Ok(TxStep::Write { var, value });
                }
                Some(Instr::Abort) => return Ok(TxStep::Abort),
            }
        }
    }

    /// Consumes the read that [`next`](TxCursor::next) returned, binding
    /// its local to `value`.
    ///
    /// # Errors
    ///
    /// Returns [`SemanticsError::ReplayMismatch`] if the cursor is not at a
    /// read of `def`.
    pub fn read(&mut self, def: &TransactionDef, value: Value) -> Result<(), SemanticsError> {
        match self.block(def).get(self.at) {
            Some(Instr::Read { local, .. }) => {
                self.env.set(local, value);
                self.at += 1;
                Ok(())
            }
            other => Err(not_at("a read", other)),
        }
    }

    /// Consumes the write that [`next`](TxCursor::next) returned, which
    /// wrote `value` to `var`.
    ///
    /// # Errors
    ///
    /// Returns [`SemanticsError::ReplayMismatch`] if the cursor is not at a
    /// write of `def`.
    pub fn write(
        &mut self,
        def: &TransactionDef,
        var: Var,
        value: Value,
    ) -> Result<(), SemanticsError> {
        match self.block(def).get(self.at) {
            Some(Instr::Write { .. }) => {
                self.writes.push((var, value));
                self.at += 1;
                Ok(())
            }
            other => Err(not_at("a write", other)),
        }
    }

    /// Rebuilds a transaction's cursor by feeding its `log` (begin event
    /// first) to a fresh cursor, and returns it with the step that follows
    /// the log, or `None` when the log is complete. External reads take the
    /// value of their `wr` writer in `history`.
    ///
    /// # Errors
    ///
    /// Returns [`SemanticsError::ReplayMismatch`] if the log could not have
    /// been produced by the definition, or an evaluation error from the
    /// body.
    pub fn replay(
        def: &TransactionDef,
        history: &History,
        log: &TransactionLog,
        vars: &mut VarTable,
    ) -> Result<(TxCursor, Option<TxStep>), SemanticsError> {
        debug_assert!(
            log.events.first().is_some_and(|e| e.kind.is_begin()),
            "transaction log must start with begin"
        );
        let mut cursor = TxCursor::new();
        let mut events = log.events.iter().skip(1);
        loop {
            let step = cursor.next(def, vars)?;
            let Some(ev) = events.next() else {
                return Ok((cursor, Some(step)));
            };
            match (step, &ev.kind) {
                (
                    TxStep::Read {
                        var,
                        internal_value,
                    },
                    EventKind::Read(x),
                ) if *x == var => {
                    let value = match internal_value {
                        Some(v) => v,
                        None => history
                            .read_value(ev.id)
                            .ok_or_else(|| mismatch("read with a defined value", Some(ev)))?,
                    };
                    cursor.read(def, value)?;
                }
                (TxStep::Write { var, .. }, EventKind::Write(x, v)) if *x == var => {
                    cursor.write(def, var, v.clone())?;
                }
                (TxStep::Commit, EventKind::Commit) | (TxStep::Abort, EventKind::Abort) => {
                    if let Some(extra) = events.next() {
                        return Err(mismatch("end of transaction", Some(extra)));
                    }
                    return Ok((cursor, None));
                }
                (step, _) => return Err(mismatch(&step.expected(), Some(ev))),
            }
        }
    }
}

/// A replay mismatch: the program expected `expected` where the log holds
/// `found` (`None` past the end of the log).
fn mismatch(expected: &str, found: Option<&Event>) -> SemanticsError {
    SemanticsError::ReplayMismatch {
        expected: expected.to_owned(),
        found: found.map_or_else(|| "end of log".to_owned(), |e| e.kind.to_string()),
    }
}

/// A cursor asked to consume `expected` while at `found` instead.
fn not_at(expected: &str, found: Option<&Instr>) -> SemanticsError {
    let found = match found {
        None => "the end of a block",
        Some(Instr::Assign { .. }) => "an assignment",
        Some(Instr::Read { .. }) => "a read",
        Some(Instr::Write { .. }) => "a write",
        Some(Instr::Abort) => "an abort",
        Some(Instr::If { .. }) => "an if",
    };
    SemanticsError::ReplayMismatch {
        expected: format!("a cursor at {expected}"),
        found: format!("a cursor at {found}"),
    }
}

/// Replays a transaction's log against its definition, returning the local
/// environment and the next database step (if the log is incomplete). See
/// [`TxCursor::replay`].
///
/// # Errors
///
/// Returns [`SemanticsError::ReplayMismatch`] if the log could not have been
/// produced by the definition, or an evaluation error from the body.
pub fn replay_transaction(
    def: &TransactionDef,
    history: &History,
    log: &TransactionLog,
    vars: &mut VarTable,
) -> Result<TxReplay, SemanticsError> {
    let (cursor, next) = TxCursor::replay(def, history, log, vars)?;
    Ok(TxReplay {
        env: cursor.env,
        next,
    })
}

/// What the oracle-order scheduler `Next` should do for the given history.
#[derive(Clone, Debug, PartialEq)]
pub enum SchedulerStep {
    /// Extend the unique pending transaction with the given database step.
    Continue {
        /// Session owning the pending transaction.
        session: SessionId,
        /// The step to perform.
        step: TxStep,
    },
    /// Start the next transaction of the given session (a `begin` event).
    Begin {
        /// Session whose next transaction starts.
        session: SessionId,
        /// Index of the transaction within the session's program text.
        program_index: usize,
    },
    /// Every transaction of the program is complete in the history.
    Finished,
}

/// The pending transaction of `history`, if it has one, with its cursor
/// rebuilt by replaying its log: the log, its definition in `program`, the
/// cursor and the step it is at.
///
/// # Errors
///
/// Propagates replay errors, and reports histories with more than one
/// pending transaction or whose pending transaction the program does not
/// define.
pub fn replay_pending<'p, 'h>(
    program: &'p Program,
    history: &'h History,
    vars: &mut VarTable,
) -> Result<Option<(&'h TransactionLog, &'p TransactionDef, TxCursor, TxStep)>, SemanticsError> {
    match history.num_pending() {
        0 => return Ok(None),
        1 => {}
        _ => return Err(SemanticsError::MultiplePending),
    }
    let Some(log) = history.transactions().find(|t| t.is_pending()) else {
        return Ok(None);
    };
    let def = program
        .transaction(log.session.0 as usize, log.program_index)
        .ok_or(SemanticsError::UnknownTransaction {
            session: log.session.0,
            index: log.program_index,
        })?;
    let (cursor, step) = TxCursor::replay(def, history, log, vars)?;
    let step = step.ok_or_else(|| SemanticsError::ReplayMismatch {
        expected: "a pending transaction with a next step".to_owned(),
        found: "a complete log".to_owned(),
    })?;
    Ok(Some((log, def, cursor, step)))
}

/// The `Next` scheduler of §5.1: completes the pending transaction if there
/// is one, otherwise starts the oracle-order minimal unstarted transaction
/// (sessions are ordered by id, transactions within a session by position).
/// The pending transaction's step comes from replaying its log.
///
/// # Errors
///
/// Propagates replay errors, and reports histories with more than one
/// pending transaction or with transactions the program does not define.
pub fn oracle_next(
    program: &Program,
    history: &History,
    vars: &mut VarTable,
) -> Result<SchedulerStep, SemanticsError> {
    if let Some((log, _, _, step)) = replay_pending(program, history, vars)? {
        return Ok(SchedulerStep::Continue {
            session: log.session,
            step,
        });
    }
    for (s, sess) in program.sessions.iter().enumerate() {
        let started = history.session_txs(SessionId(s as u32)).len();
        if started < sess.transactions.len() {
            return Ok(SchedulerStep::Begin {
                session: SessionId(s as u32),
                program_index: started,
            });
        }
    }
    Ok(SchedulerStep::Finished)
}

/// Replays every transaction of the history, returning its final local
/// environment (used by assertion checking).
///
/// # Errors
///
/// Propagates replay errors.
pub fn replay_all(
    program: &Program,
    history: &History,
    vars: &mut VarTable,
) -> Result<Vec<(TxId, Env)>, SemanticsError> {
    let mut out = Vec::new();
    for log in history.transactions() {
        let def = program
            .transaction(log.session.0 as usize, log.program_index)
            .ok_or(SemanticsError::UnknownTransaction {
                session: log.session.0,
                index: log.program_index,
            })?;
        let replay = replay_transaction(def, history, log, vars)?;
        out.push((log.id, replay.env));
    }
    Ok(out)
}

/// Creates the initial history of a program: only the implicit `init`
/// transaction with the program's declared initial values.
pub fn initial_history(program: &Program, vars: &mut VarTable) -> History {
    History::new(program.initial_values_interned(vars))
}

/// Executes the program serially under the oracle order, every external
/// read reading from the most recently committed writer. Useful as a quick
/// sanity execution in tests and examples; the full exploration lives in
/// `txdpor-explore`.
///
/// # Errors
///
/// Propagates replay errors.
pub fn execute_serial(program: &Program) -> Result<(History, VarTable), SemanticsError> {
    let mut vars = VarTable::new();
    let mut history = initial_history(program, &mut vars);
    let mut next_event = 0u32;
    let mut next_tx = 0u32;
    let mut fresh = move || {
        next_event += 1;
        EventId(next_event)
    };
    loop {
        match oracle_next(program, &history, &mut vars)? {
            SchedulerStep::Finished => break,
            SchedulerStep::Begin {
                session,
                program_index,
            } => {
                next_tx += 1;
                history.begin_transaction(
                    session,
                    TxId(next_tx),
                    program_index,
                    Event::new(fresh(), EventKind::Begin),
                );
            }
            SchedulerStep::Continue { session, step } => match step {
                TxStep::Write { var, value } => {
                    history
                        .append_event(session, Event::new(fresh(), EventKind::Write(var, value)));
                }
                TxStep::Commit => {
                    history.append_event(session, Event::new(fresh(), EventKind::Commit));
                }
                TxStep::Abort => {
                    history.append_event(session, Event::new(fresh(), EventKind::Abort));
                }
                TxStep::Read {
                    var,
                    internal_value,
                } => {
                    let ev = Event::new(fresh(), EventKind::Read(var));
                    let id = ev.id;
                    history.append_event(session, ev);
                    if internal_value.is_none() {
                        // Read from the most recently committed writer of var.
                        let writer = history
                            .committed_writers_of(var)
                            .into_iter()
                            .max_by_key(|t| t.0)
                            .unwrap_or(TxId::INIT);
                        history.set_wr(id, writer);
                    }
                }
            },
        }
    }
    Ok((history, vars))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::dsl::*;
    use crate::instr::Program;

    /// Fig. 8a: two sessions, the left one reads x and conditionally writes y.
    fn fig8_program() -> Program {
        program(vec![
            session(vec![
                tx(
                    "t1",
                    vec![
                        read("a", g("x")),
                        iff(eq(local("a"), cint(3)), vec![write(g("y"), cint(1))]),
                    ],
                ),
                tx("t2", vec![read("b", g("x")), read("c", g("y"))]),
            ]),
            session(vec![tx(
                "t3",
                vec![read("d", g("x")), write(g("x"), cint(3))],
            )]),
        ])
    }

    #[test]
    fn serial_execution_produces_complete_history() {
        let p = fig8_program();
        let (h, vars) = execute_serial(&p).unwrap();
        assert_eq!(h.num_transactions(), 3);
        assert_eq!(h.num_pending(), 0);
        assert!(vars.get("x").is_some());
        assert!(vars.get("y").is_some());
        // Under the serial oracle-order execution, t1 reads x=0 from init so
        // it does not write y; t3 then writes x=3; t2 reads x=3 from t3.
        let envs = replay_all(&p, &h, &mut vars.clone()).unwrap();
        let t2_env = envs
            .iter()
            .find(|(t, _)| h.tx(*t).program_index == 1 && h.tx(*t).session == SessionId(0))
            .map(|(_, e)| e.clone())
            .unwrap();
        assert_eq!(t2_env.get("b"), Some(&Value::Int(0)));
        assert_eq!(t2_env.get("c"), Some(&Value::Int(0)));
    }

    #[test]
    fn conditional_write_follows_read_value() {
        // Single session: writer of x=3 first, then the conditional transaction.
        let p = program(vec![session(vec![
            tx("w", vec![write(g("x"), cint(3))]),
            tx(
                "c",
                vec![
                    read("a", g("x")),
                    iff(eq(local("a"), cint(3)), vec![write(g("y"), cint(1))]),
                ],
            ),
        ])]);
        let (h, vars) = execute_serial(&p).unwrap();
        let y = vars.get("y").expect("y written");
        let writers = h.writers_of(y);
        assert_eq!(writers.len(), 2, "init plus the conditional writer");
    }

    #[test]
    fn abort_ends_transaction() {
        let p = program(vec![session(vec![tx(
            "t",
            vec![
                read("a", g("x")),
                iff(eq(local("a"), cint(0)), vec![abort()]),
                write(g("y"), cint(1)),
            ],
        )])]);
        let (h, _) = execute_serial(&p).unwrap();
        let t = h.transactions().next().unwrap();
        assert!(t.is_aborted());
        // The write to y must not have happened.
        assert_eq!(t.write_events().count(), 0);
    }

    #[test]
    fn internal_reads_do_not_need_wr() {
        let p = program(vec![session(vec![tx(
            "t",
            vec![
                write(g("x"), cint(7)),
                read("a", g("x")),
                write(g("y"), local("a")),
            ],
        )])]);
        let (h, vars) = execute_serial(&p).unwrap();
        assert_eq!(h.wr_count(), 0, "internal read has no wr dependency");
        let y = vars.get("y").unwrap();
        let t = h.transactions().next().unwrap();
        assert_eq!(t.visible_write_value(y), Some(&Value::Int(7)));
    }

    #[test]
    fn dynamic_index_resolution() {
        let p = program(vec![session(vec![
            tx("setup", vec![write(g("next_id"), cint(4))]),
            tx(
                "order",
                vec![
                    read("id", g("next_id")),
                    write(gi("order", local("id")), cint(1)),
                    write(g("next_id"), add(local("id"), cint(1))),
                ],
            ),
        ])]);
        let (h, vars) = execute_serial(&p).unwrap();
        let order4 = vars.get("order[4]").expect("order[4] interned");
        assert!(h.writers_of(order4).len() > 1);
    }

    #[test]
    fn oracle_next_prioritises_pending_transaction() {
        let p = fig8_program();
        let mut vars = VarTable::new();
        let mut h = initial_history(&p, &mut vars);
        // Start session 0's first transaction manually.
        h.begin_transaction(
            SessionId(0),
            TxId(1),
            0,
            Event::new(EventId(1), EventKind::Begin),
        );
        let step = oracle_next(&p, &h, &mut vars).unwrap();
        match step {
            SchedulerStep::Continue { session, step } => {
                assert_eq!(session, SessionId(0));
                assert!(matches!(step, TxStep::Read { .. }));
            }
            other => panic!("expected Continue, got {other:?}"),
        }
    }

    #[test]
    fn oracle_next_starts_sessions_in_id_order() {
        let p = fig8_program();
        let mut vars = VarTable::new();
        let h = initial_history(&p, &mut vars);
        assert_eq!(
            oracle_next(&p, &h, &mut vars).unwrap(),
            SchedulerStep::Begin {
                session: SessionId(0),
                program_index: 0
            }
        );
    }

    #[test]
    fn replay_mismatch_detected() {
        let p = program(vec![session(vec![tx("t", vec![write(g("x"), cint(1))])])]);
        let mut vars = VarTable::new();
        let x = vars.intern("x");
        let mut h = initial_history(&p, &mut vars);
        h.begin_transaction(
            SessionId(0),
            TxId(1),
            0,
            Event::new(EventId(1), EventKind::Begin),
        );
        // Record a read even though the program writes.
        h.append_event(SessionId(0), Event::new(EventId(2), EventKind::Read(x)));
        let err = oracle_next(&p, &h, &mut vars).unwrap_err();
        assert!(matches!(err, SemanticsError::ReplayMismatch { .. }));
        assert!(err.to_string().contains("replay mismatch"));
    }

    #[test]
    fn finished_program_reports_finished() {
        let p = fig8_program();
        let (h, mut vars) = execute_serial(&p).unwrap();
        assert_eq!(
            oracle_next(&p, &h, &mut vars).unwrap(),
            SchedulerStep::Finished
        );
    }

    #[test]
    fn unknown_transaction_is_reported() {
        let p = program(vec![session(vec![tx("t", vec![])])]);
        let mut vars = VarTable::new();
        let mut h = initial_history(&p, &mut vars);
        h.begin_transaction(
            SessionId(5),
            TxId(1),
            0,
            Event::new(EventId(1), EventKind::Begin),
        );
        let err = oracle_next(&p, &h, &mut vars).unwrap_err();
        assert!(matches!(err, SemanticsError::UnknownTransaction { .. }));
    }

    #[test]
    fn multiple_pending_transactions_are_reported() {
        let p = fig8_program();
        let mut vars = VarTable::new();
        let mut h = initial_history(&p, &mut vars);
        for (s, t) in [(0, 1), (1, 2)] {
            h.begin_transaction(
                SessionId(s),
                TxId(t),
                0,
                Event::new(EventId(t), EventKind::Begin),
            );
        }
        let err = oracle_next(&p, &h, &mut vars).unwrap_err();
        assert_eq!(err, SemanticsError::MultiplePending);
    }

    /// A transaction covering every instruction kind: nested `if`/`else`,
    /// `abort` inside branches, internal reads after the transaction's own
    /// writes, an indexed global whose index was read earlier, and
    /// set-valued expressions.
    fn every_instruction() -> TransactionDef {
        tx(
            "every",
            vec![
                read("a", g("x")),
                write(g("s"), set_insert(empty_set(), local("a"))),
                read("set", g("s")), // internal: {a}
                if_else(
                    set_contains(local("set"), cint(1)),
                    vec![
                        read("id", g("next_id")),
                        write(gi("row", local("id")), set_size(local("set"))),
                        if_else(
                            gt(local("id"), cint(3)),
                            vec![abort()],
                            vec![
                                assign("c", add(local("id"), cint(1))),
                                write(g("next_id"), local("c")),
                                read("e", g("next_id")), // internal: id + 1
                            ],
                        ),
                    ],
                    vec![
                        iff(eq(local("a"), cint(2)), vec![abort()]),
                        assign("d", set_remove(local("set"), local("a"))),
                        write(g("y"), set_size(local("d"))),
                    ],
                ),
                assign("done", cint(1)),
            ],
        )
    }

    /// Steps `cursor` through every log of transaction `t` of session 0
    /// that extends `h`, serving each external read from every committed
    /// writer in turn. At every prefix the stepped cursor must equal the
    /// cursor `TxCursor::replay` rebuilds from the log, and give the step
    /// and environment `replay_transaction` gives. Complete logs are
    /// summarised in `ends` as (aborted, variables written).
    fn agree(
        def: &TransactionDef,
        h: &mut History,
        t: TxId,
        mut cursor: TxCursor,
        vars: &mut VarTable,
        ends: &mut BTreeSet<(bool, Vec<String>)>,
    ) {
        let log = h.tx(t);
        let step = cursor.next(def, vars).unwrap();
        assert_eq!(
            replay_transaction(def, h, log, vars).unwrap(),
            TxReplay {
                env: cursor.env().clone(),
                next: Some(step.clone()),
            }
        );
        assert_eq!(
            TxCursor::replay(def, h, log, vars).unwrap(),
            (cursor.clone(), Some(step.clone()))
        );
        let ev = EventId(h.max_event_id() + 1);
        let mark = h.checkpoint();
        match step {
            TxStep::Read {
                var,
                internal_value: None,
            } => {
                h.append_event(SessionId(0), Event::new(ev, EventKind::Read(var)));
                for w in h.committed_writers_of(var) {
                    let read = h.checkpoint();
                    h.set_wr(ev, w);
                    let mut child = cursor.clone();
                    child
                        .read(def, h.visible_write_value(w, var).unwrap())
                        .unwrap();
                    agree(def, h, t, child, vars, ends);
                    h.rollback(read);
                }
            }
            TxStep::Read {
                var,
                internal_value: Some(v),
            } => {
                h.append_event(SessionId(0), Event::new(ev, EventKind::Read(var)));
                cursor.read(def, v).unwrap();
                agree(def, h, t, cursor, vars, ends);
            }
            TxStep::Write { var, value } => {
                h.append_event(
                    SessionId(0),
                    Event::new(ev, EventKind::Write(var, value.clone())),
                );
                cursor.write(def, var, value).unwrap();
                agree(def, h, t, cursor, vars, ends);
            }
            end @ (TxStep::Commit | TxStep::Abort) => {
                let aborted = end == TxStep::Abort;
                let kind = if aborted {
                    EventKind::Abort
                } else {
                    EventKind::Commit
                };
                h.append_event(SessionId(0), Event::new(ev, kind));
                let log = h.tx(t);
                assert_eq!(
                    replay_transaction(def, h, log, vars).unwrap(),
                    TxReplay {
                        env: cursor.env().clone(),
                        next: None,
                    }
                );
                let written = log
                    .events
                    .iter()
                    .filter_map(|e| match e.kind {
                        EventKind::Write(x, _) => Some(vars.name(x).to_owned()),
                        _ => None,
                    })
                    .collect();
                ends.insert((aborted, written));
            }
        }
        h.rollback(mark);
    }

    #[test]
    fn stepping_a_cursor_agrees_with_replay_at_every_prefix() {
        let def = every_instruction();
        // Session 1 writes x twice and next_id once, so the subject's reads
        // take every branch: x = 0 (init), 1 or 2, and next_id = 2 (init)
        // or 5.
        let p = program(vec![
            session(vec![def.clone()]),
            session(vec![
                tx(
                    "w1",
                    vec![write(g("x"), cint(1)), write(g("next_id"), cint(5))],
                ),
                tx("w2", vec![write(g("x"), cint(2))]),
            ]),
        ])
        .with_init("next_id", Value::Int(2));
        let mut vars = VarTable::new();
        let mut h = initial_history(&p, &mut vars);
        let (x, next_id) = (vars.intern("x"), vars.intern("next_id"));
        let mut id = 0;
        let mut fresh = || {
            id += 1;
            EventId(id)
        };
        for (t, writes) in [(1, vec![(x, 1), (next_id, 5)]), (2, vec![(x, 2)])] {
            h.begin_transaction(
                SessionId(1),
                TxId(t),
                t as usize - 1,
                Event::new(fresh(), EventKind::Begin),
            );
            for (var, v) in writes {
                let kind = EventKind::Write(var, Value::Int(v));
                h.append_event(SessionId(1), Event::new(fresh(), kind));
            }
            h.append_event(SessionId(1), Event::new(fresh(), EventKind::Commit));
        }
        let t = TxId(3);
        h.begin_transaction(SessionId(0), t, 0, Event::new(fresh(), EventKind::Begin));
        let mut ends = BTreeSet::new();
        agree(&def, &mut h, t, TxCursor::new(), &mut vars, &mut ends);
        let end =
            |aborted, written: &[&str]| (aborted, written.iter().map(|n| n.to_string()).collect());
        assert_eq!(
            ends,
            BTreeSet::from([
                // x = 0: the else-branch falls through its guard.
                end(false, &["s", "y"]),
                // x = 1, next_id = 2: the nested else-branch.
                end(false, &["s", "row[2]", "next_id"]),
                // x = 1, next_id = 5: abort in the nested then-branch.
                end(true, &["s", "row[5]"]),
                // x = 2: abort under the guard of the outer else-branch.
                end(true, &["s"]),
            ])
        );
    }

    #[test]
    fn a_cursor_rejects_a_step_it_is_not_at() {
        let def = tx("w", vec![write(g("x"), cint(1))]);
        let mut vars = VarTable::new();
        let mut cursor = TxCursor::new();
        let x = match cursor.next(&def, &mut vars).unwrap() {
            TxStep::Write { var, .. } => var,
            other => panic!("expected a write, got {other:?}"),
        };
        let err = cursor.read(&def, Value::Int(0)).unwrap_err();
        assert!(matches!(err, SemanticsError::ReplayMismatch { .. }));
        cursor.write(&def, x, Value::Int(1)).unwrap();
        assert_eq!(cursor.next(&def, &mut vars).unwrap(), TxStep::Commit);
        // The body is over: there is nothing left to consume.
        assert!(cursor.write(&def, x, Value::Int(1)).is_err());
        assert_eq!(cursor.next(&def, &mut vars).unwrap(), TxStep::Commit);
    }
}
