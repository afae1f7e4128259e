//! Static read/write-set extraction over transactional programs.
//!
//! An abstract interpretation of transaction bodies computes, for every
//! transaction *type* (a `(session, index)` position of the program text),
//! a sound over-approximation of the global variables it can read and
//! write in **any** execution:
//!
//! * locals are tracked by a constant-propagation domain — a local is
//!   either a known [`Value`] (its assignment evaluated from known
//!   operands) or ⊤ (in particular after every `read`, whose result is
//!   execution-dependent);
//! * both branches of an `if` are unioned and their environments joined
//!   pointwise (differing bindings widen to ⊤);
//! * a global reference `base[e]` with a statically known integer index
//!   contributes the exact dynamic name `base[i]`; an unknown index widens
//!   to ⊤ *for that variable family* — every `base[·]` cell;
//! * `abort` is treated as a no-op (events before an abort still happen,
//!   anything after can only shrink the dynamic sets).
//!
//! From the footprints follows a sound *independence* relation between
//! transaction types: no write-write, write-read or read-write overlap is
//! statically possible, so the transactions can never dynamically
//! conflict. The explorer consults it in `compute_reorderings` to skip a
//! candidate transaction before scanning its reads, and debug builds check
//! every explored execution against the footprints.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use txdpor_history::{History, TransactionLog, Value, VarTable};
use txdpor_program::{Env, Expr, GlobalRef, Instr, Program};

/// An over-approximated set of dynamic global-variable names.
///
/// Dynamic names come from [`GlobalRef::resolve`]: a plain reference
/// `base` resolves to `"base"`, an indexed one to `"base[i]"` — a plain
/// name and an indexed cell of the same base are *different* variables.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccessSet {
    /// Plain (un-indexed) names accessed.
    plain: BTreeSet<String>,
    /// `(base, i)` cells accessed at a statically known index.
    exact: BTreeSet<(String, i64)>,
    /// Bases accessed at a statically unknown index: ⊤ over the whole
    /// `base[·]` family (but not over the plain name `base`).
    families: BTreeSet<String>,
}

impl AccessSet {
    fn insert_ref(&mut self, global: &GlobalRef, env: &AbsEnv) {
        match &global.index {
            None => {
                self.plain.insert(global.base.clone());
            }
            Some(e) => match env.eval(e).and_then(|v| v.as_int()) {
                Some(i) => {
                    self.exact.insert((global.base.clone(), i));
                }
                None => {
                    self.families.insert(global.base.clone());
                }
            },
        }
    }

    /// Whether the two over-approximations can denote a common dynamic
    /// variable.
    pub fn overlaps(&self, other: &AccessSet) -> bool {
        self.plain.intersection(&other.plain).next().is_some()
            || self.exact.intersection(&other.exact).next().is_some()
            || self.families.intersection(&other.families).next().is_some()
            || self.exact.iter().any(|(b, _)| other.families.contains(b))
            || other.exact.iter().any(|(b, _)| self.families.contains(b))
    }

    /// Whether the set covers a dynamic variable name (as interned in a
    /// [`VarTable`] by [`GlobalRef::resolve`]).
    pub fn covers_name(&self, name: &str) -> bool {
        match name.find('[') {
            Some(k) if name.ends_with(']') => {
                let base = &name[..k];
                if self.families.contains(base) {
                    return true;
                }
                name[k + 1..name.len() - 1]
                    .parse::<i64>()
                    .is_ok_and(|i| self.exact.contains(&(base.to_owned(), i)))
            }
            _ => self.plain.contains(name),
        }
    }
}

impl fmt::Display for AccessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut item = |f: &mut fmt::Formatter<'_>, s: &str| -> fmt::Result {
            if !first {
                f.write_str(",")?;
            }
            first = false;
            f.write_str(s)
        };
        f.write_str("{")?;
        for b in &self.plain {
            item(f, b)?;
        }
        for (b, i) in &self.exact {
            item(f, &format!("{b}[{i}]"))?;
        }
        for b in &self.families {
            item(f, &format!("{b}[⊤]"))?;
        }
        f.write_str("}")
    }
}

/// Static footprint of one transaction type.
#[derive(Clone, Debug, Default)]
pub struct TxFootprint {
    /// Over-approximation of the globals any execution can read.
    pub reads: AccessSet,
    /// Over-approximation of the globals any execution can write.
    pub writes: AccessSet,
}

impl TxFootprint {
    /// Whether the two transaction types can dynamically conflict: a
    /// write-write, write-read or read-write overlap is statically
    /// possible.
    pub fn may_conflict(&self, other: &TxFootprint) -> bool {
        self.writes.overlaps(&other.writes)
            || self.writes.overlaps(&other.reads)
            || self.reads.overlaps(&other.writes)
    }

    /// Whether the footprint covers every read and every write event of an
    /// executed transaction log, resolving [`txdpor_history::Var`] ids
    /// through the execution's variable table. Returns the offending
    /// `(kind, name)` on divergence.
    pub fn covers_log(&self, log: &TransactionLog, vars: &VarTable) -> Result<(), String> {
        for e in &log.events {
            match &e.kind {
                txdpor_history::EventKind::Read(x) => {
                    let name = vars.name(*x);
                    if !self.reads.covers_name(name) {
                        return Err(format!(
                            "read of `{name}` outside static set {}",
                            self.reads
                        ));
                    }
                }
                txdpor_history::EventKind::Write(x, _) => {
                    let name = vars.name(*x);
                    if !self.writes.covers_name(name) {
                        return Err(format!(
                            "write of `{name}` outside static set {}",
                            self.writes
                        ));
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// Constant-propagation abstract environment: known locals carry their
/// value, ⊤ locals are absent from the concrete view.
#[derive(Clone, Debug, Default)]
struct AbsEnv {
    /// `Some(v)` = known to be `v` in every execution reaching here;
    /// `None` = ⊤.
    locals: BTreeMap<String, Option<Value>>,
}

impl AbsEnv {
    /// Evaluates an expression to a known value, or `None` when any input
    /// is ⊤ (or evaluation would fail).
    fn eval(&self, e: &Expr) -> Option<Value> {
        let mut env = Env::new();
        for (name, v) in &self.locals {
            if let Some(v) = v {
                env.set(name, v.clone());
            }
        }
        e.eval(&env).ok()
    }

    fn set(&mut self, local: &str, v: Option<Value>) {
        self.locals.insert(local.to_owned(), v);
    }

    /// Pointwise join of two branch environments: bindings agreeing on a
    /// known value stay known, everything else widens to ⊤.
    fn join(a: AbsEnv, b: AbsEnv) -> AbsEnv {
        let mut out = AbsEnv::default();
        let keys: BTreeSet<&String> = a.locals.keys().chain(b.locals.keys()).collect();
        for k in keys {
            let v = match (a.locals.get(k), b.locals.get(k)) {
                (Some(Some(x)), Some(Some(y))) if x == y => Some(x.clone()),
                _ => None,
            };
            out.locals.insert(k.clone(), v);
        }
        out
    }
}

fn interpret(body: &[Instr], env: &mut AbsEnv, fp: &mut TxFootprint) {
    for instr in body {
        match instr {
            Instr::Assign { local, expr } => {
                let v = env.eval(expr);
                env.set(local, v);
            }
            Instr::Read { local, global } => {
                fp.reads.insert_ref(global, env);
                // The value read depends on the execution: ⊤.
                env.set(local, None);
            }
            Instr::Write { global, .. } => {
                fp.writes.insert_ref(global, env);
            }
            Instr::Abort => {}
            Instr::If {
                then_branch,
                else_branch,
                ..
            } => {
                let mut then_env = env.clone();
                let mut else_env = env.clone();
                interpret(then_branch, &mut then_env, fp);
                interpret(else_branch, &mut else_env, fp);
                *env = AbsEnv::join(then_env, else_env);
            }
        }
    }
}

/// Per-transaction-type footprints of a whole program, with the derived
/// independence relation.
#[derive(Clone, Debug)]
pub struct ProgramFootprints {
    /// `per_tx[session][index]`.
    per_tx: Vec<Vec<TxFootprint>>,
    /// Flat base index of each session in the independence matrix.
    offsets: Vec<usize>,
    /// Total number of transaction types (side of the matrix).
    n: usize,
    /// Row-major `n × n` matrix: `true` iff the two transaction types are
    /// statically independent (can never conflict).
    independent: Vec<bool>,
}

impl ProgramFootprints {
    /// Runs the abstract interpretation over every transaction of the
    /// program.
    pub fn analyze(p: &Program) -> ProgramFootprints {
        let per_tx: Vec<Vec<TxFootprint>> = p
            .sessions
            .iter()
            .map(|s| {
                s.transactions
                    .iter()
                    .map(|t| {
                        let mut fp = TxFootprint::default();
                        let mut env = AbsEnv::default();
                        interpret(&t.body, &mut env, &mut fp);
                        fp
                    })
                    .collect()
            })
            .collect();
        let mut offsets = Vec::with_capacity(per_tx.len());
        let mut n = 0usize;
        for s in &per_tx {
            offsets.push(n);
            n += s.len();
        }
        let flat: Vec<&TxFootprint> = per_tx.iter().flatten().collect();
        let mut independent = vec![false; n * n];
        for a in 0..n {
            for b in 0..n {
                independent[a * n + b] = !flat[a].may_conflict(flat[b]);
            }
        }
        ProgramFootprints {
            per_tx,
            offsets,
            n,
            independent,
        }
    }

    /// The footprint of the transaction type at `(session, index)`.
    pub fn footprint(&self, session: usize, index: usize) -> Option<&TxFootprint> {
        self.per_tx.get(session)?.get(index)
    }

    fn flat(&self, session: usize, index: usize) -> Option<usize> {
        let base = *self.offsets.get(session)?;
        (index < self.per_tx[session].len()).then_some(base + index)
    }

    /// Whether the transaction types at the two positions are statically
    /// independent — they can never dynamically conflict, in any
    /// execution. Unknown positions are conservatively dependent.
    pub fn independent(&self, a: (usize, usize), b: (usize, usize)) -> bool {
        match (self.flat(a.0, a.1), self.flat(b.0, b.1)) {
            (Some(i), Some(j)) => self.independent[i * self.n + j],
            _ => false,
        }
    }

    /// Same query addressed by executed transaction logs (their session id
    /// and program index identify the transaction type).
    pub fn independent_logs(&self, a: &TransactionLog, b: &TransactionLog) -> bool {
        self.independent(
            (a.session.0 as usize, a.program_index),
            (b.session.0 as usize, b.program_index),
        )
    }

    /// Debug-build soundness check: every executed transaction's dynamic
    /// read/write events must fall inside its type's static footprint.
    /// Returns the offending transaction and divergence on failure.
    pub fn check_covers_history(&self, h: &History, vars: &VarTable) -> Result<(), String> {
        for log in h.transactions() {
            let Some(fp) = self.footprint(log.session.0 as usize, log.program_index) else {
                return Err(format!(
                    "transaction {} at (s{}, i{}) has no static footprint",
                    log.id, log.session.0, log.program_index
                ));
            };
            fp.covers_log(log, vars).map_err(|e| {
                format!(
                    "static footprint unsound for {} (s{}, program index {}): {e}",
                    log.id, log.session.0, log.program_index
                )
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txdpor_program::dsl::*;
    use txdpor_program::{Session, TransactionDef};

    fn two_session_program() -> Program {
        // s0: reads x, conditionally writes x; writes order[id] for a
        //     constant id, and stock[k] for a k it read (unknown index).
        // s1: touches only y.
        let t0 = TransactionDef::new(
            "touch-x",
            vec![
                read("a", g("x")),
                iff(
                    ge(local("a"), cint(1)),
                    vec![write(g("x"), add(local("a"), cint(1)))],
                ),
                assign("id", cint(7)),
                write(gi("order", local("id")), cint(1)),
                read("k", g("next")),
                write(gi("stock", local("k")), cint(0)),
            ],
        );
        let t1 = TransactionDef::new("touch-y", vec![read("b", g("y")), write(g("y"), cint(2))]);
        Program::new(vec![Session::new(vec![t0]), Session::new(vec![t1])])
    }

    #[test]
    fn footprints_track_exact_and_top_addresses() {
        let fps = ProgramFootprints::analyze(&two_session_program());
        let fp = fps.footprint(0, 0).expect("footprint of s0.t0");
        assert!(fp.reads.covers_name("x"));
        assert!(fp.reads.covers_name("next"));
        assert!(fp.writes.covers_name("x"));
        // Constant-propagated index: exactly order[7].
        assert!(fp.writes.covers_name("order[7]"));
        assert!(!fp.writes.covers_name("order[8]"));
        // Unknown index: the whole stock family, but not plain `stock`.
        assert!(fp.writes.covers_name("stock[3]"));
        assert!(fp.writes.covers_name("stock[999]"));
        assert!(!fp.writes.covers_name("stock"));
        assert!(!fp.writes.covers_name("y"));
    }

    #[test]
    fn independence_and_component_prediction() {
        let fps = ProgramFootprints::analyze(&two_session_program());
        assert!(fps.independent((0, 0), (1, 0)));
        assert!(!fps.independent((0, 0), (0, 0)));
        // Unknown positions are conservatively dependent.
        assert!(!fps.independent((0, 0), (5, 0)));
        // The sessions cannot touch a common variable, not even by two
        // reads, so no execution joins them in one communication-graph
        // component.
        let a = fps.footprint(0, 0).expect("footprint of s0.t0");
        let b = fps.footprint(1, 0).expect("footprint of s1.t0");
        assert!(!a.reads.overlaps(&b.reads));
    }

    #[test]
    fn branches_union_and_joins_widen() {
        // The else-branch writes a different cell than the then-branch;
        // both must appear. After the join the local is ⊤, so the final
        // write widens to the family.
        let t = TransactionDef::new(
            "branchy",
            vec![
                read("c", g("flag")),
                if_else(
                    ge(local("c"), cint(1)),
                    vec![assign("i", cint(1))],
                    vec![assign("i", cint(2))],
                ),
                write(gi("row", local("i")), cint(0)),
            ],
        );
        let p = Program::new(vec![Session::new(vec![t])]);
        let fps = ProgramFootprints::analyze(&p);
        let fp = fps.footprint(0, 0).expect("footprint");
        assert!(fp.writes.covers_name("row[1]"));
        assert!(fp.writes.covers_name("row[2]"));
        // ⊤ join covers any cell the two known values disagree on.
        assert!(fp.writes.covers_name("row[55]"));
    }

    #[test]
    fn read_read_overlap_is_not_a_conflict_but_shares_a_variable() {
        let reader = || TransactionDef::new("r", vec![read("a", g("x"))]);
        let p = Program::new(vec![
            Session::new(vec![reader()]),
            Session::new(vec![reader()]),
        ]);
        let fps = ProgramFootprints::analyze(&p);
        assert!(fps.independent((0, 0), (1, 0)));
        // …but they still share a variable.
        let a = fps.footprint(0, 0).expect("footprint of s0.t0");
        let b = fps.footprint(1, 0).expect("footprint of s1.t0");
        assert!(a.reads.overlaps(&b.reads));
    }
}
