//! Local-variable expressions and environments.
//!
//! The paper leaves the syntax of local expressions unspecified (§2.1); we
//! provide integer arithmetic, comparisons, Boolean connectives and a few
//! set operations so that the SQL-style benchmark applications of §7.2 can
//! be modelled (tables as "set" variables of row ids).

use std::fmt;

use txdpor_history::Value;

use crate::chain::Chain;

/// Error raised when evaluating an expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// A local variable was used before being assigned.
    UndefinedLocal(String),
    /// An operand had the wrong type (e.g. adding a set to an integer).
    TypeMismatch {
        /// What the operator expected.
        expected: &'static str,
        /// A rendering of the offending value.
        found: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UndefinedLocal(name) => write!(f, "undefined local variable `{name}`"),
            EvalError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// A valuation of local variables, scoped to the current transaction of a
/// session (rule `spawn` of the operational semantics resets it).
///
/// The bindings form a persistent list, newest first, whose clones share
/// their nodes: interpreters keep a copy of their environment at every
/// external read, and a copy costs one reference count however many locals
/// it holds. Assigning a bound local adds a binding that shadows the old
/// one.
#[derive(Clone, Default)]
pub struct Env {
    bindings: Chain<(Box<str>, Value)>,
}

impl Env {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a local variable.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.bindings
            .iter()
            .find(|(n, _)| &**n == name)
            .map(|(_, v)| v)
    }

    /// Assigns a local variable.
    pub fn set(&mut self, name: &str, value: Value) {
        self.bindings.push((name.into(), value));
    }

    /// Number of bound locals.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether no local is bound.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Iterates over the bindings in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        let mut visible: Vec<(&str, &Value)> =
            self.bindings.iter().map(|(n, v)| (&**n, v)).collect();
        // Stable: each name's newest binding stays first, and survives.
        visible.sort_by_key(|&(name, _)| name);
        visible.dedup_by_key(|&mut (name, _)| name);
        visible.into_iter()
    }
}

impl PartialEq for Env {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Env {}

impl fmt::Debug for Env {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// An expression over local variables, interpreted as a [`Value`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// A constant value.
    Const(Value),
    /// The current value of a local variable.
    Local(String),
    /// Integer addition.
    Add(Box<Expr>, Box<Expr>),
    /// Integer subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Integer multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Equality test (works on any two values of the same shape).
    Eq(Box<Expr>, Box<Expr>),
    /// Disequality test.
    Ne(Box<Expr>, Box<Expr>),
    /// Integer less-than.
    Lt(Box<Expr>, Box<Expr>),
    /// Integer less-or-equal.
    Le(Box<Expr>, Box<Expr>),
    /// Integer greater-than.
    Gt(Box<Expr>, Box<Expr>),
    /// Integer greater-or-equal.
    Ge(Box<Expr>, Box<Expr>),
    /// Boolean conjunction (on truthiness).
    And(Box<Expr>, Box<Expr>),
    /// Boolean disjunction (on truthiness).
    Or(Box<Expr>, Box<Expr>),
    /// Boolean negation (on truthiness).
    Not(Box<Expr>),
    /// Set insertion: `SetInsert(s, e)` is `s ∪ {e}`.
    SetInsert(Box<Expr>, Box<Expr>),
    /// Set removal: `SetRemove(s, e)` is `s \ {e}`.
    SetRemove(Box<Expr>, Box<Expr>),
    /// Set membership test.
    SetContains(Box<Expr>, Box<Expr>),
    /// Cardinality of a set.
    SetSize(Box<Expr>),
}

impl Expr {
    /// Evaluates the expression under the given environment.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] if a local is unbound or an operand has the
    /// wrong type.
    pub fn eval(&self, env: &Env) -> Result<Value, EvalError> {
        fn int(v: Value) -> Result<i64, EvalError> {
            v.as_int().ok_or(EvalError::TypeMismatch {
                expected: "integer",
                found: v.to_string(),
            })
        }
        fn set(v: Value) -> Result<std::collections::BTreeSet<i64>, EvalError> {
            match v {
                Value::Set(s) => Ok(s),
                other => Err(EvalError::TypeMismatch {
                    expected: "set",
                    found: other.to_string(),
                }),
            }
        }
        match self {
            Expr::Const(v) => Ok(v.clone()),
            Expr::Local(name) => env
                .get(name)
                .cloned()
                .ok_or_else(|| EvalError::UndefinedLocal(name.clone())),
            Expr::Add(a, b) => Ok(Value::Int(int(a.eval(env)?)? + int(b.eval(env)?)?)),
            Expr::Sub(a, b) => Ok(Value::Int(int(a.eval(env)?)? - int(b.eval(env)?)?)),
            Expr::Mul(a, b) => Ok(Value::Int(int(a.eval(env)?)? * int(b.eval(env)?)?)),
            Expr::Eq(a, b) => Ok(Value::bool(a.eval(env)? == b.eval(env)?)),
            Expr::Ne(a, b) => Ok(Value::bool(a.eval(env)? != b.eval(env)?)),
            Expr::Lt(a, b) => Ok(Value::bool(int(a.eval(env)?)? < int(b.eval(env)?)?)),
            Expr::Le(a, b) => Ok(Value::bool(int(a.eval(env)?)? <= int(b.eval(env)?)?)),
            Expr::Gt(a, b) => Ok(Value::bool(int(a.eval(env)?)? > int(b.eval(env)?)?)),
            Expr::Ge(a, b) => Ok(Value::bool(int(a.eval(env)?)? >= int(b.eval(env)?)?)),
            Expr::And(a, b) => Ok(Value::bool(a.eval(env)?.truthy() && b.eval(env)?.truthy())),
            Expr::Or(a, b) => Ok(Value::bool(a.eval(env)?.truthy() || b.eval(env)?.truthy())),
            Expr::Not(a) => Ok(Value::bool(!a.eval(env)?.truthy())),
            Expr::SetInsert(s, e) => {
                let mut s = set(s.eval(env)?)?;
                s.insert(int(e.eval(env)?)?);
                Ok(Value::Set(s))
            }
            Expr::SetRemove(s, e) => {
                let mut s = set(s.eval(env)?)?;
                s.remove(&int(e.eval(env)?)?);
                Ok(Value::Set(s))
            }
            Expr::SetContains(s, e) => {
                let s = set(s.eval(env)?)?;
                Ok(Value::bool(s.contains(&int(e.eval(env)?)?)))
            }
            Expr::SetSize(s) => Ok(Value::Int(set(s.eval(env)?)?.len() as i64)),
        }
    }
}

impl From<i64> for Expr {
    fn from(i: i64) -> Self {
        Expr::Const(Value::Int(i))
    }
}

impl From<Value> for Expr {
    fn from(v: Value) -> Self {
        Expr::Const(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;

    #[test]
    fn arithmetic_and_comparisons() {
        let mut env = Env::new();
        env.set("a", Value::Int(3));
        env.set("b", Value::Int(5));
        assert_eq!(add(local("a"), local("b")).eval(&env), Ok(Value::Int(8)));
        assert_eq!(sub(local("b"), cint(1)).eval(&env), Ok(Value::Int(4)));
        assert_eq!(mul(local("a"), cint(2)).eval(&env), Ok(Value::Int(6)));
        assert_eq!(lt(local("a"), local("b")).eval(&env), Ok(Value::Int(1)));
        assert_eq!(ge(local("a"), local("b")).eval(&env), Ok(Value::Int(0)));
        assert_eq!(le(local("a"), cint(3)).eval(&env), Ok(Value::Int(1)));
        assert_eq!(gt(cint(9), local("b")).eval(&env), Ok(Value::Int(1)));
    }

    #[test]
    fn equality_and_booleans() {
        let mut env = Env::new();
        env.set("a", Value::Int(1));
        assert_eq!(eq(local("a"), cint(1)).eval(&env), Ok(Value::Int(1)));
        assert_eq!(ne(local("a"), cint(1)).eval(&env), Ok(Value::Int(0)));
        assert_eq!(and(cint(1), cint(0)).eval(&env), Ok(Value::Int(0)));
        assert_eq!(or(cint(1), cint(0)).eval(&env), Ok(Value::Int(1)));
        assert_eq!(not(cint(0)).eval(&env), Ok(Value::Int(1)));
    }

    #[test]
    fn set_operations() {
        let mut env = Env::new();
        env.set("s", Value::set_of([1, 2]));
        assert_eq!(
            set_insert(local("s"), cint(3)).eval(&env),
            Ok(Value::set_of([1, 2, 3]))
        );
        assert_eq!(
            set_remove(local("s"), cint(1)).eval(&env),
            Ok(Value::set_of([2]))
        );
        assert_eq!(
            set_contains(local("s"), cint(2)).eval(&env),
            Ok(Value::Int(1))
        );
        assert_eq!(
            set_contains(local("s"), cint(9)).eval(&env),
            Ok(Value::Int(0))
        );
        assert_eq!(set_size(local("s")).eval(&env), Ok(Value::Int(2)));
        assert_eq!(empty_set().eval(&env), Ok(Value::empty_set()));
    }

    #[test]
    fn errors_are_reported() {
        let env = Env::new();
        assert_eq!(
            local("missing").eval(&env),
            Err(EvalError::UndefinedLocal("missing".to_owned()))
        );
        let e = add(Expr::Const(Value::empty_set()), cint(1)).eval(&env);
        assert!(matches!(e, Err(EvalError::TypeMismatch { .. })));
        let e = set_size(cint(1)).eval(&env);
        assert!(matches!(e, Err(EvalError::TypeMismatch { .. })));
        // Display implementations do not panic.
        let err = EvalError::UndefinedLocal("x".into());
        assert!(err.to_string().contains('x'));
    }

    #[test]
    fn env_accessors() {
        let mut env = Env::new();
        assert!(env.is_empty());
        env.set("b", Value::Int(1));
        env.set("a", Value::Int(1));
        env.set("a", Value::Int(2));
        assert_eq!(env.len(), 2);
        assert_eq!(env.get("a"), Some(&Value::Int(2)));
        let bindings: Vec<_> = env.iter().collect();
        assert_eq!(bindings, [("a", &Value::Int(2)), ("b", &Value::Int(1))]);
    }

    #[test]
    fn conversions() {
        assert_eq!(Expr::from(4), Expr::Const(Value::Int(4)));
        assert_eq!(
            Expr::from(Value::empty_set()),
            Expr::Const(Value::empty_set())
        );
    }
}
