//! Values stored in the database and interned global-variable identifiers.
//!
//! The paper abstracts the database state as a valuation of a set of global
//! variables (§2.1). In order to model the SQL-style benchmarks of §7.2,
//! where a table is represented by a "set" variable holding the ids of its
//! rows, values are either integers or finite sets of integers.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex};

/// A database value: an integer or a finite set of integer ids.
///
/// Sets are used to model SQL tables as in §7.2 of the paper: a table is a
/// "set" global variable whose content is the set of primary keys of the
/// rows present in the table.
///
/// # Examples
///
/// ```
/// use txdpor_history::Value;
/// let v = Value::Int(3);
/// assert_eq!(v.as_int(), Some(3));
/// assert!(Value::Int(1).truthy());
/// assert!(!Value::empty_set().truthy());
/// ```
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// A 64-bit signed integer.
    Int(i64),
    /// A finite set of integer identifiers.
    Set(BTreeSet<i64>),
}

impl Value {
    /// The empty set value.
    pub fn empty_set() -> Self {
        Value::Set(BTreeSet::new())
    }

    /// Builds a set value from an iterator of ids.
    pub fn set_of<I: IntoIterator<Item = i64>>(ids: I) -> Self {
        Value::Set(ids.into_iter().collect())
    }

    /// Returns the integer payload, if this value is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Set(_) => None,
        }
    }

    /// Returns a reference to the set payload, if this value is a set.
    pub fn as_set(&self) -> Option<&BTreeSet<i64>> {
        match self {
            Value::Int(_) => None,
            Value::Set(s) => Some(s),
        }
    }

    /// Interprets the value as a Boolean: non-zero integers and non-empty
    /// sets are true.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Int(i) => *i != 0,
            Value::Set(s) => !s.is_empty(),
        }
    }

    /// Builds a Boolean value (1 for true, 0 for false).
    pub fn bool(b: bool) -> Self {
        Value::Int(if b { 1 } else { 0 })
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::Int(0)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::bool(b)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Set(s) => {
                write!(f, "{{")?;
                for (k, id) in s.iter().enumerate() {
                    if k > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{id}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// An interned global-variable identifier.
///
/// Global variables correspond to keys of a key–value store or to rows/fields
/// of a relational table (§2.1, footnote 2). Interning keeps histories cheap
/// to clone and compare; the mapping back to names lives in a [`VarTable`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Why locking a shared [`VarTable`] cannot fail: holders only intern or
/// copy names under the lock, neither of which panics.
const POISONED: &str = "no thread panicked while holding a shared variable table";

/// Interning table mapping global-variable names to [`Var`] identifiers.
///
/// A table may be the local cache of a shared one ([`VarTable::backed_by`]),
/// so that threads interning names concurrently agree on every identifier.
///
/// # Examples
///
/// ```
/// use txdpor_history::VarTable;
/// let mut vars = VarTable::new();
/// let x = vars.intern("x");
/// assert_eq!(vars.intern("x"), x);
/// assert_eq!(vars.name(x), "x");
/// ```
#[derive(Clone, Debug, Default)]
pub struct VarTable {
    names: Vec<String>,
    index: HashMap<String, Var>,
    /// The table this one caches a prefix of: names missing here are
    /// interned there, so every cache of one shared table allocates the
    /// same identifiers.
    shared: Option<Arc<Mutex<VarTable>>>,
}

impl VarTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a local cache of `shared` holding its current names. Only a
    /// name missing from the cache locks the shared table (to intern it
    /// there and copy every name allocated since), so caches of one shared
    /// table always agree on identifiers.
    pub fn backed_by(shared: Arc<Mutex<VarTable>>) -> Self {
        let mut table = VarTable {
            shared: Some(shared),
            ..VarTable::default()
        };
        table.catch_up();
        table
    }

    /// Interns `name`, returning its identifier (allocating one if new).
    pub fn intern(&mut self, name: &str) -> Var {
        if let Some(v) = self.index.get(name) {
            return *v;
        }
        if let Some(shared) = &self.shared {
            let v = shared.lock().expect(POISONED).intern(name);
            self.catch_up();
            return v;
        }
        let v = Var(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), v);
        v
    }

    /// Copies the names the shared table holds beyond this cache.
    fn catch_up(&mut self) {
        let Some(shared) = &self.shared else {
            return;
        };
        let table = shared.lock().expect(POISONED);
        for (i, name) in table.names.iter().enumerate().skip(self.names.len()) {
            self.index.insert(name.clone(), Var(i as u32));
            self.names.push(name.clone());
        }
    }

    /// Looks up the identifier of an already-interned name.
    pub fn get(&self, name: &str) -> Option<Var> {
        self.index.get(name).copied()
    }

    /// Returns the name of an interned variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` was not allocated by this table.
    pub fn name(&self, var: Var) -> &str {
        &self.names[var.0 as usize]
    }

    /// Number of interned variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no variable has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all interned variables in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Var(i as u32), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_int_roundtrip() {
        let v = Value::Int(42);
        assert_eq!(v.as_int(), Some(42));
        assert_eq!(v.as_set(), None);
        assert!(v.truthy());
        assert!(!Value::Int(0).truthy());
    }

    #[test]
    fn value_set_operations() {
        let v = Value::set_of([1, 2, 3]);
        assert_eq!(v.as_set().unwrap().len(), 3);
        assert!(v.truthy());
        assert!(!Value::empty_set().truthy());
        assert_eq!(v.as_int(), None);
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::set_of([2, 1]).to_string(), "{1,2}");
        assert_eq!(Value::empty_set().to_string(), "{}");
    }

    #[test]
    fn value_default_and_from() {
        assert_eq!(Value::default(), Value::Int(0));
        assert_eq!(Value::from(5), Value::Int(5));
        assert_eq!(Value::from(true), Value::Int(1));
        assert_eq!(Value::from(false), Value::Int(0));
    }

    #[test]
    fn var_table_interning() {
        let mut t = VarTable::new();
        assert!(t.is_empty());
        let x = t.intern("x");
        let y = t.intern("y");
        assert_ne!(x, y);
        assert_eq!(t.intern("x"), x);
        assert_eq!(t.len(), 2);
        assert_eq!(t.name(y), "y");
        assert_eq!(t.get("z"), None);
        assert_eq!(t.get("y"), Some(y));
        let all: Vec<_> = t.iter().map(|(_, n)| n.to_owned()).collect();
        assert_eq!(all, vec!["x", "y"]);
    }

    #[test]
    fn caches_of_one_shared_table_agree_on_identifiers() {
        let mut seed = VarTable::new();
        seed.intern("x");
        let shared = Arc::new(Mutex::new(seed));
        let mut a = VarTable::backed_by(Arc::clone(&shared));
        let mut b = VarTable::backed_by(Arc::clone(&shared));
        // Opposite first-use orders would number these differently in
        // independent tables.
        let (a1, a2) = (a.intern("row[1]"), a.intern("row[2]"));
        let (b2, b1) = (b.intern("row[2]"), b.intern("row[1]"));
        assert_eq!((a1, a2), (b1, b2));
        assert_eq!(b.intern("x"), Var(0));
        assert_eq!(a.len(), 3, "a miss copies every name allocated since");
        let names: Vec<_> = shared
            .lock()
            .unwrap()
            .iter()
            .map(|(_, n)| n.to_owned())
            .collect();
        assert_eq!(names, ["x", "row[1]", "row[2]"]);
    }
}
