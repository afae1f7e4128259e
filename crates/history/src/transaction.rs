//! Transaction logs: sequences of events issued by one transaction.
//!
//! A transaction log `⟨t, E, po_t⟩` is an identifier together with a finite
//! set of events and a strict total order on them, the *program order*
//! (§2.2.1). We represent the program order implicitly by the order of the
//! `events` vector.

use std::collections::BTreeMap;
use std::fmt;

use crate::event::{Event, EventId, EventKind};
use crate::value::{Value, Var};

/// Identifier of a transaction log.
///
/// [`TxId::INIT`] is reserved for the distinguished transaction writing the
/// initial values of all global variables.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(pub u32);

impl TxId {
    /// The distinguished initial transaction, `so`-before every other
    /// transaction and writing the initial value of every global variable.
    pub const INIT: TxId = TxId(0);

    /// Whether this is the initial transaction.
    pub fn is_init(self) -> bool {
        self == TxId::INIT
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_init() {
            write!(f, "init")
        } else {
            write!(f, "t{}", self.0)
        }
    }
}

/// Identifier of a session (a sequential connection to the store).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u32);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Completion status of a transaction log.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum TxStatus {
    /// Neither a commit nor an abort event is present.
    Pending,
    /// The log ends with a commit event.
    Committed,
    /// The log ends with an abort event.
    Aborted,
}

/// A transaction log: its identifier, owning session, position of the
/// transaction within the program text of its session, and the events it
/// has issued so far (in program order).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TransactionLog {
    /// Identifier of the transaction.
    pub id: TxId,
    /// Session that issued the transaction.
    pub session: SessionId,
    /// Index of this transaction within its session's program text. Used to
    /// define the oracle order of the exploration algorithm.
    pub program_index: usize,
    /// Events issued by the transaction, in program order.
    pub events: Vec<Event>,
}

impl TransactionLog {
    /// Creates an empty transaction log.
    pub fn new(id: TxId, session: SessionId, program_index: usize) -> Self {
        TransactionLog {
            id,
            session,
            program_index,
            events: Vec::new(),
        }
    }

    /// Appends an event as the maximal element of the program order.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the log is already complete.
    pub fn push(&mut self, event: Event) {
        debug_assert!(
            self.status() == TxStatus::Pending,
            "cannot extend a complete transaction log"
        );
        self.events.push(event);
    }

    /// Completion status of the log.
    pub fn status(&self) -> TxStatus {
        match self.events.last().map(|e| &e.kind) {
            Some(EventKind::Commit) => TxStatus::Committed,
            Some(EventKind::Abort) => TxStatus::Aborted,
            _ => TxStatus::Pending,
        }
    }

    /// Whether the log is pending (no commit/abort yet).
    pub fn is_pending(&self) -> bool {
        self.status() == TxStatus::Pending
    }

    /// Whether the log is committed.
    pub fn is_committed(&self) -> bool {
        self.status() == TxStatus::Committed
    }

    /// Whether the log is aborted.
    pub fn is_aborted(&self) -> bool {
        self.status() == TxStatus::Aborted
    }

    /// Whether the log is complete (committed or aborted).
    pub fn is_complete(&self) -> bool {
        !self.is_pending()
    }

    /// The *external* reads of the transaction, in program order: `read(x)`
    /// events that are not preceded by a write to `x` in program order
    /// (`reads(t)` in §2.2.1). Walks the log without allocating.
    pub fn external_reads(&self) -> impl Iterator<Item = &Event> + '_ {
        self.events
            .iter()
            .enumerate()
            .filter_map(move |(i, e)| match &e.kind {
                EventKind::Read(x)
                    if !self.events[..i]
                        .iter()
                        .any(|w| matches!(&w.kind, EventKind::Write(y, _) if y == x)) =>
                {
                    Some(e)
                }
                _ => None,
            })
    }

    /// Whether the given read event of this transaction is *internal*, i.e.
    /// preceded in program order by a write to the same variable.
    pub fn is_internal_read(&self, read: EventId) -> bool {
        let mut written: Vec<Var> = Vec::new();
        for e in &self.events {
            match &e.kind {
                EventKind::Read(x) if e.id == read => return written.contains(x),
                EventKind::Write(x, _) if !written.contains(x) => written.push(*x),
                _ => {}
            }
        }
        false
    }

    /// The *visible* writes of the transaction (`writes(t)` in §2.2.1): for
    /// each variable, the last write in program order, unless the transaction
    /// aborted, in which case the set is empty.
    pub fn visible_writes(&self) -> BTreeMap<Var, &Event> {
        if self.is_aborted() {
            return BTreeMap::new();
        }
        let mut map = BTreeMap::new();
        for e in &self.events {
            if let EventKind::Write(x, _) = &e.kind {
                map.insert(*x, e);
            }
        }
        map
    }

    /// Whether the transaction *writes* `x`: its visible-write set contains a
    /// write to `x`.
    pub fn writes_var(&self, x: Var) -> bool {
        if self.is_aborted() {
            return false;
        }
        self.events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::Write(y, _) if *y == x))
    }

    /// The value of the transaction's visible write to `x`, if any.
    pub fn visible_write_value(&self, x: Var) -> Option<&Value> {
        if self.is_aborted() {
            return None;
        }
        self.events.iter().rev().find_map(|e| match &e.kind {
            EventKind::Write(y, v) if *y == x => Some(v),
            _ => None,
        })
    }

    /// The value written by the last write to `x` strictly before `before`
    /// in program order (used to resolve internal reads).
    pub fn last_write_before(&self, x: Var, before: EventId) -> Option<&Value> {
        let mut last = None;
        for e in &self.events {
            if e.id == before {
                break;
            }
            if let EventKind::Write(y, v) = &e.kind {
                if *y == x {
                    last = Some(v);
                }
            }
        }
        last
    }

    /// Whether the log contains the given event.
    pub fn contains_event(&self, id: EventId) -> bool {
        self.events.iter().any(|e| e.id == id)
    }

    /// Returns the event with the given identifier, if present.
    pub fn event(&self, id: EventId) -> Option<&Event> {
        self.events.iter().find(|e| e.id == id)
    }

    /// Position of an event in the program order of this log.
    pub fn po_position(&self, id: EventId) -> Option<usize> {
        self.events.iter().position(|e| e.id == id)
    }

    /// Whether `a` is strictly before `b` in the program order of this log.
    pub fn po_before(&self, a: EventId, b: EventId) -> bool {
        match (self.po_position(a), self.po_position(b)) {
            (Some(i), Some(j)) => i < j,
            _ => false,
        }
    }

    /// Read events of the log (internal and external).
    pub fn read_events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(|e| e.kind.is_read())
    }

    /// Write events of the log.
    pub fn write_events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(|e| e.kind.is_write())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u32, kind: EventKind) -> Event {
        Event::new(EventId(id), kind)
    }

    fn sample_log() -> TransactionLog {
        let mut t = TransactionLog::new(TxId(1), SessionId(0), 0);
        t.push(ev(0, EventKind::Begin));
        t.push(ev(1, EventKind::Read(Var(0))));
        t.push(ev(2, EventKind::Write(Var(0), Value::Int(1))));
        t.push(ev(3, EventKind::Read(Var(0))));
        t.push(ev(4, EventKind::Write(Var(1), Value::Int(2))));
        t.push(ev(5, EventKind::Write(Var(1), Value::Int(3))));
        t
    }

    #[test]
    fn status_transitions() {
        let mut t = sample_log();
        assert!(t.is_pending());
        t.push(ev(6, EventKind::Commit));
        assert!(t.is_committed());
        assert!(t.is_complete());
        assert!(!t.is_aborted());
    }

    #[test]
    fn external_reads_ignore_internal() {
        let t = sample_log();
        let ext: Vec<EventId> = t.external_reads().map(|e| e.id).collect();
        // The read at e3 follows a write to x0 in po and is internal.
        assert_eq!(ext, vec![EventId(1)]);
        assert!(t.is_internal_read(EventId(3)));
        assert!(!t.is_internal_read(EventId(1)));
    }

    #[test]
    fn visible_writes_keep_last_per_var() {
        let mut t = sample_log();
        t.push(ev(6, EventKind::Commit));
        let w = t.visible_writes();
        assert_eq!(w.len(), 2);
        assert_eq!(w[&Var(0)].id, EventId(2));
        assert_eq!(w[&Var(1)].id, EventId(5));
        assert_eq!(t.visible_write_value(Var(1)), Some(&Value::Int(3)));
        assert!(t.writes_var(Var(0)));
        assert!(!t.writes_var(Var(7)));
    }

    #[test]
    fn aborted_transaction_has_no_visible_writes() {
        let mut t = sample_log();
        t.push(ev(6, EventKind::Abort));
        assert!(t.is_aborted());
        assert!(t.visible_writes().is_empty());
        assert!(!t.writes_var(Var(0)));
        assert_eq!(t.visible_write_value(Var(0)), None);
    }

    #[test]
    fn last_write_before_resolves_internal_reads() {
        let t = sample_log();
        assert_eq!(
            t.last_write_before(Var(0), EventId(3)),
            Some(&Value::Int(1))
        );
        assert_eq!(t.last_write_before(Var(0), EventId(1)), None);
        assert_eq!(t.last_write_before(Var(1), EventId(3)), None);
    }

    #[test]
    fn po_ordering_queries() {
        let t = sample_log();
        assert!(t.po_before(EventId(1), EventId(3)));
        assert!(!t.po_before(EventId(3), EventId(1)));
        assert!(!t.po_before(EventId(1), EventId(99)));
        assert_eq!(t.po_position(EventId(4)), Some(4));
        assert!(t.contains_event(EventId(5)));
        assert!(!t.contains_event(EventId(50)));
        assert_eq!(
            t.event(EventId(2)).unwrap().kind,
            EventKind::Write(Var(0), Value::Int(1))
        );
    }

    #[test]
    fn init_txid_display() {
        assert_eq!(TxId::INIT.to_string(), "init");
        assert_eq!(TxId(3).to_string(), "t3");
        assert_eq!(SessionId(2).to_string(), "s2");
        assert!(TxId::INIT.is_init());
        assert!(!TxId(1).is_init());
    }

    #[test]
    fn iterators_over_events() {
        let t = sample_log();
        assert_eq!(t.read_events().count(), 2);
        assert_eq!(t.write_events().count(), 3);
    }
}
