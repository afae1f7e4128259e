//! Histories, axiomatic isolation levels and consistency checking for
//! transactional programs.
//!
//! This crate implements the foundational layer of the PLDI 2023 paper
//! *"Dynamic Partial Order Reduction for Checking Correctness against
//! Transaction Isolation Levels"* (Bouajjani, Enea, Román-Calvo):
//!
//! * [`History`]: transaction logs, session order `so` and write-read
//!   relation `wr` (§2.2.1);
//! * [`IsolationLevel`] and the axiom schema of Biswas & Enea (§2.2.2,
//!   Fig. 2), including the structural properties *prefix closure* and
//!   *causal extensibility* (§3);
//! * efficient consistency checkers for Read Committed, Read Atomic,
//!   Causal Consistency, Snapshot Isolation and Serializability
//!   ([`check`]), cross-validated against a slow axiom-level oracle
//!   ([`axioms`]).
//!
//! # Example
//!
//! Build the Causal Consistency violation of Fig. 3 by hand and check it:
//!
//! ```
//! use txdpor_history::{
//!     Event, EventId, EventKind, History, IsolationLevel, SessionId, TxId, Value, Var,
//! };
//!
//! let (x, y) = (Var(0), Var(1));
//! let mut h = History::new([]);
//! let mut id = 0u32;
//! let mut fresh = || { id += 1; EventId(id) };
//!
//! // t1 writes x=1.
//! h.begin_transaction(SessionId(0), TxId(1), 0, Event::new(fresh(), EventKind::Begin));
//! h.append_event(SessionId(0), Event::new(fresh(), EventKind::Write(x, Value::Int(1))));
//! h.append_event(SessionId(0), Event::new(fresh(), EventKind::Commit));
//! // t2 reads x from t1 and overwrites it.
//! h.begin_transaction(SessionId(1), TxId(2), 0, Event::new(fresh(), EventKind::Begin));
//! let r = fresh();
//! h.append_event(SessionId(1), Event::new(r, EventKind::Read(x)));
//! h.append_event(SessionId(1), Event::new(fresh(), EventKind::Write(x, Value::Int(2))));
//! h.append_event(SessionId(1), Event::new(fresh(), EventKind::Commit));
//! h.set_wr(r, TxId(1));
//! // t4 reads x from t2 and writes y=1.
//! h.begin_transaction(SessionId(2), TxId(4), 0, Event::new(fresh(), EventKind::Begin));
//! let r = fresh();
//! h.append_event(SessionId(2), Event::new(r, EventKind::Read(x)));
//! h.append_event(SessionId(2), Event::new(fresh(), EventKind::Write(y, Value::Int(1))));
//! h.append_event(SessionId(2), Event::new(fresh(), EventKind::Commit));
//! h.set_wr(r, TxId(2));
//! // t3 reads x from t1 (stale!) and y from t4.
//! h.begin_transaction(SessionId(3), TxId(3), 0, Event::new(fresh(), EventKind::Begin));
//! let rx = fresh();
//! h.append_event(SessionId(3), Event::new(rx, EventKind::Read(x)));
//! let ry = fresh();
//! h.append_event(SessionId(3), Event::new(ry, EventKind::Read(y)));
//! h.append_event(SessionId(3), Event::new(fresh(), EventKind::Commit));
//! h.set_wr(rx, TxId(1));
//! h.set_wr(ry, TxId(4));
//!
//! assert!(IsolationLevel::ReadAtomic.satisfies(&h));
//! assert!(!IsolationLevel::CausalConsistency.satisfies(&h));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arena;
pub mod axioms;
pub mod check;
pub mod event;
pub mod history;
pub mod isolation;
pub mod relations;
pub mod stats;
pub mod testkit;
pub mod transaction;
pub mod value;

pub use arena::TxSet;
pub use check::{
    engine_for, engine_for_spec, engine_for_spec_with, engine_for_with, satisfies_spec,
    AxiomInstance, ConsistencyChecker, EdgeReason, Engine, EngineStats, RebuildCauses, SharedMemo,
    Verdict, Violation, ViolationEdge, Witness,
};
pub use event::{Event, EventId, EventKind};
pub use history::{
    DeltaEventInfo, EventFingerprint, History, HistoryDelta, HistoryFingerprint, HistoryMark,
    WrTrial, WriterRef, DELTA_LOG_CAPACITY,
};
pub use isolation::{IsolationLevel, LevelSpec, ParseLevelError, ParseSpecError};
pub use relations::{BitMatrix, Digraph};
pub use stats::{clone_stats, reset_clone_stats};
pub use transaction::{SessionId, TransactionLog, TxId, TxStatus};
pub use value::{Value, Var, VarTable};
