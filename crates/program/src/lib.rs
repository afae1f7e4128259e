//! Transactional program syntax, builder DSL and operational semantics.
//!
//! This crate implements the program model of the PLDI 2023 paper *"Dynamic
//! Partial Order Reduction for Checking Correctness against Transaction
//! Isolation Levels"*: bounded programs made of parallel sessions, each a
//! sequence of transactions whose bodies read and write global variables
//! and manipulate transaction-local variables (Fig. 1). The operational
//! semantics of §2.3 is a resumable interpreter, [`TxCursor`], stepped one
//! database event at a time by the explorer of `txdpor-explore` and the
//! simulated store's clients; replaying a transaction's log rebuilds one.
//!
//! # Example
//!
//! ```
//! use txdpor_program::dsl::*;
//! use txdpor_program::semantics::execute_serial;
//!
//! // A tiny two-session program: one session transfers, the other audits.
//! let p = program(vec![
//!     session(vec![tx(
//!         "transfer",
//!         vec![
//!             read("a", g("acc1")),
//!             write(g("acc1"), sub(local("a"), cint(10))),
//!             read("b", g("acc2")),
//!             write(g("acc2"), add(local("b"), cint(10))),
//!         ],
//!     )]),
//!     session(vec![tx(
//!         "audit",
//!         vec![read("x", g("acc1")), read("y", g("acc2"))],
//!     )]),
//! ]);
//!
//! let (history, _vars) = execute_serial(&p)?;
//! assert_eq!(history.num_transactions(), 2);
//! # Ok::<(), txdpor_program::SemanticsError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chain;
pub mod dsl;
pub mod expr;
pub mod instr;
pub mod semantics;

pub use expr::{Env, EvalError, Expr};
pub use instr::{GlobalRef, Instr, Program, Session, TransactionDef};
pub use semantics::{
    execute_serial, initial_history, oracle_next, replay_all, replay_pending, replay_transaction,
    SchedulerStep, SemanticsError, TxCursor, TxReplay, TxStep,
};
