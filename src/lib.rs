//! # txdpor — DPOR model checking for transactional programs
//!
//! A Rust implementation of the PLDI 2023 paper *"Dynamic Partial Order
//! Reduction for Checking Correctness against Transaction Isolation
//! Levels"* (Bouajjani, Enea, Román-Calvo): stateless model checking of
//! database-backed applications under weak isolation levels with sound,
//! complete and (strongly) optimal dynamic partial order reduction.
//!
//! This facade crate re-exports the five library crates of the workspace:
//!
//! * [`history`] — histories, isolation levels, consistency checking;
//! * [`program`] — the transactional program DSL and operational semantics;
//! * [`explore`] — the `explore-ce` / `explore-ce*` DPOR algorithms and the
//!   `DFS` baseline;
//! * [`apps`] — the benchmark applications (Shopping Cart, Twitter,
//!   Courseware, Wikipedia, TPC-C) and workload generators;
//! * [`store`] — a deterministic simulated distributed store with fault
//!   injection, whose recorded executions are checked end-to-end against
//!   their claimed isolation levels;
//! * [`analysis`] — static conflict analysis, which prunes exploration,
//!   and communication-graph decomposition, which splits the witnessed
//!   check of a recorded store run: pure pre-processing that changes no
//!   verdict.
//!
//! # Quick start
//!
//! ```
//! use txdpor::prelude::*;
//!
//! // A two-session bank-transfer race.
//! let withdraw = || tx("withdraw", vec![
//!     read("b", g("balance")),
//!     iff(ge(local("b"), cint(50)), vec![write(g("balance"), sub(local("b"), cint(50)))]),
//! ]);
//! let mut p = program(vec![session(vec![withdraw()]), session(vec![withdraw()])]);
//! p.init_values.push(("balance".to_owned(), Value::Int(60)));
//!
//! // Under Causal Consistency both withdrawals can succeed (double spend)…
//! let cc = explore(&p, ExploreConfig::explore_ce(IsolationLevel::CausalConsistency))?;
//! // …under Serializability at most one can.
//! let ser = explore(&p, ExploreConfig::explore_ce_star(
//!     IsolationLevel::CausalConsistency, IsolationLevel::Serializability))?;
//! assert!(cc.outputs > ser.outputs);
//! # Ok::<(), txdpor::explore::ExploreError>(())
//! ```

#![warn(missing_docs)]

pub use txdpor_analysis as analysis;
pub use txdpor_apps as apps;
pub use txdpor_explore as explore;
pub use txdpor_history as history;
pub use txdpor_program as program;
pub use txdpor_store as store;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use txdpor_apps::workload::{client_program, App, WorkloadConfig};
    pub use txdpor_explore::{
        dfs_explore, explore, explore_with_assertion, AssertionCtx, DfsConfig, ExplorationReport,
        ExploreConfig,
    };
    pub use txdpor_history::{
        engine_for, ConsistencyChecker, History, IsolationLevel, Value, Var, VarTable,
    };
    pub use txdpor_program::dsl::*;
    pub use txdpor_program::{execute_serial, Program, Session, TransactionDef};
}
