//! Swapping-based dynamic partial order reduction for transactional
//! programs under weak isolation levels.
//!
//! This crate implements the model checking algorithms of the PLDI 2023
//! paper *"Dynamic Partial Order Reduction for Checking Correctness against
//! Transaction Isolation Levels"* (Bouajjani, Enea, Román-Calvo):
//!
//! * [`explore`] with [`ExploreConfig::explore_ce`] — the `explore-ce`
//!   algorithm of §5, sound, complete, strongly optimal and polynomial
//!   space for prefix-closed, causally-extensible isolation levels
//!   (Read Committed, Read Atomic, Causal Consistency);
//! * [`explore`] with [`ExploreConfig::explore_ce_star`] — the
//!   `explore-ce*(I0, I)` algorithm of §6 for Snapshot Isolation and
//!   Serializability, which explores under a weaker level and filters
//!   outputs;
//! * [`dfs_explore`] — the `DFS(I)` baseline without partial order
//!   reduction used in the paper's evaluation (§7.3).
//!
//! # Example
//!
//! Count the weak behaviours of a two-session lost-update program:
//!
//! ```
//! use txdpor_explore::{explore, ExploreConfig};
//! use txdpor_history::IsolationLevel;
//! use txdpor_program::dsl::*;
//!
//! let increment = || tx(
//!     "incr",
//!     vec![read("a", g("x")), write(g("x"), add(local("a"), cint(1)))],
//! );
//! let p = program(vec![session(vec![increment()]), session(vec![increment()])]);
//!
//! let cc = explore(&p, ExploreConfig::explore_ce(IsolationLevel::CausalConsistency))?;
//! let ser = explore(&p, ExploreConfig::explore_ce_star(
//!     IsolationLevel::CausalConsistency,
//!     IsolationLevel::Serializability,
//! ))?;
//! // Causal consistency admits the lost-update anomaly, serializability does not.
//! assert!(cc.outputs > ser.outputs);
//! # Ok::<(), txdpor_explore::ExploreError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod assertion;
pub mod config;
mod deadline;
pub mod dfs;
pub mod explorer;
pub mod optimality;
pub mod ordered;
pub mod steal;
pub mod swap;

pub use assertion::{AssertionCtx, AssertionFn};
pub use config::{ExplorationReport, ExploreConfig};
pub use dfs::{dfs_explore, DfsConfig};
pub use explorer::{explore, explore_with_assertion, ExploreError};
pub use ordered::OrderedHistory;
pub use steal::StealPool;
pub use swap::{compute_reorderings, swap, Reordering};
