//! Static pre-processing for the txdpor checking and exploration stack.
//!
//! Two passes, both *pure pre-processing*: they never change a verdict,
//! they only make computing it cheaper.
//!
//! * [`fn@decompose`] — **communication-graph decomposition of recorded
//!   histories**. Sessions touching a common variable are connected in
//!   the communication graph; its connected components induce
//!   sub-histories that can be checked independently (every axiom of
//!   every supported isolation level is var-local or session-local, so
//!   consistency of the whole history is exactly the conjunction over
//!   components). [`DecomposingChecker`] splits the witnessed check of a
//!   recorded store run this way, recombining per-component witnesses
//!   into a whole-history commit order and mapping violation cores back
//!   to original ids. Exploration hands whole histories to the engines.
//! * [`footprint`] — **static read/write-set extraction over program
//!   texts**. An abstract interpretation of transaction bodies (branches
//!   union, statically unknown addresses widen to ⊤ per variable family)
//!   yields per-transaction-type footprints and a sound *independence*
//!   relation between transaction types, which the explorer consults to
//!   skip re-ordering candidates before scanning their reads.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checker;
pub mod decompose;
pub mod footprint;

pub use checker::DecomposingChecker;
pub use decompose::{decompose, Component, Decomposition};
pub use footprint::{AccessSet, ProgramFootprints, TxFootprint};
