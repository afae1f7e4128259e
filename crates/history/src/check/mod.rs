//! Efficient consistency checking of histories against isolation levels,
//! following the algorithms of Biswas & Enea (OOPSLA 2019) that the paper's
//! implementation relies on (§7.1).
//!
//! * Read Committed, Read Atomic and Causal Consistency are checked in
//!   polynomial time by computing the commit-order constraints forced by
//!   the axioms (whose premises do not mention `co`), one masked OR of bit
//!   rows per axiom instance, and testing acyclicity by peeling (`weak`).
//! * Prefix Consistency, Snapshot Isolation, Serializability and mixed
//!   per-transaction level assignments ([`crate::isolation::LevelSpec`])
//!   are decided by one memoised session-frontier search over commit
//!   orders, polynomial for a fixed number of sessions ([`mixed`]).
//!   Serializability transactions are placed atomically and read from the
//!   last committed writer; Snapshot Isolation and Prefix Consistency
//!   transactions occupy start/commit intervals with snapshot reads, SI
//!   adding the write-conflict rule; weak readers of a mixed spec add the
//!   forced edges of `weak`.
//!
//! Every spec is a mixed spec, a uniform one the degenerate case: [`mixed`]
//! picks the procedure a spec needs, and one stateful [`Engine`] wraps it
//! with incremental indexes and a result memo for every spec but uniform
//! `true` (see [`engine`]). [`evidence`] turns verdicts into witnesses and
//! violation cores. The slow axiom-level oracle in [`crate::axioms`]
//! cross-validates all of these in the test suite.

pub mod engine;
pub mod evidence;
pub(crate) mod failed;
pub(crate) mod frontier;
pub mod mixed;
#[cfg(test)]
mod pc;
#[cfg(test)]
mod ser;
pub mod shared;
#[cfg(test)]
mod si;
pub(crate) mod weak;

use crate::history::History;
use crate::isolation::{IsolationLevel, LevelSpec};

pub use engine::{
    engine_for, engine_for_spec, engine_for_spec_with, engine_for_with, ConsistencyChecker, Engine,
    EngineStats, RebuildCauses,
};
pub use evidence::{AxiomInstance, EdgeReason, Verdict, Violation, ViolationEdge, Witness};
pub use mixed::satisfies_spec;
pub use shared::SharedMemo;

/// Whether the history satisfies the isolation level (Definition 2.2).
///
/// This is the stateless entry point: it builds fresh indexes and runs a
/// single check, so nothing is amortised across calls. Long-running
/// explorations should create an engine once (via [`engine_for`]) and
/// reuse it.
pub fn satisfies(h: &History, level: IsolationLevel) -> bool {
    satisfies_spec(h, &LevelSpec::uniform(level))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms::oracle_satisfies;
    use crate::testkit::{
        assert_verdict_valid, random_history, random_history_with_pending_and_aborted, XorShift,
    };

    /// A history generator of [`crate::testkit`]: `(seed, sessions,
    /// max transactions per session, variables)`.
    type Generator = fn(u64, u32, u32, u32) -> History;

    /// Every uniform level's checker against the axiom oracle on 400
    /// generated 3-session histories.
    fn specialised_checkers_agree_with_oracle(generate: Generator) {
        let levels = [
            IsolationLevel::ReadCommitted,
            IsolationLevel::ReadAtomic,
            IsolationLevel::CausalConsistency,
            IsolationLevel::PrefixConsistency,
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::Serializability,
        ];
        for seed in 0..400u64 {
            let h = generate(seed, 3, 2, 2);
            for level in levels {
                let fast = satisfies(&h, level);
                let slow = oracle_satisfies(&h, level);
                assert_eq!(
                    fast, slow,
                    "checker mismatch for {level} on seed {seed}:\n{h}"
                );
            }
        }
    }

    #[test]
    fn specialised_checkers_agree_with_oracle_on_random_histories() {
        specialised_checkers_agree_with_oracle(random_history);
    }

    #[test]
    fn specialised_checkers_agree_with_oracle_with_pending_and_aborted_transactions() {
        specialised_checkers_agree_with_oracle(random_history_with_pending_and_aborted);
    }

    /// The operational mixed checker (forced edges + commit-order search
    /// with SI intervals) against the axiom-level oracle that instantiates
    /// each read's axioms by its reader's level — over 300 generated
    /// histories and random per-transaction assignments drawn from ALL
    /// levels, SI and `true` included.
    fn mixed_checker_agrees_with_oracle(generate: Generator) {
        use crate::axioms::oracle_satisfies_spec;
        use crate::testkit::random_spec;
        for seed in 0..300u64 {
            let h = generate(seed, 3, 2, 2);
            let spec = random_spec(seed, &h);
            let fast = satisfies_spec(&h, &spec);
            let slow = oracle_satisfies_spec(&h, &spec);
            assert_eq!(
                fast, slow,
                "mixed checker mismatch for spec {spec} on seed {seed}:\n{h}"
            );
        }
    }

    #[test]
    fn mixed_checker_agrees_with_oracle_on_random_histories_and_specs() {
        mixed_checker_agrees_with_oracle(random_history);
    }

    #[test]
    fn mixed_checker_agrees_with_oracle_with_pending_and_aborted_transactions() {
        mixed_checker_agrees_with_oracle(random_history_with_pending_and_aborted);
    }

    #[test]
    fn uniform_specs_route_to_the_uniform_checkers() {
        // Uniform specs are the degenerate mixed case: through the spec
        // entry point, each must decide exactly its level's axioms.
        for seed in 600..700u64 {
            let h = random_history(seed, 3, 2, 2);
            for level in IsolationLevel::ALL {
                assert_eq!(
                    satisfies_spec(&h, &LevelSpec::uniform(level)),
                    oracle_satisfies(&h, level),
                    "uniform {level} spec diverged on seed {seed}"
                );
            }
        }
    }

    /// A wider corpus than the 3-session ones above (4 sessions, ≤2
    /// transactions each, 3 variables): every uniform level and a random
    /// spec per history, decided by a memoised engine against the axiom
    /// oracle, with the engine's witness or core validated.
    fn four_session_corpus_agrees_with_oracle(generate: Generator) {
        use crate::axioms::oracle_satisfies_spec;
        use crate::testkit::random_spec;
        for seed in 0..150u64 {
            let h = generate(seed, 4, 2, 3);
            let specs = IsolationLevel::ALL
                .into_iter()
                .map(LevelSpec::uniform)
                .chain([random_spec(seed, &h)]);
            for spec in specs {
                let expected = oracle_satisfies_spec(&h, &spec);
                let mut engine = engine_for_spec(&spec);
                assert_eq!(
                    engine.check(&h),
                    expected,
                    "spec {spec} on seed {seed}:\n{h}"
                );
                let verdict = engine_for_spec(&spec).check_witnessed(&h);
                assert_verdict_valid(
                    &h,
                    &spec,
                    &verdict,
                    expected,
                    &format!("{spec} on seed {seed}"),
                );
            }
        }
    }

    #[test]
    fn four_session_corpus_agrees_with_the_oracle() {
        four_session_corpus_agrees_with_oracle(random_history);
    }

    #[test]
    fn four_session_corpus_with_pending_and_aborted_transactions_agrees_with_the_oracle() {
        four_session_corpus_agrees_with_oracle(random_history_with_pending_and_aborted);
    }

    #[test]
    fn witnessed_verdicts_cross_validate_on_random_histories() {
        for seed in 0..400u64 {
            let h = random_history(seed, 3, 2, 2);
            for level in IsolationLevel::ALL {
                let spec = LevelSpec::uniform(level);
                let mut engine = engine_for(level);
                let verdict = engine.check_witnessed(&h);
                let expected = satisfies(&h, level);
                assert_verdict_valid(
                    &h,
                    &spec,
                    &verdict,
                    expected,
                    &format!("{level} on seed {seed}"),
                );
            }
        }
    }

    #[test]
    fn witnessed_verdicts_cross_validate_on_random_specs() {
        // Same corpus of history × per-transaction-spec pairs as the
        // boolean mixed cross-validation above: every success must come
        // with a replayable witness, every failure with a checkable
        // minimal cycle.
        for seed in 0..300u64 {
            let h = random_history(seed, 3, 2, 2);
            let mut rng = XorShift(seed.wrapping_mul(0x9e3779b9).wrapping_add(0xabcdef));
            let n = IsolationLevel::ALL.len() as u64;
            let default = IsolationLevel::ALL[rng.below(n) as usize];
            let mut spec = LevelSpec::uniform(default);
            for (sid, txs) in h.sessions() {
                for k in 0..txs.len() {
                    if rng.below(2) == 0 {
                        let l = IsolationLevel::ALL[rng.below(n) as usize];
                        spec = spec.with_override(sid.0, k as u32, l);
                    }
                }
            }
            let mut engine = engine_for_spec(&spec);
            let verdict = engine.check_witnessed(&h);
            let expected = satisfies_spec(&h, &spec);
            assert_verdict_valid(
                &h,
                &spec,
                &verdict,
                expected,
                &format!("spec {spec} on seed {seed}"),
            );
        }
    }

    #[test]
    fn stronger_levels_accept_fewer_histories() {
        // SER ⊆ SI ⊆ PC ⊆ CC ⊆ RA ⊆ RC on random histories.
        for seed in 400..600u64 {
            let h = random_history(seed, 3, 2, 2);
            let rc = satisfies(&h, IsolationLevel::ReadCommitted);
            let ra = satisfies(&h, IsolationLevel::ReadAtomic);
            let cc = satisfies(&h, IsolationLevel::CausalConsistency);
            let pc = satisfies(&h, IsolationLevel::PrefixConsistency);
            let si = satisfies(&h, IsolationLevel::SnapshotIsolation);
            let ser = satisfies(&h, IsolationLevel::Serializability);
            assert!(!ser || si, "SER must imply SI (seed {seed})");
            assert!(!si || pc, "SI must imply PC (seed {seed})");
            assert!(!pc || cc, "PC must imply CC (seed {seed})");
            assert!(!cc || ra, "CC must imply RA (seed {seed})");
            assert!(!ra || rc, "RA must imply RC (seed {seed})");
        }
    }
}
