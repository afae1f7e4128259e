//! A verdict-preserving wrapper that checks each communication-graph
//! component of a history independently.

use std::collections::VecDeque;
use std::sync::Arc;

use txdpor_history::{
    engine_for_spec_with, ConsistencyChecker, EngineStats, History, IsolationLevel, LevelSpec,
    SharedMemo, TxId, Verdict, Violation, ViolationEdge, Witness,
};

use crate::decompose::{component_history, decompose, Decomposition};

/// Wraps a consistency engine with communication-graph decomposition.
///
/// # Soundness
///
/// Every axiom of every supported level (RC, RA, CC, PC, SI, SER and
/// mixed specs) constrains a reader through `po`/`so`/`wr` edges and
/// same-variable write conflicts only. `wr` edges are same-variable and
/// sessions lie wholly inside one component, so *no* axiom ever relates
/// transactions of different components. Hence:
///
/// * if each component admits a commit order satisfying its transactions'
///   axioms, **any** interleaving of those orders that preserves each
///   component's internal order is a commit order for the whole history —
///   cross-component pairs are unconstrained (no shared variables, no
///   shared sessions), so their relative order can never violate an axiom;
/// * conversely, the restriction of a whole-history commit order to a
///   component's transactions is a commit order for that component.
///
/// The whole-history verdict is therefore exactly the conjunction of the
/// per-component verdicts, and [`check_witnessed`] recombines evidence
/// losslessly: witnesses merge per-component commit orders (deterministic
/// smallest-head merge, still [`Witness::replays`]-verifiable against the
/// original history) and a violation core of any component *is* a core of
/// the whole history once its variables are mapped back through the
/// component's renumbering.
///
/// # Cost model
///
/// Decomposition is pure pre-processing: a boolean [`check`] only splits
/// when the spec has a strong member (PC/SI/SER), where the commit-order
/// search dominates. That search visits at most one state per session
/// frontier, `∏ 2 · (length + 1)` over the sessions: polynomial for a
/// fixed number of sessions, but still exponential in their number.
/// Components split the sessions, so their state spaces add up instead
/// of multiplying. That is what splitting still buys, on histories with
/// many sessions in independent components, at the price of copying each
/// component out and rebuilding its indexes. Whether it pays on recorded
/// histories is open (ROADMAP.md, "Take communication-graph decomposition
/// out of the checking path"). Polynomial weak checks go straight to the
/// wrapped engine, whose incremental indexes are faster than any rebuild.
/// [`check_witnessed`] (once per complete history / recorded execution)
/// always decomposes. Single-component histories short-circuit to the
/// wrapped engine on the *original* object, preserving its memo and
/// incremental state.
///
/// [`check`]: ConsistencyChecker::check
/// [`check_witnessed`]: ConsistencyChecker::check_witnessed
pub struct DecomposingChecker {
    spec: LevelSpec,
    /// Whole-history engine: the single-component fast path, keeping
    /// incrementality and memoisation on the original history object.
    inner: Box<dyn ConsistencyChecker>,
    /// Component engine: sub-histories are fresh objects, so this engine
    /// full-rebuilds per component but memoises canonical component
    /// shapes across calls (components are var-renumbered canonically).
    scratch: Box<dyn ConsistencyChecker>,
    /// Whether boolean checks attempt to split (see the cost model above).
    split_boolean_checks: bool,
    components: u64,
    largest_component: u64,
    decomposed_checks: u64,
}

impl DecomposingChecker {
    /// Creates a decomposing checker for a level specification, with
    /// result memoisation on or off for both wrapped engines.
    pub fn new(spec: &LevelSpec, memoize: bool) -> Self {
        DecomposingChecker {
            spec: spec.clone(),
            inner: engine_for_spec_with(spec, memoize),
            scratch: engine_for_spec_with(spec, memoize),
            split_boolean_checks: spec.has_strong(),
            components: 0,
            largest_component: 0,
            decomposed_checks: 0,
        }
    }

    /// Maximum number of communication-graph components seen over all
    /// decomposed histories (0 if nothing was decomposed yet).
    pub fn components(&self) -> u64 {
        self.components
    }

    /// Transaction count of the largest component seen (0 if nothing was
    /// decomposed yet).
    pub fn largest_component(&self) -> u64 {
        self.largest_component
    }

    /// Checks that actually split into ≥ 2 independently-checked parts.
    pub fn decomposed_checks(&self) -> u64 {
        self.decomposed_checks
    }

    fn note(&mut self, d: &Decomposition) {
        self.components = self.components.max(d.len() as u64);
        self.largest_component = self.largest_component.max(d.largest() as u64);
    }

    /// Merges per-component witness commit orders into one whole-history
    /// order: init first, then a deterministic smallest-head interleaving
    /// preserving each component's internal order (any interleaving is
    /// valid — see the soundness note on the type).
    fn merge_witnesses(parts: Vec<Witness>) -> Witness {
        let mut queues: Vec<VecDeque<TxId>> = parts
            .into_iter()
            .map(|w| {
                w.commit_order
                    .into_iter()
                    .filter(|t| !t.is_init())
                    .collect()
            })
            .collect();
        let mut order = vec![TxId::INIT];
        loop {
            let next = queues
                .iter()
                .enumerate()
                .filter_map(|(k, q)| q.front().map(|t| (*t, k)))
                .min();
            match next {
                Some((t, k)) => {
                    queues[k].pop_front();
                    order.push(t);
                }
                None => break,
            }
        }
        Witness {
            commit_order: order,
        }
    }

    /// Checks every component independently, recombining the evidence.
    fn check_witnessed_decomposed(&mut self, h: &History, d: &Decomposition) -> Verdict {
        self.decomposed_checks += 1;
        let mut witnesses = Vec::with_capacity(d.len());
        for c in &d.components {
            let sub = component_history(h, c);
            match self.scratch.check_witnessed(&sub) {
                Verdict::Consistent(w) => witnesses.push(w),
                Verdict::Inconsistent(v) => {
                    // Session/tx/event ids are original already; only the
                    // component's dense variable ids need mapping back.
                    let cycle = v
                        .cycle
                        .into_iter()
                        .map(|mut e: ViolationEdge| {
                            if let txdpor_history::EdgeReason::Forced(ref mut i) = e.reason {
                                i.var = c.original_var(i.var);
                            }
                            e
                        })
                        .collect();
                    return Verdict::Inconsistent(Violation { cycle });
                }
            }
        }
        let witness = Self::merge_witnesses(witnesses);
        debug_assert!(
            witness.replays(h, &self.spec),
            "recombined witness fails to replay"
        );
        Verdict::Consistent(witness)
    }
}

impl std::fmt::Debug for DecomposingChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecomposingChecker")
            .field("spec", &self.spec)
            .field("split_boolean_checks", &self.split_boolean_checks)
            .field("components", &self.components)
            .field("largest_component", &self.largest_component)
            .field("decomposed_checks", &self.decomposed_checks)
            .finish_non_exhaustive()
    }
}

impl ConsistencyChecker for DecomposingChecker {
    fn spec(&self) -> LevelSpec {
        self.spec.clone()
    }

    fn level(&self) -> IsolationLevel {
        self.inner.level()
    }

    fn check(&mut self, h: &History) -> bool {
        if !self.split_boolean_checks || h.num_transactions() < 2 {
            return self.inner.check(h);
        }
        let d = decompose(h);
        self.note(&d);
        if d.len() <= 1 {
            return self.inner.check(h);
        }
        self.decomposed_checks += 1;
        d.components.iter().all(|c| {
            let sub = component_history(h, c);
            self.scratch.check(&sub)
        })
    }

    fn check_witnessed(&mut self, h: &History) -> Verdict {
        if h.num_transactions() < 2 {
            return self.inner.check_witnessed(h);
        }
        let d = decompose(h);
        self.note(&d);
        if d.len() <= 1 {
            return self.inner.check_witnessed(h);
        }
        self.check_witnessed_decomposed(h, &d)
    }

    fn attach_shared_memo(&mut self, memo: Arc<SharedMemo>) {
        self.inner.attach_shared_memo(Arc::clone(&memo));
        self.scratch.attach_shared_memo(memo);
    }

    fn stats(&self) -> EngineStats {
        let mut s = self.inner.stats();
        s.absorb(&self.scratch.stats());
        s
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.scratch.reset();
        self.components = 0;
        self.largest_component = 0;
        self.decomposed_checks = 0;
    }
}
