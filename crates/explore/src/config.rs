//! Configuration and result types for the exploration algorithms.

use std::time::Duration;

use txdpor_history::{EngineStats, History, IsolationLevel, LevelSpec, VarTable, Violation};

/// Configuration of a swapping-based exploration (`explore-ce` /
/// `explore-ce*`).
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Level specification used to drive the exploration (`I0`). Every
    /// assigned level must be prefix-closed and causally extensible for
    /// the guarantees of §5 to hold — uniform for the paper's algorithms,
    /// but a mixed assignment over the weak levels is accepted (each
    /// level's axioms are per-reader premises over `po`/`so`/`wr`, so the
    /// structural arguments lift pointwise).
    pub exploration: LevelSpec,
    /// Level specification used to filter histories before outputting
    /// (`I`). Equal to `exploration` for the plain `explore-ce` algorithm;
    /// `explore-ce*` filters by a stronger — possibly mixed — target spec.
    pub output: LevelSpec,
    /// Wall-clock budget; exploration stops (reporting `timed_out`) when
    /// exceeded. The clock is read at the first node and then once every
    /// 256 nodes, so a run overshoots by fewer than 256 nodes and a zero
    /// budget still stops before the first.
    pub timeout: Option<Duration>,
    /// Collect every output history in the report (memory-heavy; meant for
    /// tests and small programs).
    pub collect_histories: bool,
    /// Apply the full `Optimality` condition of §5.3. Disabling it keeps
    /// the exploration sound and complete but may enumerate the same
    /// history several times (ablation mode).
    pub full_optimality: bool,
    /// Track output fingerprints to count duplicate outputs (used to verify
    /// optimality empirically; costs memory proportional to the number of
    /// outputs).
    pub track_duplicates: bool,
    /// Number of exploration workers. `1` (the default) runs the classic
    /// serial algorithm. Larger values run the same traversal on that many
    /// workers, each with its own consistency engines: worker 0 explores
    /// from the root on the calling thread, and the others are
    /// `std::thread::scope` helpers that start idle and get subtrees
    /// through a work-stealing pool. The set of output-history
    /// fingerprints is identical to a serial run.
    pub workers: usize,
    /// Memoise consistency verdicts by history fingerprint inside the
    /// exploration engine (`ValidWrites` and `Optimality`). Disabling this
    /// (the `no-memo` ablation) makes every check run the decision
    /// procedure — though still over the engine's incrementally synced
    /// index, so it isolates the memo's contribution, not the full cost of
    /// the old stateless checkers; results are unchanged either way. The
    /// `explore-ce*` output filter never memoises: it checks each complete
    /// history once, and the exploration never repeats one.
    pub memoize: bool,
}

impl ExploreConfig {
    /// Configuration for `explore-ce(level)`: sound, complete and strongly
    /// optimal for prefix-closed, causally-extensible levels (Theorem 5.1).
    pub fn explore_ce(level: IsolationLevel) -> Self {
        Self::explore_ce_star_spec(LevelSpec::uniform(level), LevelSpec::uniform(level))
    }

    /// Configuration for `explore-ce*(base, target)`: explores under the
    /// weaker `base` level and filters outputs with `target`
    /// (Corollary 6.2). `base` must be weaker than or equal to `target`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is stronger than `target` or not causally
    /// extensible.
    pub fn explore_ce_star(base: IsolationLevel, target: IsolationLevel) -> Self {
        Self::explore_ce_star_spec(LevelSpec::uniform(base), LevelSpec::uniform(target))
    }

    /// Mixed-level `explore-ce*`: explores under the causally-extensible
    /// `base` spec and filters outputs by the `target` spec — e.g. a
    /// uniform CC base with a target assigning SER to payment transactions
    /// and CC elsewhere. `base` must be pointwise weaker than or equal to
    /// `target` so that the exploration enumerates a superset of the
    /// target's histories (the filtering argument of Corollary 6.2 lifts
    /// pointwise).
    ///
    /// # Panics
    ///
    /// Panics if `base` is pointwise stronger than `target` somewhere or
    /// assigns a level that is not causally extensible.
    pub fn explore_ce_star_spec(base: LevelSpec, target: LevelSpec) -> Self {
        assert!(
            base.weaker_or_equal(&target),
            "base spec {base} must be pointwise weaker than target {target}"
        );
        assert!(
            base.is_causally_extensible(),
            "base spec {base} must only assign causally extensible levels"
        );
        ExploreConfig {
            exploration: base,
            output: target,
            timeout: None,
            collect_histories: false,
            full_optimality: true,
            track_duplicates: false,
            workers: 1,
            memoize: true,
        }
    }

    /// Sets a wall-clock budget.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Collects every output history in the report.
    pub fn collecting_histories(mut self) -> Self {
        self.collect_histories = true;
        self
    }

    /// Disables the `Optimality` restriction on swaps (ablation mode).
    pub fn without_optimality(mut self) -> Self {
        self.full_optimality = false;
        self
    }

    /// Tracks duplicate outputs (for optimality validation).
    pub fn tracking_duplicates(mut self) -> Self {
        self.track_duplicates = true;
        self
    }

    /// Partitions the exploration across `workers` threads (clamped to at
    /// least one). Output-history fingerprints are identical to a serial
    /// run; only wall-clock time and the order of collected histories
    /// change. The count is used as given, whatever the machine's core
    /// count; `1` runs the serial algorithm.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Disables fingerprint memoisation inside the exploration engine
    /// (ablation isolating the memo's contribution; the incremental index
    /// sync stays on, and the output filter has no memo either way).
    pub fn without_memo(mut self) -> Self {
        self.memoize = false;
        self
    }

    /// Short label of the configuration, matching the paper's notation:
    /// `CC` for `explore-ce(CC)`, `RA + CC` for `explore-ce*(RA, CC)`;
    /// mixed specs render their override list, e.g.
    /// `CC + CC[s0.t1=SER]`.
    pub fn label(&self) -> String {
        if self.exploration == self.output {
            self.exploration.label()
        } else {
            format!("{} + {}", self.exploration.label(), self.output.label())
        }
    }
}

/// Statistics and results of an exploration run.
#[derive(Clone, Debug, Default)]
pub struct ExplorationReport {
    /// Number of (recursive) calls to `explore`, i.e. partial histories
    /// visited.
    pub explore_calls: u64,
    /// Number of complete executions reached (before the `Valid` output
    /// filter) — the "end states" of the paper's evaluation.
    pub end_states: u64,
    /// Number of histories output (after the `Valid` filter) — the
    /// "histories" column of the paper's tables.
    pub outputs: u64,
    /// Number of outputs whose read-from fingerprint had already been
    /// output (only counted when duplicate tracking is enabled; zero for an
    /// optimal algorithm).
    pub duplicate_outputs: u64,
    /// Number of explorations that got stuck: a read had no valid writer to
    /// read from (zero for a strongly-optimal algorithm under a
    /// causally-extensible level).
    pub blocked: u64,
    /// Number of output histories violating the user assertion.
    pub assertion_violations: u64,
    /// Whether the exploration hit its wall-clock budget.
    pub timed_out: bool,
    /// Wall-clock duration of the exploration.
    pub duration: Duration,
    /// Number of workers of the run: the configured
    /// [`workers`](ExploreConfig::workers) (`1` for a serial run).
    pub workers: usize,
    /// Total exploration nodes migrated between workers by work stealing
    /// (`0` for a serial run). A zero on a multi-worker run means worker 0
    /// finished before any helper asked for work.
    pub steals: u64,
    /// Largest number of events of any explored history (a proxy for the
    /// per-branch memory footprint; the algorithm is polynomial space).
    pub max_events: usize,
    /// Reordering-candidate transactions skipped by the static
    /// independence relation before their external reads were even
    /// scanned (each skip is a transaction the dynamic `writes_var`
    /// filter would have rejected read by read).
    pub statically_pruned: u64,
    /// Engine counters (checks, memo hits/misses/evictions/occupancy, the
    /// incremental-sync vs full-rebuild split and the total nanoseconds
    /// spent inside `check`), summed over every engine of the run.
    pub engine_stats: EngineStats,
    /// Output histories, when collection was requested.
    pub histories: Vec<History>,
    /// First assertion-violating history, if any.
    pub violating_history: Option<History>,
    /// Violation core of the first end state the output filter rejected
    /// (`explore-ce*` only): the minimal cycle of `so`/`wr`/forced edges
    /// showing why that history fails the target spec, reconstructed on
    /// demand through the engine's evidence path
    /// ([`txdpor_history::ConsistencyChecker::check_witnessed`]) without
    /// touching its memoised fast path. `None` when nothing was filtered.
    pub first_rejection: Option<Violation>,
    /// Interning table for the global variables of the program, for
    /// rendering histories.
    pub vars: VarTable,
}

impl ExplorationReport {
    /// Number of end states filtered out by the `Valid` check
    /// (`explore-ce*` only).
    pub fn filtered_out(&self) -> u64 {
        self.end_states - self.outputs
    }

    /// Whether any output violated the assertion.
    pub fn has_violation(&self) -> bool {
        self.assertion_violations > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(
            ExploreConfig::explore_ce(IsolationLevel::CausalConsistency).label(),
            "CC"
        );
        assert_eq!(
            ExploreConfig::explore_ce_star(
                IsolationLevel::CausalConsistency,
                IsolationLevel::Serializability
            )
            .label(),
            "CC + SER"
        );
        assert_eq!(
            ExploreConfig::explore_ce_star(
                IsolationLevel::Trivial,
                IsolationLevel::CausalConsistency
            )
            .label(),
            "true + CC"
        );
    }

    #[test]
    fn mixed_spec_labels() {
        use txdpor_history::LevelSpec;
        let base = LevelSpec::uniform(IsolationLevel::CausalConsistency);
        let target = base
            .clone()
            .with_override(0, 1, IsolationLevel::Serializability);
        let c = ExploreConfig::explore_ce_star_spec(base, target);
        assert_eq!(c.label(), "CC + CC[s0.t1=SER]");
    }

    #[test]
    #[should_panic(expected = "pointwise weaker")]
    fn mixed_star_requires_pointwise_weaker_base() {
        use txdpor_history::LevelSpec;
        // CC base vs a target demoting one position to RC: the base is
        // *stronger* there, so filtering would be unsound.
        let target = LevelSpec::uniform(IsolationLevel::Serializability).with_override(
            0,
            0,
            IsolationLevel::ReadCommitted,
        );
        ExploreConfig::explore_ce_star_spec(
            LevelSpec::uniform(IsolationLevel::CausalConsistency),
            target,
        );
    }

    #[test]
    #[should_panic(expected = "weaker than target")]
    fn star_requires_weaker_base() {
        ExploreConfig::explore_ce_star(
            IsolationLevel::Serializability,
            IsolationLevel::CausalConsistency,
        );
    }

    #[test]
    #[should_panic(expected = "causally extensible")]
    fn star_requires_causally_extensible_base() {
        ExploreConfig::explore_ce_star(
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::Serializability,
        );
    }

    #[test]
    fn builder_methods_compose() {
        let c = ExploreConfig::explore_ce(IsolationLevel::ReadAtomic)
            .with_timeout(Duration::from_secs(5))
            .collecting_histories()
            .without_optimality()
            .tracking_duplicates();
        assert_eq!(c.timeout, Some(Duration::from_secs(5)));
        assert!(c.collect_histories);
        assert!(!c.full_optimality);
        assert!(c.track_duplicates);
    }

    #[test]
    fn with_workers_zero_clamps_to_serial() {
        let c = ExploreConfig::explore_ce(IsolationLevel::CausalConsistency).with_workers(0);
        assert_eq!(c.workers, 1, "zero workers clamps to the serial minimum");
        assert_eq!(
            ExploreConfig::explore_ce(IsolationLevel::CausalConsistency).workers,
            1,
            "serial by default"
        );
    }

    #[test]
    fn one_worker_always_means_the_serial_algorithm() {
        // `explore` enters the parallel mode only above one worker, and
        // the count is used as given: an explicit 1 stays 1 and runs on
        // one worker.
        use txdpor_program::dsl::*;
        let p = program(vec![
            session(vec![tx("w", vec![write(g("x"), cint(1))])]),
            session(vec![tx("r", vec![read("a", g("x"))])]),
        ]);
        let c = ExploreConfig::explore_ce(IsolationLevel::CausalConsistency).with_workers(1);
        assert_eq!(c.workers, 1);
        let report = crate::explore(&p, c).expect("the program replays");
        assert_eq!((report.workers, report.steals), (1, 0));
        assert_eq!(report.outputs, 2);
    }

    #[test]
    fn report_derived_quantities() {
        let report = ExplorationReport {
            end_states: 10,
            outputs: 7,
            assertion_violations: 1,
            ..Default::default()
        };
        assert_eq!(report.filtered_out(), 3);
        assert!(report.has_violation());
    }
}
