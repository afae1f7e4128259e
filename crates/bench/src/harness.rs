//! Measurement harness: runs one algorithm configuration on one client
//! program and records the quantities reported in the paper's evaluation
//! (running time, memory, number of histories and end states).

use std::fmt;
use std::time::{Duration, Instant};

use txdpor_apps::workload::MixedScenario;
use txdpor_explore::{dfs_explore, explore, DfsConfig, ExploreConfig};
use txdpor_history::{IsolationLevel, LevelSpec};
use txdpor_program::Program;

use crate::alloc;

/// An algorithm configuration of the paper's evaluation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// `explore-ce(I)` — strongly optimal for causally-extensible levels.
    ExploreCe(IsolationLevel),
    /// `explore-ce*(I0, I)` — plain optimal, filters outputs with `I`.
    ExploreCeStar(IsolationLevel, IsolationLevel),
    /// The `DFS(I)` baseline without partial order reduction.
    Dfs(IsolationLevel),
    /// Ablation: `explore-ce(I)` with the `Optimality` restriction on swaps
    /// disabled (sound and complete but redundant).
    ExploreCeNoOptimality(IsolationLevel),
    /// Ablation: `explore-ce(I)` with the consistency engines' fingerprint
    /// memoisation disabled — every check runs the (still incrementally
    /// synced) decision procedure, isolating the memo's contribution
    /// (results are unchanged).
    ExploreCeNoMemo(IsolationLevel),
    /// `explore-ce(I)` with the root-level reordering frontier partitioned
    /// across the given number of workers. Output-history fingerprints are
    /// bit-identical to the serial algorithm.
    ExploreCeParallel(IsolationLevel, usize),
    /// `explore-ce*` against a mixed per-transaction level scenario: the
    /// exploration runs under the scenario's (uniform, causally
    /// extensible) weakest level and filters outputs with the spec the
    /// scenario resolves to on the benchmark program. Only applicable to
    /// programs of the scenario's application.
    ExploreCeMixed(MixedScenario),
}

impl Algorithm {
    /// The configurations compared in Fig. 14 / Table F.1, plus the
    /// `explore-ce*(CC, PC)` row for Prefix Consistency.
    pub const FIG14: [Algorithm; 8] = [
        Algorithm::ExploreCe(IsolationLevel::CausalConsistency),
        Algorithm::ExploreCeStar(
            IsolationLevel::CausalConsistency,
            IsolationLevel::PrefixConsistency,
        ),
        Algorithm::ExploreCeStar(
            IsolationLevel::CausalConsistency,
            IsolationLevel::SnapshotIsolation,
        ),
        Algorithm::ExploreCeStar(
            IsolationLevel::CausalConsistency,
            IsolationLevel::Serializability,
        ),
        Algorithm::ExploreCeStar(
            IsolationLevel::ReadAtomic,
            IsolationLevel::CausalConsistency,
        ),
        Algorithm::ExploreCeStar(
            IsolationLevel::ReadCommitted,
            IsolationLevel::CausalConsistency,
        ),
        Algorithm::ExploreCeStar(IsolationLevel::Trivial, IsolationLevel::CausalConsistency),
        Algorithm::Dfs(IsolationLevel::CausalConsistency),
    ];

    /// Label used in tables, matching the paper's notation.
    pub fn label(&self) -> String {
        match self {
            Algorithm::ExploreCe(l) => l.short_name().to_owned(),
            Algorithm::ExploreCeStar(base, target) => {
                format!("{} + {}", base.short_name(), target.short_name())
            }
            Algorithm::Dfs(l) => format!("DFS({})", l.short_name()),
            Algorithm::ExploreCeNoOptimality(l) => format!("{} (no-opt)", l.short_name()),
            Algorithm::ExploreCeNoMemo(l) => format!("{} (no-memo)", l.short_name()),
            Algorithm::ExploreCeParallel(l, workers) => {
                format!("{} par{workers}", l.short_name())
            }
            Algorithm::ExploreCeMixed(sc) => {
                format!("{} + mix:{}", sc.base_level().short_name(), sc.name())
            }
        }
    }

    /// The isolation levels the configuration involves (base, target and —
    /// for mixed scenarios — every assigned level), for the `--levels`
    /// suite filter.
    pub fn involved_levels(&self) -> Vec<IsolationLevel> {
        match self {
            Algorithm::ExploreCe(l)
            | Algorithm::Dfs(l)
            | Algorithm::ExploreCeNoOptimality(l)
            | Algorithm::ExploreCeNoMemo(l)
            | Algorithm::ExploreCeParallel(l, _) => vec![*l],
            Algorithm::ExploreCeStar(base, target) => vec![*base, *target],
            Algorithm::ExploreCeMixed(sc) => {
                let mut levels = vec![sc.base_level(), sc.default_level()];
                levels.extend(sc.rules().iter().map(|&(_, l)| l));
                levels.sort();
                levels.dedup();
                levels
            }
        }
    }

    /// Whether the configuration applies to the named benchmark (`<app>-
    /// <variant>`). Mixed scenarios only run on their own application's
    /// programs; every other configuration is application-agnostic.
    pub fn applicable_to(&self, benchmark: &str) -> bool {
        match self {
            Algorithm::ExploreCeMixed(sc) => benchmark
                .strip_prefix(sc.app().name())
                .is_some_and(|rest| rest.starts_with('-')),
            _ => true,
        }
    }

    /// The level specification the configuration checks outputs against on
    /// the given program — the `levels` field of the fig14 JSON rows (the
    /// counts of a row are only comparable under the same spec).
    pub fn level_spec(&self, program: &Program) -> LevelSpec {
        match self {
            Algorithm::ExploreCe(l)
            | Algorithm::Dfs(l)
            | Algorithm::ExploreCeNoOptimality(l)
            | Algorithm::ExploreCeNoMemo(l)
            | Algorithm::ExploreCeParallel(l, _) => LevelSpec::uniform(*l),
            Algorithm::ExploreCeStar(_, target) => LevelSpec::uniform(*target),
            Algorithm::ExploreCeMixed(sc) => sc.spec_for(program),
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// The result of running one algorithm on one benchmark program.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Benchmark identifier (e.g. `tpcc-3`).
    pub benchmark: String,
    /// Algorithm label (e.g. `CC + SER`).
    pub algorithm: String,
    /// Canonical label of the level specification the run's outputs were
    /// checked against (e.g. `SER`, or `CC[s0.t1=SER]` for a mixed
    /// scenario resolved on this benchmark's program).
    pub levels: String,
    /// Number of histories output (after the `Valid` filter).
    pub histories: u64,
    /// Number of complete executions reached (before the filter).
    pub end_states: u64,
    /// Number of `explore` calls (partial histories visited).
    pub explore_calls: u64,
    /// Wall-clock running time.
    pub time: Duration,
    /// Peak bytes allocated during the run.
    pub peak_alloc: usize,
    /// Number of `History` clones performed during the run (the quantity
    /// the arena/journal representation exists to minimise; tracked so
    /// future perf work has a trajectory beyond wall-clock).
    pub history_clones: u64,
    /// Approximate heap bytes moved by those clones.
    pub history_bytes_copied: u64,
    /// Consistency-engine counters summed over every engine of the run:
    /// check/memo traffic, the incremental-sync vs full-rebuild split and
    /// the CPU nanoseconds spent deciding memo misses (summed across
    /// workers for parallel rows, so it can exceed wall-clock time).
    pub engine: txdpor_history::EngineStats,
    /// Number of exploration worker threads actually spawned (`1` for
    /// every serial configuration, including the DFS baseline).
    pub workers: usize,
    /// Exploration nodes migrated between workers by work stealing (`0`
    /// for serial runs and for parallel runs that never rebalanced).
    pub steals: u64,
    /// Reordering-candidate transactions skipped by the static
    /// independence relation before their reads were scanned.
    pub statically_pruned: u64,
    /// Rendered violation core of the first end state the output filter
    /// rejected (`explore-ce*` rows only; `None` when nothing was
    /// filtered or the algorithm has no output filter).
    pub first_rejection: Option<String>,
    /// Whether the run hit its timeout.
    pub timed_out: bool,
}

impl Measurement {
    /// Renders the running time as `MM:SS` (or `TL` when timed out, like the
    /// paper's tables).
    pub fn time_cell(&self) -> String {
        if self.timed_out {
            "TL".to_owned()
        } else {
            let secs = self.time.as_secs();
            format!(
                "{:02}:{:02}.{:03}",
                secs / 60,
                secs % 60,
                self.time.subsec_millis()
            )
        }
    }
}

/// Stack size used for exploration threads: the recursion of the
/// swapping-based algorithms is proportional to the exploration depth,
/// which can be large for the redundant ablation configurations.
const EXPLORATION_STACK: usize = 512 * 1024 * 1024;

/// Wall-clock budget of the unmeasured warm-up pass preceding every
/// measurement.
const WARMUP_BUDGET: Duration = Duration::from_secs(1);

/// Runs one algorithm on one program with the given wall-clock budget.
///
/// The exploration runs on a dedicated thread with a large stack so that
/// deeply recursive (non-optimal) configurations do not overflow. Before
/// the measured run, the same configuration is executed once unmeasured
/// (capped at `WARMUP_BUDGET`): a preceding memory-heavy run (a timed-out
/// `DFS` or no-optimality ablation allocates gigabytes) evicts page cache
/// and leaves allocator housekeeping behind, which would otherwise be
/// billed to whatever configuration happens to run next.
pub fn run(
    benchmark: &str,
    program: &Program,
    algorithm: Algorithm,
    timeout: Duration,
) -> Measurement {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name(format!("explore-{benchmark}"))
            .stack_size(EXPLORATION_STACK)
            .spawn_scoped(scope, || {
                let _ = run_inner(benchmark, program, algorithm, timeout.min(WARMUP_BUDGET));
                run_inner(benchmark, program, algorithm, timeout)
            })
            .expect("spawning the exploration thread succeeds")
            .join()
            .expect("the exploration thread does not panic")
    })
}

fn run_inner(
    benchmark: &str,
    program: &Program,
    algorithm: Algorithm,
    timeout: Duration,
) -> Measurement {
    alloc::reset_peak();
    txdpor_history::reset_clone_stats();
    let start = Instant::now();
    let report = match algorithm {
        Algorithm::ExploreCe(level) => explore(
            program,
            ExploreConfig::explore_ce(level).with_timeout(timeout),
        ),
        Algorithm::ExploreCeNoOptimality(level) => explore(
            program,
            ExploreConfig::explore_ce(level)
                .without_optimality()
                .with_timeout(timeout),
        ),
        Algorithm::ExploreCeNoMemo(level) => explore(
            program,
            ExploreConfig::explore_ce(level)
                .without_memo()
                .with_timeout(timeout),
        ),
        Algorithm::ExploreCeParallel(level, workers) => explore(
            program,
            ExploreConfig::explore_ce(level)
                .with_workers(workers)
                .with_timeout(timeout),
        ),
        Algorithm::ExploreCeStar(base, target) => explore(
            program,
            ExploreConfig::explore_ce_star(base, target).with_timeout(timeout),
        ),
        Algorithm::ExploreCeMixed(sc) => explore(
            program,
            ExploreConfig::explore_ce_star_spec(
                LevelSpec::uniform(sc.base_level()),
                sc.spec_for(program),
            )
            .with_timeout(timeout),
        ),
        Algorithm::Dfs(level) => dfs_explore(program, DfsConfig::new(level).with_timeout(timeout)),
    }
    .expect("benchmark programs replay cleanly");
    let (history_clones, history_bytes_copied) = txdpor_history::clone_stats();
    Measurement {
        benchmark: benchmark.to_owned(),
        algorithm: algorithm.label(),
        levels: algorithm.level_spec(program).label(),
        histories: report.outputs,
        end_states: report.end_states,
        explore_calls: report.explore_calls,
        time: start.elapsed(),
        peak_alloc: alloc::peak_bytes(),
        history_clones,
        history_bytes_copied,
        engine: report.engine_stats,
        workers: report.workers,
        steals: report.steals,
        statically_pruned: report.statically_pruned,
        first_rejection: report.first_rejection.as_ref().map(|v| v.to_string()),
        timed_out: report.timed_out,
    }
}

/// Average of the per-benchmark speedups of `fast` over `slow` (matching
/// the paper's "average of individual speedups", excluding timeouts).
pub fn average_speedup(fast: &[Measurement], slow: &[Measurement]) -> Option<f64> {
    let mut ratios = Vec::new();
    for f in fast {
        if f.timed_out {
            continue;
        }
        if let Some(s) = slow
            .iter()
            .find(|s| s.benchmark == f.benchmark && !s.timed_out)
        {
            let ft = f.time.as_secs_f64().max(1e-6);
            ratios.push(s.time.as_secs_f64() / ft);
        }
    }
    if ratios.is_empty() {
        None
    } else {
        Some(ratios.iter().sum::<f64>() / ratios.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txdpor_program::dsl::*;

    fn tiny_program() -> Program {
        program(vec![
            session(vec![tx("w", vec![write(g("x"), cint(1))])]),
            session(vec![tx("r", vec![read("a", g("x"))])]),
        ])
    }

    #[test]
    fn run_all_fig14_algorithms_on_tiny_program() {
        let p = tiny_program();
        for algo in Algorithm::FIG14 {
            let m = run("tiny", &p, algo, Duration::from_secs(10));
            assert!(!m.timed_out, "{algo} timed out on the tiny program");
            assert_eq!(m.histories, 2, "{algo} found a wrong number of histories");
            assert!(m.end_states >= 2);
            assert!(m.explore_calls > 0);
            assert_eq!(m.workers, 1, "{algo} is a serial configuration");
            assert_eq!(m.steals, 0, "serial runs never steal");
            assert!(!m.time_cell().is_empty());
        }
    }

    #[test]
    fn labels() {
        assert_eq!(
            Algorithm::ExploreCe(IsolationLevel::CausalConsistency).label(),
            "CC"
        );
        assert_eq!(
            Algorithm::Dfs(IsolationLevel::CausalConsistency).to_string(),
            "DFS(CC)"
        );
        assert_eq!(
            Algorithm::ExploreCeStar(IsolationLevel::Trivial, IsolationLevel::CausalConsistency)
                .label(),
            "true + CC"
        );
        assert_eq!(
            Algorithm::ExploreCeNoOptimality(IsolationLevel::CausalConsistency).label(),
            "CC (no-opt)"
        );
    }

    #[test]
    fn speedups() {
        let p = tiny_program();
        let fast = vec![run(
            "tiny",
            &p,
            Algorithm::ExploreCe(IsolationLevel::CausalConsistency),
            Duration::from_secs(10),
        )];
        let slow = vec![run(
            "tiny",
            &p,
            Algorithm::Dfs(IsolationLevel::CausalConsistency),
            Duration::from_secs(10),
        )];
        assert!(average_speedup(&fast, &slow).is_some());
        assert!(average_speedup(&fast, &[]).is_none());
    }
}
