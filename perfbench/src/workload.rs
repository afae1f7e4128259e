//! The four workloads: seeded case lists drawn from the pinned pools, and
//! the execution of one case through the public API of the layer crates.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use txdpor_analysis::DecomposingChecker;
use txdpor_apps::workload::MixedScenario;
use txdpor_apps::{app_sim_config, client_program, mixed_deployment, App, WorkloadConfig};
use txdpor_bench::alloc;
use txdpor_explore::{explore, ExploreConfig};
use txdpor_history::{ConsistencyChecker, EngineStats, IsolationLevel, LevelSpec};
use txdpor_program::Program;
use txdpor_store::{run_simulation, Deployment, FaultPlan, SimConfig};

use crate::expected::{Expected, ExploreAnswer, SimAnswer, SimKey};
use crate::trace::Tracer;

use IsolationLevel::{CausalConsistency as CC, ReadAtomic as RA, ReadCommitted as RC};

/// Wall-clock budget of one exploration; hitting it fails the case.
pub const CASE_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    ExploreCc,
    ExploreStrong,
    Simulate,
    ExplorePar2,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ExploreCc,
        Workload::ExploreStrong,
        Workload::Simulate,
        Workload::ExplorePar2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreCc => "explore-cc",
            Workload::ExploreStrong => "explore-strong",
            Workload::Simulate => "simulate",
            Workload::ExplorePar2 => "explore-par2",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads the workload computes on, and the reference kernel with it.
    /// Counts must repeat exactly between passes only on one thread (work
    /// stealing makes the parallel counters vary).
    pub fn threads(self) -> usize {
        if self == Workload::ExplorePar2 {
            2
        } else {
            1
        }
    }
}

/// An exploration algorithm, labelled as in the fig14 tables.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Algo {
    /// `explore-ce(I)`.
    Ce(IsolationLevel),
    /// `explore-ce*(I0, I)`.
    Star(IsolationLevel, IsolationLevel),
    /// `explore-ce*` from the scenario's base level against its mixed spec.
    Mixed(MixedScenario),
    /// `explore-ce(I)` with two work-stealing workers.
    Par2(IsolationLevel),
}

impl Algo {
    pub fn label(self) -> String {
        match self {
            Algo::Ce(l) => l.short_name().to_string(),
            Algo::Star(b, t) => format!("{} + {}", b.short_name(), t.short_name()),
            Algo::Mixed(sc) => format!("{} + mix:{}", sc.base_level().short_name(), sc.name()),
            Algo::Par2(l) => format!("{} par2", l.short_name()),
        }
    }

    pub fn config(self, program: &Program) -> ExploreConfig {
        match self {
            Algo::Ce(l) => ExploreConfig::explore_ce(l),
            Algo::Star(b, t) => ExploreConfig::explore_ce_star(b, t),
            Algo::Mixed(sc) => ExploreConfig::explore_ce_star_spec(
                LevelSpec::uniform(sc.base_level()),
                sc.spec_for(program),
            ),
            Algo::Par2(l) => ExploreConfig::explore_ce(l).with_workers(2),
        }
        .with_timeout(CASE_TIMEOUT)
    }
}

/// The weak algorithms of `explore-cc` for one application (`RC + CC`
/// blows up on tpcc and is left out there).
pub fn weak_algos(app: App) -> Vec<Algo> {
    let mut v = vec![Algo::Ce(CC), Algo::Star(RA, CC)];
    if app != App::Tpcc {
        v.push(Algo::Star(RC, CC));
    }
    v
}

/// The strong-level filters of `explore-strong`: uniform PC/SI/SER plus
/// the application's CC-based mixed scenarios.
pub fn strong_algos(app: App) -> Vec<Algo> {
    use IsolationLevel::{PrefixConsistency, Serializability, SnapshotIsolation};
    let mut v = vec![
        Algo::Star(CC, PrefixConsistency),
        Algo::Star(CC, SnapshotIsolation),
        Algo::Star(CC, Serializability),
    ];
    v.extend(
        MixedScenario::scenarios_for(app)
            .into_iter()
            .filter(|sc| sc.base_level() == CC)
            .map(Algo::Mixed),
    );
    v
}

pub const DEPLOYMENTS: [&str; 6] = ["ser", "si", "causal", "mixed", "si-unchecked", "no-wal"];
pub const FAULTS: [&str; 2] = ["lossy", "crash-chaos"];
/// Long sessions, little contention: the store is about half of a case.
pub const LONG: (usize, usize) = (4, 16);
/// Short sessions, heavy contention: the witnessed check dominates.
pub const CONTENDED: (usize, usize) = (6, 4);

pub fn shape_name((s, t): (usize, usize)) -> String {
    format!("{s}x{t}")
}

pub fn deployment(name: &str, app: App) -> Deployment {
    match name {
        "ser" => Deployment::ser(),
        "si" => Deployment::si(),
        "causal" => Deployment::causal(),
        "mixed" => mixed_deployment(app),
        "si-unchecked" => Deployment::si_unchecked(),
        "no-wal" => Deployment::no_wal(),
        other => unreachable!("unknown deployment {other}"),
    }
}

pub fn app_named(name: &str) -> Option<App> {
    App::ALL.into_iter().find(|a| a.name() == name)
}

/// The orders of a program's three sessions a seed can pick from.
pub const SESSION_ORDERS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// Name of a generated program with its sessions in `order`, e.g.
/// `tpcc-2:021`.
pub fn program_name(app: App, seed: u64, order: [usize; 3]) -> String {
    let [a, b, c] = order;
    format!("{}-{seed}:{a}{b}{c}", app.name())
}

/// The client program of `(app, seed)` with its sessions in `order`.
/// Reordering renames the sessions, so the histories and end states
/// found under every level stay the same, while the exploration order,
/// and with it the number of explore calls, changes.
pub fn generate_program(app: App, seed: u64, order: [usize; 3]) -> Program {
    let program = client_program(&WorkloadConfig::paper_default(app, seed));
    Program {
        sessions: order.iter().map(|&i| program.sessions[i].clone()).collect(),
        ..program
    }
}

pub fn sim_config(key: &SimKey) -> SimConfig {
    let app = app_named(&key.app).expect("pinned app names are valid");
    let (s, t) = key
        .shape
        .split_once('x')
        .and_then(|(s, t)| Some((s.parse().ok()?, t.parse().ok()?)))
        .expect("pinned shapes are <sessions>x<transactions>");
    let faults = FaultPlan::preset(&key.faults).expect("pinned fault plans are presets");
    app_sim_config(
        app,
        s,
        t,
        key.seed,
        deployment(&key.deployment, app),
        faults,
    )
}

/// One unit of measured work: a generated input plus its pinned answer.
pub enum Case {
    Explore {
        name: String,
        algo: Algo,
        program: Program,
        answer: ExploreAnswer,
    },
    Simulate {
        key: SimKey,
        config: Box<SimConfig>,
        answer: SimAnswer,
    },
}

impl Case {
    pub fn label(&self) -> String {
        match self {
            Case::Explore { name, algo, .. } => format!("{name} {}", algo.label()),
            Case::Simulate { key, .. } => format!(
                "{}/{}/{}/{}/{}",
                key.app, key.shape, key.deployment, key.faults, key.seed
            ),
        }
    }

    pub fn app(&self) -> &str {
        match self {
            Case::Explore { name, .. } => name.split('-').next().unwrap_or(name),
            Case::Simulate { key, .. } => &key.app,
        }
    }

    pub fn pinned_cost_ms(&self) -> f64 {
        match self {
            Case::Explore { answer, .. } => answer.cost_ms,
            Case::Simulate { answer, .. } => answer.cost_ms,
        }
    }
}

/// SplitMix64: a tiny deterministic generator for the seeded selection.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64, stream: &str) -> Self {
        let salt = stream.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
        SplitMix(seed ^ salt)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Seeded draws tried per selection.
const DRAWS: usize = 2000;

/// Picks `k` of the items with the given costs: the seeded draw whose
/// sorted costs lie closest to the pool's own cost quantiles, so case
/// lists differ from seed to seed while their cost profile stays put.
/// Returns ascending indices.
pub fn select(rng: &mut SplitMix, costs: &[f64], k: usize) -> Vec<usize> {
    let n = costs.len();
    if k >= n {
        return (0..n).collect();
    }
    let mut pool = costs.to_vec();
    pool.sort_by(f64::total_cmp);
    let quantile = |q: f64| {
        let x = q * (n - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        pool[lo] + (pool[hi] - pool[lo]) * (x - lo as f64)
    };
    let target: Vec<f64> = (0..k)
        .map(|i| quantile((i as f64 + 0.5) / k as f64))
        .collect();
    let scale: f64 = target.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    let mut best: (f64, Vec<usize>) = (f64::INFINITY, Vec::new());
    let mut idx: Vec<usize> = (0..n).collect();
    for _ in 0..DRAWS {
        for i in 0..k {
            let j = i + rng.below(n - i);
            idx.swap(i, j);
        }
        let mut picked: Vec<f64> = idx[..k].iter().map(|&i| costs[i]).collect();
        picked.sort_by(f64::total_cmp);
        let distance = picked
            .iter()
            .zip(&target)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / scale;
        if distance < best.0 {
            best = (distance, idx[..k].to_vec());
        }
    }
    best.1.sort_unstable();
    best.1
}

/// Programs per application: the first pooled program seeds. tpcc's five
/// strong filters cost about 1 s per program, so `explore-strong` takes
/// two of them.
fn programs_per_app(workload: Workload, app: App) -> usize {
    match (workload, app) {
        (Workload::ExploreStrong, App::Tpcc) => 2,
        _ => 6,
    }
}

/// Long-session runs drawn per `(app, faults)` and contended runs drawn
/// from the whole contended pool.
const LONG_PER_GROUP: usize = 9;
const CONTENDED_RUNS: usize = 80;

/// The case list of a workload for a seed. Inputs are generated here
/// (client programs and simulation configs); the layers under test only
/// ever receive these.
pub fn build_cases(workload: Workload, seed: u64, expected: &Expected) -> Vec<Case> {
    match workload {
        Workload::ExploreCc => explore_cases(workload, seed, expected, weak_algos),
        Workload::ExploreStrong => explore_cases(workload, seed, expected, strong_algos),
        // The programs of `explore-cc`, in session orders whose two-worker
        // runs matched the serial counts when pinned.
        Workload::ExplorePar2 => explore_cases(Workload::ExploreCc, seed, expected, |_| {
            vec![Algo::Par2(CC)]
        }),
        Workload::Simulate => simulate_cases(seed, expected),
    }
}

fn explore_cases(
    workload: Workload,
    seed: u64,
    expected: &Expected,
    algos: impl Fn(App) -> Vec<Algo>,
) -> Vec<Case> {
    let mut cases = Vec::new();
    for app in App::ALL {
        let prefix = format!("{}-", app.name());
        let pooled: BTreeSet<u64> = expected
            .explore
            .keys()
            .filter_map(|(p, _)| p.strip_prefix(&prefix)?.split(':').next()?.parse().ok())
            .collect();
        let algos = algos(app);
        for prog_seed in pooled.into_iter().take(programs_per_app(workload, app)) {
            let Some(order) = pick_order(seed, app, prog_seed, &algos, expected) else {
                continue;
            };
            let name = program_name(app, prog_seed, order);
            let program = generate_program(app, prog_seed, order);
            for &algo in &algos {
                cases.push(Case::Explore {
                    answer: expected.explore[&(name.clone(), algo.label())],
                    name: name.clone(),
                    algo,
                    program: program.clone(),
                });
            }
        }
    }
    cases
}

/// Largest share by which a drawn session order's pinned explore calls may
/// differ from those of the program's median order. Some orders cost twice
/// as much as others (courseware-5); drawing among the typical ones keeps
/// every seed's case list at about the same cost.
const ORDER_TOLERANCE: f64 = 0.05;

/// The seed's session order for a program, drawn among the orders with a
/// pinned answer for every algorithm and typical explore calls; `None`
/// when no order is pinned for all of them.
fn pick_order(
    seed: u64,
    app: App,
    prog_seed: u64,
    algos: &[Algo],
    expected: &Expected,
) -> Option<[usize; 3]> {
    let answered: Vec<([usize; 3], u64)> = SESSION_ORDERS
        .into_iter()
        .filter_map(|order| {
            let name = program_name(app, prog_seed, order);
            let calls: Option<u64> = algos
                .iter()
                .map(|a| {
                    Some(
                        expected
                            .explore
                            .get(&(name.clone(), a.label()))?
                            .explore_calls,
                    )
                })
                .sum();
            Some((order, calls?))
        })
        .collect();
    let mut calls: Vec<u64> = answered.iter().map(|&(_, c)| c).collect();
    calls.sort_unstable();
    let median = *calls.get(calls.len() / 2)? as f64;
    let typical: Vec<[usize; 3]> = answered
        .into_iter()
        .filter(|&(_, c)| (c as f64 - median).abs() <= ORDER_TOLERANCE * median)
        .map(|(order, _)| order)
        .collect();
    let stream = format!("{}-{prog_seed}", app.name());
    Some(typical[SplitMix::new(seed, &stream).below(typical.len())])
}

fn simulate_cases(seed: u64, expected: &Expected) -> Vec<Case> {
    let mut groups: BTreeMap<String, Vec<&SimKey>> = BTreeMap::new();
    let long = shape_name(LONG);
    for key in expected.simulate.keys() {
        let group = if key.shape == long {
            format!("long/{}/{}", key.app, key.faults)
        } else {
            "contended".to_string()
        };
        groups.entry(group).or_default().push(key);
    }
    let mut cases = Vec::new();
    for (group, keys) in groups {
        let k = if group == "contended" {
            CONTENDED_RUNS
        } else {
            LONG_PER_GROUP
        };
        let costs: Vec<f64> = keys.iter().map(|k| expected.simulate[*k].cost_ms).collect();
        let mut rng = SplitMix::new(seed, &format!("simulate/{group}"));
        for i in select(&mut rng, &costs, k) {
            let key = keys[i].clone();
            cases.push(Case::Simulate {
                config: Box::new(sim_config(&key)),
                answer: expected.simulate[&key].clone(),
                key,
            });
        }
    }
    cases
}

/// Per-pass counters, summed over cases (`*.components` keep a maximum).
pub type Counters = BTreeMap<&'static str, f64>;

fn add(c: &mut Counters, name: &'static str, v: f64) {
    *c.entry(name).or_insert(0.0) += v;
}

fn keep_max(c: &mut Counters, name: &'static str, v: f64) {
    let e = c.entry(name).or_insert(0.0);
    *e = e.max(v);
}

fn add_engine(c: &mut Counters, s: &EngineStats) {
    add(c, "history.check.checks", s.checks as f64);
    add(c, "history.check.memo_hits", s.memo_hits as f64);
    add(c, "history.check.memo_misses", s.memo_misses as f64);
    add(c, "history.check.memo_evictions", s.memo_evictions as f64);
    add(
        c,
        "history.check.incremental_hits",
        s.incremental_hits as f64,
    );
    add(c, "history.check.full_rebuilds", s.full_rebuilds as f64);
    add(
        c,
        "history.check.shared_memo_hits",
        s.shared_memo_hits as f64,
    );
    add(c, "history.check.cpu_ms", s.check_nanos as f64 / 1e6);
}

/// What one case produced.
pub struct CaseOutcome {
    /// Time to a verified verdict.
    pub ms: f64,
    /// Peak live heap of the process during the case.
    pub peak_bytes: usize,
    /// Why the case failed, if it did.
    pub failure: Option<String>,
}

/// Runs one case, adding its counters to `counters` and its spans to
/// `tracer`.
pub fn run_case(case: &Case, id: u32, tracer: &mut Tracer, counters: &mut Counters) -> CaseOutcome {
    alloc::reset_peak();
    txdpor_history::reset_clone_stats();
    let start = Instant::now();
    tracer.enter("case", id);
    let failure = match case {
        Case::Explore {
            algo,
            program,
            answer,
            ..
        } => run_explore(*algo, program, answer, id, tracer, counters),
        Case::Simulate { config, answer, .. } => run_simulate(config, answer, id, tracer, counters),
    };
    tracer.exit();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let (clones, bytes) = txdpor_history::clone_stats();
    add(counters, "history.clones", clones as f64);
    add(counters, "history.bytes_copied", bytes as f64);
    CaseOutcome {
        ms,
        peak_bytes: alloc::peak_bytes(),
        failure,
    }
}

fn run_explore(
    algo: Algo,
    program: &Program,
    answer: &ExploreAnswer,
    id: u32,
    tracer: &mut Tracer,
    c: &mut Counters,
) -> Option<String> {
    let config = algo.config(program);
    let report = match tracer.span("explore", id, || explore(program, config)) {
        Ok(r) => r,
        Err(e) => return Some(format!("exploration failed: {e}")),
    };
    add(c, "explore.calls", report.explore_calls as f64);
    add(c, "explore.end_states", report.end_states as f64);
    add(c, "explore.outputs", report.outputs as f64);
    add(
        c,
        "explore.statically_pruned",
        report.statically_pruned as f64,
    );
    add(c, "explore.steals", report.steals as f64);
    add_engine(c, &report.engine_stats);
    let got = (report.outputs, report.end_states, report.explore_calls);
    let want = (answer.histories, answer.end_states, answer.explore_calls);
    if report.timed_out {
        Some(format!("timed out after {CASE_TIMEOUT:?}"))
    } else if got != want {
        Some(format!(
            "(histories, end_states, explore_calls) = {got:?}, pinned {want:?}"
        ))
    } else {
        None
    }
}

fn run_simulate(
    config: &SimConfig,
    answer: &SimAnswer,
    id: u32,
    tracer: &mut Tracer,
    c: &mut Counters,
) -> Option<String> {
    match simulate_once(config, id, tracer, c) {
        Err(e) => Some(e),
        Ok((verdict, fingerprint)) => {
            (verdict != answer.verdict || fingerprint != answer.fingerprint).then(|| {
                format!(
                    "verdict {verdict} / history {fingerprint}, pinned {} / {}",
                    answer.verdict, answer.fingerprint
                )
            })
        }
    }
}

/// Runs the store pipeline once: simulate, check the recorded history
/// against the claimed spec, replay the witness. Returns the verdict
/// (`consistent` or `violation`) and the history fingerprint.
pub fn simulate_once(
    config: &SimConfig,
    id: u32,
    tracer: &mut Tracer,
    c: &mut Counters,
) -> Result<(&'static str, String), String> {
    let start = Instant::now();
    let out = tracer.span("store.run", id, || run_simulation(config));
    add(c, "store.run_s", start.elapsed().as_secs_f64());
    let s = out.stats;
    add(c, "store.runs", 1.0);
    add(c, "store.messages", s.messages as f64);
    add(c, "store.dropped", s.dropped as f64);
    add(c, "store.rpc_resends", s.rpc_resends as f64);
    add(c, "store.attempts_aborted", s.attempts_aborted as f64);
    add(c, "store.committed", s.committed as f64);
    add(
        c,
        "store.commit_attempts",
        (s.committed + s.attempts_aborted) as f64,
    );
    add(c, "store.given_up", s.given_up as f64);
    add(c, "store.wal_replayed", s.wal_replayed as f64);
    add(c, "store.crashes", s.crashes as f64);
    if let Some(b) = out.invariant_breaches.first() {
        return Err(format!("store invariant breach: {b}"));
    }

    let mut checker = DecomposingChecker::new(&out.claimed, true);
    let verdict = tracer.span("analysis.check_witnessed", id, || {
        checker.check_witnessed(&out.history)
    });
    keep_max(c, "analysis.components", checker.components() as f64);
    keep_max(
        c,
        "analysis.largest_component",
        checker.largest_component() as f64,
    );
    add_engine(c, &checker.stats());
    let verdict = match (verdict.witness(), verdict.violation()) {
        (Some(w), _) => {
            if !tracer.span("history.replay", id, || {
                w.replays(&out.history, &out.claimed)
            }) {
                return Err("witness does not replay".into());
            }
            "consistent"
        }
        (None, Some(v)) => {
            add(c, "analysis.violations", 1.0);
            let closed = v
                .cycle
                .iter()
                .zip(v.cycle.iter().cycle().skip(1))
                .all(|(e, next)| e.to == next.from);
            if !closed {
                return Err("violation core is not a closed cycle".into());
            }
            "violation"
        }
        (None, None) => return Err("verdict carries neither witness nor violation".into()),
    };
    let fp = out.history.fingerprint_hash();
    Ok((verdict, format!("{:016x}{:016x}", fp.0, fp.1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_is_seeded_and_keeps_the_cost_profile() {
        let costs: Vec<f64> = (1..=60).map(|i| ((i * 37) % 61) as f64).collect();
        let pick = |seed| select(&mut SplitMix::new(seed, "x"), &costs, 20);
        let a = pick(1);
        assert_eq!(a, pick(1));
        assert_eq!(a.len(), 20);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let total = |v: &[usize]| v.iter().map(|&i| costs[i]).sum::<f64>();
        let third = costs.iter().sum::<f64>() / 3.0;
        let picks: Vec<Vec<usize>> = (0..20).map(pick).collect();
        for p in &picks {
            assert!((total(p) - third).abs() / third < 0.03, "{p:?}");
        }
        let distinct: BTreeSet<&Vec<usize>> = picks.iter().collect();
        assert!(distinct.len() > 15, "seeds must vary the inputs");
        assert_eq!(select(&mut SplitMix::new(1, "x"), &costs[..5], 20).len(), 5);
    }

    #[test]
    fn session_orders_rename_sessions() {
        let p = generate_program(App::Tpcc, 2, [0, 1, 2]);
        let q = generate_program(App::Tpcc, 2, [2, 0, 1]);
        assert_eq!(q.sessions[0], p.sessions[2]);
        assert_eq!(q.sessions[1], p.sessions[0]);
        assert_eq!(q.init_values, p.init_values);
        assert_eq!(program_name(App::Tpcc, 2, [2, 0, 1]), "tpcc-2:201");
    }

    #[test]
    fn labels_match_the_fig14_tables() {
        assert_eq!(Algo::Star(RA, CC).label(), "RA + CC");
        assert_eq!(Algo::Par2(CC).label(), "CC par2");
        assert_eq!(
            Algo::Mixed(MixedScenario::TpccPaymentSer).label(),
            "CC + mix:tpcc:pay-ser"
        );
        assert_eq!(strong_algos(App::Tpcc).len(), 5);
        assert_eq!(weak_algos(App::Tpcc).len(), 2);
        assert_eq!(weak_algos(App::Twitter).len(), 3);
    }
}
