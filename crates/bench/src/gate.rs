//! Row-diff logic of the bench-regression gate (`bench_gate` binary).
//!
//! The gate re-runs the deterministic rows of the committed
//! `BENCH_fig14.json` and compares the machine-independent exploration
//! counts (`histories`, `end_states`, `explore_calls`) plus the `levels`
//! spec label. The comparison is *set-based* and collected into one
//! readable report:
//!
//! * baseline rows missing from the re-run are failures;
//! * re-run rows absent from the baseline are reported once as **new**
//!   (non-fatal — adding a configuration must not abort the gate);
//! * malformed baseline rows (missing fields) are skipped with a notice
//!   instead of panicking at the first absent key;
//! * a fresh run may not time out more often than the baseline did on the
//!   gated sub-suite;
//! * every re-run row must keep the engine and explorer invariants (see
//!   [`invariant_failures`]), whatever the baseline says.
//!
//! [`compare_parallel`] checks one fig14 document instead of re-running:
//! its `CC parN` rows against its serial `CC` rows.

use std::collections::BTreeMap;

use crate::harness::{Algorithm, Measurement};
use crate::json::JsonValue;
use txdpor_apps::workload::MixedScenario;
use txdpor_history::{IsolationLevel, LevelSpec};

/// One gateable row of the committed baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineRow {
    /// Benchmark identifier (`tpcc-2`).
    pub benchmark: String,
    /// Algorithm label (`CC + SER`).
    pub algorithm: String,
    /// The `levels` spec label, absent in pre-mixed baselines.
    pub levels: Option<String>,
    /// Gated counts.
    pub histories: i64,
    /// Number of complete executions.
    pub end_states: i64,
    /// Number of explore calls.
    pub explore_calls: i64,
    /// Reordering candidates statically pruned, absent in baselines
    /// written before the static-analysis layer existed.
    pub statically_pruned: Option<i64>,
    /// Whether the baseline run hit its timeout (counts not comparable).
    pub timed_out: bool,
}

/// Outcome of comparing a re-run against the baseline rows.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    /// Rows whose counts were compared.
    pub checked: usize,
    /// Human-readable failures (count mismatches, missing rows, timeout
    /// regressions).
    pub failures: Vec<String>,
    /// Re-run rows with no baseline counterpart — listed once, non-fatal.
    pub new_rows: Vec<String>,
    /// Non-fatal notices (malformed baseline rows, unknown labels,
    /// timed-out baselines skipped).
    pub notices: Vec<String>,
}

impl GateReport {
    /// Whether the gate passes.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the full report, sections ordered new → notices → failures
    /// so the verdict-relevant lines come last.
    pub fn render(&self, baseline_path: &str) -> String {
        let mut out = String::new();
        for row in &self.new_rows {
            out.push_str(&format!("NEW  {row} (not in baseline; not gated)\n"));
        }
        for notice in &self.notices {
            out.push_str(&format!("note {notice}\n"));
        }
        for failure in &self.failures {
            out.push_str(&format!("FAIL {failure}\n"));
        }
        out.push_str(&format!(
            "bench_gate: {} row(s) checked against {baseline_path}, {} new, {} failure(s)\n",
            self.checked,
            self.new_rows.len(),
            self.failures.len()
        ));
        out
    }
}

/// The committed algorithm labels mapped back to configurations. Labels
/// absent from this table (e.g. a differently-sized parallel run) are
/// reported as notices rather than failing the gate.
pub fn algorithm_for_label(label: &str) -> Option<Algorithm> {
    let cc = IsolationLevel::CausalConsistency;
    let mut table: Vec<Algorithm> = Algorithm::FIG14.to_vec();
    table.push(Algorithm::ExploreCeNoMemo(cc));
    table.push(Algorithm::ExploreCeNoOptimality(cc));
    for workers in 1..=64 {
        table.push(Algorithm::ExploreCeParallel(cc, workers));
    }
    table.extend(
        MixedScenario::ALL
            .into_iter()
            .map(Algorithm::ExploreCeMixed),
    );
    table.into_iter().find(|a| a.label() == label)
}

/// Extracts the gateable rows of a parsed baseline document, keeping only
/// benchmarks accepted by `in_suite`. Malformed rows become notices
/// instead of panics.
pub fn baseline_rows<F: Fn(&str) -> bool>(
    doc: &JsonValue,
    in_suite: F,
) -> (Vec<BaselineRow>, Vec<String>) {
    let mut rows = Vec::new();
    let mut notices = Vec::new();
    for (i, r) in doc
        .get("rows")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .enumerate()
    {
        let benchmark = r.get("benchmark").and_then(JsonValue::as_str);
        let algorithm = r.get("algorithm").and_then(JsonValue::as_str);
        let (Some(benchmark), Some(algorithm)) = (benchmark, algorithm) else {
            notices.push(format!(
                "baseline row #{i} lacks benchmark/algorithm; skipped"
            ));
            continue;
        };
        if !in_suite(benchmark) {
            continue;
        }
        let ints = ["histories", "end_states", "explore_calls"]
            .map(|k| r.get(k).and_then(JsonValue::as_i64));
        let timed_out = r.get("timed_out").and_then(JsonValue::as_bool);
        let ([Some(histories), Some(end_states), Some(explore_calls)], Some(timed_out)) =
            (ints, timed_out)
        else {
            notices.push(format!(
                "baseline row {benchmark}/{algorithm} lacks a gated field; skipped"
            ));
            continue;
        };
        rows.push(BaselineRow {
            benchmark: benchmark.to_owned(),
            algorithm: algorithm.to_owned(),
            levels: r
                .get("levels")
                .and_then(JsonValue::as_str)
                .map(str::to_owned),
            histories,
            end_states,
            explore_calls,
            // The pruning counter is deterministic too, but absent in
            // baselines written before the static-analysis layer existed:
            // gated only when present.
            statically_pruned: r.get("statically_pruned").and_then(JsonValue::as_i64),
            timed_out,
        });
    }
    (rows, notices)
}

/// Compares a fresh run against the baseline rows (both restricted to the
/// gated sub-suite) into one report.
pub fn compare(
    baseline: &[BaselineRow],
    measured: &[Measurement],
    timeout_secs: u64,
) -> GateReport {
    let mut report = GateReport::default();
    let find = |bench: &str, label: &str| -> Option<&Measurement> {
        measured
            .iter()
            .find(|m| m.benchmark == bench && m.algorithm == label)
    };

    for row in baseline {
        if row.timed_out {
            // A timed-out run's counts depend on where the clock cut it
            // off; only the timeout-regression guard below sees it.
            continue;
        }
        let Some(m) = find(&row.benchmark, &row.algorithm) else {
            if algorithm_for_label(&row.algorithm).is_some() {
                report.failures.push(format!(
                    "{}/{}: row missing from the re-run",
                    row.benchmark, row.algorithm
                ));
            } else {
                report.notices.push(format!(
                    "{}/{}: unknown algorithm label; skipped",
                    row.benchmark, row.algorithm
                ));
            }
            continue;
        };
        if m.timed_out {
            report.failures.push(format!(
                "{}/{}: timed out after {timeout_secs}s while the baseline did not",
                row.benchmark, row.algorithm
            ));
            continue;
        }
        report.checked += 1;
        if let Some(levels) = &row.levels {
            // A baseline written by a build that knew more (or different)
            // isolation levels may carry a spec label this build cannot
            // even parse; that is a vocabulary gap, not a count regression.
            if levels.parse::<LevelSpec>().is_err() {
                report.notices.push(format!(
                    "{}/{}: baseline levels {:?} name an unknown level; not compared",
                    row.benchmark, row.algorithm, levels
                ));
            } else if *levels != m.levels {
                report.failures.push(format!(
                    "{}/{}: levels = {:?}, baseline has {:?}",
                    row.benchmark, row.algorithm, m.levels, levels
                ));
            }
        }
        for (what, want, got) in [
            ("histories", row.histories, m.histories as i64),
            ("end_states", row.end_states, m.end_states as i64),
            ("explore_calls", row.explore_calls, m.explore_calls as i64),
        ] {
            if want != got {
                report.failures.push(format!(
                    "{}/{}: {what} = {got}, baseline has {want}",
                    row.benchmark, row.algorithm
                ));
            }
        }
        if let Some(want) = row.statically_pruned {
            let got = m.statically_pruned as i64;
            if want != got {
                report.failures.push(format!(
                    "{}/{}: statically_pruned = {got}, baseline has {want}",
                    row.benchmark, row.algorithm
                ));
            }
        }
    }

    for m in measured {
        report.failures.extend(invariant_failures(m));
    }

    // Rows the re-run produced that the baseline does not know: new
    // configurations (e.g. freshly added mixed scenarios) — non-fatal.
    for m in measured {
        let known = baseline
            .iter()
            .any(|row| row.benchmark == m.benchmark && row.algorithm == m.algorithm);
        if !known {
            report
                .new_rows
                .push(format!("{}/{}", m.benchmark, m.algorithm));
        }
    }

    // Catastrophic-slowdown guard: the fresh run must not time out more
    // often than the baseline did on the gated sub-suite. Rows without a
    // baseline counterpart are excluded — a new (ungated) configuration
    // timing out must not abort the gate either.
    let baseline_timeouts = baseline.iter().filter(|r| r.timed_out).count();
    let fresh_timeouts = measured
        .iter()
        .filter(|m| {
            m.timed_out
                && baseline
                    .iter()
                    .any(|row| row.benchmark == m.benchmark && row.algorithm == m.algorithm)
        })
        .count();
    if fresh_timeouts > baseline_timeouts {
        report.failures.push(format!(
            "timeouts: fresh run hit {fresh_timeouts} timeout(s), baseline has \
             {baseline_timeouts} on this sub-suite"
        ));
    }
    report
}

/// The invariants every measured row keeps, one message per broken one:
/// each memo miss is counted once, as an incremental sync or as a full
/// rebuild; each full rebuild is counted under exactly one cause; and a
/// serial exploration, which runs in place on one history, clones none
/// (the parallel `CC parN` rows clone to hand nodes to workers).
pub fn invariant_failures(m: &Measurement) -> Vec<String> {
    let e = &m.engine;
    let mut failures = Vec::new();
    if e.incremental_hits + e.full_rebuilds != e.memo_misses {
        failures.push(format!(
            "{}/{}: incremental_hits {} + full_rebuilds {} != memo_misses {}",
            m.benchmark, m.algorithm, e.incremental_hits, e.full_rebuilds, e.memo_misses
        ));
    }
    if e.rebuild_causes.total() != e.full_rebuilds {
        failures.push(format!(
            "{}/{}: rebuild causes sum to {}, full_rebuilds = {}",
            m.benchmark,
            m.algorithm,
            e.rebuild_causes.total(),
            e.full_rebuilds
        ));
    }
    let parallel = matches!(
        algorithm_for_label(&m.algorithm),
        Some(Algorithm::ExploreCeParallel(..))
    );
    if !parallel && m.history_clones != 0 {
        failures.push(format!(
            "{}/{}: a serial row cloned {} histories",
            m.benchmark, m.algorithm, m.history_clones
        ));
    }
    failures
}

/// The serial `CC` rows of one fig14 document against its `CC parN` rows
/// (see [`compare_parallel`]).
#[derive(Clone, Debug, Default)]
pub struct ParallelReport {
    /// The parallel rows' algorithm label (`CC par4`).
    pub label: String,
    /// One line per compared benchmark, then the average speedup.
    pub lines: Vec<String>,
    /// Count mismatches, benchmarks without a serial row, and an average
    /// speedup below the required one.
    pub failures: Vec<String>,
}

impl ParallelReport {
    /// Whether the comparison passes.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// The summary of the comparison of the document at `path`: the
    /// compared rows, then one `FAIL` line per failure.
    pub fn render(&self, path: &str) -> String {
        let mut out = format!("serial CC vs {} ({path})\n\n", self.label);
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        for failure in &self.failures {
            out.push_str(&format!("FAIL {failure}\n"));
        }
        out
    }
}

/// Compares the `CC par{workers}` rows of a fig14 document with the serial
/// `CC` rows of the same benchmarks, the parallel exploration's contract.
/// The deterministic counts (`histories`, `end_states`, `explore_calls`)
/// must be bit-identical. Engine work counters such as `search_nodes` are
/// not compared: workers decide histories in another order and share
/// verdicts, so their engines do different work. The wall-clock speedup,
/// averaged over the benchmarks whose serial run took at least
/// `min_serial_secs` (on shorter rows scheduling overhead drowns the
/// signal), must reach `min_speedup`.
/// Rows where either run timed out are listed and not compared.
///
/// # Errors
///
/// Returns a message when the document has no `rows` array, no
/// `CC par{workers}` row, or a compared row lacks a field.
pub fn compare_parallel(
    doc: &JsonValue,
    workers: usize,
    min_speedup: f64,
    min_serial_secs: f64,
) -> Result<ParallelReport, String> {
    let rows = doc
        .get("rows")
        .and_then(JsonValue::as_array)
        .ok_or("no \"rows\" array")?;
    let label = format!("CC par{workers}");
    let by_benchmark = |algorithm: &str| -> BTreeMap<&str, &JsonValue> {
        rows.iter()
            .filter(|r| r.get("algorithm").and_then(JsonValue::as_str) == Some(algorithm))
            .filter_map(|r| Some((r.get("benchmark")?.as_str()?, r)))
            .collect()
    };
    let serial = by_benchmark("CC");
    let parallel = by_benchmark(&label);
    if parallel.is_empty() {
        return Err(format!("no {label:?} rows"));
    }
    let field = |bench: &str, r: &JsonValue, key: &str| -> Result<JsonValue, String> {
        r.get(key)
            .cloned()
            .ok_or_else(|| format!("{bench}: a row lacks {key:?}"))
    };
    let secs = |bench: &str, r: &JsonValue| -> Result<f64, String> {
        field(bench, r, "time_secs")?
            .as_f64()
            .ok_or_else(|| format!("{bench}: \"time_secs\" is not a number"))
    };
    let timed_out = |bench: &str, r: &JsonValue| -> Result<bool, String> {
        field(bench, r, "timed_out")?
            .as_bool()
            .ok_or_else(|| format!("{bench}: \"timed_out\" is not a boolean"))
    };
    let mut report = ParallelReport {
        label: label.clone(),
        ..ParallelReport::default()
    };
    let mut ratios = Vec::new();
    for (bench, par) in &parallel {
        let Some(ser) = serial.get(bench) else {
            report
                .failures
                .push(format!("{bench}: has a {label} row but no serial CC row"));
            continue;
        };
        let (ser_out, par_out) = (timed_out(bench, ser)?, timed_out(bench, par)?);
        if ser_out || par_out {
            report.lines.push(format!(
                "{bench}: timed out (serial={ser_out}, parallel={par_out}); not compared"
            ));
            continue;
        }
        for key in ["histories", "end_states", "explore_calls"] {
            let (want, got) = (field(bench, ser, key)?, field(bench, par, key)?);
            if want != got {
                report.failures.push(format!(
                    "{bench}: {key} differs (serial {want}, parallel {got})"
                ));
            }
        }
        let (ser_secs, par_secs) = (secs(bench, ser)?, secs(bench, par)?);
        let ratio = ser_secs / par_secs.max(1e-9);
        let gated = ser_secs >= min_serial_secs;
        if gated {
            ratios.push(ratio);
        }
        let shown = |key: &str| par.get(key).map_or("-".to_owned(), JsonValue::to_string);
        report.lines.push(format!(
            "{bench}: serial {ser_secs:.3}s, parallel {par_secs:.3}s -> {ratio:.2}x \
             (workers={}, steals={}){}",
            shown("workers"),
            shown("steals"),
            if gated {
                ""
            } else {
                " [below --min-serial-secs; not speedup-gated]"
            }
        ));
    }
    report.lines.push(String::new());
    if ratios.is_empty() {
        report
            .lines
            .push("no benchmark met --min-serial-secs; speedup not gated".to_owned());
    } else {
        let average = ratios.iter().sum::<f64>() / ratios.len() as f64;
        report.lines.push(format!(
            "average speedup over {} gated benchmark(s): {average:.2}x \
             (required >= {min_speedup:.2}x)",
            ratios.len()
        ));
        if average < min_speedup {
            report.failures.push(format!(
                "average speedup {average:.2}x is below the required {min_speedup:.2}x"
            ));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use txdpor_history::EngineStats;

    fn row(benchmark: &str, algorithm: &str, counts: (i64, i64, i64)) -> BaselineRow {
        BaselineRow {
            benchmark: benchmark.into(),
            algorithm: algorithm.into(),
            levels: Some("CC".into()),
            histories: counts.0,
            end_states: counts.1,
            explore_calls: counts.2,
            statically_pruned: None,
            timed_out: false,
        }
    }

    fn measurement(benchmark: &str, algorithm: &str, counts: (u64, u64, u64)) -> Measurement {
        Measurement {
            benchmark: benchmark.into(),
            algorithm: algorithm.into(),
            levels: "CC".into(),
            histories: counts.0,
            end_states: counts.1,
            explore_calls: counts.2,
            time: Duration::from_millis(1),
            peak_alloc: 0,
            history_clones: 0,
            history_bytes_copied: 0,
            engine: EngineStats::default(),
            workers: 1,
            steals: 0,
            statically_pruned: 0,
            first_rejection: None,
            timed_out: false,
        }
    }

    #[test]
    fn matching_rows_pass() {
        let baseline = [row("courseware-1", "CC", (30, 30, 401))];
        let measured = [measurement("courseware-1", "CC", (30, 30, 401))];
        let report = compare(&baseline, &measured, 60);
        assert!(report.ok(), "{report:?}");
        assert_eq!(report.checked, 1);
        assert!(report.new_rows.is_empty());
    }

    #[test]
    fn count_mismatches_are_collected_not_fatal_per_row() {
        let baseline = [
            row("courseware-1", "CC", (30, 30, 401)),
            row("courseware-2", "CC", (10, 10, 100)),
        ];
        let measured = [
            measurement("courseware-1", "CC", (31, 29, 401)),
            measurement("courseware-2", "CC", (10, 10, 100)),
        ];
        let report = compare(&baseline, &measured, 60);
        assert!(!report.ok());
        // Both diverging counts of the first row are reported; the second
        // row still gets checked.
        assert_eq!(report.failures.len(), 2, "{:?}", report.failures);
        assert_eq!(report.checked, 2);
    }

    #[test]
    fn rows_missing_from_baseline_are_new_and_nonfatal() {
        // The re-run produced a freshly added mixed row the baseline does
        // not know: reported once as NEW, gate still green.
        let baseline = [row("tpcc-1", "CC", (5, 5, 50))];
        let measured = [
            measurement("tpcc-1", "CC", (5, 5, 50)),
            measurement("tpcc-1", "CC + mix:tpcc:pay-ser", (4, 5, 60)),
        ];
        let report = compare(&baseline, &measured, 60);
        assert!(report.ok(), "{:?}", report.failures);
        assert_eq!(report.new_rows, vec!["tpcc-1/CC + mix:tpcc:pay-ser"]);
        let rendered = report.render("BENCH_fig14.json");
        assert!(rendered.contains("NEW  tpcc-1/CC + mix:tpcc:pay-ser"));
        assert!(rendered.contains("0 failure(s)"));
    }

    #[test]
    fn baseline_rows_missing_from_rerun_fail_once_each() {
        let baseline = [
            row("courseware-1", "CC", (30, 30, 401)),
            row("courseware-1", "CC + SER", (30, 30, 401)),
        ];
        let measured = [measurement("courseware-1", "CC", (30, 30, 401))];
        let report = compare(&baseline, &measured, 60);
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("missing from the re-run"));
    }

    #[test]
    fn unknown_labels_are_notices() {
        let baseline = [row("courseware-1", "CC par128", (30, 30, 401))];
        let report = compare(&baseline, &[], 60);
        assert!(report.ok());
        assert_eq!(report.notices.len(), 1);
        assert!(report.notices[0].contains("unknown algorithm label"));
    }

    #[test]
    fn levels_field_is_compared_when_present() {
        let baseline = [row("courseware-1", "CC", (30, 30, 401))];
        let mut m = measurement("courseware-1", "CC", (30, 30, 401));
        m.levels = "CC[s0.t0=SER]".into();
        let report = compare(&baseline, &[m], 60);
        assert!(!report.ok());
        assert!(report.failures[0].contains("levels"));

        // Pre-mixed baselines without the field stay comparable.
        let mut old = row("courseware-1", "CC", (30, 30, 401));
        old.levels = None;
        let report = compare(
            &[old],
            &[measurement("courseware-1", "CC", (30, 30, 401))],
            60,
        );
        assert!(report.ok());
    }

    #[test]
    fn statically_pruned_is_gated_when_present() {
        // Baselines written before the static-analysis layer lack the
        // counter: rows stay comparable on the classic triple.
        let baseline = [row("courseware-1", "CC", (30, 30, 401))];
        let mut m = measurement("courseware-1", "CC", (30, 30, 401));
        m.statically_pruned = 123;
        let report = compare(&baseline, &[m.clone()], 60);
        assert!(report.ok(), "{:?}", report.failures);

        // Once a baseline records it, it is count-stable and any
        // divergence fails the gate.
        let mut new = row("courseware-1", "CC", (30, 30, 401));
        new.statically_pruned = Some(122);
        let report = compare(&[new], &[m.clone()], 60);
        assert!(!report.ok());
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("statically_pruned"));

        // Rows that still carry the retired decomposition keys parse and
        // compare as before: the gate ignores them.
        let doc = JsonValue::parse(
            r#"{"rows":[{"benchmark":"courseware-1","algorithm":"CC","histories":30,
            "end_states":30,"explore_calls":401,"components":1,"largest_component":6,
            "statically_pruned":123,"timed_out":false}]}"#,
        )
        .expect("well-formed baseline");
        let (rows, notices) = baseline_rows(&doc, |_| true);
        assert!(notices.is_empty(), "{notices:?}");
        assert!(compare(&rows, &[m], 60).ok());
    }

    #[test]
    fn unknown_levels_in_baseline_are_notices_not_mismatches() {
        // A baseline written by a build with a richer level vocabulary
        // (e.g. a level since renamed) must not fail the count gate.
        let mut future = row("courseware-1", "CC", (30, 30, 401));
        future.levels = Some("PSI".into());
        let report = compare(
            &[future],
            &[measurement("courseware-1", "CC", (30, 30, 401))],
            60,
        );
        assert!(report.ok(), "{:?}", report.failures);
        assert_eq!(report.checked, 1, "counts are still gated");
        assert_eq!(report.notices.len(), 1, "{:?}", report.notices);
        assert!(report.notices[0].contains("unknown level"));

        // Mixed-spec labels with a known vocabulary still mismatch-fail.
        let mut mixed = row("courseware-1", "CC", (30, 30, 401));
        mixed.levels = Some("CC[s0.t1=PC]".into());
        let report = compare(
            &[mixed],
            &[measurement("courseware-1", "CC", (30, 30, 401))],
            60,
        );
        assert!(!report.ok());
        assert!(report.failures[0].contains("levels"));
    }

    #[test]
    fn timeout_regression_fails() {
        let baseline = [row("tpcc-1", "CC", (5, 5, 50))];
        let mut m = measurement("tpcc-1", "CC", (0, 0, 10));
        m.timed_out = true;
        let report = compare(&baseline, &[m], 60);
        assert!(!report.ok());
        assert!(report.failures.iter().any(|f| f.contains("timed out")));
        assert!(report.failures.iter().any(|f| f.contains("timeouts:")));
    }

    #[test]
    fn timed_out_new_rows_stay_nonfatal() {
        // A freshly added configuration that times out has no baseline
        // counterpart: listed as NEW, excluded from the timeout guard.
        let baseline = [row("tpcc-1", "CC", (5, 5, 50))];
        let mut new_tl = measurement("tpcc-1", "RC + mix:tpcc:reads-rc", (0, 0, 10));
        new_tl.timed_out = true;
        let measured = [measurement("tpcc-1", "CC", (5, 5, 50)), new_tl];
        let report = compare(&baseline, &measured, 60);
        assert!(report.ok(), "{:?}", report.failures);
        assert_eq!(report.new_rows.len(), 1);
    }

    #[test]
    fn timed_out_baselines_are_not_count_compared() {
        let mut tl = row("tpcc-1", "true + CC", (5, 5, 50));
        tl.timed_out = true;
        let mut m = measurement("tpcc-1", "true + CC", (7, 8, 99));
        m.timed_out = true;
        let report = compare(&[tl], &[m], 60);
        assert!(report.ok(), "{:?}", report.failures);
        assert_eq!(report.checked, 0);
    }

    #[test]
    fn malformed_baseline_rows_become_notices() {
        let doc = JsonValue::parse(
            r#"{"rows":[
                {"benchmark":"courseware-1","algorithm":"CC","histories":1,
                 "end_states":1,"explore_calls":1,"timed_out":false},
                {"benchmark":"courseware-2","algorithm":"CC","end_states":1,
                 "explore_calls":1,"timed_out":false},
                {"algorithm":"CC"},
                {"benchmark":"tpcc-1","algorithm":"CC","histories":1,
                 "end_states":1,"explore_calls":1,"timed_out":false}
            ]}"#,
        )
        .unwrap();
        let (rows, notices) = baseline_rows(&doc, |b| b.starts_with("courseware-"));
        assert_eq!(rows.len(), 1, "{rows:?}");
        assert_eq!(notices.len(), 2, "{notices:?}");
        assert!(
            notices[0].contains("lacks a gated field")
                || notices[1].contains("lacks a gated field")
        );
    }

    #[test]
    fn miscounted_memo_misses_fail() {
        let mut m = measurement("courseware-1", "CC", (30, 30, 401));
        m.engine.memo_misses = 10;
        m.engine.incremental_hits = 7;
        m.engine.full_rebuilds = 2;
        m.engine.rebuild_causes.first_sync = 2;
        let report = compare(&[], &[m.clone()], 60);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("memo_misses"));
        m.engine.incremental_hits = 8;
        assert!(invariant_failures(&m).is_empty());
    }

    #[test]
    fn rebuilds_without_one_cause_each_fail() {
        let mut m = measurement("courseware-1", "CC", (30, 30, 401));
        m.engine.memo_misses = 3;
        m.engine.full_rebuilds = 3;
        m.engine.rebuild_causes.first_sync = 1;
        m.engine.rebuild_causes.pop = 1;
        let report = compare(&[], &[m.clone()], 60);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("rebuild causes"));
        m.engine.rebuild_causes.undo_begin = 1;
        assert!(invariant_failures(&m).is_empty());
    }

    #[test]
    fn serial_rows_that_clone_fail_and_parallel_rows_are_exempt() {
        let mut serial = measurement("courseware-1", "CC", (30, 30, 401));
        serial.history_clones = 4;
        let report = compare(&[], &[serial], 60);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("serial row cloned 4"));
        let mut parallel = measurement("courseware-1", "CC par2", (30, 30, 401));
        parallel.history_clones = 4;
        parallel.workers = 2;
        assert!(invariant_failures(&parallel).is_empty());
    }

    #[test]
    fn mixed_labels_round_trip_through_the_algorithm_table() {
        for sc in MixedScenario::ALL {
            let algo = Algorithm::ExploreCeMixed(sc);
            assert_eq!(algorithm_for_label(&algo.label()), Some(algo));
        }
        assert_eq!(algorithm_for_label("CC + mix:unknown"), None);
    }

    /// A fig14 document of `(benchmark, algorithm, explore_calls,
    /// time_secs, timed_out)` rows, each with 3 histories and end states.
    fn fig14_doc(rows: &[(&str, &str, i64, f64, bool)]) -> JsonValue {
        let rows = rows
            .iter()
            .map(|(bench, algorithm, calls, secs, timed_out)| {
                JsonValue::Object(vec![
                    ("benchmark".into(), JsonValue::str(*bench)),
                    ("algorithm".into(), JsonValue::str(*algorithm)),
                    ("histories".into(), JsonValue::Int(3)),
                    ("end_states".into(), JsonValue::Int(3)),
                    ("explore_calls".into(), JsonValue::Int(*calls)),
                    ("time_secs".into(), JsonValue::Float(*secs)),
                    ("workers".into(), JsonValue::Int(4)),
                    ("timed_out".into(), JsonValue::Bool(*timed_out)),
                ])
            })
            .collect();
        JsonValue::Object(vec![("rows".into(), JsonValue::Array(rows))])
    }

    #[test]
    fn parallel_rows_with_equal_counts_and_enough_speedup_pass() {
        let doc = fig14_doc(&[
            ("tpcc-1", "CC", 100, 4.0, false),
            ("tpcc-1", "CC par4", 100, 2.0, false),
            ("tpcc-2", "CC", 50, 6.0, false),
            ("tpcc-2", "CC par4", 50, 3.0, false),
        ]);
        let report = compare_parallel(&doc, 4, 1.5, 2.0).unwrap();
        assert!(report.ok(), "{:?}", report.failures);
        assert!(report
            .render("fig14.json")
            .contains("average speedup over 2 gated benchmark(s): 2.00x"));
    }

    #[test]
    fn parallel_count_mismatch_fails() {
        let doc = fig14_doc(&[
            ("tpcc-1", "CC", 100, 4.0, false),
            ("tpcc-1", "CC par4", 99, 1.0, false),
        ]);
        let report = compare_parallel(&doc, 4, 1.5, 2.0).unwrap();
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("explore_calls differs (serial 100, parallel 99)"));
    }

    #[test]
    fn parallel_speedup_is_averaged_over_rows_of_at_least_min_serial_secs() {
        // The sub-second row would pull the average to 1.0x; only the
        // gated row counts, and it is too slow.
        let doc = fig14_doc(&[
            ("tpcc-1", "CC", 100, 4.0, false),
            ("tpcc-1", "CC par4", 100, 3.2, false),
            ("tpcc-2", "CC", 50, 0.5, false),
            ("tpcc-2", "CC par4", 50, 0.05, false),
        ]);
        let report = compare_parallel(&doc, 4, 1.5, 2.0).unwrap();
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("average speedup 1.25x"));
        assert!(report.render("fig14.json").contains("not speedup-gated"));
        // With no gated row the speedup is not checked at all.
        let report = compare_parallel(&doc, 4, 1.5, 10.0).unwrap();
        assert!(report.ok(), "{:?}", report.failures);
    }

    #[test]
    fn parallel_timeouts_are_skipped_and_missing_serial_rows_fail() {
        let doc = fig14_doc(&[
            ("tpcc-1", "CC", 100, 60.0, true),
            ("tpcc-1", "CC par4", 90, 60.0, true),
            ("tpcc-2", "CC par4", 50, 1.0, false),
        ]);
        let report = compare_parallel(&doc, 4, 1.5, 2.0).unwrap();
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("tpcc-2: has a CC par4 row but no serial CC row"));
        assert!(report.render("fig14.json").contains("tpcc-1: timed out"));
    }

    #[test]
    fn parallel_work_counters_are_not_compared() {
        let doc = JsonValue::parse(
            r#"{"rows":[
                {"benchmark":"b","algorithm":"CC","histories":3,"end_states":3,
                 "explore_calls":9,"time_secs":4.0,"timed_out":false,"search_nodes":120},
                {"benchmark":"b","algorithm":"CC par2","histories":3,"end_states":3,
                 "explore_calls":9,"time_secs":2.0,"timed_out":false,"search_nodes":95}]}"#,
        )
        .unwrap();
        let report = compare_parallel(&doc, 2, 1.5, 2.0).unwrap();
        assert!(report.ok(), "{:?}", report.failures);
    }

    #[test]
    fn parallel_comparison_rejects_malformed_documents() {
        let doc = fig14_doc(&[("tpcc-1", "CC", 100, 4.0, false)]);
        assert!(compare_parallel(&doc, 4, 1.5, 2.0)
            .unwrap_err()
            .contains("no \"CC par4\" rows"));
        assert!(compare_parallel(&JsonValue::Null, 4, 1.5, 2.0).is_err());
        let doc = JsonValue::parse(
            r#"{"rows":[{"benchmark":"b","algorithm":"CC par2","timed_out":false}]}"#,
        )
        .unwrap();
        // The serial row is missing: a failure, not malformed input.
        assert!(!compare_parallel(&doc, 2, 1.5, 2.0).unwrap().ok());
        let doc = JsonValue::parse(
            r#"{"rows":[{"benchmark":"b","algorithm":"CC","timed_out":false},
                        {"benchmark":"b","algorithm":"CC par2","timed_out":false}]}"#,
        )
        .unwrap();
        assert!(compare_parallel(&doc, 2, 1.5, 2.0)
            .unwrap_err()
            .contains("lacks \"histories\""));
    }
}
