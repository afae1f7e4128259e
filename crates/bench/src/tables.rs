//! Rendering of measurements as the tables and cactus-plot series of the
//! paper's evaluation.

use std::collections::BTreeMap;

use crate::alloc::format_bytes;
use crate::harness::Measurement;

/// Prints a detailed per-benchmark table in the style of Tables F.1–F.3:
/// one row per benchmark, one column group per algorithm.
pub fn print_detailed_table(rows: &[Measurement]) -> String {
    let mut algorithms: Vec<String> = Vec::new();
    for r in rows {
        if !algorithms.contains(&r.algorithm) {
            algorithms.push(r.algorithm.clone());
        }
    }
    let mut benchmarks: Vec<String> = Vec::new();
    for r in rows {
        if !benchmarks.contains(&r.benchmark) {
            benchmarks.push(r.benchmark.clone());
        }
    }
    let mut out = String::new();
    out.push_str(&format!("{:<18}", "benchmark"));
    for a in &algorithms {
        out.push_str(&format!(
            " | {:<14} {:>10} {:>12} {:>9}",
            a, "histories", "end-states", "time"
        ));
    }
    out.push('\n');
    for b in &benchmarks {
        out.push_str(&format!("{b:<18}"));
        for a in &algorithms {
            match rows.iter().find(|r| &r.benchmark == b && &r.algorithm == a) {
                Some(r) => out.push_str(&format!(
                    " | {:<14} {:>10} {:>12} {:>9}",
                    format_bytes(r.peak_alloc),
                    r.histories,
                    r.end_states,
                    r.time_cell()
                )),
                None => out.push_str(&format!(
                    " | {:<14} {:>10} {:>12} {:>9}",
                    "-", "-", "-", "-"
                )),
            }
        }
        out.push('\n');
    }
    out
}

/// Prints the cactus-plot series of Fig. 14: for each algorithm, the sorted
/// per-benchmark running times (excluding timeouts) as cumulative series,
/// plus the number of timeouts.
pub fn print_cactus(rows: &[Measurement]) -> String {
    let mut by_algo: BTreeMap<String, Vec<&Measurement>> = BTreeMap::new();
    for r in rows {
        by_algo.entry(r.algorithm.clone()).or_default().push(r);
    }
    let mut out = String::new();
    out.push_str("cactus series (x = number of solved benchmarks, y = time in seconds)\n");
    for (algo, ms) in &by_algo {
        let mut times: Vec<f64> = ms
            .iter()
            .filter(|m| !m.timed_out)
            .map(|m| m.time.as_secs_f64())
            .collect();
        times.sort_by(f64::total_cmp);
        let timeouts = ms.iter().filter(|m| m.timed_out).count();
        out.push_str(&format!("{algo:<12} ({timeouts} timeouts): "));
        for (i, t) in times.iter().enumerate() {
            out.push_str(&format!("({},{:.3}) ", i + 1, t));
        }
        out.push('\n');
    }
    // End-state series (Fig. 14c).
    out.push_str("\ncactus series (x = number of benchmarks, y = end states)\n");
    for (algo, ms) in &by_algo {
        let mut states: Vec<u64> = ms
            .iter()
            .filter(|m| !m.timed_out)
            .map(|m| m.end_states)
            .collect();
        states.sort_unstable();
        out.push_str(&format!("{algo:<12}: "));
        for (i, s) in states.iter().enumerate() {
            out.push_str(&format!("({},{}) ", i + 1, s));
        }
        out.push('\n');
    }
    // Memory series (Fig. 14b).
    out.push_str("\ncactus series (x = number of benchmarks, y = peak allocation, MB)\n");
    for (algo, ms) in &by_algo {
        let mut mem: Vec<f64> = ms
            .iter()
            .filter(|m| !m.timed_out)
            .map(|m| m.peak_alloc as f64 / (1024.0 * 1024.0))
            .collect();
        mem.sort_by(f64::total_cmp);
        out.push_str(&format!("{algo:<12}: "));
        for (i, m) in mem.iter().enumerate() {
            out.push_str(&format!("({},{:.1}) ", i + 1, m));
        }
        out.push('\n');
    }
    out
}

/// Prints the scalability summary of Fig. 15: average time and memory per
/// parameter value (number of sessions or transactions per session),
/// counting timed-out runs at the timeout value as the paper does.
pub fn print_scaling(rows: &[(usize, Measurement)], parameter: &str) -> String {
    let mut by_size: BTreeMap<usize, Vec<&Measurement>> = BTreeMap::new();
    for (size, m) in rows {
        by_size.entry(*size).or_default().push(m);
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{parameter:<14} {:>10} {:>14} {:>10} {:>10}\n",
        "avg time", "avg mem (MB)", "timeouts", "runs"
    ));
    for (size, ms) in &by_size {
        let avg_time: f64 = ms.iter().map(|m| m.time.as_secs_f64()).sum::<f64>() / ms.len() as f64;
        let avg_mem: f64 = ms
            .iter()
            .map(|m| m.peak_alloc as f64 / (1024.0 * 1024.0))
            .sum::<f64>()
            / ms.len() as f64;
        let timeouts = ms.iter().filter(|m| m.timed_out).count();
        out.push_str(&format!(
            "{size:<14} {avg_time:>9.2}s {avg_mem:>14.1} {timeouts:>10} {:>10}\n",
            ms.len()
        ));
    }
    out
}

/// Prints the detailed per-benchmark scalability table of Tables F.2/F.3.
pub fn print_scaling_detail(rows: &[(usize, Measurement)], parameter: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {parameter:<14} {:>10} {:>12} {:>10} {:>12}\n",
        "benchmark", "histories", "end-states", "time", "mem"
    ));
    for (size, m) in rows {
        out.push_str(&format!(
            "{:<16} {size:<14} {:>10} {:>12} {:>10} {:>12}\n",
            m.benchmark,
            m.histories,
            m.end_states,
            m.time_cell(),
            format_bytes(m.peak_alloc)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample(benchmark: &str, algorithm: &str, secs: u64, timed_out: bool) -> Measurement {
        Measurement {
            benchmark: benchmark.to_owned(),
            algorithm: algorithm.to_owned(),
            levels: "CC".to_owned(),
            histories: 10,
            end_states: 20,
            explore_calls: 100,
            time: Duration::from_secs(secs),
            peak_alloc: 5 * 1024 * 1024,
            history_clones: 7,
            history_bytes_copied: 4096,
            engine: txdpor_history::EngineStats::default(),
            workers: 1,
            steals: 0,
            components: 0,
            largest_component: 0,
            statically_pruned: 0,
            first_rejection: None,
            timed_out,
        }
    }

    #[test]
    fn detailed_table_contains_all_cells() {
        let rows = vec![
            sample("tpcc-1", "CC", 1, false),
            sample("tpcc-1", "DFS(CC)", 9, false),
            sample("twitter-1", "CC", 2, false),
        ];
        let table = print_detailed_table(&rows);
        assert!(table.contains("tpcc-1"));
        assert!(table.contains("twitter-1"));
        assert!(table.contains("DFS(CC)"));
        // Missing cell rendered as '-'.
        assert!(table.contains('-'));
    }

    #[test]
    fn cactus_counts_timeouts() {
        let rows = vec![
            sample("a", "CC", 1, false),
            sample("b", "CC", 2, false),
            sample("c", "CC", 30, true),
        ];
        let cactus = print_cactus(&rows);
        assert!(cactus.contains("(1 timeouts)"));
        assert!(cactus.contains("(1,1.000)"));
        assert!(cactus.contains("(2,2.000)"));
    }

    #[test]
    fn scaling_tables_render() {
        let rows = vec![
            (1, sample("tpcc-1", "CC", 1, false)),
            (2, sample("tpcc-1", "CC", 4, false)),
            (2, sample("wikipedia-1", "CC", 6, true)),
        ];
        let summary = print_scaling(&rows, "sessions");
        assert!(summary.contains("sessions"));
        assert!(summary.lines().count() >= 3);
        let detail = print_scaling_detail(&rows, "sessions");
        assert!(detail.contains("wikipedia-1"));
        assert!(detail.contains("TL"));
    }
}
