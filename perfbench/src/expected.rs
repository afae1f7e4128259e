//! Pinned expected answers, one tab-separated file per pipeline.
//!
//! The files double as the benchmark's input pools: a workload only ever
//! runs programs and simulations that have a pinned answer, so every seed
//! is checked in full. `cost_ms` is the time one case took when it was
//! pinned; it only steers the seeded selection towards case lists of
//! similar cost and is never compared against.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Pinned result of one exploration: `(program, algorithm)` → counts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExploreAnswer {
    pub histories: u64,
    pub end_states: u64,
    pub explore_calls: u64,
    pub cost_ms: f64,
}

/// Pinned result of one simulated run checked against its claimed spec.
#[derive(Clone, Debug, PartialEq)]
pub struct SimAnswer {
    /// `consistent` or `violation`.
    pub verdict: String,
    /// Fingerprint of the recorded history, as 32 hex digits.
    pub fingerprint: String,
    pub cost_ms: f64,
}

/// Key of a simulated run.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SimKey {
    pub app: String,
    /// `<sessions>x<transactions per session>`.
    pub shape: String,
    pub deployment: String,
    pub faults: String,
    pub seed: u64,
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct Expected {
    /// Keyed by `(program name "<app>-<seed>", algorithm label)`.
    pub explore: BTreeMap<(String, String), ExploreAnswer>,
    pub simulate: BTreeMap<SimKey, SimAnswer>,
}

pub const EXPLORE_FILE: &str = "explore.tsv";
pub const SIMULATE_FILE: &str = "simulate.tsv";
const EXPLORE_HEADER: &str = "program\talgorithm\thistories\tend_states\texplore_calls\tcost_ms";
const SIMULATE_HEADER: &str = "app\tshape\tdeployment\tfaults\tseed\tverdict\tfingerprint\tcost_ms";

fn fields<'a>(line: &'a str, n: usize, file: &str) -> Result<Vec<&'a str>, String> {
    let f: Vec<&str> = line.split('\t').collect();
    if f.len() == n {
        Ok(f)
    } else {
        Err(format!("{file}: expected {n} columns in {line:?}"))
    }
}

fn num<T: std::str::FromStr>(s: &str, file: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{file}: bad number {s:?}"))
}

impl Expected {
    /// Reads both files from `dir`.
    pub fn load(dir: &Path) -> Result<Expected, String> {
        let read = |name: &str| {
            std::fs::read_to_string(dir.join(name))
                .map_err(|e| format!("cannot read {}: {e}", dir.join(name).display()))
        };
        Expected::parse(&read(EXPLORE_FILE)?, &read(SIMULATE_FILE)?)
    }

    pub fn parse(explore: &str, simulate: &str) -> Result<Expected, String> {
        let mut out = Expected::default();
        for line in explore.lines().skip(1).filter(|l| !l.is_empty()) {
            let f = fields(line, 6, EXPLORE_FILE)?;
            out.explore.insert(
                (f[0].to_string(), f[1].to_string()),
                ExploreAnswer {
                    histories: num(f[2], EXPLORE_FILE)?,
                    end_states: num(f[3], EXPLORE_FILE)?,
                    explore_calls: num(f[4], EXPLORE_FILE)?,
                    cost_ms: num(f[5], EXPLORE_FILE)?,
                },
            );
        }
        for line in simulate.lines().skip(1).filter(|l| !l.is_empty()) {
            let f = fields(line, 8, SIMULATE_FILE)?;
            out.simulate.insert(
                SimKey {
                    app: f[0].to_string(),
                    shape: f[1].to_string(),
                    deployment: f[2].to_string(),
                    faults: f[3].to_string(),
                    seed: num(f[4], SIMULATE_FILE)?,
                },
                SimAnswer {
                    verdict: f[5].to_string(),
                    fingerprint: f[6].to_string(),
                    cost_ms: num(f[7], SIMULATE_FILE)?,
                },
            );
        }
        if out.explore.is_empty() || out.simulate.is_empty() {
            return Err("expected answers are empty".into());
        }
        Ok(out)
    }

    /// The two files' contents, in key order.
    pub fn render(&self) -> (String, String) {
        let mut explore = format!("{EXPLORE_HEADER}\n");
        for ((program, algo), a) in &self.explore {
            let _ = writeln!(
                explore,
                "{program}\t{algo}\t{}\t{}\t{}\t{:.2}",
                a.histories, a.end_states, a.explore_calls, a.cost_ms
            );
        }
        let mut simulate = format!("{SIMULATE_HEADER}\n");
        for (k, a) in &self.simulate {
            let _ = writeln!(
                simulate,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.2}",
                k.app, k.shape, k.deployment, k.faults, k.seed, a.verdict, a.fingerprint, a.cost_ms
            );
        }
        (explore, simulate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let mut e = Expected::default();
        e.explore.insert(
            ("tpcc-1".into(), "RA + CC".into()),
            ExploreAnswer {
                histories: 2164,
                end_states: 6035,
                explore_calls: 40788,
                cost_ms: 172.5,
            },
        );
        e.simulate.insert(
            SimKey {
                app: "tpcc".into(),
                shape: "4x16".into(),
                deployment: "ser".into(),
                faults: "lossy".into(),
                seed: 3,
            },
            SimAnswer {
                verdict: "consistent".into(),
                fingerprint: "00ff".into(),
                cost_ms: 2.25,
            },
        );
        let (a, b) = e.render();
        assert_eq!(Expected::parse(&a, &b).unwrap(), e);
        assert!(Expected::parse(&a, "header\n").is_err());
        assert!(Expected::parse("h\ntpcc-1\tCC\t1\n", &b).is_err());
    }
}
