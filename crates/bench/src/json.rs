//! Minimal JSON serialisation for the machine-readable benchmark outputs.
//!
//! The build environment is offline (no `serde`), so this module hand-rolls
//! the tiny subset of JSON the experiment binaries need: objects, arrays,
//! strings (with escaping), integers, floats and booleans.

use std::fmt;

use crate::experiments::ExperimentOptions;
use crate::harness::Measurement;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer number.
    Int(i64),
    /// A floating-point number. Non-finite values serialise as `null`
    /// (JSON has no NaN/Infinity).
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Self {
        JsonValue::Str(s.into())
    }

    /// Convenience constructor for an unsigned counter (benchmark counters
    /// comfortably fit in `i64`).
    pub fn uint(v: u64) -> Self {
        JsonValue::Int(v as i64)
    }

    /// The value of an object field, if this is an object with that key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The integer payload (floats with integral value included).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(i) => Some(*i),
            JsonValue::Float(x) if x.fract() == 0.0 => Some(*x as i64),
            _ => None,
        }
    }

    /// The numeric payload (integers included).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The string payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parses a JSON document (the subset this module emits: objects,
    /// arrays, strings with escapes, numbers, booleans and null). Used by
    /// the bench-regression gate to read the committed baseline.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error.
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// Recursive-descent parser over the emitted JSON subset.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        if float {
            text.parse()
                .map(JsonValue::Float)
                .map_err(|_| format!("invalid number {text:?} at byte {start}"))
        } else {
            text.parse()
                .map(JsonValue::Int)
                .map_err(|_| format!("invalid number {text:?} at byte {start}"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out)
                        .map_err(|_| "invalid UTF-8 in string".to_owned());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'n') => out.push(b'\n'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| {
                                    format!("invalid \\u escape at byte {}", self.pos)
                                })?;
                            let c = char::from_u32(hex)
                                .ok_or_else(|| format!("invalid code point {hex:#x}"))?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                            self.pos += 4;
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }
}

/// Escapes a string for inclusion in a JSON document (quotes, backslashes
/// and control characters).
fn escape(s: &str, out: &mut fmt::Formatter<'_>) -> fmt::Result {
    out.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => write!(out, "{c}")?,
        }
    }
    out.write_str("\"")
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Int(i) => write!(f, "{i}"),
            JsonValue::Float(x) if x.is_finite() => write!(f, "{x:?}"),
            JsonValue::Float(_) => f.write_str("null"),
            JsonValue::Str(s) => escape(s, f),
            JsonValue::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            JsonValue::Object(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape(key, f)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// The causes of an engine's full rebuilds, one count per cause (they sum
/// to the row's `full_rebuilds`).
fn rebuild_causes_json(c: &txdpor_history::RebuildCauses) -> JsonValue {
    JsonValue::Object(vec![
        ("first_sync".into(), JsonValue::uint(c.first_sync)),
        ("window".into(), JsonValue::uint(c.window)),
        ("begin".into(), JsonValue::uint(c.begin)),
        ("undo_begin".into(), JsonValue::uint(c.undo_begin)),
        ("append".into(), JsonValue::uint(c.append)),
        ("pop".into(), JsonValue::uint(c.pop)),
        ("set_wr".into(), JsonValue::uint(c.set_wr)),
        ("unset_wr".into(), JsonValue::uint(c.unset_wr)),
    ])
}

/// One benchmark row (program × algorithm) as a JSON object.
pub fn measurement_json(m: &Measurement) -> JsonValue {
    JsonValue::Object(vec![
        ("benchmark".into(), JsonValue::str(&m.benchmark)),
        ("algorithm".into(), JsonValue::str(&m.algorithm)),
        ("levels".into(), JsonValue::str(&m.levels)),
        ("histories".into(), JsonValue::uint(m.histories)),
        ("end_states".into(), JsonValue::uint(m.end_states)),
        ("explore_calls".into(), JsonValue::uint(m.explore_calls)),
        ("time_secs".into(), JsonValue::Float(m.time.as_secs_f64())),
        (
            "peak_alloc_bytes".into(),
            JsonValue::uint(m.peak_alloc as u64),
        ),
        ("history_clones".into(), JsonValue::uint(m.history_clones)),
        (
            "history_bytes_copied".into(),
            JsonValue::uint(m.history_bytes_copied),
        ),
        ("engine_checks".into(), JsonValue::uint(m.engine.checks)),
        ("memo_hits".into(), JsonValue::uint(m.engine.memo_hits)),
        ("memo_misses".into(), JsonValue::uint(m.engine.memo_misses)),
        (
            "memo_evictions".into(),
            JsonValue::uint(m.engine.memo_evictions),
        ),
        (
            "memo_occupied".into(),
            JsonValue::uint(m.engine.memo_occupied),
        ),
        ("memo_slots".into(), JsonValue::uint(m.engine.memo_slots)),
        (
            "incremental_hits".into(),
            JsonValue::uint(m.engine.incremental_hits),
        ),
        (
            "full_rebuilds".into(),
            JsonValue::uint(m.engine.full_rebuilds),
        ),
        (
            "rebuild_causes".into(),
            rebuild_causes_json(&m.engine.rebuild_causes),
        ),
        // Named `check_cpu_nanos` (not `check_nanos`) because it is the
        // per-thread CPU time summed across workers: on parallel rows it
        // exceeds the wall-clock `time_secs`.
        (
            "check_cpu_nanos".into(),
            JsonValue::uint(m.engine.check_nanos),
        ),
        (
            "search_nodes".into(),
            JsonValue::uint(m.engine.search_nodes),
        ),
        ("workers".into(), JsonValue::uint(m.workers as u64)),
        ("steals".into(), JsonValue::uint(m.steals)),
        (
            "statically_pruned".into(),
            JsonValue::uint(m.statically_pruned),
        ),
        (
            "first_rejection".into(),
            m.first_rejection
                .as_deref()
                .map_or(JsonValue::Null, JsonValue::str),
        ),
        ("timed_out".into(), JsonValue::Bool(m.timed_out)),
    ])
}

/// The full document emitted by an experiment binary's `--json <path>`:
/// experiment name, configuration, per-run rows and a free-form summary
/// (typically speedups).
pub fn experiment_json(
    experiment: &str,
    options: &ExperimentOptions,
    rows: &[Measurement],
    summary: Vec<(String, JsonValue)>,
) -> JsonValue {
    JsonValue::Object(vec![
        ("experiment".into(), JsonValue::str(experiment)),
        (
            "config".into(),
            JsonValue::Object(vec![
                ("variants".into(), JsonValue::uint(options.variants as u64)),
                ("sessions".into(), JsonValue::uint(options.sessions as u64)),
                (
                    "transactions".into(),
                    JsonValue::uint(options.transactions as u64),
                ),
                (
                    "timeout_secs".into(),
                    JsonValue::Float(options.timeout.as_secs_f64()),
                ),
            ]),
        ),
        (
            "rows".into(),
            JsonValue::Array(rows.iter().map(measurement_json).collect()),
        ),
        ("summary".into(), JsonValue::Object(summary)),
    ])
}

/// Writes an experiment document to `path`.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing the file.
pub fn write_experiment_json(
    path: &str,
    experiment: &str,
    options: &ExperimentOptions,
    rows: &[Measurement],
    summary: Vec<(String, JsonValue)>,
) -> std::io::Result<()> {
    let doc = experiment_json(experiment, options, rows, summary);
    std::fs::write(path, format!("{doc}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_measurement() -> Measurement {
        Measurement {
            benchmark: "tiny \"quoted\"\n".to_owned(),
            algorithm: "CC".to_owned(),
            levels: "CC[s0.t1=SER]".to_owned(),
            histories: 2,
            end_states: 3,
            explore_calls: 10,
            time: Duration::from_millis(1500),
            peak_alloc: 4096,
            history_clones: 12,
            history_bytes_copied: 2048,
            engine: txdpor_history::EngineStats {
                checks: 100,
                memo_hits: 40,
                memo_misses: 60,
                memo_evictions: 3,
                memo_occupied: 57,
                memo_slots: 1024,
                incremental_hits: 50,
                full_rebuilds: 10,
                rebuild_causes: txdpor_history::RebuildCauses {
                    first_sync: 1,
                    window: 1,
                    pop: 6,
                    undo_begin: 2,
                    ..Default::default()
                },
                check_nanos: 123_456,
                shared_memo_hits: 7,
                search_nodes: 8_765,
            },
            workers: 4,
            steals: 5,
            statically_pruned: 42,
            first_rejection: Some("t1 -so-> t2 -co-> t1".to_owned()),
            timed_out: false,
        }
    }

    #[test]
    fn scalars_render() {
        assert_eq!(JsonValue::Null.to_string(), "null");
        assert_eq!(JsonValue::Bool(true).to_string(), "true");
        assert_eq!(JsonValue::Int(-3).to_string(), "-3");
        assert_eq!(JsonValue::Float(1.5).to_string(), "1.5");
        assert_eq!(JsonValue::Float(f64::NAN).to_string(), "null");
        assert_eq!(
            JsonValue::str("a\"b\\c\nd").to_string(),
            "\"a\\\"b\\\\c\\nd\""
        );
        assert_eq!(JsonValue::str("\u{1}").to_string(), "\"\\u0001\"");
    }

    #[test]
    fn document_shape() {
        let rows = vec![sample_measurement()];
        let doc = experiment_json(
            "fig14",
            &ExperimentOptions::default(),
            &rows,
            vec![("speedup".into(), JsonValue::Float(2.0))],
        )
        .to_string();
        assert!(doc.starts_with('{') && doc.ends_with('}'));
        for key in [
            "\"experiment\"",
            "\"config\"",
            "\"rows\"",
            "\"summary\"",
            "\"time_secs\":1.5",
            "\"histories\":2",
            "\"levels\":\"CC[s0.t1=SER]\"",
            "\"history_clones\":12",
            "\"history_bytes_copied\":2048",
            "\"check_cpu_nanos\":123456",
            "\"search_nodes\":8765",
            "\"workers\":4",
            "\"steals\":5",
            "\"statically_pruned\":42",
            "\"first_rejection\":\"t1 -so-> t2 -co-> t1\"",
            "\"speedup\":2.0",
        ] {
            assert!(doc.contains(key), "missing {key} in {doc}");
        }
        // The engine-time field is CPU time summed across workers, not
        // wall time; the old wall-time-suggesting name must stay retired.
        assert!(
            !doc.contains("\"check_nanos\""),
            "the ambiguous check_nanos key must not reappear"
        );
        // Exploration hands whole histories to the engines, and workers
        // share no verdicts: no row carries decomposition counters or
        // shared-memo hits.
        assert!(!doc.contains("component"), "{doc}");
        assert!(!doc.contains("shared_memo_hits"), "{doc}");
        // Escaped content round-trips through the writer unmangled.
        assert!(doc.contains("tiny \\\"quoted\\\"\\n"));
        // Balanced braces/brackets (a cheap well-formedness check; CI runs
        // a real parser over the emitted file).
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn parse_roundtrips_emitted_documents() {
        let rows = vec![sample_measurement()];
        let doc = experiment_json(
            "fig14",
            &ExperimentOptions::default(),
            &rows,
            vec![
                ("speedup".into(), JsonValue::Float(2.5)),
                ("none".into(), JsonValue::Null),
            ],
        );
        let text = doc.to_string();
        let parsed = JsonValue::parse(&text).unwrap();
        assert_eq!(parsed.to_string(), text, "parse ∘ render is the identity");
        assert_eq!(
            parsed.get("experiment").and_then(JsonValue::as_str),
            Some("fig14")
        );
        let row = &parsed.get("rows").and_then(JsonValue::as_array).unwrap()[0];
        assert_eq!(row.get("histories").and_then(JsonValue::as_i64), Some(2));
        assert_eq!(
            row.get("timed_out").and_then(JsonValue::as_bool),
            Some(false)
        );
        assert_eq!(
            row.get("benchmark").and_then(JsonValue::as_str),
            Some("tiny \"quoted\"\n")
        );
        let causes = row.get("rebuild_causes").unwrap();
        assert_eq!(causes.get("pop").and_then(JsonValue::as_i64), Some(6));
        assert_eq!(causes.get("set_wr").and_then(JsonValue::as_i64), Some(0));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(JsonValue::parse("{\"a\":").is_err());
        assert!(JsonValue::parse("[1,2").is_err());
        assert!(JsonValue::parse("{} trailing").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(JsonValue::parse("tru").is_err());
        assert_eq!(
            JsonValue::parse(" [1, -2.5, null] ").unwrap(),
            JsonValue::Array(vec![
                JsonValue::Int(1),
                JsonValue::Float(-2.5),
                JsonValue::Null
            ])
        );
    }

    #[test]
    fn write_and_reread() {
        let dir = std::env::temp_dir();
        let path = dir.join("txdpor_bench_json_test.json");
        let path = path.to_str().unwrap();
        write_experiment_json(
            path,
            "fig14",
            &ExperimentOptions::default(),
            &[sample_measurement()],
            vec![],
        )
        .unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.contains("\"experiment\":\"fig14\""));
        std::fs::remove_file(path).ok();
    }
}
