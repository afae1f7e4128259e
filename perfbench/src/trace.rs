//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start and end (nanoseconds since the tracer's
//! origin), the span that was open when it started, and the case it
//! belongs to. Spans are only kept when tracing is on; they are written
//! out once, when the run ends. A span's *self time* is its duration minus
//! the part of its interval covered by its direct children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    /// Case the span belongs to (`u32::MAX` outside any case).
    pub case: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread; a no-op when disabled.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, case: u32) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            case,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, case: u32, f: impl FnOnce() -> T) -> T {
        self.enter(name, case);
        let out = f();
        self.exit();
        out
    }

    /// Number of spans recorded so far (a mark for [`Tracer::since`]).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Spans recorded since `mark`, with their parents re-based so the
    /// slice is self-contained.
    pub fn since(&self, mark: usize) -> Vec<Span> {
        self.spans[mark..]
            .iter()
            .map(|s| Span {
                parent: s.parent.and_then(|p| p.checked_sub(mark)),
                ..s.clone()
            })
            .collect()
    }

    /// All spans as tab-separated lines with a header.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("index\tname\tstart_ns\tend_ns\tparent\tcase\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let case = if s.case == u32::MAX {
                "-".to_string()
            } else {
                s.case.to_string()
            };
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{case}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total and self nanoseconds per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_insert((0, 0));
        e.0 += s.duration_ns();
        e.1 += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            case: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // case [0,100) ⊃ explore [10,60) ⊃ check [20,30); store [70,90).
        let spans = vec![
            span("case", 0, 100, None),
            span("explore", 10, 60, Some(0)),
            span("check", 20, 30, Some(1)),
            span("store", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["case"], (100, 30));
        assert_eq!(totals["explore"], (50, 40));
    }

    #[test]
    fn overlapping_or_overhanging_children_count_once() {
        let spans = vec![
            span("case", 10, 50, None),
            span("a", 0, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            span("c", 45, 80, Some(0)),
        ];
        // Covered: [10,40) from a∪b, [45,50) from c.
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn tracer_nests_and_rebases() {
        let mut t = Tracer::new(true);
        t.enter("pass", u32::MAX);
        let mark = t.len();
        t.enter("case", 0);
        let v = t.span("explore", 0, || 7);
        t.exit();
        t.exit();
        assert_eq!(v, 7);
        let all = t.since(0);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(1));
        let tail = t.since(mark);
        assert_eq!(tail[0].parent, None);
        assert_eq!(tail[1].parent, Some(0));
        for (s, own) in all.iter().zip(self_times(&all)) {
            assert!(own <= s.duration_ns());
        }
        assert_eq!(t.to_tsv().lines().count(), 4);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("explore", 0, || 1), 1);
        assert_eq!(t.len(), 0);
    }
}
