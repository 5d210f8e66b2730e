//! In-memory spans around the calls into each layer. A span is `{id,
//! parent, round, name, start_ns, end_ns}`; spans of one DiCE round share
//! the `round` identifier. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::alloc;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index into the recorder's span list.
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// Request identifier: the traced round's ordinal, 0 outside rounds.
    pub round: u32,
    /// `layer.module.call`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Heap allocations made inside the span (0 unless the recorder
    /// counts and the counting allocator is installed).
    pub allocs: u64,
}

impl Span {
    /// `end - start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread; nesting follows call nesting.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u32,
    count_allocs: bool,
}

impl Recorder {
    /// A recorder that times.
    pub fn timing() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
            count_allocs: false,
        }
    }

    /// A recorder that also counts heap allocations per span. Counting
    /// perturbs timing, so its durations are not used for time metrics.
    pub fn counting() -> Self {
        Recorder {
            count_allocs: true,
            ..Recorder::timing()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tag spans opened from now on with request id `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let allocs = if self.count_allocs { alloc::count() } else { 0 };
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            round: self.round,
            name,
            start_ns,
            end_ns: start_ns,
            allocs,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.allocs = if self.count_allocs {
            alloc::count() - span.allocs
        } else {
            0
        };
    }

    /// Record a span around one call.
    pub fn leaf<R>(&mut self, name: &'static str, call: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let result = call();
        self.exit(id);
        result
    }

    /// Close every span still open (an error unwound past its `exit`), so
    /// the list stays well-formed.
    pub fn close_all(&mut self) {
        while let Some(&id) = self.open.last() {
            self.exit(id);
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Hand the spans over.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Spans of that name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
    /// Summed allocation counts.
    pub allocs: u64,
}

/// Aggregate spans by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
        t.allocs += s.allocs;
    }
    out
}

/// Write spans as a JSON array, one object per line.
pub fn write_json(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if i + 1 < spans.len() { "," } else { "" };
        // Span names are `&'static str` literals of this crate: no escaping.
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"round\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{}",
            s.id, parent, s.round, s.name, s.start_ns, s.end_ns, comma
        )?;
    }
    writeln!(out, "]")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            round: 1,
            name: if parent.is_some() { "child" } else { "root" },
            start_ns,
            end_ns,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_subtracts_adjacent_children() {
        // root [0,100): children [10,30) and [30,60) touch but do not
        // overlap; 50 of the 100 ns are covered.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 30, 60),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn self_time_with_nested_children_counts_each_level_once() {
        // root [0,100) → a [10,90) → b [20,40): the grandchild is a's
        // business, not root's.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 90),
            span(2, Some(1), 20, 40),
        ];
        assert_eq!(self_times(&spans), vec![20, 60, 20]);
        let t = totals(&spans);
        assert_eq!(t["root"].self_ns, 20);
        assert_eq!(t["child"].count, 2);
        assert_eq!(t["child"].total_ns, 100);
        assert_eq!(t["child"].self_ns, 80);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_covered_once() {
        // Children [10,50) and [40,70) overlap by 10; a third overhangs the
        // parent's end. Cover = [10,70) ∪ [90,100) = 70.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 40, 70),
            span(3, Some(0), 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_by_call_order_and_tags_rounds() {
        let mut rec = Recorder::timing();
        let sweep = rec.enter("sweep");
        rec.set_round(7);
        let round = rec.enter("round");
        let got = rec.leaf("leaf", || 42);
        rec.exit(round);
        rec.set_round(0);
        rec.exit(sweep);
        assert_eq!(got, 42);
        let spans = rec.spans();
        assert_eq!(
            spans
                .iter()
                .map(|s| (s.name, s.parent, s.round))
                .collect::<Vec<_>>(),
            vec![
                ("sweep", None, 0),
                ("round", Some(0), 7),
                ("leaf", Some(1), 7)
            ]
        );
        assert!(spans[0].end_ns >= spans[1].end_ns && spans[1].end_ns >= spans[2].end_ns);
        let selfs = self_times(spans);
        assert_eq!(
            selfs[0] + selfs[1] + selfs[2],
            spans[0].duration_ns(),
            "self times partition the root"
        );
    }

    #[test]
    fn close_all_leaves_no_span_open() {
        let mut rec = Recorder::timing();
        rec.enter("a");
        rec.enter("b");
        rec.close_all();
        assert!(rec.open.is_empty());
        assert!(rec.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn json_is_parseable_and_complete() {
        let spans = [span(0, None, 0, 100), span(1, Some(0), 10, 30)];
        let mut buf = Vec::new();
        write_json(&spans, &mut buf).expect("writes to memory");
        let parsed =
            serde_json::parse_value(std::str::from_utf8(&buf).expect("utf-8")).expect("valid JSON");
        assert_eq!(parsed[0]["parent"], serde_json::Value::Null);
        assert_eq!(parsed[1]["parent"], serde_json::Value::U64(0));
        assert_eq!(parsed[1]["name"], "child");
        assert_eq!(parsed[1]["end_ns"], serde_json::Value::U64(30));
    }
}
