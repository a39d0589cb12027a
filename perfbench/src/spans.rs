//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer's public function: name, start, end and the span that
//! was open when it began. Nothing is written until the run ends. A
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use soft::harness::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open, `end_ns == None`) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: Option<u64>,
    pub parent: Option<usize>,
}

/// Records nested spans on one thread, in monotonic nanoseconds since
/// the recorder was created.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span; returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: None,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = Some(self.now_ns());
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Self time of every closed span, in nanoseconds, summed by name.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (i, ns) in self_times(&self.spans).into_iter().enumerate() {
            *out.entry(self.spans[i].name).or_insert(0) += ns;
        }
        out
    }

    /// The spans as Chrome trace-event JSON ("X" complete events), which
    /// Perfetto and chrome://tracing open directly.
    pub fn to_trace_json(&self, meta: Vec<(String, Json)>) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let end = s.end_ns?;
                let mut args = vec![("id".to_string(), Json::UInt(i as u64))];
                if let Some(p) = s.parent {
                    args.push(("parent".to_string(), Json::UInt(p as u64)));
                }
                Some(Json::Object(vec![
                    ("name".to_string(), Json::Str(s.name.to_string())),
                    ("ph".to_string(), Json::Str("X".to_string())),
                    ("ts".to_string(), Json::Float(s.start_ns as f64 / 1e3)),
                    (
                        "dur".to_string(),
                        Json::Float((end - s.start_ns) as f64 / 1e3),
                    ),
                    ("pid".to_string(), Json::UInt(1)),
                    ("tid".to_string(), Json::UInt(1)),
                    ("args".to_string(), Json::Object(args)),
                ]))
            })
            .collect();
        Json::Object(vec![
            ("traceEvents".to_string(), Json::Array(events)),
            ("otherData".to_string(), Json::Object(meta)),
        ])
    }
}

/// Self time of each span: its duration minus the union of its direct
/// children's intervals (clipped to the parent). Open spans count 0.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let (Some(p), Some(end)) = (s.parent, s.end_ns) {
            children[p].push((s.start_ns, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let Some(end) = s.end_ns else { return 0 };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (end - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: Some(end),
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        let spans = vec![
            span("test", 0, 100, None),
            span("sym", 10, 40, Some(0)),
            span("inner", 15, 35, Some(1)),
            span("group", 50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 10, 20, 20]);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        // Two children that overlap each other and one that spills past
        // the parent's end: covered is the union, clipped to the parent.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn recorder_nests_and_sums_by_name() {
        let mut rec = Recorder::new();
        rec.span("outer", |r| {
            r.span("leaf", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            r.span("leaf", |_| ());
        });
        let spans = &rec.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let by_name = rec.self_ns_by_name();
        let outer_total = spans[0].end_ns.unwrap() - spans[0].start_ns;
        assert_eq!(by_name["outer"] + by_name["leaf"], outer_total);
        assert!(by_name["leaf"] >= 2_000_000);
    }
}
