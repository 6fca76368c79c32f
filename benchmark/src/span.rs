//! Spans recorded by the benchmark's own files around each call into a
//! layer. Kept in memory, written as JSONL when the workload ends.
//!
//! A span names the layer it entered, carries the span that caused it
//! (its parent), the pass it belongs to and a count of requests it
//! covered. A layer's *self time* is its span's duration minus the part
//! of that interval its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::escape;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, e.g. `replay[LRU]`.
    pub name: &'static str,
    /// The layer (crate) the call entered; `bench` for the harness itself.
    pub layer: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Pass of the workload this span belongs to.
    pub pass: u32,
    /// Requests this span covered (the count at the same boundary).
    pub count: u64,
}

/// Handle returned by [`Tracer::begin`]; `None` inside when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// In-memory span recorder for one thread of one workload.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pass: u32,
}

impl Tracer {
    /// A tracer that records nothing and reads no clock when `!enabled`,
    /// so the untraced run pays one predictable branch per boundary.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Label subsequent spans with `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; its parent is the innermost span still open.
    #[inline]
    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
            count: 0,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close a span, recording how many requests it covered.
    #[inline]
    pub fn end(&mut self, id: SpanId, count: u64) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.count = count;
        // Spans close innermost-first; anything still open above `id`
        // was abandoned by an early return and is closed with it.
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"workload\":\"{}\",\"pass\":{},\"count\":{}}}",
                escape(s.name),
                escape(s.layer),
                s.start_ns,
                s.end_ns,
                escape(workload),
                s.pass,
                s.count
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children. Children are clipped to the parent and
/// overlapping children (two threads' worth of work under one parent)
/// are counted once, so self time is never negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Sum of self times per layer, sorted by layer name, over the spans
/// whose outermost ancestor is called `root` — spans recorded outside
/// any such root (set-up, a restart after the pass) belong to no request
/// and are left out.
pub fn self_time_by_layer(spans: &[Span], root: &str) -> Vec<(&'static str, u64)> {
    let mut under_root = vec![false; spans.len()];
    let mut by_layer: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for (i, (s, t)) in spans.iter().zip(self_times(spans)).enumerate() {
        // A parent is always recorded before its children.
        under_root[i] = match s.parent {
            None => s.name == root,
            Some(p) => under_root[p as usize],
        };
        if under_root[i] {
            *by_layer.entry(s.layer).or_insert(0) += t;
        }
    }
    by_layer.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "s",
            layer: "l",
            start_ns,
            end_ns,
            parent,
            pass: 0,
            count: 0,
        }
    }

    #[test]
    fn nested_children_subtract_from_their_parent_only() {
        // root 0..100 ⊃ a 10..60 ⊃ b 20..30; root ⊃ c 70..90.
        let spans = vec![
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
            span(70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        // Children 10..50 and 30..70 overlap on 30..50; a third 90..130
        // runs past the parent's end; a fourth lies wholly outside.
        let spans = vec![
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
            span(90, 130, Some(0)),
            span(200, 300, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 60 - 10);
        assert_eq!(&st[1..], &[40, 40, 40, 100]);
        // A child identical to its parent leaves zero, never underflow.
        let spans = vec![span(5, 9, None), span(5, 9, Some(0)), span(5, 9, Some(0))];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn tracer_links_parents_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_pass(3);
        let a = t.begin("outer", "bench");
        let b = t.begin("inner", "cdnd");
        t.end(b, 64);
        t.end(a, 0);
        let c = t.begin("next", "bench");
        t.end(c, 1);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((s[1].count, s[1].pass), (64, 3));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        // Only what lies under a root called "outer" is attributed; the
        // layers' self times then add up to exactly that root.
        let by_layer = self_time_by_layer(s, "outer");
        assert_eq!(
            by_layer.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            ["bench", "cdnd"]
        );
        assert_eq!(
            by_layer.iter().map(|(_, t)| t).sum::<u64>(),
            s[0].end_ns - s[0].start_ns
        );
        assert!(self_time_by_layer(s, "absent").is_empty());

        let mut off = Tracer::new(false);
        let id = off.begin("x", "y");
        off.end(id, 9);
        assert!(off.spans().is_empty());
    }
}
