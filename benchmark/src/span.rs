//! In-memory spans around the harness's calls into each layer.
//!
//! A span is `(name, start_ns, end_ns, parent, op_id)`. Spans of one
//! operation share an `op_id` (the packet's `flow_seq`, the sim job
//! index, or the flap index). They are kept in memory while the
//! workload runs and written as JSON when it ends; with tracing off
//! every call is a no-op, which is what the end-to-end numbers are
//! measured with.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{SystemTime, UNIX_EPOCH};

/// Index of a recorded span, used as the `parent` of its children.
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op_id: u64,
}

/// Nanoseconds since the Unix epoch: the same clock `dg_overlay::now_us`
/// reads, so the overlay's `sent_at`/`delivered_at` stamps fit on the
/// harness's timeline.
pub fn clock_ns() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).expect("system clock after unix epoch").as_nanos()
        as u64
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off; returns the previous setting.
    pub fn set_enabled(&mut self, enabled: bool) -> bool {
        std::mem::replace(&mut self.enabled, enabled)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Records a finished span; `None` when tracing is off.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        op_id: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span { name, start_ns, end_ns: end_ns.max(start_ns), parent, op_id });
        Some(id)
    }

    /// Runs `f` inside a span. With tracing off this is just `f()`.
    pub fn time<R>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = clock_ns();
        let out = f();
        self.record(name, start, clock_ns(), None, op_id);
        out
    }

    /// Writes every span, and the per-name self times, as one JSON
    /// document. `stamp` is spliced in verbatim as the `"stamp"` value.
    pub fn write_json(&self, path: &std::path::Path, stamp: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let origin = self.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"stamp\":{stamp},\"origin_unix_ns\":{origin},\"self_time\":[")?;
        for (i, t) in self_times(&self.spans).iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                out,
                "{sep}{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.name, t.count, t.total_ns, t.self_ns
            )?;
        }
        out.write_all(b"],\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            write!(
                out,
                "{sep}{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
                s.name,
                s.start_ns - origin,
                s.end_ns - origin,
                s.op_id
            )?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}

/// Time attributed to one span name across a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerTime {
    pub name: &'static str,
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus what each span's children cover.
    pub self_ns: u64,
}

/// A span's self time: its duration minus the part of its interval
/// that its child spans cover. Children are clipped to the parent and
/// overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<LayerTime> {
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
    let mut by_name: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
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
        let duration = s.end_ns - s.start_ns;
        let t = by_name.entry(s.name).or_insert(LayerTime {
            name: s.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        t.count += 1;
        t.total_ns += duration;
        t.self_ns += duration - covered;
    }
    by_name.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op_id: 0 }
    }

    fn find<'a>(times: &'a [LayerTime], name: &str) -> &'a LayerTime {
        times.iter().find(|t| t.name == name).expect("name present")
    }

    #[test]
    fn self_time_subtracts_children() {
        // op: |---------- 100 ----------|
        //       |- a 20 -|    |- b 30 -|
        let spans =
            vec![span("op", 0, 100, None), span("a", 10, 30, Some(0)), span("b", 60, 90, Some(0))];
        let times = self_times(&spans);
        assert_eq!(find(&times, "op").total_ns, 100);
        assert_eq!(find(&times, "op").self_ns, 50);
        assert_eq!(find(&times, "a").self_ns, 20);
        assert_eq!(find(&times, "b").self_ns, 30);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span("op", 100, 200, None),
            span("kid", 120, 160, Some(0)),
            span("kid", 150, 180, Some(0)), // overlaps the first by 10
            span("kid", 190, 260, Some(0)), // runs past the parent's end
            span("kid", 0, 50, Some(0)),    // entirely outside
        ];
        let times = self_times(&spans);
        // Covered: [120,180) = 60 and [190,200) = 10.
        assert_eq!(find(&times, "op").self_ns, 30);
        assert_eq!(find(&times, "kid").count, 4);
    }

    #[test]
    fn nested_chain_attributes_each_level() {
        let spans = vec![
            span("due", 0, 1000, None),
            span("send_call", 100, 300, Some(0)),
            span("transit", 300, 900, Some(0)),
            span("pop", 900, 1000, Some(0)),
        ];
        let times = self_times(&spans);
        assert_eq!(find(&times, "due").self_ns, 100);
        let total: u64 = times.iter().map(|t| t.self_ns).sum();
        assert_eq!(total, 1000, "self times partition the root span");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.record("x", 0, 1, None, 0), None);
        assert_eq!(t.time("y", 0, || 7), 7);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true);
        let root = t.record("x", 5, 9, None, 3);
        assert_eq!(root, Some(0));
        t.time("y", 4, || ());
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].op_id, 3);
    }
}
