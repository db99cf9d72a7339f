//! Per-operator self time from a span tree.
//!
//! The service driver's `ServiceObs` and the harness's own [`SpanSink`] both
//! record one span per executor operator (begin preorder, end postorder), so
//! one analysis serves both: an operator's self time is its span minus the
//! spans of its direct children.

use cv_engine::obs::ObsSink;
use cv_obs::trace::Span;
use cv_obs::Tracer;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Executor operators, as `PhysicalPlan::kind_name` spells them, with the
/// metric-name stem each reports under.
pub const OPERATORS: [(&str, &str); 12] = [
    ("TableScan", "table_scan"),
    ("ViewScan", "view_scan"),
    ("Filter", "filter"),
    ("Project", "project"),
    ("HashJoin", "hash_join"),
    ("LoopJoin", "loop_join"),
    ("MergeJoin", "merge_join"),
    ("HashAggregate", "hash_aggregate"),
    ("Sort", "sort"),
    ("Limit", "limit"),
    ("Spool", "spool"),
    ("Udo", "udo"),
];

/// Forwards executor operator events to a tracer as spans on one track —
/// the harness-side twin of the service driver's own executor sink.
pub struct SpanSink {
    tracer: Arc<Tracer>,
    track: u64,
}

impl std::fmt::Debug for SpanSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanSink").field("track", &self.track).finish()
    }
}

impl SpanSink {
    pub fn new(tracer: Arc<Tracer>, track: u64) -> SpanSink {
        SpanSink { tracer, track }
    }
}

impl ObsSink for SpanSink {
    fn op_started(&self, kind: &'static str) {
        self.tracer.begin(self.track, kind);
    }

    fn op_finished(&self, _kind: &'static str, rows: u64, bytes: u64, _ns: u64) {
        self.tracer.end_with(self.track, &[("rows", rows), ("bytes", bytes)]);
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpTotals {
    pub self_seconds: f64,
    pub rows: u64,
}

/// Sum self time and output rows per operator kind over `spans` (sorted by
/// `(track, seq)`, as `Tracer::spans` returns them). Spans that are not
/// operators (`job`, `compile`, `execute`, …) only contribute as parents.
pub fn operator_totals(spans: &[Span]) -> BTreeMap<&'static str, OpTotals> {
    let mut totals: BTreeMap<&'static str, OpTotals> = BTreeMap::new();
    // Open ancestors of the span being visited: (depth, kind stem, µs of
    // direct children seen so far, own duration, rows).
    let mut stack: Vec<(u32, Option<&'static str>, u64, u64, u64)> = Vec::new();
    let mut track = None;
    let mut close = |entry: (u32, Option<&'static str>, u64, u64, u64)| {
        if let (_, Some(stem), children, dur, rows) = entry {
            let t = totals.entry(stem).or_default();
            t.self_seconds += dur.saturating_sub(children) as f64 / 1e6;
            t.rows += rows;
        }
    };
    for span in spans {
        if track != Some(span.track) {
            stack.drain(..).for_each(&mut close);
            track = Some(span.track);
        }
        while stack.last().is_some_and(|top| top.0 >= span.depth) {
            close(stack.pop().expect("checked non-empty"));
        }
        if let Some(parent) = stack.last_mut() {
            parent.2 += span.dur_us;
        }
        let stem = OPERATORS.iter().find(|(kind, _)| *kind == span.name).map(|(_, stem)| *stem);
        let rows = span.args.iter().find(|(k, _)| k == "rows").map_or(0, |(_, v)| *v);
        stack.push((span.depth, stem, 0, span.dur_us, rows));
    }
    stack.drain(..).for_each(&mut close);
    totals
}

/// Total duration of the spans called `name` on `track`, in seconds.
pub fn span_seconds(spans: &[Span], track: u64, name: &str) -> f64 {
    spans.iter().filter(|s| s.track == track && s.name == name).map(|s| s.dur_us).sum::<u64>()
        as f64
        / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let tracer = Arc::new(Tracer::new());
        let sink = SpanSink::new(tracer.clone(), 3);
        tracer.begin(3, "execute");
        sink.op_started("HashAggregate");
        sink.op_started("Filter");
        sink.op_started("TableScan");
        std::thread::sleep(std::time::Duration::from_millis(3));
        sink.op_finished("TableScan", 100, 800, 0);
        sink.op_finished("Filter", 40, 320, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        sink.op_finished("HashAggregate", 5, 40, 0);
        tracer.end(3);

        let spans = tracer.spans();
        let totals = operator_totals(&spans);
        assert_eq!(totals["table_scan"].rows, 100);
        assert_eq!(totals["filter"].rows, 40);
        assert_eq!(totals["hash_aggregate"].rows, 5);
        assert!(totals["table_scan"].self_seconds >= 0.003);
        assert!(totals["filter"].self_seconds < 0.002, "scan time must not count twice");
        assert!(totals["hash_aggregate"].self_seconds >= 0.002);
        let whole = span_seconds(&spans, 3, "execute");
        let parts: f64 = totals.values().map(|t| t.self_seconds).sum();
        assert!((whole - parts).abs() < 0.001, "self times reconcile to the parent span");
    }
}
