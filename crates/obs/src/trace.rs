//! Deterministic-by-construction span tracing.
//!
//! The paper's feedback loop runs on telemetry; this tracer is the local
//! equivalent — hierarchical spans over the job lifecycle (job → compile →
//! normalize → optimize → execute → commit), wall-clock timed but with span
//! *structure* (tracks, nesting, names, counter args) that is a pure
//! function of the workload: the same seed produces the same span tree for
//! 1, 2 or 8 workers. Only `ts`/`dur` vary run to run.
//!
//! Spans live on logical **tracks** rather than OS threads. A track is a
//! `u64` chosen by the caller — the driver uses track 0 for its control
//! loop and `job_id + 1` for each job — so a job's spans nest consistently
//! even when compile, execute and commit phases run on different threads.
//! Within a track, spans must be strictly nested (`begin`/`end` pairs); the
//! per-track sequence number assigned at `begin` gives a deterministic
//! total order for export.
//!
//! Export is Chrome trace-event JSON (`chrome://tracing` / Perfetto):
//! complete events (`ph: "X"`) with `tid` = track and the deterministic
//! counters under `args`.

use cv_common::json::{Json, JsonMap};
use cv_common::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// One recorded span (closed or still open).
#[derive(Clone, Debug)]
pub struct Span {
    /// Logical track (Chrome `tid`). Deterministic, caller-chosen.
    pub track: u64,
    /// Per-track sequence number, assigned at `begin`. Deterministic.
    pub seq: u64,
    /// Nesting depth within the track at `begin`. Deterministic.
    pub depth: u32,
    pub name: String,
    /// Deterministic counters attached at `end_with`.
    pub args: Vec<(String, u64)>,
    /// Wall-clock microseconds since tracer creation. NOT deterministic.
    pub start_us: u64,
    /// Wall-clock duration in microseconds. NOT deterministic.
    pub dur_us: u64,
    closed: bool,
}

#[derive(Default)]
struct TracerState {
    spans: Vec<Span>,
    /// Per-track stack of open span indices.
    stacks: HashMap<u64, Vec<usize>>,
    /// Per-track next sequence number.
    seqs: HashMap<u64, u64>,
    /// `end` calls with no matching `begin` (a bug in the instrumentation
    /// site; surfaced in reports instead of panicking mid-flight).
    unbalanced_ends: u64,
}

/// Thread-safe span recorder. Share by reference (`&Tracer` is `Sync`).
pub struct Tracer {
    state: Mutex<TracerState>,
    epoch: Instant,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { state: Mutex::new(TracerState::default()), epoch: Instant::now() }
    }

    fn lock(&self) -> MutexGuard<'_, TracerState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Open a span on `track`, nested under the track's current open span.
    pub fn begin(&self, track: u64, name: &str) {
        let start_us = self.now_us();
        let mut st = self.lock();
        let seq = st.seqs.entry(track).or_insert(0);
        let my_seq = *seq;
        *seq += 1;
        let depth = st.stacks.get(&track).map_or(0, |s| s.len() as u32);
        let idx = st.spans.len();
        st.spans.push(Span {
            track,
            seq: my_seq,
            depth,
            name: name.to_string(),
            args: Vec::new(),
            start_us,
            dur_us: 0,
            closed: false,
        });
        st.stacks.entry(track).or_default().push(idx);
    }

    /// Close the innermost open span on `track`.
    pub fn end(&self, track: u64) {
        self.end_with(track, &[]);
    }

    /// Close the innermost open span on `track`, attaching deterministic
    /// counter args (shown under `args` in the Chrome trace and included in
    /// the structure digest).
    pub fn end_with(&self, track: u64, args: &[(&str, u64)]) {
        let end_us = self.now_us();
        let mut st = self.lock();
        let Some(idx) = st.stacks.get_mut(&track).and_then(Vec::pop) else {
            st.unbalanced_ends += 1;
            return;
        };
        let span = &mut st.spans[idx];
        span.dur_us = end_us.saturating_sub(span.start_us);
        span.closed = true;
        span.args = args.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    }

    /// Number of spans recorded so far (open + closed).
    pub fn span_count(&self) -> usize {
        self.lock().spans.len()
    }

    /// `end` calls that had no matching `begin`.
    pub fn unbalanced_ends(&self) -> u64 {
        self.lock().unbalanced_ends
    }

    /// Spans begun and not yet ended, over all tracks. Zero once a run has
    /// returned — with `Ok` or with `Err`.
    pub fn open_spans(&self) -> usize {
        self.lock().stacks.values().map(Vec::len).sum()
    }

    /// Snapshot of all spans, sorted by `(track, seq)` — the deterministic
    /// export order.
    pub fn spans(&self) -> Vec<Span> {
        let st = self.lock();
        let mut spans = st.spans.clone();
        spans.sort_by_key(|s| (s.track, s.seq));
        spans
    }

    /// The deterministic view of the trace: tracks, nesting, names and
    /// counter args — everything except wall-clock timing. Two runs of the
    /// same seed must produce byte-identical structure JSON regardless of
    /// worker count.
    pub fn structure_json(&self) -> Json {
        let spans = self.spans();
        let mut arr = Vec::with_capacity(spans.len());
        for s in spans {
            let mut m = JsonMap::new();
            m.insert("track", Json::from(s.track));
            m.insert("seq", Json::from(s.seq));
            m.insert("depth", Json::from(s.depth as u64));
            m.insert("name", Json::from(s.name.as_str()));
            let mut args = JsonMap::new();
            for (k, v) in &s.args {
                args.insert(k, Json::from(*v));
            }
            m.insert("args", Json::Obj(args));
            arr.push(Json::Obj(m));
        }
        Json::Arr(arr)
    }

    /// Chrome trace-event export: an object with a `traceEvents` array of
    /// complete (`ph: "X"`) events. `pid` tags the event source so other
    /// timelines (e.g. the simulated cluster) can merge into one file.
    pub fn chrome_events(&self, pid: u64) -> Vec<Json> {
        let spans = self.spans();
        let mut events = Vec::with_capacity(spans.len());
        for s in spans {
            let mut args = JsonMap::new();
            args.insert("seq", Json::from(s.seq));
            args.insert("depth", Json::from(s.depth as u64));
            for (k, v) in &s.args {
                args.insert(k, Json::from(*v));
            }
            let mut ev = JsonMap::new();
            ev.insert("name", Json::from(s.name.as_str()));
            ev.insert("ph", Json::from("X"));
            ev.insert("ts", Json::from(s.start_us));
            ev.insert("dur", Json::from(s.dur_us));
            ev.insert("pid", Json::from(pid));
            ev.insert("tid", Json::from(s.track));
            ev.insert("args", Json::Obj(args));
            events.push(Json::Obj(ev));
        }
        events
    }

    /// Full single-tracer Chrome trace file.
    pub fn to_chrome_json(&self) -> Json {
        chrome_trace(self.chrome_events(1))
    }
}

/// An open span that closes itself: the handle instrumented code holds
/// instead of pairing `begin`/`end` calls by hand. Opened over `None` — an
/// unobserved run — it is inert: no clock read, no allocation, no lock.
///
/// [`SpanGuard::close`] ends the span with its counters. Dropping the guard
/// unclosed — an early return, a `?` — ends it with `failed: 1`, so no exit
/// leaves a span open. Guards on one track must drop innermost first, which
/// is the order locals drop in.
#[must_use = "dropping the guard ends the span as failed"]
pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
    track: u64,
}

impl<'a> SpanGuard<'a> {
    /// Begin `name` on `track` of `tracer`, if there is one.
    pub fn open(tracer: Option<&'a Tracer>, track: u64, name: &str) -> SpanGuard<'a> {
        if let Some(t) = tracer {
            t.begin(track, name);
        }
        SpanGuard { tracer, track }
    }

    /// End the span, attaching its deterministic counter args.
    pub fn close(mut self, args: &[(&str, u64)]) {
        if let Some(t) = self.tracer.take() {
            t.end_with(self.track, args);
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer.take() {
            t.end_with(self.track, &[("failed", 1)]);
        }
    }
}

/// Wrap pre-built Chrome events into the trace-file envelope.
pub fn chrome_trace(events: Vec<Json>) -> Json {
    let mut root = JsonMap::new();
    root.insert("traceEvents", Json::Arr(events));
    root.insert("displayTimeUnit", Json::from("ms"));
    Json::Obj(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_sequence_are_deterministic() {
        let t = Tracer::new();
        t.begin(0, "day");
        t.begin(0, "compile");
        t.end_with(0, &[("jobs", 3)]);
        t.begin(0, "execute");
        t.end(0);
        t.end(0);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "day");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].name, "compile");
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[1].args, vec![("jobs".to_string(), 3)]);
        assert_eq!(spans[2].seq, 2);
        assert_eq!(t.unbalanced_ends(), 0);
    }

    #[test]
    fn structure_ignores_timing() {
        let run = || {
            let t = Tracer::new();
            t.begin(7, "job");
            std::thread::sleep(std::time::Duration::from_millis(1));
            t.end_with(7, &[("rows", 42)]);
            t.structure_json().to_string_compact()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tracks_are_independent_across_threads() {
        let t = Tracer::new();
        std::thread::scope(|s| {
            for track in 1..=4u64 {
                let t = &t;
                s.spawn(move || {
                    t.begin(track, "job");
                    t.begin(track, "execute");
                    t.end(track);
                    t.end_with(track, &[("track", track)]);
                });
            }
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 8);
        // Sorted by (track, seq): job then execute per track.
        for (i, chunk) in spans.chunks(2).enumerate() {
            assert_eq!(chunk[0].track, i as u64 + 1);
            assert_eq!(chunk[0].name, "job");
            assert_eq!(chunk[1].name, "execute");
            assert_eq!(chunk[1].depth, 1);
        }
    }

    #[test]
    fn a_guard_closes_its_span_on_every_exit() {
        let t = Tracer::new();
        let run = |fail: bool| -> Result<(), ()> {
            let job = SpanGuard::open(Some(&t), 1, "job");
            let compile = SpanGuard::open(Some(&t), 1, "compile");
            if fail {
                return Err(());
            }
            compile.close(&[("built", 2)]);
            job.close(&[]);
            Ok(())
        };
        run(false).unwrap();
        run(true).unwrap_err();
        assert_eq!((t.open_spans(), t.unbalanced_ends()), (0, 0));
        let args: Vec<_> = t.spans().into_iter().map(|s| (s.name, s.depth, s.args)).collect();
        let failed = vec![("failed".to_string(), 1)];
        assert_eq!(
            args,
            vec![
                ("job".to_string(), 0, vec![]),
                ("compile".to_string(), 1, vec![("built".to_string(), 2)]),
                ("job".to_string(), 0, failed.clone()),
                ("compile".to_string(), 1, failed),
            ]
        );
        // Without a tracer the guard does nothing at all.
        SpanGuard::open(None, 1, "job").close(&[("rows", 1)]);
        drop(SpanGuard::open(None, 1, "job"));
        assert_eq!(t.span_count(), 4);
    }

    #[test]
    fn unbalanced_end_is_counted_not_fatal() {
        let t = Tracer::new();
        t.end(3);
        assert_eq!(t.unbalanced_ends(), 1);
        assert_eq!(t.span_count(), 0);
    }

    #[test]
    fn chrome_export_shape() {
        let t = Tracer::new();
        t.begin(1, "job");
        t.end_with(1, &[("rows", 9)]);
        let json = t.to_chrome_json();
        let text = json.to_string_pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(json, back, "chrome trace must round-trip through cv_common::json");
        match &json {
            Json::Obj(m) => match m.get("traceEvents") {
                Some(Json::Arr(events)) => {
                    assert_eq!(events.len(), 1);
                    let Json::Obj(ev) = &events[0] else { panic!("event not an object") };
                    assert_eq!(ev.get("ph"), Some(&Json::from("X")));
                    assert_eq!(ev.get("tid"), Some(&Json::from(1u64)));
                }
                other => panic!("traceEvents missing: {other:?}"),
            },
            other => panic!("not an object: {other:?}"),
        }
    }
}
