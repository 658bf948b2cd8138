//! Hierarchical spans over simulated time, exportable as Chrome trace events.
//!
//! A [`SpanTracer`] owns a set of *tracks* (rendered as threads in
//! Perfetto/`chrome://tracing`) and a flat list of spans. Spans on one track
//! nest: `begin` pushes onto the track's stack, `end` pops (auto-closing any
//! children still open above the span being ended), so app → mEnclave →
//! sRPC call → device kernel hierarchies come out for free.

use std::collections::HashMap;

use cronus_sim::SimNs;

use crate::json::Json;

/// Identifies a span within one tracer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

/// Identifies one request end-to-end across the whole system.
///
/// Allocated by [`crate::FlightRecorder::alloc_req`] at sRPC enqueue time and
/// carried through dispatch, DMA, kernel execution and completion, so every
/// span a request causes — on any track — can be stitched back together.
/// Ids start at 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqId(pub u64);

impl std::fmt::Display for ReqId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req:{}", self.0)
    }
}

/// Identifies a track (a Perfetto "thread row") within one tracer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TrackId(pub usize);

/// One span: a named interval on a track, with an optional parent.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within the tracer.
    pub id: SpanId,
    /// Enclosing span on the same track, if any.
    pub parent: Option<SpanId>,
    /// Track the span lives on.
    pub track: TrackId,
    /// Display name (e.g. the mcall name).
    pub name: String,
    /// Category (e.g. `"srpc"`, `"kernel"`, `"recovery"`).
    pub cat: &'static str,
    /// Start instant.
    pub start: SimNs,
    /// End instant; `None` while the span is still open.
    pub end: Option<SimNs>,
    /// Request this span is causally attributed to, if any.
    pub req: Option<ReqId>,
}

/// An instant marker (Chrome trace phase `"I"`), e.g. an experiment phase.
#[derive(Clone, Debug)]
pub struct Instant {
    /// When the marker fired.
    pub at: SimNs,
    /// Marker label.
    pub name: String,
}

/// The span store. See the module docs for the nesting model.
#[derive(Default, Debug)]
pub struct SpanTracer {
    track_names: Vec<String>,
    track_index: HashMap<String, TrackId>,
    spans: Vec<Span>,
    instants: Vec<Instant>,
    /// Per-track stack of open span indices into `spans`.
    open: HashMap<TrackId, Vec<usize>>,
    next_id: u64,
    /// Ambient request: stamped into every span opened while set, so deep
    /// instrumentation sites (device HALs, recovery) need no plumbing.
    current_req: Option<ReqId>,
}

impl SpanTracer {
    /// Creates an empty tracer.
    pub fn new() -> Self {
        SpanTracer::default()
    }

    /// Returns the track named `name`, creating it on first use.
    pub fn track(&mut self, name: &str) -> TrackId {
        if let Some(&id) = self.track_index.get(name) {
            return id;
        }
        let id = TrackId(self.track_names.len());
        self.track_names.push(name.to_string());
        self.track_index.insert(name.to_string(), id);
        id
    }

    /// Sets (or clears) the ambient request stamped into new spans.
    pub fn set_current_req(&mut self, req: Option<ReqId>) {
        self.current_req = req;
    }

    /// The ambient request, if one is set.
    pub fn current_req(&self) -> Option<ReqId> {
        self.current_req
    }

    /// Opens a span at `at` on `track`, nested under the track's current top.
    pub fn begin(
        &mut self,
        track: TrackId,
        name: impl Into<String>,
        cat: &'static str,
        at: SimNs,
    ) -> SpanId {
        let stack = self.open.entry(track).or_default();
        let parent = stack.last().map(|&i| self.spans[i].id);
        let id = SpanId(self.next_id);
        self.next_id += 1;
        stack.push(self.spans.len());
        self.spans.push(Span {
            id,
            parent,
            track,
            name: name.into(),
            cat,
            start: at,
            end: None,
            req: self.current_req,
        });
        id
    }

    /// Closes span `id` at `at`. Any children still open above it on the
    /// same track are closed at the same instant (a parent cannot outlive
    /// its enclosing scope in the simulated call structure).
    pub fn end(&mut self, track: TrackId, id: SpanId, at: SimNs) {
        let stack = self.open.entry(track).or_default();
        while let Some(&idx) = stack.last() {
            let span = &mut self.spans[idx];
            let done = span.id == id;
            span.end = Some(at.max(span.start));
            stack.pop();
            if done {
                return;
            }
        }
    }

    /// Records an already-measured interval as a closed span (nested under
    /// whatever is currently open on the track, but not pushed on the stack).
    pub fn complete(
        &mut self,
        track: TrackId,
        name: impl Into<String>,
        cat: &'static str,
        start: SimNs,
        end: SimNs,
    ) -> SpanId {
        let parent = self
            .open
            .get(&track)
            .and_then(|s| s.last())
            .map(|&i| self.spans[i].id);
        let id = SpanId(self.next_id);
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            track,
            name: name.into(),
            cat,
            start,
            end: Some(end.max(start)),
            req: self.current_req,
        });
        id
    }

    /// Records an instant marker.
    pub fn instant(&mut self, name: impl Into<String>, at: SimNs) {
        self.instants.push(Instant {
            at,
            name: name.into(),
        });
    }

    /// Closes every still-open span at `at`.
    pub fn finish_all(&mut self, at: SimNs) {
        for stack in self.open.values_mut() {
            while let Some(idx) = stack.pop() {
                let span = &mut self.spans[idx];
                span.end = Some(at.max(span.start));
            }
        }
    }

    /// All spans, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All instant markers, in creation order.
    pub fn instants(&self) -> &[Instant] {
        &self.instants
    }

    /// Number of spans currently open on `track`.
    pub fn open_depth(&self, track: TrackId) -> usize {
        self.open.get(&track).map_or(0, Vec::len)
    }

    /// Name of a track.
    pub fn track_name(&self, track: TrackId) -> &str {
        &self.track_names[track.0]
    }

    /// Checks the structural invariants the trace format relies on:
    /// every closed span has `end >= start`, every child lies within its
    /// parent's interval, and a child's parent precedes it in creation
    /// order on the same track.
    pub fn validate(&self) -> Result<(), String> {
        let by_id: HashMap<SpanId, &Span> = self.spans.iter().map(|s| (s.id, s)).collect();
        for span in &self.spans {
            if let Some(end) = span.end {
                if end < span.start {
                    return Err(format!("span {:?} ends before it starts", span.name));
                }
            }
            if let Some(pid) = span.parent {
                let parent = by_id
                    .get(&pid)
                    .ok_or_else(|| format!("span {:?} has unknown parent", span.name))?;
                if parent.track != span.track {
                    return Err(format!("span {:?} crosses tracks", span.name));
                }
                if span.start < parent.start {
                    return Err(format!(
                        "child {:?} starts before parent {:?}",
                        span.name, parent.name
                    ));
                }
                if let (Some(ce), Some(pe)) = (span.end, parent.end) {
                    if ce > pe {
                        return Err(format!(
                            "child {:?} outlives parent {:?}",
                            span.name, parent.name
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Exports the closed spans and instants as a Chrome trace-event JSON
    /// document (loadable in Perfetto / `chrome://tracing`). Timestamps are
    /// microseconds as floats, preserving nanosecond precision in the
    /// fraction. Still-open spans are skipped; call [`SpanTracer::finish_all`]
    /// first if they should appear.
    pub fn chrome_trace_json(&self) -> String {
        let mut events = Vec::new();
        for (i, name) in self.track_names.iter().enumerate() {
            events.push(Json::obj([
                ("name", Json::from("thread_name")),
                ("ph", Json::from("M")),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(i as u64 + 1)),
                ("args", Json::obj([("name", Json::from(name.as_str()))])),
            ]));
        }
        for span in &self.spans {
            let Some(end) = span.end else { continue };
            events.push(Json::obj([
                ("name", Json::from(span.name.as_str())),
                ("cat", Json::from(span.cat)),
                ("ph", Json::from("X")),
                ("ts", Json::F64(span.start.as_nanos() as f64 / 1e3)),
                ("dur", Json::F64((end - span.start).as_nanos() as f64 / 1e3)),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(span.track.0 as u64 + 1)),
                (
                    "args",
                    Json::obj([
                        ("span_id", Json::U64(span.id.0)),
                        ("parent", span.parent.map_or(Json::Null, |p| Json::U64(p.0))),
                        ("req", span.req.map_or(Json::Null, |r| Json::U64(r.0))),
                    ]),
                ),
            ]));
        }
        events.extend(self.flow_events());
        for m in &self.instants {
            events.push(Json::obj([
                ("name", Json::from(m.name.as_str())),
                ("cat", Json::from("marker")),
                ("ph", Json::from("I")),
                ("s", Json::from("g")),
                ("ts", Json::F64(m.at.as_nanos() as f64 / 1e3)),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(0)),
            ]));
        }
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::from("ns")),
        ])
        .render()
    }

    /// Derives Chrome flow events (`ph` `"s"`/`"t"`/`"f"`) from request ids:
    /// for every request that produced two or more closed spans, one flow
    /// chain — start at the earliest span, steps through the middle ones,
    /// finish at the latest — so Perfetto draws arrows connecting
    /// enqueue → dispatch → kernel → completion across tracks. Requests with
    /// a single span get no flow events (nothing to connect), which keeps the
    /// start/finish pairing exact.
    fn flow_events(&self) -> Vec<Json> {
        let mut by_req: HashMap<ReqId, Vec<&Span>> = HashMap::new();
        for span in &self.spans {
            if span.end.is_none() {
                continue;
            }
            if let Some(req) = span.req {
                by_req.entry(req).or_default().push(span);
            }
        }
        let mut reqs: Vec<_> = by_req.into_iter().collect();
        reqs.sort_by_key(|(req, _)| *req);
        let mut events = Vec::new();
        for (req, mut spans) in reqs {
            if spans.len() < 2 {
                continue;
            }
            spans.sort_by_key(|s| (s.start, s.id.0));
            let last = spans.len() - 1;
            for (i, span) in spans.iter().enumerate() {
                let ph = if i == 0 {
                    "s"
                } else if i == last {
                    "f"
                } else {
                    "t"
                };
                let ts = if i == last {
                    span.end.unwrap_or(span.start)
                } else {
                    span.start
                };
                let mut ev = vec![
                    ("name".to_string(), Json::from("req")),
                    ("cat".to_string(), Json::from("req")),
                    ("ph".to_string(), Json::from(ph)),
                    ("id".to_string(), Json::U64(req.0)),
                    ("ts".to_string(), Json::F64(ts.as_nanos() as f64 / 1e3)),
                    ("pid".to_string(), Json::U64(1)),
                    ("tid".to_string(), Json::U64(span.track.0 as u64 + 1)),
                ];
                if i == last {
                    // Bind the finish to the enclosing slice rather than the
                    // next slice on the track.
                    ev.push(("bp".to_string(), Json::from("e")));
                }
                events.push(Json::Obj(ev));
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::is_well_formed;

    fn ns(v: u64) -> SimNs {
        SimNs::from_nanos(v)
    }

    #[test]
    fn nesting_links_parents() {
        let mut t = SpanTracer::new();
        let track = t.track("executor");
        let outer = t.begin(track, "call", "srpc", ns(10));
        let inner = t.begin(track, "kernel", "kernel", ns(20));
        assert_eq!(t.open_depth(track), 2);
        t.end(track, inner, ns(30));
        t.end(track, outer, ns(40));
        assert_eq!(t.open_depth(track), 0);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[0].parent, None);
        t.validate().unwrap();
    }

    #[test]
    fn ending_parent_auto_closes_children() {
        let mut t = SpanTracer::new();
        let track = t.track("executor");
        let outer = t.begin(track, "call", "srpc", ns(10));
        let _inner = t.begin(track, "kernel", "kernel", ns(20));
        t.end(track, outer, ns(50));
        assert_eq!(t.open_depth(track), 0);
        assert!(t.spans().iter().all(|s| s.end == Some(ns(50))));
        t.validate().unwrap();
    }

    #[test]
    fn tracks_are_deduplicated_and_independent() {
        let mut t = SpanTracer::new();
        let a = t.track("gpu:1");
        let b = t.track("npu:2");
        assert_eq!(t.track("gpu:1"), a);
        assert_ne!(a, b);
        let sa = t.begin(a, "k1", "kernel", ns(0));
        let _sb = t.begin(b, "k2", "kernel", ns(5));
        t.end(a, sa, ns(10));
        assert_eq!(t.open_depth(a), 0);
        assert_eq!(t.open_depth(b), 1);
        t.finish_all(ns(20));
        assert_eq!(t.open_depth(b), 0);
        t.validate().unwrap();
    }

    #[test]
    fn complete_spans_nest_under_open_parent() {
        let mut t = SpanTracer::new();
        let track = t.track("recovery:p2");
        let outer = t.begin(track, "failover", "recovery", ns(0));
        let child = t.complete(track, "invalidate", "recovery", ns(1), ns(4));
        t.end(track, outer, ns(10));
        let spans = t.spans();
        let c = spans.iter().find(|s| s.id == child).unwrap();
        assert_eq!(c.parent, Some(outer));
        t.validate().unwrap();
    }

    #[test]
    fn chrome_trace_is_well_formed_json() {
        let mut t = SpanTracer::new();
        let track = t.track("spm");
        let s = t.begin(track, "boot \"quoted\"", "boot", ns(0));
        t.end(track, s, ns(1_000_000));
        t.instant("phase:crash", ns(500));
        let json = t.chrome_trace_json();
        assert!(is_well_formed(&json), "trace must parse: {json}");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"I\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("traceEvents"));
    }

    #[test]
    fn current_req_stamps_spans_and_emits_flow_chain() {
        let mut t = SpanTracer::new();
        let caller = t.track("enclave:e1");
        let stream = t.track("stream:1");
        t.set_current_req(Some(ReqId(7)));
        t.complete(caller, "enqueue:echo", "ring", ns(0), ns(10));
        let call = t.begin(stream, "echo", "srpc", ns(10));
        t.end(stream, call, ns(50));
        t.set_current_req(None);
        t.complete(caller, "unrelated", "mgmt", ns(60), ns(70));
        assert!(t.spans()[0].req == Some(ReqId(7)) && t.spans()[1].req == Some(ReqId(7)));
        assert_eq!(t.spans()[2].req, None);
        let json = t.chrome_trace_json();
        assert!(is_well_formed(&json));
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 1, "{json}");
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 1, "{json}");
        assert!(json.contains("\"bp\":\"e\""));
    }

    #[test]
    fn single_span_requests_emit_no_flow_events() {
        let mut t = SpanTracer::new();
        let track = t.track("x");
        t.set_current_req(Some(ReqId(3)));
        t.complete(track, "lonely", "ring", ns(0), ns(5));
        t.set_current_req(None);
        let json = t.chrome_trace_json();
        assert!(!json.contains("\"ph\":\"s\""));
        assert!(!json.contains("\"ph\":\"f\""));
    }

    #[test]
    fn zero_length_spans_are_legal() {
        let mut t = SpanTracer::new();
        let track = t.track("x");
        t.complete(track, "instant-ish", "misc", ns(5), ns(5));
        t.validate().unwrap();
        assert!(is_well_formed(&t.chrome_trace_json()));
    }
}
