//! The recorder's write vocabulary: one [`Event`] per fact an
//! instrumentation site reports.
//!
//! A site hands its facts to [`crate::FlightRecorder::record`] in one call
//! (one lock); the recorder folds each event into the spans, profiler,
//! metrics, queue stations and meter it implies. The machine's own
//! [`EventKind`] stream enters the same fold as [`Event::Machine`].

use std::borrow::Cow;
use std::ops::Range;

use cronus_sim::{EventKind, SimNs};

use crate::meter::{CountResource, MeterScope, WorkerId};
use crate::profile::TimeCategory;
use crate::queue::QueueKind;

/// Metric labels as `(key, value)` pairs.
pub type Labels<'a> = &'a [(&'a str, &'a str)];

/// One fact reported by an instrumentation site.
#[derive(Clone, Debug)]
pub enum Event<'a> {
    /// A charged interval of work; see [`Work`].
    Work(Work<'a>),
    /// A request served at a queue station; see [`Served`].
    Served(Served<'a>),
    /// `(station, kind, capacity)`: declares a queue station (idempotent;
    /// capacity 0 = unbounded).
    Declare(&'a str, QueueKind, u64),
    /// `(station, at)`: an item entered the station.
    Enqueued(&'a str, SimNs),
    /// `(station, at)`: a queue error (a full-ring stall).
    Stalled(&'a str, SimNs),
    /// `(station, at, tally)`: teardown discarded everything queued; a
    /// non-zero discard count is added to the counter `tally`, if named.
    Flushed(&'a str, SimNs, Option<&'a str>),
    /// `(name, labels, delta)`: adds to a counter.
    Count(&'a str, Labels<'a>, u64),
    /// `(name, labels, value)`: sets a gauge.
    Gauge(&'a str, Labels<'a>, i64),
    /// `(name, labels, d)`: one latency-histogram observation.
    Sample(&'a str, Labels<'a>, SimNs),
    /// `(name, at)`: an instant marker on the span stream.
    Instant(&'a str, SimNs),
    /// `(at, kind)`: one simulator event, as [`crate::RecorderSink`] sees it.
    Machine(SimNs, &'a EventKind),
}

/// A charged interval of work: simulated time charged to the profiler and,
/// in the same step, to the meter; optionally a count resource metered with
/// it, an explicit meter scope, and the span that covers it.
#[derive(Clone, Debug, Default)]
pub struct Work<'a> {
    /// `(category, detail frame, duration)` charged to profiler and meter.
    pub(crate) charge: Option<(TimeCategory, Option<&'a str>, SimNs)>,
    /// A count resource metered alongside the charge.
    pub(crate) count: Option<(CountResource, u64)>,
    /// Meter scope for this work only; `None` uses the ambient scope.
    pub(crate) scope: Option<MeterScope>,
    /// The span covering the work.
    pub(crate) span: Option<WorkSpan<'a>>,
}

/// The span a [`Work`] event draws.
#[derive(Clone, Debug)]
pub(crate) struct WorkSpan<'a> {
    /// Track (Perfetto thread row) name.
    pub(crate) track: &'a str,
    /// Span name.
    pub(crate) name: Cow<'a, str>,
    /// Span category.
    pub(crate) cat: &'static str,
    /// `[start, end)`.
    pub(crate) at: Range<SimNs>,
    /// A closed child span `(name, cat, [start, end))` nested inside.
    pub(crate) inner: Option<(&'a str, &'static str, Range<SimNs>)>,
    /// Not attributed to the ambient request: device-timebase spans would
    /// otherwise stretch the request window with clock-skew gaps.
    pub(crate) detached: bool,
}

impl<'a> Work<'a> {
    /// `d` of simulated time charged to `cat`.
    pub fn charge(cat: TimeCategory, d: SimNs) -> Self {
        Work {
            charge: Some((cat, None, d)),
            ..Work::default()
        }
    }

    /// `d` charged to `cat` under a named detail frame (a deeper folded
    /// stack).
    pub fn charge_detail(cat: TimeCategory, detail: &'a str, d: SimNs) -> Self {
        Work {
            charge: Some((cat, Some(detail), d)),
            ..Work::default()
        }
    }

    /// A span with no time charged.
    pub fn spanned(
        track: &'a str,
        name: impl Into<Cow<'a, str>>,
        cat: &'static str,
        at: Range<SimNs>,
    ) -> Self {
        Work::default().span(track, name, cat, at)
    }

    /// Meters `amount` of `res` with the work.
    pub fn meter(mut self, res: CountResource, amount: u64) -> Self {
        self.count = Some((res, amount));
        self
    }

    /// Meters this work to `scope` instead of the ambient scope.
    pub fn scoped(mut self, scope: MeterScope) -> Self {
        self.scope = Some(scope);
        self
    }

    /// Draws the span `name` over `at` on `track`.
    pub fn span(
        mut self,
        track: &'a str,
        name: impl Into<Cow<'a, str>>,
        cat: &'static str,
        at: Range<SimNs>,
    ) -> Self {
        let (name, inner, detached) = (name.into(), None, false);
        self.span = Some(WorkSpan {
            track,
            name,
            cat,
            at,
            inner,
            detached,
        });
        self
    }

    /// Nests a closed child span inside the span.
    pub fn nest(mut self, name: &'a str, cat: &'static str, at: Range<SimNs>) -> Self {
        if let Some(s) = self.span.as_mut() {
            s.inner = Some((name, cat, at));
        }
        self
    }

    /// Detaches the span from the ambient request.
    pub fn detached(mut self) -> Self {
        if let Some(s) = self.span.as_mut() {
            s.detached = true;
        }
        self
    }
}

/// A request served at a queue station: it waited from `enqueued` until
/// `started` and was served until `finished`. The station's wait/service
/// split, the dequeue edge and the ambient request's wait exemplar all come
/// from these three instants.
#[derive(Clone, Copy, Debug)]
pub struct Served<'a> {
    /// Station name.
    pub(crate) station: &'a str,
    /// When the request entered the queue.
    pub(crate) enqueued: SimNs,
    /// When service began.
    pub(crate) started: SimNs,
    /// When service finished (the dequeue edge).
    pub(crate) finished: SimNs,
    /// The sRPC stream the request rode and the executor that served it:
    /// adds the enqueue-to-dispatch and request-latency histograms, the
    /// `await-executor` backlog span on the `stream:<id>` track, and the
    /// meter's ring-slot, wait and occupancy rows.
    pub(crate) srpc: Option<(u64, WorkerId)>,
}

impl<'a> Served<'a> {
    /// A request served at `station`.
    pub fn at(station: &'a str, enqueued: SimNs, started: SimNs, finished: SimNs) -> Self {
        let srpc = None;
        Served {
            station,
            enqueued,
            started,
            finished,
            srpc,
        }
    }

    /// An sRPC request on `stream` served by `worker`.
    pub fn on_stream(mut self, stream: u64, worker: WorkerId) -> Self {
        self.srpc = Some((stream, worker));
        self
    }
}

impl<'a> From<Work<'a>> for Event<'a> {
    fn from(w: Work<'a>) -> Self {
        Event::Work(w)
    }
}

impl<'a> From<Served<'a>> for Event<'a> {
    fn from(s: Served<'a>) -> Self {
        Event::Served(s)
    }
}
