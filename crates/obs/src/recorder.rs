//! The flight recorder: one shared handle over spans, metrics, the time
//! profiler, the queue observatory and the resource meter.
//!
//! Instrumentation sites write through one entry point,
//! [`FlightRecorder::record`]: each site hands over its [`Event`]s in one
//! call, and one fold derives every store's view from them. The machine's
//! event stream enters the same fold through [`RecorderSink`], which keeps
//! the metrics counters in exact agreement with the simulator's
//! [`EventLog`] (both are driven by the same `Machine::record` call).
//!
//! [`EventLog`]: cronus_sim::EventLog

use std::sync::{Arc, Mutex, MutexGuard};

use cronus_sim::{EventKind, EventSink, SimNs};

use crate::causal::CausalReport;
use crate::event::{Event, Served, Work, WorkSpan};
use crate::json::Json;
use crate::meter::{ConservationRow, CountResource, MeterError, MeterScope, ResourceMeter};
use crate::metrics::{labels, LabelSet, MetricsRegistry};
use crate::profile::TimeProfiler;
use crate::queue::{QueueObservatory, QueueReport};
use crate::span::{ReqId, SpanTracer};

/// Everything one run records.
#[derive(Default, Debug)]
pub struct RecorderInner {
    /// Hierarchical spans.
    pub spans: SpanTracer,
    /// Counters, gauges, histograms.
    pub metrics: MetricsRegistry,
    /// Time attribution.
    pub profiler: TimeProfiler,
    /// Per-queue depth/wait/service telemetry.
    pub queues: QueueObservatory,
    /// Per-principal resource ledgers (fed in lockstep with the profiler).
    pub meter: ResourceMeter,
    /// Last allocated request id (0 = none yet; ids start at 1).
    next_req: u64,
}

impl RecorderInner {
    /// Folds one event into every store it implies.
    fn fold(&mut self, event: Event<'_>) {
        match event {
            Event::Work(w) => self.work(w),
            Event::Served(s) => self.served(s),
            Event::Declare(station, kind, capacity) => self.queues.declare(station, kind, capacity),
            Event::Enqueued(station, at) => self.queues.enqueue(station, at),
            Event::Stalled(station, at) => self.queues.error(station, at),
            Event::Flushed(station, at, tally) => {
                let n = self.queues.flush(station, at);
                if let (Some(name), true) = (tally, n > 0) {
                    self.metrics.counter_add(name, LabelSet::empty(), n);
                }
            }
            Event::Count(name, l, delta) => self.metrics.counter_add(name, labels(l), delta),
            Event::Gauge(name, l, value) => self.metrics.gauge_set(name, labels(l), value),
            Event::Sample(name, l, d) => self.metrics.observe(name, labels(l), d),
            Event::Instant(name, at) => self.spans.instant(name, at),
            Event::Machine(at, kind) => self.machine(at, kind),
        }
    }

    /// Charge (profiler and meter in one step, so the meter's conservation
    /// check is an exact equality), count resource, then the span.
    fn work(&mut self, w: Work<'_>) {
        let prev = w.scope.map(|s| self.meter.set_scope(s));
        if let Some((cat, detail, d)) = w.charge {
            match detail {
                Some(detail) => self.profiler.charge_detail(cat, detail, d),
                None => self.profiler.charge(cat, d),
            }
            self.meter.charge_time(cat, d);
        }
        if let Some((res, amount)) = w.count {
            self.meter.add_count(res, amount);
        }
        if let Some(prev) = prev {
            self.meter.set_scope(prev);
        }
        if let Some(span) = w.span {
            self.span(span);
        }
    }

    fn span(&mut self, s: WorkSpan<'_>) {
        let track = self.spans.track(s.track);
        let ambient = self.spans.current_req();
        if s.detached {
            self.spans.set_current_req(None);
        }
        let (start, end) = (s.at.start, s.at.end);
        if let Some((name, cat, inner)) = s.inner {
            self.profiler.observe_instant(start);
            let outer = self.spans.begin(track, s.name, s.cat, start);
            self.profiler.observe_instant(inner.end);
            self.spans
                .complete(track, name, cat, inner.start, inner.end);
            self.profiler.observe_instant(end);
            self.spans.end(track, outer, end);
        } else {
            self.profiler.observe_instant(end);
            self.spans.complete(track, s.name, s.cat, start, end);
        }
        self.spans.set_current_req(ambient);
    }

    /// The dequeue edge with the wait/service split, attributed to the
    /// ambient request; for sRPC requests also the latency histograms, the
    /// backlog span, and the meter's ring-slot, wait and occupancy rows.
    fn served(&mut self, s: Served<'_>) {
        let wait = s.started.saturating_sub(s.enqueued);
        let service = s.finished.saturating_sub(s.started);
        let req = self.spans.current_req();
        if let Some((stream, worker)) = s.srpc {
            let lbl = labels(&[("stream", &stream.to_string())]);
            self.metrics
                .observe("srpc.enqueue_to_dispatch", lbl.clone(), wait);
            // Time between enqueue and the worker picking the request up is
            // executor *backlog* (the device was busy with earlier work),
            // not a protocol queue bottleneck: its own span makes the causal
            // report attribute it as "backlog" rather than a "queue" gap.
            if wait > SimNs::ZERO {
                let track = self.spans.track(&format!("stream:{stream}"));
                self.profiler.observe_instant(s.started);
                let (enq, started) = (s.enqueued, s.started);
                self.spans
                    .complete(track, "await-executor", "backlog", enq, started);
            }
            let sojourn = s.finished.saturating_sub(s.enqueued);
            self.metrics.observe("srpc.request_latency", lbl, sojourn);
            self.meter
                .add_count(CountResource::RingSlotNs, sojourn.as_nanos());
            self.meter.record_wait(worker, req, s.enqueued, s.started);
            self.meter
                .record_occupancy(worker, req, s.started, s.finished);
        }
        self.queues
            .dequeue_req(s.station, s.finished, wait, service, req);
    }

    /// Counter names mirror [`EventKind`] variants one-to-one, so equality
    /// with `EventLog` query helpers (`context_switches()`,
    /// `world_switches()`, …) holds by construction.
    fn machine(&mut self, at: SimNs, kind: &EventKind) {
        self.profiler.observe_instant(at);
        let none = LabelSet::empty;
        let by = |key: &str, v: &dyn std::fmt::Display| labels(&[(key, &v.to_string())]);
        let (name, lbls, delta) = match kind {
            EventKind::WorldSwitch => {
                self.meter.add_count(CountResource::WorldSwitches, 1);
                ("world_switches", none(), 1)
            }
            EventKind::ContextSwitch { to, .. } => ("context_switches", by("to", to), 1),
            EventKind::RpcEnqueue { stream } => ("srpc.enqueued", by("stream", stream), 1),
            EventKind::RpcDispatch { stream } => ("srpc.dispatched", by("stream", stream), 1),
            EventKind::RpcSync { stream } => ("srpc.syncs", by("stream", stream), 1),
            EventKind::EncryptedRpc { bytes } => {
                self.metrics
                    .counter_add("encrypted_rpc.messages", none(), 1);
                ("encrypted_rpc.bytes", none(), *bytes)
            }
            EventKind::Faulted(_) => ("faults", none(), 1),
            EventKind::PartitionFailed { partition: p } => {
                ("partition.failed", by("partition", p), 1)
            }
            EventKind::PartitionCleared { partition: p } => {
                ("partition.cleared", by("partition", p), 1)
            }
            EventKind::PartitionRecovered { partition: p } => {
                ("partition.recovered", by("partition", p), 1)
            }
            EventKind::MemoryShared { pages, .. } => {
                self.meter
                    .add_count(CountResource::Stage2Pages, *pages as u64);
                ("memory.shared_pages", none(), *pages as u64)
            }
            EventKind::FailureSignal { partition: p } => ("failure.signals", by("partition", p), 1),
            EventKind::DeviceIrq { count } => {
                self.meter
                    .add_count(CountResource::DeviceIrqs, *count as u64);
                ("device.irqs", none(), *count as u64)
            }
            EventKind::Marker(label) => {
                self.spans.instant(*label, at);
                ("markers", none(), 1)
            }
        };
        self.metrics.counter_add(name, lbls, delta);
    }
}

/// A cheaply-cloneable handle to one run's observability state.
///
/// Clones share the same underlying store; one clone is typically boxed as
/// the machine's event sink while others live in the SPM, devices and
/// runtime shims.
#[derive(Clone, Default, Debug)]
pub struct FlightRecorder {
    inner: Arc<Mutex<RecorderInner>>,
}

impl FlightRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    /// Locks the store for direct access (tests, exporters).
    pub fn lock(&self) -> MutexGuard<'_, RecorderInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `f` with the locked store.
    pub fn with<R>(&self, f: impl FnOnce(&mut RecorderInner) -> R) -> R {
        f(&mut self.lock())
    }

    /// The one write path: folds a site's events (an array, or any
    /// iterator of [`Event`]s, [`Work`] or [`Served`]), in order, under one
    /// lock.
    pub fn record<'e, E: Into<Event<'e>>>(&self, events: impl IntoIterator<Item = E>) {
        let mut r = self.lock();
        for event in events {
            r.fold(event.into());
        }
    }

    // --- request ids ----------------------------------------------------

    /// Allocates the next request id (monotonic per system, starting at 1).
    pub fn alloc_req(&self) -> ReqId {
        self.with(|r| {
            r.next_req += 1;
            ReqId(r.next_req)
        })
    }

    /// Sets (or clears) the ambient request: every span opened while it is
    /// set — on any track, from any layer — is attributed to that request.
    pub fn set_current_req(&self, req: Option<ReqId>) {
        self.with(|r| r.spans.set_current_req(req));
    }

    /// The ambient request, if any.
    pub fn current_req(&self) -> Option<ReqId> {
        self.with(|r| r.spans.current_req())
    }

    /// Sums a counter across all label sets (used by the forensics
    /// verifier's ledger-vs-recorder completeness check).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.with(|r| r.metrics.counter_total(name))
    }

    // --- queue observatory reads --------------------------------------

    /// Whether any queue station was declared in this run.
    pub fn has_queues(&self) -> bool {
        self.with(|r| !r.queues.is_empty())
    }

    /// Builds the ranked bottleneck-attribution report.
    pub fn queue_report(&self, tolerance: f64) -> QueueReport {
        self.with(|r| r.queues.report(tolerance))
    }

    /// Renders every station's depth-sample stream (determinism surface).
    pub fn queue_samples_text(&self) -> String {
        self.with(|r| r.queues.samples_text())
    }

    /// Evaluates an SLO policy against the queue observatory.
    pub fn slo_report(&self, policy: &crate::slo::SloPolicy) -> crate::slo::SloReport {
        self.with(|r| crate::slo::evaluate(policy, &r.queues))
    }

    /// High-water depth across queues whose name starts with `prefix`.
    pub fn queue_high_water_depth(&self, prefix: &str) -> u64 {
        self.with(|r| r.queues.high_water_depth(prefix))
    }

    /// Highest *current* depth across queues matching `prefix` — zero means
    /// every matching queue has drained.
    pub fn queue_current_depth(&self, prefix: &str) -> u64 {
        self.with(|r| r.queues.max_current_depth(prefix))
    }

    // --- resource meter conveniences ------------------------------------

    /// Replaces the ambient meter scope, returning the previous one so the
    /// caller can save/restore around nested work (the ambient-ReqId
    /// pattern, applied to ownership).
    pub fn set_meter_scope(&self, scope: MeterScope) -> MeterScope {
        self.with(|r| r.meter.set_scope(scope))
    }

    /// The ambient meter scope.
    pub fn meter_scope(&self) -> MeterScope {
        self.with(|r| r.meter.scope())
    }

    /// Runs the meter's conservation self-test against the profiler and
    /// event counters.
    ///
    /// # Errors
    ///
    /// [`MeterError::Conservation`] naming the first imbalanced resource.
    pub fn meter_conservation(&self) -> Result<Vec<ConservationRow>, MeterError> {
        self.with(|r| r.meter.check_conservation(&r.profiler, &r.metrics))
    }

    /// Fairness metrics (per-resource Jain indices, dominant shares)
    /// computed over the meter's per-principal ledgers.
    pub fn fairness_report(&self) -> crate::fairness::FairnessReport {
        self.with(|r| crate::fairness::FairnessReport::compute(&r.meter))
    }

    /// The noisy-neighbor interference matrix: each principal's backlog
    /// waits attributed to whoever occupied the contended executor.
    pub fn interference_matrix(&self) -> crate::fairness::InterferenceMatrix {
        self.with(|r| crate::fairness::InterferenceMatrix::build(&r.meter))
    }

    /// Current elapsed-time watermark (used to place attribution-local
    /// spans, e.g. recovery phases, back to back).
    pub fn total_elapsed(&self) -> SimNs {
        self.with(|r| r.profiler.total_elapsed())
    }

    // --- exports --------------------------------------------------------

    /// Closes open spans and renders the Chrome trace-event JSON document.
    pub fn chrome_trace_json(&self) -> String {
        self.with(|r| {
            let at = r.profiler.total_elapsed();
            r.spans.finish_all(at);
            r.spans.chrome_trace_json()
        })
    }

    /// Renders the metrics snapshot JSON for a run named `run`.
    pub fn metrics_snapshot_json(&self, run: &str) -> String {
        self.with(|r| {
            let attribution: Vec<Json> = r
                .profiler
                .attribution()
                .iter()
                .map(|(cat, d)| {
                    Json::obj([
                        ("category", Json::from(cat.name())),
                        ("ns", Json::U64(d.as_nanos())),
                    ])
                })
                .collect();
            r.metrics.snapshot_json(&[
                ("run", Json::from(run)),
                (
                    "elapsed_ns",
                    Json::U64(r.profiler.total_elapsed().as_nanos()),
                ),
                ("busy_ns", Json::U64(r.profiler.total_busy().as_nanos())),
                ("idle_ns", Json::U64(r.profiler.idle().as_nanos())),
                ("attribution", Json::Arr(attribution)),
            ])
        })
    }

    /// Renders folded-stack lines for flamegraph tooling.
    pub fn folded_stacks(&self) -> String {
        self.with(|r| r.profiler.folded_stacks())
    }

    /// Builds the causal critical-path report from the recorded spans.
    pub fn causal_report(&self) -> CausalReport {
        self.with(|r| CausalReport::from_tracer(&r.spans))
    }

    /// Boxes a sink for [`cronus_sim::Machine::set_event_sink`]; events then
    /// feed this recorder's counters.
    pub fn sink(&self) -> Box<dyn EventSink> {
        Box::new(RecorderSink(self.clone()))
    }
}

/// Bridges the simulator's event stream into the recorder: each machine
/// event becomes one [`Event::Machine`] in the recorder's fold.
pub struct RecorderSink(FlightRecorder);

impl RecorderSink {
    /// Wraps a recorder handle.
    pub fn new(rec: FlightRecorder) -> Self {
        RecorderSink(rec)
    }
}

impl EventSink for RecorderSink {
    fn on_event(&mut self, at: SimNs, kind: &EventKind) {
        self.0.record([Event::Machine(at, kind)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::is_well_formed;
    use crate::meter::{Principal, WorkerId};
    use crate::profile::TimeCategory;
    use crate::queue::QueueKind;
    use cronus_sim::AsId;

    fn ns(v: u64) -> SimNs {
        SimNs::from_nanos(v)
    }

    #[test]
    fn sink_counts_match_event_stream() {
        let rec = FlightRecorder::new();
        let mut sink = RecorderSink::new(rec.clone());
        let a = AsId::new(1);
        let b = AsId::new(2);
        sink.on_event(ns(1), &EventKind::WorldSwitch);
        sink.on_event(ns(2), &EventKind::WorldSwitch);
        sink.on_event(ns(3), &EventKind::ContextSwitch { from: a, to: b });
        sink.on_event(ns(4), &EventKind::RpcEnqueue { stream: 9 });
        sink.on_event(ns(5), &EventKind::RpcDispatch { stream: 9 });
        sink.on_event(ns(6), &EventKind::Marker("phase:warmup"));
        let inner = rec.lock();
        assert_eq!(inner.metrics.counter_total("world_switches"), 2);
        assert_eq!(inner.metrics.counter_total("context_switches"), 1);
        assert_eq!(inner.metrics.counter_total("srpc.enqueued"), 1);
        assert_eq!(inner.metrics.counter_total("srpc.dispatched"), 1);
        assert_eq!(inner.metrics.counter_total("markers"), 1);
        assert_eq!(inner.spans.instants().len(), 1);
        assert_eq!(inner.profiler.total_elapsed(), ns(6));
    }

    #[test]
    fn recorder_clones_share_state() {
        let rec = FlightRecorder::new();
        rec.clone().record([Event::Count("x", &[], 5)]);
        assert_eq!(rec.lock().metrics.counter_total("x"), 5);
    }

    #[test]
    fn exports_are_well_formed() {
        let rec = FlightRecorder::new();
        rec.record([
            Work::spanned("spm", "boot", "boot", ns(0)..ns(100)).into(),
            Event::Sample("lat", &[("stream", "1")], ns(42)),
            Work::charge(TimeCategory::Ring, ns(10)).into(),
        ]);
        assert!(is_well_formed(&rec.metrics_snapshot_json("unit")));
        assert!(is_well_formed(&rec.chrome_trace_json()));
    }

    #[test]
    fn attribution_in_snapshot_sums_to_elapsed() {
        let rec = FlightRecorder::new();
        rec.record([
            Work::charge(TimeCategory::Kernel, ns(700)),
            Work::charge_detail(TimeCategory::Ring, "enqueue", ns(300)),
            Work::spanned("t", "tail", "x", ns(1_000)..ns(2_000)),
        ]);
        let inner = rec.lock();
        let sum: u64 = inner
            .profiler
            .attribution()
            .iter()
            .map(|(_, d)| d.as_nanos())
            .sum();
        assert_eq!(sum, inner.profiler.total_elapsed().as_nanos());
        assert_eq!(sum, 2_000);
    }

    /// One served-request event reaches every store and the stores agree;
    /// a recorder fed only through `record` passes meter conservation.
    #[test]
    fn one_served_event_reaches_every_store() {
        let rec = FlightRecorder::new();
        let (station, worker) = ("srpc.ring:7.0", WorkerId::lane(7, 0));
        let (enq, started, finished) = (ns(100), ns(350), ns(600));
        let wait = started - enq;
        rec.set_meter_scope(MeterScope::principal(Principal(3)).with_stream(7));
        rec.set_current_req(Some(ReqId(11)));
        rec.record([
            Event::Declare(station, QueueKind::Ring, 8),
            Event::Enqueued(station, enq),
            Served::at(station, enq, started, finished)
                .on_stream(7, worker)
                .into(),
            Work::charge_detail(TimeCategory::Kernel, "gemm", finished - started).into(),
            Event::Machine(ns(1), &EventKind::WorldSwitch),
        ]);
        let r = rec.lock();
        let q = r.queues.station(station).expect("declared");
        assert_eq!(
            (q.dequeues(), q.depth(), q.wait_histogram().max()),
            (1, 0, wait)
        );
        assert_eq!(q.exemplars()[0].req, ReqId(11));
        let hist = |name| {
            r.metrics
                .histogram(name, &labels(&[("stream", "7")]))
                .map(|h| h.max())
        };
        assert_eq!(hist("srpc.enqueue_to_dispatch"), Some(wait));
        assert_eq!(hist("srpc.request_latency"), Some(finished - enq));
        let w = &r.meter.waits()[0];
        assert_eq!((w.started - w.enqueued, w.req), (wait, Some(ReqId(11))));
        let backlog = r
            .spans
            .spans()
            .iter()
            .find(|s| s.cat == "backlog")
            .expect("span");
        assert_eq!(backlog.end.map(|e| e - backlog.start), Some(wait));
        assert_eq!(r.meter.occupancy_of(worker).len(), 1);
        let slot_ns = r.meter.count_of(Principal(3), CountResource::RingSlotNs);
        assert_eq!(slot_ns, (finished - enq).as_nanos());
        assert!(r.meter.check_conservation(&r.profiler, &r.metrics).is_ok());
    }

    #[test]
    fn detached_spans_and_scoped_work_leave_the_ambient_state_alone() {
        let rec = FlightRecorder::new();
        rec.set_current_req(Some(ReqId(4)));
        rec.record([
            Work::spanned("gpu:1", "k", "kernel", ns(0)..ns(10)).detached(),
            Work::charge(TimeCategory::Memcpy, ns(5))
                .meter(CountResource::DmaBytes, 64)
                .scoped(MeterScope::principal(Principal(9))),
        ]);
        let r = rec.lock();
        assert_eq!(
            (r.spans.spans()[0].req, r.spans.current_req()),
            (None, Some(ReqId(4)))
        );
        assert_eq!(r.meter.scope(), MeterScope::SYSTEM);
        assert_eq!(r.meter.time_of(Principal(9), TimeCategory::Memcpy), 5);
        assert_eq!(r.meter.count_of(Principal(9), CountResource::DmaBytes), 64);
    }
}
