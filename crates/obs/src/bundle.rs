//! Schema-versioned telemetry bundles: the per-figure archive that makes a
//! bench run comparable to another bench run.
//!
//! A [`TelemetryBundle`] snapshots everything the differential forensics
//! engine ([`crate::diff`]) needs to explain a regression: headline metrics,
//! the per-category critical-path split, per-queue USE statistics with
//! worst-N wait exemplars, folded flamegraph stacks, and the exemplar
//! request timelines joined by `ReqId`. Bundles are captured from a
//! [`FlightRecorder`] at the end of a recorded figure run and committed as
//! `BUNDLE_<name>.json` baselines alongside `BENCH_<name>.json`
//! (`scripts/rebaseline.sh` refreshes both together).
//!
//! Everything here is derived from the virtual clock, so a bundle is
//! byte-identical across runs of the same (figure, seed) pair. This file is
//! on the audit lint's `STRICT_OBS_FILES` list: no wall-clock reads, and
//! all fallible public functions return the typed [`BundleError`].

use std::collections::BTreeMap;
use std::fmt;

use crate::json::{self, Json};
use crate::queue::DEFAULT_LITTLE_TOLERANCE;
use crate::recorder::FlightRecorder;

/// Bundle document schema version. Bump on any layout change; the loader
/// refuses mismatched documents instead of partially comparing them.
pub const BUNDLE_SCHEMA: u64 = 1;

/// Upper bound on exemplar request timelines kept per bundle (worst waits
/// across all stations). Keeps committed baselines compact.
pub const MAX_BUNDLE_EXEMPLARS: usize = 16;

/// Which direction of change is an improvement for a headline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (latency, overhead).
    Lower,
    /// Larger is better (throughput, hit rates).
    Higher,
}

impl Direction {
    /// Wire name used in the JSON document.
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::Lower => "lower",
            Direction::Higher => "higher",
        }
    }

    fn parse(s: &str) -> Option<Direction> {
        match s {
            "lower" => Some(Direction::Lower),
            "higher" => Some(Direction::Higher),
            _ => None,
        }
    }
}

/// A headline metric as archived in a bundle.
#[derive(Clone, Debug, PartialEq)]
pub struct BundleHeadline {
    /// Stable metric key (e.g. `total_wall_ms`).
    pub key: String,
    /// Metric value.
    pub value: f64,
    /// Human unit label (e.g. `ms`, `calls/s`).
    pub unit: String,
    /// Improvement direction.
    pub better: Direction,
}

/// Per-queue USE snapshot archived in a bundle.
#[derive(Clone, Debug, PartialEq)]
pub struct BundleQueue {
    /// Station name (e.g. `srpc.ring:1`).
    pub name: String,
    /// Station kind wire name (e.g. `ring`, `dma`).
    pub kind: String,
    /// Declared capacity.
    pub capacity: u64,
    /// High-water depth over the run.
    pub max_depth: u64,
    /// Busy fraction of the observation window (0.0..=1.0).
    pub utilization: f64,
    /// Time-averaged depth.
    pub mean_depth: f64,
    /// Median wait.
    pub p50_wait_ns: u64,
    /// Tail wait.
    pub p99_wait_ns: u64,
    /// Worst wait.
    pub max_wait_ns: u64,
    /// Mean service time.
    pub mean_service_ns: u64,
    /// Total wait accumulated across all items (saturated to u64).
    pub wait_total_ns: u64,
    /// Error edges (full-ring stalls, drops).
    pub errors: u64,
    /// Worst-N `(req, wait_ns)` exemplars, worst-first.
    pub exemplars: Vec<(u64, u64)>,
    /// Exemplar candidates discarded because the ring was full.
    pub exemplars_dropped: u64,
}

/// An exemplar request timeline: one of the worst waiters, joined with its
/// causal phase breakdown so a diff can explain *where* the p99 request
/// spent its life.
#[derive(Clone, Debug, PartialEq)]
pub struct BundleExemplar {
    /// Request id within the run.
    pub req: u64,
    /// Request name (root span), empty when the span tracer lost it.
    pub name: String,
    /// Stream the request ran on, when known.
    pub stream: Option<u64>,
    /// Station where the exemplar wait was observed.
    pub queue: String,
    /// The observed wait at that station.
    pub wait_ns: u64,
    /// End-to-end request duration.
    pub total_ns: u64,
    /// Canonical phase breakdown, summing to `total_ns`.
    pub phases: Vec<(String, u64)>,
}

/// The per-figure telemetry archive.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryBundle {
    /// Document schema version ([`BUNDLE_SCHEMA`]).
    pub schema: u64,
    /// Figure name (e.g. `fig7`).
    pub name: String,
    /// Free-form run metadata (seed, scale, bounding queue, ...).
    pub meta: Vec<(String, String)>,
    /// Headline metrics, in emission order.
    pub headlines: Vec<BundleHeadline>,
    /// Per-category critical-path split, dominant first.
    pub critical_path: Vec<(String, u64)>,
    /// Per-queue USE snapshots, ranked by total wait (bounding queue first).
    pub queues: Vec<BundleQueue>,
    /// Folded flamegraph stacks (`stack -> ns`), lexicographically sorted.
    pub folded: Vec<(String, u64)>,
    /// Worst-N exemplar request timelines across all stations.
    pub exemplars: Vec<BundleExemplar>,
}

/// Typed error for bundle (de)serialisation.
#[derive(Clone, Debug, PartialEq)]
pub enum BundleError {
    /// The document is not well-formed JSON.
    Json {
        /// Parser diagnostic.
        detail: String,
    },
    /// The document carries a different schema version.
    SchemaMismatch {
        /// Version found in the document.
        found: u64,
        /// Version this binary understands.
        expected: u64,
    },
    /// A required field is absent or has the wrong type.
    MissingField {
        /// Dotted path of the offending field.
        field: &'static str,
    },
}

impl fmt::Display for BundleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleError::Json { detail } => write!(f, "malformed bundle JSON: {detail}"),
            BundleError::SchemaMismatch { found, expected } => write!(
                f,
                "bundle schema {found} does not match this binary's schema {expected}; \
                 re-run scripts/rebaseline.sh to regenerate the committed baselines"
            ),
            BundleError::MissingField { field } => {
                write!(f, "bundle document is missing required field `{field}`")
            }
        }
    }
}

impl std::error::Error for BundleError {}

fn field<'a>(obj: &'a Json, key: &'static str) -> Result<&'a Json, BundleError> {
    obj.get(key).ok_or(BundleError::MissingField { field: key })
}

fn u64_field(obj: &Json, key: &'static str) -> Result<u64, BundleError> {
    field(obj, key)?
        .as_u64()
        .ok_or(BundleError::MissingField { field: key })
}

fn f64_field(obj: &Json, key: &'static str) -> Result<f64, BundleError> {
    field(obj, key)?
        .as_f64()
        .ok_or(BundleError::MissingField { field: key })
}

fn str_field<'a>(obj: &'a Json, key: &'static str) -> Result<&'a str, BundleError> {
    field(obj, key)?
        .as_str()
        .ok_or(BundleError::MissingField { field: key })
}

fn arr_field<'a>(obj: &'a Json, key: &'static str) -> Result<&'a [Json], BundleError> {
    field(obj, key)?
        .as_arr()
        .ok_or(BundleError::MissingField { field: key })
}

/// Reads a `[["label", ns], ...]` pair list.
fn pairs_field(obj: &Json, key: &'static str) -> Result<Vec<(String, u64)>, BundleError> {
    let mut out = Vec::new();
    for item in arr_field(obj, key)? {
        let pair = item
            .as_arr()
            .ok_or(BundleError::MissingField { field: key })?;
        let (label, ns) = match pair {
            [l, n] => (l, n),
            _ => return Err(BundleError::MissingField { field: key }),
        };
        let label = label
            .as_str()
            .ok_or(BundleError::MissingField { field: key })?;
        let ns = ns
            .as_u64()
            .ok_or(BundleError::MissingField { field: key })?;
        out.push((label.to_string(), ns));
    }
    Ok(out)
}

fn pairs_json(pairs: &[(String, u64)]) -> Json {
    Json::Arr(
        pairs
            .iter()
            .map(|(label, ns)| Json::Arr(vec![Json::Str(label.clone()), Json::U64(*ns)]))
            .collect(),
    )
}

impl TelemetryBundle {
    /// Captures a bundle from a finished recorded run. All content is
    /// derived from the recorder's virtual-clock state, so the result is
    /// byte-identical across runs of the same (figure, seed) pair.
    pub fn capture(
        name: &str,
        headlines: Vec<BundleHeadline>,
        meta: Vec<(String, String)>,
        rec: &FlightRecorder,
    ) -> TelemetryBundle {
        let causal = rec.causal_report();
        let queue_report = rec.queue_report(DEFAULT_LITTLE_TOLERANCE);

        let mut folded: Vec<(String, u64)> = rec
            .folded_stacks()
            .lines()
            .filter_map(|line| {
                let (stack, ns) = line.rsplit_once(' ')?;
                Some((stack.to_string(), ns.parse().ok()?))
            })
            .collect();
        folded.sort();

        let queues: Vec<BundleQueue> = queue_report
            .queues
            .iter()
            .map(|q| BundleQueue {
                name: q.name.clone(),
                kind: q.kind.as_str().to_string(),
                capacity: q.capacity,
                max_depth: q.max_depth,
                utilization: q.utilization,
                mean_depth: q.mean_depth,
                p50_wait_ns: q.p50_wait_ns,
                p99_wait_ns: q.p99_wait_ns,
                max_wait_ns: q.max_wait_ns,
                mean_service_ns: q.mean_service_ns,
                wait_total_ns: u64::try_from(q.wait_total_ns).unwrap_or(u64::MAX),
                errors: q.errors,
                exemplars: q
                    .exemplars
                    .iter()
                    .map(|e| (e.req.0, e.wait.as_nanos()))
                    .collect(),
                exemplars_dropped: q.exemplars_dropped,
            })
            .collect();

        // Join station exemplars with the causal timelines so the bundle
        // carries a phase breakdown for each worst waiter.
        let timelines: BTreeMap<u64, &crate::causal::RequestTimeline> =
            causal.requests.iter().map(|t| (t.req.0, t)).collect();
        let mut exemplars: Vec<BundleExemplar> = Vec::new();
        for q in &queue_report.queues {
            for e in &q.exemplars {
                let mut ex = BundleExemplar {
                    req: e.req.0,
                    name: String::new(),
                    stream: None,
                    queue: q.name.clone(),
                    wait_ns: e.wait.as_nanos(),
                    total_ns: 0,
                    phases: Vec::new(),
                };
                if let Some(t) = timelines.get(&e.req.0) {
                    ex.name = t.name.clone();
                    ex.stream = t.stream;
                    ex.total_ns = t.total_ns();
                    ex.phases = t.phases.clone();
                }
                exemplars.push(ex);
            }
        }
        exemplars.sort_by(|a, b| {
            b.wait_ns
                .cmp(&a.wait_ns)
                .then(a.req.cmp(&b.req))
                .then(a.queue.cmp(&b.queue))
        });
        exemplars.truncate(MAX_BUNDLE_EXEMPLARS);

        TelemetryBundle {
            schema: BUNDLE_SCHEMA,
            name: name.to_string(),
            meta,
            headlines,
            critical_path: causal.overall.clone(),
            queues,
            folded,
            exemplars,
        }
    }

    /// Critical-path nanoseconds for one canonical category.
    pub fn category_ns(&self, cat: &str) -> u64 {
        self.critical_path
            .iter()
            .find(|(c, _)| c == cat)
            .map(|(_, ns)| *ns)
            .unwrap_or(0)
    }

    /// The bounding queue: queues are archived ranked by total wait.
    pub fn bounding_queue(&self) -> Option<&BundleQueue> {
        self.queues.first()
    }

    /// Renders the compact JSON document committed as `BUNDLE_<name>.json`.
    pub fn to_json(&self) -> String {
        let meta = Json::Obj(
            self.meta
                .iter()
                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                .collect(),
        );
        let headlines = Json::Arr(
            self.headlines
                .iter()
                .map(|h| {
                    Json::obj([
                        ("key", Json::Str(h.key.clone())),
                        ("value", Json::F64(h.value)),
                        ("unit", Json::Str(h.unit.clone())),
                        ("better", Json::Str(h.better.as_str().to_string())),
                    ])
                })
                .collect(),
        );
        let queues = Json::Arr(
            self.queues
                .iter()
                .map(|q| {
                    Json::obj([
                        ("name", Json::Str(q.name.clone())),
                        ("kind", Json::Str(q.kind.clone())),
                        ("capacity", Json::U64(q.capacity)),
                        ("max_depth", Json::U64(q.max_depth)),
                        ("utilization", Json::F64(q.utilization)),
                        ("mean_depth", Json::F64(q.mean_depth)),
                        ("p50_wait_ns", Json::U64(q.p50_wait_ns)),
                        ("p99_wait_ns", Json::U64(q.p99_wait_ns)),
                        ("max_wait_ns", Json::U64(q.max_wait_ns)),
                        ("mean_service_ns", Json::U64(q.mean_service_ns)),
                        ("wait_total_ns", Json::U64(q.wait_total_ns)),
                        ("errors", Json::U64(q.errors)),
                        (
                            "exemplars",
                            Json::Arr(
                                q.exemplars
                                    .iter()
                                    .map(|(req, wait)| {
                                        Json::Arr(vec![Json::U64(*req), Json::U64(*wait)])
                                    })
                                    .collect(),
                            ),
                        ),
                        ("exemplars_dropped", Json::U64(q.exemplars_dropped)),
                    ])
                })
                .collect(),
        );
        let exemplars = Json::Arr(
            self.exemplars
                .iter()
                .map(|e| {
                    Json::obj([
                        ("req", Json::U64(e.req)),
                        ("name", Json::Str(e.name.clone())),
                        ("stream", e.stream.map(Json::U64).unwrap_or(Json::Null)),
                        ("queue", Json::Str(e.queue.clone())),
                        ("wait_ns", Json::U64(e.wait_ns)),
                        ("total_ns", Json::U64(e.total_ns)),
                        ("phases", pairs_json(&e.phases)),
                    ])
                })
                .collect(),
        );
        Json::obj([
            ("schema", Json::U64(self.schema)),
            ("name", Json::Str(self.name.clone())),
            ("meta", meta),
            ("headlines", headlines),
            ("critical_path", pairs_json(&self.critical_path)),
            ("queues", queues),
            ("folded", pairs_json(&self.folded)),
            ("exemplars", exemplars),
        ])
        .render()
    }

    /// Parses a bundle document, refusing schema mismatches outright so an
    /// old baseline never silently part-compares against a new binary.
    pub fn from_json(input: &str) -> Result<TelemetryBundle, BundleError> {
        let doc = json::parse(input).map_err(|detail| BundleError::Json { detail })?;
        let schema = u64_field(&doc, "schema")?;
        if schema != BUNDLE_SCHEMA {
            return Err(BundleError::SchemaMismatch {
                found: schema,
                expected: BUNDLE_SCHEMA,
            });
        }
        let name = str_field(&doc, "name")?.to_string();

        let meta_obj = field(&doc, "meta")?
            .as_obj()
            .ok_or(BundleError::MissingField { field: "meta" })?;
        let meta: Vec<(String, String)> = meta_obj
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
            .collect();

        let mut headlines = Vec::new();
        for h in arr_field(&doc, "headlines")? {
            let better =
                Direction::parse(str_field(h, "better")?).ok_or(BundleError::MissingField {
                    field: "headlines.better",
                })?;
            headlines.push(BundleHeadline {
                key: str_field(h, "key")?.to_string(),
                value: f64_field(h, "value")?,
                unit: str_field(h, "unit")?.to_string(),
                better,
            });
        }

        let critical_path = pairs_field(&doc, "critical_path")?;

        let mut queues = Vec::new();
        for q in arr_field(&doc, "queues")? {
            let mut exemplars = Vec::new();
            for e in arr_field(q, "exemplars")? {
                let pair = e.as_arr().ok_or(BundleError::MissingField {
                    field: "queues.exemplars",
                })?;
                let (req, wait) = match pair {
                    [r, w] => (r.as_u64(), w.as_u64()),
                    _ => (None, None),
                };
                match (req, wait) {
                    (Some(req), Some(wait)) => exemplars.push((req, wait)),
                    _ => {
                        return Err(BundleError::MissingField {
                            field: "queues.exemplars",
                        });
                    }
                }
            }
            queues.push(BundleQueue {
                name: str_field(q, "name")?.to_string(),
                kind: str_field(q, "kind")?.to_string(),
                capacity: u64_field(q, "capacity")?,
                max_depth: u64_field(q, "max_depth")?,
                utilization: f64_field(q, "utilization")?,
                mean_depth: f64_field(q, "mean_depth")?,
                p50_wait_ns: u64_field(q, "p50_wait_ns")?,
                p99_wait_ns: u64_field(q, "p99_wait_ns")?,
                max_wait_ns: u64_field(q, "max_wait_ns")?,
                mean_service_ns: u64_field(q, "mean_service_ns")?,
                wait_total_ns: u64_field(q, "wait_total_ns")?,
                errors: u64_field(q, "errors")?,
                exemplars,
                exemplars_dropped: u64_field(q, "exemplars_dropped")?,
            });
        }

        let folded = pairs_field(&doc, "folded")?;

        let mut exemplars = Vec::new();
        for e in arr_field(&doc, "exemplars")? {
            let stream = match field(e, "stream")? {
                Json::Null => None,
                other => Some(other.as_u64().ok_or(BundleError::MissingField {
                    field: "exemplars.stream",
                })?),
            };
            exemplars.push(BundleExemplar {
                req: u64_field(e, "req")?,
                name: str_field(e, "name")?.to_string(),
                stream,
                queue: str_field(e, "queue")?.to_string(),
                wait_ns: u64_field(e, "wait_ns")?,
                total_ns: u64_field(e, "total_ns")?,
                phases: pairs_field(e, "phases")?,
            });
        }

        Ok(TelemetryBundle {
            schema,
            name,
            meta,
            headlines,
            critical_path,
            queues,
            folded,
            exemplars,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Work};
    use cronus_sim::SimNs;

    fn sample_bundle() -> TelemetryBundle {
        TelemetryBundle {
            schema: BUNDLE_SCHEMA,
            name: "fig7".to_string(),
            meta: vec![("seed".to_string(), "42".to_string())],
            headlines: vec![BundleHeadline {
                key: "total_wall_ms".to_string(),
                value: 412.5,
                unit: "ms".to_string(),
                better: Direction::Lower,
            }],
            critical_path: vec![("queue".to_string(), 402), ("kernel".to_string(), 7)],
            queues: vec![BundleQueue {
                name: "srpc.ring:1".to_string(),
                kind: "ring".to_string(),
                capacity: 64,
                max_depth: 12,
                utilization: 0.93,
                mean_depth: 4.2,
                p50_wait_ns: 1_000,
                p99_wait_ns: 90_000,
                max_wait_ns: 120_000,
                mean_service_ns: 700,
                wait_total_ns: 402_000_000,
                errors: 0,
                exemplars: vec![(17, 120_000), (3, 90_000)],
                exemplars_dropped: 5,
            }],
            folded: vec![
                ("cronus;queue".to_string(), 402),
                ("cronus;idle".to_string(), 1),
            ],
            exemplars: vec![BundleExemplar {
                req: 17,
                name: "gpu.launch".to_string(),
                stream: Some(1),
                queue: "srpc.ring:1".to_string(),
                wait_ns: 120_000,
                total_ns: 130_000,
                phases: vec![
                    ("queue".to_string(), 120_000),
                    ("kernel".to_string(), 10_000),
                ],
            }],
        }
    }

    #[test]
    fn round_trips_through_json() {
        let b = sample_bundle();
        let doc = b.to_json();
        let back = TelemetryBundle::from_json(&doc).expect("round trip");
        assert_eq!(b, back);
        // Re-rendering is byte-identical (determinism surface).
        assert_eq!(doc, back.to_json());
    }

    #[test]
    fn schema_mismatch_points_at_rebaseline() {
        let mut b = sample_bundle();
        b.schema = BUNDLE_SCHEMA + 1;
        let err = TelemetryBundle::from_json(&b.to_json()).expect_err("must refuse");
        assert!(matches!(err, BundleError::SchemaMismatch { .. }));
        let msg = err.to_string();
        assert!(msg.contains("scripts/rebaseline.sh"), "{msg}");
    }

    #[test]
    fn missing_field_is_a_typed_error() {
        let err = TelemetryBundle::from_json(r#"{"schema":1,"name":"x"}"#).expect_err("typed");
        assert_eq!(err, BundleError::MissingField { field: "meta" });
        assert!(err.to_string().contains("meta"));
    }

    #[test]
    fn malformed_json_is_reported() {
        let err = TelemetryBundle::from_json("{not json").expect_err("parse error");
        assert!(matches!(err, BundleError::Json { .. }));
    }

    #[test]
    fn capture_from_empty_recorder_is_valid_and_stable() {
        let rec = FlightRecorder::default();
        let a = TelemetryBundle::capture("empty", Vec::new(), Vec::new(), &rec);
        let b = TelemetryBundle::capture("empty", Vec::new(), Vec::new(), &rec);
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.queues.is_empty());
        assert!(TelemetryBundle::from_json(&a.to_json()).is_ok());
    }

    #[test]
    fn capture_joins_exemplars_with_timelines() {
        let rec = FlightRecorder::default();
        let req = rec.alloc_req();
        rec.set_current_req(Some(req));
        rec.record([Work::spanned(
            "exec",
            "gpu.launch",
            "srpc",
            SimNs::from_nanos(0)..SimNs::from_nanos(1_000),
        )]);
        rec.set_current_req(None);
        let station = "srpc.ring:1";
        rec.record([
            Event::Declare(station, crate::queue::QueueKind::Ring, 64),
            Event::Enqueued(station, SimNs::from_nanos(0)),
        ]);
        rec.with(|r| {
            r.queues.dequeue_req(
                "srpc.ring:1",
                SimNs::from_nanos(500),
                SimNs::from_nanos(400),
                SimNs::from_nanos(100),
                Some(req),
            )
        });
        let b = TelemetryBundle::capture("t", Vec::new(), Vec::new(), &rec);
        assert_eq!(b.queues.len(), 1);
        assert_eq!(b.queues[0].exemplars, vec![(req.0, 400)]);
        assert_eq!(b.exemplars.len(), 1);
        assert_eq!(b.exemplars[0].queue, "srpc.ring:1");
        assert_eq!(b.exemplars[0].name, "gpu.launch");
        assert_eq!(b.exemplars[0].wait_ns, 400);
    }
}
