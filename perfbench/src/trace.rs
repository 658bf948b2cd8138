//! Host-time spans the benchmark records around each public call it makes
//! into a layer. Spans stay in memory; [`Tracer::fold`] turns an epoch's
//! spans into per-name samples and per-layer self time, and the first
//! traced epoch's spans are kept for the trace file.

use std::collections::BTreeMap;
use std::time::Instant;

use cronus_obs::Json;

/// One span. `parent` indexes the epoch's span list; `op` is the op the
/// span belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HostSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u32,
}

impl HostSpan {
    fn layer(&self) -> &'static str {
        match self.name.split_once('.') {
            Some((layer, _)) => layer,
            // The op root's self time is the benchmark's own glue.
            None => "bench",
        }
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<HostSpan>,
    root: Option<u32>,
    /// Per span name: every duration seen in traced epochs.
    pub samples: BTreeMap<&'static str, Vec<u64>>,
    /// Per layer: total self time in traced epochs.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Ops covered by `samples` and `self_ns`.
    pub traced_ops: u64,
    /// The first traced epoch's spans, written out at exit.
    pub kept: Vec<HostSpan>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            root: None,
            samples: BTreeMap::new(),
            self_ns: BTreeMap::new(),
            traced_ops: 0,
            kept: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the root span of op `op`.
    pub fn begin_op(&mut self, op: usize) {
        if self.on {
            let at = self.now();
            self.root = Some(self.spans.len() as u32);
            self.spans.push(HostSpan {
                name: "op",
                start_ns: at,
                end_ns: at,
                parent: None,
                op: op as u32,
            });
        }
    }

    pub fn end_op(&mut self) {
        if let Some(root) = self.root.take() {
            let at = self.now();
            self.spans[root as usize].end_ns = at;
        }
    }

    /// Runs `f` inside a span named `layer.call` under the current op.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(root) = self.root else {
            return f();
        };
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        let op = self.spans[root as usize].op;
        self.spans.push(HostSpan {
            name,
            start_ns,
            end_ns,
            parent: Some(root),
            op,
        });
        out
    }

    /// Folds the epoch's spans into the aggregates and clears them.
    pub fn fold(&mut self, ops: usize) {
        if self.spans.is_empty() {
            return;
        }
        for (name, dur) in self.spans.iter().map(|s| (s.name, s.end_ns - s.start_ns)) {
            self.samples.entry(name).or_default().push(dur);
        }
        for (layer, ns) in self_times(&self.spans) {
            *self.self_ns.entry(layer).or_default() += ns;
        }
        self.traced_ops += ops as u64;
        let spans = std::mem::take(&mut self.spans);
        if self.kept.is_empty() {
            self.kept = spans;
        }
    }

    /// Self time per layer, in µs per op.
    pub fn self_us_per_op(&self, layer: &str) -> f64 {
        let ns = self.self_ns.get(layer).copied().unwrap_or(0);
        ns as f64 / 1e3 / self.traced_ops.max(1) as f64
    }

    /// The kept spans as a JSON document.
    pub fn to_json(&self) -> Json {
        let spans = self
            .kept
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::from(s.name)),
                    ("start_ns", Json::U64(s.start_ns)),
                    ("end_ns", Json::U64(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                    ),
                    ("op", Json::U64(s.op as u64)),
                ])
            })
            .collect();
        Json::obj([("spans", Json::Arr(spans))])
    }
}

/// Each span's duration minus the part of it its children cover, summed
/// per layer.
pub fn self_times(spans: &[HostSpan]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start_ns;
        for &(start, end) in kids.iter() {
            let (start, end) = (start.max(reach), end.min(s.end_ns));
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        *out.entry(s.layer()).or_default() += (s.end_ns - s.start_ns) - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> HostSpan {
        HostSpan {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("op", 0, 100, None),
            span("core.start", 10, 30, Some(0)),
            span("core.start", 20, 40, Some(0)),
            span("spm.inject", 50, 60, Some(0)),
            span("crypto.verify", 52, 55, Some(3)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["bench"], 100 - 30 - 10);
        assert_eq!(t["core"], 20 + 20);
        assert_eq!(t["spm"], 10 - 3);
        assert_eq!(t["crypto"], 3);
    }

    #[test]
    fn untraced_spans_record_nothing() {
        let mut tr = Tracer::new();
        tr.begin_op(0);
        assert_eq!(tr.span("core.start", || 5), 5);
        tr.end_op();
        tr.fold(1);
        assert!(tr.samples.is_empty() && tr.kept.is_empty());
    }
}
