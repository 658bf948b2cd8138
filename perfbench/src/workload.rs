//! The closed loop shared by every workload: one CPU-enclave caller issues
//! an op, waits for it to finish, checks it, and issues the next. A run is
//! a sequence of epochs; each epoch boots a fresh system, sets it up and
//! runs the same seeded ops, so memory and simulated results do not depend
//! on how long the run is, and every epoch replays the same seed.

use std::collections::BTreeMap;
use std::time::Instant;

use cronus_core::{CronusSystem, EnclaveRef};
use cronus_obs::TimeCategory;
use cronus_sim::World;

use crate::stats::{median_u64, percentile};
use crate::trace::Tracer;

/// Named metric values, in a stable order.
pub type Values = BTreeMap<&'static str, f64>;

pub trait Workload {
    type State;
    /// Operands of one op, generated outside the timed region.
    type Input;
    /// What one op returns for checking.
    type Output;

    /// Boot, enclave creation and attestation, stream open, kernel load and
    /// buffer seeding: everything before the first op.
    fn setup(&self) -> Result<Self::State, String>;
    fn sys<'a>(&self, st: &'a Self::State) -> &'a CronusSystem;
    /// The client enclave whose clock times each op.
    fn caller(&self, st: &Self::State) -> EnclaveRef;
    fn ops(&self) -> usize;
    fn input(&self, st: &Self::State, op: usize) -> Self::Input;
    fn run(
        &self,
        st: &mut Self::State,
        op: usize,
        input: &Self::Input,
        tr: &mut Tracer,
    ) -> Result<Self::Output, String>;
    fn check(
        &self,
        st: &mut Self::State,
        op: usize,
        input: &Self::Input,
        out: Self::Output,
    ) -> Result<(), String>;
    /// sRPC calls issued so far in this epoch.
    fn calls(&self, st: &Self::State) -> u64;
    /// Workload-specific readouts at the end of a traced epoch: counts go
    /// to `sim`, standalone host probes of single layers to `host`.
    fn layers(&self, st: &Self::State, sim: &mut Values, host: &mut Values);
    /// Host-time layer metrics derived from the traced spans.
    fn span_layers(&self, tr: &Tracer, host: &mut Values);
}

/// What one epoch measured.
pub struct Epoch {
    pub traced: bool,
    pub setup_ns: u64,
    pub op_host_ns: Vec<u64>,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Simulated-time and count readouts: identical for every epoch of a
    /// seed.
    pub sim: Values,
    /// Host-time layer readouts (traced epochs only).
    pub host: Values,
}

impl Epoch {
    pub fn ops_per_host_s(&self) -> f64 {
        self.op_host_ns.len() as f64 / (self.op_host_ns.iter().sum::<u64>() as f64 / 1e9)
    }
}

/// Machine-wide simulated state sampled after setup and after the ops.
struct SimSnap {
    world_switches: usize,
    context_switches: usize,
    categories: Vec<(TimeCategory, u64)>,
    spans: usize,
    ledger_records: u64,
}

const CATEGORIES: [TimeCategory; 9] = [
    TimeCategory::WorldSwitch,
    TimeCategory::ContextSwitch,
    TimeCategory::Crypto,
    TimeCategory::Memcpy,
    TimeCategory::Ring,
    TimeCategory::Kernel,
    TimeCategory::Recovery,
    TimeCategory::Mgmt,
    TimeCategory::Idle,
];

/// `sim.<category>_ns_per_op` for each time category.
pub fn category_metric(cat: TimeCategory) -> &'static str {
    match cat {
        TimeCategory::WorldSwitch => "sim.world_switch_ns_per_op",
        TimeCategory::ContextSwitch => "sim.context_switch_ns_per_op",
        TimeCategory::Crypto => "sim.crypto_ns_per_op",
        TimeCategory::Memcpy => "sim.memcpy_ns_per_op",
        TimeCategory::Ring => "sim.ring_ns_per_op",
        TimeCategory::Kernel => "sim.kernel_ns_per_op",
        TimeCategory::Recovery => "sim.recovery_ns_per_op",
        TimeCategory::Mgmt => "sim.mgmt_ns_per_op",
        TimeCategory::Idle => "sim.idle_ns_per_op",
    }
}

impl SimSnap {
    fn take(sys: &CronusSystem) -> Self {
        let log = sys.spm().machine().log();
        assert_eq!(log.dropped(), 0, "event log evicted events mid-epoch");
        let (categories, spans) = sys.recorder().with(|r| {
            let cats = CATEGORIES
                .iter()
                .map(|&c| {
                    let ns = match c {
                        TimeCategory::Idle => r.profiler.idle(),
                        c => r.profiler.busy_in(c),
                    };
                    (c, ns.as_nanos())
                })
                .collect();
            (cats, r.spans.spans().len())
        });
        SimSnap {
            world_switches: log.world_switches(),
            context_switches: log.context_switches(),
            categories,
            spans,
            ledger_records: sys.spm().ledger().records_total(),
        }
    }
}

/// Runs one epoch. With tracing on, host spans wrap every public call and
/// the layer readouts are taken after the ops.
pub fn epoch<W: Workload>(w: &W, tr: &mut Tracer, traced: bool) -> Result<Epoch, String> {
    tr.set_on(traced);
    let t0 = Instant::now();
    let mut st = w.setup()?;
    let setup_ns = t0.elapsed().as_nanos() as u64;

    let caller = w.caller(&st);
    let before = SimSnap::take(w.sys(&st));
    let calls_before = w.calls(&st);
    let sim_start = w.sys(&st).enclave_time(caller).as_nanos();
    let n = w.ops();
    let mut op_host_ns = Vec::with_capacity(n);
    let mut op_sim_ns = Vec::with_capacity(n);
    let (mut failed, mut first_failure) = (0, None);
    for op in 0..n {
        let input = w.input(&st, op);
        let sim0 = w.sys(&st).enclave_time(caller).as_nanos();
        tr.begin_op(op);
        let h0 = Instant::now();
        let out = w.run(&mut st, op, &input, tr);
        let host = h0.elapsed().as_nanos() as u64;
        tr.end_op();
        op_host_ns.push(host);
        op_sim_ns.push(w.sys(&st).enclave_time(caller).as_nanos() - sim0);
        if let Err(e) = out.and_then(|o| w.check(&mut st, op, &input, o)) {
            failed += 1;
            first_failure.get_or_insert(format!("op {op}: {e}"));
        }
    }
    let sys = w.sys(&st);
    let sim_makespan_ns = sys.enclave_time(caller).as_nanos() - sim_start;
    let after = SimSnap::take(sys);
    tr.fold(n);

    let per_op = |d: f64| d / n as f64;
    let mut sim = Values::new();
    sim.insert("sim_ops_per_s", n as f64 / (sim_makespan_ns as f64 / 1e9));
    sim.insert("sim_op_p50_us", sim_percentile_us(&op_sim_ns, 0.5));
    sim.insert("sim_op_p99_us", sim_percentile_us(&op_sim_ns, 0.99));
    let mut host = Values::new();
    if traced {
        sim.insert(
            "sim.world_switches_per_op",
            per_op((after.world_switches - before.world_switches) as f64),
        );
        sim.insert(
            "sim.context_switches_per_op",
            per_op((after.context_switches - before.context_switches) as f64),
        );
        for (&(cat, end), &(_, start)) in after.categories.iter().zip(&before.categories) {
            sim.insert(category_metric(cat), per_op((end - start) as f64));
        }
        let causal = sys.recorder().causal_report();
        let backlog = causal.overall.iter().find(|(phase, _)| phase == "backlog");
        let backlog = backlog.map_or(0, |&(_, ns)| ns);
        sim.insert("sim.backlog_ns_per_op", per_op(backlog as f64));
        let calls = (w.calls(&st) - calls_before).max(1) as f64;
        sim.insert(
            "obs.spans_per_call",
            (after.spans - before.spans) as f64 / calls,
        );
        sim.insert("obs.spans_retained", after.spans as f64);
        sim.insert(
            "forensics.ledger_records_per_op",
            per_op((after.ledger_records - before.ledger_records) as f64),
        );
        sim.insert(
            "sim.free_secure_pages_end",
            sys.spm().machine().free_pages(World::Secure) as f64,
        );
        w.layers(&st, &mut sim, &mut host);
    }
    Ok(Epoch {
        traced,
        setup_ns,
        op_host_ns,
        failed,
        first_failure,
        sim,
        host,
    })
}

fn sim_percentile_us(samples: &[u64], p: f64) -> f64 {
    percentile(samples, p).map_or(f64::NAN, |ns| ns as f64 / 1e3)
}

/// The p50 of a traced span's host durations, in `unit_ns` units.
pub fn span_p50(tr: &Tracer, name: &str, unit_ns: f64) -> f64 {
    tr.samples.get(name).map_or(0.0, |s| {
        percentile(s, 0.5).map_or_else(|| median_u64(s), |v| v as f64) / unit_ns
    })
}
