//! `srpc_pipeline`: one CPU enclave streams async `echo` calls to a
//! GPU-partition enclave in windows of 1–64, each closed by a verified
//! `echo_sync`. The handlers do no device work, so host time is the sRPC
//! path (enqueue, drain, ring codec, dispatcher) and the flight recorder.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cronus_core::ring::{decode_request, encode_request, Request};
use cronus_core::{Actor, CronusSystem, EnclaveRef, StreamId};
use cronus_crypto::measure;
use cronus_devices::DeviceKind;
use cronus_mos::manifest::{Manifest, McallDecl};
use cronus_sim::SimNs;

use crate::check;
use crate::gen::{SrpcPlan, ZERO_COPY_THRESHOLD};
use crate::stats::median;
use crate::sut;
use crate::trace::Tracer;
use crate::workload::{span_p50, Values, Workload};

const GPU_MOS: &[u8] = b"cuda-mos-v3";

pub struct Srpc {
    pub plan: SrpcPlan,
}

pub struct State {
    sys: CronusSystem,
    cpu: EnclaveRef,
    stream: StreamId,
    /// Digests of the payloads the callee received, in arrival order.
    seen: Arc<Mutex<Vec<u64>>>,
    issued: u64,
}

impl Workload for Srpc {
    type State = State;
    type Input = ();
    type Output = Vec<u8>;

    fn setup(&self) -> Result<State, String> {
        let mut sys = sut::boot(GPU_MOS);
        let cpu = sut::client(&mut sys)?;
        let gpu = sys
            .create_enclave(
                Actor::Enclave(cpu),
                Manifest::new(DeviceKind::Gpu)
                    .with_mecall(McallDecl::asynchronous("echo"))
                    .with_mecall(McallDecl::synchronous("echo_sync"))
                    .with_memory(1 << 20),
                &BTreeMap::new(),
            )
            .map_err(|e| format!("callee enclave: {e}"))?;
        let expect = sut::expectations(gpu, measure("mos-image", GPU_MOS), None);
        sut::attest(&sys, &sut::verifier(&sys), gpu, &expect)?;
        // Both handlers log what they receive. `echo` answers with the
        // payload's digest, since a granted payload would not fit a result
        // slot; `echo_sync` answers with the payload itself.
        let seen = Arc::new(Mutex::new(Vec::new()));
        for (name, whole) in [("echo", false), ("echo_sync", true)] {
            let seen = Arc::clone(&seen);
            sys.register_handler(
                gpu,
                name,
                Box::new(move |_, p| {
                    let d = check::digest(p);
                    seen.lock().expect("no handler panics").push(d);
                    let out = if whole {
                        p.to_vec()
                    } else {
                        d.to_le_bytes().to_vec()
                    };
                    Ok((out, echo_cost(p)))
                }),
            );
        }
        let stream = sys
            .stream(cpu, gpu)
            .zero_copy(ZERO_COPY_THRESHOLD)
            .open()
            .map_err(|e| format!("stream open: {e:?}"))?;
        Ok(State {
            sys,
            cpu,
            stream,
            seen,
            issued: 0,
        })
    }

    fn sys<'a>(&self, st: &'a State) -> &'a CronusSystem {
        &st.sys
    }

    fn caller(&self, st: &State) -> EnclaveRef {
        st.cpu
    }

    fn ops(&self) -> usize {
        self.plan.windows.len()
    }

    fn input(&self, _: &State, _: usize) {}

    fn run(&self, st: &mut State, op: usize, _: &(), tr: &mut Tracer) -> Result<Vec<u8>, String> {
        let w = &self.plan.windows[op];
        let pool = &self.plan.pool;
        for p in &w.calls {
            st.issued += 1;
            tr.span("core.start", || {
                st.sys
                    .call(st.stream, "echo")
                    .payload(p.bytes(pool))
                    .start()
            })
            .map_err(|e| format!("echo: {e:?}"))?;
        }
        st.issued += 1;
        tr.span("core.sync_call", || {
            st.sys
                .call(st.stream, "echo_sync")
                .payload(w.sync.bytes(pool))
                .sync()
        })
        .map_err(|e| format!("echo_sync: {e:?}"))
    }

    fn check(&self, st: &mut State, op: usize, _: &(), out: Vec<u8>) -> Result<(), String> {
        let w = &self.plan.windows[op];
        let pool = &self.plan.pool;
        let sync = w.sync.bytes(pool);
        check::same_bytes("echo_sync result", sync, &out)?;
        let sent: Vec<&[u8]> = w
            .calls
            .iter()
            .map(|p| p.bytes(pool))
            .chain([sync])
            .collect();
        let seen = std::mem::take(&mut *st.seen.lock().expect("no handler panics"));
        check::received_in_order(&sent, &seen)?;
        let stats = st
            .sys
            .stream_stats(st.stream)
            .map_err(|e| format!("{e:?}"))?;
        check::stream_accounting(&stats, st.issued)
    }

    fn calls(&self, st: &State) -> u64 {
        st.issued
    }

    fn layers(&self, st: &State, sim: &mut Values, host: &mut Values) {
        if let Ok(s) = st.sys.stream_stats(st.stream) {
            sim.insert(
                "core.doorbells_per_call",
                s.doorbells_rung as f64 / s.calls as f64,
            );
            sim.insert("core.zero_copy_grants", s.zero_copy_grants as f64);
            sim.insert("core.ring_full_stalls", s.ring_full_stalls as f64);
            sim.insert("core.steals", s.steals as f64);
        }
        host.insert("core.ring_codec_ns", ring_codec_ns(&self.plan));
    }

    fn span_layers(&self, tr: &Tracer, host: &mut Values) {
        host.insert("core.start_host_ns", span_p50(tr, "core.start", 1.0));
        host.insert(
            "core.sync_call_host_ns",
            span_p50(tr, "core.sync_call", 1.0),
        );
        let total = |name| {
            tr.samples
                .get(name)
                .map_or(0, |s: &Vec<u64>| s.iter().sum::<u64>())
        };
        let count = |name| tr.samples.get(name).map_or(0, |s: &Vec<u64>| s.len());
        // Every window's sync drains the window's async calls and itself.
        let drained = count("core.start") + count("core.sync_call");
        host.insert(
            "core.drain_host_ns_per_req",
            total("core.sync_call") as f64 / drained.max(1) as f64,
        );
    }
}

/// Simulated handler time: a fixed dispatch cost plus a touch of every
/// payload byte.
pub fn echo_cost(payload: &[u8]) -> SimNs {
    SimNs::from_nanos(100 + payload.len() as u64)
}

/// `encode_request` + `decode_request` over the plan's ring-slot payloads
/// (granted payloads cross the ring as a descriptor), ns per pair: the
/// median of several passes.
fn ring_codec_ns(plan: &SrpcPlan) -> f64 {
    let reqs: Vec<Request> = plan
        .windows
        .iter()
        .flat_map(|w| w.calls.iter().chain([&w.sync]))
        .filter(|p| p.len < ZERO_COPY_THRESHOLD)
        .map(|p| Request {
            name: "echo".to_string(),
            payload: p.bytes(&plan.pool).to_vec(),
        })
        .collect();
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for r in &reqs {
                let slot = encode_request(std::hint::black_box(r)).expect("ring-slot payload");
                std::hint::black_box(decode_request(&slot).expect("just encoded"));
            }
            t.elapsed().as_nanos() as f64 / reqs.len() as f64
        })
        .collect();
    median(&passes)
}
