//! `failover_churn`: the control plane. Each op is one cycle: spawn and
//! attest a GPU callee, open (or reopen) the stream, make a few verified
//! `echo_sync` calls, inject a GPU partition failure, check that the old
//! stream traps, and recover the partition. Host time is in the SPM
//! (share grant/revoke, stage-2 edits, clear and reload), crypto, the mOS
//! and the forensics ledger; simulated time is the restart path.

use std::collections::BTreeMap;
use std::time::Instant;

use cronus_core::{Actor, CronusSystem, EnclaveRef, SrpcError, StreamId};
use cronus_crypto::measure;
use cronus_devices::DeviceKind;
use cronus_mos::manager::EnclaveManager;
use cronus_mos::manifest::{Manifest, McallDecl, MosId};
use cronus_sim::{AsId, SimNs};
use cronus_spm::attest::{ClientVerifier, Expectations};
use cronus_spm::spm::asid_of;

use crate::check;
use crate::gen::ChurnPlan;
use crate::srpc::echo_cost;
use crate::stats::median;
use crate::sut;
use crate::trace::Tracer;
use crate::workload::{span_p50, Values, Workload};

pub struct Churn {
    pub plan: ChurnPlan,
    manifest: Manifest,
    images: BTreeMap<String, Vec<u8>>,
    measurement: cronus_crypto::Digest,
    mos_digest: cronus_crypto::Digest,
}

impl Churn {
    pub fn new(plan: ChurnPlan) -> Self {
        let manifest = Manifest::new(DeviceKind::Gpu)
            .with_mecall(McallDecl::synchronous("echo_sync"))
            .with_memory(1 << 20)
            .with_image("kernel.bin", measure("image", &plan.enclave_image));
        let images = BTreeMap::from([("kernel.bin".to_string(), plan.enclave_image.clone())]);
        Churn {
            measurement: EnclaveManager::measure(&manifest, &images),
            mos_digest: measure("mos-image", &plan.mos_image),
            plan,
            manifest,
            images,
        }
    }
}

pub struct State {
    sys: CronusSystem,
    cpu: EnclaveRef,
    gpu_asid: AsId,
    verifier: ClientVerifier,
    stream: Option<StreamId>,
    calls: u64,
}

/// What a cycle returns: the echo results and the old stream's answer
/// after the failure.
pub struct Output {
    echoes: Vec<Vec<u8>>,
    trap: Result<Vec<u8>, SrpcError>,
}

fn echo(
    _: &mut cronus_core::ServerCtx<'_>,
    p: &[u8],
) -> Result<(Vec<u8>, SimNs), cronus_core::CronusError> {
    Ok((p.to_vec(), echo_cost(p)))
}

impl Workload for Churn {
    type State = State;
    type Input = ();
    type Output = Output;

    fn setup(&self) -> Result<State, String> {
        let mut sys = sut::boot(&self.plan.mos_image);
        let cpu = sut::client(&mut sys)?;
        let verifier = sut::verifier(&sys);
        Ok(State {
            sys,
            cpu,
            gpu_asid: asid_of(MosId(2)),
            verifier,
            stream: None,
            calls: 0,
        })
    }

    fn sys<'a>(&self, st: &'a State) -> &'a CronusSystem {
        &st.sys
    }

    fn caller(&self, st: &State) -> EnclaveRef {
        st.cpu
    }

    fn ops(&self) -> usize {
        self.plan.cycles.len()
    }

    fn input(&self, _: &State, _: usize) {}

    fn run(&self, st: &mut State, op: usize, _: &(), tr: &mut Tracer) -> Result<Output, String> {
        let State {
            sys,
            cpu,
            gpu_asid,
            verifier,
            stream: current,
            calls,
        } = st;
        let gpu = tr
            .span("spm.create_enclave", || {
                sys.create_enclave(Actor::Enclave(*cpu), self.manifest.clone(), &self.images)
            })
            .map_err(|e| format!("spawn: {e}"))?;
        tr.span("core.register_handler", || {
            sys.register_handler(gpu, "echo_sync", Box::new(echo))
        });
        let report = tr
            .span("spm.attestation_report", || sys.attestation_report(gpu))
            .map_err(|e| format!("attestation report: {e}"))?;
        let expect: Expectations = sut::expectations(gpu, self.mos_digest, Some(self.measurement));
        tr.span("crypto.verify_report", || verifier.verify(&report, &expect))
            .map_err(|e| format!("attestation: {e:?}"))?;
        let stream = tr
            .span("core.stream_open", || match *current {
                None => sys.stream(*cpu, gpu).open(),
                Some(old) => sys.stream(*cpu, gpu).reopen(old),
            })
            .map_err(|e| format!("stream open: {e:?}"))?;
        *current = Some(stream);

        let pool = &self.plan.pool;
        let mut echoes = Vec::new();
        for p in &self.plan.cycles[op] {
            *calls += 1;
            let out = tr
                .span("core.sync_call", || {
                    sys.call(stream, "echo_sync").payload(p.bytes(pool)).sync()
                })
                .map_err(|e| format!("echo_sync: {e:?}"))?;
            echoes.push(out);
        }
        let failed_at = sys.enclave_time(*cpu);
        tr.span("spm.inject", || sys.inject_partition_failure(*gpu_asid))
            .map_err(|e| format!("inject: {e}"))?;
        *calls += 1;
        let trap = tr.span("core.trap_call", || {
            sys.call(stream, "echo_sync")
                .payload(b"after-failure")
                .sync()
        });
        let recovery = tr
            .span("spm.recover", || sys.recover_partition(*gpu_asid))
            .map_err(|e| format!("recover: {e}"))?;
        // The closed-loop client cannot spawn its next callee before the
        // partition is back: it waits out the partition's downtime.
        let back = failed_at + recovery.total();
        let now = sys.enclave_time(*cpu);
        if back > now {
            sys.advance_enclave(*cpu, back - now);
        }
        Ok(Output { echoes, trap })
    }

    fn check(&self, _: &mut State, op: usize, _: &(), out: Output) -> Result<(), String> {
        let sent = &self.plan.cycles[op];
        if out.echoes.len() != sent.len() {
            return Err(format!(
                "{} echoes for {} calls",
                out.echoes.len(),
                sent.len()
            ));
        }
        for (p, got) in sent.iter().zip(&out.echoes) {
            check::same_bytes("echo_sync result", p.bytes(&self.plan.pool), got)?;
        }
        match out.trap {
            Err(SrpcError::PeerFailed { .. }) => Ok(()),
            other => Err(format!(
                "old stream after failure: {other:?}, expected PeerFailed"
            )),
        }
    }

    fn calls(&self, st: &State) -> u64 {
        st.calls
    }

    fn layers(&self, _: &State, _: &mut Values, host: &mut Values) {
        host.insert(
            "crypto.measure_host_us",
            measure_host_us(&self.plan.mos_image),
        );
    }

    fn span_layers(&self, tr: &Tracer, host: &mut Values) {
        host.insert(
            "core.sync_call_host_ns",
            span_p50(tr, "core.sync_call", 1.0),
        );
        for (metric, span) in [
            ("core.stream_open_host_us", "core.stream_open"),
            ("spm.create_enclave_host_us", "spm.create_enclave"),
            ("spm.inject_host_us", "spm.inject"),
            ("spm.recover_host_us", "spm.recover"),
        ] {
            host.insert(metric, span_p50(tr, span, 1e3));
        }
    }
}

/// The mOS measurement on its own: µs per `measure` of the GPU partition's
/// image, the median of 64 runs.
fn measure_host_us(image: &[u8]) -> f64 {
    let runs: Vec<f64> = (0..64)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(measure("mos-image", std::hint::black_box(image)));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&runs)
}
