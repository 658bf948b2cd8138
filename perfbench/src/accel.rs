//! `accel_offload`: a `CudaContext` and a `VtaContext` driven by one CPU
//! enclave through seeded steps — saxpy pipelines, GPU GEMMs and tiled VTA
//! int8 GEMMs — each checked against a CPU reference. Host time is in the
//! device kernel and ISA interpreters, runtime marshalling and the
//! simulator's DMA/TZASC/SMMU checks; the recorder is a small share.

use std::sync::Arc;
use std::time::Instant;

use cronus_core::{CronusSystem, EnclaveRef};
use cronus_crypto::measure;
use cronus_devices::gpu::{GpuDevice, GpuError, KernelArg, KernelFn};
use cronus_devices::{NpuBuffer, NpuDevice, VtaProgram};
use cronus_runtime::{CudaContext, CudaOptions, DevPtr, LaunchArg, NpuPtr, VtaContext, VtaOptions};
use cronus_sim::{CostModel, DeviceId, StreamId};
use cronus_workloads::kernels::{elementwise_desc, gemm_desc, matmul};
use cronus_workloads::vta_bench::tiled_gemm_programs;

use crate::check;
use crate::gen::{
    f32_operand, i8_operand, AccelPlan, Rng, Step, GEMM_MAX, SAXPY_MAX, VTA_DIM, VTA_TILE,
};
use crate::stats::median_u64;
use crate::sut;
use crate::trace::Tracer;
use crate::workload::{span_p50, Values, Workload};

const GPU_MOS: &[u8] = b"cuda-mos-v3";
const NPU_MOS: &[u8] = b"npu-mos-v1";

pub struct Accel {
    pub plan: AccelPlan,
}

pub struct State {
    sys: CronusSystem,
    cpu: EnclaveRef,
    cuda: CudaContext,
    vta: VtaContext,
    saxpy_bufs: [DevPtr; 2],
    gemm_bufs: [DevPtr; 3],
    /// `(inp, wgt, out)`.
    vta_bufs: [NpuPtr; 3],
}

/// One step's operands, already in their wire form.
pub enum Input {
    Saxpy {
        x: Vec<u8>,
        y: Vec<u8>,
    },
    Gemm {
        a: Vec<u8>,
        b: Vec<u8>,
    },
    Vta {
        inp: Vec<u8>,
        wgt: Vec<u8>,
        programs: Vec<VtaProgram>,
    },
}

fn cuda_err(e: cronus_runtime::CudaError) -> String {
    format!("cuda: {e:?}")
}

fn vta_err(e: cronus_runtime::VtaError) -> String {
    format!("vta: {e:?}")
}

const VTA_BYTES: usize = VTA_DIM * VTA_DIM;

/// `saxpy(a, x, y, n)`: `y[..n] += a * x[..n]`, so one buffer pair serves
/// every length.
fn saxpy() -> KernelFn {
    Arc::new(|mem, args| {
        let [KernelArg::Float(a), KernelArg::Buffer(x), KernelArg::Buffer(y), KernelArg::Int(n)] =
            *args
        else {
            return Err(GpuError::BadArg("saxpy(a, x, y, n)".into()));
        };
        let mut xs = vec![0; n as usize * 4];
        let mut ys = vec![0; n as usize * 4];
        mem.read_bytes(x, 0, &mut xs)?;
        mem.read_bytes(y, 0, &mut ys)?;
        let out = check::saxpy_ref(a, &check::f32s(&xs), &check::f32s(&ys));
        mem.write_bytes(y, 0, &check::f32_bytes(&out))
    })
}

impl Workload for Accel {
    type State = State;
    type Input = Input;
    type Output = Vec<u8>;

    fn setup(&self) -> Result<State, String> {
        let mut sys = sut::boot(GPU_MOS);
        let cpu = sut::client(&mut sys)?;
        let mut cuda = CudaContext::new(&mut sys, cpu, CudaOptions::default()).map_err(cuda_err)?;
        let mut vta = VtaContext::new(&mut sys, cpu, VtaOptions::default()).map_err(vta_err)?;
        let verifier = sut::verifier(&sys);
        for (e, image) in [(cuda.gpu, GPU_MOS), (vta.npu, NPU_MOS)] {
            let expect = sut::expectations(e, measure("mos-image", image), None);
            sut::attest(&sys, &verifier, e, &expect)?;
        }
        cuda.load_kernel(&mut sys, "saxpy", saxpy())
            .map_err(cuda_err)?;
        cuda.load_kernel(&mut sys, "matmul", matmul())
            .map_err(cuda_err)?;
        let mut saxpy_bufs = [DevPtr(0); 2];
        for b in &mut saxpy_bufs {
            *b = cuda
                .malloc(&mut sys, SAXPY_MAX as u64 * 4)
                .map_err(cuda_err)?;
        }
        let gemm_bytes = (GEMM_MAX * GEMM_MAX * 4) as u64;
        let mut gemm_bufs = [DevPtr(0); 3];
        for b in &mut gemm_bufs {
            *b = cuda.malloc(&mut sys, gemm_bytes).map_err(cuda_err)?;
        }
        let mut vta_bufs = [NpuPtr(0); 3];
        for b in &mut vta_bufs {
            *b = vta.alloc(&mut sys, VTA_BYTES as u64).map_err(vta_err)?;
        }
        cuda.synchronize(&mut sys).map_err(cuda_err)?;
        vta.synchronize(&mut sys).map_err(vta_err)?;
        Ok(State {
            sys,
            cpu,
            cuda,
            vta,
            saxpy_bufs,
            gemm_bufs,
            vta_bufs,
        })
    }

    fn sys<'a>(&self, st: &'a State) -> &'a CronusSystem {
        &st.sys
    }

    fn caller(&self, st: &State) -> EnclaveRef {
        st.cpu
    }

    fn ops(&self) -> usize {
        self.plan.steps.len()
    }

    fn input(&self, st: &State, op: usize) -> Input {
        match self.plan.steps[op] {
            Step::Saxpy { n, data_seed, .. } => {
                let mut rng = Rng::new(data_seed);
                let mut operand = || check::f32_bytes(&f32_operand(&mut rng, n));
                Input::Saxpy {
                    x: operand(),
                    y: operand(),
                }
            }
            Step::Gemm {
                m, n, k, data_seed, ..
            } => {
                let mut rng = Rng::new(data_seed);
                let a = check::f32_bytes(&f32_operand(&mut rng, m * k));
                let b = check::f32_bytes(&f32_operand(&mut rng, k * n));
                Input::Gemm { a, b }
            }
            Step::Vta { data_seed } => {
                let mut rng = Rng::new(data_seed);
                let inp = i8_operand(&mut rng, VTA_BYTES);
                let [bi, bw, bo] = st.vta_bufs.map(|p| NpuBuffer::from_raw(p.0));
                Input::Vta {
                    wgt: i8_operand(&mut rng, VTA_BYTES),
                    inp,
                    programs: tiled_gemm_programs(bi, bw, bo, VTA_DIM, VTA_TILE),
                }
            }
        }
    }

    fn run(
        &self,
        st: &mut State,
        op: usize,
        input: &Input,
        tr: &mut Tracer,
    ) -> Result<Vec<u8>, String> {
        let State {
            sys,
            cuda,
            vta,
            saxpy_bufs,
            gemm_bufs,
            vta_bufs,
            ..
        } = st;
        match (self.plan.steps[op], input) {
            (Step::Saxpy { n, a, .. }, Input::Saxpy { x, y }) => {
                let [dx, dy] = *saxpy_bufs;
                for (dst, bytes) in [(dx, x), (dy, y)] {
                    tr.span("runtime.cuda_h2d", || cuda.memcpy_h2d(sys, dst, bytes))
                        .map_err(cuda_err)?;
                }
                let args = [
                    LaunchArg::Float(a as f32),
                    LaunchArg::Ptr(dx),
                    LaunchArg::Ptr(dy),
                    LaunchArg::Int(n as i64),
                ];
                tr.span("runtime.cuda_launch", || {
                    cuda.launch(sys, "saxpy", &args, elementwise_desc(n))
                })
                .map_err(cuda_err)?;
                tr.span("runtime.cuda_d2h", || {
                    cuda.memcpy_d2h(sys, dy, n as u64 * 4)
                })
                .map_err(cuda_err)
            }
            (Step::Gemm { m, n, k, .. }, Input::Gemm { a, b }) => {
                let [da, db, dc] = *gemm_bufs;
                for (dst, bytes) in [(da, a), (db, b)] {
                    tr.span("runtime.cuda_h2d", || cuda.memcpy_h2d(sys, dst, bytes))
                        .map_err(cuda_err)?;
                }
                let dims = [m, n, k].map(|d| LaunchArg::Int(d as i64));
                let args = [
                    LaunchArg::Ptr(da),
                    LaunchArg::Ptr(db),
                    LaunchArg::Ptr(dc),
                    dims[0],
                    dims[1],
                    dims[2],
                ];
                tr.span("runtime.cuda_launch", || {
                    cuda.launch(sys, "matmul", &args, gemm_desc(m, n, k))
                })
                .map_err(cuda_err)?;
                tr.span("runtime.cuda_d2h", || {
                    cuda.memcpy_d2h(sys, dc, (m * n * 4) as u64)
                })
                .map_err(cuda_err)
            }
            (Step::Vta { .. }, Input::Vta { inp, wgt, programs }) => {
                let [di, dw, dout] = *vta_bufs;
                for (dst, v) in [(di, inp), (dw, wgt)] {
                    tr.span("runtime.vta_h2d", || vta.memcpy_h2d(sys, dst, v))
                        .map_err(vta_err)?;
                }
                for prog in programs {
                    tr.span("runtime.vta_run", || vta.run(sys, prog))
                        .map_err(vta_err)?;
                }
                tr.span("runtime.vta_d2h", || {
                    vta.memcpy_d2h(sys, dout, VTA_BYTES as u64)
                })
                .map_err(vta_err)
            }
            _ => unreachable!("inputs are generated from the step"),
        }
    }

    fn check(&self, _: &mut State, op: usize, input: &Input, out: Vec<u8>) -> Result<(), String> {
        let want =
            match (self.plan.steps[op], input) {
                (Step::Saxpy { a, .. }, Input::Saxpy { x, y }) => check::f32_bytes(
                    &check::saxpy_ref(a as f32, &check::f32s(x), &check::f32s(y)),
                ),
                (Step::Gemm { m, n, k, .. }, Input::Gemm { a, b }) => {
                    check::f32_bytes(&check::gemm_ref(&check::f32s(a), &check::f32s(b), m, n, k))
                }
                (Step::Vta { .. }, Input::Vta { inp, wgt, .. }) => {
                    check::vta_gemm_ref(inp, wgt, VTA_DIM)
                }
                _ => unreachable!("inputs are generated from the step"),
            };
        check::same_bytes("device result", &want, &out)
    }

    fn calls(&self, st: &State) -> u64 {
        [st.cuda.stream, st.vta.stream]
            .iter()
            .filter_map(|&s| st.sys.stream_stats(s).ok())
            .map(|s| s.calls)
            .sum()
    }

    fn layers(&self, _: &State, _: &mut Values, host: &mut Values) {
        let (gpu_us, npu_us) = standalone_devices(&self.plan);
        host.insert("devices.gpu_launch_host_us", gpu_us);
        host.insert("devices.npu_run_host_us", npu_us);
    }

    fn span_layers(&self, tr: &Tracer, host: &mut Values) {
        for (metric, span) in [
            ("runtime.cuda_h2d_host_us", "runtime.cuda_h2d"),
            ("runtime.cuda_launch_host_us", "runtime.cuda_launch"),
            ("runtime.cuda_d2h_host_us", "runtime.cuda_d2h"),
            ("runtime.vta_run_host_us", "runtime.vta_run"),
        ] {
            host.insert(metric, span_p50(tr, span, 1e3));
        }
    }
}

/// The plan's kernels and programs on a standalone `GpuDevice` and
/// `NpuDevice`, with no TEE or sRPC in the way: p50 µs per kernel launch
/// and per program run.
fn standalone_devices(plan: &AccelPlan) -> (f64, f64) {
    let cost = CostModel::default();
    let mut gpu = GpuDevice::gtx2080(DeviceId::new(90), StreamId::new(90));
    let g = gpu.create_context(1 << 30).expect("fresh device has room");
    gpu.register_kernel(g, "saxpy", saxpy())
        .expect("fresh context");
    gpu.register_kernel(g, "matmul", matmul())
        .expect("fresh context");
    let mut galloc = |len: usize| gpu.alloc(g, len as u64).expect("room");
    let saxpy_bufs = [0; 2].map(|_| galloc(SAXPY_MAX * 4));
    let gemm_bufs = [0; 3].map(|_| galloc(GEMM_MAX * GEMM_MAX * 4));
    let mut npu = NpuDevice::vta(DeviceId::new(91), StreamId::new(91));
    let v = npu.create_context(64 << 20).expect("fresh device has room");
    let [vi, vw, vo] = [0; 3].map(|_| npu.alloc(v, VTA_BYTES as u64).expect("room"));

    let (mut gpu_ns, mut npu_ns) = (Vec::new(), Vec::new());
    let mut launch = |gpu: &mut GpuDevice, kernel, args: &[KernelArg], desc| {
        let t = Instant::now();
        gpu.launch(&cost, g, kernel, args, desc)
            .expect("kernel runs");
        gpu_ns.push(t.elapsed().as_nanos() as u64);
        gpu.take_irqs();
    };
    for step in &plan.steps {
        let mut rng = Rng::new(match *step {
            Step::Saxpy { data_seed, .. }
            | Step::Gemm { data_seed, .. }
            | Step::Vta { data_seed, .. } => data_seed,
        });
        match *step {
            Step::Saxpy { n, a, .. } => {
                let [x, y] = saxpy_bufs;
                for buf in [x, y] {
                    let data = check::f32_bytes(&f32_operand(&mut rng, n));
                    gpu.write_buffer(g, buf, 0, &data).expect("in bounds");
                }
                let args = [
                    KernelArg::Float(a as f32),
                    KernelArg::Buffer(x),
                    KernelArg::Buffer(y),
                    KernelArg::Int(n as i64),
                ];
                launch(&mut gpu, "saxpy", &args, elementwise_desc(n));
            }
            Step::Gemm { m, n, k, .. } => {
                let [a, b, c] = gemm_bufs;
                for (buf, len) in [(a, m * k), (b, k * n)] {
                    let data = check::f32_bytes(&f32_operand(&mut rng, len));
                    gpu.write_buffer(g, buf, 0, &data).expect("in bounds");
                }
                let dims = [m, n, k].map(|d| KernelArg::Int(d as i64));
                let args = [
                    KernelArg::Buffer(a),
                    KernelArg::Buffer(b),
                    KernelArg::Buffer(c),
                    dims[0],
                    dims[1],
                    dims[2],
                ];
                launch(&mut gpu, "matmul", &args, gemm_desc(m, n, k));
            }
            Step::Vta { .. } => {
                for buf in [vi, vw] {
                    let data = i8_operand(&mut rng, VTA_BYTES);
                    npu.write_buffer(v, buf, 0, &data).expect("in bounds");
                }
                for prog in tiled_gemm_programs(vi, vw, vo, VTA_DIM, VTA_TILE) {
                    let t = Instant::now();
                    npu.run(&cost, v, &prog).expect("program runs");
                    npu_ns.push(t.elapsed().as_nanos() as u64);
                }
                npu.take_irqs();
            }
        }
    }
    (median_u64(&gpu_ns) / 1e3, median_u64(&npu_ns) / 1e3)
}
