//! The CUDA-like execution model.
//!
//! The paper builds its CUDA mEnclave runtime from gdev + ocelot over the
//! nouveau driver (§V-B); this module is the equivalent layer over the
//! simulated GPU: a client-side API (`cudaMalloc`/`cudaMemcpy`/
//! `cudaLaunchKernel`/`cudaDeviceSynchronize`) that a CPU mEnclave uses to
//! drive a CUDA mEnclave over sRPC, plus the server-side mECall handlers
//! that execute inside the GPU partition.
//!
//! Bulk data moves through a dedicated trusted shared *staging buffer*
//! (distinct from the descriptor ring), and from there to the device by
//! SMMU-checked DMA — the same structure as pinned bounce buffers in a real
//! CUDA stack.

use std::collections::BTreeMap;

use cronus_core::{
    Actor, CronusError, CronusSystem, EnclaveRef, SrpcError, StreamId, SystemError,
    DEFAULT_RING_PAGES,
};
use cronus_devices::gpu::{GpuBuffer, GpuContextId, GpuKernelDesc, KernelArg, KernelFn};
use cronus_devices::DeviceKind;
use cronus_mos::hal::DeviceCtx;
use cronus_mos::manifest::{Manifest, McallDecl};
use cronus_obs::{CountResource, Event, MeterScope, Principal, TimeCategory, Work};
use cronus_sim::addr::{VirtAddr, PAGE_SIZE};
use cronus_sim::pagetable::{Access, PagePerms};
use cronus_sim::SimNs;

use crate::wire::{Reader, Writer};

/// A device pointer (CUDA `CUdeviceptr` analogue).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DevPtr(pub u64);

/// Errors from the CUDA runtime.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum CudaError {
    /// sRPC transport error (including peer-partition failure).
    Srpc(SrpcError),
    /// Enclave or stream setup rejected by the system layer.
    Setup(SystemError),
    /// Typed SPM/HAL/device error during setup or control operations.
    System(CronusError),
    /// Malformed response descriptor.
    Protocol,
    /// The enclave's device context is not a GPU context.
    WrongDeviceCtx,
}

impl std::fmt::Display for CudaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CudaError::Srpc(e) => write!(f, "srpc: {e}"),
            CudaError::Setup(e) => write!(f, "setup: {e}"),
            CudaError::System(e) => write!(f, "system: {e}"),
            CudaError::Protocol => f.write_str("malformed cuda rpc response"),
            CudaError::WrongDeviceCtx => f.write_str("enclave is not backed by a gpu context"),
        }
    }
}

impl std::error::Error for CudaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CudaError::Srpc(e) => Some(e),
            CudaError::Setup(e) => Some(e),
            CudaError::System(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SrpcError> for CudaError {
    fn from(e: SrpcError) -> Self {
        CudaError::Srpc(e)
    }
}

/// Options for creating a CUDA context.
#[derive(Clone, Copy, Debug)]
pub struct CudaOptions {
    /// GPU memory quota for the mEnclave (manifest `resources.memory`).
    pub memory: u64,
    /// Pages in the descriptor ring.
    pub ring_pages: usize,
    /// Pages in the bulk-data staging buffer.
    pub staging_pages: usize,
}

impl Default for CudaOptions {
    fn default() -> Self {
        CudaOptions {
            memory: 128 << 20,
            ring_pages: DEFAULT_RING_PAGES,
            staging_pages: 64,
        }
    }
}

/// The manifest of a CUDA mEnclave with the standard runtime mECalls.
pub fn cuda_manifest(memory: u64) -> Manifest {
    Manifest::new(DeviceKind::Gpu)
        .with_mecall(McallDecl::synchronous("cuMalloc"))
        .with_mecall(McallDecl::asynchronous("cuFree"))
        .with_mecall(McallDecl::asynchronous("cuMemcpyH2D").idempotent())
        .with_mecall(McallDecl::synchronous("cuMemcpyD2H").idempotent())
        .with_mecall(McallDecl::asynchronous("cuLaunchKernel"))
        .with_memory(memory)
}

/// A live CUDA context: a CPU mEnclave driving a CUDA mEnclave over sRPC.
#[derive(Debug)]
pub struct CudaContext {
    /// The caller (CPU) enclave.
    pub cpu: EnclaveRef,
    /// The CUDA mEnclave.
    pub gpu: EnclaveRef,
    /// The sRPC stream.
    pub stream: StreamId,
    staging_caller_va: VirtAddr,
    staging_bytes: u64,
    staging_cursor: u64,
}

impl CudaContext {
    /// Creates the CUDA mEnclave (owned by `cpu`), opens the sRPC stream,
    /// sets up the staging buffer with SMMU grants, and registers the
    /// server-side handlers.
    ///
    /// # Errors
    ///
    /// Enclave creation, stream setup or sharing failures.
    pub fn new(
        sys: &mut CronusSystem,
        cpu: EnclaveRef,
        opts: CudaOptions,
    ) -> Result<Self, CudaError> {
        let gpu = sys
            .create_enclave(
                Actor::Enclave(cpu),
                cuda_manifest(opts.memory),
                &BTreeMap::new(),
            )
            .map_err(CudaError::Setup)?;
        // A device context models one in-order command queue (CUDA default-
        // stream / VTA instruction-fetch semantics), so its sRPC stream is
        // pinned to a single lane: commands must not overlap on the virtual
        // clock. Multi-lane geometry is for independent service streams.
        let stream = sys
            .stream(cpu, gpu)
            .rings(1)
            .pages(opts.ring_pages)
            .open()?;

        // Staging buffer: a second trusted shared region for bulk data.
        let (staging_share, staging_caller_va, staging_callee_va) = sys
            .spm_mut()
            .share_memory((cpu.asid, cpu.eid), (gpu.asid, gpu.eid), opts.staging_pages)
            .map_err(|e| CudaError::System(e.into()))?;

        // The GPU's DMA engine must reach the staging pages (SMMU grants).
        let pages = sys
            .spm()
            .share_pages(staging_share)
            .map_err(|e| CudaError::System(e.into()))?
            .to_vec();
        let dma_stream = sys
            .spm()
            .mos(gpu.asid)
            .map_err(|e| CudaError::System(e.into()))?
            .hal()
            .dma_stream();
        for ppn in &pages {
            sys.spm_mut()
                .machine_mut()
                .smmu_mut()
                .grant(dma_stream, *ppn, PagePerms::RW);
        }

        // Look up the device context backing the CUDA mEnclave.
        let gctx = Self::gpu_ctx(sys, gpu)?;

        Self::register_handlers(sys, gpu, gctx, staging_callee_va);

        Ok(CudaContext {
            cpu,
            gpu,
            stream,
            staging_caller_va,
            staging_bytes: opts.staging_pages as u64 * PAGE_SIZE,
            staging_cursor: 0,
        })
    }

    fn gpu_ctx(sys: &CronusSystem, gpu: EnclaveRef) -> Result<GpuContextId, CudaError> {
        let entry = sys
            .spm()
            .mos(gpu.asid)
            .map_err(|e| CudaError::System(e.into()))?
            .manager()
            .entry(gpu.eid)
            .map_err(|e| CudaError::System(e.into()))?;
        match entry.ctx {
            DeviceCtx::Gpu(ctx) => Ok(ctx),
            _ => Err(CudaError::WrongDeviceCtx),
        }
    }

    fn register_handlers(
        sys: &mut CronusSystem,
        gpu: EnclaveRef,
        gctx: GpuContextId,
        staging_va: VirtAddr,
    ) {
        // cuMalloc(len) -> handle
        sys.register_handler(
            gpu,
            "cuMalloc",
            Box::new(move |ctx, payload| {
                let len = Reader::new(payload).u64()?;
                let mos = ctx.spm.mos_mut(ctx.asid)?;
                let gpu_dev = mos.hal_mut().gpu_mut()?;
                let buf = gpu_dev.alloc(gctx, len)?;
                let mut w = Writer::new();
                w.u64(buf.as_raw());
                Ok((w.finish(), SimNs::from_micros(2)))
            }),
        );

        // cuFree(handle)
        sys.register_handler(
            gpu,
            "cuFree",
            Box::new(move |ctx, payload| {
                let raw = Reader::new(payload).u64()?;
                let mos = ctx.spm.mos_mut(ctx.asid)?;
                let gpu_dev = mos.hal_mut().gpu_mut()?;
                gpu_dev.free(gctx, GpuBuffer::from_raw(raw))?;
                Ok((Vec::new(), SimNs::from_micros(1)))
            }),
        );

        // cuMemcpyH2D(dst, dst_off, staging_off, len): staging -> device DMA.
        sys.register_handler(
            gpu,
            "cuMemcpyH2D",
            Box::new(move |ctx, payload| {
                let mut r = Reader::new(payload);
                let dst = GpuBuffer::from_raw(r.u64()?);
                let dst_off = r.u64()?;
                let staging_off = r.u64()?;
                let len = r.u64()?;
                let eid = ctx.eid;
                let (mos, machine, bus) = ctx.spm.mos_machine_bus(ctx.asid)?;
                let mut total = SimNs::ZERO;
                let mut done = 0u64;
                while done < len {
                    let va = staging_va.add(staging_off + done);
                    let pa = mos.translate(eid, va, Access::Read)?;
                    let n = (len - done).min(PAGE_SIZE - va.page_offset());
                    total += mos.hal_mut().gpu_copy_h2d(
                        machine,
                        bus,
                        gctx,
                        dst,
                        dst_off + done,
                        pa,
                        n as usize,
                    )?;
                    done += n;
                }
                Ok((Vec::new(), total))
            }),
        );

        // cuMemcpyD2H(src, src_off, staging_off, len): device -> staging DMA.
        sys.register_handler(
            gpu,
            "cuMemcpyD2H",
            Box::new(move |ctx, payload| {
                let mut r = Reader::new(payload);
                let src = GpuBuffer::from_raw(r.u64()?);
                let src_off = r.u64()?;
                let staging_off = r.u64()?;
                let len = r.u64()?;
                let eid = ctx.eid;
                let (mos, machine, bus) = ctx.spm.mos_machine_bus(ctx.asid)?;
                let mut total = SimNs::ZERO;
                let mut done = 0u64;
                while done < len {
                    let va = staging_va.add(staging_off + done);
                    let pa = mos.translate(eid, va, Access::Write)?;
                    let n = (len - done).min(PAGE_SIZE - va.page_offset());
                    total += mos.hal_mut().gpu_copy_d2h(
                        machine,
                        bus,
                        gctx,
                        src,
                        src_off + done,
                        pa,
                        n as usize,
                    )?;
                    done += n;
                }
                Ok((Vec::new(), total))
            }),
        );

        // cuLaunchKernel(name, args, desc)
        sys.register_handler(
            gpu,
            "cuLaunchKernel",
            Box::new(move |ctx, payload| {
                let mut r = Reader::new(payload);
                let name = r.str()?;
                let argc = r.u32()? as usize;
                let mut args = Vec::with_capacity(argc);
                for _ in 0..argc {
                    let tag = r.u8()?;
                    args.push(match tag {
                        0 => KernelArg::Buffer(GpuBuffer::from_raw(r.u64()?)),
                        1 => KernelArg::Int(r.i64()?),
                        2 => KernelArg::Float(r.f32()?),
                        _ => return Err(CronusError::BadRequest),
                    });
                }
                let desc = GpuKernelDesc {
                    flops: r.f64()?,
                    mem_bytes: r.f64()?,
                    sm_demand: r.u32()?,
                };
                let cm = ctx.spm.machine().cost().clone();
                let mos = ctx.spm.mos_mut(ctx.asid)?;
                let gpu_dev = mos.hal_mut().gpu_mut()?;
                let t = gpu_dev.launch(&cm, gctx, &name, &args, desc)?;
                Ok((Vec::new(), t))
            }),
        );
    }

    /// Registers a kernel implementation on the device (module loading).
    ///
    /// # Errors
    ///
    /// [`CudaError::System`] on HAL errors.
    pub fn load_kernel(
        &self,
        sys: &mut CronusSystem,
        name: &str,
        f: KernelFn,
    ) -> Result<(), CudaError> {
        let gctx = Self::gpu_ctx(sys, self.gpu)?;
        sys.spm_mut()
            .mos_mut(self.gpu.asid)
            .map_err(|e| CudaError::System(e.into()))?
            .hal_mut()
            .gpu_mut()
            .map_err(|e| CudaError::System(e.into()))?
            .register_kernel(gctx, name, f)
            .map_err(|e| CudaError::System(e.into()))
    }

    /// `cudaMalloc`.
    ///
    /// # Errors
    ///
    /// RPC or device out-of-memory errors.
    pub fn malloc(&mut self, sys: &mut CronusSystem, len: u64) -> Result<DevPtr, CudaError> {
        let mut w = Writer::new();
        w.u64(len);
        let out = sys
            .call(self.stream, "cuMalloc")
            .payload(&w.finish())
            .sync()?;
        let raw = Reader::new(&out).u64().map_err(|_| CudaError::Protocol)?;
        Ok(DevPtr(raw))
    }

    /// `cudaFree` (asynchronous).
    ///
    /// # Errors
    ///
    /// RPC errors.
    pub fn free(&mut self, sys: &mut CronusSystem, ptr: DevPtr) -> Result<(), CudaError> {
        let mut w = Writer::new();
        w.u64(ptr.0);
        sys.call(self.stream, "cuFree")
            .payload(&w.finish())
            .start()?;
        Ok(())
    }

    /// Staging copies are metered to the caller partition under this
    /// stream's sub-account.
    fn meter_scope(&self) -> MeterScope {
        MeterScope::principal(Principal(self.cpu.asid.as_u32())).with_stream(self.stream.as_u64())
    }

    fn stage_reserve(&mut self, sys: &mut CronusSystem, len: u64) -> Result<u64, CudaError> {
        debug_assert!(len <= self.staging_bytes);
        if self.staging_cursor + len > self.staging_bytes {
            // Staging exhausted: wait for the consumer, then reuse from 0.
            sys.sync(self.stream)?;
            self.staging_cursor = 0;
        }
        let off = self.staging_cursor;
        self.staging_cursor += len;
        Ok(off)
    }

    /// `cudaMemcpyHostToDevice`: copies host bytes into device memory via
    /// the staging buffer. The caller pays the staging write; the device
    /// copy streams asynchronously.
    ///
    /// # Errors
    ///
    /// RPC or device errors.
    pub fn memcpy_h2d(
        &mut self,
        sys: &mut CronusSystem,
        dst: DevPtr,
        data: &[u8],
    ) -> Result<(), CudaError> {
        let chunk_max = self.staging_bytes;
        let mut done = 0u64;
        while done < data.len() as u64 {
            let n = (data.len() as u64 - done).min(chunk_max);
            let off = self.stage_reserve(sys, n)?;
            // One request per chunk: the staging write, any trap it takes,
            // and the device-side copy all trace back to the same id.
            let req = sys.alloc_req();
            sys.set_current_req(Some(req));
            // Caller writes the chunk into staging (charged as a memcpy).
            sys.shared_write(
                self.cpu,
                self.staging_caller_va.add(off),
                &data[done as usize..(done + n) as usize],
            )?;
            let cost = sys.spm().machine().cost().memcpy(n);
            sys.advance_enclave(self.cpu, cost);
            let track = format!("enclave:{}", self.cpu.eid);
            let now = sys.enclave_time(self.cpu);
            sys.recorder().record([
                Work::charge_detail(TimeCategory::Memcpy, "staging_write", cost)
                    .meter(CountResource::DmaBytes, n)
                    .scoped(self.meter_scope())
                    .span(&track, "staging_write", "memcpy", now - cost..now)
                    .into(),
                Event::Count("cuda.memcpy_bytes", &[("dir", "h2d")], n),
            ]);

            let mut w = Writer::new();
            w.u64(dst.0).u64(done).u64(off).u64(n);
            sys.call(self.stream, "cuMemcpyH2D")
                .payload(&w.finish())
                .req(req)
                .start()?;
            done += n;
        }
        Ok(())
    }

    /// `cudaMemcpyDeviceToHost`: synchronous copy back to the host.
    ///
    /// # Errors
    ///
    /// RPC or device errors.
    pub fn memcpy_d2h(
        &mut self,
        sys: &mut CronusSystem,
        src: DevPtr,
        len: u64,
    ) -> Result<Vec<u8>, CudaError> {
        let mut out = Vec::with_capacity(len as usize);
        let chunk_max = self.staging_bytes;
        let mut done = 0u64;
        while done < len {
            let n = (len - done).min(chunk_max);
            let off = self.stage_reserve(sys, n)?;
            let req = sys.alloc_req();
            let mut w = Writer::new();
            w.u64(src.0).u64(done).u64(off).u64(n);
            sys.call(self.stream, "cuMemcpyD2H")
                .payload(&w.finish())
                .req(req)
                .sync()?;
            // Caller reads the chunk out of staging, still under the same
            // request so the read-back traces to the device copy.
            sys.set_current_req(Some(req));
            let mut buf = vec![0u8; n as usize];
            let read = sys.shared_read(self.cpu, self.staging_caller_va.add(off), &mut buf);
            let cost = sys.spm().machine().cost().memcpy(n);
            sys.advance_enclave(self.cpu, cost);
            let track = format!("enclave:{}", self.cpu.eid);
            let now = sys.enclave_time(self.cpu);
            sys.recorder().record([
                Work::charge_detail(TimeCategory::Memcpy, "staging_read", cost)
                    .meter(CountResource::DmaBytes, n)
                    .scoped(self.meter_scope())
                    .span(&track, "staging_read", "memcpy", now - cost..now)
                    .into(),
                Event::Count("cuda.memcpy_bytes", &[("dir", "d2h")], n),
            ]);
            sys.set_current_req(None);
            read?;
            out.extend_from_slice(&buf);
            done += n;
        }
        Ok(out)
    }

    /// `cudaLaunchKernel` (asynchronous).
    ///
    /// # Errors
    ///
    /// RPC errors; unknown kernels surface at the next synchronization.
    pub fn launch(
        &mut self,
        sys: &mut CronusSystem,
        kernel: &str,
        args: &[LaunchArg],
        desc: GpuKernelDesc,
    ) -> Result<(), CudaError> {
        let mut w = Writer::new();
        w.str(kernel).u32(args.len() as u32);
        for a in args {
            match a {
                LaunchArg::Ptr(p) => {
                    w.u8(0).u64(p.0);
                }
                LaunchArg::Int(v) => {
                    w.u8(1).i64(*v);
                }
                LaunchArg::Float(v) => {
                    w.u8(2).f32(*v);
                }
            }
        }
        w.f64(desc.flops).f64(desc.mem_bytes).u32(desc.sm_demand);
        sys.call(self.stream, "cuLaunchKernel")
            .payload(&w.finish())
            .start()?;
        Ok(())
    }

    /// `cudaDeviceSynchronize`.
    ///
    /// # Errors
    ///
    /// RPC errors, including peer failure.
    pub fn synchronize(&mut self, sys: &mut CronusSystem) -> Result<(), CudaError> {
        sys.sync(self.stream)?;
        self.staging_cursor = 0;
        Ok(())
    }

    /// Peer-to-peer copy to another GPU context's device over PCIe
    /// (Fig. 11b's direct GPU-GPU path over trusted shared device memory).
    /// Returns the simulated transfer time, charged to the caller enclave.
    ///
    /// # Errors
    ///
    /// Bus errors when either device is missing.
    pub fn p2p_copy(
        &mut self,
        sys: &mut CronusSystem,
        other: &CudaContext,
        bytes: u64,
    ) -> Result<SimNs, CudaError> {
        let from = sys
            .spm()
            .mos(self.gpu.asid)
            .map_err(|e| CudaError::System(e.into()))?
            .hal()
            .device_id();
        let to = sys
            .spm()
            .mos(other.gpu.asid)
            .map_err(|e| CudaError::System(e.into()))?
            .hal()
            .device_id();
        let t = {
            let spm = sys.spm();
            spm.bus()
                .dma_peer_to_peer(spm.machine(), from, to, bytes)
                .map_err(|e| CudaError::System(e.into()))?
        };
        sys.advance_enclave(self.cpu, t);
        sys.recorder().record([
            Work::charge_detail(TimeCategory::Memcpy, "p2p", t)
                .meter(CountResource::DmaBytes, bytes)
                .scoped(self.meter_scope())
                .into(),
            Event::Count("cuda.memcpy_bytes", &[("dir", "p2p")], bytes),
        ]);
        Ok(t)
    }
}

/// A kernel launch argument (client side).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LaunchArg {
    /// Device pointer.
    Ptr(DevPtr),
    /// Integer scalar.
    Int(i64),
    /// Float scalar.
    Float(f32),
}

#[cfg(test)]
mod tests {
    use super::*;
    use cronus_core::CronusSystem;
    use cronus_devices::gpu::GpuError;
    use cronus_spm::spm::{BootConfig, DeviceSpec, PartitionSpec};
    use std::sync::Arc;

    fn boot() -> (CronusSystem, EnclaveRef) {
        let mut sys = CronusSystem::boot(BootConfig {
            partitions: vec![
                PartitionSpec::new(1, b"cpu-mos", "v1", DeviceSpec::Cpu),
                PartitionSpec::new(
                    2,
                    b"cuda-mos",
                    "v3",
                    DeviceSpec::Gpu {
                        memory: 1 << 28,
                        sms: 46,
                    },
                ),
            ],
            ..Default::default()
        });
        let app = sys.create_app();
        let cpu = sys
            .create_enclave(
                Actor::App(app),
                Manifest::new(DeviceKind::Cpu).with_memory(1 << 20),
                &BTreeMap::new(),
            )
            .unwrap();
        (sys, cpu)
    }

    fn saxpy_kernel() -> KernelFn {
        Arc::new(|mem, args| {
            let (a, x, y) = match args {
                [KernelArg::Float(a), KernelArg::Buffer(x), KernelArg::Buffer(y)] => (*a, *x, *y),
                _ => return Err(GpuError::BadArg("saxpy(a, x, y)".into())),
            };
            let xs = mem.read_f32s(x)?;
            let mut ys = mem.read_f32s(y)?;
            for (yi, xi) in ys.iter_mut().zip(&xs) {
                *yi += a * xi;
            }
            mem.write_f32s(y, &ys)
        })
    }

    fn f32s_to_bytes(v: &[f32]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    fn bytes_to_f32s(b: &[u8]) -> Vec<f32> {
        b.chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn saxpy_end_to_end() {
        let (mut sys, cpu) = boot();
        let mut cuda = CudaContext::new(&mut sys, cpu, CudaOptions::default()).unwrap();
        cuda.load_kernel(&mut sys, "saxpy", saxpy_kernel()).unwrap();

        let n = 1024usize;
        let xs: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let ys: Vec<f32> = vec![1.0; n];

        let dx = cuda.malloc(&mut sys, (n * 4) as u64).unwrap();
        let dy = cuda.malloc(&mut sys, (n * 4) as u64).unwrap();
        cuda.memcpy_h2d(&mut sys, dx, &f32s_to_bytes(&xs)).unwrap();
        cuda.memcpy_h2d(&mut sys, dy, &f32s_to_bytes(&ys)).unwrap();
        cuda.launch(
            &mut sys,
            "saxpy",
            &[
                LaunchArg::Float(2.0),
                LaunchArg::Ptr(dx),
                LaunchArg::Ptr(dy),
            ],
            GpuKernelDesc {
                flops: 2.0 * n as f64,
                mem_bytes: 12.0 * n as f64,
                sm_demand: 4,
            },
        )
        .unwrap();
        let out = cuda.memcpy_d2h(&mut sys, dy, (n * 4) as u64).unwrap();
        let result = bytes_to_f32s(&out);
        for (i, v) in result.iter().enumerate() {
            assert_eq!(*v, 1.0 + 2.0 * i as f32, "element {i}");
        }
        cuda.free(&mut sys, dx).unwrap();
        cuda.free(&mut sys, dy).unwrap();
        cuda.synchronize(&mut sys).unwrap();
    }

    #[test]
    fn large_transfer_spans_staging() {
        let (mut sys, cpu) = boot();
        let mut cuda = CudaContext::new(
            &mut sys,
            cpu,
            CudaOptions {
                staging_pages: 2,
                ..Default::default()
            },
        )
        .unwrap();
        // 64 KiB through an 8 KiB staging buffer.
        let data: Vec<u8> = (0..65536u32).map(|i| (i % 251) as u8).collect();
        let d = cuda.malloc(&mut sys, data.len() as u64).unwrap();
        cuda.memcpy_h2d(&mut sys, d, &data).unwrap();
        let out = cuda.memcpy_d2h(&mut sys, d, data.len() as u64).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn async_launches_overlap_with_caller() {
        let (mut sys, cpu) = boot();
        let mut cuda = CudaContext::new(&mut sys, cpu, CudaOptions::default()).unwrap();
        cuda.load_kernel(&mut sys, "noop", Arc::new(|_, _| Ok(())))
            .unwrap();
        let t0 = sys.enclave_time(cpu);
        for _ in 0..50 {
            cuda.launch(
                &mut sys,
                "noop",
                &[],
                GpuKernelDesc {
                    flops: 1e8,
                    mem_bytes: 0.0,
                    sm_demand: 46,
                },
            )
            .unwrap();
        }
        let streamed = sys.enclave_time(cpu) - t0;
        cuda.synchronize(&mut sys).unwrap();
        let synced = sys.enclave_time(cpu) - t0;
        assert!(
            streamed * 10 < synced,
            "caller streamed ahead: {streamed} vs {synced}"
        );
    }

    #[test]
    fn unknown_kernel_surfaces_at_sync() {
        let (mut sys, cpu) = boot();
        let mut cuda = CudaContext::new(&mut sys, cpu, CudaOptions::default()).unwrap();
        cuda.launch(
            &mut sys,
            "never_loaded",
            &[],
            GpuKernelDesc {
                flops: 1.0,
                mem_bytes: 0.0,
                sm_demand: 1,
            },
        )
        .unwrap();
        // Async error: delivered via the result slot; explicit sync succeeds
        // but a following synchronous call observes device state. For the
        // runtime, the contract is that sync itself does not panic.
        cuda.synchronize(&mut sys).unwrap();
    }

    #[test]
    fn gpu_partition_failure_propagates() {
        let (mut sys, cpu) = boot();
        let mut cuda = CudaContext::new(&mut sys, cpu, CudaOptions::default()).unwrap();
        let d = cuda.malloc(&mut sys, 1024).unwrap();
        sys.inject_partition_failure(cuda.gpu.asid).unwrap();
        let err = cuda.memcpy_h2d(&mut sys, d, &[0u8; 16]).unwrap_err();
        assert!(
            matches!(err, CudaError::Srpc(SrpcError::PeerFailed { .. })),
            "got {err:?}"
        );
    }
}
