//! The VTA NPU execution model.
//!
//! The paper "uses the fsim runtime code for the NPU mEnclave and the fsim
//! driver code for its mOS's HAL" (§V-B). This module is the client/server
//! pair over the simulated VTA device: buffer management, host↔device
//! copies through a trusted staging buffer, and submission of compiled
//! [`VtaProgram`]s.

use std::collections::BTreeMap;

use cronus_core::{
    Actor, CronusError, CronusSystem, EnclaveRef, SrpcError, StreamId, SystemError,
    DEFAULT_RING_PAGES,
};
use cronus_devices::npu::{AluOp, NpuBuffer, NpuContextId, VtaInsn, VtaProgram};
use cronus_devices::DeviceKind;
use cronus_mos::hal::DeviceCtx;
use cronus_mos::manifest::{Manifest, McallDecl};
use cronus_obs::{CountResource, Event, MeterScope, Principal, TimeCategory, Work};
use cronus_sim::addr::{VirtAddr, PAGE_SIZE};
use cronus_sim::pagetable::{Access, PagePerms};
use cronus_sim::SimNs;

use crate::wire::{Reader, WireError, Writer};

/// An NPU device pointer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NpuPtr(pub u64);

/// Errors from the VTA runtime.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum VtaError {
    /// sRPC transport error.
    Srpc(SrpcError),
    /// Enclave or stream setup rejected by the system layer.
    Setup(SystemError),
    /// Typed SPM/HAL/device error during setup or control operations.
    System(CronusError),
    /// Malformed response.
    Protocol,
    /// The enclave's device context is not an NPU context.
    WrongDeviceCtx,
}

impl std::fmt::Display for VtaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VtaError::Srpc(e) => write!(f, "srpc: {e}"),
            VtaError::Setup(e) => write!(f, "setup: {e}"),
            VtaError::System(e) => write!(f, "system: {e}"),
            VtaError::Protocol => f.write_str("malformed vta rpc response"),
            VtaError::WrongDeviceCtx => f.write_str("enclave is not backed by an npu context"),
        }
    }
}

impl std::error::Error for VtaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VtaError::Srpc(e) => Some(e),
            VtaError::Setup(e) => Some(e),
            VtaError::System(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SrpcError> for VtaError {
    fn from(e: SrpcError) -> Self {
        VtaError::Srpc(e)
    }
}

/// Options for the VTA context.
#[derive(Clone, Copy, Debug)]
pub struct VtaOptions {
    /// NPU memory quota.
    pub memory: u64,
    /// Descriptor ring pages.
    pub ring_pages: usize,
    /// Staging buffer pages.
    pub staging_pages: usize,
}

impl Default for VtaOptions {
    fn default() -> Self {
        VtaOptions {
            memory: 64 << 20,
            ring_pages: DEFAULT_RING_PAGES,
            staging_pages: 32,
        }
    }
}

/// The NPU mEnclave manifest.
pub fn vta_manifest(memory: u64) -> Manifest {
    Manifest::new(DeviceKind::Npu)
        .with_mecall(McallDecl::synchronous("vtaAlloc"))
        .with_mecall(McallDecl::asynchronous("vtaMemcpyH2D").idempotent())
        .with_mecall(McallDecl::synchronous("vtaMemcpyD2H").idempotent())
        .with_mecall(McallDecl::asynchronous("vtaRun"))
        .with_memory(memory)
}

/// Serializes a program into the wire format.
pub fn encode_program(prog: &VtaProgram) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(prog.insns.len() as u32);
    for insn in &prog.insns {
        match *insn {
            VtaInsn::LoadInp {
                src,
                offset,
                rows,
                cols,
                stride,
            } => {
                w.u8(0)
                    .u64(src.as_raw())
                    .u64(offset)
                    .u32(rows as u32)
                    .u32(cols as u32);
                w.u32(stride as u32);
            }
            VtaInsn::LoadWgt {
                src,
                offset,
                rows,
                cols,
                stride,
            } => {
                w.u8(1)
                    .u64(src.as_raw())
                    .u64(offset)
                    .u32(rows as u32)
                    .u32(cols as u32);
                w.u32(stride as u32);
            }
            VtaInsn::ResetAcc { rows, cols } => {
                w.u8(2).u32(rows as u32).u32(cols as u32);
            }
            VtaInsn::Gemm => {
                w.u8(3);
            }
            VtaInsn::Alu(op) => {
                w.u8(4);
                match op {
                    AluOp::AddImm(v) => w.u8(0).i64(v as i64),
                    AluOp::MaxImm(v) => w.u8(1).i64(v as i64),
                    AluOp::MinImm(v) => w.u8(2).i64(v as i64),
                    AluOp::ShrImm(v) => w.u8(3).i64(v as i64),
                };
            }
            VtaInsn::StoreAcc {
                dst,
                offset,
                stride,
            } => {
                w.u8(5).u64(dst.as_raw()).u64(offset).u32(stride as u32);
            }
        }
    }
    w.finish()
}

/// Deserializes a program from the wire format.
///
/// # Errors
///
/// [`WireError`] on malformed bytes.
pub fn decode_program(bytes: &[u8]) -> Result<VtaProgram, WireError> {
    let mut r = Reader::new(bytes);
    let n = r.u32()? as usize;
    let mut prog = VtaProgram::new();
    for _ in 0..n {
        let insn = match r.u8()? {
            0 => VtaInsn::LoadInp {
                src: NpuBuffer::from_raw(r.u64()?),
                offset: r.u64()?,
                rows: r.u32()? as usize,
                cols: r.u32()? as usize,
                stride: r.u32()? as usize,
            },
            1 => VtaInsn::LoadWgt {
                src: NpuBuffer::from_raw(r.u64()?),
                offset: r.u64()?,
                rows: r.u32()? as usize,
                cols: r.u32()? as usize,
                stride: r.u32()? as usize,
            },
            2 => VtaInsn::ResetAcc {
                rows: r.u32()? as usize,
                cols: r.u32()? as usize,
            },
            3 => VtaInsn::Gemm,
            4 => {
                let tag = r.u8()?;
                let v = r.i64()?;
                VtaInsn::Alu(match tag {
                    0 => AluOp::AddImm(v as i32),
                    1 => AluOp::MaxImm(v as i32),
                    2 => AluOp::MinImm(v as i32),
                    3 => AluOp::ShrImm(v as u8),
                    _ => return Err(WireError),
                })
            }
            5 => VtaInsn::StoreAcc {
                dst: NpuBuffer::from_raw(r.u64()?),
                offset: r.u64()?,
                stride: r.u32()? as usize,
            },
            _ => return Err(WireError),
        };
        prog.push(insn);
    }
    Ok(prog)
}

/// A live VTA context: a CPU mEnclave driving an NPU mEnclave over sRPC.
#[derive(Debug)]
pub struct VtaContext {
    /// Caller (CPU) enclave.
    pub cpu: EnclaveRef,
    /// NPU mEnclave.
    pub npu: EnclaveRef,
    /// sRPC stream.
    pub stream: StreamId,
    staging_caller_va: VirtAddr,
    staging_bytes: u64,
    staging_cursor: u64,
}

impl VtaContext {
    /// Creates the NPU mEnclave, stream, staging buffer and handlers.
    ///
    /// # Errors
    ///
    /// Creation/sharing failures.
    pub fn new(
        sys: &mut CronusSystem,
        cpu: EnclaveRef,
        opts: VtaOptions,
    ) -> Result<Self, VtaError> {
        let npu = sys
            .create_enclave(
                Actor::Enclave(cpu),
                vta_manifest(opts.memory),
                &BTreeMap::new(),
            )
            .map_err(VtaError::Setup)?;
        // A device context models one in-order command queue (CUDA default-
        // stream / VTA instruction-fetch semantics), so its sRPC stream is
        // pinned to a single lane: commands must not overlap on the virtual
        // clock. Multi-lane geometry is for independent service streams.
        let stream = sys
            .stream(cpu, npu)
            .rings(1)
            .pages(opts.ring_pages)
            .open()?;

        let (staging_share, staging_caller_va, staging_callee_va) = sys
            .spm_mut()
            .share_memory((cpu.asid, cpu.eid), (npu.asid, npu.eid), opts.staging_pages)
            .map_err(|e| VtaError::System(e.into()))?;
        let pages = sys
            .spm()
            .share_pages(staging_share)
            .map_err(|e| VtaError::System(e.into()))?
            .to_vec();
        let dma_stream = sys
            .spm()
            .mos(npu.asid)
            .map_err(|e| VtaError::System(e.into()))?
            .hal()
            .dma_stream();
        for ppn in &pages {
            sys.spm_mut()
                .machine_mut()
                .smmu_mut()
                .grant(dma_stream, *ppn, PagePerms::RW);
        }

        let nctx = Self::npu_ctx(sys, npu)?;
        Self::register_handlers(sys, npu, nctx, staging_callee_va);

        Ok(VtaContext {
            cpu,
            npu,
            stream,
            staging_caller_va,
            staging_bytes: opts.staging_pages as u64 * PAGE_SIZE,
            staging_cursor: 0,
        })
    }

    fn npu_ctx(sys: &CronusSystem, npu: EnclaveRef) -> Result<NpuContextId, VtaError> {
        let entry = sys
            .spm()
            .mos(npu.asid)
            .map_err(|e| VtaError::System(e.into()))?
            .manager()
            .entry(npu.eid)
            .map_err(|e| VtaError::System(e.into()))?;
        match entry.ctx {
            DeviceCtx::Npu(ctx) => Ok(ctx),
            _ => Err(VtaError::WrongDeviceCtx),
        }
    }

    fn register_handlers(
        sys: &mut CronusSystem,
        npu: EnclaveRef,
        nctx: NpuContextId,
        staging_va: VirtAddr,
    ) {
        sys.register_handler(
            npu,
            "vtaAlloc",
            Box::new(move |ctx, payload| {
                let len = Reader::new(payload).u64()?;
                let mos = ctx.spm.mos_mut(ctx.asid)?;
                let dev = mos.hal_mut().npu_mut()?;
                let buf = dev.alloc(nctx, len)?;
                let mut w = Writer::new();
                w.u64(buf.as_raw());
                Ok((w.finish(), SimNs::from_micros(2)))
            }),
        );

        sys.register_handler(
            npu,
            "vtaMemcpyH2D",
            Box::new(move |ctx, payload| {
                let mut r = Reader::new(payload);
                let dst = NpuBuffer::from_raw(r.u64()?);
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
                    total += mos.hal_mut().npu_copy_h2d(
                        machine,
                        bus,
                        nctx,
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

        sys.register_handler(
            npu,
            "vtaMemcpyD2H",
            Box::new(move |ctx, payload| {
                let mut r = Reader::new(payload);
                let src = NpuBuffer::from_raw(r.u64()?);
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
                    total += mos.hal_mut().npu_copy_d2h(
                        machine,
                        bus,
                        nctx,
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

        sys.register_handler(
            npu,
            "vtaRun",
            Box::new(move |ctx, payload| {
                let prog = decode_program(payload)?;
                let cm = ctx.spm.machine().cost().clone();
                let mos = ctx.spm.mos_mut(ctx.asid)?;
                let dev = mos.hal_mut().npu_mut()?;
                let t = dev.run(&cm, nctx, &prog)?;
                Ok((Vec::new(), t))
            }),
        );
    }

    /// Allocates NPU device memory.
    ///
    /// # Errors
    ///
    /// RPC/device errors.
    pub fn alloc(&mut self, sys: &mut CronusSystem, len: u64) -> Result<NpuPtr, VtaError> {
        let mut w = Writer::new();
        w.u64(len);
        let out = sys
            .call(self.stream, "vtaAlloc")
            .payload(&w.finish())
            .sync()?;
        Ok(NpuPtr(
            Reader::new(&out).u64().map_err(|_| VtaError::Protocol)?,
        ))
    }

    /// Staging copies are metered to the caller partition under this
    /// stream's sub-account.
    fn meter_scope(&self) -> MeterScope {
        MeterScope::principal(Principal(self.cpu.asid.as_u32())).with_stream(self.stream.as_u64())
    }

    fn stage_reserve(&mut self, sys: &mut CronusSystem, len: u64) -> Result<u64, VtaError> {
        if self.staging_cursor + len > self.staging_bytes {
            sys.sync(self.stream)?;
            self.staging_cursor = 0;
        }
        let off = self.staging_cursor;
        self.staging_cursor += len;
        Ok(off)
    }

    /// Host → NPU copy through staging.
    ///
    /// # Errors
    ///
    /// RPC/device errors.
    pub fn memcpy_h2d(
        &mut self,
        sys: &mut CronusSystem,
        dst: NpuPtr,
        data: &[u8],
    ) -> Result<(), VtaError> {
        let chunk_max = self.staging_bytes;
        let mut done = 0u64;
        while done < data.len() as u64 {
            let n = (data.len() as u64 - done).min(chunk_max);
            let off = self.stage_reserve(sys, n)?;
            // Same request id for the staging write and the device copy.
            let req = sys.alloc_req();
            sys.set_current_req(Some(req));
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
                Event::Count("vta.memcpy_bytes", &[("dir", "h2d")], n),
            ]);
            let mut w = Writer::new();
            w.u64(dst.0).u64(done).u64(off).u64(n);
            sys.call(self.stream, "vtaMemcpyH2D")
                .payload(&w.finish())
                .req(req)
                .start()?;
            done += n;
        }
        Ok(())
    }

    /// NPU → host copy (synchronous).
    ///
    /// # Errors
    ///
    /// RPC/device errors.
    pub fn memcpy_d2h(
        &mut self,
        sys: &mut CronusSystem,
        src: NpuPtr,
        len: u64,
    ) -> Result<Vec<u8>, VtaError> {
        let mut out = Vec::with_capacity(len as usize);
        let chunk_max = self.staging_bytes;
        let mut done = 0u64;
        while done < len {
            let n = (len - done).min(chunk_max);
            let off = self.stage_reserve(sys, n)?;
            let req = sys.alloc_req();
            let mut w = Writer::new();
            w.u64(src.0).u64(done).u64(off).u64(n);
            sys.call(self.stream, "vtaMemcpyD2H")
                .payload(&w.finish())
                .req(req)
                .sync()?;
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
                Event::Count("vta.memcpy_bytes", &[("dir", "d2h")], n),
            ]);
            sys.set_current_req(None);
            read?;
            out.extend_from_slice(&buf);
            done += n;
        }
        Ok(out)
    }

    /// Submits a compiled program asynchronously.
    ///
    /// # Errors
    ///
    /// RPC errors.
    pub fn run(&mut self, sys: &mut CronusSystem, prog: &VtaProgram) -> Result<(), VtaError> {
        sys.call(self.stream, "vtaRun")
            .payload(&encode_program(prog))
            .start()?;
        Ok(())
    }

    /// Waits for all submitted work.
    ///
    /// # Errors
    ///
    /// RPC errors.
    pub fn synchronize(&mut self, sys: &mut CronusSystem) -> Result<(), VtaError> {
        sys.sync(self.stream)?;
        self.staging_cursor = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cronus_spm::spm::{BootConfig, DeviceSpec, PartitionSpec};

    fn boot() -> (CronusSystem, EnclaveRef) {
        let mut sys = CronusSystem::boot(BootConfig {
            partitions: vec![
                PartitionSpec::new(1, b"cpu-mos", "v1", DeviceSpec::Cpu),
                PartitionSpec::new(3, b"npu-mos", "v1", DeviceSpec::Npu { memory: 1 << 26 }),
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

    #[test]
    fn program_codec_round_trips() {
        let mut prog = VtaProgram::new();
        prog.push(VtaInsn::LoadInp {
            src: NpuBuffer::from_raw(7),
            offset: 3,
            rows: 2,
            cols: 4,
            stride: 4,
        })
        .push(VtaInsn::LoadWgt {
            src: NpuBuffer::from_raw(8),
            offset: 0,
            rows: 4,
            cols: 4,
            stride: 4,
        })
        .push(VtaInsn::ResetAcc { rows: 2, cols: 4 })
        .push(VtaInsn::Gemm)
        .push(VtaInsn::Alu(AluOp::MaxImm(0)))
        .push(VtaInsn::Alu(AluOp::ShrImm(3)))
        .push(VtaInsn::StoreAcc {
            dst: NpuBuffer::from_raw(9),
            offset: 16,
            stride: 4,
        });
        let encoded = encode_program(&prog);
        assert_eq!(decode_program(&encoded).unwrap(), prog);
        assert!(decode_program(&encoded[..encoded.len() - 1]).is_err());
        assert!(decode_program(&[9, 0, 0, 0, 42]).is_err());
    }

    #[test]
    fn npu_matmul_end_to_end() {
        let (mut sys, cpu) = boot();
        let mut vta = VtaContext::new(&mut sys, cpu, VtaOptions::default()).unwrap();

        // out = relu(inp * wgt^T) with identity weights.
        let inp = vta.alloc(&mut sys, 4).unwrap();
        let wgt = vta.alloc(&mut sys, 4).unwrap();
        let out = vta.alloc(&mut sys, 4).unwrap();
        vta.memcpy_h2d(&mut sys, inp, &[1, 2, 3u8, 0xFF /* -1 */])
            .unwrap();
        vta.memcpy_h2d(&mut sys, wgt, &[1, 0, 0, 1]).unwrap();

        let mut prog = VtaProgram::new();
        prog.push(VtaInsn::LoadInp {
            src: NpuBuffer::from_raw(inp.0),
            offset: 0,
            rows: 2,
            cols: 2,
            stride: 2,
        })
        .push(VtaInsn::LoadWgt {
            src: NpuBuffer::from_raw(wgt.0),
            offset: 0,
            rows: 2,
            cols: 2,
            stride: 2,
        })
        .push(VtaInsn::ResetAcc { rows: 2, cols: 2 })
        .push(VtaInsn::Gemm)
        .push(VtaInsn::Alu(AluOp::MaxImm(0)))
        .push(VtaInsn::StoreAcc {
            dst: NpuBuffer::from_raw(out.0),
            offset: 0,
            stride: 2,
        });
        vta.run(&mut sys, &prog).unwrap();
        vta.synchronize(&mut sys).unwrap();

        let bytes = vta.memcpy_d2h(&mut sys, out, 4).unwrap();
        // [[1,2],[3,-1]] * I, relu => [[1,2],[3,0]]
        assert_eq!(bytes, vec![1, 2, 3, 0]);
    }

    #[test]
    fn npu_failure_propagates() {
        let (mut sys, cpu) = boot();
        let mut vta = VtaContext::new(&mut sys, cpu, VtaOptions::default()).unwrap();
        let buf = vta.alloc(&mut sys, 16).unwrap();
        sys.inject_partition_failure(vta.npu.asid).unwrap();
        let err = vta.memcpy_h2d(&mut sys, buf, &[1, 2, 3]).unwrap_err();
        assert!(
            matches!(err, VtaError::Srpc(SrpcError::PeerFailed { .. })),
            "{err:?}"
        );
    }
}
