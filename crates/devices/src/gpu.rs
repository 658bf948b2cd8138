//! A CUDA-class GPU simulator with spatial sharing.
//!
//! Stands in for the paper's GTX 2080 driven by nouveau/gdev. The device:
//!
//! * holds device DRAM partitioned into per-context buffers; contexts model
//!   the "GPU virtual address isolation for isolating different mEnclaves'
//!   code" (§V-B) — a buffer handle from one context is invisible to another,
//! * runs *named kernels that really compute* (registered as Rust closures
//!   by the CUDA runtime layer, the analogue of loading a `.cubin`),
//! * models MPS-style spatial sharing: concurrent contexts split the SMs and
//!   memory bandwidth, so small kernels from different tenants overlap until
//!   the machine saturates — the effect behind Fig. 11a,
//! * can be fully [`reset`](crate::SimDevice::reset) so failover clears all
//!   tenant state (attack A3 in §IV-D).

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use cronus_crypto::{KeyPair, PublicKey, Signature};
use cronus_obs::{Event, FlightRecorder, QueueKind, Served, Work};
use cronus_sim::tzpc::DeviceId;
use cronus_sim::{CostModel, SimNs, StreamId};

use crate::{device_rot_keypair, DeviceKind, SimDevice};

/// Completion-IRQ queue slots a driver ring would provide.
pub const IRQ_QUEUE_SLOTS: u64 = 64;

/// A device's completion-IRQ queue as the queue observatory sees it: each
/// interrupt is raised when its work finishes and waits until the driver's
/// ISR services it.
#[derive(Debug)]
pub(crate) struct CompletionIrqs {
    station: String,
    raised: VecDeque<SimNs>,
}

impl CompletionIrqs {
    /// The `<kind>:<id>.completion` station.
    pub(crate) fn new(kind: &str, id: DeviceId) -> Self {
        CompletionIrqs {
            station: format!("{kind}:{}.completion", id.as_u32()),
            raised: VecDeque::new(),
        }
    }

    pub(crate) fn declare(&self) -> Event<'_> {
        Event::Declare(&self.station, QueueKind::Completion, IRQ_QUEUE_SLOTS)
    }

    /// Raises one interrupt at `at`.
    pub(crate) fn raise(&mut self, at: SimNs) -> Event<'_> {
        self.raised.push_back(at);
        Event::Enqueued(&self.station, at)
    }

    /// The ISR: services every raised interrupt at `now`.
    pub(crate) fn service(&mut self, rec: &FlightRecorder) {
        let now = rec.total_elapsed();
        let station = &self.station;
        rec.record(self.raised.drain(..).map(|raised| {
            let at = now.max(raised);
            Served::at(station, raised, at, at)
        }));
    }

    /// Reset discards in-flight completions: the flush shows the drop to
    /// the observatory rather than a stuck depth.
    pub(crate) fn flush(&mut self, rec: &FlightRecorder) {
        self.raised.clear();
        rec.record([Event::Flushed(&self.station, rec.total_elapsed(), None)]);
    }
}

/// Handle to a GPU execution context (one spatially sharing tenant).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GpuContextId(u32);

/// Handle to a device-memory buffer. Handles are context-scoped: using a
/// handle with the wrong context fails, enforcing VA isolation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GpuBuffer(u64);

impl GpuBuffer {
    /// Reconstructs a handle from its raw id (runtime wire format).
    pub const fn from_raw(raw: u64) -> Self {
        GpuBuffer(raw)
    }

    /// The raw handle id (runtime wire format).
    pub const fn as_raw(self) -> u64 {
        self.0
    }
}

/// An argument passed to a kernel launch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KernelArg {
    /// A device buffer.
    Buffer(GpuBuffer),
    /// A 64-bit integer scalar.
    Int(i64),
    /// A 32-bit float scalar.
    Float(f32),
}

/// Errors raised by GPU operations.
#[derive(Clone, Debug, PartialEq)]
pub enum GpuError {
    /// The context id is stale or belongs to a cleared device.
    UnknownContext(GpuContextId),
    /// The buffer handle is unknown *to this context* — either never
    /// allocated or owned by a different tenant.
    UnknownBuffer(GpuBuffer),
    /// The context's memory quota or the device capacity is exhausted.
    OutOfMemory { requested: u64, available: u64 },
    /// No kernel with this name is loaded in the context.
    UnknownKernel(String),
    /// A buffer access fell outside the allocation.
    OutOfBounds {
        buffer: GpuBuffer,
        offset: u64,
        len: u64,
    },
    /// The kernel rejected its arguments.
    BadArg(String),
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::UnknownContext(c) => write!(f, "unknown gpu context {c:?}"),
            GpuError::UnknownBuffer(b) => write!(f, "unknown gpu buffer {b:?}"),
            GpuError::OutOfMemory {
                requested,
                available,
            } => {
                write!(
                    f,
                    "gpu out of memory: requested {requested}, available {available}"
                )
            }
            GpuError::UnknownKernel(k) => write!(f, "unknown kernel {k:?}"),
            GpuError::OutOfBounds {
                buffer,
                offset,
                len,
            } => {
                write!(f, "access [{offset}, +{len}) out of bounds for {buffer:?}")
            }
            GpuError::BadArg(msg) => write!(f, "bad kernel argument: {msg}"),
        }
    }
}

impl std::error::Error for GpuError {}

/// Device-memory access handed to a running kernel. All reads and writes are
/// confined to the launching context's buffers.
pub trait GpuMemAccess {
    /// Reads bytes from a buffer.
    ///
    /// # Errors
    ///
    /// [`GpuError::UnknownBuffer`] or [`GpuError::OutOfBounds`].
    fn read_bytes(&self, buf: GpuBuffer, offset: u64, out: &mut [u8]) -> Result<(), GpuError>;

    /// Writes bytes to a buffer.
    ///
    /// # Errors
    ///
    /// [`GpuError::UnknownBuffer`] or [`GpuError::OutOfBounds`].
    fn write_bytes(&mut self, buf: GpuBuffer, offset: u64, data: &[u8]) -> Result<(), GpuError>;

    /// Length of a buffer in bytes.
    ///
    /// # Errors
    ///
    /// [`GpuError::UnknownBuffer`].
    fn buffer_len(&self, buf: GpuBuffer) -> Result<u64, GpuError>;

    /// Reads a whole buffer as `f32`s.
    ///
    /// # Errors
    ///
    /// Propagates buffer errors; the length is truncated to whole floats.
    fn read_f32s(&self, buf: GpuBuffer) -> Result<Vec<f32>, GpuError> {
        let len = self.buffer_len(buf)? as usize / 4 * 4;
        let mut bytes = vec![0u8; len];
        self.read_bytes(buf, 0, &mut bytes)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// Overwrites a buffer prefix with `values` as little-endian `f32`s.
    ///
    /// # Errors
    ///
    /// Propagates buffer errors.
    fn write_f32s(&mut self, buf: GpuBuffer, values: &[f32]) -> Result<(), GpuError> {
        let mut bytes = Vec::with_capacity(values.len() * 4);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.write_bytes(buf, 0, &bytes)
    }
}

/// A kernel implementation: the Rust closure standing in for compiled SASS.
pub type KernelFn =
    Arc<dyn Fn(&mut dyn GpuMemAccess, &[KernelArg]) -> Result<(), GpuError> + Send + Sync>;

/// Description of a kernel launch's cost for the contention model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpuKernelDesc {
    /// Floating point work in FLOPs.
    pub flops: f64,
    /// DRAM traffic in bytes.
    pub mem_bytes: f64,
    /// SMs the launch can usefully occupy (grid width).
    pub sm_demand: u32,
}

struct GpuContextState {
    buffers: HashMap<u64, Vec<u8>>,
    kernels: HashMap<String, KernelFn>,
    quota: u64,
    used: u64,
    kernels_launched: u64,
}

struct ContextMem<'a> {
    buffers: &'a mut HashMap<u64, Vec<u8>>,
}

impl GpuMemAccess for ContextMem<'_> {
    fn read_bytes(&self, buf: GpuBuffer, offset: u64, out: &mut [u8]) -> Result<(), GpuError> {
        let data = self
            .buffers
            .get(&buf.0)
            .ok_or(GpuError::UnknownBuffer(buf))?;
        let end = offset as usize + out.len();
        if end > data.len() {
            return Err(GpuError::OutOfBounds {
                buffer: buf,
                offset,
                len: out.len() as u64,
            });
        }
        out.copy_from_slice(&data[offset as usize..end]);
        Ok(())
    }

    fn write_bytes(&mut self, buf: GpuBuffer, offset: u64, data: &[u8]) -> Result<(), GpuError> {
        let dst = self
            .buffers
            .get_mut(&buf.0)
            .ok_or(GpuError::UnknownBuffer(buf))?;
        let end = offset as usize + data.len();
        if end > dst.len() {
            return Err(GpuError::OutOfBounds {
                buffer: buf,
                offset,
                len: data.len() as u64,
            });
        }
        dst[offset as usize..end].copy_from_slice(data);
        Ok(())
    }

    fn buffer_len(&self, buf: GpuBuffer) -> Result<u64, GpuError> {
        self.buffers
            .get(&buf.0)
            .map(|d| d.len() as u64)
            .ok_or(GpuError::UnknownBuffer(buf))
    }
}

/// The simulated GPU.
pub struct GpuDevice {
    id: DeviceId,
    stream: StreamId,
    rot: KeyPair,
    capacity: u64,
    used: u64,
    sm_count: u32,
    contexts: HashMap<u32, GpuContextState>,
    next_ctx: u32,
    next_buf: u64,
    total_launches: u64,
    pending_irqs: u32,
    irqs: CompletionIrqs,
    recorder: FlightRecorder,
}

impl fmt::Debug for GpuDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GpuDevice")
            .field("id", &self.id)
            .field("contexts", &self.contexts.len())
            .field("used", &self.used)
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl GpuDevice {
    /// Creates a GPU with `capacity` bytes of device DRAM and `sm_count`
    /// streaming multiprocessors.
    pub fn new(id: DeviceId, stream: StreamId, capacity: u64, sm_count: u32) -> Self {
        GpuDevice {
            id,
            stream,
            rot: device_rot_keypair("nvidia", id),
            capacity,
            used: 0,
            sm_count,
            contexts: HashMap::new(),
            next_ctx: 1,
            next_buf: 1,
            total_launches: 0,
            pending_irqs: 0,
            irqs: CompletionIrqs::new("gpu", id),
            recorder: FlightRecorder::new(),
        }
    }

    /// Replaces the device's flight recorder (a standalone device records
    /// into its own): kernel launches draw spans on the `gpu:<id>` track
    /// plus launch/latency/occupancy metrics, and the completion-IRQ queue
    /// reports to the queue observatory.
    pub fn set_recorder(&mut self, rec: FlightRecorder) {
        rec.record([self.irqs.declare()]);
        self.recorder = rec;
    }

    /// Creates a GTX 2080-class GPU (8 GiB, 46 SMs) scaled to the cost
    /// model's defaults.
    pub fn gtx2080(id: DeviceId, stream: StreamId) -> Self {
        GpuDevice::new(id, stream, 8 << 30, 46)
    }

    /// Opens a context with a device-memory `quota` (from the manifest's
    /// `resources.memory`).
    ///
    /// # Errors
    ///
    /// [`GpuError::OutOfMemory`] if the quota cannot be reserved.
    pub fn create_context(&mut self, quota: u64) -> Result<GpuContextId, GpuError> {
        if self.used + quota > self.capacity {
            return Err(GpuError::OutOfMemory {
                requested: quota,
                available: self.capacity - self.used,
            });
        }
        self.used += quota;
        let id = self.next_ctx;
        self.next_ctx += 1;
        self.contexts.insert(
            id,
            GpuContextState {
                buffers: HashMap::new(),
                kernels: HashMap::new(),
                quota,
                used: 0,
                kernels_launched: 0,
            },
        );
        Ok(GpuContextId(id))
    }

    /// Destroys a context, zeroing and releasing all of its memory.
    ///
    /// # Errors
    ///
    /// [`GpuError::UnknownContext`].
    pub fn destroy_context(&mut self, ctx: GpuContextId) -> Result<(), GpuError> {
        let mut state = self
            .contexts
            .remove(&ctx.0)
            .ok_or(GpuError::UnknownContext(ctx))?;
        for buf in state.buffers.values_mut() {
            buf.fill(0);
        }
        self.used -= state.quota;
        Ok(())
    }

    fn ctx(&self, ctx: GpuContextId) -> Result<&GpuContextState, GpuError> {
        self.contexts
            .get(&ctx.0)
            .ok_or(GpuError::UnknownContext(ctx))
    }

    fn ctx_mut(&mut self, ctx: GpuContextId) -> Result<&mut GpuContextState, GpuError> {
        self.contexts
            .get_mut(&ctx.0)
            .ok_or(GpuError::UnknownContext(ctx))
    }

    /// Allocates `len` bytes of device memory in `ctx`.
    ///
    /// # Errors
    ///
    /// [`GpuError::UnknownContext`] or [`GpuError::OutOfMemory`] when the
    /// context quota is exhausted.
    pub fn alloc(&mut self, ctx: GpuContextId, len: u64) -> Result<GpuBuffer, GpuError> {
        let handle = self.next_buf;
        let state = self.ctx_mut(ctx)?;
        if state.used + len > state.quota {
            return Err(GpuError::OutOfMemory {
                requested: len,
                available: state.quota - state.used,
            });
        }
        state.used += len;
        state.buffers.insert(handle, vec![0u8; len as usize]);
        self.next_buf += 1;
        Ok(GpuBuffer(handle))
    }

    /// Frees a buffer, zeroing it first.
    ///
    /// # Errors
    ///
    /// [`GpuError::UnknownContext`] or [`GpuError::UnknownBuffer`].
    pub fn free(&mut self, ctx: GpuContextId, buf: GpuBuffer) -> Result<(), GpuError> {
        let state = self.ctx_mut(ctx)?;
        let mut data = state
            .buffers
            .remove(&buf.0)
            .ok_or(GpuError::UnknownBuffer(buf))?;
        data.fill(0);
        state.used -= data.len() as u64;
        Ok(())
    }

    /// Copies host bytes into a device buffer (the device side of
    /// `cudaMemcpyHostToDevice`; the PCIe/SMMU cost is charged by the HAL).
    ///
    /// # Errors
    ///
    /// Buffer/context errors as above.
    pub fn write_buffer(
        &mut self,
        ctx: GpuContextId,
        buf: GpuBuffer,
        offset: u64,
        data: &[u8],
    ) -> Result<(), GpuError> {
        self.recorder.record([Event::Count(
            "gpu.dma_bytes",
            &[("dir", "h2d")],
            data.len() as u64,
        )]);
        let state = self.ctx_mut(ctx)?;
        ContextMem {
            buffers: &mut state.buffers,
        }
        .write_bytes(buf, offset, data)
    }

    /// Copies a device buffer out to host bytes (`cudaMemcpyDeviceToHost`).
    ///
    /// # Errors
    ///
    /// Buffer/context errors as above.
    pub fn read_buffer(
        &mut self,
        ctx: GpuContextId,
        buf: GpuBuffer,
        offset: u64,
        out: &mut [u8],
    ) -> Result<(), GpuError> {
        self.recorder.record([Event::Count(
            "gpu.dma_bytes",
            &[("dir", "d2h")],
            out.len() as u64,
        )]);
        let state = self.ctx_mut(ctx)?;
        ContextMem {
            buffers: &mut state.buffers,
        }
        .read_bytes(buf, offset, out)
    }

    /// Length of a buffer.
    ///
    /// # Errors
    ///
    /// Buffer/context errors as above.
    pub fn buffer_len(&self, ctx: GpuContextId, buf: GpuBuffer) -> Result<u64, GpuError> {
        self.ctx(ctx)?
            .buffers
            .get(&buf.0)
            .map(|d| d.len() as u64)
            .ok_or(GpuError::UnknownBuffer(buf))
    }

    /// Registers a kernel implementation under `name` in `ctx` (the device
    /// half of module loading; the image hash lives in the manifest).
    ///
    /// # Errors
    ///
    /// [`GpuError::UnknownContext`].
    pub fn register_kernel(
        &mut self,
        ctx: GpuContextId,
        name: &str,
        f: KernelFn,
    ) -> Result<(), GpuError> {
        self.ctx_mut(ctx)?.kernels.insert(name.to_string(), f);
        Ok(())
    }

    /// Launches a kernel: runs the registered closure against the context's
    /// buffers and returns the simulated execution time under the current
    /// spatial-sharing contention.
    ///
    /// # Errors
    ///
    /// [`GpuError::UnknownKernel`] plus anything the kernel body raises.
    pub fn launch(
        &mut self,
        cost: &CostModel,
        ctx: GpuContextId,
        kernel: &str,
        args: &[KernelArg],
        desc: GpuKernelDesc,
    ) -> Result<SimNs, GpuError> {
        let active = self.contexts.len().max(1) as u32;
        let sm_count = self.sm_count;
        let state = self.ctx_mut(ctx)?;
        let f = state
            .kernels
            .get(kernel)
            .ok_or_else(|| GpuError::UnknownKernel(kernel.to_string()))?
            .clone();
        f(
            &mut ContextMem {
                buffers: &mut state.buffers,
            },
            args,
        )?;
        state.kernels_launched += 1;
        self.total_launches += 1;
        // Completion interrupt for the driver to service.
        self.pending_irqs += 1;
        let t = Self::exec_time(cost, sm_count, active, desc);
        // Device-wide SM occupancy under the MPS split.
        let sms_avail = (sm_count as f64 / active as f64).max(1.0);
        let sms_used = (desc.sm_demand.max(1) as f64).min(sms_avail);
        let pct = (sms_used * active as f64 / sm_count as f64 * 100.0).min(100.0);
        let labels = &[("kernel", kernel)];
        let track = format!("gpu:{}", self.id.as_u32());
        let start = self.recorder.total_elapsed();
        self.recorder.record([
            Event::Count("gpu.kernel_launches", labels, 1),
            Event::Sample("gpu.kernel_ns", labels, t),
            Event::Gauge("gpu.active_contexts", &[], active as i64),
            Event::Gauge("gpu.mem_used", &[], self.used as i64),
            Event::Gauge("gpu.sm_occupancy_pct", &[], pct as i64),
            // Span on the device track (time profiling stays in the sRPC
            // layer, which charges the handler's execution time). The span
            // is deliberately detached from the ambient request: it uses the
            // device's own timebase, and the sRPC layer already covers the
            // request's kernel phase on the stream track — attaching this
            // one too would stretch the request window with a clock-skew
            // gap the causal report would misread as queueing.
            Work::spanned(&track, kernel, "kernel", start..start + t)
                .detached()
                .into(),
            // The completion IRQ is raised when the kernel finishes; it sits
            // queued until the driver's ISR (take_irqs) services it.
            self.irqs.raise(start + t),
        ]);
        Ok(t)
    }

    /// The contention model: concurrent contexts split SMs (MPS-style) and
    /// memory bandwidth, and the launch path (driver + doorbell) degrades
    /// quadratically with tenant count — small kernels from different
    /// tenants overlap well at 2 tenants but the submission pipeline
    /// saturates by 4, which is the Fig. 11a shape ("up to 63.4% higher
    /// throughput" at 2, degradation at 4).
    pub fn exec_time(
        cost: &CostModel,
        sm_count: u32,
        active_contexts: u32,
        desc: GpuKernelDesc,
    ) -> SimNs {
        let active = active_contexts.max(1) as f64;
        let sms_avail = (sm_count as f64 / active).max(1.0);
        let sms_used = (desc.sm_demand.max(1) as f64).min(sms_avail);
        let compute_ns = desc.flops / (cost.gpu_flops_per_sm_ns * sms_used);
        let mem_ns = desc.mem_bytes / (cost.gpu_mem_bytes_per_ns / active);
        let launch_factor = 1.0 + 0.18 * (active - 1.0) * (active - 1.0);
        cost.gpu_kernel_launch.scale(launch_factor)
            + SimNs::from_nanos(compute_ns.max(mem_ns).ceil() as u64)
    }

    /// Number of kernels launched in a context (throughput accounting).
    ///
    /// # Errors
    ///
    /// [`GpuError::UnknownContext`].
    pub fn kernels_launched(&self, ctx: GpuContextId) -> Result<u64, GpuError> {
        Ok(self.ctx(ctx)?.kernels_launched)
    }

    /// Total kernels launched across all contexts since the last reset.
    pub fn total_launches(&self) -> u64 {
        self.total_launches
    }

    /// Takes (and clears) the pending completion interrupts — the HAL's
    /// interrupt service routine.
    pub fn take_irqs(&mut self) -> u32 {
        let n = std::mem::take(&mut self.pending_irqs);
        self.irqs.service(&self.recorder);
        n
    }

    /// Device memory in use (context quotas reserved).
    pub fn memory_used(&self) -> u64 {
        self.used
    }

    /// Device memory capacity.
    pub fn memory_capacity(&self) -> u64 {
        self.capacity
    }

    /// SM count.
    pub fn sm_count(&self) -> u32 {
        self.sm_count
    }
}

impl SimDevice for GpuDevice {
    fn id(&self) -> DeviceId {
        self.id
    }

    fn dma_stream(&self) -> StreamId {
        self.stream
    }

    fn compatible(&self) -> &str {
        "nvidia,gtx2080"
    }

    fn kind(&self) -> DeviceKind {
        DeviceKind::Gpu
    }

    fn rot_public(&self) -> PublicKey {
        self.rot.public()
    }

    fn sign_config(&self, config: &[u8]) -> Signature {
        self.rot.sign(config)
    }

    fn context_count(&self) -> usize {
        self.contexts.len()
    }

    fn reset(&mut self) {
        for state in self.contexts.values_mut() {
            for buf in state.buffers.values_mut() {
                buf.fill(0);
            }
        }
        self.contexts.clear();
        self.used = 0;
        self.total_launches = 0;
        self.pending_irqs = 0;
        self.irqs.flush(&self.recorder);
        self.next_ctx = 1;
        self.next_buf = 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> GpuDevice {
        GpuDevice::new(DeviceId::new(1), StreamId::new(1), 1 << 20, 46)
    }

    fn scale_kernel() -> KernelFn {
        Arc::new(|mem, args| {
            let (buf, factor) = match args {
                [KernelArg::Buffer(b), KernelArg::Float(f)] => (*b, *f),
                _ => return Err(GpuError::BadArg("expected (buffer, float)".into())),
            };
            let mut vals = mem.read_f32s(buf)?;
            for v in &mut vals {
                *v *= factor;
            }
            mem.write_f32s(buf, &vals)
        })
    }

    #[test]
    fn alloc_write_read_round_trip() {
        let mut g = gpu();
        let ctx = g.create_context(4096).unwrap();
        let buf = g.alloc(ctx, 16).unwrap();
        g.write_buffer(ctx, buf, 4, &[1, 2, 3]).unwrap();
        let mut out = [0u8; 3];
        g.read_buffer(ctx, buf, 4, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3]);
        assert_eq!(g.buffer_len(ctx, buf).unwrap(), 16);
    }

    #[test]
    fn contexts_cannot_see_each_others_buffers() {
        let mut g = gpu();
        let a = g.create_context(4096).unwrap();
        let b = g.create_context(4096).unwrap();
        let buf = g.alloc(a, 16).unwrap();
        let mut out = [0u8; 1];
        let err = g.read_buffer(b, buf, 0, &mut out).unwrap_err();
        assert_eq!(err, GpuError::UnknownBuffer(buf));
    }

    #[test]
    fn quota_enforced_per_context() {
        let mut g = gpu();
        let ctx = g.create_context(100).unwrap();
        assert!(g.alloc(ctx, 64).is_ok());
        let err = g.alloc(ctx, 64).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { available: 36, .. }));
    }

    #[test]
    fn device_capacity_enforced_across_contexts() {
        let mut g = GpuDevice::new(DeviceId::new(1), StreamId::new(1), 1000, 46);
        g.create_context(600).unwrap();
        let err = g.create_context(600).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { .. }));
    }

    #[test]
    fn kernel_computes_on_device_memory() {
        let cm = CostModel::default();
        let mut g = gpu();
        let ctx = g.create_context(4096).unwrap();
        let buf = g.alloc(ctx, 16).unwrap();
        let init: Vec<u8> = [1.0f32, 2.0, 3.0, 4.0]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        g.write_buffer(ctx, buf, 0, &init).unwrap();
        g.register_kernel(ctx, "scale", scale_kernel()).unwrap();
        let desc = GpuKernelDesc {
            flops: 4.0,
            mem_bytes: 32.0,
            sm_demand: 1,
        };
        let t = g
            .launch(
                &cm,
                ctx,
                "scale",
                &[KernelArg::Buffer(buf), KernelArg::Float(2.0)],
                desc,
            )
            .unwrap();
        assert!(t >= cm.gpu_kernel_launch);
        let mut out = [0u8; 4];
        g.read_buffer(ctx, buf, 0, &mut out).unwrap();
        assert_eq!(f32::from_le_bytes(out), 2.0);
        assert_eq!(g.kernels_launched(ctx).unwrap(), 1);
        assert_eq!(g.total_launches(), 1);
    }

    #[test]
    fn unknown_kernel_rejected() {
        let cm = CostModel::default();
        let mut g = gpu();
        let ctx = g.create_context(4096).unwrap();
        let desc = GpuKernelDesc {
            flops: 1.0,
            mem_bytes: 1.0,
            sm_demand: 1,
        };
        let err = g.launch(&cm, ctx, "nope", &[], desc).unwrap_err();
        assert_eq!(err, GpuError::UnknownKernel("nope".into()));
    }

    #[test]
    fn exec_time_contention_shape() {
        let cm = CostModel::default();
        // A small kernel (8 SM demand) should not slow down with 2 tenants on
        // a 46-SM machine but must slow down with 16.
        let small = GpuKernelDesc {
            flops: 1e8,
            mem_bytes: 0.0,
            sm_demand: 8,
        };
        let t1 = GpuDevice::exec_time(&cm, 46, 1, small);
        let t2 = GpuDevice::exec_time(&cm, 46, 2, small);
        let t16 = GpuDevice::exec_time(&cm, 46, 16, small);
        // Two tenants: only the mild launch-path contention applies.
        assert!(t2 >= t1);
        assert!(t2 < t1.scale(1.3));
        assert!(t16 > t2);
        // A machine-filling kernel slows down immediately.
        let big = GpuKernelDesc {
            flops: 1e9,
            mem_bytes: 0.0,
            sm_demand: 46,
        };
        assert!(GpuDevice::exec_time(&cm, 46, 2, big) > GpuDevice::exec_time(&cm, 46, 1, big));
    }

    #[test]
    fn destroy_context_releases_quota() {
        let mut g = GpuDevice::new(DeviceId::new(1), StreamId::new(1), 1000, 46);
        let ctx = g.create_context(600).unwrap();
        g.destroy_context(ctx).unwrap();
        assert_eq!(g.memory_used(), 0);
        assert!(g.create_context(600).is_ok());
        assert_eq!(
            g.destroy_context(ctx).unwrap_err(),
            GpuError::UnknownContext(ctx)
        );
    }

    #[test]
    fn reset_clears_everything() {
        let mut g = gpu();
        let ctx = g.create_context(4096).unwrap();
        let _ = g.alloc(ctx, 64).unwrap();
        g.reset();
        assert_eq!(g.context_count(), 0);
        assert_eq!(g.memory_used(), 0);
        assert_eq!(g.total_launches(), 0);
        // Old handles are dead.
        assert!(g.alloc(ctx, 1).is_err());
    }

    #[test]
    fn out_of_bounds_access_rejected() {
        let mut g = gpu();
        let ctx = g.create_context(4096).unwrap();
        let buf = g.alloc(ctx, 8).unwrap();
        let err = g.write_buffer(ctx, buf, 6, &[0; 4]).unwrap_err();
        assert!(matches!(err, GpuError::OutOfBounds { .. }));
    }

    #[test]
    fn free_zeroes_and_releases() {
        let mut g = gpu();
        let ctx = g.create_context(100).unwrap();
        let buf = g.alloc(ctx, 64).unwrap();
        g.free(ctx, buf).unwrap();
        let mut out = [0u8; 1];
        assert!(g.read_buffer(ctx, buf, 0, &mut out).is_err());
        assert!(g.alloc(ctx, 64).is_ok(), "quota was released");
    }

    #[test]
    fn sim_device_trait_surface() {
        let g = gpu();
        assert_eq!(g.kind(), DeviceKind::Gpu);
        assert_eq!(g.compatible(), "nvidia,gtx2080");
        let sig = g.sign_config(b"cfg");
        assert!(g.rot_public().verify(b"cfg", &sig).is_ok());
    }
}
