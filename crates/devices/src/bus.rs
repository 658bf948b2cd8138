//! PCIe bus model with secure DMA routing.
//!
//! The paper creates "a 'secure' PCIe bus" in QEMU and "binds its resources
//! (e.g., BAR) to different memory addresses from the original PCIe bus";
//! DMA from secure-bus devices may touch only secure memory. Our bus tracks
//! per-slot BARs and worlds and performs DMA *through the machine*, so every
//! transfer is filtered by the SMMU and the TZASC.

use std::collections::HashMap;
use std::fmt;

use cronus_obs::{Event, FlightRecorder, QueueKind, Served, Work};
use cronus_sim::addr::{PhysAddr, PhysRange};
use cronus_sim::tzpc::DeviceId;
use cronus_sim::{Fault, Machine, SimNs, StreamId, World};

/// A device slot on the bus.
#[derive(Clone, Debug)]
pub struct PcieSlot {
    /// Bus/TZPC device id.
    pub device: DeviceId,
    /// The device's MMIO BAR window.
    pub bar: PhysRange,
    /// SMMU stream for the device's DMA.
    pub stream: StreamId,
    /// World the slot is wired into (secure bus vs normal bus).
    pub world: World,
}

/// Errors raised by bus operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BusError {
    /// The slot's BAR overlaps an existing slot's BAR.
    BarOverlap(DeviceId, DeviceId),
    /// A device id was registered twice.
    DuplicateDevice(DeviceId),
    /// The referenced device is not on the bus.
    UnknownDevice(DeviceId),
    /// The DMA transfer was blocked by the SMMU/TZASC.
    DmaFault(Fault),
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::BarOverlap(a, b) => write!(f, "bar windows of {a} and {b} overlap"),
            BusError::DuplicateDevice(d) => write!(f, "device {d} already on the bus"),
            BusError::UnknownDevice(d) => write!(f, "device {d} not on the bus"),
            BusError::DmaFault(fault) => write!(f, "dma blocked: {fault}"),
        }
    }
}

impl std::error::Error for BusError {}

impl From<Fault> for BusError {
    fn from(f: Fault) -> Self {
        BusError::DmaFault(f)
    }
}

/// The PCIe bus: a registry of slots plus a DMA engine.
#[derive(Debug, Default)]
pub struct PcieBus {
    slots: HashMap<DeviceId, PcieSlot>,
    recorder: FlightRecorder,
}

impl PcieBus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        PcieBus::default()
    }

    /// Replaces the bus's flight recorder (a standalone bus records into
    /// its own): every DMA transfer emits a span on the `bus` track plus
    /// byte counters, and the transfer queue reports to the queue
    /// observatory.
    pub fn set_recorder(&mut self, rec: FlightRecorder) {
        // One serial transfer engine; nothing waits in the simulated model,
        // so the station's utilization is the interesting USE signal.
        rec.record([Event::Declare("bus.dma", QueueKind::Dma, 1)]);
        self.recorder = rec;
    }

    /// Records one DMA transfer of `bytes` taking `t`.
    fn record_dma(&self, dir: &str, device: DeviceId, bytes: u64, t: SimNs) {
        let labels = &[("dir", dir)];
        let station = "bus.dma";
        let start = self.recorder.total_elapsed();
        self.recorder.record([
            Event::Count("bus.dma_bytes", labels, bytes),
            Event::Count("bus.dma_transfers", labels, 1),
            // Device-timebase span, detached from the ambient request: the
            // sRPC layer covers the request's transfer time on the
            // stream/enclave tracks, and mixing the bus timebase into the
            // request window would surface as a phantom queue gap.
            Work::spanned("bus", format!("{dir}:{device}"), "dma", start..start + t)
                .detached()
                .into(),
            Event::Enqueued(station, start),
            Served::at(station, start, start, start + t).into(),
        ]);
    }

    /// Registers a device slot.
    ///
    /// # Errors
    ///
    /// [`BusError::DuplicateDevice`] or [`BusError::BarOverlap`].
    pub fn register(&mut self, slot: PcieSlot) -> Result<(), BusError> {
        if self.slots.contains_key(&slot.device) {
            return Err(BusError::DuplicateDevice(slot.device));
        }
        for existing in self.slots.values() {
            if existing.bar.overlaps(slot.bar) {
                return Err(BusError::BarOverlap(existing.device, slot.device));
            }
        }
        self.slots.insert(slot.device, slot);
        Ok(())
    }

    /// Looks up a slot.
    pub fn slot(&self, device: DeviceId) -> Option<&PcieSlot> {
        self.slots.get(&device)
    }

    /// All registered slots.
    pub fn slots(&self) -> impl Iterator<Item = &PcieSlot> {
        self.slots.values()
    }

    /// Which device (if any) claims the MMIO address `pa`.
    pub fn route_mmio(&self, pa: PhysAddr) -> Option<DeviceId> {
        self.slots
            .values()
            .find(|s| s.bar.contains(pa))
            .map(|s| s.device)
    }

    /// DMA from host memory into a device-provided buffer.
    ///
    /// Returns the simulated transfer duration (PCIe bandwidth bound).
    ///
    /// # Errors
    ///
    /// [`BusError::UnknownDevice`] or [`BusError::DmaFault`] when the SMMU or
    /// TZASC blocks the transfer.
    pub fn dma_to_device(
        &self,
        machine: &mut Machine,
        device: DeviceId,
        host_src: PhysAddr,
        buf: &mut [u8],
    ) -> Result<SimNs, BusError> {
        let slot = self
            .slots
            .get(&device)
            .ok_or(BusError::UnknownDevice(device))?;
        machine.dma_read(slot.stream, slot.world, host_src, buf)?;
        let t = machine.cost().pcie_copy(buf.len() as u64);
        self.record_dma("h2d", device, buf.len() as u64, t);
        Ok(t)
    }

    /// DMA from a device buffer into host memory.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PcieBus::dma_to_device`].
    pub fn dma_from_device(
        &self,
        machine: &mut Machine,
        device: DeviceId,
        host_dst: PhysAddr,
        data: &[u8],
    ) -> Result<SimNs, BusError> {
        let slot = self
            .slots
            .get(&device)
            .ok_or(BusError::UnknownDevice(device))?;
        machine.dma_write(slot.stream, slot.world, host_dst, data)?;
        let t = machine.cost().pcie_copy(data.len() as u64);
        self.record_dma("d2h", device, data.len() as u64, t);
        Ok(t)
    }

    /// Peer-to-peer DMA between two devices over PCIe (used by Fig. 11b's
    /// direct GPU-GPU communication). Both devices must be on the bus; data
    /// does not touch host DRAM, so only the transfer time is charged.
    ///
    /// # Errors
    ///
    /// [`BusError::UnknownDevice`] if either endpoint is missing.
    pub fn dma_peer_to_peer(
        &self,
        machine: &Machine,
        from: DeviceId,
        to: DeviceId,
        bytes: u64,
    ) -> Result<SimNs, BusError> {
        if !self.slots.contains_key(&from) {
            return Err(BusError::UnknownDevice(from));
        }
        if !self.slots.contains_key(&to) {
            return Err(BusError::UnknownDevice(to));
        }
        let t = machine.cost().pcie_copy(bytes);
        self.record_dma("p2p", from, bytes, t);
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cronus_sim::pagetable::PagePerms;
    use cronus_sim::MachineConfig;

    fn slot(id: u32, bar_base: u64, world: World) -> PcieSlot {
        PcieSlot {
            device: DeviceId::new(id),
            bar: PhysRange::from_base_len(PhysAddr::new(bar_base), 0x1000),
            stream: StreamId::new(id),
            world,
        }
    }

    #[test]
    fn register_and_route() {
        let mut bus = PcieBus::new();
        bus.register(slot(1, 0x1000_0000, World::Secure)).unwrap();
        bus.register(slot(2, 0x1001_0000, World::Secure)).unwrap();
        assert_eq!(
            bus.route_mmio(PhysAddr::new(0x1000_0800)),
            Some(DeviceId::new(1))
        );
        assert_eq!(bus.route_mmio(PhysAddr::new(0x2000_0000)), None);
        assert_eq!(bus.slots().count(), 2);
    }

    #[test]
    fn duplicate_and_overlap_rejected() {
        let mut bus = PcieBus::new();
        bus.register(slot(1, 0x1000_0000, World::Secure)).unwrap();
        assert_eq!(
            bus.register(slot(1, 0x2000_0000, World::Secure)),
            Err(BusError::DuplicateDevice(DeviceId::new(1)))
        );
        assert!(matches!(
            bus.register(slot(3, 0x1000_0800, World::Secure)),
            Err(BusError::BarOverlap(..))
        ));
    }

    #[test]
    fn dma_round_trip_with_grants() {
        let mut machine = Machine::new(MachineConfig::default());
        let mut bus = PcieBus::new();
        let s = slot(1, 0x1000_0000, World::Secure);
        let stream = s.stream;
        bus.register(s).unwrap();

        let frame = machine.alloc_frame(World::Secure).unwrap();
        machine
            .smmu_mut()
            .grant(stream, frame.page(), PagePerms::RW);
        machine
            .phys_write(World::Secure, frame.base(), b"weights")
            .unwrap();

        let mut buf = vec![0u8; 7];
        let t = bus
            .dma_to_device(&mut machine, DeviceId::new(1), frame.base(), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"weights");
        assert!(t > SimNs::ZERO);

        let t2 = bus
            .dma_from_device(&mut machine, DeviceId::new(1), frame.base(), b"grads!!")
            .unwrap();
        assert!(t2 > SimNs::ZERO);
        let back = machine
            .phys_read_vec(World::Secure, frame.base(), 7)
            .unwrap();
        assert_eq!(&back, b"grads!!");
    }

    #[test]
    fn dma_without_smmu_grant_faults() {
        let mut machine = Machine::new(MachineConfig::default());
        let mut bus = PcieBus::new();
        bus.register(slot(1, 0x1000_0000, World::Secure)).unwrap();
        let frame = machine.alloc_frame(World::Secure).unwrap();
        let mut buf = vec![0u8; 4];
        let err = bus
            .dma_to_device(&mut machine, DeviceId::new(1), frame.base(), &mut buf)
            .unwrap_err();
        assert!(matches!(err, BusError::DmaFault(_)));
    }

    #[test]
    fn normal_bus_device_cannot_dma_secure_memory() {
        let mut machine = Machine::new(MachineConfig::default());
        let mut bus = PcieBus::new();
        let s = slot(1, 0x1000_0000, World::Normal);
        let stream = s.stream;
        bus.register(s).unwrap();
        let frame = machine.alloc_frame(World::Secure).unwrap();
        machine
            .smmu_mut()
            .grant(stream, frame.page(), PagePerms::RW);
        let err = bus
            .dma_from_device(&mut machine, DeviceId::new(1), frame.base(), &[1])
            .unwrap_err();
        assert!(matches!(err, BusError::DmaFault(f) if f.is_world_filter()));
    }

    #[test]
    fn p2p_requires_both_endpoints() {
        let machine = Machine::new(MachineConfig::default());
        let mut bus = PcieBus::new();
        bus.register(slot(1, 0x1000_0000, World::Secure)).unwrap();
        assert!(bus
            .dma_peer_to_peer(&machine, DeviceId::new(1), DeviceId::new(2), 1024)
            .is_err());
        bus.register(slot(2, 0x1001_0000, World::Secure)).unwrap();
        let t = bus
            .dma_peer_to_peer(&machine, DeviceId::new(1), DeviceId::new(2), 1 << 20)
            .unwrap();
        assert!(t > SimNs::ZERO);
    }
}
