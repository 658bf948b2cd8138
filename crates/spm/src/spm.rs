//! The Secure Partition Manager.
//!
//! The SPM isolates each mOS (and its one device) into an S-EL2 partition,
//! implements trusted shared memory between partitions (Figure 6), and runs
//! the **proceed-trap** failover protocol of §IV-D:
//!
//! 1. *Proceed*: on failure of `P_a`, invalidate every surviving partition's
//!    stage-2 entries (`pt²(P_i, P_a)`) and SMMU entries (`spt²(P_i, P_a)`)
//!    for memory shared with `P_a`, then mark `P_a` failed (`r_f = 1`) so new
//!    sharing requests are blocked. This closes the TOCTOU window (A1).
//! 2. *Clear + reload*: zero the device and the shared memory, load a fresh
//!    mOS image, set `r_f = 0`.
//! 3. *Trap*: a surviving mEnclave's later access to the shared memory
//!    faults; the SPM unmaps the enclave's stage-1 entries, reclaims pages
//!    the survivor owns, and delivers a failure signal — so no enclave leaks
//!    data to a substituted peer (A1) or deadlocks on a dead lock holder (A2),
//!    and no crashed data survives into the recovered partition (A3).

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use cronus_crypto::measure;
use cronus_devices::bus::{PcieBus, PcieSlot};
use cronus_devices::cpu::CpuDevice;
use cronus_devices::gpu::GpuDevice;
use cronus_devices::npu::NpuDevice;
use cronus_devices::{endorse_device, vendor_keypair, DeviceKind, SimDevice};
use cronus_forensics::{Ledger, SecurityEvent, MONITOR_CHAIN};
use cronus_mos::hal::DeviceHal;
use cronus_mos::manager::Owner;
use cronus_mos::manifest::{Eid, Manifest, MosId};
use cronus_mos::mos::{MicroOs, MosError, MosStatus};
use cronus_obs::{Event, FlightRecorder, QueueKind, Served, TimeCategory, Work};
use cronus_sim::addr::{PhysAddr, PhysRange, VirtAddr};
use cronus_sim::devtree::{DeviceTree, DtNode};
use cronus_sim::machine::AsId;
use cronus_sim::pagetable::PagePerms;
use cronus_sim::trace::EventKind;
use cronus_sim::tzpc::DeviceId;
use cronus_sim::{Machine, MachineConfig, SimNs, StreamId, World};

use crate::attest::{AttestationReport, SignedReport};
use crate::monitor::SecureMonitor;

/// Which device a partition manages.
#[derive(Clone, Debug, PartialEq)]
pub enum DeviceSpec {
    /// A CPU partition.
    Cpu,
    /// A GPU with the given device-memory capacity and SM count.
    Gpu { memory: u64, sms: u32 },
    /// An NPU with the given device-memory capacity.
    Npu { memory: u64 },
}

impl DeviceSpec {
    fn kind(&self) -> DeviceKind {
        match self {
            DeviceSpec::Cpu => DeviceKind::Cpu,
            DeviceSpec::Gpu { .. } => DeviceKind::Gpu,
            DeviceSpec::Npu { .. } => DeviceKind::Npu,
        }
    }

    fn vendor(&self) -> &'static str {
        match self {
            DeviceSpec::Cpu => "arm",
            DeviceSpec::Gpu { .. } => "nvidia",
            DeviceSpec::Npu { .. } => "vta",
        }
    }
}

/// Boot-time description of one partition.
#[derive(Clone, Debug)]
pub struct PartitionSpec {
    /// The mOS id; the partition's `AsId` is derived from it.
    pub mos_id: MosId,
    /// The mOS image bytes (provided by the normal world, measured by the
    /// secure monitor).
    pub image: Vec<u8>,
    /// mOS version label.
    pub version: String,
    /// The managed device.
    pub device: DeviceSpec,
}

impl PartitionSpec {
    /// Convenience constructor.
    pub fn new(mos_id: u8, image: &[u8], version: &str, device: DeviceSpec) -> Self {
        PartitionSpec {
            mos_id: MosId(mos_id),
            image: image.to_vec(),
            version: version.to_string(),
            device,
        }
    }
}

/// Boot configuration for the whole secure world.
#[derive(Clone, Debug)]
pub struct BootConfig {
    /// Machine (DRAM, cost model) configuration.
    pub machine: MachineConfig,
    /// Platform root-key seed (fused ROM secret stand-in).
    pub platform_seed: String,
    /// Partitions to create.
    pub partitions: Vec<PartitionSpec>,
}

impl Default for BootConfig {
    fn default() -> Self {
        BootConfig {
            machine: MachineConfig::default(),
            platform_seed: "cronus-platform".to_string(),
            partitions: Vec::new(),
        }
    }
}

/// Identifier of a shared-memory region.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ShareHandle(u64);

impl ShareHandle {
    /// Returns the raw handle value (stable within one boot; used by the
    /// isolation auditor to report share provenance).
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

/// Lifecycle state of a shared-memory region.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShareState {
    /// Both endpoints are healthy and mapped.
    Active,
    /// One side failed; stage-2 entries of the survivor are invalidated and
    /// the next access traps.
    Poisoned {
        /// The endpoint partition that did *not* fail.
        survivor: AsId,
    },
    /// Pages were scrubbed and returned to the allocator.
    Reclaimed,
}

#[derive(Debug)]
struct ShareRecord {
    handle: ShareHandle,
    owner: (AsId, Eid),
    peer: (AsId, Eid),
    pages: Vec<u64>,
    frames: Vec<cronus_sim::Frame>,
    state: ShareState,
}

/// A read-only view of one shared-memory grant, exposed so the isolation
/// auditor can reconcile share provenance against the live mapping tables.
#[derive(Clone, Copy, Debug)]
pub struct ShareView<'a> {
    /// The share's handle.
    pub handle: ShareHandle,
    /// Owning endpoint (partition, enclave).
    pub owner: (AsId, Eid),
    /// Peer endpoint (partition, enclave).
    pub peer: (AsId, Eid),
    /// The physical pages backing the region.
    pub pages: &'a [u64],
    /// Lifecycle state.
    pub state: ShareState,
}

/// Statistics from one partition recovery (drives Fig. 9).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryStats {
    /// Stage-2/SMMU entries invalidated in step 1.
    pub invalidated_pages: usize,
    /// Simulated time for step 1 (proceed).
    pub proceed_time: SimNs,
    /// Simulated time to clear device + smem (step 2a).
    pub clear_time: SimNs,
    /// Simulated time to reload and init the mOS (step 2b).
    pub restart_time: SimNs,
}

impl RecoveryStats {
    /// Total downtime of the failed partition.
    pub fn total(&self) -> SimNs {
        self.proceed_time + self.clear_time + self.restart_time
    }
}

/// Errors from the SPM.
#[derive(Clone, Debug, PartialEq)]
pub enum SpmError {
    /// No partition with this id.
    UnknownPartition(AsId),
    /// The partition is marked failed.
    PartitionFailed(AsId),
    /// The partition is not failed (recovery on a healthy partition).
    NotFailed(AsId),
    /// The eid's mOS part does not match the target partition — the SPM
    /// "uses the mOS part for validating cross-mOS messages".
    EidPartitionMismatch { eid: Eid, partition: AsId },
    /// Secure memory exhausted.
    OutOfMemory,
    /// Underlying mOS error.
    Mos(MosError),
    /// Unknown share handle.
    UnknownShare(ShareHandle),
    /// A trap was raised for a page that belongs to no poisoned share of
    /// the faulting partition (spurious or already-reclaimed trap).
    NoPoisonedShare {
        /// The faulting physical page.
        ppn: u64,
    },
}

impl fmt::Display for SpmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpmError::UnknownPartition(p) => write!(f, "unknown partition {p}"),
            SpmError::PartitionFailed(p) => write!(f, "partition {p} is failed"),
            SpmError::NotFailed(p) => write!(f, "partition {p} is not failed"),
            SpmError::EidPartitionMismatch { eid, partition } => {
                write!(f, "eid {eid} does not belong to partition {partition}")
            }
            SpmError::OutOfMemory => f.write_str("secure memory exhausted"),
            SpmError::Mos(e) => write!(f, "mos: {e}"),
            SpmError::UnknownShare(h) => write!(f, "unknown share {h:?}"),
            SpmError::NoPoisonedShare { ppn } => {
                write!(f, "no poisoned share covers page {ppn:#x}")
            }
        }
    }
}

impl std::error::Error for SpmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpmError::Mos(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MosError> for SpmError {
    fn from(e: MosError) -> Self {
        SpmError::Mos(e)
    }
}

/// The outcome of handling a shared-memory trap (failover step 3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrapOutcome {
    /// The enclave that received the failure signal.
    pub signalled: Eid,
    /// Stage-1 entries removed from the signalled enclave.
    pub unmapped: usize,
    /// True if the pages were owned by the survivor and were reclaimed
    /// (stage-2 revalidated after zeroing).
    pub reclaimed: bool,
}

/// The Secure Partition Manager.
pub struct Spm {
    machine: Machine,
    bus: PcieBus,
    monitor: SecureMonitor,
    partitions: HashMap<AsId, MicroOs>,
    device_of: HashMap<AsId, DeviceId>,
    vendors: HashMap<DeviceId, (String, cronus_crypto::Signature)>,
    shares: Vec<ShareRecord>,
    next_share: u64,
    recorder: FlightRecorder,
    /// When each failed partition's recovery work item was enqueued (virtual
    /// time), consumed by `recover_partition` for the `spm.recovery` queue.
    recovery_enqueued: HashMap<AsId, SimNs>,
    ledger: Ledger,
}

impl fmt::Debug for Spm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Spm")
            .field("partitions", &self.partitions.len())
            .field("shares", &self.shares.len())
            .finish_non_exhaustive()
    }
}

/// One failover phase: `t` charged to `recovery;<step>` and drawn as
/// `<step> <asid>` on the `recovery` track from `start`.
fn recovery_phase(step: &'static str, asid: AsId, start: SimNs, t: SimNs) -> Work<'static> {
    let name = format!("{step} {asid}");
    Work::charge_detail(TimeCategory::Recovery, step, t).span(
        "recovery",
        name,
        "recovery",
        start..start + t,
    )
}

/// Derives a partition's address-space id from its mOS id.
pub fn asid_of(mos: MosId) -> AsId {
    AsId::new(mos.0 as u32)
}

impl Spm {
    /// Secure boot: builds the machine, validates and installs the device
    /// tree, locks down the TZPC, registers bus slots and SMMU streams, and
    /// starts every partition's mOS.
    ///
    /// # Panics
    ///
    /// Panics on an invalid boot configuration (overlapping MMIO, duplicate
    /// mOS ids) — boot-time configuration bugs, not runtime events.
    pub fn boot(config: BootConfig) -> Self {
        let mut machine = Machine::new(config.machine);
        let monitor = SecureMonitor::new(&config.platform_seed);
        let mut bus = PcieBus::new();
        let mut partitions = HashMap::new();
        let mut device_of = HashMap::new();
        let mut vendors = HashMap::new();

        // Build and validate the device tree (§IV-A: only valid DTs boot).
        let mut nodes = Vec::new();
        for (i, spec) in config.partitions.iter().enumerate() {
            let device = DeviceId::new(spec.mos_id.0 as u32);
            nodes.push(DtNode {
                device,
                compatible: format!("{}", spec.device.kind()),
                mmio: PhysRange::from_base_len(
                    PhysAddr::new(0x1000_0000 + (i as u64) * 0x10_0000),
                    0x1000,
                ),
                irq: 32 + i as u32,
                world: World::Secure,
            });
        }
        let dt = DeviceTree::validate(nodes).expect("boot device tree must be valid");
        // Secure boot's first ledger entries: the measurements everything
        // else chains from.
        let ledger = Ledger::new(&config.platform_seed);
        ledger.append(
            MONITOR_CHAIN,
            SimNs::ZERO,
            SecurityEvent::DevtreeAttested {
                digest: measure("devtree", &dt.canonical_bytes()),
            },
        );
        machine.install_devtree(dt);
        ledger.append(
            MONITOR_CHAIN,
            SimNs::ZERO,
            SecurityEvent::TzascConfigured {
                digest: measure("tzasc", &machine.tzasc().canonical_bytes()),
            },
        );

        for spec in &config.partitions {
            let device = DeviceId::new(spec.mos_id.0 as u32);
            let stream = StreamId::new(spec.mos_id.0 as u32);
            let asid = asid_of(spec.mos_id);
            assert!(
                !partitions.contains_key(&asid),
                "duplicate mos id {}",
                spec.mos_id
            );

            machine
                .tzpc_mut()
                .assign(device, World::Secure)
                .expect("tzpc not locked during boot");
            machine.smmu_mut().add_stream(stream);
            let node = machine
                .devtree()
                .expect("installed above")
                .node(device)
                .expect("node added above")
                .clone();
            bus.register(PcieSlot {
                device,
                bar: node.mmio,
                stream,
                world: World::Secure,
            })
            .expect("validated device tree implies disjoint bars");

            let hal = match spec.device {
                DeviceSpec::Cpu => DeviceHal::Cpu(CpuDevice::new(device, stream)),
                DeviceSpec::Gpu { memory, sms } => {
                    DeviceHal::Gpu(GpuDevice::new(device, stream, memory, sms))
                }
                DeviceSpec::Npu { memory } => {
                    DeviceHal::Npu(NpuDevice::new(device, stream, memory))
                }
            };
            // Vendor endorsement of the device's ROM key.
            let vendor_name = spec.device.vendor();
            let vendor = vendor_keypair(vendor_name);
            let (endorsement, rot_digest) = match &hal {
                DeviceHal::Cpu(d) => (endorse_device(&vendor, d.rot_public()), d.rot_digest()),
                DeviceHal::Gpu(d) => (endorse_device(&vendor, d.rot_public()), d.rot_digest()),
                DeviceHal::Npu(d) => (endorse_device(&vendor, d.rot_public()), d.rot_digest()),
            };
            vendors.insert(device, (vendor_name.to_string(), endorsement));
            ledger.append(
                asid.as_u32(),
                SimNs::ZERO,
                SecurityEvent::DeviceEndorsed {
                    device: device.as_u32(),
                    vendor: vendor_name.to_string(),
                    rot_digest,
                },
            );

            machine.register_partition(asid);
            let mos = MicroOs::new(spec.mos_id, asid, &spec.image, &spec.version, hal);
            device_of.insert(asid, device);
            partitions.insert(asid, mos);
        }

        // Lock down after boot so the untrusted OS cannot reassign devices.
        machine.tzpc_mut().lock_down();
        ledger.append(
            MONITOR_CHAIN,
            SimNs::ZERO,
            SecurityEvent::TzpcLockdown {
                digest: measure("tzpc", &machine.tzpc().canonical_bytes()),
            },
        );

        // Every SPM records from the end of boot (boot-time machine events
        // stay in the event log only): the machine's event stream feeds the
        // recorder's counters (so they agree with the `EventLog` by
        // construction), the SPM charges recovery phases to it, and the bus
        // and every device HAL draw transfer and kernel spans on it.
        let recorder = FlightRecorder::new();
        machine.set_event_sink(recorder.sink());
        bus.set_recorder(recorder.clone());
        for mos in partitions.values_mut() {
            match mos.hal_mut() {
                DeviceHal::Gpu(g) => g.set_recorder(recorder.clone()),
                DeviceHal::Npu(n) => n.set_recorder(recorder.clone()),
                DeviceHal::Cpu(_) => {}
            }
        }
        recorder.record([Event::Declare("spm.recovery", QueueKind::Recovery, 0)]);
        Spm {
            machine,
            bus,
            monitor,
            partitions,
            device_of,
            vendors,
            shares: Vec::new(),
            next_share: 1,
            recorder,
            recovery_enqueued: HashMap::new(),
            ledger,
        }
    }

    /// Current virtual time for ledger records: the recorder's elapsed-time
    /// watermark.
    fn now(&self) -> SimNs {
        self.recorder.total_elapsed()
    }

    /// The security-event ledger (every SPM instance has one; the core
    /// layer appends its stream/enclave lifecycle records through it too).
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The machine (read side).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The machine (write side) — used by runtime layers issuing accesses.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The PCIe bus.
    pub fn bus(&self) -> &PcieBus {
        &self.bus
    }

    /// The secure monitor.
    pub fn monitor(&self) -> &SecureMonitor {
        &self.monitor
    }

    /// Iterates over partition ids.
    pub fn partition_ids(&self) -> Vec<AsId> {
        let mut ids: Vec<AsId> = self.partitions.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Finds the partition managing a device kind (first match in id order).
    pub fn partition_of_kind(&self, kind: DeviceKind) -> Option<AsId> {
        self.partition_ids()
            .into_iter()
            .find(|asid| self.partitions[asid].device_kind() == kind)
    }

    /// The device a partition owns, if any.
    pub fn device_of(&self, asid: AsId) -> Option<DeviceId> {
        self.device_of.get(&asid).copied()
    }

    /// Read-only views of every shared-memory grant, in creation order —
    /// the share provenance the isolation auditor checks mappings against.
    pub fn shares(&self) -> impl Iterator<Item = ShareView<'_>> {
        self.shares.iter().map(|r| ShareView {
            handle: r.handle,
            owner: r.owner,
            peer: r.peer,
            pages: &r.pages,
            state: r.state,
        })
    }

    /// Immutable access to a partition's mOS.
    ///
    /// # Errors
    ///
    /// [`SpmError::UnknownPartition`].
    pub fn mos(&self, asid: AsId) -> Result<&MicroOs, SpmError> {
        self.partitions
            .get(&asid)
            .ok_or(SpmError::UnknownPartition(asid))
    }

    /// Mutable access to a partition's mOS.
    ///
    /// # Errors
    ///
    /// [`SpmError::UnknownPartition`].
    pub fn mos_mut(&mut self, asid: AsId) -> Result<&mut MicroOs, SpmError> {
        self.partitions
            .get_mut(&asid)
            .ok_or(SpmError::UnknownPartition(asid))
    }

    /// Mutable access to a partition's mOS *and* the machine together
    /// (the common pattern for enclave memory operations).
    ///
    /// # Errors
    ///
    /// [`SpmError::UnknownPartition`].
    pub fn mos_and_machine(
        &mut self,
        asid: AsId,
    ) -> Result<(&mut MicroOs, &mut Machine), SpmError> {
        let mos = self
            .partitions
            .get_mut(&asid)
            .ok_or(SpmError::UnknownPartition(asid))?;
        Ok((mos, &mut self.machine))
    }

    /// Splits borrows for HAL DMA operations: the partition's mOS, the
    /// machine and the bus together.
    ///
    /// # Errors
    ///
    /// [`SpmError::UnknownPartition`].
    pub fn mos_machine_bus(
        &mut self,
        asid: AsId,
    ) -> Result<(&mut MicroOs, &mut Machine, &PcieBus), SpmError> {
        let mos = self
            .partitions
            .get_mut(&asid)
            .ok_or(SpmError::UnknownPartition(asid))?;
        Ok((mos, &mut self.machine, &self.bus))
    }

    /// Creates an mEnclave in a partition (the dispatcher's entry point).
    ///
    /// # Errors
    ///
    /// Partition/mOS errors; [`SpmError::PartitionFailed`] while `r_f = 1`.
    pub fn create_enclave(
        &mut self,
        asid: AsId,
        manifest: Manifest,
        images: &BTreeMap<String, Vec<u8>>,
        owner: Owner,
        owner_dh_public: u64,
    ) -> Result<Eid, SpmError> {
        if self.machine.is_failed(asid) {
            return Err(SpmError::PartitionFailed(asid));
        }
        let mos = self
            .partitions
            .get_mut(&asid)
            .ok_or(SpmError::UnknownPartition(asid))?;
        Ok(mos.create_enclave(manifest, images, owner, owner_dh_public)?)
    }

    fn validate_eid(&self, asid: AsId, eid: Eid) -> Result<(), SpmError> {
        let mos = self.mos(asid)?;
        if mos.id() != eid.mos() {
            return Err(SpmError::EidPartitionMismatch {
                eid,
                partition: asid,
            });
        }
        Ok(())
    }

    /// Establishes trusted shared memory between two enclaves in different
    /// partitions (Figure 6 steps 2–3): allocates fresh secure frames,
    /// grants them in both partitions' stage-2 tables, and maps them into
    /// both enclaves' address spaces. A page is shared by exactly one pair
    /// ("a memory page can be shared only once", §IV-D).
    ///
    /// Returns the handle plus both base virtual addresses.
    ///
    /// # Errors
    ///
    /// Failed partitions block sharing; eids must belong to their partitions.
    pub fn share_memory(
        &mut self,
        owner: (AsId, Eid),
        peer: (AsId, Eid),
        pages: usize,
    ) -> Result<(ShareHandle, VirtAddr, VirtAddr), SpmError> {
        let (owner_asid, owner_eid) = owner;
        let (peer_asid, peer_eid) = peer;
        self.validate_eid(owner_asid, owner_eid)?;
        self.validate_eid(peer_asid, peer_eid)?;
        for asid in [owner_asid, peer_asid] {
            if self.machine.is_failed(asid) {
                return Err(SpmError::PartitionFailed(asid));
            }
        }

        let frames = self
            .machine
            .alloc_frames(World::Secure, pages)
            .ok_or(SpmError::OutOfMemory)?;
        let ppns: Vec<u64> = frames.iter().map(|f| f.page()).collect();
        for ppn in &ppns {
            self.machine
                .stage2_grant(owner_asid, *ppn, PagePerms::RW)
                .expect("partition healthy, checked above");
            self.machine
                .stage2_grant(peer_asid, *ppn, PagePerms::RW)
                .expect("partition healthy, checked above");
        }

        let owner_va = self
            .partitions
            .get_mut(&owner_asid)
            .expect("validated")
            .map_pages(owner_eid, &ppns, PagePerms::RW)?;
        let peer_va = self
            .partitions
            .get_mut(&peer_asid)
            .expect("validated")
            .map_pages(peer_eid, &ppns, PagePerms::RW)?;

        let handle = ShareHandle(self.next_share);
        self.next_share += 1;
        self.machine.record(EventKind::MemoryShared {
            from: owner_asid,
            to: peer_asid,
            pages,
        });
        // Both partitions map the pages (Figure 6 steps 2–3).
        self.recorder.record([Work::charge(
            TimeCategory::Mgmt,
            self.machine.cost().page_map * (2 * pages as u64),
        )]);
        self.shares.push(ShareRecord {
            handle,
            owner,
            peer,
            pages: ppns,
            frames,
            state: ShareState::Active,
        });
        // Grant on the owner's chain, acceptance on the peer's: the verifier
        // pairs them across chains (causal consistency).
        let at = self.now();
        self.ledger.append(
            owner_asid.as_u32(),
            at,
            SecurityEvent::ShareGranted {
                share: handle.as_u64(),
                owner: owner_asid.as_u32(),
                peer: peer_asid.as_u32(),
                pages: pages as u64,
            },
        );
        self.ledger.append(
            peer_asid.as_u32(),
            at,
            SecurityEvent::ShareAccepted {
                share: handle.as_u64(),
                owner: owner_asid.as_u32(),
                peer: peer_asid.as_u32(),
            },
        );
        Ok((handle, owner_va, peer_va))
    }

    /// Physical pages of a share (tests and the sRPC layer use this).
    ///
    /// # Errors
    ///
    /// [`SpmError::UnknownShare`].
    pub fn share_pages(&self, handle: ShareHandle) -> Result<&[u64], SpmError> {
        self.shares
            .iter()
            .find(|s| s.handle == handle)
            .map(|s| s.pages.as_slice())
            .ok_or(SpmError::UnknownShare(handle))
    }

    // ---- failure detection ------------------------------------------------

    /// Sweeps all partitions for hangs/panics ("the SPM proactively detects
    /// if a P_a hangs by checking the status of P_a's mOS"). Returns the
    /// partitions newly detected as failed.
    pub fn detect_failures(&mut self) -> Vec<AsId> {
        let ids = self.partition_ids();
        let mut newly = Vec::new();
        for asid in ids {
            let failed = self.partitions[&asid].status() == MosStatus::Failed;
            if failed && !self.machine.is_failed(asid) {
                newly.push(asid);
            }
        }
        self.recorder.record([
            Event::Count("failure.detect_sweeps", &[], 1),
            Event::Count("failure.detected", &[], newly.len() as u64),
        ]);
        let at = self.now();
        for asid in &newly {
            self.ledger.append(
                MONITOR_CHAIN,
                at,
                SecurityEvent::FailureDetected {
                    asid: asid.as_u32(),
                },
            );
        }
        newly
    }

    /// Proceed (failover step 1) for one failed partition: invalidates all
    /// peers' stage-2 + SMMU entries for shared memory and marks the
    /// partition failed. Returns `(invalidated_pages, proceed_time)`.
    ///
    /// # Errors
    ///
    /// [`SpmError::UnknownPartition`].
    pub fn fail_partition(&mut self, asid: AsId) -> Result<(usize, SimNs), SpmError> {
        let mos = self
            .partitions
            .get_mut(&asid)
            .ok_or(SpmError::UnknownPartition(asid))?;
        mos.fail();
        let mut invalidated = 0usize;
        let mut poisoned: Vec<(ShareHandle, AsId)> = Vec::new();
        for share in self
            .shares
            .iter_mut()
            .filter(|s| s.state == ShareState::Active)
        {
            let survivor = if share.owner.0 == asid {
                Some(share.peer.0)
            } else if share.peer.0 == asid {
                Some(share.owner.0)
            } else {
                None
            };
            let Some(survivor) = survivor else { continue };
            for ppn in &share.pages {
                if self.machine.stage2_invalidate(survivor, *ppn) {
                    invalidated += 1;
                }
                // Invalidate the survivor's device DMA path too.
                if let Some(device) = self.device_of.get(&survivor) {
                    let stream = StreamId::new(device.as_u32());
                    self.machine.smmu_mut().invalidate(stream, *ppn);
                }
            }
            share.state = ShareState::Poisoned { survivor };
            poisoned.push((share.handle, survivor));
        }
        self.machine.mark_failed(asid);
        let t = self.machine.cost().page_unmap * (invalidated.max(1) as u64);
        // Phase marker after the PartitionFailed event: tests assert the
        // failed → invalidated → cleared → recovered ordering.
        self.machine
            .record(EventKind::Marker("failover:invalidated"));
        let start = self.now();
        self.recorder.record([
            recovery_phase("invalidate", asid, start, t).into(),
            // The clear+reload work item now waits for recover_partition.
            Event::Enqueued("spm.recovery", start),
        ]);
        self.recovery_enqueued.insert(asid, start);
        let at = self.now();
        self.ledger.append(
            asid.as_u32(),
            at,
            SecurityEvent::PartitionFailed {
                asid: asid.as_u32(),
                invalidated: invalidated as u64,
            },
        );
        for (handle, survivor) in poisoned {
            self.ledger.append(
                survivor.as_u32(),
                at,
                SecurityEvent::SharePoisoned {
                    share: handle.as_u64(),
                    survivor: survivor.as_u32(),
                },
            );
        }
        Ok((invalidated, t))
    }

    /// Clear + reload (failover step 2): zeroes the failed partition's
    /// device and shared memory, restarts its mOS from `image`, and clears
    /// the failed mark. Non-faulting partitions keep running throughout.
    ///
    /// # Errors
    ///
    /// [`SpmError::NotFailed`] if step 1 has not run.
    pub fn recover_partition(
        &mut self,
        asid: AsId,
        image: &[u8],
        version: &str,
    ) -> Result<RecoveryStats, SpmError> {
        if !self.machine.is_failed(asid) {
            return Err(SpmError::NotFailed(asid));
        }
        let mos = self
            .partitions
            .get_mut(&asid)
            .ok_or(SpmError::UnknownPartition(asid))?;

        // Step 2a: clear device + smem of the failed partition.
        let mut cleared_pages = 0usize;
        for share in self
            .shares
            .iter()
            .filter(|s| matches!(s.state, ShareState::Poisoned { .. }))
        {
            if share.owner.0 == asid || share.peer.0 == asid {
                cleared_pages += share.pages.len();
            }
        }
        for share in &self.shares {
            if matches!(share.state, ShareState::Poisoned { .. })
                && (share.owner.0 == asid || share.peer.0 == asid)
            {
                for ppn in &share.pages {
                    self.machine.zero_page(*ppn);
                }
            }
        }
        // Revoke the failed partition's stage-2 view of the shares entirely.
        for share in &self.shares {
            if matches!(share.state, ShareState::Poisoned { .. }) {
                for ppn in &share.pages {
                    if share.owner.0 == asid || share.peer.0 == asid {
                        self.machine.stage2_revoke(asid, *ppn);
                    }
                }
            }
        }
        mos.restart(&mut self.machine, image, version);
        self.machine
            .record(EventKind::PartitionCleared { partition: asid });
        self.machine.mark_recovered(asid);

        let cost = self.machine.cost();
        let stats = RecoveryStats {
            invalidated_pages: cleared_pages,
            proceed_time: cost.page_unmap * (cleared_pages.max(1) as u64),
            clear_time: cost.partition_clear,
            restart_time: cost.mos_restart,
        };
        let recovery_enq = self.recovery_enqueued.remove(&asid);
        let t0 = self.now();
        let t1 = t0 + stats.clear_time;
        let phases = [
            recovery_phase("clear", asid, t0, stats.clear_time),
            recovery_phase("reload", asid, t1, stats.restart_time),
        ];
        let served = recovery_enq
            .map(|enq| Event::Served(Served::at("spm.recovery", enq, t0, t1 + stats.restart_time)));
        self.recorder
            .record(phases.into_iter().map(Event::Work).chain(served));
        let at = self.now();
        for step in ["clear", "reload"] {
            self.ledger.append(
                asid.as_u32(),
                at,
                SecurityEvent::RecoveryStep {
                    asid: asid.as_u32(),
                    step,
                },
            );
        }
        Ok(stats)
    }

    /// Proactive mOS restart/update: "a P_a or the untrusted OS proactively
    /// requests a restart of the P_a's mOS to the SPM. This is often caused
    /// by a update or configuration of mOS" (§IV-D). Runs the same
    /// proceed → clear → reload pipeline as a crash, so in-flight sharing
    /// peers observe the standard failure signal rather than a silent
    /// substitution.
    ///
    /// # Errors
    ///
    /// [`SpmError::UnknownPartition`].
    pub fn request_update(
        &mut self,
        asid: AsId,
        new_image: &[u8],
        new_version: &str,
    ) -> Result<RecoveryStats, SpmError> {
        self.fail_partition(asid)?;
        self.recover_partition(asid, new_image, new_version)
    }

    /// Trap handling (failover step 3): a surviving enclave faulted on a
    /// poisoned share's page. The SPM unmaps the enclave's stage-1 entries
    /// for the share, reclaims the pages for the survivor (they were zeroed
    /// in step 2), and delivers a failure signal.
    ///
    /// # Errors
    ///
    /// [`SpmError::NoPoisonedShare`] if the faulting page is not part of any
    /// poisoned share the survivor participates in.
    pub fn handle_trap(&mut self, survivor: AsId, ppn: u64) -> Result<TrapOutcome, SpmError> {
        let idx = self
            .shares
            .iter()
            .position(|s| {
                matches!(s.state, ShareState::Poisoned { survivor: sv } if sv == survivor)
                    && s.pages.contains(&ppn)
            })
            .ok_or(SpmError::NoPoisonedShare { ppn })?;

        let (signalled, failed_asid, pages) = {
            let share = &self.shares[idx];
            let (eid, failed_asid) = if share.owner.0 == survivor {
                (share.owner.1, share.peer.0)
            } else {
                (share.peer.1, share.owner.0)
            };
            (eid, failed_asid, share.pages.clone())
        };

        // Unmap the enclave's stage-1 entries mapping the share.
        let unmapped = self
            .partitions
            .get_mut(&survivor)
            .ok_or(SpmError::UnknownPartition(survivor))?
            .unmap_phys_pages(signalled, &pages);

        // Reclaim: zero (defensive; step 2 already cleared if it ran) and
        // revalidate the survivor's stage-2 entries. The failed endpoint's
        // entries are revoked *now*: once the share is marked reclaimed,
        // recovery's sweep (which only visits poisoned shares) will never
        // touch them, and they would otherwise survive as stale writable
        // mappings of pages the survivor reuses (isolation invariant I1).
        for p in &pages {
            self.machine.zero_page(*p);
            self.machine.stage2_revalidate(survivor, *p);
            self.machine.stage2_revoke(failed_asid, *p);
        }
        self.machine.record(EventKind::FailureSignal {
            partition: survivor,
        });
        self.shares[idx].state = ShareState::Reclaimed;
        let t = self.machine.cost().page_unmap * (unmapped.max(1) as u64);
        let start = self.now();
        let station = "spm.recovery";
        self.recorder.record([
            recovery_phase("trap", survivor, start, t).into(),
            // Trap handling is serviced synchronously inside the fault path:
            // zero wait, unmap-time service.
            Event::Enqueued(station, start),
            Served::at(station, start, start, start + t).into(),
        ]);
        let at = self.now();
        self.ledger.append(
            survivor.as_u32(),
            at,
            SecurityEvent::TrapHandled {
                survivor: survivor.as_u32(),
                ppn,
                signalled: signalled.as_u32(),
            },
        );
        // Capture the black box *after* the trap record so the snapshot's
        // ledger tail includes it. Stream snapshots and the mapping digest
        // are annotated by the core layer, which owns those tables.
        self.ledger
            .capture_blackbox(at, survivor.as_u32(), ppn, signalled.as_u32());
        Ok(TrapOutcome {
            signalled,
            unmapped,
            reclaimed: true,
        })
    }

    /// Reclaims a share when the surviving enclave terminates without ever
    /// touching the poisoned memory ("the (invalidated) shared memory is
    /// reclaimed ... after the mEnclave terminates").
    ///
    /// # Errors
    ///
    /// [`SpmError::UnknownShare`].
    pub fn reclaim_share(&mut self, handle: ShareHandle) -> Result<(), SpmError> {
        let share = self
            .shares
            .iter_mut()
            .find(|s| s.handle == handle)
            .ok_or(SpmError::UnknownShare(handle))?;
        for (asid, eid) in [share.owner, share.peer] {
            if let Some(mos) = self.partitions.get_mut(&asid) {
                mos.unmap_phys_pages(eid, &share.pages);
            }
            for ppn in &share.pages {
                self.machine.stage2_revoke(asid, *ppn);
            }
        }
        for frame in share.frames.drain(..) {
            self.machine.free_frame(frame);
        }
        share.state = ShareState::Reclaimed;
        let owner_chain = share.owner.0.as_u32();
        let at = self.now();
        self.ledger.append(
            owner_chain,
            at,
            SecurityEvent::ShareReclaimed {
                share: handle.as_u64(),
            },
        );
        Ok(())
    }

    /// Builds and signs the attestation report for a partition (§IV-A).
    ///
    /// # Errors
    ///
    /// [`SpmError::UnknownPartition`].
    pub fn make_report(&self, asid: AsId) -> Result<SignedReport, SpmError> {
        let mos = self.mos(asid)?;
        let device_id = self.device_of[&asid];
        let (vendor, endorsement) = self.vendors[&device_id].clone();
        let dt_digest = self
            .machine
            .devtree()
            .map(|dt| measure("devtree", &dt.canonical_bytes()))
            .unwrap_or(cronus_crypto::Digest::ZERO);
        let report = AttestationReport {
            mos_id: mos.id(),
            mos_digest: mos.image_digest(),
            mos_version: mos.version().to_string(),
            enclaves: mos.manager().enclave_measurements(),
            devtree_digest: dt_digest,
            device: mos.hal().attest_device(),
            vendor,
            device_endorsement: endorsement,
        };
        let signature = self.monitor.sign_report(&report.digest());
        // Ledger the measurement the monitor just signed (interior
        // mutability: report generation is a read-only SPM operation).
        self.ledger.append(
            asid.as_u32(),
            self.now(),
            SecurityEvent::AttestMeasurement {
                subject: format!("report {asid}"),
                digest: report.digest(),
            },
        );
        Ok(SignedReport {
            report,
            atk_public: self.monitor.atk_public(),
            atk_endorsement: self.monitor.atk_endorsement(),
            signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cronus_sim::Fault;

    fn two_partition_config() -> BootConfig {
        BootConfig {
            partitions: vec![
                PartitionSpec::new(1, b"cpu-mos", "v1", DeviceSpec::Cpu),
                PartitionSpec::new(
                    2,
                    b"cuda-mos",
                    "v3",
                    DeviceSpec::Gpu {
                        memory: 1 << 24,
                        sms: 46,
                    },
                ),
            ],
            ..Default::default()
        }
    }

    fn booted() -> Spm {
        Spm::boot(two_partition_config())
    }

    fn create_pair(spm: &mut Spm) -> ((AsId, Eid), (AsId, Eid)) {
        let cpu = asid_of(MosId(1));
        let gpu = asid_of(MosId(2));
        let a = spm
            .create_enclave(
                cpu,
                Manifest::new(DeviceKind::Cpu),
                &BTreeMap::new(),
                Owner::App(1),
                7,
            )
            .unwrap();
        let b = spm
            .create_enclave(
                gpu,
                Manifest::new(DeviceKind::Gpu).with_memory(1 << 20),
                &BTreeMap::new(),
                Owner::Enclave(a),
                7,
            )
            .unwrap();
        ((cpu, a), (gpu, b))
    }

    #[test]
    fn boot_creates_partitions_and_locks_tzpc() {
        let spm = booted();
        assert_eq!(spm.partition_ids().len(), 2);
        assert!(spm.machine().tzpc().is_locked());
        assert!(spm.machine().devtree().is_some());
        assert_eq!(
            spm.partition_of_kind(DeviceKind::Gpu),
            Some(asid_of(MosId(2)))
        );
        assert_eq!(spm.partition_of_kind(DeviceKind::Npu), None);
    }

    #[test]
    fn shared_memory_is_readable_by_both_sides() {
        let mut spm = booted();
        let (owner, peer) = create_pair(&mut spm);
        let (_h, owner_va, peer_va) = spm.share_memory(owner, peer, 2).unwrap();

        let (mos_a, machine) = spm.mos_and_machine(owner.0).unwrap();
        mos_a
            .enclave_write(machine, owner.1, owner_va, b"ring-entry")
            .unwrap();

        let (mos_b, machine) = spm.mos_and_machine(peer.0).unwrap();
        let mut buf = [0u8; 10];
        mos_b
            .enclave_read(machine, peer.1, peer_va, &mut buf)
            .unwrap();
        assert_eq!(&buf, b"ring-entry");
    }

    #[test]
    fn eid_partition_mismatch_rejected() {
        let mut spm = booted();
        let (owner, peer) = create_pair(&mut spm);
        // Swap the eids: the SPM validates the mOS part of each eid.
        let err = spm.share_memory((owner.0, peer.1), peer, 1).unwrap_err();
        assert!(matches!(err, SpmError::EidPartitionMismatch { .. }));
    }

    #[test]
    fn proceed_invalidates_survivor_stage2() {
        let mut spm = booted();
        let (owner, peer) = create_pair(&mut spm);
        let (_h, owner_va, _) = spm.share_memory(owner, peer, 1).unwrap();

        let (invalidated, t) = spm.fail_partition(peer.0).unwrap();
        assert_eq!(invalidated, 1);
        assert!(t > SimNs::ZERO);

        // The survivor's next access faults (TOCTOU window closed).
        let (mos_a, machine) = spm.mos_and_machine(owner.0).unwrap();
        let err = mos_a
            .enclave_write(machine, owner.1, owner_va, b"leak?")
            .unwrap_err();
        assert!(matches!(err, MosError::Fault(f) if f.is_stage2()));

        // New sharing with the failed partition is blocked.
        let err = spm.share_memory(owner, peer, 1).unwrap_err();
        assert_eq!(err, SpmError::PartitionFailed(peer.0));
    }

    #[test]
    fn recover_clears_and_restarts_only_faulting_partition() {
        let mut spm = booted();
        let (owner, peer) = create_pair(&mut spm);
        let (h, _, _) = spm.share_memory(owner, peer, 1).unwrap();
        let page = spm.share_pages(h).unwrap()[0];

        // Put secret data in the shared page via raw write (the enclave path
        // is already tested).
        spm.machine_mut()
            .phys_write(World::Secure, PhysAddr::from_page_number(page), b"secret")
            .unwrap();

        spm.fail_partition(peer.0).unwrap();
        let stats = spm.recover_partition(peer.0, b"cuda-mos-v4", "v4").unwrap();
        assert!(
            stats.total() < SimNs::from_secs(1),
            "recovery in sub-second range"
        );
        assert!(stats.total() > SimNs::from_millis(100));

        // Crashed information cleared (A3).
        let data = spm
            .machine_mut()
            .phys_read_vec(World::Secure, PhysAddr::from_page_number(page), 6)
            .unwrap();
        assert_eq!(data, vec![0u8; 6]);

        // The recovered mOS runs the new image; the CPU partition never stopped.
        assert_eq!(spm.mos(peer.0).unwrap().version(), "v4");
        assert_eq!(spm.mos(peer.0).unwrap().status(), MosStatus::Running);
        assert_eq!(spm.mos(owner.0).unwrap().status(), MosStatus::Running);
        assert!(!spm.machine().is_failed(peer.0));
    }

    #[test]
    fn trap_unmaps_signals_and_reclaims() {
        let mut spm = booted();
        let (owner, peer) = create_pair(&mut spm);
        let (h, owner_va, _) = spm.share_memory(owner, peer, 1).unwrap();
        let page = spm.share_pages(h).unwrap()[0];

        spm.fail_partition(peer.0).unwrap();
        spm.recover_partition(peer.0, b"cuda-mos", "v3").unwrap();

        // Survivor touches the poisoned memory: stage-2 fault.
        let (mos_a, machine) = spm.mos_and_machine(owner.0).unwrap();
        let mut buf = [0u8; 1];
        let err = mos_a
            .enclave_read(machine, owner.1, owner_va, &mut buf)
            .unwrap_err();
        let MosError::Fault(Fault::Stage2Unmapped { .. }) = err else {
            panic!("expected stage-2 fault, got {err:?}");
        };

        // The SPM handles the trap.
        let outcome = spm.handle_trap(owner.0, page).unwrap();
        assert_eq!(outcome.signalled, owner.1);
        assert_eq!(outcome.unmapped, 1);
        assert!(outcome.reclaimed);

        // After the trap, the enclave's stage-1 mapping is gone entirely.
        let (mos_a, machine) = spm.mos_and_machine(owner.0).unwrap();
        let err = mos_a
            .enclave_read(machine, owner.1, owner_va, &mut buf)
            .unwrap_err();
        assert!(matches!(err, MosError::Fault(Fault::Stage1Unmapped { .. })));

        // A second trap on the same page is not found (already reclaimed).
        assert!(spm.handle_trap(owner.0, page).is_err());
    }

    #[test]
    fn detect_failures_finds_panicked_mos() {
        let mut spm = booted();
        let gpu = asid_of(MosId(2));
        assert!(spm.detect_failures().is_empty());
        spm.mos_mut(gpu).unwrap().fail();
        assert_eq!(spm.detect_failures(), vec![gpu]);
        spm.fail_partition(gpu).unwrap();
        // Once marked in the machine, it is no longer "newly" failed.
        assert!(spm.detect_failures().is_empty());
    }

    #[test]
    fn proactive_update_swaps_mos_version() {
        let mut spm = booted();
        let (owner, peer) = create_pair(&mut spm);
        let (_h, owner_va, _) = spm.share_memory(owner, peer, 1).unwrap();
        let stats = spm.request_update(peer.0, b"cuda-mos-v4", "v4").unwrap();
        assert!(stats.total() < SimNs::from_secs(1));
        assert_eq!(spm.mos(peer.0).unwrap().version(), "v4");
        // Peers of the updated partition get the standard failure signal on
        // their next shared-memory access — no silent substitution.
        let (mos_a, machine) = spm.mos_and_machine(owner.0).unwrap();
        let err = mos_a
            .enclave_write(machine, owner.1, owner_va, b"x")
            .unwrap_err();
        assert!(matches!(err, MosError::Fault(f) if f.is_stage2()));
    }

    #[test]
    fn recover_healthy_partition_rejected() {
        let mut spm = booted();
        let gpu = asid_of(MosId(2));
        assert_eq!(
            spm.recover_partition(gpu, b"img", "v").unwrap_err(),
            SpmError::NotFailed(gpu)
        );
    }

    #[test]
    fn reclaim_share_frees_frames() {
        let mut spm = booted();
        let (owner, peer) = create_pair(&mut spm);
        let free_before = spm.machine().free_pages(World::Secure);
        let (h, _, _) = spm.share_memory(owner, peer, 3).unwrap();
        assert_eq!(spm.machine().free_pages(World::Secure), free_before - 3);
        spm.reclaim_share(h).unwrap();
        assert_eq!(spm.machine().free_pages(World::Secure), free_before);
    }

    #[test]
    fn attestation_report_covers_partition() {
        use crate::attest::{ClientVerifier, Expectations};
        let mut spm = booted();
        let (_, peer) = create_pair(&mut spm);
        let signed = spm.make_report(peer.0).unwrap();
        assert_eq!(signed.report.mos_id, MosId(2));
        assert_eq!(signed.report.enclaves.len(), 1);

        let mut verifier = ClientVerifier::new(spm.monitor().platform_public());
        verifier.add_vendor("nvidia", vendor_keypair("nvidia").public());
        verifier
            .verify(
                &signed,
                &Expectations {
                    mos_digest: Some(measure("mos-image", b"cuda-mos")),
                    enclaves: signed.report.enclaves.clone(),
                    devtree_digest: Some(signed.report.devtree_digest),
                },
            )
            .unwrap();
    }

    #[test]
    fn concurrent_failures_serialize_step1() {
        let mut config = two_partition_config();
        config.partitions.push(PartitionSpec::new(
            3,
            b"npu-mos",
            "v1",
            DeviceSpec::Npu { memory: 1 << 24 },
        ));
        let mut spm = Spm::boot(config);
        let (owner, peer) = create_pair(&mut spm);
        let npu = asid_of(MosId(3));
        let c = spm
            .create_enclave(
                npu,
                Manifest::new(DeviceKind::Npu).with_memory(1 << 20),
                &BTreeMap::new(),
                Owner::Enclave(owner.1),
                7,
            )
            .unwrap();
        spm.share_memory(owner, peer, 1).unwrap();
        spm.share_memory(owner, (npu, c), 1).unwrap();

        // Both accelerator partitions fail "concurrently"; step 1 runs
        // serially per the paper, steps 2–3 independently.
        spm.fail_partition(peer.0).unwrap();
        spm.fail_partition(npu).unwrap();
        spm.recover_partition(peer.0, b"cuda-mos", "v3").unwrap();
        spm.recover_partition(npu, b"npu-mos", "v1").unwrap();
        assert!(!spm.machine().is_failed(peer.0));
        assert!(!spm.machine().is_failed(npu));
        // The CPU partition survived both.
        assert_eq!(spm.mos(owner.0).unwrap().status(), MosStatus::Running);
    }
}
