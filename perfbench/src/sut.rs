//! The system under test: one platform shape for every workload.

use std::collections::BTreeMap;

use cronus_core::{Actor, CronusSystem, EnclaveRef};
use cronus_crypto::Digest;
use cronus_devices::{vendor_keypair, DeviceKind};
use cronus_mos::manifest::Manifest;
use cronus_spm::attest::{ClientVerifier, Expectations};
use cronus_spm::spm::{BootConfig, DeviceSpec, PartitionSpec};

/// Boots a CPU, a GPU and an NPU partition; the GPU partition runs
/// `gpu_mos_image`.
pub fn boot(gpu_mos_image: &[u8]) -> CronusSystem {
    CronusSystem::boot(BootConfig {
        partitions: vec![
            PartitionSpec::new(1, b"cpu-mos-v1", "v1", DeviceSpec::Cpu),
            PartitionSpec::new(
                2,
                gpu_mos_image,
                "v3",
                DeviceSpec::Gpu {
                    memory: 8 << 30,
                    sms: 46,
                },
            ),
            PartitionSpec::new(
                3,
                b"npu-mos-v1",
                "v1",
                DeviceSpec::Npu { memory: 256 << 20 },
            ),
        ],
        ..Default::default()
    })
}

/// The client: a CPU enclave created by a fresh normal-world app.
pub fn client(sys: &mut CronusSystem) -> Result<EnclaveRef, String> {
    let app = sys.create_app();
    sys.create_enclave(
        Actor::App(app),
        Manifest::new(DeviceKind::Cpu).with_memory(1 << 20),
        &BTreeMap::new(),
    )
    .map_err(|e| format!("client enclave: {e}"))
}

/// A remote verifier trusting this platform and both accelerator vendors.
pub fn verifier(sys: &CronusSystem) -> ClientVerifier {
    let mut v = ClientVerifier::new(sys.spm().monitor().platform_public());
    v.add_vendor("nvidia", vendor_keypair("nvidia").public());
    v.add_vendor("vta", vendor_keypair("vta").public());
    v
}

/// What a client expects of `e`'s partition: the mOS it chose and, when
/// given, `e`'s own measurement.
pub fn expectations(
    e: EnclaveRef,
    mos_digest: Digest,
    measurement: Option<Digest>,
) -> Expectations {
    Expectations {
        mos_digest: Some(mos_digest),
        enclaves: measurement.map(|m| (e.eid, m)).into_iter().collect(),
        devtree_digest: None,
    }
}

/// Remote attestation of `e`'s partition against `expect`.
pub fn attest(
    sys: &CronusSystem,
    verifier: &ClientVerifier,
    e: EnclaveRef,
    expect: &Expectations,
) -> Result<(), String> {
    let report = sys
        .attestation_report(e)
        .map_err(|err| format!("attestation report: {err}"))?;
    verifier
        .verify(&report, expect)
        .map_err(|err| format!("attestation: {err:?}"))
}
