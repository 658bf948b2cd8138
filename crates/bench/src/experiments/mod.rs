//! Experiment implementations, one module per paper artifact.

pub mod fig10;
pub mod fig11;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod interference;
pub mod rpc_micro;
pub mod saturation;
pub mod tables;

use cronus_core::{Actor, CronusSystem, EnclaveRef};
use cronus_devices::DeviceKind;
use cronus_mos::manifest::Manifest;
use cronus_spm::spm::{BootConfig, DeviceSpec, PartitionSpec};
use std::collections::BTreeMap;

/// Boots the standard evaluation platform: one CPU partition, one GPU
/// partition, one NPU partition (Table II analogue).
pub fn standard_boot() -> BootConfig {
    BootConfig {
        partitions: vec![
            PartitionSpec::new(1, b"cpu-mos-v1", "v1", DeviceSpec::Cpu),
            PartitionSpec::new(
                2,
                b"cuda-mos-v3",
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
    }
}

/// Boots a platform with `gpus` GPU partitions (Fig. 11b).
pub fn multi_gpu_boot(gpus: u8) -> BootConfig {
    let mut partitions = vec![PartitionSpec::new(1, b"cpu-mos-v1", "v1", DeviceSpec::Cpu)];
    for g in 0..gpus {
        partitions.push(PartitionSpec::new(
            2 + g,
            b"cuda-mos-v3",
            "v3",
            DeviceSpec::Gpu {
                memory: 8 << 30,
                sms: 46,
            },
        ));
    }
    BootConfig {
        partitions,
        ..Default::default()
    }
}

/// Every figure [`recorded_figure`] knows, in report order.
pub const FIGURES: [&str; 10] = [
    "fig7",
    "fig8",
    "fig9",
    "fig10a",
    "fig10b",
    "fig11a",
    "fig11b",
    "rpc_micro",
    "saturation",
    "fig_interference",
];

/// Default seed for the seeded workloads (saturation, fig_interference).
pub const DEFAULT_SEED: u64 = 42;

/// Default call count for the saturation workload.
pub const DEFAULT_CALLS: u64 = 400;

/// Runs figure `name` at a reduced, diagnosis-friendly scale and returns
/// its flight recorder, or `None` for an unknown name. `seed` drives the
/// seeded workloads (saturation, fig_interference) and `calls` sizes
/// saturation; the paper figures are fixed. `obs report|meter` and the
/// queue-observatory umbrella test use this to point the analyzer at any
/// figure's queues without paying for the full bench scale.
pub fn recorded_figure(name: &str, seed: u64, calls: u64) -> Option<cronus_obs::FlightRecorder> {
    Some(match name {
        "fig7" => fig7::run_recorded(2).1,
        "fig8" => fig8::run_recorded().1,
        "fig9" => fig9::run().recorder,
        "fig10a" => fig10::run_10a_recorded(2).1,
        "fig10b" => fig10::run_10b_recorded().1,
        "fig11a" => fig11::run_11a_recorded(&[1, 2]).1,
        "fig11b" => fig11::run_11b_recorded(&[1, 2]).1,
        "rpc_micro" => rpc_micro::run_recorded(200).2,
        "saturation" => saturation::run_recorded(seed, calls),
        "fig_interference" => interference::run_recorded(seed, 24).recorder,
        _ => return None,
    })
}

/// Creates a driving CPU mEnclave owned by a fresh app.
pub fn cpu_enclave(sys: &mut CronusSystem) -> EnclaveRef {
    let app = sys.create_app();
    sys.create_enclave(
        Actor::App(app),
        Manifest::new(DeviceKind::Cpu).with_memory(1 << 20),
        &BTreeMap::new(),
    )
    .expect("cpu enclave creation")
}
