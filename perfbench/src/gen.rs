//! Seeded input generation. Every input the program receives — payload
//! sizes and bytes, window lengths, the accelerator step mix, GEMM
//! dimensions, failover cycle shapes — comes from here, and only from the
//! workload seed.

use cronus_core::system::DEFAULT_ARENA_PAGES;
use cronus_sim::PAGE_SIZE;

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// `true` with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i as u64) as usize);
        }
    }

    /// A small signed integer in `-span..=span`, exact in f32 and i8.
    pub fn small_int(&mut self, span: i64) -> i64 {
        self.range(0, 2 * span as u64) as i64 - span
    }
}

/// Ops (windows, steps or cycles) per epoch: enough that the p99 of one
/// epoch has ten samples beyond it.
pub const OPS_PER_EPOCH: usize = 1000;

/// Ops per block. Where a workload mixes op shapes, every block of an
/// epoch holds the same mix in seeded order, so blocks compare with each
/// other and runs with each other; the host metrics are read per block.
pub const BLOCK_OPS: usize = 100;

/// Payloads at or above this size travel as zero-copy grants.
pub const ZERO_COPY_THRESHOLD: usize = 256;
/// Largest granted payload. A window's 65 in-flight grants of this size
/// fit the grant arena, so wraparound never reuses an unconsumed grant.
pub const LARGE_MAX: usize = 3072;
const _: () = assert!(65 * LARGE_MAX as u64 <= DEFAULT_ARENA_PAGES as u64 * PAGE_SIZE);
/// Bytes payloads are sliced from.
const POOL_BYTES: usize = 8192;

/// One generated payload: a slice of the plan's byte pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Payload {
    pub offset: usize,
    pub len: usize,
}

impl Payload {
    pub fn bytes(self, pool: &[u8]) -> &[u8] {
        &pool[self.offset..self.offset + self.len]
    }
}

fn pool(rng: &mut Rng) -> Vec<u8> {
    (0..POOL_BYTES).map(|_| rng.next_u64() as u8).collect()
}

fn payload(rng: &mut Rng, len: usize) -> Payload {
    let offset = rng.range(0, (POOL_BYTES - len) as u64) as usize;
    Payload { offset, len }
}

/// A ring-slot payload: small enough that its echo fits a result slot.
fn small_payload(rng: &mut Rng) -> Payload {
    let len = rng.range(8, ZERO_COPY_THRESHOLD as u64 - 1) as usize;
    payload(rng, len)
}

/// Mostly ring-slot payloads; one in eight is granted.
fn mixed_payload(rng: &mut Rng) -> Payload {
    if rng.chance(1, 8) {
        let len = rng.range(ZERO_COPY_THRESHOLD as u64, LARGE_MAX as u64) as usize;
        payload(rng, len)
    } else {
        small_payload(rng)
    }
}

/// `srpc_pipeline`: windows of 1–64 async `echo` calls with mixed
/// payloads, each closed by one `echo_sync` whose result comes back whole.
/// Each block holds one window of every length from an even spread over
/// 1–64.
#[derive(Clone, Debug, PartialEq)]
pub struct SrpcPlan {
    pub pool: Vec<u8>,
    pub windows: Vec<Window>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Window {
    pub calls: Vec<Payload>,
    pub sync: Payload,
}

pub fn srpc_plan(seed: u64) -> SrpcPlan {
    let mut rng = Rng::new(seed);
    let pool = pool(&mut rng);
    let mut lengths: Vec<usize> = (0..BLOCK_OPS).map(|i| 1 + 64 * i / BLOCK_OPS).collect();
    let mut windows = Vec::with_capacity(OPS_PER_EPOCH);
    while windows.len() < OPS_PER_EPOCH {
        rng.shuffle(&mut lengths);
        for &n in &lengths {
            windows.push(Window {
                calls: (0..n).map(|_| mixed_payload(&mut rng)).collect(),
                sync: small_payload(&mut rng),
            });
        }
    }
    SrpcPlan { pool, windows }
}

/// One `accel_offload` step. Operand values derive from `data_seed`, so
/// they are regenerated per step rather than held for the whole epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Step {
    /// `y += a * x` over `n` f32s: two H2D copies, a launch, one D2H copy.
    Saxpy { n: usize, a: i64, data_seed: u64 },
    /// `c[m x n] = a[m x k] * b[k x n]` on the GPU.
    Gemm {
        m: usize,
        n: usize,
        k: usize,
        data_seed: u64,
    },
    /// A tiled int8 `VTA_DIM x VTA_DIM` GEMM on the VTA.
    Vta { data_seed: u64 },
}

/// Saxpy lengths are uniform in `SAXPY_MIN..=SAXPY_MAX`.
pub const SAXPY_MIN: usize = 1024;
pub const SAXPY_MAX: usize = 4096;
/// GEMM dimensions are uniform in `GEMM_MIN..=GEMM_MAX`, so the largest
/// GEMMs — the simulated-time tail — differ from seed to seed.
pub const GEMM_MIN: usize = 64;
pub const GEMM_MAX: usize = 96;
pub const VTA_DIM: usize = 32;
pub const VTA_TILE: usize = 16;

#[derive(Clone, Debug, PartialEq)]
pub struct AccelPlan {
    pub steps: Vec<Step>,
}

/// Steps come in blocks of four — two saxpy, one GEMM, one VTA GEMM — in
/// seeded order with seeded shapes, so every seed runs the same mix.
pub fn accel_plan(seed: u64) -> AccelPlan {
    let mut rng = Rng::new(seed);
    let mut kinds = [0u64, 0, 1, 2];
    let steps = (0..OPS_PER_EPOCH)
        .map(|i| {
            if i % kinds.len() == 0 {
                rng.shuffle(&mut kinds);
            }
            let data_seed = rng.next_u64();
            match kinds[i % kinds.len()] {
                0 => Step::Saxpy {
                    n: rng.range(SAXPY_MIN as u64, SAXPY_MAX as u64) as usize,
                    a: rng.small_int(4),
                    data_seed,
                },
                1 => {
                    let mut dim = || rng.range(GEMM_MIN as u64, GEMM_MAX as u64) as usize;
                    Step::Gemm {
                        m: dim(),
                        n: dim(),
                        k: dim(),
                        data_seed,
                    }
                }
                _ => Step::Vta { data_seed },
            }
        })
        .collect();
    AccelPlan { steps }
}

/// Integer-valued f32 operands, so GPU results compare exactly.
pub fn f32_operand(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.small_int(4) as f32).collect()
}

/// Small int8 operands, so VTA accumulators never saturate before the shift.
pub fn i8_operand(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.small_int(8) as i8 as u8).collect()
}

/// `failover_churn`: per cycle, the payloads of the verified `echo_sync`
/// calls made before the failure is injected.
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnPlan {
    pub pool: Vec<u8>,
    /// The GPU partition's mOS image, measured at boot and every recovery.
    pub mos_image: Vec<u8>,
    /// The callee enclave's image, measured at every spawn.
    pub enclave_image: Vec<u8>,
    pub cycles: Vec<Vec<Payload>>,
}

pub const MOS_IMAGE_BYTES: usize = 64 << 10;
pub const ENCLAVE_IMAGE_BYTES: usize = 16 << 10;

pub fn churn_plan(seed: u64) -> ChurnPlan {
    let mut rng = Rng::new(seed);
    let pool = pool(&mut rng);
    let mos_image = (0..MOS_IMAGE_BYTES).map(|_| rng.next_u64() as u8).collect();
    let enclave_image = (0..ENCLAVE_IMAGE_BYTES)
        .map(|_| rng.next_u64() as u8)
        .collect();
    let cycles = (0..OPS_PER_EPOCH)
        .map(|_| {
            let n = rng.range(2, 6) as usize;
            (0..n).map(|_| small_payload(&mut rng)).collect()
        })
        .collect();
    ChurnPlan {
        pool,
        mos_image,
        enclave_image,
        cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_identical_per_seed_and_differ_across_seeds() {
        assert_eq!(format!("{:?}", srpc_plan(7)), format!("{:?}", srpc_plan(7)));
        assert_eq!(
            format!("{:?}", accel_plan(7)),
            format!("{:?}", accel_plan(7))
        );
        assert_eq!(
            format!("{:?}", churn_plan(7)),
            format!("{:?}", churn_plan(7))
        );
        assert_ne!(srpc_plan(7), srpc_plan(8));
        assert_ne!(accel_plan(7), accel_plan(8));
        assert_ne!(churn_plan(7), churn_plan(8));
    }

    #[test]
    fn every_accel_seed_runs_the_same_mix() {
        for seed in [1, 2] {
            let steps = accel_plan(seed).steps;
            let count = |f: fn(&Step) -> bool| steps.iter().filter(|s| f(s)).count();
            assert_eq!(
                count(|s| matches!(s, Step::Saxpy { .. })),
                OPS_PER_EPOCH / 2
            );
            assert_eq!(count(|s| matches!(s, Step::Gemm { .. })), OPS_PER_EPOCH / 4);
            assert_eq!(count(|s| matches!(s, Step::Vta { .. })), OPS_PER_EPOCH / 4);
        }
    }

    #[test]
    fn payload_mix_has_both_paths_and_fits_the_arena() {
        let plan = srpc_plan(1);
        let all: Vec<Payload> = plan
            .windows
            .iter()
            .flat_map(|w| w.calls.iter().copied().chain([w.sync]))
            .collect();
        let granted = all.iter().filter(|p| p.len >= ZERO_COPY_THRESHOLD).count();
        assert!(granted > 0 && granted * 4 < all.len());
        assert!(all
            .iter()
            .all(|p| p.len <= LARGE_MAX && p.offset + p.len <= POOL_BYTES));
        let blocks: Vec<Vec<usize>> = plan
            .windows
            .chunks(BLOCK_OPS)
            .map(|b| {
                let mut lens: Vec<usize> = b.iter().map(|w| w.calls.len()).collect();
                lens.sort_unstable();
                lens
            })
            .collect();
        assert_eq!(blocks.len(), OPS_PER_EPOCH / BLOCK_OPS);
        assert!(
            blocks.iter().all(|b| *b == blocks[0]),
            "every block holds the same lengths"
        );
        assert_eq!((blocks[0][0], blocks[0][BLOCK_OPS - 1]), (1, 64));
    }
}
