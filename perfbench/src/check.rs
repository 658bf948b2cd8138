//! Output checkers. Each returns `Err` with a one-line reason; every `Err`
//! counts the op as failed.

use cronus_core::StreamStats;

/// FNV-1a: what the echo handlers log for every payload they receive.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The callee saw exactly `sent`, in order.
pub fn received_in_order(sent: &[&[u8]], seen: &[u64]) -> Result<(), String> {
    if sent.len() != seen.len() {
        return Err(format!(
            "callee saw {} payloads, {} sent",
            seen.len(),
            sent.len()
        ));
    }
    match sent.iter().zip(seen).position(|(s, d)| digest(s) != *d) {
        Some(i) => Err(format!("payload {i} arrived corrupted")),
        None => Ok(()),
    }
}

pub fn same_bytes(what: &str, expected: &[u8], got: &[u8]) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!(
            "{what}: {} bytes, expected {}",
            got.len(),
            expected.len()
        ));
    }
    match expected.iter().zip(got).position(|(e, g)| e != g) {
        Some(i) => Err(format!("{what}: byte {i} differs")),
        None => Ok(()),
    }
}

/// The stream counted every call the benchmark issued, and every call
/// either rang or coalesced onto a doorbell.
pub fn stream_accounting(stats: &StreamStats, issued: u64) -> Result<(), String> {
    if stats.calls != issued {
        return Err(format!(
            "stream counted {} calls, {issued} issued",
            stats.calls
        ));
    }
    if stats.doorbells_rung + stats.doorbells_coalesced != stats.calls {
        return Err(format!(
            "doorbells {} rung + {} coalesced != {} calls",
            stats.doorbells_rung, stats.doorbells_coalesced, stats.calls
        ));
    }
    Ok(())
}

pub fn f32_bytes(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

pub fn f32s(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// CPU reference for `saxpy`.
pub fn saxpy_ref(a: f32, x: &[f32], y: &[f32]) -> Vec<f32> {
    x.iter().zip(y).map(|(xi, yi)| yi + a * xi).collect()
}

/// CPU reference for `matmul`: `c[m x n] = a[m x k] * b[k x n]`.
pub fn gemm_ref(a: &[f32], b: &[f32], m: usize, n: usize, k: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            c[i * n + j] = (0..k).map(|kk| a[i * k + kk] * b[kk * n + j]).sum();
        }
    }
    c
}

/// CPU reference for the tiled VTA GEMM: `out = sat_i8((inp * wgt^T) >> 4)`.
pub fn vta_gemm_ref(inp: &[u8], wgt: &[u8], dim: usize) -> Vec<u8> {
    let mut out = vec![0u8; dim * dim];
    for i in 0..dim {
        for j in 0..dim {
            let acc: i32 = (0..dim)
                .map(|k| inp[i * dim + k] as i8 as i32 * wgt[j * dim + k] as i8 as i32)
                .sum();
            out[i * dim + j] = (acc >> 4).clamp(i8::MIN as i32, i8::MAX as i32) as i8 as u8;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_checker_catches_a_corrupted_or_missing_payload() {
        let sent: [&[u8]; 2] = [b"abc", b"de"];
        let good = [digest(b"abc"), digest(b"de")];
        assert!(received_in_order(&sent, &good).is_ok());
        assert!(received_in_order(&sent, &[digest(b"abc"), digest(b"dE")]).is_err());
        assert!(received_in_order(&sent, &good[..1]).is_err());
        assert!(received_in_order(&sent, &[good[1], good[0]]).is_err());
        assert!(same_bytes("echo", b"abc", b"abc").is_ok());
        assert!(same_bytes("echo", b"abc", b"abd").is_err());
        assert!(same_bytes("echo", b"abc", b"ab").is_err());
    }

    #[test]
    fn accounting_checker_catches_miscounts() {
        let stats = StreamStats {
            calls: 5,
            doorbells_rung: 2,
            doorbells_coalesced: 3,
            ..Default::default()
        };
        assert!(stream_accounting(&stats, 5).is_ok());
        assert!(stream_accounting(&stats, 6).is_err());
        let lost = StreamStats {
            doorbells_coalesced: 2,
            ..stats
        };
        assert!(stream_accounting(&lost, 5).is_err());
    }

    #[test]
    fn gpu_references_catch_a_wrong_result() {
        let (x, y) = ([1.0, 2.0], [3.0, -1.0]);
        let want = f32_bytes(&saxpy_ref(2.0, &x, &y));
        assert_eq!(want, f32_bytes(&[5.0, 3.0]));
        assert!(same_bytes("saxpy", &want, &f32_bytes(&[5.0, 3.5])).is_err());
        // [1 2; 3 4] * [5 6; 7 8]
        let c = gemm_ref(&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0], 2, 2, 2);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
        let wrong = f32_bytes(&[19.0, 22.0, 43.0, 51.0]);
        assert!(same_bytes("gemm", &f32_bytes(&c), &wrong).is_err());
    }

    #[test]
    fn vta_reference_shifts_saturates_and_catches_a_wrong_result() {
        // 1x1: 7 * 5 = 35 >> 4 = 2; and -128 * 127 * 2 saturates low.
        assert_eq!(vta_gemm_ref(&[7], &[5], 1), [2]);
        let inp = [0x80u8, 0x80, 0, 0];
        let wgt = [127u8, 127, 0, 0];
        let out = vta_gemm_ref(&inp, &wgt, 2);
        assert_eq!(out[0] as i8, i8::MIN);
        assert!(same_bytes("vta", &out, &[out[0], out[1], out[2], 1]).is_err());
    }
}
