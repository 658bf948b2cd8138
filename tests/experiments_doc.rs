//! EXPERIMENTS.md quotes figure headlines; every quote must equal the
//! committed `BENCH_<figure>.json` value at the precision the doc prints,
//! so a rebaseline that moves a headline also has to move its quote.

use cronus::bench::baseline::BenchReport;

fn headline(figure: &str, key: &str) -> f64 {
    let path = format!("{}/BENCH_{figure}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let report = BenchReport::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    report
        .headlines
        .iter()
        .find(|h| h.key == key)
        .unwrap_or_else(|| panic!("{path}: no headline `{key}`"))
        .value
}

/// `215749.7` → `215,750`.
fn thousands(v: f64) -> String {
    let digits = format!("{v:.0}");
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[test]
fn quoted_headlines_match_the_committed_baselines() {
    let h = headline;
    let quotes = [
        // Figure 7.
        format!("average {:+.2}%", h("fig7", "avg_cronus_overhead_pct")),
        format!(
            "worst workload {:+.2}%",
            h("fig7", "worst_cronus_overhead_pct")
        ),
        // Figure 8 (cronus column).
        format!("| {:.1} µs |", h("fig8", "lenet_cronus_ns") / 1e3),
        format!("| {:.2} ms |", h("fig8", "resnet50_cronus_ns") / 1e6),
        format!("| {:.2} ms |", h("fig8", "vgg16_cronus_ns") / 1e6),
        format!("| {:.2} ms |", h("fig8", "densenet_cronus_ns") / 1e6),
        format!("average {:+.2}%", h("fig8", "avg_cronus_overhead_pct")),
        // Figure 9.
        format!("proceed {:.1} µs", h("fig9", "recovery_proceed_ns") / 1e3),
        format!("clear {:.0} ms", h("fig9", "recovery_clear_ns") / 1e6),
        format!(
            "mOS restart {:.0} ms",
            h("fig9", "recovery_restart_ns") / 1e6
        ),
        format!(
            "**{:.0} ms** recovery",
            h("fig9", "recovery_total_ns") / 1e6
        ),
        format!("~{:.0} s", h("fig9", "reboot_total_ns") / 1e9),
        // Figure 10.
        format!("CRONUS {:.3}", h("fig10a", "avg_cronus_gops")),
        format!("{:.1}% of native", h("fig10a", "avg_native_retention_pct")),
        format!("resnet18 {:.1} ms", h("fig10b", "resnet18_npu_ns") / 1e6),
        format!("resnet50 {:.1} ms", h("fig10b", "resnet50_npu_ns") / 1e6),
        format!("yolov3 {:.0} ms", h("fig10b", "yolov3_npu_ns") / 1e6),
        // Figure 11.
        format!("1 → {}", thousands(h("fig11a", "dedicated_samples_per_s"))),
        format!("4 → {}", thousands(h("fig11a", "shared_4x_samples_per_s"))),
        format!(
            "| 4 | {} | {} | {} |",
            thousands(h("fig11b", "pcie_p2p_4gpu_samples_per_s")),
            thousands(h("fig11b", "secure_memory_4gpu_samples_per_s")),
            thousands(h("fig11b", "encrypted_memory_4gpu_samples_per_s")),
        ),
        // RPC microbenchmark.
        format!("| {:.2} µs | 0 |", h("rpc_micro", "srpc_per_call_ns") / 1e3),
        format!(
            "| {:.1} µs | 8 |",
            h("rpc_micro", "sync_rpc_per_call_ns") / 1e3
        ),
        format!(
            "| {:.1} µs | 8 |",
            h("rpc_micro", "encrypted_rpc_per_call_ns") / 1e3
        ),
        format!("≈ {:.3})", h("rpc_micro", "srpc_doorbells_per_call")),
        format!(
            "≈ {:.2} µs",
            h("rpc_micro", "srpc_grant_4k_per_call_ns") / 1e3
        ),
    ];
    let path = format!("{}/EXPERIMENTS.md", env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(&path).expect("EXPERIMENTS.md");
    let stale: Vec<&String> = quotes
        .iter()
        .filter(|q| !doc.contains(q.as_str()))
        .collect();
    assert!(
        stale.is_empty(),
        "EXPERIMENTS.md does not quote these committed headlines: {stale:#?}"
    );
}
