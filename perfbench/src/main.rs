//! The repository benchmark: host and simulated cost of sRPC pipelines,
//! accelerator offload and failover churn, end to end and layer by layer.
//!
//! ```text
//! cronus-perfbench --workload <srpc_pipeline|accel_offload|failover_churn>
//!                  --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See `README.md`.

mod accel;
mod check;
mod churn;
mod gen;
mod srpc;
mod stats;
mod sut;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cronus_obs::Json;

use gen::BLOCK_OPS;
use stats::{median, median_u64, percentile, quantile};
use trace::Tracer;
use workload::{Epoch, Values, Workload};

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ops_per_host_s", "1/s"),
    ("host_op_p50_us", "us"),
    ("host_op_p99_us", "us"),
    ("peak_rss_mb", "MiB"),
    ("sim_ops_per_s", "1/s"),
    ("sim_op_p50_us", "us"),
    ("sim_op_p99_us", "us"),
    ("ops_ok_frac", "ratio"),
];

/// Per-layer metrics, reported by every traced run. A layer the workload
/// does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("core.start_host_ns", "ns"),
    ("core.drain_host_ns_per_req", "ns"),
    ("core.sync_call_host_ns", "ns"),
    ("core.ring_codec_ns", "ns"),
    ("core.doorbells_per_call", "ratio"),
    ("core.zero_copy_grants", "count"),
    ("core.ring_full_stalls", "count"),
    ("core.steals", "count"),
    ("core.stream_open_host_us", "us"),
    ("obs.spans_per_call", "count"),
    ("obs.spans_retained", "count"),
    ("runtime.cuda_h2d_host_us", "us"),
    ("runtime.cuda_launch_host_us", "us"),
    ("runtime.cuda_d2h_host_us", "us"),
    ("runtime.vta_run_host_us", "us"),
    ("devices.gpu_launch_host_us", "us"),
    ("devices.npu_run_host_us", "us"),
    ("spm.create_enclave_host_us", "us"),
    ("spm.inject_host_us", "us"),
    ("spm.recover_host_us", "us"),
    ("crypto.measure_host_us", "us"),
    ("forensics.ledger_records_per_op", "count"),
    ("sim.world_switches_per_op", "count"),
    ("sim.context_switches_per_op", "count"),
    ("sim.world_switch_ns_per_op", "ns"),
    ("sim.context_switch_ns_per_op", "ns"),
    ("sim.crypto_ns_per_op", "ns"),
    ("sim.memcpy_ns_per_op", "ns"),
    ("sim.ring_ns_per_op", "ns"),
    ("sim.kernel_ns_per_op", "ns"),
    ("sim.recovery_ns_per_op", "ns"),
    ("sim.mgmt_ns_per_op", "ns"),
    ("sim.idle_ns_per_op", "ns"),
    ("sim.backlog_ns_per_op", "ns"),
    ("sim.free_secure_pages_end", "count"),
    ("self.bench_us_per_op", "us"),
    ("self.core_us_per_op", "us"),
    ("self.runtime_us_per_op", "us"),
    ("self.spm_us_per_op", "us"),
    ("self.crypto_us_per_op", "us"),
    ("trace.untraced_ops_per_host_s", "1/s"),
    ("trace.traced_ops_per_host_s", "1/s"),
    ("trace.throughput_ratio", "ratio"),
    ("trace.spans_per_op", "count"),
];

/// Layers the benchmark's spans name, with their self-time metric; `bench`
/// is the benchmark's own glue between calls.
const LAYERS: [(&str, &str); 5] = [
    ("bench", "self.bench_us_per_op"),
    ("core", "self.core_us_per_op"),
    ("runtime", "self.runtime_us_per_op"),
    ("spm", "self.spm_us_per_op"),
    ("crypto", "self.crypto_us_per_op"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()?),
                "--trace" => trace = Some(num()? == 1),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?.max(1),
            trace: trace.unwrap_or(false),
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: cronus-perfbench --workload <srpc_pipeline|accel_offload|failover_churn> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "srpc_pipeline" => run(
            &srpc::Srpc {
                plan: gen::srpc_plan(args.seed),
            },
            &args,
        ),
        "accel_offload" => run(
            &accel::Accel {
                plan: gen::accel_plan(args.seed),
            },
            &args,
        ),
        "failover_churn" => run(&churn::Churn::new(gen::churn_plan(args.seed)), &args),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok(report) => {
            println!("{}", report.render());
            if report.get("correct") == Some(&Json::Bool(true)) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs epochs until `--seconds` have passed (at least one warm-up epoch
/// plus two measured ones; with tracing, untraced and traced epochs
/// alternate) and builds the result object.
fn run<W: Workload>(w: &W, args: &Args) -> Result<Json, String> {
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let min_epochs = if args.trace { 5 } else { 3 };
    let mut tr = Tracer::new();
    let mut epochs: Vec<Epoch> = Vec::new();
    let mut peak_rss_mb = f64::NAN;
    while epochs.len() < min_epochs || start.elapsed() < budget {
        let traced = args.trace && epochs.len() % 2 == 1;
        epochs.push(workload::epoch(w, &mut tr, traced)?);
        // Every epoch runs on a fresh system, so the peak after the first
        // three is one epoch's peak; reading it then keeps it independent
        // of how many epochs the run fits in.
        if epochs.len() == 3 {
            peak_rss_mb = peak_rss_mib();
        }
    }

    let mut problems = Vec::new();
    // Every epoch replays the seed: its simulated results must repeat
    // bit for bit.
    let mut reference = Values::new();
    for (i, e) in epochs.iter().enumerate() {
        for (&k, &v) in &e.sim {
            match reference.get(k) {
                Some(r) if r.to_bits() != v.to_bits() => {
                    problems.push(format!("epoch {i}: {k} = {v}, first epoch read {r}"));
                }
                Some(_) => {}
                None => {
                    reference.insert(k, v);
                }
            }
        }
    }
    let attempted: u64 = epochs.iter().map(|e| e.op_host_ns.len() as u64).sum();
    let failed: u64 = epochs.iter().map(|e| e.failed).sum();
    if let Some(f) = epochs.iter().find_map(|e| e.first_failure.as_ref()) {
        problems.push(format!("{failed} failed ops; first: {f}"));
    }

    // Host metrics skip the warm-up epoch.
    let untraced: Vec<&Epoch> = epochs.iter().skip(1).filter(|e| !e.traced).collect();
    let metrics = if args.trace {
        per_layer(w, &tr, &epochs, &untraced, &reference)
    } else {
        let mut m = host_metrics(&epochs, &untraced);
        m.insert("peak_rss_mb", peak_rss_mb);
        for k in ["sim_ops_per_s", "sim_op_p50_us", "sim_op_p99_us"] {
            m.insert(k, reference[k]);
        }
        m.insert("ops_ok_frac", 1.0 - failed as f64 / attempted as f64);
        m
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, _) in table {
        if !metrics.get(name).is_some_and(|v| v.is_finite()) {
            problems.push(format!("metric {name} is missing or not finite"));
        }
    }

    eprintln!(
        "{} seed {}: {} epochs of {} ops, {attempted} ops attempted, {failed} failed",
        args.workload,
        args.seed,
        epochs.len(),
        w.ops()
    );
    for &(name, unit) in table {
        eprintln!(
            "  {name:<34} {:>16.4} {unit}",
            metrics.get(name).copied().unwrap_or(f64::NAN)
        );
    }
    for p in &problems {
        eprintln!("FAIL: {p}");
    }
    if args.trace {
        write_trace(args, &tr, &metrics)?;
    }
    let rendered = table
        .iter()
        .map(|&(name, unit)| {
            let value = metrics.get(name).copied().unwrap_or(0.0);
            (
                name.to_string(),
                Json::obj([("value", Json::F64(value)), ("unit", Json::from(unit))]),
            )
        })
        .collect();
    Ok(Json::obj([
        ("correct", Json::Bool(problems.is_empty())),
        ("attempted", Json::U64(attempted)),
        ("failed", Json::U64(failed)),
        ("metrics", Json::Obj(rendered)),
    ]))
}

/// The host-time end-to-end metrics. A shared machine alternates between
/// speed states in blocks of a few hundred milliseconds, and how much of a
/// run each state gets varies from run to run; the slow state is the one
/// every run has. So throughput and the median are read over the
/// generator's blocks of 100 ops, which all hold the same mix, at the slow
/// end: the 10% quantile of block throughput, the 90% quantile of block
/// medians. The p99 is already a slow-end statistic: each measured epoch's
/// p99 (1000 ops, ten beyond it), median over epochs. Set-up, measured once
/// per epoch, is read at the slow end too: the 90% quantile over every
/// epoch.
fn host_metrics(all: &[Epoch], measured: &[&Epoch]) -> Values {
    let blocks: Vec<&[u64]> = measured
        .iter()
        .flat_map(|e| e.op_host_ns.chunks_exact(BLOCK_OPS))
        .collect();
    let block_ops_per_s: Vec<f64> = blocks
        .iter()
        .map(|b| BLOCK_OPS as f64 / (b.iter().sum::<u64>() as f64 / 1e9))
        .collect();
    let block_p50_us: Vec<f64> = blocks.iter().map(|b| median_u64(b) / 1e3).collect();
    let epoch_p99_us: Vec<f64> = measured
        .iter()
        .map(|e| percentile(&e.op_host_ns, 0.99).map_or(f64::NAN, |ns| ns as f64 / 1e3))
        .collect();
    let setup: Vec<f64> = all.iter().map(|e| e.setup_ns as f64 / 1e9).collect();
    BTreeMap::from([
        ("setup_s", quantile(&setup, 0.9)),
        ("ops_per_host_s", quantile(&block_ops_per_s, 0.1)),
        ("host_op_p50_us", quantile(&block_p50_us, 0.9)),
        ("host_op_p99_us", median(&epoch_p99_us)),
    ])
}

fn per_layer<W: Workload>(
    w: &W,
    tr: &Tracer,
    epochs: &[Epoch],
    untraced: &[&Epoch],
    sim: &Values,
) -> Values {
    let traced: Vec<&Epoch> = epochs.iter().filter(|e| e.traced).collect();
    let mut m: Values = sim.clone();
    // Standalone probes: the median over traced epochs.
    let keys: Vec<&'static str> = traced.iter().flat_map(|e| e.host.keys().copied()).collect();
    for k in keys {
        let v: Vec<f64> = traced
            .iter()
            .filter_map(|e| e.host.get(k).copied())
            .collect();
        m.insert(k, median(&v));
    }
    w.span_layers(tr, &mut m);
    for (layer, metric) in LAYERS {
        m.insert(metric, tr.self_us_per_op(layer));
    }
    let ops_per_s =
        |es: &[&Epoch]| median(&es.iter().map(|e| e.ops_per_host_s()).collect::<Vec<_>>());
    let (base, with) = (ops_per_s(untraced), ops_per_s(&traced));
    m.insert("trace.untraced_ops_per_host_s", base);
    m.insert("trace.traced_ops_per_host_s", with);
    m.insert("trace.throughput_ratio", with / base);
    let spans: usize = tr.samples.values().map(Vec::len).sum();
    m.insert(
        "trace.spans_per_op",
        spans as f64 / tr.traced_ops.max(1) as f64,
    );
    for &(name, _) in &PER_LAYER {
        m.entry(name).or_insert(0.0);
    }
    m
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Writes the first traced epoch's spans and the layer readouts to
/// `$CARGO_TARGET_DIR/perfbench/<workload>-seed<n>.trace.json`.
fn write_trace(args: &Args, tr: &Tracer, metrics: &Values) -> Result<(), String> {
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string()),
    )
    .join("perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    let layers = metrics
        .iter()
        .map(|(k, v)| (k.to_string(), Json::F64(*v)))
        .collect();
    let doc = Json::obj([
        ("workload", Json::from(args.workload.as_str())),
        ("seed", Json::U64(args.seed)),
        ("layers", Json::Obj(layers)),
        ("trace", tr.to_json()),
    ]);
    std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("trace: {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` agree.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = cronus_obs::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |f| m.get(f).and_then(Json::as_str).expect("string").to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload srpc_pipeline --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("srpc_pipeline", 3, 10, true)
        );
        assert!(parse("--workload x --seed no --seconds 1").is_err());
        assert!(parse("--seed 1 --seconds 1").is_err());
        assert!(parse("--workload x --seed 1 --seconds").is_err());
    }
}
