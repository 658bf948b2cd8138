//! Regenerates the saturation baseline (the `obs report` mixed workload).
//!
//! Not a paper figure, but it is the run that pushes every queue class at
//! once, so its bundle is the richest input the differential-forensics
//! engine has. Usage: `saturation [seed] [calls]` (defaults 42, 400).
use cronus_bench::experiments::saturation;
use cronus_bench::{artifacts, baseline};

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(42);
    let calls: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(400);
    let rec = saturation::run_recorded(seed, calls);
    print!(
        "{}",
        rec.queue_report(cronus_obs::queue::DEFAULT_LITTLE_TOLERANCE)
            .render_text()
    );
    artifacts::dump_and_report("saturation", &rec);
    baseline::emit(
        "saturation",
        vec![baseline::Headline::ns("total_sim_ns", rec.total_elapsed())],
        vec![
            ("seed".to_string(), seed.to_string()),
            ("calls".to_string(), calls.to_string()),
        ],
        &rec,
    );
}
