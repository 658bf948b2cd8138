//! Dumps flight-recorder artifacts next to the figure tables.
//!
//! Every figure binary calls [`dump`] after printing its table, writing
//! three files under `target/bench/`:
//!
//! - `<name>.metrics.json` — the metrics snapshot (counters, gauges,
//!   histograms, time attribution),
//! - `<name>.trace.json`   — Chrome trace events; load in Perfetto or
//!   `chrome://tracing`,
//! - `<name>.folded`       — folded stacks for flamegraph tooling.

use std::fs;
use std::path::PathBuf;

use cronus_obs::{FlightRecorder, LabelSet};

/// Where artifacts land, relative to the current working directory.
pub const ARTIFACT_DIR: &str = "target/bench";

/// Paths written by one [`dump`] call.
#[derive(Debug, Clone)]
pub struct ArtifactPaths {
    /// The metrics snapshot JSON.
    pub metrics: PathBuf,
    /// The Chrome trace JSON.
    pub trace: PathBuf,
    /// The folded flamegraph stacks.
    pub folded: PathBuf,
}

/// Writes the recorder's exports for run `name` and returns the paths.
pub fn dump(name: &str, rec: &FlightRecorder) -> std::io::Result<ArtifactPaths> {
    let dir = PathBuf::from(ARTIFACT_DIR);
    fs::create_dir_all(&dir)?;
    let paths = ArtifactPaths {
        metrics: dir.join(format!("{name}.metrics.json")),
        trace: dir.join(format!("{name}.trace.json")),
        folded: dir.join(format!("{name}.folded")),
    };
    fs::write(&paths.metrics, rec.metrics_snapshot_json(name))?;
    fs::write(&paths.trace, rec.chrome_trace_json())?;
    fs::write(&paths.folded, rec.folded_stacks())?;
    Ok(paths)
}

/// [`dump`] plus a one-line note on stdout; IO errors become a warning
/// rather than failing the run (figure output is the primary artifact).
///
/// Also warns when the run's simulator event log dropped events (the
/// `eventlog.dropped` gauge, published when the run's system is dropped):
/// counters derived from the log undercount in that case.
pub fn dump_and_report(name: &str, rec: &FlightRecorder) {
    let dropped = rec.with(|r| r.metrics.gauge("eventlog.dropped", &LabelSet::empty()));
    if dropped > 0 {
        eprintln!(
            "[obs] {name}: WARNING: event log dropped {dropped} events; \
             event-derived counters undercount (raise the log capacity)"
        );
    }
    match dump(name, rec) {
        Ok(p) => println!(
            "[obs] {}: metrics={} trace={} folded={}",
            name,
            p.metrics.display(),
            p.trace.display(),
            p.folded.display()
        ),
        Err(e) => eprintln!("[obs] {name}: failed to write artifacts: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cronus_obs::is_well_formed;

    #[test]
    fn dump_writes_parseable_files() {
        let rec = FlightRecorder::new();
        rec.record([
            cronus_obs::Event::Count("x", &[("k", "v")], 3),
            cronus_obs::Event::Sample("lat", &[], cronus_sim::SimNs::from_nanos(512)),
        ]);
        let paths = dump("unit-test-dump", &rec).expect("dump succeeds");
        let metrics = std::fs::read_to_string(&paths.metrics).unwrap();
        let trace = std::fs::read_to_string(&paths.trace).unwrap();
        assert!(is_well_formed(&metrics));
        assert!(is_well_formed(&trace));
        for p in [paths.metrics, paths.trace, paths.folded] {
            let _ = std::fs::remove_file(p);
        }
    }
}
