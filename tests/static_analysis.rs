//! Fixture suite for the cronus-lint v2 engine (`cronus::audit`).
//!
//! Each known-bad fixture is a miniature repo — file paths mimic the real
//! crate layout so the rule catalog's source/sink/sanitizer/root suffixes
//! resolve — and must trip **exactly one** rule with the expected
//! counterexample chain. Good fixtures encode the sanctioned patterns
//! (digest-then-record, `public()` declassification, unreachable panics)
//! and must be clean. The final test pins full-repo determinism:
//! byte-identical reports across runs.

use cronus::audit::baseline::{self, Baseline};
use cronus::audit::engine::{run, Report, SourceSet};

/// Shared fixture scaffolding: just enough of the real crate surface for
/// the catalog's declared paths to resolve.
fn scaffold() -> Vec<(String, String)> {
    vec![
        (
            "crates/crypto/src/schnorr.rs".into(),
            "pub struct KeyPair(u64);\n\
             impl KeyPair {\n\
                 pub fn from_seed(seed: &str) -> KeyPair { KeyPair(seed.len() as u64) }\n\
                 pub fn derive(&self, label: &str) -> KeyPair { KeyPair(self.0 ^ label.len() as u64) }\n\
                 pub fn public(&self) -> u64 { self.0 >> 1 }\n\
             }\n"
            .into(),
        ),
        (
            "crates/crypto/src/lib.rs".into(),
            "pub fn measure(label: &str, data: &[u8]) -> u64 { (label.len() + data.len()) as u64 }\n"
                .into(),
        ),
        (
            "crates/obs/src/recorder.rs".into(),
            "pub struct FlightRecorder;\n\
             impl FlightRecorder {\n\
                 pub fn record(&self, event: String) { let _ = event; }\n\
             }\n"
            .into(),
        ),
        // A second, non-sink `record` method, as in the real repo: method
        // calls resolve by name, so `rec.record(..)` is ambiguous.
        (
            "crates/sim/src/trace.rs".into(),
            "pub struct EventLog;\n\
             impl EventLog {\n\
                 pub fn record(&mut self, at: u64, kind: u8) { let _ = (at, kind); }\n\
             }\n"
            .into(),
        ),
        (
            "crates/forensics/src/ledger.rs".into(),
            "pub struct Ledger;\n\
             impl Ledger {\n\
                 pub fn append(&self, chain: u32, line: String) { let _ = (chain, line); }\n\
             }\n"
            .into(),
        ),
    ]
}

fn report_for(mut extra: Vec<(String, String)>) -> Report {
    let mut files = scaffold();
    files.append(&mut extra);
    run(&SourceSet::from_files(files))
}

fn chain_notes(r: &Report, idx: usize) -> Vec<String> {
    r.findings[idx]
        .chain
        .iter()
        .map(|s| s.note.clone())
        .collect()
}

// ---- known-bad fixtures: each trips exactly one rule -----------------------

#[test]
fn secret_key_into_span_label_trips_secret_taint_only() {
    let r = report_for(vec![(
        "crates/spm/src/monitor.rs".into(),
        "use cronus_crypto::schnorr::KeyPair;\n\
         use cronus_obs::recorder::FlightRecorder;\n\
         pub fn boot_monitor(rec: &FlightRecorder) {\n\
             let platform = KeyPair::from_seed(\"fused-rom\");\n\
             rec.record(format!(\"boot key={platform}\"));\n\
         }\n"
        .into(),
    )]);
    assert_eq!(r.findings.len(), 1, "exactly one finding:\n{}", r.render());
    let f = &r.findings[0];
    assert_eq!(f.rule, "secret-taint");
    assert_eq!(f.path, "crates/spm/src/monitor.rs");
    assert_eq!(f.line, 5);
    assert!(
        f.message.contains("FlightRecorder::record"),
        "{}",
        f.message
    );
    let notes = chain_notes(&r, 0);
    assert!(
        notes[0].contains("secret source `cronus_crypto::schnorr::KeyPair::from_seed`"),
        "{notes:?}"
    );
    assert!(notes.iter().any(|n| n.contains("`platform`")), "{notes:?}");
    assert!(notes.last().unwrap().contains("sink"), "{notes:?}");
}

#[test]
fn secret_inside_event_struct_literal_passed_to_record_trips_secret_taint_only() {
    let r = report_for(vec![(
        "crates/spm/src/monitor.rs".into(),
        "use cronus_crypto::schnorr::KeyPair;\n\
         use cronus_obs::event::Served;\n\
         use cronus_obs::recorder::FlightRecorder;\n\
         pub fn boot_monitor(rec: &FlightRecorder, t: u64) {\n\
             let platform = KeyPair::from_seed(\"fused-rom\");\n\
             rec.record([Served { station: &format!(\"key={platform}\"), enqueued: t, started: t, finished: t, srpc: None }]);\n\
         }\n"
        .into(),
    )]);
    assert_eq!(r.findings.len(), 1, "exactly one finding:\n{}", r.render());
    let f = &r.findings[0];
    assert_eq!(f.rule, "secret-taint");
    assert_eq!(f.path, "crates/spm/src/monitor.rs");
    assert_eq!(f.line, 6);
    assert!(
        f.message.contains("FlightRecorder::record"),
        "{}",
        f.message
    );
    let notes = chain_notes(&r, 0);
    assert!(
        notes[0].contains("secret source `cronus_crypto::schnorr::KeyPair::from_seed`"),
        "{notes:?}"
    );
    assert!(notes.iter().any(|n| n.contains("`platform`")), "{notes:?}");
    assert!(notes.last().unwrap().contains("sink"), "{notes:?}");
}

#[test]
fn decoded_payload_into_ledger_trips_secret_taint_only() {
    let r = report_for(vec![
        (
            "crates/core/src/ring.rs".into(),
            "pub struct Request { pub name: String }\n\
             pub fn decode_request(slot: &[u8]) -> Request {\n\
                 Request { name: format!(\"{}\", slot.len()) }\n\
             }\n"
            .into(),
        ),
        (
            "crates/core/src/srpc.rs".into(),
            "use cronus_forensics::ledger::Ledger;\n\
             pub fn record_request(l: &Ledger, slot: &[u8]) {\n\
                 let req = decode_request(slot);\n\
                 l.append(0, format!(\"req={req}\"));\n\
             }\n"
            .into(),
        ),
    ]);
    assert_eq!(r.findings.len(), 1, "exactly one finding:\n{}", r.render());
    let f = &r.findings[0];
    assert_eq!(f.rule, "secret-taint");
    assert_eq!(f.path, "crates/core/src/srpc.rs");
    assert!(
        f.message.contains("Ledger::append"),
        "pre-redaction payload must not reach the ledger: {}",
        f.message
    );
    let notes = chain_notes(&r, 0);
    assert!(
        notes[0].contains("secret source `cronus_core::ring::decode_request`"),
        "{notes:?}"
    );
    assert!(notes.iter().any(|n| n.contains("`req`")), "{notes:?}");
}

#[test]
fn reachable_panic_in_dispatch_trips_panic_reachability_only() {
    let r = report_for(vec![(
        "crates/core/src/system.rs".into(),
        "pub struct CronusSystem { table: [u64; 2] }\n\
         impl CronusSystem {\n\
             pub fn call(&mut self, idx: usize) -> u64 { dispatch(&self.table, idx) }\n\
         }\n\
         fn dispatch(table: &[u64; 2], idx: usize) -> u64 { table[idx] }\n"
            .into(),
    )]);
    assert_eq!(r.findings.len(), 1, "exactly one finding:\n{}", r.render());
    let f = &r.findings[0];
    assert_eq!(f.rule, "panic-reachability");
    assert_eq!(f.path, "crates/core/src/system.rs");
    assert_eq!(f.line, 5);
    let notes = chain_notes(&r, 0);
    assert!(
        notes[0].contains("entry point `cronus_core::system::CronusSystem::call`"),
        "{notes:?}"
    );
    assert!(
        notes.last().unwrap().contains("slice/array index here"),
        "{notes:?}"
    );
}

// ---- good fixtures: sanctioned patterns stay clean -------------------------

#[test]
fn digest_then_record_and_public_declassifier_are_clean() {
    let r = report_for(vec![(
        "crates/spm/src/monitor.rs".into(),
        "use cronus_crypto::schnorr::KeyPair;\n\
         use cronus_crypto::measure;\n\
         use cronus_obs::recorder::FlightRecorder;\n\
         pub fn boot_monitor(rec: &FlightRecorder, seed_bytes: &[u8]) {\n\
             let platform = KeyPair::from_seed(\"fused-rom\");\n\
             let digest = measure(\"platform-key\", seed_bytes);\n\
             let pk = platform.public();\n\
             rec.record(format!(\"boot digest={digest} pk={pk}\"));\n\
         }\n"
        .into(),
    )]);
    assert!(
        r.passed(),
        "FORENSICS.md redaction contract (digest/public only) is clean:\n{}",
        r.render()
    );
}

#[test]
fn unreachable_panic_and_test_code_are_not_reported() {
    let r = report_for(vec![(
        "crates/core/src/system.rs".into(),
        "pub struct CronusSystem;\n\
         impl CronusSystem {\n\
             pub fn call(&mut self) -> u64 { 7 }\n\
         }\n\
         fn debug_helper(v: &[u64]) -> u64 { v[3] }\n\
         #[cfg(test)]\n\
         mod tests {\n\
             #[test]\n\
             fn t() { assert!(super::debug_helper(&[0, 1, 2, 3]) == 3); }\n\
         }\n"
        .into(),
    )]);
    assert!(
        r.passed(),
        "panic sites outside the dispatch/trap cone stay quiet:\n{}",
        r.render()
    );
}

// ---- baseline ratchet end-to-end -------------------------------------------

#[test]
fn baseline_ratchet_suppresses_then_flags_regressions_and_staleness() {
    let bad = vec![(
        "crates/spm/src/monitor.rs".to_string(),
        "use cronus_crypto::schnorr::KeyPair;\n\
         use cronus_obs::recorder::FlightRecorder;\n\
         pub fn boot_monitor(rec: &FlightRecorder) {\n\
             let platform = KeyPair::from_seed(\"fused-rom\");\n\
             rec.record(format!(\"boot key={platform}\"));\n\
         }\n"
        .to_string(),
    )];
    let r = report_for(bad.clone());
    let base = Baseline::from_findings(&r.findings);

    // Accepted: the baseline swallows the committed count.
    let (visible, suppressed) = baseline::apply(r.findings.clone(), &base);
    assert!(visible.is_empty(), "{visible:?}");
    assert_eq!(suppressed, 1);

    // Regression: a second leak in the same file goes over budget and the
    // whole group becomes visible again.
    let mut worse = bad.clone();
    worse[0].1.push_str(
        "pub fn boot_monitor_again(rec: &FlightRecorder) {\n\
             let atk = KeyPair::from_seed(\"atk\");\n\
             rec.record(format!(\"atk={atk}\"));\n\
         }\n",
    );
    let r2 = report_for(worse);
    let (visible2, _) = baseline::apply(r2.findings.clone(), &base);
    assert_eq!(visible2.len(), 2, "{visible2:?}");
    assert!(
        visible2[0].message.contains("baseline accepts 1"),
        "{}",
        visible2[0].message
    );

    // Ratchet: fixing the leak makes the baseline entry stale, which is
    // itself a finding until `scripts/relint.sh` shrinks the file.
    let r3 = report_for(Vec::new());
    let (stale, _) = baseline::apply(r3.findings, &base);
    assert_eq!(stale.len(), 1, "{stale:?}");
    assert_eq!(stale[0].rule, "baseline-ratchet");
    assert!(stale[0].message.contains("relint"), "{}", stale[0].message);
}

// ---- full-repo determinism -------------------------------------------------

#[test]
fn full_repo_report_is_byte_identical_across_runs() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let a = run(&SourceSet::load(root).expect("load"));
    let b = run(&SourceSet::load(root).expect("load"));
    assert!(a.files_scanned > 100, "whole repo scanned");
    assert_eq!(a.render(), b.render());
    assert_eq!(a.render_json(), b.render_json());
}

#[test]
fn whole_repo_lints_clean_under_the_committed_baseline() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut report = run(&SourceSet::load(root).expect("load"));
    let text = std::fs::read_to_string(root.join("LINT_BASELINE.json")).expect("baseline");
    let base = Baseline::parse(&text).expect("baseline parses");
    report.findings = baseline::apply(std::mem::take(&mut report.findings), &base).0;
    assert!(
        report.passed(),
        "repo must lint clean under LINT_BASELINE.json:\n{}",
        report.render()
    );
}
