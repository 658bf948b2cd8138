//! Rule catalog and repo policy configuration for cronus-lint v2.
//!
//! This module is the single place where *policy* lives: which functions
//! are secret sources, observable sinks and sanitizers (the FORENSICS.md
//! redaction contract), which entry points root panic reachability (the
//! attacker-reachable sRPC dispatch and trap-recovery surface), and which
//! directory scopes each legacy rule applies to. The engine
//! ([`crate::engine`]) mechanically applies these tables; changing policy
//! means editing this file, not the analyses.

use crate::graph::{path_ends_with, CallGraph, FnId};
use crate::lex::Tok;
use crate::syntax::ParsedFile;
use crate::taint::{Step, TaintConfig};

/// One finding of any rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line number (0 for file-level findings).
    pub line: u32,
    /// What was found and why it is rejected.
    pub message: String,
    /// Counterexample chain (taint hops or call path); empty for purely
    /// local rules.
    pub chain: Vec<Step>,
}

/// A catalog entry: name plus the `--explain` text.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// Stable rule name (used in findings, baseline and allowlist docs).
    pub name: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Multi-line explanation for `lint --explain <rule>`.
    pub explain: &'static str,
}

/// Every rule the engine can emit, in report order.
pub const RULES: [Rule; 7] = [
    Rule {
        name: "secret-taint",
        summary: "secret values must not reach observable sinks unredacted",
        explain: "Taint is seeded at declared secret sources (DH shared secrets, \
schnorr key derivation, stream-cipher plaintexts, forensics chain keys, decoded \
sRPC payloads and grant-arena reads) and propagated through assignments, \
`{ident}` inline format captures and call edges. Reaching a declared sink — \
recorder spans/metrics/labels, ledger records, black-box annotations, bench \
emitters — is a finding carrying the full source-to-sink chain. Passing the \
value through a sanitizer (measure/sha256/hmac) first clears the taint: that \
is the FORENSICS.md redaction contract, checked statically.",
    },
    Rule {
        name: "panic-reachability",
        summary: "no reachable panic site on the sRPC dispatch / trap-recovery surface",
        explain: "Every panic!/unreachable!/todo!/unimplemented!/assert! site and \
every slice-index expression in crates/{core,spm,sim,mos,crypto,forensics} — \
plus .unwrap()/.expect() in the crates the no-unwrap rule does not already \
cover — is reported if the call graph reaches it from an sRPC dispatch or \
trap-recovery entry point (CronusSystem::{call,app_ecall,sync,...}, \
Call::{start,sync}, StreamBuilder::{open,reopen}, Spm::{handle_trap,...}). \
The finding carries the entry-point-to-site call path. Unreachable sites are \
not findings: a panic a remote caller cannot trigger is not attack surface. \
Accepted sites are ratcheted in LINT_BASELINE.json.",
    },
    Rule {
        name: "deprecated-api",
        summary: "no calls to #[deprecated] items outside test code",
        explain: "Call sites are resolved through the call graph; any call whose \
every candidate target carries #[deprecated] is a finding unless the caller \
is test code. `#[allow(deprecated)]` attributes outside test code are \
findings too — silencing the compiler is not migrating. This replaces the old token-matching rule, so aliased or re-exported \
calls are caught and longer method names cannot false-positive.",
    },
    Rule {
        name: "no-unwrap-in-trusted-path",
        summary: "no .unwrap()/.expect() in trusted non-test code",
        explain: "crates/{core,spm,sim,forensics}/src must not contain \
.unwrap()/.expect() outside test code, reachable or not: trusted code returns \
typed errors. Sites are now found syntactically (string literals and comments \
cannot false-positive; unwrap_or/expect_err cannot match). Justified uses are \
enumerated with reasons in crates/audit/lint_allowlist.txt; unused entries are \
findings so the list cannot rot.",
    },
    Rule {
        name: "no-wall-clock",
        summary: "wall-clock reads only in crates/obs, crates/bench and perfbench",
        explain: "std::time::{Instant,SystemTime} reads outside crates/obs, \
crates/bench and perfbench break simulation determinism; everything else runs \
on the simulated clock. crates/bench and perfbench are host-time measurement \
code, and both require their simulated readouts to repeat bit for bit. The \
deterministic observatory files \
crates/obs/src/{queue,slo,bundle,diff,meter,fairness}.rs are carved out of \
the exemption: they promise byte-identical output per seed.",
    },
    Rule {
        name: "no-string-errors",
        summary: "public fallible APIs use typed errors, not String",
        explain: "pub fn ... -> Result<_, String> in \
crates/{core,spm,sim,mos,forensics}/src (and the strict observatory files) is \
a finding: callers cannot match on a string. Checked on the parsed return-type \
tokens, so multi-line signatures and aliases are seen.",
    },
    Rule {
        name: "baseline-ratchet",
        summary: "LINT_BASELINE.json counts only go down",
        explain: "Findings ratchet against the committed LINT_BASELINE.json: a \
(rule, file) pair may never exceed its baselined count, and a baseline entry \
whose count exceeds reality is stale and must be shrunk (run \
scripts/relint.sh). Unknown findings and stale entries both fail ci.sh --lint.",
    },
];

/// Looks a rule up by name.
pub fn rule(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

// ---------------------------------------------------------------------
// Scopes (path prefixes; carried over from lint v1 — see AUDIT.md).
// ---------------------------------------------------------------------

/// Directories whose non-test code must be unwrap/expect-free.
pub const NO_UNWRAP_SCOPES: [&str; 4] = [
    "crates/core/src",
    "crates/spm/src",
    "crates/sim/src",
    "crates/forensics/src",
];

/// Crates allowed to read the wall clock: the recorder and the two
/// host-time measurement harnesses (figure benches and the repo benchmark).
pub const WALL_CLOCK_EXEMPT: [&str; 3] = ["crates/obs", "crates/bench", "perfbench"];

/// Observatory analysis files held to the strict rules despite living in
/// the otherwise-exempt `crates/obs`.
pub const STRICT_OBS_FILES: [&str; 6] = [
    "crates/obs/src/bundle.rs",
    "crates/obs/src/diff.rs",
    "crates/obs/src/fairness.rs",
    "crates/obs/src/meter.rs",
    "crates/obs/src/queue.rs",
    "crates/obs/src/slo.rs",
];

/// Directories whose public APIs must not use `String` errors.
pub const NO_STRING_ERROR_SCOPES: [&str; 5] = [
    "crates/core/src",
    "crates/spm/src",
    "crates/sim/src",
    "crates/mos/src",
    "crates/forensics/src",
];

/// Trusted crates whose reachable panic sites are findings.
pub const PANIC_SCOPES: [&str; 6] = [
    "crates/core/src",
    "crates/spm/src",
    "crates/sim/src",
    "crates/mos/src",
    "crates/crypto/src",
    "crates/forensics/src",
];

/// True when `path` sits under one of `scopes`.
pub fn in_scope(path: &str, scopes: &[&str]) -> bool {
    scopes.iter().any(|s| path.starts_with(s))
}

// ---------------------------------------------------------------------
// Taint policy: qualified-path suffixes, resolved against the call
// graph at analysis time. Segment-aligned, so `KeyPair::from_seed`
// matches `cronus_crypto::schnorr::KeyPair::from_seed` but not
// `...::DhKeyPair::from_seed`.
// ---------------------------------------------------------------------

/// Functions whose return value is secret.
pub const SOURCE_PATHS: [&str; 10] = [
    // Crypto key material.
    "DhKeyPair::from_seed",
    "DhKeyPair::agree",
    "KeyPair::from_seed",
    "KeyPair::derive",
    "StreamCipher::open",
    // Forensics chain keys (pre-redaction).
    "ledger::chain_key",
    // sRPC payload bytes and grant-arena pages.
    "ring::decode_request",
    "ring::decode_slot_request",
    "ring::decode_result",
    "CronusSystem::shared_read",
];

/// Functions whose arguments become normal-world observable.
pub const SINK_PATHS: [&str; 15] = [
    // The recorder's one write path, and the stores it folds into.
    "FlightRecorder::record",
    "MetricsRegistry::counter_add",
    "MetricsRegistry::gauge_set",
    "MetricsRegistry::observe",
    "Histogram::observe",
    "TimeProfiler::charge_detail",
    // Ledger records and black-box snapshots.
    "Ledger::append",
    "LedgerInner::append",
    "Ledger::annotate_last_blackbox",
    // BENCH_* / BUNDLE_* emitters.
    "baseline::write",
    "baseline::write_bundle",
    "baseline::emit",
    // Resource-meter usage records: ledgers hold sizes and counts only;
    // payload or grant-arena *bytes* must never reach them.
    "ResourceMeter::add_count",
    "ResourceMeter::record_occupancy",
    "ResourceMeter::record_wait",
];

/// Functions that launder taint: one-way measurement / redaction.
pub const SANITIZER_PATHS: [&str; 8] = [
    "cronus_crypto::measure",
    "cronus_crypto::measure_chained",
    "sha256::sha256",
    "Sha256::update",
    "Sha256::finalize",
    "hmac::hmac_sha256",
    // Declassifiers: extracting the public half of a key pair yields a
    // value that is observable by design (the ledger deliberately
    // records `dh_public` in `KeyExchange` events).
    "DhKeyPair::public",
    "KeyPair::public",
];

/// sRPC dispatch and trap-recovery entry points: the reachability roots.
pub const ROOT_PATHS: [&str; 13] = [
    "CronusSystem::call",
    "CronusSystem::app_ecall",
    "CronusSystem::sync",
    "CronusSystem::close_stream",
    "CronusSystem::inject_partition_failure",
    "CronusSystem::recover_partition",
    "CronusSystem::shared_read",
    "Call::start",
    "Call::sync",
    "StreamBuilder::open",
    "StreamBuilder::reopen",
    "Spm::handle_trap",
    "Spm::detect_failures",
];

/// Resolves the suffix tables into a [`TaintConfig`] over a built graph.
pub fn taint_config(g: &CallGraph) -> TaintConfig {
    let resolve = |paths: &[&str]| {
        let mut out = std::collections::BTreeSet::new();
        for p in paths {
            out.extend(g.find(p));
        }
        out
    };
    TaintConfig {
        sources: resolve(&SOURCE_PATHS),
        sinks: resolve(&SINK_PATHS),
        sanitizers: resolve(&SANITIZER_PATHS),
    }
}

/// Resolves the reachability roots over a built graph.
pub fn roots(g: &CallGraph) -> Vec<FnId> {
    let mut out = Vec::new();
    for p in ROOT_PATHS {
        out.extend(g.find(p));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// True when `qual` names a declared taint source (used by doc tests and
/// fixtures to assert the tables stay segment-aligned).
pub fn is_declared_source(qual: &str) -> bool {
    SOURCE_PATHS.iter().any(|s| path_ends_with(qual, s))
}

// ---------------------------------------------------------------------
// Token-level legacy rules, now running on the parsed stream.
// ---------------------------------------------------------------------

/// `no-wall-clock`: `Instant`/`SystemTime` reads outside the exemption.
pub fn wall_clock_findings(file: &ParsedFile, out: &mut Vec<Finding>) {
    let strict = STRICT_OBS_FILES.contains(&file.path.as_str());
    if in_scope(&file.path, &WALL_CLOCK_EXEMPT) && !strict {
        return;
    }
    for (i, t) in file.tokens.iter().enumerate() {
        let Tok::Ident(id) = &t.tok else { continue };
        if id != "Instant" && id != "SystemTime" {
            continue;
        }
        if file.is_test_token(i) {
            continue;
        }
        // `std::time::Instant` (a use or a fully qualified mention) or
        // `Instant::now()`.
        let after_time =
            i >= 2 && file.tokens[i - 1].is_punct("::") && file.tokens[i - 2].is_ident("time");
        let before_now = file.tokens.get(i + 1).is_some_and(|t| t.is_punct("::"))
            && file.tokens.get(i + 2).is_some_and(|t| t.is_ident("now"));
        if after_time || before_now {
            out.push(Finding {
                rule: "no-wall-clock",
                path: file.path.clone(),
                line: t.line,
                message: format!(
                    "`{id}` wall-clock read outside crates/obs, crates/bench and \
                     perfbench breaks simulation determinism; use the simulated clock"
                ),
                chain: Vec::new(),
            });
        }
    }
}

/// `no-string-errors`: `pub fn … -> Result<_, String>` on the parsed
/// return-type tokens (multi-line signatures included).
pub fn string_error_findings(file: &ParsedFile, out: &mut Vec<Finding>) {
    let strict = STRICT_OBS_FILES.contains(&file.path.as_str());
    if !in_scope(&file.path, &NO_STRING_ERROR_SCOPES) && !strict {
        return;
    }
    for item in &file.fns {
        if !item.is_pub || item.is_test {
            continue;
        }
        let (a, b) = item.ret;
        let ret = &file.tokens[a..b.min(file.tokens.len())];
        let has_result = ret.iter().any(|t| t.is_ident("Result"));
        // `, String` closing the Result's angle brackets: the next token
        // is `>`/`>>` (or a trailing comma before it, or end-of-type).
        let string_err = (0..ret.len()).any(|i| {
            ret[i].is_punct(",")
                && ret.get(i + 1).is_some_and(|t| t.is_ident("String"))
                && matches!(
                    ret.get(i + 2).map(|t| &t.tok),
                    None | Some(Tok::Punct(">" | ">>" | ","))
                )
        });
        if has_result && string_err {
            out.push(Finding {
                rule: "no-string-errors",
                path: file.path.clone(),
                line: item.line,
                message: format!(
                    "`{}` is a public fallible API with a bare `String` error; \
                     define a typed error enum",
                    item.name
                ),
                chain: Vec::new(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;
    use crate::syntax::parse;

    fn file(path: &str, text: &str) -> ParsedFile {
        parse(path, "x", lex(text))
    }

    #[test]
    fn catalog_names_are_unique_and_lookup_works() {
        let mut names: Vec<&str> = RULES.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), RULES.len());
        assert!(rule("secret-taint").is_some());
        assert!(rule("nope").is_none());
    }

    #[test]
    fn wall_clock_flagged_outside_obs_and_bench() {
        let mut out = Vec::new();
        wall_clock_findings(
            &file(
                "crates/core/src/x.rs",
                "fn f() { let t = std::time::Instant::now(); }",
            ),
            &mut out,
        );
        assert_eq!(out.len(), 1, "one finding at the Instant token: {out:?}");
        out.clear();
        wall_clock_findings(
            &file(
                "crates/bench/src/x.rs",
                "fn f() { let t = std::time::Instant::now(); }",
            ),
            &mut out,
        );
        assert!(out.is_empty());
        // Strict observatory files lose the exemption.
        wall_clock_findings(
            &file(
                "crates/obs/src/queue.rs",
                "fn f() { let t = Instant::now(); }",
            ),
            &mut out,
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn wall_clock_exempt_in_the_repo_benchmark_only() {
        let read = "fn f() { let t = std::time::Instant::now(); }";
        let mut out = Vec::new();
        wall_clock_findings(&file("perfbench/src/stats.rs", read), &mut out);
        assert!(out.is_empty(), "{out:?}");
        // Only the top-level harness is exempt, not a crate sharing its name.
        wall_clock_findings(&file("crates/perfbench/src/x.rs", read), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn wall_clock_in_string_or_test_is_clean() {
        let mut out = Vec::new();
        wall_clock_findings(
            &file(
                "crates/core/src/x.rs",
                "fn f() { let s = \"std::time::Instant::now()\"; }\n\
                 #[cfg(test)]\nmod t { fn g() { let t = std::time::Instant::now(); } }",
            ),
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn string_errors_flagged_across_lines() {
        let mut out = Vec::new();
        string_error_findings(
            &file(
                "crates/spm/src/x.rs",
                "pub fn f(\n    a: u32,\n) -> Result<\n    u32,\n    String,\n> { Err(String::new()) }",
            ),
            &mut out,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "no-string-errors");
    }

    #[test]
    fn typed_errors_and_private_fns_are_clean() {
        let mut out = Vec::new();
        string_error_findings(
            &file(
                "crates/spm/src/x.rs",
                "pub fn f() -> Result<u32, SpmError> { Ok(0) }\n\
                 fn g() -> Result<u32, String> { Ok(0) }",
            ),
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    /// Every declared source/sink/sanitizer/root suffix must resolve to
    /// at least one function in this repo — a dead entry means the rule
    /// silently stopped covering what it claims to cover (exactly how a
    /// `crypto::measure` entry once went dead when segment alignment
    /// rejected it against `cronus_crypto::measure`).
    #[test]
    fn every_configured_path_resolves_in_this_repo() {
        use crate::engine::SourceSet;
        use crate::facts::extract;

        // CARGO_MANIFEST_DIR is crates/audit; the repo root is two up.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(std::path::Path::parent)
            .expect("repo root");
        let set = SourceSet::load(root).expect("sources load");
        let parsed: Vec<_> = set.files.iter().map(|f| f.parsed.clone()).collect();
        let facts: Vec<Vec<_>> = parsed
            .iter()
            .map(|f| f.fns.iter().map(|i| extract(&f.tokens, i)).collect())
            .collect();
        let g = CallGraph::build(&parsed, &facts);
        let mut dead = Vec::new();
        for suffix in SOURCE_PATHS
            .iter()
            .chain(&SINK_PATHS)
            .chain(&SANITIZER_PATHS)
            .chain(&ROOT_PATHS)
        {
            if !g.fns.iter().any(|n| path_ends_with(&n.item.qual, suffix)) {
                dead.push(*suffix);
            }
        }
        assert!(dead.is_empty(), "dead rule-config entries: {dead:?}");
    }

    #[test]
    fn declared_sources_are_segment_aligned() {
        assert!(is_declared_source(
            "cronus_crypto::schnorr::KeyPair::from_seed"
        ));
        assert!(!is_declared_source("cronus_ptest::Rng::from_seed"));
    }
}
