//! The observability CLI: one binary, one subcommand per question.
//!
//! ```text
//! cargo run --bin obs -- report                        # saturation workload, seed 42
//! cargo run --bin obs -- report --figure rpc_micro --figure fig9 --slo
//! cargo run --bin obs -- diff --figure fig7 --verdict   # committed vs fresh bundle
//! cargo run --bin obs -- diff --baseline A.json --candidate B.json
//! cargo run --bin obs -- meter --figure fig_interference --expect-top p4
//! cargo run --bin obs -- meter --all --json
//! ```
//!
//! * `report` — where is the bottleneck? Runs a workload and prints the
//!   queue observatory's ranked USE report with the Little's-law
//!   cross-check; `--slo` adds the per-figure burn-rate budgets. Any
//!   violation or breach exits 1 (`scripts/ci.sh --slo`).
//! * `diff` — what moved? Compares a baseline `BUNDLE_<name>.json` with a
//!   candidate bundle and prints the ranked attribution verdict. Exits 0
//!   when nothing moved, 1 on significant deltas and 2 on a usage or
//!   read/parse error (`scripts/ci.sh --diff`).
//! * `meter` — who is using the machine? Prints per-principal ledgers,
//!   fairness and the interference matrix, then the exact conservation
//!   self-test; `--expect-top` also gates the top interferer
//!   (`scripts/ci.sh --meter`).
//!
//! `--json` renders any subcommand as one `cronus-report/v1` document of
//! kind `report`, `diff` or `meter`, with the same exit code as text.
//! Output is deterministic per seed. See OBSERVABILITY.md.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::str::FromStr;

use cronus::bench::experiments::{recorded_figure, DEFAULT_CALLS, DEFAULT_SEED, FIGURES};
use cronus::obs::diff::{diff_documents, DiffConfig};
use cronus::obs::meter::{usage_json, MeterError};
use cronus::obs::queue::DEFAULT_LITTLE_TOLERANCE;
use cronus::obs::{report_document, FlightRecorder, Json, SloPolicy};

const USAGE: &str = "usage: obs (report | diff | meter) [FLAGS] (try obs <subcommand> --help)";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Sub {
    Report,
    Diff,
    Meter,
}

impl Sub {
    fn name(self) -> &'static str {
        match self {
            Sub::Report => "report",
            Sub::Diff => "diff",
            Sub::Meter => "meter",
        }
    }

    fn usage(self) -> &'static str {
        match self {
            Sub::Report => {
                "usage: obs report [--seed N] [--calls N] [--figure NAME]... \
                 [--slo] [--json] [--tolerance X]"
            }
            Sub::Diff => {
                "usage: obs diff (--figure NAME | --baseline PATH --candidate PATH) \
                 [--tolerance PCT] [--min-delta-ns N] [--verdict] [--json]"
            }
            Sub::Meter => {
                "usage: obs meter [--seed N] [--calls N] [--figure NAME]... [--all] \
                 [--json] [--expect-top PRINCIPAL]"
            }
        }
    }

    /// `diff` reserves exit code 1 for "significant deltas found".
    fn usage_error(self) -> ExitCode {
        ExitCode::from(if self == Sub::Diff { 2 } else { 1 })
    }
}

struct Options {
    seed: u64,
    calls: u64,
    figures: Vec<String>,
    json: bool,
    slo: bool,
    little_tolerance: f64,
    baseline: Option<String>,
    candidate: Option<String>,
    diff: DiffConfig,
    verdict_only: bool,
    expect_top: Option<String>,
}

/// The value after `flag`, parsed as `T`.
fn value<T: FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    args.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} requires {what}"))
}

/// Parses the flags after the subcommand; `Ok(None)` means help was printed.
fn parse_args(sub: Sub, mut args: impl Iterator<Item = String>) -> Result<Option<Options>, String> {
    let mut o = Options {
        seed: DEFAULT_SEED,
        calls: DEFAULT_CALLS,
        figures: Vec::new(),
        json: false,
        slo: false,
        little_tolerance: DEFAULT_LITTLE_TOLERANCE,
        baseline: None,
        candidate: None,
        diff: DiffConfig::default(),
        verdict_only: false,
        expect_top: None,
    };
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        match (sub, flag) {
            (_, "--json") => o.json = true,
            (Sub::Report | Sub::Meter, "--seed") => {
                o.seed = value(&mut args, flag, "an integer value")?;
            }
            (Sub::Report | Sub::Meter, "--calls") => {
                o.calls = value(&mut args, flag, "an integer value")?;
            }
            (Sub::Report | Sub::Meter, "--figure") => {
                o.figures.push(value(&mut args, flag, "a name")?)
            }
            (Sub::Report, "--slo") => o.slo = true,
            (Sub::Report, "--tolerance") => {
                o.little_tolerance = value(&mut args, flag, "a number")?;
            }
            (Sub::Diff, "--figure") => {
                let name: String = value(&mut args, flag, "a name")?;
                o.baseline = Some(format!("BUNDLE_{name}.json"));
                o.candidate = Some(format!("target/bench/BUNDLE_{name}.json"));
            }
            (Sub::Diff, "--baseline") => o.baseline = Some(value(&mut args, flag, "a path")?),
            (Sub::Diff, "--candidate") => o.candidate = Some(value(&mut args, flag, "a path")?),
            (Sub::Diff, "--tolerance") => {
                o.diff.tolerance_pct = value(&mut args, flag, "a number (percent)")?;
            }
            (Sub::Diff, "--min-delta-ns") => {
                o.diff.min_delta_ns = value(&mut args, flag, "an integer")?;
            }
            (Sub::Diff, "--verdict") => o.verdict_only = true,
            (Sub::Meter, "--all") => o.figures = FIGURES.iter().map(|s| s.to_string()).collect(),
            (Sub::Meter, "--expect-top") => {
                o.expect_top = Some(value(&mut args, flag, "a principal (e.g. p4)")?);
            }
            (_, "--help" | "-h") => {
                eprintln!("{}", sub.usage());
                return Ok(None);
            }
            (_, other) => return Err(format!("unknown argument: {other}")),
        }
    }
    if sub == Sub::Diff && (o.baseline.is_none() || o.candidate.is_none()) {
        return Err("need --figure NAME, or both --baseline and --candidate".to_string());
    }
    Ok(Some(o))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let sub = match args.next().as_deref() {
        Some("report") => Sub::Report,
        Some("diff") => Sub::Diff,
        Some("meter") => Sub::Meter,
        Some("--help" | "-h") => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let opts = match parse_args(sub, args) {
        Ok(Some(opts)) => opts,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("obs {}: {e}", sub.name());
            return sub.usage_error();
        }
    };
    if sub == Sub::Diff {
        return diff(&opts);
    }
    if run_figures(sub, &opts) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One figure's analysis: a text and a JSON rendering sharing one gate
/// verdict (`failures` empty means the figure passed).
struct Analysis {
    text: String,
    json: Json,
    failures: Vec<String>,
}

/// Runs `report` or `meter` over each requested figure (saturation when
/// none is named) and returns whether every figure passed its gate.
fn run_figures(sub: Sub, opts: &Options) -> bool {
    let figures = if opts.figures.is_empty() {
        if sub == Sub::Report && !opts.json {
            println!(
                "workload: saturation (seed {}, {} calls)",
                opts.seed, opts.calls
            );
        }
        vec!["saturation".to_string()]
    } else {
        opts.figures.clone()
    };

    let mut ok = true;
    let mut bodies = Vec::new();
    for figure in &figures {
        let Some(rec) = recorded_figure(figure, opts.seed, opts.calls) else {
            eprintln!("obs {}: unknown figure `{figure}`", sub.name());
            ok = false;
            continue;
        };
        let analysis = match sub {
            Sub::Report => report(figure, &rec, opts),
            _ => meter(figure, &rec, opts),
        };
        if opts.json {
            bodies.push(analysis.json);
        } else {
            print!("=== {figure} ===\n{}\n", analysis.text);
        }
        for failure in &analysis.failures {
            eprintln!("obs {}: {figure}: {failure}", sub.name());
        }
        ok &= analysis.failures.is_empty();
    }
    if opts.json {
        let body = Json::obj([("figures", Json::Arr(bodies))]);
        println!("{}", report_document(sub.name(), body).render());
    }
    ok
}

/// The queue report plus, with `--slo`, the figure's SLO evaluation.
fn report(figure: &str, rec: &FlightRecorder, opts: &Options) -> Analysis {
    let queue = rec.queue_report(opts.little_tolerance);
    let mut text = queue.render_text();
    let mut failures: Vec<String> = queue
        .little_violations()
        .iter()
        .map(|q| {
            format!(
                "{} fails Little's law (observed {:.3}, predicted {:.3})",
                q.name, q.little.l_observed, q.little.l_predicted
            )
        })
        .collect();
    let mut fields = vec![
        ("figure", Json::Str(figure.to_string())),
        ("queue", queue.to_json()),
        ("little_ok", Json::Bool(queue.little_all_within())),
    ];
    if opts.slo {
        let slo = rec.slo_report(&SloPolicy::for_figure(figure));
        text.push_str(&slo.render_text());
        failures.extend(
            slo.breaches()
                .iter()
                .map(|e| format!("SLO breach on {} ({})", e.queue, e.kind.as_str())),
        );
        fields.push(("slo", slo.to_json()));
    }
    Analysis {
        text,
        json: Json::obj(fields),
        failures,
    }
}

/// Per-principal usage, fairness, interference and the conservation
/// self-test, plus the `--expect-top` gate.
fn meter(figure: &str, rec: &FlightRecorder, opts: &Options) -> Analysis {
    let mut text = String::from("usage:\n");
    let (principals, conservation) = rec.with(|r| {
        let principals: Vec<Json> = r
            .meter
            .principals()
            .into_iter()
            .map(|p| {
                let usage = r.meter.usage_of(p);
                let cells: Vec<String> = usage.iter().map(|(k, v)| format!("{k}={v}")).collect();
                let _ = writeln!(text, "  {p}: {}", cells.join(" "));
                let streams: Vec<Json> = r
                    .meter
                    .stream_rows(p)
                    .into_iter()
                    .map(|(stream, resource, amount)| {
                        let _ = writeln!(text, "    stream {stream}: {resource}={amount}");
                        Json::obj([
                            ("stream", Json::U64(stream)),
                            ("resource", Json::Str(resource)),
                            ("amount", Json::U64(amount)),
                        ])
                    })
                    .collect();
                Json::obj([
                    ("principal", Json::Str(p.to_string())),
                    ("usage", usage_json(&usage)),
                    ("streams", Json::Arr(streams)),
                ])
            })
            .collect();
        (
            principals,
            r.meter.conservation_rows(&r.profiler, &r.metrics),
        )
    });

    let fairness = rec.fairness_report();
    let jain: Vec<String> = fairness
        .jain
        .iter()
        .map(|(k, j)| format!("{k}={j:.4}"))
        .collect();
    let _ = writeln!(text, "fairness:\n  jain {}", jain.join(" "));
    for d in &fairness.dominant {
        let _ = writeln!(
            text,
            "  dominant {} -> {} ({:.1}% of machine)",
            d.principal,
            d.resource,
            d.share * 100.0
        );
    }

    let matrix = rec.interference_matrix();
    text.push_str("interference:\n");
    for victim in matrix.victims() {
        let waited = matrix.waited.get(&victim).copied().unwrap_or(0);
        let _ = match matrix.top_interferer_of(victim) {
            Some((top, ns)) => {
                let exemplar = matrix
                    .cells
                    .get(&(victim, top))
                    .and_then(|c| c.exemplar)
                    .map(|e| {
                        format!(
                            " (e.g. req {} waited behind req {} for {} ns)",
                            e.victim_req.0, e.interferer_req.0, e.overlap_ns
                        )
                    })
                    .unwrap_or_default();
                writeln!(
                    text,
                    "  {victim} waited {waited} ns; top interferer {top} with {ns} ns{exemplar}"
                )
            }
            None => writeln!(
                text,
                "  {victim} waited {waited} ns; no cross-partition interference"
            ),
        };
    }
    if matrix.victims().is_empty() {
        text.push_str("  (no executor backlog recorded)\n");
    }

    let mut failures = Vec::new();
    match conservation.iter().find(|row| !row.ok()) {
        None => {
            let _ = writeln!(
                text,
                "conservation: OK ({} resources balanced)",
                conservation.len()
            );
        }
        Some(row) => failures.push(
            MeterError::Conservation {
                resource: row.resource,
                metered: row.metered,
                expected: row.expected,
            }
            .to_string(),
        ),
    }
    if let Some(expect) = &opts.expect_top {
        let top = matrix.top_interferer().map(|(p, _)| p.to_string());
        if top.as_deref() != Some(expect.as_str()) {
            failures.push(format!(
                "expected top interferer {expect}, found {}",
                top.as_deref().unwrap_or("none")
            ));
        }
    }

    let conservation: Vec<Json> = conservation
        .iter()
        .map(|row| {
            Json::obj([
                ("resource", Json::Str(row.resource.to_string())),
                ("metered", Json::U64(row.metered)),
                ("expected", Json::U64(row.expected)),
                ("ok", Json::Bool(row.ok())),
            ])
        })
        .collect();
    let json = Json::obj([
        ("figure", Json::Str(figure.to_string())),
        ("principals", Json::Arr(principals)),
        ("fairness", fairness.to_json()),
        ("interference", matrix.to_json()),
        ("conservation", Json::Arr(conservation)),
    ]);
    Analysis {
        text,
        json,
        failures,
    }
}

/// Diffs the baseline bundle against the candidate: exit 0 when nothing
/// moved, 1 on significant deltas, 2 when either side cannot be read.
fn diff(opts: &Options) -> ExitCode {
    let read = |role: &str, path: &Option<String>| {
        let path = path.as_deref().unwrap_or("");
        std::fs::read_to_string(path).map_err(|e| format!("{role}: {path}: {e}"))
    };
    let result = read("baseline", &opts.baseline).and_then(|base| {
        let cand = read("candidate", &opts.candidate)?;
        diff_documents(&base, &cand, opts.diff).map_err(|e| e.to_string())
    });
    let result = match result {
        Ok(result) => result,
        Err(e) => {
            eprintln!("obs diff: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.json {
        println!("{}", report_document("diff", result.to_json()).render());
    } else if opts.verdict_only {
        print!("{}", result.verdict_text());
    } else {
        print!("{}", result.render_text());
    }
    if result.has_significant_deltas() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
