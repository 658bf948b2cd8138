//! The `obs` CLI contract: subcommand exit codes and the shared
//! `cronus-report/v1` JSON envelope, driven through the built binary.

use std::process::{Command, Output};

use cronus::obs::{parse, REPORT_SCHEMA};

fn obs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obs"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("obs runs")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("obs exited normally")
}

#[test]
fn diff_usage_errors_exit_2() {
    assert_eq!(code(&obs(&["diff"])), 2, "no bundles named");
    assert_eq!(code(&obs(&["diff", "--bogus"])), 2, "unknown flag");
    assert_eq!(
        code(&obs(&[
            "diff",
            "--baseline",
            "missing.json",
            "--candidate",
            "BUNDLE_fig9.json"
        ])),
        2,
        "unreadable baseline"
    );
    assert_eq!(code(&obs(&[])), 2, "no subcommand");
}

#[test]
fn diff_of_a_committed_bundle_against_itself_exits_0() {
    let out = obs(&[
        "diff",
        "--baseline",
        "BUNDLE_fig9.json",
        "--candidate",
        "BUNDLE_fig9.json",
        "--verdict",
    ]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn meter_expect_top_gates_the_exit_code() {
    let convicted = obs(&[
        "meter",
        "--figure",
        "fig_interference",
        "--expect-top",
        "p4",
    ]);
    assert_eq!(
        code(&convicted),
        0,
        "{}",
        String::from_utf8_lossy(&convicted.stderr)
    );
    let wrong = obs(&[
        "meter",
        "--figure",
        "fig_interference",
        "--expect-top",
        "p1",
    ]);
    assert_eq!(code(&wrong), 1);
    assert!(String::from_utf8_lossy(&wrong.stderr).contains("expected top interferer p1"));
}

#[test]
fn every_subcommand_emits_its_json_envelope() {
    let runs: [(&str, &[&str]); 3] = [
        ("report", &["report", "--figure", "fig9", "--slo", "--json"]),
        (
            "diff",
            &[
                "diff",
                "--baseline",
                "BUNDLE_fig9.json",
                "--candidate",
                "BUNDLE_fig9.json",
                "--json",
            ],
        ),
        ("meter", &["meter", "--figure", "fig9", "--json"]),
    ];
    for (kind, args) in runs {
        let out = obs(args);
        assert_eq!(
            code(&out),
            0,
            "{kind}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc =
            parse(&String::from_utf8_lossy(&out.stdout)).expect("stdout is one JSON document");
        assert_eq!(
            doc.get("schema").and_then(|s| s.as_str()),
            Some(REPORT_SCHEMA)
        );
        assert_eq!(doc.get("kind").and_then(|k| k.as_str()), Some(kind));
        assert!(doc.get("body").is_some(), "{kind}: envelope has a body");
    }
}
