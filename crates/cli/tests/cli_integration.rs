//! Integration tests for the `dmx` binary: every subcommand end to end
//! through real process invocations and real files.

use std::path::PathBuf;
use std::process::{Command, Output};

use proptest::prelude::*;

fn dmx() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dmx"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dmx-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "command failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn gen_profile_explore_pareto_report_pipeline() {
    let dir = tmpdir("pipeline");
    let trace = dir.join("t.trace");
    let records = dir.join("t.prof");
    let csv = dir.join("t.csv");
    let gp = dir.join("t.gp");

    // gen-trace with a small synthetic workload (fast).
    run_ok(
        dmx()
            .args(["gen-trace", "synthetic", "--seed", "3", "--out"])
            .arg(&trace),
    );
    assert!(trace.exists());

    // profile
    let out = run_ok(dmx().arg("profile").arg("--trace").arg(&trace));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("hot sizes"), "profile output: {text}");

    // explore (+ csv + gnuplot artifacts)
    let out = run_ok(
        dmx()
            .arg("explore")
            .arg("--trace")
            .arg(&trace)
            .arg("--out-records")
            .arg(&records)
            .arg("--csv")
            .arg(&csv)
            .arg("--gnuplot")
            .arg(&gp),
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Pareto-optimal configurations"));
    assert!(records.exists() && csv.exists() && gp.exists());

    // pareto over the written records
    let out = run_ok(
        dmx()
            .arg("pareto")
            .arg("--records")
            .arg(&records)
            .args(["--objectives", "footprint,accesses,energy"]),
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Pareto-optimal on (footprint_bytes, accesses, energy_pj)"));

    // report
    let out = run_ok(dmx().arg("report").arg("--records").arg(&records));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("footprint :"));
    assert!(text.contains("energy    :"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explore_guided_strategies() {
    let dir = tmpdir("guided");
    let trace = dir.join("t.trace");
    run_ok(
        dmx()
            .args(["gen-trace", "synthetic", "--seed", "3", "--out"])
            .arg(&trace),
    );

    for (strategy, extra) in [
        ("genetic", vec!["--generations", "3", "--population", "16"]),
        ("hillclimb", vec!["--restarts", "3"]),
        ("sample", vec!["--sample-n", "24"]),
    ] {
        let records = dir.join(format!("{strategy}.prof"));
        let json = dir.join(format!("{strategy}.json"));
        let out = run_ok(
            dmx()
                .arg("explore")
                .arg("--trace")
                .arg(&trace)
                .arg("--out-records")
                .arg(&records)
                .arg("--json")
                .arg(&json)
                .args(["--strategy", strategy, "--seed", "7"])
                .args(&extra),
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("strategy `{strategy}`:")),
            "{strategy} stderr: {err}"
        );
        assert!(records.exists());

        // The export is one JSON object wrapping the front plus search
        // statistics (strategy, evaluations, per-island stats).
        let exported = std::fs::read_to_string(&json).unwrap();
        assert!(
            exported.trim_start().starts_with('{'),
            "{strategy}: {exported}"
        );
        assert!(exported.trim_end().ends_with('}'), "{strategy}: {exported}");
        for key in [
            "\"strategy\"",
            "\"evaluations\"",
            "\"front\"",
            "\"islands\"",
        ] {
            assert!(
                exported.contains(key),
                "{strategy} missing {key}: {exported}"
            );
        }
        assert!(
            exported.contains(&format!("\"strategy\": \"{strategy}\"")),
            "{strategy}: {exported}"
        );
        assert!(
            exported.contains("\"label\"") && exported.contains("\"footprint_bytes\""),
            "{strategy} front must be non-empty: {exported}"
        );

        // The stderr summary counts configurations and simulations apart,
        // with the same numbers as the export.
        let summary = format!(
            "strategy `{strategy}`: {} configurations evaluated ({} simulations, {} cache hits), {} Pareto points",
            number_after(&exported, "\"evaluations\": "),
            number_after(&exported, "\"simulations\": "),
            number_after(&exported, "\"cache_hits\": "),
            exported.matches("{\"label\"").count(),
        );
        assert!(
            err.lines().any(|l| l == summary),
            "{strategy}: no `{summary}` in {err}"
        );

        // Guided runs write valid record files the rest of the pipeline
        // consumes (and must have simulated less than the whole space).
        let out = run_ok(dmx().arg("pareto").arg("--records").arg(&records));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("Pareto-optimal on"), "{strategy}: {text}");
    }

    // Same seed twice ⇒ byte-identical records (determinism end to end).
    let a = dir.join("det-a.prof");
    let b = dir.join("det-b.prof");
    for path in [&a, &b] {
        run_ok(
            dmx()
                .arg("explore")
                .arg("--trace")
                .arg(&trace)
                .arg("--out-records")
                .arg(path)
                .args([
                    "--strategy",
                    "genetic",
                    "--generations",
                    "2",
                    "--seed",
                    "11",
                ]),
        );
    }
    assert_eq!(
        std::fs::read(&a).unwrap(),
        std::fs::read(&b).unwrap(),
        "same seed must reproduce identical records"
    );

    let out = dmx()
        .arg("explore")
        .arg("--trace")
        .arg(&trace)
        .arg("--out-records")
        .arg(dir.join("x.prof"))
        .args(["--strategy", "simulated-annealing"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown strategy"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explore_island_json_carries_island_stats_and_obs_exports() {
    let dir = tmpdir("island-obs");
    let trace = dir.join("t.trace");
    run_ok(
        dmx()
            .args(["gen-trace", "synthetic", "--seed", "3", "--out"])
            .arg(&trace),
    );

    let json = dir.join("t.json");
    let records = dir.join("t.prof");
    let obs_trace = dir.join("t-trace.json");
    let obs_metrics = dir.join("t-metrics.json");
    let out = run_ok(
        dmx()
            .arg("explore")
            .arg("--trace")
            .arg(&trace)
            .arg("--out-records")
            .arg(&records)
            .arg("--json")
            .arg(&json)
            .arg("--obs-trace")
            .arg(&obs_trace)
            .arg("--obs-metrics")
            .arg(&obs_metrics)
            .arg("--progress")
            .args([
                "--strategy",
                "island",
                "--islands",
                "3",
                "--topology",
                "ring",
                "--migrate-every",
                "2",
                "--generations",
                "3",
                "--population",
                "9",
                "--seed",
                "7",
            ]),
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("island 0"), "island stats on stderr: {err}");

    // Per-island statistics ride along in the JSON export, not just stderr.
    let exported = std::fs::read_to_string(&json).unwrap();
    for key in [
        "\"islands\"",
        "\"kind\"",
        "\"migrants_sent\"",
        "\"migrants_received\"",
        "\"last_improved_generation\"",
    ] {
        assert!(exported.contains(key), "missing {key}: {exported}");
    }
    assert!(
        exported.matches("\"island\":").count() >= 3,
        "three islands exported: {exported}"
    );

    // Observability artifacts: Perfetto trace + flat metrics JSON.
    let perfetto = std::fs::read_to_string(&obs_trace).unwrap();
    assert!(perfetto.contains("\"traceEvents\""), "{perfetto}");
    for name in ["island.step", "island.migration", "eval.batch"] {
        assert!(perfetto.contains(name), "trace missing span {name}");
    }
    let metrics = std::fs::read_to_string(&obs_metrics).unwrap();
    for name in [
        "\"search.generations\"",
        "\"search.cache.hits\"",
        "\"island.migrations\"",
        "\"kernel.events\"",
    ] {
        assert!(metrics.contains(name), "metrics missing {name}: {metrics}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scenarios_list_shows_builtin_suites() {
    let out = run_ok(dmx().args(["scenarios", "list"]));
    let text = String::from_utf8_lossy(&out.stdout);
    for suite in ["embedded-mix", "network", "quick"] {
        assert!(
            text.contains(&format!("suite `{suite}`")),
            "missing {suite}: {text}"
        );
    }
    assert!(text.contains("easyport-bursty"));
    assert!(text.contains("dram4m-only"));

    // Filtered listing.
    let out = run_ok(dmx().args(["scenarios", "list", "quick"]));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("suite `quick`"));
    assert!(!text.contains("suite `network`"));

    let out = dmx()
        .args(["scenarios", "list", "nope"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown suite"));
}

#[test]
fn explore_suite_exports_robust_and_per_scenario_fronts() {
    let dir = tmpdir("suite");
    let json = dir.join("robust.json");
    let records = dir.join("robust.prof");
    let out = run_ok(dmx().args([
        "explore",
        "--suite",
        "quick",
        "--strategy",
        "genetic",
        "--generations",
        "2",
        "--population",
        "12",
        "--aggregate",
        "worst",
        "--seed",
        "7",
        "--json",
        json.to_str().unwrap(),
        "--out-records",
        records.to_str().unwrap(),
    ]));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("robust front"), "{text}");
    assert!(text.contains("per-scenario fronts"), "{text}");

    // The JSON carries the robust front AND one front per scenario.
    let exported = std::fs::read_to_string(&json).unwrap();
    assert!(exported.contains("\"robust_front\""));
    assert!(exported.contains("\"commonality\""));
    assert_eq!(
        exported.matches("\"name\":").count(),
        4,
        "quick suite has four scenario fronts: {exported}"
    );

    // Robust records feed the classic downstream tooling.
    let out = run_ok(dmx().arg("pareto").arg("--records").arg(&records));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Pareto-optimal on"));

    // Determinism: same seed, byte-identical export.
    let json2 = dir.join("robust2.json");
    run_ok(dmx().args([
        "explore",
        "--suite",
        "quick",
        "--strategy",
        "genetic",
        "--generations",
        "2",
        "--population",
        "12",
        "--aggregate",
        "worst",
        "--seed",
        "7",
        "--json",
        json2.to_str().unwrap(),
    ]));
    assert_eq!(
        std::fs::read(&json).unwrap(),
        std::fs::read(&json2).unwrap(),
        "same seed must reproduce identical robust JSON"
    );

    let out = dmx()
        .args(["explore", "--suite", "quick", "--aggregate", "median"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown aggregate"));

    std::fs::remove_dir_all(&dir).ok();
}

/// The number after `prefix` in `text` (the first occurrence).
fn number_after(text: &str, prefix: &str) -> u64 {
    let at = text
        .find(prefix)
        .unwrap_or_else(|| panic!("no `{prefix}` in {text}"));
    let rest = &text[at + prefix.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("a number follows")
}

#[test]
fn fidelity_avoided_count_agrees_across_summary_progress_and_json() {
    let dir = tmpdir("avoided");
    let json = dir.join("robust.json");
    let records = dir.join("robust.prof");
    let out = run_ok(dmx().args([
        "explore",
        "--suite",
        "quick",
        "--strategy",
        "genetic",
        "--generations",
        "3",
        "--population",
        "16",
        "--fidelity",
        "halving",
        "--seed",
        "7",
        "--progress",
        "--json",
        json.to_str().unwrap(),
        "--out-records",
        records.to_str().unwrap(),
    ]));
    let err = String::from_utf8_lossy(&out.stderr);
    let summary = err
        .lines()
        .find(|l| l.starts_with("fidelity:"))
        .unwrap_or_else(|| panic!("fidelity summary on stderr: {err}"));
    let avoided = number_after(summary, "full sims (");
    assert!(avoided > 0, "halving screened nothing out: {summary}");
    // The simulation unit: each avoided genome saves one full
    // simulation per scenario of the four-scenario suite.
    assert_eq!(avoided % 4, 0, "{summary}");

    // The reporter's last line is drawn after the search has ended.
    let progress = err
        .lines()
        .rfind(|l| l.starts_with("progress:"))
        .unwrap_or_else(|| panic!("progress lines on stderr: {err}"));
    assert_eq!(
        number_after(progress, "events/sec, "),
        avoided,
        "{progress}"
    );

    let exported = std::fs::read_to_string(&json).unwrap();
    assert_eq!(number_after(&exported, "\"avoided\": "), avoided);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explore_accepts_objective_lists() {
    let dir = tmpdir("objectives");
    let trace = dir.join("t.trace");
    run_ok(
        dmx()
            .args(["gen-trace", "synthetic", "--seed", "3", "--out"])
            .arg(&trace),
    );
    let records = dir.join("t.prof");
    let json = dir.join("t.json");
    run_ok(
        dmx()
            .arg("explore")
            .arg("--trace")
            .arg(&trace)
            .arg("--out-records")
            .arg(&records)
            .arg("--json")
            .arg(&json)
            .args([
                "--objectives",
                "footprint,energy_pj",
                "--strategy",
                "sample",
                "--sample-n",
                "16",
            ]),
    );
    let exported = std::fs::read_to_string(&json).unwrap();
    assert!(exported.contains("\"energy_pj\""), "{exported}");
    assert!(!exported.contains("\"accesses\""), "{exported}");

    let out = dmx()
        .arg("explore")
        .arg("--trace")
        .arg(&trace)
        .arg("--out-records")
        .arg(dir.join("x.prof"))
        .args(["--objectives", "footprint,bogus"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown objective"));

    // A repeated objective — an alias of a listed one included — is an
    // error in both `explore` and `pareto`.
    for spec in ["footprint,footprint", "footprint,accesses,footprint_bytes"] {
        let explore = dmx()
            .arg("explore")
            .arg("--trace")
            .arg(&trace)
            .arg("--out-records")
            .arg(dir.join("x.prof"))
            .args(["--objectives", spec])
            .output()
            .expect("binary runs");
        let pareto = dmx()
            .arg("pareto")
            .arg("--records")
            .arg(&records)
            .args(["--objectives", spec])
            .output()
            .expect("binary runs");
        for (cmd, out) in [("explore", explore), ("pareto", pareto)] {
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} {spec}: {err}");
            assert!(err.contains("listed twice"), "{cmd} {spec}: {err}");
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn study_subcommand_prints_summary() {
    let out = run_ok(dmx().args(["study", "vtc", "--seed", "5"]));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("=== dmx exploration summary: vtc ==="));
    assert!(text.contains("within Pareto set"));
}

#[test]
fn missing_arguments_fail_with_usage() {
    let out = dmx().output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "stderr: {err}");

    let out = dmx().args(["explore"]).output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--trace"), "stderr: {err}");
}

#[test]
fn unknown_subcommand_fails() {
    let out = dmx().args(["frobnicate"]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

#[test]
fn bad_trace_file_is_reported() {
    let dir = tmpdir("bad");
    let bogus = dir.join("bogus.trace");
    std::fs::write(&bogus, "this is not a trace\n").unwrap();
    let out = dmx()
        .arg("profile")
        .arg("--trace")
        .arg(&bogus)
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("parsing"), "stderr: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gen_trace_all_kinds() {
    let dir = tmpdir("kinds");
    for kind in ["easyport", "vtc", "synthetic"] {
        let path = dir.join(format!("{kind}.trace"));
        run_ok(
            dmx()
                .args(["gen-trace", kind, "--seed", "1", "--out"])
                .arg(&path),
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("dmxtrace v1"), "{kind} trace header");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn binary_traces_load_like_text_traces() {
    use dmx_trace::gen::{ServerMixConfig, SyntheticConfig, TraceGenerator};
    use dmx_trace::{binfmt, textfmt};

    let dir = tmpdir("binary");
    // A single-threaded trace encodes as `DMXT\x01`, a threaded one as
    // `DMXT\x02`; both must profile exactly like their text twins.
    for (name, trace) in [
        ("synthetic", SyntheticConfig::uniform_churn(400).generate(3)),
        ("server", ServerMixConfig::small().generate(3)),
    ] {
        let bin = dir.join(format!("{name}.bin"));
        let text = dir.join(format!("{name}.trace"));
        std::fs::write(&bin, binfmt::to_bytes(&trace)).unwrap();
        std::fs::write(&text, textfmt::to_string(&trace)).unwrap();
        let from_bin = run_ok(dmx().arg("profile").arg("--trace").arg(&bin));
        let from_text = run_ok(dmx().arg("profile").arg("--trace").arg(&text));
        assert_eq!(from_bin.stdout, from_text.stdout, "{name}: profile differs");
    }

    let out = run_ok(
        dmx()
            .arg("explore")
            .arg("--trace")
            .arg(dir.join("synthetic.bin"))
            .arg("--out-records")
            .arg(dir.join("bin.prof"))
            .args(["--strategy", "sample", "--sample-n", "8"]),
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("strategy `sample`:"), "stderr: {err}");

    // A corrupt binary trace is a parse error, not a panic.
    let bad = dir.join("bad.bin");
    std::fs::write(&bad, b"DMXT\x09garbage").unwrap();
    let out = dmx()
        .arg("profile")
        .arg("--trace")
        .arg(&bad)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("parsing"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_strategy_parameters_exit_1_with_a_message() {
    for (flags, message) in [
        (
            &["--strategy", "genetic", "--population", "0"][..],
            "population must be at least 2",
        ),
        (
            &["--strategy", "genetic", "--population", "1"],
            "population must be at least 2",
        ),
        (
            &["--strategy", "island", "--population", "1"],
            "population must be at least 2",
        ),
        (
            &["--strategy", "hillclimb", "--restarts", "0"],
            "at least one restart",
        ),
    ] {
        let out = dmx()
            .args(["explore", "--suite", "quick"])
            .args(flags)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {err}");
        assert!(err.contains(message), "{flags:?}: {err}");
    }
}

#[test]
fn edge_case_flags_exit_0_or_1_never_panic() {
    use dmx_trace::gen::{SyntheticConfig, TraceGenerator};
    use dmx_trace::textfmt;

    let dir = tmpdir("edge");
    let trace = dir.join("t.trace");
    let records = dir.join("t.prof");
    let trace_text = textfmt::to_string(&SyntheticConfig::uniform_churn(300).generate(3));
    std::fs::write(&trace, trace_text).unwrap();
    let sample = ["--strategy", "sample", "--sample-n", "4"];
    let halving = [
        "--strategy",
        "sample",
        "--sample-n",
        "4",
        "--fidelity",
        "halving",
    ];
    let island = [
        "--strategy",
        "island",
        "--population",
        "4",
        "--generations",
        "1",
    ];
    for flags in [
        [&halving[..], &["--keep", "NaN"]].concat(),
        [&halving[..], &["--rungs", ""]].concat(),
        [&halving[..], &["--rungs", "0.5,nan,1"]].concat(),
        [&halving[..], &["--rungs", "1e-300,1"]].concat(),
        [&halving[..], &["--knn-k", "0"]].concat(),
        [&island[..], &["--islands", "0"]].concat(),
        [&island[..], &["--migrate-every", "0"]].concat(),
        vec!["--strategy", "sample", "--sample-n", "0"],
        vec!["--strategy", "sample", "--sample-n", "99999999999999999999"],
        [&sample[..], &["--objectives", ","]].concat(),
    ] {
        let out = dmx()
            .arg("explore")
            .arg("--trace")
            .arg(&trace)
            .arg("--out-records")
            .arg(&records)
            .args(&flags)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            matches!(out.status.code(), Some(0 | 1)) && !err.contains("panicked"),
            "explore {flags:?} exited {:?}: {err}",
            out.status.code()
        );
    }

    // A trace file is not a records file: a parse error, not a panic.
    let out = dmx()
        .arg("pareto")
        .arg("--records")
        .arg(&trace)
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        matches!(out.status.code(), Some(0 | 1)) && !err.contains("panicked"),
        "pareto --records <trace> exited {:?}: {err}",
        out.status.code()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The numeric and list flags the generated edge test feeds.
const EDGE_FLAGS: [&str; 10] = [
    "--islands",
    "--migrants",
    "--migrate-every",
    "--population",
    "--generations",
    "--restarts",
    "--sample-n",
    "--keep",
    "--knn-k",
    "--rungs",
];

/// Values at and past the edge of every flag's type (the third is 2^64,
/// one past `u64::MAX`).
const EDGE_VALUES: [&str; 8] = [
    "0",
    "1",
    "18446744073709551616",
    "-1",
    "NaN",
    "",
    "1,,2",
    "x",
];

proptest! {
    // Each case is one process run on a 300-event trace; a few dozen
    // keep `cargo test` quick.
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Generated mixes of edge values on the numeric flags, under every
    /// strategy that reads them, exit 0 or 1 and never panic.
    #[test]
    fn generated_edge_flags_exit_0_or_1_never_panic(
        strategy in 0usize..4,
        halving in any::<bool>(),
        picks in prop::collection::vec((0..EDGE_FLAGS.len(), 0..EDGE_VALUES.len()), 1..4),
    ) {
        use dmx_trace::gen::{SyntheticConfig, TraceGenerator};
        use dmx_trace::textfmt;

        let dir = tmpdir("edge-generated");
        let trace = dir.join("t.trace");
        let records = dir.join("t.prof");
        let trace_text = textfmt::to_string(&SyntheticConfig::uniform_churn(300).generate(3));
        std::fs::write(&trace, trace_text).unwrap();

        let mut cmd = dmx();
        cmd.arg("explore")
            .arg("--trace")
            .arg(&trace)
            .arg("--out-records")
            .arg(&records)
            .args(["--strategy", ["genetic", "island", "hillclimb", "sample"][strategy]]);
        if halving {
            cmd.args(["--fidelity", "halving"]);
        }
        // The first occurrence of a flag wins, so the generated values
        // go before the small defaults that keep valid runs short.
        for &(flag, value) in &picks {
            cmd.args([EDGE_FLAGS[flag], EDGE_VALUES[value]]);
        }
        cmd.args([
            "--population", "4", "--generations", "1", "--islands", "2",
            "--restarts", "2", "--sample-n", "4",
        ]);
        let out = cmd.output().expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        prop_assert!(
            matches!(out.status.code(), Some(0 | 1)) && !err.contains("panicked"),
            "explore {:?} exited {:?}: {}",
            cmd.get_args().collect::<Vec<_>>(),
            out.status.code(),
            err
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// FNV-1a over `bytes`, for pinning exported files.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The classic `explore` default lists every configuration of the space
/// with exact metrics: the records and the CSV hold one row per config,
/// and the summary's range factors are taken over every feasible one.
/// Pinned byte for byte at one worker and at the default worker count.
#[test]
fn default_exhaustive_explore_reproduces_pinned_outputs() {
    use dmx_trace::gen::{SyntheticConfig, TraceGenerator};
    use dmx_trace::textfmt;

    const RECORDS_FNV: u64 = 0x5283_6121_90c1_b054;
    const CSV_FNV: u64 = 0xb29a_b3d3_8ba4_037f;
    const SUMMARY_FNV: u64 = 0xd83c_c90f_3297_029d;

    let dir = tmpdir("pinned-sweep");
    let trace = dir.join("t.trace");
    let trace_text = textfmt::to_string(&SyntheticConfig::uniform_churn(300).generate(3));
    std::fs::write(&trace, trace_text).unwrap();
    let mut runs = Vec::new();
    for threads in [None, Some("1")] {
        let (records, csv) = (dir.join("t.prof"), dir.join("t.csv"));
        let mut cmd = dmx();
        cmd.arg("explore")
            .arg("--trace")
            .arg(&trace)
            .arg("--out-records")
            .arg(&records)
            .arg("--csv")
            .arg(&csv);
        if let Some(n) = threads {
            cmd.env("DMX_THREADS", n);
        }
        let out = run_ok(&mut cmd);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("strategy `exhaustive`:"), "stderr: {err}");
        let digests = (
            fnv1a(&std::fs::read(&records).unwrap()),
            fnv1a(&std::fs::read(&csv).unwrap()),
            fnv1a(&out.stdout),
        );
        runs.push(digests);
    }
    assert_eq!(runs[0], runs[1], "worker count changed the outputs");
    assert_eq!(
        runs[0],
        (RECORDS_FNV, CSV_FNV, SUMMARY_FNV),
        "{:#x?}",
        runs[0]
    );
    std::fs::remove_dir_all(&dir).ok();
}
