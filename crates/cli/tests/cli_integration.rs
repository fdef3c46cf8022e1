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

/// An allocation-free trace explores to all-zero footprints and
/// accesses; `report` must say the factor is undefined rather than print
/// `xNaN` (0/0) or `xinf` (n/0).
#[test]
fn report_on_an_allocation_free_trace_prints_no_nan_or_inf() {
    let dir = tmpdir("empty-report");
    let trace = dir.join("empty.trace");
    let records = dir.join("empty.prof");
    std::fs::write(&trace, "dmxtrace v1 empty\nk 50\n").unwrap();
    run_ok(
        dmx()
            .arg("explore")
            .arg("--trace")
            .arg(&trace)
            .arg("--out-records")
            .arg(&records),
    );
    let out = run_ok(dmx().arg("report").arg("--records").arg(&records));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("footprint : 0 .. 0 B (no factor: the minimum is 0)"),
        "{text}"
    );
    assert!(text.contains("cycles    : 50 .. 50 (x1.0)"), "{text}");
    let lower = text.to_lowercase();
    assert!(!lower.contains("nan") && !lower.contains("inf"), "{text}");
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
        // statistics (strategy, evaluations, simulations, cache hits).
        let exported = std::fs::read_to_string(&json).unwrap();
        assert!(
            exported.trim_start().starts_with('{'),
            "{strategy}: {exported}"
        );
        assert!(exported.trim_end().ends_with('}'), "{strategy}: {exported}");
        for key in ["\"strategy\"", "\"evaluations\"", "\"front\""] {
            assert!(
                exported.contains(key),
                "{strategy} missing {key}: {exported}"
            );
        }
        assert!(!exported.contains("\"islands\""), "{strategy}: {exported}");
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

/// A genetic run with both obs exporters and the progress reporter on:
/// the JSON export carries the search statistics (and no per-island
/// section), and the Perfetto trace and flat metrics file are written.
#[test]
fn explore_genetic_json_carries_search_stats_and_obs_exports() {
    let dir = tmpdir("genetic-obs");
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
                "genetic",
                "--generations",
                "3",
                "--population",
                "9",
                "--seed",
                "7",
            ]),
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("strategy `genetic`"),
        "summary on stderr: {err}"
    );
    assert!(!err.contains("island"), "{err}");

    let exported = std::fs::read_to_string(&json).unwrap();
    for key in [
        "\"strategy\": \"genetic\"",
        "\"evaluations\"",
        "\"simulations\"",
        "\"cache_hits\"",
        "\"front\"",
    ] {
        assert!(exported.contains(key), "missing {key}: {exported}");
    }
    assert!(!exported.contains("\"islands\""), "{exported}");

    // Observability artifacts: Perfetto trace + flat metrics JSON.
    let perfetto = std::fs::read_to_string(&obs_trace).unwrap();
    assert!(perfetto.contains("\"traceEvents\""), "{perfetto}");
    for name in ["search.generation", "eval.batch"] {
        assert!(perfetto.contains(name), "trace missing span {name}");
    }
    assert!(!perfetto.contains("island."), "{perfetto}");
    let metrics = std::fs::read_to_string(&obs_metrics).unwrap();
    for name in [
        "\"search.generations\"",
        "\"search.cache.hits\"",
        "\"kernel.events\"",
    ] {
        assert!(metrics.contains(name), "metrics missing {name}: {metrics}");
    }
    assert!(!metrics.contains("island."), "{metrics}");

    std::fs::remove_dir_all(&dir).ok();
}

/// Zero perturbation on the shipped binary: a genetic run with span
/// recording, both obs exporters and the progress reporter on writes
/// result files byte-identical to the same run with none of them.
#[test]
fn explore_results_are_byte_identical_with_obs_flags_on_vs_off() {
    let dir = tmpdir("obs-bytes");
    let trace = dir.join("t.trace");
    run_ok(
        dmx()
            .args(["gen-trace", "synthetic", "--seed", "3", "--out"])
            .arg(&trace),
    );
    let explore = |tag: &str| {
        let mut cmd = dmx();
        cmd.arg("explore")
            .arg("--trace")
            .arg(&trace)
            .arg("--json")
            .arg(dir.join(format!("{tag}.json")))
            .arg("--out-records")
            .arg(dir.join(format!("{tag}.prof")))
            .args([
                "--strategy",
                "genetic",
                "--generations",
                "3",
                "--population",
                "16",
                "--seed",
                "7",
            ]);
        cmd
    };

    run_ok(&mut explore("plain"));
    let obs_trace = dir.join("obs-trace.json");
    let obs_metrics = dir.join("obs-metrics.json");
    run_ok(
        explore("obs")
            .arg("--obs-trace")
            .arg(&obs_trace)
            .arg("--obs-metrics")
            .arg(&obs_metrics)
            .arg("--progress"),
    );

    // The recording run must actually have observed the search —
    // otherwise the byte compare below would pass vacuously.
    let perfetto = std::fs::read_to_string(&obs_trace).unwrap();
    for name in ["search.generation", "eval.batch", "kernel.replay"] {
        assert!(perfetto.contains(name), "trace missing span {name}");
    }
    let metrics = std::fs::read_to_string(&obs_metrics).unwrap();
    assert!(metrics.contains("\"search.generations\": "), "{metrics}");
    assert!(
        !metrics.contains("\"search.generations\": 0,"),
        "generation counter never moved: {metrics}"
    );

    for ext in ["json", "prof"] {
        let plain = std::fs::read(dir.join(format!("plain.{ext}"))).unwrap();
        let obs = std::fs::read(dir.join(format!("obs.{ext}"))).unwrap();
        assert!(!plain.is_empty(), "empty .{ext} export");
        assert!(plain == obs, "obs flags changed the .{ext} export");
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

/// Runs `dmx` in `dir` and asserts exit code 1 with `flag` named on stderr.
fn assert_rejects_flag(dir: &std::path::Path, args: &[&str], flag: &str) {
    let out = dmx()
        .current_dir(dir)
        .args(args)
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
    assert!(err.contains(&format!("`{flag}`")), "{args:?}: {err}");
}

#[test]
fn flag_without_a_value_exits_1_naming_the_flag() {
    use dmx_trace::gen::{SyntheticConfig, TraceGenerator};
    use dmx_trace::textfmt;

    let dir = tmpdir("no-value");
    let trace_text = textfmt::to_string(&SyntheticConfig::uniform_churn(300).generate(3));
    std::fs::write(dir.join("t.trace"), trace_text).unwrap();
    let explore = ["explore", "--trace", "t.trace", "--out-records", "t.prof"];
    // A value that is another flag: the JSON must not land in a file
    // named `--csv`.
    assert_rejects_flag(
        &dir,
        &[&explore[..], &["--json", "--csv"]].concat(),
        "--json",
    );
    assert!(!dir.join("--csv").exists(), "wrote the JSON to `--csv`");
    // A value flag at the end of the line.
    assert_rejects_flag(&dir, &[&explore[..], &["--json"]].concat(), "--json");
    assert_rejects_flag(&dir, &["gen-trace", "easyport", "--out"], "--out");
    assert_rejects_flag(
        &dir,
        &["pareto", "--records", "--objectives", "energy"],
        "--records",
    );
    assert!(
        !dir.join("t.prof").exists(),
        "explored despite a bad command line"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_flags_exit_1_naming_the_flag() {
    use dmx_trace::gen::{SyntheticConfig, TraceGenerator};
    use dmx_trace::textfmt;

    let dir = tmpdir("unknown-flag");
    let trace_text = textfmt::to_string(&SyntheticConfig::uniform_churn(300).generate(3));
    std::fs::write(dir.join("t.trace"), trace_text).unwrap();
    let explore = ["explore", "--trace", "t.trace", "--out-records", "t.prof"];
    // A typo of `--generations` must not run the default 16 generations.
    let typo = ["--strategy", "genetic", "--generation", "3"];
    assert_rejects_flag(&dir, &[&explore[..], &typo].concat(), "--generation");
    // Flags of another subcommand or explore mode.
    assert_rejects_flag(
        &dir,
        &[&explore[..], &["--aggregate", "mean"]].concat(),
        "--aggregate",
    );
    assert_rejects_flag(
        &dir,
        &["explore", "--suite", "quick", "--trace", "t.trace"],
        "--trace",
    );
    assert_rejects_flag(
        &dir,
        &["report", "--records", "t.prof", "--json", "r.json"],
        "--json",
    );
    assert_rejects_flag(
        &dir,
        &["study", "easyport", "--generations", "2"],
        "--generations",
    );
    // A stray word is no flag, and is not skipped either.
    assert_rejects_flag(&dir, &[&explore[..], &["extra"]].concat(), "extra");
    // Strategies and flags that no longer exist are named, not ignored.
    let mut gone: Vec<(Vec<&str>, String)> = ["island", "hillclimb"]
        .into_iter()
        .map(|s| (vec!["--strategy", s], format!("unknown strategy `{s}`")))
        .collect();
    for flag in [
        "--restarts",
        "--islands",
        "--migration",
        "--migrate-every",
        "--migrants",
        "--rungs",
        "--keep",
        "--knn-k",
    ] {
        gone.push((
            vec!["--strategy", "genetic", flag, "2"],
            format!("unknown flag `{flag}`"),
        ));
    }
    for (flags, message) in gone {
        let out = dmx()
            .current_dir(&dir)
            .args(explore)
            .args(&flags)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {err}");
        assert!(err.contains(&message), "{flags:?}: {err}");
    }
    assert!(
        !dir.join("t.prof").exists(),
        "explored despite a bad command line"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `dmx explore` on a 300-event trace with `flags` appended and
/// checks that it exits 1 naming `flag`, without exploring.
fn assert_explore_rejects_flag(name: &str, flags: &[&str], flag: &str) {
    use dmx_trace::gen::{SyntheticConfig, TraceGenerator};
    use dmx_trace::textfmt;

    let dir = tmpdir(name);
    let trace_text = textfmt::to_string(&SyntheticConfig::uniform_churn(300).generate(3));
    std::fs::write(dir.join("t.trace"), trace_text).unwrap();
    let explore = ["explore", "--trace", "t.trace", "--out-records", "t.prof"];
    assert_rejects_flag(&dir, &[&explore[..], flags].concat(), flag);
    assert!(
        !dir.join("t.prof").exists(),
        "explored despite {flag} under {flags:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn surrogate_without_halving_exits_1_naming_the_flag() {
    let sample = ["--strategy", "sample", "--sample-n", "8"];
    assert_explore_rejects_flag(
        "surrogate-off",
        &[&sample[..], &["--surrogate", "off"]].concat(),
        "--surrogate",
    );
    assert_explore_rejects_flag(
        "surrogate-fidelity-off",
        &[&sample[..], &["--fidelity", "off", "--surrogate", "knn"]].concat(),
        "--surrogate",
    );
}

#[test]
fn genetic_flags_under_another_strategy_exit_1_naming_the_flag() {
    for strategy in ["sample", "exhaustive"] {
        for flag in ["--population", "--generations"] {
            assert_explore_rejects_flag(
                &format!("ga-flag-{strategy}{flag}"),
                &["--strategy", strategy, flag, "4"],
                flag,
            );
        }
    }
    // Without `--strategy` the sweep is exhaustive, and reads neither.
    assert_explore_rejects_flag("ga-flag-default", &["--generations", "x"], "--generations");
}

#[test]
fn sample_n_under_another_strategy_exits_1_naming_the_flag() {
    for strategy in ["genetic", "exhaustive"] {
        assert_explore_rejects_flag(
            &format!("sample-n-{strategy}"),
            &["--strategy", strategy, "--sample-n", "8"],
            "--sample-n",
        );
    }
    assert_explore_rejects_flag("sample-n-default", &["--sample-n", "8"], "--sample-n");
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
fn repeated_flags_exit_1_naming_the_flag() {
    use dmx_trace::gen::{SyntheticConfig, TraceGenerator};
    use dmx_trace::textfmt;

    let dir = tmpdir("repeated-flag");
    let trace_text = textfmt::to_string(&SyntheticConfig::uniform_churn(300).generate(3));
    std::fs::write(dir.join("t.trace"), trace_text).unwrap();
    let explore = ["explore", "--trace", "t.trace", "--out-records", "t.prof"];
    // `--seed 1 --seed 2` must not quietly run seed 1.
    assert_rejects_flag(
        &dir,
        &[&explore[..], &["--seed", "1", "--seed", "2"]].concat(),
        "--seed",
    );
    assert_rejects_flag(
        &dir,
        &[&explore[..], &["--trace", "t.trace"]].concat(),
        "--trace",
    );
    assert_rejects_flag(
        &dir,
        &[&explore[..], &["--sim-stats", "--sim-stats"]].concat(),
        "--sim-stats",
    );
    assert_rejects_flag(
        &dir,
        &["gen-trace", "vtc", "--out", "a.trace", "--out", "b.trace"],
        "--out",
    );
    assert!(
        !dir.join("t.prof").exists() && !dir.join("a.trace").exists(),
        "ran despite a bad command line"
    );
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
    for flags in [
        [
            &sample[..],
            &["--fidelity", "halving", "--surrogate", "nan"],
        ]
        .concat(),
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

/// The numeric flags the generated edge test feeds.
const EDGE_FLAGS: [&str; 3] = ["--population", "--generations", "--sample-n"];

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
    /// strategy that reads them (and one that does not), exit 0 or 1 and
    /// never panic.
    #[test]
    fn generated_edge_flags_exit_0_or_1_never_panic(
        strategy in 0usize..2,
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
            .args(["--strategy", ["genetic", "sample"][strategy]]);
        if halving {
            cmd.args(["--fidelity", "halving"]);
        }
        // A repeated flag is an error, so each flag is given once: the
        // first pick of it, else (for the flags the strategy reads) the
        // small default that keeps valid runs short.
        let mut picked: Vec<&str> = Vec::new();
        for &(flag, value) in &picks {
            if !picked.contains(&EDGE_FLAGS[flag]) {
                picked.push(EDGE_FLAGS[flag]);
                cmd.args([EDGE_FLAGS[flag], EDGE_VALUES[value]]);
            }
        }
        let defaults: &[(&str, &str)] = [
            &[("--population", "4"), ("--generations", "1")][..],
            &[("--sample-n", "4")],
        ][strategy];
        for &(flag, value) in defaults {
            if !picked.contains(&flag) {
                cmd.args([flag, value]);
            }
        }
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
/// Pinned byte for byte in both genome spaces, at one worker and at the
/// default worker count.
#[test]
fn default_exhaustive_explore_reproduces_pinned_outputs() {
    use dmx_trace::gen::{SyntheticConfig, TraceGenerator};
    use dmx_trace::textfmt;

    // (space, records, CSV and summary FNV digests)
    const ROWS: [(&str, u64, u64, u64); 2] = [
        (
            "odometer",
            0x5283_6121_90c1_b054,
            0xb29a_b3d3_8ba4_037f,
            0xd83c_c90f_3297_029d,
        ),
        (
            "grammar",
            0x2f4b_256c_bfe8_c63b,
            0xa031_91b4_d4d0_9f83,
            0xcb8b_b80c_6b8a_6a04,
        ),
    ];

    let dir = tmpdir("pinned-sweep");
    let trace = dir.join("t.trace");
    let trace_text = textfmt::to_string(&SyntheticConfig::uniform_churn(300).generate(3));
    std::fs::write(&trace, trace_text).unwrap();
    for (space, records_fnv, csv_fnv, summary_fnv) in ROWS {
        let mut runs = Vec::new();
        for threads in [None, Some("1")] {
            let (records, csv) = (dir.join("t.prof"), dir.join("t.csv"));
            let mut cmd = dmx();
            cmd.arg("explore")
                .arg("--trace")
                .arg(&trace)
                .arg("--space")
                .arg(space)
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
        assert_eq!(
            runs[0], runs[1],
            "{space}: worker count changed the outputs"
        );
        assert_eq!(
            runs[0],
            (records_fnv, csv_fnv, summary_fnv),
            "{space}: {:#x?}",
            runs[0]
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
