//! # dmx-bench — the paper's figures and tables as Criterion benches
//!
//! Each bench target under `benches/` reproduces one artifact of the
//! DATE 2006 paper (or measures the machinery behind it) and doubles as a
//! regression gate: CI compiles every bench and runs each body once in
//! smoke mode (`cargo bench --workspace -- --test`), so a bench that rots
//! or an acceptance assertion that regresses fails the build.
//!
//! | Bench | Paper artifact | What it reports |
//! | --- | --- | --- |
//! | `fig1_easyport_pareto` | Figure 1 | the Easyport footprint/accesses Pareto curve |
//! | `tab2_easyport_summary` | Table 2 | Easyport range + improvement factors |
//! | `tab3_vtc_summary` | Table 3 | VTC range + improvement factors |
//! | `tab4_parse_speed` | §2 "under 20 s" claim | profile-record parse throughput |
//! | `tab5_allocator_ops` | §2 allocator library | per-pool alloc/free op costs |
//! | `tab6_ablation` | §§2–3 design choices | what each parameter axis contributes |
//! | `search_convergence` | beyond the paper | guided-search evaluations vs. front coverage (genetic ≥90 % hypervolume at ≤20 % of the evaluations) |
//! | `search_efficiency` | beyond the paper | multi-fidelity screening: full-trace simulations saved vs. the all-full GA (≥5× asserted at ≥99 % hypervolume, worker-count determinism) |
//! | `scenario_robustness` | beyond the paper | robust-front determinism + commonality on the built-in suite |
//! | `sim_throughput` | beyond the paper | slab-kernel events/sec vs. the hash-map reference interpreter (≥2× asserted) |
//! | `eval_scaling` | beyond the paper | GA wall clock per evaluation-worker count from 1 to the CPUs, worker-count byte-determinism, speedup |
//!
//! Shared pipeline setup lives in [`dmx_core::study`] so examples, tests
//! and benches report on the same code. This crate adds the
//! machine-readable result sink ([`write_bench_json`]): benches record
//! their headline numbers as `BENCH_<name>.json` at the workspace root so
//! the performance trajectory is tracked across PRs (CI validates the
//! `sim_throughput` and `eval_scaling` documents against the
//! checked-in floors under `floors/`).

use std::path::{Path, PathBuf};

/// The workspace root (two levels above this crate's manifest).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Formats a JSON string value (JSON escaping: quotes, backslashes and
/// control characters; everything else passes through as UTF-8).
pub fn json_str(v: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(v.len() + 2);
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a JSON number from an `f64`, keeping it finite and plain.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0".to_owned()
    }
}

/// Writes `BENCH_<name>.json` at the workspace root from pre-encoded
/// `(key, json-value)` pairs, in order. Returns the path written.
///
/// Every record automatically carries the machine context a floor check
/// needs to interpret it: `cpus` (the runner's available parallelism)
/// and `dmx_threads` (the effective `DMX_THREADS` worker budget,
/// [`dmx_core::search::thread_budget`]). Callers may override either by
/// passing the key themselves.
///
/// # Panics
///
/// Panics if the file cannot be written — a bench that cannot record its
/// result should fail loudly, not silently skip the record.
pub fn write_bench_json(name: &str, fields: &[(&str, String)]) -> PathBuf {
    let mut fields: Vec<(&str, String)> = fields.to_vec();
    if !fields.iter().any(|(k, _)| *k == "cpus") {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        fields.push(("cpus", cpus.to_string()));
    }
    if !fields.iter().any(|(k, _)| *k == "dmx_threads") {
        let threads = dmx_core::search::thread_budget();
        fields.push(("dmx_threads", threads.to_string()));
    }
    let body = fields
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect::<Vec<_>>()
        .join(",\n");
    let path = workspace_root().join(format!("BENCH_{name}.json"));
    std::fs::write(&path, format!("{{\n{body}\n}}\n"))
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_helpers_encode() {
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
        // Apostrophes and non-ASCII must pass through unescaped (JSON is
        // UTF-8; `\'` and `\u{..}` are not valid JSON escapes).
        assert_eq!(json_str("it's café"), "\"it's café\"");
        assert_eq!(json_str("a\\b\nc"), "\"a\\\\b\\u000ac\"");
        assert_eq!(json_num(2.5), "2.500");
        assert_eq!(json_num(f64::NAN), "0");
    }

    #[test]
    fn bench_json_roundtrips_to_workspace_root() {
        let path = write_bench_json("selftest", &[("a", "1".to_owned()), ("b", json_str("x"))]);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"a\": 1"));
        assert!(text.contains("\"b\": \"x\""));
        assert!(path.ends_with("BENCH_selftest.json"));
        std::fs::remove_file(path).unwrap();
    }
}
