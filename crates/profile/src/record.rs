//! The profiling-record model and its text serialization.
//!
//! One record per line, after a header line:
//!
//! ```text
//! dmxprof v1
//! <label> al=<n> fr=<n> fl=<n> fp=<n> fpl=<n>,<n>,... en=<pj> cy=<n> \
//!         ac=<r>:<w>,<r>:<w>,... me=<r>:<w>,...
//! ```
//!
//! Labels are the configuration labels from `dmx-alloc` and contain no
//! whitespace; every other field is `key=value` with comma-separated
//! per-level lists.

use std::fmt::Write as _;

/// First line of every profile file.
pub const HEADER: &str = "dmxprof v1";

/// One configuration's measured metrics, as written by the exploration run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRecord {
    /// Configuration label (no whitespace).
    pub label: String,
    /// Allocations served.
    pub allocs: u64,
    /// Frees served.
    pub frees: u64,
    /// Allocation failures (non-zero = infeasible configuration).
    pub failures: u64,
    /// Peak total footprint, bytes.
    pub footprint: u64,
    /// Peak footprint per memory level, bytes.
    pub footprint_per_level: Vec<u64>,
    /// Total access energy, picojoules.
    pub energy_pj: u64,
    /// Execution time, cycles.
    pub cycles: u64,
    /// Per-level `(reads, writes)` — all accesses.
    pub accesses: Vec<(u64, u64)>,
    /// Per-level `(reads, writes)` — allocator metadata only.
    pub meta_accesses: Vec<(u64, u64)>,
}

impl ProfileRecord {
    /// An empty record for `label`.
    ///
    /// # Panics
    ///
    /// Panics if the label contains whitespace (it would corrupt the
    /// line format).
    pub fn new(label: impl Into<String>) -> Self {
        let label = label.into();
        assert!(
            !label.chars().any(char::is_whitespace) && !label.is_empty(),
            "record labels must be non-empty and whitespace-free"
        );
        ProfileRecord {
            label,
            allocs: 0,
            frees: 0,
            failures: 0,
            footprint: 0,
            footprint_per_level: Vec::new(),
            energy_pj: 0,
            cycles: 0,
            accesses: Vec::new(),
            meta_accesses: Vec::new(),
        }
    }

    /// Total accesses over all levels.
    pub fn total_accesses(&self) -> u64 {
        self.accesses.iter().map(|(r, w)| r + w).sum()
    }

    /// `true` if every allocation was served.
    pub fn feasible(&self) -> bool {
        self.failures == 0
    }

    /// Serializes this record as one line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str(&self.label);
        let _ = write!(
            s,
            " al={} fr={} fl={} fp={}",
            self.allocs, self.frees, self.failures, self.footprint
        );
        s.push_str(" fpl=");
        push_u64_list(&mut s, &self.footprint_per_level);
        let _ = write!(s, " en={} cy={}", self.energy_pj, self.cycles);
        s.push_str(" ac=");
        push_pair_list(&mut s, &self.accesses);
        s.push_str(" me=");
        push_pair_list(&mut s, &self.meta_accesses);
        s
    }
}

fn push_u64_list(s: &mut String, items: &[u64]) {
    if items.is_empty() {
        s.push('-');
        return;
    }
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{v}");
    }
}

fn push_pair_list(s: &mut String, items: &[(u64, u64)]) {
    if items.is_empty() {
        s.push('-');
        return;
    }
    for (i, (r, w)) in items.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{r}:{w}");
    }
}

/// Serializes records (with header) into a `String`.
pub fn records_to_string(records: &[ProfileRecord]) -> String {
    let mut out = String::with_capacity(16 + records.len() * 96);
    out.push_str(HEADER);
    out.push('\n');
    for r in records {
        out.push_str(&r.to_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProfileRecord {
        ProfileRecord {
            label: "fix74@L0+gen(ff,lifo,co-no,sp-no,a8)@L1".to_owned(),
            allocs: 1000,
            frees: 990,
            failures: 0,
            footprint: 81920,
            footprint_per_level: vec![4096, 77824],
            energy_pj: 1_234_567,
            cycles: 999_999,
            accesses: vec![(5000, 2500), (800, 400)],
            meta_accesses: vec![(1000, 600), (100, 50)],
        }
    }

    #[test]
    fn line_format_is_stable() {
        let line = sample().to_line();
        assert_eq!(
            line,
            "fix74@L0+gen(ff,lifo,co-no,sp-no,a8)@L1 al=1000 fr=990 fl=0 \
             fp=81920 fpl=4096,77824 en=1234567 cy=999999 \
             ac=5000:2500,800:400 me=1000:600,100:50"
        );
    }

    #[test]
    fn empty_lists_serialize_as_dash() {
        let rec = ProfileRecord::new("x");
        let line = rec.to_line();
        assert!(line.contains("fpl=-"));
        assert!(line.contains("ac=-"));
    }

    #[test]
    fn totals_and_feasibility() {
        let r = sample();
        assert_eq!(r.total_accesses(), 8700);
        assert!(r.feasible());
        let mut bad = r;
        bad.failures = 3;
        assert!(!bad.feasible());
    }

    #[test]
    #[should_panic(expected = "whitespace-free")]
    fn whitespace_label_rejected() {
        let _ = ProfileRecord::new("two words");
    }
}
