//! Per-level read/write access counters.
//!
//! The allocator simulator charges every metadata touch (free-list link
//! update, header read, fit-search probe, ...) and every application access
//! to a dynamic block against the memory level that holds the owning pool.
//! These counters are the raw material for all four metrics the paper
//! reports: accesses, footprint, energy and execution time.

use std::fmt;
use std::ops::{Add, AddAssign};

use crate::hierarchy::LevelId;

/// Read/write access counts for one memory level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct AccessCounts {
    /// Number of read accesses.
    pub reads: u64,
    /// Number of write accesses.
    pub writes: u64,
}

impl AccessCounts {
    /// A zeroed counter pair.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total accesses (reads + writes).
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

impl Add for AccessCounts {
    type Output = AccessCounts;

    fn add(self, rhs: AccessCounts) -> AccessCounts {
        AccessCounts {
            reads: self.reads + rhs.reads,
            writes: self.writes + rhs.writes,
        }
    }
}

impl AddAssign for AccessCounts {
    fn add_assign(&mut self, rhs: AccessCounts) {
        self.reads += rhs.reads;
        self.writes += rhs.writes;
    }
}

impl fmt::Display for AccessCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r={} w={}", self.reads, self.writes)
    }
}

/// Access counters for every level of a hierarchy.
///
/// Constructed with the hierarchy's level count; indexing with a foreign
/// [`LevelId`] is a logic error and panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSet {
    per_level: Vec<AccessCounts>,
}

impl CounterSet {
    /// Creates counters for a hierarchy with `levels` levels, all zero.
    pub fn new(levels: usize) -> Self {
        CounterSet {
            per_level: vec![AccessCounts::default(); levels],
        }
    }

    /// Number of levels tracked.
    pub fn len(&self) -> usize {
        self.per_level.len()
    }

    /// `true` if no levels are tracked.
    pub fn is_empty(&self) -> bool {
        self.per_level.is_empty()
    }

    /// Records `n` read accesses at `level`.
    #[inline]
    pub fn record_reads(&mut self, level: LevelId, n: u64) {
        self.per_level[level.index()].reads += n;
    }

    /// Records `n` write accesses at `level`.
    #[inline]
    pub fn record_writes(&mut self, level: LevelId, n: u64) {
        self.per_level[level.index()].writes += n;
    }

    /// The counts accumulated at `level`.
    pub fn level(&self, level: LevelId) -> AccessCounts {
        self.per_level[level.index()]
    }

    /// Iterates over `(LevelId, AccessCounts)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LevelId, AccessCounts)> + '_ {
        self.per_level
            .iter()
            .enumerate()
            .map(|(i, c)| (LevelId(i as u16), *c))
    }

    /// Total accesses summed over every level.
    pub fn total_accesses(&self) -> u64 {
        self.per_level.iter().map(|c| c.total()).sum()
    }

    /// Total reads summed over every level.
    pub fn total_reads(&self) -> u64 {
        self.per_level.iter().map(|c| c.reads).sum()
    }

    /// Total writes summed over every level.
    pub fn total_writes(&self) -> u64 {
        self.per_level.iter().map(|c| c.writes).sum()
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        for c in &mut self.per_level {
            *c = AccessCounts::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut c = CounterSet::new(2);
        c.record_reads(LevelId(0), 3);
        c.record_writes(LevelId(0), 2);
        c.record_reads(LevelId(1), 10);
        assert_eq!(
            c.level(LevelId(0)),
            AccessCounts {
                reads: 3,
                writes: 2
            }
        );
        assert_eq!(c.total_accesses(), 15);
        assert_eq!(c.total_reads(), 13);
        assert_eq!(c.total_writes(), 2);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut c = CounterSet::new(1);
        c.record_writes(LevelId(0), 7);
        c.reset();
        assert_eq!(c.total_accesses(), 0);
    }

    #[test]
    fn access_counts_add() {
        let a = AccessCounts {
            reads: 1,
            writes: 2,
        };
        let b = AccessCounts {
            reads: 3,
            writes: 4,
        };
        assert_eq!(
            a + b,
            AccessCounts {
                reads: 4,
                writes: 6
            }
        );
        let mut c = a;
        c += b;
        assert_eq!(c.total(), 10);
    }

    #[test]
    fn iter_yields_ordered_ids() {
        let mut c = CounterSet::new(3);
        c.record_reads(LevelId(2), 1);
        let v: Vec<_> = c.iter().collect();
        assert_eq!(v.len(), 3);
        assert_eq!(v[2].0, LevelId(2));
        assert_eq!(v[2].1.reads, 1);
    }

    #[test]
    fn display_access_counts() {
        let a = AccessCounts {
            reads: 1,
            writes: 2,
        };
        assert_eq!(a.to_string(), "r=1 w=2");
    }
}
