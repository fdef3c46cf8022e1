//! Error types for allocator construction and operation.

use std::error::Error;
use std::fmt;

use dmx_memhier::{LevelId, RegionError};

/// A runtime allocation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AllocError {
    /// The owning memory level is exhausted.
    OutOfMemory {
        /// The level the pool attempted to grow on.
        level: LevelId,
        /// The request size that could not be satisfied, in bytes.
        requested: u32,
    },
    /// The request size exceeds what this pool can ever serve
    /// (e.g. larger than a buddy pool's maximum block).
    Unservable {
        /// The offending request size, in bytes.
        requested: u32,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory { level, requested } => {
                write!(f, "out of memory on level {level} for {requested} bytes")
            }
            AllocError::Unservable { requested } => {
                write!(f, "request of {requested} bytes exceeds pool limits")
            }
        }
    }
}

impl Error for AllocError {}

impl From<RegionError> for AllocError {
    fn from(e: RegionError) -> Self {
        match e {
            RegionError::OutOfLevel {
                level, requested, ..
            } => AllocError::OutOfMemory {
                level,
                requested: u32::try_from(requested).unwrap_or(u32::MAX),
            },
            _ => AllocError::Unservable { requested: 0 },
        }
    }
}

/// An error instantiating an [`AllocatorConfig`](crate::AllocatorConfig).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// The configuration has no fallback pool — some request sizes would be
    /// unroutable.
    NoFallbackPool,
    /// The configuration has more than one fallback pool.
    MultipleFallbackPools,
    /// Two pools claim the same exact size.
    DuplicateExactRoute(u32),
    /// A pool is placed on a level that does not exist in the hierarchy.
    UnknownLevel(LevelId),
    /// A pool parameter is out of its valid domain.
    InvalidParameter {
        /// Which pool (index into the spec list).
        pool: usize,
        /// Human-readable description of the violation.
        what: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NoFallbackPool => f.write_str("configuration has no fallback pool"),
            BuildError::MultipleFallbackPools => {
                f.write_str("configuration has more than one fallback pool")
            }
            BuildError::DuplicateExactRoute(size) => {
                write!(f, "two pools claim exact size {size}")
            }
            BuildError::UnknownLevel(level) => write!(f, "unknown memory level {level}"),
            BuildError::InvalidParameter { pool, what } => {
                write!(f, "pool {pool}: {what}")
            }
        }
    }
}

impl Error for BuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_error_converts() {
        let e: AllocError = RegionError::OutOfLevel {
            level: LevelId(1),
            requested: 64,
            available: 0,
        }
        .into();
        assert_eq!(
            e,
            AllocError::OutOfMemory {
                level: LevelId(1),
                requested: 64
            }
        );
    }

    #[test]
    fn displays_are_informative() {
        let e = AllocError::OutOfMemory {
            level: LevelId(0),
            requested: 128,
        };
        assert!(e.to_string().contains("128"));
        let b = BuildError::DuplicateExactRoute(74);
        assert!(b.to_string().contains("74"));
    }
}
