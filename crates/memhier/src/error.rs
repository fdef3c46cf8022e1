//! Error types for hierarchy construction and region placement.

use std::error::Error;
use std::fmt;

use crate::hierarchy::LevelId;

/// Errors building a [`MemoryHierarchy`](crate::MemoryHierarchy).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HierarchyError {
    /// The level list was empty.
    Empty,
    /// Two levels share the same name.
    DuplicateName(String),
}

impl fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierarchyError::Empty => f.write_str("memory hierarchy has no levels"),
            HierarchyError::DuplicateName(name) => {
                write!(f, "duplicate memory level name `{name}`")
            }
        }
    }
}

impl Error for HierarchyError {}

/// Errors reserving a [`Region`](crate::Region).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RegionError {
    /// A zero-byte reservation was requested.
    ZeroSize,
    /// The requested level does not exist in the hierarchy.
    UnknownLevel(LevelId),
    /// The level lacks capacity.
    OutOfLevel {
        /// Level the reservation was requested on.
        level: LevelId,
        /// Bytes requested.
        requested: u64,
        /// Bytes still available on the requested level.
        available: u64,
    },
}

impl fmt::Display for RegionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionError::ZeroSize => f.write_str("zero-size region requested"),
            RegionError::UnknownLevel(level) => {
                write!(f, "unknown memory level {level}")
            }
            RegionError::OutOfLevel {
                level,
                requested,
                available,
            } => write!(
                f,
                "level {level} cannot hold {requested} bytes ({available} available)"
            ),
        }
    }
}

impl Error for RegionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = HierarchyError::DuplicateName("sp".into());
        assert!(e.to_string().contains("sp"));
        let e = RegionError::OutOfLevel {
            level: LevelId(1),
            requested: 100,
            available: 10,
        };
        let msg = e.to_string();
        assert!(msg.contains("100"));
        assert!(msg.contains("10"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn takes_err<E: Error>(_: E) {}
        takes_err(HierarchyError::Empty);
        takes_err(RegionError::ZeroSize);
    }
}
