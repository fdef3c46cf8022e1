//! Declarative allocator configurations.
//!
//! An [`AllocatorConfig`] is the flat, comparable description of one point
//! in the exploration space: which pools exist, what each serves, how each
//! is parameterized, and on which memory level each is placed. The
//! exploration tool enumerates thousands of these; [`AllocatorConfig::build`]
//! instantiates the matching [`CompositeAllocator`].

use std::fmt;

use dmx_memhier::{LevelId, MemoryHierarchy};

use crate::composite::CompositeAllocator;
use crate::error::BuildError;
use crate::policy::{CoalescePolicy, FitPolicy, FreeOrder, SplitPolicy};
use crate::pool::{BuddyPool, FixedBlockPool, GeneralPool, Pool, RegionPool, SegregatedPool};

/// Which request sizes a pool serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    /// Exactly this size, in bytes.
    Exact(u32),
    /// Any size in `min..=max` bytes.
    Range {
        /// Smallest routed size (inclusive).
        min: u32,
        /// Largest routed size (inclusive).
        max: u32,
    },
    /// Everything not otherwise routed. Exactly one pool must use this.
    Fallback,
}

/// The algorithmic identity and parameters of a pool.
#[derive(Debug, Clone, PartialEq)]
pub enum PoolKind {
    /// Dedicated fixed-block pool (O(1), headerless).
    Fixed {
        /// The single block size served.
        block_size: u32,
        /// Blocks reserved per growth step.
        chunk_blocks: u32,
    },
    /// Parameterized general pool.
    General {
        /// Free-list search policy.
        fit: FitPolicy,
        /// Free-list order discipline.
        order: FreeOrder,
        /// Coalescing policy.
        coalesce: CoalescePolicy,
        /// Splitting policy.
        split: SplitPolicy,
        /// Payload alignment (power of two).
        align: u32,
        /// Bytes reserved per growth step.
        chunk_bytes: u64,
    },
    /// Segregated storage with power-of-two classes.
    Segregated {
        /// Smallest class (power of two, >= 8).
        min_class: u32,
        /// Largest class (power of two).
        max_class: u32,
        /// Bytes reserved per class growth step.
        chunk_bytes: u64,
    },
    /// Binary buddy allocator.
    Buddy {
        /// Smallest block order (block = 2^order bytes).
        min_order: u32,
        /// Largest block order (also the chunk size).
        max_order: u32,
    },
    /// Bump arena with whole-arena reset.
    Region {
        /// Bytes reserved per growth step.
        chunk_bytes: u64,
    },
}

/// One pool of a configuration: what it serves, what it is, where it lives.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSpec {
    /// Which request sizes route here.
    pub route: Route,
    /// Pool algorithm and parameters.
    pub kind: PoolKind,
    /// Memory level the pool is placed on.
    pub level: LevelId,
}

impl PoolSpec {
    /// A dedicated fixed-block pool for `size`-byte requests on `level`.
    pub fn fixed(size: u32, level: LevelId) -> Self {
        PoolSpec {
            route: Route::Exact(size),
            kind: PoolKind::Fixed {
                block_size: size,
                chunk_blocks: 32,
            },
            level,
        }
    }

    /// A fallback general pool on `level` with the given policies.
    pub fn general(
        level: LevelId,
        fit: FitPolicy,
        order: FreeOrder,
        coalesce: CoalescePolicy,
        split: SplitPolicy,
    ) -> Self {
        PoolSpec {
            route: Route::Fallback,
            kind: PoolKind::General {
                fit,
                order,
                coalesce,
                split,
                align: 8,
                chunk_bytes: 8192,
            },
            level,
        }
    }

    fn label(&self) -> String {
        let prefix = match self.route {
            Route::Exact(_) | Route::Fallback => String::new(),
            Route::Range { min, max } => format!("r{min}-{max}:"),
        };
        let body = match &self.kind {
            PoolKind::Fixed { block_size, .. } => format!("fix{block_size}"),
            PoolKind::General {
                fit,
                order,
                coalesce,
                split,
                align,
                chunk_bytes,
            } => {
                format!("gen({fit},{order},{coalesce},{split},a{align},c{chunk_bytes})")
            }
            PoolKind::Segregated {
                min_class,
                max_class,
                ..
            } => {
                format!("seg({min_class}-{max_class})")
            }
            PoolKind::Buddy {
                min_order,
                max_order,
            } => {
                format!("bud({min_order}-{max_order})")
            }
            PoolKind::Region { .. } => "arena".to_owned(),
        };
        format!("{prefix}{body}@L{}", self.level.0)
    }
}

/// A complete allocator configuration: an ordered list of pool specs.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocatorConfig {
    /// The pools, in routing-priority order (exact routes match first
    /// regardless; ranges match in list order).
    pub pools: Vec<PoolSpec>,
}

impl AllocatorConfig {
    /// A configuration with only a general fallback pool — the "OS-based
    /// general-purpose allocator" baseline of the paper.
    pub fn general_only(
        level: LevelId,
        fit: FitPolicy,
        order: FreeOrder,
        coalesce: CoalescePolicy,
        split: SplitPolicy,
    ) -> Self {
        AllocatorConfig {
            pools: vec![PoolSpec::general(level, fit, order, coalesce, split)],
        }
    }

    /// The paper's worked example: a dedicated pool for 74-byte blocks on
    /// the L1 scratchpad, plus a dedicated 1500-byte pool and the general
    /// pool on main memory.
    pub fn paper_example(hierarchy: &MemoryHierarchy) -> Self {
        let l1 = hierarchy.fastest();
        let main = hierarchy.slowest();
        AllocatorConfig {
            pools: vec![
                PoolSpec::fixed(74, l1),
                PoolSpec::fixed(1500, main),
                PoolSpec::general(
                    main,
                    FitPolicy::FirstFit,
                    FreeOrder::AddressOrdered,
                    CoalescePolicy::Immediate,
                    SplitPolicy::MinRemainder(16),
                ),
            ],
        }
    }

    /// Validates the configuration against `hierarchy` without building.
    ///
    /// # Errors
    ///
    /// See [`BuildError`].
    pub fn validate(&self, hierarchy: &MemoryHierarchy) -> Result<(), BuildError> {
        let mut fallbacks = 0usize;
        let mut exacts: Vec<u32> = Vec::new();
        for (i, spec) in self.pools.iter().enumerate() {
            if !hierarchy.contains(spec.level) {
                return Err(BuildError::UnknownLevel(spec.level));
            }
            match spec.route {
                Route::Fallback => fallbacks += 1,
                Route::Exact(size) => {
                    if exacts.contains(&size) {
                        return Err(BuildError::DuplicateExactRoute(size));
                    }
                    exacts.push(size);
                    if size == 0 {
                        return Err(BuildError::InvalidParameter {
                            pool: i,
                            what: "exact route of size 0".to_owned(),
                        });
                    }
                }
                Route::Range { min, max } => {
                    if min == 0 || min > max {
                        return Err(BuildError::InvalidParameter {
                            pool: i,
                            what: format!("bad range {min}..={max}"),
                        });
                    }
                }
            }
            self.validate_kind(i, spec)?;
        }
        match fallbacks {
            0 => Err(BuildError::NoFallbackPool),
            1 => Ok(()),
            _ => Err(BuildError::MultipleFallbackPools),
        }
    }

    fn validate_kind(&self, i: usize, spec: &PoolSpec) -> Result<(), BuildError> {
        let bad = |what: String| BuildError::InvalidParameter { pool: i, what };
        match &spec.kind {
            PoolKind::Fixed {
                block_size,
                chunk_blocks,
            } => {
                if *block_size == 0 || *chunk_blocks == 0 {
                    return Err(bad("fixed pool with zero size or chunk".to_owned()));
                }
                if let Route::Exact(size) = spec.route {
                    if size > *block_size {
                        return Err(bad(format!(
                            "route size {size} exceeds block size {block_size}"
                        )));
                    }
                }
                if let Route::Range { max, .. } = spec.route {
                    if max > *block_size {
                        return Err(bad(format!(
                            "route max {max} exceeds block size {block_size}"
                        )));
                    }
                }
            }
            PoolKind::General {
                align,
                chunk_bytes,
                coalesce,
                ..
            } => {
                if !align.is_power_of_two() {
                    return Err(bad(format!("alignment {align} not a power of two")));
                }
                if *chunk_bytes == 0 || *chunk_bytes > u64::from(u32::MAX) {
                    return Err(bad(format!("chunk of {chunk_bytes} bytes out of range")));
                }
                if let CoalescePolicy::DeferredEvery(0) = coalesce {
                    return Err(bad("deferred coalescing with period 0".to_owned()));
                }
            }
            PoolKind::Segregated {
                min_class,
                max_class,
                chunk_bytes,
            } => {
                if !min_class.is_power_of_two()
                    || !max_class.is_power_of_two()
                    || *min_class < 8
                    || min_class > max_class
                    || *chunk_bytes == 0
                {
                    return Err(bad(format!(
                        "bad segregated classes {min_class}..{max_class}"
                    )));
                }
            }
            PoolKind::Buddy {
                min_order,
                max_order,
            } => {
                if !(4..=31).contains(min_order) || min_order > max_order || *max_order > 31 {
                    return Err(bad(format!("bad buddy orders {min_order}..{max_order}")));
                }
            }
            PoolKind::Region { chunk_bytes } => {
                if *chunk_bytes == 0 {
                    return Err(bad("arena with zero chunk".to_owned()));
                }
            }
        }
        Ok(())
    }

    /// Instantiates the configuration over `hierarchy`: pool `i` of the
    /// composite is `self.pools[i]`, so the [`PoolId`](crate::PoolId) an
    /// allocation reports is its spec's index.
    ///
    /// # Errors
    ///
    /// See [`BuildError`]; all validation errors are reported before any
    /// pool is constructed.
    pub fn build(&self, hierarchy: &MemoryHierarchy) -> Result<CompositeAllocator, BuildError> {
        self.validate(hierarchy)?;
        let mut pools = Vec::with_capacity(self.pools.len());
        let mut exact = Vec::new();
        let mut ranges = Vec::new();
        let mut fallback = 0;
        for (i, spec) in self.pools.iter().enumerate() {
            pools.push(Self::instantiate(spec));
            match spec.route {
                Route::Exact(size) => exact.push((size, i)),
                Route::Range { min, max } => ranges.push((min, max, i)),
                Route::Fallback => fallback = i,
            }
        }
        Ok(CompositeAllocator::new(
            hierarchy, pools, exact, ranges, fallback,
        ))
    }

    fn instantiate(spec: &PoolSpec) -> Box<dyn Pool> {
        match &spec.kind {
            PoolKind::Fixed {
                block_size,
                chunk_blocks,
            } => Box::new(FixedBlockPool::new(spec.level, *block_size, *chunk_blocks)),
            PoolKind::General {
                fit,
                order,
                coalesce,
                split,
                align,
                chunk_bytes,
            } => Box::new(GeneralPool::new(
                spec.level,
                *fit,
                *order,
                *coalesce,
                *split,
                *align,
                *chunk_bytes,
            )),
            PoolKind::Segregated {
                min_class,
                max_class,
                chunk_bytes,
            } => Box::new(SegregatedPool::new(
                spec.level,
                *min_class,
                *max_class,
                *chunk_bytes,
            )),
            PoolKind::Buddy {
                min_order,
                max_order,
            } => Box::new(BuddyPool::new(spec.level, *min_order, *max_order)),
            PoolKind::Region { chunk_bytes } => Box::new(RegionPool::new(spec.level, *chunk_bytes)),
        }
    }

    /// A compact, unique, human-readable label for result tables, e.g.
    /// `fix74@L0+fix1500@L1+gen(ff,addr,co-im,sp-16,a8)@L1`.
    pub fn label(&self) -> String {
        self.pools
            .iter()
            .map(PoolSpec::label)
            .collect::<Vec<_>>()
            .join("+")
    }
}

impl fmt::Display for AllocatorConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::AllocCtx;
    use dmx_memhier::presets;

    #[test]
    fn paper_example_builds_and_routes() {
        let hier = presets::sp64k_dram4m();
        let cfg = AllocatorConfig::paper_example(&hier);
        assert!(cfg.validate(&hier).is_ok());
        let mut a = cfg.build(&hier).unwrap();
        let mut ctx = AllocCtx::new(hier.len());
        let (hot, _) = a.alloc(74, &mut ctx).unwrap();
        assert_eq!(hot.level, hier.fastest());
        let (frame, _) = a.alloc(1500, &mut ctx).unwrap();
        assert_eq!(frame.level, hier.slowest());
        let (odd, _) = a.alloc(300, &mut ctx).unwrap();
        assert_eq!(odd.level, hier.slowest());
        a.validate();
    }

    #[test]
    fn label_is_deterministic_and_descriptive() {
        let hier = presets::sp64k_dram4m();
        let cfg = AllocatorConfig::paper_example(&hier);
        let label = cfg.label();
        assert!(label.contains("fix74@L0"), "{label}");
        assert!(label.contains("fix1500@L1"), "{label}");
        assert!(
            label.contains("gen(ff,addr,co-im,sp-16,a8,c8192)@L1"),
            "{label}"
        );
        assert_eq!(label, cfg.label());
        assert_eq!(cfg.to_string(), label);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let hier = presets::sp64k_dram4m();
        // No fallback.
        let cfg = AllocatorConfig {
            pools: vec![PoolSpec::fixed(74, LevelId(0))],
        };
        assert_eq!(cfg.validate(&hier), Err(BuildError::NoFallbackPool));

        // Two fallbacks.
        let general = PoolSpec::general(
            LevelId(1),
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::Never,
            SplitPolicy::Never,
        );
        let cfg = AllocatorConfig {
            pools: vec![general.clone(), general],
        };
        assert_eq!(cfg.validate(&hier), Err(BuildError::MultipleFallbackPools));

        // Duplicate exact route.
        let cfg = AllocatorConfig {
            pools: vec![
                PoolSpec::fixed(74, LevelId(0)),
                PoolSpec::fixed(74, LevelId(1)),
                PoolSpec::general(
                    LevelId(1),
                    FitPolicy::FirstFit,
                    FreeOrder::Lifo,
                    CoalescePolicy::Never,
                    SplitPolicy::Never,
                ),
            ],
        };
        assert_eq!(
            cfg.validate(&hier),
            Err(BuildError::DuplicateExactRoute(74))
        );

        // Unknown level.
        let cfg = AllocatorConfig {
            pools: vec![PoolSpec::general(
                LevelId(7),
                FitPolicy::FirstFit,
                FreeOrder::Lifo,
                CoalescePolicy::Never,
                SplitPolicy::Never,
            )],
        };
        assert_eq!(
            cfg.validate(&hier),
            Err(BuildError::UnknownLevel(LevelId(7)))
        );
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let hier = presets::sp64k_dram4m();
        let mut cfg = AllocatorConfig::general_only(
            LevelId(1),
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::Never,
            SplitPolicy::Never,
        );
        if let PoolKind::General { align, .. } = &mut cfg.pools[0].kind {
            *align = 3;
        }
        assert!(matches!(
            cfg.validate(&hier),
            Err(BuildError::InvalidParameter { pool: 0, .. })
        ));
    }

    #[test]
    fn every_pool_kind_builds() {
        let hier = presets::sp64k_dram4m();
        let main = hier.slowest();
        let cfg = AllocatorConfig {
            pools: vec![
                PoolSpec::fixed(74, hier.fastest()),
                PoolSpec {
                    route: Route::Range { min: 1, max: 64 },
                    kind: PoolKind::Segregated {
                        min_class: 8,
                        max_class: 64,
                        chunk_bytes: 2048,
                    },
                    level: main,
                },
                PoolSpec {
                    route: Route::Range { min: 65, max: 512 },
                    kind: PoolKind::Buddy {
                        min_order: 5,
                        max_order: 12,
                    },
                    level: main,
                },
                PoolSpec {
                    route: Route::Range {
                        min: 513,
                        max: 1024,
                    },
                    kind: PoolKind::Region { chunk_bytes: 8192 },
                    level: main,
                },
                PoolSpec::general(
                    main,
                    FitPolicy::BestFit,
                    FreeOrder::SizeOrdered,
                    CoalescePolicy::DeferredEvery(32),
                    SplitPolicy::MinRemainder(16),
                ),
            ],
        };
        let mut a = cfg.build(&hier).unwrap();
        let mut ctx = AllocCtx::new(hier.len());
        for size in [74u32, 30, 200, 800, 3000] {
            let (b, _) = a.alloc(size, &mut ctx).unwrap();
            assert!(b.occupied >= size);
        }
        a.validate();
        assert_eq!(a.pool_count(), 5);
    }

    #[test]
    fn general_only_is_single_pool() {
        let hier = presets::sp64k_dram4m();
        let cfg = AllocatorConfig::general_only(
            hier.slowest(),
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::Never,
            SplitPolicy::Never,
        );
        let a = cfg.build(&hier).unwrap();
        assert_eq!(a.pool_count(), 1);
    }
}
