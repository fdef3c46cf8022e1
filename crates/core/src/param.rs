//! The exploration parameter space — "the list of arrays with the
//! parameter values to be explored" that is the tool's only required input.

use dmx_alloc::{AllocatorConfig, CoalescePolicy, FitPolicy, FreeOrder, SplitPolicy};
use dmx_alloc::{PoolKind, PoolSpec, Route};
use dmx_memhier::{LevelChoice, LevelId, MemoryHierarchy};
use dmx_trace::TraceStats;

use crate::enumerate::ConfigIter;

/// One point of a genome space, encoded as a vector of axis coordinates.
///
/// For the odometer [`ParamSpace`] this is the 8-axis index
/// `[dedicated_set, placement, fit, order, coalesce, split, level, chunk]`;
/// for the grammar space ([`crate::space::GrammarSpace`]) it is a codon
/// vector whose entries pick grammar rules. This is the genotype the
/// guided search strategies (see [`crate::search`]) operate on: crossover
/// and mutation are plain index arithmetic on the coordinates, and
/// [`crate::space::GenomeSpace::config_at`] materializes a genome back
/// into an [`AllocatorConfig`]. Different spaces use different lengths —
/// strategies size their operators from
/// [`crate::space::GenomeSpace::axis_lens`].
pub type Genome = Vec<usize>;

/// How the dedicated pools of a configuration are mapped onto the memory
/// hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementStrategy {
    /// Every dedicated pool on one chosen level. [`LevelChoice::Fastest`]
    /// and [`LevelChoice::Slowest`] resolve per hierarchy, so the same
    /// space can be evaluated across platforms with different depths (the
    /// scenario suites do exactly that).
    AllOn(LevelChoice),
    /// Dedicated pools for blocks up to `max_size` bytes go on the fastest
    /// level (the scratchpad); larger ones on the slowest. This is the
    /// paper's example mapping: 74-byte pool on L1, 1500-byte pool on main
    /// memory.
    SmallOnFastest {
        /// Largest block size still placed on the fastest level.
        max_size: u32,
    },
}

impl PlacementStrategy {
    /// The level a dedicated pool for `size`-byte blocks is placed on.
    pub fn level_for(&self, size: u32, hierarchy: &MemoryHierarchy) -> LevelId {
        match *self {
            PlacementStrategy::AllOn(level) => level.resolve(hierarchy),
            PlacementStrategy::SmallOnFastest { max_size } => {
                if size <= max_size {
                    hierarchy.fastest()
                } else {
                    hierarchy.slowest()
                }
            }
        }
    }

    /// Short label for configuration strings.
    pub fn tag(&self) -> String {
        match *self {
            PlacementStrategy::AllOn(level) => format!("all@{}", level.tag()),
            PlacementStrategy::SmallOnFastest { max_size } => format!("sp<={max_size}"),
        }
    }
}

/// The cartesian parameter space of allocator configurations.
///
/// Every field is one "array of parameter values"; the explored space is
/// the cartesian product of all of them. One point denotes: a set of
/// dedicated fixed-block pools (possibly empty), their placement, and a
/// fully parameterized general fallback pool.
///
/// # Example
///
/// Derive a space from a profiled workload, then address configurations
/// both by iteration and by random access:
///
/// ```
/// use dmx_core::ParamSpace;
/// use dmx_memhier::presets;
/// use dmx_trace::gen::{EasyportConfig, TraceGenerator};
/// use dmx_trace::TraceStats;
///
/// let hier = presets::sp64k_dram4m();
/// let stats = TraceStats::compute(&EasyportConfig::small().generate(1));
/// let space = ParamSpace::suggest(&stats, &hier);
///
/// // Sequential enumeration and random access agree point for point.
/// let third = space.iter_configs(&hier).nth(3).unwrap();
/// let genome = space.genome_at(3);
/// assert_eq!(space.config_at(&hier, &genome).label(), third.label());
/// assert_eq!(space.iter_configs(&hier).count(), space.len());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpace {
    /// Candidate sets of dedicated-pool block sizes (e.g. `[]`, `[74]`,
    /// `[28, 74, 1500]`).
    pub dedicated_size_sets: Vec<Vec<u32>>,
    /// Candidate placements for the dedicated pools.
    pub placements: Vec<PlacementStrategy>,
    /// Fit policies for the general pool.
    pub fits: Vec<FitPolicy>,
    /// Free-list orders for the general pool.
    pub orders: Vec<FreeOrder>,
    /// Coalescing policies for the general pool.
    pub coalesces: Vec<CoalescePolicy>,
    /// Split policies for the general pool.
    pub splits: Vec<SplitPolicy>,
    /// Levels the general pool may be placed on (resolved per hierarchy,
    /// so relative choices like [`LevelChoice::Slowest`] work across
    /// platforms).
    pub general_levels: Vec<LevelChoice>,
    /// Growth-chunk sizes (bytes) for the general pool.
    pub general_chunks: Vec<u64>,
}

impl ParamSpace {
    /// The number of *distinct* configurations in the space.
    ///
    /// For an empty dedicated-size set the placement axis collapses (there
    /// is no dedicated pool to place), so that set contributes one
    /// configuration per general-pool combination instead of one per
    /// placement.
    pub fn len(&self) -> usize {
        let general = self.fits.len()
            * self.orders.len()
            * self.coalesces.len()
            * self.splits.len()
            * self.general_levels.len()
            * self.general_chunks.len();
        let placed_sets: usize = self
            .dedicated_size_sets
            .iter()
            .map(|set| {
                if set.is_empty() {
                    1
                } else {
                    self.placements.len()
                }
            })
            .sum();
        placed_sets * general
    }

    /// `true` if any axis is empty (no configurations).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The lengths of the eight parameter axes, in odometer order
    /// (dedicated sets, placements, fits, orders, coalesces, splits,
    /// general levels, general chunks).
    pub fn axis_lens(&self) -> [usize; 8] {
        [
            self.dedicated_size_sets.len(),
            self.placements.len(),
            self.fits.len(),
            self.orders.len(),
            self.coalesces.len(),
            self.splits.len(),
            self.general_levels.len(),
            self.general_chunks.len(),
        ]
    }

    /// Folds a genome into its canonical representative: with an empty
    /// dedicated-size set the placement axis is meaningless (there is no
    /// pool to place), so all placements collapse onto index 0. Two
    /// genomes denote the same configuration iff their canonical forms are
    /// equal — the [`crate::search::Evaluator`]'s memo tables key on
    /// this.
    pub fn canonicalize(&self, mut genome: Genome) -> Genome {
        if self.dedicated_size_sets[genome[0]].is_empty() {
            genome[1] = 0;
        }
        genome
    }

    /// Decodes a distinct-configuration index (`0..self.len()`) into its
    /// canonical [`Genome`], in enumeration order: the `i`-th genome
    /// materializes the `i`-th configuration yielded by [`Self::iter_configs`].
    ///
    /// This is the random-access counterpart of the [`ConfigIter`]
    /// odometer; [`crate::sample_configs`] and the guided search
    /// strategies use it to draw uniform configurations from huge spaces
    /// without enumerating them.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn genome_at(&self, index: usize) -> Genome {
        assert!(
            index < self.len(),
            "index {index} out of bounds for space of {}",
            self.len()
        );
        let lens = self.axis_lens();
        // Number of general-pool combinations (the six inner axes).
        let general: usize = lens[2..].iter().product();
        let mut rest = index;
        let mut genome = vec![0usize; 8];
        for (set_idx, set) in self.dedicated_size_sets.iter().enumerate() {
            let placements = if set.is_empty() { 1 } else { lens[1] };
            let block = placements * general;
            if rest < block {
                genome[0] = set_idx;
                genome[1] = rest / general;
                let mut inner = rest % general;
                for d in (2..8).rev() {
                    genome[d] = inner % lens[d];
                    inner /= lens[d];
                }
                return genome;
            }
            rest -= block;
        }
        unreachable!("index checked against len()");
    }

    /// Materializes one genome into its [`AllocatorConfig`] (dedicated
    /// fixed-block pools per the placement strategy, plus the general
    /// fallback pool).
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds for its axis.
    pub fn config_at(&self, hierarchy: &MemoryHierarchy, genome: &[usize]) -> AllocatorConfig {
        let sizes = &self.dedicated_size_sets[genome[0]];
        let placement = self.placements[genome[1]];
        let fit = self.fits[genome[2]];
        let order = self.orders[genome[3]];
        let coalesce = self.coalesces[genome[4]];
        let split = self.splits[genome[5]];
        let general_level = self.general_levels[genome[6]].resolve(hierarchy);
        let chunk = self.general_chunks[genome[7]];

        let mut pools: Vec<PoolSpec> = sizes
            .iter()
            .map(|&size| PoolSpec {
                route: Route::Exact(size),
                kind: PoolKind::Fixed {
                    block_size: size,
                    chunk_blocks: 32,
                },
                level: placement.level_for(size, hierarchy),
            })
            .collect();
        pools.push(PoolSpec {
            route: Route::Fallback,
            kind: PoolKind::General {
                fit,
                order,
                coalesce,
                split,
                align: 8,
                chunk_bytes: chunk,
            },
            level: general_level,
        });
        AllocatorConfig { pools }
    }

    /// Iterates over every configuration in the space.
    pub fn iter_configs<'a>(&'a self, hierarchy: &'a MemoryHierarchy) -> ConfigIter<'a> {
        ConfigIter::new(self, hierarchy)
    }

    /// Derives a default space from profiled workload statistics: the
    /// dominant block sizes become dedicated-pool candidates (prefix sets
    /// of the top-4), both placements are explored, and the general pool
    /// spans the full policy cross-product.
    ///
    /// This is the paper's automated flow: profile once, explore the
    /// derived space.
    pub fn suggest(stats: &TraceStats, hierarchy: &MemoryHierarchy) -> ParamSpace {
        let hot = stats.dominant_sizes(4);
        let mut dedicated_size_sets: Vec<Vec<u32>> = vec![vec![]];
        for k in 1..=hot.len() {
            let mut set = hot[..k].to_vec();
            set.sort_unstable();
            dedicated_size_sets.push(set);
        }
        let scratchpad_cutoff = hierarchy.level(hierarchy.fastest()).capacity().min(512) as u32;
        ParamSpace {
            dedicated_size_sets,
            placements: vec![
                PlacementStrategy::AllOn(LevelChoice::Slowest),
                PlacementStrategy::SmallOnFastest {
                    max_size: scratchpad_cutoff,
                },
            ],
            fits: FitPolicy::ALL.to_vec(),
            orders: FreeOrder::ALL.to_vec(),
            coalesces: CoalescePolicy::COMMON.to_vec(),
            splits: SplitPolicy::COMMON.to_vec(),
            general_levels: vec![LevelChoice::Slowest],
            general_chunks: vec![8192],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmx_memhier::presets;
    use dmx_trace::gen::{EasyportConfig, TraceGenerator};

    #[test]
    fn placement_strategies_map_sizes() {
        let hier = presets::sp64k_dram4m();
        let all_main = PlacementStrategy::AllOn(LevelChoice::Fixed(hier.slowest()));
        assert_eq!(all_main.level_for(74, &hier), hier.slowest());
        let smart = PlacementStrategy::SmallOnFastest { max_size: 512 };
        assert_eq!(smart.level_for(74, &hier), hier.fastest());
        assert_eq!(smart.level_for(1500, &hier), hier.slowest());
    }

    #[test]
    fn space_len_is_axis_product() {
        let hier = presets::sp64k_dram4m();
        let trace = EasyportConfig::small().generate(1);
        let stats = dmx_trace::TraceStats::compute(&trace);
        let space = ParamSpace::suggest(&stats, &hier);
        // One empty set (placement collapses) + the non-empty sets × 2
        // placements; times the general-pool cross-product 4*4*3*2.
        let placed = 1 + (space.dedicated_size_sets.len() - 1) * 2;
        assert_eq!(space.len(), placed * 4 * 4 * 3 * 2);
        assert!(!space.is_empty());
    }

    #[test]
    fn suggest_uses_dominant_sizes() {
        let hier = presets::sp64k_dram4m();
        let trace = EasyportConfig::small().generate(2);
        let stats = dmx_trace::TraceStats::compute(&trace);
        let space = ParamSpace::suggest(&stats, &hier);
        // First set is empty (the general-pool-only baseline).
        assert!(space.dedicated_size_sets[0].is_empty());
        // The hottest sizes (28-byte descriptors, 74-byte headers) appear.
        let all: Vec<u32> = space
            .dedicated_size_sets
            .iter()
            .flatten()
            .copied()
            .collect();
        assert!(all.contains(&28));
        assert!(all.contains(&74));
    }

    #[test]
    fn empty_axis_means_empty_space() {
        let hier = presets::sp64k_dram4m();
        let trace = EasyportConfig::small().generate(3);
        let stats = dmx_trace::TraceStats::compute(&trace);
        let mut space = ParamSpace::suggest(&stats, &hier);
        space.fits.clear();
        assert!(space.is_empty());
        assert_eq!(space.iter_configs(&hier).count(), 0);
    }

    #[test]
    fn genome_at_matches_enumeration_order() {
        let hier = presets::sp64k_dram4m();
        let trace = EasyportConfig::small().generate(5);
        let stats = dmx_trace::TraceStats::compute(&trace);
        let space = ParamSpace::suggest(&stats, &hier);
        let enumerated: Vec<String> = space.iter_configs(&hier).map(|c| c.label()).collect();
        assert_eq!(enumerated.len(), space.len());
        for (i, label) in enumerated.iter().enumerate() {
            let genome = space.genome_at(i);
            assert_eq!(
                genome,
                space.canonicalize(genome.clone()),
                "genomes are canonical"
            );
            assert_eq!(
                &space.config_at(&hier, &genome).label(),
                label,
                "genome_at({i}) must materialize the {i}-th enumerated config"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn genome_at_rejects_out_of_bounds() {
        let hier = presets::sp64k_dram4m();
        let trace = EasyportConfig::small().generate(5);
        let stats = dmx_trace::TraceStats::compute(&trace);
        let space = ParamSpace::suggest(&stats, &hier);
        let _ = space.genome_at(space.len());
    }

    #[test]
    fn canonicalize_collapses_empty_set_placement() {
        let hier = presets::sp64k_dram4m();
        let trace = EasyportConfig::small().generate(6);
        let stats = dmx_trace::TraceStats::compute(&trace);
        let space = ParamSpace::suggest(&stats, &hier);
        // Axis 0 index 0 is the empty dedicated set in `suggest` spaces.
        assert_eq!(space.canonicalize(vec![0, 1, 0, 0, 0, 0, 0, 0])[1], 0);
        // Non-empty sets keep their placement.
        assert_eq!(space.canonicalize(vec![1, 1, 0, 0, 0, 0, 0, 0])[1], 1);
    }

    #[test]
    fn placement_tags() {
        assert_eq!(
            PlacementStrategy::AllOn(LevelChoice::Fixed(LevelId(1))).tag(),
            "all@L1"
        );
        assert_eq!(
            PlacementStrategy::AllOn(LevelChoice::Slowest).tag(),
            "all@slowest"
        );
        assert_eq!(
            PlacementStrategy::SmallOnFastest { max_size: 512 }.tag(),
            "sp<=512"
        );
    }

    #[test]
    fn relative_levels_materialize_on_any_depth() {
        // The same space must be valid on a 1-level and a 2-level platform:
        // relative choices resolve per hierarchy.
        let two = presets::sp64k_dram4m();
        let one = presets::dram_only_4m();
        let trace = EasyportConfig::small().generate(9);
        let stats = dmx_trace::TraceStats::compute(&trace);
        let space = ParamSpace::suggest(&stats, &two);
        for hier in [&two, &one] {
            let g = space.genome_at(space.len() - 1);
            let config = space.config_at(hier, &g);
            // The general pool landed on the platform's own slowest level.
            let general = config.pools.last().expect("general pool present");
            assert_eq!(general.level, hier.slowest());
        }
    }
}
