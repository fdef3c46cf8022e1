//! Genome spaces: the abstraction the guided search layer explores.
//!
//! A [`GenomeSpace`] turns a [`Genome`] — a plain vector of axis
//! coordinates — into an [`AllocatorConfig`] and back. The search
//! strategies (genetic, hill-climb, island, subsample, exhaustive) only
//! ever manipulate genomes through this trait, so the same machinery
//! explores:
//!
//! * the paper's 8-axis odometer space ([`ParamSpace`]), and
//! * the grammar-derivation space ([`GrammarSpace`]), whose codon
//!   vectors derive allocator pool trees from a small BNF-style grammar
//!   (grammatical evolution, after Risco-Martín et al.).
//!
//! The contract every implementation must uphold:
//!
//! * `genome_at(i)` for `i in 0..len()` enumerates every distinct
//!   configuration exactly once, in a deterministic order, and returns
//!   canonical genomes;
//! * `canonicalize` is idempotent and total: any genome two search
//!   operators could produce (crossover, ±1 mutation, redraw within
//!   `axis_lens`) folds to a canonical representative, and two genomes
//!   denote the same configuration iff their canonical forms are equal
//!   (the evaluator's memo tables key on this);
//! * `config_at` of a canonical genome always builds a valid
//!   configuration for any hierarchy the space was built against;
//! * `axis_lens()[d]` bounds coordinate `d`: mutation redraws inside
//!   `0..axis_lens()[d]` and stays in-space after canonicalization.

mod grammar;

pub use grammar::{Derivation, FallbackRule, GrammarError, GrammarSpace, MidTierRule, GENOME_LEN};

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

use dmx_alloc::AllocatorConfig;
use dmx_memhier::MemoryHierarchy;

use crate::param::{Genome, ParamSpace};

/// A searchable space of allocator configurations addressed by genomes.
///
/// Object-safe: the search layer holds `&dyn GenomeSpace`, so spaces
/// with different genome shapes (odometer indices, grammar codons) run
/// through identical strategy code.
pub trait GenomeSpace: fmt::Debug + Send + Sync {
    /// Short human-readable name (`"odometer"`, `"grammar"`, …).
    fn name(&self) -> &str;

    /// Stable identity of the space: two spaces with different names or
    /// shapes get different ids, so tools can tell whether two runs
    /// explored the same space. The default hashes the name and the axis
    /// lengths; override it only if two same-shape spaces of the same
    /// kind can decode genomes differently.
    fn space_id(&self) -> u64 {
        let mut hasher = DefaultHasher::new();
        self.name().hash(&mut hasher);
        self.axis_lens().hash(&mut hasher);
        hasher.finish()
    }

    /// The number of *distinct* configurations in the space.
    fn len(&self) -> usize;

    /// `true` if the space holds no configurations.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-coordinate domain sizes; genome length == `axis_lens().len()`.
    fn axis_lens(&self) -> Vec<usize>;

    /// Folds a genome into its canonical representative.
    fn canonicalize(&self, genome: Genome) -> Genome;

    /// Decodes a distinct-configuration index (`0..len()`) into its
    /// canonical genome, in enumeration order.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    fn genome_at(&self, index: usize) -> Genome;

    /// Materializes one genome into its [`AllocatorConfig`].
    fn config_at(&self, hierarchy: &MemoryHierarchy, genome: &[usize]) -> AllocatorConfig;

    /// All genomes one ±1 axis step away from `genome` (canonical,
    /// deduplicated, excluding `genome` itself) — the hill-climbing
    /// neighborhood. The default ±1 odometer hop is meaningful for any
    /// space whose adjacent coordinate values decode to related
    /// configurations; spaces with a better notion of locality override
    /// it.
    fn neighbors(&self, genome: &[usize]) -> Vec<Genome> {
        let lens = self.axis_lens();
        let mut out = Vec::with_capacity(2 * lens.len());
        for d in 0..lens.len() {
            for delta in [-1isize, 1] {
                let v = genome[d] as isize + delta;
                if v < 0 || v as usize >= lens[d] {
                    continue;
                }
                let mut n = genome.to_vec();
                n[d] = v as usize;
                let n = self.canonicalize(n);
                if n != genome && !out.contains(&n) {
                    out.push(n);
                }
            }
        }
        out
    }
}

impl GenomeSpace for ParamSpace {
    fn name(&self) -> &str {
        "odometer"
    }

    fn len(&self) -> usize {
        ParamSpace::len(self)
    }

    fn axis_lens(&self) -> Vec<usize> {
        ParamSpace::axis_lens(self).to_vec()
    }

    fn canonicalize(&self, genome: Genome) -> Genome {
        ParamSpace::canonicalize(self, genome)
    }

    fn genome_at(&self, index: usize) -> Genome {
        ParamSpace::genome_at(self, index)
    }

    fn config_at(&self, hierarchy: &MemoryHierarchy, genome: &[usize]) -> AllocatorConfig {
        ParamSpace::config_at(self, hierarchy, genome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::{easyport_space, StudyScale};
    use dmx_memhier::presets;

    fn quick_space() -> ParamSpace {
        let hier = presets::sp64k_dram4m();
        easyport_space(&hier, StudyScale::Quick)
    }

    #[test]
    fn param_space_trait_delegates_to_inherent_methods() {
        let space = quick_space();
        let dy: &dyn GenomeSpace = &space;
        assert_eq!(dy.name(), "odometer");
        assert_eq!(dy.len(), ParamSpace::len(&space));
        assert_eq!(dy.axis_lens(), ParamSpace::axis_lens(&space).to_vec());
        for i in [0, 1, dy.len() / 2, dy.len() - 1] {
            assert_eq!(dy.genome_at(i), ParamSpace::genome_at(&space, i));
        }
    }

    #[test]
    fn space_ids_differ_between_spaces_of_different_shape() {
        let quick = quick_space();
        let hier = presets::sp64k_dram4m();
        let paper = easyport_space(&hier, StudyScale::Paper);
        assert_ne!(
            GenomeSpace::space_id(&quick),
            GenomeSpace::space_id(&paper),
            "different axis lengths must yield different space ids"
        );
        // Same space, same id — the key must be stable across calls.
        assert_eq!(GenomeSpace::space_id(&quick), GenomeSpace::space_id(&quick));
    }

    #[test]
    fn default_neighbors_are_canonical_one_step_hops() {
        let space = quick_space();
        let dy: &dyn GenomeSpace = &space;
        let g = dy.genome_at(dy.len() / 2);
        let hood = dy.neighbors(&g);
        assert!(!hood.is_empty());
        for n in &hood {
            assert_ne!(n, &g);
            assert_eq!(n, &dy.canonicalize(n.clone()), "neighbors are canonical");
        }
        let mut dedup = hood.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), hood.len(), "neighbors are deduplicated");
    }
}
