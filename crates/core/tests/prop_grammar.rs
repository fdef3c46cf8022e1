//! Property tests for the grammar-derivation genome space.
//!
//! Four invariants back the [`GenomeSpace`] contract for
//! [`GrammarSpace`]:
//!
//! 1. **Round-trip** — `decode` and `encode` are exact inverses:
//!    `encode(decode(g))` is `canonicalize(g)` for any 12-codon vector,
//!    and decoding a canonical genome re-encodes to itself.
//! 2. **Idempotence** — `canonicalize` is idempotent and total over
//!    arbitrary codon vectors of *any* length (short vectors are
//!    padded, long ones truncated, before the grammar fold).
//! 3. **Totality of materialization** — every decodable vector builds a
//!    configuration that passes allocator validation; the only typed
//!    rejection `decode` can produce is a wrong-length error.
//! 4. **Closure under search operators** — the ±1 neighborhood and the
//!    genetic operators (uniform crossover, per-axis redraw mutation)
//!    can only ever produce genomes that canonicalize back into the
//!    space, with every codon inside `axis_lens()`.

use proptest::prelude::*;

use dmx_core::space::{GrammarError, GrammarSpace};
use dmx_core::study::{easyport_space, StudyScale};
use dmx_core::{GenomeSpace, ParamSpace};
use dmx_memhier::MemoryHierarchy;

/// Codon count of every grammar genome (pinned by the grammar design;
/// asserted against the space below so the strategies' assumptions and
/// the grammar cannot drift apart).
const GENOME_LEN: usize = 12;

fn fixture() -> (MemoryHierarchy, GrammarSpace) {
    let hierarchy = dmx_memhier::presets::sp64k_dram4m();
    let odometer: ParamSpace = easyport_space(&hierarchy, StudyScale::Quick);
    (hierarchy, GrammarSpace::covering(&odometer))
}

/// An arbitrary 12-codon vector with deliberately oversized codons, so
/// the modulo fold is always exercised.
fn any_codons() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..64, GENOME_LEN)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `encode(decode(g))` equals `canonicalize(g)`, and a canonical
    /// genome decodes and re-encodes to itself — codons and derivations
    /// are two views of the same point.
    #[test]
    fn decode_encode_round_trips_through_canonicalize(codons in any_codons()) {
        let (_, grammar) = fixture();
        let derivation = grammar.decode(&codons).expect("12 codons always decode");
        let encoded = grammar.encode(&derivation);
        prop_assert_eq!(encoded.clone(), grammar.canonicalize(codons));
        // Canonical genomes survive the round trip untouched.
        let again = grammar.decode(&encoded).expect("canonical genomes decode");
        prop_assert_eq!(again, derivation);
        prop_assert_eq!(grammar.encode(&again), encoded);
    }

    /// `canonicalize` is idempotent and total over vectors of any
    /// length: too-short vectors pad with zero codons, too-long ones
    /// drop the tail, and a second fold changes nothing.
    #[test]
    fn canonicalize_is_idempotent_and_total(
        codons in prop::collection::vec(0usize..64, 0..2 * GENOME_LEN)
    ) {
        let (_, grammar) = fixture();
        let canon = grammar.canonicalize(codons.clone());
        prop_assert_eq!(canon.len(), GENOME_LEN);
        prop_assert_eq!(canon.clone(), grammar.canonicalize(canon.clone()), "idempotent");
        // The canonical form is insensitive to trailing introns beyond
        // GENOME_LEN: appending arbitrary tail codons to a full-length
        // genome cannot change the derivation.
        let mut extended = canon.clone();
        extended.resize(2 * GENOME_LEN, 63);
        prop_assert_eq!(canon, grammar.canonicalize(extended));
    }

    /// Every random derivation materializes into a configuration that
    /// passes full allocator validation — the grammar can express
    /// nothing the simulator rejects. Wrong-length vectors are the one
    /// typed rejection.
    #[test]
    fn every_derivation_builds_a_valid_config_or_fails_typed(
        codons in any_codons(),
        cut in 0usize..GENOME_LEN,
    ) {
        let (hierarchy, grammar) = fixture();
        let config = GenomeSpace::config_at(&grammar, &hierarchy, &codons);
        config
            .validate(&hierarchy)
            .expect("every 12-codon derivation must build a valid allocator");

        // Truncations are rejected with the typed error, never a panic.
        prop_assert_eq!(
            grammar.decode(&codons[..cut]),
            Err(GrammarError::WrongGenomeLength { expected: GENOME_LEN, got: cut })
        );
    }

    /// The search operators are closed over the space: canonical genomes
    /// are in-bounds; crossover + mutation products canonicalize back
    /// into the space.
    #[test]
    fn search_operators_stay_in_space(
        a in any_codons(),
        b in any_codons(),
        mask in prop::collection::vec(prop::bool::ANY, GENOME_LEN),
        axis in 0usize..GENOME_LEN,
    ) {
        let (hierarchy, grammar) = fixture();
        let lens = GenomeSpace::axis_lens(&grammar);
        prop_assert_eq!(lens.len(), GENOME_LEN);

        let a = grammar.canonicalize(a);
        let b = grammar.canonicalize(b);
        for g in [&a, &b] {
            for (d, &codon) in g.iter().enumerate() {
                prop_assert!(codon < lens[d], "canonical codon {d} out of axis bounds");
            }
        }

        // Uniform crossover of two in-space parents, then a one-axis
        // redraw to the axis maximum (the worst case the genetic
        // operators can produce), folds back into the space.
        let mut child: Vec<usize> = mask
            .iter()
            .enumerate()
            .map(|(d, &take_a)| if take_a { a[d] } else { b[d] })
            .collect();
        child[axis] = lens[axis] - 1;
        let child = grammar.canonicalize(child);
        prop_assert_eq!(child.clone(), grammar.canonicalize(child.clone()));
        GenomeSpace::config_at(&grammar, &hierarchy, &child)
            .validate(&hierarchy)
            .expect("crossover+mutation products must stay buildable");
    }
}
