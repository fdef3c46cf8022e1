//! Differential tests between genome spaces.
//!
//! A grammar built with [`GrammarSpace::covering`] embeds an odometer
//! space's terminals, so the odometer space is a strict subset of the
//! grammar's derivations. This suite pins that embedding on the full
//! 6912-configuration convergence space (the differential-test oracle
//! space of `tests/diff_search.rs`): **every** odometer configuration
//! has a grammar derivation that materializes the byte-identical
//! [`AllocatorConfig`] — and therefore the byte-identical simulated
//! metrics — and distinct odometer configurations stay distinct in the
//! grammar. A change to either decoder that breaks the correspondence
//! for even one of the 6912 points lands here.

use dmx_alloc::{AllocatorConfig, SimArena, Simulator};
use dmx_core::study::convergence_space;
use dmx_core::{GenomeSpace, GrammarSpace};
use dmx_trace::gen::{EasyportConfig, TraceGenerator};
use dmx_trace::{CompiledTrace, Trace};

/// The same shortened paper-profile trace `tests/diff_search.rs` uses
/// for its exhaustive oracle.
fn oracle_trace() -> Trace {
    EasyportConfig {
        packets: 100,
        ..EasyportConfig::paper()
    }
    .generate(42)
}

/// Every one of the 6912 odometer configurations is rediscovered by the
/// covering grammar: the mapped derivation decodes to an equal
/// [`AllocatorConfig`], the mapped genome is canonical in the grammar,
/// and the mapping is injective. On a deterministic stride subsample the
/// two configs are additionally replayed against the oracle trace and
/// must produce byte-identical [`dmx_alloc::SimMetrics`].
#[test]
fn grammar_rediscovers_every_odometer_configuration() {
    let hierarchy = dmx_memhier::presets::sp64k_dram4m();
    let odometer = convergence_space(&hierarchy);
    let grammar = GrammarSpace::covering(&odometer);
    assert_eq!(odometer.len(), 6912);

    let sim = Simulator::new(&hierarchy);
    let compiled = CompiledTrace::compile(&oracle_trace());
    let mut arena = SimArena::new();
    // ~40 metric replays spread across the space; the config-equality
    // check below covers all 6912 points, and the simulator is a pure
    // function of the config, so the stride only guards against the two
    // spaces disagreeing *after* materialization.
    const SIM_STRIDE: usize = 173;

    let mut mapped: Vec<Vec<usize>> = Vec::with_capacity(odometer.len());
    for i in 0..odometer.len() {
        let odo_genome = odometer.genome_at(i);
        let odo_config: AllocatorConfig = odometer.config_at(&hierarchy, &odo_genome);

        let codons = grammar.odometer_derivation(&odo_genome);
        assert_eq!(
            codons,
            grammar.canonicalize(codons.clone()),
            "config {i}: the mapped derivation must be canonical"
        );
        let grammar_config = GenomeSpace::config_at(&grammar, &hierarchy, &codons);
        assert_eq!(
            odo_config, grammar_config,
            "config {i}: odometer genome {odo_genome:?} and derivation {codons:?} \
             must materialize the same configuration"
        );

        if i % SIM_STRIDE == 0 {
            let a = sim
                .run_in_arena(&odo_config, &compiled, &mut arena)
                .unwrap();
            let b = sim
                .run_in_arena(&grammar_config, &compiled, &mut arena)
                .unwrap();
            assert_eq!(a, b, "config {i}: simulated metrics must be byte-identical");
        }
        mapped.push(codons);
    }

    // Injective: distinct odometer configurations stay distinct
    // derivations (no two odometer points fold onto one grammar point).
    mapped.sort_unstable();
    mapped.dedup();
    assert_eq!(
        mapped.len(),
        odometer.len(),
        "the odometer→grammar embedding must be injective"
    );
}

/// The two spaces must never share an identity: same canonical genome
/// shape or not, their ids differ, so a run over one can never be taken
/// for a run over the other. The grammar also keeps the
/// [`GenomeSpace::genome_at`] order contract over its whole space.
#[test]
fn covering_grammar_and_odometer_have_distinct_space_ids() {
    let hierarchy = dmx_memhier::presets::sp64k_dram4m();
    let odometer = convergence_space(&hierarchy);
    let grammar = GrammarSpace::covering(&odometer);
    assert_ne!(
        GenomeSpace::space_id(&odometer),
        GenomeSpace::space_id(&grammar)
    );
    assert!(
        GenomeSpace::len(&grammar) > odometer.len(),
        "the grammar derives strictly more structures than the odometer"
    );
    let genomes: Vec<Vec<usize>> = (0..GenomeSpace::len(&grammar))
        .map(|i| grammar.genome_at(i))
        .collect();
    assert!(
        genomes.windows(2).all(|w| w[0] < w[1])
            && genomes
                .iter()
                .all(|g| *g == grammar.canonicalize(g.clone())),
        "grammar genomes must be canonical and strictly increase with the index"
    );
}
