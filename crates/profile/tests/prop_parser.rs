//! Property tests for the profile record format: arbitrary records
//! round-trip, and arbitrary *garbage* never panics the parser.

use proptest::prelude::*;

use dmx_profile::{parse_records, records_to_string, ProfileRecord};

fn arb_label() -> impl Strategy<Value = String> {
    // Labels are whitespace-free, non-empty; mimic real config labels.
    "[a-z0-9@+(),.=-]{1,64}"
}

fn arb_record() -> impl Strategy<Value = ProfileRecord> {
    (
        arb_label(),
        any::<u64>(),
        any::<u64>(),
        0u64..10,
        any::<u64>(),
        prop::collection::vec(any::<u64>(), 0..4),
        any::<u64>(),
        any::<u64>(),
        prop::collection::vec((any::<u64>(), any::<u64>()), 0..4),
        prop::collection::vec((any::<u64>(), any::<u64>()), 0..4),
    )
        .prop_map(
            |(label, allocs, frees, failures, footprint, fpl, energy, cycles, ac, me)| {
                let mut r = ProfileRecord::new(label);
                r.allocs = allocs;
                r.frees = frees;
                r.failures = failures;
                r.footprint = footprint;
                r.footprint_per_level = fpl;
                r.energy_pj = energy;
                r.cycles = cycles;
                r.accesses = ac;
                r.meta_accesses = me;
                r
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Any batch of records survives serialize → parse unchanged.
    #[test]
    fn roundtrip_arbitrary_records(records in prop::collection::vec(arb_record(), 0..20)) {
        let text = records_to_string(&records);
        let back = parse_records(&text).expect("own output parses");
        prop_assert_eq!(back, records);
    }

    /// The parser never panics on arbitrary input — it returns errors.
    #[test]
    fn garbage_never_panics(input in "\\PC{0,300}") {
        let _ = parse_records(&input);
    }

    /// Garbage appended to a valid file is rejected, not silently eaten.
    #[test]
    fn trailing_garbage_is_an_error(records in prop::collection::vec(arb_record(), 1..4)) {
        let mut text = records_to_string(&records);
        text.push_str("!!! definitely not a record\n");
        prop_assert!(parse_records(&text).is_err());
    }

    /// Truncating a valid file mid-line is rejected, not misparsed.
    #[test]
    fn truncation_is_an_error(records in prop::collection::vec(arb_record(), 1..4)) {
        let text = records_to_string(&records);
        // Cut inside the last line (drop its trailing newline and 3 bytes).
        let cut = text.trim_end().len().saturating_sub(3);
        // Only meaningful if the cut lands inside a record body.
        if cut > dmx_profile::HEADER.len() + 1 {
            let result = parse_records(&text[..cut]);
            // Either a parse error, or — if the cut happens to produce a
            // shorter-but-valid number — the values must differ from the
            // originals' serialization. It must never panic.
            if let Ok(parsed) = result {
                prop_assert_ne!(records_to_string(&parsed), text);
            }
        }
    }
}
