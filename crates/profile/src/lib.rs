//! # dmx-profile — profiling records and a fast parser
//!
//! The paper's tool chain writes one profiling record per simulated
//! allocator configuration and parses the accumulated results ("which can
//! reach Gigabytes for one single configuration") in under 20 seconds
//! before Pareto filtering. This crate is that pipeline stage:
//!
//! * [`ProfileRecord`] — one configuration's measured metrics;
//! * [`records_to_string`] — the line-oriented record format;
//! * [`parse_records`] — a hand-rolled byte-level parser (no regex, no
//!   per-field allocation beyond the label) built to sustain hundreds of
//!   MB/s — benchmarked in `tab4_parse_speed`.
//!
//! Filtering and ranking the parsed records is the caller's job: the
//! `dmx pareto` and `dmx report` commands keep the feasible records and
//! take their ranges inline.
//!
//! **Paper mapping:** the §2 profiling step; the parse-throughput claim
//! ("under 20 seconds") is reproduced by the `tab4_parse_speed` bench.
//!
//! # Example
//!
//! ```
//! use dmx_profile::{parse_records, records_to_string, ProfileRecord};
//!
//! let mut rec = ProfileRecord::new("fix74@L0+gen(ff,lifo,co-no,sp-no,a8)@L1");
//! rec.footprint = 81920;
//! rec.energy_pj = 123_456;
//! rec.accesses = vec![(1000, 500), (200, 100)];
//! let text = records_to_string(&[rec.clone()]);
//! let back = parse_records(&text)?;
//! assert_eq!(back, vec![rec]);
//! # Ok::<(), dmx_profile::ProfileParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod parser;
mod record;

pub use parser::{parse_records, ProfileParseError};
pub use record::{records_to_string, ProfileRecord, HEADER};
