//! Byte-level parser for profile files.
//!
//! Built for throughput: a single pass over the input bytes, integer
//! parsing without `str::parse`'s error machinery, and the record label as
//! the only per-record allocation besides the vectors themselves. The
//! paper's tool parses gigabytes of profiling output in under 20 seconds;
//! `tab4_parse_speed` shows this parser clears that bar by a wide margin.

use std::error::Error;
use std::fmt;

use crate::record::{ProfileRecord, HEADER};

/// A parse failure, with the 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProfileParseError {
    /// The first line is not the expected `dmxprof v1` header.
    BadHeader,
    /// A record line is malformed.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        what: &'static str,
    },
}

impl fmt::Display for ProfileParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileParseError::BadHeader => f.write_str("missing or unsupported profile header"),
            ProfileParseError::Malformed { line, what } => {
                write!(f, "line {line}: {what}")
            }
        }
    }
}

impl Error for ProfileParseError {}

/// Parses a whole profile file.
///
/// # Errors
///
/// [`ProfileParseError::BadHeader`] if the header line is missing,
/// [`ProfileParseError::Malformed`] (with the line number) for a bad
/// record line. Blank lines and `#` comments are ignored.
pub fn parse_records(input: &str) -> Result<Vec<ProfileRecord>, ProfileParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let mut lineno = 0usize;

    // Header.
    let header_end = line_end(bytes, pos);
    lineno += 1;
    if &bytes[pos..header_end] != HEADER.as_bytes() {
        return Err(ProfileParseError::BadHeader);
    }
    pos = skip_newline(bytes, header_end);

    let mut records = Vec::new();
    while pos < bytes.len() {
        let end = line_end(bytes, pos);
        lineno += 1;
        let line = &bytes[pos..end];
        pos = skip_newline(bytes, end);
        if line.is_empty() || line[0] == b'#' {
            continue;
        }
        records.push(parse_line(line, lineno)?);
    }
    Ok(records)
}

fn line_end(bytes: &[u8], from: usize) -> usize {
    bytes[from..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(bytes.len(), |i| from + i)
}

fn skip_newline(bytes: &[u8], at: usize) -> usize {
    if at < bytes.len() && bytes[at] == b'\n' {
        at + 1
    } else {
        at
    }
}

struct Cursor<'a> {
    line: &'a [u8],
    pos: usize,
    lineno: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, what: &'static str) -> ProfileParseError {
        ProfileParseError::Malformed {
            line: self.lineno,
            what,
        }
    }

    /// Consumes bytes until (excluding) the next space; skips the space.
    fn token(&mut self) -> &'a [u8] {
        let start = self.pos;
        while self.pos < self.line.len() && self.line[self.pos] != b' ' {
            self.pos += 1;
        }
        let tok = &self.line[start..self.pos];
        if self.pos < self.line.len() {
            self.pos += 1; // the space
        }
        tok
    }

    fn done(&self) -> bool {
        self.pos >= self.line.len()
    }
}

/// Parses a decimal u64 from the whole byte slice.
fn parse_u64(bytes: &[u8]) -> Option<u64> {
    if bytes.is_empty() {
        return None;
    }
    let mut v: u64 = 0;
    for &b in bytes {
        if !b.is_ascii_digit() {
            return None;
        }
        v = v.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
    }
    Some(v)
}

fn expect_kv<'a>(tok: &'a [u8], key: &[u8]) -> Option<&'a [u8]> {
    let (k, v) = split_at_byte(tok, b'=')?;
    (k == key).then_some(v)
}

fn split_at_byte(bytes: &[u8], sep: u8) -> Option<(&[u8], &[u8])> {
    let i = bytes.iter().position(|&b| b == sep)?;
    Some((&bytes[..i], &bytes[i + 1..]))
}

fn parse_u64_list(bytes: &[u8]) -> Option<Vec<u64>> {
    if bytes == b"-" {
        return Some(Vec::new());
    }
    bytes.split(|&b| b == b',').map(parse_u64).collect()
}

fn parse_pair_list(bytes: &[u8]) -> Option<Vec<(u64, u64)>> {
    if bytes == b"-" {
        return Some(Vec::new());
    }
    bytes
        .split(|&b| b == b',')
        .map(|pair| {
            let (r, w) = split_at_byte(pair, b':')?;
            Some((parse_u64(r)?, parse_u64(w)?))
        })
        .collect()
}

fn parse_line(line: &[u8], lineno: usize) -> Result<ProfileRecord, ProfileParseError> {
    let mut c = Cursor {
        line,
        pos: 0,
        lineno,
    };

    let label = c.token();
    if label.is_empty() {
        return Err(c.err("empty label"));
    }
    let label = std::str::from_utf8(label)
        .map_err(|_| c.err("label is not UTF-8"))?
        .to_owned();

    let mut rec = ProfileRecord::new(label);
    let fields: [(&[u8], &'static str); 8] = [
        (b"al", "bad al field"),
        (b"fr", "bad fr field"),
        (b"fl", "bad fl field"),
        (b"fp", "bad fp field"),
        (b"fpl", "bad fpl field"),
        (b"en", "bad en field"),
        (b"cy", "bad cy field"),
        (b"ac", "bad ac field"),
    ];
    // al, fr, fl, fp
    for (key, msg) in &fields[..4] {
        let tok = c.token();
        let v = expect_kv(tok, key)
            .and_then(parse_u64)
            .ok_or_else(|| c.err(msg))?;
        match *key {
            b"al" => rec.allocs = v,
            b"fr" => rec.frees = v,
            b"fl" => rec.failures = v,
            _ => rec.footprint = v,
        }
    }
    // fpl
    let tok = c.token();
    rec.footprint_per_level = expect_kv(tok, b"fpl")
        .and_then(parse_u64_list)
        .ok_or_else(|| c.err("bad fpl field"))?;
    // en, cy
    let tok = c.token();
    rec.energy_pj = expect_kv(tok, b"en")
        .and_then(parse_u64)
        .ok_or_else(|| c.err("bad en field"))?;
    let tok = c.token();
    rec.cycles = expect_kv(tok, b"cy")
        .and_then(parse_u64)
        .ok_or_else(|| c.err("bad cy field"))?;
    // ac, me
    let tok = c.token();
    rec.accesses = expect_kv(tok, b"ac")
        .and_then(parse_pair_list)
        .ok_or_else(|| c.err("bad ac field"))?;
    let tok = c.token();
    rec.meta_accesses = expect_kv(tok, b"me")
        .and_then(parse_pair_list)
        .ok_or_else(|| c.err("bad me field"))?;

    if !c.done() {
        return Err(c.err("trailing fields"));
    }
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::records_to_string;

    fn sample(i: u64) -> ProfileRecord {
        let mut r = ProfileRecord::new(format!("cfg{i}"));
        r.allocs = i * 10;
        r.frees = i * 10;
        r.failures = i % 2;
        r.footprint = 1000 + i;
        r.footprint_per_level = vec![i, 1000];
        r.energy_pj = i * i;
        r.cycles = i * 7;
        r.accesses = vec![(i, i + 1), (i + 2, i + 3)];
        r.meta_accesses = vec![(i / 2, i / 3), (0, 0)];
        r
    }

    #[test]
    fn roundtrip_many() {
        let recs: Vec<ProfileRecord> = (0..200).map(sample).collect();
        let text = records_to_string(&recs);
        let back = parse_records(&text).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn header_is_required() {
        assert_eq!(parse_records(""), Err(ProfileParseError::BadHeader));
        assert_eq!(parse_records("nope\n"), Err(ProfileParseError::BadHeader));
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = format!("{HEADER}\n# comment\n\n{}\n", sample(1).to_line());
        assert_eq!(parse_records(&text).unwrap().len(), 1);
    }

    #[test]
    fn malformed_reports_line_number() {
        let text = format!("{HEADER}\n{}\nbroken line here\n", sample(1).to_line());
        let err = parse_records(&text).unwrap_err();
        assert_eq!(
            err,
            ProfileParseError::Malformed {
                line: 3,
                what: "bad al field"
            }
        );
    }

    #[test]
    fn numeric_overflow_is_rejected() {
        let text = format!(
            "{HEADER}\nx al=99999999999999999999999 fr=0 fl=0 fp=0 fpl=- en=0 cy=0 ac=- me=-\n"
        );
        assert!(matches!(
            parse_records(&text),
            Err(ProfileParseError::Malformed { .. })
        ));
    }

    #[test]
    fn missing_newline_at_eof_is_fine() {
        let text = format!("{HEADER}\n{}", sample(3).to_line());
        assert_eq!(parse_records(&text).unwrap().len(), 1);
    }

    #[test]
    fn trailing_fields_rejected() {
        let text = format!("{HEADER}\n{} extra=1\n", sample(1).to_line());
        assert!(matches!(
            parse_records(&text),
            Err(ProfileParseError::Malformed {
                what: "trailing fields",
                ..
            })
        ));
    }

    #[test]
    fn parse_u64_edge_cases() {
        assert_eq!(parse_u64(b"0"), Some(0));
        assert_eq!(parse_u64(b"18446744073709551615"), Some(u64::MAX));
        assert_eq!(parse_u64(b"18446744073709551616"), None);
        assert_eq!(parse_u64(b""), None);
        assert_eq!(parse_u64(b"12a"), None);
    }
}
