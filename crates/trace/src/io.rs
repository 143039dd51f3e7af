//! Trace serialisation: JSON (interoperable) and a compact binary format
//! (what you would actually store for 100M-instruction traces).
//!
//! The binary format is deliberately simple and versioned:
//!
//! ```text
//! magic   4 bytes  b"UOPT"
//! version u32 LE   1
//! count   u64 LE   number of accesses
//! then per access:
//!   start  u64 LE
//!   uops   u32 LE
//!   bytes  u32 LE
//!   flags  u8      bit0 = mispredicted, bit1 = line-boundary termination
//! ```

use std::fmt;
use std::io::{Read, Write};
use uopcache_model::json;
use uopcache_model::{Addr, LookupTrace, PwAccess, PwDesc, PwTermination};

const MAGIC: &[u8; 4] = b"UOPT";
const VERSION: u32 = 1;

/// Errors arising while reading or writing trace files.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The stream does not start with the `UOPT` magic.
    BadMagic([u8; 4]),
    /// The format version is not supported by this build.
    UnsupportedVersion(u32),
    /// The stream ended before `count` records were read, or a record is
    /// malformed.
    Truncated,
    /// A record violates a model invariant: zero or too many micro-ops or
    /// bytes, or a window running past the end of the address space (see
    /// [`PwDesc::try_new`]).
    InvalidRecord(String),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "i/o error: {e}"),
            TraceIoError::BadMagic(m) => write!(f, "bad magic {m:?}, expected \"UOPT\""),
            TraceIoError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceIoError::Truncated => f.write_str("trace stream ended early"),
            TraceIoError::InvalidRecord(why) => write!(f, "invalid trace record: {why}"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Writes `trace` in the binary format. A `&mut` reference works as a
/// writer too.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_binary<W: Write>(mut w: W, trace: &LookupTrace) -> Result<(), TraceIoError> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(trace.len() as u64).to_le_bytes())?;
    for a in trace.iter() {
        w.write_all(&a.pw.start.get().to_le_bytes())?;
        w.write_all(&a.pw.uops.to_le_bytes())?;
        w.write_all(&a.pw.bytes.to_le_bytes())?;
        let mut flags = 0u8;
        if a.mispredicted {
            flags |= 1;
        }
        if a.pw.term == PwTermination::LineBoundary {
            flags |= 2;
        }
        w.write_all(&[flags])?;
    }
    Ok(())
}

/// Reads a binary trace.
///
/// # Errors
///
/// Returns [`TraceIoError`] on malformed input, version mismatch or I/O
/// failure.
pub fn read_binary<R: Read>(mut r: R) -> Result<LookupTrace, TraceIoError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)
        .map_err(|_| TraceIoError::Truncated)?;
    if &magic != MAGIC {
        return Err(TraceIoError::BadMagic(magic));
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(TraceIoError::UnsupportedVersion(version));
    }
    let count = read_u64(&mut r)?;
    let mut trace = LookupTrace::with_capacity(count.min(1 << 24) as usize);
    for _ in 0..count {
        let start = read_u64(&mut r)?;
        let uops = read_u32(&mut r)?;
        let bytes = read_u32(&mut r)?;
        let mut flags = [0u8; 1];
        r.read_exact(&mut flags)
            .map_err(|_| TraceIoError::Truncated)?;
        let term = if flags[0] & 2 != 0 {
            PwTermination::LineBoundary
        } else {
            PwTermination::TakenBranch
        };
        trace.push(PwAccess {
            pw: PwDesc::try_new(Addr::new(start), uops, bytes, term)
                .map_err(TraceIoError::InvalidRecord)?,
            mispredicted: flags[0] & 1 != 0,
        });
    }
    Ok(trace)
}

/// Saves a trace to a file, choosing the format by extension: `.json` writes
/// JSON, anything else the binary format.
///
/// # Errors
///
/// Returns [`TraceIoError`] on I/O failure.
pub fn save(path: &std::path::Path, trace: &LookupTrace) -> Result<(), TraceIoError> {
    let file = std::fs::File::create(path)?;
    let mut buf = std::io::BufWriter::new(file);
    if path.extension().is_some_and(|e| e == "json") {
        use std::io::Write as _;
        buf.write_all(json::to_string(trace).as_bytes())?;
        Ok(())
    } else {
        write_binary(&mut buf, trace)
    }
}

/// Loads a trace saved by [`save`] (format chosen by extension).
///
/// # Errors
///
/// Returns [`TraceIoError`] on malformed input or I/O failure.
pub fn load(path: &std::path::Path) -> Result<LookupTrace, TraceIoError> {
    let file = std::fs::File::open(path)?;
    let mut buf = std::io::BufReader::new(file);
    if path.extension().is_some_and(|e| e == "json") {
        let mut text = String::new();
        std::io::Read::read_to_string(&mut buf, &mut text)?;
        json::from_str(&text).map_err(|e| TraceIoError::InvalidRecord(e.to_string()))
    } else {
        read_binary(&mut buf)
    }
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, TraceIoError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b).map_err(|_| TraceIoError::Truncated)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, TraceIoError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b).map_err(|_| TraceIoError::Truncated)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::build_trace;
    use crate::workload::{AppId, InputVariant};

    #[test]
    fn binary_round_trip() {
        let trace = build_trace(AppId::Kafka, InputVariant(0), 5_000);
        let mut bytes = Vec::new();
        write_binary(&mut bytes, &trace).unwrap();
        let back = read_binary(bytes.as_slice()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn binary_is_much_smaller_than_json() {
        let trace = build_trace(AppId::Mysql, InputVariant(0), 2_000);
        let mut bytes = Vec::new();
        write_binary(&mut bytes, &trace).unwrap();
        let json = json::to_string(&trace);
        assert!(
            bytes.len() * 2 < json.len(),
            "{} vs {}",
            bytes.len(),
            json.len()
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_binary(&b"NOPE\x01\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, TraceIoError::BadMagic(_)), "{err}");
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"UOPT");
        bytes.extend_from_slice(&9u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        let err = read_binary(bytes.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::UnsupportedVersion(9)), "{err}");
    }

    #[test]
    fn truncation_detected() {
        let trace = build_trace(AppId::Kafka, InputVariant(0), 10);
        let mut bytes = Vec::new();
        write_binary(&mut bytes, &trace).unwrap();
        bytes.truncate(bytes.len() - 3);
        let err = read_binary(bytes.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::Truncated), "{err}");
    }

    #[test]
    fn zero_uop_record_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"UOPT");
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&0x40u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes()); // uops = 0
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.push(0);
        let err = read_binary(bytes.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::InvalidRecord(_)), "{err}");
    }

    #[test]
    fn file_round_trip_both_formats() {
        let dir = std::env::temp_dir();
        let trace = build_trace(AppId::Python, InputVariant(1), 1_000);
        for name in ["uopcache_io_test.json", "uopcache_io_test.bin"] {
            let path = dir.join(name);
            save(&path, &trace).unwrap();
            let back = load(&path).unwrap();
            assert_eq!(back, trace, "{name}");
            let _ = std::fs::remove_file(&path);
        }
    }

    /// Property: for seeded generator output across every app, several
    /// variants and lengths (including the empty trace), write→read is the
    /// identity on the PW stream, and re-serialising the read-back trace
    /// reproduces the original bytes exactly.
    #[test]
    fn binary_round_trip_property_over_seeded_generator() {
        for app in AppId::ALL {
            for variant in [0u32, 1, 7] {
                for len in [0usize, 1, 257, 3_000] {
                    let trace = build_trace(app, InputVariant(variant), len);
                    let mut bytes = Vec::new();
                    write_binary(&mut bytes, &trace).unwrap();
                    let back = read_binary(bytes.as_slice()).unwrap();
                    assert_eq!(
                        back, trace,
                        "write→read must be identity for {app} v{variant} len{len}"
                    );
                    let mut again = Vec::new();
                    write_binary(&mut again, &back).unwrap();
                    assert_eq!(
                        again, bytes,
                        "re-serialisation must be byte-identical for {app} v{variant} len{len}"
                    );
                }
            }
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = TraceIoError::UnsupportedVersion(3);
        assert!(e.to_string().contains('3'));
        let e = TraceIoError::Truncated;
        assert!(!e.to_string().is_empty());
    }
}
