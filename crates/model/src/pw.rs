//! Prediction windows: the unit of micro-op cache lookup and insertion.

use crate::addr::{Addr, LineAddr};
use crate::json::{FromJson, Json, JsonError, ToJson};
use std::fmt;

/// Why a prediction window ended.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub enum PwTermination {
    /// The PW ends at a predicted-taken branch (including calls, returns and
    /// unconditional jumps).
    TakenBranch,
    /// The PW ends at an instruction-cache line boundary.
    LineBoundary,
}

impl fmt::Display for PwTermination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PwTermination::TakenBranch => f.write_str("taken-branch"),
            PwTermination::LineBoundary => f.write_str("line-boundary"),
        }
    }
}

/// Descriptor of a prediction window: what the frontend looks up in, and the
/// decoder inserts into, the micro-op cache.
///
/// A PW is identified by its *start address*. Two PWs with the same start
/// address but different micro-op counts are *overlapping* windows: the longer
/// one runs through a sometimes-taken branch that terminates the shorter one.
/// The micro-op cache can serve the shorter window from the longer one
/// (a *partial hit* in the paper's terminology, §II-D).
///
/// # Examples
///
/// ```
/// use uopcache_model::{Addr, PwDesc, PwTermination};
///
/// let long = PwDesc::new(Addr::new(0x100), 12, 30, PwTermination::TakenBranch);
/// let short = PwDesc::new(Addr::new(0x100), 5, 12, PwTermination::TakenBranch);
/// assert!(long.covers(&short));
/// assert!(!short.covers(&long));
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub struct PwDesc {
    /// First instruction address of the window (the lookup key).
    pub start: Addr,
    /// Number of micro-ops in the window — the PW's **cost**.
    pub uops: u32,
    /// Number of x86 instruction bytes the window spans (used for the L1i
    /// inclusion relationship).
    pub bytes: u32,
    /// Why the window terminated.
    pub term: PwTermination,
}

/// Upper bound on [`PwDesc::bytes`] accepted from untrusted input. A window
/// ends at the first i-cache line boundary it crosses, so it spans at most
/// one 64-byte line plus the overhang of its last instruction (x86
/// instructions are at most 15 bytes long): 79 bytes, rounded up to two lines.
pub const MAX_PW_BYTES: u32 = 128;

/// Upper bound on [`PwDesc::uops`] accepted from untrusted input: the
/// generator emits at most 4 micro-ops per instruction and every instruction
/// spans at least one byte.
pub const MAX_PW_UOPS: u32 = 4 * MAX_PW_BYTES;

impl PwDesc {
    /// Creates a descriptor from untrusted fields (a trace record), checking
    /// every invariant the simulator relies on.
    ///
    /// # Errors
    ///
    /// Rejects zero `uops` or `bytes`, `uops` above [`MAX_PW_UOPS`], `bytes`
    /// above [`MAX_PW_BYTES`], and a window whose end `start + bytes` does
    /// not fit in the address space.
    pub fn try_new(
        start: Addr,
        uops: u32,
        bytes: u32,
        term: PwTermination,
    ) -> Result<Self, String> {
        let at = start.get();
        if !(1..=MAX_PW_UOPS).contains(&uops) {
            return Err(format!(
                "window at {at:#x} has {uops} micro-ops (expected 1..={MAX_PW_UOPS})"
            ));
        }
        if !(1..=MAX_PW_BYTES).contains(&bytes) {
            return Err(format!(
                "window at {at:#x} spans {bytes} bytes (expected 1..={MAX_PW_BYTES})"
            ));
        }
        if at.checked_add(u64::from(bytes)).is_none() {
            return Err(format!(
                "window at {at:#x} + {bytes} bytes runs past the end of the address space"
            ));
        }
        Ok(PwDesc {
            start,
            uops,
            bytes,
            term,
        })
    }

    /// Creates a new descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `uops` or `bytes` is zero — an empty prediction window cannot
    /// exist.
    pub fn new(start: Addr, uops: u32, bytes: u32, term: PwTermination) -> Self {
        assert!(
            uops > 0,
            "a prediction window contains at least one micro-op"
        );
        assert!(bytes > 0, "a prediction window spans at least one byte");
        PwDesc {
            start,
            uops,
            bytes,
            term,
        }
    }

    /// The PW's **cost**: the number of micro-ops it supplies, i.e. the number
    /// of decode slots saved when it hits (paper §II-C).
    pub const fn cost(&self) -> u32 {
        self.uops
    }

    /// The PW's **size**: the number of micro-op cache entries it occupies
    /// given `uops_per_entry` micro-op slots per entry.
    ///
    /// # Panics
    ///
    /// Panics if `uops_per_entry` is zero.
    pub fn entries(&self, uops_per_entry: u32) -> u32 {
        assert!(
            uops_per_entry > 0,
            "entries must hold at least one micro-op"
        );
        self.uops.div_ceil(uops_per_entry)
    }

    /// The address one past the last byte of the window.
    pub fn end(&self) -> Addr {
        self.start.offset(u64::from(self.bytes))
    }

    /// Whether this window fully covers `other`: same start address and at
    /// least as many micro-ops. A stored PW that covers a lookup serves it via
    /// an intermediate exit point (full hit).
    pub fn covers(&self, other: &PwDesc) -> bool {
        self.start == other.start && self.uops >= other.uops
    }

    /// The i-cache lines `[start, start + bytes)` touches, for inclusion
    /// tracking.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    pub fn lines(&self, line_bytes: u64) -> impl Iterator<Item = LineAddr> + '_ {
        let first = self.start.line(line_bytes);
        let last = Addr::new(self.end().get() - 1).line(line_bytes);
        let step = line_bytes;
        (first.base().get()..=last.base().get())
            .step_by(usize::try_from(step).expect("line size fits in usize"))
            .map(move |b| Addr::new(b).line(step))
    }
}

impl fmt::Display for PwDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PW[{} +{}B, {} uops, {}]",
            self.start, self.bytes, self.uops, self.term
        )
    }
}

impl ToJson for PwTermination {
    /// Serialises as the display string (`"taken-branch"` / `"line-boundary"`).
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for PwTermination {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j.as_str() {
            Some("taken-branch") => Ok(PwTermination::TakenBranch),
            Some("line-boundary") => Ok(PwTermination::LineBoundary),
            _ => Err(JsonError(format!(
                "expected PW termination string, got {j:?}"
            ))),
        }
    }
}

impl ToJson for PwDesc {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("start".to_string(), self.start.to_json()),
            ("uops".to_string(), self.uops.to_json()),
            ("bytes".to_string(), self.bytes.to_json()),
            ("term".to_string(), self.term.to_json()),
        ])
    }
}

impl FromJson for PwDesc {
    /// Parses through [`PwDesc::try_new`], so a window read from a JSON trace
    /// obeys the same invariants as one read from a binary trace.
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        PwDesc::try_new(
            FromJson::from_json(j.field("start")?)?,
            FromJson::from_json(j.field("uops")?)?,
            FromJson::from_json(j.field("bytes")?)?,
            FromJson::from_json(j.field("term")?)?,
        )
        .map_err(JsonError)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pw(start: u64, uops: u32, bytes: u32) -> PwDesc {
        PwDesc::new(Addr::new(start), uops, bytes, PwTermination::TakenBranch)
    }

    #[test]
    fn entries_round_up() {
        assert_eq!(pw(0, 1, 4).entries(8), 1);
        assert_eq!(pw(0, 8, 4).entries(8), 1);
        assert_eq!(pw(0, 9, 4).entries(8), 2);
        assert_eq!(pw(0, 16, 4).entries(8), 2);
        assert_eq!(pw(0, 17, 4).entries(8), 3);
    }

    #[test]
    fn cost_is_uop_count() {
        assert_eq!(pw(0, 5, 12).cost(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one micro-op")]
    fn zero_uops_rejected() {
        let _ = pw(0, 0, 4);
    }

    #[test]
    fn try_new_rejects_what_the_simulator_cannot_hold() {
        let ok = |start: u64, uops: u32, bytes: u32| {
            PwDesc::try_new(Addr::new(start), uops, bytes, PwTermination::TakenBranch)
        };
        assert_eq!(ok(0x40, 4, 12), Ok(pw(0x40, 4, 12)));
        assert!(ok(0x40, MAX_PW_UOPS, MAX_PW_BYTES).is_ok());
        assert!(ok(u64::MAX - 8, 1, 8).is_ok(), "ends exactly at u64::MAX");
        for (start, uops, bytes) in [
            (0x40, 0, 4),
            (0x40, 4, 0),
            (0x40, 0, 0),
            (0x40, MAX_PW_UOPS + 1, 4),
            (0x40, 4, MAX_PW_BYTES + 1),
            (0x40, u32::MAX, u32::MAX),
            (u64::MAX - 7, 1, 8),
            (u64::MAX, 1, 1),
        ] {
            assert!(ok(start, uops, bytes).is_err(), "{start:#x} {uops} {bytes}");
        }
    }

    #[test]
    fn json_round_trips_and_rejects_invalid_windows() {
        let w = pw(0x100, 3, 9);
        let text = crate::json::to_string(&w);
        assert_eq!(
            text,
            r#"{"start":256,"uops":3,"bytes":9,"term":"taken-branch"}"#
        );
        assert_eq!(crate::json::from_str::<PwDesc>(&text), Ok(w));
        let empty = r#"{"start":256,"uops":0,"bytes":0,"term":"taken-branch"}"#;
        assert!(crate::json::from_str::<PwDesc>(empty).is_err());
    }

    #[test]
    fn covers_requires_same_start_and_geq_uops() {
        assert!(pw(0x10, 6, 20).covers(&pw(0x10, 6, 20)));
        assert!(pw(0x10, 7, 20).covers(&pw(0x10, 6, 12)));
        assert!(!pw(0x10, 5, 20).covers(&pw(0x10, 6, 12)));
        assert!(!pw(0x20, 9, 20).covers(&pw(0x10, 6, 12)));
    }

    #[test]
    fn lines_span_the_window() {
        // 0x3e..0x3e+10 crosses the 0x40 line boundary.
        let w = pw(0x3e, 4, 10);
        let lines: Vec<_> = w.lines(64).map(|l| l.base().get()).collect();
        assert_eq!(lines, vec![0x00, 0x40]);
        // Fully inside one line.
        let w = pw(0x42, 4, 10);
        let lines: Vec<_> = w.lines(64).map(|l| l.base().get()).collect();
        assert_eq!(lines, vec![0x40]);
    }

    #[test]
    fn end_is_exclusive() {
        assert_eq!(pw(0x100, 3, 9).end(), Addr::new(0x109));
    }

    #[test]
    fn display_mentions_fields() {
        let s = pw(0x100, 3, 9).to_string();
        assert!(s.contains("0x100") && s.contains("3 uops"), "{s}");
    }
}
