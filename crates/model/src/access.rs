//! Prediction-window lookup traces: the input consumed by the simulator and
//! by the offline (oracle) replacement policies.

use crate::hash::FastHashMap;
use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::json_struct;
use crate::pw::PwDesc;
use crate::Addr;

/// One micro-op cache lookup: a prediction window requested by the frontend.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct PwAccess {
    /// The requested window.
    pub pw: PwDesc,
    /// Whether the branch predictor mispredicted the branch that *produced*
    /// this window (the simulator charges the flush penalty and the offline
    /// policies can ignore it).
    pub mispredicted: bool,
}

impl PwAccess {
    /// Creates a correctly-predicted access.
    pub fn new(pw: PwDesc) -> Self {
        PwAccess {
            pw,
            mispredicted: false,
        }
    }
}

/// An ordered sequence of micro-op cache lookups.
///
/// This is the paper's "PW lookup sequence" (STEP 2 of the FURBYS pipeline):
/// the access stream observed with a zero-size micro-op cache, i.e. independent
/// of replacement decisions.
///
/// # Examples
///
/// ```
/// use uopcache_model::{Addr, LookupTrace, PwAccess, PwDesc, PwTermination};
///
/// let mut trace = LookupTrace::new();
/// trace.push(PwAccess::new(PwDesc::new(Addr::new(0x10), 4, 12, PwTermination::TakenBranch)));
/// trace.push(PwAccess::new(PwDesc::new(Addr::new(0x40), 8, 20, PwTermination::LineBoundary)));
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.total_uops(), 12);
/// assert_eq!(trace.unique_starts(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LookupTrace {
    accesses: Vec<PwAccess>,
}

impl LookupTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        LookupTrace {
            accesses: Vec::new(),
        }
    }

    /// Creates a trace with pre-allocated capacity.
    pub fn with_capacity(n: usize) -> Self {
        LookupTrace {
            accesses: Vec::with_capacity(n),
        }
    }

    /// Appends an access.
    pub fn push(&mut self, access: PwAccess) {
        self.accesses.push(access);
    }

    /// Appends a run of accesses (one copy, no per-access iteration).
    pub fn extend_from_slice(&mut self, accesses: &[PwAccess]) {
        self.accesses.extend_from_slice(accesses);
    }

    /// Number of lookups.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// The accesses as a slice.
    pub fn accesses(&self) -> &[PwAccess] {
        &self.accesses
    }

    /// Iterates over the accesses in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, PwAccess> {
        self.accesses.iter()
    }

    /// Total micro-ops requested across all lookups.
    pub fn total_uops(&self) -> u64 {
        self.accesses.iter().map(|a| u64::from(a.pw.uops)).sum()
    }

    /// Number of distinct PW start addresses (the static footprint in PWs).
    pub fn unique_starts(&self) -> usize {
        let mut seen: FastHashMap<Addr, ()> = FastHashMap::default();
        for a in &self.accesses {
            seen.insert(a.pw.start, ());
        }
        seen.len()
    }

    /// Static footprint in micro-op cache entries: for every start address,
    /// the largest window observed, measured in entries.
    pub fn footprint_entries(&self, uops_per_entry: u32) -> u64 {
        let mut max_uops: FastHashMap<Addr, u32> = FastHashMap::default();
        for a in &self.accesses {
            let e = max_uops.entry(a.pw.start).or_insert(0);
            *e = (*e).max(a.pw.uops);
        }
        max_uops
            .values()
            .map(|&u| u64::from(u.div_ceil(uops_per_entry)))
            .sum()
    }

    /// Per-start-address access counts, for hotness classification (Fig. 22).
    pub fn access_counts(&self) -> FastHashMap<Addr, u64> {
        let mut counts = FastHashMap::default();
        for a in &self.accesses {
            *counts.entry(a.pw.start).or_insert(0) += 1;
        }
        counts
    }

    /// A sub-trace covering `range` (used by the windowed offline solvers).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> LookupTrace {
        LookupTrace {
            accesses: self.accesses[range].to_vec(),
        }
    }
}

impl AsRef<[PwAccess]> for LookupTrace {
    fn as_ref(&self) -> &[PwAccess] {
        &self.accesses
    }
}

impl FromIterator<PwAccess> for LookupTrace {
    fn from_iter<T: IntoIterator<Item = PwAccess>>(iter: T) -> Self {
        LookupTrace {
            accesses: iter.into_iter().collect(),
        }
    }
}

impl Extend<PwAccess> for LookupTrace {
    fn extend<T: IntoIterator<Item = PwAccess>>(&mut self, iter: T) {
        self.accesses.extend(iter);
    }
}

impl<'a> IntoIterator for &'a LookupTrace {
    type Item = &'a PwAccess;
    type IntoIter = std::slice::Iter<'a, PwAccess>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.iter()
    }
}

impl IntoIterator for LookupTrace {
    type Item = PwAccess;
    type IntoIter = std::vec::IntoIter<PwAccess>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.into_iter()
    }
}

json_struct!(PwAccess { pw, mispredicted });

impl ToJson for LookupTrace {
    /// Serialises transparently as the array of accesses.
    fn to_json(&self) -> Json {
        self.accesses.to_json()
    }
}

impl FromJson for LookupTrace {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Vec::<PwAccess>::from_json(j).map(|accesses| LookupTrace { accesses })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pw::PwTermination;

    fn acc(start: u64, uops: u32) -> PwAccess {
        PwAccess::new(PwDesc::new(
            Addr::new(start),
            uops,
            uops * 3,
            PwTermination::TakenBranch,
        ))
    }

    #[test]
    fn collect_and_iterate() {
        let trace: LookupTrace = [acc(0, 2), acc(64, 3)].into_iter().collect();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.iter().count(), 2);
        let owned: Vec<_> = trace.clone().into_iter().collect();
        assert_eq!(owned.len(), 2);
        let borrowed: Vec<_> = (&trace).into_iter().collect();
        assert_eq!(borrowed.len(), 2);
    }

    #[test]
    fn totals_and_footprint() {
        // Same start address twice with different lengths: footprint counts
        // the larger window only.
        let trace: LookupTrace = [acc(0, 2), acc(0, 10), acc(64, 8)].into_iter().collect();
        assert_eq!(trace.total_uops(), 20);
        assert_eq!(trace.unique_starts(), 2);
        assert_eq!(trace.footprint_entries(8), 2 + 1);
    }

    #[test]
    fn access_counts_group_by_start() {
        let trace: LookupTrace = [acc(0, 2), acc(0, 4), acc(64, 8)].into_iter().collect();
        let counts = trace.access_counts();
        assert_eq!(counts[&Addr::new(0)], 2);
        assert_eq!(counts[&Addr::new(64)], 1);
    }

    #[test]
    fn slice_extracts_window() {
        let trace: LookupTrace = (0..10).map(|i| acc(i * 64, 1)).collect();
        let sub = trace.slice(3..6);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.accesses()[0].pw.start, Addr::new(3 * 64));
    }

    #[test]
    fn extend_appends() {
        let mut trace = LookupTrace::with_capacity(4);
        trace.extend([acc(0, 1), acc(64, 1)]);
        assert_eq!(trace.len(), 2);
        assert!(!trace.is_empty());
    }
}
