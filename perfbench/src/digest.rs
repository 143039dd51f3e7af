//! Output digests and the committed expectations (`expected.json`) that
//! every run is checked against.
//!
//! A workload's seed selects one of [`VARIANTS`] input classes, and the
//! expectation file holds, per workload and class, the FNV-1a digest of the
//! canonical output bytes and the structural counts of the traced run.
//! Regenerate it with `--record` after a change that is meant to alter
//! simulation results.

use uopcache_model::json::Json;

/// Number of input classes a seed maps onto (`seed % VARIANTS`).
pub const VARIANTS: u64 = 4;

/// The committed expectations, compiled in.
const COMMITTED: &str = include_str!("../expected.json");

/// Where `--record` writes the expectations.
pub const EXPECTED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");

/// 64-bit FNV-1a of `bytes`, as 16 lower-case hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Counts that are pure functions of the inputs and must repeat exactly in
/// every traced run, by name, in the order their producer lists them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Structural(pub Vec<(String, u64)>);

impl Structural {
    /// Appends the count `name`.
    pub fn push(&mut self, name: &str, value: u64) {
        self.0.push((name.to_string(), value));
    }

    fn get(&self, name: &str) -> Option<u64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    fn render(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), Json::U64(*v)))
                .collect(),
        )
    }

    fn parse(j: &Json) -> Option<Structural> {
        let Json::Obj(fields) = j else {
            return None;
        };
        fields
            .iter()
            .map(|(k, v)| Some((k.clone(), v.as_u64()?)))
            .collect::<Option<Vec<_>>>()
            .map(Structural)
    }

    /// `name=left≠right` for every count that differs or is on one side
    /// only.
    pub fn diff(&self, other: &Structural) -> Vec<String> {
        let mut names: Vec<&str> = self.0.iter().map(|(n, _)| n.as_str()).collect();
        for (n, _) in &other.0 {
            if !names.contains(&n.as_str()) {
                names.push(n);
            }
        }
        let show = |v: Option<u64>| v.map_or_else(|| "absent".to_string(), |v| v.to_string());
        names
            .into_iter()
            .filter_map(|k| {
                let (a, b) = (self.get(k), other.get(k));
                (a != b).then(|| format!("{k}={}≠{}", show(a), show(b)))
            })
            .collect()
    }
}

/// One expectation: a workload's input class, output digest and structural
/// counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entry {
    /// Workload name.
    pub workload: String,
    /// Input class (`seed % VARIANTS`).
    pub class: u64,
    /// Digest of the canonical output bytes.
    pub digest: String,
    /// Structural counts of the traced run.
    pub structural: Structural,
}

/// The set of committed expectations.
#[derive(Clone, Debug, Default)]
pub struct Expected {
    entries: Vec<Entry>,
}

impl Expected {
    /// The expectations compiled into this binary (empty if the file does
    /// not parse, so every run then fails its output check).
    pub fn committed() -> Expected {
        Expected::parse(COMMITTED).unwrap_or_default()
    }

    /// Parses the expectation file format.
    pub fn parse(text: &str) -> Option<Expected> {
        let j = Json::parse(text).ok()?;
        let Json::Obj(workloads) = j.field("workloads").ok()? else {
            return None;
        };
        let mut entries = Vec::new();
        for (name, list) in workloads {
            for e in list.as_arr()? {
                entries.push(Entry {
                    workload: name.clone(),
                    class: e.field("class").ok()?.as_u64()?,
                    digest: e.field("digest").ok()?.as_str()?.to_string(),
                    structural: Structural::parse(e.field("structural").ok()?)?,
                });
            }
        }
        Some(Expected { entries })
    }

    /// The expectation for `workload` on input class `class`.
    pub fn get(&self, workload: &str, class: u64) -> Option<&Entry> {
        self.entries
            .iter()
            .find(|e| e.workload == workload && e.class == class)
    }

    /// Renders entries (grouped by workload, in the given order) as the
    /// expectation file, one entry per line so that a re-recording diffs
    /// readably.
    pub fn render(entries: &[Entry]) -> String {
        let mut groups: Vec<(&str, Vec<String>)> = Vec::new();
        for e in entries {
            let item = Json::Obj(vec![
                ("class".to_string(), Json::U64(e.class)),
                ("digest".to_string(), Json::Str(e.digest.clone())),
                ("structural".to_string(), e.structural.render()),
            ])
            .to_string();
            match groups.iter_mut().find(|(name, _)| *name == e.workload) {
                Some((_, items)) => items.push(item),
                None => groups.push((&e.workload, vec![item])),
            }
        }
        let groups: Vec<String> = groups
            .iter()
            .map(|(name, items)| {
                format!(
                    "{}: [\n    {}\n  ]",
                    Json::Str((*name).to_string()),
                    items.join(",\n    ")
                )
            })
            .collect();
        format!(
            "{{\"schema_version\": 1, \"variants\": {VARIANTS}, \"workloads\": {{\n  {}\n}}}}\n",
            groups.join(",\n  ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn committed_expectations_are_in_canonical_form() {
        let committed = Expected::committed();
        assert_eq!(committed.entries.len(), 16, "4 workloads x 4 classes");
        assert_eq!(Expected::render(&committed.entries), COMMITTED);
    }

    #[test]
    fn expectations_round_trip_and_report_structural_drift() {
        let mut s = Structural::default();
        s.push("segments", 34);
        s.push("l1i_evictions", 10);
        let entries = vec![Entry {
            workload: "w".to_string(),
            class: 2,
            digest: digest(b"report"),
            structural: s.clone(),
        }];
        let parsed = Expected::parse(&Expected::render(&entries)).expect("parses");
        assert_eq!(parsed.get("w", 2), Some(&entries[0]));
        assert!(parsed.get("w", 1).is_none());
        let mut drifted = Structural::default();
        drifted.push("segments", 34);
        drifted.push("l1i_evictions", 11);
        drifted.push("jobs", 2);
        assert_eq!(
            s.diff(&drifted),
            vec![
                "l1i_evictions=10≠11".to_string(),
                "jobs=absent≠2".to_string()
            ]
        );
        assert!(s.diff(&s).is_empty());
    }
}
