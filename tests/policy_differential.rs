//! Differential wall for the simulation kernel: every online policy is
//! replayed over seeded workloads through `CheckedPolicy` (which re-derives
//! the cache state from the hook stream and panics on any contract
//! violation) while a `RingRecorder` captures the complete decision stream —
//! every hit, miss, insertion, eviction, bypass and verdict, in order, with
//! set and slot indices.
//!
//! The stream is folded into a two-component [`StreamDigest`] that is pinned
//! under `tests/golden/`. The first component hashes every event; the second
//! hashes only evictions and invalidations — the victim sequence — so two
//! policies whose verdict streams happen to coincide still cannot collide
//! unless they evicted the same windows in the same order. Any rewrite of
//! the cache kernel (set storage layout, victim-loop structure, slot
//! assignment) must reproduce these sequences byte-for-byte: a single
//! reordered hook, a different slot choice, or a changed verdict moves the
//! digest.
//!
//! To regenerate after an *intentional* behavioural change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test policy_differential
//! ```

use std::path::PathBuf;
use uopcache::cache::{CheckedPolicy, PwReplacementPolicy, UopCache};
use uopcache::model::json::Json;
use uopcache::model::FrontendConfig;
use uopcache::obs::{RingRecorder, StreamDigest};
use uopcache::policies::run_trace;
use uopcache::trace::AppId;
use uopcache_bench::apps::trace_for;
use uopcache_bench::policies::{PolicyId, ProfileInputs};

/// Fixed seed for the one seeded policy (Random), so the wall is a pure
/// function of (app, policy).
const RANDOM_SEED: u64 = 0x5eed_d1ff;

/// Trace length: long enough that every set sees eviction pressure and the
/// adaptive policies (SHiP++, GHRP, Mockingjay) leave their cold-start
/// regime.
const LEN: usize = 3_000;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/policy_differential.json")
}

/// A quarter-capacity Zen3 frontend: 8 ways x 16 sets. Small enough that
/// every policy's eviction logic runs hot, large enough that hits dominate
/// nowhere trivially.
fn wall_config() -> FrontendConfig {
    let mut cfg = FrontendConfig::zen3();
    cfg.uop_cache = cfg.uop_cache.with_entries(cfg.uop_cache.entries / 4);
    cfg
}

/// Every registered policy is under the wall: the figure roster, the seeded
/// Random control, the classic zoo and the set-dueling meta-policy.
fn policy_names() -> Vec<&'static str> {
    PolicyId::ALL.iter().map(|id| id.name()).collect()
}

fn build_policy(
    name: &str,
    cfg: &FrontendConfig,
    profiles: &ProfileInputs,
) -> Box<dyn PwReplacementPolicy> {
    let id: PolicyId = name.parse().expect("roster name parses");
    id.build(cfg, profiles, RANDOM_SEED)
}

/// Replays one (app, policy) cell through `CheckedPolicy` with a recorder
/// installed and returns (events offered, digest, evictions).
fn run_cell(app: AppId, name: &str, cfg: &FrontendConfig, profiles: &ProfileInputs) -> Json {
    let policy = build_policy(name, cfg, profiles);
    let checked = CheckedPolicy::new(policy, cfg.uop_cache.ways);
    let mut cache = UopCache::new(cfg.uop_cache, Box::new(checked));
    cache.set_recorder(Box::new(RingRecorder::new(1 << 22)));
    let trace = trace_for(app, 0, LEN);
    let stats = run_trace(&mut cache, &trace);
    assert!(
        stats.evicted_pws > 0,
        "{}/{name}: the wall must exercise the eviction path",
        app.name()
    );
    let recorder = cache.take_recorder().expect("recorder installed");
    let events = recorder.events();
    assert_eq!(
        recorder.offered() as usize,
        events.len(),
        "{}/{name}: ring must retain the whole stream",
        app.name()
    );
    Json::Obj(vec![
        ("app".to_string(), Json::Str(app.name().to_string())),
        ("policy".to_string(), Json::Str(name.to_string())),
        ("events".to_string(), Json::U64(recorder.offered())),
        (
            "digest".to_string(),
            Json::Str(StreamDigest::from_events(&events).to_string()),
        ),
        ("evictions".to_string(), Json::U64(stats.evicted_pws)),
        ("uops_hit".to_string(), Json::U64(stats.uops_hit)),
    ])
}

#[test]
fn decision_streams_match_golden_digests() {
    let cfg = wall_config();
    let apps = [AppId::Kafka, AppId::Clang];
    let mut cases = Vec::new();
    for app in apps {
        let train = trace_for(app, 0, LEN);
        let profiles = ProfileInputs::build(&cfg, &train, &PolicyId::ALL);
        for name in policy_names() {
            cases.push(run_cell(app, name, &cfg, &profiles));
        }
    }
    let actual = Json::Obj(vec![
        ("schema_version".to_string(), Json::U64(1)),
        ("cases".to_string(), Json::Arr(cases)),
    ])
    .to_string();

    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with \
             `UPDATE_GOLDEN=1 cargo test --test policy_differential`",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected.trim_end(),
        "a policy's decision stream drifted from the pinned sequence; if the \
         change is intentional, regenerate with `UPDATE_GOLDEN=1 cargo test \
         --test policy_differential` and explain the drift in the commit"
    );
}

/// The wall itself must be deterministic: two replays of the same cell
/// produce identical streams (otherwise a digest mismatch would be noise,
/// not signal).
#[test]
fn decision_streams_are_reproducible() {
    let cfg = wall_config();
    let train = trace_for(AppId::Postgres, 0, LEN);
    let profiles = ProfileInputs::build(&cfg, &train, &PolicyId::ALL);
    for name in policy_names() {
        let a = run_cell(AppId::Postgres, name, &cfg, &profiles).to_string();
        let b = run_cell(AppId::Postgres, name, &cfg, &profiles).to_string();
        assert_eq!(a, b, "{name}: decision stream is not reproducible");
    }
}
