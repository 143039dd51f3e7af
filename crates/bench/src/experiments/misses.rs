//! Miss-rate experiments: §III-B, Figs. 5, 8, 10, 15, 18, 21, 22 and the
//! §VI-C coverage study.

use crate::apps::trace_for;
use crate::experiments::{apps_for, len_for};
use crate::policies::PolicyId;
use crate::runs::{mean, Lab};
use crate::sweep::{app_key, par_map};
use crate::table::Table;
use uopcache_core::{Flack, FurbysPipeline, OracleKind};
use uopcache_model::FrontendConfig;
use uopcache_offline::foo;
use uopcache_offline::replay::{replay_full, EvictionTiming};
use uopcache_sim::Frontend;
use uopcache_trace::AppId;

/// §III-B: miss classification under LRU and the reduction a near-optimal
/// policy (FLACK) achieves on capacity and conflict misses.
pub fn sec3b_miss_classes(quick: bool) -> Vec<Table> {
    let mut lab = Lab::with_len(FrontendConfig::zen3(), len_for(quick));
    lab.classify_misses(true);
    let apps = apps_for(quick);
    lab.prewarm_online(&[PolicyId::Lru], &apps);
    let mut t = Table::new(
        "SIII-B: LRU miss classes (paper: cold 0.89%, capacity 88.31%, conflict 10.8%)",
        &["app", "cold%", "capacity%", "conflict%"],
    );
    let mut cold = Vec::new();
    let mut cap = Vec::new();
    let mut conf = Vec::new();

    // Near-optimal (FLACK) classified misses vs the synchronous LRU baseline
    // classified the same way — one engine task per app.
    let cfg = lab.cfg.uop_cache;
    let offline_tasks: Vec<_> = apps
        .iter()
        .map(|&app| (app_key("sec3b-offline", app), lab.trace(app, 0).clone()))
        .collect();
    let offline = par_map("sec3b offline", offline_tasks, move |_key, _seed, trace| {
        let flack = Flack::new();
        let sol = foo::solve(&trace, &cfg, &flack.foo_config());
        let (opt, _) = replay_full(&trace, &cfg, &sol, EvictionTiming::Lazy, true);
        let mut lru_sync =
            uopcache_cache::UopCache::new(cfg, Box::new(uopcache_cache::LruPolicy::new()));
        lru_sync.enable_classification();
        let base = uopcache_policies::run_trace(&mut lru_sync, &trace);
        let red = |o: u64, b: u64| {
            if b == 0 {
                0.0
            } else {
                (1.0 - o as f64 / b as f64) * 100.0
            }
        };
        (
            red(opt.capacity_miss_uops, base.capacity_miss_uops),
            red(opt.conflict_miss_uops, base.conflict_miss_uops),
            red(opt.uops_missed, base.uops_missed),
        )
    });
    let (mut cap_red, mut conf_red, mut tot_red) = (Vec::new(), Vec::new(), Vec::new());
    for (c, f, tot) in offline {
        cap_red.push(c);
        conf_red.push(f);
        tot_red.push(tot);
    }

    for &app in &apps {
        let lru = lab.run_online(PolicyId::Lru, app, 0).uopc;
        let total = lru.uops_missed.max(1) as f64;
        cold.push(lru.cold_miss_uops as f64 / total * 100.0);
        cap.push(lru.capacity_miss_uops as f64 / total * 100.0);
        conf.push(lru.conflict_miss_uops as f64 / total * 100.0);
        t.row(&[
            app.name().to_string(),
            format!("{:.2}", cold.last().expect("pushed above")),
            format!("{:.2}", cap.last().expect("pushed above")),
            format!("{:.2}", conf.last().expect("pushed above")),
        ]);
    }
    t.row(&[
        "MEAN".into(),
        format!("{:.2}", mean(&cold)),
        format!("{:.2}", mean(&cap)),
        format!("{:.2}", mean(&conf)),
    ]);
    let mut t2 = Table::new(
        "SIII-B: near-optimal reduction (paper: capacity -23.9%, conflict -31.6%, total -24.5%)",
        &["metric", "paper", "measured"],
    );
    t2.row(&[
        "capacity miss reduction".into(),
        "23.9%".into(),
        format!("{:.1}%", mean(&cap_red)),
    ]);
    t2.row(&[
        "conflict miss reduction".into(),
        "31.6%".into(),
        format!("{:.1}%", mean(&conf_red)),
    ]);
    t2.row(&[
        "total miss reduction".into(),
        "24.5%".into(),
        format!("{:.1}%", mean(&tot_red)),
    ]);
    vec![t, t2]
}

/// Per-app offline FLACK miss reduction vs the synchronous LRU baseline,
/// computed through the engine (one task per app).
fn offline_flack_reductions(stage: &str, lab: &mut Lab, apps: &[AppId]) -> Vec<f64> {
    let cfg = lab.cfg.uop_cache;
    let tasks: Vec<_> = apps
        .iter()
        .map(|&app| (app_key(stage, app), lab.trace(app, 0).clone()))
        .collect();
    par_map(stage, tasks, move |_key, _seed, trace| {
        let stats = Flack::new().run(&trace, &cfg).stats;
        let mut lru =
            uopcache_cache::UopCache::new(cfg, Box::new(uopcache_cache::LruPolicy::new()));
        let base = uopcache_policies::run_trace(&mut lru, &trace);
        stats.miss_reduction_vs(&base)
    })
}

/// Fig. 5: existing online policies achieve only a fraction of FLACK's miss
/// reduction (paper: GHRP, the best, reaches 31.52% of FLACK).
pub fn fig05_existing_policies(quick: bool) -> Vec<Table> {
    let mut lab = Lab::with_len(FrontendConfig::zen3(), len_for(quick));
    let policies = [
        PolicyId::Srrip,
        PolicyId::ShipPlusPlus,
        PolicyId::Mockingjay,
        PolicyId::Ghrp,
        PolicyId::Thermometer,
    ];
    let apps = apps_for(quick);
    lab.prewarm_online(
        &[
            PolicyId::Lru,
            PolicyId::Srrip,
            PolicyId::ShipPlusPlus,
            PolicyId::Mockingjay,
            PolicyId::Ghrp,
            PolicyId::Thermometer,
        ],
        &apps,
    );
    let flack_reds = offline_flack_reductions("fig05-flack", &mut lab, &apps);
    let mut t = Table::new(
        "Fig. 5: miss reduction over LRU (existing policies vs offline FLACK)",
        &[
            "app",
            "SRRIP",
            "SHiP++",
            "Mockingjay",
            "GHRP",
            "Thermometer",
            "FLACK",
        ],
    );
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); policies.len() + 1];
    for (&app, &flack) in apps.iter().zip(&flack_reds) {
        let mut row = vec![app.name().to_string()];
        for (i, &p) in policies.iter().enumerate() {
            let red = lab.online_miss_reduction(p, app);
            cols[i].push(red);
            row.push(format!("{red:.2}"));
        }
        cols[policies.len()].push(flack);
        row.push(format!("{flack:.2}"));
        t.row(&row);
    }
    let mut mean_row = vec!["MEAN".to_string()];
    for c in &cols {
        mean_row.push(format!("{:.2}", mean(c)));
    }
    t.row(&mean_row);
    let mut t2 = Table::new("Fig. 5 summary", &["metric", "paper", "measured"]);
    let best = cols[..policies.len()]
        .iter()
        .map(|c| mean(c))
        .fold(f64::MIN, f64::max);
    t2.row(&[
        "best existing / FLACK".into(),
        "31.52%".into(),
        format!(
            "{:.1}%",
            best / mean(&cols[policies.len()]).max(1e-9) * 100.0
        ),
    ]);
    vec![t, t2]
}

/// Fig. 8: FURBYS miss reduction vs existing policies (paper: 14.34% avg,
/// GHRP best existing at 7.81%, FURBYS = 57.85% of FLACK).
pub fn fig08_furbys_miss_reduction(quick: bool) -> Vec<Table> {
    let mut lab = Lab::with_len(FrontendConfig::zen3(), len_for(quick));
    let policies = [
        PolicyId::Srrip,
        PolicyId::ShipPlusPlus,
        PolicyId::Mockingjay,
        PolicyId::Ghrp,
        PolicyId::Thermometer,
        PolicyId::Furbys,
    ];
    let apps = apps_for(quick);
    lab.prewarm_online(&PolicyId::ONLINE, &apps);
    let flack_reds = offline_flack_reductions("fig08-flack", &mut lab, &apps);
    let mut t = Table::new(
        "Fig. 8: miss reduction over LRU",
        &[
            "app",
            "SRRIP",
            "SHiP++",
            "Mockingjay",
            "GHRP",
            "Thermometer",
            "FURBYS",
            "FLACK",
        ],
    );
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); policies.len() + 1];
    for (&app, &flack) in apps.iter().zip(&flack_reds) {
        let mut row = vec![app.name().to_string()];
        for (i, &p) in policies.iter().enumerate() {
            let red = lab.online_miss_reduction(p, app);
            cols[i].push(red);
            row.push(format!("{red:.2}"));
        }
        cols[policies.len()].push(flack);
        row.push(format!("{flack:.2}"));
        t.row(&row);
    }
    let mut mean_row = vec!["MEAN".to_string()];
    for c in &cols {
        mean_row.push(format!("{:.2}", mean(c)));
    }
    t.row(&mean_row);

    let furbys = mean(&cols[5]);
    let flack = mean(&cols[6]);
    let best_existing = cols[..5].iter().map(|c| mean(c)).fold(f64::MIN, f64::max);
    let mut t2 = Table::new("Fig. 8 summary", &["metric", "paper", "measured"]);
    t2.row(&[
        "FURBYS avg miss reduction".into(),
        "14.34%".into(),
        format!("{furbys:.2}%"),
    ]);
    t2.row(&[
        "FURBYS / best existing".into(),
        "1.84x (vs GHRP 7.81%)".into(),
        format!(
            "{:.2}x (vs {:.2}%)",
            furbys / best_existing.max(1e-9),
            best_existing
        ),
    ]);
    t2.row(&[
        "FURBYS / FLACK".into(),
        "57.85%".into(),
        format!("{:.1}%", furbys / flack.max(1e-9) * 100.0),
    ]);
    vec![t, t2]
}

/// Fig. 10: FLACK feature ablation vs FOO and Belady (perfect-icache-style
/// synchronous setting; paper: FLACK beats Belady by 4.46% on average).
pub fn fig10_flack_ablation(quick: bool) -> Vec<Table> {
    let lab = Lab::with_len(FrontendConfig::zen3(), len_for(quick));
    let variants = [
        Flack::ablation(false, false, false),
        Flack::ablation(true, false, false),
        Flack::ablation(true, true, false),
        Flack::new(),
    ];
    let mut t = Table::new(
        "Fig. 10: miss reduction over LRU (offline, perfect-icache setting)",
        &["app", "Belady", "FOO", "A", "A+VC", "A+VC+SB (FLACK)"],
    );
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 5];
    let apps = apps_for(quick);
    // Offline-only study: each app is one engine task computing the sync LRU
    // baseline, Belady and all four ablation variants on its own trace.
    let cfg = lab.cfg.uop_cache;
    let len = lab.len;
    let tasks: Vec<_> = apps
        .iter()
        .map(|&app| (app_key("fig10-ablation", app), app))
        .collect();
    let per_app = par_map("fig10 ablation", tasks, move |_key, _seed, app| {
        let trace = trace_for(app, 0, len);
        let mut lru_cache =
            uopcache_cache::UopCache::new(cfg, Box::new(uopcache_cache::LruPolicy::new()));
        let lru = uopcache_policies::run_trace(&mut lru_cache, &trace);
        let mut bel_cache = uopcache_cache::UopCache::new(
            cfg,
            Box::new(uopcache_offline::BeladyPolicy::from_trace(&trace)),
        );
        let bel = uopcache_policies::run_trace(&mut bel_cache, &trace).miss_reduction_vs(&lru);
        let reds: Vec<f64> = variants
            .iter()
            .map(|v| v.run(&trace, &cfg).stats.miss_reduction_vs(&lru))
            .collect();
        (bel, reds)
    });
    for (&app, (bel, reds)) in apps.iter().zip(per_app) {
        let mut row = vec![app.name().to_string()];
        cols[0].push(bel);
        row.push(format!("{bel:.2}"));
        for (i, red) in reds.into_iter().enumerate() {
            cols[i + 1].push(red);
            row.push(format!("{red:.2}"));
        }
        t.row(&row);
    }
    let mut mean_row = vec!["MEAN".to_string()];
    for c in &cols {
        mean_row.push(format!("{:.2}", mean(c)));
    }
    t.row(&mean_row);
    let mut t2 = Table::new("Fig. 10 summary", &["metric", "paper", "measured"]);
    t2.row(&[
        "FLACK avg miss reduction".into(),
        "30.21%".into(),
        format!("{:.2}%", mean(&cols[4])),
    ]);
    t2.row(&[
        "FLACK - Belady".into(),
        "4.46%".into(),
        format!("{:.2}%", mean(&cols[4]) - mean(&cols[0])),
    ]);
    t2.row(&[
        "FLACK - FOO".into(),
        "17.93%".into(),
        format!("{:.2}%", mean(&cols[4]) - mean(&cols[1])),
    ]);
    vec![t, t2]
}

/// Fig. 15: FURBYS fed by profiles from Belady, FOO and FLACK (paper: FLACK
/// profiles give ~3.47% more reduction than Belady's, 4.39% more than FOO's).
pub fn fig15_profile_sources(quick: bool) -> Vec<Table> {
    let cfg = FrontendConfig::zen3();
    let len = len_for(quick);
    let mut t = Table::new(
        "Fig. 15: FURBYS miss reduction by profile source",
        &["app", "Belady-profile", "FOO-profile", "FLACK-profile"],
    );
    let oracles = [OracleKind::Belady, OracleKind::Foo, OracleKind::Flack];
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let apps = apps_for(quick);
    // One engine task per app: LRU baseline plus FURBYS under all three
    // profile oracles on that app's trace.
    let tasks: Vec<_> = apps
        .iter()
        .map(|&app| (app_key("fig15-oracles", app), app))
        .collect();
    let per_app = par_map("fig15 profile sources", tasks, move |_key, _seed, app| {
        let trace = trace_for(app, 0, len);
        let lru = Frontend::builder(cfg)
            .policy(uopcache_cache::LruPolicy::new())
            .build()
            .run(&trace);
        oracles.map(|oracle| {
            let mut p = FurbysPipeline::new(cfg);
            p.oracle = oracle;
            let profile = p.profile(&trace);
            let r = p.deploy_and_run(&profile, &trace);
            r.uopc.miss_reduction_vs(&lru.uopc)
        })
    });
    for (&app, reds) in apps.iter().zip(per_app) {
        let mut row = vec![app.name().to_string()];
        for (i, red) in reds.into_iter().enumerate() {
            cols[i].push(red);
            row.push(format!("{red:.2}"));
        }
        t.row(&row);
    }
    t.row(&[
        "MEAN".into(),
        format!("{:.2}", mean(&cols[0])),
        format!("{:.2}", mean(&cols[1])),
        format!("{:.2}", mean(&cols[2])),
    ]);
    let mut t2 = Table::new("Fig. 15 summary", &["metric", "paper", "measured"]);
    t2.row(&[
        "FLACK-profile - Belady-profile".into(),
        "3.47%".into(),
        format!("{:.2}%", mean(&cols[2]) - mean(&cols[0])),
    ]);
    t2.row(&[
        "FLACK-profile - FOO-profile".into(),
        "4.39%".into(),
        format!("{:.2}%", mean(&cols[2]) - mean(&cols[1])),
    ]);
    vec![t, t2]
}

/// Fig. 18: cross-validation — profile on training inputs, deploy on a
/// held-out input (paper: 94.34% of the same-input benefit, 13.51% vs LRU).
pub fn fig18_cross_validation(quick: bool) -> Vec<Table> {
    let cfg = FrontendConfig::zen3();
    let len = len_for(quick);
    let pipeline = FurbysPipeline::new(cfg);
    let mut t = Table::new(
        "Fig. 18: cross-validation (train on inputs 0+1, test on input 2)",
        &["app", "same-input", "cross-input", "retained"],
    );
    let mut same_all = Vec::new();
    let mut cross_all = Vec::new();
    let apps = apps_for(quick);
    // One engine task per app: the full train-on-0+1, test-on-2 protocol.
    let tasks: Vec<_> = apps
        .iter()
        .map(|&app| (app_key("fig18-crossval", app), app))
        .collect();
    let per_app = par_map("fig18 cross-validation", tasks, move |_key, _seed, app| {
        let train0 = trace_for(app, 0, len);
        let train1 = trace_for(app, 1, len);
        let test = trace_for(app, 2, len);
        let lru_test = Frontend::builder(cfg)
            .policy(uopcache_cache::LruPolicy::new())
            .build()
            .run(&test);
        // Same-input: profile the test input itself.
        let same_profile = pipeline.profile(&test);
        let same = pipeline
            .deploy_and_run(&same_profile, &test)
            .uopc
            .miss_reduction_vs(&lru_test.uopc);
        // Cross-input: merged profile of the training inputs.
        let cross_profile = pipeline.profile_merged(&[train0, train1]);
        let cross = pipeline
            .deploy_and_run(&cross_profile, &test)
            .uopc
            .miss_reduction_vs(&lru_test.uopc);
        (same, cross)
    });
    for (&app, (same, cross)) in apps.iter().zip(per_app) {
        same_all.push(same);
        cross_all.push(cross);
        t.row(&[
            app.name().to_string(),
            format!("{same:.2}"),
            format!("{cross:.2}"),
            format!(
                "{:.1}%",
                if same.abs() < 1e-9 {
                    0.0
                } else {
                    cross / same * 100.0
                }
            ),
        ]);
    }
    let mut t2 = Table::new("Fig. 18 summary", &["metric", "paper", "measured"]);
    t2.row(&[
        "cross-input avg reduction".into(),
        "13.51%".into(),
        format!("{:.2}%", mean(&cross_all)),
    ]);
    t2.row(&[
        "retained vs same-input".into(),
        "94.34%".into(),
        format!(
            "{:.1}%",
            mean(&cross_all) / mean(&same_all).max(1e-9) * 100.0
        ),
    ]);
    vec![t, t2]
}

/// Fig. 21: the dynamic bypass mechanism on vs off (paper: bypass adds 4.33%
/// more reduction and skips ~30% of insertions).
pub fn fig21_bypass(quick: bool) -> Vec<Table> {
    let cfg = FrontendConfig::zen3();
    let len = len_for(quick);
    let mut t = Table::new(
        "Fig. 21: FURBYS with bypass off/on",
        &[
            "app",
            "bypass off",
            "bypass on",
            "delta",
            "bypassed insertions",
        ],
    );
    let mut off_all = Vec::new();
    let mut on_all = Vec::new();
    let mut rate_all = Vec::new();
    let apps = apps_for(quick);
    // One engine task per app: LRU baseline, FURBYS with bypass on and off.
    let tasks: Vec<_> = apps
        .iter()
        .map(|&app| (app_key("fig21-bypass", app), app))
        .collect();
    let per_app = par_map("fig21 bypass", tasks, move |_key, _seed, app| {
        let trace = trace_for(app, 0, len);
        let lru = Frontend::builder(cfg)
            .policy(uopcache_cache::LruPolicy::new())
            .build()
            .run(&trace);
        let pipeline_on = FurbysPipeline::new(cfg);
        let profile = pipeline_on.profile(&trace);
        let on = pipeline_on.deploy_and_run(&profile, &trace);
        let mut pipeline_off = FurbysPipeline::new(cfg);
        pipeline_off.bypass_k = u8::MAX; // disables bypassing
        let off = pipeline_off.deploy_and_run(&profile, &trace);
        (
            off.uopc.miss_reduction_vs(&lru.uopc),
            on.uopc.miss_reduction_vs(&lru.uopc),
            on.uopc.bypass_rate() * 100.0,
        )
    });
    for (&app, (off_red, on_red, rate)) in apps.iter().zip(per_app) {
        on_all.push(on_red);
        off_all.push(off_red);
        rate_all.push(rate);
        t.row(&[
            app.name().to_string(),
            format!("{off_red:.2}"),
            format!("{on_red:.2}"),
            format!("{:.2}", on_red - off_red),
            format!("{:.1}%", rate_all.last().expect("pushed above")),
        ]);
    }
    let mut t2 = Table::new("Fig. 21 summary", &["metric", "paper", "measured"]);
    t2.row(&[
        "extra reduction from bypass".into(),
        "4.33%".into(),
        format!("{:.2}%", mean(&on_all) - mean(&off_all)),
    ]);
    t2.row(&[
        "insertions bypassed".into(),
        "~30%".into(),
        format!("{:.1}%", mean(&rate_all)),
    ]);
    vec![t, t2]
}

/// Fig. 22: per-hotness-class hit rates on Kafka (paper: all policies agree
/// on hot PWs; FURBYS wins on warm PWs; FLACK's remaining edge is in cold
/// PWs).
pub fn fig22_hotness(quick: bool) -> Vec<Table> {
    use uopcache_model::hash::FastHashMap;
    use uopcache_model::Addr;

    let cfg = FrontendConfig::zen3();
    let len = len_for(quick).max(20_000);
    let app = uopcache_trace::AppId::Kafka;
    let trace = trace_for(app, 0, len);

    // Hotness classes by access count: hot = top 10% of starts, warm = next
    // 40%, cold = the rest.
    let counts = trace.access_counts();
    let mut ranked: Vec<(Addr, u64)> = counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let n = ranked.len();
    let class_of = |idx: usize| -> usize {
        if idx < n / 10 {
            0 // hot
        } else if idx < n / 2 {
            1 // warm
        } else {
            2 // cold
        }
    };
    let index_of: FastHashMap<Addr, usize> = ranked
        .iter()
        .enumerate()
        .map(|(i, &(a, _))| (a, i))
        .collect();

    let class_rates = |obs: &[(Addr, u32, u32)]| -> [f64; 3] {
        let mut hit = [0u64; 3];
        let mut tot = [0u64; 3];
        for &(a, h, t) in obs {
            let c = class_of(index_of[&a]);
            hit[c] += u64::from(h);
            tot[c] += u64::from(t);
        }
        std::array::from_fn(|c| {
            if tot[c] == 0 {
                0.0
            } else {
                hit[c] as f64 / tot[c] as f64 * 100.0
            }
        })
    };

    let mut t = Table::new(
        "Fig. 22: hit rate (%) by PW hotness class on Kafka",
        &["policy", "hot (top 10%)", "warm (10-50%)", "cold (50-100%)"],
    );
    // Online policies through the synchronous observer for per-PW hit data.
    let roster = [
        PolicyId::Lru,
        PolicyId::Srrip,
        PolicyId::Ghrp,
        PolicyId::Thermometer,
        PolicyId::Furbys,
    ];
    let profiles = crate::policies::ProfileInputs::build(&cfg, &trace, &roster);
    for id in roster {
        let policy = id.build(&cfg, &profiles, 0);
        let mut cache = uopcache_cache::UopCache::new(cfg.uop_cache, policy);
        let (_, obs) = uopcache_policies::run_trace_observed(&mut cache, &trace);
        let rates = class_rates(&obs);
        t.row(&[
            id.to_string(),
            format!("{:.1}", rates[0]),
            format!("{:.1}", rates[1]),
            format!("{:.1}", rates[2]),
        ]);
    }
    // FLACK via replay observations.
    let flack = Flack::new();
    let sol = foo::solve(&trace, &cfg.uop_cache, &flack.foo_config());
    let (_, obs) =
        uopcache_offline::replay::replay_observed(&trace, &cfg.uop_cache, &sol, flack.timing());
    let rates = class_rates(&obs);
    t.row(&[
        "FLACK".to_string(),
        format!("{:.1}", rates[0]),
        format!("{:.1}", rates[1]),
        format!("{:.1}", rates[2]),
    ]);
    vec![t]
}

/// §VI-C: replacement coverage — the share of victim selections FURBYS makes
/// itself rather than its SRRIP fallback (paper: 88.68%).
pub fn sec6c_coverage(quick: bool) -> Vec<Table> {
    let mut lab = Lab::with_len(FrontendConfig::zen3(), len_for(quick));
    let apps = apps_for(quick);
    lab.prewarm_online(&[PolicyId::Furbys], &apps);
    let mut t = Table::new(
        "SVI-C: FURBYS replacement coverage (paper: 88.68% average)",
        &["app", "coverage"],
    );
    let mut all = Vec::new();
    for app in apps {
        let r = lab.run_online(PolicyId::Furbys, app, 0);
        let cov = r.uopc.replacement_coverage() * 100.0;
        all.push(cov);
        t.row(&[app.name().to_string(), format!("{cov:.2}%")]);
    }
    t.row(&["MEAN".into(), format!("{:.2}%", mean(&all))]);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig10_preserves_monotone_ablation() {
        let tables = fig10_flack_ablation(true);
        assert_eq!(tables.len(), 2);
        // MEAN row: Belady, FOO, A, A+VC, FLACK.
        let t = &tables[0];
        let rendered = t.render();
        let mean_line = rendered.lines().last().unwrap();
        let nums: Vec<f64> = mean_line
            .split_whitespace()
            .skip(1)
            .map(|s| s.parse().unwrap())
            .collect();
        assert!(nums[2] <= nums[4], "A <= FLACK: {nums:?}");
    }

    #[test]
    fn quick_fig21_reports_bypass_rate() {
        let tables = fig21_bypass(true);
        let s = tables[1].render();
        assert!(s.contains("insertions bypassed"));
    }

    #[test]
    fn quick_fig22_has_six_policies() {
        let tables = fig22_hotness(true);
        assert_eq!(tables[0].len(), 6);
    }
}
