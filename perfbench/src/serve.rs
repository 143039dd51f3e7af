//! The serve-mixed workload: an in-process `Server` (1 job worker, 1
//! shard) driven by a closed loop of 2 `Client` connections submitting
//! small LRU jobs; every 4th submission of a client repeats its own
//! submission two places earlier, so it is a dedupe hit.
//!
//! The job set depends only on the input class; the seed also permutes
//! the submission order. Served reports are digested in job-set order, so
//! the digest is independent of scheduling.

use crate::digest::{digest, Structural};
use crate::spans::{now, open_span, timed};
use crate::sweep::{traced_sweep, Counters};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;
use uopcache_bench::sweep::{run_sweep, SweepSpec};
use uopcache_exec::seed::splitmix64;
use uopcache_exec::Engine;
use uopcache_model::json::Json;
use uopcache_model::FrontendConfig;
use uopcache_serve::protocol::{encode_frame, frame, FrameDecoder};
use uopcache_serve::{Client, Server, ServerConfig};
use uopcache_trace::AppId;

/// Concurrent client connections.
pub const CLIENTS: usize = 2;
/// Submissions per round, over all clients.
pub const SUBMISSIONS: usize = 1_000;
/// Every this-many-th submission of a client is a repeat.
pub const REPEAT_EVERY: usize = 4;
/// Trace length of one served job.
pub const JOB_LEN: usize = 2_000;
/// Distinct jobs per round.
pub const FRESH: usize = SUBMISSIONS - SUBMISSIONS / REPEAT_EVERY;

const TIMEOUT: Duration = Duration::from_secs(30);

/// The distinct job of index `i` in input class `class`: one app, LRU, a
/// short trace with a variant no other job of any class uses.
pub fn job_spec(class: u64, i: usize) -> SweepSpec {
    SweepSpec {
        cfg: FrontendConfig::zen3(),
        config_name: "zen3".to_string(),
        apps: vec![AppId::ALL[i % AppId::ALL.len()]],
        policies: vec!["LRU".to_string()],
        variant: u32::try_from(1_000 + class * 1_000 + i as u64).unwrap_or(u32::MAX),
        len: JOB_LEN,
        metrics: false,
        sample: None,
        scale: 1,
    }
}

/// Per client, the sequence of job indices it submits.
pub fn submission_plan(seed: u64) -> Vec<Vec<usize>> {
    // Seeded Fisher–Yates over the distinct jobs; each client then takes
    // its share of the shuffled order.
    let mut order: Vec<usize> = (0..FRESH).collect();
    let mut state = seed;
    for i in (1..order.len()).rev() {
        state = splitmix64(state);
        let j = usize::try_from(state % (i as u64 + 1)).unwrap_or(0);
        order.swap(i, j);
    }
    let mut plans = vec![Vec::new(); CLIENTS];
    let mut fresh = order.into_iter();
    for plan in &mut plans {
        for j in 0..SUBMISSIONS / CLIENTS {
            let job = if j % REPEAT_EVERY == REPEAT_EVERY - 1 {
                plan[j - 2]
            } else {
                fresh.next().unwrap_or(0)
            };
            plan.push(job);
        }
    }
    plans
}

/// One served job as the client saw it.
struct Reply {
    job: usize,
    latency: u64,
    deduped: bool,
    report: Option<String>,
}

/// The outcome of one round.
pub struct Round {
    /// Bind + spawn + connect + first pong, ns.
    pub setup: u64,
    /// First submit to last reply, ns.
    pub wall: u64,
    /// Submit→result latency of every submission, ns.
    pub latencies: Vec<u64>,
    /// Latencies of the dedupe hits, ns.
    pub dedup_rtts: Vec<u64>,
    /// Submissions attempted and failed (errors, busy, timeouts).
    pub attempted: u64,
    /// Submissions that failed.
    pub failed: u64,
    /// Whether repeats and the in-process re-runs matched byte for byte.
    pub replies_agree: bool,
    /// Digest of every distinct job's report, in job order.
    pub digest: String,
    /// Counters of the traced job runner (traced rounds only).
    pub counters: Counters,
    /// Submissions answered by dedupe.
    pub dedup_hits: u64,
}

impl Round {
    /// The counts that are pure functions of the inputs: the job runner's,
    /// plus the submissions and dedupe hits.
    pub fn structural(&self) -> Structural {
        let mut s = self.counters.structural();
        s.push("jobs", self.attempted);
        s.push("dedup_hits", self.dedup_hits);
        s
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn server_config() -> ServerConfig {
    ServerConfig::builder()
        .addr(SocketAddr::from(([127, 0, 0, 1], 0)))
        .jobs(1)
        .shards(1)
        .build()
}

/// Binds, spawns and pings a server; returns the handle, a connected
/// client and the set-up time.
fn start_server(
    counters: Option<Arc<Mutex<Counters>>>,
) -> Result<(uopcache_serve::ServerHandle, Client, u64), String> {
    let _span = open_span("serve.setup");
    let t0 = now();
    let server = match counters {
        None => Server::bind(server_config()),
        Some(sink) => Server::bind_with_runner(
            server_config(),
            Box::new(move |spec: &SweepSpec, engine: &Engine| {
                let _job = open_span("serve.run_job");
                let (json, c) = traced_sweep(spec, engine.jobs(), false, &mut Vec::new());
                lock(&sink).merge(&c);
                json
            }),
        ),
    }
    .map_err(|e| format!("bind: {e}"))?;
    let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
    let mut client = Client::connect(handle.addr(), TIMEOUT).map_err(|e| e.to_string())?;
    client.ping(TIMEOUT).map_err(|e| e.to_string())?;
    Ok((handle, client, now() - t0))
}

fn stop_server(handle: uopcache_serve::ServerHandle, mut client: Client) -> Result<(), String> {
    let _span = open_span("serve.shutdown");
    client.shutdown(TIMEOUT).map_err(|e| e.to_string())?;
    drop(client);
    match handle.join_within(TIMEOUT) {
        Some(Ok(())) => Ok(()),
        Some(Err(e)) => Err(format!("server exited with {e}")),
        None => Err("server did not drain in time".to_string()),
    }
}

/// Measures set-up alone: start a server, then shut it down.
pub fn setup_only() -> Result<u64, String> {
    let (handle, client, setup) = start_server(None)?;
    stop_server(handle, client)?;
    Ok(setup)
}

/// Replays the public codec on one job's request and reply frames: encode
/// both, decode both, and parse the report body — the per-frame costs the
/// client and server pay inside `submit_and_wait`.
fn codec_replay(spec: &SweepSpec, job_id: &str, report: &str) {
    let submit = frame(
        "submit",
        vec![
            ("job".to_string(), spec.to_json()),
            ("wait".to_string(), Json::Bool(true)),
        ],
    );
    let body = timed("model.json_parse", || Json::parse(report));
    let Ok(body) = body else { return };
    let result = frame(
        "result",
        vec![
            ("job_id".to_string(), Json::Str(job_id.to_string())),
            ("result".to_string(), body),
        ],
    );
    let mut decoded = Vec::with_capacity(2);
    for f in [&submit, &result] {
        let Ok(wire) = timed("serve.frame_encode", || encode_frame(f)) else {
            return;
        };
        let mut decoder = FrameDecoder::new();
        let _ = timed("serve.frame_decode", || decoder.feed(&wire, &mut decoded));
    }
}

/// Runs one round: a fresh server, both clients' full submission plans,
/// then shutdown. `traced` swaps in a runner that records spans and
/// counters and adds the codec replay after each reply.
pub fn run_round(class: u64, seed: u64, traced: bool) -> Result<Round, String> {
    let sink = traced.then(|| Arc::new(Mutex::new(Counters::default())));
    let (handle, first_client, setup) = start_server(sink.clone())?;
    let addr = handle.addr();
    let plans = submission_plan(seed);
    let specs: Vec<SweepSpec> = (0..FRESH).map(|i| job_spec(class, i)).collect();
    let mut clients = vec![first_client];
    for _ in 1..CLIENTS {
        let client = timed("serve.connect", || Client::connect(addr, TIMEOUT));
        clients.push(client.map_err(|e| e.to_string())?);
    }

    let t0 = now();
    let mut replies: Vec<Reply> = Vec::with_capacity(SUBMISSIONS);
    let clients_wait = open_span("serve.clients");
    std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .zip(&plans)
            .map(|(client, plan)| {
                let specs = &specs;
                scope.spawn(move || {
                    let _client = open_span("serve.client");
                    let mut out = Vec::with_capacity(plan.len());
                    for &job in plan {
                        let start = now();
                        let res = timed("serve.submit_and_wait", || {
                            client.submit_and_wait(&specs[job], None, TIMEOUT)
                        });
                        let latency = now() - start;
                        let reply = match res {
                            Ok(r) => {
                                let text = r.report.to_string();
                                if traced {
                                    codec_replay(&specs[job], &r.job_id, &text);
                                }
                                Reply {
                                    job,
                                    latency,
                                    deduped: r.deduped,
                                    report: Some(text),
                                }
                            }
                            Err(_) => Reply {
                                job,
                                latency,
                                deduped: false,
                                report: None,
                            },
                        };
                        out.push(reply);
                    }
                    out
                })
            })
            .collect();
        for w in workers {
            if let Ok(out) = w.join() {
                replies.extend(out);
            }
        }
    });
    drop(clients_wait);
    let wall = now() - t0;
    let first = clients.swap_remove(0);
    drop(clients);
    stop_server(handle, first)?;

    let _check = open_span("bench.check_replies");
    let mut by_job: Vec<Option<String>> = vec![None; FRESH];
    let mut agree = replies.len() == SUBMISSIONS;
    let mut failed = (SUBMISSIONS - replies.len().min(SUBMISSIONS)) as u64;
    for r in &replies {
        match (&r.report, &by_job[r.job]) {
            (None, _) => failed += 1,
            (Some(text), Some(seen)) => agree &= text == seen,
            (Some(text), None) => by_job[r.job] = Some(text.clone()),
        }
    }
    // One fresh reply and one dedupe reply, byte for byte against an
    // in-process run of the same spec.
    let fresh = replies.iter().find(|r| !r.deduped && r.report.is_some());
    let dedup = replies.iter().find(|r| r.deduped && r.report.is_some());
    for r in [fresh, dedup] {
        match r {
            Some(r) => {
                let offline = run_sweep(&specs[r.job], &Engine::new(1)).to_json();
                agree &= r.report.as_deref() == Some(offline.as_str());
            }
            None => agree = false,
        }
    }
    let mut reports = String::new();
    for text in &by_job {
        reports.push_str(text.as_deref().unwrap_or("<missing>"));
        reports.push('\n');
    }
    let counters = sink.map(|s| *lock(&s)).unwrap_or_default();
    let digest = digest(reports.as_bytes());
    Ok(Round {
        setup,
        wall,
        latencies: replies.iter().map(|r| r.latency).collect(),
        dedup_rtts: replies
            .iter()
            .filter(|r| r.deduped)
            .map(|r| r.latency)
            .collect(),
        attempted: SUBMISSIONS as u64,
        failed,
        replies_agree: agree,
        digest,
        counters,
        dedup_hits: replies.iter().filter(|r| r.deduped).count() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_repeats_every_fourth_submission_and_covers_every_job_once() {
        let plans = submission_plan(7);
        assert_eq!(plans.len(), CLIENTS);
        let mut fresh: Vec<usize> = Vec::new();
        for plan in &plans {
            assert_eq!(plan.len(), SUBMISSIONS / CLIENTS);
            for (j, &job) in plan.iter().enumerate() {
                if j % REPEAT_EVERY == REPEAT_EVERY - 1 {
                    assert_eq!(job, plan[j - 2]);
                } else {
                    fresh.push(job);
                }
            }
        }
        fresh.sort_unstable();
        assert_eq!(fresh, (0..FRESH).collect::<Vec<_>>());
        // The seed permutes the order, not the set.
        assert_ne!(submission_plan(8), plans);
    }
}
