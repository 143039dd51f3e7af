//! End-to-end tests for the consistent-hash router, run in-process over
//! loopback TCP against real `Server` backends.
//!
//! Covers the three contracts the router makes on top of the daemon's:
//!
//! 1. one event loop multiplexes a thousand-plus concurrent client
//!    connections, and every routed report is byte-identical to the offline
//!    sweep whichever backend ran it;
//! 2. a backend killed mid-stream is evicted by the health prober and fresh
//!    jobs land on the survivors with identical bytes (failover);
//! 3. `shutdown` drains in-flight forwards — waiting clients still get their
//!    results — refuses new work, and exits without touching the backends.

use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use uopcache_bench::policies::PolicyRegistry;
use uopcache_bench::sweep::{run_sweep, SweepSpec};
use uopcache_exec::Engine;
use uopcache_model::json::Json;
use uopcache_model::FrontendConfig;
use uopcache_serve::{
    frame, read_frame, write_frame, Client, ClientError, Router, RouterConfig, RouterHandle,
    Server, ServerConfig, ServerHandle,
};
use uopcache_trace::AppId;

fn spec(app: AppId, len: usize) -> SweepSpec {
    let registry = PolicyRegistry::all();
    SweepSpec {
        cfg: FrontendConfig::zen3(),
        config_name: "zen3".to_string(),
        apps: vec![app],
        policies: vec![registry
            .resolve("lru")
            .expect("lru resolves")
            .name()
            .to_string()],
        variant: 0,
        len,
        metrics: false,
        sample: None,
        scale: 1,
    }
}

fn spawn_backend() -> ServerHandle {
    Server::bind(ServerConfig::builder().jobs(1).build())
        .expect("backend binds on loopback")
        .spawn()
        .expect("backend spawns")
}

/// Holds backend jobs until opened, so a test can keep a forward in flight
/// for as long as it needs.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    bell: Condvar,
}

impl Gate {
    fn wait_open(&self) {
        let mut open = self.open.lock().expect("gate lock");
        while !*open {
            open = self.bell.wait(open).expect("gate wait");
        }
    }

    fn open(&self) {
        *self.open.lock().expect("gate lock") = true;
        self.bell.notify_all();
    }
}

fn spawn_router(backends: &[SocketAddr]) -> RouterHandle {
    Router::bind(
        RouterConfig::builder()
            .backends(backends.iter().copied())
            .health_interval(Duration::from_millis(100))
            .retry_backoff(Duration::from_millis(20))
            .build(),
    )
    .expect("router binds on loopback")
    .spawn()
    .expect("router spawns")
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr, Duration::from_secs(5)).expect("loopback connect")
}

/// Connects with retry: a thousand near-simultaneous connects can overflow
/// the listen backlog transiently while the event loop drains it.
fn raw_connect(addr: SocketAddr) -> TcpStream {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return stream,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "connect to {addr} kept failing: {e}"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

fn frame_type(reply: &Json) -> &str {
    reply
        .field("type")
        .expect("frames carry a type")
        .as_str()
        .expect("type is a string")
}

fn drain(handle: ServerHandle) {
    let mut client = connect(handle.addr());
    client.shutdown(Duration::from_secs(5)).expect("drain ack");
    handle
        .join_within(Duration::from_secs(30))
        .expect("backend exits after drain")
        .expect("clean exit");
}

#[test]
fn a_thousand_concurrent_clients_get_offline_identical_bytes_across_backends() {
    let apps = [AppId::Kafka, AppId::Mysql, AppId::Postgres, AppId::Tomcat];
    let specs: Vec<SweepSpec> = apps.iter().map(|&app| spec(app, 700)).collect();
    let offline: Vec<String> = specs
        .iter()
        .map(|s| run_sweep(s, &Engine::new(2)).to_json())
        .collect();

    let backends = [spawn_backend(), spawn_backend()];
    let router = spawn_router(&[backends[0].addr(), backends[1].addr()]);

    // 1000 connections pipeline one submit-and-wait frame each, all open at
    // once — the single nonblocking event loop must multiplex every one of
    // them. Four distinct specs, so dedupe collapses the fan-in to four jobs.
    const CLIENTS: usize = 1_000;
    let mut streams = Vec::with_capacity(CLIENTS);
    for i in 0..CLIENTS {
        let mut stream = raw_connect(router.addr());
        let submit = frame(
            "submit",
            vec![
                ("job".to_string(), specs[i % specs.len()].to_json()),
                ("wait".to_string(), Json::Bool(true)),
                ("timeout_ms".to_string(), Json::U64(300_000)),
            ],
        );
        write_frame(&mut stream, &submit).expect("submit frame written");
        streams.push(stream);
    }

    for (i, stream) in streams.iter_mut().enumerate() {
        stream
            .set_read_timeout(Some(Duration::from_secs(300)))
            .expect("read timeout set");
        let stall = Duration::from_secs(300);
        let accepted = read_frame(&mut *stream, stall)
            .expect("accepted frame arrives")
            .expect("connection stays open");
        assert_eq!(frame_type(&accepted), "accepted", "client {i}: {accepted}");
        let result = read_frame(&mut *stream, stall)
            .expect("result frame arrives")
            .expect("connection stays open");
        assert_eq!(frame_type(&result), "result", "client {i}: {result}");
        let report = result.field("result").expect("result body");
        assert_eq!(
            report.to_string(),
            offline[i % specs.len()],
            "client {i}: routed bytes must match the offline sweep"
        );
    }
    drop(streams);

    // The router saw the full fan-in but collapsed it to one job per spec,
    // and memory stayed bounded: nothing pending, queues within capacity.
    let mut admin = connect(router.addr());
    let stats = admin.stats(Duration::from_secs(5)).expect("stats");
    let counters = stats
        .field("metrics")
        .and_then(|m| m.field("counters"))
        .expect("metrics counters");
    let accepted = counters
        .field("jobs_accepted")
        .expect("accepted counter")
        .as_u64()
        .expect("u64");
    let deduped = counters
        .field("jobs_deduped")
        .expect("deduped counter")
        .as_u64()
        .expect("u64");
    assert_eq!(accepted, specs.len() as u64, "{stats}");
    assert_eq!(deduped, (CLIENTS - specs.len()) as u64, "{stats}");
    let depth = stats
        .field("queue_depth")
        .expect("depth gauge")
        .as_u64()
        .expect("u64");
    assert_eq!(depth, 0, "everything drained: {stats}");

    admin.shutdown(Duration::from_secs(5)).expect("drain ack");
    router
        .join_within(Duration::from_secs(30))
        .expect("router exits after drain")
        .expect("clean exit");
    for backend in backends {
        drain(backend);
    }
}

#[test]
fn a_dead_backend_is_evicted_and_fresh_jobs_land_elsewhere_byte_identically() {
    let survivor = spawn_backend();
    let victim = spawn_backend();
    let router = spawn_router(&[survivor.addr(), victim.addr()]);
    let mut client = connect(router.addr());

    // Warm path: the router forwards fine with both backends up.
    let warm = spec(AppId::Kafka, 600);
    let warm_offline = run_sweep(&warm, &Engine::new(2)).to_json();
    let outcome = client
        .submit_and_wait(&warm, None, Duration::from_secs(120))
        .expect("warm job completes");
    assert_eq!(outcome.report.to_string(), warm_offline);

    // Kill one backend mid-stream: drain it directly (drain-aware eviction
    // kicks in first), then its listener disappears entirely.
    drain(victim);

    // The health prober must evict it from placement.
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let stats = client.stats(Duration::from_secs(5)).expect("stats");
        let backends = match stats.field("backends").expect("backends array") {
            Json::Arr(items) => items.clone(),
            other => panic!("backends should be an array, got {other}"),
        };
        let evicted = backends.iter().any(|b| {
            b.field("healthy").ok().and_then(Json::as_bool) == Some(false)
                || b.field("draining").ok().and_then(Json::as_bool) == Some(true)
        });
        if evicted {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "health probing never evicted the dead backend: {stats}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Fresh jobs — whichever backend their ring position prefers — must all
    // land on the survivor with offline-identical bytes.
    for (i, app) in [AppId::Mysql, AppId::Postgres, AppId::Tomcat, AppId::Drupal]
        .into_iter()
        .enumerate()
    {
        let s = spec(app, 500 + i * 40);
        let offline = run_sweep(&s, &Engine::new(3)).to_json();
        let outcome = client
            .submit_and_wait(&s, None, Duration::from_secs(120))
            .expect("failover lands the job on the survivor");
        assert_eq!(
            outcome.report.to_string(),
            offline,
            "failover must not change a byte"
        );
    }

    client.shutdown(Duration::from_secs(5)).expect("drain ack");
    router
        .join_within(Duration::from_secs(30))
        .expect("router exits after drain")
        .expect("clean exit");
    drain(survivor);
}

#[test]
fn router_shutdown_drains_in_flight_forwards_and_leaves_backends_serving() {
    // The backend runs the real sweep, but only once the gate opens, so
    // the forward is provably in flight when the drain begins.
    let gate = Arc::new(Gate::default());
    let runner_gate = Arc::clone(&gate);
    let backend = Server::bind_with_runner(
        ServerConfig::builder().jobs(1).build(),
        Box::new(move |spec, engine| {
            runner_gate.wait_open();
            run_sweep(spec, engine).to_json()
        }),
    )
    .expect("backend binds on loopback")
    .spawn()
    .expect("backend spawns");
    let router = spawn_router(&[backend.addr()]);

    // A waiter blocks on a job from its own connection; the job is held at
    // the backend's gate until the draining router has refused new work.
    let slow = spec(AppId::Wordpress, 4_000);
    let slow_offline = run_sweep(&slow, &Engine::new(2)).to_json();
    let router_addr = router.addr();
    let waiter_spec = slow.clone();
    let waiter = std::thread::spawn(move || {
        let mut c = Client::connect(router_addr, Duration::from_secs(5)).expect("connect");
        c.submit_and_wait(&waiter_spec, None, Duration::from_secs(120))
    });

    // Give the submit a moment to be admitted, then drain the router.
    let mut admin = connect(router.addr());
    let admit_deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = admin.stats(Duration::from_secs(5)).expect("stats");
        // The counter only appears once the first job is admitted.
        let accepted = stats
            .field("metrics")
            .and_then(|m| m.field("counters"))
            .and_then(|c| c.field("jobs_accepted"))
            .ok()
            .and_then(|v| v.as_u64());
        if accepted == Some(1) {
            break;
        }
        assert!(
            Instant::now() < admit_deadline,
            "the waiter's job was never admitted: {stats}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    admin.shutdown(Duration::from_secs(5)).expect("drain ack");

    // New work is refused while draining...
    let err = admin
        .submit(&spec(AppId::Kafka, 300), None, Duration::from_secs(5))
        .expect_err("draining router refuses new work");
    assert!(matches!(err, ClientError::Busy { .. }), "{err}");
    gate.open();

    // ...but the in-flight forward completes and its waiter gets the bytes.
    let outcome = waiter
        .join()
        .expect("waiter thread exits")
        .expect("in-flight forward drains to completion");
    assert_eq!(outcome.report.to_string(), slow_offline);

    router
        .join_within(Duration::from_secs(60))
        .expect("router exits after the drain")
        .expect("clean exit");

    // The backends are the router's to use, not to own: the daemon is still
    // up and serving byte-identical results directly.
    let mut direct = connect(backend.addr());
    let again = direct
        .submit_and_wait(&slow, None, Duration::from_secs(120))
        .expect("backend still serves after the router drained");
    assert!(again.deduped, "the backend still remembers the routed job");
    assert_eq!(again.report.to_string(), slow_offline);
    direct.shutdown(Duration::from_secs(5)).expect("drain ack");
    backend
        .join_within(Duration::from_secs(30))
        .expect("backend exits")
        .expect("clean exit");
}
