//! `ipassd` load harness: request throughput and latency over a real
//! loopback TCP connection against the serving layer, on the protocol's
//! reference `demo` flow.
//!
//! Two planes are recorded into the committed `BENCH_serve.json`:
//!
//! * **throughput** — each measured iteration drives `CLIENTS`
//!   concurrent connections through `PER_CLIENT` blocking round-trips;
//!   with `Throughput::Elements(total requests)` the baseline's
//!   `ns_per_elem` is mean ns *per request*, so the CI gate's ratio is a
//!   direct requests/second regression bound.
//! * **latency** — a pre-measured single-client pass records p50/p99
//!   round-trip nanoseconds into the case metadata (`p50_ns`/`p99_ns`).
//!
//! `analyze` queries hit the compiled-program cache (the analytic
//! fast path); `mc_2000` runs a 2000-unit derived-seed Monte Carlo per
//! request (the compute-bound path, where the `--threads` gate binds).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ipass_serve::{testflow, Client, FlowRegistry, Server, ServerConfig};
use std::net::SocketAddr;
use std::time::Instant;

const CLIENTS: usize = 4;
const PER_CLIENT: usize = 16;
const LATENCY_SAMPLES: usize = 120;

fn boot() -> Server {
    let mut registry = FlowRegistry::new();
    registry.register("demo", testflow::demo_flow());
    Server::start(registry, "127.0.0.1:0", ServerConfig::default()).expect("bind loopback")
}

/// One load round: `CLIENTS` threads, each a persistent connection
/// driving `PER_CLIENT` blocking round-trips of `request`.
fn round(addr: SocketAddr, request: &str) {
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..PER_CLIENT {
                    let resp = client.request(request).expect("round-trip");
                    assert!(resp.starts_with(r#"{"ok":true"#), "load answer: {resp}");
                }
            });
        }
    });
}

/// Single-client p50/p99 round-trip latency in nanoseconds (cache and
/// connection warm — the steady-state figure, not the cold start).
fn latency_ns(addr: SocketAddr, request: &str) -> (f64, f64) {
    let mut client = Client::connect(addr).expect("connect");
    for _ in 0..8 {
        client.request(request).expect("warm-up");
    }
    let mut samples: Vec<u64> = (0..LATENCY_SAMPLES)
        .map(|_| {
            let start = Instant::now();
            client.request(request).expect("round-trip");
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    let pick = |p: f64| samples[((samples.len() - 1) as f64 * p).round() as usize] as f64;
    (pick(0.50), pick(0.99))
}

fn bench_serve_load(c: &mut Criterion) {
    let cases: &[(&str, &str)] = &[
        ("analyze", r#"{"verb":"analyze","flow":"demo"}"#),
        (
            "mc_2000",
            r#"{"verb":"mc","flow":"demo","units":2000,"seed":42}"#,
        ),
    ];
    let mut group = c.benchmark_group("serve_load");
    group.threads(ServerConfig::default().threads);
    group.throughput(Throughput::Elements((CLIENTS * PER_CLIENT) as u64));
    for (name, request) in cases {
        let server = boot();
        let addr = server.addr();
        let (p50, p99) = latency_ns(addr, request);
        group.latency_ns(p50, p99);
        group.bench_function(name, |b| b.iter(|| round(addr, request)));
        server.shutdown();
        server.join();
    }
    group.finish();
}

criterion_group!(
    name = serve;
    config = fast();
    targets = bench_serve_load
);

fn fast() -> Criterion {
    Criterion::default()
        .sample_size(15)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
}

criterion_main!(serve);
