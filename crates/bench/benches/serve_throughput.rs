//! **PR 2 serving bench** — drives the `opine-server` subsystem over
//! loopback TCP with concurrent keep-alive clients and measures:
//!
//! 1. *Correctness*: every HTTP response body is byte-identical to the
//!    library-path serialization (`render_query_body` straight against
//!    the shared `OpineDb`).
//! 2. *Warm throughput*: N client threads issuing the paper's running
//!    example against the result cache (req/s).
//! 3. *Pipelined throughput*: the same with HTTP pipelining, which
//!    amortizes per-request round-trips.
//! 4. *Cold / uncached latency*: the result cache disabled, so every
//!    request executes the full query path.
//! 5. *Overload (PR 6)*: a deliberately small admission budget driven at
//!    2× its sustained capacity — excess arrivals must shed with
//!    taxonomy 503s while the p99 of *admitted* requests stays within
//!    5× of its uncontended value.
//!
//! The measured numbers are printed; the repo's benchmark record is the
//! `benchmark/` harness.

use criterion::{criterion_group, criterion_main, Criterion};
use opine_bench::banner;
use opine_core::{build, BuildConfig, OpineDb};
use opine_corpus::hotel::hotel_spec;
use opine_corpus::{Corpus, CorpusConfig};
use opine_embed::Word2VecConfig;
use opine_server::{render_query_body, HttpClient, OpineServer, ServerConfig};
use opine_store::parse_select;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DB_ENTITIES: usize = 512;
const CLIENTS: usize = 4;
const MEASURE_WINDOW: Duration = Duration::from_millis(1500);

const RUNNING_EXAMPLE: &str =
    "select * from hotels where price_pn < 150 and \"clean rooms\" limit 10";
const PURE_SUBJECTIVE: &str =
    "select * from hotels where \"clean rooms\" and \"friendly staff\" limit 10";
const PROJECTED: &str =
    "select hotelname, price_pn from hotels where price_pn < 200 order by price_pn asc limit 10";

fn serving_db(entities: usize) -> Arc<OpineDb> {
    let corpus = Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities: entities,
            mean_reviews: 6,
            seed: 11,
        },
    );
    Arc::new(build(
        &corpus,
        &BuildConfig {
            w2v: Word2VecConfig {
                dim: 32,
                epochs: 1,
                ..Default::default()
            },
            membership_tuples: 600,
            ..Default::default()
        },
    ))
}

fn query_body(sql: &str) -> String {
    format!("{{\"sql\": {}}}", opine_server::json::escaped(sql))
}

/// One request, transparently reconnecting when the server closes the
/// connection at its keep-alive budget.
fn request_with_retry(
    client: &mut HttpClient,
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> opine_server::ClientResponse {
    loop {
        match client.request(method, path, body) {
            Ok(resp) => return resp,
            Err(_) => *client = HttpClient::connect(addr).expect("reconnect"),
        }
    }
}

/// Asserts the wire bytes equal the library-path serialization.
fn assert_byte_identical(db: &OpineDb, client: &mut HttpClient, sql: &str) {
    let resp = client.post("/query", &query_body(sql)).expect("request");
    assert_eq!(resp.status, 200, "{sql}: {}", resp.body);
    let select = parse_select(sql).expect("valid SQL");
    let reference = render_query_body(db, &select).expect("library path");
    assert_eq!(
        resp.body, reference,
        "{sql}: served bytes must equal library-path execution"
    );
}

/// Total requests served by `clients` keep-alive connections hammering
/// `sql` for `window`. Every response is checked for 200 + expected body.
fn drive(addr: std::net::SocketAddr, clients: usize, sql: &str, window: Duration) -> u64 {
    let body = query_body(sql);
    let deadline = Instant::now() + window;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let body = body.clone();
                s.spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("connect");
                    let mut served = 0u64;
                    while Instant::now() < deadline {
                        // The server closes connections at its keep-alive
                        // budget; reconnect and retry like a real client.
                        match client.post("/query", &body) {
                            Ok(resp) => {
                                assert_eq!(resp.status, 200);
                                served += 1;
                            }
                            Err(_) => client = HttpClient::connect(addr).expect("reconnect"),
                        }
                    }
                    served
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

/// Like [`drive`] but pipelining `depth` requests per round-trip.
fn drive_pipelined(
    addr: std::net::SocketAddr,
    clients: usize,
    sql: &str,
    depth: usize,
    window: Duration,
) -> u64 {
    let body = query_body(sql);
    let deadline = Instant::now() + window;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let body = body.clone();
                s.spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("connect");
                    let mut served = 0u64;
                    while Instant::now() < deadline {
                        match client.pipeline("POST", "/query", &body, depth) {
                            Ok(responses) => {
                                assert!(responses.iter().all(|r| r.status == 200));
                                served += responses.len() as u64;
                            }
                            Err(_) => client = HttpClient::connect(addr).expect("reconnect"),
                        }
                    }
                    served
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

/// Hammers an admission-limited server: every client loops blocking
/// requests for `window`, recording admitted-request latencies (µs) and
/// counting shed 503s. Any status besides 200/503, any 503 without the
/// `shed` taxonomy code, or any admitted body differing from `reference`
/// panics the driving thread.
fn drive_overload(
    addr: std::net::SocketAddr,
    clients: usize,
    sql: &str,
    reference: &str,
    window: Duration,
) -> (Vec<u64>, u64) {
    let body = query_body(sql);
    let deadline = Instant::now() + window;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let body = body.clone();
                s.spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("connect");
                    let mut latencies = Vec::new();
                    let mut shed = 0u64;
                    while Instant::now() < deadline {
                        let start = Instant::now();
                        match client.post("/query", &body) {
                            Ok(resp) if resp.status == 200 => {
                                assert_eq!(resp.body, reference, "admitted answers must not drift");
                                latencies.push(start.elapsed().as_micros() as u64);
                            }
                            Ok(resp) => {
                                assert_eq!(resp.status, 503, "only 503 may refuse: {}", resp.body);
                                assert!(
                                    resp.body.contains("\"code\":\"shed\""),
                                    "503 must carry the shed taxonomy code: {}",
                                    resp.body
                                );
                                assert!(
                                    resp.header("retry-after").is_some(),
                                    "shed responses must set Retry-After"
                                );
                                shed += 1;
                            }
                            Err(_) => client = HttpClient::connect(addr).expect("reconnect"),
                        }
                    }
                    (latencies, shed)
                })
            })
            .collect();
        let mut all = Vec::new();
        let mut shed = 0u64;
        for h in handles {
            let (lat, s) = h.join().unwrap();
            all.extend(lat);
            shed += s;
        }
        (all, shed)
    })
}

/// p99 by sort (the sample sizes here are a few thousand at most).
fn p99_us(latencies: &mut [u64]) -> u64 {
    assert!(!latencies.is_empty(), "no admitted requests sampled");
    latencies.sort_unstable();
    let rank = ((latencies.len() as f64) * 0.99).ceil() as usize;
    latencies[rank.saturating_sub(1)]
}

fn bench(c: &mut Criterion) {
    banner("PR 2: opine-server — concurrent loopback serving throughput");
    let measuring = std::env::args().any(|a| a == "--bench");

    let db = serving_db(if measuring { DB_ENTITIES } else { 32 });
    let server = OpineServer::bind(
        "127.0.0.1:0",
        db.clone(),
        ServerConfig {
            workers: CLIENTS,
            // Throughput scenarios measure the serving path, not
            // admission: keep the budget above the client count so no
            // request sheds (the overload scenario below does the
            // opposite on purpose).
            max_in_flight: CLIENTS * 4,
            ..Default::default()
        },
    )
    .expect("bind loopback server");
    let addr = server.local_addr();
    let workers = server.workers();

    // ---- correctness first: wire bytes == library path, all shapes ----
    let mut checker = HttpClient::connect(addr).expect("connect");
    for sql in [RUNNING_EXAMPLE, PURE_SUBJECTIVE, PROJECTED] {
        assert_byte_identical(&db, &mut checker, sql);
    }
    println!("correctness: 3 query shapes byte-identical to library-path execution");

    if !measuring {
        println!("smoke mode: correctness checks only, no timings recorded");
        let mut group = c.benchmark_group("serve_throughput");
        group.bench_function("warm_query_http", |b| {
            b.iter(|| {
                black_box(
                    checker
                        .post("/query", &query_body(RUNNING_EXAMPLE))
                        .unwrap(),
                )
            })
        });
        group.finish();
        return;
    }

    // ---- warm throughput: result cache hot, N concurrent clients ----
    let warmup = drive(addr, CLIENTS, RUNNING_EXAMPLE, Duration::from_millis(300));
    assert!(warmup > 0);
    let warm_served = drive(addr, CLIENTS, RUNNING_EXAMPLE, MEASURE_WINDOW);
    let warm_rps = warm_served as f64 / MEASURE_WINDOW.as_secs_f64();

    let piped_served = drive_pipelined(addr, CLIENTS, RUNNING_EXAMPLE, 32, MEASURE_WINDOW);
    let piped_rps = piped_served as f64 / MEASURE_WINDOW.as_secs_f64();

    // ---- warm single-client latency ----
    let body = query_body(RUNNING_EXAMPLE);
    let iters = 500;
    let start = Instant::now();
    for _ in 0..iters {
        black_box(request_with_retry(
            &mut checker,
            addr,
            "POST",
            "/query",
            Some(&body),
        ));
    }
    let warm_latency_us = start.elapsed().as_secs_f64() / iters as f64 * 1e6;

    // ---- uncached serving: every request runs the full query path ----
    let uncached = OpineServer::bind(
        "127.0.0.1:0",
        db.clone(),
        ServerConfig {
            workers: CLIENTS,
            max_in_flight: CLIENTS * 4,
            result_cache_capacity: 0,
            ..Default::default()
        },
    )
    .expect("bind uncached server");
    // Prime the *engine* caches so this measures execution + serialization,
    // not one-time interpretation.
    let _ = drive(
        uncached.local_addr(),
        1,
        RUNNING_EXAMPLE,
        Duration::from_millis(200),
    );
    let uncached_served = drive(
        uncached.local_addr(),
        CLIENTS,
        RUNNING_EXAMPLE,
        MEASURE_WINDOW,
    );
    let uncached_rps = uncached_served as f64 / MEASURE_WINDOW.as_secs_f64();
    uncached.shutdown();

    // ---- overload: 2× sustained capacity against a small admission
    // budget. Shedding must absorb the excess (taxonomy 503s) and the
    // p99 of *admitted* requests must stay within 5× of uncontended.
    const OVERLOAD_BUDGET: usize = 2;
    let overload = OpineServer::bind(
        "127.0.0.1:0",
        db.clone(),
        ServerConfig {
            workers: CLIENTS,
            max_in_flight: OVERLOAD_BUDGET,
            // Uncached so every admitted request pays real execution —
            // a cache-hit overload test would measure nothing.
            result_cache_capacity: 0,
            ..Default::default()
        },
    )
    .expect("bind overload server");
    let overload_addr = overload.local_addr();
    let select = parse_select(RUNNING_EXAMPLE).expect("valid SQL");
    let reference = render_query_body(&db, &select).expect("library path");
    // Prime engine caches, then measure uncontended p99 at exactly the
    // admission budget (no shedding, no queueing).
    let _ = drive(
        overload_addr,
        1,
        RUNNING_EXAMPLE,
        Duration::from_millis(200),
    );
    // On a single-core container, blocking clients serialize naturally
    // and requests never overlap in execution — no offered load would
    // ever shed. A delay-only failpoint pins each admitted execution at
    // 5 ms (sleeping, so workers genuinely overlap), giving the budget
    // a real sustained capacity to drive past. Armed for *both* the
    // uncontended and the 2× measurement so the p99 comparison is
    // apples to apples.
    opine_core::faults::configure("pre_ta=delay:5@1.0", 11).expect("valid overload spec");
    let (mut base_lat, base_shed) = drive_overload(
        overload_addr,
        OVERLOAD_BUDGET,
        RUNNING_EXAMPLE,
        &reference,
        MEASURE_WINDOW,
    );
    let base_p99_us = p99_us(&mut base_lat);
    assert_eq!(base_shed, 0, "at-capacity load must not shed");
    // Now 2× the budget: half the offered concurrency is excess.
    let (mut over_lat, over_shed) = drive_overload(
        overload_addr,
        OVERLOAD_BUDGET * 2,
        RUNNING_EXAMPLE,
        &reference,
        MEASURE_WINDOW,
    );
    let over_p99_us = p99_us(&mut over_lat);
    let admitted = over_lat.len() as u64;
    opine_core::faults::clear();
    overload.shutdown();
    assert!(
        over_shed > 0,
        "2× overload must shed the excess, served all {admitted} instead"
    );
    assert!(
        over_p99_us <= base_p99_us.max(1) * 5,
        "admitted p99 under overload ({over_p99_us} µs) must stay within 5× of \
         uncontended ({base_p99_us} µs) — admission control is not isolating load"
    );

    println!(
        "serving {DB_ENTITIES}-entity db, {workers} workers, {CLIENTS} clients:\n\
         \x20 warm (result cache)    {warm_rps:>10.0} req/s\n\
         \x20 warm pipelined (×32)   {piped_rps:>10.0} req/s\n\
         \x20 uncached execution     {uncached_rps:>10.0} req/s\n\
         \x20 warm latency           {warm_latency_us:>10.1} µs/req (single client)\n\
         \x20 overload (budget {OVERLOAD_BUDGET}, 2×): p99 {base_p99_us} µs → {over_p99_us} µs, \
         {admitted} admitted, {over_shed} shed",
    );
    assert!(
        warm_rps >= 1000.0,
        "acceptance: warm serving must exceed 1k req/s, got {warm_rps:.0}"
    );

    // ---- criterion samples ----
    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(20);
    group.bench_function("warm_query_http", |b| {
        b.iter(|| {
            black_box(request_with_retry(
                &mut checker,
                addr,
                "POST",
                "/query",
                Some(&body),
            ))
        })
    });
    group.bench_function("stats_endpoint", |b| {
        b.iter(|| {
            black_box(request_with_retry(
                &mut checker,
                addr,
                "GET",
                "/stats",
                None,
            ))
        })
    });
    group.finish();

    server.shutdown();
}

criterion_group!(benches, bench);
criterion_main!(benches);
