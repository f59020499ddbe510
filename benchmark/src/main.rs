//! Loopback-HTTP benchmark for OpineDB.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload search_tail --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Builds a seeded hotel corpus, serves it with `OpineServer` under
//! `ServerConfig::default()`, drives one workload from this process over
//! loopback HTTP, checks the answers, and prints one JSON object as the
//! last line of standard output. `--trace 0` reports the end-to-end
//! metrics, timed at the client. `--trace 1` reports the per-layer
//! metrics: it spends half the measured time untraced, then the other
//! half against a fresh server while replaying each request in-process
//! on an identically built replica inside benchmark-owned spans. See
//! `benchmark/README.md`.

mod spans;
mod stats;
mod workload;

use opine_bench::{bench_build_config, opine_rank};
use opine_core::{build, CacheReport, OpineDb};
use opine_corpus::Corpus;
use opine_eval::{workload_quality, ObjectiveFilter};
use opine_server::{render_query_body, ClientResponse, HttpClient, OpineServer, ServerConfig};
use opine_store::{parse_insert, parse_select, parse_statement, Statement};
use spans::{attribute, write_spans, Span, SpanLog};
use stats::{git_revision, peak_rss_mb, percentile};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Batch, Query, Workload, BATCH_ROWS, INSERT_MARK, INSERT_RATE, K};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// One in this many successful `search_tail` answers is kept and
/// compared byte-for-byte with `render_query_body` after the window.
const SAMPLE_ONE_IN: u64 = 24;
/// Where records and span files go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(flag.trim_start_matches("--").to_string(), value.clone());
            }
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        }
    }
    let get = |name: &str| {
        flags
            .get(name)
            .ok_or_else(|| format!("missing --{name}"))
            .map(String::as_str)
    };
    let number = |name: &str| {
        get(name)?
            .parse::<u64>()
            .map_err(|e| format!("--{name}: {e}"))
    };
    let workload = get("workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: number("seed")?,
        seconds: number("seconds")?.max(1),
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    })
}

/// The seeded inputs of one run.
struct Inputs {
    workload: Workload,
    seed: u64,
    /// `search_tail` stream, or the `ingest_mixed` reader stream.
    stream: Vec<Query>,
    /// `search_head` pool and its popularity CDF.
    pool: Vec<Query>,
    cdf: Vec<f64>,
    /// Predicates interpreted during warm-up.
    bank: Vec<String>,
    /// Statements whose NDCG@10 the run reports.
    ndcg: Vec<Query>,
}

impl Inputs {
    fn new(workload: Workload, seed: u64) -> Inputs {
        let texts = |bank: Vec<opine_corpus::WorkloadPredicate>| -> Vec<String> {
            bank.into_iter().map(|p| p.text).collect()
        };
        let spec = opine_corpus::hotel::hotel_spec();
        match workload {
            Workload::SearchTail => {
                let stream = workload::tail_stream(seed, workload::TAIL_STREAM);
                let ndcg = stream[..workload::NDCG_QUERIES].to_vec();
                Inputs {
                    workload,
                    seed,
                    stream,
                    pool: Vec::new(),
                    cdf: Vec::new(),
                    bank: texts(opine_corpus::workload::build_workload(
                        &spec,
                        workload::TAIL_BANK,
                    )),
                    ndcg,
                }
            }
            Workload::SearchHead => {
                let pool = workload::head_pool(seed);
                Inputs {
                    workload,
                    seed,
                    stream: Vec::new(),
                    ndcg: pool.clone(),
                    pool,
                    cdf: workload::zipf_cdf(),
                    bank: Vec::new(),
                }
            }
            Workload::IngestMixed => Inputs {
                workload,
                seed,
                stream: workload::reader_stream(seed, workload::READER_STREAM),
                pool: Vec::new(),
                cdf: Vec::new(),
                bank: texts(opine_corpus::workload::hotel_workload(&spec)),
                ndcg: workload::tail_stream(seed, workload::NDCG_QUERIES),
            },
        }
    }

    /// Request `i` of the read stream.
    fn query(&self, i: u64) -> (&Query, Option<usize>) {
        match self.workload {
            Workload::SearchHead => {
                let slot = workload::head_pick(&self.cdf, self.seed, i);
                (&self.pool[slot], Some(slot))
            }
            _ => (&self.stream[(i % self.stream.len() as u64) as usize], None),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    corpus: f64,
    build: f64,
    bind: f64,
    warm: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.corpus + self.build + self.bind + self.warm
    }
}

struct System {
    corpus: Corpus,
    db: Arc<OpineDb>,
    server: OpineServer,
    times: SetupTimes,
}

/// A keep-alive connection that reconnects after `connection: close`
/// and after transport errors.
struct Conn {
    addr: SocketAddr,
    client: Option<HttpClient>,
    opened: bool,
    reconnects: u64,
}

impl Conn {
    fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            client: None,
            opened: false,
            reconnects: 0,
        }
    }

    fn post(&mut self, path: &str, body: &str) -> std::io::Result<ClientResponse> {
        if self.client.is_none() {
            if self.opened {
                self.reconnects += 1;
            }
            self.opened = true;
            self.client = Some(HttpClient::connect(self.addr)?);
        }
        let response = self.client.as_mut().expect("connected").post(path, body);
        let closing = match &response {
            Ok(r) => r
                .header("connection")
                .is_some_and(|v| v.eq_ignore_ascii_case("close")),
            Err(_) => true,
        };
        if closing {
            self.client = None;
        }
        response
    }
}

fn parse_select_sql(sql: &str) -> opine_store::Select {
    match parse_statement(sql).expect("generated SQL parses") {
        Statement::Select(select) => select,
        other => panic!("generated statement is not a SELECT: {other:?}"),
    }
}

/// Warm-up: interpret the workload's predicate bank, or (search_head)
/// answer every pool statement once, over HTTP when `server` is given.
fn warm(inputs: &Inputs, db: &OpineDb, server: Option<&OpineServer>) {
    for predicate in &inputs.bank {
        black_box(db.interpret(predicate));
    }
    let mut conn = server.map(|s| Conn::new(s.local_addr()));
    for query in &inputs.pool {
        match conn.as_mut() {
            Some(conn) => {
                let r = conn.post("/query", &query.body).expect("warm-up request");
                assert_eq!(r.status, 200, "warm-up {}: {}", query.sql, r.body);
            }
            None => {
                black_box(render_query_body(db, &parse_select_sql(&query.sql)).expect("warm-up"));
            }
        }
    }
}

fn build_db(corpus: &Corpus) -> Arc<OpineDb> {
    Arc::new(build(corpus, &bench_build_config()))
}

fn setup(inputs: &Inputs) -> System {
    let t0 = Instant::now();
    let corpus = workload::corpus(inputs.seed);
    let t1 = Instant::now();
    let db = build_db(&corpus);
    let t2 = Instant::now();
    let server = OpineServer::bind("127.0.0.1:0", db.clone(), ServerConfig::default())
        .expect("bind loopback server");
    let t3 = Instant::now();
    warm(inputs, &db, Some(&server));
    let t4 = Instant::now();
    System {
        corpus,
        db,
        server,
        times: SetupTimes {
            corpus: (t1 - t0).as_secs_f64(),
            build: (t2 - t1).as_secs_f64(),
            bind: (t3 - t2).as_secs_f64(),
            warm: (t4 - t3).as_secs_f64(),
        },
    }
}

/// What one window (or probe) observed.
#[derive(Default)]
struct Window {
    elapsed_s: f64,
    attempted: u64,
    failed: u64,
    /// Failures by cause (`status 500: …`, `transport: …`, `wrong body`).
    failures: BTreeMap<String, u64>,
    /// Responses whose body failed a check (also counted as failed).
    wrong_bodies: u64,
    query_ms: Vec<f64>,
    insert_ms: Vec<f64>,
    /// How late the open-loop writer sent each batch, ms.
    lateness_ms: Vec<f64>,
    /// `(stream index, body)` of sampled search answers.
    samples: Vec<(u64, String)>,
    /// `(batch id, receipt epoch)` of acknowledged inserts, in order.
    acked: Vec<(u64, u64)>,
    reconnects: u64,
    spans: Vec<Span>,
}

impl Window {
    fn merge(&mut self, other: Window) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, v) in other.failures {
            *self.failures.entry(k).or_insert(0) += v;
        }
        self.wrong_bodies += other.wrong_bodies;
        self.query_ms.extend(other.query_ms);
        self.insert_ms.extend(other.insert_ms);
        self.lateness_ms.extend(other.lateness_ms);
        self.samples.extend(other.samples);
        self.acked.extend(other.acked);
        self.reconnects += other.reconnects;
        self.spans.extend(other.spans);
    }

    fn fail(&mut self, cause: String) {
        self.failed += 1;
        *self.failures.entry(cause).or_insert(0) += 1;
    }
}

fn failure_cause(response: &std::io::Result<ClientResponse>) -> String {
    match response {
        Ok(r) => {
            let message: String = r.body.chars().take(120).collect();
            format!("status {}: {message}", r.status)
        }
        Err(e) => format!("transport: {:?}", e.kind()),
    }
}

fn well_formed(body: &str) -> bool {
    body.starts_with("{\"columns\":[") && body.contains("\"row_count\":")
}

/// The load generator's view of one run: where to send, what to expect,
/// and (traced runs) the replica to replay on.
struct Driver<'a> {
    inputs: &'a Inputs,
    addr: SocketAddr,
    /// Expected body per head-pool slot.
    expected: Vec<String>,
    replica: Option<&'a OpineDb>,
    /// Candidate entities per objective filter (the replica's top-k
    /// restriction, like the engine's pushdown bitmap).
    candidates: BTreeMap<&'static str, Vec<bool>>,
    origin: Instant,
}

impl<'a> Driver<'a> {
    fn new(inputs: &'a Inputs, sys: &System, replica: Option<&'a OpineDb>) -> Driver<'a> {
        Driver {
            inputs,
            addr: sys.server.local_addr(),
            expected: expected_bodies(inputs, &sys.db),
            replica,
            candidates: match replica {
                Some(_) => candidate_masks(&sys.corpus),
                None => BTreeMap::new(),
            },
            origin: Instant::now(),
        }
    }

    fn log(&self, thread: u64) -> SpanLog {
        SpanLog::new(self.origin, thread, self.replica.is_some())
    }

    /// One closed-loop search client.
    fn search_client(&self, thread: u64, next: &AtomicU64, deadline: Instant) -> Window {
        let mut out = Window::default();
        let mut conn = Conn::new(self.addr);
        let mut log = self.log(thread);
        while Instant::now() < deadline {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let (query, slot) = self.inputs.query(i);
            let root = log.open("request", i, 0);
            let http = log.open("http", i, root);
            let started = Instant::now();
            let response = conn.post("/query", &query.body);
            let latency = started.elapsed();
            log.close(http);
            out.attempted += 1;
            match &response {
                Ok(r) if r.status == 200 => {
                    let good = match slot {
                        Some(slot) => r.body == self.expected[slot],
                        None => well_formed(&r.body),
                    };
                    if !good {
                        out.wrong_bodies += 1;
                        out.fail("read: wrong body".into());
                    } else {
                        out.query_ms.push(latency.as_secs_f64() * 1e3);
                        log.rename(http, "http.query");
                        if slot.is_none()
                            && self.inputs.workload == Workload::SearchTail
                            && workload::mix(self.inputs.seed ^ 0x5a3, i)
                                .is_multiple_of(SAMPLE_ONE_IN)
                        {
                            out.samples.push((i, r.body.clone()));
                        }
                        if let Some(replica) = self.replica {
                            let hit = r.header("x-opine-cache") == Some("hit");
                            self.replay_query(&mut log, i, root, replica, query, hit);
                        }
                    }
                }
                _ => {
                    let kind = if query.qualifier.is_some() {
                        "qualified read"
                    } else {
                        "read"
                    };
                    out.fail(format!("{kind}: {}", failure_cause(&response)));
                }
            }
            log.close(root);
        }
        out.reconnects = conn.reconnects;
        out.spans = log.spans;
        out
    }

    /// The work of one search request, call by call, on the replica:
    /// the statement parse, then (unless the server answered from its
    /// result cache, which it checks after parsing) cold interpretation
    /// and column builds, the top-k pass, and the whole statement on the
    /// now-warm caches.
    fn replay_query(
        &self,
        log: &mut SpanLog,
        i: u64,
        root: u64,
        db: &OpineDb,
        query: &Query,
        cache_hit: bool,
    ) {
        let replica = log.open("replica", i, root);
        let select = log.time("store.parse", i, replica, || parse_select_sql(&query.sql));
        if cache_hit {
            log.close(replica);
            return;
        }
        let predicates = query.predicates();
        for p in &predicates {
            log.time("core.interpret", i, replica, || black_box(db.interpret(p)));
        }
        match &query.qualifier {
            Some(qualifier) => {
                log.time("core.summaries_qualified", i, replica, || {
                    black_box(db.summaries_qualified(qualifier))
                });
            }
            None => {
                for p in &predicates {
                    log.time("core.degree_column", i, replica, || {
                        black_box(db.degree_column(p))
                    });
                }
                let mask = self.candidates.get(&query.eval.filter.label());
                let accepts = |e: usize| mask.is_some_and(|m| m[e]);
                let candidates = mask.is_some().then_some(&accepts as _);
                // Cold (the first pass also sorts fresh columns), then warm:
                // query_select_ref below repeats the warm pass.
                for name in ["core.topk", "core.topk_warm"] {
                    log.time(name, i, replica, || {
                        black_box(db.rank_top_k_filtered(&predicates, K, candidates))
                    });
                }
            }
        }
        log.time("core.query", i, replica, || {
            black_box(
                db.query_select_ref(&select)
                    .expect("replica query")
                    .result
                    .len(),
            )
        });
        log.time("core.render", i, replica, || {
            black_box(render_query_body(db, &select).expect("replica render"))
        });
        log.close(replica);
    }

    /// Sends one batch that was due at `due`; latency counts from `due`.
    fn insert(
        &self,
        conn: &mut Conn,
        log: &mut SpanLog,
        batch: &Batch,
        due: Instant,
        out: &mut Window,
    ) {
        let request = (1 << 40) + batch.id;
        let root = log.open("request", request, 0);
        let http = log.open("http", request, root);
        let response = conn.post("/insert", &batch.body);
        let latency = due.elapsed();
        log.close(http);
        out.attempted += 1;
        let receipt = response
            .as_ref()
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| {
                let body = opine_server::json::parse(&r.body).ok()?;
                let inserted = body.get("inserted")?.as_f64()?;
                let epoch = body.get("epoch")?.as_f64()?;
                (inserted as usize == BATCH_ROWS).then_some(epoch as u64)
            });
        match receipt {
            Some(epoch) => {
                log.rename(http, "http.insert");
                out.insert_ms.push(latency.as_secs_f64() * 1e3);
                out.acked.push((batch.id, epoch));
                if let Some(db) = self.replica {
                    let replica = log.open("replica", request, root);
                    let stmt = log.time("store.parse_insert", request, replica, || {
                        parse_insert(&batch.sql).expect("generated INSERT parses")
                    });
                    let write = log.open("core.insert", request, replica);
                    let merged = db.execute_insert(&stmt).expect("replica insert").merged;
                    log.close(write);
                    if merged {
                        log.rename(write, "core.merge");
                    }
                    log.close(replica);
                }
            }
            None => {
                if response.as_ref().is_ok_and(|r| r.status == 200) {
                    out.wrong_bodies += 1;
                }
                out.fail(format!("insert: {}", failure_cause(&response)));
            }
        }
        log.close(root);
    }

    /// The open-loop writer: batch `j` is due at `start + j / rate`.
    fn writer(&self, thread: u64, batches: &[Batch], start: Instant, deadline: Instant) -> Window {
        let mut out = Window::default();
        let mut conn = Conn::new(self.addr);
        let mut log = self.log(thread);
        for (j, batch) in batches.iter().enumerate() {
            let due = start + Duration::from_secs_f64(j as f64 / INSERT_RATE);
            if due >= deadline {
                break;
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            out.lateness_ms
                .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
            self.insert(&mut conn, &mut log, batch, due, &mut out);
        }
        out.reconnects = conn.reconnects;
        out.spans = log.spans;
        out
    }

    /// The read window: `clients` closed-loop readers, plus the
    /// open-loop writer on `ingest_mixed`.
    fn window(&self, clients: usize, length: Duration, batches: &[Batch]) -> Window {
        let next = AtomicU64::new(0);
        let start = Instant::now();
        let deadline = start + length;
        let parts: Vec<Window> = std::thread::scope(|s| {
            let handles: Vec<_> = match self.inputs.workload {
                Workload::IngestMixed => vec![
                    s.spawn(|| self.writer(0, batches, start, deadline)),
                    s.spawn(|| self.search_client(1, &next, deadline)),
                ],
                _ => (0..clients as u64)
                    .map(|t| {
                        let next = &next;
                        s.spawn(move || self.search_client(t, next, deadline))
                    })
                    .collect(),
            };
            handles
                .into_iter()
                .map(|h| h.join().expect("load-generator thread"))
                .collect()
        });
        let mut out = Window {
            elapsed_s: start.elapsed().as_secs_f64(),
            ..Window::default()
        };
        for part in parts {
            out.merge(part);
        }
        out
    }

    /// Closed-loop insert probe after the read window of a search
    /// workload: one batch at a time, each timed from when it was sent.
    fn probe(&self, batches: &[Batch]) -> Window {
        let mut out = Window::default();
        let mut conn = Conn::new(self.addr);
        let mut log = self.log(7);
        for batch in batches {
            self.insert(&mut conn, &mut log, batch, Instant::now(), &mut out);
        }
        out.reconnects = conn.reconnects;
        out.spans = log.spans;
        out
    }
}

/// Byte-for-byte comparison of sampled answers with the library path.
fn check_samples(db: &OpineDb, inputs: &Inputs, samples: &[(u64, String)]) -> Vec<String> {
    samples
        .iter()
        .filter_map(|(i, body)| {
            let (query, _) = inputs.query(*i);
            let select = parse_select(&query.sql).expect("generated SQL parses");
            let reference = render_query_body(db, &select).expect("library path");
            (reference != *body)
                .then(|| format!("served body differs from render_query_body: {}", query.sql))
        })
        .collect()
}

/// After the writes: every acknowledged batch is visible in full, no
/// other marked row exists, the engine counted exactly the acknowledged
/// rows, and receipt epochs strictly increase.
fn check_inserts(db: &OpineDb, before: &CacheReport, acked: &[(u64, u64)]) -> Vec<String> {
    let mut problems = Vec::new();
    let out = db
        .query(&format!(
            "select * from reviews where helpful_votes >= {INSERT_MARK}"
        ))
        .expect("visibility query");
    let column = out
        .result
        .columns
        .iter()
        .position(|c| c.rsplit('.').next() == Some("helpful_votes"))
        .expect("reviews.helpful_votes column");
    let mut rows_per_batch: BTreeMap<u64, usize> = BTreeMap::new();
    for (row, _) in &out.result.rows {
        let mark = row[column].as_f64().expect("numeric helpful_votes") as u64;
        *rows_per_batch.entry(mark - INSERT_MARK).or_insert(0) += 1;
    }
    for (id, _) in acked {
        let visible = rows_per_batch.remove(id).unwrap_or(0);
        if visible != BATCH_ROWS {
            problems.push(format!(
                "acknowledged batch {id}: {visible} of {BATCH_ROWS} rows visible"
            ));
        }
    }
    if !rows_per_batch.is_empty() {
        problems.push(format!(
            "unacknowledged batches visible: {:?}",
            rows_per_batch.keys()
        ));
    }
    let inserted = db.cache_report().inserted_reviews - before.inserted_reviews;
    if inserted != (acked.len() * BATCH_ROWS) as u64 {
        problems.push(format!(
            "inserted_reviews moved by {inserted}, acknowledged {} rows",
            acked.len() * BATCH_ROWS
        ));
    }
    if acked.windows(2).any(|w| w[1].1 <= w[0].1) {
        problems.push("receipt epochs do not strictly increase".into());
    }
    problems
}

fn ndcg10(db: &OpineDb, corpus: &Corpus, queries: &[Query]) -> f64 {
    let evals: Vec<_> = queries.iter().map(|q| q.eval.clone()).collect();
    workload_quality(&evals, corpus, K, |q| opine_rank(db, q, K))
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    percentile(&mut values, 0.5)
}

/// One run's output: metrics in the order they print.
struct Outcome {
    correct: bool,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    record: Vec<(String, String)>,
}

/// Everything a measured window ends with: checks, NDCG, the search
/// workloads' insert probe, and the insert checks.
struct Finished {
    window: Window,
    probe: Window,
    problems: Vec<String>,
    ndcg: f64,
}

fn finish(
    driver: &Driver,
    sys: &System,
    window: Window,
    batches: &[Batch],
    before: &CacheReport,
) -> Finished {
    let mut problems = check_samples(&sys.db, driver.inputs, &window.samples);
    if window.wrong_bodies > 0 {
        problems.push(format!(
            "{} responses had a wrong body",
            window.wrong_bodies
        ));
    }
    let ndcg = ndcg10(&sys.db, &sys.corpus, &driver.inputs.ndcg);
    let probe = match driver.inputs.workload {
        Workload::IngestMixed => Window::default(),
        _ => driver.probe(batches),
    };
    if probe.wrong_bodies > 0 {
        problems.push(format!(
            "{} insert receipts were malformed",
            probe.wrong_bodies
        ));
    }
    let acked: Vec<(u64, u64)> = window.acked.iter().chain(&probe.acked).copied().collect();
    problems.extend(check_inserts(&sys.db, before, &acked));
    Finished {
        window,
        probe,
        problems,
        ndcg,
    }
}

struct Env {
    nproc: usize,
    clients: usize,
    workers: usize,
    revision: String,
}

fn batches_for(inputs: &Inputs, corpus: &Corpus, length: Duration) -> Vec<Batch> {
    let n = match inputs.workload {
        Workload::IngestMixed => (INSERT_RATE * length.as_secs_f64()).ceil() as usize + 1,
        _ => workload::PROBE_BATCHES,
    };
    workload::insert_batches(inputs.seed, corpus, 0, n)
}

fn run_untraced(args: &Args, env: &Env, inputs: &Inputs) -> Outcome {
    let sys = setup(inputs);
    let mut times = vec![sys.times];
    let length = Duration::from_secs(args.seconds);
    let batches = batches_for(inputs, &sys.corpus, length);
    let driver = Driver::new(inputs, &sys, None);
    let before = sys.db.cache_report();
    let window = driver.window(env.clients, length, &batches);
    let done = finish(&driver, &sys, window, &batches, &before);
    // Read before the extra set-ups below, so the peak covers one
    // system and its window.
    let peak_rss = peak_rss_mb();
    let mut record = record_common(args, env, &sys, &done);
    drop(driver);
    drop(sys);
    // More set-ups: `setup_s` is the median of all. On the search
    // workloads each extra system also runs the insert probe, and the
    // insert percentiles are taken over the pooled probes. Insert cost
    // grows with every batch of a probe, so a percentile reads the cost
    // near one position of the probe; one probe gives one noisy sample of
    // that cost, the pool of all probes several.
    let mut extra = Window::default();
    let mut problems = Vec::new();
    for _ in 1..SETUP_REPS {
        let sys = setup(inputs);
        times.push(sys.times);
        if inputs.workload != Workload::IngestMixed {
            let before = sys.db.cache_report();
            let probe = Driver::new(inputs, &sys, None).probe(&batches);
            problems.extend(check_inserts(&sys.db, &before, &probe.acked));
            extra.merge(probe);
        }
    }
    let w = &done.window;
    let mut query_ms = w.query_ms.clone();
    // The window's inserts (`ingest_mixed`) or every probe's.
    let mut insert_ms: Vec<f64> = [&w.insert_ms, &done.probe.insert_ms, &extra.insert_ms]
        .into_iter()
        .flatten()
        .copied()
        .collect();
    record.push(("insert_samples".into(), insert_ms.len().to_string()));
    let metrics = vec![
        (
            "setup_s",
            median(times.iter().map(SetupTimes::total).collect()),
            "s",
        ),
        ("query_p50_ms", percentile(&mut query_ms, 0.5), "ms"),
        ("query_p90_ms", percentile(&mut query_ms, 0.9), "ms"),
        ("query_p99_ms", percentile(&mut query_ms, 0.99), "ms"),
        ("query_qps", w.query_ms.len() as f64 / w.elapsed_s, "1/s"),
        ("insert_p50_ms", percentile(&mut insert_ms, 0.5), "ms"),
        ("insert_p90_ms", percentile(&mut insert_ms, 0.9), "ms"),
        ("ndcg10", done.ndcg, "ratio"),
        ("peak_rss_mb", peak_rss, "MB"),
    ];
    record.push((
        "setup_s_each".into(),
        format!(
            "{:?}",
            times.iter().map(SetupTimes::total).collect::<Vec<_>>()
        ),
    ));
    let mut out = outcome(done, metrics, record);
    out.attempted += extra.attempted;
    out.failed += extra.failed;
    out.correct &= problems.is_empty() && extra.wrong_bodies == 0;
    out.problems.extend(problems);
    out
}

fn candidate_masks(corpus: &Corpus) -> BTreeMap<&'static str, Vec<bool>> {
    [ObjectiveFilter::LondonUnder300, ObjectiveFilter::Amsterdam]
        .into_iter()
        .map(|f| {
            (
                f.label(),
                corpus.entities.iter().map(|e| f.accepts(e)).collect(),
            )
        })
        .collect()
}

fn expected_bodies(inputs: &Inputs, db: &OpineDb) -> Vec<String> {
    inputs
        .pool
        .iter()
        .map(|q| render_query_body(db, &parse_select_sql(&q.sql)).expect("library path"))
        .collect()
}

fn record_common(args: &Args, env: &Env, sys: &System, done: &Finished) -> Vec<(String, String)> {
    let w = &done.window;
    let mut lateness = w.lateness_ms.clone();
    vec![
        ("workload".into(), format!("\"{}\"", args.workload.name())),
        ("seed".into(), args.seed.to_string()),
        ("trace".into(), (args.trace as u8).to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("nproc".into(), env.nproc.to_string()),
        ("workers".into(), env.workers.to_string()),
        ("clients".into(), env.clients.to_string()),
        ("git_revision".into(), format!("\"{}\"", env.revision)),
        ("hotels".into(), sys.corpus.entities.len().to_string()),
        ("reviews".into(), sys.corpus.reviews.len().to_string()),
        ("query_samples".into(), w.query_ms.len().to_string()),
        (
            "writer_lateness_p50_ms".into(),
            percentile(&mut lateness, 0.5).to_string(),
        ),
        (
            "writer_lateness_max_ms".into(),
            percentile(&mut lateness, 1.0).to_string(),
        ),
        (
            "reconnects".into(),
            (w.reconnects + done.probe.reconnects).to_string(),
        ),
        ("body_samples_checked".into(), w.samples.len().to_string()),
        (
            "failures".into(),
            format!(
                "{{{}}}",
                w.failures
                    .iter()
                    .chain(&done.probe.failures)
                    .map(|(k, v)| format!("{}: {v}", opine_server::json::escaped(k)))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ]
}

fn outcome(
    done: Finished,
    metrics: Vec<(&'static str, f64, &'static str)>,
    record: Vec<(String, String)>,
) -> Outcome {
    Outcome {
        correct: done.problems.is_empty(),
        attempted: done.window.attempted + done.probe.attempted,
        failed: done.window.failed + done.probe.failed,
        problems: done.problems,
        metrics,
        record,
    }
}

fn run_traced(args: &Args, env: &Env, inputs: &Inputs) -> Outcome {
    // Untraced pass on its own fresh system: the counters and the
    // baseline for the tracing overhead.
    let sys = setup(inputs);
    let mut times = vec![sys.times];
    // The measured time splits evenly between the two passes.
    let length = Duration::from_secs(args.seconds) / 2;
    let batches = batches_for(inputs, &sys.corpus, length);
    let driver = Driver::new(inputs, &sys, None);
    let before = sys.db.cache_report();
    let cache_before = sys.server.result_cache_stats();
    let untraced = driver.window(env.clients, length, &batches);
    let after = sys.db.cache_report();
    let counters = Counters::delta(
        &before,
        &after,
        cache_before,
        sys.server.result_cache_stats(),
    );
    let mut untraced_problems = check_samples(&sys.db, inputs, &untraced.samples);
    untraced_problems.extend(check_inserts(&sys.db, &before, &untraced.acked));
    if untraced.wrong_bodies > 0 {
        untraced_problems.push(format!(
            "{} untraced responses had a wrong body",
            untraced.wrong_bodies
        ));
    }
    let mut untraced_ms = untraced.query_ms.clone();
    let untraced_p50_us = percentile(&mut untraced_ms, 0.5) * 1e3;
    let untraced_reconnects = untraced.reconnects;
    drop(driver);
    drop(sys);

    // Traced pass: a fresh server plus an identically built replica
    // that replays every engine-executed request in-process.
    let sys = setup(inputs);
    times.push(sys.times);
    let replica = build_db(&sys.corpus);
    warm(inputs, &replica, None);
    let driver = Driver::new(inputs, &sys, Some(&replica));
    let before = sys.db.cache_report();
    let window = driver.window(env.clients, length, &batches);
    let mut done = finish(&driver, &sys, window, &batches, &before);
    let end = sys.db.cache_report();
    let mut spans = std::mem::take(&mut done.window.spans);
    spans.extend(std::mem::take(&mut done.probe.spans));
    let span_file = std::path::PathBuf::from(OUT_DIR).join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = write_spans(&span_file, &spans) {
        eprintln!("could not write {}: {e}", span_file.display());
    }
    let att = attribute(&spans);
    let call = |name: &str| att.per_call_p50.get(name).copied().unwrap_or(0.0);
    let own = |name: &str| att.self_in_band.get(name).copied().unwrap_or(0.0);
    let setup_part = |f: fn(&SetupTimes) -> f64| median(times.iter().map(f).collect());
    let metrics = vec![
        ("server.overhead_us", own("server"), "us"),
        (
            "server.result_cache_hit_ratio",
            counters.result_cache_hit_ratio,
            "ratio",
        ),
        ("server.reconnects", untraced_reconnects as f64, "count"),
        ("store.parse_us", call("store.parse"), "us"),
        ("store.parse_insert_us", call("store.parse_insert"), "us"),
        ("core.query_us", call("core.query"), "us"),
        ("core.render_us", att.render_p50, "us"),
        ("core.interpret_us", call("core.interpret"), "us"),
        ("core.interp_hit_ratio", counters.interp_hit_ratio, "ratio"),
        ("core.degree_column_us", call("core.degree_column"), "us"),
        ("core.column_hit_ratio", counters.column_hit_ratio, "ratio"),
        ("core.topk_us", call("core.topk"), "us"),
        ("core.ta_share", counters.ta_share, "ratio"),
        ("core.pushdown_share", counters.pushdown_share, "ratio"),
        (
            "core.summaries_qualified_us",
            call("core.summaries_qualified"),
            "us",
        ),
        (
            "core.filtered_hit_ratio",
            counters.filtered_hit_ratio,
            "ratio",
        ),
        // Since the build: WAND retrieval serves interpretation, which
        // warm-up does ahead of the window.
        ("ir.wand_queries", after.wand_queries as f64, "count"),
        (
            "ir.blocks_skipped_per_query",
            ratio(after.blocks_skipped, after.wand_queries),
            "count",
        ),
        ("core.insert_us", call("core.insert"), "us"),
        ("core.merge_us", call("core.merge"), "us"),
        ("core.delta_reviews", end.delta_reviews as f64, "count"),
        ("core.delta_merges", end.delta_merges as f64, "count"),
        ("core.failed_merges", end.failed_merges as f64, "count"),
        ("core.ingest_epoch", end.ingest_epoch as f64, "count"),
        ("setup.corpus_s", setup_part(|t| t.corpus), "s"),
        ("setup.build_s", setup_part(|t| t.build), "s"),
        ("setup.bind_s", setup_part(|t| t.bind), "s"),
        ("setup.warm_s", setup_part(|t| t.warm), "s"),
        ("self.store_parse_us", own("store_parse"), "us"),
        ("self.core_interpret_us", own("core_interpret"), "us"),
        (
            "self.core_degree_column_us",
            own("core_degree_column"),
            "us",
        ),
        ("self.core_summaries_us", own("core_summaries"), "us"),
        ("self.core_topk_us", own("core_topk"), "us"),
        ("self.core_query_us", own("core_query"), "us"),
        ("self.core_render_us", own("core_render"), "us"),
        ("unattributed_us", att.unattributed, "us"),
        ("trace.client_p50_us", att.client_p50, "us"),
        ("trace.untraced_p50_us", untraced_p50_us, "us"),
        (
            "trace.overhead_ratio",
            att.client_p50 / untraced_p50_us.max(f64::MIN_POSITIVE),
            "ratio",
        ),
    ];
    let mut record = record_common(args, env, &sys, &done);
    record.push((
        "insert_samples".into(),
        (done.window.insert_ms.len() + done.probe.insert_ms.len()).to_string(),
    ));
    record.push(("traced_requests".into(), att.requests.to_string()));
    record.push(("spans".into(), spans.len().to_string()));
    record.push(("span_file".into(), format!("\"{}\"", span_file.display())));
    let mut out = outcome(done, metrics, record);
    // The untraced pass's requests were attempted too.
    out.attempted += untraced.attempted;
    out.failed += untraced.failed;
    out.correct &= untraced_problems.is_empty();
    out.problems.extend(untraced_problems);
    out
}

/// Counter deltas over a window, from the public reports.
struct Counters {
    result_cache_hit_ratio: f64,
    interp_hit_ratio: f64,
    column_hit_ratio: f64,
    filtered_hit_ratio: f64,
    ta_share: f64,
    pushdown_share: f64,
}

impl Counters {
    fn delta(
        a: &CacheReport,
        b: &CacheReport,
        cache_a: opine_core::CacheStats,
        cache_b: opine_core::CacheStats,
    ) -> Counters {
        let hit_ratio = |x: opine_core::CacheStats, y: opine_core::CacheStats| {
            ratio(y.hits - x.hits, (y.hits - x.hits) + (y.misses - x.misses))
        };
        // Statements the engine executed: the result cache's misses.
        let executed = cache_b.misses - cache_a.misses;
        Counters {
            result_cache_hit_ratio: hit_ratio(cache_a, cache_b),
            interp_hit_ratio: hit_ratio(a.interpretations, b.interpretations),
            column_hit_ratio: hit_ratio(a.columns, b.columns),
            filtered_hit_ratio: hit_ratio(a.filtered_summaries, b.filtered_summaries),
            ta_share: ratio(b.ta_queries - a.ta_queries, executed),
            pushdown_share: ratio(b.pushdown_queries - a.pushdown_queries, executed),
        }
    }
}

fn print_outcome(args: &Args, out: &Outcome) {
    for problem in &out.problems {
        println!("CHECK FAILED: {problem}");
    }
    println!(
        "{:<34} {:>14}  unit",
        format!("{} seed {}", args.workload.name(), args.seed),
        "value"
    );
    for (name, value, unit) in &out.metrics {
        println!("  {name:<32} {value:>14.4}  {unit}");
    }
    let record = format!(
        "{{{}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.record
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", "),
        out.correct,
        out.attempted,
        out.failed,
        metrics_json(&out.metrics)
    );
    println!("record: {record}");
    let path = std::path::PathBuf::from(OUT_DIR).join(format!(
        "record-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        args.trace as u8
    ));
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, &record)) {
        eprintln!("could not write {}: {e}", path.display());
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics_json(&out.metrics)
    );
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Panics in server worker threads are expected on `ingest_mixed` (the
/// server turns them into 500s); print each as one line.
fn quiet_panics() {
    std::panic::set_hook(Box::new(|info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("(non-string payload)");
        let thread = std::thread::current();
        let location = info.location().map(|l| l.to_string()).unwrap_or_default();
        eprintln!(
            "panic in thread {}: {message} at {location}",
            thread.name().unwrap_or("unnamed")
        );
    }));
}

fn main() {
    quiet_panics();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: --workload <search_tail|search_head|ingest_mixed> --seed <n> --seconds <n> --trace <0|1>\n{e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = Env {
        nproc,
        clients: nproc.clamp(1, 2),
        workers: ServerConfig::default().workers,
        revision: git_revision(),
    };
    let inputs = Inputs::new(args.workload, args.seed);
    let out = if args.trace {
        run_traced(&args, &env, &inputs)
    } else {
        run_untraced(&args, &env, &inputs)
    };
    print_outcome(&args, &out);
    if !out.correct {
        std::process::exit(1);
    }
}
