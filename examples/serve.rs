//! Serve a subjective database over HTTP.
//!
//! ```sh
//! cargo run --release --example serve
//! ```
//!
//! Environment knobs:
//! * `OPINE_PORT` — port to bind (default 7878; `0` picks an ephemeral
//!   port and prints it).
//! * `OPINE_ENTITIES` / `OPINE_REVIEWS` — corpus scale (default 64 / 12).
//! * `OPINE_WORKERS` — worker threads (default: 2× cores, clamped 2–16).
//! * `OPINE_MAX_IN_FLIGHT` — admission budget: concurrent query
//!   executions before arrivals are shed with 503 (default: workers/2).
//! * `OPINE_MERGE_THRESHOLD` — unmerged inserted reviews that trigger a
//!   merge after an insert (default 64; see the README's
//!   **Live ingest** section).
//! * `OPINE_REQUEST_TIMEOUT_MS` — per-query execution deadline; scans
//!   past it answer 504 (default 10000; `0` disables).
//! * `OPINE_READ_TIMEOUT_MS` / `OPINE_WRITE_TIMEOUT_MS` — socket
//!   timeouts bounding idle and slow-reading clients (`0` disables).
//! * `OPINE_FAULTS` / `OPINE_FAULTS_SEED` — fault injection, e.g.
//!   `OPINE_FAULTS='pre_ta=panic@0.01,mid_wand=delay:5@0.02'`
//!   (chaos testing only; see `opine_core::faults`).
//!
//! Then, in another terminal (the paper's running example):
//!
//! ```sh
//! curl -s localhost:7878/query -d '{"sql": "select * from hotels where price_pn < 150 and \"clean rooms\" limit 5"}'
//! curl -s localhost:7878/stats
//! ```

use opinedb::core::{build, BuildConfig};
use opinedb::corpus::hotel::hotel_spec;
use opinedb::corpus::{Corpus, CorpusConfig};
use opinedb::server::{OpineServer, ServerConfig};
use std::sync::Arc;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let num_entities = env_usize("OPINE_ENTITIES", 64);
    let mean_reviews = env_usize("OPINE_REVIEWS", 12);
    let port = env_usize("OPINE_PORT", 7878);

    eprintln!("building {num_entities}-hotel corpus ({mean_reviews} reviews/hotel)…");
    let corpus = Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities,
            mean_reviews,
            seed: 7,
        },
    );
    let db = Arc::new(build(&corpus, &BuildConfig::default()));
    if let Ok(threshold) = std::env::var("OPINE_MERGE_THRESHOLD") {
        let threshold = threshold.parse().expect("OPINE_MERGE_THRESHOLD: usize");
        db.set_merge_threshold(threshold);
    }

    // Failpoints are compiled in but inert until OPINE_FAULTS is set.
    opinedb::core::faults::init_from_env();

    let config = ServerConfig::from_env();
    let server =
        OpineServer::bind(format!("127.0.0.1:{port}"), db, config).expect("bind serving port");

    // The smoke script greps this exact prefix for the bound address.
    println!("opine-server listening on http://{}", server.local_addr());
    println!("workers: {}", server.workers());
    println!();
    println!("try:");
    println!(
        "  curl -s {}/query -d '{{\"sql\": \"select * from hotels where price_pn < 150 and \\\"clean rooms\\\" limit 5\"}}'",
        server.url()
    );
    println!("  curl -s {}/stats", server.url());

    // Serve until killed.
    loop {
        std::thread::park();
    }
}
