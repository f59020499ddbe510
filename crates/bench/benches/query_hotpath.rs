//! **Query hot-path bench** — the three original optimizations
//! (interpretation cache, dense TA, parallel scoring), then the
//! **mixed-WHERE** scenario: the paper's running-example shape
//! `price_pn < τ and "clean rooms"` at three objective selectivities
//! (selective / ~50% / non-selective), through the objective-predicate
//! pushdown into the TA fast path and through the `RowAtATime`
//! reference plan.
//!
//! The **Block-Max-WAND retrieval** scenario times the cold
//! interpretation path's BM25 top-k over the review-heavy corpus's
//! index, WAND vs the exhaustive posting traversal, asserted ≥ 5x with
//! bit-identical answers.
//!
//! The **tracing ablation**: the warm repeated query with tracing
//! disarmed (every span site costs one relaxed atomic load) must stay
//! within 2% of the same-run warm baseline; the armed cost (a
//! `TraceContext` collecting the full span tree) is printed alongside.
//!
//! The **live-ingest** scenario: warm reads while a writer thread
//! streams `INSERT` batches through the delta segment (and its
//! threshold merges). Readers pin one snapshot epoch per query and
//! never take the writer lock, so the warm-read latency floor must
//! stay within 1.2x of the read-only baseline.
//!
//! Every number is printed, none is written to disk: the repo's
//! benchmark record is the `benchmark/` harness.
//!
//! In smoke mode (`cargo test --benches`, no `--bench` flag) the heavy
//! measurement loops are skipped, but small-corpus guards still run: a
//! mixed query must fire the `pushdown_queries` counter, a qualified
//! query the bucket-merge counters, the **wand guard** must skip
//! posting blocks while returning bit-identical top-k answers, and the
//! **ingest guard** must serve an inserted review to the very next
//! select and keep serving it through a threshold merge — or the bench
//! (and CI) fails.

use criterion::{criterion_group, criterion_main, Criterion};
use opine_bench::banner;
use opine_core::topk::{densify, full_scan_topk_dense, threshold_topk_dense};
use opine_core::{build, BuildConfig, OpineDb};
use opine_corpus::hotel::hotel_spec;
use opine_corpus::{Corpus, CorpusConfig};
use opine_embed::Word2VecConfig;
use opine_ir::{Bm25Params, InvertedIndex};
use opine_store::{execute, parse_select, ResultSet, ReviewQualifier, RowAtATime};
use opine_text::WordId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const TOPK_ENTITIES: usize = 10_000;
const TOPK_PREDICATES: usize = 3;
const TOPK_K: usize = 10;
const DB_ENTITIES: usize = 1024;
/// Entity count for the mixed-WHERE scenario (the acceptance bar is
/// "faster, not slower, at ≥10k entities"); override with
/// `OPINE_BENCH_MIXED_ENTITIES` to scale.
const MIXED_ENTITIES: usize = 10_000;
const REPEATED_QUERY: &str = "select * from hotels where \"clean rooms\" limit 10";
/// Result depth of the mixed-WHERE scenario. Deep enough that ranking
/// work (not per-query fixed overhead) dominates: certifying a top-50
/// over two weakly-correlated predicates sends the unfiltered TA deep
/// into the sorted lists, which is exactly the work a selective
/// objective filter prunes.
const MIXED_K: usize = 50;
/// The unfiltered subjective query the mixed scenarios are measured
/// against: the same two-predicate conjunction, minus the objective
/// filter. Two predicates (distinct latent attributes) keep TA's scan
/// depth honest — a single predicate terminates after k+1 accesses and
/// measures only fixed overhead.
const PURE_QUERY: &str =
    "select * from hotels where \"clean rooms\" and \"friendly staff\" limit 50";

/// The seed implementation of `threshold_topk`, kept verbatim as the
/// baseline: per-call `HashMap` random-access maps, `HashSet` seen
/// tracking, and a full re-sort of `best` at every depth.
fn seed_threshold_topk(lists: &[Vec<(usize, f64)>], k: usize) -> Vec<(usize, f64)> {
    if lists.is_empty() || k == 0 {
        return Vec::new();
    }
    let access: Vec<HashMap<usize, f64>> =
        lists.iter().map(|l| l.iter().copied().collect()).collect();
    let depth_max = lists.iter().map(Vec::len).max().unwrap_or(0);

    let mut seen: HashSet<usize> = HashSet::new();
    let mut best: Vec<(usize, f64)> = Vec::new();

    for depth in 0..depth_max {
        for list in lists {
            let Some(&(entity, _)) = list.get(depth) else {
                continue;
            };
            if !seen.insert(entity) {
                continue;
            }
            let combined: f64 = access
                .iter()
                .map(|m| m.get(&entity).copied().unwrap_or(0.0))
                .product();
            best.push((entity, combined));
        }
        best.sort_by(|a, b| b.1.total_cmp(&a.1));
        best.truncate(k.max(1));

        let threshold: f64 = lists
            .iter()
            .map(|l| l.get(depth).map(|&(_, d)| d).unwrap_or(0.0))
            .product();
        if best.len() >= k && best[k - 1].1 >= threshold {
            break;
        }
    }
    best
}

/// Correlated synthetic degree lists (real membership degrees cluster, so
/// a shared per-entity quality term keeps TA's early termination honest).
fn synthetic_lists(n: usize, predicates: usize, seed: u64) -> Vec<Vec<(usize, f64)>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let quality: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    (0..predicates)
        .map(|_| {
            let mut list: Vec<(usize, f64)> = (0..n)
                .map(|e| {
                    let noise = rng.gen::<f64>();
                    (e, (0.6 * quality[e] + 0.4 * noise).clamp(0.0, 1.0))
                })
                .collect();
            list.sort_by(|a, b| b.1.total_cmp(&a.1));
            list
        })
        .collect()
}

/// A database large enough (≥ the parallel threshold of 512 entities)
/// that degree-column construction fans out across cores.
fn hotpath_db() -> OpineDb {
    let corpus = Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities: DB_ENTITIES,
            mean_reviews: 6,
            seed: 11,
        },
    );
    build(
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
    )
}

/// Mean seconds per iteration of `f` over `iters` runs.
fn measure<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// A database with a configurable corpus shape (shared by the
/// mixed-WHERE and review-qualified scenarios).
fn reviews_db(entities: usize, mean_reviews: usize) -> OpineDb {
    let corpus = Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities: entities,
            mean_reviews,
            seed: 23,
        },
    );
    build(
        &corpus,
        &BuildConfig {
            w2v: Word2VecConfig {
                dim: 24,
                epochs: 1,
                ..Default::default()
            },
            membership_tuples: 500,
            ..Default::default()
        },
    )
}

/// A database for the mixed-WHERE scenario.
fn mixed_db(entities: usize) -> OpineDb {
    reviews_db(entities, 4)
}

/// The `price_pn` column of the entity table, sorted ascending — used
/// to pick thresholds at exact selectivities.
fn sorted_prices(db: &OpineDb) -> Vec<f64> {
    let table = db.catalog().table(db.entity_table()).expect("entity table");
    let price_col = table
        .schema()
        .column_index("price_pn")
        .expect("hotel price column");
    let mut prices: Vec<f64> = table
        .rows()
        .filter_map(|row| row.get(price_col).as_f64())
        .collect();
    prices.sort_by(f64::total_cmp);
    prices
}

/// Warm mean latency of `sql` on `db` (caches primed by a first run).
fn warm_latency(db: &OpineDb, sql: &str, iters: usize) -> f64 {
    db.query(sql).expect("query runs");
    measure(iters, || {
        black_box(db.query(sql).expect("query runs"));
    })
}

/// `sql` through the row-at-a-time reference plan: no TA ranking, no
/// objective pushdown (the pushdown ablation baseline).
fn reference_plan(db: &OpineDb, sql: &str) -> ResultSet {
    let select = parse_select(sql).expect("valid sql");
    execute(&select, db.catalog(), &RowAtATime(db)).expect("reference query runs")
}

/// [`warm_latency`] of the row-at-a-time reference plan.
fn warm_reference_latency(db: &OpineDb, sql: &str, iters: usize) -> f64 {
    reference_plan(db, sql);
    measure(iters, || {
        black_box(reference_plan(db, sql));
    })
}

/// Warm minimum single-iteration latency of `sql` on `db` (caches
/// primed by a first run). The floor — not the mean — is the right
/// statistic when a concurrent writer shares this container's single
/// core: the mean folds in CPU time the scheduler hands to the
/// writer's own inserts and merges, while the floor measures what the
/// read path itself costs when it runs — which is exactly where lock
/// contention or snapshot-pinning overhead would show up.
fn latency_floor(db: &OpineDb, sql: &str, iters: usize) -> f64 {
    db.query(sql).expect("query runs");
    let mut floor = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        black_box(db.query(sql).expect("query runs"));
        floor = floor.min(start.elapsed().as_secs_f64());
    }
    floor
}

/// Smoke-mode guard: on a small corpus, the paper's running-example
/// shape must take the pushdown TA path (counter > 0) and agree with
/// the `RowAtATime` reference plan, which must not take it. Panics —
/// failing `cargo test --benches` and the CI smoke job — if the
/// pushdown never fires.
fn pushdown_smoke_guard() {
    let db = mixed_db(48);
    let prices = sorted_prices(&db);
    let median = prices[prices.len() / 2];
    let sql = format!("select * from hotels where price_pn < {median} and \"clean rooms\" limit 8");
    let fast = db.query(&sql).expect("mixed query runs");
    let report = db.cache_report();
    assert!(
        report.pushdown_queries > 0,
        "mixed-WHERE smoke query never took the pushdown TA path: {report:?}"
    );
    let slow = reference_plan(&db, &sql);
    assert_eq!(
        db.cache_report().pushdown_queries,
        report.pushdown_queries,
        "the reference plan must not take the pushdown path"
    );
    assert_eq!(
        fast.result.rows.len(),
        slow.rows.len(),
        "pushdown and row-at-a-time answers must agree"
    );
    for (a, b) in fast.result.rows.iter().zip(&slow.rows) {
        assert_eq!(a.0, b.0, "same rows in the same order");
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "bit-identical scores");
    }
    println!(
        "pushdown smoke guard ok: {} pushdown queries, {} rows",
        report.pushdown_queries,
        fast.result.rows.len()
    );
}

/// Corpus shape of the review-qualified scenario: review-heavy (the
/// paper's setting — each entity aggregates many reviews), so rebuild
/// cost (per raw occurrence) and merge cost (per distinct partial)
/// separate. Override entities with `OPINE_BENCH_QUALIFIED_ENTITIES`.
const QUALIFIED_ENTITIES: usize = 200;
const QUALIFIED_REVIEWS: usize = 400;

/// The canonical review-qualified scenario of this bench: a year range
/// plus a reviewer-degree threshold (the paper's "reviews after 2010" /
/// "reviewers with ≥ N reviews" queries combined).
const QUALIFIER: ReviewQualifier = ReviewQualifier {
    min_year: Some(2012),
    max_year: None,
    min_reviewer_count: Some(4),
};

/// Asserts the bucket-merge path answers bit-identically to the full
/// raw-scan rebuild for `qualifier`, returning the rebuilt set's total
/// mass (sanity: the filter must actually drop reviews unless trivial).
fn assert_merge_matches_rebuild(db: &OpineDb, qualifier: &ReviewQualifier) -> f64 {
    let merged = db.summaries_qualified(qualifier);
    let rebuilt = db.summaries_with_review_filter(|m| {
        qualifier.accepts(m.year, db.reviewer_review_count(m.reviewer_id) as u32)
    });
    let mut total = 0.0;
    for e in 0..db.num_entities() {
        for a in 0..db.attributes.len() {
            assert!(
                merged[e][a].same_aggregates(&rebuilt[e][a]),
                "bucket merge diverged from rebuild at entity {e} attr {a} under {qualifier}"
            );
            total += rebuilt[e][a].total;
        }
        let d_merged = db.attribute_degree_with_summaries(&merged, e, 0, "clean rooms");
        let d_rebuilt = db.attribute_degree_with_summaries(&rebuilt, e, 0, "clean rooms");
        assert_eq!(
            d_merged.to_bits(),
            d_rebuilt.to_bits(),
            "degree of entity {e}"
        );
    }
    total
}

/// Smoke-mode guard: a review-qualified SQL statement must route
/// through the bucket-merge path (filtered-summary counters fire) and
/// agree bit-for-bit with the raw-rebuild reference. Panics — failing
/// `cargo test --benches` and the CI smoke job — if the bucket merge
/// never fires.
fn qualified_smoke_guard() {
    let db = mixed_db(48);
    let report = db.cache_report();
    assert_eq!(report.filtered_summary_queries, 0);
    let sql = "select * from hotels where \"clean rooms\" \
               with reviews(year >= 2012, reviewer_min_count >= 3) limit 8";
    let out = db.query(sql).expect("qualified query runs");
    assert!(!out.result.rows.is_empty(), "qualified query found no rows");
    let report = db.cache_report();
    assert!(
        report.filtered_summary_queries > 0,
        "qualified query never took the bucket-merge path: {report:?}"
    );
    assert!(
        report.filtered_summaries.misses > 0,
        "filtered-summary cache never saw the merge: {report:?}"
    );
    // Answers must equal the raw-rebuild reference bit-for-bit (the
    // 3-review threshold cuts through the [2,4) log2 bucket, so this
    // also exercises the straddle refinement).
    let q = ReviewQualifier {
        min_year: Some(2012),
        max_year: None,
        min_reviewer_count: Some(3),
    };
    let rebuilt = db.summaries_with_review_filter(|m| {
        q.accepts(m.year, db.reviewer_review_count(m.reviewer_id) as u32)
    });
    for (row, score) in &out.result.rows {
        let entity = db.entity_id(row[0].as_str().unwrap()).unwrap();
        let reference = db.attribute_degree_with_summaries(&rebuilt, entity, 0, "clean rooms");
        assert_eq!(
            score.to_bits(),
            reference.to_bits(),
            "entity {entity}: qualified SQL answer diverged from the rebuild"
        );
    }
    println!(
        "qualified smoke guard ok: {} qualified queries, {} rows",
        report.filtered_summary_queries,
        out.result.rows.len()
    );
}

/// Smoke-mode guard: Block-Max WAND must return **bit-identical** top-k
/// answers to the exhaustive posting traversal AND actually skip blocks
/// on a skewed corpus (the `wand-smoke` CI guard). The corpus is
/// deterministic (LCG), so a silent regression in either property fails
/// `cargo test --benches` and the CI smoke job.
fn wand_smoke_guard() {
    let mut vocab = opine_text::Vocab::new();
    let mut index = InvertedIndex::new();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for _ in 0..4000 {
        let mut text = String::new();
        for _ in 0..(next() % 4) {
            text.push_str("clean ");
        }
        if next() % 2 == 0 {
            text.push_str("room ");
        }
        for f in 0..(next() % 6) {
            text.push_str(["lobby ", "stay ", "bed ", "desk ", "pool ", "bar "][f]);
        }
        text.push_str("hotel");
        index.add_document(&text, &mut vocab);
    }
    let terms: Vec<WordId> = ["clean", "room"]
        .iter()
        .map(|t| vocab.get(t).expect("corpus term"))
        .collect();
    let params = Bm25Params::default();
    let wand = index.search_terms(&terms, 10, &params);
    index.set_wand(false);
    let exhaustive = index.search_terms(&terms, 10, &params);
    index.set_wand(true);
    assert_eq!(wand.len(), exhaustive.len(), "same hit count");
    for (w, e) in wand.iter().zip(&exhaustive) {
        assert_eq!(w.doc, e.doc, "wand and exhaustive must rank identically");
        assert_eq!(w.score.to_bits(), e.score.to_bits(), "bit-identical scores");
    }
    let stats = index.retrieval_stats();
    assert!(stats.wand_queries > 0, "wand path must fire: {stats:?}");
    assert!(
        stats.blocks_skipped > 0,
        "cold top-10 over 4000 skewed docs must skip posting blocks: {stats:?}"
    );
    println!(
        "wand smoke guard ok: {} blocks skipped, {} bit-identical hits",
        stats.blocks_skipped,
        wand.len()
    );
}

/// Smoke-mode guard: live ingest must publish atomically and survive a
/// threshold merge — an inserted review is visible to the very next
/// select, repeated selects over the same epoch answer identically,
/// and the merge that freezes the delta keeps serving the same rows.
/// Panics — failing `cargo test --benches` and the CI smoke job — if
/// ingest loses rows or a merge changes the answer.
fn ingest_smoke_guard() {
    let db = mixed_db(48);
    let probe = "select * from reviews where reviewer_id = 910000";
    assert!(
        db.query(probe).expect("probe runs").result.rows.is_empty(),
        "marker reviewer band must start empty"
    );
    let insert = |text: &str| {
        format!(
            "INSERT INTO reviews (entity, text, year, reviewer_id) \
             VALUES ('{}', '{text}', 2021, 910000)",
            db.entity_key(0)
        )
    };
    let receipt = db
        .insert_sql(&insert("spotless clean rooms, lovely stay"))
        .expect("insert runs");
    assert_eq!(receipt.inserted, 1);
    assert_eq!(receipt.epoch, 1, "one batch = one published epoch");
    assert!(!receipt.merged, "below the default merge threshold");
    let first = db.query(probe).expect("probe runs");
    assert_eq!(
        first.result.rows.len(),
        1,
        "inserted row must be visible to the very next select"
    );
    let replay = db.query(probe).expect("probe runs");
    assert_eq!(
        first.result.rows, replay.result.rows,
        "two selects over the same epoch must answer identically"
    );
    // Crossing the threshold merges inline: the inserted rows are sealed
    // and their text moves into frozen posting blocks without dropping a
    // row on the serving path.
    db.set_merge_threshold(2);
    let receipt = db
        .insert_sql(&insert("clean rooms again, would return"))
        .expect("insert runs");
    assert!(receipt.merged, "second insert must cross the threshold");
    // The merge seals the delta's occurrences into frozen artifacts;
    // the rows themselves stay resident in the delta generation.
    assert_eq!(db.delta_reviews(), 2);
    let merged = db.query(probe).expect("probe runs");
    assert_eq!(merged.result.rows.len(), 2, "merged rows keep serving");
    let report = db.cache_report();
    assert_eq!(report.inserted_reviews, 2);
    assert!(report.delta_merges >= 1, "merge counter must fire");
    assert_eq!(report.failed_merges, 0);
    println!(
        "ingest smoke guard ok: epoch {} after {} inserts, {} merge",
        db.ingest_epoch(),
        report.inserted_reviews,
        report.delta_merges
    );
}

fn bench(c: &mut Criterion) {
    banner("PR 1: query hot path — interpretation cache, dense TA, parallel scoring");

    // Smoke invocation (`cargo test --benches` passes no `--bench`
    // flag): skip the manual measurement loops and the big db build —
    // criterion itself also runs each registered benchmark once, so
    // shrink the fixture too.
    let measuring = std::env::args().any(|a| a == "--bench");

    // ---- layer 2: seed TA vs dense TA at 10k entities / 3 predicates ----
    let lists = synthetic_lists(
        if measuring { TOPK_ENTITIES } else { 500 },
        TOPK_PREDICATES,
        77,
    );
    let (columns, sorted) = densify(&lists);
    let expected = full_scan_topk_dense(&columns, TOPK_K);
    let got = threshold_topk_dense(&columns, &sorted, TOPK_K);
    assert_eq!(expected, got, "dense TA must agree with the full scan");
    if !measuring {
        println!("smoke mode: correctness checks only, no timings recorded");
        pushdown_smoke_guard();
        qualified_smoke_guard();
        wand_smoke_guard();
        ingest_smoke_guard();
        let mut group = c.benchmark_group("query_hotpath");
        group.bench_function("topk_seed_500", |b| {
            b.iter(|| seed_threshold_topk(black_box(&lists), TOPK_K))
        });
        group.bench_function("topk_dense_500", |b| {
            b.iter(|| threshold_topk_dense(black_box(&columns), black_box(&sorted), TOPK_K))
        });
        group.finish();
        return;
    }

    let t_seed = measure(30, || {
        black_box(seed_threshold_topk(black_box(&lists), TOPK_K));
    });
    let t_dense = measure(2000, || {
        black_box(threshold_topk_dense(
            black_box(&columns),
            black_box(&sorted),
            TOPK_K,
        ));
    });
    let t_scan = measure(200, || {
        black_box(full_scan_topk_dense(black_box(&columns), TOPK_K));
    });
    let topk_speedup = t_seed / t_dense;
    println!(
        "top-k @ {TOPK_ENTITIES} entities × {TOPK_PREDICATES} predicates, k={TOPK_K}:\n\
         \x20 seed TA   {:>10.1} µs\n\
         \x20 dense TA  {:>10.1} µs   ({topk_speedup:.1}x vs seed)\n\
         \x20 full scan {:>10.1} µs",
        t_seed * 1e6,
        t_dense * 1e6,
        t_scan * 1e6,
    );

    // ---- layers 1+3: end-to-end query latency, cold vs warm ----
    println!("building {DB_ENTITIES}-entity hotel db…");
    let db = hotpath_db();
    let run_query = || {
        black_box(db.query(REPEATED_QUERY).expect("query runs"));
    };
    // Cold: every iteration re-interprets the predicate and rebuilds its
    // degree column (caches cleared); warm: both replay from the caches.
    let t_cold = measure(15, || {
        db.clear_caches();
        run_query();
    });
    run_query();
    let t_warm = measure(200, run_query);
    let interp_speedup = t_cold / t_warm;
    let stats = db.interp_cache_stats();
    println!(
        "repeated-predicate query latency ({DB_ENTITIES} entities):\n\
         \x20 cold (caches cleared) {:>10.1} µs\n\
         \x20 warm (caches primed)  {:>10.1} µs   ({interp_speedup:.1}x)\n\
         \x20 interpretation memo: {} hits / {} misses",
        t_cold * 1e6,
        t_warm * 1e6,
        stats.hits,
        stats.misses,
    );

    // ---- layer 3 isolated: degree-column build, 1 thread vs all ----
    // Only the column cache is cleared per iteration: the interpretation
    // and phrase memos stay warm so the timing isolates the parallelized
    // membership-scoring stage rather than the serial interpreter.
    std::env::set_var("OPINE_THREADS", "1");
    let t_col_serial = measure(10, || {
        db.clear_degree_columns();
        black_box(db.degree_column("clean rooms"));
    });
    std::env::remove_var("OPINE_THREADS");
    let workers = opine_core::par::available_workers();
    let t_col_parallel = measure(10, || {
        db.clear_degree_columns();
        black_box(db.degree_column("clean rooms"));
    });
    let parallel_speedup = t_col_serial / t_col_parallel;
    println!(
        "degree-column build over {DB_ENTITIES} entities:\n\
         \x20 1 thread   {:>10.1} µs\n\
         \x20 {workers} threads {:>10.1} µs   ({parallel_speedup:.1}x)",
        t_col_serial * 1e6,
        t_col_parallel * 1e6,
    );

    // ---- PR 7: tracing ablation — disarmed ambient check vs armed ----
    // Every span site in the engine costs one relaxed atomic load when
    // no trace is armed; the acceptance bar is that the disarmed warm
    // path stays within 2% of the warm baseline. Direct wall-clock A/B
    // at this scale is hopeless on this container (paired adjacent
    // measurements of the *identical* closure differ by 10-40%), so
    // the assertion multiplies the probe count a warm query actually
    // executes (read off an armed span tree: span entries + counter
    // flushes + note sites, doubled for margin) by the directly
    // measured per-site disarmed cost, and requires that product to
    // fit in 2% of the interleaved warm latency. The wall-clock
    // disarmed/armed ratios are still recorded for the ablation.
    let run_armed = || {
        let ctx = opine_core::trace::TraceContext::new();
        opine_core::trace::with_trace(Some(ctx), || {
            black_box(db.query(REPEATED_QUERY).expect("query runs"));
        });
    };
    let mut t_baseline = f64::INFINITY;
    let mut t_disarmed = f64::INFINITY;
    let mut t_armed = f64::INFINITY;
    run_query();
    run_armed();
    for round in 0..15 {
        // Alternate the arm order each round so slow frequency drift
        // (this container's dominant noise source) cancels instead of
        // biasing whichever arm consistently runs first.
        if round % 2 == 0 {
            t_baseline = t_baseline.min(measure(400, run_query));
            t_disarmed = t_disarmed.min(measure(400, run_query));
        } else {
            t_disarmed = t_disarmed.min(measure(400, run_query));
            t_baseline = t_baseline.min(measure(400, run_query));
        }
        t_armed = t_armed.min(measure(400, run_armed));
    }
    // The raw cost of one disarmed span site: construct + drop a guard
    // with no ambient trace armed.
    let t_site = measure(1_000_000, || {
        let guard = opine_core::trace::span("ta_topk");
        black_box(&guard);
    });
    let disarmed_ratio = t_disarmed / t_baseline;
    let armed_ratio = t_armed / t_baseline;
    // One armed run for the record: which stages the span tree names.
    let sample_ctx = opine_core::trace::TraceContext::new();
    opine_core::trace::with_trace(Some(sample_ctx.clone()), || {
        black_box(db.query(REPEATED_QUERY).expect("query runs"));
    });
    let sample = sample_ctx.snapshot();
    // Probe sites a warm query hits: every span entry, every counter
    // flush, every note site — doubled as a safety margin for sites
    // the sample cannot see (declined branches, guard drops).
    let probes: u64 = 2
        * (sample.stages.iter().map(|s| s.calls).sum::<u64>()
            + sample
                .stages
                .iter()
                .map(|s| s.counters.len() as u64)
                .sum::<u64>()
            + sample.notes.len() as u64);
    let overhead = probes as f64 * t_site;
    println!(
        "tracing ablation (warm repeated query, {DB_ENTITIES} entities):\n\
         \x20 baseline (interleaved warm)    {:>9.1} µs\n\
         \x20 disarmed (ambient check only)  {:>9.1} µs   ({:.3}x wall-clock)\n\
         \x20 armed (full span collection)   {:>9.1} µs   ({:.3}x wall-clock)\n\
         \x20 disarmed probe cost: {probes} sites × {:.2} ns = {:.0} ns \
         ({:.2}% of warm; armed sample: {} stages, {} µs total)",
        t_baseline * 1e6,
        t_disarmed * 1e6,
        disarmed_ratio,
        t_armed * 1e6,
        armed_ratio,
        t_site * 1e9,
        overhead * 1e9,
        overhead / t_baseline * 100.0,
        sample.stages.len(),
        sample.total_us,
    );
    assert!(
        overhead <= 0.02 * t_baseline,
        "acceptance: disarmed tracing must stay within 2% of the warm \
         baseline ({probes} probe sites × {:.2} ns = {:.0} ns vs 2% of \
         {:.1} µs = {:.0} ns)",
        t_site * 1e9,
        overhead * 1e9,
        t_baseline * 1e6,
        0.02 * t_baseline * 1e9,
    );
    assert!(
        !sample.stages.is_empty(),
        "armed warm query must produce a non-empty span tree"
    );

    // ---- PR 3: mixed WHERE (objective pushdown into the TA path) ----
    let mixed_entities = std::env::var("OPINE_BENCH_MIXED_ENTITIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(MIXED_ENTITIES);
    println!("building {mixed_entities}-entity hotel db for the mixed-WHERE scenario…");
    let build_start = Instant::now();
    let mdb = mixed_db(mixed_entities);
    println!("built in {:.1}s", build_start.elapsed().as_secs_f64());
    let prices = sorted_prices(&mdb);
    let quantile = |q: f64| prices[((prices.len() - 1) as f64 * q) as usize];
    let scenarios = [
        ("selective_5pct", quantile(0.05)),
        ("half_50pct", quantile(0.50)),
        ("non_selective", prices[prices.len() - 1] + 1.0),
    ];
    let mixed_sql = |t: f64| {
        format!(
            "select * from hotels where price_pn < {t} and \"clean rooms\" and \"friendly staff\" limit {MIXED_K}"
        )
    };

    // The vectorized objective scan in isolation: one `price_pn < τ`
    // comparison over the typed column (10k f64 → candidate bitmap).
    let price_col = {
        let table = mdb
            .catalog()
            .table(mdb.entity_table())
            .expect("entity table");
        table
            .schema()
            .column_index("price_pn")
            .expect("price column")
    };
    let t_bitmap_scan = {
        let table = mdb
            .catalog()
            .table(mdb.entity_table())
            .expect("entity table");
        let lit = opine_store::Value::Float(quantile(0.05));
        measure(3000, || {
            black_box(
                table
                    .column(price_col)
                    .compare_bitmap(opine_store::CmpOp::Lt, &lit),
            );
        })
    };
    println!(
        "vectorized objective scan: {:>9.2} µs for {mixed_entities} rows ({:.0}M rows/s)",
        t_bitmap_scan * 1e6,
        mixed_entities as f64 / t_bitmap_scan / 1e6,
    );

    // Interleaved rounds, min-of-rounds per scenario: this container is
    // single-core and noisy, and the pure-vs-mixed comparison below is
    // a ~µs-scale difference; the minimum mean over several rounds is
    // the standard robust latency estimate.
    let mut t_pure = f64::INFINITY;
    let mut t_push = [f64::INFINITY; 3];
    for _round in 0..7 {
        t_pure = t_pure.min(warm_latency(&mdb, PURE_QUERY, 150));
        for (i, (_, threshold)) in scenarios.iter().enumerate() {
            t_push[i] = t_push[i].min(warm_latency(&mdb, &mixed_sql(*threshold), 150));
        }
    }
    // Same min-of-rounds protocol for the row-at-a-time reference plan,
    // so the printed speedups compare like with like.
    let mut t_row = [f64::INFINITY; 3];
    for _round in 0..3 {
        for (i, (_, threshold)) in scenarios.iter().enumerate() {
            t_row[i] = t_row[i].min(warm_reference_latency(&mdb, &mixed_sql(*threshold), 20));
        }
    }
    let results: Vec<(&str, f64, f64, f64)> = scenarios
        .iter()
        .enumerate()
        .map(|(i, (name, threshold))| (*name, *threshold, t_push[i], t_row[i]))
        .collect();
    println!(
        "mixed WHERE @ {mixed_entities} entities (warm, limit {MIXED_K}):\n\
         \x20 pure subjective            {:>10.1} µs",
        t_pure * 1e6
    );
    for (name, threshold, t_push, t_row) in &results {
        println!(
            "\x20 {name:<14} (τ={threshold:>6.1})  pushdown {:>9.1} µs   row-at-a-time {:>9.1} µs   ({:.1}x)",
            t_push * 1e6,
            t_row * 1e6,
            t_row / t_push,
        );
    }
    let report = mdb.cache_report();
    println!(
        "  ta_queries={} pushdown_queries={} column_bytes={}",
        report.ta_queries, report.pushdown_queries, report.column_bytes
    );
    assert!(report.pushdown_queries > 0, "pushdown path must fire");
    let (_, _, t_selective_push, t_selective_row) = results[0];
    assert!(
        t_selective_push < t_pure,
        "acceptance: a selective objective filter must make the query FASTER \
         than the unfiltered subjective query (selective {:.1} µs vs pure {:.1} µs)",
        t_selective_push * 1e6,
        t_pure * 1e6,
    );
    assert!(
        t_selective_push < t_selective_row,
        "pushdown must beat row-at-a-time residual scoring"
    );

    // ---- PR 4: review-qualified summaries (bucket merge vs rebuild) ----
    // A review-*heavy* corpus (the paper's setting: fewer entities,
    // many reviews each) — rebuild cost scales with raw occurrences,
    // bucket-merge cost with distinct (year, reviewer-degree) partials,
    // so this is where the partition pays. Cold rebuild re-aggregates
    // every occurrence per call (the pre-PR-4 behaviour of every
    // review-qualified query); cold bucket merge folds the build-time
    // partials; warm replays the merged set from the bounded
    // filtered-summary cache. Answers are asserted bit-identical before
    // any timing.
    let qualified_entities = std::env::var("OPINE_BENCH_QUALIFIED_ENTITIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(QUALIFIED_ENTITIES);
    println!(
        "building {qualified_entities}-entity hotel db ({QUALIFIED_REVIEWS} reviews/entity) \
         for the review-qualified scenario…"
    );
    let build_start = Instant::now();
    let qdb = reviews_db(qualified_entities, QUALIFIED_REVIEWS);
    println!("built in {:.1}s", build_start.elapsed().as_secs_f64());
    let rebuild_filter = |m: &opine_core::db::ReviewMeta| {
        QUALIFIER.accepts(m.year, qdb.reviewer_review_count(m.reviewer_id) as u32)
    };
    let filtered_mass = assert_merge_matches_rebuild(&qdb, &QUALIFIER);
    // Also verify a straddling (non-power-of-two) threshold once.
    assert_merge_matches_rebuild(
        &qdb,
        &ReviewQualifier {
            min_year: None,
            max_year: None,
            min_reviewer_count: Some(5),
        },
    );
    // Steady-state timing for both paths: each iteration constructs a
    // summary set and frees the previous one.
    let t_rebuild = measure(5, || {
        black_box(qdb.summaries_with_review_filter(rebuild_filter));
    });
    let t_merge = measure(15, || {
        qdb.clear_filtered_summaries();
        black_box(qdb.summaries_qualified(&QUALIFIER));
    });
    qdb.clear_filtered_summaries();
    let _ = qdb.summaries_qualified(&QUALIFIER);
    let t_filter_warm = measure(200, || {
        black_box(qdb.summaries_qualified(&QUALIFIER));
    });
    let qualified_sql = format!(
        "select * from hotels where \"clean rooms\" and \"friendly staff\" \
         with reviews(year >= 2012, reviewer_min_count >= 4) limit {MIXED_K}"
    );
    let t_qualified_cold_sql = measure(5, || {
        qdb.clear_filtered_summaries();
        black_box(qdb.query(&qualified_sql).expect("qualified query runs"));
    });
    let t_qualified_warm_sql = warm_latency(&qdb, &qualified_sql, 50);
    let t_unqualified_sql = warm_latency(&qdb, PURE_QUERY, 50);
    let rebuild_speedup = t_rebuild / t_merge;
    let warm_speedup = t_rebuild / t_filter_warm.max(1e-12);
    println!(
        "review-qualified summaries @ {qualified_entities} entities × {QUALIFIED_REVIEWS} reviews \
         ({QUALIFIER}, filtered mass {filtered_mass:.0}):\n\
         \x20 full rebuild (raw rescan)   {:>10.1} µs\n\
         \x20 bucket merge (cold)         {:>10.1} µs   ({rebuild_speedup:.1}x vs rebuild)\n\
         \x20 filtered-summary cache hit  {:>10.1} µs   ({warm_speedup:.0}x vs rebuild)\n\
         \x20 qualified SQL cold / warm   {:>10.1} µs / {:.1} µs (unqualified warm {:.1} µs)",
        t_rebuild * 1e6,
        t_merge * 1e6,
        t_filter_warm * 1e6,
        t_qualified_cold_sql * 1e6,
        t_qualified_warm_sql * 1e6,
        t_unqualified_sql * 1e6,
    );
    assert!(
        rebuild_speedup >= 10.0,
        "acceptance: bucket merge must be ≥ 10x faster than the full rebuild \
         (rebuild {:.1} µs vs merge {:.1} µs = {rebuild_speedup:.1}x)",
        t_rebuild * 1e6,
        t_merge * 1e6,
    );
    let qreport = qdb.cache_report();
    assert!(
        qreport.filtered_summary_queries > 0,
        "qualified SQL path must fire"
    );

    // ---- PR 5: Block-Max WAND retrieval on the cold interpretation path ----
    // The review-heavy corpus above doubles as the retrieval corpus
    // (its review index is what the co-occurrence stage searches). Two
    // shapes: the interpreter's own fan-out (top_k_reviews · 4 = 160)
    // and a tight top-10; both must be bit-identical to the exhaustive
    // posting traversal before any timing is recorded.
    let rindex = qdb.interpreter().review_index();
    let rvocab = qdb.vocab();
    // Concept predicates — the phrases stage 1 cannot map to a single
    // attribute, i.e. exactly the workload the co-occurrence retrieval
    // serves cold (direct attribute phrases are intercepted by the
    // word2vec stage). Mixed document frequencies, including an
    // out-of-vocabulary token, like real user queries.
    let wand_preds = [
        "romantic getaway",
        "good for business travelers",
        "kid friendly hotel",
        "anniversary celebration",
    ];
    let term_sets: Vec<Vec<WordId>> = wand_preds
        .iter()
        .map(|p| {
            opine_text::tokenize(p)
                .iter()
                .filter_map(|t| rvocab.get(t))
                .collect()
        })
        .collect();
    for (p, t) in wand_preds.iter().zip(&term_sets) {
        assert!(
            !t.is_empty(),
            "bench predicate {p:?} must have in-vocab terms"
        );
    }
    let params = Bm25Params::default();
    for terms in &term_sets {
        for k in [10, 160] {
            let w = rindex.search_terms(terms, k, &params);
            rindex.set_wand(false);
            let e = rindex.search_terms(terms, k, &params);
            rindex.set_wand(true);
            assert_eq!(w.len(), e.len(), "same hit count at k={k}");
            for (a, b) in w.iter().zip(&e) {
                assert_eq!(a.doc, b.doc, "identical ranking at k={k}");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "bit-identical scores");
            }
        }
    }
    let skipped_before = rindex.retrieval_stats().blocks_skipped;
    let time_search = |k: usize, iters: usize| -> f64 {
        measure(iters, || {
            for terms in &term_sets {
                black_box(rindex.search_terms(black_box(terms), k, &params));
            }
        }) / term_sets.len() as f64
    };
    let t_wand_k10 = time_search(10, 300);
    let t_wand_k160 = time_search(160, 300);
    rindex.set_wand(false);
    let t_exh_k10 = time_search(10, 30);
    let t_exh_k160 = time_search(160, 30);
    rindex.set_wand(true);
    // The cold co-occurrence stage end-to-end: BM25 retrieval +
    // sentiment rescoring + digest co-occurrence scoring, no memo.
    let time_cooccur = |iters: usize| -> f64 {
        measure(iters, || {
            for p in &wand_preds {
                black_box(qdb.interpreter().cooccurrence_stage(black_box(p), rvocab));
            }
        }) / wand_preds.len() as f64
    };
    let t_cooccur_wand = time_cooccur(100);
    rindex.set_wand(false);
    let t_cooccur_exh = time_cooccur(30);
    rindex.set_wand(true);
    let rstats = rindex.retrieval_stats();
    assert!(
        rstats.blocks_skipped > skipped_before,
        "the measured scenario must skip posting blocks: {rstats:?}"
    );
    let speedup_k10 = t_exh_k10 / t_wand_k10;
    let speedup_k160 = t_exh_k160 / t_wand_k160;
    let speedup_cooccur = t_cooccur_exh / t_cooccur_wand;
    println!(
        "block-max WAND retrieval over {} reviews ({} predicates, bit-identical):\n\
         \x20 top-10   exhaustive {:>9.1} µs   wand {:>9.1} µs   ({speedup_k10:.1}x)\n\
         \x20 top-160  exhaustive {:>9.1} µs   wand {:>9.1} µs   ({speedup_k160:.1}x)\n\
         \x20 cold co-occurrence stage {:>9.1} µs -> {:>9.1} µs   ({speedup_cooccur:.1}x)\n\
         \x20 wand_queries={} blocks_skipped={}",
        rindex.num_docs(),
        wand_preds.len(),
        t_exh_k10 * 1e6,
        t_wand_k10 * 1e6,
        t_exh_k160 * 1e6,
        t_wand_k160 * 1e6,
        t_cooccur_exh * 1e6,
        t_cooccur_wand * 1e6,
        rstats.wand_queries,
        rstats.blocks_skipped,
    );
    assert!(
        speedup_k160 >= 5.0,
        "acceptance: the interpreter-shaped cold retrieval (k=160) must be \
         ≥ 5x faster than the exhaustive posting traversal, got {speedup_k160:.1}x \
         ({:.1} µs vs {:.1} µs)",
        t_exh_k160 * 1e6,
        t_wand_k160 * 1e6,
    );

    // ---- PR 10: live ingest — warm reads while a writer streams inserts ----
    // A writer thread feeds paced 25-row `INSERT` batches into the
    // 10k-entity mixed db (crossing the default merge threshold every
    // few batches, so frozen-artifact merges run mid-measurement) while
    // the reader measures the warm running-example query. Readers pin
    // one snapshot epoch per query and never take the writer lock, so
    // the acceptance bar is on the latency *floor*: on this single-core
    // container the mean inevitably folds in CPU time the scheduler
    // hands to the writer's own inserts and merges, but any iteration
    // that runs uninterrupted must cost within 1.2x of the read-only
    // floor — blocking (a reader waiting on the writer lock) or
    // per-query snapshot overhead would lift the floor itself.
    const INGEST_BATCH: usize = 25;
    println!("live-ingest scenario: streaming inserts into the {mixed_entities}-entity db…");
    let merges_before = mdb.cache_report().delta_merges;
    let epoch_before = mdb.ingest_epoch();
    let t_read_only_floor = latency_floor(&mdb, PURE_QUERY, 400);
    let t_read_only_mean = warm_latency(&mdb, PURE_QUERY, 200);
    let stop = AtomicBool::new(false);
    let (t_ingest_floor, t_ingest_mean, batches_written) = std::thread::scope(|scope| {
        let writer = {
            let mdb = &mdb;
            let stop = &stop;
            scope.spawn(move || {
                let mut batch = 0usize;
                while !stop.load(Ordering::Acquire) {
                    let rows: Vec<String> = (0..INGEST_BATCH)
                        .map(|i| {
                            let n = batch * INGEST_BATCH + i;
                            // Stride the entity rotation so each batch
                            // dirties a fresh handful of entities — the
                            // reader's warm columns repair exactly
                            // those, never the other ~10k.
                            format!(
                                "('{}', 'clean rooms and friendly staff, stream row {n}', {}, {})",
                                mdb.entity_key((n * 131) % mdb.num_entities()),
                                2000 + (batch % 20),
                                920_000 + n
                            )
                        })
                        .collect();
                    let sql = format!(
                        "INSERT INTO reviews (entity, text, year, reviewer_id) VALUES {}",
                        rows.join(", ")
                    );
                    let receipt = mdb.insert_sql(&sql).expect("stream insert");
                    assert_eq!(receipt.inserted, INGEST_BATCH, "batches are all-or-nothing");
                    batch += 1;
                    // Paced feed: a steady stream, not a saturating one
                    // — the scenario measures serving during ingest,
                    // not the writer's own throughput ceiling.
                    std::thread::sleep(Duration::from_millis(2));
                }
                batch
            })
        };
        let floor = latency_floor(&mdb, PURE_QUERY, 400);
        let mean = warm_latency(&mdb, PURE_QUERY, 200);
        stop.store(true, Ordering::Release);
        let batches = writer.join().expect("writer thread");
        (floor, mean, batches)
    });
    // Quiesced floor after the stream: also read-only (the merged data
    // is now part of the frozen baseline), and taking the min of the
    // two baselines cancels the container's slow frequency drift.
    let t_quiesced_floor = latency_floor(&mdb, PURE_QUERY, 400);
    let baseline_floor = t_read_only_floor.min(t_quiesced_floor);
    let ingest_ratio = t_ingest_floor / baseline_floor;
    let ingest_report = mdb.cache_report();
    let streamed = mdb
        .query("select * from reviews where reviewer_id >= 920000")
        .expect("stream count runs");
    println!(
        "live ingest @ {mixed_entities} entities ({batches_written} × {INGEST_BATCH}-row batches, \
         {} merges, epoch {} -> {}):\n\
         \x20 read-only floor / mean  {:>9.1} µs / {:.1} µs\n\
         \x20 ingesting floor / mean  {:>9.1} µs / {:.1} µs   ({ingest_ratio:.3}x floor)\n\
         \x20 quiesced floor          {:>9.1} µs",
        ingest_report.delta_merges - merges_before,
        epoch_before,
        mdb.ingest_epoch(),
        t_read_only_floor * 1e6,
        t_read_only_mean * 1e6,
        t_ingest_floor * 1e6,
        t_ingest_mean * 1e6,
        t_quiesced_floor * 1e6,
    );
    assert!(
        batches_written >= 3,
        "the writer must actually stream during the measurement ({batches_written} batches)"
    );
    assert_eq!(
        streamed.result.rows.len(),
        batches_written * INGEST_BATCH,
        "every streamed row must be served after the run"
    );
    assert!(
        ingest_report.delta_merges > merges_before,
        "threshold merges must run mid-measurement: {ingest_report:?}"
    );
    assert_eq!(ingest_report.failed_merges, 0, "{ingest_report:?}");
    assert!(
        ingest_ratio <= 1.2,
        "acceptance: warm-read latency floor while ingest runs must stay within \
         1.2x of the read-only floor (ingesting {:.1} µs vs read-only {:.1} µs = \
         {ingest_ratio:.3}x)",
        t_ingest_floor * 1e6,
        baseline_floor * 1e6,
    );

    // ---- criterion samples of the same operations ----
    let mut group = c.benchmark_group("query_hotpath");
    group.sample_size(10);
    group.bench_function("topk_seed_10k", |b| {
        b.iter(|| seed_threshold_topk(black_box(&lists), TOPK_K))
    });
    group.bench_function("topk_dense_10k", |b| {
        b.iter(|| threshold_topk_dense(black_box(&columns), black_box(&sorted), TOPK_K))
    });
    group.bench_function("query_warm", |b| {
        b.iter(|| db.query(REPEATED_QUERY).expect("query runs"))
    });
    group.bench_function("query_cold", |b| {
        b.iter(|| {
            db.clear_caches();
            db.query(REPEATED_QUERY).expect("query runs")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
