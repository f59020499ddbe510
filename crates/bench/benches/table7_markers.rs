//! **Table 7** — marker summaries vs no markers: membership-function
//! (LR) accuracy, result quality, and runtime per 100 queries, plus the
//! marker-count (10 vs 4) and Threshold-Algorithm ablations from
//! DESIGN.md.

use criterion::{criterion_group, criterion_main, Criterion};
use opine_bench::{banner, build_db, hotel_corpus, opine_rank, restaurant_corpus};
use opine_core::membership::{marker_features, scan_features};
use opine_core::topk::{full_scan_topk, threshold_topk};
use opine_core::OpineDb;
use opine_corpus::workload::{build_workload, hotel_workload, restaurant_workload};
use opine_corpus::Corpus;
use opine_eval::{generate_queries, workload_quality, EvalQuery, ObjectiveFilter};
use opine_store::{execute, parse_select, RowAtATime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

const TOP_K: usize = 10;
const QUERIES: usize = 50;

/// Held-out LR accuracy of both membership models, on fresh tuples.
fn lr_accuracy(db: &OpineDb, corpus: &Corpus, seed: u64) -> (f64, f64) {
    let bank = build_workload(&corpus.spec, 150);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut marker_tuples = Vec::new();
    let mut scan_tuples = Vec::new();
    for _ in 0..400 {
        let e = rng.gen_range(0..corpus.entities.len());
        let p = &bank[rng.gen_range(0..bank.len())];
        let label = p.satisfied_by(&corpus.entities[e], &corpus.spec);
        let mut q_rep = db.embedder().rep(&p.text, db.vocab());
        opine_embed::normalize(&mut q_rep);
        let q_sent = db.sentiment().score(&p.text);
        marker_tuples.push((
            marker_features(
                &db.summary(e, p.gold_aspect),
                db.marker_set(p.gold_aspect),
                &q_rep,
                q_sent,
            ),
            label,
        ));
        let phrases = db.raw_phrases(e, p.gold_aspect);
        scan_tuples.push((scan_features(&phrases, &q_rep, q_sent), label));
    }
    (
        db.membership_markers().accuracy(&marker_tuples),
        db.membership_scan().accuracy(&scan_tuples),
    )
}

/// Ranks `query` through the row-at-a-time reference plan, adding only
/// the execution to `seconds`. Every query starts from cleared degree
/// memos (so none replays another query's degrees) with its own
/// interpretations re-warmed off the clock, so the timing measures
/// degree computation — the thing markers accelerate — not one-off
/// interpretation.
fn timed_rank(db: &OpineDb, query: &EvalQuery, seconds: &Cell<f64>) -> Vec<usize> {
    db.clear_caches();
    for p in &query.predicates {
        db.interpret(&p.text);
    }
    let sql = query.to_sql(db.entity_table(), TOP_K);
    let start = Instant::now();
    let result = parse_select(&sql)
        .ok()
        .and_then(|select| execute(&select, db.catalog(), &RowAtATime(db)).ok());
    seconds.set(seconds.get() + start.elapsed().as_secs_f64());
    result
        .map(|r| {
            r.rows
                .iter()
                .filter_map(|(row, _)| row[0].as_str().and_then(|key| db.entity_id(key)))
                .collect()
        })
        .unwrap_or_default()
}

fn run_set(db: &OpineDb, corpus: &Corpus, queries: &[EvalQuery], label: &str) {
    let per_100 = 100.0 / queries.len() as f64;
    let seconds = Cell::new(0.0);
    db.set_use_markers(true);
    let quality_mk = workload_quality(queries, corpus, TOP_K, |q| timed_rank(db, q, &seconds));
    let time_mk = seconds.replace(0.0) * per_100;

    db.set_use_markers(false);
    let quality_scan = workload_quality(queries, corpus, TOP_K, |q| timed_rank(db, q, &seconds));
    let time_scan = seconds.get() * per_100;
    db.set_use_markers(true);

    let (acc_mk, acc_scan) = lr_accuracy(db, corpus, 77);
    println!(
        "{:<12} | 10-mkrs: LR-acc {:.2} NDCG@10 {:.2} runtime {:>7.2}s | no-mkrs: LR-acc {:.2} NDCG@10 {:.2} runtime {:>7.2}s | speedup {:.2}x",
        label, acc_mk, quality_mk, time_mk, acc_scan, quality_scan, time_scan,
        time_scan / time_mk.max(1e-9)
    );
}

fn bench(c: &mut Criterion) {
    banner("Table 7: marker summaries (10-mkrs) vs no markers (runtime per 100 queries)");
    let hotels = hotel_corpus();
    let hotel_db = build_db(&hotels);
    let h_bank = hotel_workload(&hotels.spec);
    run_set(
        &hotel_db,
        &hotels,
        &generate_queries(&h_bank, QUERIES, 4, ObjectiveFilter::LondonUnder300, 7),
        "London",
    );
    run_set(
        &hotel_db,
        &hotels,
        &generate_queries(&h_bank, QUERIES, 4, ObjectiveFilter::Amsterdam, 8),
        "Amsterdam",
    );
    let restaurants = restaurant_corpus();
    let rest_db = build_db(&restaurants);
    let r_bank = restaurant_workload(&restaurants.spec);
    run_set(
        &rest_db,
        &restaurants,
        &generate_queries(&r_bank, QUERIES, 4, ObjectiveFilter::LowPrice, 9),
        "Low-Price",
    );
    run_set(
        &rest_db,
        &restaurants,
        &generate_queries(&r_bank, QUERIES, 4, ObjectiveFilter::Japanese, 10),
        "JP Cuisine",
    );

    // Ablation: 4 markers instead of 10.
    let mut small_cfg = opine_bench::bench_build_config();
    small_cfg.markers_per_attribute = 4;
    let small_db = opine_core::build(&hotels, &small_cfg);
    let queries = generate_queries(&h_bank, QUERIES, 4, ObjectiveFilter::LondonUnder300, 7);
    let q4 = workload_quality(&queries, &hotels, TOP_K, |q| {
        opine_rank(&small_db, q, TOP_K)
    });
    let q10 = workload_quality(&queries, &hotels, TOP_K, |q| {
        opine_rank(&hotel_db, q, TOP_K)
    });
    println!("marker-count ablation (London medium): k=4 NDCG {q4:.2} vs k=10 NDCG {q10:.2}");

    // Ablation: Fagin's Threshold Algorithm vs full scan for fuzzy top-k.
    let preds = ["clean rooms", "friendly staff", "quiet room"];
    let lists: Vec<Vec<(usize, f64)>> = preds
        .iter()
        .map(|p| {
            let mut l: Vec<(usize, f64)> = (0..hotel_db.num_entities())
                .map(|e| (e, hotel_db.degree(e, p)))
                .collect();
            l.sort_by(|a, b| b.1.total_cmp(&a.1));
            l
        })
        .collect();
    let ta = threshold_topk(&lists, TOP_K);
    let fs = full_scan_topk(&lists, TOP_K);
    assert_eq!(
        ta.iter().map(|x| x.0).collect::<Vec<_>>(),
        fs.iter().map(|x| x.0).collect::<Vec<_>>()
    );
    println!("threshold-algorithm top-{TOP_K} matches full scan on 3-predicate conjunction ✓");

    let mut group = c.benchmark_group("table7");
    group.sample_size(10);
    // One entity's degree, computed afresh each iteration (no point or
    // column memo) under each membership model.
    let interp = hotel_db.interpret("clean rooms");
    group.bench_function("degree_with_markers", |b| {
        b.iter(|| black_box(hotel_db.degree_for_interpretation(3, "clean rooms", &interp)));
    });
    group.bench_function("degree_no_markers_scan", |b| {
        hotel_db.set_use_markers(false);
        b.iter(|| black_box(hotel_db.degree_for_interpretation(3, "clean rooms", &interp)));
        hotel_db.set_use_markers(true);
    });
    group.bench_function("threshold_topk", |b| {
        b.iter(|| black_box(threshold_topk(&lists, TOP_K)))
    });
    group.bench_function("full_scan_topk", |b| {
        b.iter(|| black_box(full_scan_topk(&lists, TOP_K)))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
