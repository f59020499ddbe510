//! Paper-fidelity golden: the quality numbers of Table 5 (OpineDB
//! NDCG@10 on the easy/medium/hard query sets) and Table 7 (marker
//! summaries vs the raw-scan ablation), on a seeded small hotel corpus,
//! pinned with exact `f64` equality — before and after a fixed seeded
//! `INSERT` sequence that crosses one delta merge.
//!
//! The equivalence suites prove that fast paths match their references;
//! this golden also catches drift in the references themselves. Every
//! input is seeded, so the numbers are deterministic. Re-recording a
//! value is a deliberate act: log it in `CHANGES.md` with the reason,
//! and never re-seed or resize the fixture to make a number pass.

use opinedb::core::{build, BuildConfig, OpineDb};
use opinedb::corpus::hotel::hotel_spec;
use opinedb::corpus::workload::hotel_workload;
use opinedb::corpus::{Corpus, CorpusConfig};
use opinedb::embed::Word2VecConfig;
use opinedb::eval::{generate_queries, workload_quality, EvalQuery, ObjectiveFilter};

const TOP_K: usize = 10;
const QUERIES_PER_SET: usize = 40;
/// Rows per fixture `INSERT` batch.
const BATCH_ROWS: usize = 10;
/// Fixture batches: 90 rows cross the default 64-review merge threshold
/// once, leaving 20 unmerged reviews behind the merge.
const BATCHES: usize = 9;

fn corpus() -> Corpus {
    Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities: 120,
            mean_reviews: 16,
            seed: 2019,
        },
    )
}

fn build_db(corpus: &Corpus) -> OpineDb {
    build(
        corpus,
        &BuildConfig {
            w2v: Word2VecConfig {
                dim: 24,
                epochs: 2,
                ..Default::default()
            },
            membership_tuples: 600,
            ..Default::default()
        },
    )
}

/// OpineDB's ranking of `query` through the full SQL path.
fn opine_rank(db: &OpineDb, query: &EvalQuery) -> Vec<usize> {
    let sql = query.to_sql(db.entity_table(), TOP_K);
    db.query(&sql)
        .expect("eval query runs")
        .result
        .rows
        .iter()
        .filter_map(|(row, _)| row[0].as_str().and_then(|key| db.entity_id(key)))
        .collect()
}

/// Table 5's easy / medium / hard query sets (2 / 4 / 7 conjuncts) under
/// the London ∧ <300 objective variant, seeded as the Table 5 bench
/// seeds them.
fn table5_sets(corpus: &Corpus) -> [Vec<EvalQuery>; 3] {
    let bank = hotel_workload(&corpus.spec);
    [2usize, 4, 7].map(|conjuncts| {
        generate_queries(
            &bank,
            QUERIES_PER_SET,
            conjuncts,
            ObjectiveFilter::LondonUnder300,
            1000 + conjuncts as u64,
        )
    })
}

fn table5(db: &OpineDb, corpus: &Corpus) -> [f64; 3] {
    table5_sets(corpus).map(|set| workload_quality(&set, corpus, TOP_K, |q| opine_rank(db, q)))
}

/// Table 7's pair: NDCG@10 with marker summaries, then with the raw-scan
/// membership ablation, over one medium query set.
fn table7(db: &OpineDb, corpus: &Corpus) -> (f64, f64) {
    let bank = hotel_workload(&corpus.spec);
    let queries = generate_queries(&bank, QUERIES_PER_SET, 4, ObjectiveFilter::None, 7);
    db.set_use_markers(true);
    let markers = workload_quality(&queries, corpus, TOP_K, |q| opine_rank(db, q));
    db.set_use_markers(false);
    let scan = workload_quality(&queries, corpus, TOP_K, |q| opine_rank(db, q));
    db.set_use_markers(true);
    (markers, scan)
}

/// splitmix64: the fixture's seeded choice of entity and reviewer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The fixed `INSERT` sequence: review texts and years from a second
/// seeded corpus, each aimed at a seeded hotel of the served one; half
/// the rows reuse a served reviewer, half introduce a new one.
fn insert_fixture(db: &OpineDb, served: &Corpus) -> Vec<String> {
    let texts = Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities: 30,
            mean_reviews: 6,
            seed: 7_2019,
        },
    );
    (0..BATCHES)
        .map(|batch| {
            let rows: Vec<String> = (0..BATCH_ROWS)
                .map(|r| {
                    let h = mix((batch * BATCH_ROWS + r) as u64);
                    let review = &texts.reviews[h as usize % texts.reviews.len()];
                    let entity = (h >> 20) as usize % db.num_entities();
                    let reviewer = if h >> 60 & 1 == 0 {
                        served.reviews[(h >> 24) as usize % served.reviews.len()].reviewer_id
                    } else {
                        5_000_000 + batch * BATCH_ROWS + r
                    };
                    format!(
                        "('{}', '{}', {}, {})",
                        db.entity_key(entity),
                        review.text.replace('\'', " "),
                        review.year,
                        reviewer
                    )
                })
                .collect();
            format!(
                "INSERT INTO reviews (entity, text, year, reviewer_id) VALUES {}",
                rows.join(", ")
            )
        })
        .collect()
}

/// Asserts exact equality, printing the full-precision value on failure
/// so a deliberate re-record can copy it.
fn assert_golden(label: &str, actual: f64, expected: f64) {
    assert!(
        actual.to_bits() == expected.to_bits(),
        "{label}: got {actual:?}, golden {expected:?}"
    );
}

#[test]
fn table5_table7_and_post_insert_quality_match_the_golden() {
    let corpus = corpus();
    let db = build_db(&corpus);

    let [easy, medium, hard] = table5(&db, &corpus);
    assert_golden("table5 easy", easy, TABLE5[0]);
    assert_golden("table5 medium", medium, TABLE5[1]);
    assert_golden("table5 hard", hard, TABLE5[2]);

    let (markers, scan) = table7(&db, &corpus);
    assert_golden("table7 markers", markers, TABLE7.0);
    assert_golden("table7 no-markers", scan, TABLE7.1);

    let mut merges = 0;
    for sql in insert_fixture(&db, &corpus) {
        let receipt = db.insert_sql(&sql).expect("fixture insert");
        assert_eq!(receipt.inserted, BATCH_ROWS);
        merges += usize::from(receipt.merged);
    }
    assert_eq!(merges, 1, "the fixture crosses exactly one merge");
    assert_eq!(db.delta_reviews(), BATCHES * BATCH_ROWS);

    let [easy, medium, hard] = table5(&db, &corpus);
    assert_golden("post-insert table5 easy", easy, POST_INSERT_TABLE5[0]);
    assert_golden("post-insert table5 medium", medium, POST_INSERT_TABLE5[1]);
    assert_golden("post-insert table5 hard", hard, POST_INSERT_TABLE5[2]);

    let (markers, scan) = table7(&db, &corpus);
    assert_golden("post-insert table7 markers", markers, POST_INSERT_TABLE7.0);
    assert_golden("post-insert table7 no-markers", scan, POST_INSERT_TABLE7.1);
}

// The golden. Re-record only as the module doc says.
const TABLE5: [f64; 3] = [0.7067133400811876, 0.7760615413796946, 0.7986782428252277];
const TABLE7: (f64, f64) = (0.7322484114829677, 0.7557237927083642);
const POST_INSERT_TABLE5: [f64; 3] = [0.6937447246824948, 0.766960912054141, 0.7891971047670034];
const POST_INSERT_TABLE7: (f64, f64) = (0.7116679912924767, 0.73749283615949);
