//! Seeded inputs: the hotel corpus, the three request streams, the
//! insert batches and the NDCG subset. Everything here is a pure
//! function of the workload seed; the server only ever sees the SQL
//! text these produce.

use opine_corpus::hotel::hotel_spec;
use opine_corpus::workload::{build_workload, hotel_workload, WorkloadPredicate};
use opine_corpus::{Corpus, CorpusConfig};
use opine_eval::workload::ObjectiveFilter;
use opine_eval::EvalQuery;
use opine_server::json;
use opine_store::ReviewQualifier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Hotels in the served corpus.
pub const HOTELS: usize = 2000;
/// Mean reviews per hotel.
pub const MEAN_REVIEWS: usize = 20;
/// `limit` of every search statement (the paper's NDCG@10 cut-off).
pub const K: usize = 10;
/// Predicate bank of `search_tail`: far more predicates than the
/// engine's 256-entry degree-column cache.
pub const TAIL_BANK: usize = 600;
/// Distinct `search_tail` statements generated per run, several times
/// what one run issues on two cores. A run that issues more wraps
/// around, and the repeats may hit the result cache.
pub const TAIL_STREAM: usize = 60_000;
/// One in this many `search_tail` statements carries a review
/// qualifier. At one in 16 the slower qualified statements fill the
/// slowest 6%: the p90 stays below them and the p99 falls inside them,
/// so neither percentile lands on the boundary between the two costs.
pub const TAIL_QUALIFIED_EVERY: usize = 16;
/// Statements generated for the `ingest_mixed` reader (wraps likewise).
pub const READER_STREAM: usize = 20_000;
/// Popular statements in the `search_head` pool.
pub const HEAD_POOL: usize = 64;
/// Zipf exponent of `search_head` popularity.
pub const HEAD_ZIPF_S: f64 = 1.1;
/// Statements in the NDCG subset of `search_tail` and `ingest_mixed`.
pub const NDCG_QUERIES: usize = 256;
/// Rows per `INSERT` batch.
pub const BATCH_ROWS: usize = 25;
/// Open-loop arrival rate of the `ingest_mixed` writer, batches/s.
pub const INSERT_RATE: f64 = 10.0;
/// Closed-loop insert batches a search workload sends on each of its
/// set-ups, after the read window (insert latency without readers).
pub const PROBE_BATCHES: usize = 150;
/// Every inserted row carries `helpful_votes = INSERT_MARK + batch`; the
/// generated corpus never exceeds 25 votes, so the post-run visibility
/// check can find each batch's rows exactly.
pub const INSERT_MARK: u64 = 1000;
/// One in this many `ingest_mixed` reads is qualified. Qualified reads
/// rescan the reviews and cost about 20x a plain read; at a 1:1 mix the
/// read median falls on the boundary between the two modes.
pub const QUALIFIED_EVERY: usize = 4;
/// Review qualifier of the `ingest_mixed` reader's qualified statements.
pub const READER_QUALIFIER: ReviewQualifier = ReviewQualifier {
    min_year: Some(2010),
    max_year: None,
    min_reviewer_count: Some(2),
};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SearchTail,
    SearchHead,
    IngestMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "search_tail" => Some(Workload::SearchTail),
            "search_head" => Some(Workload::SearchHead),
            "ingest_mixed" => Some(Workload::IngestMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchTail => "search_tail",
            Workload::SearchHead => "search_head",
            Workload::IngestMixed => "ingest_mixed",
        }
    }
}

/// One search statement with the ground-truth view of it.
#[derive(Debug, Clone)]
pub struct Query {
    pub eval: EvalQuery,
    pub qualifier: Option<ReviewQualifier>,
    pub sql: String,
    /// `POST /query` body.
    pub body: String,
}

impl Query {
    fn new(eval: EvalQuery, qualifier: Option<ReviewQualifier>) -> Query {
        let mut sql = eval.to_sql("hotels", K);
        if let Some(q) = qualifier {
            // `with reviews(...)` goes between WHERE and LIMIT.
            let cut = sql.rfind(" limit ").expect("to_sql renders a limit");
            sql.insert_str(cut, &format!(" with {q}"));
        }
        let body = format!("{{\"sql\": {}}}", json::escaped(&sql));
        Query {
            eval,
            qualifier,
            sql,
            body,
        }
    }

    pub fn predicates(&self) -> Vec<&str> {
        self.eval
            .predicates
            .iter()
            .map(|p| p.text.as_str())
            .collect()
    }
}

/// One `INSERT INTO reviews` batch.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Batch number; its rows carry `helpful_votes = INSERT_MARK + id`.
    pub id: u64,
    pub sql: String,
    /// `POST /insert` body.
    pub body: String,
}

/// Mixes a seed with a stream index (SplitMix64 finaliser).
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The served corpus for a seed.
pub fn corpus(seed: u64) -> Corpus {
    Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities: HOTELS,
            mean_reviews: MEAN_REVIEWS,
            seed: mix(seed, 1),
        },
    )
}

const FILTERS: [ObjectiveFilter; 3] = [
    ObjectiveFilter::None,
    ObjectiveFilter::LondonUnder300,
    ObjectiveFilter::Amsterdam,
];
const CONJUNCTS: [usize; 3] = [2, 4, 7];

fn sample_predicates(
    bank: &[WorkloadPredicate],
    n: usize,
    rng: &mut StdRng,
) -> Vec<WorkloadPredicate> {
    let mut picked: Vec<usize> = Vec::with_capacity(n);
    while picked.len() < n {
        let i = rng.gen_range(0..bank.len());
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked.into_iter().map(|i| bank[i].clone()).collect()
}

/// Distinct conjunctions of 2, 4 or 7 predicates from `bank`, with the
/// objective filter rotating through none, London < 300 and Amsterdam.
fn conjunctions(bank: &[WorkloadPredicate], n: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let i = out.len();
        let eval = EvalQuery {
            predicates: sample_predicates(bank, CONJUNCTS[i % 3], &mut rng),
            filter: FILTERS[(i / 3) % 3],
        };
        let query = Query::new(eval, None);
        if seen.insert(query.sql.clone()) {
            out.push(query);
        }
    }
    out
}

/// The first `n` statements of the `search_tail` stream; its first
/// [`NDCG_QUERIES`] are the NDCG subset.
pub fn tail_stream(seed: u64, n: usize) -> Vec<Query> {
    conjunctions(&build_workload(&hotel_spec(), TAIL_BANK), n, mix(seed, 2))
        .into_iter()
        .enumerate()
        .map(|(i, query)| match tail_qualifier(i) {
            Some(qualifier) => Query::new(query.eval, Some(qualifier)),
            None => query,
        })
        .collect()
}

/// Every [`TAIL_QUALIFIED_EVERY`]-th `search_tail` statement is scoped by
/// one of 48 review qualifiers, three times the engine's 16-entry
/// filtered-summary cache.
fn tail_qualifier(i: usize) -> Option<ReviewQualifier> {
    (i % TAIL_QUALIFIED_EVERY == TAIL_QUALIFIED_EVERY - 1).then(|| {
        let k = i / TAIL_QUALIFIED_EVERY;
        ReviewQualifier {
            min_year: Some(2005 + (k % 12) as u32),
            max_year: None,
            min_reviewer_count: Some(1 + (k / 12 % 4) as u32),
        }
    })
}

/// `search_head`: the popular pool over the paper's 190-predicate bank.
pub fn head_pool(seed: u64) -> Vec<Query> {
    conjunctions(&hotel_workload(&hotel_spec()), HEAD_POOL, mix(seed, 3))
}

/// Cumulative Zipf weights over the head pool's popularity ranks.
pub fn zipf_cdf() -> Vec<f64> {
    let weights: Vec<f64> = (1..=HEAD_POOL)
        .map(|rank| 1.0 / (rank as f64).powf(HEAD_ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// The pool index of request `i` of the `search_head` stream.
pub fn head_pick(cdf: &[f64], seed: u64, i: u64) -> usize {
    let u = (mix(seed ^ 0x4ead, i) >> 11) as f64 / (1u64 << 53) as f64;
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

/// `ingest_mixed` reader: 2-predicate conjunctions over the paper's
/// bank; every [`QUALIFIED_EVERY`]-th carries [`READER_QUALIFIER`].
pub fn reader_stream(seed: u64, n: usize) -> Vec<Query> {
    let bank = hotel_workload(&hotel_spec());
    let mut rng = StdRng::seed_from_u64(mix(seed, 4));
    (0..n)
        .map(|i| {
            let eval = EvalQuery {
                predicates: sample_predicates(&bank, 2, &mut rng),
                filter: ObjectiveFilter::None,
            };
            let qualified = i % QUALIFIED_EVERY == QUALIFIED_EVERY - 1;
            Query::new(eval, qualified.then_some(READER_QUALIFIER))
        })
        .collect()
}

/// `n` insert batches numbered from `first`. Texts come from a second
/// seeded corpus; half the rows reuse an existing reviewer of `served`
/// (moving that reviewer's degree bucket), half introduce a new one.
pub fn insert_batches(seed: u64, served: &Corpus, first: u64, n: usize) -> Vec<Batch> {
    let texts = Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities: 200,
            mean_reviews: 8,
            seed: mix(seed, 5),
        },
    );
    (first..first + n as u64)
        .map(|id| {
            let rows: Vec<String> = (0..BATCH_ROWS as u64)
                .map(|r| {
                    let n = id * BATCH_ROWS as u64 + r;
                    let h = mix(seed ^ 0x1275e47, n);
                    let review = &texts.reviews[(h % texts.reviews.len() as u64) as usize];
                    let entity = &served.entities[(h >> 20) as usize % served.entities.len()];
                    let reviewer = if h >> 60 & 1 == 0 {
                        served.reviews[(h >> 24) as usize % served.reviews.len()].reviewer_id
                    } else {
                        10_000_000 + n as usize
                    };
                    format!(
                        "('{}', '{}', {}, {}, {})",
                        entity.name,
                        review.text.replace('\'', " "),
                        review.year,
                        reviewer,
                        INSERT_MARK + id
                    )
                })
                .collect();
            let sql = format!(
                "INSERT INTO reviews (entity, text, year, reviewer_id, helpful_votes) VALUES {}",
                rows.join(", ")
            );
            let body = format!("{{\"sql\": {}}}", json::escaped(&sql));
            Batch { id, sql, body }
        })
        .collect()
}
