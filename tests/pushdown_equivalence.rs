//! Mixed objective+subjective queries must return **byte-identical**
//! results whether they ride the objective-predicate pushdown into the
//! threshold-algorithm fast path or the naive row-at-a-time scoring
//! loop — same rows, same order, bit-equal `f64` scores — through both
//! `execute` and `execute_lazy`.

use opinedb::core::topk::{threshold_topk_dense, threshold_topk_dense_filtered};
use opinedb::store::ast::ColumnRef;
use opinedb::store::exec::SubjectiveScorer;
use opinedb::store::parser::parse_select;
use opinedb::store::{
    execute, execute_lazy, Bitmap, Catalog, Column, ColumnType, RowAtATime, Schema, StoreError,
    Value,
};
use proptest::prelude::*;
use std::cell::Cell;

/// A scorer over synthetic degree columns that implements the same
/// ranking contract as `OpineDb`: dense columns per predicate, sorted
/// orders, candidate-filtered TA. Row order equals entity id (the
/// catalog below is inserted in id order), so the executor's row-indexed
/// candidate bitmaps apply to entities directly.
struct SyntheticIndex {
    /// `degrees[p][e]` for predicate name `p{p}`.
    degrees: Vec<Vec<f64>>,
    sorted: Vec<Vec<u32>>,
    keys: Vec<String>,
    pushdowns: Cell<u32>,
}

impl SyntheticIndex {
    fn new(degrees: Vec<Vec<f64>>, keys: Vec<String>) -> Self {
        let sorted = degrees
            .iter()
            .map(|col| {
                let mut order: Vec<u32> = (0..col.len() as u32).collect();
                order.sort_by(|&a, &b| {
                    col[b as usize]
                        .total_cmp(&col[a as usize])
                        .then_with(|| a.cmp(&b))
                });
                order
            })
            .collect();
        SyntheticIndex {
            degrees,
            sorted,
            keys,
            pushdowns: Cell::new(0),
        }
    }

    fn predicate_index(&self, predicate: &str) -> Option<usize> {
        predicate.strip_prefix('p').and_then(|n| n.parse().ok())
    }

    fn entity(&self, key: &Value) -> Option<usize> {
        let name = key.as_str()?;
        self.keys.iter().position(|k| k == name)
    }
}

impl SubjectiveScorer for SyntheticIndex {
    fn degree_predicate(&self, predicate: &str, key: &Value) -> Result<f64, StoreError> {
        let p = self
            .predicate_index(predicate)
            .ok_or_else(|| StoreError::NoScorer(predicate.to_string()))?;
        let e = self
            .entity(key)
            .ok_or_else(|| StoreError::Execution(format!("unknown key {key}")))?;
        Ok(self.degrees[p][e])
    }

    fn degree_match(
        &self,
        attribute: &ColumnRef,
        _phrase: &str,
        _key: &Value,
    ) -> Result<f64, StoreError> {
        Err(StoreError::NoScorer(attribute.column.clone()))
    }

    fn rank_subjective_conjunction(
        &self,
        predicates: &[&str],
        k: usize,
        candidates: Option<&Bitmap>,
    ) -> Option<Vec<(Value, f64)>> {
        let columns: Vec<&[f64]> = predicates
            .iter()
            .map(|p| self.predicate_index(p).map(|i| self.degrees[i].as_slice()))
            .collect::<Option<Vec<_>>>()?;
        let orders: Vec<&[u32]> = predicates
            .iter()
            .map(|p| self.predicate_index(p).map(|i| self.sorted[i].as_slice()))
            .collect::<Option<Vec<_>>>()?;
        let ranked = match candidates {
            Some(bitmap) => {
                self.pushdowns.set(self.pushdowns.get() + 1);
                threshold_topk_dense_filtered(&columns, &orders, k, |e| bitmap.get(e))
            }
            None => threshold_topk_dense(&columns, &orders, k),
        };
        Some(
            ranked
                .into_iter()
                .map(|(e, score)| (Value::text(&self.keys[e]), score))
                .collect(),
        )
    }
}

/// Builds the catalog: one table `t(name, price)` with rows in entity-id
/// order.
fn catalog(prices: &[f64]) -> (Catalog, Vec<String>) {
    let mut cat = Catalog::new();
    cat.create_table(Schema::new(
        "t",
        vec![
            Column::new("name", ColumnType::Text),
            Column::new("price", ColumnType::Float),
        ],
        0,
    ))
    .unwrap();
    let keys: Vec<String> = (0..prices.len()).map(|e| format!("e{e}")).collect();
    for (key, &price) in keys.iter().zip(prices) {
        cat.insert("t", vec![Value::text(key), Value::Float(price)])
            .unwrap();
    }
    (cat, keys)
}

proptest! {
    /// The pushdown TA path and the naive row-at-a-time path agree
    /// exactly on random catalogs and random mixed WHERE clauses —
    /// degrees and prices are quantized so score ties are common and
    /// the deterministic tiebreak is genuinely exercised.
    #[test]
    fn pushdown_ta_equals_row_at_a_time(
        rows in prop::collection::vec((0u32..8, 0u32..5, 0u32..5), 1..40),
        threshold in 0u32..9,
        predicates in 1usize..3,
        limit in 0usize..14,
    ) {
        let prices: Vec<f64> = rows.iter().map(|r| f64::from(r.0) * 25.0).collect();
        let degrees: Vec<Vec<f64>> = (0..predicates)
            .map(|p| {
                rows.iter()
                    .map(|r| f64::from([r.1, r.2][p % 2]) / 4.0)
                    .collect()
            })
            .collect();
        let (cat, keys) = catalog(&prices);

        // Interleave the objective conjunct between subjective ones so
        // conjunct collection (not just prefix splitting) is tested.
        let subjective: Vec<String> = (0..predicates).map(|p| format!("\"p{p}\"")).collect();
        let mut where_parts = subjective.clone();
        where_parts.insert(predicates / 2, format!("price < {}", f64::from(threshold) * 25.0));
        let mut sql = format!("select * from t where {}", where_parts.join(" and "));
        if limit > 0 {
            sql += &format!(" limit {limit}");
        }
        let query = parse_select(&sql).unwrap();

        let indexed = SyntheticIndex::new(degrees, keys);
        // The reference plan over the same scorer: the executor's
        // row-at-a-time scoring of the candidates.
        let naive = RowAtATime(&indexed);

        let fast = execute(&query, &cat, &indexed).unwrap();
        prop_assert!(indexed.pushdowns.get() == 1, "pushdown must fire for {}", sql);
        let slow = execute(&query, &cat, &naive).unwrap();
        prop_assert!(indexed.pushdowns.get() == 1, "the reference must not push down: {}", sql);

        prop_assert!(fast.rows.len() == slow.rows.len(), "{}", sql);
        for (i, ((frow, fscore), (srow, sscore))) in
            fast.rows.iter().zip(&slow.rows).enumerate()
        {
            prop_assert!(frow == srow, "row {} of {}", i, sql);
            prop_assert!(
                fscore.to_bits() == sscore.to_bits(),
                "score {} must be bit-identical ({} vs {}) in {}",
                i, fscore, sscore, sql
            );
        }

        // The borrowing path agrees with the materializing path on both
        // scorers.
        let scorers: [(&dyn SubjectiveScorer, _); 2] = [(&indexed, &fast), (&naive, &slow)];
        for (scorer, reference) in scorers {
            let lazy = execute_lazy(&query, &cat, scorer).unwrap();
            prop_assert_eq!(lazy.len(), reference.rows.len());
            for (i, (row, score)) in reference.rows.iter().enumerate() {
                prop_assert_eq!(lazy.score(i).to_bits(), score.to_bits());
                let vals: Vec<Value> = lazy.values(i).map(|v| v.to_value()).collect();
                prop_assert_eq!(&vals, row);
            }
        }
    }
}

/// End-to-end: the same equivalence through a real `OpineDb` — the
/// pushdown plan vs the `RowAtATime` reference plan over warm degree
/// columns vs the same reference on cold caches — over the paper's
/// running-example shape at several selectivities.
#[test]
fn opinedb_pushdown_matches_naive_end_to_end() {
    use opinedb::core::{build, BuildConfig};
    use opinedb::corpus::hotel::hotel_spec;
    use opinedb::corpus::{Corpus, CorpusConfig};

    let corpus = Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities: 20,
            mean_reviews: 10,
            seed: 33,
        },
    );
    let db = build(
        &corpus,
        &BuildConfig {
            w2v: opinedb::embed::Word2VecConfig {
                dim: 16,
                epochs: 1,
                ..Default::default()
            },
            membership_tuples: 300,
            ..Default::default()
        },
    );

    let queries = [
        "select * from hotels where price_pn < 80 and \"clean rooms\" limit 10",
        "select * from hotels where price_pn < 200 and \"clean rooms\" limit 10",
        "select * from hotels where price_pn < 10000 and \"clean rooms\" and \"friendly staff\"",
        "select hotelname from hotels where price_pn < 150 and \"clean rooms\"",
    ];
    let fast_path_counters = || {
        let report = db.cache_report();
        (report.ta_queries, report.pushdown_queries)
    };
    for sql in queries {
        let fast = db.query(sql).expect("pushdown query");
        let select = parse_select(sql).unwrap();
        let counters = fast_path_counters();
        let reference = || opinedb::core::QueryOutput {
            result: execute(&select, db.catalog(), &RowAtATime(&db)).expect("reference query"),
            interpretations: Vec::new(),
        };
        let row_at_a_time = reference();
        db.clear_caches();
        let uncached = reference();
        assert_eq!(
            fast_path_counters(),
            counters,
            "the reference runs must not take the TA or pushdown path: {sql}"
        );

        for (label, reference) in [
            ("warm-reference", &row_at_a_time),
            ("cold-reference", &uncached),
        ] {
            assert_eq!(
                fast.result.rows.len(),
                reference.result.rows.len(),
                "{label}: {sql}"
            );
            for (a, b) in fast.result.rows.iter().zip(&reference.result.rows) {
                assert_eq!(a.0, b.0, "{label}: {sql}");
                assert_eq!(
                    a.1.to_bits(),
                    b.1.to_bits(),
                    "{label}: scores must be bit-identical ({} vs {}) in {sql}",
                    a.1,
                    b.1
                );
            }
        }
    }
    assert!(
        db.cache_report().pushdown_queries >= queries.len() as u64,
        "every mixed query must take the pushdown path"
    );
}
