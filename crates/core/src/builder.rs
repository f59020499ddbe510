//! The subjective-database construction pipeline (Sec. 4 of the paper).
//!
//! From a raw review corpus this builds everything [`crate::OpineDb`]
//! needs: the word2vec model over the unlabeled text, per-attribute
//! linguistic domains, auto-discovered markers, per-entity marker
//! summaries (with provenance), the three-stage interpreter's indexes, the
//! trained membership functions, and the relational catalog.

use crate::db::{OpineDb, PhraseOcc, ReviewMeta};
use crate::domain::LinguisticDomain;
use crate::interpret::{Interpreter, InterpreterConfig, ReviewDigest};
use crate::membership::{marker_features, scan_features, MembershipModel};
use crate::record::build_records;
use crate::summary::{AssignMode, MarkerSet, SummaryKind};
use opine_corpus::spec::AspectKind;
use opine_corpus::workload::build_workload;
use opine_corpus::Corpus;
use opine_embed::{PhraseEmbedder, Word2Vec, Word2VecConfig};
use opine_ir::InvertedIndex;
use opine_ml::LogRegConfig;
use opine_sentiment::SentimentAnalyzer;
use opine_store::{Catalog, Column, ColumnType, Schema, Value};
use opine_text::{split_sentences, tokenize, IdfModel, Vocab};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Where extractions come from during construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExtractionMode {
    /// Use the corpus's gold pairs — isolates query-processing quality
    /// from extraction noise (the extractor itself is evaluated in the
    /// Table 6 experiment).
    #[default]
    Gold,
    /// Run the learned tagging+pairing+classification pipeline.
    Learned,
}

/// Construction parameters.
#[derive(Debug, Clone)]
pub struct BuildConfig {
    /// Markers per subjective attribute (Table 7 uses 10).
    pub markers_per_attribute: usize,
    /// Word2vec hyper-parameters for the unlabeled pre-training pass.
    pub w2v: Word2VecConfig,
    /// Interpreter thresholds.
    pub interpreter: InterpreterConfig,
    /// Phrase→marker assignment mode.
    pub assign: AssignMode,
    /// Gold vs learned extraction.
    pub extraction: ExtractionMode,
    /// Number of labelled tuples for membership training (paper: 1 000).
    pub membership_tuples: usize,
    /// Sigmoid offset for the text-retrieval fallback degree.
    pub sigmoid_c: f64,
    /// Cosine below which a phrase counts as unmatched in summaries.
    pub unmatched_threshold: f32,
    /// Master seed.
    pub seed: u64,
}

impl Default for BuildConfig {
    fn default() -> Self {
        Self {
            markers_per_attribute: 10,
            w2v: Word2VecConfig::default(),
            interpreter: InterpreterConfig::default(),
            assign: AssignMode::Best,
            extraction: ExtractionMode::Gold,
            membership_tuples: 1000,
            sigmoid_c: 3.0,
            unmatched_threshold: 0.05,
            seed: 42,
        }
    }
}

/// Builds an [`OpineDb`] from a corpus.
pub fn build(corpus: &Corpus, config: &BuildConfig) -> OpineDb {
    let num_attrs = corpus.spec.aspects.len();
    let sentiment = SentimentAnalyzer::new();

    // ---- 1. Tokenize, intern, train word2vec on the unlabeled corpus ----
    let mut vocab = Vocab::new();
    let mut sentences_interned = Vec::new();
    let mut idf = IdfModel::new(&vocab);
    for review in &corpus.reviews {
        let mut review_tokens = Vec::new();
        for sentence in split_sentences(&review.text) {
            let toks = tokenize(sentence);
            let ids = vocab.intern_all(&toks);
            review_tokens.extend(ids.iter().copied());
            sentences_interned.push(ids);
        }
        idf.add_document(&review_tokens);
    }
    // Make sure workload/query vocabulary is interned (idf treats unseen
    // words as maximally rare, which is the desired behaviour).
    for aspect in &corpus.spec.aspects {
        for q in &aspect.queries {
            for t in tokenize(&q.text) {
                vocab.intern(&t);
            }
        }
    }
    for concept in &corpus.spec.concepts {
        for q in &concept.queries {
            for t in tokenize(q) {
                vocab.intern(&t);
            }
        }
    }
    let w2v = Word2Vec::train(&sentences_interned, vocab.len(), &config.w2v);
    let embedder = PhraseEmbedder::new(w2v, idf);

    // ---- 2. Extraction: (review, attr, opinion term) triples ----
    // Gold mode reads the generator's pairs (isolating query-processing
    // quality from extraction noise); learned mode runs the full Sec. 4
    // pipeline: tagging + pairing + seed-expansion attribute classifier.
    let review_extractions: Vec<Vec<(usize, String)>> = match config.extraction {
        ExtractionMode::Gold => corpus
            .reviews
            .iter()
            .map(|r| {
                r.gold
                    .iter()
                    .map(|g| (g.aspect, g.opinion_term.clone()))
                    .collect()
            })
            .collect(),
        ExtractionMode::Learned => learned_extractions(corpus, &embedder, &vocab, config),
    };

    // ---- 3. Linguistic domains ----
    // Joint domains ("{opinion} {aspect}") drive stage-1 interpretation;
    // opinion domains drive marker discovery and summary aggregation.
    let mut joint_domains: Vec<LinguisticDomain> =
        (0..num_attrs).map(|_| LinguisticDomain::new()).collect();
    let mut opinion_domains: Vec<LinguisticDomain> =
        (0..num_attrs).map(|_| LinguisticDomain::new()).collect();
    for (review, extractions) in corpus.reviews.iter().zip(&review_extractions) {
        for (attr, opinion) in extractions {
            let senti = sentiment.score(opinion);
            opinion_domains[*attr].observe(opinion, senti, &embedder, &vocab);
            // Pair the opinion with a representative aspect term for the
            // joint variation.
            let aspect_term = &corpus.spec.aspects[*attr].aspect_terms[0];
            joint_domains[*attr].observe(
                &format!("{opinion} {aspect_term}"),
                senti,
                &embedder,
                &vocab,
            );
        }
        let _ = review;
    }

    // ---- 4. Marker discovery (Sec. 4.2.1) ----
    let marker_sets: Vec<MarkerSet> = corpus
        .spec
        .aspects
        .iter()
        .enumerate()
        .map(|(attr, aspect)| {
            let kind = match aspect.kind {
                AspectKind::Linear { .. } => SummaryKind::Linear,
                AspectKind::Categorical { .. } => SummaryKind::Categorical,
            };
            MarkerSet::discover(
                &aspect.name,
                &opinion_domains[attr],
                kind,
                config.markers_per_attribute,
                config.seed ^ attr as u64,
            )
        })
        .collect();

    // ---- 5. Entity records (summaries, raw occurrences, partials) + review digests ----
    let review_meta: Vec<ReviewMeta> = corpus
        .reviews
        .iter()
        .map(|r| ReviewMeta {
            entity_id: r.entity_id,
            reviewer_id: r.reviewer_id,
            year: r.year,
            helpful_votes: r.helpful_votes,
        })
        .collect();
    // Reviews written per reviewer id: the degree the partials and the
    // `reviewer_min_count` qualifiers compare against.
    let max_reviewer = corpus.reviews.iter().map(|r| r.reviewer_id).max();
    let mut reviewer_counts = vec![0u32; max_reviewer.map_or(0, |m| m + 1)];
    for review in &corpus.reviews {
        reviewer_counts[review.reviewer_id] += 1;
    }
    let mut entity_occs: Vec<Vec<(usize, PhraseOcc)>> = vec![Vec::new(); corpus.entities.len()];
    let mut review_digest: ReviewDigest = Vec::with_capacity(corpus.reviews.len());
    for (review, extractions) in corpus.reviews.iter().zip(&review_extractions) {
        let mut digest = Vec::with_capacity(extractions.len());
        for (attr, opinion) in extractions {
            let var_idx = opinion_domains[*attr]
                .index_of(opinion)
                .expect("observed variation");
            let variation = &opinion_domains[*attr].variations()[var_idx];
            entity_occs[review.entity_id].push((
                *attr,
                PhraseOcc {
                    variation: var_idx,
                    sentiment: variation.sentiment,
                    review_id: review.id,
                },
            ));
            let marker = marker_sets[*attr]
                .assign(&variation.rep, AssignMode::Best)
                .first()
                .map(|&(m, _)| m)
                .unwrap_or(0);
            digest.push((*attr, marker));
        }
        review_digest.push(digest);
    }
    let records = build_records(
        &entity_occs,
        &review_meta,
        &reviewer_counts,
        &opinion_domains,
        &marker_sets,
        config,
    );

    // ---- 6. IR indexes ----
    let mut review_index = InvertedIndex::new();
    let mut review_sentiments = Vec::with_capacity(corpus.reviews.len());
    for review in &corpus.reviews {
        review_index.add_document(&review.text, &mut vocab);
        review_sentiments.push(sentiment.score(&review.text));
    }
    let mut entity_index = InvertedIndex::new();
    for entity in &corpus.entities {
        entity_index.add_document(&corpus.entity_document(entity.id), &mut vocab);
    }
    // Freeze the block-max structure at build time so no query pays it.
    entity_index.freeze();

    let interpreter = Interpreter::new(
        config.interpreter.clone(),
        joint_domains,
        marker_sets,
        review_index,
        review_sentiments,
        review_digest,
    );

    // ---- 7. Membership functions (Sec. 3.3) ----
    // Labelled (summary, phrase, y) tuples; labels come from the latent
    // ground truth of the simulator (the paper used human labels).
    let workload = build_workload(
        &corpus.spec,
        if corpus.spec.name == "hotel" {
            190
        } else {
            185
        },
    );
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xbeef);
    let mut marker_tuples = Vec::with_capacity(config.membership_tuples);
    let mut scan_tuples = Vec::with_capacity(config.membership_tuples);
    for _ in 0..config.membership_tuples {
        let e = rng.gen_range(0..corpus.entities.len());
        let p = &workload[rng.gen_range(0..workload.len())];
        let label = p.satisfied_by(&corpus.entities[e], &corpus.spec);
        let mut q_rep = embedder.rep(&p.text, &vocab);
        opine_embed::normalize(&mut q_rep);
        let q_sent = sentiment.score(&p.text);
        let attr = p.gold_aspect;
        marker_tuples.push((
            marker_features(
                &records[e].cells[attr].summary,
                &interpreter.marker_sets()[attr],
                &q_rep,
                q_sent,
            ),
            label,
        ));
        let phrase_refs: Vec<(&[f32], f64)> = records[e].cells[attr]
            .occs
            .iter()
            .map(|occ| {
                (
                    opinion_domains[attr].variations()[occ.variation]
                        .rep
                        .as_slice(),
                    occ.sentiment,
                )
            })
            .collect();
        scan_tuples.push((scan_features(&phrase_refs, &q_rep, q_sent), label));
    }
    let lr_cfg = LogRegConfig {
        seed: config.seed ^ 0xfeed,
        ..Default::default()
    };
    let membership_markers = MembershipModel::train(&marker_tuples, &lr_cfg);
    let membership_scan = MembershipModel::train(&scan_tuples, &lr_cfg);

    // ---- 8. Relational catalog ----
    let is_hotel = corpus.spec.name == "hotel";
    let entity_table = if is_hotel { "hotels" } else { "restaurants" };
    let mut catalog = Catalog::new();
    let entity_schema = if is_hotel {
        Schema::new(
            entity_table,
            vec![
                Column::new("hotelname", ColumnType::Text),
                Column::new("city", ColumnType::Text),
                Column::new("price_pn", ColumnType::Float),
                Column::new("capacity", ColumnType::Int),
                Column::new("rating", ColumnType::Float),
            ],
            0,
        )
    } else {
        Schema::new(
            entity_table,
            vec![
                Column::new("restname", ColumnType::Text),
                Column::new("city", ColumnType::Text),
                Column::new("price_range", ColumnType::Int),
                Column::new("cuisine", ColumnType::Text),
                Column::new("rating", ColumnType::Float),
            ],
            0,
        )
    };
    catalog.create_table(entity_schema).expect("fresh catalog");
    let mut entity_keys = Vec::with_capacity(corpus.entities.len());
    for entity in &corpus.entities {
        let row = if is_hotel {
            vec![
                Value::text(&entity.name),
                Value::text(&entity.city),
                Value::Float(entity.price),
                Value::Int(entity.capacity as i64),
                Value::Float(entity.rating),
            ]
        } else {
            vec![
                Value::text(&entity.name),
                Value::text(&entity.city),
                Value::Int(entity.price_range as i64),
                Value::text(&entity.cuisine),
                Value::Float(entity.rating),
            ]
        };
        entity_keys.push(entity.name.clone());
        catalog.insert(entity_table, row).expect("schema matches");
    }
    catalog
        .create_table(Schema::new(
            "reviews",
            vec![
                Column::new("review_id", ColumnType::Int),
                Column::new("entity", ColumnType::Text),
                Column::new("reviewer_id", ColumnType::Int),
                Column::new("year", ColumnType::Int),
                Column::new("helpful_votes", ColumnType::Int),
            ],
            0,
        ))
        .expect("fresh catalog");
    for review in &corpus.reviews {
        catalog
            .insert(
                "reviews",
                vec![
                    Value::Int(review.id as i64),
                    Value::text(&corpus.entities[review.entity_id].name),
                    Value::Int(review.reviewer_id as i64),
                    Value::Int(review.year as i64),
                    Value::Int(review.helpful_votes as i64),
                ],
            )
            .expect("schema matches");
    }

    OpineDb::assemble(
        corpus.spec.aspects.iter().map(|a| a.name.clone()).collect(),
        vocab,
        embedder,
        sentiment,
        opinion_domains,
        interpreter,
        records,
        membership_markers,
        membership_scan,
        entity_index,
        catalog,
        entity_table.to_string(),
        entity_keys,
        review_meta,
        reviewer_counts,
        config.clone(),
    )
}

/// The learned extraction pipeline of Sec. 4: a tagger trained on the
/// domain's labelled ABSA data (with embedding-cluster features from the
/// word2vec model pre-trained above), rule-based pairing, and an attribute
/// classifier trained by seed expansion.
fn learned_extractions(
    corpus: &Corpus,
    embedder: &PhraseEmbedder,
    vocab: &Vocab,
    config: &BuildConfig,
) -> Vec<Vec<(usize, String)>> {
    use opine_corpus::absa::absa_datasets;
    use opine_extract::seeds::seeds_from_spec;
    use opine_extract::{expand_seeds, AttributeClassifier, EmbeddingClusters, Extractor};
    use opine_ml::TaggerConfig;
    use opine_text::tokenize_keep_stops;

    // Labelled tagging data for this domain (hotel → the Booking set;
    // restaurants and other domains → the SemEval-14-style restaurant set).
    let datasets = absa_datasets(config.seed ^ 0xab5a);
    let dataset = if corpus.spec.name == "hotel" {
        &datasets[3]
    } else {
        &datasets[0]
    };
    let clusters = EmbeddingClusters::build(embedder.w2v(), vocab, 40, config.seed ^ 0xc1);
    let extractor = Extractor::train(
        &dataset.train,
        Some(clusters),
        &TaggerConfig {
            epochs: 4,
            seed: config.seed ^ 0x7a,
        },
    );

    let seeds = seeds_from_spec(&corpus.spec, 0.6);
    let records = expand_seeds(&seeds, embedder.w2v(), vocab, 3, 0.35, 5000);
    let classifier = AttributeClassifier::train(
        &records,
        corpus.spec.aspects.len(),
        embedder,
        vocab,
        &opine_ml::LogRegConfig {
            epochs: 25,
            seed: config.seed ^ 0x5eed,
            ..Default::default()
        },
    );

    corpus
        .reviews
        .iter()
        .map(|review| {
            let mut out = Vec::new();
            for sentence in split_sentences(&review.text) {
                let tokens = tokenize_keep_stops(sentence);
                for pair in extractor.extract(&tokens) {
                    let attr = classifier.classify(
                        &format!("{} {}", pair.aspect, pair.opinion),
                        embedder,
                        vocab,
                    );
                    out.push((attr, pair.opinion));
                }
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use opine_corpus::hotel::hotel_spec;
    use opine_corpus::CorpusConfig;

    fn small_corpus() -> Corpus {
        Corpus::generate(
            hotel_spec(),
            &CorpusConfig {
                num_entities: 12,
                mean_reviews: 12,
                seed: 5,
            },
        )
    }

    fn fast_config() -> BuildConfig {
        BuildConfig {
            w2v: Word2VecConfig {
                dim: 24,
                epochs: 2,
                ..Default::default()
            },
            membership_tuples: 300,
            ..Default::default()
        }
    }

    #[test]
    fn build_produces_full_db() {
        let corpus = small_corpus();
        let db = build(&corpus, &fast_config());
        assert_eq!(db.attributes.len(), corpus.spec.aspects.len());
        assert_eq!(db.num_entities(), 12);
        // Every entity has a summary per attribute.
        for e in 0..db.num_entities() {
            for a in 0..db.attributes.len() {
                let s = db.summary(e, a);
                assert_eq!(s.num_markers(), db.marker_set(a).markers.len());
            }
        }
    }

    #[test]
    fn summaries_reflect_latent_quality() {
        let corpus = small_corpus();
        let db = build(&corpus, &fast_config());
        // The entity with the highest cleanliness θ should have higher
        // positive-marker mass than the lowest-θ entity.
        let best = corpus
            .entities
            .iter()
            .max_by(|a, b| a.quality[0].total_cmp(&b.quality[0]))
            .unwrap();
        let worst = corpus
            .entities
            .iter()
            .min_by(|a, b| a.quality[0].total_cmp(&b.quality[0]))
            .unwrap();
        if best.quality[0] - worst.quality[0] > 0.4 {
            let set = db.marker_set(0);
            // Identify the marker with the highest sentiment (most positive).
            let pos_marker = set
                .markers
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.sentiment.total_cmp(&b.1.sentiment))
                .map(|(i, _)| i)
                .unwrap();
            let f_best = db.summary(best.id, 0).fractions()[pos_marker];
            let f_worst = db.summary(worst.id, 0).fractions()[pos_marker];
            assert!(
                f_best >= f_worst,
                "best {f_best} should have at least as much positive mass as worst {f_worst}"
            );
        }
    }

    #[test]
    fn marker_counts_conserve_extraction_mass() {
        let corpus = small_corpus();
        let db = build(&corpus, &fast_config());
        // Total summary mass equals the number of gold extractions.
        let total_gold: f64 = corpus.reviews.iter().map(|r| r.gold.len() as f64).sum();
        let total_mass: f64 = (0..db.num_entities())
            .map(|e| {
                (0..db.attributes.len())
                    .map(|a| db.summary(e, a).total)
                    .sum::<f64>()
            })
            .sum();
        assert!((total_gold - total_mass).abs() < 1e-6);
    }

    #[test]
    fn learned_extraction_builds_a_working_db() {
        let corpus = Corpus::generate(
            hotel_spec(),
            &CorpusConfig {
                num_entities: 8,
                mean_reviews: 8,
                seed: 77,
            },
        );
        let db = build(
            &corpus,
            &BuildConfig {
                extraction: ExtractionMode::Learned,
                membership_tuples: 150,
                w2v: Word2VecConfig {
                    dim: 24,
                    epochs: 2,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        // The learned pipeline produced extractions and the DB answers
        // queries with bounded degrees.
        let total_mass: f64 = (0..db.num_entities())
            .map(|e| {
                (0..db.attributes.len())
                    .map(|a| db.summary(e, a).total)
                    .sum::<f64>()
            })
            .sum();
        assert!(total_mass > 0.0, "learned extraction found no phrases");
        let out = db
            .query("select * from hotels where \"clean rooms\" limit 5")
            .expect("query runs");
        for (_, s) in &out.result.rows {
            assert!((0.0..=1.0).contains(s));
        }
    }

    #[test]
    fn catalog_has_entity_and_review_tables() {
        let corpus = small_corpus();
        let db = build(&corpus, &fast_config());
        let names = db.catalog().table_names();
        assert!(names.contains(&"hotels"));
        assert!(names.contains(&"reviews"));
        assert_eq!(db.catalog().table("hotels").unwrap().len(), 12);
    }
}
