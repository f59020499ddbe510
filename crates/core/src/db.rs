//! [`OpineDb`]: the end-to-end subjective database engine.
//!
//! Executes Subjective SQL by combining the relational executor of
//! `opine-store` with the interpreter, membership functions, and fuzzy
//! logic of this crate (Fig. 4 of the paper).

use crate::builder::BuildConfig;
use crate::cache::{BoundedCache, CacheStats};
use crate::domain::LinguisticDomain;
use crate::ingest::{DeltaState, IngestReceipt, IngestState, PhraseMatcher, Pin};
use crate::interpret::{Interpretation, Interpreter};
use crate::membership::{marker_features, scan_features, MembershipModel};
use crate::par;
use crate::summary::{MarkerSet, MarkerSummary, PhraseContribution};
use crate::topk::{threshold_topk_dense, threshold_topk_dense_filtered};
use opine_embed::PhraseEmbedder;
use opine_ir::{Bm25Params, InvertedIndex};
use opine_sentiment::SentimentAnalyzer;
use opine_store::ast::ColumnRef;
use opine_store::exec::{execute_with_algebra, SubjectiveScorer};
use opine_store::{
    execute_lazy_with_overlay, parse_insert, parse_select, Bitmap, Catalog, FuzzyAlgebra,
    InsertStmt, ResultSet, ReviewQualifier, ScoredRows, Select, StoreError, Value,
};
use opine_text::{Vocab, WordId};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, OnceLock};

/// One extracted phrase occurrence in an entity's raw digest.
#[derive(Debug, Clone, Copy)]
pub struct PhraseOcc {
    /// Index into the attribute's opinion domain.
    pub variation: usize,
    /// Sentiment of the phrase.
    pub sentiment: f64,
    /// Source review id.
    pub review_id: usize,
}

/// Review metadata kept for review-qualifying filters.
#[derive(Debug, Clone, Copy)]
pub struct ReviewMeta {
    /// Reviewed entity.
    pub entity_id: usize,
    /// Author id.
    pub reviewer_id: usize,
    /// Publication year.
    pub year: u32,
    /// Helpful votes.
    pub helpful_votes: u32,
}

/// Errors surfaced by [`OpineDb`].
#[derive(Debug, Clone, PartialEq)]
pub enum OpineError {
    /// SQL parse failure.
    Parse(String),
    /// Storage/execution failure.
    Store(StoreError),
    /// The request's deadline expired mid-execution: a cancellation
    /// checkpoint fired inside a long scan and the engine unwound to
    /// the query entry. The serving layer maps this to 504.
    QueryTimeout,
}

impl std::fmt::Display for OpineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpineError::Parse(m) => write!(f, "{m}"),
            OpineError::Store(e) => write!(f, "{e}"),
            OpineError::QueryTimeout => write!(f, "query cancelled: deadline exceeded"),
        }
    }
}

impl std::error::Error for OpineError {}

impl From<StoreError> for OpineError {
    fn from(e: StoreError) -> Self {
        OpineError::Store(e)
    }
}

/// A ranked query answer plus the interpretations that produced it.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// The ranked relational result.
    pub result: ResultSet,
    /// `(predicate, interpretation)` for every natural-language predicate.
    pub interpretations: Vec<(String, Interpretation)>,
}

/// [`QueryOutput`]'s borrowing twin: the ranked rows reference the
/// catalog's storage instead of cloning every `Vec<Value>`, so a serving
/// layer can serialize the answer with zero per-row allocation.
#[derive(Debug)]
pub struct QueryRef<'a> {
    /// The ranked result, borrowing winning rows from the catalog.
    pub result: ScoredRows<'a>,
    /// `(predicate, interpretation)` for every natural-language predicate.
    pub interpretations: Vec<(String, Interpretation)>,
    /// The data epoch this query pinned: every read underneath saw
    /// exactly the delta generation published as `epoch`. The serving
    /// layer keys its result cache by `(statement, epoch)` so an
    /// `INSERT` invalidates cached answers without a flush.
    pub epoch: u64,
}

/// A point-in-time snapshot of every query-path cache, for the serving
/// layer's `/stats` endpoint and for benches.
#[derive(Debug, Clone, Copy)]
pub struct CacheReport {
    /// Interpretation memo hits/misses.
    pub interpretations: CacheStats,
    /// Prepared-phrase memo hits/misses.
    pub phrases: CacheStats,
    /// `(entity, predicate)` point-degree memo hits/misses.
    pub points: CacheStats,
    /// Degree-column cache hits/misses.
    pub columns: CacheStats,
    /// Number of dense degree columns currently cached.
    pub cached_columns: usize,
    /// Heap bytes held by the cached degree columns.
    pub column_bytes: usize,
    /// Queries answered by the threshold-algorithm fast path (pure
    /// subjective conjunctions and pushdown queries combined).
    pub ta_queries: u64,
    /// TA fast-path queries that carried an objective-prefilter
    /// candidate bitmap (the paper's `price < 150 AND "clean rooms"`
    /// shape) — the pushdown counter the serving layer's `/stats`
    /// reports and CI guards.
    pub pushdown_queries: u64,
    /// Filtered-summary cache hits/misses (qualifier rendering → merged
    /// summary set).
    pub filtered_summaries: CacheStats,
    /// Merged summary sets currently cached.
    pub filtered_summary_sets: usize,
    /// Review-qualified rankings served (`with reviews(...)`
    /// statements) — the `filtered_summary_queries` counter in `/stats`
    /// that the serve-smoke CI job guards.
    pub filtered_summary_queries: u64,
    /// Top-k retrievals answered by the Block-Max-WAND path, summed
    /// over the review index (co-occurrence interpretation) and the
    /// entity index (text fallback) — the `/stats` counter the
    /// serve-smoke CI job greps.
    pub wand_queries: u64,
    /// Top-k retrievals answered by the exhaustive ablation scorer.
    pub exhaustive_queries: u64,
    /// Posting blocks bypassed via skip pointers across both indexes —
    /// the bench smoke guard panics when this stays zero on the cold
    /// scenario.
    pub blocks_skipped: u64,
    /// Queries cancelled mid-scan because their deadline expired
    /// (surfaced to callers as [`OpineError::QueryTimeout`]).
    pub timed_out_queries: u64,
    /// Faults triggered by the `opine_faults` failpoints (delays,
    /// injected errors, injected panics) — zero unless fault injection
    /// is armed. The chaos-smoke CI job greps this from `/stats`.
    pub faults_injected: u64,
    /// The current data epoch: bumped by every published `INSERT` batch
    /// and every completed delta merge. 0 until the first insert.
    pub ingest_epoch: u64,
    /// Delta reviews live in the current generation (level, not a
    /// counter: a future delta GC could shrink it).
    pub delta_reviews: u64,
    /// Reviews accepted by `INSERT` statements since startup.
    pub inserted_reviews: u64,
    /// Delta merges that published (froze posting blocks + partials).
    pub delta_merges: u64,
    /// Delta merges that failed and were rolled back — the previous
    /// epoch kept serving. The chaos-smoke CI job greps this.
    pub failed_merges: u64,
}

/// One exported value of a [`CacheReport`] field, typed so each metrics
/// surface can render it idiomatically (JSON object vs. Prometheus
/// counter/gauge lines).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// A point-in-time level that can go up or down.
    Gauge(u64),
    /// A cache's hit/miss pair.
    Cache(CacheStats),
}

impl CacheReport {
    /// Every public field as a `(name, value)` pair, in declaration
    /// order, under the names the `/stats` JSON uses. Both `/stats` and
    /// the `/metrics` Prometheus exposition render from this one list,
    /// so the two surfaces cannot drift apart.
    pub fn fields(&self) -> impl Iterator<Item = (&'static str, MetricValue)> {
        use MetricValue::{Cache, Counter, Gauge};
        [
            ("interpretations", Cache(self.interpretations)),
            ("phrases", Cache(self.phrases)),
            ("points", Cache(self.points)),
            ("degree_columns", Cache(self.columns)),
            ("cached_degree_columns", Gauge(self.cached_columns as u64)),
            ("degree_column_bytes", Gauge(self.column_bytes as u64)),
            ("ta_queries", Counter(self.ta_queries)),
            ("pushdown_queries", Counter(self.pushdown_queries)),
            ("filtered_summaries", Cache(self.filtered_summaries)),
            (
                "filtered_summary_sets",
                Gauge(self.filtered_summary_sets as u64),
            ),
            (
                "filtered_summary_queries",
                Counter(self.filtered_summary_queries),
            ),
            ("wand_queries", Counter(self.wand_queries)),
            ("exhaustive_queries", Counter(self.exhaustive_queries)),
            ("blocks_skipped", Counter(self.blocks_skipped)),
            ("timed_out_queries", Counter(self.timed_out_queries)),
            ("faults_injected", Counter(self.faults_injected)),
            ("ingest_epoch", Gauge(self.ingest_epoch)),
            ("delta_reviews", Gauge(self.delta_reviews)),
            ("inserted_reviews", Counter(self.inserted_reviews)),
            ("delta_merges", Counter(self.delta_merges)),
            ("failed_merges", Counter(self.failed_merges)),
        ]
        .into_iter()
    }
}

/// A query phrase prepared for membership scoring: its normalized
/// embedding and sentiment, computed once instead of once per entity.
#[derive(Debug, Clone)]
pub struct PreparedPhrase {
    /// Normalized phrase embedding.
    pub rep: Vec<f32>,
    /// Phrase sentiment.
    pub sentiment: f64,
}

/// The dense degree column of one predicate: one exact degree per
/// entity, plus the descending-degree entity order (TA's sorted-access
/// list), computed once on demand and reused by every subsequent top-k
/// over the same predicate.
#[derive(Debug)]
pub struct DegreeColumn {
    degrees: Vec<f64>,
    sorted: OnceLock<Vec<u32>>,
}

impl DegreeColumn {
    fn new(degrees: Vec<f64>) -> Self {
        DegreeColumn {
            degrees,
            sorted: OnceLock::new(),
        }
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.degrees.len()
    }

    /// True when the column holds no entities.
    pub fn is_empty(&self) -> bool {
        self.degrees.is_empty()
    }

    /// Degree of truth per entity id.
    pub fn degrees(&self) -> &[f64] {
        &self.degrees
    }

    /// Heap bytes of the degree storage.
    pub fn memory_bytes(&self) -> usize {
        self.degrees.len() * std::mem::size_of::<f64>()
    }

    /// A copy with the given `(entity, degree)` slots replaced — the
    /// live-ingest cache-repair path, which recomputes only the entities
    /// whose delta version moved past the cached column's epoch stamp
    /// instead of rebuilding all of them. The sorted order is recomputed
    /// lazily by the new column.
    fn patched(&self, updates: &[(usize, f64)]) -> DegreeColumn {
        let mut degrees = self.degrees.clone();
        for &(entity, degree) in updates {
            degrees[entity] = degree;
        }
        DegreeColumn::new(degrees)
    }

    /// Entity ids in descending-degree order (ties by entity id). Sorted
    /// once per column; repeated queries reuse the order.
    pub fn sorted_order(&self) -> &[u32] {
        self.sorted.get_or_init(|| {
            let mut order: Vec<u32> = (0..self.len() as u32).collect();
            order.sort_by(|&a, &b| {
                self.degrees[b as usize]
                    .total_cmp(&self.degrees[a as usize])
                    .then_with(|| a.cmp(&b))
            });
            order
        })
    }
}

/// Bidirectional entity id ↔ entity-table row position maps.
///
/// `row_to_entity` holds `u32::MAX` for rows that are not an entity's
/// canonical row (only possible with duplicate keys).
#[derive(Debug)]
struct EntityRowMaps {
    entity_to_row: Vec<u32>,
    row_to_entity: Vec<u32>,
}

/// One bucket atom of the partitioned review-qualified summaries:
/// every raw occurrence of one `(entity, attribute)` whose source
/// review shares a publication year and a reviewer-degree bucket
/// (`⌊log2(reviews the author wrote)⌋`). The atom spans a `[start,
/// end)` range of exact-degree sub-partials inside the cell's flat
/// accumulator store ([`CellPartials`]).
///
/// A bucket-aligned qualifier merges whole atoms without looking at
/// individual degrees; a min-degree threshold that cuts *through* the
/// bucket (the paper's "at least 10 hotels" cuts `[8, 16)`) resolves
/// just that atom's sub-partials — no raw occurrence is ever
/// re-aggregated at query time.
#[derive(Debug)]
struct PartialAtom {
    /// Publication year shared by this atom's occurrences.
    year: u32,
    /// `⌊log2(author review count)⌋` shared by this atom's occurrences.
    degree_bucket: u8,
    /// Sub-partial range `[start, end)` in the cell's flat store.
    start: u32,
    end: u32,
}

/// Flat per-`(entity, attribute)` store of the partial summaries, laid
/// out struct-of-arrays: sub-partial `s` owns `counts_q[s·k ..
/// (s+1)·k]` and `senti_q[s·k .. (s+1)·k]` (k = markers of the
/// attribute). Contiguous accumulators keep the qualifier merge loop
/// sequential in memory — merging a sub-partial is two k-element slice
/// additions, not a pointer chase through per-summary heap
/// allocations. Fixed-point accumulation (see `core::summary`) makes
/// any merge order bit-identical to the from-scratch rebuild.
#[derive(Debug, Default)]
struct CellPartials {
    /// Bucket atoms, sorted by (year, degree bucket); ranges index the
    /// arrays below.
    atoms: Vec<PartialAtom>,
    /// Exact reviewer degree per sub-partial (ascending within an
    /// atom).
    degrees: Vec<u32>,
    /// Total phrase count per sub-partial.
    totals: Vec<f64>,
    /// Unmatched phrase count per sub-partial.
    unmatcheds: Vec<f64>,
    /// Quantized per-marker mass, `subs × k`.
    counts_q: Vec<i64>,
    /// Quantized per-marker `Σ sentiment·weight`, `subs × k`.
    senti_q: Vec<i64>,
}

impl CellPartials {
    /// Merges sub-partial `s` into `out`.
    #[inline]
    fn merge_sub(&self, s: usize, k: usize, out: &mut MarkerSummary) {
        out.merge_quantized(
            &self.counts_q[s * k..(s + 1) * k],
            &self.senti_q[s * k..(s + 1) * k],
            self.totals[s],
            self.unmatcheds[s],
        );
    }
}

/// Degree bucket of a reviewer who wrote `count` reviews.
#[inline]
fn degree_bucket(count: u32) -> u8 {
    count.max(1).ilog2() as u8
}

/// Resolves one raw occurrence into its summary contribution — the one
/// shared aggregation step of the build-time partials, the bucket-merge
/// straddle refinement, and the raw-scan rebuild. Sharing it (and the
/// fixed-point accumulators underneath) is what makes every route
/// produce bit-identical summaries.
fn occ_contribution<'a>(
    domain: &'a LinguisticDomain,
    markers: &MarkerSet,
    config: &BuildConfig,
    occ: &PhraseOcc,
) -> PhraseContribution<'a> {
    let variation = &domain.variations()[occ.variation];
    PhraseContribution::compute(
        &variation.phrase,
        &variation.rep,
        occ.sentiment,
        markers,
        config.assign,
        config.unmatched_threshold,
        occ.review_id,
    )
}

/// How a min-degree threshold relates to one degree bucket.
enum BucketCut {
    /// Every reviewer in the bucket meets the threshold.
    Full,
    /// No reviewer in the bucket meets the threshold.
    Out,
    /// The threshold cuts through the bucket; the atom's exact-degree
    /// sub-partials resolve it.
    Straddle,
}

fn classify_bucket(bucket: u8, min_count: u32) -> BucketCut {
    let lo: u32 = 1 << bucket;
    // Upper bound of the bucket, saturating for the top bucket.
    let hi: u32 = lo.saturating_mul(2).saturating_sub(1);
    if min_count <= lo {
        BucketCut::Full
    } else if min_count > hi {
        BucketCut::Out
    } else {
        BucketCut::Straddle
    }
}

/// An interpretation with its query-side work hoisted out of the
/// per-entity loop: embeddings, sentiments, and fallback term ids are
/// computed once, so scoring an entity touches only entity state.
enum PreparedInterpretation {
    /// Stage 1: one attribute, scored against the original phrase.
    Direct {
        attribute: usize,
        phrase: Arc<PreparedPhrase>,
    },
    /// Stage 2: fuzzy combination of `(attribute, marker phrase)` terms.
    CoOccur {
        terms: Vec<(usize, Arc<PreparedPhrase>)>,
        conjunctive: bool,
    },
    /// Stage 3: BM25 fallback over pre-resolved term ids.
    Text { terms: Vec<WordId> },
}

/// One validated `INSERT` row, resolved against the frozen entity set.
struct InsertRow {
    entity: usize,
    text: String,
    /// `None` defaults to a fresh reviewer id at apply time.
    reviewer_id: Option<usize>,
    year: u32,
    helpful_votes: u32,
}

/// An `INSERT` rejection (shape/typing/unknown-entity problems surface
/// as execution errors, like the executor's own validation does).
fn insert_error(message: String) -> OpineError {
    OpineError::Store(StoreError::Execution(message))
}

/// The subjective database engine.
pub struct OpineDb {
    /// Subjective attribute names, index-aligned with the domain spec.
    pub attributes: Vec<String>,
    vocab: Vocab,
    embedder: PhraseEmbedder,
    sentiment: SentimentAnalyzer,
    opinion_domains: Vec<LinguisticDomain>,
    interpreter: Interpreter,
    summaries: Vec<Vec<MarkerSummary>>,
    raw: Vec<Vec<Vec<PhraseOcc>>>,
    membership_markers: MembershipModel,
    membership_scan: MembershipModel,
    entity_index: InvertedIndex,
    catalog: Catalog,
    entity_table: String,
    entity_keys: Vec<String>,
    key_to_entity: HashMap<String, usize>,
    review_meta: Vec<ReviewMeta>,
    /// Reviews aggregated per entity, precomputed at build time (the
    /// old `review_count` walked every review per call).
    entity_review_counts: Vec<u32>,
    /// Reviews written per reviewer id — the degree the qualifier's
    /// `reviewer_min_count` thresholds compare against.
    reviewer_counts: Vec<u32>,
    /// Per `(entity, attribute)`: raw occurrences partitioned by
    /// `(year, reviewer degree)` into mergeable partial summaries,
    /// grouped into log2-degree bucket atoms over a flat accumulator
    /// store.
    partials: Vec<Vec<CellPartials>>,
    config: BuildConfig,
    /// Predicate → dense degree column over all entities, with its sorted
    /// order, stamped with the data epoch it was built (or last repaired)
    /// at. Populated in parallel on first use; keyed by predicate text
    /// so repeated queries reuse both the degrees and the sort. Bounded:
    /// columns are the largest per-entry cache (8 bytes × entities each).
    column_cache: BoundedCache<(u64, Arc<DegreeColumn>)>,
    /// `(entity, predicate)` → epoch-stamped degree memo for the lazy
    /// point path taken by mixed queries, where an objective filter
    /// admits few rows and a full column build would be wasted work.
    point_cache: BoundedCache<(u64, f64)>,
    /// Phrase → normalized embedding + sentiment, shared by the
    /// interpretation, marker-match (`attr .= "phrase"`), and column
    /// scoring paths.
    phrase_cache: BoundedCache<Arc<PreparedPhrase>>,
    /// When false, degrees are recomputed by scanning raw extractions
    /// (the Table 7 "no markers" ablation).
    use_markers: std::sync::atomic::AtomicBool,
    /// Entity id ↔ base-table row position maps, built once on first
    /// pushdown (the executor's candidate bitmaps are row-indexed).
    entity_rows: OnceLock<Option<EntityRowMaps>>,
    /// TA fast-path rankings served.
    ta_queries: std::sync::atomic::AtomicU64,
    /// TA rankings that carried an objective candidate bitmap.
    pushdown_queries: std::sync::atomic::AtomicU64,
    /// Qualifier rendering → merged summary set, so repeated
    /// review-qualified statements (the interactive case) skip even the
    /// bucket merge.
    filtered_cache: BoundedCache<Arc<Vec<Vec<MarkerSummary>>>>,
    /// Review-qualified rankings served (the `/stats`
    /// `filtered_summary_queries` counter).
    qualified_queries: std::sync::atomic::AtomicU64,
    /// Queries cancelled by an expired deadline (mapped to
    /// [`OpineError::QueryTimeout`] at the query entry).
    timed_out_queries: std::sync::atomic::AtomicU64,
    /// Live ingest: the published delta generation, the writer lock,
    /// and the ingest counters.
    ingest: IngestState,
}

impl OpineDb {
    /// Assembles a database from prebuilt parts (used by [`crate::build`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        attributes: Vec<String>,
        vocab: Vocab,
        embedder: PhraseEmbedder,
        sentiment: SentimentAnalyzer,
        opinion_domains: Vec<LinguisticDomain>,
        interpreter: Interpreter,
        summaries: Vec<Vec<MarkerSummary>>,
        raw: Vec<Vec<Vec<PhraseOcc>>>,
        membership_markers: MembershipModel,
        membership_scan: MembershipModel,
        entity_index: InvertedIndex,
        catalog: Catalog,
        entity_table: String,
        entity_keys: Vec<String>,
        review_meta: Vec<ReviewMeta>,
        config: BuildConfig,
    ) -> Self {
        let key_to_entity = entity_keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i))
            .collect();

        // Per-entity and per-reviewer review counts, both needed at
        // query time: the former answers `review_count` in O(1), the
        // latter resolves reviewer-degree thresholds.
        let mut entity_review_counts = vec![0u32; entity_keys.len()];
        let max_reviewer = review_meta.iter().map(|m| m.reviewer_id).max();
        let mut reviewer_counts = vec![0u32; max_reviewer.map_or(0, |m| m + 1)];
        // lint:allow(checkpoint_coverage, reason = "construction path; no request deadline is armed during build")
        for meta in &review_meta {
            if let Some(c) = entity_review_counts.get_mut(meta.entity_id) {
                *c += 1;
            }
            reviewer_counts[meta.reviewer_id] += 1;
        }

        // Partition every raw occurrence by (year, reviewer degree)
        // into mergeable partial summaries, grouped into log2-degree
        // bucket atoms over a flat accumulator store. Contributions are
        // resolved through the same fixed-point path the full summaries
        // and the rebuild fallback use, so merging partials reproduces
        // either bit-for-bit. Entities are independent, so the
        // construction fans out over entity chunks like the degree
        // columns do.
        let marker_sets = interpreter.marker_sets();
        let partials: Vec<Vec<CellPartials>> = par::par_map(raw.len(), |entity| {
            raw[entity]
                .iter()
                .enumerate()
                .map(|(attr, occs)| {
                    let k = marker_sets[attr].markers.len();
                    // (year, exact degree) → partial, in key order.
                    let mut subs: std::collections::BTreeMap<(u32, u32), MarkerSummary> =
                        std::collections::BTreeMap::new();
                    // lint:allow(checkpoint_coverage, reason = "construction path; no request deadline is armed during build")
                    for occ in occs {
                        let meta = &review_meta[occ.review_id];
                        let degree = reviewer_counts[meta.reviewer_id];
                        let partial = subs
                            .entry((meta.year, degree))
                            .or_insert_with(|| MarkerSummary::empty(k));
                        let contribution = occ_contribution(
                            &opinion_domains[attr],
                            &marker_sets[attr],
                            &config,
                            occ,
                        );
                        partial.apply(&contribution, false);
                    }
                    // Flatten into the SoA store; BTreeMap order
                    // keeps sub-partials sorted by degree within
                    // each (year, bucket) atom run.
                    let mut cell = CellPartials::default();
                    // lint:allow(checkpoint_coverage, reason = "construction path; no request deadline is armed during build")
                    for ((year, degree), partial) in subs {
                        let bucket = degree_bucket(degree);
                        let s = cell.degrees.len() as u32;
                        match cell.atoms.last_mut() {
                            Some(atom) if atom.year == year && atom.degree_bucket == bucket => {
                                atom.end = s + 1;
                            }
                            _ => cell.atoms.push(PartialAtom {
                                year,
                                degree_bucket: bucket,
                                start: s,
                                end: s + 1,
                            }),
                        }
                        cell.degrees.push(degree);
                        cell.totals.push(partial.total);
                        cell.unmatcheds.push(partial.unmatched);
                        cell.counts_q.extend_from_slice(partial.quantized_counts());
                        cell.senti_q
                            .extend_from_slice(partial.quantized_sentiments());
                    }
                    cell
                })
                .collect()
        });

        Self {
            attributes,
            vocab,
            embedder,
            sentiment,
            opinion_domains,
            interpreter,
            summaries,
            raw,
            membership_markers,
            membership_scan,
            entity_index,
            catalog,
            entity_table,
            entity_keys,
            key_to_entity,
            review_meta,
            entity_review_counts,
            reviewer_counts,
            partials,
            config,
            column_cache: BoundedCache::new(256),
            point_cache: BoundedCache::new(65_536),
            phrase_cache: BoundedCache::new(4096),
            use_markers: std::sync::atomic::AtomicBool::new(true),
            entity_rows: OnceLock::new(),
            ta_queries: std::sync::atomic::AtomicU64::new(0),
            pushdown_queries: std::sync::atomic::AtomicU64::new(0),
            filtered_cache: BoundedCache::new(16),
            qualified_queries: std::sync::atomic::AtomicU64::new(0),
            timed_out_queries: std::sync::atomic::AtomicU64::new(0),
            ingest: IngestState::new(),
        }
    }

    /// Number of entities.
    pub fn num_entities(&self) -> usize {
        self.entity_keys.len()
    }

    /// The entity key (name) for a dense entity id.
    pub fn entity_key(&self, entity: usize) -> &str {
        &self.entity_keys[entity]
    }

    /// Dense entity id for a key, if known.
    pub fn entity_id(&self, key: &str) -> Option<usize> {
        self.key_to_entity.get(key).copied()
    }

    /// The name of the entity table ("hotels" / "restaurants").
    pub fn entity_table(&self) -> &str {
        &self.entity_table
    }

    /// The relational catalog (entities + reviews).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The marker set of an attribute.
    pub fn marker_set(&self, attribute: usize) -> &MarkerSet {
        &self.interpreter.marker_sets()[attribute]
    }

    /// The marker summary of an entity/attribute.
    pub fn summary(&self, entity: usize, attribute: usize) -> &MarkerSummary {
        &self.summaries[entity][attribute]
    }

    /// The vocabulary built over the corpus.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// The phrase embedder (word2vec + IDF).
    pub fn embedder(&self) -> &PhraseEmbedder {
        &self.embedder
    }

    /// The sentiment analyzer.
    pub fn sentiment(&self) -> &SentimentAnalyzer {
        &self.sentiment
    }

    /// The three-stage interpreter.
    pub fn interpreter(&self) -> &Interpreter {
        &self.interpreter
    }

    /// Enables/disables marker summaries for degree computation (the
    /// Table 7 ablation). Clears the degree-column cache, whose contents
    /// depend on the flag.
    pub fn set_use_markers(&self, enabled: bool) {
        // sync: independent ablation toggle; no data is published through
        // it and the cache clears below make stale reads harmless.
        self.use_markers
            .store(enabled, std::sync::atomic::Ordering::Relaxed);
        self.column_cache.clear();
        self.point_cache.clear();
    }

    /// Routes BM25 top-k retrieval (the co-occurrence interpretation
    /// stage and the entity text index) through Block-Max WAND (the
    /// default) or the exhaustive posting traversal — the ablation the
    /// equivalence tests and the cold-interpretation bench compare.
    /// Answers are bit-identical either way; the interpretation memo
    /// and degree caches are cleared so the ablation re-runs the full
    /// cascade instead of replaying memoized results.
    pub fn set_wand(&self, enabled: bool) {
        self.entity_index.set_wand(enabled);
        self.interpreter.review_index().set_wand(enabled);
        self.interpreter.clear_cache();
        self.column_cache.clear();
        self.point_cache.clear();
    }

    /// How many TA fast-path rankings carried an objective candidate
    /// bitmap — the pushdown counter (also in [`Self::cache_report`]).
    pub fn pushdown_queries(&self) -> u64 {
        self.pushdown_queries
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Drops only the cached degree columns, leaving the interpretation
    /// and phrase memos warm — used to benchmark column construction in
    /// isolation.
    pub fn clear_degree_columns(&self) {
        self.column_cache.clear();
    }

    /// Drops every query-time cache: memoized interpretations, degree
    /// columns, and prepared phrases. Used by benches to measure the cold
    /// path honestly.
    pub fn clear_caches(&self) {
        self.interpreter.clear_cache();
        self.column_cache.clear();
        self.point_cache.clear();
        self.phrase_cache.clear();
        self.filtered_cache.clear();
    }

    /// Drops only the cached merged summary sets of review-qualified
    /// statements — used to benchmark the bucket merge in isolation.
    pub fn clear_filtered_summaries(&self) {
        self.filtered_cache.clear();
    }

    /// Hit/miss counters of the interpretation memo.
    pub fn interp_cache_stats(&self) -> CacheStats {
        self.interpreter.cache_stats()
    }

    /// Hit/miss counters of the prepared-phrase memo.
    pub fn phrase_cache_stats(&self) -> CacheStats {
        self.phrase_cache.stats()
    }

    /// Number of cached degree columns.
    pub fn cached_degree_columns(&self) -> usize {
        self.column_cache.len()
    }

    /// Snapshot of every query-path cache (interpretations, phrases,
    /// point degrees, degree columns) — the `/stats` payload's engine
    /// section.
    pub fn cache_report(&self) -> CacheReport {
        let mut column_bytes = 0usize;
        self.column_cache
            .for_each_value(|(_, c)| column_bytes += c.memory_bytes());
        let review_ir = self.interpreter.review_index().retrieval_stats();
        let entity_ir = self.entity_index.retrieval_stats();
        let delta = self.ingest.cell.load();
        CacheReport {
            interpretations: self.interpreter.cache_stats(),
            phrases: self.phrase_cache.stats(),
            points: self.point_cache.stats(),
            columns: self.column_cache.stats(),
            cached_columns: self.column_cache.len(),
            column_bytes,
            ta_queries: self.ta_queries.load(std::sync::atomic::Ordering::Relaxed),
            pushdown_queries: self.pushdown_queries(),
            filtered_summaries: self.filtered_cache.stats(),
            filtered_summary_sets: self.filtered_cache.len(),
            filtered_summary_queries: self.qualified_queries(),
            wand_queries: review_ir.wand_queries + entity_ir.wand_queries,
            exhaustive_queries: review_ir.exhaustive_queries + entity_ir.exhaustive_queries,
            blocks_skipped: review_ir.blocks_skipped + entity_ir.blocks_skipped,
            timed_out_queries: self
                .timed_out_queries
                .load(std::sync::atomic::Ordering::Relaxed),
            faults_injected: opine_faults::injected_total(),
            ingest_epoch: delta.epoch(),
            delta_reviews: delta.value().meta.len() as u64,
            inserted_reviews: self.ingest.inserted_reviews.load(Relaxed),
            delta_merges: self.ingest.delta_merges.load(Relaxed),
            failed_merges: self.ingest.failed_merges.load(Relaxed),
        }
    }

    /// How many review-qualified rankings this engine served (also in
    /// [`Self::cache_report`]).
    pub fn qualified_queries(&self) -> u64 {
        self.qualified_queries
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The marker-feature membership function.
    pub fn membership_markers(&self) -> &MembershipModel {
        &self.membership_markers
    }

    /// The raw-scan membership function (no-marker ablation).
    pub fn membership_scan(&self) -> &MembershipModel {
        &self.membership_scan
    }

    /// The opinion-level linguistic domain of an attribute.
    pub fn opinion_domain(&self, attribute: usize) -> &LinguisticDomain {
        &self.opinion_domains[attribute]
    }

    /// `(rep, sentiment)` views of every raw extracted phrase of an
    /// entity/attribute (the scan path's input).
    pub fn raw_phrases(&self, entity: usize, attribute: usize) -> Vec<(&[f32], f64)> {
        self.raw[entity][attribute]
            .iter()
            .map(|occ| {
                (
                    self.opinion_domains[attribute].variations()[occ.variation]
                        .rep
                        .as_slice(),
                    occ.sentiment,
                )
            })
            .collect()
    }

    /// Executes a Subjective SQL query (the paper's running example shape:
    /// `select * from hotels where price_pn < 150 and "clean rooms"`).
    pub fn query(&self, sql: &str) -> Result<QueryOutput, OpineError> {
        let q = self.query_ref(sql)?;
        Ok(QueryOutput {
            result: q.result.into_result_set(),
            interpretations: q.interpretations,
        })
    }

    /// [`Self::query`] without materialization: the returned rows borrow
    /// the catalog, so serializing an answer clones nothing per row.
    pub fn query_ref(&self, sql: &str) -> Result<QueryRef<'_>, OpineError> {
        let select = parse_select(sql).map_err(|e| OpineError::Parse(e.to_string()))?;
        self.query_select_ref(&select)
    }

    /// Executes an already-parsed statement through the borrowing path —
    /// the parse-once/execute-many entry the serving layer's prepared
    /// queries use.
    ///
    /// The whole execution runs under one pinned delta generation
    /// (installed thread-locally here, re-installed inside parallel
    /// workers): row scans see {frozen tables + that generation's
    /// overlay rows}, and every degree, count, and qualified summary
    /// underneath reads the same generation — snapshot isolation
    /// against concurrent `INSERT`s.
    pub fn query_select_ref(&self, select: &Select) -> Result<QueryRef<'_>, OpineError> {
        self.ensure_pinned(|pin| {
            let interpretations = select
                .where_clause
                .as_ref()
                .map(|w| {
                    w.subjective_predicates()
                        .into_iter()
                        .map(|p| (p.to_string(), self.interpret(p)))
                        .collect()
                })
                .unwrap_or_default();
            let overlay = (!pin.delta.overlay.is_empty()).then_some(&pin.delta.overlay);
            let result = execute_lazy_with_overlay(select, &self.catalog, self, overlay)?;
            Ok(QueryRef {
                result,
                interpretations,
                epoch: pin.epoch,
            })
        })
    }

    /// [`Self::query_select_ref`] under a request deadline: `deadline`
    /// is installed as the thread's ambient cancellation token for the
    /// duration of execution, so every long scan underneath (TA depth
    /// loops, WAND pivoting, summary-partial merges, row scoring,
    /// `par_map` fan-outs) checkpoints against it at chunk boundaries.
    ///
    /// This is the **single catch site** for the cancellation unwind: an
    /// expired checkpoint panics with [`opine_faults::Cancelled`], which
    /// is caught here and mapped to the typed
    /// [`OpineError::QueryTimeout`] (and counted in
    /// [`CacheReport::timed_out_queries`]). Every other panic payload is
    /// resumed untouched for the serving layer's per-request isolation
    /// to handle. The unwind is state-safe: the workspace's locks never
    /// poison (`parking_lot` shim) and every bounded cache computes
    /// outside its lock, so a cancelled query cannot publish a partial
    /// result.
    pub fn query_select_ref_deadline(
        &self,
        select: &Select,
        deadline: Option<opine_faults::Deadline>,
    ) -> Result<QueryRef<'_>, OpineError> {
        if deadline.is_none() {
            return self.query_select_ref(select);
        }
        opine_faults::with_deadline(deadline, || {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // Coarse entry checkpoint: an already-spent budget (or a
                // pre-cancelled token) times out before any work, even
                // for queries too small to reach a strided checkpoint.
                opine_faults::checkpoint_now();
                self.query_select_ref(select)
            })) {
                Ok(result) => result,
                Err(payload) if payload.is::<opine_faults::Cancelled>() => {
                    self.timed_out_queries
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    Err(OpineError::QueryTimeout)
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        })
    }

    /// Executes with an explicit fuzzy algebra (ablation hook; joins are
    /// only supported under the default product algebra). Degrees and
    /// counts observe one pinned delta generation like every other
    /// path, but this ablation entry does not append overlay rows —
    /// live-inserted reviews are invisible to its row scans.
    pub fn query_with_algebra(
        &self,
        sql: &str,
        algebra: FuzzyAlgebra,
    ) -> Result<QueryOutput, OpineError> {
        let select = parse_select(sql).map_err(|e| OpineError::Parse(e.to_string()))?;
        let result =
            self.ensure_pinned(|_| execute_with_algebra(&select, &self.catalog, self, algebra))?;
        Ok(QueryOutput {
            result,
            interpretations: Vec::new(),
        })
    }

    /// Interprets a predicate through the interpreter's bounded memo.
    pub fn interpret(&self, predicate: &str) -> Interpretation {
        self.interpreter
            .interpret_cached(predicate, &self.embedder, &self.vocab)
    }

    /// Degree of truth of a natural-language predicate for an entity.
    ///
    /// Reads the predicate's dense column when one is already cached
    /// (built by the batch paths) and otherwise computes just this
    /// entity, memoizing the point value — a mixed query whose objective filter admits few
    /// rows must not trigger a full column build.
    pub fn degree(&self, entity: usize, predicate: &str) -> f64 {
        self.ensure_pinned(|pin| self.degree_pinned(entity, predicate, pin))
    }

    fn degree_pinned(&self, entity: usize, predicate: &str, pin: &Pin) -> f64 {
        if let Some((stamp, column)) = self.column_cache.get(predicate) {
            if Self::entry_fresh(stamp, entity, pin) {
                return column.degrees()[entity];
            }
        }
        // `\u{1}` cannot occur in tokenized predicate text, so the
        // composite key is unambiguous.
        let key = format!("{entity}\u{1}{predicate}");
        if let Some((stamp, degree)) = self.point_cache.get(&key) {
            if Self::entry_fresh(stamp, entity, pin) {
                return degree;
            }
        }
        let interp = self.interpret(predicate);
        let degree = self.degree_for_interpretation(entity, predicate, &interp);
        self.point_cache.insert(&key, (pin.epoch, degree));
        degree
    }

    /// The dense degree column of a predicate over all entities, cached
    /// by predicate text. Degrees are computed in parallel over entity
    /// chunks.
    ///
    /// Cached columns are stamped with the data epoch they were built
    /// at. A probe from a newer pin **repairs** a stale column instead
    /// of rebuilding it: only the entities whose pinned delta version
    /// moved past the stamp recompute (an `INSERT` touches one entity;
    /// the other N−1 slots are reused verbatim).
    pub fn degree_column(&self, predicate: &str) -> Arc<DegreeColumn> {
        self.ensure_pinned(|pin| self.degree_column_pinned(predicate, pin))
    }

    fn degree_column_pinned(&self, predicate: &str, pin: &Pin) -> Arc<DegreeColumn> {
        let mut cacheable = true;
        if let Some((stamp, column)) = self.column_cache.get(predicate) {
            if stamp == pin.epoch {
                opine_trace::count("ta_topk", "cache_hits", 1);
                return column;
            }
            if stamp < pin.epoch {
                let mut stale: Vec<usize> = pin
                    .delta
                    .entity_versions
                    .iter()
                    .filter(|&(_, &version)| version > stamp)
                    .map(|(&entity, _)| entity)
                    .collect();
                if stale.is_empty() {
                    // Nothing the column depends on changed across those
                    // epochs; restamp so the next probe hits on the fast
                    // equality check.
                    opine_trace::count("ta_topk", "cache_hits", 1);
                    self.column_cache
                        .insert(predicate, (pin.epoch, column.clone()));
                    return column;
                }
                stale.sort_unstable();
                opine_trace::count("ta_topk", "cache_repairs", 1);
                let interp = self.interpret(predicate);
                let prepared = self.prepare_interpretation(predicate, &interp);
                let updates: Vec<(usize, f64)> = stale
                    .iter()
                    .map(|&entity| {
                        opine_faults::checkpoint();
                        (entity, self.degree_prepared(entity, &prepared))
                    })
                    .collect();
                let column = Arc::new(column.patched(&updates));
                self.column_cache
                    .insert(predicate, (pin.epoch, column.clone()));
                return column;
            }
            // stamp > pin.epoch: a column from this pin's future. Build
            // privately without regressing the cached stamp.
            cacheable = false;
        }
        opine_trace::count("ta_topk", "cache_misses", 1);
        let interp = self.interpret(predicate);
        let prepared = self.prepare_interpretation(predicate, &interp);
        let degrees = match &prepared {
            // Text fallback: one term-at-a-time pass over the entity
            // index's posting lists (O(total postings)) instead of a
            // per-entity per-term lookup — bit-identical to the point
            // path, which sums the same contributions per document.
            // The pinned delta's text index (present after a merge)
            // contributes through the identical dense pass, added as
            // one `f64` add per entity exactly like the point path.
            PreparedInterpretation::Text { terms }
                if self.entity_index.num_docs() == self.num_entities() =>
            {
                let mut scores = self.entity_index.bm25_dense(terms, &Bm25Params::default());
                if let Some(index) = Self::delta_text_index(pin, self.num_entities()) {
                    let delta_scores = index.bm25_dense(terms, &Bm25Params::default());
                    for (score, delta) in scores.iter_mut().zip(&delta_scores) {
                        *score += delta;
                    }
                }
                scores
                    .into_iter()
                    .map(|score| sigmoid(score - self.config.sigmoid_c))
                    .collect()
            }
            _ => par::par_map(self.num_entities(), |entity| {
                opine_faults::checkpoint();
                self.degree_prepared(entity, &prepared)
            }),
        };
        let column = Arc::new(DegreeColumn::new(degrees));
        if cacheable {
            self.column_cache
                .insert(predicate, (pin.epoch, column.clone()));
        }
        column
    }

    /// Top-k entities for a conjunction of natural-language predicates
    /// under the product t-norm, ranked with Fagin's Threshold Algorithm
    /// over the predicates' cached degree columns and sorted orders.
    ///
    /// Returns `(entity, combined degree)` in ranking order (degree
    /// descending, entity id ascending on ties), including zero-degree
    /// entities when fewer than `k` score positively.
    pub fn rank_top_k(&self, predicates: &[&str], k: usize) -> Vec<(usize, f64)> {
        self.rank_top_k_filtered(predicates, k, None)
    }

    /// [`Self::rank_top_k`] with an optional candidate restriction: only
    /// entities with `is_candidate(entity)` true are ranked (the
    /// objective-predicate pushdown).
    pub fn rank_top_k_filtered(
        &self,
        predicates: &[&str],
        k: usize,
        is_candidate: Option<&(dyn Fn(usize) -> bool + Sync)>,
    ) -> Vec<(usize, f64)> {
        let columns: Vec<Arc<DegreeColumn>> =
            predicates.iter().map(|p| self.degree_column(p)).collect();
        let order_views: Vec<&[u32]> = columns.iter().map(|c| c.sorted_order()).collect();
        let degree_views: Vec<&[f64]> = columns.iter().map(|c| c.degrees()).collect();
        match is_candidate {
            None => threshold_topk_dense(&degree_views, &order_views, k),
            Some(f) => threshold_topk_dense_filtered(&degree_views, &order_views, k, f),
        }
    }

    /// The objective-pushdown ranking: top-k among the candidate rows
    /// of `bitmap` (the executor's objective prefilter). Picks between
    /// two physical plans, the classic selection-vs-sorted-access
    /// optimizer choice:
    ///
    /// * **gather** — read every candidate's degrees straight from the
    ///   dense columns, combine, sort. O(candidates · predicates).
    /// * **restricted sorted access** — the filtered threshold
    ///   algorithm, which scans ~`k / selectivity` positions per list.
    ///
    /// Gather wins when the candidate set is small
    /// (`candidates² ≤ k · entities`, equating the two cost models);
    /// selective filters — the whole point of the pushdown — land
    /// there, while weak filters keep TA's early termination.
    fn rank_pushdown(
        &self,
        predicates: &[&str],
        k: usize,
        bitmap: &Bitmap,
    ) -> Option<Vec<(usize, f64)>> {
        // The bitmap indexes base-table rows; degree columns index
        // entities. Translate through the entity↔row maps (or decline
        // the pushdown if the catalog and the entity list disagree).
        let maps = self.entity_row_maps()?;
        self.pushdown_queries
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let columns: Vec<Arc<DegreeColumn>> =
            predicates.iter().map(|p| self.degree_column(p)).collect();
        let cand_count = bitmap.count_ones();
        if k == 0 {
            return Some(Vec::new());
        }
        if cand_count.saturating_mul(cand_count) <= k.saturating_mul(self.num_entities()) {
            opine_trace::note(|| {
                format!("ta_topk: pushdown via gather ({cand_count} candidates, k={k})")
            });
            let views: Vec<&[f64]> = columns.iter().map(|c| c.degrees()).collect();
            let mut scored: Vec<(usize, f64)> = bitmap
                .iter_ones()
                .filter_map(|row| {
                    let entity = *maps.row_to_entity.get(row)?;
                    (entity != u32::MAX).then_some(entity as usize)
                })
                .map(|e| (e, views.iter().map(|c| c[e]).product()))
                .collect();
            // Select-then-sort: partition the top k in O(candidates),
            // order only the winners.
            if scored.len() > k {
                scored.select_nth_unstable_by(k - 1, crate::topk::rank_cmp);
                scored.truncate(k);
            }
            scored.sort_by(crate::topk::rank_cmp);
            return Some(scored);
        }
        opine_trace::note(|| {
            format!(
                "ta_topk: pushdown via restricted sorted access ({cand_count} candidates, k={k})"
            )
        });
        Some(self.rank_top_k_filtered(
            predicates,
            k,
            Some(&|entity: usize| bitmap.get(maps.entity_to_row[entity] as usize)),
        ))
    }

    /// Normalized embedding + sentiment of a query phrase, memoized.
    pub fn prepare_phrase(&self, phrase: &str) -> Arc<PreparedPhrase> {
        self.phrase_cache.get_or_insert_with(phrase, || {
            let mut rep = self.embedder.rep(phrase, &self.vocab);
            opine_embed::normalize(&mut rep);
            Arc::new(PreparedPhrase {
                rep,
                sentiment: self.sentiment.score(phrase),
            })
        })
    }

    /// Hoists the query-side work of an interpretation (embeddings,
    /// sentiment, fallback term lookup) so per-entity scoring is pure
    /// entity-state access.
    fn prepare_interpretation(
        &self,
        predicate: &str,
        interp: &Interpretation,
    ) -> PreparedInterpretation {
        match interp {
            Interpretation::Direct { attribute, .. } => PreparedInterpretation::Direct {
                attribute: *attribute,
                phrase: self.prepare_phrase(predicate),
            },
            Interpretation::CoOccur { terms, conjunctive } => PreparedInterpretation::CoOccur {
                terms: terms
                    .iter()
                    .map(|&(a, m)| {
                        let phrase = &self.marker_set(a).markers[m].phrase;
                        (a, self.prepare_phrase(phrase))
                    })
                    .collect(),
                conjunctive: *conjunctive,
            },
            Interpretation::TextFallback => PreparedInterpretation::Text {
                terms: opine_text::tokenize(predicate)
                    .iter()
                    .filter_map(|t| self.vocab.get(t))
                    .collect(),
            },
        }
    }

    /// Degree of one entity under a prepared interpretation.
    fn degree_prepared(&self, entity: usize, prepared: &PreparedInterpretation) -> f64 {
        let algebra = FuzzyAlgebra::Product;
        match prepared {
            PreparedInterpretation::Direct { attribute, phrase } => {
                self.attribute_degree_prepared(entity, *attribute, phrase)
            }
            PreparedInterpretation::CoOccur { terms, conjunctive } => {
                let degrees = terms
                    .iter()
                    .map(|(a, p)| self.attribute_degree_prepared(entity, *a, p));
                if *conjunctive {
                    degrees.fold(1.0, |acc, d| algebra.and(acc, d))
                } else {
                    degrees.fold(0.0, |acc, d| algebra.or(acc, d))
                }
            }
            PreparedInterpretation::Text { terms } => {
                let pin = self.pinned();
                let mut score = self.entity_index.bm25(
                    opine_ir::DocId(entity as u32),
                    terms,
                    &Bm25Params::default(),
                );
                if let Some(index) = Self::delta_text_index(&pin, self.num_entities()) {
                    score += index.bm25(
                        opine_ir::DocId(entity as u32),
                        terms,
                        &Bm25Params::default(),
                    );
                }
                sigmoid(score - self.config.sigmoid_c)
            }
        }
    }

    /// The pinned delta's frozen text index, when it spans every entity
    /// (doc id == entity id) — `None` until the first merge. Both the
    /// point and the dense text paths add its BM25 contribution with
    /// one `f64` add under this same guard, so their bit-identity
    /// survives live ingest.
    fn delta_text_index(pin: &Pin, num_entities: usize) -> Option<&InvertedIndex> {
        pin.delta
            .text_index
            .as_deref()
            .filter(|index| index.num_docs() == num_entities)
    }

    /// Degree of truth under a given interpretation.
    pub fn degree_for_interpretation(
        &self,
        entity: usize,
        predicate: &str,
        interp: &Interpretation,
    ) -> f64 {
        let prepared = self.prepare_interpretation(predicate, interp);
        self.degree_prepared(entity, &prepared)
    }

    /// Degree of truth of `attribute .= phrase` for an entity, via the
    /// membership function (marker features or raw-scan features).
    pub fn attribute_degree(&self, entity: usize, attribute: usize, phrase: &str) -> f64 {
        let prepared = self.prepare_phrase(phrase);
        self.attribute_degree_prepared(entity, attribute, &prepared)
    }

    /// [`Self::attribute_degree`] with the query phrase already prepared
    /// (the per-entity hot path: no embedding or sentiment recompute).
    pub fn attribute_degree_prepared(
        &self,
        entity: usize,
        attribute: usize,
        phrase: &PreparedPhrase,
    ) -> f64 {
        let pin = self.pinned();
        // sync: ablation toggle; both branches are correct membership paths.
        if self.use_markers.load(std::sync::atomic::Ordering::Relaxed) {
            let base = &self.summaries[entity][attribute];
            let feats = match pin.delta.summaries.get(&(entity, attribute)) {
                // Delta reviews mentioned this cell: score over the
                // frozen summary merged with the pinned delta summary
                // (fixed-point merge — identical to rebuilding from
                // base + delta occurrences).
                Some(delta_summary) => {
                    let mut merged = base.clone();
                    merged.merge(delta_summary);
                    marker_features(
                        &merged,
                        self.marker_set(attribute),
                        &phrase.rep,
                        phrase.sentiment,
                    )
                }
                None => marker_features(
                    base,
                    self.marker_set(attribute),
                    &phrase.rep,
                    phrase.sentiment,
                ),
            };
            self.membership_markers.degree(&feats)
        } else {
            let occs = &self.raw[entity][attribute];
            let delta_occs = pin
                .delta
                .cells
                .get(&(entity, attribute))
                .map(|cell| cell.occs.as_slice())
                .unwrap_or(&[]);
            let phrase_refs: Vec<(&[f32], f64)> = occs
                .iter()
                .chain(delta_occs)
                .map(|occ| {
                    (
                        self.opinion_domains[attribute].variations()[occ.variation]
                            .rep
                            .as_slice(),
                        occ.sentiment,
                    )
                })
                .collect();
            self.membership_scan
                .degree(&scan_features(&phrase_refs, &phrase.rep, phrase.sentiment))
        }
    }

    /// Text-retrieval fallback degree: `sigmoid(BM25(D_e, q) − c)`,
    /// with the pinned delta's merged text contributing once a merge
    /// has frozen it (near-real-time, Lucene-style: delta text becomes
    /// retrievable at the next merge, not the next epoch).
    pub fn text_degree(&self, entity: usize, predicate: &str) -> f64 {
        let pin = self.pinned();
        let terms: Vec<_> = opine_text::tokenize(predicate)
            .iter()
            .filter_map(|t| self.vocab.get(t))
            .collect();
        let mut score = self.entity_index.bm25(
            opine_ir::DocId(entity as u32),
            &terms,
            &Bm25Params::default(),
        );
        if let Some(index) = Self::delta_text_index(&pin, self.num_entities()) {
            score += index.bm25(
                opine_ir::DocId(entity as u32),
                &terms,
                &Bm25Params::default(),
            );
        }
        sigmoid(score - self.config.sigmoid_c)
    }

    /// Recomputes all summaries over the subset of reviews accepted by
    /// `filter` — the paper's "only consider opinions of people who
    /// reviewed at least 10 hotels" / "reviews after 2010" queries.
    ///
    /// This is the general fallback for *arbitrary* closures: it
    /// re-aggregates every raw occurrence, O(total extractions).
    /// Qualifiers expressible as year ranges + reviewer-degree
    /// thresholds should go through [`Self::summaries_qualified`], which
    /// merges the build-time partial summaries instead and returns
    /// bit-identical aggregates.
    pub fn summaries_with_review_filter<F>(&self, filter: F) -> Vec<Vec<MarkerSummary>>
    where
        F: Fn(&ReviewMeta) -> bool,
    {
        self.ensure_pinned(|pin| {
            let mut out: Vec<Vec<MarkerSummary>> = (0..self.num_entities())
                .map(|_| {
                    (0..self.attributes.len())
                        .map(|a| MarkerSummary::empty(self.marker_set(a).markers.len()))
                        .collect()
                })
                .collect();
            for (entity, per_attr) in self.raw.iter().enumerate() {
                for (attr, occs) in per_attr.iter().enumerate() {
                    for occ in occs {
                        opine_faults::checkpoint();
                        if !filter(&self.review_meta[occ.review_id]) {
                            continue;
                        }
                        let contribution = occ_contribution(
                            &self.opinion_domains[attr],
                            self.marker_set(attr),
                            &self.config,
                            occ,
                        );
                        out[entity][attr].apply(&contribution, true);
                    }
                }
            }
            // The pinned delta's occurrences re-aggregate through the
            // identical contribution path. Map iteration order varies,
            // but fixed-point accumulation is commutative bit-for-bit,
            // so the aggregates (not provenance order) are stable.
            for (&(entity, attr), cell) in &pin.delta.cells {
                for occ in &cell.occs {
                    opine_faults::checkpoint();
                    let meta = self.review_meta_at(&pin.delta, occ.review_id);
                    if !filter(&meta) {
                        continue;
                    }
                    let contribution = occ_contribution(
                        &self.opinion_domains[attr],
                        self.marker_set(attr),
                        &self.config,
                        occ,
                    );
                    out[entity][attr].apply(&contribution, true);
                }
            }
            out
        })
    }

    /// The filtered summaries of a structured review qualifier, answered
    /// by **merging** the build-time `(year, reviewer-degree bucket)`
    /// partial summaries instead of re-aggregating raw occurrences —
    /// the "interactive" path for the paper's review-qualified queries.
    ///
    /// Year ranges align exactly with the partition (atoms are
    /// per-year). A `reviewer_min_count` threshold merges every degree
    /// bucket it fully covers and re-resolves only the occurrences of
    /// the single bucket it cuts through. Fixed-point accumulation makes
    /// the result bit-identical to
    /// [`Self::summaries_with_review_filter`] over
    /// [`ReviewQualifier::accepts`] (modulo provenance, which the merge
    /// path deliberately drops).
    ///
    /// Merged sets are cached (bounded) by the qualifier's canonical
    /// rendering; repeated qualified statements cost a hash probe.
    pub fn summaries_qualified(&self, qualifier: &ReviewQualifier) -> Arc<Vec<Vec<MarkerSummary>>> {
        self.ensure_pinned(|pin| {
            // Epoch-prefixed key: a publish invalidates by cache miss,
            // not by flushing, so queries pinned before the publish
            // keep hitting their own generation's entries.
            let key = format!("{}\u{1}{}", pin.epoch, qualifier);
            if let Some(hit) = self.filtered_cache.get(&key) {
                opine_trace::count("summary_merge", "cache_hits", 1);
                return hit;
            }
            let span = opine_trace::span("summary_merge");
            span.count("cache_misses", 1);
            let merged = Arc::new(self.merge_qualified(qualifier, pin));
            drop(span);
            self.filtered_cache.insert(&key, merged.clone());
            merged
        })
    }

    /// The bucket-merge itself, parallel over entity chunks.
    ///
    /// Delta handling: the base atoms merge as before; each delta
    /// cell's per-year partials (frozen by the last merge) merge under
    /// the same year bounds, and the small unsealed tail (bounded by
    /// the merge threshold) re-resolves its occurrences directly. One
    /// exception — a reviewer-degree threshold compares against *live*
    /// review counts, which delta inserts can shift across the
    /// build-time log2 buckets; with a live delta such qualifiers take
    /// the exact raw rescan instead of the bucket merge, trading the
    /// shortcut for correctness (the staleness bug this PR fixes).
    fn merge_qualified(&self, qualifier: &ReviewQualifier, pin: &Pin) -> Vec<Vec<MarkerSummary>> {
        opine_faults::fire_panic("summary_merge");
        if qualifier.min_reviewer_count.is_some() && !pin.delta.is_empty() {
            return self.summaries_with_review_filter(|m| {
                qualifier.accepts(m.year, self.reviewer_review_count(m.reviewer_id) as u32)
            });
        }
        par::par_map(self.num_entities(), |entity| {
            opine_faults::checkpoint();
            (0..self.attributes.len())
                .map(|attr| {
                    let k = self.marker_set(attr).markers.len();
                    let cell = &self.partials[entity][attr];
                    let mut out = MarkerSummary::empty(k);
                    // lint:allow(checkpoint_coverage, reason = "bounded by years x degree-buckets per entity; the par_map closure checkpoints per entity")
                    for atom in &cell.atoms {
                        if qualifier.min_year.is_some_and(|y| atom.year < y)
                            || qualifier.max_year.is_some_and(|y| atom.year > y)
                        {
                            continue;
                        }
                        let cut = match qualifier.min_reviewer_count {
                            None => BucketCut::Full,
                            Some(t) => classify_bucket(atom.degree_bucket, t),
                        };
                        match cut {
                            BucketCut::Full => {
                                for s in atom.start..atom.end {
                                    cell.merge_sub(s as usize, k, &mut out);
                                }
                            }
                            BucketCut::Out => {}
                            BucketCut::Straddle => {
                                // The threshold cuts through this degree
                                // bucket: merge just the qualifying
                                // exact-degree sub-partials (sorted, so
                                // the prefix below the threshold skips).
                                let t = qualifier.min_reviewer_count.expect("straddle needs t");
                                for s in atom.start..atom.end {
                                    if cell.degrees[s as usize] >= t {
                                        cell.merge_sub(s as usize, k, &mut out);
                                    }
                                }
                            }
                        }
                    }
                    // Delta side (no reviewer threshold reaches here):
                    // merged per-year partials + the unsealed tail.
                    if let Some(delta_cell) = pin.delta.cells.get(&(entity, attr)) {
                        // lint:allow(checkpoint_coverage, reason = "bounded by distinct delta years; the par_map closure checkpoints per entity")
                        for (year, partial) in &delta_cell.year_partials {
                            if qualifier.min_year.is_some_and(|y| *year < y)
                                || qualifier.max_year.is_some_and(|y| *year > y)
                            {
                                continue;
                            }
                            out.merge(partial);
                        }
                        for occ in &delta_cell.occs[delta_cell.sealed..] {
                            opine_faults::checkpoint();
                            let meta = self.review_meta_at(&pin.delta, occ.review_id);
                            if qualifier.min_year.is_some_and(|y| meta.year < y)
                                || qualifier.max_year.is_some_and(|y| meta.year > y)
                            {
                                continue;
                            }
                            let contribution = occ_contribution(
                                &self.opinion_domains[attr],
                                self.marker_set(attr),
                                &self.config,
                                occ,
                            );
                            out.apply(&contribution, false);
                        }
                    }
                    out
                })
                .collect()
        })
    }

    /// Degree of `attribute .= phrase` computed over externally supplied
    /// summaries (pairs with [`Self::summaries_with_review_filter`]).
    pub fn attribute_degree_with_summaries(
        &self,
        summaries: &[Vec<MarkerSummary>],
        entity: usize,
        attribute: usize,
        phrase: &str,
    ) -> f64 {
        let prepared = self.prepare_phrase(phrase);
        let feats = marker_features(
            &summaries[entity][attribute],
            self.marker_set(attribute),
            &prepared.rep,
            prepared.sentiment,
        );
        self.membership_markers.degree(&feats)
    }

    /// Number of reviews aggregated for an entity: the build-time count
    /// plus the pinned delta's (both O(1); the base side used to walk
    /// every review in the corpus per call).
    pub fn review_count(&self, entity: usize) -> usize {
        let pin = self.pinned();
        self.entity_review_counts[entity] as usize
            + pin.delta.entity_counts.get(&entity).copied().unwrap_or(0) as usize
    }

    /// Number of reviews written by a reviewer — the degree the
    /// qualifier's `reviewer_min_count` thresholds compare against.
    /// Live: includes the pinned delta's reviews, which is why a
    /// reviewer-threshold qualifier over a non-empty delta must rescan
    /// instead of merging the build-time degree buckets.
    pub fn reviewer_review_count(&self, reviewer_id: usize) -> usize {
        let pin = self.pinned();
        self.reviewer_counts.get(reviewer_id).copied().unwrap_or(0) as usize
            + pin
                .delta
                .reviewer_counts
                .get(&reviewer_id)
                .copied()
                .unwrap_or(0) as usize
    }

    /// Resolves an attribute name to its index.
    pub fn attribute_index(&self, name: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a == name)
    }

    /// Dense entity id for a row-key [`Value`]. Goes through the shared
    /// [`Value::with_key_str`] rendering — the same path the table key
    /// index uses — so text keys probe the map by `&str`, non-text keys
    /// render into a stack buffer (no per-lookup `String`), and the two
    /// layers can never disagree on how a key spells.
    fn entity_of_value(&self, key: &Value) -> Option<usize> {
        key.with_key_str(|s| self.key_to_entity.get(s).copied())
    }

    /// Entity id ↔ base-table row maps, built once: the executor's
    /// candidate bitmaps index *rows* of the entity table, while degree
    /// columns index *entities*. `None` when some entity key has no row
    /// (cannot happen for catalogs built by [`crate::build`], but a
    /// caller-assembled catalog could), in which case the pushdown is
    /// declined rather than answered wrongly.
    fn entity_row_maps(&self) -> Option<&EntityRowMaps> {
        self.entity_rows
            .get_or_init(|| {
                let table = self.catalog.table(&self.entity_table).ok()?;
                let mut entity_to_row = Vec::with_capacity(self.entity_keys.len());
                let mut row_to_entity = vec![u32::MAX; table.len()];
                for (entity, key) in self.entity_keys.iter().enumerate() {
                    let row = table.row_of_key_str(key)?;
                    entity_to_row.push(row as u32);
                    row_to_entity[row] = entity as u32;
                }
                // Rows that are no entity's canonical row (duplicate
                // keys, or extra rows in a caller-assembled catalog)
                // would be scored by the row-at-a-time path but are
                // invisible to entity-indexed ranking; the maps must
                // not exist then, so the pushdown is declined and the
                // two paths stay result-identical.
                if row_to_entity.contains(&u32::MAX) {
                    return None;
                }
                Some(EntityRowMaps {
                    entity_to_row,
                    row_to_entity,
                })
            })
            .as_ref()
    }

    // ------------------------------------------------------------------
    // Live ingest: snapshot pins, INSERT execution, the delta merge.
    // ------------------------------------------------------------------

    /// Runs `f` under a pinned delta generation: the pin already
    /// installed on this thread (so every read inside one query shares
    /// a generation), else the currently published generation installed
    /// for the duration of `f`. Every delta-aware entry point goes
    /// through this — it is what makes a whole request observe exactly
    /// one epoch.
    fn ensure_pinned<T>(&self, f: impl FnOnce(&Pin) -> T) -> T {
        if let Some(pin) = crate::ingest::current_pin() {
            return f(&pin);
        }
        let snap = self.ingest.cell.load();
        let pin = Pin {
            epoch: snap.epoch(),
            delta: snap.value().clone(),
        };
        crate::ingest::with_pin(Some(pin.clone()), || f(&pin))
    }

    /// The delta generation this thread's query pinned, or (outside a
    /// query) the currently published one. Leaf reads that don't
    /// recurse into other delta-aware paths use this instead of
    /// [`Self::ensure_pinned`].
    fn pinned(&self) -> Pin {
        crate::ingest::current_pin().unwrap_or_else(|| {
            let snap = self.ingest.cell.load();
            Pin {
                epoch: snap.epoch(),
                delta: snap.value().clone(),
            }
        })
    }

    /// Whether an epoch-stamped cache entry is valid for `entity` under
    /// `pin`: the entry must not come from the pin's future (snapshot
    /// isolation for queries pinned before a publish), and the entity
    /// must not have changed since the entry was stamped (per-entity
    /// precision — an insert into entity A never invalidates entity
    /// B's memoized degrees).
    #[inline]
    fn entry_fresh(stamp: u64, entity: usize, pin: &Pin) -> bool {
        stamp <= pin.epoch && pin.delta.entity_version(entity) <= stamp
    }

    /// Metadata of a review by global id: base reviews first, then the
    /// pinned delta's (delta review `i` has id `base_count + i`).
    #[inline]
    fn review_meta_at(&self, delta: &DeltaState, review_id: usize) -> ReviewMeta {
        if review_id < self.review_meta.len() {
            self.review_meta[review_id]
        } else {
            delta.meta[review_id - self.review_meta.len()]
        }
    }

    /// The current data epoch: 0 at build, bumped by every published
    /// `INSERT` batch and every completed merge.
    pub fn ingest_epoch(&self) -> u64 {
        self.ingest.cell.epoch()
    }

    /// Delta reviews live in the current generation.
    pub fn delta_reviews(&self) -> usize {
        self.ingest.cell.load().value().meta.len()
    }

    /// Sets the unsealed-review count that triggers a merge after an
    /// insert (clamped to ≥ 1; default
    /// [`crate::ingest::DEFAULT_MERGE_THRESHOLD`]).
    pub fn set_merge_threshold(&self, reviews: usize) {
        // sync: writer-side tuning knob; a racing insert that reads the
        // old threshold merges one batch early or late, both harmless.
        self.ingest.merge_threshold.store(reviews.max(1), Relaxed);
    }

    /// Parses and executes one `INSERT INTO reviews ...` statement.
    pub fn insert_sql(&self, sql: &str) -> Result<IngestReceipt, OpineError> {
        let stmt = parse_insert(sql).map_err(|e| OpineError::Parse(e.to_string()))?;
        self.execute_insert(&stmt)
    }

    /// Executes an already-parsed `INSERT`, all-or-nothing: the batch
    /// is validated in full, applied to a copy-on-write clone of the
    /// delta generation, and published with **one** epoch bump — a
    /// concurrent query pins either every row of the batch or none.
    ///
    /// Only the `reviews` table accepts inserts (the entity set — and
    /// with it every frozen model artifact — is fixed at build time).
    /// Columns must be listed by name. `entity` is required; the
    /// virtual `text` column carries the review text that insert-time
    /// phrase extraction and the next merge's text-index rebuild
    /// consume; `reviewer_id`, `year`, and `helpful_votes` are
    /// optional (`reviewer_id` defaults to a fresh reviewer).
    /// `review_id` is assigned by the engine and cannot be specified.
    ///
    /// When the statement pushes the unsealed delta over the merge
    /// threshold, the merge runs immediately (still under the writer
    /// lock) and publishes a second epoch. A merge failure does not
    /// fail the insert — the batch already published; the merge
    /// retries at the next threshold crossing.
    pub fn execute_insert(&self, stmt: &InsertStmt) -> Result<IngestReceipt, OpineError> {
        let rows = self.validate_insert(stmt)?;
        // lint:allow(lock_hold, reason = "single writer lock by design: inserts and merges serialize; readers pin generations and never take it")
        let _writer = self.ingest.writer.lock();
        let span = opine_trace::span("ingest");
        let snap = self.ingest.cell.load();
        // Single writer (the lock above) ⇒ the next publish gets
        // exactly this epoch; inserted entities are stamped with it.
        let new_epoch = snap.epoch() + 1;
        let mut next = (**snap.value()).clone();
        let matcher = self
            .ingest
            .matcher
            .get_or_init(|| PhraseMatcher::build(&self.opinion_domains));
        let marker_sets = self.interpreter.marker_sets();
        for row in &rows {
            opine_faults::checkpoint();
            let review_id = self.review_meta.len() + next.meta.len();
            // Fresh default: past the dense base ids plus one per prior
            // delta review, so two anonymous inserts never merge into
            // one reviewer.
            let reviewer_id = row
                .reviewer_id
                .unwrap_or(self.reviewer_counts.len() + next.meta.len());
            next.overlay.push_row(
                "reviews",
                vec![
                    Value::Int(review_id as i64),
                    Value::text(&self.entity_keys[row.entity]),
                    Value::Int(reviewer_id as i64),
                    Value::Int(i64::from(row.year)),
                    Value::Int(i64::from(row.helpful_votes)),
                ],
            );
            next.meta.push(ReviewMeta {
                entity_id: row.entity,
                reviewer_id,
                year: row.year,
                helpful_votes: row.helpful_votes,
            });
            *next.entity_counts.entry(row.entity).or_insert(0) += 1;
            *next.reviewer_counts.entry(reviewer_id).or_insert(0) += 1;
            next.entity_versions.insert(row.entity, new_epoch);
            next.unsealed_reviews += 1;
            if !row.text.is_empty() {
                let slot = next.texts.entry(row.entity).or_default();
                if !slot.is_empty() {
                    slot.push(' ');
                }
                slot.push_str(&row.text);
            }
            // Insert-time extraction against the frozen domains: each
            // occurrence lands in its cell and folds into the cell's
            // running summary through the same fixed-point contribution
            // path the build uses.
            for (attr, variation) in matcher.extract(&row.text) {
                opine_faults::checkpoint();
                let occ = PhraseOcc {
                    variation,
                    sentiment: self.opinion_domains[attr].variations()[variation].sentiment,
                    review_id,
                };
                let contribution = occ_contribution(
                    &self.opinion_domains[attr],
                    &marker_sets[attr],
                    &self.config,
                    &occ,
                );
                next.summaries
                    .entry((row.entity, attr))
                    .or_insert_with(|| MarkerSummary::empty(marker_sets[attr].markers.len()))
                    .apply(&contribution, false);
                next.cells
                    .entry((row.entity, attr))
                    .or_default()
                    .occs
                    .push(occ);
            }
        }
        let unsealed = next.unsealed_reviews;
        span.count("rows", rows.len() as u64);
        let published = self.ingest.cell.publish(next);
        debug_assert_eq!(published, new_epoch);
        self.ingest
            .inserted_reviews
            .fetch_add(rows.len() as u64, Relaxed);
        drop(span);

        // Threshold merge, still under the writer lock so no other
        // insert interleaves between the batch publish and the merge
        // publish.
        // sync: tuning knob; a stale threshold merges a batch late.
        let threshold = self.ingest.merge_threshold.load(Relaxed);
        let merged = unsealed >= threshold && self.merge_delta_locked().is_ok();
        let snap = self.ingest.cell.load();
        Ok(IngestReceipt {
            inserted: rows.len(),
            epoch: snap.epoch(),
            delta_reviews: snap.value().meta.len(),
            merged,
        })
    }

    /// Validates the whole statement before anything mutates — every
    /// rejection surfaces with zero rows applied.
    fn validate_insert(&self, stmt: &InsertStmt) -> Result<Vec<InsertRow>, OpineError> {
        if stmt.table != "reviews" {
            return Err(insert_error(format!(
                "INSERT supports only the reviews table (the `{}` entity set and every \
                 model artifact are frozen at build time), got `{}`",
                self.entity_table, stmt.table
            )));
        }
        if stmt.columns.is_empty() {
            return Err(insert_error(
                "INSERT INTO reviews requires a named column list (the virtual `text` \
                 column is not part of the stored schema)"
                    .into(),
            ));
        }
        let mut seen: HashMap<&str, usize> = HashMap::new();
        for (i, name) in stmt.columns.iter().enumerate() {
            opine_faults::checkpoint();
            match name.as_str() {
                "entity" | "text" | "reviewer_id" | "year" | "helpful_votes" => {}
                "review_id" => {
                    return Err(insert_error(
                        "review_id is assigned by the engine and cannot be inserted".into(),
                    ))
                }
                other => {
                    return Err(insert_error(format!(
                        "unknown insert column `{other}` \
                         (allowed: entity, text, reviewer_id, year, helpful_votes)"
                    )))
                }
            }
            if seen.insert(name.as_str(), i).is_some() {
                return Err(insert_error(format!("duplicate insert column `{name}`")));
            }
        }
        let Some(&entity_col) = seen.get("entity") else {
            return Err(insert_error(
                "INSERT INTO reviews requires the entity column".into(),
            ));
        };
        let mut rows = Vec::with_capacity(stmt.rows.len());
        for (r, values) in stmt.rows.iter().enumerate() {
            opine_faults::checkpoint();
            if values.len() != stmt.columns.len() {
                return Err(insert_error(format!(
                    "row {r}: {} values for {} columns",
                    values.len(),
                    stmt.columns.len()
                )));
            }
            let int_field = |name: &str| -> Result<Option<i64>, OpineError> {
                match seen.get(name) {
                    None => Ok(None),
                    Some(&c) => match &values[c] {
                        Value::Int(v) => Ok(Some(*v)),
                        other => Err(insert_error(format!(
                            "row {r}: {name} must be an integer, got {other}"
                        ))),
                    },
                }
            };
            let key = values[entity_col]
                .as_str()
                .ok_or_else(|| insert_error(format!("row {r}: entity must be a string key")))?;
            let entity = self.entity_id(key).ok_or_else(|| {
                insert_error(format!(
                    "row {r}: unknown entity `{key}` (the entity set is frozen at build time)"
                ))
            })?;
            let reviewer_id = match int_field("reviewer_id")? {
                None => None,
                Some(v) if v >= 0 => Some(v as usize),
                Some(v) => {
                    return Err(insert_error(format!(
                        "row {r}: reviewer_id must be non-negative, got {v}"
                    )))
                }
            };
            let year = match int_field("year")? {
                None => 0,
                Some(v) if (0..=i64::from(u32::MAX)).contains(&v) => v as u32,
                Some(v) => return Err(insert_error(format!("row {r}: year out of range: {v}"))),
            };
            let helpful_votes = match int_field("helpful_votes")? {
                None => 0,
                Some(v) if (0..=i64::from(u32::MAX)).contains(&v) => v as u32,
                Some(v) => {
                    return Err(insert_error(format!(
                        "row {r}: helpful_votes out of range: {v}"
                    )))
                }
            };
            let text = match seen.get("text") {
                None => String::new(),
                Some(&c) => values[c]
                    .as_str()
                    .ok_or_else(|| insert_error(format!("row {r}: text must be a string")))?
                    .to_string(),
            };
            rows.push(InsertRow {
                entity,
                text,
                reviewer_id,
                year,
                helpful_votes,
            });
        }
        Ok(rows)
    }

    /// Freezes the delta: seals the overlay tail into `Arc`-shared
    /// chunks, folds every occurrence into per-year partial summaries,
    /// rebuilds the per-entity delta text index (block-max frozen, so
    /// delta BM25 serves through the same WAND machinery as the base
    /// index), and publishes the frozen artifacts with a single epoch
    /// bump. On failure (an injected `mid_merge` fault, a cancelled
    /// deadline) nothing publishes — the previous epoch keeps serving
    /// — and `failed_merges` increments.
    pub fn merge_delta(&self) -> Result<u64, OpineError> {
        // lint:allow(lock_hold, reason = "single writer lock by design: inserts and merges serialize; readers pin generations and never take it")
        let _writer = self.ingest.writer.lock();
        self.merge_delta_locked()
    }

    /// The merge body; the caller holds the writer lock.
    fn merge_delta_locked(&self) -> Result<u64, OpineError> {
        let snap = self.ingest.cell.load();
        if snap.value().unsealed_reviews == 0 {
            return Ok(snap.epoch());
        }
        let span = opine_trace::span("delta_merge");
        let new_epoch = snap.epoch() + 1;
        let marker_sets = self.interpreter.marker_sets();
        // The merge builds a complete successor generation off to the
        // side and publishes it only if every step succeeds; a panic
        // (injected fault, expired deadline) is caught — NOT resumed,
        // unlike the query path — because a failed merge is recoverable
        // by design: the old generation is untouched and keeps serving.
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            opine_faults::fire_panic("mid_merge");
            let mut next = (**snap.value()).clone();
            next.overlay.seal();
            // Fold all occurrences (sealed + tail) into fresh per-year
            // partials; rebuilding instead of appending keeps one code
            // path, and the delta stays small by design.
            for (&(_, attr), cell) in next.cells.iter_mut() {
                let k = marker_sets[attr].markers.len();
                let mut by_year: BTreeMap<u32, MarkerSummary> = BTreeMap::new();
                for occ in &cell.occs {
                    opine_faults::checkpoint();
                    let year = if occ.review_id < self.review_meta.len() {
                        self.review_meta[occ.review_id].year
                    } else {
                        snap.value().meta[occ.review_id - self.review_meta.len()].year
                    };
                    let contribution = occ_contribution(
                        &self.opinion_domains[attr],
                        &marker_sets[attr],
                        &self.config,
                        occ,
                    );
                    by_year
                        .entry(year)
                        .or_insert_with(|| MarkerSummary::empty(k))
                        .apply(&contribution, false);
                }
                cell.year_partials = by_year.into_iter().collect();
                cell.sealed = cell.occs.len();
            }
            // Rebuild the delta text index over every entity's merged
            // delta text (doc id == entity id so dense BM25 aligns
            // with the base index), vocabulary frozen.
            let mut index = InvertedIndex::new();
            for entity in 0..self.num_entities() {
                opine_faults::checkpoint();
                let text = next.texts.get(&entity).map(String::as_str).unwrap_or("");
                index.add_document_frozen_vocab(text, &self.vocab);
            }
            index.freeze();
            next.text_index = Some(Arc::new(index));
            // The merge changes these reviews' text-retrieval
            // contribution, so their entities must invalidate
            // epoch-stamped cache entries from before it.
            for i in next.merged_reviews..next.meta.len() {
                let entity = next.meta[i].entity_id;
                next.entity_versions.insert(entity, new_epoch);
            }
            next.merged_reviews = next.meta.len();
            next.unsealed_reviews = 0;
            next
        }));
        match built {
            Ok(next) => {
                let epoch = self.ingest.cell.publish(next);
                debug_assert_eq!(epoch, new_epoch);
                self.ingest.delta_merges.fetch_add(1, Relaxed);
                drop(span);
                Ok(epoch)
            }
            Err(payload) => {
                self.ingest.failed_merges.fetch_add(1, Relaxed);
                drop(span);
                if payload.is::<opine_faults::Cancelled>() {
                    Err(OpineError::QueryTimeout)
                } else {
                    Err(OpineError::Store(StoreError::Execution(
                        "delta merge failed and was rolled back; the previous epoch keeps serving"
                            .into(),
                    )))
                }
            }
        }
    }
}

/// A scorer view over one review qualifier's merged summaries: every
/// subjective degree is computed from the filtered summaries through
/// [`OpineDb::attribute_degree_with_summaries`], so only qualifying
/// reviews count. Interpretations, prepared phrases, and the membership
/// model are shared with the engine; the unqualified degree-column and
/// point caches are bypassed (their entries assume all reviews).
///
/// The executor obtains one per qualified statement via
/// [`SubjectiveScorer::qualified_scorer`]. It deliberately declines the
/// TA fast path (`rank_subjective_conjunction` default): qualified
/// statements score row-at-a-time over the merged summaries.
pub struct QualifiedScorer<'a> {
    db: &'a OpineDb,
    summaries: Arc<Vec<Vec<MarkerSummary>>>,
}

impl QualifiedScorer<'_> {
    fn entity(&self, key: &Value) -> Result<usize, StoreError> {
        self.db
            .entity_of_value(key)
            .ok_or_else(|| StoreError::Execution(format!("unknown entity key {key}")))
    }

    /// Degree of a natural-language predicate over the filtered
    /// summaries. The text-retrieval fallback (stage 3) scores the
    /// entity's full review document — BM25 has no per-review summary
    /// to filter — so it is the one stage a qualifier cannot scope.
    fn degree(&self, entity: usize, predicate: &str) -> f64 {
        let algebra = FuzzyAlgebra::Product;
        match self.db.interpret(predicate) {
            Interpretation::Direct { attribute, .. } => self.db.attribute_degree_with_summaries(
                &self.summaries,
                entity,
                attribute,
                predicate,
            ),
            Interpretation::CoOccur { terms, conjunctive } => {
                let degrees = terms.iter().map(|&(a, m)| {
                    let phrase = &self.db.marker_set(a).markers[m].phrase;
                    self.db
                        .attribute_degree_with_summaries(&self.summaries, entity, a, phrase)
                });
                if conjunctive {
                    degrees.fold(1.0, |acc, d| algebra.and(acc, d))
                } else {
                    degrees.fold(0.0, |acc, d| algebra.or(acc, d))
                }
            }
            Interpretation::TextFallback => self.db.text_degree(entity, predicate),
        }
    }
}

impl SubjectiveScorer for QualifiedScorer<'_> {
    fn degree_predicate(&self, predicate: &str, key: &Value) -> Result<f64, StoreError> {
        let entity = self.entity(key)?;
        Ok(self.degree(entity, predicate))
    }

    fn degree_match(
        &self,
        attribute: &ColumnRef,
        phrase: &str,
        key: &Value,
    ) -> Result<f64, StoreError> {
        let entity = self.entity(key)?;
        let attr = self
            .db
            .attribute_index(&attribute.column)
            .ok_or_else(|| StoreError::UnknownColumn(attribute.column.clone()))?;
        Ok(self
            .db
            .attribute_degree_with_summaries(&self.summaries, entity, attr, phrase))
    }
}

impl SubjectiveScorer for OpineDb {
    fn degree_predicate(&self, predicate: &str, key: &Value) -> Result<f64, StoreError> {
        let entity = self
            .entity_of_value(key)
            .ok_or_else(|| StoreError::Execution(format!("unknown entity key {key}")))?;
        Ok(self.degree(entity, predicate))
    }

    fn degree_match(
        &self,
        attribute: &ColumnRef,
        phrase: &str,
        key: &Value,
    ) -> Result<f64, StoreError> {
        let entity = self
            .entity_of_value(key)
            .ok_or_else(|| StoreError::Execution(format!("unknown entity key {key}")))?;
        let attr = self
            .attribute_index(&attribute.column)
            .ok_or_else(|| StoreError::UnknownColumn(attribute.column.clone()))?;
        Ok(self.attribute_degree(entity, attr, phrase))
    }

    fn prepare_predicates(&self, predicates: &[&str]) {
        // Warm the degree columns (computed in parallel over entity
        // chunks) so the executor's row loop reduces to cache reads.
        for predicate in predicates {
            let _ = self.degree_column(predicate);
        }
    }

    fn rank_subjective_conjunction(
        &self,
        predicates: &[&str],
        k: usize,
        candidates: Option<&Bitmap>,
    ) -> Option<Vec<(Value, f64)>> {
        opine_faults::fire_panic("pre_ta");
        let span = opine_trace::span("ta_topk");
        let ranked = match candidates {
            None => {
                opine_trace::note(|| format!("ta_topk: full TA over degree columns (k={k})"));
                self.rank_top_k(predicates, k)
            }
            Some(bitmap) => {
                let Some(ranked) = self.rank_pushdown(predicates, k, bitmap) else {
                    opine_trace::note(|| "ta_topk: declined — no entity↔row maps".into());
                    return None;
                };
                ranked
            }
        };
        span.count("scored", ranked.len() as u64);
        drop(span);
        self.ta_queries
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Some(
            ranked
                .into_iter()
                .map(|(entity, score)| (Value::text(&self.entity_keys[entity]), score))
                .collect(),
        )
    }

    fn qualified_scorer<'s>(
        &'s self,
        qualifier: &ReviewQualifier,
    ) -> Option<Box<dyn SubjectiveScorer + 's>> {
        // The scan ablation (`set_use_markers(false)`) scores from raw
        // occurrences, which the merged marker summaries cannot
        // represent — decline so qualified statements error instead of
        // silently answering from a different membership model than
        // their unqualified twins.
        // sync: ablation toggle; a stale read declines conservatively.
        if !self.use_markers.load(std::sync::atomic::Ordering::Relaxed) {
            return None;
        }
        self.qualified_queries
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Some(Box::new(QualifiedScorer {
            db: self,
            summaries: self.summaries_qualified(qualifier),
        }))
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Concurrency audit: the serving layer shares one `OpineDb` behind an
/// `Arc` across request threads, so every interior cache (the bounded
/// memos, the `OnceLock` sorted orders, the markers ablation flag) must
/// be thread-safe. Failing this assertion is a compile error, not a runtime
/// surprise.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<OpineDb>();
    assert_send_sync::<DegreeColumn>();
    assert_send_sync::<CacheReport>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build, BuildConfig};
    use opine_corpus::hotel::hotel_spec;
    use opine_corpus::{Corpus, CorpusConfig};
    use opine_embed::Word2VecConfig;

    fn db() -> (Corpus, OpineDb) {
        let corpus = Corpus::generate(
            hotel_spec(),
            &CorpusConfig {
                num_entities: 16,
                mean_reviews: 16,
                seed: 9,
            },
        );
        let db = build(
            &corpus,
            &BuildConfig {
                w2v: Word2VecConfig {
                    dim: 24,
                    epochs: 2,
                    ..Default::default()
                },
                membership_tuples: 400,
                ..Default::default()
            },
        );
        (corpus, db)
    }

    /// `sql` through the row-at-a-time reference plan: every row scored
    /// via [`OpineDb::degree`], no TA ranking, no pushdown.
    fn reference_plan(db: &OpineDb, sql: &str) -> QueryOutput {
        let select = parse_select(sql).unwrap();
        QueryOutput {
            result: opine_store::execute(&select, db.catalog(), &opine_store::RowAtATime(db))
                .unwrap(),
            interpretations: Vec::new(),
        }
    }

    /// `(ta_queries, pushdown_queries)` — the fast-path counters a
    /// reference run must leave untouched.
    fn fast_path_counters(db: &OpineDb) -> (u64, u64) {
        let report = db.cache_report();
        (report.ta_queries, report.pushdown_queries)
    }

    #[test]
    fn end_to_end_query_ranks_clean_hotels_higher() {
        let (corpus, db) = db();
        let out = db
            .query("select * from hotels where \"clean rooms\" limit 16")
            .unwrap();
        assert!(!out.result.rows.is_empty());
        // The top third should have higher average cleanliness θ than the
        // bottom third.
        let n = out.result.rows.len();
        let theta = |rows: &[(Vec<Value>, f64)]| -> f64 {
            rows.iter()
                .map(|(r, _)| {
                    let id = db.entity_id(r[0].as_str().unwrap()).unwrap();
                    corpus.entities[id].quality[0]
                })
                .sum::<f64>()
                / rows.len() as f64
        };
        let top = theta(&out.result.rows[..n / 3]);
        let bottom = theta(&out.result.rows[n - n / 3..]);
        assert!(top > bottom, "top θ {top} should exceed bottom θ {bottom}");
    }

    #[test]
    fn objective_and_subjective_conditions_combine() {
        let (_, db) = db();
        let out = db
            .query("select * from hotels where price_pn < 250 and \"clean rooms\" limit 50")
            .unwrap();
        for (row, score) in &out.result.rows {
            assert!(row[2].as_f64().unwrap() < 250.0);
            assert!((0.0..=1.0).contains(score));
        }
    }

    #[test]
    fn interpretations_are_reported() {
        let (_, db) = db();
        let out = db
            .query("select * from hotels where \"spotless rooms\" limit 3")
            .unwrap();
        assert_eq!(out.interpretations.len(), 1);
        assert_eq!(out.interpretations[0].0, "spotless rooms");
    }

    #[test]
    fn degree_cache_is_consistent() {
        let (_, db) = db();
        let a = db.degree(0, "clean rooms");
        let b = db.degree(0, "clean rooms");
        assert_eq!(a, b);
    }

    #[test]
    fn marker_and_scan_paths_correlate() {
        let (_, db) = db();
        let with_markers: Vec<f64> = (0..db.num_entities())
            .map(|e| db.degree(e, "clean rooms"))
            .collect();
        db.set_use_markers(false);
        let without: Vec<f64> = (0..db.num_entities())
            .map(|e| db.attribute_degree(e, 0, "clean rooms"))
            .collect();
        db.set_use_markers(true);
        // Spearman-ish check: the top marker-entity should be in the upper
        // half of the scan ranking.
        let top = with_markers
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let rank = without.iter().filter(|&&d| d > without[top]).count();
        assert!(
            rank <= db.num_entities() / 2,
            "marker-top entity ranks {rank} under scan"
        );
    }

    #[test]
    fn review_filter_recomputes_summaries() {
        let (_, db) = db();
        let filtered = db.summaries_with_review_filter(|m| m.year >= 2012);
        let full_total: f64 = (0..db.num_entities()).map(|e| db.summary(e, 0).total).sum();
        let filtered_total: f64 = filtered.iter().map(|per| per[0].total).sum();
        assert!(filtered_total < full_total);
        assert!(filtered_total > 0.0);
    }

    #[test]
    fn bucket_merge_matches_raw_rebuild_bit_for_bit() {
        let (_, db) = db();
        // Thresholds chosen to exercise year bounds AND a degree
        // threshold that cuts through a log2 bucket (3 is not a power
        // of two ⇒ straddle refinement).
        for q in [
            ReviewQualifier {
                min_year: Some(2012),
                max_year: None,
                min_reviewer_count: None,
            },
            ReviewQualifier {
                min_year: Some(2008),
                max_year: Some(2015),
                min_reviewer_count: Some(3),
            },
            ReviewQualifier {
                min_year: None,
                max_year: None,
                min_reviewer_count: Some(2),
            },
            ReviewQualifier::default(),
        ] {
            let merged = db.summaries_qualified(&q);
            let rebuilt = db.summaries_with_review_filter(|m| {
                q.accepts(m.year, db.reviewer_review_count(m.reviewer_id) as u32)
            });
            for e in 0..db.num_entities() {
                for a in 0..db.attributes.len() {
                    assert!(
                        merged[e][a].same_aggregates(&rebuilt[e][a]),
                        "{q} entity {e} attr {a}: merged {:?} vs rebuilt {:?}",
                        merged[e][a].counts(),
                        rebuilt[e][a].counts()
                    );
                }
            }
        }
    }

    #[test]
    fn trivial_qualifier_merge_equals_build_time_summaries() {
        let (_, db) = db();
        let merged = db.summaries_qualified(&ReviewQualifier::default());
        for e in 0..db.num_entities() {
            for a in 0..db.attributes.len() {
                assert!(
                    merged[e][a].same_aggregates(db.summary(e, a)),
                    "entity {e} attr {a}"
                );
            }
        }
    }

    #[test]
    fn qualified_sql_matches_rebuild_reference_and_counts() {
        let (_, db) = db();
        let before = db.cache_report();
        assert_eq!(before.filtered_summary_queries, 0);
        let sql = "select * from hotels where \"clean rooms\" \
                   with reviews(year >= 2012) limit 16";
        let out = db.query(sql).unwrap();
        assert!(!out.result.rows.is_empty());
        let after = db.cache_report();
        assert_eq!(after.filtered_summary_queries, 1, "qualified counter");
        assert!(after.filtered_summaries.misses > before.filtered_summaries.misses);

        // Reference: score every entity through the raw-rebuild
        // summaries; the SQL path must agree bit-for-bit.
        let q = ReviewQualifier {
            min_year: Some(2012),
            max_year: None,
            min_reviewer_count: None,
        };
        let rebuilt = db.summaries_with_review_filter(|m| {
            q.accepts(m.year, db.reviewer_review_count(m.reviewer_id) as u32)
        });
        let mut expected: Vec<(usize, f64)> = (0..db.num_entities())
            .map(|e| {
                (
                    e,
                    db.attribute_degree_with_summaries(&rebuilt, e, 0, "clean rooms"),
                )
            })
            .collect();
        expected.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        for ((row, score), (entity, degree)) in out.result.rows.iter().zip(&expected) {
            assert_eq!(row[0].as_str(), Some(db.entity_key(*entity)));
            assert_eq!(score.to_bits(), degree.to_bits(), "bit-identical degrees");
        }

        // A repeat replays from the filtered-summary cache.
        let again = db.query(sql).unwrap();
        assert_eq!(again.result.rows.len(), out.result.rows.len());
        let warm = db.cache_report();
        assert!(warm.filtered_summaries.hits > after.filtered_summaries.hits);
        assert_eq!(warm.filtered_summary_queries, 2);
    }

    #[test]
    fn qualified_and_unqualified_queries_do_not_share_answers() {
        let (_, db) = db();
        let plain = db
            .query("select * from hotels where \"clean rooms\" limit 16")
            .unwrap();
        let qualified = db
            .query(
                "select * from hotels where \"clean rooms\" \
                 with reviews(year >= 2014, reviewer_min_count >= 2) limit 16",
            )
            .unwrap();
        // The qualifier drops review mass, so at least one degree must
        // change (the generator spreads years 2005..=2019).
        let changed = plain
            .result
            .rows
            .iter()
            .zip(&qualified.result.rows)
            .any(|(a, b)| a.0[0] != b.0[0] || (a.1 - b.1).abs() > 1e-15);
        assert!(changed, "qualifier had no effect on any degree");
    }

    #[test]
    fn scan_ablation_declines_qualified_statements() {
        let (_, db) = db();
        let sql = "select * from hotels where \"clean rooms\" \
                   with reviews(year >= 2012) limit 4";
        db.set_use_markers(false);
        // Merged marker summaries cannot represent the raw-scan
        // membership mode: answering would silently switch models, so
        // the statement must error instead.
        let err = db.query(sql).unwrap_err();
        assert!(
            matches!(err, OpineError::Store(StoreError::NoScorer(_))),
            "expected NoScorer, got {err:?}"
        );
        db.set_use_markers(true);
        assert!(db.query(sql).is_ok(), "marker mode answers it again");
    }

    #[test]
    fn trivial_qualifier_stays_on_the_fast_path() {
        let (_, db) = db();
        let before = db.cache_report();
        let out = db
            .query("select * from hotels where \"clean rooms\" with reviews() limit 8")
            .unwrap();
        assert!(!out.result.rows.is_empty());
        let after = db.cache_report();
        // with reviews() accepts every review: the base scorer (and its
        // TA fast path) answers it — no merge, no qualified counter.
        assert_eq!(
            after.filtered_summary_queries,
            before.filtered_summary_queries
        );
        assert_eq!(
            after.filtered_summaries.misses,
            before.filtered_summaries.misses
        );
        assert!(after.ta_queries > before.ta_queries);
    }

    #[test]
    fn review_counts_are_precomputed_correctly() {
        let (corpus, db) = db();
        for e in 0..db.num_entities() {
            let scan = corpus.reviews.iter().filter(|r| r.entity_id == e).count();
            assert_eq!(db.review_count(e), scan, "entity {e}");
        }
        let reviewer_scan = corpus.reviewer_counts();
        for (&reviewer, &count) in &reviewer_scan {
            assert_eq!(db.reviewer_review_count(reviewer), count);
        }
        assert_eq!(db.reviewer_review_count(usize::MAX), 0, "unknown reviewer");
    }

    #[test]
    fn clear_caches_drops_filtered_summary_sets() {
        let (_, db) = db();
        let _ = db.summaries_qualified(&ReviewQualifier {
            min_year: Some(2010),
            max_year: None,
            min_reviewer_count: None,
        });
        assert_eq!(db.cache_report().filtered_summary_sets, 1);
        db.clear_caches();
        assert_eq!(db.cache_report().filtered_summary_sets, 0);
    }

    #[test]
    fn marker_match_syntax_works() {
        let (_, db) = db();
        let out = db
            .query("select * from hotels h where h.room_cleanliness .= \"very clean\" limit 5")
            .unwrap();
        assert!(!out.result.rows.is_empty());
    }

    /// A database whose interpreter thresholds are unreachable, so
    /// every predicate falls through word2vec and co-occurrence to the
    /// text-retrieval stage — the fixture for the text-fallback column
    /// and the WAND counters (stage 2 still *runs* its retrieval
    /// before giving up, so `wand_queries` fires).
    fn text_fallback_db() -> OpineDb {
        let corpus = Corpus::generate(
            hotel_spec(),
            &CorpusConfig {
                num_entities: 16,
                mean_reviews: 16,
                seed: 9,
            },
        );
        build(
            &corpus,
            &BuildConfig {
                w2v: Word2VecConfig {
                    dim: 24,
                    epochs: 2,
                    ..Default::default()
                },
                membership_tuples: 400,
                interpreter: crate::interpret::InterpreterConfig {
                    theta1: 1.01,
                    theta2: f64::INFINITY,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
    }

    #[test]
    fn text_fallback_column_matches_point_path_bit_for_bit() {
        let db = text_fallback_db();
        let predicate = "clean rooms";
        assert_eq!(
            db.interpret(predicate),
            Interpretation::TextFallback,
            "unreachable thresholds must force the text stage"
        );
        // Batched column (one pass over the posting lists)…
        let column = db.degree_column(predicate);
        let degrees = column.degrees();
        // …must equal the per-entity point path exactly (with the column
        // uncached, `degree` computes each entity on its own).
        db.clear_degree_columns();
        for (e, column_degree) in degrees.iter().enumerate() {
            let point = db.degree(e, predicate);
            assert_eq!(
                column_degree.to_bits(),
                point.to_bits(),
                "entity {e}: batched text column diverged from the point path"
            );
        }
    }

    #[test]
    fn cache_report_aggregates_wand_counters() {
        let db = text_fallback_db();
        let before = db.cache_report();
        // The cascade runs the co-occurrence retrieval (stage 2) before
        // falling back, so one cold interpretation fires the counter.
        let _ = db.interpret("comfortable beds");
        let after = db.cache_report();
        assert!(
            after.wand_queries > before.wand_queries,
            "stage-2 retrieval must route through WAND: {after:?}"
        );
        // The ablation toggle reroutes the same retrieval.
        db.set_wand(false);
        let _ = db.interpret("comfortable beds");
        let toggled = db.cache_report();
        assert!(
            toggled.exhaustive_queries > after.exhaustive_queries,
            "disabled WAND must fall back to the exhaustive scorer"
        );
        db.set_wand(true);
    }

    #[test]
    fn text_fallback_degree_is_bounded() {
        let (_, db) = db();
        for e in 0..db.num_entities() {
            let d = db.text_degree(e, "great for motorcyclists");
            assert!((0.0..=1.0).contains(&d));
        }
    }

    #[test]
    fn unknown_table_query_errors() {
        let (_, db) = db();
        assert!(db.query("select * from nonexistent").is_err());
        assert!(db.query("not sql at all").is_err());
    }

    #[test]
    fn interpretation_cache_hits_on_repeated_predicates() {
        let (_, db) = db();
        let before = db.interp_cache_stats();
        for _ in 0..5 {
            db.query("select * from hotels where \"clean rooms\" limit 4")
                .unwrap();
        }
        let after = db.interp_cache_stats();
        assert!(
            after.misses - before.misses <= 1,
            "one distinct predicate must interpret at most once, got {} misses",
            after.misses - before.misses
        );
        assert!(
            after.hits > before.hits,
            "repeated queries must hit the interpretation memo"
        );
    }

    #[test]
    fn degree_column_matches_naive_per_entity_path() {
        let (_, db) = db();
        let column = db.degree_column("clean rooms");
        let degrees = column.degrees();
        assert_eq!(degrees.len(), db.num_entities());
        // The naive per-entity point path (column uncached) must produce
        // the same degrees.
        db.clear_degree_columns();
        for (e, column_degree) in degrees.iter().enumerate() {
            let naive = db.degree(e, "clean rooms");
            assert!(
                (column_degree - naive).abs() < 1e-12,
                "entity {e}: column {column_degree} vs naive {naive}"
            );
        }
    }

    #[test]
    fn sorted_order_is_descending_with_id_tiebreak() {
        let (_, db) = db();
        let column = db.degree_column("clean rooms");
        let order = column.sorted_order();
        assert_eq!(order.len(), db.num_entities());
        for w in order.windows(2) {
            let (a, b) = (w[0] as usize, w[1] as usize);
            let (da, db_) = (column.degrees()[a], column.degrees()[b]);
            assert!(da > db_ || (da == db_ && a < b));
        }
    }

    #[test]
    fn rank_top_k_matches_full_column_sort() {
        let (_, db) = db();
        let preds = ["clean rooms", "friendly staff"];
        let ranked = db.rank_top_k(&preds, 5);
        let cols: Vec<_> = preds.iter().map(|p| db.degree_column(p)).collect();
        let mut naive: Vec<(usize, f64)> = (0..db.num_entities())
            .map(|e| (e, cols.iter().map(|c| c.degrees()[e]).product()))
            .collect();
        naive.sort_by(crate::topk::rank_cmp);
        naive.truncate(5);
        assert_eq!(ranked, naive);
    }

    #[test]
    fn ta_fast_path_matches_row_at_a_time_scoring() {
        let (_, db) = db();
        let sql = "select * from hotels where \"clean rooms\" limit 8";
        let fast = db.query(sql).unwrap();
        // The row-at-a-time reference plan on cold caches scores every
        // row through the naive point path.
        db.clear_caches();
        let counters = fast_path_counters(&db);
        let naive = reference_plan(&db, sql);
        assert_eq!(
            fast_path_counters(&db),
            counters,
            "the reference must not take the TA fast path"
        );
        assert_eq!(fast.result.rows.len(), naive.result.rows.len());
        for (f, n) in fast.result.rows.iter().zip(&naive.result.rows) {
            assert_eq!(f.0[0], n.0[0], "same entity order");
            assert!((f.1 - n.1).abs() < 1e-12, "same scores");
        }
    }

    #[test]
    fn mixed_queries_ride_the_pushdown_ta_path() {
        let (_, db) = db();
        let sql = "select * from hotels where price_pn < 250 and \"clean rooms\" limit 50";
        let before = db.cache_report();
        assert_eq!(before.pushdown_queries, 0);
        let out = db.query(sql).unwrap();
        let after = db.cache_report();
        assert_eq!(
            after.pushdown_queries,
            before.pushdown_queries + 1,
            "the paper's running-example shape must take the pushdown TA path"
        );
        assert!(after.ta_queries > before.ta_queries);
        for (row, _) in &out.result.rows {
            assert!(
                row[2].as_f64().unwrap() < 250.0,
                "objective filter still applies on the TA path"
            );
        }
        // The pushdown answer must equal the row-at-a-time reference plan
        // exactly, both over the warm degree columns (prefilter +
        // row-at-a-time residue) and on cold caches (fully naive
        // scoring).
        let counters = fast_path_counters(&db);
        let row_at_a_time = reference_plan(&db, sql);
        db.clear_caches();
        let naive = reference_plan(&db, sql);
        assert_eq!(
            fast_path_counters(&db),
            counters,
            "the reference must not take the TA or pushdown path"
        );
        for reference in [&row_at_a_time, &naive] {
            assert_eq!(out.result.rows.len(), reference.result.rows.len());
            for (a, b) in out.result.rows.iter().zip(&reference.result.rows) {
                assert_eq!(a.0[0], b.0[0]);
                assert!((a.1 - b.1).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn pushdown_with_empty_candidate_set_returns_no_rows() {
        let (_, db) = db();
        let out = db
            .query("select * from hotels where price_pn < 0 and \"clean rooms\"")
            .unwrap();
        assert!(out.result.rows.is_empty());
    }

    #[test]
    fn clear_caches_resets_columns() {
        let (_, db) = db();
        let _ = db.degree_column("clean rooms");
        assert!(db.cached_degree_columns() >= 1);
        db.clear_caches();
        assert_eq!(db.cached_degree_columns(), 0);
    }

    // ---- live ingest ----

    /// Serializes the tests that merge or arm failpoints: the faults
    /// registry is process-global, and an armed `mid_merge` panic must
    /// not leak into a concurrently merging test.
    fn ingest_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn insert_lands_in_delta_and_is_immediately_queryable() {
        let (_, db) = db();
        assert_eq!(db.ingest_epoch(), 0);
        let entity = db.entity_key(3).to_string();
        let phrase = db.opinion_domain(0).variations()[0].phrase.clone();
        let base_count = db.review_count(3);
        let receipt = db
            .insert_sql(&format!(
                "INSERT INTO reviews (entity, text, year, reviewer_id, helpful_votes) \
                 VALUES ('{entity}', 'the {phrase} impressed us', 2021, 77777, 3)"
            ))
            .unwrap();
        assert_eq!(receipt.inserted, 1);
        assert_eq!(receipt.epoch, 1);
        assert_eq!(receipt.delta_reviews, 1);
        assert!(!receipt.merged, "below the default merge threshold");
        assert_eq!(db.ingest_epoch(), 1);
        assert_eq!(db.delta_reviews(), 1);
        // Counts are live at the very next read, not merge-deferred.
        assert_eq!(db.review_count(3), base_count + 1);
        assert_eq!(db.reviewer_review_count(77777), 1);
        // The overlay row answers relational SELECTs right away.
        let out = db
            .query("select * from reviews where reviewer_id = 77777")
            .unwrap();
        assert_eq!(out.result.rows.len(), 1);
        assert_eq!(out.result.rows[0].0[1].as_str(), Some(entity.as_str()));
        assert_eq!(out.result.rows[0].0[3], Value::Int(2021));
    }

    #[test]
    fn batch_insert_publishes_exactly_one_epoch() {
        let (_, db) = db();
        let e0 = db.entity_key(0).to_string();
        let e1 = db.entity_key(1).to_string();
        let base0 = db.review_count(0);
        let base1 = db.review_count(1);
        let receipt = db
            .insert_sql(&format!(
                "INSERT INTO reviews (entity, year) \
                 VALUES ('{e0}', 2020), ('{e1}', 2021), ('{e0}', 2022)"
            ))
            .unwrap();
        assert_eq!(receipt.inserted, 3);
        assert_eq!(db.ingest_epoch(), 1, "one publish for the whole batch");
        assert_eq!(db.delta_reviews(), 3);
        assert_eq!(db.review_count(0), base0 + 2);
        assert_eq!(db.review_count(1), base1 + 1);
        let report = db.cache_report();
        assert_eq!(report.inserted_reviews, 3);
        assert_eq!(report.ingest_epoch, 1);
        assert_eq!(report.delta_reviews, 3);
    }

    #[test]
    fn invalid_inserts_are_rejected_with_zero_rows_applied() {
        let (_, db) = db();
        let entity = db.entity_key(0).to_string();
        for sql in [
            // only the reviews table accepts inserts
            format!("INSERT INTO hotels (entity) VALUES ('{entity}')"),
            // review_id is engine-assigned
            format!("INSERT INTO reviews (review_id, entity) VALUES (1, '{entity}')"),
            // the column list is required
            format!("INSERT INTO reviews VALUES (1, '{entity}', 1, 2020, 0)"),
            // unknown column
            format!("INSERT INTO reviews (entity, rating) VALUES ('{entity}', 5)"),
            // duplicate column
            format!("INSERT INTO reviews (entity, year, year) VALUES ('{entity}', 2020, 2021)"),
            // unknown entity key — the entity set is frozen at build time
            "INSERT INTO reviews (entity) VALUES ('no_such_hotel')".to_string(),
            // entity is required
            "INSERT INTO reviews (year) VALUES (2020)".to_string(),
            // type error
            format!("INSERT INTO reviews (entity, year) VALUES ('{entity}', 'soon')"),
            // a bad second row rejects the whole batch
            format!(
                "INSERT INTO reviews (entity, year) \
                 VALUES ('{entity}', 2020), ('{entity}', 5000000000)"
            ),
        ] {
            let err = db.insert_sql(&sql).unwrap_err();
            assert!(matches!(err, OpineError::Store(_)), "{sql}: {err:?}");
        }
        assert_eq!(
            db.ingest_epoch(),
            0,
            "every rejection left the epoch untouched"
        );
        assert_eq!(db.delta_reviews(), 0);
        assert_eq!(db.cache_report().inserted_reviews, 0);
    }

    #[test]
    fn insert_repairs_degree_columns_precisely() {
        let (_, db) = db();
        let predicate = "clean rooms";
        assert_ne!(
            db.interpret(predicate),
            Interpretation::TextFallback,
            "fixture precondition: the repair under test is the marker path"
        );
        let phrase = db.opinion_domain(0).variations()[0].phrase.clone();
        let before = db.degree_column(predicate);
        let before_degrees = before.degrees().to_vec();
        // A strong new signal for entity 0 only.
        let text = [phrase.as_str(); 6].join(" and ");
        let entity = db.entity_key(0).to_string();
        db.insert_sql(&format!(
            "INSERT INTO reviews (entity, text) VALUES ('{entity}', '{text}')"
        ))
        .unwrap();
        // The warm probe repairs the stale column: only entity 0
        // recomputes, the other slots are reused verbatim.
        let repaired = db.degree_column(predicate);
        let repaired_degrees = repaired.degrees().to_vec();
        for e in 1..db.num_entities() {
            assert_eq!(
                repaired_degrees[e].to_bits(),
                before_degrees[e].to_bits(),
                "entity {e} was untouched by the insert"
            );
        }
        assert_ne!(
            repaired_degrees[0].to_bits(),
            before_degrees[0].to_bits(),
            "entity 0 absorbed the inserted occurrences"
        );
        // Bit-identical to a cold rebuild at the new epoch.
        db.clear_caches();
        let cold = db.degree_column(predicate);
        let cold_degrees = cold.degrees();
        for e in 0..db.num_entities() {
            assert_eq!(
                repaired_degrees[e].to_bits(),
                cold_degrees[e].to_bits(),
                "entity {e}: repaired column diverged from a cold rebuild"
            );
        }
    }

    #[test]
    fn traced_column_repair_counts_instead_of_panicking() {
        let (_, db) = db();
        let predicate = "clean rooms";
        let _ = db.degree_column(predicate);
        let entity = db.entity_key(2).to_string();
        db.insert_sql(&format!(
            "INSERT INTO reviews (entity, text) VALUES ('{entity}', 'spotless clean rooms')"
        ))
        .unwrap();
        // Every served request arms a trace, so a repair under an armed
        // trace is the serving layer's steady state after an INSERT.
        let ctx = opine_trace::TraceContext::new();
        let repaired = opine_trace::with_trace(Some(ctx.clone()), || db.degree_column(predicate));
        assert_eq!(repaired.len(), db.num_entities());
        let snapshot = ctx.snapshot();
        let ta = snapshot
            .stage("ta_topk")
            .expect("the repair counts on ta_topk");
        assert_eq!(ta.counter("cache_repairs"), 1, "{snapshot:?}");
    }

    #[test]
    fn qualified_summaries_with_delta_match_rescan_pre_and_post_merge() {
        let _guard = ingest_lock();
        let (_, db) = db();
        let phrase0 = db.opinion_domain(0).variations()[0].phrase.clone();
        let phrase1 = db.opinion_domain(1).variations()[0].phrase.clone();
        let e2 = db.entity_key(2).to_string();
        let e5 = db.entity_key(5).to_string();
        db.insert_sql(&format!(
            "INSERT INTO reviews (entity, text, year, reviewer_id) VALUES \
             ('{e2}', 'really {phrase0} here', 2016, 901), \
             ('{e2}', '{phrase1} but loud', 2009, 901), \
             ('{e5}', '{phrase0} and {phrase1}', 2013, 902)"
        ))
        .unwrap();
        let qualifiers = [
            ReviewQualifier {
                min_year: Some(2012),
                max_year: None,
                min_reviewer_count: None,
            },
            ReviewQualifier {
                min_year: Some(2008),
                max_year: Some(2015),
                min_reviewer_count: Some(3),
            },
            ReviewQualifier {
                min_year: None,
                max_year: None,
                min_reviewer_count: Some(2),
            },
            ReviewQualifier::default(),
        ];
        let check = |label: &str| {
            for q in &qualifiers {
                let merged = db.summaries_qualified(q);
                let rebuilt = db.summaries_with_review_filter(|m| {
                    q.accepts(m.year, db.reviewer_review_count(m.reviewer_id) as u32)
                });
                for e in 0..db.num_entities() {
                    for a in 0..db.attributes.len() {
                        assert!(
                            merged[e][a].same_aggregates(&rebuilt[e][a]),
                            "{label} {q} entity {e} attr {a}: merged {:?} vs rebuilt {:?}",
                            merged[e][a].counts(),
                            rebuilt[e][a].counts()
                        );
                    }
                }
            }
        };
        // Pre-merge: the unsealed tail re-resolves raw occurrences.
        check("pre-merge");
        let epoch = db.merge_delta().unwrap();
        assert_eq!(epoch, 2);
        // Post-merge: the sealed per-year partials path.
        check("post-merge");
    }

    #[test]
    fn threshold_crossing_triggers_an_immediate_merge() {
        let _guard = ingest_lock();
        let (_, db) = db();
        db.set_merge_threshold(2);
        let e = db.entity_key(7).to_string();
        let first = db
            .insert_sql(&format!(
                "INSERT INTO reviews (entity, year) VALUES ('{e}', 2020)"
            ))
            .unwrap();
        assert!(!first.merged);
        assert_eq!(first.epoch, 1);
        let second = db
            .insert_sql(&format!(
                "INSERT INTO reviews (entity, year) VALUES ('{e}', 2021)"
            ))
            .unwrap();
        assert!(second.merged, "second insert crossed the threshold");
        assert_eq!(second.epoch, 3, "batch publish + merge publish");
        assert_eq!(db.cache_report().delta_merges, 1);
    }

    #[test]
    fn merged_delta_text_contributes_to_text_degrees() {
        let _guard = ingest_lock();
        let (_, db) = db();
        let phrase = db.opinion_domain(0).variations()[0].phrase.clone();
        let entity = db.entity_key(6).to_string();
        let before = db.text_degree(6, &phrase);
        db.insert_sql(&format!(
            "INSERT INTO reviews (entity, text) VALUES ('{entity}', '{phrase} {phrase} {phrase}')"
        ))
        .unwrap();
        // Text retrieval is near-real-time: visible at the next merge,
        // not at the insert itself (counts and summaries are live
        // immediately — see the tests above).
        assert_eq!(db.text_degree(6, &phrase).to_bits(), before.to_bits());
        db.merge_delta().unwrap();
        let after = db.text_degree(6, &phrase);
        assert!(
            after > before,
            "merged delta BM25 must lift entity 6: {before} -> {after}"
        );
    }

    #[test]
    fn failed_merge_leaves_the_old_epoch_serving() {
        let _guard = ingest_lock();
        let (_, db) = db();
        let phrase = db.opinion_domain(0).variations()[0].phrase.clone();
        let entity = db.entity_key(4).to_string();
        db.insert_sql(&format!(
            "INSERT INTO reviews (entity, text, year) VALUES ('{entity}', 'so {phrase}', 2018)"
        ))
        .unwrap();
        assert_eq!(db.ingest_epoch(), 1);
        let sql = "select * from hotels where \"clean rooms\" limit 16";
        let before = db.query(sql).unwrap();

        opine_faults::configure("mid_merge=panic@1", 7).expect("valid spec");
        let err = db.merge_delta().unwrap_err();
        opine_faults::clear();
        assert!(
            matches!(err, OpineError::Store(StoreError::Execution(_))),
            "{err:?}"
        );
        assert_eq!(db.ingest_epoch(), 1, "nothing published");
        assert_eq!(db.cache_report().failed_merges, 1);
        assert_eq!(db.cache_report().delta_merges, 0);

        // The failed merge is invisible to readers: byte-identical
        // answers from the still-serving generation.
        let after = db.query(sql).unwrap();
        assert_eq!(before.result.rows.len(), after.result.rows.len());
        for (a, b) in before.result.rows.iter().zip(&after.result.rows) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }

        // Disarmed, the retry freezes and publishes.
        let epoch = db.merge_delta().unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(db.cache_report().delta_merges, 1);
        assert_eq!(
            db.delta_reviews(),
            1,
            "merged reviews stay in the delta generation"
        );
    }
}
