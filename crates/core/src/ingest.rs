//! Live ingest: snapshot-isolated `INSERT` over copy-on-write entity
//! records.
//!
//! The engine's **data plane** is one immutable [`DataPlane`] value per
//! generation, published through a [`crate::snapshot::SnapshotCell`];
//! the build output is generation 0. Every query pins exactly one
//! generation for its whole execution (the thread-local [`Pin`]), so a
//! half-applied `INSERT` batch is never observable.
//!
//! The **model plane stays frozen**: vocabulary, embeddings, sentiment,
//! interpreter, membership functions, marker sets, and the entity set
//! are fixed at build time. Because the entity set is frozen, the data
//! plane is a vector of per-entity [`EntityRecord`]s (per attribute: a
//! summary, raw occurrences, `(year, reviewer degree)` partials; plus
//! counts). A batch extracts phrase occurrences from each row by exact
//! token matching against the frozen opinion domains, clones only the
//! records and attribute cells it touches, folds the occurrences in
//! through the same routine the build uses, and publishes one epoch.
//! Everything else is shared with the previous generation, and there
//! is one read path for built and inserted reviews alike.
//!
//! Two artifacts sit beside the records. Inserted relational rows live
//! in a [`TableOverlay`] the executor appends to the `reviews` table,
//! and inserted text feeds a per-entity delta text index that each
//! merge rebuilds (and block-max freezes). Near-real-time semantics
//! follow Lucene's: summary and count effects are visible at the very
//! next epoch, text-retrieval (BM25) effects at the next merge.

use crate::db::ReviewMeta;
use crate::domain::LinguisticDomain;
use crate::record::EntityRecord;
use crate::snapshot::SnapshotCell;
use opine_ir::InvertedIndex;
use opine_store::TableOverlay;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::{Arc, OnceLock};

/// Default number of unmerged inserted reviews that triggers a merge.
pub const DEFAULT_MERGE_THRESHOLD: usize = 64;

/// One immutable data-plane generation. Published wholesale through the
/// ingest [`SnapshotCell`]; never mutated in place after publication.
#[derive(Debug, Clone)]
pub(crate) struct DataPlane {
    /// One record per entity id; a batch replaces only the records it
    /// touches.
    pub entities: Vec<Arc<EntityRecord>>,
    /// Relational rows appended to the catalog's `reviews` table.
    pub overlay: TableOverlay,
    /// Metadata of every inserted review; the review with delta index
    /// `i` has global id `base_review_count + i`.
    pub meta: Vec<ReviewMeta>,
    /// Inserted reviews per reviewer id.
    pub reviewer_counts: HashMap<usize, u32>,
    /// Frozen per-entity text index over the inserted text as of the
    /// last merge (doc id == entity id, spanning every entity). `None`
    /// until the first merge.
    pub text_index: Option<Arc<InvertedIndex>>,
    /// Epoch of the merge that built `text_index` (0 before any).
    pub text_epoch: u64,
    /// Inserted reviews since the last merge — drives the merge
    /// threshold.
    pub unmerged_reviews: usize,
}

impl DataPlane {
    /// Generation 0: the build output, no inserted review.
    pub fn new(entities: Vec<Arc<EntityRecord>>) -> Self {
        DataPlane {
            entities,
            overlay: TableOverlay::default(),
            meta: Vec::new(),
            reviewer_counts: HashMap::new(),
            text_index: None,
            text_epoch: 0,
            unmerged_reviews: 0,
        }
    }

    /// Whether anything one of `entity`'s degrees reads changed after
    /// `stamp`: its record, or — for degrees that read the delta text
    /// index — a merge that rebuilt the index while the entity had
    /// inserted text. BM25's idf and average length are index-wide, so
    /// a merge moves the text score of every entity with delta text,
    /// not only of those whose text it added.
    #[inline]
    pub fn changed_since(&self, entity: usize, stamp: u64, reads_text: bool) -> bool {
        let record = &self.entities[entity];
        record.epoch > stamp || (reads_text && self.text_epoch > stamp && !record.text.is_empty())
    }
}

/// A query's pinned data-plane generation: the epoch and the
/// generation's shared state, installed thread-locally for the whole
/// execution (and re-installed inside parallel workers by
/// `par::par_map`).
#[derive(Debug, Clone)]
pub(crate) struct Pin {
    pub epoch: u64,
    pub plane: Arc<DataPlane>,
}

thread_local! {
    /// The generation pinned by the query running on this thread.
    static PIN: RefCell<Option<Pin>> = const { RefCell::new(None) };
}

/// Runs `f` with `pin` installed as the thread's pinned generation,
/// restoring the previous pin on exit (panic-safe via a drop guard) —
/// the same ambient-state pattern as `opine_faults::with_deadline`.
pub(crate) fn with_pin<T>(pin: Option<Pin>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Pin>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let previous = self.0.take();
            PIN.with(|p| *p.borrow_mut() = previous);
        }
    }
    let previous = PIN.with(|p| p.borrow_mut().take());
    let _restore = Restore(previous);
    PIN.with(|p| *p.borrow_mut() = pin);
    f()
}

/// The pin installed on this thread, if any.
pub(crate) fn current_pin() -> Option<Pin> {
    PIN.with(|p| p.borrow().clone())
}

/// Exact-phrase matcher over the frozen opinion domains: maps a
/// tokenized review text to `(attribute, variation)` occurrences by
/// matching each variation's token sequence at every position. Built
/// once per engine (lazily, on the first insert) and keyed by first
/// token so a text scan only examines candidates sharing its anchor.
#[derive(Debug, Default)]
pub(crate) struct PhraseMatcher {
    /// First token → `(attribute, variation index, full token list)`.
    by_first: HashMap<String, Vec<(usize, usize, Vec<String>)>>,
}

impl PhraseMatcher {
    /// Builds the matcher from the engine's frozen opinion domains.
    pub fn build(domains: &[LinguisticDomain]) -> Self {
        let mut by_first: HashMap<String, Vec<(usize, usize, Vec<String>)>> = HashMap::new();
        for (attr, domain) in domains.iter().enumerate() {
            for (var, variation) in domain.variations().iter().enumerate() {
                opine_faults::checkpoint();
                let tokens = opine_text::tokenize(&variation.phrase);
                if let Some(first) = tokens.first() {
                    by_first
                        .entry(first.clone())
                        .or_default()
                        .push((attr, var, tokens.clone()));
                }
            }
        }
        PhraseMatcher { by_first }
    }

    /// `(attribute, variation)` occurrences of the domains' phrases in
    /// `text`, in scan order. Longer candidate phrases win at a given
    /// anchor position (the scan does not double-count a long phrase as
    /// its own prefix), matching how extraction yields one opinion term
    /// per expression.
    pub fn extract(&self, text: &str) -> Vec<(usize, usize)> {
        let tokens = opine_text::tokenize(text);
        let mut out = Vec::new();
        for start in 0..tokens.len() {
            opine_faults::checkpoint();
            let Some(candidates) = self.by_first.get(&tokens[start]) else {
                continue;
            };
            let mut best: Option<(usize, usize, usize)> = None;
            // lint:allow(checkpoint_coverage, reason = "bounded by the domains' variation count per anchor token, not by data volume")
            for &(attr, var, ref phrase) in candidates {
                let fits = phrase.len() <= tokens.len() - start
                    && phrase.iter().zip(&tokens[start..]).all(|(p, t)| p == t);
                if fits && best.is_none_or(|(_, _, len)| phrase.len() > len) {
                    best = Some((attr, var, phrase.len()));
                }
            }
            if let Some((attr, var, _)) = best {
                out.push((attr, var));
            }
        }
        out
    }
}

/// The engine's ingest machinery: the published data-plane generation,
/// the writer lock serializing inserts and merges, and the
/// observability counters the `/stats` surface reports.
pub(crate) struct IngestState {
    /// The current generation; `publish` bumps the data epoch.
    pub cell: SnapshotCell<DataPlane>,
    /// Serializes writers. Readers never take it — they pin a
    /// generation and go.
    pub writer: Mutex<()>,
    /// Reviews accepted by `INSERT` statements (counter).
    pub inserted_reviews: AtomicU64,
    /// Completed delta merges (counter).
    pub delta_merges: AtomicU64,
    /// Merges that panicked and were rolled back — the previous epoch
    /// kept serving (counter).
    pub failed_merges: AtomicU64,
    /// Unmerged inserted reviews that trigger a merge.
    pub merge_threshold: AtomicUsize,
    /// Lazily built exact-phrase matcher over the frozen domains.
    pub matcher: OnceLock<PhraseMatcher>,
}

impl IngestState {
    pub fn new(plane: DataPlane) -> Self {
        IngestState {
            cell: SnapshotCell::new(plane),
            writer: Mutex::new(()),
            inserted_reviews: AtomicU64::new(0),
            delta_merges: AtomicU64::new(0),
            failed_merges: AtomicU64::new(0),
            merge_threshold: AtomicUsize::new(DEFAULT_MERGE_THRESHOLD),
            matcher: OnceLock::new(),
        }
    }
}

/// What an accepted `INSERT` statement did — returned by
/// [`crate::OpineDb::execute_insert`] and rendered by the serving
/// layer's ingest endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReceipt {
    /// Rows inserted by this statement (all-or-nothing).
    pub inserted: usize,
    /// The data epoch after this statement (and any merge it
    /// triggered) published.
    pub epoch: u64,
    /// Total inserted reviews now live.
    pub delta_reviews: usize,
    /// True when this statement pushed the unmerged reviews over the
    /// merge threshold and the merge completed.
    pub merged: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_pin_installs_and_restores() {
        assert!(current_pin().is_none());
        let pin = Pin {
            epoch: 3,
            plane: Arc::new(DataPlane::new(Vec::new())),
        };
        with_pin(Some(pin.clone()), || {
            assert_eq!(current_pin().expect("pinned").epoch, 3);
            // Nesting replaces, exit restores the outer pin.
            with_pin(
                Some(Pin {
                    epoch: 4,
                    plane: Arc::new(DataPlane::new(Vec::new())),
                }),
                || assert_eq!(current_pin().expect("pinned").epoch, 4),
            );
            assert_eq!(current_pin().expect("outer pin restored").epoch, 3);
        });
        assert!(current_pin().is_none());
    }

    #[test]
    fn with_pin_restores_after_panic() {
        let result = std::panic::catch_unwind(|| {
            with_pin(
                Some(Pin {
                    epoch: 1,
                    plane: Arc::new(DataPlane::new(Vec::new())),
                }),
                || panic!("boom"),
            )
        });
        assert!(result.is_err());
        assert!(current_pin().is_none(), "drop guard must restore the pin");
    }

    #[test]
    fn matcher_prefers_longest_phrase_at_an_anchor() {
        // A hand-built matcher (domains need an embedder; the map is
        // enough to exercise the scan logic).
        let mut m = PhraseMatcher::default();
        m.by_first.insert(
            "very".into(),
            vec![
                (0, 1, vec!["very".into(), "clean".into()]),
                (0, 2, vec!["very".into()]),
            ],
        );
        m.by_first
            .insert("clean".into(), vec![(0, 0, vec!["clean".into()])]);
        let occs = m.extract("the room was very clean indeed");
        // "very clean" wins at the anchor "very"; "clean" still matches
        // at its own anchor one token later.
        assert_eq!(occs, vec![(0, 1), (0, 0)]);
        assert_eq!(m.extract("nothing matches here"), vec![]);
    }
}
