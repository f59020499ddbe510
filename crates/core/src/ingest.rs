//! Live ingest: the mutable delta segment behind snapshot-isolated reads.
//!
//! A built [`crate::OpineDb`] is immutable — its relational tables,
//! summaries, partials, and indexes are frozen artifacts. Reviews
//! inserted at serve time land in a [`DeltaState`]: a copy-on-write
//! value published through a [`crate::snapshot::SnapshotCell`], so every
//! query pins exactly one delta generation for its whole execution (the
//! thread-local [`Pin`]) and a half-applied `INSERT` batch is never
//! observable.
//!
//! The **model plane stays frozen**: vocabulary, embeddings, sentiment,
//! interpreter, membership functions, and marker sets are fixed at
//! build time. The delta only moves the **data plane** — relational
//! rows (a [`TableOverlay`]), per-entity/per-reviewer counts, marker
//! summaries (phrase occurrences are extracted at insert time by exact
//! token matching against the frozen opinion domains), year-partitioned
//! partial summaries, and a per-entity delta text index rebuilt (and
//! block-max frozen) by each merge. Near-real-time semantics follow
//! Lucene's: summary/count effects are visible at the very next epoch,
//! text-retrieval (BM25) effects become visible at the next delta
//! merge.

use crate::db::{PhraseOcc, ReviewMeta};
use crate::domain::LinguisticDomain;
use crate::snapshot::SnapshotCell;
use crate::summary::MarkerSummary;
use opine_ir::InvertedIndex;
use opine_store::TableOverlay;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::{Arc, OnceLock};

/// Default number of unsealed delta reviews that triggers a merge.
pub const DEFAULT_MERGE_THRESHOLD: usize = 64;

/// The delta phrase occurrences of one `(entity, attribute)` cell.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeltaCell {
    /// Every delta occurrence, in insert order. `occs[..sealed]` are
    /// covered by [`Self::year_partials`]; the tail re-resolves at
    /// query time (it is bounded by the merge threshold).
    pub occs: Vec<PhraseOcc>,
    /// Prefix length folded into the year partials by the last merge.
    pub sealed: usize,
    /// Per-year partial summaries over `occs[..sealed]`, ascending by
    /// year — the delta-side twin of the base `CellPartials`, reduced
    /// to year granularity because reviewer-degree qualifiers always
    /// take the exact rescan path when a delta is live (see
    /// `OpineDb::merge_qualified`).
    pub year_partials: Vec<(u32, MarkerSummary)>,
}

/// One immutable delta generation. Published wholesale through the
/// ingest [`SnapshotCell`]; never mutated in place after publication.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeltaState {
    /// Relational rows appended to the catalog's `reviews` table.
    pub overlay: TableOverlay,
    /// `(entity, attribute)` → delta phrase occurrences.
    pub cells: HashMap<(usize, usize), DeltaCell>,
    /// `(entity, attribute)` → marker summary over **all** delta
    /// occurrences of the cell (sealed and unsealed), maintained at
    /// insert time so the unqualified read path is one merge away.
    pub summaries: HashMap<(usize, usize), MarkerSummary>,
    /// Metadata of every delta review; the review with delta index `i`
    /// has global id `base_review_count + i`.
    pub meta: Vec<ReviewMeta>,
    /// Concatenated delta review text per entity, the input of the
    /// merge's text-index rebuild.
    pub texts: HashMap<usize, String>,
    /// Delta reviews per entity.
    pub entity_counts: HashMap<usize, u32>,
    /// Delta reviews per reviewer id.
    pub reviewer_counts: HashMap<usize, u32>,
    /// Entity → epoch of the last published change to anything that
    /// feeds its degrees (summaries at insert, text index at merge).
    /// Epoch-stamped cache entries compare against this to stay
    /// precise: an entity untouched since an entry was stamped never
    /// invalidates it.
    pub entity_versions: HashMap<usize, u64>,
    /// Frozen per-entity text index over the *merged* delta reviews
    /// (doc id == entity id, spanning every entity). `None` until the
    /// first merge.
    pub text_index: Option<Arc<InvertedIndex>>,
    /// Delta reviews covered by `text_index` and the year partials.
    pub merged_reviews: usize,
    /// Delta reviews inserted since the last merge — drives the merge
    /// threshold.
    pub unsealed_reviews: usize,
}

impl DeltaState {
    /// True when no delta review exists (the fast path every read takes
    /// before any ingest happens).
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// The pinned-generation version of `entity` (0 when untouched).
    #[inline]
    pub fn entity_version(&self, entity: usize) -> u64 {
        self.entity_versions.get(&entity).copied().unwrap_or(0)
    }
}

/// A query's pinned delta generation: the epoch and the generation's
/// shared state, installed thread-locally for the whole execution (and
/// re-installed inside parallel workers by `par::par_map`).
#[derive(Debug, Clone)]
pub(crate) struct Pin {
    pub epoch: u64,
    pub delta: Arc<DeltaState>,
}

thread_local! {
    /// The delta generation pinned by the query running on this thread.
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

/// The engine's ingest machinery: the published delta generation, the
/// writer lock serializing inserts and merges, and the observability
/// counters the `/stats` surface reports.
pub(crate) struct IngestState {
    /// The current delta generation; `publish` bumps the data epoch.
    pub cell: SnapshotCell<DeltaState>,
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
    /// Unsealed reviews that trigger a merge.
    pub merge_threshold: AtomicUsize,
    /// Lazily built exact-phrase matcher over the frozen domains.
    pub matcher: OnceLock<PhraseMatcher>,
}

impl IngestState {
    pub fn new() -> Self {
        IngestState {
            cell: SnapshotCell::new(DeltaState::default()),
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
    /// Total delta reviews now live.
    pub delta_reviews: usize,
    /// True when this statement pushed the delta over the merge
    /// threshold and the merge completed.
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
            delta: Arc::new(DeltaState::default()),
        };
        with_pin(Some(pin.clone()), || {
            assert_eq!(current_pin().expect("pinned").epoch, 3);
            // Nesting replaces, exit restores the outer pin.
            with_pin(
                Some(Pin {
                    epoch: 4,
                    delta: Arc::new(DeltaState::default()),
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
                    delta: Arc::new(DeltaState::default()),
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
