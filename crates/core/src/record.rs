//! Per-entity data-plane records: everything a degree, a count or a
//! review-qualified summary reads about one entity, in one immutable
//! value.
//!
//! The entity set is frozen at build time, so the data plane is a
//! vector of `Arc<EntityRecord>` indexed by entity id (published through
//! the ingest [`crate::snapshot::SnapshotCell`]; the build output is
//! generation 0). An `INSERT` batch copies the vector of pointers, clones
//! only the records it touches — and in them only the attribute cells
//! its reviews mention — and folds the new occurrences in through
//! [`EntityRecord::add_occ`], the same routine the build fills every
//! record with. Everything untouched is shared between generations, so
//! the cost of a batch does not depend on how many reviews came before
//! it.
//!
//! Every aggregate resolves an occurrence once ([`occ_contribution`])
//! and accumulates it in fixed point (see `core::summary`), so the full
//! summary, the bucket partials, and the raw rescan of the occurrences
//! agree bit for bit whatever order the occurrences arrived in.

use crate::builder::BuildConfig;
use crate::db::{PhraseOcc, ReviewMeta};
use crate::domain::LinguisticDomain;
use crate::summary::{MarkerSet, MarkerSummary, PhraseContribution};
use opine_store::ReviewQualifier;
use std::sync::Arc;

/// One entity's data-plane state. Never mutated after publication: a
/// writer clones the record and the cells it changes (`Arc::make_mut`)
/// and publishes the copy.
#[derive(Debug, Clone)]
pub(crate) struct EntityRecord {
    /// One cell per attribute. A review mentions a few attributes, so a
    /// new version of the record shares the other cells.
    pub cells: Vec<Arc<AttrCell>>,
    /// Reviews of the entity.
    pub reviews: u32,
    /// Epoch of the last published change to the record (0 = build).
    /// Epoch-stamped cache entries compare against it, so an insert
    /// into one entity never invalidates another's memoized degrees.
    pub epoch: u64,
    /// Concatenated text of the entity's inserted reviews — the input of
    /// the delta text index that each merge rebuilds.
    pub text: String,
}

/// What one `(entity, attribute)` aggregates.
#[derive(Debug, Clone)]
pub(crate) struct AttrCell {
    /// Marker summary over every review of the entity.
    pub summary: MarkerSummary,
    /// Raw phrase occurrences in arrival order: the no-markers scan
    /// ablation and the qualifier rescan read these.
    pub occs: Vec<PhraseOcc>,
    /// `(year, reviewer degree)` partial summaries.
    pub partials: CellPartials,
}

impl EntityRecord {
    /// A record with no reviews over the given marker sets.
    pub fn empty(marker_sets: &[MarkerSet]) -> Self {
        EntityRecord {
            cells: marker_sets
                .iter()
                .map(|set| {
                    Arc::new(AttrCell {
                        summary: MarkerSummary::empty(set.markers.len()),
                        occs: Vec::new(),
                        partials: CellPartials::default(),
                    })
                })
                .collect(),
            reviews: 0,
            epoch: 0,
            text: String::new(),
        }
    }

    /// Folds one phrase occurrence of attribute `attr` into the record:
    /// resolves its contribution once, applies it to the attribute's
    /// summary and to the `(year, degree)` partial, and keeps the raw
    /// occurrence. `degree` is the number of reviews the occurrence's
    /// author had written when the occurrence was folded.
    #[allow(clippy::too_many_arguments)]
    pub fn add_occ(
        &mut self,
        attr: usize,
        occ: PhraseOcc,
        year: u32,
        degree: u32,
        domain: &LinguisticDomain,
        markers: &MarkerSet,
        config: &BuildConfig,
    ) {
        let contribution = occ_contribution(domain, markers, config, &occ);
        let cell = Arc::make_mut(&mut self.cells[attr]);
        cell.summary.apply(&contribution, true);
        cell.partials
            .add(year, degree, markers.markers.len(), &contribution);
        cell.occs.push(occ);
    }
}

/// Generation 0 of the data plane: one record per entity, filled by
/// [`EntityRecord::add_occ`] from each entity's `(attribute, occurrence)`
/// list in review order.
pub(crate) fn build_records(
    entity_occs: &[Vec<(usize, PhraseOcc)>],
    review_meta: &[ReviewMeta],
    reviewer_counts: &[u32],
    domains: &[LinguisticDomain],
    marker_sets: &[MarkerSet],
    config: &BuildConfig,
) -> Vec<Arc<EntityRecord>> {
    // Every record's cells and summaries are allocated first, in entity
    // order, so the accumulators a degree column reads for consecutive
    // entities lie close together (the fold below allocates
    // occurrences, partials and provenance after them). Interleaving
    // the two measurably slowed cold degree-column builds.
    let mut records: Vec<EntityRecord> = entity_occs
        .iter()
        .map(|_| EntityRecord::empty(marker_sets))
        .collect();
    for meta in review_meta {
        records[meta.entity_id].reviews += 1;
    }
    // lint:allow(checkpoint_coverage, reason = "construction path; no request deadline is armed during build")
    for (record, occs) in records.iter_mut().zip(entity_occs) {
        // lint:allow(checkpoint_coverage, reason = "construction path; no request deadline is armed during build")
        for &(attr, occ) in occs {
            let meta = &review_meta[occ.review_id];
            record.add_occ(
                attr,
                occ,
                meta.year,
                reviewer_counts[meta.reviewer_id],
                &domains[attr],
                &marker_sets[attr],
                config,
            );
        }
    }
    records.into_iter().map(Arc::new).collect()
}

/// Resolves one raw occurrence into its summary contribution — the one
/// shared aggregation step of the records, the bucket-merge straddle
/// refinement, and the raw rescan. Sharing it (and the fixed-point
/// accumulators underneath) is what makes every route produce
/// bit-identical summaries.
pub(crate) fn occ_contribution<'a>(
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

/// Degree bucket of a reviewer who wrote `count` reviews.
#[inline]
fn degree_bucket(count: u32) -> u8 {
    count.max(1).ilog2() as u8
}

/// One bucket atom of the partitioned review-qualified summaries:
/// every occurrence of one `(entity, attribute)` whose source review
/// shares a publication year and a reviewer-degree bucket
/// (`⌊log2(reviews the author wrote)⌋`). The atom spans a `[start,
/// end)` range of exact-degree sub-partials inside the cell's flat
/// accumulator store ([`CellPartials`]).
///
/// A bucket-aligned qualifier merges whole atoms without looking at
/// individual degrees; a min-degree threshold that cuts *through* the
/// bucket (the paper's "at least 10 hotels" cuts `[8, 16)`) resolves
/// just that atom's sub-partials — no raw occurrence is ever
/// re-aggregated at query time.
#[derive(Debug, Clone)]
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
/// allocations.
#[derive(Debug, Clone, Default)]
pub(crate) struct CellPartials {
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

/// How a min-degree threshold relates to one degree bucket.
enum BucketCut {
    /// Every reviewer in the bucket meets the threshold.
    Full,
    /// No reviewer in the bucket meets the threshold.
    Out,
    /// The threshold cuts through the bucket; the atom's exact-degree
    /// sub-partials resolve it.
    Straddle(u32),
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
        BucketCut::Straddle(min_count)
    }
}

impl CellPartials {
    /// Adds one resolved occurrence to the `(year, degree)` sub-partial,
    /// creating the sub-partial (and its bucket atom) in sorted position
    /// on first use.
    fn add(&mut self, year: u32, degree: u32, k: usize, contribution: &PhraseContribution<'_>) {
        let key = (year, degree_bucket(degree));
        let a = match self
            .atoms
            .binary_search_by(|atom| (atom.year, atom.degree_bucket).cmp(&key))
        {
            Ok(a) => a,
            Err(a) => {
                let start = self
                    .atoms
                    .get(a)
                    .map_or(self.degrees.len() as u32, |next| next.start);
                self.atoms.insert(
                    a,
                    PartialAtom {
                        year,
                        degree_bucket: key.1,
                        start,
                        end: start,
                    },
                );
                a
            }
        };
        let (start, end) = (self.atoms[a].start as usize, self.atoms[a].end as usize);
        let s = match self.degrees[start..end].binary_search(&degree) {
            Ok(i) => start + i,
            Err(i) => {
                let s = start + i;
                self.degrees.insert(s, degree);
                self.totals.insert(s, 0.0);
                self.unmatcheds.insert(s, 0.0);
                self.counts_q
                    .splice(s * k..s * k, std::iter::repeat_n(0, k));
                self.senti_q.splice(s * k..s * k, std::iter::repeat_n(0, k));
                self.atoms[a].end += 1;
                for atom in &mut self.atoms[a + 1..] {
                    atom.start += 1;
                    atom.end += 1;
                }
                s
            }
        };
        self.totals[s] += 1.0;
        let span = s * k..(s + 1) * k;
        if contribution.accumulate(&mut self.counts_q[span.clone()], &mut self.senti_q[span]) {
            self.unmatcheds[s] += 1.0;
        }
    }

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

    /// Merges every sub-partial `qualifier` accepts into `out`. Year
    /// bounds align exactly with the atoms; a reviewer-degree threshold
    /// merges every bucket it fully covers and resolves only the
    /// exact-degree sub-partials of the one bucket it cuts through.
    pub fn merge_qualified(&self, qualifier: &ReviewQualifier, k: usize, out: &mut MarkerSummary) {
        // lint:allow(checkpoint_coverage, reason = "bounded by years x degree-buckets per entity; callers checkpoint per entity")
        for atom in &self.atoms {
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
                        self.merge_sub(s as usize, k, out);
                    }
                }
                BucketCut::Out => {}
                BucketCut::Straddle(t) => {
                    for s in atom.start..atom.end {
                        if self.degrees[s as usize] >= t {
                            self.merge_sub(s as usize, k, out);
                        }
                    }
                }
            }
        }
    }
}
