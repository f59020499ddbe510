//! Fagin's Threshold Algorithm for fuzzy top-k (the classic technique the
//! paper cites as [15] for efficient evaluation of fuzzy selections).
//!
//! Given one degree column per predicate and the product t-norm as the
//! combiner, TA scans the per-predicate *sorted orders* in parallel,
//! random-accessing each newly seen entity's remaining degrees, and stops
//! as soon as the k-th best combined score beats the threshold — the
//! product of the degrees at the current scan positions.
//!
//! The hot entry point is [`threshold_topk_dense`]: degrees live in
//! entity-id-indexed `Vec<f64>` columns (O(1) random access, no hashing),
//! seen-tracking is a `Vec<bool>` bitmap, and the current top-k is a
//! fixed-size binary min-heap instead of a re-sorted vector. The original
//! sorted-pair-list API ([`threshold_topk`]) densifies its input and
//! delegates, so callers holding `(entity, degree)` lists keep working.
//!
//! Ranking is a total order: combined degree descending, entity id
//! ascending on ties. Both the TA and the full-scan reference break ties
//! identically, which the property tests assert exactly.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A ranked candidate; the `Ord` impl is the ranking total order
/// (higher degree first, smaller entity id on ties).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate {
    score: f64,
    entity: usize,
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Greater = ranks earlier; defined via `rank_cmp` (where Less =
        // ranks earlier) so there is exactly one ranking rule to edit.
        rank_cmp(&(self.entity, self.score), &(other.entity, other.score)).reverse()
    }
}

/// The ranking comparator shared by every entry point: combined degree
/// descending, entity id ascending on ties.
#[inline]
pub fn rank_cmp(a: &(usize, f64), b: &(usize, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

/// Top-k entities by product-combined degree over dense columns.
///
/// * `columns[p][e]` — degree of entity `e` under predicate `p`; all
///   columns must have the same length (one slot per entity).
/// * `sorted[p]` — entity ids in descending-degree order for predicate
///   `p` (ties in any order); this is TA's sorted-access sequence.
///
/// Returns `(entity, combined degree)` in ranking order; fewer than `k`
/// results when there are fewer entities.
pub fn threshold_topk_dense<C, S>(columns: &[C], sorted: &[S], k: usize) -> Vec<(usize, f64)>
where
    C: AsRef<[f64]>,
    S: AsRef<[u32]>,
{
    threshold_topk_dense_filtered(columns, sorted, k, |_| true)
}

/// [`threshold_topk_dense`] with **restricted sorted access**: only
/// entities for which `is_candidate` returns true are eligible (the
/// executor's objective-prefilter bitmap, mapped to entity ids).
///
/// Each list keeps its own cursor and skips non-candidates, so the
/// stopping threshold uses the *corrected bound*: the product of the
/// degrees of the last **candidate** accessed per list. Any unseen
/// candidate sits deeper than every cursor, so its combined degree is
/// bounded by that product — the plain at-depth threshold would be
/// needlessly loose (or, with lockstep depth, scan non-candidates
/// forever on selective filters).
///
/// Returns `(entity, combined degree)` in ranking order; only candidate
/// entities appear.
pub fn threshold_topk_dense_filtered<C, S, F>(
    columns: &[C],
    sorted: &[S],
    k: usize,
    is_candidate: F,
) -> Vec<(usize, f64)>
where
    C: AsRef<[f64]>,
    S: AsRef<[u32]>,
    F: Fn(usize) -> bool,
{
    assert_eq!(
        columns.len(),
        sorted.len(),
        "one sorted order per degree column"
    );
    if columns.is_empty() || k == 0 {
        return Vec::new();
    }
    let columns: Vec<&[f64]> = columns.iter().map(AsRef::as_ref).collect();
    let sorted: Vec<&[u32]> = sorted.iter().map(AsRef::as_ref).collect();
    ta_restricted(&columns, &sorted, is_candidate, k)
}

/// The one TA scan loop behind both dense entry points.
///
/// Every sorted order must contain **all** entity ids in
/// descending-degree order, so when one list runs out of candidates,
/// every candidate has been seen and the scan can stop. With an
/// always-true `is_candidate` every cursor advances exactly one position
/// per round, so the corrected bound below is the classic at-depth
/// threshold.
fn ta_restricted<F>(
    columns: &[&[f64]],
    sorted: &[&[u32]],
    is_candidate: F,
    k: usize,
) -> Vec<(usize, f64)>
where
    F: Fn(usize) -> bool,
{
    let mut seen = vec![false; columns[0].len()];
    // Min-heap of the current top-k: the root is the candidate that would
    // be evicted first (lowest score, then largest entity id).
    let mut best: BinaryHeap<Reverse<Candidate>> = BinaryHeap::with_capacity(k + 1);
    // Heap evictions are counted locally and flushed to the ambient
    // trace once per call, so the loop body stays atomic-free.
    let mut heap_pops = 0u64;
    let mut cursors = vec![0usize; sorted.len()];

    'scan: loop {
        // Cancellation checkpoint per sorted-access round: an expired
        // request deadline unwinds out of the scan here instead of
        // walking the remaining entities.
        opine_faults::checkpoint();
        // Corrected bound: the product of the degrees of the candidates
        // this round accessed, one per list.
        let mut threshold = 1.0f64;
        for ((order, column), cursor) in sorted.iter().zip(columns).zip(&mut cursors) {
            let entity = loop {
                let Some(&e) = order.get(*cursor) else {
                    // This list is out of candidates; since it covers
                    // every entity, all candidates have been seen.
                    break 'scan;
                };
                *cursor += 1;
                if is_candidate(e as usize) {
                    break e as usize;
                }
                // The non-candidate skip can walk a long sparse prefix;
                // keep the deadline honest while it does.
                opine_faults::checkpoint();
            };
            threshold *= column[entity];
            if seen[entity] {
                continue;
            }
            seen[entity] = true;
            let candidate = Candidate {
                score: columns.iter().map(|c| c[entity]).product(),
                entity,
            };
            if best.len() < k {
                best.push(Reverse(candidate));
            } else if candidate > best.peek().expect("non-empty heap").0 {
                best.pop();
                heap_pops += 1;
                best.push(Reverse(candidate));
            }
        }

        // Strict inequality: at equality an unseen candidate could still
        // tie the k-th score and win the entity-id tiebreak.
        if best.len() >= k && best.peek().expect("non-empty heap").0.score > threshold {
            break;
        }
    }
    if heap_pops != 0 {
        opine_trace::count("ta_topk", "heap_pops", heap_pops);
    }

    let mut out: Vec<(usize, f64)> = best
        .into_iter()
        .map(|Reverse(c)| (c.entity, c.score))
        .collect();
    out.sort_by(rank_cmp);
    out
}

/// Top-k entities by product-combined degree across sorted
/// `(entity, degree)` lists (the pre-densification API).
///
/// Every list must cover the same entity set and be sorted by degree
/// descending. Internally the lists are densified once — entity-indexed
/// columns plus sorted-order vectors — and ranked by
/// [`threshold_topk_dense`]; no per-depth hashing, re-sorting, or
/// `HashSet` tracking happens anymore.
pub fn threshold_topk(lists: &[Vec<(usize, f64)>], k: usize) -> Vec<(usize, f64)> {
    if lists.is_empty() || k == 0 {
        return Vec::new();
    }
    let (columns, sorted) = densify(lists);
    threshold_topk_dense(&columns, &sorted, k)
}

/// Converts sorted `(entity, degree)` lists into dense degree columns and
/// sorted-order vectors (entity ids must be dense, as produced by
/// [`crate::OpineDb`]).
pub fn densify(lists: &[Vec<(usize, f64)>]) -> (Vec<Vec<f64>>, Vec<Vec<u32>>) {
    let num_entities = lists
        .iter()
        .flat_map(|l| l.iter().map(|&(e, _)| e + 1))
        .max()
        .unwrap_or(0);
    let mut columns = Vec::with_capacity(lists.len());
    let mut sorted = Vec::with_capacity(lists.len());
    for list in lists {
        opine_faults::checkpoint();
        let mut column = vec![0.0f64; num_entities];
        let mut order = Vec::with_capacity(list.len());
        for &(entity, degree) in list {
            column[entity] = degree;
            order.push(entity as u32);
        }
        columns.push(column);
        sorted.push(order);
    }
    (columns, sorted)
}

/// Reference implementation over dense columns: combine every entity,
/// sort, truncate.
pub fn full_scan_topk_dense<C: AsRef<[f64]>>(columns: &[C], k: usize) -> Vec<(usize, f64)> {
    if columns.is_empty() {
        return Vec::new();
    }
    let columns: Vec<&[f64]> = columns.iter().map(AsRef::as_ref).collect();
    let num_entities = columns[0].len();
    let mut combined: Vec<(usize, f64)> = (0..num_entities)
        .map(|e| (e, columns.iter().map(|c| c[e]).product()))
        .collect();
    combined.sort_by(rank_cmp);
    combined.truncate(k);
    combined
}

/// Reference implementation: full scan over all entities (list API).
///
/// Only entities that appear in at least one input list are candidates
/// — an id gap in a sparse id space is not an entity, so (unlike the
/// dense-column API, where every column slot is an entity) no
/// zero-score results are fabricated for ids absent from every list.
/// This matches [`threshold_topk`], which can only surface entities via
/// sorted access.
pub fn full_scan_topk(lists: &[Vec<(usize, f64)>], k: usize) -> Vec<(usize, f64)> {
    if lists.is_empty() {
        return Vec::new();
    }
    let (columns, sorted) = densify(lists);
    let mut present = vec![false; columns[0].len()];
    for order in &sorted {
        for &entity in order {
            present[entity as usize] = true;
        }
    }
    let mut combined: Vec<(usize, f64)> = present
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p)
        .map(|(e, _)| (e, columns.iter().map(|c| c[e]).product()))
        .collect();
    combined.sort_by(rank_cmp);
    combined.truncate(k);
    combined
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sorted_list(degrees: &[(usize, f64)]) -> Vec<(usize, f64)> {
        let mut l = degrees.to_vec();
        l.sort_by(|a, b| b.1.total_cmp(&a.1));
        l
    }

    #[test]
    fn matches_full_scan_on_small_case() {
        let l1 = sorted_list(&[(0, 0.9), (1, 0.8), (2, 0.1)]);
        let l2 = sorted_list(&[(0, 0.2), (1, 0.9), (2, 0.9)]);
        let ta = threshold_topk(&[l1.clone(), l2.clone()], 2);
        let fs = full_scan_topk(&[l1, l2], 2);
        assert_eq!(ta, fs);
        assert_eq!(ta[0].0, 1); // 0.8 * 0.9 = 0.72 is the best product
    }

    #[test]
    fn matches_full_scan_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..20 {
            let n = 50;
            let lists: Vec<Vec<(usize, f64)>> = (0..3)
                .map(|_| sorted_list(&(0..n).map(|e| (e, rng.gen::<f64>())).collect::<Vec<_>>()))
                .collect();
            let ta = threshold_topk(&lists, 5);
            let fs = full_scan_topk(&lists, 5);
            assert_eq!(ta, fs, "TA must equal the reference exactly");
        }
    }

    #[test]
    fn matches_full_scan_with_heavy_ties() {
        // Quantized degrees force score ties; ranking must still agree
        // exactly because both sides tiebreak on entity id.
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..40 {
            let n = 30;
            let lists: Vec<Vec<(usize, f64)>> = (0..2)
                .map(|_| {
                    sorted_list(
                        &(0..n)
                            .map(|e| (e, f64::from(rng.gen_range(0..4u32)) / 4.0))
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            for k in [1, 3, 7, 30] {
                let ta = threshold_topk(&lists, k);
                let fs = full_scan_topk(&lists, k);
                assert_eq!(ta, fs, "k={k}");
            }
        }
    }

    #[test]
    fn dense_entry_point_equals_list_entry_point() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 200;
        let lists: Vec<Vec<(usize, f64)>> = (0..3)
            .map(|_| sorted_list(&(0..n).map(|e| (e, rng.gen::<f64>())).collect::<Vec<_>>()))
            .collect();
        let (columns, sorted) = densify(&lists);
        assert_eq!(
            threshold_topk(&lists, 10),
            threshold_topk_dense(&columns, &sorted, 10),
        );
        assert_eq!(
            full_scan_topk(&lists, 10),
            full_scan_topk_dense(&columns, 10),
        );
    }

    #[test]
    fn early_termination_happens() {
        // One dominant entity: TA should stop after ~1 depth.
        let l1 = sorted_list(
            &(0..1000)
                .map(|e| (e, if e == 0 { 1.0 } else { 0.001 }))
                .collect::<Vec<_>>(),
        );
        let l2 = l1.clone();
        let top = threshold_topk(&[l1, l2], 1);
        assert_eq!(top[0].0, 0);
        assert!((top[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn k_zero_and_empty_inputs() {
        assert!(threshold_topk(&[], 3).is_empty());
        let l = sorted_list(&[(0, 0.5)]);
        assert!(threshold_topk(&[l], 0).is_empty());
        assert!(threshold_topk_dense::<Vec<f64>, Vec<u32>>(&[], &[], 3).is_empty());
    }

    #[test]
    fn k_larger_than_entity_count() {
        let l = sorted_list(&[(0, 0.5), (1, 0.4)]);
        let top = threshold_topk(&[l], 10);
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn sparse_entity_ids_are_not_fabricated() {
        // Entity ids 0..5 absent from every list: neither entry point may
        // invent them as zero-score results.
        let lists = vec![sorted_list(&[(5, 0.9), (7, 0.2)])];
        let fs = full_scan_topk(&lists, 4);
        let ta = threshold_topk(&lists, 4);
        assert_eq!(fs, vec![(5, 0.9), (7, 0.2)]);
        assert_eq!(ta, fs);
    }

    /// Filtered full-scan reference: combine candidate entities only.
    fn full_scan_filtered<C: AsRef<[f64]>>(
        columns: &[C],
        k: usize,
        is_candidate: impl Fn(usize) -> bool,
    ) -> Vec<(usize, f64)> {
        let columns: Vec<&[f64]> = columns.iter().map(AsRef::as_ref).collect();
        let mut combined: Vec<(usize, f64)> = (0..columns[0].len())
            .filter(|&e| is_candidate(e))
            .map(|e| (e, columns.iter().map(|c| c[e]).product()))
            .collect();
        combined.sort_by(rank_cmp);
        combined.truncate(k);
        combined
    }

    #[test]
    fn filtered_ta_matches_filtered_full_scan() {
        let mut rng = StdRng::seed_from_u64(123);
        for round in 0..30 {
            let n = 80;
            let lists: Vec<Vec<(usize, f64)>> = (0..3)
                .map(|_| {
                    sorted_list(
                        &(0..n)
                            // Quantize every other round to force ties.
                            .map(|e| {
                                let d = if round % 2 == 0 {
                                    rng.gen::<f64>()
                                } else {
                                    f64::from(rng.gen_range(0..5u32)) / 5.0
                                };
                                (e, d)
                            })
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            let (columns, sorted) = densify(&lists);
            // Selective, mid, and non-selective candidate sets.
            let masks: Vec<Box<dyn Fn(usize) -> bool>> = vec![
                Box::new(|e| e % 13 == 0),
                Box::new(|e| e % 2 == 0),
                Box::new(|_| true),
                Box::new(|_| false),
            ];
            for mask in &masks {
                for k in [1, 4, 200] {
                    let ta = threshold_topk_dense_filtered(&columns, &sorted, k, mask);
                    let fs = full_scan_filtered(&columns, k, mask);
                    assert_eq!(ta, fs, "round {round} k={k}");
                }
            }
        }
    }

    #[test]
    fn filtered_ta_with_all_candidates_equals_unfiltered() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 120;
        let lists: Vec<Vec<(usize, f64)>> = (0..2)
            .map(|_| sorted_list(&(0..n).map(|e| (e, rng.gen::<f64>())).collect::<Vec<_>>()))
            .collect();
        let (columns, sorted) = densify(&lists);
        assert_eq!(
            threshold_topk_dense_filtered(&columns, &sorted, 9, |_| true),
            threshold_topk_dense(&columns, &sorted, 9),
        );
    }

    #[test]
    fn filtered_ta_early_terminates_on_selective_filters() {
        // One dominant candidate among many non-candidates: the cursor
        // skipping must still find it and stop (this is a liveness
        // check — an at-depth threshold would walk all 10k rows).
        let n = 10_000;
        let lists: Vec<Vec<(usize, f64)>> = (0..2)
            .map(|_| {
                sorted_list(
                    &(0..n)
                        .map(|e| (e, if e == 4242 { 0.95 } else { 0.5 }))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let (columns, sorted) = densify(&lists);
        let top = threshold_topk_dense_filtered(&columns, &sorted, 1, |e| e == 4242);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].0, 4242);
        assert!((top[0].1 - 0.95 * 0.95).abs() < 1e-12);
    }

    #[test]
    fn all_zero_degrees_rank_by_entity_id() {
        let lists = vec![sorted_list(&[(2, 0.0), (0, 0.0), (1, 0.0)])];
        let ta = threshold_topk(&lists, 2);
        let fs = full_scan_topk(&lists, 2);
        assert_eq!(ta, fs);
        assert_eq!(ta, vec![(0, 0.0), (1, 0.0)]);
    }
}
