//! The executor: evaluates a [`Select`] against a [`Catalog`].
//!
//! Every row receives a fuzzy score in `[0, 1]`: objective comparisons
//! contribute 0 or 1 (as in Sec. 3.1 of the paper, "an objective predicate
//! will simply be interpreted as 0 or 1"), subjective constructs ask a
//! [`SubjectiveScorer`] for a degree of truth, and the WHERE expression
//! combines them with the configured [`FuzzyAlgebra`]. The result is ranked
//! by score descending (unless an explicit ORDER BY overrides it).
//!
//! ## Planning
//!
//! For single-table queries the WHERE clause is split into an
//! **objective prefilter** and a **subjective residue**: the objective
//! conjuncts evaluate vectorized over the table's typed columns into a
//! candidate [`Bitmap`], and the residue is scored only over candidates.
//! When the residue is exactly a conjunction of natural-language
//! predicates, the bitmap is pushed down into the scorer's
//! threshold-algorithm top-k
//! ([`SubjectiveScorer::rank_subjective_conjunction`]) — the paper's
//! running example `price_pn < 150 and "clean rooms"` rides the TA fast
//! path end-to-end instead of forcing row-at-a-time scoring.

use crate::ast::{ColumnRef, Expr, Operand, ReviewQualifier, Select};
use crate::bitmap::Bitmap;
use crate::catalog::Catalog;
use crate::overlay::TableOverlay;
use crate::table::{RowView, Table};
use crate::value::{Value, ValueRef};
use crate::StoreError;
use std::cmp::Ordering;
use std::collections::HashMap;

/// The two t-norm variants the paper discusses (Sec. 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FuzzyAlgebra {
    /// The multiplication variant OpineDB uses: `x⊗y = xy`,
    /// `x⊕y = 1−(1−x)(1−y)`, `¬x = 1−x`.
    #[default]
    Product,
    /// The classic Gödel variant: `x⊗y = min`, `x⊕y = max`, `¬x = 1−x`.
    Godel,
}

impl FuzzyAlgebra {
    /// Fuzzy AND.
    #[inline]
    pub fn and(&self, x: f64, y: f64) -> f64 {
        match self {
            FuzzyAlgebra::Product => x * y,
            FuzzyAlgebra::Godel => x.min(y),
        }
    }

    /// Fuzzy OR.
    #[inline]
    pub fn or(&self, x: f64, y: f64) -> f64 {
        match self {
            FuzzyAlgebra::Product => 1.0 - (1.0 - x) * (1.0 - y),
            FuzzyAlgebra::Godel => x.max(y),
        }
    }

    /// Fuzzy NOT.
    #[inline]
    pub fn not(&self, x: f64) -> f64 {
        1.0 - x
    }
}

/// Supplies degrees of truth for subjective constructs.
///
/// The key passed in is the value of the scanned row's primary key for the
/// *base* table of the query — in OpineDB that is the entity identifier.
pub trait SubjectiveScorer {
    /// Degree of truth of a natural-language predicate for the entity.
    fn degree_predicate(&self, predicate: &str, key: &Value) -> Result<f64, StoreError>;

    /// Degree of truth of `attribute .= "phrase"` for the entity.
    fn degree_match(
        &self,
        attribute: &ColumnRef,
        phrase: &str,
        key: &Value,
    ) -> Result<f64, StoreError>;

    /// Batch warm-up hook called once per query with every
    /// natural-language predicate in the WHERE clause, before the
    /// executor's row loop. Scorers that can evaluate a predicate over
    /// all entities at once (OpineDB scores them in parallel entity
    /// chunks) implement this so the subsequent per-row
    /// [`Self::degree_predicate`] calls become cache reads. The default
    /// does nothing.
    fn prepare_predicates(&self, _predicates: &[&str]) {}

    /// Optional index-assisted ranking for a WHERE clause whose
    /// subjective part is exactly a conjunction of natural-language
    /// predicates: the top `k` `(key, combined degree)` pairs under the
    /// product t-norm, ranked by degree descending with a deterministic
    /// tiebreak.
    ///
    /// `candidates`, when present, is the objective prefilter: a bitmap
    /// over *base-table row positions* with a set bit for every row that
    /// passed the objective conjuncts. The scorer must then rank only
    /// candidate entities (restricted sorted access in TA terms).
    /// Returning `None` (the default) falls back to scoring candidate
    /// rows one at a time.
    fn rank_subjective_conjunction(
        &self,
        _predicates: &[&str],
        _k: usize,
        _candidates: Option<&Bitmap>,
    ) -> Option<Vec<(Value, f64)>> {
        None
    }

    /// A scorer view whose subjective degrees count only the reviews
    /// accepted by `qualifier` (the paper's "reviews after 2010" /
    /// "reviewers with ≥ 10 reviews" queries). The executor requests one
    /// per qualified statement and routes every subjective evaluation of
    /// that statement through it; objective predicates are unaffected.
    ///
    /// The default `None` means the scorer cannot scope its degrees, and
    /// qualified statements fail with [`StoreError::NoScorer`] rather
    /// than silently answering from unqualified summaries.
    fn qualified_scorer<'s>(
        &'s self,
        _qualifier: &ReviewQualifier,
    ) -> Option<Box<dyn SubjectiveScorer + 's>> {
        None
    }
}

/// A scorer that rejects all subjective constructs — for purely objective
/// queries.
pub struct ObjectiveOnly;

impl SubjectiveScorer for ObjectiveOnly {
    fn degree_predicate(&self, predicate: &str, _key: &Value) -> Result<f64, StoreError> {
        Err(StoreError::NoScorer(predicate.to_string()))
    }

    fn degree_match(
        &self,
        attribute: &ColumnRef,
        phrase: &str,
        _key: &Value,
    ) -> Result<f64, StoreError> {
        Err(StoreError::NoScorer(format!(
            "{}.= \"{phrase}\"",
            attribute.column
        )))
    }
}

/// The row-at-a-time reference plan of a scorer: `RowAtATime(&scorer)`
/// forwards only the per-row degree calls and the review-qualified view,
/// leaving [`SubjectiveScorer::prepare_predicates`] and
/// [`SubjectiveScorer::rank_subjective_conjunction`] at their defaults.
/// The executor then declines every fast path (no batch warm-up, no
/// threshold-algorithm top-k, no pushdown) and scores each candidate row
/// through [`SubjectiveScorer::degree_predicate`] — the oracle the
/// equivalence suites compare the fast paths against.
pub struct RowAtATime<S>(pub S);

impl<S: SubjectiveScorer + ?Sized> SubjectiveScorer for RowAtATime<&S> {
    fn degree_predicate(&self, predicate: &str, key: &Value) -> Result<f64, StoreError> {
        self.0.degree_predicate(predicate, key)
    }

    fn degree_match(
        &self,
        attribute: &ColumnRef,
        phrase: &str,
        key: &Value,
    ) -> Result<f64, StoreError> {
        self.0.degree_match(attribute, phrase, key)
    }

    fn qualified_scorer<'s>(
        &'s self,
        qualifier: &ReviewQualifier,
    ) -> Option<Box<dyn SubjectiveScorer + 's>> {
        self.0.qualified_scorer(qualifier)
    }
}

/// A ranked query result.
#[derive(Debug, Clone)]
pub struct ResultSet {
    /// Output column names (qualified where ambiguous).
    pub columns: Vec<String>,
    /// Rows with their fuzzy scores, ordered as returned.
    pub rows: Vec<(Vec<Value>, f64)>,
}

impl ResultSet {
    /// The key/score pairs in rank order for the given column index.
    pub fn column_values(&self, idx: usize) -> Vec<&Value> {
        self.rows.iter().map(|(r, _)| &r[idx]).collect()
    }
}

/// One result row of the borrowing path: a view straight into the base
/// table's columnar storage when possible, owned only when a join had
/// to materialize a combined row.
#[derive(Debug)]
enum RowHandle<'a> {
    Base(RowView<'a>),
    Owned(Vec<Value>),
}

impl RowHandle<'_> {
    /// Cell at output slot `i`, read without materializing the row.
    #[inline]
    fn value(&self, i: usize) -> ValueRef<'_> {
        match self {
            RowHandle::Base(view) => view.get(i),
            RowHandle::Owned(row) => ValueRef::from(&row[i]),
        }
    }

    /// Number of cells in the (possibly joined) row layout.
    fn width(&self) -> usize {
        match self {
            RowHandle::Base(view) => view.len(),
            RowHandle::Owned(row) => row.len(),
        }
    }
}

/// A ranked result that *borrows* matching rows from the catalog instead
/// of cloning each `Vec<Value>`, with the projection applied lazily at
/// read time.
///
/// This is the id-indexed serving path: a consumer that only needs to
/// look at (or serialize) the winning rows iterates [`Self::values`]
/// without a single per-row allocation. [`Self::into_result_set`]
/// materializes the classic owned [`ResultSet`] for callers that want to
/// keep the rows beyond the catalog borrow.
#[derive(Debug)]
pub struct ScoredRows<'a> {
    columns: Vec<String>,
    entries: Vec<(RowHandle<'a>, f64)>,
    /// Output slots into the full row layout; `None` means all slots.
    projection: Option<Vec<usize>>,
}

/// Iterator over one result row's projected values.
///
/// Yields [`ValueRef`]s — with columnar base storage there is no
/// `&Value` to hand out; scalars are copied, text is borrowed.
#[derive(Debug, Clone)]
pub struct ProjectedValues<'r> {
    row: &'r RowHandle<'r>,
    projection: Option<&'r [usize]>,
    pos: usize,
}

impl<'r> Iterator for ProjectedValues<'r> {
    type Item = ValueRef<'r>;

    fn next(&mut self) -> Option<ValueRef<'r>> {
        let slot = match self.projection {
            Some(idx) => *idx.get(self.pos)?,
            None => {
                if self.pos >= self.row.width() {
                    return None;
                }
                self.pos
            }
        };
        self.pos += 1;
        Some(self.row.value(slot))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let total = match self.projection {
            Some(idx) => idx.len(),
            None => self.row.width(),
        };
        let rem = total.saturating_sub(self.pos);
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for ProjectedValues<'_> {}

impl<'a> ScoredRows<'a> {
    /// Output column names (qualified where ambiguous).
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no row matched.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The fuzzy score of row `i`.
    pub fn score(&self, i: usize) -> f64 {
        self.entries[i].1
    }

    /// The projected values of row `i`, in output-column order, without
    /// cloning.
    pub fn values(&self, i: usize) -> ProjectedValues<'_> {
        ProjectedValues {
            row: &self.entries[i].0,
            projection: self.projection.as_deref(),
            pos: 0,
        }
    }

    /// `(values, score)` pairs in rank order.
    pub fn iter(&self) -> impl Iterator<Item = (ProjectedValues<'_>, f64)> {
        (0..self.len()).map(|i| (self.values(i), self.score(i)))
    }

    /// Materializes an owned [`ResultSet`], cloning only the winning
    /// (post-limit) rows.
    pub fn into_result_set(self) -> ResultSet {
        let ScoredRows {
            columns,
            entries,
            projection,
        } = self;
        let rows = entries
            .into_iter()
            .map(|(handle, score)| {
                let row = match (&projection, handle) {
                    (Some(idx), handle) => {
                        idx.iter().map(|&i| handle.value(i).to_value()).collect()
                    }
                    (None, RowHandle::Owned(row)) => row,
                    (None, RowHandle::Base(view)) => view.to_values(),
                };
                (row, score)
            })
            .collect();
        ResultSet { columns, rows }
    }
}

/// Column resolution over the (possibly joined) row layout.
struct Layout {
    /// `(table_or_alias, column_name)` per output slot.
    slots: Vec<(String, String)>,
    /// Index of the base table's key column in the combined row.
    base_key_slot: usize,
}

impl Layout {
    fn resolve(&self, r: &ColumnRef) -> Result<usize, StoreError> {
        let matches: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, (tbl, col))| col == &r.column && r.table.as_ref().is_none_or(|t| t == tbl))
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            0 => Err(StoreError::UnknownColumn(format!(
                "{}{}",
                r.table
                    .as_deref()
                    .map(|t| format!("{t}."))
                    .unwrap_or_default(),
                r.column
            ))),
            1 => Ok(matches[0]),
            _ => Err(StoreError::Execution(format!(
                "ambiguous column {}",
                r.column
            ))),
        }
    }
}

/// Executes `query` against `catalog` using `scorer` for subjective parts,
/// materializing an owned [`ResultSet`].
pub fn execute(
    query: &Select,
    catalog: &Catalog,
    scorer: &dyn SubjectiveScorer,
) -> Result<ResultSet, StoreError> {
    execute_lazy(query, catalog, scorer).map(ScoredRows::into_result_set)
}

/// [`execute`] over {base tables} ∪ {overlay rows} — the read path of
/// live ingest, where rows inserted after the build ride in a pinned
/// [`TableOverlay`] generation instead of mutating catalog tables.
pub fn execute_with_overlay(
    query: &Select,
    catalog: &Catalog,
    scorer: &dyn SubjectiveScorer,
    overlay: Option<&TableOverlay>,
) -> Result<ResultSet, StoreError> {
    execute_lazy_with_overlay(query, catalog, scorer, overlay).map(ScoredRows::into_result_set)
}

/// [`execute`] without the final materialization: the returned
/// [`ScoredRows`] borrows winning rows from the catalog, so serving
/// layers can serialize results with zero per-row clones.
pub fn execute_lazy<'a>(
    query: &Select,
    catalog: &'a Catalog,
    scorer: &dyn SubjectiveScorer,
) -> Result<ScoredRows<'a>, StoreError> {
    execute_lazy_with_overlay(query, catalog, scorer, None)
}

/// [`execute_lazy`] with an optional [`TableOverlay`]: overlay rows are
/// logically appended to their table's row set — they participate in
/// scans, joins, and scoring as owned rows, after any planner fast path
/// has ranked the (bitmap-indexed) base rows. Scores are identical to
/// what a from-scratch build containing the same rows would produce.
pub fn execute_lazy_with_overlay<'a>(
    query: &Select,
    catalog: &'a Catalog,
    scorer: &dyn SubjectiveScorer,
    overlay: Option<&TableOverlay>,
) -> Result<ScoredRows<'a>, StoreError> {
    // Review-qualified statements swap in the scorer's scoped view for
    // every subjective evaluation below. The scoped view declines
    // rank_subjective_conjunction, so qualified queries take the
    // row-at-a-time path over the (still vectorized) objective
    // prefilter — degree columns cache *unqualified* degrees only.
    let scoped = resolve_qualified(query, scorer)?;
    let scorer: &dyn SubjectiveScorer = scoped.as_deref().unwrap_or(scorer);
    let base = catalog.table(&query.from)?;
    let base_name = query.alias.clone().unwrap_or_else(|| query.from.clone());

    // Build the combined layout; joins extend it below.
    let mut layout = Layout {
        slots: base
            .schema()
            .columns
            .iter()
            .map(|c| (base_name.clone(), c.name.clone()))
            .collect(),
        base_key_slot: base.schema().key,
    };

    // Single-table planner: objective prefilter bitmap + subjective
    // residue, with TA pushdown for conjunction-shaped residues. Joins
    // change the row set, so they always take the generic path. Overlay
    // rows are not bitmap-indexed; they are scored one at a time with
    // the full WHERE expression and appended before the final
    // sort/limit, which keeps top-k answers exact.
    if query.joins.is_empty() {
        if let Some(mut scored) = plan_single_table(query, base, &layout, scorer)? {
            if let Some(overlay) = overlay {
                score_overlay_rows(query, &layout, overlay, scorer, &mut scored)?;
            }
            return finish(query, layout, scored);
        }
    }

    // Candidate rows: views into the base table's columns plus owned
    // overlay rows; joins below replace them with owned combined rows.
    let mut rows: Vec<RowHandle<'a>> = base.rows().map(RowHandle::Base).collect();
    for row in overlay.iter().flat_map(|o| o.rows_for(&query.from)) {
        rows.push(RowHandle::Owned(checked_overlay_row(
            &query.from,
            row,
            base.schema().columns.len(),
        )?));
    }

    for join in &query.joins {
        let right = catalog.table(&join.table)?;
        let right_name = join.alias.clone().unwrap_or_else(|| join.table.clone());
        // Which side refers to the already-built layout decides probe/build.
        let (probe_ref, build_ref) = if layout.resolve(&join.left).is_ok() {
            (&join.left, &join.right)
        } else {
            (&join.right, &join.left)
        };
        let probe_slot = layout.resolve(probe_ref)?;
        let build_col = right
            .schema()
            .column_index(&build_ref.column)
            .ok_or_else(|| StoreError::UnknownColumn(build_ref.column.clone()))?;

        // Hash join: build side = joined table (row positions for base
        // rows, owned tuples for the table's overlay rows).
        let mut hash: HashMap<String, Vec<BuildRow>> = HashMap::new();
        for view in right.rows() {
            hash.entry(view.get(build_col).to_string())
                .or_default()
                .push(BuildRow::Pos(view.index()));
        }
        for row in overlay.iter().flat_map(|o| o.rows_for(&join.table)) {
            let row = checked_overlay_row(&join.table, row, right.schema().columns.len())?;
            hash.entry(ValueRef::from(&row[build_col]).to_string())
                .or_default()
                .push(BuildRow::Extra(row));
        }
        let mut joined = Vec::new();
        for handle in &rows {
            if let Some(matches) = hash.get(&handle.value(probe_slot).to_string()) {
                for m in matches {
                    let mut combined: Vec<Value> = (0..handle.width())
                        .map(|s| handle.value(s).to_value())
                        .collect();
                    match m {
                        BuildRow::Pos(m) => combined.extend(right.row(*m).to_values()),
                        BuildRow::Extra(row) => combined.extend(row.iter().cloned()),
                    }
                    joined.push(RowHandle::Owned(combined));
                }
            }
        }
        rows = joined;
        layout.slots.extend(
            right
                .schema()
                .columns
                .iter()
                .map(|c| (right_name.clone(), c.name.clone())),
        );
    }

    // Batch warm-up — only for purely subjective WHERE clauses (e.g.
    // `"a" or "b"`, which the TA conjunction path can't take): every row
    // will need every predicate's degree, so scoring all entities at
    // once in parallel is always profitable. Mixed clauses keep lazy
    // per-row scoring so a selective objective filter short-circuits the
    // subjective work exactly as before.
    if let Some(expr) = &query.where_clause {
        if expr.is_purely_subjective() {
            let predicates = expr.subjective_predicates();
            if !predicates.is_empty() {
                scorer.prepare_predicates(&predicates);
            }
        }
    }

    // Score every row.
    let mut scored: Vec<(RowHandle<'a>, f64)> = Vec::with_capacity(rows.len());
    let algebra = FuzzyAlgebra::Product;
    {
        let span = opine_trace::span("rescore");
        let examined = rows.len() as u64;
        for handle in rows {
            // Cancellation checkpoint per scored row: an expired request
            // deadline unwinds out of the scan at the next chunk boundary.
            opine_faults::checkpoint();
            let score = match &query.where_clause {
                None => 1.0,
                Some(expr) => {
                    let key = handle.value(layout.base_key_slot).to_value();
                    eval(expr, &handle, &layout, &key, scorer, algebra)?
                }
            };
            if score > 0.0 {
                scored.push((handle, score));
            }
        }
        span.count("scored", examined);
    }

    finish(query, layout, scored)
}

/// Resolves a statement's review qualifier to the scorer's scoped view,
/// erroring when the statement is qualified but the scorer cannot scope
/// its degrees (answering from unqualified summaries would be wrong).
fn resolve_qualified<'s>(
    query: &Select,
    scorer: &'s dyn SubjectiveScorer,
) -> Result<Option<Box<dyn SubjectiveScorer + 's>>, StoreError> {
    match &query.review_qualifier {
        None => Ok(None),
        // A trivial qualifier accepts every review: the base scorer
        // already answers it, with all of its fast paths (TA ranking,
        // degree columns) intact.
        Some(qualifier) if qualifier.is_trivial() => Ok(None),
        Some(qualifier) => scorer
            .qualified_scorer(qualifier)
            .map(Some)
            .ok_or_else(|| StoreError::NoScorer(format!("review qualifier `with {qualifier}`"))),
    }
}

/// The single-table planner. Returns `Ok(None)` for shapes it does not
/// handle (no WHERE, a purely subjective clause that is not a TA-shaped
/// conjunction, …), which fall through to the generic scan.
fn plan_single_table<'a>(
    query: &Select,
    base: &'a Table,
    layout: &Layout,
    scorer: &dyn SubjectiveScorer,
) -> Result<Option<Vec<(RowHandle<'a>, f64)>>, StoreError> {
    let Some(where_clause) = &query.where_clause else {
        return Ok(None);
    };
    let plan_span = opine_trace::span("plan");
    let conjuncts = where_clause.conjuncts();
    let (objective, subjective): (Vec<&Expr>, Vec<&Expr>) =
        conjuncts.into_iter().partition(|e| !e.has_subjective());
    drop(plan_span);

    if objective.is_empty() {
        // Pure subjective conjunction (the paper's core ranking query):
        // the scorer's threshold-algorithm top-k over its degree columns
        // skips the full scoring scan. ORDER BY asks for a different
        // order, so it disables the path; scorers without an index
        // return `None` and fall through.
        if query.order_by.is_none() {
            if let Some(predicates) = where_clause.as_subjective_conjunction() {
                let k = query.limit.unwrap_or(usize::MAX).min(base.len());
                if let Some(ranked) = scorer.rank_subjective_conjunction(&predicates, k, None) {
                    opine_trace::note(|| "plan: pure subjective conjunction → TA top-k".into());
                    return Ok(Some(materialize_ranked(base, ranked)?));
                }
                opine_trace::note(|| "plan: scorer declined TA ranking → full scan".into());
            }
        }
        return Ok(None);
    }

    // Objective prefilter: vectorized comparisons over typed columns,
    // AND-combined into one candidate bitmap.
    let prefilter_span = opine_trace::span("prefilter_bitmap");
    let candidates = objective_bitmap(base, layout, &objective, scorer)?;
    if prefilter_span.active() {
        prefilter_span.count("candidates", candidates.count_ones() as u64);
    }
    drop(prefilter_span);

    if subjective.is_empty() {
        // Purely objective WHERE: the bitmap *is* the answer (score 1).
        return Ok(Some(
            candidates
                .iter_ones()
                .map(|i| (RowHandle::Base(base.row(i)), 1.0))
                .collect(),
        ));
    }

    // Mixed clause with a conjunction-shaped subjective residue: push
    // the candidate bitmap down into the scorer's TA top-k. Objective
    // conjuncts contribute an exact factor of 1 on candidates under
    // both t-norms, so the combined degree is the residue's product.
    if query.order_by.is_none() && subjective.iter().all(|e| matches!(e, Expr::Subjective(_))) {
        let predicates: Vec<&str> = subjective
            .iter()
            .map(|e| match e {
                Expr::Subjective(s) => s.as_str(),
                _ => unreachable!("checked above"),
            })
            .collect();
        let k = query
            .limit
            .unwrap_or(usize::MAX)
            .min(candidates.count_ones());
        if let Some(ranked) = scorer.rank_subjective_conjunction(&predicates, k, Some(&candidates))
        {
            opine_trace::note(|| "plan: mixed clause → objective prefilter + TA pushdown".into());
            return Ok(Some(materialize_ranked(base, ranked)?));
        }
    }

    // Residue that TA can't rank (marker matches, OR/NOT, an explicit
    // ORDER BY, or a scorer without an index): score candidates one at
    // a time with the *full* WHERE expression, so scores match the
    // naive path bit-for-bit. Non-candidates would have scored 0.
    opine_trace::note(|| "plan: residue not TA-rankable → row-at-a-time over candidates".into());
    let span = opine_trace::span("rescore");
    let algebra = FuzzyAlgebra::Product;
    let mut scored = Vec::new();
    let mut examined = 0u64;
    for i in candidates.iter_ones() {
        opine_faults::checkpoint();
        examined += 1;
        let handle = RowHandle::Base(base.row(i));
        let key = handle.value(layout.base_key_slot).to_value();
        let score = eval(where_clause, &handle, layout, &key, scorer, algebra)?;
        if score > 0.0 {
            scored.push((handle, score));
        }
    }
    span.count("scored", examined);
    Ok(Some(scored))
}

/// Evaluates the objective conjuncts into one candidate bitmap.
/// Column-vs-literal comparisons vectorize over the typed column
/// storage; other objective shapes (column-vs-column, OR/NOT trees)
/// evaluate row-at-a-time over the still-live candidates. `scorer` is
/// never consulted — every conjunct here is subjective-free.
fn objective_bitmap(
    base: &Table,
    layout: &Layout,
    conjuncts: &[&Expr],
    scorer: &dyn SubjectiveScorer,
) -> Result<Bitmap, StoreError> {
    let mut candidates = Bitmap::all_set(base.len());
    for expr in conjuncts {
        if let Expr::Compare { lhs, op, rhs } = expr {
            let vectorized = match (lhs, rhs) {
                (Operand::Column(c), Operand::Literal(v)) => Some((layout.resolve(c)?, *op, v)),
                (Operand::Literal(v), Operand::Column(c)) => {
                    Some((layout.resolve(c)?, op.flip(), v))
                }
                _ => None,
            };
            if let Some((slot, op, lit)) = vectorized {
                // The conjunct's canonical rendering is injective, so it
                // keys the table's selection-vector cache: a repeated
                // objective filter costs a hash probe, not an O(rows)
                // column scan. Rows appended since the cached bitmap
                // was stamped are evaluated one at a time with the same
                // NULL/incomparable-is-false semantics as the kernel.
                let bitmap = base.cached_filter(
                    &expr.to_string(),
                    || base.column(slot).compare_bitmap(op, lit),
                    |i| op.evaluate(base.value(i, slot).compare(&ValueRef::from(lit))),
                );
                candidates.and_assign(&bitmap);
                continue;
            }
        }
        for i in 0..base.len() {
            opine_faults::checkpoint();
            if !candidates.get(i) {
                continue;
            }
            let handle = RowHandle::Base(base.row(i));
            if eval(
                expr,
                &handle,
                layout,
                &Value::Null,
                scorer,
                FuzzyAlgebra::Product,
            )? == 0.0
            {
                candidates.clear(i);
            }
        }
    }
    Ok(candidates)
}

/// One build-side row of a hash join: a base-table position, or an
/// owned overlay tuple.
enum BuildRow {
    Pos(usize),
    Extra(Vec<Value>),
}

/// Validates an overlay row's width against the table schema and
/// returns an owned copy. A mismatched tuple means the engine-side
/// delta was built against a different schema — surface it rather than
/// panicking on a slot read.
fn checked_overlay_row(table: &str, row: &[Value], width: usize) -> Result<Vec<Value>, StoreError> {
    if row.len() != width {
        return Err(StoreError::SchemaMismatch(format!(
            "{table}: overlay row has {} values, schema has {width} columns",
            row.len()
        )));
    }
    Ok(row.to_vec())
}

/// Scores the base table's overlay rows with the full WHERE expression
/// and appends the survivors. Used on the single-table planner path,
/// whose bitmap/TA machinery only ranks base (positional) rows; full
/// evaluation here matches the planner's scores bit-for-bit because
/// both reduce to [`eval`] semantics.
fn score_overlay_rows(
    query: &Select,
    layout: &Layout,
    overlay: &TableOverlay,
    scorer: &dyn SubjectiveScorer,
    scored: &mut Vec<(RowHandle<'_>, f64)>,
) -> Result<(), StoreError> {
    let algebra = FuzzyAlgebra::Product;
    for row in overlay.rows_for(&query.from) {
        opine_faults::checkpoint();
        let handle = RowHandle::Owned(checked_overlay_row(&query.from, row, layout.slots.len())?);
        let score = match &query.where_clause {
            None => 1.0,
            Some(expr) => {
                let key = handle.value(layout.base_key_slot).to_value();
                eval(expr, &handle, layout, &key, scorer, algebra)?
            }
        };
        if score > 0.0 {
            scored.push((handle, score));
        }
    }
    Ok(())
}

/// Resolves the scorer's ranked `(key, degree)` pairs back to base-table
/// rows through the key index — no per-query scan, no row clone.
fn materialize_ranked<'a>(
    base: &'a Table,
    ranked: Vec<(Value, f64)>,
) -> Result<Vec<(RowHandle<'a>, f64)>, StoreError> {
    let mut scored = Vec::with_capacity(ranked.len());
    for (key, score) in ranked {
        if score <= 0.0 {
            continue;
        }
        let row = base
            .get_by_key(&key)
            .ok_or_else(|| StoreError::Execution(format!("ranked key {key} not in base table")))?;
        scored.push((RowHandle::Base(row), score));
    }
    Ok(scored)
}

/// Shared result assembly: ordering, limit, projection-slot resolution.
/// Rows are neither cloned nor projected here — [`ScoredRows`] applies
/// the projection lazily at read time.
fn finish<'a>(
    query: &Select,
    layout: Layout,
    mut scored: Vec<(RowHandle<'a>, f64)>,
) -> Result<ScoredRows<'a>, StoreError> {
    let span = opine_trace::span("materialize");
    // Order: explicit ORDER BY, else score descending (stable, so equal
    // scores keep base-row / rank order).
    match &query.order_by {
        Some(ob) => {
            let slot = layout.resolve(&ob.column)?;
            scored.sort_by(|a, b| {
                let ord =
                    a.0.value(slot)
                        .compare(&b.0.value(slot))
                        .unwrap_or(Ordering::Equal);
                if ob.ascending {
                    ord
                } else {
                    ord.reverse()
                }
            });
        }
        None => scored.sort_by(|a, b| b.1.total_cmp(&a.1)),
    }
    if let Some(limit) = query.limit {
        scored.truncate(limit);
    }
    span.count("rows", scored.len() as u64);

    let (columns, projection) = if query.columns.is_empty() {
        (
            layout
                .slots
                .iter()
                .map(|(t, c)| format!("{t}.{c}"))
                .collect(),
            None,
        )
    } else {
        let indices: Vec<usize> = query
            .columns
            .iter()
            .map(|c| layout.resolve(c))
            .collect::<Result<_, _>>()?;
        let names = query
            .columns
            .iter()
            .map(|c| c.column.clone())
            .collect::<Vec<_>>();
        (names, Some(indices))
    };

    Ok(ScoredRows {
        columns,
        entries: scored,
        projection,
    })
}

/// Executes `query` with the given fuzzy algebra (ablation hook).
pub fn execute_with_algebra(
    query: &Select,
    catalog: &Catalog,
    scorer: &dyn SubjectiveScorer,
    algebra: FuzzyAlgebra,
) -> Result<ResultSet, StoreError> {
    // Reuse the main path when the default algebra is requested.
    if algebra == FuzzyAlgebra::Product {
        return execute(query, catalog, scorer);
    }
    let scoped = resolve_qualified(query, scorer)?;
    let scorer: &dyn SubjectiveScorer = scoped.as_deref().unwrap_or(scorer);
    let base = catalog.table(&query.from)?;
    let base_name = query.alias.clone().unwrap_or_else(|| query.from.clone());
    if !query.joins.is_empty() {
        return Err(StoreError::Execution(
            "execute_with_algebra does not support joins".into(),
        ));
    }
    let layout = Layout {
        slots: base
            .schema()
            .columns
            .iter()
            .map(|c| (base_name.clone(), c.name.clone()))
            .collect(),
        base_key_slot: base.schema().key,
    };
    let mut scored: Vec<(Vec<Value>, f64)> = Vec::new();
    for view in base.rows() {
        let handle = RowHandle::Base(view);
        let score = match &query.where_clause {
            None => 1.0,
            Some(expr) => {
                let key = handle.value(layout.base_key_slot).to_value();
                eval(expr, &handle, &layout, &key, scorer, algebra)?
            }
        };
        if score > 0.0 {
            scored.push((view.to_values(), score));
        }
    }
    scored.sort_by(|a, b| b.1.total_cmp(&a.1));
    if let Some(limit) = query.limit {
        scored.truncate(limit);
    }
    Ok(ResultSet {
        columns: layout
            .slots
            .iter()
            .map(|(t, c)| format!("{t}.{c}"))
            .collect(),
        rows: scored,
    })
}

fn eval(
    expr: &Expr,
    row: &RowHandle<'_>,
    layout: &Layout,
    key: &Value,
    scorer: &dyn SubjectiveScorer,
    algebra: FuzzyAlgebra,
) -> Result<f64, StoreError> {
    match expr {
        Expr::Compare { lhs, op, rhs } => {
            let l = operand_ref(lhs, row, layout)?;
            let r = operand_ref(rhs, row, layout)?;
            Ok(if op.evaluate(l.compare(&r)) { 1.0 } else { 0.0 })
        }
        Expr::Subjective(p) => scorer.degree_predicate(p, key),
        Expr::MarkerMatch { attribute, phrase } => scorer.degree_match(attribute, phrase, key),
        Expr::And(a, b) => {
            let x = eval(a, row, layout, key, scorer, algebra)?;
            // 0 annihilates under both t-norms; skip the (possibly
            // expensive subjective) right side for filtered-out rows.
            if x == 0.0 {
                return Ok(0.0);
            }
            let y = eval(b, row, layout, key, scorer, algebra)?;
            Ok(algebra.and(x, y))
        }
        Expr::Or(a, b) => {
            let x = eval(a, row, layout, key, scorer, algebra)?;
            let y = eval(b, row, layout, key, scorer, algebra)?;
            Ok(algebra.or(x, y))
        }
        Expr::Not(e) => {
            let x = eval(e, row, layout, key, scorer, algebra)?;
            Ok(algebra.not(x))
        }
    }
}

fn operand_ref<'r>(
    op: &'r Operand,
    row: &'r RowHandle<'_>,
    layout: &Layout,
) -> Result<ValueRef<'r>, StoreError> {
    match op {
        Operand::Literal(v) => Ok(ValueRef::from(v)),
        Operand::Column(c) => Ok(row.value(layout.resolve(c)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use crate::schema::{Column, ColumnType, Schema};
    use std::cell::Cell;

    fn hotel_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(Schema::new(
            "hotels",
            vec![
                Column::new("hotelname", ColumnType::Text),
                Column::new("city", ColumnType::Text),
                Column::new("price_pn", ColumnType::Float),
                Column::new("street", ColumnType::Text),
            ],
            0,
        ))
        .unwrap();
        for (name, city, price, street) in [
            ("Grand", "London", 120.0, "baker"),
            ("Plaza", "London", 300.0, "oxford"),
            ("Canal", "Amsterdam", 90.0, "herengracht"),
        ] {
            c.insert(
                "hotels",
                vec![
                    Value::text(name),
                    Value::text(city),
                    Value::Float(price),
                    Value::text(street),
                ],
            )
            .unwrap();
        }
        c
    }

    /// Scorer with canned degrees for tests.
    struct Canned;
    impl SubjectiveScorer for Canned {
        fn degree_predicate(&self, predicate: &str, key: &Value) -> Result<f64, StoreError> {
            // "clean rooms": Grand 0.9, Plaza 0.5, Canal 0.2
            let v = match (predicate, key.as_str().unwrap_or("")) {
                ("clean rooms", "Grand") => 0.9,
                ("clean rooms", "Plaza") => 0.5,
                ("clean rooms", "Canal") => 0.2,
                _ => 0.1,
            };
            Ok(v)
        }
        fn degree_match(
            &self,
            _attribute: &ColumnRef,
            phrase: &str,
            key: &Value,
        ) -> Result<f64, StoreError> {
            Ok(match (phrase, key.as_str().unwrap_or("")) {
                ("firm", "Plaza") => 0.8,
                _ => 0.3,
            })
        }
    }

    /// A scorer with an index: ranks the canned degrees through the
    /// same contract OpineDb implements, recording the candidate
    /// bitmaps it receives.
    struct Indexed {
        pushdowns: Cell<usize>,
        last_candidates: Cell<Option<usize>>,
    }

    impl Indexed {
        fn new() -> Self {
            Indexed {
                pushdowns: Cell::new(0),
                last_candidates: Cell::new(None),
            }
        }
    }

    impl SubjectiveScorer for Indexed {
        fn degree_predicate(&self, predicate: &str, key: &Value) -> Result<f64, StoreError> {
            Canned.degree_predicate(predicate, key)
        }
        fn degree_match(
            &self,
            attribute: &ColumnRef,
            phrase: &str,
            key: &Value,
        ) -> Result<f64, StoreError> {
            Canned.degree_match(attribute, phrase, key)
        }
        fn rank_subjective_conjunction(
            &self,
            predicates: &[&str],
            k: usize,
            candidates: Option<&Bitmap>,
        ) -> Option<Vec<(Value, f64)>> {
            if candidates.is_some() {
                self.pushdowns.set(self.pushdowns.get() + 1);
            }
            self.last_candidates.set(candidates.map(Bitmap::count_ones));
            // Rank rows 0..3 (Grand, Plaza, Canal) by canned product.
            let names = ["Grand", "Plaza", "Canal"];
            let mut ranked: Vec<(Value, f64)> = names
                .iter()
                .enumerate()
                .filter(|(i, _)| candidates.is_none_or(|c| c.get(*i)))
                .map(|(_, n)| {
                    let key = Value::text(n);
                    let score: f64 = predicates
                        .iter()
                        .map(|p| self.degree_predicate(p, &key).unwrap())
                        .product();
                    (key, score)
                })
                .collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
            ranked.truncate(k);
            Some(ranked)
        }
    }

    /// A scorer whose qualified view halves every degree — enough to
    /// observe that the executor routes qualified statements through the
    /// scoped scorer and unqualified ones through the base scorer.
    struct Scoping;

    struct Halved;
    impl SubjectiveScorer for Halved {
        fn degree_predicate(&self, predicate: &str, key: &Value) -> Result<f64, StoreError> {
            Canned.degree_predicate(predicate, key).map(|d| d / 2.0)
        }
        fn degree_match(
            &self,
            attribute: &ColumnRef,
            phrase: &str,
            key: &Value,
        ) -> Result<f64, StoreError> {
            Canned.degree_match(attribute, phrase, key).map(|d| d / 2.0)
        }
    }

    impl SubjectiveScorer for Scoping {
        fn degree_predicate(&self, predicate: &str, key: &Value) -> Result<f64, StoreError> {
            Canned.degree_predicate(predicate, key)
        }
        fn degree_match(
            &self,
            attribute: &ColumnRef,
            phrase: &str,
            key: &Value,
        ) -> Result<f64, StoreError> {
            Canned.degree_match(attribute, phrase, key)
        }
        fn qualified_scorer<'s>(
            &'s self,
            _qualifier: &ReviewQualifier,
        ) -> Option<Box<dyn SubjectiveScorer + 's>> {
            Some(Box::new(Halved))
        }
    }

    #[test]
    fn review_qualifier_routes_through_the_scoped_scorer() {
        let cat = hotel_catalog();
        let plain = parse_select("select * from hotels where \"clean rooms\"").unwrap();
        let qualified =
            parse_select("select * from hotels where \"clean rooms\" with reviews(year >= 2015)")
                .unwrap();
        let base = execute(&plain, &cat, &Scoping).unwrap();
        let scoped = execute(&qualified, &cat, &Scoping).unwrap();
        assert_eq!(base.rows.len(), scoped.rows.len());
        for (b, s) in base.rows.iter().zip(&scoped.rows) {
            assert_eq!(b.0[0], s.0[0], "same ranking order");
            assert!((b.1 / 2.0 - s.1).abs() < 1e-12, "scoped degrees are halved");
        }
    }

    #[test]
    fn trivial_qualifier_bypasses_the_scoped_scorer() {
        let cat = hotel_catalog();
        let plain = parse_select("select * from hotels where \"clean rooms\"").unwrap();
        let trivial =
            parse_select("select * from hotels where \"clean rooms\" with reviews()").unwrap();
        let base = execute(&plain, &cat, &Scoping).unwrap();
        let bypassed = execute(&trivial, &cat, &Scoping).unwrap();
        // `with reviews()` accepts every review — the base scorer
        // answers it directly (degrees NOT halved), keeping its fast
        // paths. A scorer without qualifier support also serves it.
        assert_eq!(base.rows, bypassed.rows);
        assert!(execute(&trivial, &cat, &Canned).is_ok());
    }

    #[test]
    fn review_qualifier_without_scorer_support_is_an_error() {
        let cat = hotel_catalog();
        let q =
            parse_select("select * from hotels where \"clean rooms\" with reviews(year >= 2015)")
                .unwrap();
        // Canned has no qualified view; silently answering from
        // unqualified degrees would be wrong, so this must error.
        assert!(matches!(
            execute(&q, &cat, &Canned),
            Err(StoreError::NoScorer(_))
        ));
        // Same through the Gödel-algebra entry point.
        assert!(matches!(
            execute_with_algebra(&q, &cat, &Canned, FuzzyAlgebra::Godel),
            Err(StoreError::NoScorer(_))
        ));
    }

    #[test]
    fn qualified_mixed_query_keeps_the_objective_prefilter() {
        let cat = hotel_catalog();
        let q = parse_select(
            "select * from hotels where price_pn < 150 and \"clean rooms\" \
             with reviews(year >= 2015)",
        )
        .unwrap();
        let r = execute(&q, &cat, &Scoping).unwrap();
        // Plaza (300/night) filtered objectively; degrees are the scoped
        // (halved) ones.
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].0[0], Value::text("Grand"));
        assert!((r.rows[0].1 - 0.45).abs() < 1e-12);
    }

    /// Regression: an Int-keyed base table must resolve scorer keys
    /// through the shared `Value::with_key_str` rendering — the same
    /// path the table key index uses — end to end.
    #[test]
    fn int_keyed_base_table_scores_subjectively() {
        struct ById;
        impl SubjectiveScorer for ById {
            fn degree_predicate(&self, _predicate: &str, key: &Value) -> Result<f64, StoreError> {
                // Resolve the key the way an engine-side entity map
                // would: by its shared key rendering.
                key.with_key_str(|s| match s {
                    "41" => Ok(0.9),
                    "-7" => Ok(0.4),
                    other => Err(StoreError::Execution(format!("unknown key {other}"))),
                })
            }
            fn degree_match(
                &self,
                attribute: &ColumnRef,
                _phrase: &str,
                _key: &Value,
            ) -> Result<f64, StoreError> {
                Err(StoreError::NoScorer(attribute.column.clone()))
            }
        }
        let mut cat = Catalog::new();
        cat.create_table(crate::schema::Schema::new(
            "events",
            vec![
                crate::schema::Column::new("id", crate::schema::ColumnType::Int),
                crate::schema::Column::new("label", crate::schema::ColumnType::Text),
            ],
            0,
        ))
        .unwrap();
        cat.insert("events", vec![Value::Int(41), Value::text("a")])
            .unwrap();
        cat.insert("events", vec![Value::Int(-7), Value::text("b")])
            .unwrap();
        let q = parse_select("select * from events where \"great\"").unwrap();
        let r = execute(&q, &cat, &ById).unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].0[0], Value::Int(41));
        assert!((r.rows[0].1 - 0.9).abs() < 1e-12);
        assert_eq!(r.rows[1].0[0], Value::Int(-7));
    }

    #[test]
    fn objective_filter_works() {
        let cat = hotel_catalog();
        let q = parse_select("select * from hotels where price_pn < 150").unwrap();
        let r = execute(&q, &cat, &ObjectiveOnly).unwrap();
        assert_eq!(r.rows.len(), 2);
        for (row, score) in &r.rows {
            assert!(row[2].as_f64().unwrap() < 150.0);
            assert_eq!(*score, 1.0);
        }
    }

    #[test]
    fn subjective_predicate_ranks_rows() {
        let cat = hotel_catalog();
        let q = parse_select("select * from hotels where \"clean rooms\"").unwrap();
        let r = execute(&q, &cat, &Canned).unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0].0[0], Value::text("Grand"));
        assert!((r.rows[0].1 - 0.9).abs() < 1e-9);
        assert!(r.rows[0].1 > r.rows[1].1 && r.rows[1].1 > r.rows[2].1);
    }

    #[test]
    fn mixed_query_multiplies_degrees() {
        let cat = hotel_catalog();
        let q =
            parse_select("select * from hotels where price_pn < 150 and \"clean rooms\"").unwrap();
        let r = execute(&q, &cat, &Canned).unwrap();
        // Plaza (300/night) excluded by the objective 0; Grand 0.9, Canal 0.2.
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].0[0], Value::text("Grand"));
        assert!((r.rows[0].1 - 0.9).abs() < 1e-9);
    }

    #[test]
    fn mixed_query_pushes_candidates_into_the_ta_path() {
        let cat = hotel_catalog();
        let scorer = Indexed::new();
        let q =
            parse_select("select * from hotels where price_pn < 150 and \"clean rooms\" limit 10")
                .unwrap();
        let r = execute(&q, &cat, &scorer).unwrap();
        assert_eq!(scorer.pushdowns.get(), 1, "pushdown path must fire");
        assert_eq!(
            scorer.last_candidates.get(),
            Some(2),
            "objective bitmap admits Grand + Canal"
        );
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].0[0], Value::text("Grand"));
        assert!((r.rows[0].1 - 0.9).abs() < 1e-9);
        assert_eq!(r.rows[1].0[0], Value::text("Canal"));
        // Results equal the naive path exactly.
        let naive = execute(&q, &cat, &Canned).unwrap();
        assert_eq!(r.rows, naive.rows);
    }

    #[test]
    fn pushdown_handles_scattered_objective_conjuncts() {
        let cat = hotel_catalog();
        let scorer = Indexed::new();
        // objective · subjective · objective — flattening must collect
        // both comparisons into the prefilter.
        let q = parse_select(
            "select * from hotels where price_pn < 400 and \"clean rooms\" and city = 'London'",
        )
        .unwrap();
        let r = execute(&q, &cat, &scorer).unwrap();
        assert_eq!(scorer.pushdowns.get(), 1);
        assert_eq!(scorer.last_candidates.get(), Some(2), "Grand + Plaza");
        let naive = execute(&q, &cat, &Canned).unwrap();
        assert_eq!(r.rows, naive.rows);
    }

    #[test]
    fn row_at_a_time_adapter_declines_every_fast_path() {
        let cat = hotel_catalog();
        let scorer = Indexed::new();
        for sql in [
            "select * from hotels where \"clean rooms\" limit 2",
            "select * from hotels where price_pn < 150 and \"clean rooms\" limit 10",
        ] {
            let q = parse_select(sql).unwrap();
            let fast = execute(&q, &cat, &scorer).unwrap();
            let pushdowns = scorer.pushdowns.get();
            scorer.last_candidates.set(Some(usize::MAX));
            let reference = execute(&q, &cat, &RowAtATime(&scorer)).unwrap();
            assert_eq!(scorer.pushdowns.get(), pushdowns, "{sql}");
            assert_eq!(
                scorer.last_candidates.get(),
                Some(usize::MAX),
                "the reference must never reach the ranking hook: {sql}"
            );
            assert_eq!(fast.rows, reference.rows, "{sql}");
        }
        // The review-qualified view is forwarded, not declined.
        let qualified =
            parse_select("select * from hotels where \"clean rooms\" with reviews(year >= 2015)")
                .unwrap();
        assert_eq!(
            execute(&qualified, &cat, &RowAtATime(&Scoping))
                .unwrap()
                .rows,
            execute(&qualified, &cat, &Scoping).unwrap().rows
        );
    }

    #[test]
    fn order_by_disables_the_pushdown_but_keeps_the_prefilter() {
        let cat = hotel_catalog();
        let scorer = Indexed::new();
        let q = parse_select(
            "select * from hotels where price_pn < 150 and \"clean rooms\" order by price_pn asc",
        )
        .unwrap();
        let r = execute(&q, &cat, &scorer).unwrap();
        assert_eq!(scorer.pushdowns.get(), 0, "ORDER BY must skip TA");
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].0[0], Value::text("Canal"), "ordered by price");
    }

    #[test]
    fn literal_first_comparison_vectorizes_flipped() {
        use crate::ast::CmpOp;
        let cat = hotel_catalog();
        // The parser only spells column-first comparisons, but the AST
        // admits literal-first; the planner flips the operator.
        let mut q = parse_select("select * from hotels").unwrap();
        q.where_clause = Some(Expr::Compare {
            lhs: Operand::Literal(Value::Int(150)),
            op: CmpOp::Gt,
            rhs: Operand::Column(ColumnRef {
                table: None,
                column: "price_pn".into(),
            }),
        });
        let r = execute(&q, &cat, &ObjectiveOnly).unwrap();
        assert_eq!(r.rows.len(), 2);
        for (row, _) in &r.rows {
            assert!(row[2].as_f64().unwrap() < 150.0);
        }
    }

    #[test]
    fn marker_match_uses_scorer() {
        let cat = hotel_catalog();
        let q = parse_select("select * from hotels h where h.comfort .= \"firm\"").unwrap();
        let r = execute(&q, &cat, &Canned).unwrap();
        assert_eq!(r.rows[0].0[0], Value::text("Plaza"));
    }

    #[test]
    fn mixed_marker_residue_scores_candidates_only() {
        let cat = hotel_catalog();
        // Marker residue can't ride TA, but the objective prefilter
        // still applies: only Plaza (price ≥ 150) is scored.
        let q = parse_select(
            "select * from hotels h where h.price_pn >= 150 and h.comfort .= \"firm\"",
        )
        .unwrap();
        let r = execute(&q, &cat, &Canned).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].0[0], Value::text("Plaza"));
        assert!((r.rows[0].1 - 0.8).abs() < 1e-9);
    }

    #[test]
    fn missing_scorer_is_an_error() {
        let cat = hotel_catalog();
        let q = parse_select("select * from hotels where \"clean rooms\"").unwrap();
        assert!(matches!(
            execute(&q, &cat, &ObjectiveOnly),
            Err(StoreError::NoScorer(_))
        ));
    }

    #[test]
    fn projection_selects_columns() {
        let cat = hotel_catalog();
        let q = parse_select("select hotelname from hotels where price_pn < 150").unwrap();
        let r = execute(&q, &cat, &ObjectiveOnly).unwrap();
        assert_eq!(r.columns, vec!["hotelname"]);
        assert_eq!(r.rows[0].0.len(), 1);
    }

    #[test]
    fn order_by_overrides_score_order() {
        let cat = hotel_catalog();
        let q = parse_select("select * from hotels order by price_pn asc").unwrap();
        let r = execute(&q, &cat, &ObjectiveOnly).unwrap();
        assert_eq!(r.rows[0].0[0], Value::text("Canal"));
        assert_eq!(r.rows[2].0[0], Value::text("Plaza"));
    }

    #[test]
    fn limit_truncates() {
        let cat = hotel_catalog();
        let q = parse_select("select * from hotels limit 1").unwrap();
        let r = execute(&q, &cat, &ObjectiveOnly).unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn join_combines_tables() {
        let mut cat = hotel_catalog();
        cat.create_table(Schema::new(
            "cafes",
            vec![
                Column::new("cafename", ColumnType::Text),
                Column::new("street", ColumnType::Text),
            ],
            0,
        ))
        .unwrap();
        cat.insert("cafes", vec![Value::text("Beans"), Value::text("baker")])
            .unwrap();
        cat.insert("cafes", vec![Value::text("Brew"), Value::text("canal")])
            .unwrap();
        let q = parse_select("select * from hotels h join cafes c on h.street = c.street").unwrap();
        let r = execute(&q, &cat, &ObjectiveOnly).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].0[0], Value::text("Grand"));
        assert_eq!(r.rows[0].0[4], Value::text("Beans"));
    }

    #[test]
    fn fuzzy_algebra_laws() {
        for alg in [FuzzyAlgebra::Product, FuzzyAlgebra::Godel] {
            // identity / annihilator
            assert_eq!(alg.and(1.0, 0.7), 0.7);
            assert_eq!(alg.and(0.0, 0.7), 0.0);
            assert_eq!(alg.or(0.0, 0.7), 0.7);
            assert_eq!(alg.or(1.0, 0.7), 1.0);
            // De Morgan: ¬(x ⊗ y) = ¬x ⊕ ¬y
            let (x, y) = (0.3, 0.6);
            let lhs = alg.not(alg.and(x, y));
            let rhs = alg.or(alg.not(x), alg.not(y));
            assert!((lhs - rhs).abs() < 1e-12, "{alg:?}");
        }
    }

    #[test]
    fn godel_variant_uses_min() {
        let cat = hotel_catalog();
        let q =
            parse_select("select * from hotels where \"clean rooms\" and \"clean rooms\"").unwrap();
        let product = execute(&q, &cat, &Canned).unwrap();
        let godel = execute_with_algebra(&q, &cat, &Canned, FuzzyAlgebra::Godel).unwrap();
        // product: 0.81 for Grand; Gödel: 0.9.
        assert!((product.rows[0].1 - 0.81).abs() < 1e-9);
        assert!((godel.rows[0].1 - 0.9).abs() < 1e-9);
    }

    #[test]
    fn lazy_path_matches_materialized_execution() {
        let cat = hotel_catalog();
        for sql in [
            "select * from hotels where price_pn < 150 and \"clean rooms\"",
            "select hotelname from hotels where \"clean rooms\" limit 2",
            "select * from hotels order by price_pn asc",
        ] {
            let q = parse_select(sql).unwrap();
            let lazy = execute_lazy(&q, &cat, &Canned).unwrap();
            let materialized = execute(&q, &cat, &Canned).unwrap();
            assert_eq!(lazy.columns(), materialized.columns.as_slice(), "{sql}");
            assert_eq!(lazy.len(), materialized.rows.len(), "{sql}");
            for (i, (row, score)) in materialized.rows.iter().enumerate() {
                assert_eq!(lazy.score(i), *score, "{sql}");
                let borrowed: Vec<ValueRef<'_>> = lazy.values(i).collect();
                assert_eq!(borrowed.len(), row.len(), "{sql}");
                for (a, b) in borrowed.iter().zip(row) {
                    assert_eq!(*a, *b, "{sql}");
                }
            }
        }
    }

    #[test]
    fn lazy_projection_is_applied_at_read_time() {
        let cat = hotel_catalog();
        let q = parse_select("select hotelname, city from hotels where price_pn < 150").unwrap();
        let lazy = execute_lazy(&q, &cat, &ObjectiveOnly).unwrap();
        assert_eq!(lazy.columns(), ["hotelname", "city"]);
        let vals: Vec<ValueRef<'_>> = lazy.values(0).collect();
        assert_eq!(vals.len(), 2);
        assert_eq!(lazy.values(0).len(), 2, "ExactSizeIterator length");
        let rs = lazy.into_result_set();
        assert_eq!(rs.rows[0].0.len(), 2);
    }

    #[test]
    fn lazy_join_materializes_combined_rows() {
        let mut cat = hotel_catalog();
        cat.create_table(Schema::new(
            "cafes",
            vec![
                Column::new("cafename", ColumnType::Text),
                Column::new("street", ColumnType::Text),
            ],
            0,
        ))
        .unwrap();
        cat.insert("cafes", vec![Value::text("Beans"), Value::text("baker")])
            .unwrap();
        let q = parse_select("select * from hotels h join cafes c on h.street = c.street").unwrap();
        let lazy = execute_lazy(&q, &cat, &ObjectiveOnly).unwrap();
        assert_eq!(lazy.len(), 1);
        let vals: Vec<ValueRef<'_>> = lazy.values(0).collect();
        assert_eq!(vals[4], Value::text("Beans"));
    }

    #[test]
    fn overlay_rows_join_the_planner_fast_path_results() {
        let cat = hotel_catalog();
        let mut overlay = TableOverlay::new();
        overlay.push_row(
            "hotels",
            vec![
                Value::text("Nieuw"),
                Value::text("Amsterdam"),
                Value::Float(80.0),
                Value::text("damrak"),
            ],
        );
        // Purely objective WHERE rides the bitmap for base rows; the
        // overlay row is evaluated separately and still included.
        let q = parse_select("select * from hotels where price_pn < 150").unwrap();
        let r = execute_with_overlay(&q, &cat, &ObjectiveOnly, Some(&overlay)).unwrap();
        assert_eq!(r.rows.len(), 3, "Grand, Canal, and the overlay row");
        assert!(r.rows.iter().any(|(row, _)| row[0] == Value::text("Nieuw")));
        // Without the overlay the same query sees only base rows.
        let base = execute(&q, &cat, &ObjectiveOnly).unwrap();
        assert_eq!(base.rows.len(), 2);
    }

    #[test]
    fn overlay_rows_score_subjectively_and_rank_with_base_rows() {
        let cat = hotel_catalog();
        let mut overlay = TableOverlay::new();
        overlay.push_row(
            "hotels",
            vec![
                Value::text("Plaza"), // same canned key: degree 0.5
                Value::text("Paris"),
                Value::Float(110.0),
                Value::text("rivoli"),
            ],
        );
        let q = parse_select("select * from hotels where \"clean rooms\"").unwrap();
        let r = execute_with_overlay(&q, &cat, &Canned, Some(&overlay)).unwrap();
        assert_eq!(r.rows.len(), 4);
        // Ranked by degree among base rows: Grand 0.9, the two Plazas
        // 0.5, Canal 0.2.
        assert_eq!(r.rows[0].0[0], Value::text("Grand"));
        assert!((r.rows[1].1 - 0.5).abs() < 1e-12);
        assert!((r.rows[2].1 - 0.5).abs() < 1e-12);
        assert_eq!(r.rows[3].0[0], Value::text("Canal"));
    }

    #[test]
    fn overlay_limit_keeps_topk_exact_over_base_and_delta() {
        let cat = hotel_catalog();
        let scorer = Indexed::new();
        let mut overlay = TableOverlay::new();
        overlay.push_row(
            "hotels",
            vec![
                Value::text("Grand"), // canned degree 0.9 — ties the best base row
                Value::text("Oslo"),
                Value::Float(70.0),
                Value::text("karl"),
            ],
        );
        let q = parse_select("select * from hotels where \"clean rooms\" limit 2").unwrap();
        let r = execute_with_overlay(&q, &cat, &scorer, Some(&overlay)).unwrap();
        assert_eq!(r.rows.len(), 2);
        assert!((r.rows[0].1 - 0.9).abs() < 1e-12);
        assert!(
            (r.rows[1].1 - 0.9).abs() < 1e-12,
            "delta row outranks Plaza"
        );
    }

    #[test]
    fn overlay_rows_participate_in_joins() {
        let mut cat = hotel_catalog();
        cat.create_table(Schema::new(
            "cafes",
            vec![
                Column::new("cafename", ColumnType::Text),
                Column::new("street", ColumnType::Text),
            ],
            0,
        ))
        .unwrap();
        cat.insert("cafes", vec![Value::text("Beans"), Value::text("baker")])
            .unwrap();
        let mut overlay = TableOverlay::new();
        // Overlay on the build side: a new cafe on Plaza's street.
        overlay.push_row("cafes", vec![Value::text("Roast"), Value::text("oxford")]);
        let q = parse_select("select * from hotels h join cafes c on h.street = c.street").unwrap();
        let r = execute_with_overlay(&q, &cat, &ObjectiveOnly, Some(&overlay)).unwrap();
        assert_eq!(r.rows.len(), 2);
        assert!(r
            .rows
            .iter()
            .any(|(row, _)| row[0] == Value::text("Plaza") && row[4] == Value::text("Roast")));
    }

    #[test]
    fn overlay_width_mismatch_is_reported() {
        let cat = hotel_catalog();
        let mut overlay = TableOverlay::new();
        overlay.push_row("hotels", vec![Value::text("Short")]);
        let q = parse_select("select * from hotels where price_pn < 150").unwrap();
        assert!(matches!(
            execute_with_overlay(&q, &cat, &ObjectiveOnly, Some(&overlay)),
            Err(StoreError::SchemaMismatch(_))
        ));
        let scan = parse_select("select * from hotels").unwrap();
        assert!(matches!(
            execute_with_overlay(&scan, &cat, &ObjectiveOnly, Some(&overlay)),
            Err(StoreError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn unknown_column_is_reported() {
        let cat = hotel_catalog();
        let q = parse_select("select * from hotels where nosuch > 5").unwrap();
        assert!(matches!(
            execute(&q, &cat, &ObjectiveOnly),
            Err(StoreError::UnknownColumn(_))
        ));
    }
}
