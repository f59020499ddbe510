// Fixture: the mutant of trace_names_ok.rs. Each call names something
// the synthetic STAGES / COUNTERS table does not declare, so each
// would panic under an armed trace: an unknown counter through the
// free `count`, an unknown counter through `SpanGuard::count`, and an
// unknown stage through `span`.
pub fn repair(column: &Column) {
    let span = opine_trace::span("ta_topk");
    span.count("repaired", column.len() as u64);
    opine_trace::count("ta_topk", "cache_repairs", 1);
    let _merge = opine_trace::span("merge");
}
