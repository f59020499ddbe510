// Fixture: every literal handed to the trace API names a stage or
// counter declared in the synthetic STAGES / COUNTERS table the test
// pairs it with. Loaded under a core path.
pub fn repair(column: &Column, stage: &'static str) {
    let span = opine_trace::span("ta_topk");
    span.count("scored", column.len() as u64);
    opine_trace::count("ta_topk", "cache_hits", 1);
    // Non-literal names are the trace crate's runtime concern.
    let _dynamic = opine_trace::span(stage);
    // lint:allow(trace_names, reason = "fixture: an annotated site is exempt")
    opine_trace::count("ta_topk", "experimental", 1);
}
