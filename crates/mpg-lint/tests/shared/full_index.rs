//! The lint context's happens-before index stores only the columns the
//! passes ask about (DESIGN.md §12.1). This check runs every registered
//! pass and `explore --budget 16` over the context [`LintContext::build`]
//! makes and over the same context with its index replaced by the
//! all-columns [`HbIndex::build`]: each must answer the same. Shared by
//! `proptest_columns.rs` (wildcard programs) and `proptest_sync.rs`
//! (barrier programs), each of which includes this file with `#[path]`.

use mpg_core::HbIndex;
use mpg_lint::{explore, ExploreOptions, LintContext, PASSES};
use mpg_trace::MemTrace;

/// `Err` names the first pass (or the explorer) whose output depends on
/// which of the two indexes it read. A trace without a recorded graph has
/// no index to compare and passes.
pub fn projected_lints_like_full(trace: &MemTrace) -> Result<(), String> {
    let projected = LintContext::build(trace);
    let mut full = LintContext::build(trace);
    full.hb = full.graph.as_ref().map(HbIndex::build);
    let (Some(narrow), Some(wide)) = (projected.hb.as_ref(), full.hb.as_ref()) else {
        return Ok(());
    };
    if narrow.to_bytes().len() > wide.to_bytes().len() {
        return Err("the projected index is larger than the full one".into());
    }
    for pass in PASSES {
        let (got, want) = ((pass.run)(&projected), (pass.run)(&full));
        if got != want {
            return Err(format!(
                "pass {}: projected index gives {got:#?}, full index {want:#?}",
                pass.name
            ));
        }
    }
    let opts = ExploreOptions::cli_default().budget(16);
    let (got, want) = (explore(&projected, &opts), explore(&full, &opts));
    if got.findings != want.findings || got.stats != want.stats {
        return Err(format!(
            "explore --budget 16: projected index gives {:?} / {:?}, full index {:?} / {:?}",
            got.findings, got.stats, want.findings, want.stats
        ));
    }
    Ok(())
}
