//! Property test: pass 7 read off happens-before thresholds equals pass 7
//! asked pair by pair.
//!
//! `lint_sync` decides `MPG-REDUNDANT-SYNC` from one forbidden-match
//! threshold per send and `MPG-BUFFER-WATERMARK` from residency intervals
//! (DESIGN.md §19). The reference is the pass it replaced, kept verbatim in
//! `shared/sync_reference.rs`: every envelope-compatible `(receive, send)`
//! pair materialised and re-asked under each bypassed index, every message
//! of a receiver asked at every receive-completion point. Both run on the
//! same context and must render the same diagnostics — barrier verdicts,
//! peak, the point of the peak, involved ranks, order.
//!
//! No demo or `gen` workload contains a barrier, so the programs here are
//! written event by event (`mpg_testkit::build`): barriers (some already
//! implied by rendezvous round-trips, some not), eager and synchronous
//! sends, `ANY_SOURCE` and `ANY_TAG` receives, self-sends, bursts of eager
//! sends ahead of their receives, irecvs waited out of post order and
//! `waitall`s.

use mpg_lint::{lint_sync, LintContext, SyncOptions};
use mpg_testkit::{build, round_strategy, Round, Shape};
use mpg_trace::{MemTrace, Rule};
use proptest::prelude::*;

#[path = "shared/sync_reference.rs"]
mod reference;

#[path = "shared/full_index.rs"]
mod full_index;

/// Barrier programs written by hand (`mpg_testkit::build`): barriers —
/// some already implied by rendezvous round-trips, some not — beside
/// every hand-written shape.
const SYNC: &[Shape] = &[
    Shape::Compute,
    Shape::Barrier,
    Shape::Barrier,
    Shape::Exchange,
    Shape::Oneway,
    Shape::Burst,
    Shape::SelfSend,
    Shape::Window,
    Shape::Rendezvous,
];

/// Both implementations over one context, at watermarks low enough that
/// every receiver's peak is rendered. Returns the diagnostics at the
/// lowest.
fn check(trace: &MemTrace) -> Result<Vec<mpg_trace::Diagnostic>, String> {
    let ctx = LintContext::build(trace);
    if !ctx.progress.matching.completed {
        return Err("generated program does not run to completion".into());
    }
    let (Some(graph), Some(hb)) = (ctx.graph.as_ref(), ctx.hb.as_ref()) else {
        return Err(format!("no graph recorded: {:?}", ctx.graph_error));
    };
    let matching = &ctx.progress.matching;
    let mut lowest = Vec::new();
    for watermark in [8, 2, 0] {
        let opts = SyncOptions { watermark };
        lowest = lint_sync(trace, graph, hb, matching, &opts);
        let expected = reference::lint_sync(trace, graph, hb, matching, &opts);
        if lowest != expected {
            return Err(format!(
                "watermark {watermark}: thresholds give {lowest:#?}, pairwise scans give {expected:#?}"
            ));
        }
    }
    Ok(lowest)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn thresholds_equal_pairwise_scans(
        p in 2u32..6,
        rounds in prop::collection::vec(round_strategy(SYNC), 1..9),
    ) {
        let checked = check(&build(p, &rounds));
        prop_assert!(checked.is_ok(), "{} on {p} ranks: {rounds:?}", checked.unwrap_err());
    }

    /// Every pass and the explorer read the same off the lint context's
    /// column-restricted index as off the all-columns one
    /// (`shared/full_index.rs`).
    #[test]
    fn projected_index_lints_like_the_full_one(
        p in 2u32..6,
        rounds in prop::collection::vec(round_strategy(SYNC), 1..9),
    ) {
        let checked = full_index::projected_lints_like_full(&build(p, &rounds));
        prop_assert!(checked.is_ok(), "{} on {p} ranks: {rounds:?}", checked.unwrap_err());
    }
}

fn flagged_barriers(p: u32, rounds: &[Round]) -> usize {
    check(&build(p, rounds))
        .expect("both implementations agree")
        .iter()
        .filter(|d| d.rule == Rule::RedundantSync)
        .count()
}

/// The generator reaches both verdicts: a barrier right after a rendezvous
/// round-trip orders nothing new, one between two eager exchanges on the
/// same channel does. So does one that forbids a receive completing
/// exactly at the send's bypassed horizon — the case a `<=` for the `<` in
/// the per-barrier check would flag.
#[test]
fn implied_barrier_is_flagged_and_load_bearing_ones_are_not() {
    let exchange = |sync| Round::Exchange {
        shift: 0,
        tag: 0,
        sync,
        any_source: false,
        any_tag: false,
    };
    let implied = [
        exchange(false),
        Round::Rendezvous { tag: 1 },
        Round::Barrier,
        exchange(false),
    ];
    assert_eq!(flagged_barriers(3, &implied), 1);
    let load_bearing = [exchange(false), Round::Barrier, exchange(false)];
    assert_eq!(flagged_barriers(3, &load_bearing), 0);
    // Rank 1: the reply's receive, then the receive the barrier shields
    // from rank 0's second tag-0 send. Without the barrier that send waits
    // for the first of the two only.
    let on_the_horizon = [
        Round::Rendezvous { tag: 2 },
        Round::Oneway {
            tag: 0,
            sync: false,
            reverse: false,
        },
        Round::Barrier,
        exchange(true),
    ];
    assert_eq!(flagged_barriers(2, &on_the_horizon), 0);
}
