//! Pins the happens-before index's compression on a real workload: the
//! 8-rank stencil that `mpgtool demo stencil` traces. The relation itself
//! is checked pair by pair against a DFS closure in
//! `crates/mpg-core/tests/proptest_hb.rs`; this file only guards the size,
//! so a change that quietly goes back to a clock row per event, or to
//! rows as wide as the rank count in a lint run, fails here rather than in
//! a benchmark.

use std::collections::HashSet;

use mpg::apps::{Stencil, Workload};
use mpg::core::{HbIndex, PerturbationModel, ReplayConfig, Replayer};
use mpg::lint::LintContext;
use mpg::noise::PlatformSignature;
use mpg::sim::Simulation;
use mpg::trace::MemTrace;

/// The trace of `mpgtool demo stencil --ranks 8`, on `ranks` ranks.
fn demo_stencil(ranks: u32) -> MemTrace {
    let demo = Stencil {
        iters: 20,
        cells_per_rank: 2_000,
        work_per_cell: 40,
        halo_bytes: 1_024,
    };
    Simulation::new(ranks, PlatformSignature::quiet("hb-epochs"))
        .seed(1)
        .run(|ctx| demo.run(ctx))
        .expect("stencil simulates")
        .trace
}

#[test]
fn stencil_index_stores_one_row_per_join_not_per_event() {
    let trace = demo_stencil(8);
    let cfg = ReplayConfig::new(PerturbationModel::quiet("hb-epochs")).record_graph(true);
    let graph = Replayer::new(cfg)
        .run(&trace)
        .expect("stencil replays")
        .graph
        .expect("graph recorded");
    let hb = HbIndex::build(&graph);

    // Only a node with an in-edge from another rank or a hub can start an
    // epoch; the stencil has one per halo exchange (the waitall's end).
    let joins: HashSet<_> = graph
        .edges()
        .filter(|e| !e.dst.hub && (e.src.hub || e.src.rank != e.dst.rank))
        .map(|e| e.dst)
        .collect();
    let events = trace.total_events();
    assert!(
        hb.epoch_rows() <= joins.len() + 8,
        "{} rows for {} joins",
        hb.epoch_rows(),
        joins.len()
    );
    // One exchange per six or seven events: the rows are a seventh of the
    // events, where the dense layout stored one (of each kind) per event.
    assert!(
        hb.epoch_rows() * 5 < events,
        "{} rows for {events} events",
        hb.epoch_rows()
    );
    // ...and the blob shrinks with them: 8 ranks × 2 rows × 8 bytes per
    // event was the dense size.
    assert!(hb.to_bytes().len() * 4 < events * 8 * 2 * 8);
}

/// A stencil rank sends to its two neighbours and posts no wildcard, so
/// the index a lint run builds stores those two columns per row — not
/// seven — and at most 2/7 of the all-columns index's clock cells. Both
/// blobs carry the same 4-byte epoch id per event, about half the
/// all-columns blob at 8 ranks; at 32 the lint index's blob is under a
/// quarter of it.
#[test]
fn lint_index_stores_only_the_columns_the_passes_ask_about() {
    for ranks in [8, 32] {
        let trace = demo_stencil(ranks);
        let ctx = LintContext::build(&trace);
        let graph = ctx.graph.as_ref().expect("stencil records a graph");
        let hb = ctx.hb.as_ref().expect("and an index over it");
        let full = HbIndex::build(graph);
        let widest = (0..ranks).map(|r| hb.columns().of(r).len()).max();
        assert_eq!(widest, Some(2));
        let cells = (hb.clock_cells(), full.clock_cells());
        assert!(
            cells.0 * (ranks as usize - 1) <= cells.1 * 2,
            "{cells:?} cells"
        );
        let bytes = (hb.to_bytes().len(), full.to_bytes().len());
        assert!(bytes.0 < bytes.1, "{bytes:?} bytes");
        if ranks == 32 {
            assert!(bytes.0 * 4 <= bytes.1, "{bytes:?} bytes");
        }
    }
}
