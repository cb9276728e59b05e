//! Pins the happens-before index's compression on a real workload: the
//! 8-rank stencil that `mpgtool demo stencil` traces. The relation itself
//! is checked pair by pair against a DFS closure in
//! `crates/mpg-core/tests/proptest_hb.rs`; this file only guards the size,
//! so a change that quietly goes back to a clock row per event fails here
//! rather than in a benchmark.

use std::collections::HashSet;

use mpg::apps::{Stencil, Workload};
use mpg::core::{HbIndex, PerturbationModel, ReplayConfig, Replayer};
use mpg::noise::PlatformSignature;
use mpg::sim::Simulation;

#[test]
fn stencil_index_stores_one_row_per_join_not_per_event() {
    let demo = Stencil {
        iters: 20,
        cells_per_rank: 2_000,
        work_per_cell: 40,
        halo_bytes: 1_024,
    };
    let trace = Simulation::new(8, PlatformSignature::quiet("hb-epochs"))
        .seed(1)
        .run(|ctx| demo.run(ctx))
        .expect("stencil simulates")
        .trace;
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
