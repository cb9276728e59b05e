//! Soak test for the arbitrarily-large-trace path (§4.2/§6): a long run is
//! traced to disk through the buffered PMPI-style writer and replayed by
//! streaming the files — the retained analyzer state must stay tiny no
//! matter the trace length, and the streamed result must equal the
//! in-memory one.

use mpg::apps::{TokenRing, Workload};
use mpg::core::{PerturbationModel, ReplayConfig, Replayer};
use mpg::noise::{Dist, PlatformSignature};
use mpg::sim::Simulation;
use mpg::trace::OocTraceSet;

#[test]
fn long_trace_streams_from_disk_with_bounded_window() {
    // ~50k events: 8 ranks × (init + 250×16 ring hops × 5 events + finalize).
    let ring = TokenRing {
        traversals: 250,
        particles_per_rank: 2,
        work_per_pair: 5,
    };
    let out = Simulation::new(8, PlatformSignature::quiet("soak"))
        .seed(404)
        .run(|ctx| ring.run(ctx))
        .expect("soak ring runs");
    let events = out.trace.total_events();
    assert!(events > 50_000, "want a long trace, got {events} events");

    let dir = std::env::temp_dir().join(format!("mpg-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    out.trace.save(&dir).expect("save trace");

    let mut model = PerturbationModel::quiet("soak");
    model.latency = Dist::Exponential { mean: 350.0 }.into();
    model.os_local = Dist::Exponential { mean: 120.0 }.into();

    let set = OocTraceSet::open(&dir).expect("open trace dir");
    let cursors = (0..set.num_ranks()).map(|r| set.cursor(r)).collect();
    let streamed = Replayer::new(ReplayConfig::new(model.clone()).seed(5))
        .run_streams_parallel(cursors, 1)
        .expect("streamed replay");
    let in_memory = Replayer::new(ReplayConfig::new(model).seed(5))
        .run(&out.trace)
        .expect("in-memory replay");

    assert_eq!(streamed.final_drift, in_memory.final_drift);
    assert_eq!(streamed.stats, in_memory.stats);
    assert_eq!(streamed.stats.events as usize, events);
    // The §4.2 claim: retained state is bounded by in-flight messages +
    // open requests, independent of the 50k+ event trace length.
    assert!(
        streamed.stats.window_high_water < 100,
        "window {} should not scale with {} events",
        streamed.stats.window_high_water,
        events
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
