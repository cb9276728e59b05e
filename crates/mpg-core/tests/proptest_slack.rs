//! Property tests tying the static slack analyzer to the dynamic replay
//! engine.
//!
//! Random deadlock-free SPMD programs (`mpg_testkit::SPMD`) are simulated
//! on ideal clocks and quiet-replayed
//! into a recorded graph; three families of properties must then hold:
//!
//! 1. **Schedule fidelity** — the zero-drift forward sweep under effective
//!    costs reproduces every observed subevent time exactly
//!    (`retime_mismatches == 0`) with no causality clamps.
//! 2. **Exact slack semantics** — for *every* edge, inflating its effective
//!    cost by exactly `slack(e)` leaves the makespan unchanged, and by
//!    `slack(e) + 1` grows it by exactly 1: slack is the maximum absorbable
//!    delay, not an approximation.
//! 3. **Static ⇄ dynamic equivalence** — for constant perturbation models,
//!    [`predicted_graph`] must equal a real recording replay edge-for-edge
//!    (structure, classes *and* sampled deltas), so the predicted critical
//!    path equals the replayed one; and every edge on the replayed binding
//!    chain has zero drift-slack.

use std::collections::HashMap;

use mpg_core::{
    critical_path, drift_slack, predicted_graph, Cycles, EventGraph, NodeId, PerturbationModel,
    Point, ReplayConfig, Replayer, SlackSweep,
};
use mpg_noise::Dist;
use mpg_testkit::{round_strategy, simulate, Round, SPMD};
use proptest::prelude::*;

/// Simulates a random program on ideal clocks and quiet-replays it into a
/// recorded event graph.
fn record(p: u32, sim_seed: u64, rounds: &[Round]) -> EventGraph {
    let quiet = ReplayConfig::new(PerturbationModel::quiet("record")).seed(0);
    mpg_testkit::record(&simulate(p, sim_seed, rounds), &quiet)
}

/// The per-rank final end subevents whose max earliest time is the
/// makespan — recomputed here independently of the sweep.
fn final_ends(graph: &EventGraph) -> Vec<NodeId> {
    let mut finals: HashMap<u32, NodeId> = HashMap::new();
    for (node, _) in graph.nodes() {
        if node.hub || node.point != Point::End {
            continue;
        }
        let slot = finals.entry(node.rank).or_insert(node);
        if node.seq > slot.seq {
            *slot = node;
        }
    }
    finals.into_values().collect()
}

/// Independent forward sweep with one edge's cost inflated by `extra`.
fn makespan_with(graph: &EventGraph, sweep: &SlackSweep, on: usize, extra: Cycles) -> Cycles {
    let mut earliest: HashMap<NodeId, Cycles> = HashMap::new();
    for (i, e) in graph.edges().enumerate() {
        let c = sweep.cost(i) + if i == on { extra } else { 0 };
        let cand = earliest.get(&e.src).copied().unwrap_or(0) + c;
        let slot = earliest.entry(e.dst).or_insert(0);
        *slot = (*slot).max(cand);
    }
    final_ends(graph)
        .iter()
        .map(|n| earliest.get(n).copied().unwrap_or(0))
        .max()
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Properties 1 and 2: the sweep reproduces the ideal-clock schedule
    /// exactly, and every edge's slack is the exact maximum absorbable
    /// delay (brute-forced by re-running the forward sweep per edge).
    #[test]
    fn sweep_is_exact_and_slack_is_max_absorbable_delay(
        p in 2u32..7,
        sim_seed in 0u64..1_000,
        rounds in prop::collection::vec(round_strategy(SPMD), 1..7),
    ) {
        let graph = record(p, sim_seed, &rounds);
        let sweep = SlackSweep::sweep(&graph);

        // Ideal clocks: re-timing is exact, no causality violations, and
        // the forward sweep lands every node on its observed time.
        prop_assert_eq!(sweep.retime_mismatches, 0);
        prop_assert_eq!(sweep.causality_clamps, 0);

        // The static critical path is a chain of zero-slack edges from the
        // makespan anchor back to time zero.
        let path = sweep.static_critical_path(&graph).expect("nonempty graph");
        prop_assert_eq!(path.finish, sweep.makespan);
        for &i in &path.edges {
            prop_assert_eq!(sweep.slack(i), 0, "edge {} on the critical path", i);
        }

        // Brute-force oracle, every edge: +slack keeps the makespan,
        // +slack+1 grows it by exactly one cycle.
        for i in 0..graph.edge_count() {
            let sl = sweep.slack(i);
            prop_assert_eq!(
                makespan_with(&graph, &sweep, i, sl),
                sweep.makespan,
                "edge {} absorbs its slack {}",
                i, sl
            );
            prop_assert_eq!(
                makespan_with(&graph, &sweep, i, sl + 1),
                sweep.makespan + 1,
                "edge {} slack {} must be maximal",
                i, sl
            );
        }
    }

    /// Property 3: for constant models the static prediction equals the
    /// dynamic replay — same graph, same deltas, same critical path — and
    /// the replayed binding chain is exactly the zero-drift-slack chain.
    #[test]
    fn constant_model_prediction_matches_replay(
        p in 2u32..7,
        sim_seed in 0u64..1_000,
        rounds in prop::collection::vec(round_strategy(SPMD), 1..7),
        os_const in 0u32..400,
        lat_const in 0u32..400,
        replay_seed in 0u64..1_000,
    ) {
        let trace = simulate(p, sim_seed, &rounds);

        let mut model = PerturbationModel::quiet("const");
        if os_const > 0 {
            model.os_local = Dist::Constant(f64::from(os_const)).into();
        }
        if lat_const > 0 {
            model.latency = Dist::Constant(f64::from(lat_const)).into();
        }

        // Quiet recording replay -> static prediction.
        let base = mpg_testkit::record(
            &trace,
            &ReplayConfig::new(PerturbationModel::quiet("record")).seed(0),
        );
        let predicted = predicted_graph(&base, &model).expect("constant model is predictable");

        // Real recording replay under the same model.
        let real = Replayer::new(
            ReplayConfig::new(model).seed(replay_seed).record_graph(true),
        )
        .run(&trace)
        .expect("constant replay succeeds")
        .graph
        .expect("graph recorded");

        // Edge-for-edge equality, sampled deltas included.
        prop_assert_eq!(
            predicted.edges().collect::<Vec<_>>(),
            real.edges().collect::<Vec<_>>()
        );
        let pred_labels: HashMap<_, _> = predicted.nodes().collect();
        let real_labels: HashMap<_, _> = real.nodes().collect();
        prop_assert_eq!(pred_labels, real_labels);
        prop_assert_eq!(predicted.final_drifts(), real.final_drifts());

        // The statically predicted critical path IS the replayed one.
        let cp_pred = critical_path(&predicted);
        let cp_real = critical_path(&real);
        prop_assert_eq!(&cp_pred, &cp_real);

        // Zero drift-slack exactly along the binding chain.
        let ds = drift_slack(&real);
        prop_assert_eq!(cp_real.is_some(), ds.is_some());
        if let (Some(cp), Some(ds)) = (cp_real, ds) {
            for step in &cp.steps {
                let i = real
                    .edges()
                    .position(|e| e == step.edge)
                    .expect("critical step is a graph edge");
                prop_assert_eq!(
                    ds.slack[i],
                    Some(0),
                    "binding-chain edge {} has zero drift-slack",
                    i
                );
            }
        }
    }
}
