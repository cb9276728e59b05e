//! The recorded graph's lean edge columns (DESIGN §17.1) against the MPGA
//! bytes they are written as (§14.2). Hand-built graphs that reach every
//! corner of the columns round-trip exactly; the seven demo workloads'
//! recordings encode to the pinned bytes the dense columns wrote; and a
//! quiet recording holds no more than 21 bytes per edge.

use std::path::Path;
use std::process::Command;

use mpg_apps::{TokenRing, Workload};
use mpg_core::{
    decode_arena, encode_arena, predicted_graph, DeltaClass, Edge, EventGraph, GraphArena, NodeId,
    PerturbationModel, ReplayConfig, Replayer,
};
use mpg_noise::PlatformSignature;
use mpg_sim::Simulation;
use mpg_trace::frame::crc32c;
use mpg_trace::{FileTraceSet, MemTrace};

/// The recording `analyze`, `lint` and `explore` make: quiet, eager
/// standard sends.
fn quiet_config() -> ReplayConfig {
    ReplayConfig::new(PerturbationModel::quiet("lint"))
        .seed(0)
        .ack_arm(false)
        .record_graph(true)
}

/// A recording whose every class samples a nonzero delta somewhere.
fn noisy_config() -> ReplayConfig {
    mpg_serve::replay_config(500.0, 700.0, 0.05, 42).record_graph(true)
}

fn record(trace: &MemTrace, cfg: ReplayConfig) -> EventGraph {
    Replayer::new(cfg)
        .run(trace)
        .expect("recording replay")
        .graph
        .expect("a recorded graph")
}

/// Encode → decode → encode is byte-identical, and the decoded arena
/// materializes every edge as `want` holds it.
fn assert_roundtrip(arena: &GraphArena, want: &[Edge]) {
    assert_eq!(arena.num_edges(), want.len());
    for (i, e) in want.iter().enumerate() {
        assert_eq!(arena.edge(i), *e, "edge {i} as pushed");
    }
    let bytes = encode_arena(arena);
    let decoded = decode_arena(&bytes).expect("decodes");
    assert_eq!(encode_arena(&decoded), bytes, "re-encode differs");
    for (i, e) in want.iter().enumerate() {
        assert_eq!(decoded.edge(i), *e, "edge {i} decoded");
        assert_eq!(decoded.edge_class(i), e.class);
        assert_eq!(decoded.edge_sampled(i), e.sampled);
        assert_eq!(decoded.edge_is_message(i), e.is_message);
    }
}

/// Every class, payloads at their extremes, on both sides of several
/// 64-edge payload blocks; hubs as sources and sinks.
fn corner_edges(sampled_at: Option<usize>) -> (GraphArena, Vec<Edge>) {
    let classes = [
        DeltaClass::None,
        DeltaClass::OsLocal,
        DeltaClass::Transfer { bytes: 0 },
        DeltaClass::OsRemote,
        DeltaClass::Transfer {
            bytes: u64::from(u32::MAX) + 1,
        },
        DeltaClass::Lambda,
        DeltaClass::MessagePath { bytes: u64::MAX },
        DeltaClass::CollectiveRounds {
            rounds: u32::MAX,
            bytes: 1 << 40,
        },
        DeltaClass::CollectiveRounds {
            rounds: 0,
            bytes: 0,
        },
        DeltaClass::MessagePath { bytes: 7 },
    ];
    let mut arena = GraphArena::new(&[100, 100, 100]);
    let mut edges = Vec::new();
    for i in 0..290u64 {
        let (rank, seq) = ((i % 3) as u32, i / 3);
        let src = match i % 11 {
            0 => NodeId::hub(rank, seq),
            _ => NodeId::start(rank, seq),
        };
        let dst = match i % 13 {
            0 => NodeId::hub((rank + 1) % 3, seq),
            _ => NodeId::end((rank + 1) % 3, seq),
        };
        let e = Edge {
            src,
            dst,
            base: i * 1_000_003,
            class: classes[(i as usize * 7) % classes.len()],
            sampled: if sampled_at == Some(i as usize) {
                -42
            } else {
                0
            },
            is_message: i % 5 < 2,
        };
        arena.push_edge(e);
        edges.push(e);
    }
    assert!(arena.num_hubs() > 0);
    (arena, edges)
}

#[test]
fn corner_columns_roundtrip() {
    for sampled_at in [None, Some(0), Some(63), Some(64), Some(250), Some(289)] {
        let (arena, edges) = corner_edges(sampled_at);
        assert_roundtrip(&arena, &edges);
    }
}

/// A quiet graph stores no sampled column; the first nonzero delta, after
/// many zeros, backfills them. The on-disk bytes do not tell the two
/// forms apart: a dense column of zeros encodes like none at all.
#[test]
fn first_nonzero_delta_backfills_zeros() {
    let (quiet, mut edges) = corner_edges(None);
    let (noisy, _) = corner_edges(Some(250));
    assert_eq!(
        noisy.edge_column_bytes(),
        quiet.edge_column_bytes() + 8 * edges.len(),
        "one nonzero delta makes the column dense"
    );
    edges[250].sampled = -42;
    assert_roundtrip(&noisy, &edges);

    // Predicting a quiet model writes a zero into every edge and keeps a
    // quiet recording lean; a decoded quiet artifact is lean too.
    let graph = record(&ring_trace(4, 2), quiet_config());
    let lean = graph.arena().edge_column_bytes();
    let quiet_bytes = encode_arena(graph.arena());
    let predicted = predicted_graph(&graph, &PerturbationModel::quiet("q")).unwrap();
    assert_eq!(predicted.arena().edge_column_bytes(), lean);
    assert_eq!(encode_arena(predicted.arena()), quiet_bytes);
    assert_eq!(
        decode_arena(&quiet_bytes).unwrap().edge_column_bytes(),
        lean
    );

    // A constant latency stamps a delta on the message paths only.
    let model = PerturbationModel::per_message_constant("c", 700.0);
    let predicted = predicted_graph(&graph, &model).unwrap();
    let stamped: Vec<Edge> = predicted.edges().collect();
    assert!(stamped.iter().any(|e| e.sampled != 0));
    assert!(stamped.iter().any(|e| e.sampled == 0));
    assert_eq!(
        predicted.arena().edge_column_bytes(),
        lean + 8 * stamped.len()
    );
    assert_roundtrip(predicted.arena(), &stamped);
}

/// A token ring on `ranks` ranks, `traversals` times round, traced on a
/// quiet platform.
fn ring_trace(ranks: u32, traversals: u32) -> MemTrace {
    let ring = TokenRing {
        traversals,
        particles_per_rank: 16,
        work_per_pair: 25,
    };
    Simulation::new(ranks, PlatformSignature::quiet("columns"))
        .seed(1)
        .run(|ctx| ring.run(ctx))
        .expect("ring simulates")
        .trace
}

const WORKLOADS: [&str; 7] = [
    "ring",
    "stencil",
    "master-worker",
    "solver",
    "pipeline",
    "transpose",
    "summa",
];

/// CRC32C of the MPGA bytes of each demo's quiet and noisy recording
/// (`mpgtool demo <wl> --ranks 8`), the trailing CRC excluded, as the
/// dense edge columns wrote them.
const PINS: [(&str, u32, u32); 7] = [
    ("ring", 831665033, 509364817),
    ("stencil", 990644501, 2328845705),
    ("master-worker", 2660350693, 1386432566),
    ("solver", 1531025041, 1637400385),
    ("pipeline", 89529175, 1152427803),
    ("transpose", 1264771611, 1622021254),
    ("summa", 984385524, 1114582446),
];

fn demo_trace(wl: &str, dir: &Path) -> MemTrace {
    let _ = std::fs::remove_dir_all(dir);
    let out = Command::new(env!("CARGO_BIN_EXE_mpgtool"))
        .args(["demo", wl, "--ranks", "8"])
        .arg(dir)
        .output()
        .expect("spawn mpgtool");
    assert!(out.status.success(), "demo {wl}");
    let trace = FileTraceSet::open(dir).and_then(|s| s.load()).unwrap();
    std::fs::remove_dir_all(dir).unwrap();
    trace
}

#[test]
fn demo_recordings_encode_to_the_pinned_bytes() {
    let mut got = Vec::new();
    for wl in WORKLOADS {
        let dir = std::env::temp_dir().join(format!("mpga-columns-{wl}-{}", std::process::id()));
        let trace = demo_trace(wl, &dir);
        let mut crcs = [0u32; 2];
        for (crc, cfg) in crcs.iter_mut().zip([quiet_config(), noisy_config()]) {
            let graph = record(&trace, cfg);
            let bytes = encode_arena(graph.arena());
            let decoded = decode_arena(&bytes).expect("decodes");
            assert_eq!(encode_arena(&decoded), bytes, "{wl}: re-encode differs");
            *crc = crc32c(&bytes[..bytes.len() - 4]);
        }
        got.push((wl, crcs[0], crcs[1]));
    }
    assert_eq!(got, PINS, "MPGA bytes moved");
}

/// The byte budget of DESIGN §17.1: a quiet recording of a 16-rank ring
/// (`gen --workload ring --ranks 16 --scale 4`) holds at most 21 bytes per
/// edge on top of its node columns. The dense columns held 41.
#[test]
fn quiet_recording_holds_21_bytes_per_edge() {
    let graph = record(&ring_trace(16, 20), quiet_config());
    let arena = graph.arena();
    let edges = arena.num_edges();
    assert!(edges > 10_000, "{edges} edges");
    assert!(
        arena.edge_column_bytes() <= 21 * edges,
        "{:.2} bytes per edge over {edges} edges",
        arena.edge_column_bytes() as f64 / edges as f64
    );
    // Node columns: rank, flags, kind code and label time per node, and
    // the per-rank base table; a ring has no hubs.
    assert_eq!(arena.num_hubs(), 0);
    assert_eq!(
        arena.node_column_bytes(),
        14 * arena.num_nodes() + 4 * (arena.num_ranks() + 1)
    );
}
