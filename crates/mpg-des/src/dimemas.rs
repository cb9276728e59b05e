//! A Dimemas-like trace replayer on the generic DES core (§1.1).
//!
//! "A simple model is assumed for communication which consists of
//! (a) machine latency, (b) machine resources contention, (c) message
//! transfer (message size/bandwidth), (d) network contention, and
//! (e) flight time."
//!
//! Differences from the graph-traversal analyzer, mirroring the paper's
//! comparison points:
//!
//! 1. absolute timestamps are **re-simulated** from model parameters, not
//!    drift-propagated from the traced timings — so the prediction quality
//!    depends entirely on the machine model;
//! 2. the trace is loaded **in core** ("Dimemas can handle large traces by
//!    reducing their information content in a preprocessing step");
//! 3. OS noise is **not** modeled (the paper's difference #1) — only CPU
//!    speed scaling;
//! 4. every operation flows through a future-event list, the "general
//!    discrete event model" overhead the paper's direct traversal avoids.

use std::collections::HashMap;

use crate::engine::{EventQueue, ResourcePool};
use crate::Cycles;
use mpg_noise::PlatformSignature;
use mpg_trace::{
    EnvelopeMatcher, EventKind, EventRecord, MemTrace, Rank, RecvEnvelope, ReqId, SendEnvelope, Tag,
};

/// The Dimemas communication/machine model.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineModel {
    /// Model label.
    pub name: String,
    /// Machine latency per message hop (cycles).
    pub latency: f64,
    /// Transfer cost (cycles/byte) — the `size/bandwidth` term.
    pub cycles_per_byte: f64,
    /// Relative CPU cost factor: traced compute bursts are multiplied by
    /// this (1.0 = same speed).
    pub cpu_factor: f64,
    /// Concurrent transfer limit ("machine resources contention"); 0 means
    /// unlimited.
    pub buses: usize,
    /// Extra per-hop flight time (cycles).
    pub flight_time: f64,
    /// Per-operation software overhead (cycles).
    pub overhead: Cycles,
}

impl MachineModel {
    /// Builds a model from a platform signature using distribution means
    /// (Dimemas parameterizes with scalars — the paper's difference #1).
    pub fn from_signature(sig: &PlatformSignature) -> Self {
        Self {
            name: format!("dimemas:{}", sig.name),
            latency: sig.mean_latency(),
            cycles_per_byte: sig.bandwidth.cycles_per_byte,
            cpu_factor: 1.0,
            buses: 0,
            flight_time: 0.0,
            overhead: sig.sw_overhead,
        }
    }

    fn wire(&self, bytes: u64) -> Cycles {
        (self.latency + self.flight_time + self.cycles_per_byte * bytes as f64).round() as Cycles
    }

    fn hop(&self) -> Cycles {
        (self.latency + self.flight_time).round() as Cycles
    }

    fn transfer_only(&self, bytes: u64) -> Cycles {
        (self.cycles_per_byte * bytes as f64).round() as Cycles
    }
}

/// Replay outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimemasReport {
    /// Predicted absolute finish time per rank.
    pub finish_times: Vec<Cycles>,
    /// DES events processed (throughput accounting).
    pub des_events: u64,
}

impl DimemasReport {
    /// Predicted makespan.
    pub fn makespan(&self) -> Cycles {
        self.finish_times.iter().copied().max().unwrap_or(0)
    }
}

/// Replay failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DimemasError {
    /// Matching got stuck: the trace is not a completed run.
    Stuck(String),
}

impl std::fmt::Display for DimemasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DimemasError::Stuck(m) => write!(f, "dimemas replay stuck: {m}"),
        }
    }
}

impl std::error::Error for DimemasError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Blocked {
    No,
    AtSend,
    AtRecv { src: Rank, tag: Tag },
    AtWait { reqs: Vec<ReqId> },
    AtColl,
}

/// Who completes one side of a matched transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Party {
    /// The rank's cursor is blocked on the operation.
    Blocking,
    /// The completion lands in the rank's request table.
    Request(ReqId),
    /// Nobody: a buffered or ready send completed locally.
    Local,
}

/// One side of a point-to-point transfer, as the matcher files it: a send
/// from `rank` to `peer`, or a receive on `rank` from `peer`. The trace
/// recorded the matched source and tag, so a receive's pattern is concrete.
#[derive(Debug, Clone)]
struct Side {
    rank: Rank,
    peer: Rank,
    tag: Tag,
    /// Payload size; the send's is what the transfer carries.
    bytes: u64,
    /// When the data may leave (a send) or the receiver is ready (a
    /// receive).
    at: Cycles,
    party: Party,
}

impl Side {
    fn new(rank: Rank, peer: Rank, tag: Tag, bytes: u64, at: Cycles, party: Party) -> Self {
        Self {
            rank,
            peer,
            tag,
            bytes,
            at,
            party,
        }
    }
}

impl SendEnvelope for Side {
    fn src(&self) -> Rank {
        self.rank
    }

    fn dst(&self) -> Rank {
        self.peer
    }

    fn tag(&self) -> Tag {
        self.tag
    }

    fn arrival(&self) -> u64 {
        self.at
    }
}

impl RecvEnvelope for Side {
    const CONCRETE: bool = true;

    fn dst(&self) -> Rank {
        self.rank
    }

    fn src_pattern(&self) -> Rank {
        self.peer
    }

    fn tag_pattern(&self) -> Tag {
        self.tag
    }
}

#[derive(Debug)]
struct RankState {
    idx: usize,
    clock: Cycles,
    blocked: Blocked,
    completions: HashMap<ReqId, Cycles>,
    coll_epoch: u64,
}

/// The replayer.
pub struct DimemasReplay {
    model: MachineModel,
}

impl DimemasReplay {
    /// Creates a replayer for one machine model.
    pub fn new(model: MachineModel) -> Self {
        Self { model }
    }

    /// Re-simulates `trace` on the modeled machine.
    pub fn run(&self, trace: &MemTrace) -> Result<DimemasReport, DimemasError> {
        Runner::new(&self.model, trace).run()
    }
}

struct Runner<'m> {
    model: &'m MachineModel,
    events: Vec<Vec<EventRecord>>,
    states: Vec<RankState>,
    queue: EventQueue<Rank>,
    buses: ResourcePool,
    matcher: EnvelopeMatcher<Side, Side>,
    colls: HashMap<u64, Vec<(Rank, Cycles)>>,
}

impl<'m> Runner<'m> {
    fn new(model: &'m MachineModel, trace: &MemTrace) -> Self {
        let p = trace.num_ranks();
        // In-core load: the documented Dimemas contrast with streaming.
        let events: Vec<Vec<EventRecord>> = (0..p).map(|r| trace.rank(r).to_vec()).collect();
        let mut queue = EventQueue::new();
        for r in 0..p {
            queue.schedule(0, r as Rank);
        }
        Self {
            model,
            events,
            states: (0..p)
                .map(|_| RankState {
                    idx: 0,
                    clock: 0,
                    blocked: Blocked::No,
                    completions: HashMap::new(),
                    coll_epoch: 0,
                })
                .collect(),
            queue,
            buses: ResourcePool::new(model.buses),
            matcher: EnvelopeMatcher::new(),
            colls: HashMap::new(),
        }
    }

    fn run(mut self) -> Result<DimemasReport, DimemasError> {
        while let Some((_, r)) = self.queue.pop() {
            self.advance(r)?;
        }
        // Everyone must have drained their trace.
        for (r, st) in self.states.iter().enumerate() {
            if st.idx < self.events[r].len() {
                return Err(DimemasError::Stuck(format!(
                    "rank {r} stopped at event {} of {} ({:?})",
                    st.idx,
                    self.events[r].len(),
                    self.states[r].blocked
                )));
            }
        }
        Ok(DimemasReport {
            finish_times: self.states.iter().map(|s| s.clock).collect(),
            des_events: self.queue.processed(),
        })
    }

    /// Books a transfer; returns `(recv_end, send_end)`.
    ///
    /// Store-and-forward semantics: the data leaves when the sender is
    /// ready (and a bus frees up); the receive completes at
    /// `max(arrival, receiver ready)`; the synchronous send completes one
    /// hop after the receive.
    fn transfer(&mut self, send_ready: Cycles, recv_ready: Cycles, bytes: u64) -> (Cycles, Cycles) {
        let start = self
            .buses
            .acquire(send_ready, self.model.transfer_only(bytes));
        let recv_end = (start + self.model.wire(bytes)).max(recv_ready);
        let send_end = recv_end + self.model.hop();
        (recv_end, send_end)
    }

    fn resume(&mut self, r: Rank, at: Cycles) {
        let st = &mut self.states[r as usize];
        st.clock = at;
        st.blocked = Blocked::No;
        st.idx += 1;
        self.queue.schedule(at, r);
    }

    /// Processes one event for rank `r` (or parks it).
    fn advance(&mut self, r: Rank) -> Result<(), DimemasError> {
        let ri = r as usize;
        if self.states[ri].blocked != Blocked::No {
            return Ok(()); // woken spuriously; the resolver will reschedule
        }
        let Some(ev) = self.events[ri].get(self.states[ri].idx).cloned() else {
            return Ok(()); // trace drained
        };
        let p = self.states.len() as Rank;
        // Malformed traces (peers or communicator sizes out of range) are
        // reported, never indexed blindly.
        let check = |peer: Rank| -> Result<(), DimemasError> {
            if peer < p && peer != r {
                Ok(())
            } else {
                Err(DimemasError::Stuck(format!(
                    "rank {r} event {} names invalid peer {peer} (p={p})",
                    ev.seq
                )))
            }
        };
        match &ev.kind {
            EventKind::Send { peer, .. }
            | EventKind::Isend { peer, .. }
            | EventKind::Recv { peer, .. }
            | EventKind::Irecv { peer, .. } => check(*peer)?,
            EventKind::Barrier { comm_size }
            | EventKind::Bcast { comm_size, .. }
            | EventKind::Reduce { comm_size, .. }
            | EventKind::Allreduce { comm_size, .. }
            | EventKind::Scatter { comm_size, .. }
            | EventKind::Gather { comm_size, .. }
            | EventKind::Allgather { comm_size, .. }
            | EventKind::Alltoall { comm_size, .. }
                if *comm_size != p =>
            {
                return Err(DimemasError::Stuck(format!(
                    "rank {r} collective names comm size {comm_size}, trace has {p} ranks"
                )));
            }
            _ => {}
        }
        let t = self.states[ri].clock;
        let o = self.model.overhead;
        match ev.kind {
            EventKind::Init | EventKind::Finalize => {
                // Bookkeeping retains its traced duration (CPU-scaled).
                let d = (ev.duration() as f64 * self.model.cpu_factor).round() as Cycles;
                self.resume(r, t + d);
            }
            EventKind::Compute { .. } => {
                // Dimemas replays the traced burst scaled by CPU factor; it
                // has no concept of "pure work vs noise" (difference #1).
                let d = (ev.duration() as f64 * self.model.cpu_factor).round() as Cycles;
                self.resume(r, t + d);
            }
            EventKind::Send {
                peer,
                tag,
                bytes,
                protocol,
            } => {
                // Buffered/ready sends complete locally (§3.1.1); standard
                // and synchronous sends block until the transfer books.
                let local_completion = matches!(
                    protocol,
                    mpg_trace::SendProtocol::Buffered | mpg_trace::SendProtocol::Ready
                );
                let party = if local_completion {
                    Party::Local
                } else {
                    Party::Blocking
                };
                let matched = self.offer(Side::new(r, peer, tag, bytes, t + o, party), true);
                if local_completion {
                    self.resume(r, t + o + self.model.transfer_only(bytes));
                } else if !matched {
                    self.states[ri].blocked = Blocked::AtSend;
                }
            }
            EventKind::Isend {
                peer,
                tag,
                bytes,
                req,
            } => {
                self.offer(
                    Side::new(r, peer, tag, bytes, t + o, Party::Request(req)),
                    true,
                );
                self.resume(r, t + o);
            }
            EventKind::Recv {
                peer, tag, bytes, ..
            } => {
                if !self.offer(
                    Side::new(r, peer, tag, bytes, t + o, Party::Blocking),
                    false,
                ) {
                    self.states[ri].blocked = Blocked::AtRecv { src: peer, tag };
                }
            }
            EventKind::Irecv {
                peer,
                tag,
                bytes,
                req,
                ..
            } => {
                self.offer(
                    Side::new(r, peer, tag, bytes, t + o, Party::Request(req)),
                    false,
                );
                self.resume(r, t + o);
            }
            EventKind::Wait { req } => self.block_on_waits(r, vec![req], t, o),
            EventKind::WaitAll { ref reqs } => self.block_on_waits(r, reqs.clone(), t, o),
            EventKind::WaitSome { ref completed, .. } => {
                self.block_on_waits(r, completed.clone(), t, o);
            }
            EventKind::Test { req, completed } => {
                if completed {
                    self.block_on_waits(r, vec![req], t, o);
                } else {
                    self.resume(r, t + o);
                }
            }
            EventKind::Barrier { comm_size }
            | EventKind::Bcast { comm_size, .. }
            | EventKind::Reduce { comm_size, .. }
            | EventKind::Allreduce { comm_size, .. }
            | EventKind::Scatter { comm_size, .. }
            | EventKind::Gather { comm_size, .. }
            | EventKind::Allgather { comm_size, .. }
            | EventKind::Alltoall { comm_size, .. } => {
                let epoch = self.states[ri].coll_epoch;
                self.states[ri].coll_epoch += 1;
                self.states[ri].blocked = Blocked::AtColl;
                let entries = self.colls.entry(epoch).or_default();
                entries.push((r, t + o));
                if entries.len() == comm_size as usize {
                    let entries = self.colls.remove(&epoch).expect("just filled");
                    let (rounds, bytes) = match ev.kind {
                        EventKind::Reduce { bytes, .. } | EventKind::Gather { bytes, .. } => {
                            (1, bytes)
                        }
                        EventKind::Bcast {
                            bytes, comm_size, ..
                        }
                        | EventKind::Allreduce { bytes, comm_size }
                        | EventKind::Scatter {
                            bytes, comm_size, ..
                        }
                        | EventKind::Allgather { bytes, comm_size } => {
                            ((f64::from(comm_size)).log2().ceil() as u32, bytes)
                        }
                        EventKind::Alltoall { bytes, comm_size } => {
                            (comm_size.saturating_sub(1), bytes)
                        }
                        _ => ((f64::from(comm_size)).log2().ceil() as u32, 0),
                    };
                    let enter = entries.iter().map(|&(_, e)| e).max().expect("non-empty");
                    let per_round = self.model.wire(bytes) + 100 + bytes;
                    let done = enter + u64::from(rounds) * per_round;
                    for (pr, _) in entries {
                        self.resume(pr, done);
                    }
                }
            }
        }
        Ok(())
    }

    /// Offers one side of a transfer to the matcher. When it pairs, books
    /// the transfer and completes both sides, the one that waited in the
    /// matcher first, and returns true.
    fn offer(&mut self, side: Side, is_send: bool) -> bool {
        let pair = if is_send {
            self.matcher.post_send(side)
        } else {
            self.matcher.post_recv(side)
        };
        let Some((send, recv)) = pair else {
            return false;
        };
        let (recv_end, send_end) = self.transfer(send.at, recv.at, send.bytes);
        let mut sides = [
            (send.rank, send.party, send_end),
            (recv.rank, recv.party, recv_end),
        ];
        if is_send {
            sides.reverse();
        }
        for (r, party, at) in sides {
            self.settle(r, party, at);
        }
        true
    }

    /// Completes one side of a booked transfer at `at`.
    fn settle(&mut self, r: Rank, party: Party, at: Cycles) {
        match party {
            Party::Blocking => self.resume(r, at),
            Party::Request(req) => {
                self.states[r as usize].completions.insert(req, at);
                self.maybe_wake_waiter(r);
            }
            Party::Local => {}
        }
    }

    fn block_on_waits(&mut self, r: Rank, reqs: Vec<ReqId>, t: Cycles, o: Cycles) {
        let st = &mut self.states[r as usize];
        if reqs.iter().all(|req| st.completions.contains_key(req)) {
            let latest = reqs
                .iter()
                .map(|req| st.completions.remove(req).expect("checked"))
                .max()
                .unwrap_or(0);
            self.resume(r, (t + o).max(latest));
        } else {
            st.blocked = Blocked::AtWait { reqs };
        }
    }

    /// Rechecks a rank blocked on a wait after one of its requests
    /// completed.
    fn maybe_wake_waiter(&mut self, r: Rank) {
        let ri = r as usize;
        let Blocked::AtWait { reqs } = self.states[ri].blocked.clone() else {
            return;
        };
        if reqs
            .iter()
            .all(|req| self.states[ri].completions.contains_key(req))
        {
            let t = self.states[ri].clock;
            let o = self.model.overhead;
            let latest = reqs
                .iter()
                .map(|req| self.states[ri].completions.remove(req).expect("checked"))
                .max()
                .unwrap_or(0);
            self.resume(r, (t + o).max(latest));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpg_noise::PlatformSignature;
    use mpg_sim::Simulation;

    fn traced(p: u32, f: impl Fn(&mut mpg_sim::RankCtx) + Sync) -> MemTrace {
        Simulation::new(p, PlatformSignature::quiet("lab"))
            .ideal_clocks()
            .run(f)
            .unwrap()
            .trace
    }

    fn model() -> MachineModel {
        MachineModel::from_signature(&PlatformSignature::quiet("lab"))
    }

    #[test]
    fn replays_compute_only() {
        let trace = traced(1, |ctx| ctx.compute(100_000));
        let report = DimemasReplay::new(model()).run(&trace).unwrap();
        // init(1000) + compute(100_000) + finalize(1000)
        assert_eq!(report.finish_times, vec![102_000]);
    }

    #[test]
    fn cpu_factor_scales_compute() {
        let trace = traced(1, |ctx| ctx.compute(100_000));
        let mut m = model();
        m.cpu_factor = 2.0;
        let report = DimemasReplay::new(m).run(&trace).unwrap();
        assert_eq!(report.makespan(), 204_000);
    }

    #[test]
    fn same_model_reproduces_simulated_pingpong() {
        // Replaying a quiet-platform trace with the quiet machine model must
        // land very close to the original timings.
        let trace = traced(2, |ctx| {
            for _ in 0..10 {
                if ctx.rank() == 0 {
                    ctx.send(1, 0, 1000);
                    ctx.recv(1, 1);
                } else {
                    ctx.recv(0, 0);
                    ctx.send(0, 1, 1000);
                }
            }
        });
        let original_end = trace.rank(0).last().unwrap().t_end;
        let report = DimemasReplay::new(model()).run(&trace).unwrap();
        let rel_err = (report.makespan() as f64 - original_end as f64).abs() / original_end as f64;
        assert!(rel_err < 0.05, "rel_err = {rel_err}");
    }

    #[test]
    fn higher_latency_model_predicts_slowdown() {
        let trace = traced(2, |ctx| {
            for _ in 0..20 {
                if ctx.rank() == 0 {
                    ctx.send(1, 0, 64);
                    ctx.recv(1, 1);
                } else {
                    ctx.recv(0, 0);
                    ctx.send(0, 1, 64);
                }
            }
        });
        let base = DimemasReplay::new(model()).run(&trace).unwrap().makespan();
        let mut slow = model();
        slow.latency *= 10.0;
        let slowed = DimemasReplay::new(slow).run(&trace).unwrap().makespan();
        // Critical path gains ~2 wire hops × (20k − 2k) per iteration (the
        // ack hops overlap with the reverse transfer).
        assert!(
            slowed > base + 20 * 2 * 15_000,
            "slowed={slowed} base={base}"
        );
    }

    #[test]
    fn bus_contention_serializes_transfers() {
        // Four simultaneous pairwise transfers of a large message.
        let trace = traced(8, |ctx| {
            let r = ctx.rank();
            if r % 2 == 0 {
                ctx.send(r + 1, 0, 1 << 20);
            } else {
                ctx.recv(r - 1, 0);
            }
        });
        let free = DimemasReplay::new(model()).run(&trace).unwrap().makespan();
        let mut contended_model = model();
        contended_model.buses = 1;
        let contended = DimemasReplay::new(contended_model)
            .run(&trace)
            .unwrap()
            .makespan();
        // One bus forces the four 512k-cycle transfers to serialize.
        assert!(
            contended > free + 3 * 500_000,
            "contended={contended} free={free}"
        );
    }

    #[test]
    fn nonblocking_trace_replays() {
        let trace = traced(2, |ctx| {
            if ctx.rank() == 0 {
                let a = ctx.isend(1, 0, 128);
                let b = ctx.irecv(1, 1);
                ctx.compute(10_000);
                ctx.waitall(&[a, b]);
            } else {
                let a = ctx.irecv(0, 0);
                let b = ctx.isend(0, 1, 256);
                ctx.waitall(&[a, b]);
            }
        });
        let report = DimemasReplay::new(model()).run(&trace).unwrap();
        assert!(report.makespan() > 0);
    }

    #[test]
    fn earliest_posted_receive_takes_the_first_message() {
        // Rank 1 is already blocked in the recv when the first message
        // arrives, but the irecv was posted before it, so the irecv takes
        // that message and the recv waits for the second, 10⁶ cycles later;
        // the compute burst runs after that.
        let trace = traced(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.compute(100_000);
                ctx.send(1, 5, 64);
                ctx.compute(1_000_000);
                ctx.send(1, 5, 64);
            } else {
                let req = ctx.irecv(0, 5);
                ctx.recv(0, 5);
                ctx.compute(1_000_000);
                ctx.wait(req);
            }
        });
        let truth = trace.rank(1).last().unwrap().t_end;
        let report = DimemasReplay::new(model()).run(&trace).unwrap();
        let predicted = report.finish_times[1];
        let rel_err = (predicted as f64 - truth as f64).abs() / truth as f64;
        assert!(rel_err < 0.05, "predicted {predicted}, simulated {truth}");
    }

    #[test]
    fn collective_trace_replays() {
        let trace = traced(8, |ctx| {
            ctx.compute(10_000);
            ctx.allreduce(256);
            ctx.barrier();
        });
        let report = DimemasReplay::new(model()).run(&trace).unwrap();
        // 3 rounds × (wire(256)+356) for allreduce + 3 × (wire(0)+100).
        assert!(report.makespan() > 10_000);
        assert_eq!(report.finish_times.len(), 8);
    }

    #[test]
    fn stuck_trace_detected() {
        let mut mt = MemTrace::new(1);
        mt.push(EventRecord {
            rank: 0,
            seq: 0,
            t_start: 0,
            t_end: 10,
            kind: EventKind::Recv {
                peer: 0,
                tag: 0,
                bytes: 0,
                posted_any: false,
            },
        });
        let err = DimemasReplay::new(model()).run(&mt).unwrap_err();
        assert!(matches!(err, DimemasError::Stuck(_)));
    }

    #[test]
    fn deterministic() {
        let trace = traced(4, |ctx| {
            ctx.compute(5_000);
            ctx.allreduce(64);
        });
        let a = DimemasReplay::new(model()).run(&trace).unwrap();
        let b = DimemasReplay::new(model()).run(&trace).unwrap();
        assert_eq!(a, b);
    }
}
