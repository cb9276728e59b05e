//! Partition-parallel replay: ranks split into shards, each replayed by
//! its own [`Engine`](crate::replay) on its own thread, with cross-shard
//! effects routed through a deterministic exchange.
//!
//! # Why the result is bit-identical to single-threaded replay
//!
//! The engine's observable outputs are max-plus algebra over sampled
//! deltas, and every source of nondeterminism is structurally absent:
//!
//! * **Shared code.** A single engine is the one-shard case of this
//!   protocol: the drain loop, the collective entry (draw at entry) and
//!   the collective resolver (fold, tally and record at fill) are the
//!   same code in both modes, and only the exchange is skipped. What the
//!   shards compute is therefore not a second protocol that must match
//!   the first; the arguments below are about what splitting the ranks
//!   can change.
//! * **Sampling.** [`PerturbSampler`](crate::perturb::PerturbSampler)
//!   keeps an independent RNG stream per `(rank, class group)`, and every
//!   delta for rank `r` is drawn by the shard that owns `r`, in `r`'s own
//!   program order. Thread interleaving cannot reorder draws within a
//!   stream.
//! * **Matching.** Channels are per-`(src, dst)` FIFOs and each shard's
//!   inbox preserves per-sender envelope order, so the k-th send on a
//!   channel always pairs with the k-th receive no matter which side's
//!   shard runs ahead.
//! * **Folding.** Every cross-rank combination — message arms, collective
//!   hubs, acknowledgement candidates — is a `max`, which is commutative
//!   and associative, so arrival order of contributions is irrelevant.
//!
//! Scheduler-order diagnostics (`scheduler_wakeups`, `polls_avoided`,
//! `window_high_water`) are the deliberate exception: they describe each
//! shard's private schedule and are merged additively/by-max, not
//! reproduced. The merged report records its engine count, and the
//! rendered report leaves the `scheduler:` line out when it is above 1,
//! so sharded stdout is the same on every run.
//!
//! # Termination
//!
//! A shard drains its ready set, then blocks on the exchange. The run is
//! over exactly when every shard is blocked *and* no envelope is in
//! flight — at that point no wakeup source can ever fire again, which is
//! also how deadlocked traces are detected (a shard left with blocked
//! owned ranks reports them with the single engine's no-progress
//! diagnostic, from the same code).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use mpg_trace::{EventRecord, Rank, TraceError};

use crate::replay::{AckEdges, CollEntry, ReplayConfig};
use crate::report::ReplayError;
use crate::report::ReplayReport;
use crate::stream::{SendRecord, SenderRef};
use crate::Drift;

/// One cross-shard effect. `V` is the drift payload (always [`Drift`] for
/// the scalar sharded path; kept generic so the engine's hook sites
/// type-check for every bank).
#[derive(Debug, Clone)]
pub(crate) enum Envelope<V> {
    /// A send whose receiver lives on another shard: the full send record,
    /// delivered to the receiver's matching state.
    Offer {
        /// Sending rank.
        src: Rank,
        /// Receiving rank (owned by the destination shard).
        dst: Rank,
        /// The sampled send record.
        rec: SendRecord<V>,
    },
    /// A resolved acknowledgement whose sender lives on another shard.
    Ack {
        /// Who completes the send side.
        sender: SenderRef,
        /// The completed drift constraint.
        candidate: V,
        /// Graph edges reproducing the candidate (unused: sharded replay
        /// never records a graph, but the payload keeps the hook site
        /// uniform).
        edges: AckEdges,
    },
    /// One rank's collective entry, broadcast to every other shard: the
    /// owner drew its `lδ` when the rank entered.
    Coll {
        /// Global collective epoch.
        epoch: u64,
        /// Collective kind, for cross-rank mismatch validation.
        kind_name: &'static str,
        /// Payload size, for mismatch validation.
        bytes: u64,
        /// The entry: contributing rank, `D(entry) + lδ`, the draw.
        entry: CollEntry<V>,
    },
}

/// What a blocked shard gets back from the exchange.
pub(crate) enum Inbox<V> {
    /// Envelopes to apply, in per-sender order.
    Messages(Vec<Envelope<V>>),
    /// Global quiescence: every shard blocked, nothing in flight.
    Done,
    /// Another shard failed; its error message.
    Poisoned(String),
}

struct ExchangeState<V> {
    inboxes: Vec<VecDeque<Envelope<V>>>,
    /// Envelopes sent but not yet drained by their destination.
    in_flight: usize,
    /// Shards currently blocked inside `recv`.
    idle: usize,
    done: bool,
    poisoned: Option<String>,
    /// Global leak totals deposited by each shard at finish, so the merged
    /// report can carry the exact single-engine §4.3 warning.
    leaks: (usize, usize, usize),
}

/// The cross-shard message fabric: per-shard FIFO inboxes behind one
/// mutex, with condvar-based blocking and distributed-termination
/// detection (`idle == shards && in_flight == 0`).
pub(crate) struct Exchange<V> {
    state: Mutex<ExchangeState<V>>,
    cv: Condvar,
    shards: usize,
}

impl<V> Exchange<V> {
    pub(crate) fn new(shards: usize) -> Self {
        Self {
            state: Mutex::new(ExchangeState {
                inboxes: (0..shards).map(|_| VecDeque::new()).collect(),
                in_flight: 0,
                idle: 0,
                done: false,
                poisoned: None,
                leaks: (0, 0, 0),
            }),
            cv: Condvar::new(),
            shards,
        }
    }

    pub(crate) fn send(&self, to: usize, env: Envelope<V>) {
        let mut st = self.state.lock().expect("exchange lock");
        st.inboxes[to].push_back(env);
        st.in_flight += 1;
        self.cv.notify_all();
    }

    /// Blocks until envelopes arrive for `me`, the run quiesces, or a peer
    /// poisons the exchange.
    pub(crate) fn recv(&self, me: usize) -> Inbox<V> {
        let mut st = self.state.lock().expect("exchange lock");
        loop {
            if let Some(msg) = &st.poisoned {
                return Inbox::Poisoned(msg.clone());
            }
            if !st.inboxes[me].is_empty() {
                let msgs: Vec<Envelope<V>> = st.inboxes[me].drain(..).collect();
                st.in_flight -= msgs.len();
                return Inbox::Messages(msgs);
            }
            if st.done {
                return Inbox::Done;
            }
            st.idle += 1;
            if st.idle == self.shards && st.in_flight == 0 {
                // Every shard is blocked and no envelope is in flight: no
                // wakeup source can ever fire again.
                st.done = true;
                self.cv.notify_all();
                return Inbox::Done;
            }
            st = self.cv.wait(st).expect("exchange lock");
            st.idle -= 1;
        }
    }

    /// Marks the run failed; wakes every blocked shard. First error wins.
    pub(crate) fn poison(&self, msg: String) {
        let mut st = self.state.lock().expect("exchange lock");
        if st.poisoned.is_none() {
            st.poisoned = Some(msg);
        }
        self.cv.notify_all();
    }

    /// Deposits one shard's post-replay leak counts (open requests,
    /// unmatched sends, unmatched receives).
    pub(crate) fn add_leaks(&self, open: usize, sends: usize, recvs: usize) {
        let mut st = self.state.lock().expect("exchange lock");
        st.leaks.0 += open;
        st.leaks.1 += sends;
        st.leaks.2 += recvs;
    }

    fn leaks(&self) -> (usize, usize, usize) {
        self.state.lock().expect("exchange lock").leaks
    }
}

/// Balanced contiguous rank→shard assignment: the first `ranks % shards`
/// shards own one extra rank. Pure arithmetic, `Copy`, shared by every
/// shard and the merge step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RankOwners {
    ranks: usize,
    shards: usize,
}

impl RankOwners {
    pub(crate) fn new(ranks: usize, shards: usize) -> Self {
        Self {
            ranks: ranks.max(1),
            shards: shards.clamp(1, ranks.max(1)),
        }
    }

    /// The shard owning `rank`. Out-of-range ranks (possible only in
    /// corrupt traces) clamp to the last shard, which then holds their
    /// unmatched records — the same "queued, never matched" outcome the
    /// single-threaded engine gives them.
    pub(crate) fn owner(&self, rank: Rank) -> usize {
        let r = (rank as usize).min(self.ranks - 1);
        let q = self.ranks / self.shards;
        let rem = self.ranks % self.shards;
        if r < rem * (q + 1) {
            r / (q + 1)
        } else {
            rem + (r - rem * (q + 1)) / q
        }
    }

    /// How many ranks `shard` owns.
    pub(crate) fn count(&self, shard: usize) -> usize {
        let q = self.ranks / self.shards;
        q + usize::from(shard < self.ranks % self.shards)
    }

    pub(crate) fn shards(&self) -> usize {
        self.shards
    }
}

/// One shard's handle on the parallel run, threaded into its engine.
pub(crate) struct ShardCtx<V> {
    pub(crate) exchange: Arc<Exchange<V>>,
    pub(crate) me: usize,
    pub(crate) owners: RankOwners,
}

impl<V> Clone for ShardCtx<V> {
    fn clone(&self) -> Self {
        Self {
            exchange: Arc::clone(&self.exchange),
            me: self.me,
            owners: self.owners,
        }
    }
}

impl<V> ShardCtx<V> {
    /// Number of ranks this shard owns (collective drain count).
    pub(crate) fn owned_count(&self) -> usize {
        self.owners.count(self.me)
    }
}

/// A full-length stream slot: `Some` for ranks this shard owns, `None`
/// (immediately exhausted) elsewhere, so every shard's engine indexes
/// cursors by global rank with no remapping.
pub(crate) struct ShardStream<I>(Option<I>);

impl<I: Iterator> Iterator for ShardStream<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        self.0.as_mut()?.next()
    }
}

/// Runs a scalar replay over `shards` threads and merges the per-shard
/// reports into one, bit-identical (drifts, timeline, arm/absorption
/// accounting, warnings) to the single-threaded engine except for the
/// scheduler-order diagnostics documented on the module.
pub(crate) fn run_sharded_scalar<I>(
    config: &ReplayConfig,
    streams: Vec<I>,
    shards: usize,
) -> Result<ReplayReport, ReplayError>
where
    I: Iterator<Item = Result<EventRecord, TraceError>> + Send,
{
    use crate::replay::{Engine, EngineKnobs, ScalarBank};

    let p = streams.len();
    let owners = RankOwners::new(p, shards);
    let shards = owners.shards();
    let exchange: Arc<Exchange<Drift>> = Arc::new(Exchange::new(shards));

    // Route each rank's stream to its owner; every shard gets a
    // full-length vector with `None` holes.
    let mut per_shard: Vec<Vec<ShardStream<I>>> = (0..shards)
        .map(|_| (0..p).map(|_| ShardStream(None)).collect())
        .collect();
    for (r, s) in streams.into_iter().enumerate() {
        per_shard[owners.owner(r as Rank)][r] = ShardStream(Some(s));
    }

    let results: Vec<Result<Vec<ReplayReport>, ReplayError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_shard
            .into_iter()
            .enumerate()
            .map(|(me, shard_streams)| {
                let ctx = ShardCtx {
                    exchange: Arc::clone(&exchange),
                    me,
                    owners,
                };
                let bank = ScalarBank::new(config, p);
                let knobs = EngineKnobs::of(config);
                scope.spawn(move || {
                    Engine::new(knobs, bank, shard_streams)
                        .with_shard(ctx)
                        .run()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });

    let mut parts = Vec::with_capacity(shards);
    for res in results {
        parts.push(res?.into_iter().next().expect("one report per shard"));
    }
    Ok(merge_reports(parts, owners, exchange.leaks()))
}

/// Stitches per-shard reports into the single report the one-engine run
/// would have produced: per-rank columns come from each rank's owner,
/// additive tallies are summed, and the collective count (which every
/// shard observes in full) comes from shard 0.
fn merge_reports(
    mut parts: Vec<ReplayReport>,
    owners: RankOwners,
    leaks: (usize, usize, usize),
) -> ReplayReport {
    let p = parts[0].final_drift.len();
    let mut merged = parts.remove(0);
    let shard0_collectives = merged.stats.collectives;
    for part in parts {
        merged.stats.events += part.stats.events;
        merged.stats.messages_matched += part.stats.messages_matched;
        merged.stats.injected_total += part.stats.injected_total;
        for (w, pw) in merged.stats.arm_wins.iter_mut().zip(part.stats.arm_wins) {
            *w += pw;
        }
        merged.stats.absorbed_message_drift += part.stats.absorbed_message_drift;
        merged.stats.propagated_message_drift += part.stats.propagated_message_drift;
        merged.stats.scheduler_wakeups += part.stats.scheduler_wakeups;
        merged.stats.polls_avoided += part.stats.polls_avoided;
        merged.stats.window_high_water = merged
            .stats
            .window_high_water
            .max(part.stats.window_high_water);
        for r in 0..p {
            if owners.owner(r as Rank) != 0 {
                // `parts` lost its indices to `remove(0)`; recompute which
                // part owns r lazily via drift equality-free assignment:
                // every non-owner column is zero, so copying from the
                // owning part is the same as summing all non-shard-0
                // columns. Summing keeps this O(shards · p) and avoids
                // re-indexing.
                merged.final_drift[r] += part.final_drift[r];
                merged.projected_finish_local[r] += part.projected_finish_local[r];
                if !part.timeline.is_empty() && !part.timeline[r].is_empty() {
                    merged.timeline[r] = part.timeline[r].clone();
                }
            }
        }
        merged.warnings.extend(part.warnings);
    }
    merged.stats.collectives = shard0_collectives;
    merged.stats.engines = owners.shards() as u32;
    let (open, sends, recvs) = leaks;
    if open > 0 || sends > 0 || recvs > 0 {
        merged.warnings.push(format!(
            "unsynchronized asynchronous traffic: {open} open request(s), {sends} unmatched \
             send(s), {recvs} unmatched receive(s); perturbed event ordering is not \
             guaranteed to be correct"
        ));
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owners_partition_is_balanced_and_total() {
        for p in 1..40usize {
            for s in 1..10usize {
                let o = RankOwners::new(p, s);
                let mut counts = vec![0usize; o.shards()];
                for r in 0..p {
                    counts[o.owner(r as Rank)] += 1;
                }
                for (shard, &c) in counts.iter().enumerate() {
                    assert_eq!(c, o.count(shard), "p={p} s={s} shard={shard}");
                    assert!(c > 0, "empty shard p={p} s={s}");
                }
                // Contiguity: owner is monotone in rank.
                for r in 1..p {
                    assert!(o.owner(r as Rank) >= o.owner((r - 1) as Rank));
                }
            }
        }
    }

    #[test]
    fn out_of_range_rank_clamps_to_last_shard() {
        let o = RankOwners::new(8, 4);
        assert_eq!(o.owner(Rank::MAX), 3);
    }

    #[test]
    fn exchange_quiesces_when_all_idle() {
        let ex: Arc<Exchange<Drift>> = Arc::new(Exchange::new(2));
        let ex2 = Arc::clone(&ex);
        let t = std::thread::spawn(move || matches!(ex2.recv(1), Inbox::Done));
        assert!(matches!(ex.recv(0), Inbox::Done));
        assert!(t.join().unwrap());
    }

    #[test]
    fn exchange_delivers_in_order_then_quiesces() {
        let ex: Arc<Exchange<Drift>> = Arc::new(Exchange::new(2));
        ex.send(
            1,
            Envelope::Ack {
                sender: SenderRef::Done,
                candidate: 1,
                edges: AckEdges::none(),
            },
        );
        ex.send(
            1,
            Envelope::Ack {
                sender: SenderRef::Done,
                candidate: 2,
                edges: AckEdges::none(),
            },
        );
        let Inbox::Messages(msgs) = ex.recv(1) else {
            panic!("expected messages");
        };
        let vals: Vec<Drift> = msgs
            .iter()
            .map(|m| match m {
                Envelope::Ack { candidate, .. } => *candidate,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(vals, vec![1, 2]);
        let ex2 = Arc::clone(&ex);
        let t = std::thread::spawn(move || matches!(ex2.recv(1), Inbox::Done));
        assert!(matches!(ex.recv(0), Inbox::Done));
        assert!(t.join().unwrap());
    }

    #[test]
    fn poison_wakes_blocked_shards() {
        let ex: Arc<Exchange<Drift>> = Arc::new(Exchange::new(2));
        let ex2 = Arc::clone(&ex);
        let t = std::thread::spawn(move || match ex2.recv(1) {
            Inbox::Poisoned(msg) => msg,
            _ => "wrong outcome".into(),
        });
        // Give the receiver a moment to block, then poison.
        std::thread::sleep(std::time::Duration::from_millis(20));
        ex.poison("boom".into());
        assert_eq!(t.join().unwrap(), "boom");
    }
}
