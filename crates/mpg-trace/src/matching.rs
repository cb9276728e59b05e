//! MPI message matching: the one kernel that decides which send a receive
//! takes (§4.1: "this counterpart can be found simply by processing each
//! event in order on each processor").
//!
//! [`EnvelopeMatcher`] is generic over anything implementing
//! [`SendEnvelope`]/[`RecvEnvelope`], so every consumer keeps its own
//! payload and shares the rules: the simulator's coordinator, the lint
//! crate's progress simulation, the replay engine's `MatchState` and the
//! Dimemas baseline all instantiate it. The rules — non-overtaking per
//! `(src, dst)`, earliest posted receive, wildcard arbitration, and the
//! concrete-pattern case replay and the DES use — are stated once, in
//! MP-net terms, on the linear-scan reference in
//! `crates/mpg-trace/tests/shared/match_reference.rs`, which the property
//! tests hold this matcher to. Send protocols (eager, rendezvous) and
//! request lifetime are not matching decisions and stay with the callers.

use std::collections::VecDeque;

use crate::{Rank, Tag, ANY_SOURCE, ANY_TAG};

/// The send side of a message envelope, as the matcher sees it.
pub trait SendEnvelope {
    /// Sender rank.
    fn src(&self) -> Rank;
    /// Destination rank.
    fn dst(&self) -> Rank;
    /// Message tag.
    fn tag(&self) -> Tag;
    /// Arrival stamp used to order wildcard candidates (any monotone
    /// quantity; the simulator uses global arrival time). Never read for a
    /// concrete receive type.
    fn arrival(&self) -> u64;
}

/// The receive side of a message envelope, as the matcher sees it.
pub trait RecvEnvelope {
    /// True for receive types whose pattern is always the source and tag
    /// the recorded run matched (replay, the DES): `ANY_SOURCE` and
    /// `ANY_TAG` are then ordinary values that only an equal envelope
    /// accepts, as a corrupt trace may name them.
    const CONCRETE: bool = false;

    /// Receiver rank.
    fn dst(&self) -> Rank;
    /// Source pattern (`ANY_SOURCE` allowed).
    fn src_pattern(&self) -> Rank;
    /// Tag pattern (`ANY_TAG` allowed).
    fn tag_pattern(&self) -> Tag;

    /// Does this receive accept a message with `(src, tag)`?
    fn accepts(&self, src: Rank, tag: Tag) -> bool {
        let (s, t) = (self.src_pattern(), self.tag_pattern());
        if Self::CONCRETE {
            s == src && t == tag
        } else {
            (s == ANY_SOURCE || s == src) && (t == ANY_TAG || t == tag)
        }
    }
}

/// Unmatched sends of one `(src, dst)` channel, in send order.
#[derive(Debug)]
struct Channel<S> {
    src: Rank,
    queue: VecDeque<S>,
}

/// Unmatched traffic addressed to one destination rank.
#[derive(Debug)]
struct Dest<S, R> {
    rank: Rank,
    /// One queue per source that ever left a message here, ascending by
    /// source. A drained queue stays, so a channel allocates once however
    /// often it empties.
    channels: Vec<Channel<S>>,
    /// Unmatched posted receives, in post order.
    posted: Vec<R>,
}

impl<S, R> Dest<S, R> {
    fn channel(&self, src: Rank) -> Option<usize> {
        self.channels.binary_search_by_key(&src, |c| c.src).ok()
    }

    fn channel_mut(&mut self, src: Rank) -> &mut Channel<S> {
        let c = match self.channels.binary_search_by_key(&src, |c| c.src) {
            Ok(c) => c,
            Err(c) => {
                let channel = Channel {
                    src,
                    queue: VecDeque::new(),
                };
                self.channels.insert(c, channel);
                c
            }
        };
        &mut self.channels[c]
    }
}

// `clone_from` is written out for the three state types so that copying
// one matcher over another — which the lint crate does once per forked
// witness replay — refills the queues it already owns instead of
// allocating new ones (`derive(Clone)` would not).
impl<S: Clone> Clone for Channel<S> {
    fn clone(&self) -> Self {
        Channel {
            src: self.src,
            queue: self.queue.clone(),
        }
    }

    fn clone_from(&mut self, other: &Self) {
        self.src = other.src;
        self.queue.clone_from(&other.queue);
    }
}

impl<S: Clone, R: Clone> Clone for Dest<S, R> {
    fn clone(&self) -> Self {
        Dest {
            rank: self.rank,
            channels: self.channels.clone(),
            posted: self.posted.clone(),
        }
    }

    fn clone_from(&mut self, other: &Self) {
        self.rank = other.rank;
        self.channels.clone_from(&other.channels);
        self.posted.clone_from(&other.posted);
    }
}

/// Pure matching state over generic envelopes: in-flight (unexpected)
/// messages and posted receives.
///
/// Both are filed under their destination, and the destinations and each
/// destination's source channels are kept sorted by rank and found by
/// binary search: nothing is hashed, any `Rank` value costs one entry, and
/// the orders the rules need (lowest source among equal arrivals, channel
/// order for [`EnvelopeMatcher::into_unmatched`]) are the storage order.
#[derive(Debug)]
pub struct EnvelopeMatcher<S, R> {
    dests: Vec<Dest<S, R>>,
    in_flight: usize,
    posted: usize,
    next_order: u64,
}

impl<S, R> Default for EnvelopeMatcher<S, R> {
    fn default() -> Self {
        EnvelopeMatcher {
            dests: Vec::new(),
            in_flight: 0,
            posted: 0,
            next_order: 0,
        }
    }
}

impl<S: Clone, R: Clone> Clone for EnvelopeMatcher<S, R> {
    fn clone(&self) -> Self {
        EnvelopeMatcher {
            dests: self.dests.clone(),
            in_flight: self.in_flight,
            posted: self.posted,
            next_order: self.next_order,
        }
    }

    fn clone_from(&mut self, other: &Self) {
        self.dests.clone_from(&other.dests);
        self.in_flight = other.in_flight;
        self.posted = other.posted;
        self.next_order = other.next_order;
    }
}

impl<S: SendEnvelope, R: RecvEnvelope> EnvelopeMatcher<S, R> {
    /// Creates an empty matcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Monotone order stamp for posted receives.
    pub fn next_post_order(&mut self) -> u64 {
        let o = self.next_order;
        self.next_order += 1;
        o
    }

    /// Where `rank`'s destination is (`Ok`) or belongs (`Err`). In a run
    /// whose ranks all receive, the destinations are exactly `0..p`, so
    /// position `rank` is looked at before searching.
    fn find_dest(&self, rank: Rank) -> Result<usize, usize> {
        match self.dests.get(rank as usize) {
            Some(d) if d.rank == rank => Ok(rank as usize),
            _ => self.dests.binary_search_by_key(&rank, |d| d.rank),
        }
    }

    fn dest(&self, rank: Rank) -> Option<&Dest<S, R>> {
        Some(&self.dests[self.find_dest(rank).ok()?])
    }

    /// Index of `rank`'s destination, created empty if absent.
    fn dest_index(&mut self, rank: Rank) -> usize {
        self.find_dest(rank).unwrap_or_else(|i| {
            let dest = Dest {
                rank,
                channels: Vec::new(),
                posted: Vec::new(),
            };
            self.dests.insert(i, dest);
            i
        })
    }

    /// Offers a send to the matcher. If a posted receive accepts it, the
    /// matched pair is returned; otherwise the message is queued.
    pub fn post_send(&mut self, msg: S) -> Option<(S, R)> {
        let d = self.dest_index(msg.dst());
        let dest = &mut self.dests[d];
        if let Some(i) = dest
            .posted
            .iter()
            .position(|pr| pr.accepts(msg.src(), msg.tag()))
        {
            let pr = dest.posted.remove(i);
            self.posted -= 1;
            return Some((msg, pr));
        }
        dest.channel_mut(msg.src()).queue.push_back(msg);
        self.in_flight += 1;
        None
    }

    /// Offers a posted receive. If an in-flight message matches, the matched
    /// pair is returned; otherwise the receive is queued.
    pub fn post_recv(&mut self, pr: R) -> Option<(S, R)> {
        let d = self.dest_index(pr.dst());
        if let Some(msg) = self.take_from(d, &pr) {
            return Some((msg, pr));
        }
        self.dests[d].posted.push(pr);
        self.posted += 1;
        None
    }

    /// Takes the in-flight message [`post_recv`](Self::post_recv) would pair
    /// `pr` with, without posting anything when there is none: the probe of
    /// a blocking receive that stalls and retries instead of being posted.
    /// `pr` may be any receive type, so such a probe carries no payload.
    pub fn take_match<P: RecvEnvelope>(&mut self, pr: &P) -> Option<S> {
        let d = self.find_dest(pr.dst()).ok()?;
        self.take_from(d, pr)
    }

    /// Takes the message `pr` matches from destination `d`'s channels.
    fn take_from<P: RecvEnvelope>(&mut self, d: usize, pr: &P) -> Option<S> {
        let dest = &mut self.dests[d];
        let first_accepted =
            |ch: &Channel<S>| ch.queue.iter().position(|m| pr.accepts(m.src(), m.tag()));
        let (c, i) = if !P::CONCRETE && pr.src_pattern() == ANY_SOURCE {
            // Candidate = first pattern-matching message per source channel;
            // choose the earliest arrival. Channels ascend by source, so
            // keeping the first of equal arrivals is the lowest source.
            let mut best: Option<(u64, usize, usize)> = None;
            for (c, ch) in dest.channels.iter().enumerate() {
                if let Some(i) = first_accepted(ch) {
                    let arrival = ch.queue[i].arrival();
                    if best.is_none_or(|b| arrival < b.0) {
                        best = Some((arrival, c, i));
                    }
                }
            }
            best.map(|(_, c, i)| (c, i))
        } else {
            dest.channel(pr.src_pattern())
                .and_then(|c| first_accepted(&dest.channels[c]).map(|i| (c, i)))
        }?;
        let msg = dest.channels[c].queue.remove(i).expect("position in queue");
        self.in_flight -= 1;
        Some(msg)
    }

    /// Distinct source ranks with an in-flight message this receive would
    /// accept, sorted ascending. For a wildcard receive, two or more
    /// feasible sources at match time is exactly the nondeterminism the
    /// `MPG-WILD-RACE` lint reports.
    pub fn candidate_sources(&self, pr: &R) -> Vec<Rank> {
        let Some(dest) = self.dest(pr.dst()) else {
            return Vec::new();
        };
        dest.channels
            .iter()
            .filter(|ch| ch.queue.iter().any(|m| pr.accepts(m.src(), m.tag())))
            .map(|ch| ch.src)
            .collect()
    }

    /// Number of unmatched in-flight messages (bounded-memory accounting for
    /// the windowed analyzer and for leak checks at finalize).
    pub fn in_flight_count(&self) -> usize {
        self.in_flight
    }

    /// Number of unmatched posted receives.
    pub fn posted_count(&self) -> usize {
        self.posted
    }

    /// Every unmatched in-flight message, channel by channel.
    pub fn iter_in_flight(&self) -> impl Iterator<Item = &S> {
        self.dests
            .iter()
            .flat_map(|d| d.channels.iter().flat_map(|ch| ch.queue.iter()))
    }

    /// Every unmatched posted receive.
    pub fn iter_posted(&self) -> impl Iterator<Item = &R> {
        self.dests.iter().flat_map(|d| d.posted.iter())
    }

    /// Consume the matcher, returning the leftover unmatched sends and
    /// receives in deterministic order (sends by channel then FIFO,
    /// receives by destination then post order).
    pub fn into_unmatched(self) -> (Vec<S>, Vec<R>) {
        let mut channels: Vec<((Rank, Rank), VecDeque<S>)> = Vec::new();
        let mut recvs = Vec::with_capacity(self.posted);
        for dest in self.dests {
            recvs.extend(dest.posted);
            for ch in dest.channels {
                if !ch.queue.is_empty() {
                    channels.push(((ch.src, dest.rank), ch.queue));
                }
            }
        }
        channels.sort_by_key(|&(ch, _)| ch);
        let sends = channels.into_iter().flat_map(|(_, q)| q).collect();
        (sends, recvs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One envelope type for both sides: a send's arrival or a receive's
    /// post order is its `stamp`, a receive's pattern its `src` and `tag`.
    #[derive(Debug)]
    struct Env {
        src: Rank,
        dst: Rank,
        tag: Tag,
        stamp: u64,
    }

    impl SendEnvelope for Env {
        fn src(&self) -> Rank {
            self.src
        }
        fn dst(&self) -> Rank {
            self.dst
        }
        fn tag(&self) -> Tag {
            self.tag
        }
        fn arrival(&self) -> u64 {
            self.stamp
        }
    }

    impl RecvEnvelope for Env {
        fn dst(&self) -> Rank {
            self.dst
        }
        fn src_pattern(&self) -> Rank {
            self.src
        }
        fn tag_pattern(&self) -> Tag {
            self.tag
        }
    }

    type Matcher = EnvelopeMatcher<Env, Env>;

    fn msg(src: Rank, dst: Rank, tag: Tag, arrival: u64) -> Env {
        Env {
            src,
            dst,
            tag,
            stamp: arrival,
        }
    }

    fn recv(dst: Rank, src: Rank, tag: Tag, order: u64) -> Env {
        Env {
            src,
            dst,
            tag,
            stamp: order,
        }
    }

    #[test]
    fn send_then_recv_matches() {
        let mut e = Matcher::new();
        assert!(e.post_send(msg(0, 1, 5, 100)).is_none());
        let (m, _) = e.post_recv(recv(1, 0, 5, 0)).expect("should match");
        assert_eq!(m.tag, 5);
        assert_eq!(e.in_flight_count(), 0);
        assert_eq!(e.posted_count(), 0);
    }

    #[test]
    fn recv_then_send_matches() {
        let mut e = Matcher::new();
        assert!(e.post_recv(recv(1, 0, 5, 0)).is_none());
        let (_, pr) = e.post_send(msg(0, 1, 5, 100)).expect("should match");
        assert_eq!(pr.tag, 5);
    }

    #[test]
    fn non_overtaking_same_pattern() {
        let mut e = Matcher::new();
        e.post_send(msg(0, 1, 5, 300)); // first sent, arrives later
        e.post_send(msg(0, 1, 5, 100));
        let (m, _) = e.post_recv(recv(1, 0, 5, 0)).unwrap();
        // Send order wins over arrival order within a channel.
        assert_eq!(m.stamp, 300);
    }

    #[test]
    fn tag_selectivity_skips_non_matching() {
        let mut e = Matcher::new();
        e.post_send(msg(0, 1, 3, 100));
        e.post_send(msg(0, 1, 5, 200));
        let (m, _) = e.post_recv(recv(1, 0, 5, 0)).unwrap();
        assert_eq!(m.tag, 5);
        assert_eq!(e.in_flight_count(), 1); // tag-3 message still queued
    }

    #[test]
    fn posted_receive_order_respected() {
        let mut e = Matcher::new();
        e.post_recv(recv(1, 0, ANY_TAG, 0));
        e.post_recv(recv(1, 0, 5, 1));
        let (_, pr) = e.post_send(msg(0, 1, 5, 100)).unwrap();
        // Earliest posted matching receive (the ANY_TAG one) wins.
        assert_eq!(pr.stamp, 0);
    }

    #[test]
    fn any_source_picks_earliest_arrival() {
        let mut e = Matcher::new();
        e.post_send(msg(2, 1, 5, 500));
        e.post_send(msg(3, 1, 5, 200));
        let (m, _) = e.post_recv(recv(1, ANY_SOURCE, 5, 0)).unwrap();
        assert_eq!(m.src, 3);
        // Next wildcard gets the remaining one.
        let (m2, _) = e.post_recv(recv(1, ANY_SOURCE, 5, 1)).unwrap();
        assert_eq!(m2.src, 2);
    }

    #[test]
    fn any_source_tie_breaks_by_rank() {
        let mut e = Matcher::new();
        e.post_send(msg(7, 1, 5, 100));
        e.post_send(msg(2, 1, 5, 100));
        let (m, _) = e.post_recv(recv(1, ANY_SOURCE, 5, 0)).unwrap();
        assert_eq!(m.src, 2);
    }

    #[test]
    fn wrong_destination_never_matches() {
        let mut e = Matcher::new();
        e.post_send(msg(0, 2, 5, 100));
        assert!(e.post_recv(recv(1, 0, 5, 0)).is_none());
        assert_eq!(e.in_flight_count(), 1);
        assert_eq!(e.posted_count(), 1);
    }

    #[test]
    fn candidate_sources_reports_feasible_senders() {
        let mut e = Matcher::new();
        e.post_send(msg(3, 1, 5, 100));
        e.post_send(msg(2, 1, 5, 200));
        e.post_send(msg(4, 1, 9, 300)); // wrong tag
        e.post_send(msg(5, 0, 5, 400)); // wrong destination
        let pr = recv(1, ANY_SOURCE, 5, 0);
        assert_eq!(e.candidate_sources(&pr), vec![2, 3]);
        let specific = recv(1, 2, 5, 1);
        assert_eq!(e.candidate_sources(&specific), vec![2]);
    }

    #[test]
    fn into_unmatched_is_deterministic() {
        let mut e = Matcher::new();
        e.post_send(msg(2, 1, 5, 200));
        e.post_send(msg(0, 1, 5, 100));
        e.post_recv(recv(3, 0, 7, 0));
        let (sends, recvs) = e.into_unmatched();
        let chans: Vec<(Rank, Rank)> = sends.iter().map(|m| (m.src, m.dst)).collect();
        assert_eq!(chans, vec![(0, 1), (2, 1)]);
        assert_eq!(recvs.len(), 1);
        assert_eq!(recvs[0].dst, 3);
    }
}
