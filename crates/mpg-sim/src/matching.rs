//! MPI message-matching engine.
//!
//! Implements the envelope-matching rules the analyzer later relies on
//! (§4.1: every message event in a completed run has a counterpart):
//!
//! * **Non-overtaking**: messages from one sender to one receiver that match
//!   the same receive pattern are matched in send order.
//! * **Posted-receive order**: an arriving send matches the *earliest posted*
//!   receive whose `(source, tag)` pattern accepts it.
//! * **Wildcard receives** (`ANY_SOURCE`) choose among candidate messages by
//!   earliest arrival time (ties broken by source rank) — a deterministic
//!   stand-in for "whichever message got there first".
//!
//! The semantics live in the generic [`EnvelopeMatcher`], parameterized
//! over anything implementing [`SendEnvelope`]/[`RecvEnvelope`], so other
//! consumers (notably `mpg-lint`'s static match-resolution pass) reuse the
//! exact same matching rules on their own lightweight envelope types. The
//! simulator's coordinator instantiates it with
//! [`MsgInFlight`]/[`PostedRecv`].

use std::collections::VecDeque;

use crate::message::{MsgInFlight, PostedRecv};
use mpg_trace::{Rank, Tag, ANY_SOURCE, ANY_TAG};

/// The send side of a message envelope, as the matcher sees it.
pub trait SendEnvelope {
    /// Sender rank.
    fn src(&self) -> Rank;
    /// Destination rank.
    fn dst(&self) -> Rank;
    /// Message tag.
    fn tag(&self) -> Tag;
    /// Arrival stamp used to order wildcard candidates (any monotone
    /// quantity; the simulator uses global arrival time).
    fn arrival(&self) -> u64;
}

/// The receive side of a message envelope, as the matcher sees it.
pub trait RecvEnvelope {
    /// Receiver rank.
    fn dst(&self) -> Rank;
    /// Source pattern (`ANY_SOURCE` allowed).
    fn src_pattern(&self) -> Rank;
    /// Tag pattern (`ANY_TAG` allowed).
    fn tag_pattern(&self) -> Tag;

    /// Does this receive accept a message with `(src, tag)`?
    fn accepts(&self, src: Rank, tag: Tag) -> bool {
        (self.src_pattern() == ANY_SOURCE || self.src_pattern() == src)
            && (self.tag_pattern() == ANY_TAG || self.tag_pattern() == tag)
    }
}

impl SendEnvelope for MsgInFlight {
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
        self.arrival
    }
}

impl RecvEnvelope for PostedRecv {
    fn dst(&self) -> Rank {
        self.dst
    }

    fn src_pattern(&self) -> Rank {
        self.src_pattern
    }

    fn tag_pattern(&self) -> Tag {
        self.tag_pattern
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

    fn dest(&self, rank: Rank) -> Option<&Dest<S, R>> {
        let i = self.dests.binary_search_by_key(&rank, |d| d.rank).ok()?;
        Some(&self.dests[i])
    }

    fn dest_mut(&mut self, rank: Rank) -> &mut Dest<S, R> {
        let i = match self.dests.binary_search_by_key(&rank, |d| d.rank) {
            Ok(i) => i,
            Err(i) => {
                let dest = Dest {
                    rank,
                    channels: Vec::new(),
                    posted: Vec::new(),
                };
                self.dests.insert(i, dest);
                i
            }
        };
        &mut self.dests[i]
    }

    /// Offers a send to the matcher. If a posted receive accepts it, the
    /// matched pair is returned; otherwise the message is queued.
    pub fn post_send(&mut self, msg: S) -> Option<(S, R)> {
        let dest = self.dest_mut(msg.dst());
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
        let dest = self.dest_mut(pr.dst());
        let first_accepted =
            |ch: &Channel<S>| ch.queue.iter().position(|m| pr.accepts(m.src(), m.tag()));
        let hit = if pr.src_pattern() == ANY_SOURCE {
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
        };
        match hit {
            Some((c, i)) => {
                let msg = dest.channels[c].queue.remove(i).expect("position in queue");
                self.in_flight -= 1;
                Some((msg, pr))
            }
            None => {
                dest.posted.push(pr);
                self.posted += 1;
                None
            }
        }
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
    use crate::message::Party;
    use mpg_trace::{ANY_SOURCE, ANY_TAG};

    fn msg(src: Rank, dst: Rank, tag: u32, arrival: u64) -> MsgInFlight {
        MsgInFlight {
            src,
            dst,
            tag,
            bytes: 8,
            send_enter: 0,
            arrival,
            ack_latency: 0,
            sender: Party::Blocking,
            sender_done: false,
        }
    }

    fn recv(dst: Rank, src: Rank, tag: u32, order: u64) -> PostedRecv {
        PostedRecv {
            dst,
            src_pattern: src,
            tag_pattern: tag,
            posted_at: 0,
            receiver: Party::Blocking,
            order,
        }
    }

    #[test]
    fn send_then_recv_matches() {
        let mut e = EnvelopeMatcher::<MsgInFlight, PostedRecv>::new();
        assert!(e.post_send(msg(0, 1, 5, 100)).is_none());
        let (m, _) = e.post_recv(recv(1, 0, 5, 0)).expect("should match");
        assert_eq!(m.tag, 5);
        assert_eq!(e.in_flight_count(), 0);
        assert_eq!(e.posted_count(), 0);
    }

    #[test]
    fn recv_then_send_matches() {
        let mut e = EnvelopeMatcher::<MsgInFlight, PostedRecv>::new();
        assert!(e.post_recv(recv(1, 0, 5, 0)).is_none());
        let (_, pr) = e.post_send(msg(0, 1, 5, 100)).expect("should match");
        assert_eq!(pr.tag_pattern, 5);
    }

    #[test]
    fn non_overtaking_same_pattern() {
        let mut e = EnvelopeMatcher::<MsgInFlight, PostedRecv>::new();
        e.post_send(msg(0, 1, 5, 300)); // first sent, arrives later
        e.post_send(msg(0, 1, 5, 100));
        let (m, _) = e.post_recv(recv(1, 0, 5, 0)).unwrap();
        // Send order wins over arrival order within a channel.
        assert_eq!(m.arrival, 300);
    }

    #[test]
    fn tag_selectivity_skips_non_matching() {
        let mut e = EnvelopeMatcher::<MsgInFlight, PostedRecv>::new();
        e.post_send(msg(0, 1, 3, 100));
        e.post_send(msg(0, 1, 5, 200));
        let (m, _) = e.post_recv(recv(1, 0, 5, 0)).unwrap();
        assert_eq!(m.tag, 5);
        assert_eq!(e.in_flight_count(), 1); // tag-3 message still queued
    }

    #[test]
    fn posted_receive_order_respected() {
        let mut e = EnvelopeMatcher::<MsgInFlight, PostedRecv>::new();
        e.post_recv(recv(1, 0, ANY_TAG, 0));
        e.post_recv(recv(1, 0, 5, 1));
        let (_, pr) = e.post_send(msg(0, 1, 5, 100)).unwrap();
        // Earliest posted matching receive (the ANY_TAG one) wins.
        assert_eq!(pr.order, 0);
    }

    #[test]
    fn any_source_picks_earliest_arrival() {
        let mut e = EnvelopeMatcher::<MsgInFlight, PostedRecv>::new();
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
        let mut e = EnvelopeMatcher::<MsgInFlight, PostedRecv>::new();
        e.post_send(msg(7, 1, 5, 100));
        e.post_send(msg(2, 1, 5, 100));
        let (m, _) = e.post_recv(recv(1, ANY_SOURCE, 5, 0)).unwrap();
        assert_eq!(m.src, 2);
    }

    #[test]
    fn wrong_destination_never_matches() {
        let mut e = EnvelopeMatcher::<MsgInFlight, PostedRecv>::new();
        e.post_send(msg(0, 2, 5, 100));
        assert!(e.post_recv(recv(1, 0, 5, 0)).is_none());
        assert_eq!(e.in_flight_count(), 1);
        assert_eq!(e.posted_count(), 1);
    }

    #[test]
    fn candidate_sources_reports_feasible_senders() {
        let mut e = EnvelopeMatcher::<MsgInFlight, PostedRecv>::new();
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
        let mut e = EnvelopeMatcher::<MsgInFlight, PostedRecv>::new();
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
