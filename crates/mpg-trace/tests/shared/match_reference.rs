//! The MPI matching rules, stated once: a linear-scan reference model that
//! `mpg_trace::EnvelopeMatcher` is held to by `proptest_matcher.rs` in this
//! crate, and replay's `MatchState` by `mpg-core`'s
//! `tests/proptest_match_state.rs` (each includes this file with
//! `#[path]`). It keeps two flat lists in post order and restates each
//! rule literally; small inputs only.
//!
//! In the terms of Šurkovský's MP net, every destination rank has two
//! places: a *message place*, whose tokens are issued sends, each carrying
//! its envelope `(src, tag)`, an arrival stamp and its position in its
//! sender's issue order; and a *request place*, whose tokens are posted
//! receives, each carrying a pattern `(src, tag)` and its position in post
//! order. Issuing a send or posting a receive puts a token in one place and
//! fires the one *match transition* if it is enabled: it consumes a message
//! token and a request token whose pattern accepts the message's envelope,
//! and emits the pair. So one destination's places never both hold tokens
//! that match each other. Four rules make the firing deterministic:
//!
//! 1. **Non-overtaking per (src, dst).** Of the message tokens from one
//!    source that a request accepts, only the earliest issued is enabled.
//!    MPI guarantees this per communicator; every trace here has one.
//! 2. **Earliest posted receive.** An issued message is taken by the
//!    earliest posted request that accepts it.
//! 3. **Wildcard arbitration.** A request whose source is `ANY_SOURCE`
//!    takes, among the tokens rule 1 enables (one per source), the one with
//!    the earliest arrival stamp, the lowest source on a tie: a
//!    deterministic stand-in for "whichever message got there first".
//!    `ANY_TAG` only widens which tokens a request accepts.
//! 4. **Concrete patterns.** Replay and the DES post the source and tag the
//!    recorded run matched. There `ANY_SOURCE` and `ANY_TAG` are ordinary
//!    values that only an equal envelope matches (a corrupt trace may name
//!    them), so rule 3 never applies and arrival stamps are never read.
//!    Replay's blocking receive is not posted at all: it *probes* the
//!    transition, taking the message it would match or leaving both places
//!    as they were, and its rank retries when a send lands.
//!
//! The model also counts what replay prints of the window (§4.2): the
//! tokens held in both places (`retained`) and their peak (`high_water`).
//! How a send completes (eager or rendezvous) and how long a request lives
//! after its match are not matching decisions; they stay with the
//! simulator, replay and the DES.

use mpg_trace::{Rank, Tag, ANY_SOURCE, ANY_TAG};

/// An issued send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefSend {
    pub id: usize,
    pub src: Rank,
    pub dst: Rank,
    pub tag: Tag,
    pub arrival: u64,
}

/// A posted (or probing) receive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefRecv {
    pub id: usize,
    pub dst: Rank,
    pub src_pattern: Rank,
    pub tag_pattern: Tag,
}

/// Both places of every destination, as two flat lists in post order.
#[derive(Default)]
pub struct Reference {
    /// Rule 4: patterns are concrete.
    pub concrete: bool,
    pub sends: Vec<RefSend>,
    pub recvs: Vec<RefRecv>,
    high_water: usize,
}

#[allow(dead_code)]
impl Reference {
    pub fn new(concrete: bool) -> Self {
        Reference {
            concrete,
            ..Reference::default()
        }
    }

    fn accepts(&self, pr: &RefRecv, m: &RefSend) -> bool {
        let any = !self.concrete;
        m.dst == pr.dst
            && ((any && pr.src_pattern == ANY_SOURCE) || pr.src_pattern == m.src)
            && ((any && pr.tag_pattern == ANY_TAG) || pr.tag_pattern == m.tag)
    }

    fn note(&mut self) {
        self.high_water = self.high_water.max(self.retained());
    }

    /// Rule 2.
    pub fn post_send(&mut self, msg: RefSend) -> Option<(RefSend, RefRecv)> {
        let hit = self.recvs.iter().position(|pr| self.accepts(pr, &msg));
        let pair = match hit {
            Some(i) => Some((msg, self.recvs.remove(i))),
            None => {
                self.sends.push(msg);
                None
            }
        };
        self.note();
        pair
    }

    /// Rule 1: the indices of the sends `pr` could take, per source the
    /// first accepted one in issue order.
    fn heads(&self, pr: &RefRecv) -> Vec<usize> {
        let mut seen: Vec<Rank> = Vec::new();
        let mut heads = Vec::new();
        for (i, m) in self.sends.iter().enumerate() {
            if self.accepts(pr, m) && !seen.contains(&m.src) {
                seen.push(m.src);
                heads.push(i);
            }
        }
        heads
    }

    /// Rules 1, 3 and 4: the message `pr` takes, left in place. A concrete
    /// pattern names one source, so it has at most one head.
    fn best(&self, pr: &RefRecv) -> Option<usize> {
        self.heads(pr)
            .into_iter()
            .min_by_key(|&i| (self.sends[i].arrival, self.sends[i].src))
    }

    /// Rule 4's probe: takes the message `pr` would match, posts nothing.
    pub fn take_match(&mut self, pr: &RefRecv) -> Option<RefSend> {
        let i = self.best(pr)?;
        Some(self.sends.remove(i))
    }

    pub fn post_recv(&mut self, pr: RefRecv) -> Option<(RefSend, RefRecv)> {
        let pair = match self.take_match(&pr) {
            Some(msg) => Some((msg, pr)),
            None => {
                self.recvs.push(pr);
                None
            }
        };
        self.note();
        pair
    }

    /// The sources with a message `pr` could take now, ascending.
    pub fn candidate_sources(&self, pr: &RefRecv) -> Vec<Rank> {
        let mut srcs: Vec<Rank> = self
            .heads(pr)
            .into_iter()
            .map(|i| self.sends[i].src)
            .collect();
        srcs.sort_unstable();
        srcs
    }

    /// Tokens held in both places.
    pub fn retained(&self) -> usize {
        self.sends.len() + self.recvs.len()
    }

    /// Peak of [`retained`](Self::retained) after any step.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// The leftovers: sends by `(src, dst)` then issue order, receives by
    /// destination then post order.
    pub fn into_unmatched(mut self) -> (Vec<RefSend>, Vec<RefRecv>) {
        self.sends.sort_by_key(|m| (m.src, m.dst));
        self.recvs.sort_by_key(|pr| pr.dst);
        (self.sends, self.recvs)
    }
}
