//! Forced-match plans: the shared contract for witness replay.
//!
//! Pass 4 (`MPG-WILD-RACE`) and the pass-8 schedule-space explorer both
//! validate their claims the same way: re-replay the recorded trace under
//! a *forced* resolution of one or more wildcard receives and observe
//! what the program does. This module owns the data contract for that
//! machinery — the [`MatchPlan`] naming which receives are forced onto
//! which sources and the [`ForcedOutcome`] classification of a forced
//! replay. The single execution path
//! that interprets a plan lives in `mpg-lint` (`forced_replay`), because
//! the lockstep progress simulation needs the envelope matcher; every
//! caller goes through it, so a witness printed by any pass can be
//! re-replayed verbatim by any other.

use std::fmt;

use mpg_trace::Rank;

use crate::hb::EventId;

/// One forced wildcard resolution: `recv` must take the message from
/// `source` instead of whatever the recorded schedule delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ForcedMatch {
    /// The receive event being forced (its posting event for nonblocking
    /// receives).
    pub recv: EventId,
    /// The source rank it is forced to match.
    pub source: Rank,
}

/// An ordered list of forced wildcard resolutions — one alternate point
/// in the schedule space. Receives not named by the plan resolve to
/// their recorded peers, so an empty plan replays the recorded schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct MatchPlan {
    forced: Vec<ForcedMatch>,
}

impl MatchPlan {
    /// Empty plan (replays the recorded matching).
    pub fn new() -> Self {
        MatchPlan::default()
    }

    /// Builder: add one forced resolution.
    pub fn force(mut self, recv: EventId, source: Rank) -> Self {
        self.push(recv, source);
        self
    }

    /// Add one forced resolution in place. A later entry for the same
    /// receive is ignored — the first forcing wins, matching lookup order.
    pub fn push(&mut self, recv: EventId, source: Rank) {
        if !self.forced.iter().any(|f| f.recv == recv) {
            self.forced.push(ForcedMatch { recv, source });
        }
    }

    /// The forced source for `recv`, or `recorded` when the plan does not
    /// name it. This is the hook the replay engine's match policy calls.
    pub fn source_for(&self, recv: EventId, recorded: Rank) -> Rank {
        self.forced
            .iter()
            .find(|f| f.recv == recv)
            .map_or(recorded, |f| f.source)
    }

    /// Whether `recv` is named by the plan.
    pub fn forces(&self, recv: EventId) -> bool {
        self.forced.iter().any(|f| f.recv == recv)
    }

    /// The forced resolutions, in plan order.
    pub fn forced(&self) -> &[ForcedMatch] {
        &self.forced
    }

    /// Number of forced resolutions.
    pub fn len(&self) -> usize {
        self.forced.len()
    }

    /// True when nothing is forced (the plan is the recorded schedule).
    pub fn is_empty(&self) -> bool {
        self.forced.is_empty()
    }
}

impl fmt::Display for MatchPlan {
    /// Human-readable forced-match sequence, exactly as findings print
    /// it: `rank R seq S <- rank SRC` joined by `; `. Re-replayable: feed
    /// each triple back through [`MatchPlan::force`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, m) in self.forced.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "rank {} seq {} <- rank {}", m.recv.0, m.recv.1, m.source)?;
        }
        Ok(())
    }
}

/// What a forced replay did — the witness-validated classification every
/// explorer finding is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForcedOutcome {
    /// The forced schedule ran to completion.
    Completed,
    /// The forced schedule reached quiescence with a wait-for cycle: a
    /// genuine alternate-schedule deadlock (`MPG-MAY-DEADLOCK`).
    Deadlocked,
    /// The forced schedule wedged without a wait-for cycle — the forcing
    /// was infeasible (e.g. the forced source's message was consumed
    /// elsewhere), so no finding is derived from it.
    Stuck,
}

impl ForcedOutcome {
    /// Lowercase label for report text.
    pub fn label(self) -> &'static str {
        match self {
            ForcedOutcome::Completed => "completed",
            ForcedOutcome::Deadlocked => "deadlocked",
            ForcedOutcome::Stuck => "stuck",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_lookup_and_fallback() {
        let plan = MatchPlan::new().force((0, 8), 2).force((3, 1), 5);
        assert_eq!(plan.source_for((0, 8), 1), 2);
        assert_eq!(plan.source_for((3, 1), 0), 5);
        assert_eq!(plan.source_for((9, 9), 4), 4);
        assert!(plan.forces((0, 8)));
        assert!(!plan.forces((9, 9)));
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn first_forcing_wins() {
        let plan = MatchPlan::new().force((0, 8), 2).force((0, 8), 7);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.source_for((0, 8), 1), 2);
    }

    #[test]
    fn render_names_every_forced_match() {
        let plan = MatchPlan::new().force((0, 8), 2);
        assert_eq!(plan.to_string(), "rank 0 seq 8 <- rank 2");
    }
}
