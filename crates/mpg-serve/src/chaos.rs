//! Deterministic service-level chaos: seeded fault operators applied at
//! job boundaries, plus the invariant checker the harness runs afterwards.
//!
//! The trace-level operators live in `mpg_trace::faultgen` (bit flips,
//! frame surgery, `io-error`, `delay`); this module adds the operators
//! that attack the *runtime* instead of the bytes:
//!
//! | op | attacks | must observe |
//! |----|---------|--------------|
//! | `panic` | worker unwinding (at open, or after K engine checks) | job `crashed` + quarantined, worker respawned |
//! | `delay` | deadlines (stall before execution) | job `deadline-exceeded` with partial output |
//! | `io-error` | retry loop (first attempts fail transiently) | job recovers, `attempts > 1` |
//! | `corrupt-artifact` | cache integrity (damage every artifact in the store: replay, lint and explore reports, arenas, clocks) | silent miss, output still byte-identical |
//!
//! Every choice is a pure function of `(seed, job id)`, so a chaos run is
//! replayable: same seed, same faults, same outcomes.

use std::time::Duration;

use crate::retry::SplitMix64;

/// One service-level fault, applied to one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosOp {
    /// Panic in the worker right after it picks the job up.
    PanicOnOpen,
    /// Let the engine run, then panic once the job's token has absorbed
    /// `K` cancellation checks (≈ `K ·` [`mpg_core::CHECK_INTERVAL`]
    /// events) — a crash with real engine progress behind it.
    PanicAtCheck(u64),
    /// Stall before execution; with a deadline shorter than the stall the
    /// job must come back `deadline-exceeded`, never wedge.
    Delay(Duration),
    /// Fail the first `failures` execution attempts with a transient I/O
    /// error; the retry loop should ride it out.
    IoError {
        /// Attempts that fail before the job is allowed to proceed.
        failures: u32,
    },
    /// Corrupt every artifact in the store (flip a byte of each) before
    /// the job consults the cache — its report and, for lint and explore,
    /// the arena and clocks: each must degrade to a silent miss.
    CorruptArtifact,
}

impl ChaosOp {
    /// Stable operator name (CLI / scripts).
    pub fn name(&self) -> &'static str {
        match self {
            ChaosOp::PanicOnOpen | ChaosOp::PanicAtCheck(_) => "panic",
            ChaosOp::Delay(_) => "delay",
            ChaosOp::IoError { .. } => "io-error",
            ChaosOp::CorruptArtifact => "corrupt-artifact",
        }
    }
}

/// Every operator family name accepted by [`ChaosPlan::seeded`].
pub const CHAOS_OPS: &[&str] = &["panic", "delay", "io-error", "corrupt-artifact"];

/// A deterministic assignment of chaos operators to job ids.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    seed: u64,
    /// Enabled operator families (by [`ChaosOp::name`]); empty = no chaos.
    families: Vec<String>,
    /// Explicit per-job overrides, consulted before the seeded draw.
    pinned: Vec<(u64, ChaosOp)>,
}

impl ChaosPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        ChaosPlan::default()
    }

    /// Seeded plan over the given operator families. Unknown names are
    /// rejected so scripts fail loudly, not silently fault-free.
    pub fn seeded(seed: u64, families: &[&str]) -> Result<Self, String> {
        for f in families {
            if !CHAOS_OPS.contains(f) {
                return Err(format!(
                    "unknown chaos op '{f}' (expected one of: {})",
                    CHAOS_OPS.join(", ")
                ));
            }
        }
        Ok(ChaosPlan {
            seed,
            families: families.iter().map(|s| s.to_string()).collect(),
            pinned: Vec::new(),
        })
    }

    /// Pins an explicit operator to one job id (targeted tests).
    pub fn pin(mut self, job: u64, op: ChaosOp) -> Self {
        self.pinned.push((job, op));
        self
    }

    /// The operator for `job`, if any. Roughly half the jobs draw no
    /// fault — the unfaulted ones are the byte-identity control group.
    pub fn op_for(&self, job: u64) -> Option<ChaosOp> {
        if let Some((_, op)) = self.pinned.iter().find(|(j, _)| *j == job) {
            return Some(op.clone());
        }
        if self.families.is_empty() {
            return None;
        }
        let mut rng = SplitMix64(self.seed ^ job.wrapping_mul(0x9E37_79B9));
        let slot = rng.next_u64() as usize % (self.families.len() * 2);
        let family = self.families.get(slot)?;
        Some(match family.as_str() {
            "panic" => {
                if rng.next_u64().is_multiple_of(2) {
                    ChaosOp::PanicOnOpen
                } else {
                    ChaosOp::PanicAtCheck(1 + rng.next_u64() % 4)
                }
            }
            "delay" => ChaosOp::Delay(Duration::from_millis(20 + rng.next_u64() % 60)),
            "io-error" => ChaosOp::IoError {
                failures: 1 + (rng.next_u64() % 2) as u32,
            },
            "corrupt-artifact" => ChaosOp::CorruptArtifact,
            _ => unreachable!("validated in seeded()"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_leave_controls() {
        let p = ChaosPlan::seeded(7, &["panic", "delay", "io-error"]).unwrap();
        let q = ChaosPlan::seeded(7, &["panic", "delay", "io-error"]).unwrap();
        let mut faulted = 0;
        for job in 1..=40u64 {
            assert_eq!(p.op_for(job), q.op_for(job));
            if p.op_for(job).is_some() {
                faulted += 1;
            }
        }
        assert!(faulted > 0, "a 40-job plan should fault someone");
        assert!(faulted < 40, "a 40-job plan must leave unfaulted controls");
    }

    #[test]
    fn unknown_family_is_rejected_and_pins_win() {
        assert!(ChaosPlan::seeded(1, &["frobnicate"]).is_err());
        let p = ChaosPlan::none().pin(3, ChaosOp::PanicOnOpen);
        assert_eq!(p.op_for(3), Some(ChaosOp::PanicOnOpen));
        assert_eq!(p.op_for(4), None);
    }
}
