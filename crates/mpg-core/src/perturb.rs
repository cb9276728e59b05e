//! Perturbation models: what gets injected where (§5, §6).
//!
//! "The original message-passing trace has edge weights on local edges
//! corresponding to the time intervals observed in the run… Message edges
//! are weighted zero originally… Simulating additional delays in messaging
//! is achieved by marking message edges with nonzero, positive values."
//!
//! A [`PerturbationModel`] assigns a (possibly signed) distribution to each
//! [`DeltaClass`] — the positions Figs. 2–4 mark with `δ_os`, `δ_λ` and
//! `δ_t(d)`. The [`PerturbSampler`] draws from per-`(rank, class)` RNG
//! streams, so replay results are deterministic under a seed and independent
//! of cross-rank processing order (the same discipline as the simulator).

use mpg_noise::{Dist, SampleDist, StreamRng};

use crate::Drift;

/// Where on a subgraph an injected delta applies (the edge annotations of
/// Figs. 2–4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaClass {
    /// No perturbation (structural edges, e.g. the collective's return
    /// `lδ_max` edges or nonblocking immediate returns).
    None,
    /// `δ_os` on a local edge: extra time the processor loses during a
    /// compute interval (§5.1). Sampled once per local edge.
    OsLocal,
    /// `δ_os2`: receiver-side processing noise on the message path (Fig. 2).
    OsRemote,
    /// `δ_λ`: one-way wire latency variation, size-independent (§5.2).
    Lambda,
    /// `δ_t(d)`: size-dependent transfer perturbation for a `d`-byte payload.
    Transfer {
        /// Payload size the delta scales with.
        bytes: u64,
    },
    /// The full forward message path of Fig. 2: `δ_λ1 + δ_t(d) + δ_os2`
    /// composed on the edge from the send start subevent to the receive
    /// completion subevent.
    MessagePath {
        /// Payload size.
        bytes: u64,
    },
    /// A collective's `lδ` edge: `rounds` rounds each sampling OS noise,
    /// latency and a `bytes`-sized transfer (Fig. 4).
    CollectiveRounds {
        /// Number of communication rounds charged (⌈log₂ p⌉ for
        /// allreduce/barrier, 1 for the simplified reduce).
        rounds: u32,
        /// Per-round payload.
        bytes: u64,
    },
}

/// A distribution with an optional sign flip, enabling the paper's
/// future-work "what if the platform had *less* noise" analyses (§6):
/// sampled magnitudes are drawn from `dist` and negated when `negate` is
/// set.
#[derive(Debug, Clone, PartialEq)]
pub struct SignedDist {
    /// Magnitude distribution (cycles).
    pub dist: Dist,
    /// Negate samples (model a *reduction* in noise/latency).
    pub negate: bool,
}

impl SignedDist {
    /// A zero delta.
    pub fn zero() -> Self {
        Dist::Zero.into()
    }

    /// Negated (noise-reduction) form of a distribution.
    pub fn negative(dist: Dist) -> Self {
        Self { dist, negate: true }
    }

    /// True when the delta is identically zero.
    pub fn is_zero(&self) -> bool {
        self.dist.is_zero()
    }

    /// Draws a signed sample.
    pub fn sample(&self, rng: &mut StreamRng) -> Drift {
        let mag = self.dist.sample(rng) as Drift;
        if self.negate {
            -mag
        } else {
            mag
        }
    }

    /// Signed mean.
    pub fn mean(&self) -> f64 {
        let m = self.dist.mean();
        if self.negate {
            -m
        } else {
            m
        }
    }
}

impl From<Dist> for SignedDist {
    fn from(dist: Dist) -> Self {
        Self {
            dist,
            negate: false,
        }
    }
}

/// The full injected-perturbation parameterization for one replay.
#[derive(Debug, Clone, PartialEq)]
pub struct PerturbationModel {
    /// Label carried into reports.
    pub name: String,
    /// `δ_os` injected on each local (compute) edge.
    pub os_local: SignedDist,
    /// `δ_os2` injected on the receive side of each message.
    pub os_remote: SignedDist,
    /// `δ_λ` injected per message hop (both the forward hop and the
    /// acknowledgement hop sample it independently).
    pub latency: SignedDist,
    /// Injected per-byte slowdown (cycles/byte, may be negative): the
    /// `δ_t(d)` term is `per_byte * d` plus a sample of `transfer_jitter`.
    pub per_byte: f64,
    /// Size-independent per-message transfer jitter.
    pub transfer_jitter: SignedDist,
    /// When set, `os_local` describes stolen time **per `quantum` cycles of
    /// work** (the FTQ measurement unit, §5.1) and the sampler scales it to
    /// each edge's actual length. When `None`, `os_local` is charged once
    /// per edge regardless of length (the paper's simple per-edge
    /// alteration, §4.2).
    pub os_quantum: Option<u64>,
}

impl PerturbationModel {
    /// The identity model: nothing injected, replay reproduces the trace.
    pub fn quiet(name: &str) -> Self {
        Self {
            name: name.to_string(),
            os_local: SignedDist::zero(),
            os_remote: SignedDist::zero(),
            latency: SignedDist::zero(),
            per_byte: 0.0,
            transfer_jitter: SignedDist::zero(),
            os_quantum: None,
        }
    }

    /// The paper's §6.1 parameterization: a constant `mean_noise` cycles of
    /// perturbation per message-path traversal, nothing else.
    pub fn per_message_constant(name: &str, cycles: f64) -> Self {
        let mut m = Self::quiet(name);
        m.latency = Dist::Constant(cycles).into();
        m
    }

    /// True when no class injects anything (replay must be the identity).
    pub fn is_quiet(&self) -> bool {
        self.os_local.is_zero()
            && self.os_remote.is_zero()
            && self.latency.is_zero()
            && self.per_byte == 0.0
            && self.transfer_jitter.is_zero()
    }

    /// Expected injected delta for one edge of the given class (used by
    /// closed-form predictions in the experiments).
    pub fn mean_delta(&self, class: DeltaClass) -> f64 {
        match class {
            DeltaClass::None => 0.0,
            DeltaClass::OsLocal => self.os_local.mean(),
            DeltaClass::OsRemote => self.os_remote.mean(),
            DeltaClass::Lambda => self.latency.mean(),
            DeltaClass::Transfer { bytes } => {
                self.per_byte * bytes as f64 + self.transfer_jitter.mean()
            }
            DeltaClass::MessagePath { bytes } => {
                self.latency.mean()
                    + self.per_byte * bytes as f64
                    + self.transfer_jitter.mean()
                    + self.os_remote.mean()
            }
            DeltaClass::CollectiveRounds { rounds, bytes } => {
                f64::from(rounds)
                    * (self.os_local.mean()
                        + self.latency.mean()
                        + self.per_byte * bytes as f64
                        + self.transfer_jitter.mean())
            }
        }
    }
}

/// Deterministic per-(rank, class) sampling of a [`PerturbationModel`].
#[derive(Debug)]
pub struct PerturbSampler {
    model: PerturbationModel,
    /// One RNG per (rank, class-group); indexed `[rank][group]`.
    rngs: Vec<[StreamRng; 4]>,
}

/// Class-group indices into the per-rank RNG array.
const G_OS: usize = 0;
const G_LAT: usize = 1;
const G_XFER: usize = 2;
const G_COLL: usize = 3;

impl PerturbSampler {
    /// Creates a sampler for `ranks` ranks.
    pub fn new(model: PerturbationModel, ranks: usize, seed: u64) -> Self {
        let rngs = (0..ranks as u64)
            .map(|r| {
                [
                    StreamRng::new(seed, 0x5045_0000 | (r << 8)),
                    StreamRng::new(seed, 0x5045_0001 | (r << 8)),
                    StreamRng::new(seed, 0x5045_0002 | (r << 8)),
                    StreamRng::new(seed, 0x5045_0003 | (r << 8)),
                ]
            })
            .collect();
        Self { model, rngs }
    }

    /// The model being sampled.
    pub fn model(&self) -> &PerturbationModel {
        &self.model
    }

    /// Draws the injected delta for one edge of `class`, attributed to
    /// `rank`'s streams (for message edges, the *sender*'s streams — the
    /// same convention as the simulator's network model).
    pub fn sample(&mut self, rank: u32, class: DeltaClass) -> Drift {
        let rngs = &mut self.rngs[rank as usize];
        match class {
            DeltaClass::None => 0,
            DeltaClass::OsLocal => self.model.os_local.sample(&mut rngs[G_OS]),
            DeltaClass::OsRemote => self.model.os_remote.sample(&mut rngs[G_OS]),
            DeltaClass::Lambda => self.model.latency.sample(&mut rngs[G_LAT]),
            DeltaClass::Transfer { bytes } => {
                (self.model.per_byte * bytes as f64).round() as Drift
                    + self.model.transfer_jitter.sample(&mut rngs[G_XFER])
            }
            DeltaClass::MessagePath { bytes } => {
                self.model.latency.sample(&mut rngs[G_LAT])
                    + (self.model.per_byte * bytes as f64).round() as Drift
                    + self.model.transfer_jitter.sample(&mut rngs[G_XFER])
                    + self.model.os_remote.sample(&mut rngs[G_OS])
            }
            DeltaClass::CollectiveRounds { rounds, bytes } => {
                self.sample_rounds(rank, rounds, bytes)
            }
        }
    }

    /// A collective's `rounds` rounds, each drawing OS noise, latency and
    /// a `bytes`-sized transfer from `rank`'s collective stream.
    fn sample_rounds(&mut self, rank: u32, rounds: u32, bytes: u64) -> Drift {
        let round_work = 100 + bytes; // mirrors the round combine cost
        let model = &self.model;
        let rng = &mut self.rngs[rank as usize][G_COLL];
        let mut round = || {
            scaled_os(&model.os_local, model.os_quantum, round_work, rng)
                .saturating_add(model.latency.sample(rng))
                .saturating_add((model.per_byte * bytes as f64).round() as Drift)
                .saturating_add(model.transfer_jitter.sample(rng))
        };
        // A constant model draws the same round every time and reads no
        // randomness, so one draw stands for all of them: a decoded graph
        // may carry any `u32` round count.
        if [&model.os_local, &model.latency, &model.transfer_jitter]
            .iter()
            .all(|d| matches!(d.dist, Dist::Zero | Dist::Constant(_)))
        {
            return round().saturating_mul(Drift::from(rounds));
        }
        (0..rounds).fold(0, |total: Drift, _| total.saturating_add(round()))
    }

    /// Draws the OS-noise delta for a local edge covering `work` cycles,
    /// applying quantum scaling when the model defines one.
    pub fn sample_os_scaled(&mut self, rank: u32, work: u64) -> Drift {
        let rngs = &mut self.rngs[rank as usize];
        scaled_os(
            &self.model.os_local,
            self.model.os_quantum,
            work,
            &mut rngs[G_OS],
        )
    }
}

/// Scales a per-quantum noise distribution to an interval of `work` cycles:
/// one sample per full quantum (capped at 16 draws and extrapolated, so
/// cost stays bounded for huge intervals) plus a fractional sample.
fn scaled_os(dist: &SignedDist, quantum: Option<u64>, work: u64, rng: &mut StreamRng) -> Drift {
    let Some(q) = quantum else {
        return dist.sample(rng);
    };
    if q == 0 || dist.is_zero() {
        return 0;
    }
    let n = work / q;
    let frac = (work % q) as f64 / q as f64;
    let draws = n.min(16);
    let mut total = 0.0;
    for _ in 0..draws {
        total += dist.sample(rng) as f64;
    }
    if draws > 0 {
        total *= n as f64 / draws as f64;
    }
    total += dist.sample(rng) as f64 * frac;
    total.round() as Drift
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_model_samples_zero() {
        let mut s = PerturbSampler::new(PerturbationModel::quiet("q"), 2, 1);
        for class in [
            DeltaClass::None,
            DeltaClass::OsLocal,
            DeltaClass::OsRemote,
            DeltaClass::Lambda,
            DeltaClass::Transfer { bytes: 4096 },
            DeltaClass::CollectiveRounds {
                rounds: 7,
                bytes: 64,
            },
        ] {
            assert_eq!(s.sample(0, class), 0, "{class:?}");
        }
        assert!(s.model().is_quiet());
    }

    #[test]
    fn constant_latency_model() {
        let m = PerturbationModel::per_message_constant("ring", 700.0);
        let mut s = PerturbSampler::new(m, 1, 0);
        assert_eq!(s.sample(0, DeltaClass::Lambda), 700);
        assert_eq!(s.sample(0, DeltaClass::OsLocal), 0);
    }

    #[test]
    fn negative_model_samples_negative() {
        let mut m = PerturbationModel::quiet("less-noise");
        m.os_local = SignedDist::negative(Dist::Constant(500.0));
        assert!(!m.is_quiet());
        let mut s = PerturbSampler::new(m, 1, 0);
        assert_eq!(s.sample(0, DeltaClass::OsLocal), -500);
    }

    #[test]
    fn transfer_scales_with_bytes() {
        let mut m = PerturbationModel::quiet("slow-net");
        m.per_byte = 0.25;
        assert_eq!(m.mean_delta(DeltaClass::Transfer { bytes: 1000 }), 250.0);
        let mut s = PerturbSampler::new(m, 1, 0);
        assert_eq!(s.sample(0, DeltaClass::Transfer { bytes: 1000 }), 250);
        assert_eq!(s.sample(0, DeltaClass::Transfer { bytes: 0 }), 0);
    }

    #[test]
    fn collective_rounds_accumulate() {
        let mut m = PerturbationModel::quiet("c");
        m.latency = Dist::Constant(100.0).into();
        m.os_local = Dist::Constant(10.0).into();
        let mut s = PerturbSampler::new(m.clone(), 1, 0);
        let d = s.sample(
            0,
            DeltaClass::CollectiveRounds {
                rounds: 5,
                bytes: 0,
            },
        );
        assert_eq!(d, 5 * 110);
        assert_eq!(
            m.mean_delta(DeltaClass::CollectiveRounds {
                rounds: 5,
                bytes: 0
            }),
            550.0
        );
    }

    /// The multiplied constant-model path against the round-by-round sum
    /// it replaces, on models with every constant component, a negated
    /// one, per-byte cost and quantum-scaled OS noise.
    #[test]
    fn constant_collective_rounds_multiply_as_they_loop() {
        let mut models = Vec::new();
        let mut m = PerturbationModel::quiet("all");
        m.os_local = Dist::Constant(13.0).into();
        m.latency = Dist::Constant(700.0).into();
        m.transfer_jitter = Dist::Constant(3.0).into();
        m.per_byte = 0.25;
        models.push(m.clone());
        m.latency = SignedDist::negative(Dist::Constant(40.0));
        models.push(m.clone());
        m.os_quantum = Some(64);
        models.push(m);
        models.push(PerturbationModel::per_message_constant("lat", 700.0));
        models.push(PerturbationModel::quiet("q"));
        for model in models {
            let mut s = PerturbSampler::new(model.clone(), 1, 5);
            for rounds in 0..64u32 {
                let bytes = 40 + u64::from(rounds);
                let class = DeltaClass::CollectiveRounds { rounds, bytes };
                let mut rng = StreamRng::new(5, 0x5045_0003);
                let looped: Drift = (0..rounds)
                    .map(|_| {
                        scaled_os(&model.os_local, model.os_quantum, 100 + bytes, &mut rng)
                            + model.latency.sample(&mut rng)
                            + (model.per_byte * bytes as f64).round() as Drift
                            + model.transfer_jitter.sample(&mut rng)
                    })
                    .sum();
                assert_eq!(s.sample(0, class), looped, "{} x{rounds}", model.name);
            }
        }
    }

    #[test]
    fn collective_rounds_saturate_instead_of_overflowing() {
        let mut m = PerturbationModel::quiet("huge");
        m.latency = Dist::Constant(1e15).into();
        let mut s = PerturbSampler::new(m, 1, 0);
        let class = DeltaClass::CollectiveRounds {
            rounds: u32::MAX,
            bytes: 0,
        };
        assert_eq!(s.sample(0, class), Drift::MAX);
    }

    #[test]
    fn per_rank_streams_independent_of_order() {
        let mut m = PerturbationModel::quiet("n");
        m.os_local = Dist::Exponential { mean: 300.0 }.into();
        let mut a = PerturbSampler::new(m.clone(), 2, 9);
        let mut b = PerturbSampler::new(m, 2, 9);
        // a: rank0 ×2 then rank1; b: rank1 then rank0 ×2.
        let a0x = a.sample(0, DeltaClass::OsLocal);
        let a0y = a.sample(0, DeltaClass::OsLocal);
        let a1 = a.sample(1, DeltaClass::OsLocal);
        let b1 = b.sample(1, DeltaClass::OsLocal);
        let b0x = b.sample(0, DeltaClass::OsLocal);
        let b0y = b.sample(0, DeltaClass::OsLocal);
        assert_eq!((a0x, a0y, a1), (b0x, b0y, b1));
    }

    #[test]
    fn mean_delta_matches_signed() {
        let mut m = PerturbationModel::quiet("m");
        m.os_local = SignedDist::negative(Dist::Constant(100.0));
        assert_eq!(m.mean_delta(DeltaClass::OsLocal), -100.0);
    }
}
