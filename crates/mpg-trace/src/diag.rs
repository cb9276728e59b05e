//! Shared diagnostic model for trace validation and static lint analysis.
//!
//! Both the shallow per-rank preconditions of [`crate::validate`] (§4.3's
//! "the program did run correctly" assumption) and the cross-rank defect
//! passes of the `mpg-lint` crate report through one type: a
//! [`Diagnostic`] carrying a stable [`Rule`] code, a [`Severity`], the
//! ranks involved, and an optional primary `(rank, seq)` location. One
//! reporting path means `mpgtool validate` and `mpgtool lint` render and
//! serialize identically.

use std::fmt;

use crate::event::{Rank, Seq};
use crate::validate::Violation;
use crate::MemTrace;

/// How bad a diagnostic is.
///
/// Ordering is by increasing badness: `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: legal structure that can destabilize replay predictions
    /// (e.g. wildcard nondeterminism). Hidden by default in the CLI.
    Info,
    /// Suspicious but not fatal to replay.
    Warning,
    /// The trace is malformed or the program it records is defective;
    /// replay results cannot be trusted.
    Error,
}

impl Severity {
    /// Lowercase label used in text and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Stable rule codes for every defect class the toolchain can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    // ---- structural preconditions (validate pass, §4.3) ----
    /// Local clock runs backwards or events overlap.
    ClockNonMono,
    /// Sequence numbers not dense from zero.
    BadSeq,
    /// First event is not `Init`.
    MissingInit,
    /// Last event is not `Finalize`.
    MissingFinalize,
    /// Record's rank disagrees with its stream.
    WrongRank,
    /// Request id initiated twice before completion.
    DupRequest,
    /// Wait references an unknown/completed request.
    UnknownRequest,
    /// Request initiated but never completed.
    LeakedRequest,
    /// Event names its own rank as peer.
    SelfMessage,
    // ---- cross-rank defects (lint passes) ----
    /// Send with no matching receive anywhere in the trace.
    UnmatchedSend,
    /// Receive with no matching send anywhere in the trace.
    UnmatchedRecv,
    /// Send/receive pair agree on channel but disagree on tag.
    TagMismatch,
    /// Matched send/receive disagree on byte count.
    CountMismatch,
    /// Peer rank outside the communicator.
    BadPeer,
    /// Cycle in the wait-for graph over blocking operations.
    Deadlock,
    /// Stitched event graph is not a DAG.
    Cycle,
    /// Message edge points backwards in per-rank program order.
    Causality,
    /// Wildcard receive with ≥2 statically feasible senders.
    WildRace,
    /// Ranks disagree on collective op/root/participants.
    CollectiveSkew,
    /// Barrier whose cross-rank ordering is already implied by the rest of
    /// the graph: removable synchronization.
    RedundantSync,
    /// A receiver's in-flight eager-send occupancy high-water mark crossed
    /// the advisory threshold.
    BufferWatermark,
    // ---- capture-integrity defects (salvage reader) ----
    /// A rank's stream was salvaged: frames dropped, bytes skipped,
    /// records lost, or an unsealed tail.
    TruncatedTrace,
    /// A rank file named by `meta.txt` is absent from the trace directory.
    MissingRank,
    // ---- performance findings (wait-state/slack analysis) ----
    /// A receive spent most of its window blocked on a sender that posted
    /// late; the wait is on the static critical path.
    LateSender,
    /// A collective's cost is dominated by entry imbalance: one rank's
    /// late arrival made every other participant wait.
    CollectiveImbalance,
    /// The static critical path serializes through many ranks with heavy
    /// wait states — the run is chain-dominated, not compute-dominated.
    SerialChain,
    // ---- predictive findings (schedule-space exploration) ----
    /// An alternate wildcard matching — forced and re-replayed by the
    /// explorer — reaches a wait-for cycle: the recorded run completed,
    /// but a different arrival order deadlocks.
    MayDeadlock,
    /// An alternate wildcard matching completes but shifts the estimated
    /// makespan beyond the divergence threshold: predictions from the
    /// recorded schedule are schedule-sensitive.
    ScheduleDivergence,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: &'static [Rule] = &[
        Rule::ClockNonMono,
        Rule::BadSeq,
        Rule::MissingInit,
        Rule::MissingFinalize,
        Rule::WrongRank,
        Rule::DupRequest,
        Rule::UnknownRequest,
        Rule::LeakedRequest,
        Rule::SelfMessage,
        Rule::UnmatchedSend,
        Rule::UnmatchedRecv,
        Rule::TagMismatch,
        Rule::CountMismatch,
        Rule::BadPeer,
        Rule::Deadlock,
        Rule::Cycle,
        Rule::Causality,
        Rule::WildRace,
        Rule::CollectiveSkew,
        Rule::RedundantSync,
        Rule::BufferWatermark,
        Rule::TruncatedTrace,
        Rule::MissingRank,
        Rule::LateSender,
        Rule::CollectiveImbalance,
        Rule::SerialChain,
        Rule::MayDeadlock,
        Rule::ScheduleDivergence,
    ];

    /// The stable `MPG-*` code.
    pub fn code(self) -> &'static str {
        match self {
            Rule::ClockNonMono => "MPG-CLOCK-NONMONO",
            Rule::BadSeq => "MPG-BAD-SEQ",
            Rule::MissingInit => "MPG-MISSING-INIT",
            Rule::MissingFinalize => "MPG-MISSING-FINALIZE",
            Rule::WrongRank => "MPG-WRONG-RANK",
            Rule::DupRequest => "MPG-DUP-REQUEST",
            Rule::UnknownRequest => "MPG-UNKNOWN-REQUEST",
            Rule::LeakedRequest => "MPG-LEAKED-REQUEST",
            Rule::SelfMessage => "MPG-SELF-MESSAGE",
            Rule::UnmatchedSend => "MPG-UNMATCHED-SEND",
            Rule::UnmatchedRecv => "MPG-UNMATCHED-RECV",
            Rule::TagMismatch => "MPG-TAG-MISMATCH",
            Rule::CountMismatch => "MPG-COUNT-MISMATCH",
            Rule::BadPeer => "MPG-BAD-PEER",
            Rule::Deadlock => "MPG-DEADLOCK",
            Rule::Cycle => "MPG-CYCLE",
            Rule::Causality => "MPG-CAUSALITY",
            Rule::WildRace => "MPG-WILD-RACE",
            Rule::CollectiveSkew => "MPG-COLLECTIVE-SKEW",
            Rule::RedundantSync => "MPG-REDUNDANT-SYNC",
            Rule::BufferWatermark => "MPG-BUFFER-WATERMARK",
            Rule::TruncatedTrace => "MPG-TRUNCATED-TRACE",
            Rule::MissingRank => "MPG-MISSING-RANK",
            Rule::LateSender => "MPG-LATE-SENDER",
            Rule::CollectiveImbalance => "MPG-COLLECTIVE-IMBALANCE",
            Rule::SerialChain => "MPG-SERIAL-CHAIN",
            Rule::MayDeadlock => "MPG-MAY-DEADLOCK",
            Rule::ScheduleDivergence => "MPG-SCHEDULE-DIVERGENCE",
        }
    }

    /// One-line description of the defect class, shared by
    /// `mpgtool lint --help` and the DESIGN.md rule table (a consistency
    /// test keeps the two in sync so a new rule cannot silently miss its
    /// documentation).
    pub fn doc(self) -> &'static str {
        match self {
            Rule::ClockNonMono => "local clock runs backwards or events overlap",
            Rule::BadSeq => "sequence numbers not dense from zero",
            Rule::MissingInit => "first event is not Init",
            Rule::MissingFinalize => "last event is not Finalize",
            Rule::WrongRank => "record's rank disagrees with its stream",
            Rule::DupRequest => "request id initiated twice before completion",
            Rule::UnknownRequest => "wait references an unknown or completed request",
            Rule::LeakedRequest => "request initiated but never completed",
            Rule::SelfMessage => "event names its own rank as peer",
            Rule::UnmatchedSend => "send with no matching receive anywhere in the trace",
            Rule::UnmatchedRecv => "receive with no matching send anywhere in the trace",
            Rule::TagMismatch => "send/receive pair agree on channel but disagree on tag",
            Rule::CountMismatch => "matched send/receive disagree on byte count",
            Rule::BadPeer => "peer rank outside the communicator",
            Rule::Deadlock => "cycle in the wait-for graph over blocking operations",
            Rule::Cycle => "stitched event graph is not a DAG",
            Rule::Causality => "message edge points backwards in per-rank program order",
            Rule::WildRace => "wildcard receive with a concurrent alternate match",
            Rule::CollectiveSkew => "ranks disagree on collective op/root/participants",
            Rule::RedundantSync => "barrier whose ordering is already implied; removable sync",
            Rule::BufferWatermark => "receiver's in-flight eager-send occupancy crossed threshold",
            Rule::TruncatedTrace => "rank stream was salvaged; frames or records lost",
            Rule::MissingRank => "rank file named by meta.txt is absent",
            Rule::LateSender => "receive blocked most of its window on a late sender",
            Rule::CollectiveImbalance => "collective cost dominated by one rank's late entry",
            Rule::SerialChain => "critical path serializes through many ranks via waits",
            Rule::MayDeadlock => "an alternate wildcard matching replays to a wait-for cycle",
            Rule::ScheduleDivergence => {
                "alternate matching shifts estimated makespan past threshold"
            }
        }
    }

    /// Severity the rule fires at unless escalated (e.g. by `--deny`).
    pub fn default_severity(self) -> Severity {
        match self {
            // Wildcard nondeterminism is legal MPI and common in
            // master/worker load balancing; it only threatens replay
            // *stability*, so it is advisory by default. The HB-powered
            // synchronization findings are likewise legal-but-noteworthy.
            Rule::WildRace | Rule::RedundantSync | Rule::BufferWatermark => Severity::Info,
            // A leaked request or a byte-count mismatch degrades fidelity
            // but the graph still stitches.
            Rule::LeakedRequest | Rule::CountMismatch => Severity::Warning,
            // Salvaged capture defects: replay to the crash frontier is
            // still meaningful, but strict pipelines escalate these with
            // `--deny` to reject salvaged traces outright.
            Rule::TruncatedTrace | Rule::MissingRank => Severity::Warning,
            // Performance findings describe a slow-but-correct run; they
            // never block replay unless escalated with `--deny`.
            Rule::LateSender | Rule::CollectiveImbalance | Rule::SerialChain => Severity::Info,
            // Predictive findings: the recorded run completed — these
            // describe what a *different* schedule would have done. A
            // may-deadlock is a real program defect (warning; escalate
            // with `--deny` to gate CI); divergence is advisory.
            Rule::MayDeadlock => Severity::Warning,
            Rule::ScheduleDivergence => Severity::Info,
            _ => Severity::Error,
        }
    }

    /// Which analysis pass owns the rule — the label shown in the rule
    /// registry (`mpgtool lint --rules`) and the DESIGN.md §7 table.
    pub fn pass(self) -> &'static str {
        match self {
            Rule::ClockNonMono
            | Rule::BadSeq
            | Rule::MissingInit
            | Rule::MissingFinalize
            | Rule::WrongRank
            | Rule::DupRequest
            | Rule::UnknownRequest
            | Rule::LeakedRequest
            | Rule::SelfMessage => "validate",
            Rule::UnmatchedSend
            | Rule::UnmatchedRecv
            | Rule::TagMismatch
            | Rule::CountMismatch
            | Rule::BadPeer => "match",
            Rule::Deadlock => "deadlock",
            Rule::Cycle | Rule::Causality => "causality",
            Rule::WildRace => "race",
            Rule::CollectiveSkew => "collective",
            Rule::RedundantSync | Rule::BufferWatermark => "sync",
            Rule::TruncatedTrace | Rule::MissingRank => "ingest",
            Rule::LateSender | Rule::CollectiveImbalance | Rule::SerialChain => "perf",
            Rule::MayDeadlock | Rule::ScheduleDivergence => "explore",
        }
    }

    /// Parse a code (as printed by [`Rule::code`], case-insensitive).
    pub fn from_code(code: &str) -> Option<Rule> {
        Rule::ALL
            .iter()
            .copied()
            .find(|r| r.code().eq_ignore_ascii_case(code))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One defect found by validation or lint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: Rule,
    /// Effective severity (defaults to [`Rule::default_severity`]).
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Every rank involved (sorted, deduplicated).
    pub ranks: Vec<Rank>,
    /// Primary `(rank, seq)` location, when one event is to blame.
    pub span: Option<(Rank, Seq)>,
}

impl Diagnostic {
    /// New diagnostic at the rule's default severity.
    pub fn new(rule: Rule, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity: rule.default_severity(),
            message: message.into(),
            ranks: Vec::new(),
            span: None,
        }
    }

    /// Attach a primary location (also records the rank as involved).
    pub fn at(mut self, rank: Rank, seq: Seq) -> Self {
        self.span = Some((rank, seq));
        self.involving([rank])
    }

    /// Record involved ranks (sorted/deduplicated on insert).
    pub fn involving(mut self, ranks: impl IntoIterator<Item = Rank>) -> Self {
        self.ranks.extend(ranks);
        self.ranks.sort_unstable();
        self.ranks.dedup();
        self
    }

    /// Render as one JSON object (hand-rolled; this crate is
    /// dependency-free).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"rule\":\"");
        s.push_str(self.rule.code());
        s.push_str("\",\"severity\":\"");
        s.push_str(self.severity.label());
        s.push_str("\",\"message\":\"");
        json_escape_into(&self.message, &mut s);
        s.push_str("\",\"ranks\":[");
        for (i, r) in self.ranks.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&r.to_string());
        }
        s.push(']');
        if let Some((rank, seq)) = self.span {
            s.push_str(&format!(",\"rank\":{rank},\"seq\":{seq}"));
        }
        s.push('}');
        s
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.rule.code())?;
        match self.span {
            Some((rank, seq)) => write!(f, " rank {rank} seq {seq}: ")?,
            None if !self.ranks.is_empty() => {
                write!(f, " ranks {:?}: ", self.ranks)?;
            }
            None => write!(f, ": ")?,
        }
        f.write_str(&self.message)
    }
}

/// Escape `s` as JSON string contents into `out`.
pub fn json_escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

impl From<Violation> for Diagnostic {
    fn from(v: Violation) -> Self {
        match v {
            Violation::NonMonotonic { rank, seq } => Diagnostic::new(
                Rule::ClockNonMono,
                "event overlaps its predecessor or runs backwards in the local clock",
            )
            .at(rank, seq),
            Violation::BadSeq {
                rank,
                expected,
                found,
            } => Diagnostic::new(
                Rule::BadSeq,
                format!("sequence numbers not dense: expected {expected}, found {found}"),
            )
            .at(rank, found),
            Violation::MissingInit { rank } => {
                Diagnostic::new(Rule::MissingInit, "first event is not Init").involving([rank])
            }
            Violation::MissingFinalize { rank } => {
                Diagnostic::new(Rule::MissingFinalize, "last event is not Finalize")
                    .involving([rank])
            }
            Violation::WrongRank { stream, record } => Diagnostic::new(
                Rule::WrongRank,
                format!("record claims rank {record} but came from stream {stream}"),
            )
            .involving([stream, record]),
            Violation::DuplicateRequest { rank, req } => Diagnostic::new(
                Rule::DupRequest,
                format!("request {req} initiated twice before completion"),
            )
            .involving([rank]),
            Violation::UnknownRequest { rank, req } => Diagnostic::new(
                Rule::UnknownRequest,
                format!("wait references unknown or already-completed request {req}"),
            )
            .involving([rank]),
            Violation::LeakedRequest { rank, req } => Diagnostic::new(
                Rule::LeakedRequest,
                format!("request {req} initiated but never completed"),
            )
            .involving([rank]),
            Violation::SelfMessage { rank, seq } => {
                Diagnostic::new(Rule::SelfMessage, "event names its own rank as peer").at(rank, seq)
            }
        }
    }
}

/// [`crate::validate::validate_trace`] reported through the shared
/// diagnostic path.
pub fn validate_trace_diagnostics(trace: &MemTrace) -> Vec<Diagnostic> {
    crate::validate::validate_trace(trace)
        .into_iter()
        .map(Diagnostic::from)
        .collect()
}

/// Sort diagnostics for stable presentation: severity (worst first), then
/// rule code, then location.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.rule.code().cmp(b.rule.code()))
            .then_with(|| a.span.cmp(&b.span))
            .then_with(|| a.ranks.cmp(&b.ranks))
            .then_with(|| a.message.cmp(&b.message))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, EventRecord};

    #[test]
    fn severity_orders_by_badness() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn rule_codes_roundtrip() {
        for &rule in Rule::ALL {
            assert_eq!(Rule::from_code(rule.code()), Some(rule));
            assert_eq!(Rule::from_code(&rule.code().to_lowercase()), Some(rule));
        }
        assert_eq!(Rule::from_code("MPG-NOT-A-RULE"), None);
    }

    #[test]
    fn every_rule_has_a_doc_line() {
        for &rule in Rule::ALL {
            assert!(!rule.doc().is_empty(), "{} has no doc", rule.code());
            // Doc lines are table cells: single line, no pipes.
            assert!(!rule.doc().contains('\n'), "{} doc multiline", rule.code());
            assert!(!rule.doc().contains('|'), "{} doc has pipe", rule.code());
            assert!(!rule.pass().is_empty(), "{} has no pass", rule.code());
        }
    }

    #[test]
    fn design_doc_rule_table_matches_registry() {
        // DESIGN.md §7 renders the registry as a table with one
        // `| MPG-… | severity | pass | doc |` row per rule. Regenerating
        // the rows here and requiring each verbatim in the document means a
        // new rule cannot ship without its documentation line.
        let design = include_str!("../../../DESIGN.md");
        for &rule in Rule::ALL {
            let row = format!(
                "| `{}` | {} | {} | {} |",
                rule.code(),
                rule.default_severity().label(),
                rule.pass(),
                rule.doc()
            );
            assert!(
                design.contains(&row),
                "DESIGN.md is missing the registry row for {}:\n{row}",
                rule.code()
            );
        }
    }

    #[test]
    fn explore_rules_registered_and_documented() {
        // The pass-8 predictive rules must be in the registry with the
        // `explore` pass label, and DESIGN.md must document both the pass
        // (§7 pass table) and the algorithm (§16). The generic
        // registry⇄docs test above already requires their verbatim table
        // rows; this pins the pass wiring itself.
        for rule in [Rule::MayDeadlock, Rule::ScheduleDivergence] {
            assert!(Rule::ALL.contains(&rule));
            assert_eq!(rule.pass(), "explore");
            assert_eq!(Rule::from_code(rule.code()), Some(rule));
        }
        assert_eq!(Rule::MayDeadlock.default_severity(), Severity::Warning);
        assert_eq!(Rule::ScheduleDivergence.default_severity(), Severity::Info);
        let design = include_str!("../../../DESIGN.md");
        assert!(
            design.contains("schedule exploration"),
            "DESIGN.md §7 pass table is missing the explore pass row"
        );
        assert!(
            design.contains("## 16."),
            "DESIGN.md is missing §16 (schedule-space exploration)"
        );
    }

    #[test]
    fn display_and_json_shape() {
        let d = Diagnostic::new(Rule::Deadlock, "cycle: 0 -> 1 -> 0").involving([1, 0, 1]);
        assert_eq!(d.ranks, vec![0, 1]);
        let text = d.to_string();
        assert!(text.starts_with("error[MPG-DEADLOCK]"), "{text}");
        let json = d.to_json();
        assert!(json.contains("\"rule\":\"MPG-DEADLOCK\""), "{json}");
        assert!(json.contains("\"ranks\":[0,1]"), "{json}");
    }

    #[test]
    fn json_escapes_specials() {
        let d = Diagnostic::new(Rule::BadSeq, "quote \" slash \\ newline \n");
        let json = d.to_json();
        assert!(json.contains("quote \\\" slash \\\\ newline \\n"), "{json}");
    }

    #[test]
    fn violations_map_to_rules() {
        let mut mt = MemTrace::new(1);
        mt.push(EventRecord {
            rank: 0,
            seq: 0,
            t_start: 0,
            t_end: 5,
            kind: EventKind::Compute { work: 5 },
        });
        let diags = validate_trace_diagnostics(&mt);
        let rules: Vec<Rule> = diags.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&Rule::MissingInit));
        assert!(rules.contains(&Rule::MissingFinalize));
        assert!(diags.iter().all(|d| d.severity == Severity::Error));
    }

    #[test]
    fn sort_puts_errors_first() {
        let mut diags = vec![
            Diagnostic::new(Rule::WildRace, "advisory"),
            Diagnostic::new(Rule::LeakedRequest, "leak".to_string()).involving([0]),
            Diagnostic::new(Rule::Deadlock, "fatal"),
        ];
        sort_diagnostics(&mut diags);
        assert_eq!(diags[0].rule, Rule::Deadlock);
        assert_eq!(diags[2].rule, Rule::WildRace);
    }
}
