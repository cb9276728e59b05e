//! In-memory span recorder for the traced run.
//!
//! The spans are recorded from the benchmark's side, around each call into
//! a layer's public function; nothing inside the product is instrumented.
//! Spans stay in memory and are written out once, when the run ends.

use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.hb_build`.
    pub name: String,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans of one workload. A disabled recorder still runs the
/// closures it is given but keeps nothing, which is how the tracing
/// overhead is measured.
pub struct Recorder {
    workload: String,
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A span that has begun and not yet ended.
#[must_use = "a span that is never ended stays open"]
pub struct Open {
    id: Option<usize>,
    start_ns: u64,
}

impl Recorder {
    /// A recorder for `workload`.
    pub fn new(workload: &str, enabled: bool) -> Self {
        Recorder {
            workload: workload.to_string(),
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Appends spans another recorder took, shifting their clock by
    /// `offset_ns` and their parent indices past the spans already here.
    /// Roots among them nest under whichever span is open.
    pub fn adopt(&mut self, spans: Vec<Span>, offset_ns: u64) {
        if !self.enabled {
            return;
        }
        let base = self.spans.len();
        let open = self.open.last().copied();
        self.spans.extend(spans.into_iter().map(|s| Span {
            name: s.name,
            start_ns: s.start_ns + offset_ns,
            end_ns: s.end_ns + offset_ns,
            parent: s.parent.map(|p| p + base).or(open),
        }));
    }

    /// Opens a span named `name`, nested under whichever span is open.
    /// Every `begin` is paired with an [`end`](Self::end), innermost first.
    pub fn begin(&mut self, name: &str) -> Open {
        let start_ns = self.now_ns();
        let id = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { id, start_ns }
    }

    /// Closes the span and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end_ns = self.now_ns();
        if let Some(id) = open.id {
            debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
            self.spans[id].end_ns = end_ns;
            self.open.pop();
        }
        (end_ns - open.start_ns) as f64 / 1e9
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders the span file: one object per span with its self time.
    pub fn to_json(&self) -> String {
        let selfs = self_times_ns(&self.spans);
        let mut out = String::from("{\"workload\":\"");
        mpg_trace::json_escape_into(&self.workload, &mut out);
        out.push_str("\",\"spans\":[\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!("{{\"id\":{i},\"name\":\""));
            mpg_trace::json_escape_into(&s.name, &mut out);
            out.push_str("\",\"workload\":\"");
            mpg_trace::json_escape_into(&self.workload, &mut out);
            out.push_str(&format!(
                "\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"self_ns\":{self_ns}}}",
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. The recorder is single-threaded, so children
/// of one span never overlap each other.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let covered = s
                .end_ns
                .min(parent.end_ns)
                .saturating_sub(s.start_ns.max(parent.start_ns));
            selfs[p] = selfs[p].saturating_sub(covered);
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("chain", 0, 100, None),
            span("load", 10, 40, Some(0)),
            span("replay", 40, 90, Some(0)),
            span("decode", 15, 25, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 50, 10]);
    }

    #[test]
    fn child_is_clipped_to_its_parent() {
        let spans = vec![span("p", 10, 20, None), span("c", 5, 30, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![0, 25]);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_keeps_nothing() {
        let mut rec = Recorder::new("w", true);
        let outer = rec.begin("outer");
        let inner = rec.begin("inner");
        assert!(rec.end(inner) >= 0.0);
        assert!(rec.end(outer) >= 0.0);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(rec.to_json().contains("\"name\":\"inner\""));

        let mut off = Recorder::new("w", false);
        let open = off.begin("x");
        assert!(off.end(open) >= 0.0);
        assert!(off.spans().is_empty());
    }
}
