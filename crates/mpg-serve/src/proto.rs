//! The `mpgtool serve` line protocol: a newline-delimited command stream
//! (stdin or `--script FILE`) answered line-by-line on stdout.
//!
//! ```text
//! submit replay <dir> [os=F] [latency=F] [per-byte=F] [seed=N] [deadline-ms=N]
//! submit lint <dir> [deadline-ms=N]
//! submit explore <dir> [budget=N] [seed=N] [deadline-ms=N]
//! status <job>                      # job = job-N or N
//! wait <job> [timeout-ms=N]         # block until terminal (default 30000)
//! result <job> [out=PATH]           # status line + raw output (or to PATH)
//! cancel <job>
//! stats                             # cache-hits: jobs of any kind a report hit answered
//! quarantine
//! check                             # run the invariant checker
//! shutdown
//! ```
//!
//! Every response is one `ok …` or `err …` line (plus a raw output block
//! for `result` without `out=`, terminated by `end <job>`). Blank lines
//! and `#` comments are ignored. Errors are in-band: a protocol error
//! never kills the service, so a chaos script can keep driving it.

use std::io::{self, BufRead, Write};
use std::path::PathBuf;
use std::time::Duration;

use crate::job::{JobId, JobKind, JobSpec};
use crate::runtime::JobRuntime;

fn parse_job(tok: &str) -> Option<JobId> {
    let digits = tok.strip_prefix("job-").unwrap_or(tok);
    digits.parse().ok().map(JobId)
}

/// `key=value` option lookup over the tail of a command.
fn opt<'a>(parts: &'a [&str], key: &str) -> Option<&'a str> {
    parts
        .iter()
        .find_map(|p| p.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
}

fn parse_submit(parts: &[&str]) -> Result<JobSpec, String> {
    let (&verb, rest) = parts
        .split_first()
        .ok_or("submit needs a job kind (replay|lint|explore)")?;
    let (&dir, opts) = rest.split_first().ok_or("submit needs a trace directory")?;
    if dir.contains('=') {
        return Err(format!("expected a trace directory, got option '{dir}'"));
    }
    let num = |key: &str, default: f64| -> Result<f64, String> {
        opt(opts, key).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("bad {key}={v}"))
        })
    };
    let kind = match verb {
        "replay" => JobKind::Replay {
            dir: PathBuf::from(dir),
            os_mean: num("os", 0.0)?,
            latency: num("latency", 0.0)?,
            per_byte: num("per-byte", 0.0)?,
            seed: opt(opts, "seed")
                .map_or(Ok(0), |v| v.parse().map_err(|_| format!("bad seed={v}")))?,
        },
        "lint" => JobKind::Lint {
            dir: PathBuf::from(dir),
        },
        "explore" => {
            let int = |key: &str, default: u64| -> Result<u64, String> {
                opt(opts, key).map_or(Ok(default), |v| {
                    v.parse().map_err(|_| format!("bad {key}={v}"))
                })
            };
            JobKind::Explore {
                dir: PathBuf::from(dir),
                budget: int("budget", 64)?,
                seed: int("seed", 0)?,
            }
        }
        other => return Err(format!("unknown job kind '{other}' (replay|lint|explore)")),
    };
    let mut spec = JobSpec::new(kind);
    if let Some(v) = opt(opts, "deadline-ms") {
        let ms: u64 = v.parse().map_err(|_| format!("bad deadline-ms={v}"))?;
        spec = spec.deadline(Duration::from_millis(ms));
    }
    Ok(spec)
}

/// Drives the runtime from a command stream. Returns on end-of-input or
/// `shutdown`; the runtime is *not* shut down on plain EOF (the caller
/// owns that), so embedders can interleave scripts.
pub fn serve_script(
    mut input: impl BufRead,
    out: &mut impl Write,
    rt: &JobRuntime,
) -> io::Result<()> {
    let mut raw = Vec::new();
    loop {
        raw.clear();
        if input.read_until(b'\n', &mut raw)? == 0 {
            break;
        }
        let Ok(line) = std::str::from_utf8(&raw) else {
            writeln!(out, "err line is not valid UTF-8")?;
            out.flush()?;
            continue;
        };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let (&cmd, rest) = parts.split_first().expect("non-empty line");
        match cmd.to_ascii_lowercase().as_str() {
            "submit" => match parse_submit(rest) {
                Ok(spec) => match rt.submit(spec) {
                    Ok(id) => writeln!(out, "ok {id} queued")?,
                    Err(e) => writeln!(out, "err {e}")?,
                },
                Err(e) => writeln!(out, "err {e}")?,
            },
            "status" | "wait" | "result" | "cancel" => {
                let Some(id) = rest.first().and_then(|t| parse_job(t)) else {
                    writeln!(out, "err {cmd} needs a job id")?;
                    continue;
                };
                match cmd.to_ascii_lowercase().as_str() {
                    "status" => match rt.status(id) {
                        Ok(st) => writeln!(out, "ok {id} {} attempts={}", st.state, st.attempts)?,
                        Err(e) => writeln!(out, "err {e}")?,
                    },
                    "wait" => {
                        let timeout = opt(rest, "timeout-ms");
                        match timeout.map_or(Ok(30_000), str::parse) {
                            Err(_) => {
                                writeln!(out, "err bad timeout-ms={}", timeout.unwrap_or_default())?
                            }
                            Ok(ms) => match rt.wait(id, Duration::from_millis(ms)) {
                                Ok(st) => {
                                    writeln!(out, "ok {id} {} attempts={}", st.state, st.attempts)?
                                }
                                Err(e) => writeln!(out, "err {e}")?,
                            },
                        }
                    }
                    "cancel" => match rt.cancel(id) {
                        Ok(()) => writeln!(out, "ok {id} cancel requested")?,
                        Err(e) => writeln!(out, "err {e}")?,
                    },
                    _ => match rt.status(id) {
                        Ok(st) => {
                            let body = st.output.or(st.error).unwrap_or_default();
                            if let Some(path) = opt(rest, "out") {
                                match std::fs::write(path, &body) {
                                    Ok(()) => writeln!(
                                        out,
                                        "ok {id} {} attempts={} bytes={}",
                                        st.state,
                                        st.attempts,
                                        body.len()
                                    )?,
                                    Err(e) => writeln!(out, "err writing {path}: {e}")?,
                                }
                            } else {
                                writeln!(out, "ok {id} {} attempts={}", st.state, st.attempts)?;
                                out.write_all(body.as_bytes())?;
                                writeln!(out, "end {id}")?;
                            }
                        }
                        Err(e) => writeln!(out, "err {e}")?,
                    },
                }
            }
            "stats" => {
                let s = rt.stats();
                writeln!(
                    out,
                    "ok stats submitted={} done={} failed={} cancelled={} \
                     deadline-exceeded={} crashed={} respawns={} cache-hits={} \
                     quarantined={} workers={} trace-loads={} trace-hits={} \
                     resident-bytes={}",
                    s.submitted,
                    s.done,
                    s.failed,
                    s.cancelled,
                    s.deadline_exceeded,
                    s.crashed,
                    s.respawns,
                    s.cache_hits,
                    rt.quarantine().len(),
                    rt.live_workers(),
                    s.trace_loads,
                    s.trace_hits,
                    s.resident_bytes,
                )?;
            }
            "quarantine" => {
                let q = rt.quarantine();
                writeln!(out, "ok quarantine {}", q.len())?;
                for (id, msg) in q {
                    writeln!(out, "{id} {msg}")?;
                }
            }
            "check" => {
                let v = rt.invariant_violations();
                if v.is_empty() {
                    writeln!(out, "ok check clean")?;
                } else {
                    writeln!(out, "err check {} violation(s)", v.len())?;
                    for violation in v {
                        writeln!(out, "  {violation}")?;
                    }
                }
            }
            "shutdown" => {
                let drained = rt.shutdown(Duration::from_secs(60));
                writeln!(out, "ok shutdown drained={drained}")?;
                return Ok(());
            }
            other => writeln!(out, "err unknown command '{other}'")?,
        }
        out.flush()?;
    }
    Ok(())
}
