//! Closed-loop client of `mpgtool serve` over its stdin/stdout line
//! protocol: one connection, a fixed number of jobs outstanding, each job
//! timed from its submit line written to its `wait` reply read.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use crate::proc;

/// Jobs kept outstanding: submit, and once this many are in flight wait for
/// the oldest before submitting the next.
pub const WINDOW: usize = 4;

/// What one pass over a list of submit lines observed.
#[derive(Debug, Default)]
pub struct Pass {
    /// Seconds from the first submit line written to the last reply read.
    pub wall_s: f64,
    /// Per job, milliseconds from submit written to `wait` reply read.
    pub latencies_ms: Vec<f64>,
    /// Jobs that were refused or did not end in state `done`.
    pub failed_jobs: usize,
    /// Protocol-level defects: the service's own `check`, its drain, its
    /// job accounting and its exit code.
    pub problems: Vec<String>,
}

/// The service's two pipes.
struct Conn {
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Conn {
    /// Writes one command line and reads the one-line reply.
    fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.stdin.write_all(line.as_bytes())?;
        self.stdin.write_all(b"\n")?;
        self.stdin.flush()?;
        let mut reply = String::new();
        self.stdout.read_line(&mut reply)?;
        Ok(reply.trim_end().to_string())
    }
}

/// Waits for the oldest job in flight and books its latency and end state.
fn settle(
    conn: &mut Conn,
    in_flight: &mut VecDeque<(String, Instant)>,
    out: &mut Pass,
) -> std::io::Result<()> {
    let (id, submitted) = in_flight.pop_front().expect("a job is in flight");
    let reply = conn.request(&format!("wait {id}"))?;
    out.latencies_ms
        .push(submitted.elapsed().as_secs_f64() * 1e3);
    if reply.split_whitespace().nth(2) != Some("done") {
        out.failed_jobs += 1;
        out.problems.push(format!("serve: wait {id} -> '{reply}'"));
    }
    Ok(())
}

/// Value of `key=` in a protocol reply line.
fn field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    reply
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

/// The conversation of one pass: the submit lines under the window, then
/// the service's own accounting.
fn converse(
    conn: &mut Conn,
    lines: &[String],
    fetch: Option<(usize, &Path)>,
) -> std::io::Result<Pass> {
    let mut out = Pass::default();
    // (job id as the service names it, submit instant)
    let mut in_flight: VecDeque<(String, Instant)> = VecDeque::new();
    let mut ids: Vec<Option<String>> = Vec::with_capacity(lines.len());

    let start = Instant::now();
    for line in lines {
        if in_flight.len() == WINDOW {
            settle(conn, &mut in_flight, &mut out)?;
        }
        let submitted = Instant::now();
        let reply = conn.request(line)?;
        match reply.strip_prefix("ok ").and_then(|r| r.split(' ').next()) {
            Some(id) if reply.ends_with("queued") => {
                in_flight.push_back((id.to_string(), submitted));
                ids.push(Some(id.to_string()));
            }
            _ => {
                out.failed_jobs += 1;
                out.problems.push(format!("serve: '{line}' -> '{reply}'"));
                ids.push(None);
            }
        }
    }
    while !in_flight.is_empty() {
        settle(conn, &mut in_flight, &mut out)?;
    }
    out.wall_s = start.elapsed().as_secs_f64();

    if let Some((index, path)) = fetch {
        match ids.get(index).and_then(Option::as_ref) {
            Some(id) => {
                let reply = conn.request(&format!("result {id} out={}", path.display()))?;
                if !reply.starts_with("ok ") {
                    out.problems
                        .push(format!("serve: result {id} -> '{reply}'"));
                }
            }
            None => out
                .problems
                .push(format!("serve: job {index} was never queued")),
        }
    }
    let stats = conn.request("stats")?;
    let count = |key: &str| field(&stats, key).and_then(|v| v.parse::<usize>().ok());
    let submitted = ids.iter().flatten().count();
    if count("submitted") != Some(submitted) || count("done") != Some(submitted) {
        out.problems
            .push(format!("serve: {submitted} jobs queued but '{stats}'"));
    }
    let check = conn.request("check")?;
    if check != "ok check clean" {
        out.problems.push(format!("serve: check -> '{check}'"));
    }
    let bye = conn.request("shutdown")?;
    if field(&bye, "drained") != Some("true") {
        out.problems.push(format!("serve: shutdown -> '{bye}'"));
    }
    Ok(out)
}

/// Drives one `mpgtool serve --workers 2 --queue 64 --cache-dir <dir>`
/// process through `lines` (one `submit …` each). When `fetch` names a job
/// index and a file, that job's output is written there with `result out=`
/// so the caller can compare it with the solo CLI run. The service is
/// always reaped before this returns, killed first if the conversation
/// broke down.
pub fn pass(
    mpgtool: &str,
    cache_dir: &Path,
    lines: &[String],
    fetch: Option<(usize, &Path)>,
) -> std::io::Result<Pass> {
    let mut child = Command::new(mpgtool)
        .args(["serve", "--workers", "2", "--queue", "64", "--cache-dir"])
        .arg(cache_dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let mut conn = Conn {
        stdin: child.stdin.take().expect("stdin was piped"),
        stdout: BufReader::new(child.stdout.take().expect("stdout was piped")),
    };
    let conversation = converse(&mut conn, lines, fetch);
    drop(conn);
    if conversation.is_err() {
        let _ = child.kill();
    }
    let (exit_code, _) = proc::reap(&child)?;
    let mut out = conversation?;
    if exit_code != 0 {
        out.problems.push(format!("serve: exit code {exit_code}"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_reads_protocol_key_values() {
        let line = "ok stats submitted=12 done=11 failed=1 workers=2";
        assert_eq!(field(line, "done"), Some("11"));
        assert_eq!(field(line, "failed"), Some("1"));
        assert_eq!(field(line, "crashed"), None);
        assert_eq!(field("ok shutdown drained=true", "drained"), Some("true"));
    }
}
