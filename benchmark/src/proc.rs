//! Child processes as a user sees them: wall clock from spawn to exit and
//! peak resident set from `wait4(2)`, plus the one-CPU pin that keeps the
//! thread-per-rank simulator steady during set-up.

use std::io::Read;
use std::os::unix::process::CommandExt;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of Linux on 64-bit targets: two timevals and fourteen
/// longs, of which only `ru_maxrss` (KiB) is read.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

/// Words in the affinity masks passed to the kernel: room for 1024 CPUs.
const MASK_WORDS: usize = 16;
type CpuMask = [u64; MASK_WORDS];

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// What one finished child cost and produced.
#[derive(Debug, Clone)]
pub struct Finished {
    /// Exit code; `-1` when the child died on a signal.
    pub exit_code: i32,
    /// Everything the child wrote to its standard output.
    pub stdout: String,
    /// Seconds from just before spawn to just after the child was reaped.
    pub wall_s: f64,
    /// Peak resident set of the child, MiB.
    pub peak_rss_mib: f64,
}

/// Reaps `child` with `wait4`, returning its exit code and peak RSS in MiB.
/// The caller must not also call `Child::wait`.
pub fn reap(child: &Child) -> std::io::Result<(i32, f64)> {
    let mut status = 0i32;
    // SAFETY: `Rusage` is plain old data for which all-zero bytes are valid.
    let mut usage: Rusage = unsafe { std::mem::zeroed() };
    let pid = child.id() as i32;
    loop {
        // SAFETY: `status` and `usage` are live, writable and of the sizes
        // wait4 expects; `pid` names a child of this process that nothing
        // else reaps.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let exit_code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -1
    };
    Ok((exit_code, usage.ru_maxrss as f64 / 1024.0))
}

/// Runs `program args…` to completion with its standard error discarded,
/// one child at a time, and times it from spawn to exit.
///
/// `exec` folds the high-water mark of the image it replaces into the
/// child's `ru_maxrss`. The standard library spawns with `vfork` semantics,
/// under which that image is this process, so no child would ever read
/// below this driver's own resident set (3.5–4.5 MiB, more than `mpgtool`
/// needs on a small trace). A `pre_exec` hook makes it `fork` instead: the
/// forked image holds only this process's anonymous pages, about 1 MiB.
pub fn run(program: &str, args: &[String]) -> std::io::Result<Finished> {
    let start = Instant::now();
    let mut command = Command::new(program);
    command
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    // SAFETY: the hook does nothing, so it is trivially async-signal-safe;
    // it is registered only for its effect on how the child is created.
    unsafe { command.pre_exec(|| Ok(())) };
    let mut child = command.spawn()?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_string(&mut stdout);
    let (exit_code, peak_rss_mib) = reap(&child)?;
    let wall_s = start.elapsed().as_secs_f64();
    read?;
    Ok(Finished {
        exit_code,
        stdout,
        wall_s,
        peak_rss_mib,
    })
}

fn current_mask() -> Option<CpuMask> {
    let mut mask: CpuMask = [0; MASK_WORDS];
    // SAFETY: `mask` is writable and its byte size is passed alongside;
    // pid 0 means the calling thread.
    let r = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    (r == 0).then_some(mask)
}

fn set_mask(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is readable and its byte size is passed alongside;
    // pid 0 means the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

/// Runs `f` with the calling thread — and every thread or child process it
/// starts meanwhile — confined to the lowest CPU it may use, then restores
/// the mask. Where the kernel refuses, `f` runs unpinned.
///
/// The simulator runs one OS thread per rank and hands control between them
/// through channels; spread over two CPUs the same run takes anywhere from
/// one to eight times as long, on one CPU it repeats within a few percent.
pub fn on_one_cpu<R>(f: impl FnOnce() -> R) -> R {
    let Some(saved) = current_mask() else {
        return f();
    };
    let mut one: CpuMask = [0; MASK_WORDS];
    if let Some((word, bits)) = saved.iter().enumerate().find(|(_, bits)| **bits != 0) {
        one[word] = 1 << bits.trailing_zeros();
    }
    let pinned = set_mask(&one);
    let result = f();
    if pinned {
        set_mask(&saved);
    }
    result
}

/// CPUs this process may run on.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Resident set of this process in MiB, from `/proc/self/statm`.
pub fn resident_mib() -> f64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |pages| pages * 4096.0 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_reports_exit_code_output_and_rss() {
        let done = run("sh", &["-c".into(), "echo hi; exit 3".into()]).unwrap();
        assert_eq!(done.exit_code, 3);
        assert_eq!(done.stdout, "hi\n");
        assert!(done.wall_s > 0.0);
        assert!(done.peak_rss_mib > 0.0);
    }

    #[test]
    fn one_cpu_pin_is_restored() {
        let before = current_mask();
        let inside =
            on_one_cpu(|| current_mask().map(|m| m.iter().map(|w| w.count_ones()).sum::<u32>()));
        assert_eq!(inside, before.map(|_| 1));
        assert_eq!(current_mask(), before);
    }
}
