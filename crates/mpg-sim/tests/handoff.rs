//! How a blocked rank gets the CPU back. A failure while the other ranks
//! wait must wake every one of them, and how the host schedules the rank
//! threads must never show in the trace. Each simulation runs under a
//! 20 s limit, so a rank left parked fails the test instead of hanging it.

use std::sync::mpsc;
use std::time::Duration;

use mpg_noise::PlatformSignature;
use mpg_sim::{RankCtx, SimError, SimOutcome, Simulation};
use mpg_trace::{MemTrace, ANY_SOURCE};

/// Runs `sim` on its own thread and waits at most 20 s for the result.
fn within_20s<T: Send + 'static>(sim: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(sim());
    });
    rx.recv_timeout(Duration::from_secs(20))
        .expect("the simulation did not finish within 20 s")
}

/// Sixteen ranks: ranks 1-15 block in a wildcard receive that nothing
/// will match, and rank 0, after some compute, calls `fail`. Rank 0 makes
/// no blocking call before `fail`, so no decision is taken before all
/// fifteen receives are in: `fail` is processed, and the run fails, only
/// once ranks 1-15 are blocked.
fn fail_while_fifteen_wait(fail: fn(&mut RankCtx)) -> SimError {
    within_20s(move || {
        Simulation::new(16, PlatformSignature::quiet("handoff"))
            .run(|ctx| {
                if ctx.rank() == 0 {
                    ctx.compute(10_000);
                    fail(ctx);
                } else {
                    ctx.recv(ANY_SOURCE, 0);
                }
            })
            .unwrap_err()
    })
}

#[test]
fn an_invalid_call_wakes_every_parked_rank() {
    let err = fail_while_fifteen_wait(|ctx| ctx.send(99, 0, 8));
    assert!(
        matches!(err, SimError::InvalidOperation { rank: 0, .. }),
        "{err}"
    );
}

#[test]
fn a_panic_wakes_every_parked_rank() {
    let err = fail_while_fifteen_wait(|_| panic!("rank 0 gives up"));
    match err {
        SimError::RankPanicked { rank: 0, message } => {
            assert!(message.contains("gives up"), "{message}")
        }
        other => panic!("expected rank 0's panic, got {other}"),
    }
}

/// Sleeps 0-200 µs, a different time for every rank, call and run; run
/// 0 does not sleep at all.
fn jitter(ctx: &RankCtx, call: u64, run: u64) {
    if run > 0 {
        let h = (u64::from(ctx.rank()) * 7_919 + call * 104_729 + run * 1_299_709) % 201;
        std::thread::sleep(Duration::from_micros(h));
    }
}

/// Eight ranks exchange with both neighbours in a `sendrecv` ring.
fn ring(run: u64) -> SimOutcome {
    Simulation::new(8, PlatformSignature::noisy("handoff-ring", 1.0))
        .seed(5)
        .run(move |ctx| {
            let p = ctx.size();
            let (next, prev) = ((ctx.rank() + 1) % p, (ctx.rank() + p - 1) % p);
            for i in 0..12 {
                jitter(ctx, 2 * i, run);
                ctx.compute(5_000 + 1_000 * u64::from(ctx.rank()));
                jitter(ctx, 2 * i + 1, run);
                ctx.sendrecv(next, 0, 256, prev, 0);
            }
        })
        .unwrap()
}

/// Eight ranks: rank 0 hands out tasks (isend, completed by `waitsome`)
/// and takes results from whichever worker answers first (a wildcard
/// `irecv` polled with `test`). A zero-byte task tells a worker to stop.
fn master_worker(run: u64) -> SimOutcome {
    Simulation::new(8, PlatformSignature::noisy("handoff-mw", 1.0))
        .seed(9)
        .run(move |ctx| {
            let workers = ctx.size() - 1;
            let mut call = 0;
            if ctx.rank() == 0 {
                let mut sends: Vec<_> = (1..=workers).map(|w| ctx.isend(w, 0, 64)).collect();
                while !sends.is_empty() {
                    jitter(ctx, call, run);
                    call += 1;
                    let done = ctx.waitsome(&sends);
                    sends.retain(|r| !done.contains(r));
                }
                let (mut left, mut active) = (3 * workers, workers);
                while active > 0 {
                    let r = ctx.irecv(ANY_SOURCE, 1);
                    let info = loop {
                        jitter(ctx, call, run);
                        call += 1;
                        if let Some(info) = ctx.test(r) {
                            break info.expect("a receive carries its envelope");
                        }
                        ctx.compute(700);
                    };
                    if left > 0 {
                        left -= 1;
                        ctx.send(info.src, 0, 64);
                    } else {
                        active -= 1;
                        ctx.send(info.src, 0, 0);
                    }
                }
            } else {
                while ctx.recv(0, 0).bytes > 0 {
                    jitter(ctx, call, run);
                    ctx.compute(3_000 + 1_700 * ((u64::from(ctx.rank()) + call) % 5));
                    call += 1;
                    ctx.send(0, 1, 32);
                }
            }
        })
        .unwrap()
}

/// Ten jittered runs of `program` trace exactly what the unjittered run
/// traces.
fn schedule_free(program: fn(u64) -> SimOutcome) {
    let calm: MemTrace = within_20s(move || program(0).trace);
    assert!(calm.total_events() > 100);
    for run in 1..=10 {
        let trace = within_20s(move || program(run).trace);
        assert!(trace == calm, "jittered run {run} traced differently");
    }
}

#[test]
fn jitter_does_not_change_a_sendrecv_ring() {
    schedule_free(ring);
}

#[test]
fn jitter_does_not_change_a_wildcard_master_worker() {
    schedule_free(master_worker);
}
