//! Which error a failed simulation reports. Each program below reports
//! `Deadlock`: the call that would report something else (a panic, a bad
//! peer, a program that never blocks again) sits behind a call that never
//! completes, so the program never reaches it.

use std::sync::mpsc;
use std::time::Duration;

use mpg_noise::PlatformSignature;
use mpg_sim::{SimError, Simulation};

fn quiet() -> PlatformSignature {
    PlatformSignature::quiet("run-ahead")
}

fn assert_deadlock(err: &SimError) {
    assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
}

/// Rank 0 panics right after a synchronous send nobody receives: the send
/// never completes, so the panic is never reached.
#[test]
fn panic_behind_an_unmatched_ssend_is_a_deadlock() {
    let err = Simulation::new(2, quiet())
        .run(|ctx| {
            if ctx.rank() == 0 {
                ctx.ssend(1, 0, 8);
                panic!("reached past a send that never completes");
            }
            ctx.recv(0, 1);
        })
        .unwrap_err();
    assert_deadlock(&err);
}

/// Rank 0 sends to a rank that does not exist, but only after a barrier
/// rank 1 never enters: the bad peer is never reached.
#[test]
fn bad_peer_behind_an_unfilled_barrier_is_a_deadlock() {
    let err = Simulation::new(2, quiet())
        .run(|ctx| {
            if ctx.rank() == 0 {
                ctx.barrier();
                ctx.send(5, 0, 8);
            } else {
                ctx.recv(0, 0);
            }
        })
        .unwrap_err();
    assert_deadlock(&err);
}

/// Rank 0 computes forever after a send nobody receives. The send never
/// completes, so the loop never runs, and the simulation must say so
/// instead of hanging.
#[test]
fn endless_loop_behind_an_unmatched_send_is_a_deadlock() {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let result = Simulation::new(2, quiet()).run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, 8);
                loop {
                    ctx.compute(1);
                }
            }
        });
        let _ = tx.send(result.map(|_| ()));
    });
    let err = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("the simulation did not finish within 20 s")
        .unwrap_err();
    assert_deadlock(&err);
}
