//! One turn per key: the single flight of both tiers. A worker that
//! misses a key another worker is filling — a trace being decoded
//! (`resident.rs`), a report being computed (`runtime.rs::run_cached`) —
//! waits for that turn to end and then looks again, instead of doing the
//! same work beside it (DESIGN §20.4). Nothing is handed over: a waiter
//! whose turn-holder left nothing behind (a failed or cut-short run, an
//! over-budget trace) takes the turn and does the work itself. Callers
//! look once before taking a turn, so a hit never waits on one.

use std::collections::HashSet;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

use mpg_core::{CancelReason, CancelToken};

use crate::runtime::lock;

/// How often a waiter looks at its job's token: a turn is held for a
/// whole run, and a cancel or a deadline signals no condvar.
const TOKEN_POLL: Duration = Duration::from_millis(10);

/// The keys whose turn some worker holds.
#[derive(Default)]
pub(crate) struct Turns {
    held: Mutex<HashSet<String>>,
    /// Signalled whenever a key's turn ends.
    released: Condvar,
}

/// The turn of one key, held across the work it guards. Dropping it —
/// after a publish, on a failure, or while unwinding — lets the key's
/// waiters look again.
pub(crate) struct Turn<'a> {
    turns: &'a Turns,
    key: String,
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        lock(&self.turns.held).remove(&self.key);
        self.turns.released.notify_all();
    }
}

impl Turns {
    /// Waits out whoever holds `key`'s turn, then takes it — unless
    /// `token` fires first, in which case its reason is the answer and
    /// the waiter takes nothing.
    pub(crate) fn take(
        &self,
        key: &str,
        token: Option<&CancelToken>,
    ) -> Result<Turn<'_>, CancelReason> {
        let mut held = lock(&self.held);
        while held.contains(key) {
            if let Some(token) = token.filter(|t| t.is_cancelled()) {
                return Err(token.fired().unwrap_or(CancelReason::Cancelled));
            }
            held = match token {
                Some(_) => {
                    self.released
                        .wait_timeout(held, TOKEN_POLL)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => self
                    .released
                    .wait(held)
                    .unwrap_or_else(PoisonError::into_inner),
            };
        }
        held.insert(key.to_string());
        Ok(Turn {
            turns: self,
            key: key.to_string(),
        })
    }

    /// Turns held right now; none once the runtime is drained.
    pub(crate) fn held(&self) -> usize {
        lock(&self.held).len()
    }
}
