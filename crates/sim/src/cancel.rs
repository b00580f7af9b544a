//! Cooperative cancellation of in-flight simulations.
//!
//! A [`CancelToken`] is a cloneable flag shared between the party running a
//! simulation and any party that may want to stop it (a deadline watchdog,
//! a draining job server, a Ctrl-C handler). The replay loop checks the
//! token at its two natural preemption points — hot-spot entry and each
//! burst-batch boundary — so cancellation latency is bounded by one burst
//! batch, while a run whose token never fires stays bit-identical to an
//! uncancellable run (the check reads one relaxed atomic and takes no other
//! action).
//!
//! Besides the flag itself, the token records *why* it fired as a
//! [`CancelCause`], first cause wins: when a client cancellation and a
//! deadline expiry race, whichever `compare_exchange` lands first is the
//! recorded cause and the loser's is discarded. Outcome classification
//! (Timeout vs Cancelled) reads the recorded cause instead of re-deriving
//! it from racy side channels.
//!
//! Cancellation is *cooperative and lossy by design*: a cancelled replay
//! stops emitting events mid-trace, so the [`RunStats`](crate::RunStats)
//! collected up to that point describe a partial run and must not be
//! compared against completed runs.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// Why a [`CancelToken`] fired. Recorded first-cause-wins: the cause of
/// the party whose cancellation landed first sticks, later cancellations
/// only keep the flag set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CancelCause {
    /// The client (or an explicit caller) requested cancellation — the
    /// default cause of [`CancelToken::cancel`].
    Client,
    /// A deadline watchdog expired the job's deadline.
    Deadline,
}

// Internal encoding of the single atomic: 0 = not cancelled.
const CAUSE_NONE: u8 = 0;
const CAUSE_CLIENT: u8 = 1;
const CAUSE_DEADLINE: u8 = 2;

/// Shared cancellation flag for one simulation job.
///
/// Cloning is cheap (an `Arc` bump); all clones observe the same flag.
/// Once set, the flag stays set — tokens are not reusable across jobs.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    // One atomic carries both the flag and the cause: 0 is "not
    // cancelled", any nonzero value is a fired token with its cause.
    state: Arc<AtomicU8>,
}

impl CancelToken {
    /// Creates a fresh, unfired token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation with cause [`CancelCause::Client`].
    /// Idempotent and safe from any thread, including while the replay
    /// loop is mid-burst — the loop observes the flag at its next
    /// boundary check.
    pub fn cancel(&self) {
        self.cancel_with(CancelCause::Client);
    }

    /// Requests cancellation recording `cause`, first cause wins: if the
    /// token already fired, the original cause is kept and this call is a
    /// no-op. Safe from any thread.
    pub fn cancel_with(&self, cause: CancelCause) {
        let raw = match cause {
            CancelCause::Client => CAUSE_CLIENT,
            CancelCause::Deadline => CAUSE_DEADLINE,
        };
        // Release so the cancelling thread's prior writes are visible to
        // whoever observes the fired token; failure ordering can be
        // relaxed — losing the race changes nothing.
        let _ = self
            .state
            .compare_exchange(CAUSE_NONE, raw, Ordering::Release, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.state.load(Ordering::Acquire) != CAUSE_NONE
    }

    /// The recorded cause, or `None` while the token has not fired. The
    /// cause is stable once observed: first cause wins and never changes.
    #[must_use]
    pub fn cause(&self) -> Option<CancelCause> {
        match self.state.load(Ordering::Acquire) {
            CAUSE_CLIENT => Some(CancelCause::Client),
            CAUSE_DEADLINE => Some(CancelCause::Deadline),
            _ => None,
        }
    }

    /// Whether `other` is a clone of this token (shares the same flag).
    /// Lets registries holding many tokens retire exactly the one a
    /// finished job registered, even when several jobs share an id.
    #[must_use]
    pub fn same_flag(&self, other: &CancelToken) -> bool {
        Arc::ptr_eq(&self.state, &other.state)
    }
}

/// Outcome of a cancellable simulation: the collected statistics, the
/// run's plan-cache counters, and whether the replay ran to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct CancellableRun {
    /// Statistics collected up to completion or the cancellation point.
    /// Partial when [`CancellableRun::cancelled`] is `true`.
    pub stats: crate::RunStats,
    /// This run's plan-cache counters, epoch bumps included (see
    /// [`crate::simulate_observed_planned`]).
    pub plan_cache: rispp_core::PlanCacheStats,
    /// `true` when the token fired and the replay stopped early.
    pub cancelled: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_starts_clear_and_latches() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.cause(), None);
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled());
        assert_eq!(t.cause(), Some(CancelCause::Client));
        // Idempotent.
        t.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn first_cause_wins() {
        let t = CancelToken::new();
        t.cancel_with(CancelCause::Deadline);
        // A racing client cancel after the deadline fired must not
        // rewrite history: the job timed out.
        t.cancel();
        assert_eq!(t.cause(), Some(CancelCause::Deadline));

        let t = CancelToken::new();
        t.cancel();
        t.cancel_with(CancelCause::Deadline);
        assert_eq!(t.cause(), Some(CancelCause::Client));
    }
}
