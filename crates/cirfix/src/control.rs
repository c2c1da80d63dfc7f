//! External search control: cooperative cancellation and batch-level
//! scheduling for service mode.
//!
//! A batch search (`cirfix repair`) owns the process: it runs until the
//! budget is spent and nothing else competes for the worker pool. A
//! daemon (`cirfix serve`) multiplexes many concurrent sessions over
//! one pool, and needs two hooks into the engine:
//!
//! * **cancellation** — a client (or the daemon's shutdown path) asks a
//!   running job to stop. The engine checks the flag at candidate-batch
//!   boundaries and returns [`RepairStatus::Interrupted`] with the last
//!   generation-boundary checkpoint intact, so the job is resumable —
//!   exactly the state a `kill -9` would have left behind. Checking
//!   any finer (mid-batch, mid-generation) would buy sub-second latency
//!   at the cost of checkpointing partial generations, which would
//!   desynchronize the RNG replay on resume;
//! * **a batch gate** — before dispatching a batch to the worker pool
//!   the engine acquires a turn and releases it after the merge. A
//!   scheduler implements [`BatchGate`] to rotate turns round-robin
//!   across sessions, time-slicing the pool at batch granularity while
//!   candidate *generation* stays serial (and therefore RNG-faithful)
//!   within each job.
//!
//! Like [`Observer`](cirfix_telemetry::Observer) and
//! [`FaultInjector`](crate::FaultInjector), a [`SearchControl`] rides
//! inside [`RepairConfig`](crate::RepairConfig), so it implements
//! `Debug` by summary and `PartialEq` by identity: two controls are
//! equal when they are the same control (or both inert).
//!
//! [`RepairStatus::Interrupted`]: crate::RepairStatus::Interrupted

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A scheduler's hook into the engine's batch dispatch.
///
/// The engine calls [`BatchGate::acquire`] on the coordinating thread
/// immediately before fanning a candidate batch (or a synchronous
/// evaluation) out to the worker pool, and [`BatchGate::release`] right
/// after the results are merged. Implementations must be deadlock-free:
/// `acquire` should return promptly once the holder's cancel flag trips,
/// even if it is not the holder's turn — the engine notices the flag at
/// the next boundary and withdraws.
pub trait BatchGate: Send + Sync {
    /// Blocks until the holder may dispatch one batch.
    fn acquire(&self);
    /// Releases the slot after the batch completes.
    fn release(&self);
}

struct ControlInner {
    cancelled: AtomicBool,
    gate: Option<Arc<dyn BatchGate>>,
}

/// External control handle for a repair search: an inert default, or a
/// shared cancel flag plus an optional fair-share [`BatchGate`].
///
/// Cloning shares the underlying flag — the daemon keeps one clone per
/// job to deliver `cirfix cancel`, the engine polls another.
#[derive(Clone, Default)]
pub struct SearchControl {
    inner: Option<Arc<ControlInner>>,
}

impl SearchControl {
    /// The inert control: never cancelled, no gate. Equivalent to
    /// `SearchControl::default()`; batch runs use this.
    pub fn none() -> SearchControl {
        SearchControl { inner: None }
    }

    /// A cancellable control without a gate (single-job service mode).
    pub fn cancellable() -> SearchControl {
        SearchControl {
            inner: Some(Arc::new(ControlInner {
                cancelled: AtomicBool::new(false),
                gate: None,
            })),
        }
    }

    /// A cancellable control whose batch dispatches take turns through
    /// `gate`.
    pub fn with_gate(gate: Arc<dyn BatchGate>) -> SearchControl {
        SearchControl {
            inner: Some(Arc::new(ControlInner {
                cancelled: AtomicBool::new(false),
                gate: Some(gate),
            })),
        }
    }

    /// Requests cancellation. The engine stops at the next candidate-
    /// batch boundary and returns an interrupted, resumable result.
    /// Inert controls ignore the request.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::SeqCst);
        }
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.cancelled.load(Ordering::SeqCst))
    }

    /// Acquires a dispatch turn, returning a guard that releases it on
    /// drop. Instant for controls without a gate.
    pub(crate) fn turn(&self) -> TurnGuard {
        let gate = self.inner.as_ref().and_then(|i| i.gate.clone());
        if let Some(g) = &gate {
            g.acquire();
        }
        TurnGuard { gate }
    }
}

/// RAII guard for one batch-dispatch turn.
pub(crate) struct TurnGuard {
    gate: Option<Arc<dyn BatchGate>>,
}

impl Drop for TurnGuard {
    fn drop(&mut self) {
        if let Some(g) = &self.gate {
            g.release();
        }
    }
}

impl fmt::Debug for SearchControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => write!(f, "SearchControl::none"),
            Some(i) => f
                .debug_struct("SearchControl")
                .field("cancelled", &i.cancelled.load(Ordering::SeqCst))
                .field("gated", &i.gate.is_some())
                .finish(),
        }
    }
}

impl PartialEq for SearchControl {
    fn eq(&self, other: &SearchControl) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_control_never_cancels() {
        let c = SearchControl::none();
        c.cancel();
        assert!(!c.is_cancelled());
        drop(c.turn());
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let c = SearchControl::cancellable();
        let view = c.clone();
        assert!(!view.is_cancelled());
        c.cancel();
        assert!(view.is_cancelled());
    }

    #[test]
    fn turn_guard_acquires_and_releases() {
        struct Counting {
            held: AtomicBool,
            acquired: std::sync::atomic::AtomicU64,
        }
        impl BatchGate for Counting {
            fn acquire(&self) {
                assert!(!self.held.swap(true, Ordering::SeqCst));
                self.acquired.fetch_add(1, Ordering::SeqCst);
            }
            fn release(&self) {
                assert!(self.held.swap(false, Ordering::SeqCst));
            }
        }
        let gate = Arc::new(Counting {
            held: AtomicBool::new(false),
            acquired: std::sync::atomic::AtomicU64::new(0),
        });
        let c = SearchControl::with_gate(gate.clone());
        drop(c.turn());
        drop(c.turn());
        assert_eq!(gate.acquired.load(Ordering::SeqCst), 2);
        assert!(!gate.held.load(Ordering::SeqCst));
    }

    #[test]
    fn identity_equality() {
        let a = SearchControl::cancellable();
        let b = SearchControl::cancellable();
        assert_eq!(a, a.clone());
        assert_ne!(a, b);
        assert_eq!(SearchControl::none(), SearchControl::none());
        assert_ne!(a, SearchControl::none());
    }
}
