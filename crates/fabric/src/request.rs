//! Completion tracking for nonblocking operations.
//!
//! Every posted send/receive returns a [`Request`]. Requests support
//! nonblocking polling (`test`) and blocking waits (`wait`), from any
//! thread. Completion carries the matched [`Envelope`] (source, tag, byte
//! count) or the error that aborted the transfer.

use crate::error::{FabricError, FabricResult};
use crate::matching::Envelope;
use mpicd_obs::sync::{Condvar, Mutex};
use std::sync::Arc;

/// Shared completion state between the fabric and a request handle.
#[derive(Debug)]
pub(crate) struct ReqState {
    slot: Mutex<Option<FabricResult<Envelope>>>,
    cond: Condvar,
}

impl ReqState {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            slot: Mutex::new(None),
            cond: Condvar::new(),
        })
    }

    /// Mark complete (idempotent: first outcome wins) and wake waiters.
    pub(crate) fn complete(&self, outcome: FabricResult<Envelope>) {
        let mut slot = self.slot.lock();
        if slot.is_none() {
            *slot = Some(outcome);
            self.cond.notify_all();
        }
    }

    pub(crate) fn is_done(&self) -> bool {
        self.slot.lock().is_some()
    }
}

/// Handle to a posted nonblocking operation.
///
/// Dropping a request without waiting is allowed (the operation still
/// completes inside the fabric), but the *caller-side buffer contract* of
/// the unsafe post functions requires the buffers to outlive completion, so
/// well-behaved code waits.
#[derive(Debug, Clone)]
pub struct Request {
    state: Completion,
    flight_id: u64,
}

/// Where a request's outcome lives.
#[derive(Debug, Clone)]
enum Completion {
    /// Finished when the request was created (an eager send, a receive
    /// matched at post time): the outcome is held inline, with no shared
    /// state, lock or condvar.
    Done(FabricResult<Envelope>),
    /// Completed later by the fabric through the shared state.
    Pending(Arc<ReqState>),
}

impl Request {
    /// A request the fabric completes later through `state`.
    pub(crate) fn new(state: Arc<ReqState>) -> Self {
        Self {
            state: Completion::Pending(state),
            flight_id: 0,
        }
    }

    /// A request whose operation finished before it was handed out.
    pub(crate) fn done(outcome: FabricResult<Envelope>) -> Self {
        Self {
            state: Completion::Done(outcome),
            flight_id: 0,
        }
    }

    /// A request that is already complete (used for eager sends, and by
    /// layers that must hand back a request for work done synchronously).
    pub fn ready(envelope: Envelope) -> Self {
        Self::done(Ok(envelope))
    }

    /// Attach the flight-recorder transfer id this request belongs to.
    pub(crate) fn with_flight(mut self, fid: u64) -> Self {
        self.flight_id = fid;
        self
    }

    /// The flight-recorder transfer id of this operation, or 0 when the
    /// recorder was disabled at post time. Use it to correlate a request
    /// with its post event and transfer record in a flight dump.
    pub fn flight_id(&self) -> u64 {
        self.flight_id
    }

    /// Nonblocking completion check; returns the outcome when done.
    pub fn test(&self) -> Option<FabricResult<Envelope>> {
        match &self.state {
            Completion::Done(outcome) => Some(outcome.clone()),
            Completion::Pending(state) => state.slot.lock().clone(),
        }
    }

    /// Has the operation finished (successfully or not)?
    pub fn is_done(&self) -> bool {
        match &self.state {
            Completion::Done(_) => true,
            Completion::Pending(state) => state.is_done(),
        }
    }

    /// Block until completion; returns the envelope or the error.
    pub fn wait(&self) -> FabricResult<Envelope> {
        let state = match &self.state {
            Completion::Done(outcome) => return outcome.clone(),
            Completion::Pending(state) => state,
        };
        let mut slot = state.slot.lock();
        while slot.is_none() {
            slot = state.cond.wait(slot);
        }
        slot.clone().expect("slot populated")
    }

    /// Cancel the request if it has not completed yet.
    ///
    /// Unlike MPI_Cancel this always "succeeds" locally: a later match will
    /// see the request already completed and skip it. On a finished
    /// request it does nothing (first completion wins).
    pub fn cancel(&self) {
        if let Completion::Pending(state) = &self.state {
            state.complete(Err(FabricError::Cancelled));
        }
    }
}

/// Wait for every request; returns the envelopes in order or the first error.
pub fn wait_all(requests: &[Request]) -> FabricResult<Vec<Envelope>> {
    requests.iter().map(|r| r.wait()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(bytes: usize) -> Envelope {
        Envelope {
            source: 0,
            tag: 0,
            bytes,
        }
    }

    /// `Request::ready` holds its outcome inline; clones, `test`, `wait`
    /// and `cancel` behave as on a pending request completed with the
    /// same outcome.
    #[test]
    fn ready_request_is_done() {
        let state = ReqState::new();
        state.complete(Ok(env(9)));
        for r in [Request::ready(env(9)), Request::new(state)] {
            let copy = r.clone();
            assert!(r.is_done() && copy.is_done());
            assert_eq!(r.test(), Some(Ok(env(9))));
            r.cancel();
            assert_eq!(copy.test(), Some(Ok(env(9))), "first completion wins");
            assert_eq!(r.wait(), Ok(env(9)));
            assert_eq!(copy.wait(), Ok(env(9)));
        }
        let failed = Request::done(Err(FabricError::PackFailed(4)));
        failed.cancel();
        assert_eq!(failed.wait(), Err(FabricError::PackFailed(4)));
    }

    #[test]
    fn flight_id_defaults_to_zero_and_sticks() {
        let r = Request::ready(env(1));
        assert_eq!(r.flight_id(), 0);
        let r = r.with_flight(42);
        assert_eq!(r.flight_id(), 42);
        assert_eq!(r.clone().flight_id(), 42);
    }

    #[test]
    fn completion_wakes_waiter() {
        let state = ReqState::new();
        let r = Request::new(Arc::clone(&state));
        assert!(!r.is_done());
        let t = std::thread::spawn({
            let r = r.clone();
            move || r.wait()
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        state.complete(Ok(env(77)));
        assert_eq!(t.join().unwrap().unwrap().bytes, 77);
    }

    /// 1 000 rounds of a thread parked in `wait` woken by `complete` from
    /// another thread.
    #[test]
    fn parked_waiter_is_woken_every_round() {
        for round in 0..1000 {
            let state = ReqState::new();
            let r = Request::new(Arc::clone(&state));
            let (parking_tx, parking_rx) = std::sync::mpsc::channel();
            let waiter = std::thread::spawn(move || {
                parking_tx.send(()).unwrap();
                r.wait()
            });
            parking_rx.recv().unwrap();
            // Most rounds the waiter is parked by now; the rest cover the
            // completion landing before it parks.
            std::thread::sleep(std::time::Duration::from_micros(50));
            state.complete(Ok(env(round)));
            assert_eq!(waiter.join().unwrap(), Ok(env(round)));
        }
    }

    #[test]
    fn first_completion_wins() {
        let state = ReqState::new();
        state.complete(Err(FabricError::Cancelled));
        state.complete(Ok(env(1)));
        let r = Request::new(state);
        assert_eq!(r.wait(), Err(FabricError::Cancelled));
    }

    #[test]
    fn cancel_marks_error() {
        let state = ReqState::new();
        let r = Request::new(state);
        r.cancel();
        assert_eq!(r.wait(), Err(FabricError::Cancelled));
    }

    #[test]
    fn wait_all_collects() {
        let rs = vec![Request::ready(env(1)), Request::ready(env(2))];
        let envs = wait_all(&rs).unwrap();
        assert_eq!(envs[0].bytes, 1);
        assert_eq!(envs[1].bytes, 2);
    }
}

/// Model-checked completion wakeups. Run with
/// `RUSTFLAGS="--cfg mpicd_check" cargo test -p mpicd-fabric`.
#[cfg(all(test, mpicd_check))]
mod model_tests {
    use super::*;
    use mpicd_check::{model, thread as mthread};

    /// Two threads wait on a pending request while the fabric completes
    /// it from a third and the owner cancels it: no waiter is left
    /// parked, and all of them see the one outcome that won.
    #[test]
    fn waiters_racing_complete_and_cancel_all_wake_to_one_outcome() {
        model(|| {
            let state = ReqState::new();
            let r = Request::new(Arc::clone(&state));
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    let r = r.clone();
                    mthread::spawn(move || r.wait())
                })
                .collect();
            let completer = mthread::spawn(move || {
                state.complete(Ok(Envelope {
                    source: 1,
                    tag: 2,
                    bytes: 3,
                }))
            });
            r.cancel();
            completer.join();
            let won = r.test().expect("complete after both completions");
            for w in waiters {
                assert_eq!(w.join(), won, "every waiter sees the winning outcome");
            }
        });
    }
}
