//! Poison-ignoring wrappers over `std::sync` primitives — and the
//! workspace's *model-checking seam*.
//!
//! The workspace previously used `parking_lot`; with the dependency gone,
//! these wrappers keep call sites terse (`lock()` returns the guard
//! directly) while deliberately ignoring lock poisoning: a panic while
//! holding a fabric lock already aborts the owning test/benchmark, and the
//! protected state (match queues, handle tables) stays structurally valid.
//!
//! Under `--cfg mpicd_check` the lock types and the [`atomic`] module
//! resolve to the instrumented primitives from `mpicd-check` instead, so
//! every crate that takes its synchronization vocabulary from here
//! (`obs::flight`, `fabric::pipeline`, …) becomes model-checkable without
//! touching its protocol code. Normal builds keep the raw std types —
//! the seam is type aliasing, not indirection, so it costs nothing.

#[cfg(not(mpicd_check))]
use std::sync::{self, LockResult};
use std::time::Duration;

/// Atomics for lock-free protocol code. Import from here (not
/// `std::sync::atomic`) in any module that wants its protocols
/// model-checked; the ordering-audit test in `mpicd-bench` enforces this
/// for the checked modules.
pub mod atomic {
    #[cfg(mpicd_check)]
    pub use mpicd_check::sync::{
        fence, AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };
    #[cfg(not(mpicd_check))]
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };
}

/// Instrumented lock types under `--cfg mpicd_check` (same poison-ignoring
/// API, plus every operation is a model schedule point).
#[cfg(mpicd_check)]
pub use mpicd_check::sync::{Mutex, MutexGuard};

#[cfg(mpicd_check)]
use mpicd_check::sync::Condvar as RawCondvar;

/// A mutex whose `lock` ignores poisoning and returns the guard directly.
#[cfg(not(mpicd_check))]
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

/// Guard type returned by [`Mutex::lock`].
#[cfg(not(mpicd_check))]
pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

#[cfg(not(mpicd_check))]
fn ignore_poison<G>(r: LockResult<G>) -> G {
    match r {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(not(mpicd_check))]
impl<T> Mutex<T> {
    /// New mutex around `value`.
    pub const fn new(value: T) -> Self {
        Self(sync::Mutex::new(value))
    }

    /// Acquire the lock, ignoring poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        ignore_poison(self.0.lock())
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        ignore_poison(self.0.get_mut())
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        ignore_poison(self.0.into_inner())
    }
}

/// The std condition variable with poisoning ignored; the instrumented
/// `mpicd-check` one takes its place under `--cfg mpicd_check`.
#[cfg(not(mpicd_check))]
#[derive(Debug, Default)]
struct RawCondvar(sync::Condvar);

#[cfg(not(mpicd_check))]
impl RawCondvar {
    const fn new() -> Self {
        Self(sync::Condvar::new())
    }

    fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        ignore_poison(self.0.wait(guard))
    }

    fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let (g, res) = match self.0.wait_timeout(guard, dur) {
            Ok(x) => x,
            Err(p) => p.into_inner(),
        };
        (g, res.timed_out())
    }

    fn notify_one(&self) {
        self.0.notify_one();
    }

    fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// Condition variable paired with [`Mutex`]; `wait` ignores poisoning.
///
/// A notify with no thread parked costs one relaxed load and no syscall:
/// the condvar counts the threads between registering (under the caller's
/// guard, just before parking) and deregistering (under the guard again,
/// just after waking), and `notify_*` return at once when that count is 0.
///
/// **Contract:** mutate the predicate a waiter checks under the paired
/// mutex, then notify (with the guard held or after dropping it). That is
/// what makes `Relaxed` enough: if the notifier's critical section comes
/// after the waiter's, the mutex orders the waiter's registration before
/// the notifier's load of the count; if it comes before, the waiter sees
/// the new predicate and never parks. A predicate changed outside the
/// mutex (say, a bare atomic flag) can lose the wakeup.
///
/// Prefer notifying after dropping the guard, unless the condvar may be
/// freed once the guard drops: a waiter woken while the guard is held
/// runs only to block on the mutex, two extra context switches on one
/// CPU.
#[derive(Debug, Default)]
pub struct Condvar {
    /// Threads registered as parked (or about to park) on this condvar.
    waiters: atomic::AtomicUsize,
    inner: RawCondvar,
}

impl Condvar {
    /// New condition variable.
    pub const fn new() -> Self {
        Self {
            waiters: atomic::AtomicUsize::new(0),
            inner: RawCondvar::new(),
        }
    }

    /// Block until notified, releasing the guard while waiting.
    /// Consumes and returns the guard (std style).
    #[track_caller]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.waiters.fetch_add(1, atomic::Ordering::Relaxed);
        let guard = self.inner.wait(guard);
        self.waiters.fetch_sub(1, atomic::Ordering::Relaxed);
        guard
    }

    /// Like [`Self::wait`] with a timeout; returns the reacquired guard
    /// and whether the wait timed out (poison ignored).
    #[track_caller]
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        self.waiters.fetch_add(1, atomic::Ordering::Relaxed);
        let (guard, timed_out) = self.inner.wait_timeout(guard, dur);
        self.waiters.fetch_sub(1, atomic::Ordering::Relaxed);
        (guard, timed_out)
    }

    /// Wake one waiter; free when none is parked.
    #[track_caller]
    pub fn notify_one(&self) {
        if self.waiters.load(atomic::Ordering::Relaxed) != 0 {
            self.inner.notify_one();
        }
    }

    /// Wake all waiters; free when none is parked.
    #[track_caller]
    pub fn notify_all(&self) {
        if self.waiters.load(atomic::Ordering::Relaxed) != 0 {
            self.inner.notify_all();
        }
    }
}

/// A reader-writer lock whose accessors ignore poisoning. Always the std
/// lock: no checked protocol uses reader-writer locking, so it has no
/// instrumented counterpart.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// New lock around `value`.
    pub const fn new(value: T) -> Self {
        Self(std::sync::RwLock::new(value))
    }

    /// Acquire shared read access.
    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
        match self.0.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Acquire exclusive write access.
    pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
        match self.0.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        let mut m = m;
        *m.get_mut() += 1;
        assert_eq!(m.into_inner(), 3);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut ready = m.lock();
            while !*ready {
                ready = cv.wait(ready);
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        *pair.0.lock() = true;
        pair.1.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn wait_timeout_times_out_without_notify() {
        let pair = (Mutex::new(()), Condvar::new());
        let (g, timed_out) = pair.1.wait_timeout(pair.0.lock(), Duration::from_millis(5));
        drop(g);
        assert!(timed_out, "nobody notifies, so the wait must time out");
    }

    #[test]
    fn wait_timeout_returns_on_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut ready = m.lock();
            let mut timed_out = false;
            while !*ready && !timed_out {
                let (g, to) = cv.wait_timeout(ready, Duration::from_secs(60));
                ready = g;
                timed_out = to;
            }
            assert!(*ready, "woken by the notify, not the 60s timeout");
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        *pair.0.lock() = true;
        pair.1.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn poisoned_lock_still_usable() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7, "poisoning is ignored");
    }

    #[test]
    fn poisoned_get_mut_and_into_inner_still_usable() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        let mut m = Arc::into_inner(m).expect("sole owner after join");
        *m.get_mut() += 1;
        assert_eq!(m.into_inner(), 8, "get_mut/into_inner ignore poisoning");
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(5);
        assert_eq!(*l.read(), 5);
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
    }

    #[test]
    fn atomic_module_resolves() {
        use super::atomic::{fence, AtomicU64, Ordering};
        let a = AtomicU64::new(1);
        a.fetch_add(1, Ordering::AcqRel);
        fence(Ordering::Acquire);
        assert_eq!(a.load(Ordering::Acquire), 2);
    }
}

/// Model-checked wake protocol of [`Condvar`]. Run with
/// `RUSTFLAGS="--cfg mpicd_check" cargo test -p mpicd-obs`; under that cfg
/// the waiter count is an instrumented atomic, so the checker explores
/// every interleaving of registration, predicate change and the skipped
/// or delivered notify, and any weak-memory outcome of the `Relaxed` count.
#[cfg(all(test, mpicd_check))]
mod model_tests {
    use super::atomic::Ordering;
    use super::*;
    use mpicd_check::{model, thread as mthread, Model};
    use std::sync::Arc;

    type Flag = Arc<(Mutex<bool>, Condvar)>;

    fn park_until_set(flag: &Flag) {
        let (m, cv) = &**flag;
        let mut set = m.lock();
        while !*set {
            set = cv.wait(set);
        }
    }

    /// Two waiters park on one flag; the notifier sets it under the mutex
    /// and notifies after dropping the guard. No interleaving loses a
    /// wakeup (a lost one would leave a waiter parked: a deadlock).
    #[test]
    fn notify_after_unlock_wakes_every_parked_waiter() {
        model(|| {
            let flag: Flag = Arc::new((Mutex::new(false), Condvar::new()));
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    let f = Arc::clone(&flag);
                    mthread::spawn(move || park_until_set(&f))
                })
                .collect();
            *flag.0.lock() = true;
            flag.1.notify_all();
            for w in waiters {
                w.join();
            }
        });
    }

    /// One waiter, `notify_one` with the guard still held.
    #[test]
    fn notify_one_under_the_guard_wakes_the_waiter() {
        model(|| {
            let flag: Flag = Arc::new((Mutex::new(false), Condvar::new()));
            let f = Arc::clone(&flag);
            let w = mthread::spawn(move || park_until_set(&f));
            let mut set = flag.0.lock();
            *set = true;
            flag.1.notify_one();
            drop(set);
            w.join();
        });
    }

    /// [`Condvar::wait`] with the seeded mutation: the waiter releases the
    /// guard it checked the predicate under, registers, and only then
    /// re-locks and parks. The real `wait` registers under the caller's
    /// guard, so check, registration and park form one critical section.
    fn wait_registering_late<'a, T>(
        cv: &Condvar,
        m: &'a Mutex<T>,
        guard: MutexGuard<'a, T>,
    ) -> MutexGuard<'a, T> {
        drop(guard);
        // BUG under test: a notifier that sets the predicate in this gap
        // reads a count of 0 and skips the wake.
        cv.waiters.fetch_add(1, Ordering::Relaxed);
        let guard = cv.inner.wait(m.lock());
        cv.waiters.fetch_sub(1, Ordering::Relaxed);
        guard
    }

    /// Negative test: the checker must find the schedule in which the
    /// late-registering waiter parks after the notify was skipped, and
    /// report it as a deadlock.
    #[test]
    fn checker_catches_a_waiter_registering_after_the_guard_is_released() {
        let failure = Model::new()
            .find_bug(|| {
                let flag: Flag = Arc::new((Mutex::new(false), Condvar::new()));
                let f = Arc::clone(&flag);
                let w = mthread::spawn(move || {
                    let (m, cv) = &*f;
                    let mut set = m.lock();
                    while !*set {
                        set = wait_registering_late(cv, m, set);
                    }
                });
                *flag.0.lock() = true;
                flag.1.notify_all();
                w.join();
            })
            .expect("the late registration must be caught as a lost wakeup");
        assert!(
            failure.message.contains("deadlock"),
            "failure is the parked waiter nobody wakes: {}",
            failure.message
        );
    }
}
