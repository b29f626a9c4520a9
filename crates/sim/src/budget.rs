//! The process-wide budget of host threads that run simulation work.
//!
//! [`Machine::exec_batch`](crate::engine::Machine::exec_batch) may spread
//! a batch's cores over helper threads, but never beyond the host: every
//! thread that runs simulation work — a sweep worker, the caller of a
//! batch, a batch helper — is counted in one process-wide number, and
//! helpers start only while that number is below
//! [`std::thread::available_parallelism`]. A sweep whose workers already
//! fill the host therefore starts none.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Threads currently counted as running simulation work.
static RUNNING: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether the current thread is already counted in [`RUNNING`].
    static REGISTERED: Cell<bool> = const { Cell::new(false) };
}

/// The host's thread count, read once.
fn host_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Counts the calling thread as running simulation work until dropped.
/// A thread that is already counted is not counted twice.
#[derive(Debug)]
#[must_use = "the thread stays counted only while the guard lives"]
pub struct SimThread {
    counted: bool,
    /// The guard releases a thread-local flag, so it stays on its thread.
    _thread_bound: PhantomData<*const ()>,
}

impl SimThread {
    /// Counts the calling thread (once) for the guard's lifetime.
    pub fn register() -> Self {
        let counted = !REGISTERED.replace(true);
        if counted {
            RUNNING.fetch_add(1, Ordering::SeqCst);
        }
        SimThread {
            counted,
            _thread_bound: PhantomData,
        }
    }
}

impl Drop for SimThread {
    fn drop(&mut self) {
        if self.counted {
            REGISTERED.set(false);
            RUNNING.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Helper threads granted within the budget; returned when dropped.
#[derive(Debug)]
pub(crate) struct Helpers {
    count: usize,
}

impl Helpers {
    /// Grants up to `want` helpers, as many as the host has free.
    pub(crate) fn reserve(want: usize) -> Self {
        let mut count = 0;
        // The closure always returns `Some`, so the update cannot fail.
        let _ = RUNNING.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |running| {
            count = want.min(host_threads().saturating_sub(running));
            Some(running + count)
        });
        Helpers { count }
    }

    /// Helpers granted.
    pub(crate) fn count(&self) -> usize {
        self.count
    }
}

impl Drop for Helpers {
    fn drop(&mut self) {
        RUNNING.fetch_sub(self.count, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_stay_within_the_request_and_the_host() {
        let _me = SimThread::register();
        let helpers = Helpers::reserve(64);
        assert!(helpers.count() < host_threads());
        assert_eq!(Helpers::reserve(0).count(), 0);
    }

    #[test]
    fn a_thread_is_counted_once() {
        let outer = SimThread::register();
        let inner = SimThread::register();
        assert!(outer.counted && !inner.counted);
        drop(inner);
        assert!(REGISTERED.get(), "the outer guard still counts the thread");
        drop(outer);
        assert!(!REGISTERED.get());
    }
}
