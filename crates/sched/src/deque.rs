//! The pool's one queue type: a mutex-guarded [`VecDeque`].
//!
//! [`Deque`] serves both queue roles of [`crate::pool`] — the global
//! user queue fed by threads that are not workers, and each worker's
//! local task deque. It is *not* lock-free: every operation takes the
//! lock, does one `VecDeque` operation and releases it. The owner works
//! at the back ([`push`](Deque::push) / [`pop`](Deque::pop), LIFO);
//! thieves and the global FIFO queue take from the front
//! ([`steal`](Deque::steal)), one item at a time.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Items every queue has room for from the start — more than a few
/// subframes of users or one user's task fan-out — so a warm run's
/// queues never grow at whatever moment a backlog first peaks.
const CAPACITY: usize = 256;

/// Cache-line aligned: the workers' deques are adjacent elements of one
/// `Vec`, and unaligned (40 bytes each) two workers' lock words would
/// share a line and bounce it on every local push and pop.
#[repr(align(64))]
pub(crate) struct Deque<T> {
    queue: Mutex<VecDeque<T>>,
}

impl<T> Deque<T> {
    pub(crate) fn new() -> Self {
        Deque {
            queue: Mutex::new(VecDeque::with_capacity(CAPACITY)),
        }
    }

    /// Poison is ignored: the lock is only ever held across a single
    /// `VecDeque` call, which leaves the queue valid whenever it returns
    /// or unwinds.
    fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pushes at the back (the owner's end).
    pub(crate) fn push(&self, item: T) {
        self.lock().push_back(item);
    }

    /// Pops from the back: the most recently pushed item first.
    pub(crate) fn pop(&self) -> Option<T> {
        self.lock().pop_back()
    }

    /// Takes from the front: the oldest item first.
    pub(crate) fn steal(&self) -> Option<T> {
        self.lock().pop_front()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_lifo_thief_is_fifo() {
        let d = Deque::new();
        assert!(d.is_empty());
        d.push(1);
        d.push(2);
        d.push(3);
        assert_eq!(d.steal(), Some(1));
        assert_eq!(d.pop(), Some(3));
        assert_eq!(d.pop(), Some(2));
        assert_eq!(d.pop(), None);
        assert_eq!(d.steal(), None);
        // The global queue only ever pushes and steals: plain FIFO.
        d.push(4);
        d.push(5);
        assert_eq!(d.steal(), Some(4));
        assert_eq!(d.steal(), Some(5));
        assert_eq!(d.steal(), None);
    }

    #[test]
    fn stealer_works_across_threads() {
        let d = Deque::new();
        for i in 0..1000 {
            d.push(i);
        }
        let total: usize = std::thread::scope(|scope| {
            (0..4)
                .map(|_| scope.spawn(|| std::iter::from_fn(|| d.steal()).count()))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(total, 1000);
        assert_eq!(d.pop(), None);
    }
}
