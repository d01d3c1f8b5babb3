//! The pool's one queue type: a mutex-guarded [`VecDeque`].
//!
//! [`Deque`] serves all three queue roles of [`crate::pool`] — the
//! global user-job queue, the overflow queue fed by foreign threads and
//! each worker's local task deque. It is *not* lock-free: every
//! operation takes the lock, does one `VecDeque` operation and releases
//! it. The owner works at the back ([`push`](Deque::push) /
//! [`pop`](Deque::pop), LIFO); thieves and the shared FIFO queues take
//! from the front ([`steal`](Deque::steal)).

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Most tasks one [`Deque::steal_half_into`] moves, the returned one
/// included.
const MAX_BATCH: usize = 32;

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
            queue: Mutex::new(VecDeque::new()),
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

    /// Steals the older half of the queue (⌈n/2⌉, at most
    /// [`MAX_BATCH`]): the oldest item is returned for immediate
    /// execution together with the number of further items moved onto
    /// the back of `dest` in FIFO order. `None` when the queue is empty.
    ///
    /// This queue's lock is released *before* `dest` is locked. A
    /// worker's round-robin victim scan reaches its own deque, so
    /// holding both would self-deadlock (and two workers stealing from
    /// each other would deadlock pairwise).
    pub(crate) fn steal_half_into(&self, dest: &Deque<T>) -> Option<(T, usize)> {
        let mut batch = {
            let mut src = self.lock();
            let take = src.len().div_ceil(2).min(MAX_BATCH);
            src.drain(..take).collect::<Vec<T>>().into_iter()
        };
        let first = batch.next()?;
        let moved = batch.len();
        dest.lock().extend(batch);
        Some((first, moved))
    }

    /// Queued items (a racy point-in-time sample).
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
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
        // The shared queues only ever push and steal: plain FIFO.
        d.push(4);
        d.push(5);
        assert_eq!(d.steal(), Some(4));
        assert_eq!(d.steal(), Some(5));
        assert_eq!(d.steal(), None);
    }

    #[test]
    fn batch_steal_halves_the_victim_queue() {
        let victim = Deque::new();
        let thief = Deque::new();
        for i in 0..10 {
            victim.push(i);
        }
        // 10 queued: the thief takes ceil(10/2) = 5 — the oldest is
        // returned, four move to the thief's deque, five remain.
        assert_eq!(victim.steal_half_into(&thief), Some((0, 4)));
        assert_eq!(thief.len(), 4);
        assert_eq!(victim.len(), 5);
        // The thief's copy preserves the victim's FIFO order.
        assert_eq!(thief.steal(), Some(1));
        // An empty victim reports None without touching dest.
        assert_eq!(Deque::<i32>::new().steal_half_into(&thief), None);
        assert_eq!(thief.len(), 3);
    }

    #[test]
    fn batch_steal_caps_at_max_batch() {
        let victim = Deque::new();
        let thief = Deque::new();
        for i in 0..200 {
            victim.push(i);
        }
        assert_eq!(victim.steal_half_into(&thief), Some((0, MAX_BATCH - 1)));
        assert_eq!(thief.len(), MAX_BATCH - 1);
        assert_eq!(victim.len(), 200 - MAX_BATCH);
    }

    #[test]
    fn stealing_from_itself_neither_deadlocks_nor_loses_an_item() {
        let d = Deque::new();
        for i in 0..7 {
            d.push(i);
        }
        // ceil(7/2) = 4 leave the front; three of them come back on at
        // the back, behind the untouched younger half.
        assert_eq!(d.steal_half_into(&d), Some((0, 3)));
        let rest: Vec<i32> = std::iter::from_fn(|| d.steal()).collect();
        assert_eq!(rest, [4, 5, 6, 1, 2, 3]);
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
