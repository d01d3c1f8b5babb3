//! Per-worker scratch arenas for the zero-allocation subframe hot path.
//!
//! Every stage of the receive pipeline needs short-lived buffers — FFT
//! scratch, combined symbols, LLR blocks, decoded bits. Allocating them
//! fresh per task puts the global allocator on the per-subframe critical
//! path; a [`ScratchArena`] instead recycles buffers through free lists
//! keyed by power-of-two size class, so after a warmup pass the steady
//! state performs no heap allocation at all (the `zero_alloc` regression
//! test in `lte-phy` proves this with a counting global allocator).
//!
//! Ownership model: one arena per worker thread (`lte-phy` wraps one in
//! its thread-local `UserScratch`), never shared. Buffers are *taken*
//! (moved out empty, with capacity rounded up to the size class),
//! filled, and *recycled* back by the same worker when the task that
//! took them finishes. The dedicated FFT scratch buffer is borrowed in
//! place and grows monotonically to the largest transform seen.
//!
//! Global [`stats`] counters (fresh allocations vs. reuses) are shared
//! by all arenas and exported next to the worker pool's counters as
//! `pool.arena.*` metrics.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::complex::Complex32;

/// Free lists above this depth drop buffers instead of keeping them,
/// bounding arena memory even under pathological take/recycle patterns.
const MAX_POOL_DEPTH: usize = 32;
/// Size classes cover capacities up to `2^MAX_CLASS`.
const MAX_CLASS: usize = 32;

static FRESH: AtomicU64 = AtomicU64::new(0);
static REUSED: AtomicU64 = AtomicU64::new(0);

/// Aggregate arena counters across every thread's arena.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffers allocated fresh (warmup or a new size class).
    pub fresh: u64,
    /// Buffers served from a free list without touching the allocator.
    pub reused: u64,
}

/// Process-wide arena counters (all threads summed).
pub fn stats() -> ArenaStats {
    ArenaStats {
        fresh: FRESH.load(Ordering::Relaxed),
        reused: REUSED.load(Ordering::Relaxed),
    }
}

/// Free lists for one element type, indexed by size class
/// (`class = ceil(log2(capacity))`).
#[derive(Debug, Default)]
struct BufferPool<T> {
    classes: Vec<Vec<Vec<T>>>,
}

impl<T> BufferPool<T> {
    fn class_for(len: usize) -> usize {
        let class = len.max(1).next_power_of_two().trailing_zeros() as usize;
        assert!(class <= MAX_CLASS, "buffer of {len} elements is absurd");
        class
    }

    /// An empty vector with capacity for at least `len` elements, reusing
    /// a recycled buffer of the same size class when one is available.
    fn take(&mut self, len: usize) -> Vec<T> {
        let class = Self::class_for(len);
        if let Some(list) = self.classes.get_mut(class) {
            if let Some(mut buf) = list.pop() {
                buf.clear();
                REUSED.fetch_add(1, Ordering::Relaxed);
                return buf;
            }
        }
        FRESH.fetch_add(1, Ordering::Relaxed);
        Vec::with_capacity(1 << class)
    }

    /// Returns a buffer to its free list for later reuse.
    fn recycle(&mut self, buf: Vec<T>) {
        if buf.capacity() == 0 {
            return;
        }
        // A buffer with capacity `c` serves any class `<= floor(log2(c))`.
        let class = (usize::BITS - 1 - buf.capacity().leading_zeros()) as usize;
        if self.classes.len() <= class {
            self.classes.resize_with(class + 1, Vec::new);
        }
        let list = &mut self.classes[class];
        if list.len() < MAX_POOL_DEPTH {
            list.push(buf);
        }
    }

    fn pooled(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }
}

/// A per-worker pool of reusable hot-path buffers.
///
/// See the module docs for the ownership model. All methods are `&mut
/// self`: an arena belongs to exactly one thread.
///
/// # Example
///
/// ```
/// use lte_dsp::arena::ScratchArena;
///
/// let mut arena = ScratchArena::new();
/// let mut llrs = arena.take_f32(1200);
/// llrs.extend(std::iter::repeat_n(0.0, 1200)); // no reallocation
/// arena.recycle_f32(llrs);
/// let again = arena.take_f32(900); // served from the free list
/// assert!(again.capacity() >= 900);
/// ```
#[derive(Debug, Default)]
pub struct ScratchArena {
    fft: Vec<Complex32>,
    c32: BufferPool<Complex32>,
    f32s: BufferPool<f32>,
    bytes: BufferPool<u8>,
}

impl ScratchArena {
    /// An empty arena; buffers are created on first use and recycled
    /// thereafter.
    pub fn new() -> Self {
        Self::default()
    }

    /// The persistent FFT scratch slice, at least `n` long. Grows
    /// monotonically; steady state never reallocates.
    pub fn fft_scratch(&mut self, n: usize) -> &mut [Complex32] {
        if self.fft.len() < n {
            self.fft.resize(n, Complex32::ZERO);
            FRESH.fetch_add(1, Ordering::Relaxed);
        }
        &mut self.fft[..n]
    }

    /// Takes an empty complex buffer with capacity for `len` elements.
    pub fn take_c32(&mut self, len: usize) -> Vec<Complex32> {
        self.c32.take(len)
    }

    /// Recycles a complex buffer taken with [`take_c32`](Self::take_c32).
    pub fn recycle_c32(&mut self, buf: Vec<Complex32>) {
        self.c32.recycle(buf);
    }

    /// Takes an empty LLR buffer with capacity for `len` elements.
    pub fn take_f32(&mut self, len: usize) -> Vec<f32> {
        self.f32s.take(len)
    }

    /// Recycles an LLR buffer taken with [`take_f32`](Self::take_f32).
    pub fn recycle_f32(&mut self, buf: Vec<f32>) {
        self.f32s.recycle(buf);
    }

    /// Takes an empty bit buffer with capacity for `len` elements.
    pub fn take_u8(&mut self, len: usize) -> Vec<u8> {
        self.bytes.take(len)
    }

    /// Recycles a bit buffer taken with [`take_u8`](Self::take_u8).
    pub fn recycle_u8(&mut self, buf: Vec<u8>) {
        self.bytes.recycle(buf);
    }

    /// Number of buffers currently parked on free lists.
    pub fn pooled_buffers(&self) -> usize {
        self.c32.pooled() + self.f32s.pooled() + self.bytes.pooled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_rounds_capacity_to_class_and_reuses() {
        let mut arena = ScratchArena::new();
        let a = arena.take_f32(100);
        assert!(a.capacity() >= 128, "capacity {}", a.capacity());
        let cap = a.capacity();
        let ptr = a.as_ptr();
        arena.recycle_f32(a);
        // Any length in the same class gets the very same buffer back.
        let b = arena.take_f32(65);
        assert_eq!(b.capacity(), cap);
        assert_eq!(b.as_ptr(), ptr, "must reuse the recycled buffer");
        assert!(b.is_empty());
    }

    #[test]
    fn distinct_classes_do_not_mix() {
        let mut arena = ScratchArena::new();
        let small = arena.take_c32(16);
        arena.recycle_c32(small);
        let large = arena.take_c32(1000);
        assert!(large.capacity() >= 1000);
    }

    #[test]
    fn fft_scratch_grows_monotonically() {
        let mut arena = ScratchArena::new();
        assert_eq!(arena.fft_scratch(300).len(), 300);
        assert_eq!(arena.fft_scratch(1200).len(), 1200);
        let ptr = arena.fft_scratch(1200).as_ptr();
        // A smaller request reuses the same storage.
        assert_eq!(arena.fft_scratch(12).as_ptr(), ptr);
    }

    #[test]
    fn pool_depth_is_bounded() {
        let mut arena = ScratchArena::new();
        for _ in 0..3 * MAX_POOL_DEPTH {
            let buf = {
                let mut b = arena.take_u8(64);
                b.push(1);
                b
            };
            arena.recycle_u8(buf);
        }
        let bufs: Vec<_> = (0..3 * MAX_POOL_DEPTH).map(|_| arena.take_u8(64)).collect();
        for b in bufs {
            arena.recycle_u8(b);
        }
        assert!(arena.pooled_buffers() <= MAX_POOL_DEPTH);
    }

    #[test]
    fn stats_observe_fresh_and_reuse() {
        let before = stats();
        let mut arena = ScratchArena::new();
        let a = arena.take_f32(32);
        arena.recycle_f32(a);
        let b = arena.take_f32(32);
        arena.recycle_f32(b);
        let after = stats();
        assert!(after.fresh > before.fresh);
        assert!(after.reused > before.reused);
    }
}
