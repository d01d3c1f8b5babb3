//! Fair dispatch order across shards (cells).
//!
//! The multi-cell deployment layer runs one receiver per cell on the
//! *shared* work-stealing pool: tasks from every cell mix freely, and
//! the stealing machinery balances them. What the pool cannot see is
//! which cell a task belonged to, so [`interleave_shards`] decides the
//! release order: instead of spawning cell 0's users, then cell 1's, …,
//! which would let an early wide cell monopolise the queue head, work is
//! released round-robin across shards (user 0 of every cell, then user
//! 1 of every cell, …), so no cell waits behind another's whole
//! subframe.

/// The fair cross-shard dispatch order: given per-shard work-item
/// counts, yields `(shard, item_index)` pairs round-robin — item 0 of
/// every non-empty shard, then item 1, … — so a wide shard cannot
/// monopolise the head of the pool's injection queue. The order is a
/// pure function of the counts, hence identical for every worker count.
pub fn interleave_shards(counts: &[usize]) -> Vec<(usize, usize)> {
    let total: usize = counts.iter().sum();
    let mut order = Vec::with_capacity(total);
    let deepest = counts.iter().copied().max().unwrap_or(0);
    for item in 0..deepest {
        for (shard, &n) in counts.iter().enumerate() {
            if item < n {
                order.push((shard, item));
            }
        }
    }
    debug_assert_eq!(order.len(), total);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_is_fair_and_complete() {
        let order = interleave_shards(&[3, 1, 2]);
        assert_eq!(order, vec![(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2)]);
        // Every item appears exactly once.
        let order = interleave_shards(&[5, 0, 7, 2]);
        assert_eq!(order.len(), 14);
        let mut seen = std::collections::BTreeSet::new();
        for pair in &order {
            assert!(seen.insert(*pair));
        }
        // No shard's item k appears before another shard's item k-1 has
        // been released (round-robin depth ordering).
        let depth_of = |i: usize| order[i].1;
        for w in (0..order.len()).collect::<Vec<_>>().windows(2) {
            assert!(depth_of(w[1]) + 1 >= depth_of(w[0]));
        }
    }

    #[test]
    fn interleave_handles_empty() {
        assert!(interleave_shards(&[]).is_empty());
        assert!(interleave_shards(&[0, 0]).is_empty());
    }
}
