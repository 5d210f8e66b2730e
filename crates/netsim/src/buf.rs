//! The payload free list of the zero-copy wire path.
//!
//! Wire payloads are the highest-frequency allocation in a campaign. A
//! payload is a plain `Vec<u8>` end to end: a handler takes one from
//! [`NodeApi::buf`](crate::node::NodeApi::buf), encodes into it in place
//! (the codecs' `encode_into`), the channel holds it in flight, and
//! delivery hands the node a borrowed `&[u8]`. [`BufPool`] is where the
//! storage waits between two trips. It belongs to one
//! [`Simulator`](crate::sim::Simulator) and is reached through `&mut`, so
//! there is nothing to lock and no handle to find its way home: whichever
//! way a data frame leaves a channel, the channel code (`sim/channel.rs`)
//! hands its storage back, and steady-state traffic allocates no payload
//! at all.

/// Buffers kept on the free list; beyond this, returns are dropped so an
/// exploration burst cannot pin unbounded memory.
const RETAIN_CAP: usize = 512;

/// Largest capacity worth keeping, in bytes (BGP caps messages at 4096, so
/// in practice nothing is larger).
const MAX_POOLED_CAPACITY: usize = 4096;

/// Hot-path counters for the wire substrate, drained per simulator by
/// [`Simulator::take_wire_stats`](crate::sim::Simulator::take_wire_stats)
/// and folded up into campaign perf counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Total payload bytes sent over channels (data frames only).
    pub wire_bytes: u64,
    /// Buffer acquisitions served from the pool's free lists.
    pub buf_hits: u64,
    /// Buffer acquisitions that had to allocate fresh.
    pub buf_misses: u64,
    /// Delivery events that processed at least one frame.
    pub batches: u64,
    /// Most frames processed by a single delivery event.
    pub max_batch: u64,
    /// Data frames discarded by the channel-fidelity layer (independent or
    /// burst loss).
    pub frames_dropped: u64,
    /// Data frames enqueued twice by the channel-fidelity layer.
    pub frames_duplicated: u64,
    /// Data frames held back by an extra reordering lag.
    pub frames_reordered: u64,
    /// TCP-style link-layer retransmissions (delay-only; the frame still
    /// arrives exactly once).
    pub link_retransmits: u64,
}

impl WireStats {
    /// Fold `other` into `self` (sums, except `max_batch` which maxes).
    pub fn absorb(&mut self, other: WireStats) {
        self.wire_bytes += other.wire_bytes;
        self.buf_hits += other.buf_hits;
        self.buf_misses += other.buf_misses;
        self.batches += other.batches;
        self.max_batch = self.max_batch.max(other.max_batch);
        self.frames_dropped += other.frames_dropped;
        self.frames_duplicated += other.frames_duplicated;
        self.frames_reordered += other.frames_reordered;
        self.link_retransmits += other.link_retransmits;
    }
}

/// A simulator's free list of wire payload buffers, with the counters
/// behind `netsim.buf.hit_ratio`.
#[derive(Debug, Default)]
pub struct BufPool {
    free: Vec<Vec<u8>>,
    hits: u64,
    misses: u64,
}

impl BufPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer: the most recently recycled one if any is free (a
    /// *hit*), a fresh allocation otherwise (a *miss*).
    pub fn acquire(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(buf) => {
                self.hits += 1;
                buf
            }
            None => {
                self.misses += 1;
                Vec::with_capacity(64)
            }
        }
    }

    /// Take a payload's storage back. Storage that could not serve a hit
    /// (no capacity), is oversized, or arrives at a full list is freed.
    pub fn recycle(&mut self, mut buf: Vec<u8>) {
        if (1..=MAX_POOLED_CAPACITY).contains(&buf.capacity()) && self.free.len() < RETAIN_CAP {
            buf.clear();
            self.free.push(buf);
        }
    }

    /// Drain and reset the acquire counters, returning `(hits, misses)`.
    pub fn take_counts(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.hits),
            std::mem::take(&mut self.misses),
        )
    }

    /// Buffers currently on the free list.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_miss_then_hit_on_the_same_storage() {
        let mut pool = BufPool::new();
        let mut buf = pool.acquire();
        buf.extend_from_slice(&[0; 100]);
        let capacity = buf.capacity();
        pool.recycle(buf);
        assert_eq!(pool.free_len(), 1);
        let again = pool.acquire();
        assert!(again.is_empty(), "a recycled buffer comes back cleared");
        assert_eq!(again.capacity(), capacity, "and keeps its storage");
        assert_eq!(pool.take_counts(), (1, 1), "one miss, then one hit");
        assert_eq!(pool.take_counts(), (0, 0), "counters drain");
    }

    #[test]
    fn oversized_and_unallocated_buffers_are_dropped_not_pooled() {
        let mut pool = BufPool::new();
        pool.recycle(Vec::with_capacity(MAX_POOLED_CAPACITY + 1));
        pool.recycle(Vec::new());
        assert_eq!(pool.free_len(), 0);
        pool.recycle(Vec::with_capacity(MAX_POOLED_CAPACITY));
        assert_eq!(pool.free_len(), 1);
    }

    #[test]
    fn retention_cap_bounds_memory() {
        let mut pool = BufPool::new();
        for _ in 0..(RETAIN_CAP + 10) {
            pool.recycle(Vec::with_capacity(8));
        }
        assert_eq!(pool.free_len(), RETAIN_CAP);
    }

    #[test]
    fn wire_stats_absorb_sums_and_maxes() {
        let mut a = WireStats {
            wire_bytes: 10,
            buf_hits: 1,
            buf_misses: 2,
            batches: 3,
            max_batch: 4,
            frames_dropped: 5,
            frames_duplicated: 6,
            frames_reordered: 7,
            link_retransmits: 8,
        };
        a.absorb(WireStats {
            wire_bytes: 5,
            buf_hits: 1,
            buf_misses: 1,
            batches: 1,
            max_batch: 2,
            frames_dropped: 1,
            frames_duplicated: 2,
            frames_reordered: 3,
            link_retransmits: 4,
        });
        assert_eq!(a.wire_bytes, 15);
        assert_eq!(a.buf_hits, 2);
        assert_eq!(a.buf_misses, 3);
        assert_eq!(a.batches, 4);
        assert_eq!(a.max_batch, 4, "max, not sum");
        assert_eq!(a.frames_dropped, 6);
        assert_eq!(a.frames_duplicated, 8);
        assert_eq!(a.frames_reordered, 10);
        assert_eq!(a.link_retransmits, 12);
    }
}
