//! Size-classed payload buffer pool for the zero-copy wire path.
//!
//! Wire payloads are the highest-frequency allocation in a campaign: every
//! `NodeApi::send` used to heap-allocate a fresh `Vec<u8>`, carry it through
//! the channel, and drop it after delivery. [`BufPool`] recycles those
//! buffers through the full lifecycle instead: a handler acquires a
//! [`PooledBuf`], encodes into it in place (see the codecs' `encode_into`),
//! the channel holds it in flight as a [`Payload`], and delivery hands the
//! node a borrowed `&[u8]` before returning the buffer to the pool — so
//! steady-state traffic does no payload allocation at all.
//!
//! Hand-rolled std-only (the build environment is offline), mirroring what
//! `dice-core`'s clone pool does for whole simulators. The shelf lives
//! behind an `Arc<Mutex<..>>` so the pool handle is `Clone + Send` and the
//! owning [`Simulator`](crate::sim::Simulator) stays movable across
//! validation worker threads; the lock is uncontended in practice because
//! each simulator owns a private pool.

#![expect(
    clippy::disallowed_types,
    reason = "the shelf lock: one private pool per simulator, never contended, and no report reads what it orders"
)]

use std::sync::{Arc, Mutex};

/// Size-class upper bounds, in bytes. A buffer is filed under the smallest
/// class whose bound covers its capacity; buffers that outgrow the largest
/// class are simply dropped (BGP caps messages at 4096 bytes, so in
/// practice nothing is).
const CLASSES: [usize; 4] = [64, 256, 1024, 4096];

/// Free buffers retained per class; beyond this, returns are dropped so an
/// exploration burst cannot pin unbounded memory.
const PER_CLASS_CAP: usize = 128;

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

/// The pool's interior: per-class free lists plus acquire counters.
#[derive(Debug, Default)]
struct Shelf {
    free: [Vec<Vec<u8>>; CLASSES.len()],
    hits: u64,
    misses: u64,
}

fn class_for(capacity: usize) -> Option<usize> {
    CLASSES.iter().position(|&bound| capacity <= bound)
}

fn lock(shelf: &Mutex<Shelf>) -> std::sync::MutexGuard<'_, Shelf> {
    shelf
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A shared, size-classed pool of wire payload buffers.
///
/// Cloning a `BufPool` clones a *handle* to the same shelf (an `Arc` bump),
/// which is how the simulator threads the pool into [`NodeApi`] borrows
/// without fighting the borrow checker.
///
/// [`NodeApi`]: crate::node::NodeApi
#[derive(Debug, Clone, Default)]
pub struct BufPool {
    shelf: Arc<Mutex<Shelf>>,
}

impl BufPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquire a buffer: recycled if any class has one free (a *hit*),
    /// freshly allocated otherwise (a *miss*). The returned handle brings
    /// itself back to this pool on drop.
    pub fn acquire(&self) -> PooledBuf {
        let mut shelf = lock(&self.shelf);
        for class in 0..CLASSES.len() {
            if let Some(mut vec) = shelf.free[class].pop() {
                shelf.hits += 1;
                vec.clear();
                return PooledBuf {
                    vec,
                    home: Some(Arc::clone(&self.shelf)),
                };
            }
        }
        shelf.misses += 1;
        PooledBuf {
            vec: Vec::with_capacity(CLASSES[0]),
            home: Some(Arc::clone(&self.shelf)),
        }
    }

    /// Adopt a payload's storage back into the pool after delivery.
    /// Heap vectors are filed by capacity; pooled buffers return home via
    /// their own `Drop`. Nothing is allocated either way.
    pub fn recycle(&self, payload: Payload) {
        match payload {
            Payload::Pooled(buf) => drop(buf),
            Payload::Heap(vec) => return_to(&self.shelf, vec),
        }
    }

    /// Drain and reset the acquire counters, returning `(hits, misses)`.
    pub fn take_counts(&self) -> (u64, u64) {
        let mut shelf = lock(&self.shelf);
        let out = (shelf.hits, shelf.misses);
        shelf.hits = 0;
        shelf.misses = 0;
        out
    }

    /// Buffers currently sitting on the free lists (all classes).
    pub fn free_len(&self) -> usize {
        lock(&self.shelf).free.iter().map(Vec::len).sum()
    }
}

fn return_to(shelf: &Mutex<Shelf>, vec: Vec<u8>) {
    if let Some(class) = class_for(vec.capacity()) {
        let mut shelf = lock(shelf);
        if shelf.free[class].len() < PER_CLASS_CAP {
            shelf.free[class].push(vec);
        }
    }
}

/// An owned payload buffer leased from a [`BufPool`].
///
/// Dereferences to `[u8]`; fill it through [`PooledBuf::as_mut_vec`]
/// (which is what the codecs' `encode_into` take). On drop the storage
/// returns to its pool — a *detached* buffer (pooling disabled) just frees.
pub struct PooledBuf {
    vec: Vec<u8>,
    home: Option<Arc<Mutex<Shelf>>>,
}

impl PooledBuf {
    /// A buffer with no pool behind it: drop frees, nothing is recycled.
    /// Used when payload pooling is disabled so call sites are uniform.
    pub fn detached() -> Self {
        PooledBuf {
            vec: Vec::new(),
            home: None,
        }
    }

    /// The underlying vector, for in-place encoding.
    pub fn as_mut_vec(&mut self) -> &mut Vec<u8> {
        &mut self.vec
    }

    /// The filled bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.vec
    }
}

impl core::ops::Deref for PooledBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(home) = self.home.take() {
            return_to(&home, std::mem::take(&mut self.vec));
        }
    }
}

impl Clone for PooledBuf {
    /// Byte copy into a detached buffer (clones are rare — snapshot
    /// capture — and must not double-return storage to the pool).
    fn clone(&self) -> Self {
        PooledBuf {
            vec: self.vec.clone(),
            home: None,
        }
    }
}

impl core::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PooledBuf")
            .field("len", &self.vec.len())
            .field("pooled", &self.home.is_some())
            .finish()
    }
}

/// A wire payload: either a plain heap vector (the pre-pool API, still the
/// path for callers that pass `Vec<u8>`) or a pooled buffer. Channels hold
/// these in flight; delivery borrows the bytes and then recycles the
/// storage.
#[derive(Debug, Clone)]
pub enum Payload {
    /// Plain heap storage; adopted into the pool after delivery.
    Heap(Vec<u8>),
    /// Pool-leased storage; returns home on drop.
    Pooled(PooledBuf),
}

impl Payload {
    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Payload::Heap(v) => v,
            Payload::Pooled(b) => b.as_slice(),
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload::Heap(v)
    }
}

impl From<PooledBuf> for Payload {
    fn from(b: PooledBuf) -> Self {
        Payload::Pooled(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_miss_then_hit() {
        let pool = BufPool::new();
        let buf = pool.acquire();
        assert_eq!(buf.len(), 0);
        drop(buf); // returns to the pool
        assert_eq!(pool.free_len(), 1);
        let again = pool.acquire();
        assert_eq!(pool.take_counts(), (1, 1), "one miss, then one hit");
        drop(again);
    }

    #[test]
    fn recycle_adopts_heap_vectors() {
        let pool = BufPool::new();
        pool.recycle(Payload::Heap(Vec::with_capacity(100)));
        assert_eq!(pool.free_len(), 1);
        let buf = pool.acquire();
        assert!(buf.vec.capacity() >= 100, "adopted storage is reused");
    }

    #[test]
    fn oversized_buffers_are_dropped_not_pooled() {
        let pool = BufPool::new();
        pool.recycle(Payload::Heap(Vec::with_capacity(CLASSES[3] + 1)));
        assert_eq!(pool.free_len(), 0);
    }

    #[test]
    fn per_class_cap_bounds_memory() {
        let pool = BufPool::new();
        for _ in 0..(PER_CLASS_CAP + 10) {
            pool.recycle(Payload::Heap(Vec::with_capacity(8)));
        }
        assert_eq!(pool.free_len(), PER_CLASS_CAP);
    }

    #[test]
    fn detached_buffer_never_pools() {
        let pool = BufPool::new();
        let mut d = PooledBuf::detached();
        d.as_mut_vec().extend_from_slice(&[1, 2, 3]);
        assert_eq!(&*d, &[1, 2, 3]);
        drop(d);
        assert_eq!(pool.free_len(), 0);
    }

    #[test]
    fn clone_is_detached_byte_copy() {
        let pool = BufPool::new();
        let mut a = pool.acquire();
        a.as_mut_vec().extend_from_slice(&[7, 8]);
        let b = a.clone();
        assert_eq!(&*b, &[7, 8]);
        drop(a);
        drop(b);
        assert_eq!(pool.free_len(), 1, "only the original returns home");
    }

    #[test]
    fn payload_roundtrips_both_variants() {
        let pool = BufPool::new();
        let heap: Payload = vec![1u8, 2].into();
        assert_eq!(heap.as_slice(), &[1, 2]);
        assert_eq!(heap.len(), 2);
        assert!(!heap.is_empty());
        let mut pb = pool.acquire();
        pb.as_mut_vec().push(9);
        let pooled: Payload = pb.into();
        assert_eq!(pooled.as_slice(), &[9]);
        pool.recycle(heap);
        pool.recycle(pooled);
        assert_eq!(pool.free_len(), 2);
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
