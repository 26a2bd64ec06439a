//! Buffer pooling for the datagram hot path.
//!
//! Encoding a frame needs a scratch buffer; without pooling every
//! packet costs a fresh allocation (and a free once the datagram is on
//! the wire). [`BufferPool`] keeps a bounded freelist of `Vec<u8>`
//! buffers: the transmit path draws one with [`BufferPool::get`],
//! encodes into it, sends, and returns it with [`BufferPool::put`] (or
//! [`BufferPool::recycle`] when the buffer went through [`Bytes`] and
//! may be shared). Buffers keep their grown capacity, so steady-state
//! traffic allocates nothing.
//!
//! A node has one pool, and a data frame is one of its buffers a hop:
//! a received data datagram is copied into one and handed back once
//! handled (unless a delivery still slices it), and a frame sent is
//! held by its link's retransmit buffer and handed back when that
//! releases it — once no packet in it can make its deadline, or its
//! sequences leave the window. Only what the pool lent comes back — control frames are
//! encoded fresh and not taken in — so on a steady stream it lends and
//! takes back alike and holds a few buffers idle. What it can hold idle
//! is bounded in any case: at most [`DEFAULT_POOL_CAPACITY`] buffers of
//! at most 64 KiB each.

use bytes::Bytes;

/// Default number of buffers a pool retains.
pub const DEFAULT_POOL_CAPACITY: usize = 64;

/// Buffers larger than this (64 KiB) are dropped rather than pooled, so
/// one jumbo frame cannot pin memory forever.
const MAX_POOLED_CAPACITY: usize = 1 << 16;

/// A bounded freelist of reusable byte buffers.
#[derive(Debug)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
    capacity: usize,
}

impl BufferPool {
    /// Creates a pool that retains at most `capacity` idle buffers.
    pub fn new(capacity: usize) -> Self {
        BufferPool { free: Vec::new(), capacity }
    }

    /// Takes a cleared buffer from the pool, or allocates a fresh one.
    pub fn get(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => Vec::new(),
        }
    }

    /// Returns a buffer to the pool. Dropped if the pool is full or the
    /// buffer grew past the pooling cap.
    pub fn put(&mut self, buf: Vec<u8>) {
        if self.free.len() < self.capacity && buf.capacity() <= MAX_POOLED_CAPACITY {
            self.free.push(buf);
        }
    }

    /// Attempts to reclaim the allocation behind `frame` back into the
    /// pool. Succeeds only when the frame is uniquely owned and
    /// untrimmed (the common case after a direct send); shared or
    /// sliced frames are simply dropped.
    pub fn recycle(&mut self, frame: Bytes) {
        if let Ok(buf) = frame.try_reclaim() {
            self.put(buf);
        }
    }

    /// Number of idle buffers currently pooled.
    pub fn idle(&self) -> usize {
        self.free.len()
    }
}

impl Default for BufferPool {
    fn default() -> Self {
        BufferPool::new(DEFAULT_POOL_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuses_returned_buffers() {
        let mut pool = BufferPool::new(4);
        let mut a = pool.get();
        a.extend_from_slice(&[1, 2, 3]);
        let cap = a.capacity();
        pool.put(a);
        assert_eq!(pool.idle(), 1);
        let b = pool.get();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap);
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn bounded_and_capacity_capped() {
        let mut pool = BufferPool::new(1);
        pool.put(Vec::with_capacity(8));
        pool.put(Vec::with_capacity(8));
        assert_eq!(pool.idle(), 1, "pool keeps at most `capacity` buffers");
        let mut pool = BufferPool::new(4);
        pool.put(Vec::with_capacity(MAX_POOLED_CAPACITY * 2));
        assert_eq!(pool.idle(), 0, "oversized buffers are not pooled");
    }

    #[test]
    fn recycles_unique_frames_only() {
        let mut pool = BufferPool::new(4);
        pool.recycle(Bytes::from(vec![1u8, 2, 3]));
        assert_eq!(pool.idle(), 1);
        let shared = Bytes::from(vec![4u8, 5]);
        let _clone = shared.clone();
        pool.recycle(shared);
        assert_eq!(pool.idle(), 1, "shared frames cannot be reclaimed");
    }
}
