//! Chunked copy-on-write snapshot spine.
//!
//! A [`StateSnapshot`](crate::StateSnapshot) used to carry its resolved
//! view as a flat `Vec<Option<BlockData>>`. That made the *spine itself*
//! the writer's enemy: the moment any reader pinned a snapshot, the next
//! publication had to clone the whole vector — O(blocks) `Arc` bumps per
//! update, paid even when the update rewrote three blocks.
//!
//! [`Spine`] groups the block slots into fixed-size chunks, each behind
//! its own `Arc`. Cloning a spine is O(chunks) pointer bumps; writing a
//! slot forks (via [`Arc::make_mut`]) only the chunk that holds it. A
//! long-lived reader therefore costs the writer O(chunks + dirty chunks)
//! per publication instead of O(blocks) — the per-version delta is the
//! only thing that forks (`mxv_alloc.rs` pins the allocation profile).

use crate::cow::BlockData;
use std::sync::Arc;

/// Block slots per chunk. Small enough that forking one chunk for a
/// one-block write stays cheap, large enough that the chunk vector is
/// two orders of magnitude shorter than the block count.
pub(crate) const SPINE_CHUNK: usize = 32;

/// The chunked block spine of one snapshot version. Cloning bumps one
/// `Arc` per chunk; [`Spine::set`] copies only the chunk it lands in
/// (and not even that when the spine is unshared).
#[derive(Clone)]
pub struct Spine {
    len: usize,
    chunks: Vec<Arc<Vec<Option<BlockData>>>>,
}

impl Spine {
    /// An all-`None` spine over `len` blocks (the implicit |0…0⟩ view).
    pub fn new(len: usize) -> Spine {
        let mut chunks = Vec::with_capacity(len.div_ceil(SPINE_CHUNK));
        let mut remaining = len;
        while remaining > 0 {
            let take = remaining.min(SPINE_CHUNK);
            chunks.push(Arc::new(vec![None; take]));
            remaining -= take;
        }
        Spine { len, chunks }
    }

    /// Number of block slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the spine holds no blocks (0-qubit degenerate case).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of chunks (the clone cost in `Arc` bumps).
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// The slot of block `b`.
    #[inline]
    pub fn get(&self, b: usize) -> &Option<BlockData> {
        &self.chunks[b / SPINE_CHUNK][b % SPINE_CHUNK]
    }

    /// Writes the slot of block `b`, forking its chunk if shared.
    pub fn set(&mut self, b: usize, data: Option<BlockData>) {
        Arc::make_mut(&mut self.chunks[b / SPINE_CHUNK])[b % SPINE_CHUNK] = data;
    }

    /// Iterates every slot in block order.
    pub fn iter(&self) -> impl Iterator<Item = &Option<BlockData>> {
        self.chunks.iter().flat_map(|c| c.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtask_num::c64;

    fn block(v: f64) -> BlockData {
        Arc::from(vec![c64(v, 0.0); 2])
    }

    #[test]
    fn set_forks_only_the_dirty_chunk() {
        let mut a = Spine::new(SPINE_CHUNK * 3);
        for b in 0..a.len() {
            a.set(b, Some(block(b as f64)));
        }
        let shared = a.clone();
        // Writing one slot must leave the other chunks pointer-shared.
        a.set(1, Some(block(-1.0)));
        assert!(Arc::ptr_eq(
            a.get(SPINE_CHUNK).as_ref().unwrap(),
            shared.get(SPINE_CHUNK).as_ref().unwrap()
        ));
        assert!(!Arc::ptr_eq(
            a.get(1).as_ref().unwrap(),
            shared.get(1).as_ref().unwrap()
        ));
        // The reader's view is unperturbed.
        assert_eq!(shared.get(1).as_ref().unwrap()[0], c64(1.0, 0.0));
        assert_eq!(a.get(1).as_ref().unwrap()[0], c64(-1.0, 0.0));
    }

    #[test]
    fn ragged_tail_chunk_round_trips() {
        let mut s = Spine::new(SPINE_CHUNK + 5);
        assert_eq!(s.len(), SPINE_CHUNK + 5);
        assert_eq!(s.num_chunks(), 2);
        s.set(SPINE_CHUNK + 4, Some(block(7.0)));
        assert_eq!(s.iter().count(), SPINE_CHUNK + 5);
        assert_eq!(s.iter().filter(|b| b.is_some()).count(), 1);
        assert_eq!(s.get(SPINE_CHUNK + 4).as_ref().unwrap()[0], c64(7.0, 0.0));
    }

    #[test]
    fn unshared_writes_do_not_reallocate_chunks() {
        let mut s = Spine::new(4);
        s.set(0, Some(block(1.0)));
        let chunk_ptr = Arc::as_ptr(&s.chunks[0]);
        s.set(1, Some(block(2.0)));
        assert_eq!(
            Arc::as_ptr(&s.chunks[0]),
            chunk_ptr,
            "in-place when unshared"
        );
    }
}
