//! Copy-on-write row vectors (paper §III-F3).
//!
//! Every row keeps a logical full state vector, but physically stores only
//! the blocks its gate touched; every other block is an [`Slot::Inherit`]
//! link to "the same block one row earlier". Reading resolves the chain
//! backward to the nearest owning row, bottoming out at the implicit
//! |0…0⟩ initial state — which is never materialized, so an untouched
//! 26-qubit block costs nothing.
//!
//! Slots use a tiny mutex for interior mutability: partitions of different
//! rows execute concurrently and publish/read blocks through the slots.
//! The dependency edges of the partition graph guarantee a reader's
//! sources are fully published before it runs, so the locks only protect
//! the `Arc` swap itself.

use parking_lot::Mutex;
use qtask_num::Complex64;
use std::sync::Arc;

/// A block's worth of amplitudes, shared between rows until rewritten.
///
/// One allocation holds the reference counts and the amplitudes: blocks
/// are built in place ([`new_block`], [`Resolved::to_block`]) rather than
/// filled in a `Vec` and then wrapped. A uniquely owned block can be
/// reclaimed ([`RowVector::take_reusable_arc`]) when its partition
/// re-executes and mutated through [`Arc::get_mut`], making steady-state
/// incremental updates allocation-free.
pub type BlockData = Arc<[Complex64]>;

/// A fresh all-zero block of `block_size` amplitudes, in one allocation
/// (collecting a trusted-length iterator sizes the `Arc` exactly).
pub fn new_block(block_size: usize) -> BlockData {
    (0..block_size).map(|_| Complex64::ZERO).collect()
}

/// One block slot of a row vector.
pub enum Slot {
    /// The row did not touch this block: logically equal to the previous
    /// row's block.
    Inherit,
    /// The row owns (rewrote) this block.
    Owned(BlockData),
}

/// A row's copy-on-write state vector.
pub struct RowVector {
    slots: Vec<Mutex<Slot>>,
    block_size: usize,
}

impl RowVector {
    /// Creates an all-inheriting vector over `num_blocks` blocks.
    pub fn new(num_blocks: usize, block_size: usize) -> RowVector {
        RowVector {
            slots: (0..num_blocks).map(|_| Mutex::new(Slot::Inherit)).collect(),
            block_size,
        }
    }

    /// Number of blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.slots.len()
    }

    /// Amplitudes per block.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The owned data of block `b`, if this row owns it.
    pub fn owned(&self, b: usize) -> Option<BlockData> {
        match &*self.slots[b].lock() {
            Slot::Owned(data) => Some(Arc::clone(data)),
            Slot::Inherit => None,
        }
    }

    /// Publishes `data` as block `b` of this row.
    pub fn publish(&self, b: usize, data: BlockData) {
        debug_assert_eq!(data.len(), self.block_size);
        *self.slots[b].lock() = Slot::Owned(data);
    }

    /// Reclaims block `b`'s buffer — `Arc` wrapper included — for
    /// re-execution, if this row owns it and no other holder shares it.
    /// The slot reverts to `Inherit`; the caller mutates the buffer in
    /// place (via [`Arc::get_mut`]) and republishes the *same* allocation,
    /// which is the zero-allocation steady state of incremental updates.
    /// Returns `None` when the block is not owned or still shared. Only
    /// sound while the owning partition has exclusive execution rights to
    /// the block (the task-graph dependencies guarantee no concurrent
    /// reader).
    pub fn take_reusable_arc(&self, b: usize) -> Option<BlockData> {
        let mut slot = self.slots[b].lock();
        if let Slot::Owned(data) = std::mem::replace(&mut *slot, Slot::Inherit) {
            if Arc::strong_count(&data) == 1 {
                return Some(data);
            }
            *slot = Slot::Owned(data);
        }
        None
    }

    /// Reverts block `b` to inheriting (used when the owning gate is
    /// removed — queries then see through to the previous row).
    pub fn clear(&self, b: usize) {
        *self.slots[b].lock() = Slot::Inherit;
    }

    /// Reverts every block to inheriting.
    pub fn clear_all(&self) {
        for s in &self.slots {
            *s.lock() = Slot::Inherit;
        }
    }

    /// True if this row owns block `b`.
    pub fn owns(&self, b: usize) -> bool {
        matches!(&*self.slots[b].lock(), Slot::Owned(_))
    }

    /// Number of owned blocks (for memory accounting).
    pub fn owned_blocks(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(&*s.lock(), Slot::Owned(_)))
            .count()
    }
}

/// The resolution result for one block.
pub enum Resolved {
    /// A materialized block.
    Data(BlockData),
    /// The implicit |0…0⟩ initial state: amplitude 1 at global index 0,
    /// zero elsewhere.
    Initial,
}

impl Resolved {
    /// Reads the amplitude at in-block `offset`, given the block index.
    #[inline]
    pub fn read(&self, block: usize, offset: usize) -> Complex64 {
        match self {
            Resolved::Data(d) => d[offset],
            Resolved::Initial => {
                if block == 0 && offset == 0 {
                    Complex64::ONE
                } else {
                    Complex64::ZERO
                }
            }
        }
    }

    /// Copies the block's contents into a fresh block (one allocation).
    pub fn to_block(&self, block: usize, block_size: usize) -> BlockData {
        match self {
            Resolved::Data(d) => Arc::from(&d[..]),
            Resolved::Initial => (0..block_size).map(|i| self.read(block, i)).collect(),
        }
    }

    /// Copies the block's contents into an existing buffer.
    pub fn fill_into(&self, block: usize, buf: &mut [Complex64]) {
        match self {
            Resolved::Data(d) => buf.copy_from_slice(d),
            Resolved::Initial => {
                buf.fill(Complex64::ZERO);
                if block == 0 {
                    buf[0] = Complex64::ONE;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtask_num::c64;

    #[test]
    fn publish_and_clear() {
        let v = RowVector::new(4, 8);
        assert_eq!(v.owned_blocks(), 0);
        assert!(v.owned(2).is_none());
        let data: BlockData = Arc::from(vec![c64(1.0, 0.0); 8]);
        v.publish(2, Arc::clone(&data));
        assert!(v.owns(2));
        assert_eq!(v.owned_blocks(), 1);
        assert!(Arc::ptr_eq(&v.owned(2).unwrap(), &data));
        v.clear(2);
        assert!(!v.owns(2));
    }

    #[test]
    fn resolved_initial_reads() {
        let r = Resolved::Initial;
        assert!(r.read(0, 0).is_one(0.0));
        assert!(r.read(0, 3).is_zero(0.0));
        assert!(r.read(5, 0).is_zero(0.0));
        let v = r.to_block(0, 4);
        assert_eq!(v.len(), 4);
        assert!(v[0].is_one(0.0));
        assert!(v[1..].iter().all(|z| z.is_zero(0.0)));
        let v = r.to_block(3, 4);
        assert!(v.iter().all(|z| z.is_zero(0.0)));
        let copy = Resolved::Data(Arc::clone(&v)).to_block(3, 4);
        assert!(!Arc::ptr_eq(&copy, &v), "a copy, not a share");
        assert_eq!(copy, v);
    }

    #[test]
    fn take_reusable_arc_keeps_allocation() {
        let v = RowVector::new(2, 4);
        v.publish(0, Arc::from(vec![c64(1.0, 0.0); 4]));
        let mut arc = v.take_reusable_arc(0).expect("uniquely owned");
        assert!(!v.owns(0));
        let ptr = Arc::as_ptr(&arc);
        Arc::get_mut(&mut arc).unwrap()[0] = c64(2.0, 0.0);
        v.publish(0, arc);
        let back = v.owned(0).unwrap();
        assert_eq!(Arc::as_ptr(&back), ptr);
        // A shared block is not reclaimable: the slot keeps ownership.
        let _hold = v.owned(0).unwrap();
        assert!(v.take_reusable_arc(0).is_none());
        assert!(v.owns(0));
    }

    #[test]
    fn sharing_is_by_pointer() {
        let v1 = RowVector::new(2, 4);
        let v2 = RowVector::new(2, 4);
        let data: BlockData = Arc::from(vec![c64(0.5, 0.0); 4]);
        v1.publish(0, Arc::clone(&data));
        v2.publish(0, v1.owned(0).unwrap());
        // Three holders: data, v1, v2.
        assert_eq!(Arc::strong_count(&data), 3);
        v1.clear(0);
        assert_eq!(Arc::strong_count(&data), 2);
    }
}
