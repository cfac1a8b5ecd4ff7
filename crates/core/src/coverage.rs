//! The coverage index: O(log covers) nearest-partition resolution for
//! partition-graph linking.
//!
//! Linking a partition asks, per block it spans, "which is the nearest
//! earlier (or later) partition covering this block?". The legacy
//! implementation answered by walking the row list outward from the new
//! partition's row — O(live rows) per link, which makes a depth-`d`
//! circuit pay O(d) per structural edit and defeats the incrementality
//! the write path is meant to have.
//!
//! `CoverageIndex` keeps, per block, the list of partitions whose block
//! span *covers* that block, sorted by the owning rows' order-maintenance
//! labels ([`qtask_util::LinkedArena::order_label`]). The nearest cover
//! in either direction becomes a binary search — O(log covers-of-block),
//! independent of circuit depth.
//!
//! This is the structural sibling of [`crate::owners::OwnerIndex`]: the
//! owner index tracks which rows have *materialized* a block (a runtime
//! property mutated by executing tasks, hence its per-block locks), while
//! the coverage index tracks which partitions *span* a block (a static
//! property of the partition layout, mutated only under `&mut Ckt` — so
//! it needs no locks).
//!
//! # Consistency model
//!
//! The index stores [`PartId`]s, never labels: whole-list relabels change
//! label values but never relative order, so a list sorted by label stays
//! sorted and every operation re-reads current labels through its
//! `label_of` accessor. Within one row, partitions are block-disjoint, so
//! a block's list holds at most one partition per row and labels are
//! strictly increasing — binary search needs no tie-breaking.
//!
//! # The tail fast path
//!
//! Every query first compares against the list's last cover. Building a
//! circuit front to back ([`crate::Ckt::from_circuit`]) appends each new
//! row after all existing ones, so its partitions always land at the tail
//! and their backward scans always stop there: the cold build then does
//! one label comparison per block instead of a binary search.

use crate::row::PartId;

/// Per-block sorted lists of covering partitions.
pub(crate) struct CoverageIndex {
    /// `blocks[b]` = partitions spanning block `b`, ascending by the
    /// owning row's order label.
    blocks: Vec<Vec<PartId>>,
}

impl CoverageIndex {
    /// An empty index over `num_blocks` blocks.
    pub(crate) fn new(num_blocks: usize) -> CoverageIndex {
        CoverageIndex {
            blocks: (0..num_blocks).map(|_| Vec::new()).collect(),
        }
    }

    /// Records `pid` as covering block `b`. `label_of` must return the
    /// *current* order label of a live partition's row.
    pub(crate) fn add(&mut self, b: usize, pid: PartId, label_of: impl Fn(PartId) -> u64) {
        let list = &mut self.blocks[b];
        let label = label_of(pid);
        if list.last().is_none_or(|&p| label_of(p) < label) {
            list.push(pid);
            return;
        }
        let pos = list.partition_point(|&p| label_of(p) < label);
        if list.get(pos) != Some(&pid) {
            debug_assert!(
                list.get(pos).is_none_or(|&p| label_of(p) > label),
                "two partitions of one row cover the same block"
            );
            list.insert(pos, pid);
        }
    }

    /// Removes `pid` from block `b`'s cover list, if present.
    pub(crate) fn remove(&mut self, b: usize, pid: PartId, label_of: impl Fn(PartId) -> u64) {
        let list = &mut self.blocks[b];
        let label = label_of(pid);
        let pos = list.partition_point(|&p| label_of(p) < label);
        if list.get(pos) == Some(&pid) {
            list.remove(pos);
        }
    }

    /// The cover of block `b` with the greatest label strictly below
    /// `limit`, or `None` when no earlier cover exists.
    pub(crate) fn last_before(
        &self,
        b: usize,
        limit: u64,
        label_of: impl Fn(PartId) -> u64,
    ) -> Option<PartId> {
        let list = &self.blocks[b];
        match list.last() {
            None => return None,
            Some(&p) if label_of(p) < limit => return Some(p),
            Some(_) => {}
        }
        let pos = list.partition_point(|&p| label_of(p) < limit);
        pos.checked_sub(1).map(|i| list[i])
    }

    /// The cover of block `b` with the least label strictly above
    /// `limit`, or `None` when no later cover exists.
    pub(crate) fn first_after(
        &self,
        b: usize,
        limit: u64,
        label_of: impl Fn(PartId) -> u64,
    ) -> Option<PartId> {
        let list = &self.blocks[b];
        if list.last().is_none_or(|&p| label_of(p) <= limit) {
            return None;
        }
        let pos = list.partition_point(|&p| label_of(p) <= limit);
        list.get(pos).copied()
    }

    /// Debug snapshot of block `b`'s cover list, in order.
    pub(crate) fn covers_of(&self, b: usize) -> &[PartId] {
        &self.blocks[b]
    }

    /// Total entries across all blocks (diagnostics).
    pub(crate) fn len(&self) -> usize {
        self.blocks.iter().map(|l| l.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    /// The tail fast paths answer exactly what the binary searches do,
    /// whether covers arrive in order (a front-to-back build) or not
    /// (mid-circuit inserts).
    #[test]
    fn queries_match_a_linear_scan() {
        let mut rng = StdRng::seed_from_u64(7);
        for in_order in [true, false] {
            let mut labels: Vec<u64> = (0..40).map(|i| 10 * i + 5).collect();
            if !in_order {
                labels.shuffle(&mut rng);
            }
            let pid = |label: u64| PartId(qtask_util::Key::from_bits(label));
            let label_of = |p: PartId| p.key().to_bits();
            let mut index = CoverageIndex::new(1);
            let mut added = Vec::new();
            for &label in &labels {
                index.add(0, pid(label), label_of);
                added.push(label);
                added.sort_unstable();
                let listed: Vec<u64> = index.covers_of(0).iter().map(|&p| label_of(p)).collect();
                assert_eq!(listed, added);
                for limit in 0..=410 {
                    let before = added.iter().rev().find(|&&l| l < limit).copied();
                    let after = added.iter().find(|&&l| l > limit).copied();
                    assert_eq!(index.last_before(0, limit, label_of).map(label_of), before);
                    assert_eq!(index.first_after(0, limit, label_of).map(label_of), after);
                }
            }
            for &label in &labels {
                index.remove(0, pid(label), label_of);
            }
            assert_eq!(index.len(), 0);
        }
    }
}
