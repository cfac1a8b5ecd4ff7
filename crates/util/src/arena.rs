//! A generational arena.
//!
//! Slots are reused after removal, but every reuse bumps the slot's
//! generation, so stale [`Key`]s held by callers can never alias a newer
//! value: `get` on a stale key returns `None`. This is the property the
//! simulator relies on when partitions and gates are repeatedly inserted
//! and removed by circuit modifiers.

/// A stable handle into an [`Arena`].
///
/// A key is invalidated by removing the element it points to; it is never
/// invalidated by operations on other elements.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    index: u32,
    generation: u32,
}

impl Key {
    /// A key that is never valid in any arena.
    pub const DANGLING: Key = Key {
        index: u32::MAX,
        generation: u32::MAX,
    };

    /// The raw slot index. Only meaningful for diagnostics.
    #[inline]
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// Packs the key into a `u64` for storage in non-generic containers
    /// (e.g. a retained task-graph node's payload). Round-trips exactly
    /// through [`Key::from_bits`].
    #[inline]
    pub fn to_bits(self) -> u64 {
        (u64::from(self.index) << 32) | u64::from(self.generation)
    }

    /// Reverses [`Key::to_bits`]. The result is only meaningful for bit
    /// patterns produced by `to_bits` on a key of the same arena.
    #[inline]
    pub fn from_bits(bits: u64) -> Key {
        Key {
            index: (bits >> 32) as u32,
            generation: bits as u32,
        }
    }
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "k{}v{}", self.index, self.generation)
    }
}

#[derive(Clone)]
enum Slot<T> {
    /// `next_free` forms an intrusive free list terminated by `u32::MAX`.
    Free {
        next_free: u32,
        generation: u32,
    },
    Occupied {
        value: T,
        generation: u32,
    },
}

/// A generational arena with O(1) insert, remove and lookup.
#[derive(Clone)]
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free_head: u32,
    len: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free_head: u32::MAX,
            len: 0,
        }
    }

    /// Creates an empty arena with room for `cap` elements.
    pub fn with_capacity(cap: usize) -> Self {
        Arena {
            slots: Vec::with_capacity(cap),
            free_head: u32::MAX,
            len: 0,
        }
    }

    /// Number of live elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no element is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a value, returning its stable key.
    pub fn insert(&mut self, value: T) -> Key {
        self.len += 1;
        if self.free_head != u32::MAX {
            let index = self.free_head;
            let slot = &mut self.slots[index as usize];
            let (next_free, generation) = match *slot {
                Slot::Free {
                    next_free,
                    generation,
                } => (next_free, generation),
                Slot::Occupied { .. } => unreachable!("free list points at occupied slot"),
            };
            self.free_head = next_free;
            let generation = generation.wrapping_add(1);
            *slot = Slot::Occupied { value, generation };
            Key { index, generation }
        } else {
            let index = u32::try_from(self.slots.len()).expect("arena overflow");
            self.slots.push(Slot::Occupied {
                value,
                generation: 0,
            });
            Key {
                index,
                generation: 0,
            }
        }
    }

    /// Removes the element behind `key`, returning it if the key was live.
    pub fn remove(&mut self, key: Key) -> Option<T> {
        let slot = self.slots.get_mut(key.index as usize)?;
        match slot {
            Slot::Occupied { generation, .. } if *generation == key.generation => {
                let generation = *generation;
                let old = std::mem::replace(
                    slot,
                    Slot::Free {
                        next_free: self.free_head,
                        generation,
                    },
                );
                self.free_head = key.index;
                self.len -= 1;
                match old {
                    Slot::Occupied { value, .. } => Some(value),
                    Slot::Free { .. } => unreachable!(),
                }
            }
            _ => None,
        }
    }

    /// Returns a reference to the element behind `key`, if live.
    #[inline]
    pub fn get(&self, key: Key) -> Option<&T> {
        match self.slots.get(key.index as usize) {
            Some(Slot::Occupied { value, generation }) if *generation == key.generation => {
                Some(value)
            }
            _ => None,
        }
    }

    /// Returns a mutable reference to the element behind `key`, if live.
    #[inline]
    pub fn get_mut(&mut self, key: Key) -> Option<&mut T> {
        match self.slots.get_mut(key.index as usize) {
            Some(Slot::Occupied { value, generation }) if *generation == key.generation => {
                Some(value)
            }
            _ => None,
        }
    }

    /// True if `key` points at a live element.
    #[inline]
    pub fn contains(&self, key: Key) -> bool {
        self.get(key).is_some()
    }

    /// The key of the live element in slot `index`, if there is one —
    /// the inverse of [`Key::index`] for callers that mark elements in
    /// index-keyed bitsets.
    #[inline]
    pub fn key_at(&self, index: usize) -> Option<Key> {
        match self.slots.get(index) {
            Some(Slot::Occupied { generation, .. }) => Some(Key {
                index: index as u32,
                generation: *generation,
            }),
            _ => None,
        }
    }

    /// Returns mutable references to two distinct live elements.
    ///
    /// # Panics
    /// Panics if the keys are equal or either key is stale.
    pub fn get2_mut(&mut self, a: Key, b: Key) -> (&mut T, &mut T) {
        assert_ne!(a, b, "get2_mut with identical keys");
        assert!(self.contains(a) && self.contains(b), "stale key");
        let (lo, hi, swap) = if a.index < b.index {
            (a, b, false)
        } else {
            (b, a, true)
        };
        let (left, right) = self.slots.split_at_mut(hi.index as usize);
        let lo_ref = match &mut left[lo.index as usize] {
            Slot::Occupied { value, .. } => value,
            Slot::Free { .. } => unreachable!(),
        };
        let hi_ref = match &mut right[0] {
            Slot::Occupied { value, .. } => value,
            Slot::Free { .. } => unreachable!(),
        };
        if swap {
            (hi_ref, lo_ref)
        } else {
            (lo_ref, hi_ref)
        }
    }

    /// Iterates over `(key, &value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(index, slot)| match slot {
                Slot::Occupied { value, generation } => Some((
                    Key {
                        index: index as u32,
                        generation: *generation,
                    },
                    value,
                )),
                Slot::Free { .. } => None,
            })
    }

    /// Iterates over `(key, &mut value)` pairs in slot order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Key, &mut T)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(index, slot)| match slot {
                Slot::Occupied { value, generation } => Some((
                    Key {
                        index: index as u32,
                        generation: *generation,
                    },
                    value,
                )),
                Slot::Free { .. } => None,
            })
    }

    /// Iterates over live keys in slot order.
    pub fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free_head = u32::MAX;
        self.len = 0;
    }
}

/// Predicts the keys future [`Arena::insert`] calls will return without
/// mutating — or cloning — the arena.
///
/// An arena reuses slots LIFO: `remove` pushes the slot onto the head of
/// the intrusive free list and `insert` pops the head, bumping the
/// slot's generation. A predictor replays exactly that discipline
/// against an *immutable* base arena: staged removals go onto a local
/// stack that shadows the head of the real free list, and predicted
/// inserts pop the local stack first, then walk the base arena's chain
/// via a cursor. Every operation is O(1); nothing is copied up front.
///
/// The predictions are only valid while the base arena is not mutated.
/// A transactional overlay ([`crate::LinkedArena`] nets, circuit gates)
/// holds the predictor for the duration of one staged batch and commits
/// by replaying the same operations on the real arena, which then hands
/// out precisely the predicted keys.
#[derive(Clone, Debug)]
pub struct IdPredictor {
    /// Staged removals (and staged re-removals of predicted inserts),
    /// LIFO: the top of this stack is reused before the base chain.
    staged_free: Vec<(u32, u32)>,
    /// Cursor into the base arena's free chain (`u32::MAX` = exhausted).
    chain: u32,
    /// First never-used slot index in the base arena.
    next_fresh: u32,
}

impl IdPredictor {
    /// Predicts the key the next `insert` on `base` would return, after
    /// the staged operations already predicted through `self`.
    pub fn predict_insert<T>(&mut self, base: &Arena<T>) -> Key {
        if let Some((index, generation)) = self.staged_free.pop() {
            return Key {
                index,
                generation: generation.wrapping_add(1),
            };
        }
        if self.chain != u32::MAX {
            let index = self.chain;
            let (next_free, generation) = match base.slots[index as usize] {
                Slot::Free {
                    next_free,
                    generation,
                } => (next_free, generation),
                Slot::Occupied { .. } => {
                    unreachable!("predictor chain points at occupied slot (base arena mutated?)")
                }
            };
            self.chain = next_free;
            return Key {
                index,
                generation: generation.wrapping_add(1),
            };
        }
        let index = self.next_fresh;
        self.next_fresh = index.checked_add(1).expect("arena overflow");
        Key {
            index,
            generation: 0,
        }
    }

    /// Records a staged removal of `key`, making its slot the next one a
    /// predicted insert reuses (the arena's LIFO discipline).
    pub fn predict_remove(&mut self, key: Key) {
        self.staged_free.push((key.index, key.generation));
    }
}

impl<T> Arena<T> {
    /// Creates an [`IdPredictor`] positioned at this arena's current
    /// free-list head. Valid until the arena is next mutated.
    pub fn predictor(&self) -> IdPredictor {
        IdPredictor {
            staged_free: Vec::new(),
            chain: self.free_head,
            next_fresh: self.slots.len() as u32,
        }
    }
}

impl<T> std::ops::Index<Key> for Arena<T> {
    type Output = T;
    #[inline]
    fn index(&self, key: Key) -> &T {
        self.get(key).expect("stale arena key")
    }
}

impl<T> std::ops::IndexMut<Key> for Arena<T> {
    #[inline]
    fn index_mut(&mut self, key: Key) -> &mut T {
        self.get_mut(key).expect("stale arena key")
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Arena<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Declares a newtype wrapper around [`Key`] for type-safe ids.
#[macro_export]
macro_rules! define_key {
    ($(#[$meta:meta])* $vis:vis struct $name:ident;) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        $vis struct $name(pub $crate::arena::Key);

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}({:?})", stringify!($name), self.0)
            }
        }

        impl From<$crate::arena::Key> for $name {
            fn from(k: $crate::arena::Key) -> Self {
                $name(k)
            }
        }

        impl $name {
            /// A handle that is never valid.
            pub const DANGLING: $name = $name($crate::arena::Key::DANGLING);

            /// The underlying arena key.
            #[inline]
            pub fn key(self) -> $crate::arena::Key {
                self.0
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut a = Arena::new();
        let k1 = a.insert("one");
        let k2 = a.insert("two");
        assert_eq!(a.len(), 2);
        assert_eq!(a[k1], "one");
        assert_eq!(a[k2], "two");
        assert_eq!(a.remove(k1), Some("one"));
        assert_eq!(a.len(), 1);
        assert_eq!(a.get(k1), None);
        assert_eq!(a.remove(k1), None);
    }

    #[test]
    fn generation_prevents_aliasing() {
        let mut a = Arena::new();
        let k1 = a.insert(1);
        a.remove(k1);
        let k2 = a.insert(2);
        // Slot is reused but the old key must stay dead.
        assert_eq!(k1.index(), k2.index());
        assert_eq!(a.get(k1), None);
        assert_eq!(a[k2], 2);
        // The slot's current key is recoverable from its index alone.
        assert_eq!(a.key_at(k2.index()), Some(k2));
        a.remove(k2);
        assert_eq!(a.key_at(k2.index()), None);
        assert_eq!(a.key_at(99), None);
    }

    #[test]
    fn free_list_reuses_lifo() {
        let mut a = Arena::new();
        let ks: Vec<_> = (0..8).map(|i| a.insert(i)).collect();
        for k in &ks {
            a.remove(*k);
        }
        assert!(a.is_empty());
        let k = a.insert(99);
        assert_eq!(k.index(), ks.last().unwrap().index());
    }

    #[test]
    fn iter_skips_holes() {
        let mut a = Arena::new();
        let k0 = a.insert(0);
        let _k1 = a.insert(1);
        let k2 = a.insert(2);
        a.remove(k0);
        a.remove(k2);
        let vals: Vec<_> = a.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, vec![1]);
        assert_eq!(a.keys().count(), 1);
    }

    #[test]
    fn get2_mut_disjoint() {
        let mut a = Arena::new();
        let k1 = a.insert(1);
        let k2 = a.insert(2);
        let (x, y) = a.get2_mut(k2, k1);
        std::mem::swap(x, y);
        assert_eq!(a[k1], 2);
        assert_eq!(a[k2], 1);
    }

    #[test]
    #[should_panic]
    fn get2_mut_same_key_panics() {
        let mut a = Arena::new();
        let k = a.insert(1);
        let _ = a.get2_mut(k, k);
    }

    #[test]
    fn clear_resets() {
        let mut a = Arena::new();
        let k = a.insert(5);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.get(k), None);
        let _ = a.insert(6);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn define_key_macro() {
        crate::define_key! {
            /// Test id.
            pub struct TestId;
        }
        let mut a = Arena::new();
        let id = TestId::from(a.insert(7));
        assert_eq!(a[id.key()], 7);
        assert_ne!(id, TestId::DANGLING);
        assert!(format!("{id:?}").starts_with("TestId"));
    }

    #[test]
    fn predictor_matches_real_inserts() {
        let mut a = Arena::new();
        let ks: Vec<_> = (0..6).map(|i| a.insert(i)).collect();
        a.remove(ks[1]);
        a.remove(ks[4]);
        // Free chain is now [4, 1]; fresh slots start at 6.
        let mut p = a.predictor();
        let mut predicted = Vec::new();
        // A staged remove shadows the chain head …
        p.predict_remove(ks[2]);
        for _ in 0..5 {
            predicted.push(p.predict_insert(&a));
        }
        // … replay the same ops for real and compare.
        a.remove(ks[2]);
        let got: Vec<_> = (0..5).map(|i| a.insert(100 + i)).collect();
        assert_eq!(predicted, got);
    }

    #[test]
    fn predictor_reuses_its_own_predictions_lifo() {
        let mut a = Arena::new();
        let k0 = a.insert(0);
        let mut p = a.predictor();
        p.predict_remove(k0);
        let k1 = p.predict_insert(&a); // reuses slot 0, generation 1
        p.predict_remove(k1);
        let k2 = p.predict_insert(&a); // reuses again, generation 2
        let fresh = p.predict_insert(&a);
        a.remove(k0);
        assert_eq!(a.insert(1), k1);
        a.remove(k1);
        assert_eq!(a.insert(2), k2);
        assert_eq!(a.insert(3), fresh);
    }

    #[test]
    fn stress_random_ops() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(42);
        let mut a = Arena::new();
        let mut model: Vec<(Key, u64)> = Vec::new();
        for step in 0..10_000u64 {
            if model.is_empty() || rng.random_bool(0.6) {
                let k = a.insert(step);
                model.push((k, step));
            } else {
                let i = rng.random_range(0..model.len());
                let (k, v) = model.swap_remove(i);
                assert_eq!(a.remove(k), Some(v));
            }
            assert_eq!(a.len(), model.len());
        }
        for (k, v) in &model {
            assert_eq!(a.get(*k), Some(v));
        }
    }
}
