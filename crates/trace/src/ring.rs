//! Bounded rings of shared batches.
//!
//! Droop crossings reach their consumers one slice's [`DroopBatch`] at
//! a time, and scheduler decisions one epoch's `Vec` at a time. A
//! [`BatchRing`] keeps exactly the newest `capacity` entries of such a
//! stream by holding whole batches behind `Arc`s, plus the count of
//! entries already evicted from its front batch. Pushing a batch moves
//! one `Arc`, and cloning a ring — what every obs publish does — bumps
//! one refcount per batch instead of copying every entry.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::event::{DroopBatch, DroopEvent};

/// Entries produced together and shared by a [`BatchRing`].
pub trait Batch {
    /// One entry, as the ring hands it out.
    type Item;
    /// Entries in the batch.
    fn entries(&self) -> usize;
    /// Entry `i`, for `i < entries()`.
    fn entry(&self, i: usize) -> Self::Item;
}

impl Batch for DroopBatch {
    type Item = DroopEvent;
    fn entries(&self) -> usize {
        self.crossings.len()
    }
    fn entry(&self, i: usize) -> DroopEvent {
        self.event(i)
    }
}

impl<T: Clone> Batch for Vec<T> {
    type Item = T;
    fn entries(&self) -> usize {
        self.len()
    }
    fn entry(&self, i: usize) -> T {
        self[i].clone()
    }
}

/// The newest `capacity` entries of a stream of shared batches, oldest
/// first. Equality and `Debug` see the entries, not how they are split
/// into batches.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use vsmooth_trace::BatchRing;
///
/// let mut ring = BatchRing::new(3);
/// ring.push(Arc::new(vec![1, 2]));
/// ring.push(Arc::new(vec![3, 4]));
/// assert_eq!(ring.len(), 3);
/// assert_eq!(ring.newest(2).collect::<Vec<_>>(), [3, 4]);
/// assert_eq!(ring.iter().collect::<Vec<_>>(), [2, 3, 4]);
/// ```
pub struct BatchRing<B> {
    batches: VecDeque<Arc<B>>,
    /// Entries of the front batch already evicted.
    skip: usize,
    /// Entries held: every batch's length, less `skip`.
    len: usize,
    capacity: usize,
}

impl<B> BatchRing<B> {
    /// An empty ring keeping at most `capacity` entries (none at 0).
    pub fn new(capacity: usize) -> Self {
        Self {
            batches: VecDeque::new(),
            skip: 0,
            len: 0,
            capacity,
        }
    }
}

impl<B: Batch> BatchRing<B> {
    /// Appends `batch`, evicting the oldest entries beyond capacity.
    pub fn push(&mut self, batch: Arc<B>) {
        if batch.entries() == 0 || self.capacity == 0 {
            return;
        }
        self.len += batch.entries();
        self.batches.push_back(batch);
        while self.len > self.capacity {
            let front = self
                .batches
                .front()
                .expect("a ring over capacity holds a batch");
            let kept = front.entries() - self.skip;
            let excess = self.len - self.capacity;
            if excess >= kept {
                self.batches.pop_front();
                self.skip = 0;
                self.len -= kept;
            } else {
                self.skip += excess;
                self.len -= excess;
            }
        }
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The newest `n` entries (all of them if fewer), oldest first.
    pub fn newest(&self, n: usize) -> impl Iterator<Item = B::Item> + '_ {
        let mut skip = self.skip + (self.len - n.min(self.len));
        self.batches.iter().flat_map(move |batch| {
            let start = skip.min(batch.entries());
            skip -= start;
            (start..batch.entries()).map(move |i| batch.entry(i))
        })
    }

    /// Every entry, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = B::Item> + '_ {
        self.newest(self.len)
    }
}

impl<B> Clone for BatchRing<B> {
    fn clone(&self) -> Self {
        Self {
            batches: self.batches.clone(),
            skip: self.skip,
            len: self.len,
            capacity: self.capacity,
        }
    }
}

impl<B> Default for BatchRing<B> {
    /// An empty ring of capacity 0.
    fn default() -> Self {
        Self::new(0)
    }
}

impl<B: Batch> PartialEq for BatchRing<B>
where
    B::Item: PartialEq,
{
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<B: Batch> std::fmt::Debug for BatchRing<B>
where
    B::Item: std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every entry of a ring fed `sizes`-long batches of consecutive
    /// integers, against a plain ring of the same capacity.
    fn matches_a_plain_ring(capacity: usize, sizes: &[usize]) {
        let mut ring = BatchRing::new(capacity);
        let mut plain = VecDeque::new();
        let mut next = 0u32;
        for &size in sizes {
            let batch: Vec<u32> = (next..next + size as u32).collect();
            next += size as u32;
            for &v in &batch {
                if capacity > 0 {
                    if plain.len() == capacity {
                        plain.pop_front();
                    }
                    plain.push_back(v);
                }
            }
            ring.push(Arc::new(batch));
            assert_eq!(ring.len(), plain.len());
            assert!(ring.iter().eq(plain.iter().copied()));
            for n in [0, 1, capacity / 2, capacity, capacity + 3] {
                let tail = plain.iter().skip(plain.len().saturating_sub(n)).copied();
                assert!(
                    ring.newest(n).eq(tail),
                    "newest({n}) at capacity {capacity}"
                );
            }
        }
    }

    #[test]
    fn keeps_exactly_the_newest_entries() {
        for capacity in 0..9 {
            matches_a_plain_ring(capacity, &[3, 0, 1, 7, 2, 2, 9, 1, 4]);
            matches_a_plain_ring(capacity, &[1; 20]);
        }
    }

    #[test]
    fn equality_sees_entries_not_batches() {
        let mut a = BatchRing::new(4);
        a.push(Arc::new(vec![1, 2, 3]));
        a.push(Arc::new(vec![4, 5]));
        let mut b = BatchRing::new(4);
        for v in 2..=5 {
            b.push(Arc::new(vec![v]));
        }
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "[2, 3, 4, 5]");
        assert!(BatchRing::<Vec<u8>>::default().is_empty());
    }
}
