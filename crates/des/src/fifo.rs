//! A FIFO queue stored as a chain of blocks sized to what it holds.
//!
//! `VecDeque` keeps one ring that doubles when it fills and never shrinks:
//! a queue that once held n entries keeps up to 2n slots, and a queue that
//! keeps cycling walks its whole ring, so every slot stays resident. Each
//! doubling also copies the ring into a buffer twice its size, with both
//! live at that moment.
//!
//! [`Fifo`] chains blocks instead. Each new block holds the queue's
//! current length rounded up to a power of two, clamped to
//! [`MIN_BLOCK`]..=[`MAX_BLOCK`] entries: a short queue pays a few entries,
//! and a long one grows a block at a time without copying. A block is
//! freed once its last entry leaves, except that one spare block is kept
//! (and an emptied queue keeps its last block), so a queue cycling at a
//! steady length allocates nothing.
//!
//! **Slack bound.** After any history, [`Fifo::allocated`] ≤ 2·max(len,
//! [`MIN_BLOCK`]) + [`MAX_BLOCK`]. A queue that shrinks after long blocks
//! were made can break it (two 256-entry blocks holding one entry each);
//! the operation that would break it first drops the spare and, if that is
//! not enough, repacks the entries into blocks sized as if pushed afresh.
//! Only a queue that shrinks below a few hundred entries pays for that.

use crate::snapshot::{Dec, Enc, Persist, SnapError};
use std::collections::VecDeque;

/// Entries in the smallest block.
pub const MIN_BLOCK: usize = 4;
/// Entries in the largest block.
pub const MAX_BLOCK: usize = 256;

/// A first-in-first-out queue of `Copy` entries (see the module docs).
///
/// The oldest block sits inline, so a queue that fits one block — most of
/// them — reaches its entries through one pointer, as a `VecDeque` does.
/// A snapshot holds the entries only; the blocks are rebuilt by pushing
/// them again, so every field below is derived on load.
pub struct Fifo<T> {
    /// The oldest block, read from `head`; appended to while `rest` is
    /// empty. Capacity 0 exactly when the queue holds no block.
    // lint:allow(snapshot-exempt): rebuilt by pushing the saved entries
    front: Vec<T>,
    /// Index of the oldest entry in `front`.
    // lint:allow(snapshot-exempt): rebuilt by pushing the saved entries
    head: usize,
    /// The younger blocks in queue order, each holding at least one entry;
    /// all but the last are full.
    // lint:allow(snapshot-exempt): rebuilt by pushing the saved entries
    rest: VecDeque<Vec<T>>,
    // lint:allow(snapshot-exempt): rebuilt by pushing the saved entries
    len: usize,
    /// Entries allocated across `front`, `rest` and `spare`.
    // lint:allow(snapshot-exempt): rebuilt by pushing the saved entries
    allocated: usize,
    /// An emptied block kept for the next block needed (capacity 0 when
    /// there is none).
    // lint:allow(snapshot-exempt): a restored queue starts without a spare
    spare: Vec<T>,
}

impl<T> Default for Fifo<T> {
    fn default() -> Self {
        Fifo {
            front: Vec::new(),
            head: 0,
            rest: VecDeque::new(),
            len: 0,
            allocated: 0,
            spare: Vec::new(),
        }
    }
}

impl<T: Copy> Fifo<T> {
    /// An empty queue; it allocates nothing until the first push.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries allocated, queued or not (the spare block included).
    pub fn allocated(&self) -> usize {
        self.allocated
    }

    /// Append `x` at the back.
    pub fn push_back(&mut self, x: T) {
        let back = match self.rest.back_mut() {
            Some(back) => back,
            None => &mut self.front,
        };
        if back.len() < back.capacity() {
            back.push(x);
            self.len += 1;
            return;
        }
        let mut block = self.new_block();
        block.push(x);
        if self.front.capacity() == 0 {
            self.front = block;
        } else {
            self.rest.push_back(block);
        }
        self.len += 1;
        self.trim();
    }

    /// Remove and return the oldest entry.
    pub fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let x = self.front[self.head];
        self.head += 1;
        self.len -= 1;
        if self.head == self.front.len() {
            // Every entry of the front block has left. An emptied queue
            // keeps its one block for the next push; otherwise the next
            // block moves up and the emptied one retires.
            self.head = 0;
            if let Some(next) = self.rest.pop_front() {
                let mut done = std::mem::replace(&mut self.front, next);
                done.clear();
                self.retire(done);
            } else {
                self.front.clear();
            }
        }
        self.trim();
        Some(x)
    }

    /// The queued entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        let rest = self.rest.iter().flat_map(|b| b.iter());
        self.front[self.head..].iter().chain(rest).copied()
    }

    /// An empty block for the next push: the spare if it is large enough,
    /// else a fresh one sized to the current length (a too-small spare is
    /// dropped rather than kept beside it).
    fn new_block(&mut self) -> Vec<T> {
        let want = self.len.next_power_of_two().clamp(MIN_BLOCK, MAX_BLOCK);
        if self.spare.capacity() >= want {
            return std::mem::take(&mut self.spare);
        }
        self.allocated -= self.spare.capacity();
        self.spare = Vec::new();
        let block = Vec::with_capacity(want);
        self.allocated += block.capacity();
        block
    }

    /// Keep an emptied block as the spare if it is larger than the current
    /// one; free the smaller of the two.
    fn retire(&mut self, block: Vec<T>) {
        if block.capacity() > self.spare.capacity() {
            self.allocated -= self.spare.capacity();
            self.spare = block;
        } else {
            self.allocated -= block.capacity();
        }
    }

    /// Restore the slack bound (see the module docs).
    #[inline]
    fn trim(&mut self) {
        if self.allocated > 2 * self.len.max(MIN_BLOCK) + MAX_BLOCK {
            self.shrink();
        }
    }

    /// Drop the spare and, if that is not enough, repack.
    #[cold]
    #[inline(never)]
    fn shrink(&mut self) {
        let bound = 2 * self.len.max(MIN_BLOCK) + MAX_BLOCK;
        self.allocated -= self.spare.capacity();
        self.spare = Vec::new();
        if self.allocated > bound {
            let mut packed = Fifo::new();
            for x in self.iter() {
                packed.push_back(x);
            }
            *self = packed;
        }
    }
}

/// Encoded as `VecDeque` encodes: the length, then the entries oldest
/// first. Decoding pushes one entry at a time, so a corrupt length fails
/// as truncated input before it can allocate beyond the input.
impl<T: Copy + Persist> Persist for Fifo<T> {
    fn save(&self, w: &mut Enc) {
        w.put_usize(self.len);
        for x in self.iter() {
            x.save(w);
        }
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        let n = r.take_usize()?;
        let mut q = Fifo::new();
        for _ in 0..n {
            q.push_back(T::load(r)?);
        }
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradyn_stats::{check, prop_assert, prop_assert_eq, Gen, PropResult};

    /// Drive a random history through a queue and its `VecDeque` oracle:
    /// runs of pushes and pops long enough to cross 256-entry blocks, full
    /// drains followed by regrowth, interleaved single steps. `visit` sees
    /// both after every operation.
    fn random_history(
        g: &mut Gen,
        mut visit: impl FnMut(&mut Gen, &Fifo<u32>, &VecDeque<u32>) -> PropResult,
    ) -> PropResult {
        let mut q = Fifo::new();
        let mut oracle = VecDeque::new();
        let mut next = 0u32;
        for _ in 0..g.usize_in(1, 24) {
            let (pushes, pops) = match g.index(4) {
                0 => (g.usize_in(0, 700), 0),
                1 => (0, g.usize_in(0, 700)),
                2 => (0, oracle.len()),
                _ => (g.usize_in(0, 6), g.usize_in(0, 6)),
            };
            for _ in 0..pushes {
                q.push_back(next);
                oracle.push_back(next);
                next += 1;
                visit(g, &q, &oracle)?;
            }
            for _ in 0..pops {
                prop_assert_eq!(q.pop_front(), oracle.pop_front());
                visit(g, &q, &oracle)?;
            }
        }
        Ok(())
    }

    /// Push, pop, iterate and snapshot agree with a `VecDeque` at every
    /// step, and the encoding is `VecDeque`'s byte for byte.
    #[test]
    fn fifo_matches_vecdeque_model() {
        check("fifo_matches_vecdeque_model", |g| {
            random_history(g, |g, q, oracle| {
                prop_assert_eq!(q.len(), oracle.len());
                prop_assert_eq!(q.is_empty(), oracle.is_empty());
                // Walking and encoding every step would be quadratic.
                if g.index(16) == 0 {
                    prop_assert!(q.iter().eq(oracle.iter().copied()));
                    let (mut a, mut b) = (Enc::new(), Enc::new());
                    q.save(&mut a);
                    oracle.save(&mut b);
                    let bytes = a.into_bytes();
                    prop_assert!(bytes == b.into_bytes(), "encoding differs");
                    let back = Fifo::<u32>::load(&mut Dec::new(&bytes));
                    prop_assert!(back.is_ok(), "load failed: {:?}", back.err());
                    prop_assert!(back.unwrap().iter().eq(oracle.iter().copied()));
                }
                Ok(())
            })
        });
    }

    /// After any history, allocated entries ≤ 2·max(len, 4) + 256.
    #[test]
    fn fifo_slack_is_bounded() {
        check("fifo_slack_is_bounded", |g| {
            random_history(g, |_, q, _| {
                let bound = 2 * q.len().max(MIN_BLOCK) + MAX_BLOCK;
                prop_assert!(
                    q.allocated() <= bound,
                    "{} entries allocated for {} queued",
                    q.allocated(),
                    q.len()
                );
                let held: usize = q.rest.iter().map(Vec::capacity).sum();
                let held = held + q.front.capacity() + q.spare.capacity();
                prop_assert_eq!(q.allocated(), held);
                Ok(())
            })
        });
    }

    #[test]
    fn blocks_grow_with_the_length() {
        let mut q = Fifo::new();
        for i in 0..600u32 {
            q.push_back(i);
        }
        let caps: Vec<usize> = q.rest.iter().map(Vec::capacity).collect();
        assert_eq!(q.front.capacity(), 4);
        assert_eq!(caps, [4, 8, 16, 32, 64, 128, 256, 256]);
        assert_eq!(q.allocated(), 768);
    }

    #[test]
    fn a_short_queue_keeps_one_small_block() {
        let mut q = Fifo::new();
        for i in 0..1_000u32 {
            q.push_back(i);
            q.push_back(i);
            assert_eq!(q.pop_front(), Some(i));
            assert_eq!(q.pop_front(), Some(i));
        }
        assert!(q.is_empty());
        assert_eq!(q.allocated(), MIN_BLOCK);
    }

    #[test]
    fn draining_a_long_queue_repacks_it() {
        let mut q = Fifo::new();
        for i in 0..1_000u32 {
            q.push_back(i);
        }
        for i in 0..998u32 {
            assert_eq!(q.pop_front(), Some(i));
        }
        assert!(q.allocated() <= 2 * MIN_BLOCK + MAX_BLOCK, "{}", q.allocated());
        assert_eq!(q.iter().collect::<Vec<_>>(), [998, 999]);
    }

    #[test]
    fn decode_rejects_a_length_beyond_the_input() {
        let mut w = Enc::new();
        w.put_usize(1 << 40);
        w.put_u32(7);
        let bytes = w.into_bytes();
        let got = Fifo::<u32>::load(&mut Dec::new(&bytes));
        assert!(matches!(got, Err(SnapError::Truncated)));
    }
}
