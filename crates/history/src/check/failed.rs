//! The failed-state table of the commit-order search ([`super::mixed`]).
//!
//! The search state is a fixed-width vector of `u32` words, and the table
//! holds exactly the states found to fail during one check. States live
//! back to back in an arena of fixed-size chunks: the arena grows a chunk
//! at a time, so it never copies itself and never holds more than one
//! chunk it does not use (a flat vector that doubles would, for a moment,
//! hold three times its states). An open-addressing table of `u64` slots,
//! at most half full, finds the states: each slot packs the check's
//! *epoch*, a 16-bit hash tag and the state's arena index. Words are only
//! compared when the tag matches. A reset bumps the epoch, which empties
//! every slot at once: slots of older epochs read as empty, and the slots
//! are only rewritten when the 16-bit epoch wraps. Chunks are kept for the
//! next check.
//!
//! The hash is multiplicative (one rotate, xor and multiply per word), so
//! a probe costs no allocation and no keyed hashing. Membership is exact:
//! a state is reported present only after a word-by-word comparison.

/// Bits of a slot holding the arena index plus one (zero never occurs in
/// a slot of the current epoch).
const INDEX_BITS: u32 = 32;
/// Shift of the 16-bit hash tag within a slot.
const TAG_SHIFT: u32 = INDEX_BITS;
/// Shift of the 16-bit epoch within a slot.
const EPOCH_SHIFT: u32 = 48;
/// Slots allocated when the first state is inserted.
const MIN_SLOTS: usize = 16;
/// Words per arena chunk (16 KiB), or one state's if states are wider.
const CHUNK_WORDS: usize = 4096;

/// Exact set of fixed-width states; see the module documentation.
#[derive(Debug)]
pub(crate) struct FailedStates {
    /// Words per state in the current check.
    width: usize,
    /// States per chunk in the current check.
    per_chunk: usize,
    /// The arena: the states of the current check, `width` words each,
    /// back to back, `per_chunk` to a chunk. Chunks past the current
    /// check's last one are empty and kept for later checks.
    chunks: Vec<Vec<u32>>,
    /// Power-of-two table of `epoch | tag | index + 1` slots.
    slots: Vec<u64>,
    /// Number of states in the current check.
    len: usize,
    /// Epoch of the current check; slots of any other epoch are empty.
    epoch: u16,
}

impl Default for FailedStates {
    fn default() -> Self {
        FailedStates {
            width: 0,
            per_chunk: 0,
            chunks: Vec::new(),
            slots: Vec::new(),
            len: 0,
            epoch: 1,
        }
    }
}

/// Hash of a state: one rotate, xor and multiply per word.
#[inline]
pub(crate) fn hash(state: &[u32]) -> u64 {
    let mut h = state.len() as u64;
    for &w in state {
        h = (h.rotate_left(5) ^ w as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    h ^ (h >> 29)
}

impl FailedStates {
    /// Empties the table for a check whose states are `width` words wide,
    /// without touching the slots.
    pub(crate) fn reset(&mut self, width: usize) {
        let used = self.len.div_ceil(self.per_chunk.max(1));
        for chunk in &mut self.chunks[..used] {
            chunk.clear();
        }
        self.width = width;
        self.per_chunk = CHUNK_WORDS.max(width) / width.max(1);
        self.len = 0;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale slots of epoch 1.. would read as live.
            self.slots.fill(0);
            self.epoch = 1;
        }
    }

    /// The slot where the probe for a state hashed to `h` starts.
    #[inline]
    fn home(&self, h: u64) -> usize {
        (h >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    #[inline]
    fn tag(h: u64) -> u64 {
        (h >> 16) & 0xffff
    }

    #[inline]
    fn live(&self, slot: u64) -> bool {
        (slot >> EPOCH_SHIFT) as u16 == self.epoch
    }

    #[inline]
    fn state(&self, index: usize) -> &[u32] {
        let at = index % self.per_chunk * self.width;
        &self.chunks[index / self.per_chunk][at..at + self.width]
    }

    /// Whether `state`, whose [`hash`] is `h`, is in the table.
    pub(crate) fn contains(&self, h: u64, state: &[u32]) -> bool {
        debug_assert_eq!(state.len(), self.width);
        if self.len == 0 {
            return false;
        }
        let mask = self.slots.len() - 1;
        let tag = Self::tag(h);
        let mut i = self.home(h);
        loop {
            let slot = self.slots[i];
            if !self.live(slot) {
                return false;
            }
            if (slot >> TAG_SHIFT) & 0xffff == tag {
                let index = (slot as u32 - 1) as usize;
                if self.state(index) == state {
                    return true;
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Adds `state`, whose [`hash`] is `h` and which must not be in the
    /// table yet.
    pub(crate) fn insert(&mut self, h: u64, state: &[u32]) {
        debug_assert!(!self.contains(h, state), "state inserted twice");
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let index = self.len;
        let chunk = index / self.per_chunk;
        if chunk == self.chunks.len() {
            self.chunks
                .push(Vec::with_capacity(CHUNK_WORDS.max(self.width)));
        }
        self.chunks[chunk].extend_from_slice(state);
        self.len += 1;
        self.place(h, index);
    }

    /// Writes the slot of the state at `index` into the first free slot of
    /// its probe sequence.
    fn place(&mut self, h: u64, index: usize) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(h);
        while self.live(self.slots[i]) {
            i = (i + 1) & mask;
        }
        self.slots[i] =
            (self.epoch as u64) << EPOCH_SHIFT | Self::tag(h) << TAG_SHIFT | (index as u64 + 1);
    }

    /// Doubles the slot table and re-places the current states.
    fn grow(&mut self) {
        let n = (2 * self.slots.len()).max(MIN_SLOTS);
        self.slots = vec![0; n];
        for index in 0..self.len {
            let h = hash(self.state(index));
            self.place(h, index);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::XorShift;
    use std::collections::BTreeSet;

    /// The table against a `BTreeSet` on random fixed-width states: small
    /// word alphabets make repeats common, and every round resets the
    /// table to a new width.
    #[test]
    fn membership_matches_a_btreeset_on_random_states() {
        let mut rng = XorShift(0x2545_f491_4f6c_dd1d);
        let mut table = FailedStates::default();
        for round in 0..60 {
            let width = 1 + rng.below(9) as usize;
            let alphabet = 2 + rng.below(4);
            table.reset(width);
            let mut reference = BTreeSet::new();
            for _ in 0..(round * 40) {
                let state: Vec<u32> = (0..width).map(|_| rng.below(alphabet) as u32).collect();
                let h = hash(&state);
                assert_eq!(table.contains(h, &state), reference.contains(&state));
                if reference.insert(state.clone()) {
                    table.insert(h, &state);
                }
                assert_eq!(table.len, reference.len());
            }
            for state in &reference {
                assert!(table.contains(hash(state), state));
            }
        }
    }

    #[test]
    fn a_reset_empties_the_table_and_the_epoch_wraps_cleanly() {
        let mut table = FailedStates::default();
        let states: Vec<[u32; 3]> = (0..100u32).map(|k| [k, k * 7, k % 3]).collect();
        table.reset(3);
        for s in &states {
            table.insert(hash(s), s);
        }
        let slots = table.slots.len();
        for _ in 0..(u16::MAX as usize + 2) {
            table.reset(3);
            assert!(!table.contains(hash(&states[0]), &states[0]));
        }
        assert_eq!(table.slots.len(), slots, "resets keep the table");
        for s in &states[..50] {
            table.insert(hash(s), s);
        }
        for (k, s) in states.iter().enumerate() {
            assert_eq!(table.contains(hash(s), s), k < 50);
        }
    }
}
