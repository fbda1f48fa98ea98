//! A shard's id index: device id → slab handle, open-addressed.
//!
//! One flat table of `(id, handle)` slots, probed linearly from the
//! slot the id hashes to. The hash is keyed once per registry
//! ([`RandomState`]), because ids arrive off the wire and an unkeyed
//! hash would let a client pick ids that all land on one run of
//! slots. The load stays at or below ¾, so a lookup usually reads one
//! slot, and a slot is 16 bytes: the address of the cache line a
//! lookup needs is known as soon as the id is hashed. So a lookup
//! splits in two halves: [`IdIndex::prefetch_home`] hashes the id and
//! asks for that line, and [`IdIndex::get_from`] probes from it later.
//! A batch of auths runs the first half for every item before it
//! finishes any lookup, so the slots load while earlier items hash.
//! Devices are never evicted, so the table supports no deletions and
//! needs no tombstones.

use std::hash::{BuildHasher, RandomState};

use crate::prefetch;
use crate::registry::DeviceHandle;

/// One table slot, four to a cache line.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(16))]
struct Slot {
    id: u64,
    handle: DeviceHandle,
    /// Whether the slot holds an entry. A flag of its own, so every id
    /// and every handle value (`u32::MAX` included) stays storable.
    used: bool,
}

/// Smallest table the index allocates.
const MIN_SLOTS: usize = 8;

/// Slots a table needs to hold `len` entries at a load of at most ¾:
/// a power of two, so a probe wraps with a mask. `0` for no entries.
pub(crate) fn slots_for(len: usize) -> usize {
    if len == 0 {
        return 0;
    }
    len.saturating_mul(4)
        .div_ceil(3)
        .next_power_of_two()
        .max(MIN_SLOTS)
}

/// The id → handle table of one shard.
#[derive(Debug)]
pub(crate) struct IdIndex {
    /// Empty, or a power-of-two number of slots.
    slots: Box<[Slot]>,
    len: usize,
    hasher: RandomState,
}

impl IdIndex {
    /// An empty index hashing with `hasher` (allocates nothing).
    pub(crate) fn new(hasher: RandomState) -> Self {
        Self {
            slots: Box::default(),
            len: 0,
            hasher,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The slot a lookup of `id` starts at. The table must be
    /// non-empty.
    fn home(&self, id: u64) -> usize {
        (self.hasher.hash_one(id) as usize) & (self.slots.len() - 1)
    }

    /// The handle `id` maps to, if the index holds `id`.
    pub(crate) fn get(&self, id: u64) -> Option<DeviceHandle> {
        if self.slots.is_empty() {
            return None;
        }
        self.get_from(self.home(id), id)
    }

    /// The first half of a lookup: hashes `id`, asks the CPU for the
    /// cache line of the slot a lookup starts at, and returns that
    /// slot for [`IdIndex::get_from`]. Changes nothing; `0` on an empty
    /// table, which holds no id.
    pub(crate) fn prefetch_home(&self, id: u64) -> usize {
        if self.slots.is_empty() {
            return 0;
        }
        let home = self.home(id);
        prefetch::lines(&self.slots[home]);
        home
    }

    /// The second half of a lookup: the handle `id` maps to, probing
    /// from `home`, the slot [`IdIndex::prefetch_home`] returned for
    /// `id` with no insert since.
    pub(crate) fn get_from(&self, home: usize, id: u64) -> Option<DeviceHandle> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = home & mask;
        // Terminates: the load cap keeps at least a quarter of the
        // slots unused.
        loop {
            let slot = &self.slots[i];
            if !slot.used {
                return None;
            }
            if slot.id == id {
                return Some(slot.handle);
            }
            i = (i + 1) & mask;
        }
    }

    /// Maps `id` to `handle` unless the index already holds `id`: one
    /// probe run both checks and places. `false`, changing nothing,
    /// for an id already present. Grows the table first when one more
    /// entry would pass the ¾ load cap.
    pub(crate) fn insert(&mut self, id: u64, handle: DeviceHandle) -> bool {
        if slots_for(self.len + 1) > self.slots.len() {
            self.resize(slots_for(self.len + 1));
        }
        let inserted = self.place(id, handle);
        self.len += usize::from(inserted);
        inserted
    }

    /// Sizes the table for `additional` more entries in one step, so
    /// that many inserts never grow it.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let want = slots_for(self.len.saturating_add(additional));
        if want > self.slots.len() {
            self.resize(want);
        }
    }

    /// Writes `(id, handle)` into the first free slot of its probe
    /// run; `false`, writing nothing, when the run already holds `id`.
    /// The table must have a free slot.
    fn place(&mut self, id: u64, handle: DeviceHandle) -> bool {
        let mask = self.slots.len() - 1;
        let mut i = self.home(id);
        loop {
            let slot = &mut self.slots[i];
            if !slot.used {
                *slot = Slot {
                    id,
                    handle,
                    used: true,
                };
                return true;
            }
            if slot.id == id {
                return false;
            }
            i = (i + 1) & mask;
        }
    }

    /// Rehashes every entry into a table of `slots` slots.
    fn resize(&mut self, slots: usize) {
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); slots].into());
        for slot in old.iter().filter(|s| s.used) {
            self.place(slot.id, slot.handle);
        }
    }
}

#[cfg(test)]
impl IdIndex {
    /// Slots the table holds.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Slots a lookup of `id` reads, its own included.
    fn probe_len(&self, id: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(id);
        let mut read = 1;
        while self.slots[i].used && self.slots[i].id != id {
            i = (i + 1) & mask;
            read += 1;
        }
        read
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> IdIndex {
        IdIndex::new(RandomState::new())
    }

    #[test]
    fn an_empty_index_finds_nothing_and_allocates_nothing() {
        let ix = index();
        assert_eq!(ix.get(0), None);
        assert_eq!(ix.get(u64::MAX), None);
        // Nothing to prefetch, and no slot to index.
        assert_eq!(ix.get_from(ix.prefetch_home(7), 7), None);
        assert_eq!(ix.capacity(), 0);
        assert_eq!(ix.len(), 0);
    }

    #[test]
    fn no_handle_or_id_value_reads_as_an_empty_slot() {
        // Handles run up to `u32::MAX` (`Shard::insert` hands out
        // `len` as the handle), and ids cover all of `u64`.
        let mut ix = index();
        let extremes = [
            (0u64, 0u32),
            (u64::MAX, u32::MAX),
            (1, u32::MAX - 1),
            (u64::MAX - 1, 1),
        ];
        for (id, handle) in extremes {
            ix.insert(id, handle);
        }
        for (id, handle) in extremes {
            assert_eq!(ix.get(id), Some(handle), "id {id}");
        }
        assert_eq!(ix.len(), extremes.len());
        assert_eq!(ix.get(2), None);
        // A default (unused) slot is all zeroes; id 0 with handle 0 is
        // still found, and a fresh table holding nothing finds no id 0.
        let mut fresh = index();
        fresh.reserve(1);
        assert_eq!(fresh.get(0), None);
    }

    #[test]
    fn insert_keeps_an_existing_id_and_reports_it() {
        let mut ix = index();
        assert!(ix.insert(5, 1));
        assert!(!ix.insert(5, 9), "a second insert of id 5 is refused");
        assert_eq!(ix.get(5), Some(1));
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn a_split_lookup_finds_what_get_finds() {
        // Homes taken for a whole batch before any lookup finishes,
        // as a batch of auths takes them: present ids, absent ids and
        // ids whose probe runs collide all resolve as `get` does.
        let mut ix = index();
        for id in (0..3000u64).map(|k| k << 20) {
            ix.insert(id, (id >> 20) as u32);
        }
        let batch: Vec<u64> = (0..4000u64).map(|k| (k << 20) | (k & 1)).collect();
        let homes: Vec<usize> = batch.iter().map(|&id| ix.prefetch_home(id)).collect();
        for (&id, &home) in batch.iter().zip(&homes) {
            assert_eq!(ix.get_from(home, id), ix.get(id), "id {id:#x}");
        }
    }

    #[test]
    fn load_stays_at_or_below_three_quarters() {
        let mut ix = index();
        for id in 0..10_000u64 {
            ix.insert(id, id as u32);
            assert!(
                4 * ix.len() <= 3 * ix.capacity(),
                "{} entries in {} slots",
                ix.len(),
                ix.capacity()
            );
            assert!(ix.capacity().is_power_of_two());
        }
    }

    #[test]
    fn reserve_sizes_the_table_once_for_that_many_inserts() {
        for (already, more) in [(0usize, 4096usize), (3, 6000), (6144, 1), (100, 0)] {
            let mut ix = index();
            for id in 0..already as u64 {
                ix.insert(id, id as u32);
            }
            let before = ix.capacity();
            ix.reserve(more);
            let sized = ix.capacity();
            assert_eq!(sized, slots_for(already + more).max(before));
            for id in already as u64..(already + more) as u64 {
                ix.insert(id, id as u32);
                assert_eq!(ix.capacity(), sized, "insert {id} regrew a reserved table");
            }
            for id in 0..(already + more) as u64 {
                assert_eq!(ix.get(id), Some(id as u32));
            }
        }
    }

    /// Mean slots read per successful lookup of `ids`.
    fn mean_probe_len(ids: &[u64]) -> f64 {
        let mut ix = index();
        for (h, &id) in ids.iter().enumerate() {
            ix.insert(id, h as u32);
        }
        let read: usize = ids.iter().map(|&id| ix.probe_len(id)).sum();
        read as f64 / ids.len() as f64
    }

    #[test]
    fn structured_ids_do_not_cluster() {
        // Linear probing at load a reads (1 + 1/(1-a))/2 slots per
        // successful lookup on average: 1.5 at 1/2, the load of every
        // power-of-two population, and 2.5 at the 3/4 cap. Sequential
        // ids and ids that are multiples of 2^20 share their low or
        // high bits; the keyed hash must spread them like random ids.
        for n in [4096u64, 8192, 65_536] {
            let sequential: Vec<u64> = (0..n).collect();
            let strided: Vec<u64> = (0..n).map(|k| k << 20).collect();
            for (name, ids) in [("sequential", &sequential), ("multiples of 2^20", &strided)] {
                let mean = mean_probe_len(ids);
                assert!(mean <= 2.0, "{name}, {n} ids: mean probe length {mean:.2}");
            }
        }
        // At the cap itself the expectation is 2.5 slots.
        let at_cap: Vec<u64> = (0..3 * 1024u64).map(|k| k << 20).collect();
        let mean = mean_probe_len(&at_cap);
        assert!(mean <= 3.0, "at the load cap: mean probe length {mean:.2}");
    }
}
