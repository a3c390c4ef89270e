//! The shared LRU page cache with a hard byte budget.
//!
//! One cache serves three page kinds — decoded column records, label
//! blocks, point blocks — because a single budget is what the memory
//! gate reasons about. Pages are held as `Rc` slices, so a caller can
//! keep iterating a page it already fetched while the cache evicts
//! behind its back; at most O(1) pages per in-flight scan outlive their
//! cache slot.
//!
//! Every page has a dense id, so residency is a [`SlotTable`]: a hit is
//! an index into a page table plus a recency stamp, with no hashing and
//! no queue. The LRU victim is the slot with the oldest stamp, found by
//! a scan over the resident slots that only runs on a miss, next to the
//! disk read it is much cheaper than.

use std::ops::Index;
use std::rc::Rc;

/// One decoded column record: the value (already through
/// `ord_key_inverse`) and its row id. 16 bytes in cache for 12 on
/// disk — the budget counts the in-memory size.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rec {
    pub value: f64,
    pub row: u32,
}

/// What a cache slot holds.
pub(crate) enum Page {
    /// A page of one column's sorted records.
    Records(Rc<[Rec]>),
    /// A page of `f64`s (labels or packed points).
    Floats(Rc<[f64]>),
}

impl Page {
    fn bytes(&self) -> usize {
        match self {
            Page::Records(r) => r.len() * std::mem::size_of::<Rec>(),
            Page::Floats(f) => f.len() * std::mem::size_of::<f64>(),
        }
    }

    /// The records of a column page. A page id fixes its kind, so a
    /// mismatch is a numbering bug in the caller.
    pub(crate) fn records(&self) -> &Rc<[Rec]> {
        match self {
            Page::Records(r) => r,
            Page::Floats(_) => unreachable!("a label or point page id used for records"),
        }
    }

    /// The values of a label or point page.
    pub(crate) fn floats(&self) -> &Rc<[f64]> {
        match self {
            Page::Floats(f) => f,
            Page::Records(_) => unreachable!("a column page id used for floats"),
        }
    }
}

/// `slot_of` entry of a page that is not resident.
const ABSENT: u32 = u32::MAX;

struct Slot<T> {
    id: usize,
    last_use: u64,
    value: T,
}

/// Exact-LRU residency over dense page ids `0..n`: `slot_of[id]` is the
/// index of the page's resident slot, and each slot carries the stamp
/// of its last use. Slots are indexed by [`Index`] with the slot a
/// lookup returned; an insert or eviction may move them.
pub(crate) struct SlotTable<T> {
    slot_of: Vec<u32>,
    slots: Vec<Slot<T>>,
    clock: u64,
}

impl<T> SlotTable<T> {
    /// An empty table over page ids `0..n_ids`.
    pub(crate) fn new(n_ids: usize) -> Self {
        Self {
            slot_of: vec![ABSENT; n_ids],
            slots: Vec::new(),
            clock: 0,
        }
    }

    /// Number of resident pages.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The slot of page `id` if it is resident, leaving its recency.
    fn slot(&self, id: usize) -> Option<usize> {
        let slot = self.slot_of[id];
        (slot != ABSENT).then_some(slot as usize)
    }

    /// The slot of page `id` if it is resident, marking it the most
    /// recently used.
    pub(crate) fn touch(&mut self, id: usize) -> Option<usize> {
        let slot = self.slot(id)?;
        self.clock += 1;
        self.slots[slot].last_use = self.clock;
        Some(slot)
    }

    /// Makes page `id`, which must not be resident, the most recently
    /// used one; returns its slot.
    pub(crate) fn insert(&mut self, id: usize, value: T) -> usize {
        debug_assert!(self.slot(id).is_none(), "page {id} inserted twice");
        self.clock += 1;
        let slot = self.slots.len();
        self.slot_of[id] = u32::try_from(slot).expect("under u32::MAX resident pages");
        self.slots.push(Slot {
            id,
            last_use: self.clock,
            value,
        });
        slot
    }

    /// Evicts the least recently used page.
    pub(crate) fn pop_lru(&mut self) -> Option<(usize, T)> {
        let victim = (0..self.slots.len()).min_by_key(|&s| self.slots[s].last_use)?;
        let gone = self.slots.swap_remove(victim);
        self.slot_of[gone.id] = ABSENT;
        if let Some(moved) = self.slots.get(victim) {
            self.slot_of[moved.id] = victim as u32;
        }
        Some((gone.id, gone.value))
    }

    /// Resident page ids, least recently used first, after checking
    /// that the page table and the slots agree.
    #[cfg(test)]
    pub(crate) fn by_recency(&self) -> Vec<usize> {
        for (i, s) in self.slots.iter().enumerate() {
            assert_eq!(self.slot_of[s.id] as usize, i, "page table out of step");
        }
        let resident = self.slot_of.iter().filter(|&&s| s != ABSENT).count();
        assert_eq!(resident, self.slots.len(), "stale page table entries");
        let mut order: Vec<&Slot<T>> = self.slots.iter().collect();
        order.sort_by_key(|s| s.last_use);
        order.iter().map(|s| s.id).collect()
    }
}

impl<T> Index<usize> for SlotTable<T> {
    type Output = T;

    fn index(&self, slot: usize) -> &T {
        &self.slots[slot].value
    }
}

/// LRU page cache with a hard byte budget. The budget bounds what the
/// cache *retains*; the page currently being inserted is always kept
/// (evicting everything else if need be), so a budget smaller than one
/// page degrades to cache-nothing rather than deadlock.
pub(crate) struct PageCache {
    budget: usize,
    used: usize,
    pages: SlotTable<Page>,
    /// Fetches served from cache.
    pub hits: u64,
    /// Fetches that had to load from disk.
    pub misses: u64,
    /// Pages dropped to make room for a miss.
    pub evictions: u64,
}

impl PageCache {
    /// An empty cache over page ids `0..n_pages`.
    pub(crate) fn new(budget: usize, n_pages: usize) -> Self {
        Self {
            budget,
            used: 0,
            pages: SlotTable::new(n_pages),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Bytes currently retained.
    #[cfg(test)]
    pub(crate) fn used(&self) -> usize {
        self.used
    }

    /// Number of resident pages.
    #[cfg(test)]
    pub(crate) fn resident(&self) -> usize {
        self.pages.len()
    }

    /// Looks page `id` up, refreshing its recency; returns its slot.
    pub(crate) fn get(&mut self, id: usize) -> Option<usize> {
        let slot = self.pages.touch(id)?;
        self.hits += 1;
        Some(slot)
    }

    /// The page in `slot`, as returned by the last `get` or `insert`.
    pub(crate) fn page(&self, slot: usize) -> &Page {
        &self.pages[slot]
    }

    /// Inserts freshly loaded page `id`, first evicting
    /// least-recently-used pages until it fits the budget or nothing
    /// else is left; returns its slot.
    pub(crate) fn insert(&mut self, id: usize, page: Page) -> usize {
        self.misses += 1;
        let bytes = page.bytes();
        while self.used + bytes > self.budget {
            let Some((_, gone)) = self.pages.pop_lru() else {
                break;
            };
            self.used -= gone.bytes();
            self.evictions += 1;
        }
        self.used += bytes;
        self.pages.insert(id, page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn floats(n: usize, fill: f64) -> Page {
        Page::Floats(vec![fill; n].into())
    }

    #[test]
    fn budget_is_a_hard_ceiling_on_retained_bytes() {
        let mut c = PageCache::new(64 * 8, 32); // room for 64 f64s
        for p in 0..32 {
            c.insert(p, floats(16, p as f64));
            assert!(c.used() <= 64 * 8, "page {p}: used {} bytes", c.used());
        }
    }

    #[test]
    fn recently_used_pages_survive_eviction() {
        let mut c = PageCache::new(4 * 16 * 8, 5);
        for p in 0..4 {
            c.insert(p, floats(16, p as f64));
        }
        // Touch page 0, then overflow: 0 must survive, 1 must go.
        assert!(c.get(0).is_some());
        c.insert(4, floats(16, 4.0));
        assert!(c.get(0).is_some(), "refreshed page evicted");
        assert!(c.get(1).is_none(), "LRU page retained");
    }

    #[test]
    fn an_oversized_page_is_still_served() {
        let mut c = PageCache::new(8, 2); // under one page
        let slot = c.insert(0, floats(16, 1.0));
        assert_eq!(c.page(slot).floats().len(), 16);
        // The next insert replaces it.
        c.insert(1, floats(16, 2.0));
        assert!(c.get(0).is_none());
    }

    #[test]
    fn resident_bytes_stay_within_the_budget_over_many_touches() {
        // 24 pages of 128 bytes against room for 8: hits, misses and
        // evictions interleave, and the resident set must stay capped.
        let mut c = PageCache::new(8 * 16 * 8, 24);
        for i in 0..100_000usize {
            let id = (i * 7 + i / 5) % 24;
            if c.get(id).is_none() {
                c.insert(id, floats(16, id as f64));
            }
            assert!(
                c.used() <= 8 * 16 * 8 && c.pages.len() <= 8,
                "touch {i}: {} pages, {} bytes resident",
                c.pages.len(),
                c.used()
            );
        }
    }

    #[test]
    fn distinct_ids_do_not_collide() {
        let mut c = PageCache::new(1 << 20, 8);
        c.insert(0, floats(4, 1.0));
        c.insert(1, floats(4, 2.0));
        c.insert(6, Page::Records(vec![Rec { value: 0.5, row: 7 }; 4].into()));
        let slot = c.get(0).unwrap();
        assert_eq!(c.page(slot).floats()[0], 1.0);
        let slot = c.get(1).unwrap();
        assert_eq!(c.page(slot).floats()[0], 2.0);
        let slot = c.get(6).unwrap();
        assert_eq!(c.page(slot).records()[0].row, 7);
        assert!(c.get(5).is_none());
    }

    proptest! {
        /// The cache is exact LRU under its byte budget. Against a
        /// reference list ordered by recency, fed the same fetches
        /// (a miss inserts the page), every fetch hits or misses alike
        /// and the resident pages agree in recency order after every
        /// step. Budgets run from zero through several pages, so some
        /// sit under one page: then only the page just handed out is
        /// kept, the one case where `used` may exceed the budget.
        #[test]
        fn matches_a_reference_lru(
            budget in 0usize..1200,
            ops in prop::collection::vec((0usize..12, 1usize..40), 1..400),
        ) {
            let mut c = PageCache::new(budget, 12);
            // (id, bytes), least recently used first.
            let mut model: Vec<(usize, usize)> = Vec::new();
            for &(id, len) in &ops {
                let hit = c.get(id).is_some();
                let at = model.iter().position(|&(p, _)| p == id);
                prop_assert_eq!(hit, at.is_some());
                if let Some(at) = at {
                    let page = model.remove(at);
                    model.push(page);
                } else {
                    let slot = c.insert(id, floats(len, id as f64));
                    prop_assert_eq!(c.page(slot).floats()[0], id as f64);
                    model.push((id, len * 8));
                    while model.iter().map(|p| p.1).sum::<usize>() > budget && model.len() > 1 {
                        model.remove(0);
                    }
                }
                let ids: Vec<usize> = model.iter().map(|p| p.0).collect();
                prop_assert_eq!(c.pages.by_recency(), ids);
                prop_assert_eq!(c.used(), model.iter().map(|p| p.1).sum::<usize>());
                prop_assert!(c.used() <= budget || model.len() == 1);
            }
            prop_assert_eq!((c.hits + c.misses) as usize, ops.len());
        }
    }
}
