//! The functional Haswell MMU simulator.
//!
//! The simulator implements the feature set the paper reverse-engineers on real
//! Haswell hardware, so that the analysis layer has a ground truth exhibiting the
//! same qualitative behaviours:
//!
//! * a two-level TLB hierarchy and a four-level page table,
//! * paging-structure caches (PDE, PDPTE and the undocumented root-level PML4E
//!   cache) that shorten walks,
//! * **early paging-structure-cache lookup**: the PDE cache is consulted for every
//!   translation request *before* merge/abort decisions, so `pde$_miss` can exceed
//!   `causes_walk`,
//! * **walk merging**: while a walk to a virtual page is outstanding (its TLB fill
//!   has not yet become visible), further misses to the same page merge into it and
//!   cause no additional walk,
//! * a **load–store-queue TLB prefetcher** triggered by consecutive loads to cache
//!   lines 51→52 (ascending) or 8→7 (descending) of a 4 KiB page, which issues a
//!   next/previous-page translation; prefetch-induced walks **abort** when the
//!   target page's accessed bit is unset,
//! * **walk bypassing / replays**: demand walks that find the accessed bit unset
//!   are replayed non-speculatively, and the replay's memory references are not
//!   visible to the `walk_ref.*` counters — so some walks complete with zero
//!   counted walker references.
//!
//! Every translation event increments exactly the counters of one μpath of the
//! full-featured case-study model, which is what makes the feature-complete μDD
//! feasible for the simulated observations while feature-poor μDDs are refuted.

use crate::cache::SetAssocCache;
use crate::hec::{AccessType, CounterValues, Event, Hec};
use crate::mem::{MemoryAccess, PageSize, VirtAddr};
use crate::tlb::{PagingStructureCaches, TlbHierarchy, TlbOutcome};
use std::collections::{HashMap, HashSet, VecDeque};

/// Configuration of the simulated MMU (which of the reverse-engineered features are
/// present, plus sizing knobs).
#[derive(Clone, Debug)]
pub struct MmuConfig {
    /// LSQ-side TLB prefetcher (trigger lines 51/52 ascending, 8/7 descending).
    pub tlb_prefetcher: bool,
    /// Merge misses to a page with an outstanding walk instead of walking again.
    pub walk_merging: bool,
    /// Root-level (PML4E) paging-structure cache present.
    pub pml4e_cache: bool,
    /// Replay-on-first-touch: walks that find the accessed bit unset complete
    /// without visible walker references.
    pub walk_replay: bool,
    /// Number of subsequent accesses for which a started walk remains outstanding
    /// (its TLB/PSC fills are not yet visible and misses to the page merge).
    pub walk_latency: u64,
    /// Use tiny TLBs (for tests that need to force misses with few accesses).
    pub tiny_tlbs: bool,
}

impl MmuConfig {
    /// The full-featured configuration matching the behaviours the paper uncovers
    /// on real Haswell hardware.
    pub fn haswell() -> MmuConfig {
        MmuConfig {
            tlb_prefetcher: true,
            walk_merging: true,
            pml4e_cache: true,
            walk_replay: true,
            walk_latency: 6,
            tiny_tlbs: false,
        }
    }

    /// A conventional-wisdom configuration with none of the undocumented features —
    /// the hardware the paper's initial model `m0` assumes.
    pub fn conventional() -> MmuConfig {
        MmuConfig {
            tlb_prefetcher: false,
            walk_merging: false,
            pml4e_cache: false,
            walk_replay: false,
            walk_latency: 0,
            tiny_tlbs: false,
        }
    }

    /// Haswell configuration with tiny TLBs (testing convenience).
    pub fn haswell_tiny() -> MmuConfig {
        MmuConfig {
            tiny_tlbs: true,
            ..MmuConfig::haswell()
        }
    }
}

/// Synthetic page-table address allocator: gives every page-table page a distinct
/// base address so walker references can be classified by the data-cache hierarchy.
#[derive(Clone, Debug, Default)]
struct PageTableLayout {
    tables: HashMap<(u8, u64), u64>,
    next_base: u64,
}

impl PageTableLayout {
    /// Address of the page-table entry consulted at `level` (4 = PML4 … 1 = PT) for
    /// a virtual address.
    fn entry_address(&mut self, level: u8, addr: VirtAddr) -> u64 {
        let (table_key, index) = match level {
            4 => (0, addr.pml4_index()),
            3 => (addr.pml4e_region(), addr.pdpt_index()),
            2 => (addr.pdpte_region(), addr.pd_index()),
            _ => (addr.pde_region(), addr.pt_index()),
        };
        let next = &mut self.next_base;
        let base = *self.tables.entry((level, table_key)).or_insert_with(|| {
            let b = 0x100_0000_0000 + *next * 0x1000;
            *next += 1;
            b
        });
        base + index * 8
    }
}

/// How a single memory access was resolved (returned for tests and tracing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Hit in the first-level TLB.
    L1TlbHit,
    /// Hit in the second-level TLB.
    StlbHit,
    /// Missed both TLBs and merged into an outstanding walk.
    MissMerged,
    /// Missed both TLBs and performed a page-table walk with the given number of
    /// counted walker references.
    MissWalked(u32),
    /// Missed both TLBs; the walk was replayed (completed without counted
    /// references).
    MissReplayed,
}

/// The functional Haswell MMU simulator.
pub struct HaswellMmu {
    config: MmuConfig,
    tlb: TlbHierarchy,
    psc: PagingStructureCaches,
    /// Data-cache hierarchy used to classify walker loads (L1D, L2, L3).
    l1d: SetAssocCache,
    l2: SetAssocCache,
    l3: SetAssocCache,
    page_table: PageTableLayout,
    /// Pages (by `(vpn, page-shift)`) whose leaf PTE has the accessed bit set.
    accessed: HashSet<(u64, u32)>,
    /// Outstanding walks: `(key, visible_at_access_index, addr, size)`.
    outstanding: VecDeque<(u64, u64, VirtAddr, PageSize)>,
    /// Previous load's `(4K page, cache line)` for the prefetcher trigger.
    last_load_line: Option<(u64, u64)>,
    access_index: u64,
    counts: CounterValues,
    /// Number of merged walks (reported in EXPERIMENTS.md: "merging reduces the
    /// number of distinct walks by nearly half for some workloads").
    merged_walks: u64,
    prefetch_walks: u64,
    aborted_prefetches: u64,
    replayed_walks: u64,
}

impl HaswellMmu {
    /// Creates a simulator with the given configuration.
    pub fn new(config: MmuConfig) -> HaswellMmu {
        let tlb = if config.tiny_tlbs {
            TlbHierarchy::tiny()
        } else {
            TlbHierarchy::haswell()
        };
        let psc = PagingStructureCaches::new(config.pml4e_cache);
        HaswellMmu {
            config,
            tlb,
            psc,
            l1d: SetAssocCache::new(64, 8),
            l2: SetAssocCache::new(512, 8),
            l3: SetAssocCache::new(2048, 16),
            page_table: PageTableLayout::default(),
            accessed: HashSet::new(),
            outstanding: VecDeque::new(),
            last_load_line: None,
            access_index: 0,
            counts: CounterValues::new(),
            merged_walks: 0,
            prefetch_walks: 0,
            aborted_prefetches: 0,
            replayed_walks: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MmuConfig {
        &self.config
    }

    /// The accumulated hardware event counts.
    pub fn counts(&self) -> &CounterValues {
        &self.counts
    }

    /// Number of translation requests that merged into an outstanding walk.
    pub fn merged_walks(&self) -> u64 {
        self.merged_walks
    }

    /// Number of walks initiated by the TLB prefetcher.
    pub fn prefetch_walks(&self) -> u64 {
        self.prefetch_walks
    }

    /// Number of prefetch requests aborted due to an unset accessed bit.
    pub fn aborted_prefetches(&self) -> u64 {
        self.aborted_prefetches
    }

    /// Number of walks replayed (completed without counted walker references).
    pub fn replayed_walks(&self) -> u64 {
        self.replayed_walks
    }

    /// Total number of accesses processed.
    pub fn accesses(&self) -> u64 {
        self.access_index
    }

    /// Runs a whole access stream with a single page size.
    pub fn run<I: IntoIterator<Item = MemoryAccess>>(&mut self, accesses: I, size: PageSize) {
        for a in accesses {
            self.access(&a, size);
        }
    }

    /// Processes one memory access mapped with the given page size and returns how
    /// it was resolved.
    pub fn access(&mut self, access: &MemoryAccess, size: PageSize) -> AccessOutcome {
        self.access_index += 1;
        self.commit_outstanding();

        let t = if access.is_store {
            AccessType::Store
        } else {
            AccessType::Load
        };
        self.counts.increment(Hec::of(t, Event::Ret));

        // Prefetcher trigger scan happens in the load/store queue, i.e. before the
        // TLB is consulted, and only for loads to 4 KiB-mapped regions.
        if self.config.tlb_prefetcher && !access.is_store && size == PageSize::Size4K {
            self.prefetcher_scan(access.addr);
        }

        match self.tlb.lookup(access.addr, size) {
            TlbOutcome::L1Hit => AccessOutcome::L1TlbHit,
            TlbOutcome::StlbHit => {
                self.counts.increment(Hec::of(t, Event::StlbHit));
                match size {
                    PageSize::Size4K => self.counts.increment(Hec::of(t, Event::StlbHit4k)),
                    PageSize::Size2M => self.counts.increment(Hec::of(t, Event::StlbHit2m)),
                    PageSize::Size1G => {}
                }
                AccessOutcome::StlbHit
            }
            TlbOutcome::Miss => {
                self.counts.increment(Hec::of(t, Event::RetStlbMiss));
                self.translation_request(t, access.addr, size, false)
            }
        }
    }

    /// Makes the fills of walks whose latency has elapsed visible.
    fn commit_outstanding(&mut self) {
        while let Some(&(_, visible_at, addr, size)) = self.outstanding.front() {
            if visible_at > self.access_index {
                break;
            }
            self.tlb.fill(addr, size);
            self.psc.fill_from_walk(addr, size);
            self.outstanding.pop_front();
        }
    }

    fn outstanding_contains(&self, key: u64) -> bool {
        self.outstanding.iter().any(|&(k, _, _, _)| k == key)
    }

    /// The LSQ scan that drives the TLB prefetcher: consecutive loads to cache
    /// lines 51→52 (ascending) or 8→7 (descending) within a 4 KiB page trigger a
    /// prefetch of the next / previous page.
    fn prefetcher_scan(&mut self, addr: VirtAddr) {
        let page = addr.vpn(PageSize::Size4K);
        let line = addr.cache_line_in_page();
        if let Some((prev_page, prev_line)) = self.last_load_line {
            if prev_page == page {
                if prev_line == 51 && line == 52 {
                    self.issue_prefetch(page.wrapping_add(1));
                } else if prev_line == 8 && line == 7 {
                    self.issue_prefetch(page.wrapping_sub(1));
                }
            }
        }
        self.last_load_line = Some((page, line));
    }

    fn issue_prefetch(&mut self, target_vpn: u64) {
        let addr = VirtAddr(target_vpn << PageSize::Size4K.shift());
        if self.tlb.contains(addr, PageSize::Size4K) {
            return;
        }
        self.translation_request(AccessType::Load, addr, PageSize::Size4K, true);
    }

    /// Handles a translation request that missed both TLB levels (demand miss or
    /// prefetch).
    fn translation_request(
        &mut self,
        t: AccessType,
        addr: VirtAddr,
        size: PageSize,
        is_prefetch: bool,
    ) -> AccessOutcome {
        let key = walk_key(addr, size);

        // Early paging-structure-cache lookup: the PDE cache is consulted for every
        // 4 KiB translation request, before the merge/abort decisions — this is the
        // behaviour that lets pde$_miss exceed causes_walk.
        let mut pde_hit = false;
        if size == PageSize::Size4K {
            pde_hit = self.psc.pde_hit(addr);
            if !pde_hit {
                self.counts.increment(Hec::of(t, Event::PdeMiss));
            }
        }

        // Walk merging: a miss to a page with an outstanding walk does not start a
        // new walk.
        if self.config.walk_merging && self.outstanding_contains(key) {
            self.merged_walks += 1;
            return AccessOutcome::MissMerged;
        }

        let page_key = (addr.vpn(size), size.shift());
        let accessed_bit_set = self.accessed.contains(&page_key);

        // Prefetch-induced walks abort when the accessed bit of the target page is
        // unset (setting it speculatively could distort paging decisions).
        if is_prefetch && !accessed_bit_set {
            self.aborted_prefetches += 1;
            return AccessOutcome::MissMerged;
        }

        if is_prefetch {
            self.prefetch_walks += 1;
        }

        // The walk starts now and its fills become visible after the walk latency.
        let visible_at = self.access_index + self.config.walk_latency;
        self.outstanding.push_back((key, visible_at, addr, size));
        if self.config.walk_latency == 0 {
            // Immediate visibility keeps the no-merging configuration simple.
            self.tlb.fill(addr, size);
            self.psc.fill_from_walk(addr, size);
            self.outstanding.pop_back();
        }

        self.counts.increment(Hec::of(t, Event::CausesWalk));

        // Replay-on-first-touch: the speculative walk observes an unset accessed
        // bit and is replayed non-speculatively; the replay's references are not
        // counted by walk_ref.*.
        let outcome = if self.config.walk_replay && !accessed_bit_set {
            self.replayed_walks += 1;
            AccessOutcome::MissReplayed
        } else {
            let refs = self.perform_walk_references(addr, size, pde_hit);
            AccessOutcome::MissWalked(refs)
        };

        self.counts.increment(Hec::of(t, Event::WalkDone));
        match size {
            PageSize::Size4K => self.counts.increment(Hec::of(t, Event::WalkDone4k)),
            PageSize::Size2M => self.counts.increment(Hec::of(t, Event::WalkDone2m)),
            PageSize::Size1G => self.counts.increment(Hec::of(t, Event::WalkDone1g)),
        }

        self.accessed.insert(page_key);
        outcome
    }

    /// Issues the walker's memory references for a (non-replayed) walk, classifying
    /// each against the data-cache hierarchy, and returns how many were made.
    fn perform_walk_references(&mut self, addr: VirtAddr, size: PageSize, pde_hit: bool) -> u32 {
        let levels: &'static [u8] = match size {
            PageSize::Size4K => {
                if pde_hit {
                    &[1]
                } else if self.psc.pdpte_hit(addr) {
                    &[2, 1]
                } else if self.psc.pml4e_hit(addr) {
                    &[3, 2, 1]
                } else {
                    &[4, 3, 2, 1]
                }
            }
            PageSize::Size2M => {
                if self.psc.pdpte_hit(addr) {
                    &[2]
                } else if self.psc.pml4e_hit(addr) {
                    &[3, 2]
                } else {
                    &[4, 3, 2]
                }
            }
            PageSize::Size1G => {
                if self.psc.pml4e_hit(addr) {
                    &[3]
                } else {
                    &[4, 3]
                }
            }
        };
        for &level in levels {
            let pte_line = self.page_table.entry_address(level, addr) >> 6;
            let cache_level = if self.l1d.access(pte_line) {
                1
            } else if self.l2.access(pte_line) {
                2
            } else if self.l3.access(pte_line) {
                3
            } else {
                4
            };
            self.counts.increment(Hec::walk_ref(cache_level));
        }
        levels.len() as u32
    }
}

/// A key identifying the translation a walk resolves (page size included so 4 KiB
/// and 2 MiB mappings of the same address range do not alias).
fn walk_key(addr: VirtAddr, size: PageSize) -> u64 {
    (addr.vpn(size) << 2) | size.walk_levels() as u64 & 0x3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(event: Event) -> Hec {
        Hec::of(AccessType::Load, event)
    }

    fn walk_refs(mmu: &HaswellMmu) -> u64 {
        (1..=4).map(|l| mmu.counts().get(Hec::walk_ref(l))).sum()
    }

    fn linear_accesses(bytes: u64, stride: u64) -> Vec<MemoryAccess> {
        (0..bytes / stride)
            .map(|i| MemoryAccess::load(i * stride))
            .collect()
    }

    #[test]
    fn every_access_retires() {
        let mut mmu = HaswellMmu::new(MmuConfig::haswell());
        mmu.run(linear_accesses(1 << 20, 64), PageSize::Size4K);
        assert_eq!(mmu.counts().get(load(Event::Ret)), (1 << 20) / 64);
        assert_eq!(mmu.accesses(), (1 << 20) / 64);
    }

    #[test]
    fn stores_use_store_counters() {
        let mut mmu = HaswellMmu::new(MmuConfig::haswell());
        let accesses: Vec<MemoryAccess> = (0..1000u64)
            .map(|i| MemoryAccess::store(i * 4096))
            .collect();
        mmu.run(accesses, PageSize::Size4K);
        let store = |event| mmu.counts().get(Hec::of(AccessType::Store, event));
        assert_eq!(store(Event::Ret), 1000);
        assert_eq!(mmu.counts().get(load(Event::Ret)), 0);
        assert!(store(Event::CausesWalk) > 0);
        assert_eq!(mmu.counts().get(load(Event::CausesWalk)), 0);
    }

    #[test]
    fn repeated_page_hits_the_tlb() {
        let mut mmu = HaswellMmu::new(MmuConfig::haswell());
        let accesses: Vec<MemoryAccess> = (0..100).map(|_| MemoryAccess::load(0x1000)).collect();
        mmu.run(accesses, PageSize::Size4K);
        // Only accesses issued before the first walk's fill becomes visible can
        // miss, and only the first of them starts a walk.
        assert!(
            mmu.counts().get(load(Event::RetStlbMiss)) <= MmuConfig::haswell().walk_latency + 1
        );
        assert_eq!(mmu.counts().get(load(Event::CausesWalk)), 1);
    }

    #[test]
    fn walks_complete_for_every_page_size() {
        for (size, done_size) in [
            (PageSize::Size4K, Event::WalkDone4k),
            (PageSize::Size2M, Event::WalkDone2m),
            (PageSize::Size1G, Event::WalkDone1g),
        ] {
            let mut mmu = HaswellMmu::new(MmuConfig::haswell());
            let accesses: Vec<MemoryAccess> = (0..64u64)
                .map(|i| MemoryAccess::load(i * size.bytes()))
                .collect();
            mmu.run(accesses, size);
            let done = mmu.counts().get(load(done_size));
            assert!(done > 0, "no completed walks for {size}");
            assert_eq!(mmu.counts().get(load(Event::WalkDone)), done);
        }
    }

    #[test]
    fn merging_produces_more_retired_misses_than_walks() {
        // Several consecutive misses to the same page within the walk latency merge
        // into a single walk (stride small enough to revisit the page, footprint
        // large enough to defeat the TLB; prefetcher disabled from triggering by
        // the 256-byte stride which skips lines 51/52 adjacency).
        let mut mmu = HaswellMmu::new(MmuConfig::haswell());
        let accesses: Vec<MemoryAccess> = (0..200_000u64)
            .map(|i| MemoryAccess::load(i * 256))
            .collect();
        mmu.run(accesses, PageSize::Size4K);
        assert!(mmu.merged_walks() > 0);
        assert!(
            mmu.counts().get(load(Event::RetStlbMiss)) > mmu.counts().get(load(Event::WalkDone)),
            "merging should make retired STLB misses exceed completed walks"
        );
    }

    #[test]
    fn disabling_merging_restores_one_walk_per_miss() {
        let mut config = MmuConfig::haswell();
        config.walk_merging = false;
        config.tlb_prefetcher = false;
        let mut mmu = HaswellMmu::new(config);
        let accesses: Vec<MemoryAccess> = (0..100_000u64)
            .map(|i| MemoryAccess::load(i * 256))
            .collect();
        mmu.run(accesses, PageSize::Size4K);
        assert_eq!(mmu.merged_walks(), 0);
        assert_eq!(
            mmu.counts().get(load(Event::RetStlbMiss)),
            mmu.counts().get(load(Event::CausesWalk))
        );
    }

    #[test]
    fn early_pde_lookup_lets_pde_misses_exceed_walks() {
        // Pairs of accesses to two lines of the same random-ish page: the second
        // access merges but still looks up the (cold) PDE cache.
        let mut mmu = HaswellMmu::new(MmuConfig::haswell());
        let mut accesses = Vec::new();
        for i in 0..60_000u64 {
            // Spread pages across many 2 MiB regions so the PDE cache keeps missing.
            let page = (i * 977) % 500_000;
            let base = page * 4096;
            accesses.push(MemoryAccess::load(base));
            accesses.push(MemoryAccess::load(base + 128));
        }
        mmu.run(accesses, PageSize::Size4K);
        assert!(
            mmu.counts().get(load(Event::PdeMiss)) > mmu.counts().get(load(Event::CausesWalk)),
            "early PSC lookup + merging should let pde$_miss ({}) exceed causes_walk ({})",
            mmu.counts().get(load(Event::PdeMiss)),
            mmu.counts().get(load(Event::CausesWalk))
        );
    }

    #[test]
    fn prefetcher_walks_without_retired_misses() {
        // A linear 64-byte-stride scan walks each page once via the prefetcher in
        // the steady state; run two passes so accessed bits are set and prefetch
        // walks are not aborted.
        let footprint = 8 << 20; // 8 MiB > TLB reach
        let pass = linear_accesses(footprint, 64);
        let mut mmu = HaswellMmu::new(MmuConfig::haswell());
        mmu.run(pass.clone(), PageSize::Size4K);
        let misses_first = mmu.counts().get(load(Event::RetStlbMiss));
        mmu.run(pass.clone(), PageSize::Size4K);
        mmu.run(pass, PageSize::Size4K);
        assert!(
            mmu.prefetch_walks() > 0,
            "prefetcher should have issued walks"
        );
        // In the steady state most pages are covered by prefetch, so walks exceed
        // retired STLB misses accumulated after the first pass.
        let misses_total = mmu.counts().get(load(Event::RetStlbMiss));
        let walks = mmu.counts().get(load(Event::CausesWalk));
        assert!(
            walks > misses_total - misses_first,
            "prefetch-induced walks ({walks}) should exceed demand misses after warm-up"
        );
    }

    #[test]
    fn prefetches_to_untouched_pages_abort() {
        let mut mmu = HaswellMmu::new(MmuConfig::haswell());
        // Single pass: every prefetch targets a page whose accessed bit is unset.
        mmu.run(linear_accesses(4 << 20, 64), PageSize::Size4K);
        assert!(mmu.aborted_prefetches() > 0);
        assert_eq!(mmu.prefetch_walks(), 0);
    }

    #[test]
    fn descending_streams_also_trigger_the_prefetcher() {
        let mut mmu = HaswellMmu::new(MmuConfig::haswell());
        let footprint: u64 = 4 << 20;
        let descending: Vec<MemoryAccess> = (0..footprint / 64)
            .map(|i| MemoryAccess::load(footprint - 64 - i * 64))
            .collect();
        // Two passes: first sets accessed bits, second prefetches successfully.
        mmu.run(descending.clone(), PageSize::Size4K);
        mmu.run(descending, PageSize::Size4K);
        assert!(mmu.prefetch_walks() > 0);
    }

    #[test]
    fn first_touch_walks_are_replayed_without_refs() {
        let mut mmu = HaswellMmu::new(MmuConfig::haswell());
        // Touch many distinct pages exactly once with a large stride (no prefetch,
        // no merging opportunities).
        let accesses: Vec<MemoryAccess> = (0..50_000u64)
            .map(|i| MemoryAccess::load(i * 4096))
            .collect();
        mmu.run(accesses, PageSize::Size4K);
        assert!(mmu.replayed_walks() > 0);
        let total_refs = walk_refs(&mmu);
        let walks = mmu.counts().get(load(Event::CausesWalk));
        assert!(
            total_refs < walks,
            "replayed walks should leave walk_ref ({total_refs}) below causes_walk ({walks})"
        );
    }

    #[test]
    fn disabling_replay_makes_every_walk_reference_memory() {
        let mut config = MmuConfig::haswell();
        config.walk_replay = false;
        config.tlb_prefetcher = false;
        let mut mmu = HaswellMmu::new(config);
        let accesses: Vec<MemoryAccess> = (0..20_000u64)
            .map(|i| MemoryAccess::load(i * 4096))
            .collect();
        mmu.run(accesses, PageSize::Size4K);
        assert!(walk_refs(&mmu) >= mmu.counts().get(load(Event::CausesWalk)));
    }

    #[test]
    fn pml4e_cache_shortens_one_gig_walks() {
        let run_refs = |pml4e: bool| {
            let mut config = MmuConfig::haswell();
            config.pml4e_cache = pml4e;
            config.walk_replay = false;
            config.tlb_prefetcher = false;
            let mut mmu = HaswellMmu::new(config);
            // Two 1 GiB pages accessed alternately; the 4-entry 1G L1 TLB holds
            // them, so force misses by touching many distinct 1G pages.
            let accesses: Vec<MemoryAccess> = (0..2_000u64)
                .map(|i| MemoryAccess::load((i % 64) << 30))
                .collect();
            mmu.run(accesses, PageSize::Size1G);
            walk_refs(&mmu)
        };
        assert!(run_refs(true) < run_refs(false));
    }

    #[test]
    fn stlb_hits_are_counted_with_their_page_size() {
        let mut mmu = HaswellMmu::new(MmuConfig::haswell_tiny());
        // Access enough 4K pages to overflow the tiny L1 but stay within the STLB.
        let accesses: Vec<MemoryAccess> = (0..4u64)
            .cycle()
            .take(200)
            .map(|p| MemoryAccess::load(p * 4096))
            .collect();
        mmu.run(accesses, PageSize::Size4K);
        assert_eq!(
            mmu.counts().get(load(Event::StlbHit)),
            mmu.counts().get(load(Event::StlbHit4k))
        );
    }

    #[test]
    fn conventional_configuration_has_no_undocumented_behaviour() {
        let mut mmu = HaswellMmu::new(MmuConfig::conventional());
        mmu.run(linear_accesses(4 << 20, 64), PageSize::Size4K);
        assert_eq!(mmu.merged_walks(), 0);
        assert_eq!(mmu.prefetch_walks(), 0);
        assert_eq!(mmu.aborted_prefetches(), 0);
        assert_eq!(mmu.replayed_walks(), 0);
        // Without merging or prefetching, misses and walks line up exactly.
        assert_eq!(
            mmu.counts().get(load(Event::RetStlbMiss)),
            mmu.counts().get(load(Event::CausesWalk))
        );
        assert!(walk_refs(&mmu) >= mmu.counts().get(load(Event::CausesWalk)));
    }

    #[test]
    fn access_outcome_reflects_resolution() {
        let mut mmu = HaswellMmu::new(MmuConfig::haswell());
        let first = mmu.access(&MemoryAccess::load(0x5000), PageSize::Size4K);
        assert!(matches!(
            first,
            AccessOutcome::MissReplayed | AccessOutcome::MissWalked(_)
        ));
        // Walk latency has not elapsed: a second access to the same page merges.
        let second = mmu.access(&MemoryAccess::load(0x5040), PageSize::Size4K);
        assert_eq!(second, AccessOutcome::MissMerged);
        // After enough unrelated accesses the fill becomes visible and we hit.
        for i in 0..10u64 {
            mmu.access(
                &MemoryAccess::load(0x9000_0000 + i * 4096),
                PageSize::Size4K,
            );
        }
        let third = mmu.access(&MemoryAccess::load(0x5080), PageSize::Size4K);
        assert_eq!(third, AccessOutcome::L1TlbHit);
    }
}
