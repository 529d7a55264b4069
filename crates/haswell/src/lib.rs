//! A functional Intel Haswell MMU simulator and PMU model.
//!
//! The paper's case study measures hardware event counters on a real Haswell Xeon
//! with Linux `perf`.  This reproduction cannot assume access to that hardware, so
//! this crate provides the closest synthetic equivalent that exercises the same
//! analysis code paths:
//!
//! * [`hec`] — the 26 address-translation HECs of the paper's Table 2: one static
//!   name table in the paper's group order (`Ret`, `STLB`, `Walk`, `Refs`) and
//!   the typed [`Hec`] ids that index it,
//! * [`mem`] — virtual addresses, page sizes and memory accesses,
//! * [`cache`] — a generic set-associative cache used for the data-cache hierarchy
//!   that classifies page-walker loads (`walk_ref.l1/l2/l3/mem`) and for the MMU's
//!   paging-structure caches,
//! * [`tlb`] — the two-level TLB hierarchy and the paging-structure caches,
//! * [`mmu`] — the MMU simulator itself: page-table walks, walk merging (MSHRs),
//!   the load–store-queue TLB prefetcher with its cache-line trigger conditions,
//!   abortable prefetch walks (accessed-bit check), walk bypassing, and the
//!   optional PML4E (root-level) MMU cache — i.e. exactly the feature set the
//!   paper reverse-engineers,
//! * [`pmu`] — a perf-like PMU with a limited number of physical counters that
//!   multiplexes the requested logical events in time slices and extrapolates, so
//!   the resulting time-series samples carry realistic multiplexing noise,
//! * [`eventdb`] — the historical counter-count database behind Figure 1a.
//!
//! The simulator is functional (it models what happens, not cycle timing), which is
//! sufficient because CounterPoint's analysis consumes only event *counts*.
//!
//! # Example
//!
//! ```
//! use counterpoint_haswell::hec::{AccessType, Event, Hec};
//! use counterpoint_haswell::mmu::{HaswellMmu, MmuConfig};
//! use counterpoint_haswell::mem::{MemoryAccess, PageSize};
//!
//! let mut mmu = HaswellMmu::new(MmuConfig::haswell());
//! // Touch 1 MiB linearly with 64-byte strides.
//! for i in 0..16_384u64 {
//!     mmu.access(&MemoryAccess::load(i * 64), PageSize::Size4K);
//! }
//! let counts = mmu.counts();
//! assert!(counts.get(Hec::of(AccessType::Load, Event::Ret)) >= 16_384);
//! assert!(counts.get(Hec::of(AccessType::Load, Event::CausesWalk)) > 0);
//! ```

pub mod cache;
pub mod eventdb;
pub mod hec;
pub mod mem;
pub mod mmu;
pub mod pmu;
pub mod tlb;

pub use hec::{full_counter_space, AccessType, CounterValues, Hec, HecGroup};
pub use mem::{MemoryAccess, PageSize, VirtAddr};
pub use mmu::{HaswellMmu, MmuConfig};
pub use pmu::{MultiplexingPmu, PmuConfig};
