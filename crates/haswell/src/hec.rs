//! The Haswell address-translation hardware event counters (paper, Table 2): one
//! static name table, [`HEC_NAMES`], and the typed [`Hec`] ids that index it.

use counterpoint_mudd::CounterSpace;
use serde::Serialize;
use std::fmt;

/// Whether a μop (and therefore its HECs) is a load or a store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum AccessType {
    /// Load μops (`load.*` counters, `mem_uops_retired.all_loads`, ...).
    Load,
    /// Store μops (`store.*` counters).
    Store,
}

impl AccessType {
    /// The two access types, in canonical order.
    pub const ALL: [AccessType; 2] = [AccessType::Load, AccessType::Store];
}

/// The prefix used in counter names (`load` / `store`).
impl fmt::Display for AccessType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessType::Load => "load",
            AccessType::Store => "store",
        })
    }
}

/// The 26 counter names of the paper's Table 2, in canonical order: groups in
/// `Ret`, `STLB`, `Walk`, `Refs` order, and inside the first three groups the
/// `load.*` counters before the matching `store.*` ones.
#[rustfmt::skip]
pub const HEC_NAMES: [&str; 26] = [
    // Ret
    "load.ret", "load.ret_stlb_miss",
    "store.ret", "store.ret_stlb_miss",
    // STLB
    "load.stlb_hit", "load.stlb_hit_4k", "load.stlb_hit_2m",
    "store.stlb_hit", "store.stlb_hit_4k", "store.stlb_hit_2m",
    // Walk
    "load.causes_walk", "load.walk_done", "load.walk_done_4k", "load.walk_done_2m",
    "load.walk_done_1g", "load.pde$_miss",
    "store.causes_walk", "store.walk_done", "store.walk_done_4k", "store.walk_done_2m",
    "store.walk_done_1g", "store.pde$_miss",
    // Refs
    "walk_ref.l1", "walk_ref.l2", "walk_ref.l3", "walk_ref.mem",
];

/// The counter groups of the paper's Table 2 / Figures 1b and 9.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum HecGroup {
    /// Retirement counters (`T.ret`, `T.ret_stlb_miss`) — 4 counters.
    Ret,
    /// Second-level TLB hit counters (`T.stlb_hit*`) — 6 counters.
    Stlb,
    /// Page-walk counters (`T.causes_walk`, `T.walk_done*`, `T.pde$_miss`) — 12
    /// counters.
    Walk,
    /// Page-walker memory-reference counters (`walk_ref.*`) — 4 counters.
    Refs,
}

impl HecGroup {
    /// All groups in the cumulative order used on the x-axes of Figures 1b and 9.
    pub const ALL: [HecGroup; 4] = [
        HecGroup::Ret,
        HecGroup::Stlb,
        HecGroup::Walk,
        HecGroup::Refs,
    ];

    /// The counter names belonging to this group.
    pub fn counters(&self) -> &'static [&'static str] {
        match self {
            HecGroup::Ret => &HEC_NAMES[..4],
            HecGroup::Stlb => &HEC_NAMES[4..10],
            HecGroup::Walk => &HEC_NAMES[10..22],
            HecGroup::Refs => &HEC_NAMES[22..],
        }
    }
}

/// The per-access-type events of Table 2: with an [`AccessType`] each names one
/// counter (`Event::CausesWalk` with `Store` is `store.causes_walk`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// `T.ret`
    Ret,
    /// `T.ret_stlb_miss`
    RetStlbMiss,
    /// `T.stlb_hit`
    StlbHit,
    /// `T.stlb_hit_4k`
    StlbHit4k,
    /// `T.stlb_hit_2m`
    StlbHit2m,
    /// `T.causes_walk`
    CausesWalk,
    /// `T.walk_done`
    WalkDone,
    /// `T.walk_done_4k`
    WalkDone4k,
    /// `T.walk_done_2m`
    WalkDone2m,
    /// `T.walk_done_1g`
    WalkDone1g,
    /// `T.pde$_miss`
    PdeMiss,
}

/// One of the 26 Table 2 counters: its position in [`HEC_NAMES`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hec(u8);

impl Hec {
    /// The counter of `event` for μops of type `t`.
    pub const fn of(t: AccessType, event: Event) -> Hec {
        // Positions in [`HEC_NAMES`], in `Event` order: each group lists its
        // load counters, then the matching store ones.
        const LOAD: [u8; 11] = [0, 1, 4, 5, 6, 10, 11, 12, 13, 14, 15];
        const STORE: [u8; 11] = [2, 3, 7, 8, 9, 16, 17, 18, 19, 20, 21];
        let positions = match t {
            AccessType::Load => LOAD,
            AccessType::Store => STORE,
        };
        Hec(positions[event as usize])
    }

    /// The walker-reference counter of a cache level: `1`–`3` are
    /// `walk_ref.l1`–`walk_ref.l3`, `4` is `walk_ref.mem`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not in `1..=4`.
    pub fn walk_ref(level: usize) -> Hec {
        assert!((1..=4).contains(&level), "walk_ref level must be 1..=4");
        let l1 = HEC_NAMES.len() - HecGroup::Refs.counters().len();
        Hec((l1 + level - 1) as u8)
    }

    /// The Table 2 counter behind each column of `space`, in column order
    /// (`None` for a name outside Table 2).
    pub fn columns(space: &CounterSpace) -> Vec<Option<Hec>> {
        let position = |name: &str| HEC_NAMES.iter().position(|&h| h == name);
        space
            .names()
            .iter()
            .map(|n| position(n).map(|i| Hec(i as u8)))
            .collect()
    }

    /// Position in [`HEC_NAMES`] (and in [`full_counter_space`]).
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The counter's Table 2 name, e.g. `load.causes_walk`.
    pub const fn name(self) -> &'static str {
        HEC_NAMES[self.index()]
    }
}

/// The full 26-counter space of the paper's Table 2, in canonical order
/// (groups in `Ret`, `STLB`, `Walk`, `Refs` order).
pub fn full_counter_space() -> CounterSpace {
    CounterSpace::new(&HEC_NAMES)
}

/// The counter space obtained by taking the first `n` groups of
/// [`HecGroup::ALL`] cumulatively — the x-axis of Figures 1b and 9.
///
/// # Panics
///
/// Panics if `n` is zero or greater than the number of groups.
pub fn cumulative_group_space(n: usize) -> CounterSpace {
    assert!(n >= 1 && n <= HecGroup::ALL.len(), "need 1..=4 groups");
    let end: usize = HecGroup::ALL[..n].iter().map(|g| g.counters().len()).sum();
    CounterSpace::new(&HEC_NAMES[..end])
}

/// The values of the 26 Table 2 counters, indexed by [`Hec`].
///
/// This is the simulator's ground-truth accumulator; the PMU model samples it
/// periodically, and [`CounterValues::to_vector`] projects it onto any
/// [`CounterSpace`] for analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterValues {
    values: [u64; HEC_NAMES.len()],
}

impl CounterValues {
    /// Creates an all-zero set of counter values.
    pub fn new() -> CounterValues {
        CounterValues::default()
    }

    /// Adds one to a counter.
    pub fn increment(&mut self, hec: Hec) {
        self.values[hec.index()] += 1;
    }

    /// The current value of a counter.
    pub fn get(&self, hec: Hec) -> u64 {
        self.values[hec.index()]
    }

    /// Projects the values onto a counter space as an `f64` vector (names
    /// outside Table 2 read zero).
    pub fn to_vector(&self, space: &CounterSpace) -> Vec<f64> {
        self.delta_vector(&CounterValues::new(), &Hec::columns(space))
    }

    /// Component-wise difference `self - earlier` over the given columns (see
    /// [`Hec::columns`]; `None` columns read zero).  Used by the PMU to turn
    /// cumulative counts into per-interval increments.
    ///
    /// # Panics
    ///
    /// Panics if any counter decreased (counters are monotone).
    pub fn delta_vector(&self, earlier: &CounterValues, columns: &[Option<Hec>]) -> Vec<f64> {
        columns
            .iter()
            .map(|column| {
                let Some(hec) = *column else { return 0.0 };
                let (now, before) = (self.get(hec), earlier.get(hec));
                assert!(now >= before, "counter {} decreased", hec.name());
                (now - before) as f64
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_space_has_26_counters_in_group_order() {
        let space = full_counter_space();
        assert_eq!(space.len(), 26);
        assert_eq!(space.name(0), "load.ret");
        assert!(space.contains("store.walk_done_1g"));
        assert!(space.contains("walk_ref.mem"));
        assert!(space.contains("load.pde$_miss"));
    }

    #[test]
    fn group_sizes_match_table2() {
        assert_eq!(HecGroup::Ret.counters().len(), 4);
        assert_eq!(HecGroup::Stlb.counters().len(), 6);
        assert_eq!(HecGroup::Walk.counters().len(), 12);
        assert_eq!(HecGroup::Refs.counters().len(), 4);
        let total: usize = HecGroup::ALL.iter().map(|g| g.counters().len()).sum();
        assert_eq!(total, 26);
    }

    #[test]
    fn cumulative_group_spaces_grow() {
        assert_eq!(cumulative_group_space(1).len(), 4);
        assert_eq!(cumulative_group_space(2).len(), 10);
        assert_eq!(cumulative_group_space(3).len(), 22);
        assert_eq!(cumulative_group_space(4).len(), 26);
    }

    #[test]
    #[should_panic(expected = "1..=4")]
    fn zero_groups_panics() {
        let _ = cumulative_group_space(0);
    }

    #[test]
    fn hec_ids_match_table2_names() {
        use Event::*;
        let events = [
            (Ret, "ret"),
            (RetStlbMiss, "ret_stlb_miss"),
            (StlbHit, "stlb_hit"),
            (StlbHit4k, "stlb_hit_4k"),
            (StlbHit2m, "stlb_hit_2m"),
            (CausesWalk, "causes_walk"),
            (WalkDone, "walk_done"),
            (WalkDone4k, "walk_done_4k"),
            (WalkDone2m, "walk_done_2m"),
            (WalkDone1g, "walk_done_1g"),
            (PdeMiss, "pde$_miss"),
        ];
        // 22 distinct `T.event` names plus the 4 walk refs cover the table.
        for (t, prefix) in [(AccessType::Load, "load"), (AccessType::Store, "store")] {
            for (event, suffix) in events {
                let name = Hec::of(t, event).name();
                assert_eq!(name.split_once('.'), Some((prefix, suffix)));
            }
        }
        let refs = (1..=4).map(|level| Hec::walk_ref(level).name());
        assert!(refs.eq(["walk_ref.l1", "walk_ref.l2", "walk_ref.l3", "walk_ref.mem"]));
        let columns = Hec::columns(&full_counter_space());
        assert!(columns
            .iter()
            .enumerate()
            .all(|(i, c)| c.map(Hec::index) == Some(i)));
    }

    #[test]
    #[should_panic(expected = "1..=4")]
    fn walk_ref_level_zero_panics() {
        let _ = Hec::walk_ref(0);
    }

    #[test]
    fn access_type_display() {
        assert_eq!(AccessType::Load.to_string(), "load");
        assert_eq!(AccessType::Store.to_string(), "store");
        assert_eq!(AccessType::ALL.len(), 2);
    }

    #[test]
    fn counter_values_accumulate_and_project() {
        let load_ret = Hec::of(AccessType::Load, Event::Ret);
        let mut values = CounterValues::new();
        for hec in [load_ret, load_ret, Hec::walk_ref(1)] {
            values.increment(hec);
        }
        assert_eq!(values.get(load_ret), 2);
        assert_eq!(values.get(Hec::walk_ref(2)), 0);
        let space = CounterSpace::new(&["load.ret", "walk_ref.l1", "store.ret", "never.seen"]);
        assert_eq!(values.to_vector(&space), vec![2.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn delta_vector_subtracts_snapshots() {
        let mut earlier = CounterValues::new();
        earlier.increment(Hec::of(AccessType::Load, Event::Ret));
        let mut later = earlier;
        later.increment(Hec::of(AccessType::Store, Event::Ret));
        let columns = Hec::columns(&CounterSpace::new(&["load.ret", "store.ret"]));
        assert_eq!(later.delta_vector(&earlier, &columns), vec![0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "decreased")]
    fn delta_vector_rejects_decreasing_counters() {
        let mut earlier = CounterValues::new();
        earlier.increment(Hec::of(AccessType::Load, Event::Ret));
        let columns = Hec::columns(&CounterSpace::new(&["load.ret"]));
        let _ = CounterValues::new().delta_vector(&earlier, &columns);
    }
}
