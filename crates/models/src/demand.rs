//! μDD construction for demand (retiring) load and store μops.
//!
//! The demand μDD follows a μop from retirement bookkeeping through the TLB
//! hierarchy and, on an STLB miss, through the translation request pipeline whose
//! exact shape depends on which microarchitectural features the candidate model
//! includes (early PSC lookup, walk merging, walk bypassing, a PML4E cache).
//!
//! Walker memory references use the *reduced level representation*: a walk that
//! makes `k` references chooses a single cache level for all of them.  Because any
//! mixed-level reference pattern is a convex combination of the single-level
//! patterns with the same `k`, this representation generates exactly the same model
//! cone as enumerating every per-reference level combination, while keeping μpath
//! counts small.

use crate::features::{has, Feature};
use crate::prefetch::attach_prefetch_trigger;
use counterpoint_core::FeatureSet;
use counterpoint_haswell::hec::{AccessType, Event, Hec};
use counterpoint_haswell::mem::PageSize;
use counterpoint_mudd::{CounterSpace, MuDd, MuDdBuilder, NodeId};

/// Where an inline (retiring-μop-triggered) prefetch request may be attached to a
/// demand μop's paths — used by the prefetch-trigger model family (`t9`–`t17`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrefetchAttachPoint {
    /// Any retiring μop of the triggering type may issue a prefetch.
    Always,
    /// Only μops that missed the first-level TLB may issue a prefetch.
    AfterDtlbMiss,
    /// Only μops that missed the STLB may issue a prefetch.
    AfterStlbMiss,
}

/// Options controlling the shape of a demand μDD.
#[derive(Clone, Debug)]
pub struct DemandOptions {
    /// Which μop type the diagram describes.
    pub access: AccessType,
    /// Model features (early PSC, merging, PML4E cache, walk bypass are honoured
    /// here; TLB prefetching is handled by the caller via `inline_prefetch` or a
    /// stand-alone prefetch μDD).
    pub features: FeatureSet,
    /// Attach an inline prefetch trigger at the given point (Spec ✗ trigger
    /// models).
    pub inline_prefetch: Option<PrefetchAttachPoint>,
}

impl DemandOptions {
    /// Demand options with no inline prefetch.
    pub fn new(access: AccessType, features: &FeatureSet) -> DemandOptions {
        DemandOptions {
            access,
            features: features.clone(),
            inline_prefetch: None,
        }
    }
}

/// How far through the translation pipeline a μop got when one of its paths
/// terminates — used to decide whether an inline prefetch trigger applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Progress {
    L1Hit,
    StlbHit,
    StlbMiss,
}

struct Ctx<'a> {
    opts: &'a DemandOptions,
    early_psc: bool,
    merging: bool,
    pml4e: bool,
    bypass: bool,
    /// Monotonic counter used to generate unique decision-property names where
    /// independence between decisions is required.
    unique: usize,
}

impl Ctx<'_> {
    fn fresh(&mut self, prefix: &str) -> String {
        self.unique += 1;
        format!("{prefix}_{}", self.unique)
    }
}

/// Attaches an edge from `from` to `to`, labelled if `label` is provided.
fn connect(b: &mut MuDdBuilder, from: NodeId, label: Option<&str>, to: NodeId) {
    match label {
        Some(l) => b.causal_labeled(from, to, l),
        None => b.causal(from, to),
    }
}

/// Builds the demand μDD for one μop type over the given counter space.
///
/// # Panics
///
/// Panics if the counter space does not contain the Table 2 counters the diagram
/// increments (use [`counterpoint_haswell::full_counter_space`]).
pub fn demand_mudd(space: &CounterSpace, opts: &DemandOptions) -> MuDd {
    let t = opts.access;
    let mut ctx = Ctx {
        opts,
        early_psc: has(&opts.features, Feature::EarlyPsc),
        merging: has(&opts.features, Feature::Merging),
        pml4e: has(&opts.features, Feature::Pml4eCache),
        bypass: has(&opts.features, Feature::WalkBypass),
        unique: 0,
    };
    let mut b = MuDdBuilder::new(&format!("demand_{t}"), space);
    let start = b.start();
    let ret = b.counter(Hec::of(t, Event::Ret).name());
    b.causal(start, ret);
    let psize = b.decision("PageSize");
    b.causal(ret, psize);
    for size in PageSize::ALL {
        size_branch(&mut b, &mut ctx, psize, size);
    }
    b.build()
        .expect("demand μDD construction is structurally valid")
}

fn size_branch(b: &mut MuDdBuilder, ctx: &mut Ctx<'_>, from: NodeId, size: PageSize) {
    let t = ctx.opts.access;
    let label = match size {
        PageSize::Size4K => "4K",
        PageSize::Size2M => "2M",
        PageSize::Size1G => "1G",
    };
    let l1 = b.decision(&format!("L1Tlb{label}"));
    connect(b, from, Some(label), l1);

    // L1 TLB hit: nothing beyond retirement.
    terminate(b, ctx, l1, Some("Hit"), Progress::L1Hit);

    if size == PageSize::Size1G {
        // 1 GiB translations are not held in the STLB: an L1 miss goes straight to
        // the MMU.
        let miss = b.counter(Hec::of(t, Event::RetStlbMiss).name());
        connect(b, l1, Some("Miss"), miss);
        translation_request(b, ctx, miss, None, size);
        return;
    }

    let stlb = b.decision(&format!("Stlb{label}"));
    connect(b, l1, Some("Miss"), stlb);

    // STLB hit.
    let hit = b.counter(Hec::of(t, Event::StlbHit).name());
    connect(b, stlb, Some("Hit"), hit);
    let hit_size = match size {
        PageSize::Size4K => b.counter(Hec::of(t, Event::StlbHit4k).name()),
        _ => b.counter(Hec::of(t, Event::StlbHit2m).name()),
    };
    b.causal(hit, hit_size);
    terminate(b, ctx, hit_size, None, Progress::StlbHit);

    // STLB miss: the μop retires with a miss and sends a translation request.
    let miss = b.counter(Hec::of(t, Event::RetStlbMiss).name());
    connect(b, stlb, Some("Miss"), miss);
    translation_request(b, ctx, miss, None, size);
}

/// The translation-request pipeline after an STLB miss.
fn translation_request(
    b: &mut MuDdBuilder,
    ctx: &mut Ctx<'_>,
    from: NodeId,
    label: Option<&str>,
    size: PageSize,
) {
    if size == PageSize::Size4K && ctx.early_psc {
        // Early PSC lookup: the PDE cache is consulted before the merge decision.
        let pde = b.decision("Pde4K");
        connect(b, from, label, pde);
        after_pde(b, ctx, pde, Some("Hit"), size, Some(true));
        let miss = b.counter(Hec::of(ctx.opts.access, Event::PdeMiss).name());
        connect(b, pde, Some("Miss"), miss);
        after_pde(b, ctx, miss, None, size, Some(false));
    } else {
        after_pde(b, ctx, from, label, size, None);
    }
}

fn after_pde(
    b: &mut MuDdBuilder,
    ctx: &mut Ctx<'_>,
    from: NodeId,
    label: Option<&str>,
    size: PageSize,
    pde_hit: Option<bool>,
) {
    if ctx.merging {
        let merge = b.decision(&ctx.fresh("Merge"));
        connect(b, from, label, merge);
        // Merged: the outstanding walk provides the translation; no further
        // counters are incremented by this μop.
        terminate(b, ctx, merge, Some("Merged"), Progress::StlbMiss);
        walk_entry(b, ctx, merge, Some("NotMerged"), size, pde_hit);
    } else {
        walk_entry(b, ctx, from, label, size, pde_hit);
    }
}

fn walk_entry(
    b: &mut MuDdBuilder,
    ctx: &mut Ctx<'_>,
    from: NodeId,
    label: Option<&str>,
    size: PageSize,
    pde_hit: Option<bool>,
) {
    // Without early PSC lookup, the PDE cache is consulted only once the walk is
    // actually going to happen.
    if size == PageSize::Size4K && pde_hit.is_none() {
        let pde = b.decision("Pde4K");
        connect(b, from, label, pde);
        start_walk(b, ctx, pde, Some("Hit"), size, Some(true));
        let miss = b.counter(Hec::of(ctx.opts.access, Event::PdeMiss).name());
        connect(b, pde, Some("Miss"), miss);
        start_walk(b, ctx, miss, None, size, Some(false));
    } else {
        start_walk(b, ctx, from, label, size, pde_hit);
    }
}

fn start_walk(
    b: &mut MuDdBuilder,
    ctx: &mut Ctx<'_>,
    from: NodeId,
    label: Option<&str>,
    size: PageSize,
    pde_hit: Option<bool>,
) {
    let t = ctx.opts.access;
    let causes = b.counter(Hec::of(t, Event::CausesWalk).name());
    connect(b, from, label, causes);
    if ctx.bypass {
        let bypass = b.decision(&ctx.fresh("Bypass"));
        b.causal(causes, bypass);
        // Bypassed / replayed walk: completes without visible walker references.
        walk_done(b, ctx, bypass, Some("Bypassed"), size);
        refs_then_done(b, ctx, bypass, Some("Walked"), size, pde_hit);
    } else {
        refs_then_done(b, ctx, causes, None, size, pde_hit);
    }
}

fn refs_then_done(
    b: &mut MuDdBuilder,
    ctx: &mut Ctx<'_>,
    from: NodeId,
    label: Option<&str>,
    size: PageSize,
    pde_hit: Option<bool>,
) {
    match size {
        PageSize::Size4K => {
            if pde_hit == Some(true) {
                emit_refs(b, ctx, from, label, 1, size);
            } else {
                let pdpte = b.decision("Pdpte4K");
                connect(b, from, label, pdpte);
                emit_refs(b, ctx, pdpte, Some("Hit"), 2, size);
                upper_levels(b, ctx, pdpte, Some("Miss"), size, 3);
            }
        }
        PageSize::Size2M => {
            let pdpte = b.decision("Pdpte2M");
            connect(b, from, label, pdpte);
            emit_refs(b, ctx, pdpte, Some("Hit"), 1, size);
            upper_levels(b, ctx, pdpte, Some("Miss"), size, 2);
        }
        PageSize::Size1G => {
            upper_levels(b, ctx, from, label, size, 1);
        }
    }
}

/// Handles the PML4E-cache decision (or its absence) once the lower
/// paging-structure caches have missed; `refs_on_hit` is the number of walker
/// references needed when the root-level cache hits.
fn upper_levels(
    b: &mut MuDdBuilder,
    ctx: &mut Ctx<'_>,
    from: NodeId,
    label: Option<&str>,
    size: PageSize,
    refs_on_hit: u32,
) {
    if ctx.pml4e {
        let pml4e = b.decision(&format!("Pml4e{}", size.label()));
        connect(b, from, label, pml4e);
        emit_refs(b, ctx, pml4e, Some("Hit"), refs_on_hit, size);
        emit_refs(b, ctx, pml4e, Some("Miss"), refs_on_hit + 1, size);
    } else {
        emit_refs(b, ctx, from, label, refs_on_hit + 1, size);
    }
}

/// Emits `count` walker references (reduced level representation: one level choice
/// for all of them), then the walk-completion counters, then terminates the path.
///
/// The simulator classifies each reference on its own, so a walk may mix levels
/// (`walk_ref.l1 + walk_ref.mem`): no single μpath, but with `n_L` of its `count`
/// references at level `L` it is `Σ_L (n_L / count) · u_L`, a convex combination
/// of this diagram's uniform-level paths `u_L`, so it lies in the same cone.  The
/// simulator↔μDD invariant test compares walks with the `walk_ref.*` counters summed.
fn emit_refs(
    b: &mut MuDdBuilder,
    ctx: &mut Ctx<'_>,
    from: NodeId,
    label: Option<&str>,
    count: u32,
    size: PageSize,
) {
    let level_decision = b.decision(&ctx.fresh("RefLevel"));
    connect(b, from, label, level_decision);
    walk_ref_arms(b, level_decision, count, |b, tail| {
        walk_done(b, ctx, tail, None, size)
    });
}

/// Under `decision`, one arm per cache level (`L1`, `L2`, `L3`, `Mem`): a chain
/// of `count >= 1` walker-reference counters at that level (the reduced level
/// representation), continued by `then` from the chain's last counter.
pub(crate) fn walk_ref_arms(
    b: &mut MuDdBuilder,
    decision: NodeId,
    count: u32,
    mut then: impl FnMut(&mut MuDdBuilder, NodeId),
) {
    assert!(count >= 1, "a reference arm needs at least one reference");
    for (arm, level) in [("L1", 1), ("L2", 2), ("L3", 3), ("Mem", 4)] {
        let name = Hec::walk_ref(level).name();
        let first = b.counter(name);
        b.causal_labeled(decision, first, arm);
        let tail = (1..count).fold(first, |prev, _| {
            let next = b.counter(name);
            b.causal(prev, next);
            next
        });
        then(b, tail);
    }
}

/// Walk-completion counters followed by path termination.
fn walk_done(
    b: &mut MuDdBuilder,
    ctx: &mut Ctx<'_>,
    from: NodeId,
    label: Option<&str>,
    size: PageSize,
) {
    let t = ctx.opts.access;
    let done = b.counter(Hec::of(t, Event::WalkDone).name());
    connect(b, from, label, done);
    let done_size = match size {
        PageSize::Size4K => b.counter(Hec::of(t, Event::WalkDone4k).name()),
        PageSize::Size2M => b.counter(Hec::of(t, Event::WalkDone2m).name()),
        PageSize::Size1G => b.counter(Hec::of(t, Event::WalkDone1g).name()),
    };
    b.causal(done, done_size);
    terminate(b, ctx, done_size, None, Progress::StlbMiss);
}

/// Terminates a path, attaching an inline prefetch trigger if the model's trigger
/// condition applies to a μop that got this far.
fn terminate(
    b: &mut MuDdBuilder,
    ctx: &mut Ctx<'_>,
    from: NodeId,
    label: Option<&str>,
    progress: Progress,
) {
    let attach = match ctx.opts.inline_prefetch {
        None => false,
        Some(PrefetchAttachPoint::Always) => true,
        Some(PrefetchAttachPoint::AfterDtlbMiss) => progress != Progress::L1Hit,
        Some(PrefetchAttachPoint::AfterStlbMiss) => progress == Progress::StlbMiss,
    };
    if attach {
        attach_prefetch_trigger(b, from, label, ctx.early_psc, ctx.pml4e);
    } else {
        let end = b.end();
        connect(b, from, label, end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::to_feature_set;
    use counterpoint_haswell::full_counter_space;

    fn space() -> CounterSpace {
        full_counter_space()
    }

    fn all_features() -> FeatureSet {
        to_feature_set(&Feature::ALL)
    }

    fn no_features() -> FeatureSet {
        to_feature_set(&[])
    }

    fn sig_map(mudd: &MuDd) -> Vec<std::collections::BTreeMap<String, u32>> {
        let space = mudd.counters().clone();
        mudd.enumerate_paths()
            .unwrap()
            .iter()
            .map(|p| {
                (0..space.len())
                    .filter(|&i| p.signature().get(i) > 0)
                    .map(|i| (space.name(i).to_string(), p.signature().get(i)))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn full_featured_load_mudd_builds_and_enumerates() {
        let mudd = demand_mudd(
            &space(),
            &DemandOptions::new(AccessType::Load, &all_features()),
        );
        let paths = mudd.enumerate_paths().unwrap();
        assert!(
            paths.len() >= 40 && paths.len() <= 200,
            "unexpected path count {}",
            paths.len()
        );
        // Every path increments the retirement counter exactly once.
        let ret_idx = space().index_of("load.ret").unwrap();
        for p in &paths {
            assert_eq!(p.signature().get(ret_idx), 1);
        }
    }

    #[test]
    fn featureless_model_ties_misses_to_walks() {
        let mudd = demand_mudd(
            &space(),
            &DemandOptions::new(AccessType::Load, &no_features()),
        );
        let s = space();
        let miss = s.index_of("load.ret_stlb_miss").unwrap();
        let walk = s.index_of("load.walk_done").unwrap();
        let pde = s.index_of("load.pde$_miss").unwrap();
        let causes = s.index_of("load.causes_walk").unwrap();
        for p in mudd.enumerate_paths().unwrap() {
            // Without merging or bypassing, every retired miss completes a walk.
            assert_eq!(p.signature().get(miss), p.signature().get(walk));
            // Without early PSC lookup, a PDE miss implies a walk.
            assert!(p.signature().get(pde) <= p.signature().get(causes));
        }
    }

    #[test]
    fn merging_adds_paths_with_misses_but_no_walk() {
        let with = demand_mudd(
            &space(),
            &DemandOptions::new(AccessType::Load, &to_feature_set(&[Feature::Merging])),
        );
        let s = space();
        let miss = s.index_of("load.ret_stlb_miss").unwrap();
        let done = s.index_of("load.walk_done").unwrap();
        let merged_path_exists = with
            .enumerate_paths()
            .unwrap()
            .iter()
            .any(|p| p.signature().get(miss) == 1 && p.signature().get(done) == 0);
        assert!(merged_path_exists);
    }

    #[test]
    fn early_psc_adds_pde_miss_without_walk() {
        let with = demand_mudd(
            &space(),
            &DemandOptions::new(
                AccessType::Load,
                &to_feature_set(&[Feature::EarlyPsc, Feature::Merging]),
            ),
        );
        let s = space();
        let pde = s.index_of("load.pde$_miss").unwrap();
        let causes = s.index_of("load.causes_walk").unwrap();
        assert!(with
            .enumerate_paths()
            .unwrap()
            .iter()
            .any(|p| p.signature().get(pde) == 1 && p.signature().get(causes) == 0));
    }

    #[test]
    fn bypass_adds_walks_without_references() {
        let with = demand_mudd(
            &space(),
            &DemandOptions::new(AccessType::Load, &to_feature_set(&[Feature::WalkBypass])),
        );
        let s = space();
        let done = s.index_of("load.walk_done").unwrap();
        let refs: Vec<usize> = (1..=4).map(|l| Hec::walk_ref(l).index()).collect();
        assert!(with.enumerate_paths().unwrap().iter().any(|p| {
            p.signature().get(done) == 1 && refs.iter().all(|&r| p.signature().get(r) == 0)
        }));
    }

    #[test]
    fn pml4e_cache_allows_single_reference_1g_walks() {
        let s = space();
        let count_min_1g_refs = |features: &FeatureSet| {
            let mudd = demand_mudd(&s, &DemandOptions::new(AccessType::Load, features));
            let done_1g = s.index_of("load.walk_done_1g").unwrap();
            let refs: Vec<usize> = (1..=4).map(|l| Hec::walk_ref(l).index()).collect();
            mudd.enumerate_paths()
                .unwrap()
                .iter()
                .filter(|p| p.signature().get(done_1g) == 1)
                .map(|p| refs.iter().map(|&r| p.signature().get(r)).sum::<u32>())
                .min()
                .unwrap()
        };
        assert_eq!(
            count_min_1g_refs(&to_feature_set(&[Feature::Pml4eCache])),
            1
        );
        assert_eq!(count_min_1g_refs(&to_feature_set(&[])), 2);
    }

    #[test]
    fn store_mudd_uses_store_counters() {
        let mudd = demand_mudd(
            &space(),
            &DemandOptions::new(AccessType::Store, &all_features()),
        );
        let s = space();
        let load_ret = s.index_of("load.ret").unwrap();
        let store_ret = s.index_of("store.ret").unwrap();
        for p in mudd.enumerate_paths().unwrap() {
            assert_eq!(p.signature().get(load_ret), 0);
            assert_eq!(p.signature().get(store_ret), 1);
        }
    }

    #[test]
    fn stlb_hit_equality_holds_on_every_path() {
        let mudd = demand_mudd(
            &space(),
            &DemandOptions::new(AccessType::Load, &all_features()),
        );
        let s = space();
        let hit = s.index_of("load.stlb_hit").unwrap();
        let hit4k = s.index_of("load.stlb_hit_4k").unwrap();
        let hit2m = s.index_of("load.stlb_hit_2m").unwrap();
        for p in mudd.enumerate_paths().unwrap() {
            assert_eq!(
                p.signature().get(hit),
                p.signature().get(hit4k) + p.signature().get(hit2m)
            );
        }
    }

    #[test]
    fn inline_prefetch_multiplies_paths_and_adds_prefetch_signatures() {
        let base = demand_mudd(
            &space(),
            &DemandOptions::new(AccessType::Load, &all_features()),
        );
        let mut opts = DemandOptions::new(AccessType::Load, &all_features());
        opts.inline_prefetch = Some(PrefetchAttachPoint::Always);
        let inlined = demand_mudd(&space(), &opts);
        assert!(inlined.num_paths().unwrap() > base.num_paths().unwrap());
        // There must now be a path where an L1-TLB-hitting load carries a prefetch
        // walk (ret=1 plus causes_walk=1 without a retired STLB miss).
        let s = space();
        let ret = s.index_of("load.ret").unwrap();
        let miss = s.index_of("load.ret_stlb_miss").unwrap();
        let causes = s.index_of("load.causes_walk").unwrap();
        assert!(inlined.enumerate_paths().unwrap().iter().any(|p| {
            p.signature().get(ret) == 1
                && p.signature().get(miss) == 0
                && p.signature().get(causes) == 1
        }));
    }

    #[test]
    fn stlb_miss_attach_point_requires_a_miss() {
        let mut opts = DemandOptions::new(AccessType::Load, &all_features());
        opts.inline_prefetch = Some(PrefetchAttachPoint::AfterStlbMiss);
        let mudd = demand_mudd(&space(), &opts);
        let s = space();
        let miss = s.index_of("load.ret_stlb_miss").unwrap();
        let causes = s.index_of("load.causes_walk").unwrap();
        // No path may have a prefetch walk without also having a retired STLB miss.
        for p in mudd.enumerate_paths().unwrap() {
            if p.signature().get(causes) > 0 {
                assert!(p.signature().get(miss) > 0);
            }
        }
    }

    #[test]
    fn signatures_are_within_expected_bounds() {
        // Sanity check across every path of the feature-complete model: no counter
        // is incremented more than 5 times by a single μop.
        for sig in sig_map(&demand_mudd(
            &space(),
            &DemandOptions::new(AccessType::Load, &all_features()),
        )) {
            for (name, count) in sig {
                assert!(count <= 5, "{name} incremented {count} times on one path");
            }
        }
    }
}
