//! μDD construction for TLB-prefetch translation requests.
//!
//! The paper discovers a load–store-queue-side TLB prefetcher whose requests are
//! resolved by the page-table walker like demand walks (injecting "stuffed" loads),
//! and which abort when the target page's accessed bit is unset.  In the model
//! family the prefetcher appears in two forms:
//!
//! * a **stand-alone prefetch μop type** (the abstract "prefetch translation
//!   request" of the initial search, and of the `Spec ✓` trigger models), and
//! * an **inline trigger** attached to retiring load/store μop paths (the `Spec ✗`
//!   trigger models `t9`–`t17`), at a point determined by the model's trigger
//!   condition.
//!
//! Prefetch-induced activity always increments the `load.*` walk counters: the
//! walker resolves prefetches by injecting load μops regardless of which μop
//! triggered the prefetch.

use crate::demand::walk_ref_arms;
use counterpoint_haswell::hec::{AccessType, Event, Hec};
use counterpoint_mudd::{CounterSpace, MuDd, MuDdBuilder, NodeId};
use serde::Serialize;

/// The trigger-condition columns of the paper's Tables 5 and 6.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct TriggerSpec {
    /// Prefetches can be triggered by purely speculative μops (versus only retiring
    /// ones).  When set, the model includes a stand-alone prefetch μop type.
    pub speculative: bool,
    /// Load μops can trigger prefetches.
    pub load: bool,
    /// Store μops can trigger prefetches.
    pub store: bool,
    /// A demand L1 TLB miss is required for the prefetcher to inject a walk.
    pub dtlb_miss: bool,
    /// A demand STLB miss is required for the prefetcher to inject a walk.
    pub stlb_miss: bool,
}

impl TriggerSpec {
    /// The representative model `t0`: speculative load-triggered prefetching with
    /// no miss requirement.
    pub fn t0() -> TriggerSpec {
        TriggerSpec {
            speculative: true,
            load: true,
            store: false,
            dtlb_miss: false,
            stlb_miss: false,
        }
    }
}

fn connect(b: &mut MuDdBuilder, from: NodeId, label: Option<&str>, to: NodeId) {
    match label {
        Some(l) => b.causal_labeled(from, to, l),
        None => b.causal(from, to),
    }
}

/// Builds the stand-alone prefetch-request μDD (one path family per outcome:
/// dropped/aborted vs. resolved by a walk).
pub fn standalone_prefetch_mudd(space: &CounterSpace, early_psc: bool, pml4e: bool) -> MuDd {
    let mut b = MuDdBuilder::new("prefetch", space);
    let start = b.start();
    build_prefetch_request(&mut b, start, None, early_psc, pml4e);
    b.build()
        .expect("prefetch μDD construction is structurally valid")
}

/// Attaches a prefetch *trigger* (a decision whether this retiring μop issues a
/// prefetch, followed by the prefetch-request subgraph) at a path termination
/// point.  Used by the inline (Spec ✗) trigger models.
pub(crate) fn attach_prefetch_trigger(
    b: &mut MuDdBuilder,
    from: NodeId,
    label: Option<&str>,
    early_psc: bool,
    pml4e: bool,
) {
    let trigger = b.decision("PfTrigger");
    connect(b, from, label, trigger);
    let end = b.end();
    b.causal_labeled(trigger, end, "No");
    build_prefetch_request(b, trigger, Some("Yes"), early_psc, pml4e);
}

/// The prefetch-request pipeline: optional early PDE-cache lookup, a drop/abort
/// outcome (merged into an outstanding walk, or aborted on an unset accessed bit),
/// or a full prefetch-induced walk.
fn build_prefetch_request(
    b: &mut MuDdBuilder,
    from: NodeId,
    label: Option<&str>,
    early_psc: bool,
    pml4e: bool,
) {
    if early_psc {
        let pde = b.decision("PfPde");
        connect(b, from, label, pde);
        prefetch_outcome(b, pde, Some("Hit"), Some(true), pml4e);
        let miss = b.counter(Hec::of(AccessType::Load, Event::PdeMiss).name());
        b.causal_labeled(pde, miss, "Miss");
        prefetch_outcome(b, miss, None, Some(false), pml4e);
    } else {
        prefetch_outcome(b, from, label, None, pml4e);
    }
}

fn prefetch_outcome(
    b: &mut MuDdBuilder,
    from: NodeId,
    label: Option<&str>,
    pde_hit: Option<bool>,
    pml4e: bool,
) {
    let outcome = b.decision("PfOutcome");
    connect(b, from, label, outcome);
    // Dropped: merged into an outstanding walk, or aborted because the target
    // page's accessed bit is unset.
    let end = b.end();
    b.causal_labeled(outcome, end, "Dropped");
    // Resolved by a walk.
    match pde_hit {
        Some(hit) => prefetch_walk(b, outcome, Some("Walk"), hit, pml4e),
        None => {
            // The PDE cache is consulted when the walk starts (non-early-PSC
            // models).
            let pde = b.decision("PfPde");
            b.causal_labeled(outcome, pde, "Walk");
            prefetch_walk(b, pde, Some("Hit"), true, pml4e);
            let miss = b.counter(Hec::of(AccessType::Load, Event::PdeMiss).name());
            b.causal_labeled(pde, miss, "Miss");
            prefetch_walk(b, miss, None, false, pml4e);
        }
    }
}

fn prefetch_walk(
    b: &mut MuDdBuilder,
    from: NodeId,
    label: Option<&str>,
    pde_hit: bool,
    pml4e: bool,
) {
    let causes = b.counter(Hec::of(AccessType::Load, Event::CausesWalk).name());
    connect(b, from, label, causes);
    if pde_hit {
        emit_prefetch_refs(b, causes, None, 1);
    } else {
        let pdpte = b.decision("PfPdpte");
        b.causal(causes, pdpte);
        emit_prefetch_refs(b, pdpte, Some("Hit"), 2);
        if pml4e {
            let pml4e_dec = b.decision("PfPml4e");
            b.causal_labeled(pdpte, pml4e_dec, "Miss");
            emit_prefetch_refs(b, pml4e_dec, Some("Hit"), 3);
            emit_prefetch_refs(b, pml4e_dec, Some("Miss"), 4);
        } else {
            emit_prefetch_refs(b, pdpte, Some("Miss"), 4);
        }
    }
}

fn emit_prefetch_refs(b: &mut MuDdBuilder, from: NodeId, label: Option<&str>, count: u32) {
    let level = b.decision(&format!("PfRefLevel{count}"));
    connect(b, from, label, level);
    walk_ref_arms(b, level, count, |b, tail| {
        let done = b.counter(Hec::of(AccessType::Load, Event::WalkDone).name());
        b.causal(tail, done);
        let done_4k = b.counter(Hec::of(AccessType::Load, Event::WalkDone4k).name());
        b.causal(done, done_4k);
        let end = b.end();
        b.causal(done_4k, end);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use counterpoint_haswell::full_counter_space;

    #[test]
    fn standalone_prefetch_paths_cover_drop_and_walk() {
        let space = full_counter_space();
        let mudd = standalone_prefetch_mudd(&space, true, true);
        let paths = mudd.enumerate_paths().unwrap();
        assert!(paths.len() >= 10);
        let causes = space.index_of("load.causes_walk").unwrap();
        let pde = space.index_of("load.pde$_miss").unwrap();
        let done = space.index_of("load.walk_done_4k").unwrap();
        // Dropped after a PDE miss: pde$_miss without causes_walk.
        assert!(paths
            .iter()
            .any(|p| p.signature().get(pde) == 1 && p.signature().get(causes) == 0));
        // Fully-dropped path: no counters at all.
        assert!(paths.iter().any(|p| p.signature().is_zero()));
        // Resolved prefetch: walk completes as a 4K walk.
        assert!(paths
            .iter()
            .any(|p| p.signature().get(causes) == 1 && p.signature().get(done) == 1));
        // Prefetches never touch retirement or store counters.
        let ret = space.index_of("load.ret").unwrap();
        let sret = space.index_of("store.ret").unwrap();
        for p in &paths {
            assert_eq!(p.signature().get(ret), 0);
            assert_eq!(p.signature().get(sret), 0);
        }
    }

    #[test]
    fn non_early_psc_prefetch_ties_pde_miss_to_walks() {
        let space = full_counter_space();
        let mudd = standalone_prefetch_mudd(&space, false, true);
        let pde = space.index_of("load.pde$_miss").unwrap();
        let causes = space.index_of("load.causes_walk").unwrap();
        for p in mudd.enumerate_paths().unwrap() {
            assert!(p.signature().get(pde) <= p.signature().get(causes));
        }
    }

    #[test]
    fn prefetch_without_pml4e_needs_at_least_two_refs_on_psc_miss() {
        let space = full_counter_space();
        let mudd = standalone_prefetch_mudd(&space, true, false);
        let refs: Vec<usize> = (1..=4).map(|l| Hec::walk_ref(l).index()).collect();
        let pde = space.index_of("load.pde$_miss").unwrap();
        let done = space.index_of("load.walk_done").unwrap();
        for p in mudd.enumerate_paths().unwrap() {
            if p.signature().get(pde) == 1 && p.signature().get(done) == 1 {
                let total: u32 = refs.iter().map(|&r| p.signature().get(r)).sum();
                assert!(total >= 2);
            }
        }
    }

    #[test]
    fn trigger_spec_t0_is_speculative_load_triggered() {
        let t0 = TriggerSpec::t0();
        assert!(t0.speculative && t0.load);
        assert!(!t0.store && !t0.dtlb_miss && !t0.stlb_miss);
    }
}
