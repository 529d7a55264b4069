//! μDDs for aborted translation requests (the paper's Table 7 analysis).
//!
//! Section C.3 of the paper asks whether translation-request *aborts* — at any of
//! four points in the MMU pipeline — could explain the "missing" walker memory
//! accesses instead of walk bypassing.  An aborted request never completes a walk,
//! so its μpaths carry partial counter signatures (possibly a PDE-cache miss and a
//! walk start with some references) but never `walk_done`.  Because the simulated
//! ground truth contains walks that *do* complete without references, every
//! abort-only model is refuted — matching the paper's finding that aborts alone are
//! insufficient.

use crate::demand::walk_ref_arms;
use counterpoint_haswell::hec::{AccessType, Event, Hec};
use counterpoint_mudd::{CounterSpace, MuDd, MuDdBuilder, NodeId};
use serde::Serialize;

/// Where a speculative translation request may abort (paper, Table 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum AbortPoint {
    /// During the page-table walk itself (after some walker references).
    DuringWalk,
    /// After the paging-structure-cache lookup but before the walk starts.
    AfterPsc,
    /// After the L2 TLB (STLB) lookup.
    AfterL2Tlb,
    /// After the L1 TLB lookup.
    AfterL1Tlb,
}

impl AbortPoint {
    /// All abort points, in the order of Table 7's columns.
    pub const ALL: [AbortPoint; 4] = [
        AbortPoint::DuringWalk,
        AbortPoint::AfterPsc,
        AbortPoint::AfterL2Tlb,
        AbortPoint::AfterL1Tlb,
    ];

    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            AbortPoint::DuringWalk => "during_walk",
            AbortPoint::AfterPsc => "after_psc",
            AbortPoint::AfterL2Tlb => "after_l2tlb",
            AbortPoint::AfterL1Tlb => "after_l1tlb",
        }
    }
}

/// Builds the μDD of a speculative translation request that aborts at one of the
/// enabled points.  Returns `None` when no abort point is enabled.
pub fn abort_request_mudd(space: &CounterSpace, points: &[AbortPoint]) -> Option<MuDd> {
    if points.is_empty() {
        return None;
    }
    let mut b = MuDdBuilder::new("aborted_request", space);
    let start = b.start();
    let which = b.decision("AbortPoint");
    b.causal(start, which);
    for point in points {
        match point {
            AbortPoint::AfterL1Tlb | AbortPoint::AfterL2Tlb => {
                // Nothing architectural has been counted yet.
                let end = b.end();
                b.causal_labeled(which, end, point.label());
            }
            AbortPoint::AfterPsc => {
                let pde = b.decision("AbPdeEarly");
                b.causal_labeled(which, pde, point.label());
                let end_hit = b.end();
                b.causal_labeled(pde, end_hit, "Hit");
                let miss = b.counter(Hec::of(AccessType::Load, Event::PdeMiss).name());
                b.causal_labeled(pde, miss, "Miss");
                let end_miss = b.end();
                b.causal(miss, end_miss);
            }
            AbortPoint::DuringWalk => {
                let pde = b.decision("AbPdeWalk");
                b.causal_labeled(which, pde, point.label());
                // Either PDE status is possible before the walk starts.
                let causes_hit = b.counter(Hec::of(AccessType::Load, Event::CausesWalk).name());
                b.causal_labeled(pde, causes_hit, "Hit");
                partial_refs(&mut b, causes_hit, "hit");
                let miss = b.counter(Hec::of(AccessType::Load, Event::PdeMiss).name());
                b.causal_labeled(pde, miss, "Miss");
                let causes_miss = b.counter(Hec::of(AccessType::Load, Event::CausesWalk).name());
                b.causal(miss, causes_miss);
                partial_refs(&mut b, causes_miss, "miss");
            }
        }
    }
    Some(
        b.build()
            .expect("abort μDD construction is structurally valid"),
    )
}

/// An aborted walk makes 0–3 walker references (at a single level, reduced
/// representation) and never completes.
fn partial_refs(b: &mut MuDdBuilder, from: NodeId, tag: &str) {
    let count = b.decision(&format!("AbRefCount_{tag}"));
    b.causal(from, count);
    let end = b.end();
    b.causal_labeled(count, end, "R0");
    for k in 1..=3u32 {
        let level = b.decision(&format!("AbRefLevel_{tag}_{k}"));
        b.causal_labeled(count, level, &format!("R{k}"));
        walk_ref_arms(b, level, k, |b, tail| {
            let end = b.end();
            b.causal(tail, end);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use counterpoint_haswell::full_counter_space;

    #[test]
    fn empty_point_list_builds_nothing() {
        assert!(abort_request_mudd(&full_counter_space(), &[]).is_none());
    }

    #[test]
    fn aborted_requests_never_complete_a_walk() {
        let space = full_counter_space();
        let mudd = abort_request_mudd(&space, &AbortPoint::ALL).unwrap();
        let done = space.index_of("load.walk_done").unwrap();
        let done_4k = space.index_of("load.walk_done_4k").unwrap();
        for p in mudd.enumerate_paths().unwrap() {
            assert_eq!(p.signature().get(done), 0);
            assert_eq!(p.signature().get(done_4k), 0);
        }
    }

    #[test]
    fn during_walk_aborts_can_leave_partial_references() {
        let space = full_counter_space();
        let mudd = abort_request_mudd(&space, &[AbortPoint::DuringWalk]).unwrap();
        let causes = space.index_of("load.causes_walk").unwrap();
        let refs: Vec<usize> = (1..=4).map(|l| Hec::walk_ref(l).index()).collect();
        let paths = mudd.enumerate_paths().unwrap();
        // Walk started with zero references.
        assert!(paths.iter().any(|p| {
            p.signature().get(causes) == 1 && refs.iter().all(|&r| p.signature().get(r) == 0)
        }));
        // Walk started with some references.
        assert!(paths.iter().any(|p| {
            p.signature().get(causes) == 1
                && refs.iter().map(|&r| p.signature().get(r)).sum::<u32>() == 3
        }));
    }

    #[test]
    fn early_abort_points_add_low_information_paths() {
        let space = full_counter_space();
        let mudd = abort_request_mudd(
            &space,
            &[
                AbortPoint::AfterL1Tlb,
                AbortPoint::AfterL2Tlb,
                AbortPoint::AfterPsc,
            ],
        )
        .unwrap();
        let paths = mudd.enumerate_paths().unwrap();
        assert!(paths.iter().any(|p| p.signature().is_zero()));
        let pde = space.index_of("load.pde$_miss").unwrap();
        assert!(paths
            .iter()
            .any(|p| p.signature().get(pde) == 1 && p.signature().total() == 1));
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::BTreeSet<&str> =
            AbortPoint::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
