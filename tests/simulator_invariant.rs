//! Simulator ↔ μDD invariant: every access the functional Haswell MMU
//! simulates increments the counters of one μpath of the model the simulator
//! is meant to obey — `m4` for the full-featured configurations, `m0` for the
//! conventional one — or of one demand μpath plus one stand-alone prefetch
//! μpath when the access also triggered a TLB prefetch.
//!
//! The check diffs the typed [`CounterValues`] around each `access()`.  Walker
//! references are compared as one total: the μDDs use the reduced level
//! representation (one cache level for all references of a walk, see
//! `counterpoint_models::demand`), while the simulator classifies each
//! reference on its own, so a mixed walk such as `walk_ref.l1 + walk_ref.mem`
//! is no single μpath — it lies in the model cone as a convex combination of
//! uniform-level paths with the same reference count, which is what summing
//! the four `walk_ref.*` counters checks.

use counterpoint::haswell::full_counter_space;
use counterpoint::haswell::hec::{AccessType, CounterValues, Hec, HEC_NAMES};
use counterpoint::haswell::mem::PageSize;
use counterpoint::haswell::mmu::{HaswellMmu, MmuConfig};
use counterpoint::models::demand::{demand_mudd, DemandOptions};
use counterpoint::models::family::feature_sets_table3;
use counterpoint::models::features::{has, Feature};
use counterpoint::models::prefetch::standalone_prefetch_mudd;
use counterpoint::mudd::MuDd;
use counterpoint::workloads::standard_suite;
use std::collections::HashSet;

/// Accesses per workload before its `access_scale` multiplier.
const ACCESSES_PER_WORKLOAD: usize = 4_000;

/// A counter vector over the full space with the four `walk_ref.*` entries
/// summed into the `walk_ref.l1` slot.
type Folded = Vec<u64>;

fn fold_refs(mut counts: Vec<u64>) -> Folded {
    let refs: Vec<usize> = (1..=4).map(|level| Hec::walk_ref(level).index()).collect();
    let total = refs.iter().map(|&i| counts[i]).sum();
    for &i in &refs {
        counts[i] = 0;
    }
    counts[refs[0]] = total;
    counts
}

fn folded_paths(mudd: &MuDd) -> HashSet<Folded> {
    mudd.enumerate_paths()
        .unwrap()
        .iter()
        .map(|p| fold_refs(p.signature().counts().iter().map(|&c| c.into()).collect()))
        .collect()
}

/// The folded μpath signatures of a Table 3 model: demand paths (loads and
/// stores) and stand-alone prefetch paths (empty without `TlbPrefetch`).
fn model_paths(name: &str) -> (HashSet<Folded>, HashSet<Folded>) {
    let (_, features) = feature_sets_table3()
        .into_iter()
        .find(|(n, _)| n == name)
        .unwrap();
    let space = full_counter_space();
    let mut demand = HashSet::new();
    for t in AccessType::ALL {
        demand.extend(folded_paths(&demand_mudd(
            &space,
            &DemandOptions::new(t, &features),
        )));
    }
    let mut prefetch = HashSet::new();
    if has(&features, Feature::TlbPrefetch) {
        let (early_psc, pml4e) = (
            has(&features, Feature::EarlyPsc),
            has(&features, Feature::Pml4eCache),
        );
        prefetch = folded_paths(&standalone_prefetch_mudd(&space, early_psc, pml4e));
    }
    (demand, prefetch)
}

/// What a configuration's sweep saw.
#[derive(Default)]
struct Tally {
    accesses: usize,
    prefetch_walks: u64,
    /// Accesses explained only as a demand path plus a prefetch path.
    pairs: usize,
    violations: usize,
    /// The first few violations, rendered.
    examples: Vec<String>,
}

fn sweep(config: &MmuConfig, model: &str) -> Tally {
    let (demand, prefetch) = model_paths(model);
    let columns = Hec::columns(&full_counter_space());
    let mut tally = Tally::default();
    for size in PageSize::ALL {
        for entry in standard_suite() {
            let accesses = entry
                .workload
                .generate(ACCESSES_PER_WORKLOAD * entry.access_scale);
            let mut mmu = HaswellMmu::new(config.clone());
            for (i, access) in accesses.iter().enumerate() {
                let before: CounterValues = *mmu.counts();
                mmu.access(access, size);
                let delta: Vec<u64> = mmu
                    .counts()
                    .delta_vector(&before, &columns)
                    .into_iter()
                    .map(|v| v as u64)
                    .collect();
                let delta = fold_refs(delta);
                if demand.contains(&delta) {
                    continue;
                }
                let paired = prefetch.iter().any(|p| {
                    let rest: Option<Folded> = delta
                        .iter()
                        .zip(p)
                        .map(|(d, q)| d.checked_sub(*q))
                        .collect();
                    rest.is_some_and(|rest| demand.contains(&rest))
                });
                if paired {
                    tally.pairs += 1;
                    continue;
                }
                tally.violations += 1;
                if tally.examples.len() < 5 {
                    let counters: Vec<String> = delta
                        .iter()
                        .zip(HEC_NAMES)
                        .filter(|(&count, _)| count > 0)
                        .map(|(count, name)| format!("{name}={count}"))
                        .collect();
                    let label = &entry.label;
                    tally
                        .examples
                        .push(format!("{label}@{size} access {i}: {counters:?}"));
                }
            }
            tally.accesses += accesses.len();
            tally.prefetch_walks += mmu.prefetch_walks();
        }
    }
    tally
}

#[test]
fn every_simulated_access_is_one_mudd_path_of_its_model() {
    let mut pairs = 0;
    for (config, name) in [
        (MmuConfig::haswell(), "haswell"),
        (MmuConfig::haswell_tiny(), "haswell_tiny"),
    ] {
        let tally = sweep(&config, "m4");
        assert!(tally.accesses > 0);
        assert_eq!(
            tally.violations, 0,
            "{name} vs m4: accesses outside every μpath, first: {:#?}",
            tally.examples
        );
        assert!(tally.prefetch_walks > 0, "{name}: no prefetch walks");
        pairs += tally.pairs;
    }
    assert!(pairs > 0, "no access exercised the demand + prefetch case");
}

#[test]
fn conventional_simulator_obeys_the_initial_model() {
    let tally = sweep(&MmuConfig::conventional(), "m0");
    assert!(tally.accesses > 0);
    assert_eq!(tally.prefetch_walks, 0);
    assert_eq!(tally.pairs, 0);
    assert_eq!(
        tally.violations, 0,
        "conventional vs m0: accesses outside every μpath, first: {:#?}",
        tally.examples
    );
}
