//! Batched vs. per-observation feasibility on the Table 3 campaign.
//!
//! This is the benchmark behind the CI perf-regression gate
//! (`ci/bench_gate.sh`): the `checker_*` and `per_observation_*_exact`
//! entries run one cold LP per observation through [`FeasibilityChecker`],
//! the `batched_*` entries run the warm-started [`BatchFeasibility`] engine on
//! the same data, and the `_exact` variants use point observations (shared
//! coordinate axes), where the (cone, axes) coefficient cache and bounds-only
//! warm restarts pay off most.

use counterpoint::{check_models, BatchFeasibility, FeasibilityChecker, ModelCone, Observation};
use counterpoint_bench::{experiment_observations, table3_model};
use criterion::{criterion_group, criterion_main, Criterion};

/// The per-observation reference: one cold LP per observation through the
/// checker (the same dual-simplex core the batched engine warm-starts).
fn count_infeasible_per_observation(
    checker: &FeasibilityChecker<'_>,
    observations: &[Observation],
) -> usize {
    observations
        .iter()
        .filter(|o| !checker.is_feasible(o))
        .count()
}

fn bench_batch_feasibility(c: &mut Criterion) {
    // A scaled-down Table 3 campaign: the full workload suite over all three
    // page sizes with the default noisy PMU, so every observation carries its
    // own correlated confidence region (distinct principal axes), exactly like
    // the experiment binary's table3 run.
    let observations = experiment_observations(6_000);
    // Point observations at the campaign means: all share the coordinate axes.
    let exact: Vec<Observation> = observations
        .iter()
        .map(|o| Observation::exact(o.name(), o.mean()))
        .collect();

    let mut group = c.benchmark_group("batch_feasibility");
    for name in ["m0", "m4"] {
        let cone = table3_model(name);
        let checker = FeasibilityChecker::new(&cone);
        // Sanity: both paths must agree before we time them.
        let mut batch = BatchFeasibility::new(&cone);
        assert_eq!(
            batch.count_infeasible(&observations),
            count_infeasible_per_observation(&checker, &observations),
            "batched and per-observation verdicts diverged on {name}"
        );

        group.bench_function(format!("checker_{name}"), |b| {
            b.iter(|| count_infeasible_per_observation(&checker, &observations))
        });
        group.bench_function(format!("batched_{name}"), |b| {
            b.iter(|| BatchFeasibility::new(&cone).count_infeasible(&observations))
        });
        group.bench_function(format!("per_observation_{name}_exact"), |b| {
            b.iter(|| count_infeasible_per_observation(&checker, &exact))
        });
        group.bench_function(format!("batched_{name}_exact"), |b| {
            b.iter(|| BatchFeasibility::new(&cone).count_infeasible(&exact))
        });
    }

    // The full Table 3 campaign: the whole m0–m11 model family against the
    // observation set, exactly what the experiments binary's `table3` run
    // evaluates.  The batched run uses the campaign fan-out (`check_models`)
    // at one worker so the number is comparable across hosts with any core
    // count (extra workers only help further).
    let family: Vec<ModelCone> = (0..12).map(|i| table3_model(&format!("m{i}"))).collect();
    let family_refs: Vec<&ModelCone> = family.iter().collect();
    group.bench_function("table3_family_batched", |b| {
        b.iter(|| check_models(&family_refs, &observations, 1))
    });
    // The family sweep on point observations — the workload shape of the
    // exact-observation lattice search, decided one observation at a time
    // with no cross-observation state: a fresh engine per observation, so
    // every verdict is one cold solve (plus a second cold solve only on thin
    // margins).  This is the entry the bench gate watches for the solver
    // core.
    group.bench_function("table3_family_per_observation_exact", |b| {
        b.iter(|| {
            family
                .iter()
                .map(|cone| {
                    exact
                        .iter()
                        .filter(|o| !BatchFeasibility::new(cone).is_feasible(o))
                        .count()
                })
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_batch_feasibility);
criterion_main!(benches);
