//! The traced run: the pipeline called layer by layer, through each layer's
//! public entry point and in the order `Inquiry::run` calls them, with every
//! call timed and `telemetry::Recording` on.
//!
//! The pieced-together observations and verdicts are checked against the
//! untraced pass (see `contract`), so the split measures the real pipeline.

use crate::contract::{Contract, Enumeration};
use crate::workload::{enum_options, refine_generator, universe, Inputs, Kind};
use counterpoint::collect::{CampaignCell, EventSchedule, IntervalSamples, Trace, TraceRecord};
use counterpoint::core::{check_models_verdicts, CertificatePool, LatticeSearch, ModelCone};
use counterpoint::haswell::full_counter_space;
use counterpoint::haswell::mmu::{HaswellMmu, MmuConfig};
use counterpoint::haswell::pmu::{ground_truth_intervals, MultiplexingPmu, PmuConfig};
use counterpoint::models::enumo::{self, ModelGrammar};
use counterpoint::telemetry::{Metric, Recording, TelemetryReport};
use counterpoint::{FeatureSet, Observation};
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer metrics of the traced run: name and unit, in report order.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("workloads.generate_s", "s"),
    ("workloads.accesses", "count"),
    ("haswell.simulate_s", "s"),
    ("haswell.sim_ns_per_access", "ns"),
    ("haswell.walks_per_kaccess", "1/kaccess"),
    ("haswell.merged_walks", "count"),
    ("haswell.prefetch_walks", "count"),
    ("haswell.aborted_prefetches", "count"),
    ("haswell.replayed_walks", "count"),
    ("haswell.pmu_sample_s", "s"),
    ("collect.schedule_s", "s"),
    ("collect.schedule_rounds", "count"),
    ("collect.oversubscribed_events", "count"),
    ("stats.region_s", "s"),
    ("collect.trace_record_s", "s"),
    ("collect.trace_parse_s", "s"),
    ("collect.replay_s", "s"),
    ("models.cone_build_s", "s"),
    ("models.enumerate_s", "s"),
    ("models.raw_candidates", "count"),
    ("models.canonical_candidates", "count"),
    ("models.members", "count"),
    ("models.groups", "count"),
    ("models.path_limit_skips", "count"),
    ("core.evaluate_s", "s"),
    ("core.refine_s", "s"),
    ("core.group_search_s", "s"),
    ("core.group_search_max_s", "s"),
    ("core.lattice_models", "count"),
    ("core.certificate_prunes", "count"),
    ("core.witness_ray_settlements", "count"),
    ("core.prune_share", "ratio"),
    ("core.coefficient_cache_hit_ratio", "ratio"),
    ("core.warm_basis_handoff_hit_ratio", "ratio"),
    ("core.frontier_batches", "count"),
    ("core.mean_frontier_batch", "count"),
    ("core.cross_family_certificate_hits", "count"),
    ("core.cold_solver_fallbacks", "count"),
    ("lp.solves", "count"),
    ("lp.pivots_per_solve", "count"),
    ("lp.tier2_escalations", "count"),
    ("lp.exact_recertifications", "count"),
    ("lp.inconclusive_verdicts", "count"),
    ("session.report_json_s", "s"),
    ("session.unattributed_share", "ratio"),
    ("telemetry.overhead_share", "ratio"),
];

/// Metric values of one traced pass (or of the traced set-up), by name.
/// A layer the workload never calls is absent and reported as 0.
pub type Layers = BTreeMap<&'static str, f64>;

fn add(layers: &mut Layers, name: &'static str, value: f64) {
    *layers.entry(name).or_insert(0.0) += value;
}

/// Times `f` and adds its wall time to `name`.
fn timed<T>(layers: &mut Layers, name: &'static str, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    add(layers, name, started.elapsed().as_secs_f64());
    out
}

/// Collects `campaign` on the simulator one cell at a time, in the order
/// `Campaign::run` with a `SimBackend` does (schedule, generate, simulate,
/// sample, summarise).  With `records`, each cell's samples are also kept as
/// a trace record, as `Campaign::run_sim_recorded` does.
fn collect(
    inputs: &Inputs,
    layers: &mut Layers,
    mut records: Option<&mut Trace>,
) -> Vec<Observation> {
    let (campaign, pmu) = (&inputs.campaign, &inputs.pmu);
    let space = full_counter_space();
    let walk_columns: Vec<usize> = space
        .names()
        .iter()
        .enumerate()
        .filter(|(_, name)| name.ends_with(".causes_walk"))
        .map(|(i, _)| i)
        .collect();
    let mut observations = Vec::with_capacity(campaign.cells().len());
    let mut walks = 0.0;
    for cell in campaign.cells() {
        let CampaignCell {
            label,
            workload,
            accesses,
            page_size,
            seed,
        } = cell;
        let schedule = timed(layers, "collect.schedule_s", || {
            EventSchedule::for_space(&space, pmu.physical_counters)
        });
        let accesses = timed(layers, "workloads.generate_s", || {
            workload.generate(*accesses)
        });
        add(layers, "workloads.accesses", accesses.len() as f64);
        let mut sim = HaswellMmu::new(MmuConfig::haswell());
        let truth = timed(layers, "haswell.simulate_s", || {
            ground_truth_intervals(
                &mut sim,
                &accesses,
                *page_size,
                &space,
                campaign.intervals(),
            )
        });
        drop(accesses);
        walks += truth
            .iter()
            .flat_map(|row| walk_columns.iter().map(move |&c| row[c]))
            .sum::<f64>();
        let statistics = [
            ("haswell.merged_walks", sim.merged_walks()),
            ("haswell.prefetch_walks", sim.prefetch_walks()),
            ("haswell.aborted_prefetches", sim.aborted_prefetches()),
            ("haswell.replayed_walks", sim.replayed_walks()),
        ];
        for (name, count) in statistics {
            add(layers, name, count as f64);
        }
        let rows = timed(layers, "haswell.pmu_sample_s", || {
            let pmu = MultiplexingPmu::new(PmuConfig {
                seed: *seed,
                ..pmu.clone()
            });
            pmu.sample_intervals_assigned(&truth, schedule.num_rounds(), |e| schedule.round_of(e))
        });
        let (samples, observation) = timed(layers, "stats.region_s", || {
            let samples = IntervalSamples::new(space.names().to_vec(), rows);
            let observation =
                samples.observation(label, campaign.warmup_intervals(), campaign.confidence());
            (samples, observation)
        });
        observations.push(observation);
        if let Some(trace) = records.as_deref_mut() {
            timed(layers, "collect.trace_record_s", || {
                trace.push(TraceRecord {
                    label: label.clone(),
                    page_size: *page_size,
                    intervals: campaign.intervals(),
                    num_events: schedule.num_events(),
                    physical_counters: schedule.physical_counters(),
                    samples,
                })
            });
        }
        layers.insert("collect.schedule_rounds", schedule.num_rounds() as f64);
        let oversubscribed = schedule.oversubscribed_events() as f64;
        layers.insert("collect.oversubscribed_events", oversubscribed);
    }
    let accesses = layers["workloads.accesses"];
    layers.insert("haswell.walks_per_kaccess", walks / accesses * 1e3);
    let simulate_ns = layers["haswell.simulate_s"] * 1e9;
    layers.insert("haswell.sim_ns_per_access", simulate_ns / accesses);
    observations
}

/// Records the solve-replay trace layer by layer and serialises it: the
/// traced twin of the set-up's `run_sim_recorded` + `Trace::to_json`.
pub fn record(inputs: &Inputs, layers: &mut Layers) -> String {
    let mut trace = Trace::new();
    collect(inputs, layers, Some(&mut trace));
    timed(layers, "collect.trace_record_s", || trace.to_json())
}

/// One traced pass.  Returns the pass's contract view and its metrics; the
/// wall time of the layer calls is `core_s` (compared with the untraced
/// `Inquiry::run` for the tracing overhead).
pub fn pass(inputs: &Inputs) -> Result<(Contract, Layers, f64), String> {
    let mut layers = Layers::new();
    let recording = Recording::start();
    let started = Instant::now();
    let threads = inputs.kind.threads();
    let observations = match inputs.kind {
        Kind::CaseStudy => collect(inputs, &mut layers, None),
        Kind::SolveReplay => {
            let json = inputs.trace_json.as_deref().unwrap_or_default();
            let trace = timed(&mut layers, "collect.trace_parse_s", || {
                Trace::from_json(json)
            })
            .map_err(|e| e.to_string())?;
            let campaign = inputs.campaign.clone().with_threads(threads);
            timed(&mut layers, "collect.replay_s", || campaign.replay(&trace))
                .map_err(|e| e.to_string())?
        }
    };
    let family = (inputs.kind == Kind::SolveReplay).then(|| {
        timed(&mut layers, "models.enumerate_s", || {
            enumo::enumerate(&ModelGrammar::case_study(), &enum_options())
        })
    });
    let cones: Vec<&ModelCone> = inputs.models.iter().map(|m| &m.cone).collect();
    let matrix = timed(&mut layers, "core.evaluate_s", || {
        check_models_verdicts(&cones, &observations, threads)
    });
    let refinement = (inputs.kind == Kind::SolveReplay).then(|| {
        timed(&mut layers, "core.refine_s", || {
            let mut search = LatticeSearch::new(refine_generator, &universe());
            search.set_threads(threads);
            search.run(&FeatureSet::new(), &observations)
        })
    });
    let enumeration = family.map(|family| {
        let pool = CertificatePool::new();
        let mut groups = Vec::with_capacity(family.groups.len());
        let mut slowest: f64 = 0.0;
        for group in &family.groups {
            let started = Instant::now();
            let mut search = LatticeSearch::new(group.generator(), &group.universe_names());
            search.set_threads(threads);
            search.set_shared_pool(&pool, &group.signature);
            let (graph, _) = search.run_with_stats(&group.initial(), &observations);
            let seconds = started.elapsed().as_secs_f64();
            add(&mut layers, "core.group_search_s", seconds);
            slowest = slowest.max(seconds);
            let universe = group.universe_names();
            groups.push((
                group.signature.clone(),
                group.members.clone(),
                universe,
                graph,
            ));
        }
        layers.insert("core.group_search_max_s", slowest);
        layers.insert("models.raw_candidates", family.raw_candidates as f64);
        layers.insert(
            "models.canonical_candidates",
            family.canonical_candidates as f64,
        );
        layers.insert("models.members", family.len() as f64);
        layers.insert("models.groups", family.groups.len() as f64);
        layers.insert("models.path_limit_skips", family.skipped_path_limit as f64);
        Enumeration {
            raw_candidates: family.raw_candidates,
            canonical_candidates: family.canonical_candidates,
            members: family.len(),
            skipped_path_limit: family.skipped_path_limit,
            structural_duplicates: family.structural_duplicates,
            groups,
        }
    });
    let core_s = started.elapsed().as_secs_f64();
    let telemetry = recording.finish();

    let names: Vec<String> = inputs.models.iter().map(|m| m.name.clone()).collect();
    let contract = Contract::from_parts(&observations, &names, &matrix, refinement, enumeration);
    let timed_calls: f64 = layers
        .iter()
        .filter(|(name, _)| name.ends_with("_s") && **name != "core.group_search_max_s")
        .map(|(_, seconds)| seconds)
        .sum();
    layers.insert("session.unattributed_share", 1.0 - timed_calls / core_s);
    layers.insert("core.lattice_models", contract.lattice_models() as f64);
    telemetry_metrics(&telemetry, contract.verdicts_decided() as f64, &mut layers);
    Ok((contract, layers, core_s))
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

fn telemetry_metrics(t: &TelemetryReport, verdicts: f64, layers: &mut Layers) {
    let count = |m: Metric| t.counter(m);
    let copies = [
        ("core.certificate_prunes", Metric::CertificatePrunes),
        (
            "core.witness_ray_settlements",
            Metric::WitnessRaySettlements,
        ),
        ("core.frontier_batches", Metric::FrontierBatches),
        (
            "core.cross_family_certificate_hits",
            Metric::CrossFamilyCertificateHits,
        ),
        ("core.cold_solver_fallbacks", Metric::ColdSolverFallbacks),
        ("lp.solves", Metric::LpSolves),
        ("lp.tier2_escalations", Metric::LpTier2Escalations),
        ("lp.exact_recertifications", Metric::LpExactRecertifications),
        ("lp.inconclusive_verdicts", Metric::LpInconclusiveVerdicts),
    ];
    for (name, metric) in copies {
        layers.insert(name, count(metric) as f64);
    }
    let settled = count(Metric::CertificatePrunes) + count(Metric::WitnessRaySettlements);
    let prune_share = if verdicts > 0.0 {
        settled as f64 / verdicts
    } else {
        0.0
    };
    layers.insert("core.prune_share", prune_share);
    let (hits, misses) = (Metric::CoefficientCacheHits, Metric::CoefficientCacheMisses);
    let hit_ratio = ratio(count(hits), count(hits) + count(misses));
    layers.insert("core.coefficient_cache_hit_ratio", hit_ratio);
    let (hits, misses) = (Metric::WarmBasisHandoffHits, Metric::WarmBasisHandoffMisses);
    let hit_ratio = ratio(count(hits), count(hits) + count(misses));
    layers.insert("core.warm_basis_handoff_hit_ratio", hit_ratio);
    let batch = ratio(
        count(Metric::FrontierModelsEvaluated),
        count(Metric::FrontierBatches),
    );
    layers.insert("core.mean_frontier_batch", batch);
    let pivots = ratio(count(Metric::LpPivots), count(Metric::LpSolves));
    layers.insert("lp.pivots_per_solve", pivots);
}
