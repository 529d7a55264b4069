//! The two workloads: their inputs (built in set-up) and one untraced pass.

use crate::contract::Contract;
use counterpoint::collect::{Campaign, Trace};
use counterpoint::haswell::mmu::MmuConfig;
use counterpoint::haswell::pmu::PmuConfig;
use counterpoint::models::enumo::{EnumOptions, ModelGrammar};
use counterpoint::models::family::{build_feature_model, feature_sets_table3};
use counterpoint::models::features::Feature;
use counterpoint::models::harness::{case_study_campaign, HarnessConfig};
use counterpoint::{ExplorationModel, FeatureSet, Inquiry, ModelCone};
use std::hint::black_box;
use std::time::Instant;

/// Accesses per suite entry at experiment scale (the `experiments` default).
const EXPERIMENT_ACCESSES: usize = 60_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The paper's Table 3 session at experiment scale: the 18-entry suite ×
    /// 3 page sizes and the m0–m11 verdict matrix.  70% of its accesses are
    /// 64-B-stride scans on the TLB-hit path, so it shows per-access overhead.
    CaseStudy,
    /// Observations replayed from a trace of the half-scale campaign, then the
    /// verdict matrix, the fig10 refinement lattice and the depth-2 grammar
    /// enumeration at 2 threads.  The simulator is bypassed, so the pass is
    /// LP, lattice and enumeration work.
    SolveReplay,
}

impl Kind {
    pub const ALL: [Kind; 2] = [Kind::CaseStudy, Kind::SolveReplay];

    pub fn name(self) -> &'static str {
        match self {
            Kind::CaseStudy => "case-study",
            Kind::SolveReplay => "solve-replay",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Worker threads of the inquiry (`solve-replay` uses both cores).
    pub fn threads(self) -> usize {
        match self {
            Kind::CaseStudy => 1,
            Kind::SolveReplay => 2,
        }
    }
}

/// The fig10 refinement lattice's generator.
pub fn refine_generator(features: &FeatureSet) -> ModelCone {
    build_feature_model("candidate", features)
}

/// The fig10 refinement lattice's feature universe.
pub fn universe() -> Vec<String> {
    Feature::ALL.iter().map(|f| f.name().to_string()).collect()
}

/// The `enumerate` experiment's defaults: depth 2, at most 512 models.
pub fn enum_options() -> EnumOptions {
    EnumOptions {
        max_depth: 2,
        max_models: 512,
        ..EnumOptions::default()
    }
}

/// Everything a pass needs, built once in set-up.
///
/// The inputs are the repository's own data for every benchmark seed: the
/// standard suite with its default generator seeds and the default PMU seed,
/// as `experiments table3`, `fig10` and `enumerate` use.  The verdict LPs'
/// cost depends on the observations far more than on host noise: with the
/// PMU seed or the generator seeds derived from the benchmark seed, 12 of 28
/// seeds took 0.08–0.61 s in `check_models_verdicts` instead of 0.02–0.04 s
/// (README.md, "Why the inputs are fixed").
pub struct Inputs {
    pub kind: Kind,
    pub pmu: PmuConfig,
    pub campaign: Campaign,
    pub models: Vec<ExplorationModel>,
    /// The recorded half-scale campaign (`solve-replay` only).
    pub trace_json: Option<String>,
    /// Simulated accesses behind one pass's observations.
    pub accesses: usize,
    /// Wall time of building the m0–m11 cones.
    pub cone_build_s: f64,
}

impl Inputs {
    pub fn new(kind: Kind) -> Inputs {
        let started = Instant::now();
        let models: Vec<ExplorationModel> = feature_sets_table3()
            .into_iter()
            .map(|(name, features)| {
                let cone = build_feature_model(&name, &features);
                ExplorationModel::new(&name, features, cone)
            })
            .collect();
        let cone_build_s = started.elapsed().as_secs_f64();
        let accesses_per_workload = match kind {
            Kind::CaseStudy => EXPERIMENT_ACCESSES,
            Kind::SolveReplay => EXPERIMENT_ACCESSES / 2,
        };
        let config = HarnessConfig {
            accesses_per_workload,
            ..HarnessConfig::default()
        };
        let (pmu, campaign) = (config.pmu.clone(), case_study_campaign(&config));
        // Recorded on one thread: with two, the peak RSS depends on whether
        // both workers hold a 1.2 M-access cell at once.
        let trace_json = (kind == Kind::SolveReplay)
            .then(|| campaign.run_sim_recorded(&config.mmu, &pmu).1.to_json());
        let accesses = campaign.cells().iter().map(|c| c.accesses).sum();
        Inputs {
            kind,
            pmu,
            campaign,
            models,
            trace_json,
            accesses,
            cone_build_s,
        }
    }

    /// The session a pass runs (for `solve-replay`, after parsing the trace).
    fn inquiry(&self) -> Result<Inquiry, String> {
        let inquiry = match self.kind {
            Kind::CaseStudy => Inquiry::new().sim_campaign(
                self.campaign.clone(),
                MmuConfig::haswell(),
                self.pmu.clone(),
            ),
            Kind::SolveReplay => {
                let json = self.trace_json.as_deref().unwrap_or_default();
                let trace = Trace::from_json(json).map_err(|e| e.to_string())?;
                Inquiry::new()
                    .trace(self.campaign.clone(), trace)
                    .refine(refine_generator, &universe(), FeatureSet::new())
                    .model_grammar(ModelGrammar::case_study(), enum_options())
            }
        };
        Ok(inquiry
            .models(self.models.clone())
            .threads(self.kind.threads()))
    }
}

/// One untraced pass's outcome.
pub struct Pass {
    /// Digest of the pass's contract view.
    pub digest: u64,
    /// Verdicts the pass decided.
    pub verdicts: usize,
    /// Inputs to checked report.
    pub pass_s: f64,
    /// Trace parsing plus `Inquiry::run` (the part the traced pass splits).
    pub inquiry_s: f64,
    /// `Report::to_json`.
    pub report_json_s: f64,
}

/// One untraced pass: run the inquiry, render the report JSON and build the
/// contract view the caller checks.
pub fn pass(inputs: &Inputs) -> Result<Pass, String> {
    let started = Instant::now();
    let report = inputs
        .inquiry()?
        .run()
        .map_err(|e| format!("inquiry failed: {e}"))?;
    let inquiry_s = started.elapsed().as_secs_f64();
    let json_started = Instant::now();
    black_box(report.to_json());
    let report_json_s = json_started.elapsed().as_secs_f64();
    let contract = Contract::from_report(&report);
    let digest = contract.digest();
    Ok(Pass {
        digest,
        verdicts: contract.verdicts_decided(),
        pass_s: started.elapsed().as_secs_f64(),
        inquiry_s,
        report_json_s,
    })
}
