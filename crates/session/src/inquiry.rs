//! The `Inquiry` builder: one configured refute→refine session.
//!
//! An inquiry wires every ingredient of the paper's workflow — a counter
//! source (live backend, recorded trace, or pre-built observations), one or
//! more model families, a worker-thread budget, a seed, and the optional
//! constraint-deduction and refinement-search stages — into a single value
//! whose [`run`](Inquiry::run) produces a serializable [`Report`].
//!
//! Determinism is a design invariant: the same inquiry produces a
//! byte-identical report JSON at every thread count (the collect campaign and
//! the verdict fan-out both schedule deterministically, and wall-clock timing
//! is excluded from serialization).

use crate::error::SessionError;
use crate::report::{
    EnumeratedGroup, EnumerationSummary, ModelConstraints, ModelVerdicts, ObservationSummary,
    Report, StageTimings, REPORT_FORMAT_VERSION,
};
use crate::verdict::Verdict;
use counterpoint_collect::{Campaign, CampaignCell, CounterBackend, SimBackend, Trace};
use counterpoint_core::{
    check_models_verdicts, deduce_constraints, essential_feature_intersection, CertificatePool,
    ConstraintSet, ExplorationModel, FeatureSet, LatticeSearch, ModelCone, Observation,
};
use counterpoint_haswell::mmu::MmuConfig;
use counterpoint_haswell::pmu::PmuConfig;
use counterpoint_models::enumo::{self, EnumOptions, ModelGrammar};
use counterpoint_models::harness::{case_study_campaign, HarnessConfig};
use counterpoint_telemetry as telemetry;
use std::fmt;
use std::time::Instant;

/// A type-erased campaign backend factory (one backend per cell, created on
/// the worker thread that picks the cell up).
type BackendFactory = Box<dyn Fn(&CampaignCell) -> Box<dyn CounterBackend> + Sync>;

/// Where an inquiry's observations come from.
enum Source {
    /// No source configured yet.
    Unset,
    /// Pre-built observations, used as-is.
    Observations(Vec<Observation>),
    /// A campaign run against a counter backend.
    Backend {
        campaign: Campaign,
        factory: BackendFactory,
    },
    /// A campaign replayed from a recorded trace.
    Replay { campaign: Campaign, trace: Trace },
    /// The standard Haswell case-study harness.
    Harness(HarnessConfig),
}

/// The optional refinement-search stage: a feature-lattice generator plus the
/// search's starting point.  The generator is `Sync` so the lattice-search
/// workers can call it concurrently.
struct Refinement {
    generator: Box<dyn Fn(&FeatureSet) -> ModelCone + Sync>,
    universe: Vec<String>,
    initial: FeatureSet,
}

/// A configured refute→refine session.
///
/// Build one with [`Inquiry::new`], wire in a source and models with the
/// builder methods, and call [`run`](Inquiry::run).  See the crate-level
/// documentation for a complete example.
pub struct Inquiry {
    source: Source,
    models: Vec<ExplorationModel>,
    threads: usize,
    search_threads: Option<usize>,
    seed: Option<u64>,
    with_constraints: bool,
    refinement: Option<Refinement>,
    refinement_cap: Option<usize>,
    enumeration: Option<(ModelGrammar, EnumOptions)>,
    telemetry: bool,
}

impl Default for Inquiry {
    fn default() -> Inquiry {
        Inquiry::new()
    }
}

impl fmt::Debug for Inquiry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let source = match &self.source {
            Source::Unset => "unset".to_string(),
            Source::Observations(v) => format!("{} observations", v.len()),
            Source::Backend { campaign, .. } => {
                format!("backend campaign ({} cells)", campaign.cells().len())
            }
            Source::Replay { trace, .. } => format!("trace replay ({} records)", trace.len()),
            Source::Harness(_) => "case-study harness".to_string(),
        };
        f.debug_struct("Inquiry")
            .field("source", &source)
            .field("models", &self.models.len())
            .field("threads", &self.threads)
            .field("search_threads", &self.search_threads)
            .field("seed", &self.seed)
            .field("with_constraints", &self.with_constraints)
            .field("refinement", &self.refinement.is_some())
            .field("enumeration", &self.enumeration.is_some())
            .field("telemetry", &self.telemetry)
            .finish()
    }
}

impl Inquiry {
    /// An empty inquiry: no source, no models, one worker thread, no
    /// constraint deduction, no refinement search.
    pub fn new() -> Inquiry {
        Inquiry {
            source: Source::Unset,
            models: Vec::new(),
            threads: 1,
            search_threads: None,
            seed: None,
            with_constraints: false,
            refinement: None,
            refinement_cap: None,
            enumeration: None,
            telemetry: false,
        }
    }

    /// Uses pre-built observations as the counter source (replacing any
    /// previously configured source).
    pub fn observations(mut self, observations: impl Into<Vec<Observation>>) -> Inquiry {
        self.source = Source::Observations(observations.into());
        self
    }

    /// Runs `campaign` against backends produced by `factory` — the fully
    /// general source: any [`CounterBackend`] implementation plugs in here.
    /// The factory is called once per cell, on the worker thread that picks
    /// the cell up.
    pub fn backend<B, F>(mut self, campaign: Campaign, factory: F) -> Inquiry
    where
        B: CounterBackend + 'static,
        F: Fn(&CampaignCell) -> B + Sync + 'static,
    {
        self.source = Source::Backend {
            campaign,
            factory: Box::new(move |cell| Box::new(factory(cell))),
        };
        self
    }

    /// Runs `campaign` on the simulated Haswell MMU/PMU (each cell gets a
    /// cold simulator seeded with the cell's seed) — sugar over
    /// [`backend`](Inquiry::backend) for the common case.
    pub fn sim_campaign(self, campaign: Campaign, mmu: MmuConfig, pmu: PmuConfig) -> Inquiry {
        self.backend(campaign, move |cell| {
            SimBackend::new(mmu.clone(), pmu.clone()).with_seed(cell.seed)
        })
    }

    /// Replays a recorded [`Trace`] through `campaign`, reproducing the
    /// original observations bit-for-bit (or failing loudly on a mismatch).
    pub fn trace(mut self, campaign: Campaign, trace: Trace) -> Inquiry {
        self.source = Source::Replay { campaign, trace };
        self
    }

    /// Uses the standard Haswell case-study harness (the workload suite swept
    /// over the configured page sizes) as the counter source.
    pub fn harness(mut self, config: HarnessConfig) -> Inquiry {
        self.source = Source::Harness(config);
        self
    }

    /// Registers a model under test (no feature annotations).
    pub fn model(mut self, name: &str, cone: ModelCone) -> Inquiry {
        self.models
            .push(ExplorationModel::new(name, FeatureSet::new(), cone));
        self
    }

    /// Registers a model annotated with the microarchitectural features it
    /// includes (the essential-feature intersection ranges over these).
    pub fn model_with_features(
        mut self,
        name: &str,
        features: FeatureSet,
        cone: ModelCone,
    ) -> Inquiry {
        self.models
            .push(ExplorationModel::new(name, features, cone));
        self
    }

    /// Registers a whole model family at once.
    pub fn models(mut self, models: impl IntoIterator<Item = ExplorationModel>) -> Inquiry {
        self.models.extend(models);
        self
    }

    /// Registers a family of `(name, cone)` pairs (no feature annotations).
    pub fn model_family(
        mut self,
        family: impl IntoIterator<Item = (String, ModelCone)>,
    ) -> Inquiry {
        for (name, cone) in family {
            self.models
                .push(ExplorationModel::new(&name, FeatureSet::new(), cone));
        }
        self
    }

    /// Sets the worker-thread budget for the collection campaign, the verdict
    /// fan-out and (unless overridden by
    /// [`search_threads`](Inquiry::search_threads)) the refinement search
    /// (`0` = the host's available parallelism; default 1).  The report is
    /// byte-identical for every value.
    pub fn threads(mut self, threads: usize) -> Inquiry {
        self.threads = threads;
        self
    }

    /// Overrides the worker-thread budget of the refinement search alone
    /// (`0` = the host's available parallelism; default: the inquiry's
    /// [`threads`](Inquiry::threads) budget).  The [`LatticeSearch`] engine
    /// is deterministic, so the report is byte-identical for every value.
    pub fn search_threads(mut self, threads: usize) -> Inquiry {
        self.search_threads = Some(threads);
        self
    }

    /// Overrides the PMU scheduling seed of a campaign or harness source
    /// (pre-built observations and trace replays are unaffected).
    pub fn seed(mut self, seed: u64) -> Inquiry {
        self.seed = Some(seed);
        self
    }

    /// Enables constraint deduction: the report then carries each model's
    /// constraint renderings, and every `Refuted` verdict names the
    /// constraints the observation violates.  Off by default — exact hull
    /// computation is exponential in the counter-group count (the paper's
    /// Figure 9b), so it is a deliberate opt-in.
    pub fn deduce_constraints(mut self, enabled: bool) -> Inquiry {
        self.with_constraints = enabled;
        self
    }

    /// Configures the discovery/elimination refinement search: `generator`
    /// maps a feature set to its model cone, `universe` is the feature
    /// lattice, `initial` the starting feature set.  The resulting
    /// [`SearchGraph`](counterpoint_core::SearchGraph) lands in the report's
    /// `refinement` field.
    pub fn refine<G, S>(mut self, generator: G, universe: &[S], initial: FeatureSet) -> Inquiry
    where
        G: Fn(&FeatureSet) -> ModelCone + Sync + 'static,
        S: AsRef<str>,
    {
        self.refinement = Some(Refinement {
            generator: Box::new(generator),
            universe: universe.iter().map(|s| s.as_ref().to_string()).collect(),
            initial,
        });
        self
    }

    /// Configures the grammar-enumerated model-family stage: `grammar` is
    /// expanded under `options` and canonicalized into a
    /// [`ModelFamily`](counterpoint_models::enumo::ModelFamily); each
    /// assumption group then runs a [`LatticeSearch`] over its feature
    /// sub-lattice, with Farkas certificates and witness rays shared across
    /// groups through one [`CertificatePool`].  The per-group search graphs
    /// and the enumeration accounting land in the report's `enumeration`
    /// field; the JSON is byte-identical at every thread count.
    pub fn model_grammar(mut self, grammar: ModelGrammar, options: EnumOptions) -> Inquiry {
        self.enumeration = Some((grammar, options));
        self
    }

    /// Enables telemetry for the run: [`run`](Inquiry::run) claims the
    /// process-wide telemetry sink (when free), records spans and metrics
    /// across every pipeline stage, and attaches the resulting
    /// [`TelemetryReport`](counterpoint_telemetry::TelemetryReport) to
    /// [`Report::telemetry`].  When another recording is already active (a
    /// harness started one around several inquiries), this run's
    /// instrumentation flows into that recording instead and
    /// `Report::telemetry` stays `None`.  Off by default; the serialized
    /// report JSON is byte-identical either way.
    pub fn telemetry(mut self, enabled: bool) -> Inquiry {
        self.telemetry = enabled;
        self
    }

    /// Caps the number of models the refinement search may evaluate (default:
    /// the search's own limit of 256).  Order-independent: takes effect as
    /// long as [`refine`](Inquiry::refine) is also called before
    /// [`run`](Inquiry::run).
    pub fn max_refinement_models(mut self, limit: usize) -> Inquiry {
        self.refinement_cap = Some(limit);
        self
    }

    /// Runs the session: collects (or replays) the observations, builds the
    /// verdict matrix across the worker threads, optionally deduces
    /// constraints and runs the refinement search, and assembles the
    /// [`Report`].
    ///
    /// # Errors
    ///
    /// [`SessionError::NoObservations`] without a source (or when the source
    /// yields nothing), [`SessionError::NoModels`] with neither models nor a
    /// refinement search, [`SessionError::DimensionMismatch`] when a model's
    /// counter space differs from the observations', and
    /// [`SessionError::Collect`] for acquisition failures.
    pub fn run(self) -> Result<Report, SessionError> {
        let started = Instant::now();
        let Inquiry {
            source,
            models,
            threads,
            search_threads,
            seed,
            with_constraints,
            refinement,
            refinement_cap,
            enumeration,
            telemetry: record_telemetry,
        } = self;

        // Claim the process-wide sink if asked to (and it is free: a `None`
        // here means an enclosing recording absorbs this run's telemetry).
        // Dropping the recording on any early-error return disables
        // collection again.
        let recording = record_telemetry
            .then(telemetry::Recording::try_start)
            .flatten();
        let inquiry_span = telemetry::span("inquiry", "");

        if models.is_empty() && refinement.is_none() && enumeration.is_none() {
            return Err(SessionError::NoModels);
        }

        let collect_stage = telemetry::stage_span("collect");
        let observations: Vec<Observation> = match source {
            Source::Unset => return Err(SessionError::NoObservations),
            Source::Observations(observations) => observations,
            Source::Backend {
                mut campaign,
                factory,
            } => {
                if let Some(seed) = seed {
                    campaign = campaign.with_seed(seed);
                }
                campaign.with_threads(threads).run(factory)?
            }
            Source::Replay { campaign, trace } => campaign.with_threads(threads).replay(&trace)?,
            Source::Harness(mut config) => {
                if let Some(seed) = seed {
                    config.pmu.seed = seed;
                }
                let mmu = config.mmu.clone();
                let pmu = config.pmu.clone();
                case_study_campaign(&config)
                    .with_threads(threads)
                    .run(|cell| SimBackend::new(mmu.clone(), pmu.clone()).with_seed(cell.seed))?
            }
        };
        if observations.is_empty() {
            return Err(SessionError::NoObservations);
        }
        // By-name report lookups (and trace-record keys) require unique
        // observation names; fail loudly instead of silently shadowing.
        let mut seen = std::collections::BTreeSet::new();
        for observation in &observations {
            if !seen.insert(observation.name()) {
                return Err(SessionError::DuplicateObservation {
                    name: observation.name().to_string(),
                });
            }
        }
        let collect_ms = collect_stage.finish_ms();

        let observation_dimension = observations[0].dimension();
        for model in &models {
            if model.cone.dimension() != observation_dimension {
                return Err(SessionError::DimensionMismatch {
                    model: model.name.clone(),
                    model_dimension: model.cone.dimension(),
                    observation_dimension,
                });
            }
        }
        // Validate the refinement lattice against the observations too (built
        // once here; also reused below for the counter names when no models
        // are registered), so a mis-wired generator errors instead of
        // panicking mid-search.
        let initial_refinement_cone = refinement.as_ref().map(|r| (r.generator)(&r.initial));
        if let Some(cone) = &initial_refinement_cone {
            if cone.dimension() != observation_dimension {
                return Err(SessionError::DimensionMismatch {
                    model: cone.name().to_string(),
                    model_dimension: cone.dimension(),
                    observation_dimension,
                });
            }
        }
        // Expand the model grammar (pure in its inputs) and validate the
        // enumerated lattices against the observations the same way.
        let family = enumeration.map(|(grammar, options)| enumo::enumerate(&grammar, &options));
        let initial_enumeration_cone = family
            .as_ref()
            .and_then(|f| f.groups.first())
            .map(|group| group.generator()(&group.initial()));
        if let Some(cone) = &initial_enumeration_cone {
            if cone.dimension() != observation_dimension {
                return Err(SessionError::DimensionMismatch {
                    model: cone.name().to_string(),
                    model_dimension: cone.dimension(),
                    observation_dimension,
                });
            }
        }

        let evaluate_stage = telemetry::stage_span("evaluate");
        let cones: Vec<&ModelCone> = models.iter().map(|m| &m.cone).collect();
        let matrix = check_models_verdicts(&cones, &observations, threads);

        let constraint_sets: Vec<Option<ConstraintSet>> = models
            .iter()
            .map(|m| with_constraints.then(|| deduce_constraints(&m.cone)))
            .collect();

        let model_rows: Vec<ModelVerdicts> = models
            .iter()
            .zip(matrix)
            .zip(&constraint_sets)
            .map(|((model, row), constraints)| {
                let verdicts: Vec<Verdict> = row
                    .into_iter()
                    .zip(&observations)
                    .map(|(verdict, observation)| {
                        let violated = match (&verdict, constraints) {
                            (v, Some(set)) if v.is_refuted() => set
                                .violated_by(observation.region())
                                .into_iter()
                                .map(|c| c.text().to_string())
                                .collect(),
                            _ => Vec::new(),
                        };
                        Verdict::from_engine(verdict, violated)
                    })
                    .collect();
                let infeasible_count = verdicts.iter().filter(|v| v.is_refuted()).count();
                let inconclusive_count = verdicts
                    .iter()
                    .filter(|v| matches!(v, Verdict::Inconclusive { .. }))
                    .count();
                let feasible = verdicts.iter().all(Verdict::is_feasible);
                ModelVerdicts {
                    model: model.name.clone(),
                    features: model.features.iter().cloned().collect(),
                    infeasible_count,
                    inconclusive_count,
                    feasible,
                    verdicts,
                }
            })
            .collect();

        // The one shared intersection implementation (also behind
        // `SearchGraph::essential_features`), so the report field and the
        // search graph can never drift apart.
        let essential_features = essential_feature_intersection(
            models
                .iter()
                .zip(&model_rows)
                .filter(|(_, row)| row.feasible)
                .map(|(model, _)| &model.features),
        );

        let constraints: Vec<ModelConstraints> = models
            .iter()
            .zip(&constraint_sets)
            .filter_map(|(model, set)| {
                set.as_ref().map(|set| ModelConstraints {
                    model: model.name.clone(),
                    constraints: set.all_named().map(|c| c.text().to_string()).collect(),
                })
            })
            .collect();

        let counters: Vec<String> = models
            .first()
            .map(|m| m.cone.counters().names().to_vec())
            .or_else(|| {
                initial_refinement_cone
                    .as_ref()
                    .map(|cone| cone.counters().names().to_vec())
            })
            .or_else(|| {
                initial_enumeration_cone
                    .as_ref()
                    .map(|cone| cone.counters().names().to_vec())
            })
            .unwrap_or_default();
        let evaluate_ms = evaluate_stage.finish_ms();

        let refine_stage = telemetry::stage_span("refine");
        let refinement_graph = refinement.map(|r| {
            let mut search = LatticeSearch::new(r.generator, &r.universe);
            if let Some(limit) = refinement_cap {
                search.set_max_models(limit);
            }
            search.set_threads(search_threads.unwrap_or(threads));
            search.run(&r.initial, &observations)
        });
        let refine_ms = refine_stage.finish_ms();

        // The enumerated-family stage: one lattice search per assumption
        // group, sequentially in signature order (so pool seeding — and the
        // report — never depend on group scheduling), sharing certificates
        // across groups through one pool keyed by group signature.
        let enumerate_stage = telemetry::stage_span("enumerate");
        let enumeration_summary = family.map(|family| {
            let pool = CertificatePool::new();
            let mut groups = Vec::with_capacity(family.groups.len());
            let mut cross_certificates = 0usize;
            let mut cross_witnesses = 0usize;
            for group in &family.groups {
                let mut search = LatticeSearch::new(group.generator(), &group.universe_names());
                if let Some(limit) = refinement_cap {
                    search.set_max_models(limit);
                }
                search.set_threads(search_threads.unwrap_or(threads));
                search.set_shared_pool(&pool, &group.signature);
                let (graph, stats) = search.run_with_stats(&group.initial(), &observations);
                cross_certificates += stats.cross_family_certificate_hits;
                cross_witnesses += stats.cross_family_witness_hits;
                groups.push(EnumeratedGroup {
                    signature: group.signature.clone(),
                    members: group.members.clone(),
                    universe: group.universe_names(),
                    graph,
                });
            }
            EnumerationSummary {
                raw_candidates: family.raw_candidates,
                canonical_candidates: family.canonical_candidates,
                members: family.len(),
                skipped_path_limit: family.skipped_path_limit,
                structural_duplicates: family.structural_duplicates,
                groups,
                cross_family_certificate_hits: cross_certificates,
                cross_family_witness_hits: cross_witnesses,
            }
        });
        let enumerate_ms = enumerate_stage.finish_ms();

        // Close the root span before finishing so its 'E' event makes the
        // snapshot, then detach the recording (if this run owned one).
        drop(inquiry_span);
        let telemetry_snapshot = recording.map(telemetry::Recording::finish);
        Ok(Report {
            version: REPORT_FORMAT_VERSION,
            counters,
            observations: observations
                .iter()
                .map(|o| ObservationSummary {
                    name: o.name().to_string(),
                    mean: o.mean().to_vec(),
                    samples: o.region().num_samples(),
                    confidence: o.region().confidence(),
                })
                .collect(),
            models: model_rows,
            essential_features,
            constraints,
            refinement: refinement_graph,
            enumeration: enumeration_summary,
            stages: StageTimings {
                collect_ms,
                evaluate_ms,
                refine_ms,
                enumerate_ms,
                total_ms: started.elapsed().as_secs_f64() * 1e3,
            },
            telemetry: telemetry_snapshot,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use counterpoint_core::feature_set;
    use counterpoint_mudd::{CounterSignature, CounterSpace};

    /// The toy feature lattice of the explore tests: base allows x only,
    /// `Fy` adds [1, 1], `Fboth` adds [0, 1].
    fn toy_cone(features: &FeatureSet) -> ModelCone {
        let space = CounterSpace::new(&["x", "y"]);
        let mut sigs = vec![CounterSignature::from_counts(vec![1, 0])];
        if features.contains("Fy") {
            sigs.push(CounterSignature::from_counts(vec![1, 1]));
        }
        if features.contains("Fboth") {
            sigs.push(CounterSignature::from_counts(vec![0, 1]));
        }
        let n = sigs.len();
        ModelCone::from_signatures("toy", &space, sigs, n)
    }

    fn toy_observations() -> Vec<Observation> {
        vec![
            Observation::exact("x-only", &[10.0, 0.0]),
            Observation::exact("balanced", &[10.0, 6.0]),
        ]
    }

    fn toy_inquiry() -> Inquiry {
        Inquiry::new()
            .observations(toy_observations())
            .model_with_features(
                "base",
                feature_set::<&str>(&[]),
                toy_cone(&FeatureSet::new()),
            )
            .model_with_features(
                "with-fy",
                feature_set(&["Fy"]),
                toy_cone(&feature_set(&["Fy"])),
            )
    }

    #[test]
    fn verdict_matrix_matches_the_toy_lattice() {
        let report = toy_inquiry().run().unwrap();
        assert_eq!(report.counters, vec!["x".to_string(), "y".to_string()]);
        assert_eq!(report.observations.len(), 2);
        let base = report.model("base").unwrap();
        assert_eq!(base.infeasible_count, 1);
        assert_eq!(base.inconclusive_count, 0);
        assert!(!base.feasible);
        assert!(report.verdict("base", "balanced").unwrap().is_refuted());
        assert!(report.verdict("base", "x-only").unwrap().is_feasible());
        let with_fy = report.model("with-fy").unwrap();
        assert!(with_fy.feasible);
        assert_eq!(report.feasible_models(), vec!["with-fy"]);
        assert_eq!(report.essential_features, Some(vec!["Fy".to_string()]));
        // No constraint deduction requested: no renderings, no violations.
        assert!(report.constraints.is_empty());
        assert!(report
            .verdict("base", "balanced")
            .unwrap()
            .violated_constraints()
            .is_empty());
        assert!(report.stages.total_ms >= 0.0);
    }

    #[test]
    fn non_finite_observations_are_reported_inconclusive() {
        let mut observations = toy_observations();
        observations.push(Observation::exact("nan", &[f64::NAN, 1.0]));
        observations.push(Observation::exact("inf", &[f64::INFINITY, 1.0]));
        let report = toy_inquiry().observations(observations).run().unwrap();
        for model in ["base", "with-fy"] {
            for obs in ["nan", "inf"] {
                let verdict = report.verdict(model, obs).unwrap();
                assert!(
                    matches!(verdict, Verdict::Inconclusive { .. }),
                    "{model} on {obs}: {verdict:?}"
                );
            }
            let row = report.model(model).unwrap();
            assert_eq!(row.inconclusive_count, 2, "{model}");
        }
        // The finite observations keep their verdicts.
        assert!(report.verdict("base", "balanced").unwrap().is_refuted());
        assert!(report.verdict("with-fy", "balanced").unwrap().is_feasible());
        // Non-finite means serialize as `null` and read back as NaN.
        let json = report.to_json();
        let back = Report::from_json(&json).unwrap();
        let [.., nan, inf] = &back.observations[..] else {
            panic!("observations lost")
        };
        assert!(nan.mean[0].is_nan() && nan.mean[1] == 1.0);
        assert!(inf.mean[0].is_nan());
        assert_eq!(back.observations[0], report.observations[0]);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn constraint_deduction_names_the_violations() {
        let report = toy_inquiry().deduce_constraints(true).run().unwrap();
        let verdict = report.verdict("base", "balanced").unwrap();
        assert!(verdict.is_refuted());
        assert!(
            !verdict.violated_constraints().is_empty(),
            "refutations must name the violated constraints when deduction is on"
        );
        assert!(report.constraints_of("base").is_some());
        assert!(verdict.farkas_certificate().is_some());
    }

    #[test]
    fn refinement_search_lands_in_the_report() {
        let report = Inquiry::new()
            .observations(toy_observations())
            .refine(toy_cone, &["Fy", "Fboth"], FeatureSet::new())
            .run()
            .unwrap();
        let graph = report.refinement.expect("search graph must be present");
        assert!(!graph.steps[0].feasible);
        assert!(graph.steps.iter().any(|s| s.feasible));
        assert!(!graph.minimal_feasible.is_empty());
        // Counter names come from the generator when no models are registered.
        assert_eq!(report.counters, vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn max_refinement_models_caps_the_search() {
        let report = Inquiry::new()
            .observations(toy_observations())
            .refine(toy_cone, &["Fy", "Fboth"], FeatureSet::new())
            .max_refinement_models(1)
            .run()
            .unwrap();
        assert_eq!(report.refinement.unwrap().steps.len(), 1);
        // The cap is order-independent: setting it before refine() works too.
        let report = Inquiry::new()
            .observations(toy_observations())
            .max_refinement_models(1)
            .refine(toy_cone, &["Fy", "Fboth"], FeatureSet::new())
            .run()
            .unwrap();
        assert_eq!(report.refinement.unwrap().steps.len(), 1);
    }

    #[test]
    fn misassembled_inquiries_error_instead_of_panicking() {
        assert_eq!(
            Inquiry::new().run().unwrap_err(),
            SessionError::NoModels,
            "no models and no refinement"
        );
        assert_eq!(
            Inquiry::new()
                .model("m", toy_cone(&FeatureSet::new()))
                .run()
                .unwrap_err(),
            SessionError::NoObservations,
            "no source"
        );
        assert_eq!(
            Inquiry::new()
                .observations(Vec::new())
                .model("m", toy_cone(&FeatureSet::new()))
                .run()
                .unwrap_err(),
            SessionError::NoObservations,
            "empty source"
        );
        let duplicate = Inquiry::new()
            .observations(vec![
                Observation::exact("same", &[1.0, 0.0]),
                Observation::exact("same", &[2.0, 0.0]),
            ])
            .model("toy", toy_cone(&FeatureSet::new()))
            .run()
            .unwrap_err();
        assert!(matches!(
            duplicate,
            SessionError::DuplicateObservation { .. }
        ));
        let mismatch = Inquiry::new()
            .observations(vec![Observation::exact("1d", &[1.0])])
            .model("toy", toy_cone(&FeatureSet::new()))
            .run()
            .unwrap_err();
        assert!(matches!(mismatch, SessionError::DimensionMismatch { .. }));
        // A refinement-only inquiry over the wrong counter space errors the
        // same way instead of panicking mid-search.
        let mismatch = Inquiry::new()
            .observations(vec![Observation::exact("1d", &[1.0])])
            .refine(toy_cone, &["Fy"], FeatureSet::new())
            .run()
            .unwrap_err();
        assert!(matches!(mismatch, SessionError::DimensionMismatch { .. }));
    }

    #[test]
    fn reports_are_byte_identical_across_thread_counts() {
        let baseline = toy_inquiry()
            .deduce_constraints(true)
            .run()
            .unwrap()
            .to_json();
        for threads in [0, 2, 8] {
            let report = toy_inquiry()
                .deduce_constraints(true)
                .threads(threads)
                .run()
                .unwrap();
            assert_eq!(report.to_json(), baseline, "threads = {threads}");
        }
    }

    #[test]
    fn enumeration_stage_lands_in_the_report_and_is_deterministic() {
        use counterpoint_haswell::full_counter_space;
        use counterpoint_models::aborts::AbortPoint;
        use counterpoint_models::enumo::{EnumOptions, ModelGrammar};
        use counterpoint_models::prefetch::TriggerSpec;
        use counterpoint_models::Feature;

        let space = full_counter_space();
        // One observation every candidate refutes (walks completing more
        // often than they start violate a constraint every model shares), so
        // certificates harvested in the first group prune the later ones, and
        // one trivially feasible observation.
        let mut impossible = vec![0.0; space.len()];
        impossible[space.index_of("load.ret").unwrap()] = 1000.0;
        impossible[space.index_of("load.causes_walk").unwrap()] = 10.0;
        impossible[space.index_of("load.walk_done").unwrap()] = 100.0;
        impossible[space.index_of("load.walk_done_4k").unwrap()] = 100.0;
        let observations = vec![
            Observation::exact("impossible-walks", &impossible),
            Observation::exact("origin", &vec![0.0; space.len()]),
        ];
        let grammar = ModelGrammar::case_study()
            .with_features(vec![Feature::TlbPrefetch, Feature::WalkBypass])
            .with_triggers(vec![("t0".to_string(), TriggerSpec::t0())])
            .with_abort_points(vec![AbortPoint::DuringWalk]);
        let options = EnumOptions {
            max_models: 32,
            ..EnumOptions::default()
        };
        let run = |threads: usize| {
            Inquiry::new()
                .observations(observations.clone())
                .model_grammar(grammar.clone(), options)
                .threads(threads)
                .run()
                .unwrap()
        };

        let baseline = run(1);
        let summary = baseline.enumeration.as_ref().expect("stage configured");
        assert!(summary.raw_candidates > summary.canonical_candidates);
        assert!(summary.members > 0);
        assert!(
            summary.groups.len() > 1,
            "assumptions must split into groups"
        );
        let searched: usize = summary.groups.iter().map(|g| g.graph.steps.len()).sum();
        assert!(searched >= summary.groups.len());
        assert!(
            summary.cross_family_certificate_hits + summary.cross_family_witness_hits > 0,
            "groups must reuse pooled evidence: {summary:?}"
        );
        // Counter names come from the enumerated generators when no models
        // are registered.
        assert_eq!(baseline.counters.len(), space.len());
        // The in-memory hit counters are timing-dependent and must stay out
        // of the JSON; everything else is byte-identical across threads.
        assert!(!baseline.to_json().contains("cross_family"));
        for threads in [2, 8] {
            assert_eq!(
                run(threads).to_json(),
                baseline.to_json(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn telemetry_snapshot_lands_in_the_report() {
        let report = toy_inquiry()
            .refine(toy_cone, &["Fy", "Fboth"], FeatureSet::new())
            .telemetry(true)
            .run()
            .unwrap();
        let snapshot = report.telemetry.expect("this run owned the sink");
        // Presence (not counts): other tests in this binary may contribute to
        // the sink while the recording is active, but only this run opens the
        // stage spans.
        for stage in ["inquiry", "collect", "evaluate", "refine"] {
            assert!(
                snapshot.events.iter().any(|e| e.name == stage),
                "missing {stage} span"
            );
        }
        assert!(snapshot.counter(telemetry::Metric::LpSolves) > 0);
        assert!(report.stages.total_ms >= 0.0);
        // Without the builder flag no snapshot is attached.
        assert!(toy_inquiry().run().unwrap().telemetry.is_none());
    }

    #[test]
    fn debug_rendering_summarises_the_wiring() {
        let rendered = format!("{:?}", toy_inquiry().threads(4));
        assert!(rendered.contains("2 observations"));
        assert!(rendered.contains("threads: 4"));
    }
}
