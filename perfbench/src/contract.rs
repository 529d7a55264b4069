//! The output contract every pass is checked on.
//!
//! A pass is correct when these parts of its result equal the expected ones:
//! the observation names, sample counts and means (bit-exact — they are
//! simulated statistics), the verdict kind of every model × observation, the
//! refinement and per-group search graphs (explored feature sets, infeasible
//! counts, feasibility, phases, edges, minimal feasible sets) and the
//! enumeration counts.  Certificate and witness floats are left out: a change
//! of LP engine may move them without changing any verdict.
//!
//! The same view is built from an untraced [`Report`] and from the traced
//! run's layer-by-layer results, so the two can be compared exactly.

use counterpoint::core::{FeasibilityVerdict, Observation, SearchGraph};
use counterpoint::session::{Report, Verdict};
use std::fmt::Write;

/// Expected digests, one per workload.
pub const PINNED: [(&str, u64); 2] = [
    ("case-study", 0x6284_03fa_985b_4f6b),
    ("solve-replay", 0xb506_1bf5_488c_dac4),
];

/// The pinned digest of `workload`.
pub fn pinned(workload: &str) -> Option<u64> {
    PINNED.iter().find(|(w, _)| *w == workload).map(|&(_, d)| d)
}

/// One enumerated assumption group: signature, members, universe, graph.
pub type Group = (String, Vec<String>, Vec<String>, SearchGraph);

/// The enumeration part of the contract.
#[derive(Debug)]
pub struct Enumeration {
    pub raw_candidates: usize,
    pub canonical_candidates: usize,
    pub members: usize,
    pub skipped_path_limit: usize,
    pub structural_duplicates: usize,
    pub groups: Vec<Group>,
}

/// The checked view of one pass's result.
#[derive(Debug)]
pub struct Contract {
    /// `(name, samples, mean bits)` per observation.
    pub observations: Vec<(String, usize, Vec<u64>)>,
    /// `(model, one kind letter per observation)` per model.
    pub verdicts: Vec<(String, String)>,
    pub refinement: Option<SearchGraph>,
    pub enumeration: Option<Enumeration>,
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

impl Contract {
    /// The view of an untraced pass's report.
    pub fn from_report(report: &Report) -> Contract {
        let kind = |v: &Verdict| match v {
            Verdict::Feasible { .. } => 'F',
            Verdict::Refuted { .. } => 'R',
            Verdict::Inconclusive { .. } => 'I',
        };
        Contract {
            observations: report
                .observations
                .iter()
                .map(|o| (o.name.clone(), o.samples, bits(&o.mean)))
                .collect(),
            verdicts: report
                .models
                .iter()
                .map(|m| (m.model.clone(), m.verdicts.iter().map(kind).collect()))
                .collect(),
            refinement: report.refinement.clone(),
            enumeration: report.enumeration.as_ref().map(|e| Enumeration {
                raw_candidates: e.raw_candidates,
                canonical_candidates: e.canonical_candidates,
                members: e.members,
                skipped_path_limit: e.skipped_path_limit,
                structural_duplicates: e.structural_duplicates,
                groups: e
                    .groups
                    .iter()
                    .map(|g| {
                        let graph = g.graph.clone();
                        (
                            g.signature.clone(),
                            g.members.clone(),
                            g.universe.clone(),
                            graph,
                        )
                    })
                    .collect(),
            }),
        }
    }

    /// The view of results computed layer by layer.
    pub fn from_parts(
        observations: &[Observation],
        models: &[String],
        matrix: &[Vec<FeasibilityVerdict>],
        refinement: Option<SearchGraph>,
        enumeration: Option<Enumeration>,
    ) -> Contract {
        let kind = |v: &FeasibilityVerdict| match v {
            FeasibilityVerdict::Feasible { .. } => 'F',
            FeasibilityVerdict::Refuted { .. } => 'R',
            FeasibilityVerdict::Inconclusive { .. } => 'I',
        };
        Contract {
            observations: observations
                .iter()
                .map(|o| {
                    let samples = o.region().num_samples();
                    (o.name().to_string(), samples, bits(o.mean()))
                })
                .collect(),
            verdicts: models
                .iter()
                .zip(matrix)
                .map(|(m, row)| (m.clone(), row.iter().map(kind).collect()))
                .collect(),
            refinement,
            enumeration,
        }
    }

    /// Lattice models searched by the refinement and the group searches.
    pub fn lattice_models(&self) -> usize {
        let refine = self.refinement.iter();
        let groups = self
            .enumeration
            .iter()
            .flat_map(|e| e.groups.iter().map(|g| &g.3));
        refine.chain(groups).map(|g| g.steps.len()).sum()
    }

    /// Model × observation verdicts plus lattice models searched ×
    /// observations: the verdicts a pass decides.
    pub fn verdicts_decided(&self) -> usize {
        (self.verdicts.len() + self.lattice_models()) * self.observations.len()
    }

    /// FNV-1a over a canonical rendering of the contract's fields.
    pub fn digest(&self) -> u64 {
        let mut text = String::new();
        for (name, samples, mean) in &self.observations {
            let _ = write!(text, "o|{name}|{samples}");
            for m in mean {
                let _ = write!(text, "|{m:016x}");
            }
            text.push('\n');
        }
        for (model, kinds) in &self.verdicts {
            let _ = writeln!(text, "v|{model}|{kinds}");
        }
        if let Some(graph) = &self.refinement {
            render_graph(&mut text, "r", graph);
        }
        if let Some(e) = &self.enumeration {
            let _ = writeln!(
                text,
                "e|{}|{}|{}|{}|{}",
                e.raw_candidates,
                e.canonical_candidates,
                e.members,
                e.skipped_path_limit,
                e.structural_duplicates
            );
            for (signature, members, universe, graph) in &e.groups {
                let _ = writeln!(
                    text,
                    "g|{signature}|{}|{}",
                    members.join(","),
                    universe.join(",")
                );
                render_graph(&mut text, "gs", graph);
            }
        }
        fnv1a(text.as_bytes())
    }
}

fn render_graph(text: &mut String, tag: &str, graph: &SearchGraph) {
    for s in &graph.steps {
        let _ = writeln!(
            text,
            "{tag}|step|{}|{}|{}|{:?}",
            s.features.join(","),
            s.infeasible_count,
            s.feasible,
            s.phase
        );
    }
    for e in &graph.edges {
        let _ = writeln!(
            text,
            "{tag}|edge|{}|{}|{}|{:?}",
            e.from, e.to, e.feature, e.phase
        );
    }
    for set in &graph.minimal_feasible {
        let _ = writeln!(text, "{tag}|min|{}", set.join(","));
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
