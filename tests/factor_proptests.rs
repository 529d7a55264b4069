//! Property tests for the LP core.
//!
//! [`FactorTableau`] promises two things that ordinary example tests cannot
//! pin down:
//!
//! 1. **Bit-for-bit reproducibility.**  Every reduction goes through one
//!    deterministic 4-lane kernel, so the product-form (eta) updated engine
//!    must produce *identical* floats — verdicts, basis, basic values, Farkas
//!    multipliers — to a straightforward dense-`B⁻¹` implementation of the
//!    same pivot rules, on any input and across any pivot sequence.  The
//!    [`DenseRef`] engine below stores `B⁻¹` as one interleaved dense block
//!    (the textbook revised-simplex representation) and reduces with the same fixed
//!    `(l0 + l2) + (l1 + l3)` lane fold; the property compares every solve of
//!    a warm-started sequence bitwise.
//! 2. **Escalation soundness.**  A *confident* warm verdict must agree with
//!    the dense reference solving the same sequence, and the warm-started
//!    [`BatchFeasibility`] front end must never answer differently from the
//!    cold per-observation [`FeasibilityChecker`] — re-solving a
//!    non-confident verdict cold may cost time, never correctness.
//!
//! The vendored proptest shim draws inputs from a deterministic per-test RNG,
//! so these suites are reproducible run-to-run.

use counterpoint::lp::factor::{dot4, dot4_diff, padded, LANES};
use counterpoint::lp::FactorTableau;
use counterpoint::mudd::{CounterSignature, CounterSpace};
use counterpoint::{BatchFeasibility, FeasibilityChecker, ModelCone, Observation};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// The production engine's tolerances, restated independently.  If the
/// constants in `counterpoint-lp` drift, these properties fail and force the
/// reference (and the escalation-contract documentation) to be revisited.
const EPSILON: f64 = 1e-9;
const TOL: f64 = 1e-7;
const FEASIBLE_MARGIN: f64 = -1e-8;
const INFEASIBLE_MARGIN: f64 = 1e-6;
const RISKY_ENTRY: f64 = 1e-8;
const BLAND_AFTER_PER_COLUMN: usize = 2;

/// The deterministic 4-lane fold `Σ a·b`, written independently of the
/// production kernels: four independent lane accumulators over whole chunks,
/// folded as `(l0 + l2) + (l1 + l3)`.
fn fold_dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len() % LANES, 0);
    let mut l = [0.0f64; LANES];
    for (ca, cb) in a.chunks_exact(LANES).zip(b.chunks_exact(LANES)) {
        for lane in 0..LANES {
            l[lane] += ca[lane] * cb[lane];
        }
    }
    (l[0] + l[2]) + (l[1] + l[3])
}

/// The 4-lane difference fold `Σ (a − b)·c` (the flow-column FTRAN shape).
fn fold_dot_diff(a: &[f64], b: &[f64], c: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), c.len());
    assert_eq!(a.len() % LANES, 0);
    let mut l = [0.0f64; LANES];
    for ((ca, cb), cc) in a
        .chunks_exact(LANES)
        .zip(b.chunks_exact(LANES))
        .zip(c.chunks_exact(LANES))
    {
        for lane in 0..LANES {
            l[lane] += (ca[lane] - cb[lane]) * cc[lane];
        }
    }
    (l[0] + l[2]) + (l[1] + l[3])
}

/// Reference counterpart of `FastOutcome`.
#[derive(Debug, PartialEq, Eq)]
struct RefOutcome {
    feasible: bool,
    confident: bool,
}

/// A dense-`B⁻¹` dual simplex over the band system `lo ≤ A·x ≤ hi`, `x ≥ 0`,
/// implementing the same pivot rules as [`FactorTableau`] on the
/// representation it replaced: one interleaved `m × m` basis inverse, updated
/// in place, with every reduction going through the shared 4-lane fold.  The
/// split `ge`/`le` rows the production engine stores are gathered on the fly;
/// the padded tails are fresh `+0.0`, which IEEE addition treats as absorbing,
/// so gathered and stored rows reduce to identical bits.
struct DenseRef {
    n: usize,
    d: usize,
    dpad: usize,
    bands: Vec<Vec<f64>>,
    /// `m × m` interleaved `B⁻¹` (row-major).
    binv: Vec<f64>,
    identity: bool,
    rhs: Vec<f64>,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    farkas: Vec<f64>,
    infeasible: bool,
}

impl DenseRef {
    fn new(n: usize, bands: &[Vec<f64>]) -> DenseRef {
        let d = bands.len();
        let m = 2 * d;
        let mut binv = vec![0.0; m * m];
        for i in 0..m {
            binv[i * m + i] = 1.0;
        }
        let mut in_basis = vec![false; n + m];
        for slot in in_basis.iter_mut().skip(n) {
            *slot = true;
        }
        DenseRef {
            n,
            d,
            dpad: padded(d),
            bands: bands.to_vec(),
            binv,
            identity: true,
            rhs: vec![0.0; m],
            basis: (n..n + m).collect(),
            in_basis,
            farkas: vec![0.0; m],
            infeasible: false,
        }
    }

    fn m(&self) -> usize {
        2 * self.d
    }

    /// Row `i` of `B⁻¹`, gathered into padded per-side buffers
    /// (`ge[k] = B⁻¹[i][2k]`, `le[k] = B⁻¹[i][2k+1]`).
    fn split_row(&self, i: usize) -> (Vec<f64>, Vec<f64>) {
        let m = self.m();
        let mut ge = vec![0.0; self.dpad];
        let mut le = vec![0.0; self.dpad];
        for k in 0..self.d {
            ge[k] = self.binv[i * m + 2 * k];
            le[k] = self.binv[i * m + 2 * k + 1];
        }
        (ge, le)
    }

    /// Column `j` of the band matrix, padded.
    fn band_col(&self, j: usize) -> Vec<f64> {
        let mut c = vec![0.0; self.dpad];
        for (band, slot) in self.bands.iter().zip(c.iter_mut()) {
            *slot = band[j];
        }
        c
    }

    /// Warm dual-simplex resolve under new bounds, switching to Bland's rule
    /// after `BLAND_AFTER_PER_COLUMN · (m + n)` iterations like the production
    /// engine.  Returns `None` if the iteration cap is hit (such cases are
    /// rejected rather than compared).
    fn resolve(&mut self, lo: &[f64], hi: &[f64]) -> Option<RefOutcome> {
        let m = self.m();
        self.infeasible = false;
        let mut neg_lo = vec![0.0; self.dpad];
        let mut hi_pad = vec![0.0; self.dpad];
        for k in 0..self.d {
            neg_lo[k] = -lo[k];
            hi_pad[k] = hi[k];
        }
        if self.identity {
            for k in 0..self.d {
                self.rhs[2 * k] = -lo[k];
                self.rhs[2 * k + 1] = hi[k];
            }
        } else {
            for i in 0..m {
                let (ge, le) = self.split_row(i);
                self.rhs[i] = fold_dot(&ge, &neg_lo) + fold_dot(&le, &hi_pad);
            }
        }
        let bland_after = BLAND_AFTER_PER_COLUMN * (m + self.n);
        for iteration in 1..=10_000 {
            let bland = iteration > bland_after;
            // Leaving row: the first row attaining the strict minimum basic
            // value (Bland: the violated row with the smallest basic column),
            // if that minimum violates the acceptance tolerance.
            let mut leave: Option<usize> = None;
            let mut worst = -TOL;
            let mut min_rhs = f64::INFINITY;
            for (i, &v) in self.rhs.iter().enumerate() {
                min_rhs = min_rhs.min(v);
                if bland {
                    if v < -TOL && leave.is_none_or(|l| self.basis[i] < self.basis[l]) {
                        leave = Some(i);
                    }
                } else if v < worst {
                    worst = v;
                    leave = Some(i);
                }
            }
            let Some(row) = leave else {
                return Some(RefOutcome {
                    feasible: true,
                    confident: m == 0 || min_rhs >= FEASIBLE_MARGIN,
                });
            };

            // Price the leaving row: flow column j carries
            // Σ_k (π_{2k+1} − π_{2k})·A_kj, slack column i carries π_i.
            let (ge, le) = self.split_row(row);
            let mut delta = vec![0.0; self.dpad];
            for k in 0..self.dpad {
                delta[k] = le[k] - ge[k];
            }
            let priced: Vec<(usize, f64)> = (0..self.n)
                .filter(|&j| !self.in_basis[j])
                .map(|j| (j, fold_dot(&delta, &self.band_col(j))))
                .collect();
            // Entering column: the largest-magnitude negative entry (Bland:
            // the first negative entry in column order).
            let slacks = (0..m)
                .filter(|&i| !self.in_basis[self.n + i])
                .map(|i| (self.n + i, self.binv[row * m + i]));
            let mut enter = None;
            let mut best = EPSILON;
            for (j, a) in priced.iter().copied().chain(slacks) {
                if a < -EPSILON && -a > best {
                    enter = Some(j);
                    if bland {
                        break;
                    }
                    best = -a;
                }
            }
            let Some(col) = enter else {
                self.farkas
                    .copy_from_slice(&self.binv[row * m..(row + 1) * m]);
                self.infeasible = true;
                let risky = |a: f64| a != 0.0 && a < RISKY_ENTRY;
                let any_risky = priced.iter().any(|&(_, a)| risky(a))
                    || (0..m).any(|i| !self.in_basis[self.n + i] && risky(self.binv[row * m + i]));
                return Some(RefOutcome {
                    feasible: false,
                    confident: self.rhs[row] <= -INFEASIBLE_MARGIN && !any_risky,
                });
            };

            // FTRAN: the entering column in basis coordinates.
            let mut colbuf = vec![0.0; m];
            if col < self.n {
                let bc = self.band_col(col);
                for (i, c) in colbuf.iter_mut().enumerate() {
                    let (gei, lei) = self.split_row(i);
                    *c = fold_dot_diff(&lei, &gei, &bc);
                }
            } else {
                let s = col - self.n;
                for (i, c) in colbuf.iter_mut().enumerate() {
                    *c = self.binv[i * m + s];
                }
            }

            // Eta elimination on the dense block.
            let inv = 1.0 / colbuf[row];
            for v in &mut self.binv[row * m..(row + 1) * m] {
                *v *= inv;
            }
            self.rhs[row] *= inv;
            for (i, &factor) in colbuf.iter().enumerate() {
                if i == row || factor == 0.0 {
                    continue;
                }
                for s in 0..m {
                    let pivot_val = self.binv[row * m + s];
                    self.binv[i * m + s] -= factor * pivot_val;
                }
                self.rhs[i] -= factor * self.rhs[row];
            }
            self.identity = false;
            let leaving = self.basis[row];
            self.in_basis[leaving] = false;
            self.in_basis[col] = true;
            self.basis[row] = col;
        }
        None
    }

    /// Structural basic values, in row order (mirrors
    /// `FactorTableau::basic_flows`).
    fn basic_flows(&self) -> Vec<(usize, u64)> {
        self.basis
            .iter()
            .zip(self.rhs.iter())
            .filter_map(|(&j, &v)| (j < self.n).then_some((j, v.to_bits())))
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `dot4` reduces exactly like the documented 4-lane fold, whichever
    /// (scalar or AVX) body the runtime dispatch picks.
    #[test]
    fn dot4_matches_four_lane_reference(
        lanes in 1usize..=8,
        a in pvec(-8.0f64..8.0, 32..33),
        b in pvec(-8.0f64..8.0, 32..33),
    ) {
        let len = LANES * lanes;
        let x = &a[..len];
        let y = &b[..len];
        prop_assert_eq!(dot4(x, y).to_bits(), fold_dot(x, y).to_bits());
    }

    /// Same for the difference-dot FTRAN kernel.
    #[test]
    fn dot4_diff_matches_four_lane_reference(
        lanes in 1usize..=8,
        a in pvec(-8.0f64..8.0, 32..33),
        b in pvec(-8.0f64..8.0, 32..33),
        c in pvec(-8.0f64..8.0, 32..33),
    ) {
        let len = LANES * lanes;
        let (x, y, z) = (&a[..len], &b[..len], &c[..len]);
        prop_assert_eq!(
            dot4_diff(x, y, z).to_bits(),
            fold_dot_diff(x, y, z).to_bits()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The LU-updated engine (refactorization disabled, so the eta product is
    /// never rebuilt) matches the dense-`B⁻¹` reference bit for bit across a
    /// warm-started sequence of solves: verdict, confidence, basis, basic
    /// values and Farkas multipliers all compare on exact float bits, for
    /// every pivot sequence the random bounds drive the engines through.
    #[test]
    fn lu_updated_solves_match_dense_reference_bitwise(
        d in 1usize..=3,
        n in 1usize..=6,
        coeffs in pvec(-2.0f64..2.0, 18..19),
        bounds in pvec(-1.5f64..1.5, 24..25),
        num_solves in 1usize..=4,
    ) {
        let bands: Vec<Vec<f64>> = (0..d).map(|k| coeffs[k * n..(k + 1) * n].to_vec()).collect();
        let mut fast = FactorTableau::band(n, &bands);
        fast.set_refactor_interval(usize::MAX);
        let mut dense = DenseRef::new(n, &bands);

        for s in 0..num_solves {
            let base = s * 2 * d;
            let lo: Vec<f64> = (0..d).map(|k| bounds[base + k]).collect();
            let hi: Vec<f64> = (0..d).map(|k| bounds[base + d + k]).collect();

            let Some(reference) = dense.resolve(&lo, &hi) else {
                return Err(TestCaseError::reject("reference hit its iteration cap"));
            };
            let outcome = match fast.resolve(&lo, &hi) {
                Ok(o) => o,
                Err(e) => return Err(TestCaseError::fail(format!(
                    "factorized engine failed where the reference terminated: {e:?}"
                ))),
            };

            prop_assert_eq!(
                RefOutcome { feasible: outcome.feasible, confident: outcome.confident },
                reference,
                "solve {s}: outcome diverged"
            );
            prop_assert_eq!(fast.basis(), dense.basis.as_slice(), "solve {s}: basis diverged");
            let fast_flows: Vec<(usize, u64)> =
                fast.basic_flows().map(|(j, v)| (j, v.to_bits())).collect();
            prop_assert_eq!(fast_flows, dense.basic_flows(), "solve {s}: basic values diverged");
            match fast.farkas_multipliers() {
                Some(pi) => {
                    prop_assert!(dense.infeasible, "solve {s}: only the fast engine certified");
                    let fast_bits: Vec<u64> = pi.iter().map(|v| v.to_bits()).collect();
                    let dense_bits: Vec<u64> = dense.farkas.iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(fast_bits, dense_bits, "solve {s}: Farkas rows diverged");
                }
                None => prop_assert!(
                    !dense.infeasible,
                    "solve {s}: only the reference certified infeasibility"
                ),
            }
        }
    }

    /// With periodic refactorization enabled (random, aggressive intervals so
    /// rebuilds actually trigger), a *confident* verdict always agrees with
    /// the never-refactorizing dense reference on the same warm-started
    /// bounds sequence — the escalation contract `BatchFeasibility` relies
    /// on: only low-confidence verdicts ever need a cold re-solve.
    #[test]
    fn confident_verdicts_match_exact_engine_across_refactorization(
        d in 1usize..=3,
        n in 1usize..=6,
        interval in 1usize..=6,
        coeffs in pvec(-2.0f64..2.0, 18..19),
        bounds in pvec(-1.5f64..1.5, 36..37),
        num_solves in 1usize..=6,
    ) {
        let bands: Vec<Vec<f64>> = (0..d).map(|k| coeffs[k * n..(k + 1) * n].to_vec()).collect();
        let mut fast = FactorTableau::band(n, &bands);
        fast.set_refactor_interval(interval);
        let mut dense = DenseRef::new(n, &bands);

        for s in 0..num_solves {
            let base = s * 2 * d;
            let lo: Vec<f64> = (0..d).map(|k| bounds[base + k]).collect();
            let hi: Vec<f64> = (0..d).map(|k| bounds[base + d + k]).collect();

            let (Ok(outcome), Some(reference)) = (fast.resolve(&lo, &hi), dense.resolve(&lo, &hi))
            else {
                return Err(TestCaseError::reject("an engine hit its iteration limit"));
            };
            if outcome.confident {
                prop_assert_eq!(
                    outcome.feasible,
                    reference.feasible,
                    "solve {s}: confident verdict contradicts the dense reference"
                );
            }
        }
    }
}

/// A hand-picked warm-started bounds sequence over a fixed 3 × 3 band system:
/// loose, tight-but-feasible, infeasible and pinned-band bounds.  Both
/// engines must reach the same verdict on each.
#[test]
fn agrees_with_dense_reference_on_simple_systems() {
    let bands = vec![
        vec![1.0, 2.0, 0.0],
        vec![0.0, 1.0, 1.0],
        vec![3.0, 0.0, 1.0],
    ];
    let mut fast = FactorTableau::band(3, &bands);
    let mut dense = DenseRef::new(3, &bands);
    let cases: [(&[f64], &[f64]); 4] = [
        (&[0.0, 0.0, 0.0], &[10.0, 10.0, 10.0]),
        (&[1.0, 1.0, 1.0], &[5.0, 4.0, 9.0]),
        (&[4.0, -1.0, 2.0], &[6.0, 3.0, 8.0]),
        (&[8.0, 8.0, 1.0], &[9.0, 9.0, 1.5]),
    ];
    for (lo, hi) in cases {
        let f = fast.resolve(lo, hi).expect("fast converges");
        let r = dense.resolve(lo, hi).expect("reference converges");
        assert_eq!(
            f.feasible, r.feasible,
            "verdicts must agree on {lo:?}..{hi:?}"
        );
    }
}

/// Builds a model cone over `dim` counters from raw signature counts.
fn cone_from_counts(dim: usize, num_sigs: usize, sig_data: &[u32]) -> ModelCone {
    let names = ["c0", "c1", "c2", "c3"];
    let space = CounterSpace::new(&names[..dim]);
    let sigs: Vec<CounterSignature> = (0..num_sigs)
        .map(|s| CounterSignature::from_counts(sig_data[s * dim..(s + 1) * dim].to_vec()))
        .collect();
    ModelCone::from_signatures("prop", &space, sigs, num_sigs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cold re-solves never change a verdict: the `BatchFeasibility` front
    /// end — fresh per observation and warm-started across a whole
    /// observation set — answers exactly like the cold per-observation
    /// `FeasibilityChecker` on random cones, random points, and points
    /// constructed to lie inside the cone (nonnegative signature
    /// combinations, so both branches of the verdict get exercised).
    #[test]
    fn two_tier_verdicts_match_always_exact_checker(
        dim in 2usize..=4,
        num_sigs in 1usize..=5,
        sig_data in pvec(0u32..7, 20..21),
        obs_data in pvec(0.0f64..8.0, 24..25),
        weights in pvec(0.0f64..3.0, 5..6),
    ) {
        let cone = cone_from_counts(dim, num_sigs, &sig_data);
        let checker = FeasibilityChecker::new(&cone);

        let mut observations: Vec<Observation> = (0..6)
            .map(|i| Observation::exact(&format!("o{i}"), &obs_data[i * dim..(i + 1) * dim]))
            .collect();
        // Two in-cone points: nonnegative combinations of the signatures.
        for (label, scale) in [("in0", 1.0), ("in1", 0.25)] {
            let mut point = vec![0.0; dim];
            for (s, &w) in weights.iter().take(num_sigs).enumerate() {
                for (k, p) in point.iter_mut().enumerate() {
                    *p += scale * w * f64::from(sig_data[s * dim + k]);
                }
            }
            observations.push(Observation::exact(label, &point));
        }

        let mut warm = BatchFeasibility::new(&cone);
        for obs in &observations {
            let expected = checker.is_feasible(obs);
            prop_assert_eq!(
                BatchFeasibility::new(&cone).is_feasible(obs),
                expected,
                "fresh engine verdict diverged on {}",
                obs.name()
            );
            prop_assert_eq!(
                warm.is_feasible(obs),
                expected,
                "warm engine verdict diverged on {}",
                obs.name()
            );
        }
    }
}
