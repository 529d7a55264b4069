//! A warm-startable dual-simplex solver for band feasibility systems.
//!
//! The paper's CounterPoint implementation relies on an off-the-shelf LP toolkit
//! (`pulp`/CBC) for two tasks:
//!
//! * **feasibility testing** — deciding whether the counter confidence region
//!   intersects the model cone (Appendix A's linear program over μpath flows), and
//! * **redundancy elimination** — detecting μpath counter signatures that lie in the
//!   interior of the model cone during constraint deduction.
//!
//! Both are feasibility questions over non-negative flows: is there an
//! `x ≥ 0` with `lo ≤ A·x ≤ hi`?  (Redundancy elimination is the `lo == hi`
//! special case.)  [`FactorTableau`] answers exactly that with a dual simplex
//! on a product-form factorization, warm-started across bound changes, and
//! reports the Farkas multipliers of every infeasible verdict.
//!
//! # Example
//!
//! ```
//! use counterpoint_lp::FactorTableau;
//!
//! // Is there x, y ≥ 0 with 2 ≤ x + 2y ≤ 4 and 1 ≤ 3x + y ≤ 6?
//! let mut lp = FactorTableau::band(2, &[vec![1.0, 2.0], vec![3.0, 1.0]]);
//! let outcome = lp.resolve(&[2.0, 1.0], &[4.0, 6.0]).expect("converges");
//! assert!(outcome.feasible && outcome.confident);
//!
//! // Tightening the second band to 3x + y ≤ -1 leaves no non-negative point;
//! // the warm resolve says so and keeps the Farkas multipliers.
//! let outcome = lp.resolve(&[2.0, -5.0], &[4.0, -1.0]).expect("converges");
//! assert!(!outcome.feasible);
//! assert!(lp.farkas_multipliers().is_some());
//! ```

pub mod factor;

pub use factor::{FactorTableau, FastOutcome, LpError};
