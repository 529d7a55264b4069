//! The dual-simplex core: a product-form factorization of the band-system
//! basis laid out for SIMD-friendly column scans.
//!
//! A textbook revised simplex keeps `B⁻¹` as one dense `m × m` block whose
//! hot loops (BTRAN pricing, FTRAN, the per-solve `B⁻¹·b` product) read it
//! with stride-2 access patterns and reduce with strictly serial float sums —
//! neither of which the compiler may vectorize, because reassociating an f64
//! reduction changes its rounding.  [`FactorTableau`] answers the band
//! feasibility question with a representation chosen for hardware speed:
//!
//! * `B⁻¹` is split by band side into two `m × d̂` blocks (`d̂` = bands padded
//!   to the SIMD lane width): `ge[i][k] = B⁻¹[i][2k]` covers the `≥ lo` rows
//!   and `le[i][k] = B⁻¹[i][2k+1]` the `≤ hi` rows.  Every hot product —
//!   `B⁻¹·b`, the pricing deltas `π_{2k+1} − π_{2k}`, the flow-column FTRAN —
//!   becomes a pair of contiguous, lane-parallel scans instead of a strided
//!   gather.
//! * All reductions go through one deterministic 4-lane kernel ([`dot4`] and
//!   friends), so results are reproducible across runs and platforms while
//!   still compiling to packed adds/multiplies.
//! * Pivots apply eager product-form (eta) updates to the two blocks, and the
//!   factorization is periodically rebuilt from scratch — reset to the slack
//!   identity, then the current basis replayed — to keep accumulated rounding
//!   error bounded on long warm-start windows.  Each rebuild fires the
//!   `lp_refactorizations` telemetry counter.
//!
//! The verdict of a solve carries a *confidence* bit: when the terminal
//! margin is near-degenerate (a tolerated-negative basic value on a feasible
//! exit, or a thin Farkas margin on an infeasible one), the caller is told
//! not to trust a warm-started answer.  `BatchFeasibility` in
//! `counterpoint-core` re-solves such instances cold, from the all-slack
//! basis, and accepts that answer.

use counterpoint_telemetry as telemetry;
use std::fmt;

/// f64 lanes the kernels reduce in parallel; band counts are padded up to a
/// multiple of this so every row scan runs in whole chunks.
pub const LANES: usize = 4;

/// Rounds a band count up to a whole number of SIMD lanes.
#[inline]
pub fn padded(d: usize) -> usize {
    d.div_ceil(LANES) * LANES
}

/// Whether the 4-lane kernels may run their AVX-compiled bodies.
///
/// The AVX bodies are the *same Rust code* compiled with 256-bit registers
/// enabled: every lane performs the identical IEEE multiply and add (Rust
/// never licenses FMA contraction), so scalar and AVX results are
/// bit-identical and the dispatch is purely a throughput choice.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx_available() -> bool {
    std::arch::is_x86_feature_detected!("avx")
}

/// The deterministic 4-lane dot product `Σ a[i]·b[i]` over padded slices.
///
/// Accumulates into four independent lanes and folds them as
/// `(l0 + l2) + (l1 + l3)` — a fixed association, so the result is
/// bit-reproducible everywhere, while the independent lanes let the compiler
/// emit packed multiply-adds.  Both slices must have the same padded length.
#[inline]
pub fn dot4(a: &[f64], b: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if avx_available() {
        // SAFETY: AVX support was just verified at runtime.
        return unsafe { dot4_avx(a, b) };
    }
    dot4_generic(a, b)
}

#[inline]
fn dot4_generic(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len() % LANES, 0);
    let mut acc = [0.0f64; LANES];
    for (ca, cb) in a.chunks_exact(LANES).zip(b.chunks_exact(LANES)) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    (acc[0] + acc[2]) + (acc[1] + acc[3])
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
// SAFETY: caller must have verified AVX support at runtime (dot4 dispatch).
unsafe fn dot4_avx(a: &[f64], b: &[f64]) -> f64 {
    // SAFETY: caller verified AVX; lengths are equal whole-lane multiples.
    unsafe { avx::dot(a, b) }
}

/// The deterministic 4-lane difference dot `Σ (a[i] − b[i])·c[i]` — the
/// flow-column FTRAN kernel (`a` = `≤`-side row, `b` = `≥`-side row, `c` = the
/// band column).  Same lane discipline as [`dot4`].
#[inline]
pub fn dot4_diff(a: &[f64], b: &[f64], c: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if avx_available() {
        // SAFETY: AVX support was just verified at runtime.
        return unsafe { dot4_diff_avx(a, b, c) };
    }
    dot4_diff_generic(a, b, c)
}

#[inline]
fn dot4_diff_generic(a: &[f64], b: &[f64], c: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), c.len());
    debug_assert_eq!(a.len() % LANES, 0);
    let mut acc = [0.0f64; LANES];
    for ((ca, cb), cc) in a
        .chunks_exact(LANES)
        .zip(b.chunks_exact(LANES))
        .zip(c.chunks_exact(LANES))
    {
        acc[0] += (ca[0] - cb[0]) * cc[0];
        acc[1] += (ca[1] - cb[1]) * cc[1];
        acc[2] += (ca[2] - cb[2]) * cc[2];
        acc[3] += (ca[3] - cb[3]) * cc[3];
    }
    (acc[0] + acc[2]) + (acc[1] + acc[3])
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
// SAFETY: caller must have verified AVX support at runtime (dot4_diff dispatch).
unsafe fn dot4_diff_avx(a: &[f64], b: &[f64], c: &[f64]) -> f64 {
    // SAFETY: caller verified AVX; lengths are equal whole-lane multiples.
    unsafe { avx::dot_diff(a, b, c) }
}

/// BTRAN: `rhs[i] = ge_i·neg_lo + le_i·hi` for every row of the split
/// blocks.  One AVX dispatch covers the whole `m`-row sweep.
#[inline]
fn rhs_into(rhs: &mut [f64], ge: &[f64], le: &[f64], neg_lo: &[f64], hi: &[f64], dpad: usize) {
    #[cfg(target_arch = "x86_64")]
    if avx_available() {
        // SAFETY: AVX support was just verified at runtime.
        return unsafe { rhs_into_avx(rhs, ge, le, neg_lo, hi, dpad) };
    }
    rhs_into_generic(rhs, ge, le, neg_lo, hi, dpad);
}

#[inline]
fn rhs_into_generic(
    rhs: &mut [f64],
    ge: &[f64],
    le: &[f64],
    neg_lo: &[f64],
    hi: &[f64],
    dpad: usize,
) {
    for (i, r) in rhs.iter_mut().enumerate() {
        let ge_row = &ge[i * dpad..(i + 1) * dpad];
        let le_row = &le[i * dpad..(i + 1) * dpad];
        *r = dot4_generic(ge_row, neg_lo) + dot4_generic(le_row, hi);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
// SAFETY: caller must have verified AVX support at runtime (rhs_into dispatch).
unsafe fn rhs_into_avx(
    rhs: &mut [f64],
    ge: &[f64],
    le: &[f64],
    neg_lo: &[f64],
    hi: &[f64],
    dpad: usize,
) {
    for (i, r) in rhs.iter_mut().enumerate() {
        let ge_row = &ge[i * dpad..(i + 1) * dpad];
        let le_row = &le[i * dpad..(i + 1) * dpad];
        // SAFETY: caller verified AVX; rows are whole-lane multiples.
        *r = unsafe { avx::dot(ge_row, neg_lo) + avx::dot(le_row, hi) };
    }
}

/// Pricing sweep over the listed structural columns:
/// `rowbuf[p] = delta · bands_t[cols[p]]`.  Basic columns never enter, so the
/// caller prices only the nonbasic list — each listed column's dot is
/// bit-identical to a full sweep's, just not computed for masked-out columns.
/// One AVX dispatch covers the whole list.
#[inline]
fn price_listed(rowbuf: &mut [f64], bands_t: &[f64], cols: &[usize], delta: &[f64], dpad: usize) {
    #[cfg(target_arch = "x86_64")]
    if avx_available() {
        // SAFETY: AVX support was just verified at runtime.
        return unsafe { price_listed_avx(rowbuf, bands_t, cols, delta, dpad) };
    }
    price_listed_generic(rowbuf, bands_t, cols, delta, dpad);
}

#[inline]
fn price_listed_generic(
    rowbuf: &mut [f64],
    bands_t: &[f64],
    cols: &[usize],
    delta: &[f64],
    dpad: usize,
) {
    for (buf, &j) in rowbuf.iter_mut().zip(cols) {
        *buf = dot4_generic(delta, &bands_t[j * dpad..(j + 1) * dpad]);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
// SAFETY: caller must have verified AVX support at runtime (price_listed dispatch).
unsafe fn price_listed_avx(
    rowbuf: &mut [f64],
    bands_t: &[f64],
    cols: &[usize],
    delta: &[f64],
    dpad: usize,
) {
    // SAFETY: caller verified AVX; every column row is a whole-lane multiple.
    unsafe { avx::price_listed(rowbuf, bands_t, cols, delta, dpad) }
}

/// Flow-column FTRAN: `colbuf[i] = (le_i − ge_i)·band_col` for every row.
#[inline]
fn ftran_into(colbuf: &mut [f64], ge: &[f64], le: &[f64], band_col: &[f64], dpad: usize) {
    #[cfg(target_arch = "x86_64")]
    if avx_available() {
        // SAFETY: AVX support was just verified at runtime.
        return unsafe { ftran_into_avx(colbuf, ge, le, band_col, dpad) };
    }
    ftran_into_generic(colbuf, ge, le, band_col, dpad);
}

#[inline]
fn ftran_into_generic(colbuf: &mut [f64], ge: &[f64], le: &[f64], band_col: &[f64], dpad: usize) {
    for (i, c) in colbuf.iter_mut().enumerate() {
        let ge_row = &ge[i * dpad..(i + 1) * dpad];
        let le_row = &le[i * dpad..(i + 1) * dpad];
        *c = dot4_diff_generic(le_row, ge_row, band_col);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
// SAFETY: caller must have verified AVX support at runtime (ftran_into dispatch).
unsafe fn ftran_into_avx(
    colbuf: &mut [f64],
    ge: &[f64],
    le: &[f64],
    band_col: &[f64],
    dpad: usize,
) {
    for (i, c) in colbuf.iter_mut().enumerate() {
        let ge_row = &ge[i * dpad..(i + 1) * dpad];
        let le_row = &le[i * dpad..(i + 1) * dpad];
        // SAFETY: caller verified AVX; rows are whole-lane multiples.
        *c = unsafe { avx::dot_diff(le_row, ge_row, band_col) };
    }
}

/// Dantzig leaving-row scan: the first row attaining the minimum basic value,
/// if that minimum violates `-tol`, plus the minimum itself (the feasible
/// exit's confidence margin).  Equal minima resolve to the lowest row index in
/// both bodies, so the scalar and AVX scans select identical rows.
#[inline]
fn find_leave(rhs: &[f64], tol: f64) -> (Option<usize>, f64) {
    #[cfg(target_arch = "x86_64")]
    if avx_available() {
        // SAFETY: AVX support was just verified at runtime.
        return unsafe { find_leave_avx(rhs, tol) };
    }
    find_leave_generic(rhs, tol)
}

#[inline]
fn find_leave_generic(rhs: &[f64], tol: f64) -> (Option<usize>, f64) {
    let mut leave: Option<usize> = None;
    let mut worst = -tol;
    let mut min_rhs = f64::INFINITY;
    for (i, &v) in rhs.iter().enumerate() {
        min_rhs = min_rhs.min(v);
        if v < worst {
            worst = v;
            leave = Some(i);
        }
    }
    (leave, min_rhs)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
// SAFETY: caller must have verified AVX support at runtime (find_leave dispatch).
unsafe fn find_leave_avx(rhs: &[f64], tol: f64) -> (Option<usize>, f64) {
    // SAFETY: caller verified AVX; loads stay within the slice.
    let min_rhs = unsafe { avx::min_value(rhs) };
    if min_rhs < -tol {
        (rhs.iter().position(|&v| v == min_rhs), min_rhs)
    } else {
        (None, min_rhs)
    }
}

/// Eta elimination: scales the pivot row by `1/colbuf[row]` and subtracts its
/// multiple from every other row of both split blocks and the rhs.
#[inline]
fn pivot_update(
    ge: &mut [f64],
    le: &mut [f64],
    rhs: &mut [f64],
    colbuf: &[f64],
    row: usize,
    dpad: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if avx_available() {
        // SAFETY: AVX support was just verified at runtime.
        return unsafe { pivot_update_avx(ge, le, rhs, colbuf, row, dpad) };
    }
    pivot_update_generic(ge, le, rhs, colbuf, row, dpad);
}

#[inline]
fn pivot_update_generic(
    ge: &mut [f64],
    le: &mut [f64],
    rhs: &mut [f64],
    colbuf: &[f64],
    row: usize,
    dpad: usize,
) {
    let m = rhs.len();
    let inv = 1.0 / colbuf[row];
    for v in &mut ge[row * dpad..(row + 1) * dpad] {
        *v *= inv;
    }
    for v in &mut le[row * dpad..(row + 1) * dpad] {
        *v *= inv;
    }
    rhs[row] *= inv;
    for i in 0..m {
        if i == row {
            continue;
        }
        let factor = colbuf[i];
        if factor == 0.0 {
            continue;
        }
        axpy_row(ge, row, i, dpad, factor);
        axpy_row(le, row, i, dpad, factor);
        rhs[i] -= factor * rhs[row];
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
// SAFETY: caller must have verified AVX support at runtime (pivot_update dispatch).
unsafe fn pivot_update_avx(
    ge: &mut [f64],
    le: &mut [f64],
    rhs: &mut [f64],
    colbuf: &[f64],
    row: usize,
    dpad: usize,
) {
    let m = rhs.len();
    let inv = 1.0 / colbuf[row];
    // SAFETY: caller verified AVX; rows are whole-lane multiples.
    unsafe {
        avx::scale(&mut ge[row * dpad..(row + 1) * dpad], inv);
        avx::scale(&mut le[row * dpad..(row + 1) * dpad], inv);
    }
    rhs[row] *= inv;
    for i in 0..m {
        if i == row {
            continue;
        }
        let factor = colbuf[i];
        if factor == 0.0 {
            continue;
        }
        // SAFETY: as above.
        unsafe {
            avx::axpy_row(ge, row, i, dpad, factor);
            avx::axpy_row(le, row, i, dpad, factor);
        }
        rhs[i] -= factor * rhs[row];
    }
}

/// Explicit 256-bit bodies of the 4-lane kernels.
///
/// Each function performs, lane for lane, the identical IEEE multiplies and
/// adds as its `*_generic` counterpart — one `f64x4` register holds the four
/// accumulator lanes, and the fold `(l0 + l2) + (l1 + l3)` is reproduced with
/// a 128-bit high/low add followed by a scalar add — so results are
/// bit-identical to the scalar code on every input.  Written with intrinsics
/// because LLVM's generic x86-64 tuning splits the autovectorized bodies into
/// 128-bit halves, leaving the serial accumulator latency chain as the
/// bottleneck; [`price_into`](avx::price_into) additionally prices four
/// columns per pass so four independent chains keep the pipeline full.
#[cfg(target_arch = "x86_64")]
mod avx {
    use super::LANES;
    use core::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_castpd256_pd128, _mm256_extractf128_pd, _mm256_loadu_pd,
        _mm256_min_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd,
        _mm256_sub_pd, _mm_add_pd, _mm_add_sd, _mm_cvtsd_f64, _mm_min_pd, _mm_min_sd,
        _mm_unpackhi_pd,
    };

    /// Folds the four accumulator lanes as `(l0 + l2) + (l1 + l3)`.
    #[inline]
    // SAFETY: requires AVX; callers are themselves #[target_feature(enable = "avx")].
    unsafe fn fold(acc: __m256d) -> f64 {
        // SAFETY: pure register arithmetic, caller ensures AVX.
        unsafe {
            let lo = _mm256_castpd256_pd128(acc);
            let hi = _mm256_extractf128_pd(acc, 1);
            let pair = _mm_add_pd(lo, hi);
            _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)))
        }
    }

    /// # Safety
    ///
    /// Requires AVX; `a.len() == b.len()` and a whole multiple of [`LANES`].
    #[target_feature(enable = "avx")]
    pub unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        debug_assert_eq!(a.len() % LANES, 0);
        // SAFETY: every load stays within the asserted slice lengths.
        unsafe {
            let mut acc = _mm256_setzero_pd();
            let mut k = 0;
            while k < a.len() {
                let va = _mm256_loadu_pd(a.as_ptr().add(k));
                let vb = _mm256_loadu_pd(b.as_ptr().add(k));
                acc = _mm256_add_pd(acc, _mm256_mul_pd(va, vb));
                k += LANES;
            }
            fold(acc)
        }
    }

    /// # Safety
    ///
    /// Requires AVX; all three slices share one whole-lane length.
    #[target_feature(enable = "avx")]
    pub unsafe fn dot_diff(a: &[f64], b: &[f64], c: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        debug_assert_eq!(a.len(), c.len());
        debug_assert_eq!(a.len() % LANES, 0);
        // SAFETY: every load stays within the asserted slice lengths.
        unsafe {
            let mut acc = _mm256_setzero_pd();
            let mut k = 0;
            while k < a.len() {
                let va = _mm256_loadu_pd(a.as_ptr().add(k));
                let vb = _mm256_loadu_pd(b.as_ptr().add(k));
                let vc = _mm256_loadu_pd(c.as_ptr().add(k));
                acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_sub_pd(va, vb), vc));
                k += LANES;
            }
            fold(acc)
        }
    }

    /// Prices four listed columns per pass — four independent accumulator
    /// chains sharing one set of `delta` loads — with a single-column tail for
    /// the remainder.
    ///
    /// # Safety
    ///
    /// Requires AVX; every entry of `cols` indexes a `dpad`-wide row of
    /// `bands_t`, `rowbuf.len() == cols.len()`, and `delta.len() == dpad`, a
    /// whole multiple of [`LANES`].
    #[target_feature(enable = "avx")]
    pub unsafe fn price_listed(
        rowbuf: &mut [f64],
        bands_t: &[f64],
        cols: &[usize],
        delta: &[f64],
        dpad: usize,
    ) {
        debug_assert_eq!(delta.len(), dpad);
        debug_assert_eq!(dpad % LANES, 0);
        debug_assert_eq!(rowbuf.len(), cols.len());
        debug_assert!(cols.iter().all(|&j| (j + 1) * dpad <= bands_t.len()));
        let n = cols.len();
        // SAFETY: every load stays within the asserted slice lengths.
        unsafe {
            let mut p = 0;
            while p + 4 <= n {
                let b0 = bands_t.as_ptr().add(cols[p] * dpad);
                let b1 = bands_t.as_ptr().add(cols[p + 1] * dpad);
                let b2 = bands_t.as_ptr().add(cols[p + 2] * dpad);
                let b3 = bands_t.as_ptr().add(cols[p + 3] * dpad);
                let mut acc0 = _mm256_setzero_pd();
                let mut acc1 = _mm256_setzero_pd();
                let mut acc2 = _mm256_setzero_pd();
                let mut acc3 = _mm256_setzero_pd();
                let mut k = 0;
                while k < dpad {
                    let d = _mm256_loadu_pd(delta.as_ptr().add(k));
                    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d, _mm256_loadu_pd(b0.add(k))));
                    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d, _mm256_loadu_pd(b1.add(k))));
                    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(d, _mm256_loadu_pd(b2.add(k))));
                    acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(d, _mm256_loadu_pd(b3.add(k))));
                    k += LANES;
                }
                rowbuf[p] = fold(acc0);
                rowbuf[p + 1] = fold(acc1);
                rowbuf[p + 2] = fold(acc2);
                rowbuf[p + 3] = fold(acc3);
                p += 4;
            }
            while p < n {
                let j = cols[p];
                rowbuf[p] = dot(delta, &bands_t[j * dpad..(j + 1) * dpad]);
                p += 1;
            }
        }
    }

    /// Minimum over a (possibly non-whole-lane) slice, `∞` when empty.
    /// All inputs are finite in this solver (the bounds come from finite
    /// confidence regions), for which packed and scalar minima agree.
    ///
    /// # Safety
    ///
    /// Requires AVX.
    #[target_feature(enable = "avx")]
    pub unsafe fn min_value(values: &[f64]) -> f64 {
        let whole = values.len() / LANES * LANES;
        let mut min = f64::INFINITY;
        // SAFETY: every load stays within the whole-lane prefix.
        unsafe {
            if whole > 0 {
                let mut acc = _mm256_loadu_pd(values.as_ptr());
                let mut k = LANES;
                while k < whole {
                    acc = _mm256_min_pd(acc, _mm256_loadu_pd(values.as_ptr().add(k)));
                    k += LANES;
                }
                let lo = _mm256_castpd256_pd128(acc);
                let hi = _mm256_extractf128_pd(acc, 1);
                let pair = _mm_min_pd(lo, hi);
                min = _mm_cvtsd_f64(_mm_min_sd(pair, _mm_unpackhi_pd(pair, pair)));
            }
        }
        for &v in &values[whole..] {
            min = min.min(v);
        }
        min
    }

    /// In-place `row *= factor`.
    ///
    /// # Safety
    ///
    /// Requires AVX; `row.len()` is a whole multiple of [`LANES`].
    #[target_feature(enable = "avx")]
    pub unsafe fn scale(row: &mut [f64], factor: f64) {
        debug_assert_eq!(row.len() % LANES, 0);
        // SAFETY: every access stays within the asserted slice length.
        unsafe {
            let f = _mm256_set1_pd(factor);
            let mut k = 0;
            while k < row.len() {
                let p = row.as_mut_ptr().add(k);
                _mm256_storeu_pd(p, _mm256_mul_pd(_mm256_loadu_pd(p), f));
                k += LANES;
            }
        }
    }

    /// `block[target] −= factor · block[source]` over one `dpad`-wide row,
    /// mirroring [`super::axpy_row`].
    ///
    /// # Safety
    ///
    /// Requires AVX; `source != target`, both rows in bounds, `dpad` a whole
    /// multiple of [`LANES`].
    #[target_feature(enable = "avx")]
    pub unsafe fn axpy_row(
        block: &mut [f64],
        source: usize,
        target: usize,
        dpad: usize,
        factor: f64,
    ) {
        debug_assert!(source != target);
        debug_assert!((source + 1) * dpad <= block.len());
        debug_assert!((target + 1) * dpad <= block.len());
        debug_assert_eq!(dpad % LANES, 0);
        // SAFETY: the rows are disjoint (asserted) and in bounds.
        unsafe {
            let f = _mm256_set1_pd(factor);
            let src = block.as_ptr().add(source * dpad);
            let dst = block.as_mut_ptr().add(target * dpad);
            let mut k = 0;
            while k < dpad {
                let t = _mm256_loadu_pd(dst.add(k));
                let s = _mm256_loadu_pd(src.add(k));
                _mm256_storeu_pd(dst.add(k), _mm256_sub_pd(t, _mm256_mul_pd(f, s)));
                k += LANES;
            }
        }
    }
}

/// The verdict of a [`FactorTableau::resolve`]: the f64 decision plus whether
/// its terminal margin is wide enough to trust without a cold re-solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FastOutcome {
    /// `true` when the band system is feasible under the given bounds.
    pub feasible: bool,
    /// `false` when the verdict was decided by a quantity within the
    /// near-degenerate band of its threshold — callers should re-solve cold
    /// (from the all-slack basis) instead of trusting a warm answer.
    pub confident: bool,
}

/// Errors raised while solving a band system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LpError {
    /// The simplex iteration limit was exceeded (numerical cycling).
    IterationLimit,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

/// How many pivots may accumulate on the product-form factorization before it
/// is rebuilt from the slack identity at the next solve boundary.
const REFACTOR_INTERVAL: usize = 64;

/// Margin below which an infeasible verdict is considered near-degenerate:
/// the stuck row's violation must clear the acceptance tolerance by at least
/// this much (≈10× the tolerance), mirroring the engine-level
/// `CERTIFICATE_MARGIN` discipline.
const INFEASIBLE_MARGIN: f64 = 1e-6;

/// A feasible exit is near-degenerate when some basic value is below this:
/// the acceptance tolerance is `-1e-7`, so a value in `[-1e-7, -1e-8)` sits
/// within one order of magnitude of flipping the verdict under exact
/// arithmetic, while anything above `-1e-8` would need five orders of
/// magnitude of accumulated error (bounded far lower by periodic
/// refactorization) to flip.
const FEASIBLE_MARGIN: f64 = -1e-8;

/// A rejected entering candidate whose coefficient lies in `(0, RISKY_ENTRY)`
/// (or is tolerated-negative) makes an infeasible verdict near-degenerate:
/// exact arithmetic could flip its sign past the `-1e-9` pivot tolerance.
/// Exact zeros are structural — disjoint generator supports — and carry no
/// rounding risk, so they stay confident.
const RISKY_ENTRY: f64 = 1e-8;

/// Dual-simplex iterations allowed per column (`m + n`) before pivot
/// selection switches from the largest-magnitude rule to Bland's rule.  A
/// solve that does not cycle finishes well inside one pass — the case-study
/// systems (52 rows, 50–700 flows) take at most ~90 pivots — while a cycling
/// one would otherwise spin until half the iteration limit.
const BLAND_AFTER_PER_COLUMN: usize = 2;

/// Warm dual-simplex feasibility of the band system `lo ≤ A·x ≤ hi`, `x ≥ 0`,
/// on the split product-form factorization described in the module docs.
///
/// Columns are numbered structural flows first, then band slacks in row
/// order; a basis recorded by one tableau ([`basis`](FactorTableau::basis))
/// seeds another over the same columns
/// ([`resolve_with_basis`](FactorTableau::resolve_with_basis)).
#[derive(Clone, Debug)]
pub struct FactorTableau {
    num_vars: usize,
    num_bands: usize,
    /// Bands padded to a whole number of lanes; the padded tail of every row
    /// and column is zero, so padded products are exact no-ops.
    dpad: usize,
    /// The band matrix `A`, transposed and padded (`num_vars × dpad`,
    /// row-major): `bands_t[j·dpad + k] = A[k][j]`.
    bands_t: Vec<f64>,
    /// `≥`-side columns of `B⁻¹` (`m × dpad`): `ge[i·dpad + k] = B⁻¹[i][2k]`.
    ge: Vec<f64>,
    /// `≤`-side columns of `B⁻¹` (`m × dpad`): `le[i·dpad + k] = B⁻¹[i][2k+1]`.
    le: Vec<f64>,
    /// `true` while `B⁻¹` is still the slack identity.
    identity: bool,
    /// `B⁻¹·b` for the most recent bounds.
    rhs: Vec<f64>,
    /// Basic column per row (`j < num_vars`: flow `j`; otherwise slack
    /// `j − num_vars`).
    basis: Vec<usize>,
    /// `in_basis[j]` mirrors `basis` for O(1) membership tests.
    in_basis: Vec<bool>,
    /// Nonbasic structural columns in ascending order — the only candidates a
    /// pricing pass must touch.  Kept sorted so entering-column selection
    /// scans candidates in the same column order as a full sweep would.
    nonbasic: Vec<usize>,
    /// Eta updates applied since the factorization was last rebuilt.
    pivots_since_refactor: usize,
    /// Row that certified infeasibility on the most recent resolve, if any.
    infeasible_row: Option<usize>,
    /// The stuck row's multipliers in interleaved row order (`π_0 … π_{m−1}`),
    /// captured at the moment infeasibility was certified.
    farkas: Vec<f64>,
    /// Padded copies of the current bounds (`-lo` on the `≥` side).
    neg_lo_pad: Vec<f64>,
    hi_pad: Vec<f64>,
    /// Scratch: per-band multiplier differences of the leaving row (padded).
    delta: Vec<f64>,
    /// Scratch: the leaving row's structural coefficients.
    rowbuf: Vec<f64>,
    /// Scratch: the entering column in basis coordinates (`B⁻¹·a`).
    colbuf: Vec<f64>,
    epsilon: f64,
    max_iterations: usize,
    refactor_interval: usize,
}

impl FactorTableau {
    /// Builds a factorized tableau for the band system `lo ≤ A·x ≤ hi` over
    /// `x ≥ 0`, starting from the all-slack basis.  `bands` holds the rows of
    /// `A`.
    ///
    /// # Panics
    ///
    /// Panics if any band row's length differs from `num_vars`.
    pub fn band(num_vars: usize, bands: &[Vec<f64>]) -> FactorTableau {
        let d = bands.len();
        let dpad = padded(d);
        let m = 2 * d;
        let mut tableau = FactorTableau {
            num_vars,
            num_bands: d,
            dpad,
            bands_t: vec![0.0; num_vars * dpad],
            ge: vec![0.0; m * dpad],
            le: vec![0.0; m * dpad],
            identity: true,
            rhs: vec![0.0; m],
            basis: Vec::new(),
            in_basis: vec![false; num_vars + m],
            nonbasic: Vec::new(),
            pivots_since_refactor: 0,
            infeasible_row: None,
            farkas: vec![0.0; m],
            neg_lo_pad: vec![0.0; dpad],
            hi_pad: vec![0.0; dpad],
            delta: vec![0.0; dpad],
            rowbuf: vec![0.0; num_vars],
            colbuf: vec![0.0; m],
            epsilon: 1e-9,
            max_iterations: 50_000,
            refactor_interval: REFACTOR_INTERVAL,
        };
        tableau.rebind(bands);
        tableau
    }

    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of bands (the system has `2 · num_bands` rows).
    pub fn num_bands(&self) -> usize {
        self.num_bands
    }

    /// Overrides the numerical tolerance (default `1e-9`).
    pub fn set_epsilon(&mut self, epsilon: f64) {
        self.epsilon = epsilon;
    }

    /// Overrides the dual-simplex iteration limit (default 50 000).
    pub fn set_max_iterations(&mut self, limit: usize) {
        self.max_iterations = limit;
    }

    /// Overrides how many eta updates may accumulate before the factorization
    /// is rebuilt at the next solve boundary (default 64).  `usize::MAX`
    /// disables periodic refactorization — the differential tests use this to
    /// compare against a never-refactorizing reference.
    pub fn set_refactor_interval(&mut self, interval: usize) {
        self.refactor_interval = interval.max(1);
    }

    /// The current basis (one column index per row): flows `0..num_vars`,
    /// then slack `i` as column `num_vars + i`.
    pub fn basis(&self) -> &[usize] {
        &self.basis
    }

    /// Replaces the band matrix with one of the same shape and resets the
    /// factorization to the all-slack identity, reusing every allocation.
    ///
    /// # Panics
    ///
    /// Panics if the number of bands or a row length differs from the shape
    /// the tableau was built with.
    pub fn rebind(&mut self, bands: &[Vec<f64>]) {
        assert_eq!(bands.len(), self.num_bands, "band count changed in rebind");
        let n = self.num_vars;
        let dpad = self.dpad;
        self.bands_t.fill(0.0);
        for (k, src) in bands.iter().enumerate() {
            assert_eq!(
                src.len(),
                n,
                "band {k} has {} coefficients, expected {n}",
                src.len()
            );
            for (j, &a) in src.iter().enumerate() {
                self.bands_t[j * dpad + k] = a;
            }
        }
        self.reset_to_identity();
        telemetry::add(telemetry::Metric::LpRefactorizations, 1);
    }

    /// Resets `B⁻¹` to the slack identity and the basis to all-slack without
    /// touching the band matrix.
    fn reset_to_identity(&mut self) {
        let n = self.num_vars;
        let d = self.num_bands;
        let dpad = self.dpad;
        self.ge.fill(0.0);
        self.le.fill(0.0);
        for k in 0..d {
            // Row 2k is the `≥` row of band k, row 2k+1 the `≤` row.
            self.ge[(2 * k) * dpad + k] = 1.0;
            self.le[(2 * k + 1) * dpad + k] = 1.0;
        }
        self.identity = true;
        self.in_basis.fill(false);
        for slot in self.in_basis.iter_mut().skip(n) {
            *slot = true;
        }
        self.basis.clear();
        self.basis.extend(n..n + 2 * d);
        self.nonbasic.clear();
        self.nonbasic.extend(0..n);
        self.infeasible_row = None;
        self.pivots_since_refactor = 0;
    }

    /// Rebuilds the factorization from scratch: resets to the slack identity
    /// and replays the current basis column by column.  Columns whose replayed
    /// pivot element is too small are dropped (their row keeps its slack) —
    /// the dual simplex restores feasibility from whatever basis survives.
    fn refactorize(&mut self) {
        let saved: Vec<usize> = self.basis.clone();
        self.reset_to_identity();
        self.install_basis(&saved);
        telemetry::add(telemetry::Metric::LpRefactorizations, 1);
    }

    /// Replays `basis` onto the current factorization, skipping already-basic
    /// and numerically unusable columns.  Returns the number of pivots
    /// replayed.
    fn install_basis(&mut self, basis: &[usize]) -> u64 {
        let total = self.num_vars + 2 * self.num_bands;
        let pivot_tol = self.epsilon.max(1e-7);
        let mut replayed = 0u64;
        for (row, &col) in basis.iter().enumerate() {
            if col >= total || self.basis[row] == col || self.in_basis[col] {
                continue;
            }
            self.load_column(col);
            if self.colbuf[row].abs() > pivot_tol {
                self.pivot(row, col);
                replayed += 1;
            }
        }
        replayed
    }

    /// The structural (flow) variables that are basic in the current basis,
    /// with their values after the most recent resolve.  Values can be
    /// marginally negative (within the feasibility tolerance); callers should
    /// clamp.
    pub fn basic_flows(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.basis
            .iter()
            .zip(self.rhs.iter())
            .filter_map(|(&j, &v)| (j < self.num_vars).then_some((j, v)))
    }

    /// The Farkas multipliers `π` of the most recent infeasible resolve, in
    /// interleaved row order (`π_{2k}` for the `≥ lo_k` row, `π_{2k+1}` for
    /// the `≤ hi_k` row).
    /// `None` if the last resolve was feasible (or none has run).
    pub fn farkas_multipliers(&self) -> Option<&[f64]> {
        self.infeasible_row.map(|_| self.farkas.as_slice())
    }

    /// Decides feasibility of the band system under new bounds, warm-starting
    /// from the basis the previous call ended in.  Rebuilds the factorization
    /// first when enough eta updates have accumulated.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::IterationLimit`] if the dual simplex fails to
    /// converge; callers should fall back to a cold solve.
    ///
    /// # Panics
    ///
    /// Panics if `lo` or `hi` do not have one entry per band.
    pub fn resolve(&mut self, lo: &[f64], hi: &[f64]) -> Result<FastOutcome, LpError> {
        assert_eq!(lo.len(), self.num_bands, "lo has the wrong length");
        assert_eq!(hi.len(), self.num_bands, "hi has the wrong length");
        if self.pivots_since_refactor >= self.refactor_interval {
            self.refactorize();
        }
        for k in 0..self.num_bands {
            self.neg_lo_pad[k] = -lo[k];
            self.hi_pad[k] = hi[k];
        }
        let m = 2 * self.num_bands;
        if self.identity {
            for k in 0..self.num_bands {
                self.rhs[2 * k] = -lo[k];
                self.rhs[2 * k + 1] = hi[k];
            }
        } else {
            rhs_into(
                &mut self.rhs[..m],
                &self.ge,
                &self.le,
                &self.neg_lo_pad,
                &self.hi_pad,
                self.dpad,
            );
        }
        self.restore_feasibility()
    }

    /// Like [`resolve`](FactorTableau::resolve), but first installs `basis` —
    /// e.g. the final basis of a structurally similar tableau — by replaying
    /// pivots.  Columns that would make the basis singular are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::IterationLimit`] if the dual simplex fails to
    /// converge after the basis is installed.
    ///
    /// # Panics
    ///
    /// Panics if `basis` does not have one entry per row, or `lo`/`hi` do not
    /// have one entry per band.
    pub fn resolve_with_basis(
        &mut self,
        lo: &[f64],
        hi: &[f64],
        basis: &[usize],
    ) -> Result<FastOutcome, LpError> {
        assert_eq!(
            basis.len(),
            2 * self.num_bands,
            "basis has the wrong length"
        );
        let replayed = self.install_basis(basis);
        telemetry::add(telemetry::Metric::LpBasisReplayPivots, replayed);
        self.resolve(lo, hi)
    }

    /// Dual-simplex feasibility restoration with per-solve telemetry flushes.
    fn restore_feasibility(&mut self) -> Result<FastOutcome, LpError> {
        let mut pivots = 0u64;
        let result = self.restore_feasibility_counted(&mut pivots);
        if telemetry::enabled() {
            telemetry::add(telemetry::Metric::LpPivots, pivots);
            if result.is_ok() {
                telemetry::add(telemetry::Metric::LpSolves, 1);
                telemetry::observe(telemetry::Histogram::LpPivotsPerSolve, pivots);
            }
        }
        result
    }

    fn restore_feasibility_counted(&mut self, pivots: &mut u64) -> Result<FastOutcome, LpError> {
        self.infeasible_row = None;
        let m = 2 * self.num_bands;
        let dpad = self.dpad;
        // Basic values down to `-tol` count as feasible (rounding slop).
        let tol = self.epsilon.max(1e-7);
        // Every reduced cost of a feasibility system is zero, so each dual
        // pivot is degenerate and the largest-magnitude rule can cycle.  A
        // solve that outlasts a few passes over the columns is cycling:
        // Bland's rule takes over from there and guarantees termination.
        let bland_after =
            (self.max_iterations / 2).min(BLAND_AFTER_PER_COLUMN * (m + self.num_vars));
        let mut iterations = 0usize;
        loop {
            iterations += 1;
            if iterations > self.max_iterations {
                return Err(LpError::IterationLimit);
            }
            let use_bland = iterations > bland_after;

            // Leaving row: most negative basic value (Bland: smallest basic
            // index among the violated rows, which guarantees termination).
            // `min_rhs` doubles as the feasible exit's confidence margin.
            let (leave, min_rhs) = if use_bland {
                let mut leave: Option<usize> = None;
                let mut min_rhs = f64::INFINITY;
                for i in 0..m {
                    let v = self.rhs[i];
                    min_rhs = min_rhs.min(v);
                    if v < -tol && leave.is_none_or(|l| self.basis[i] < self.basis[l]) {
                        leave = Some(i);
                    }
                }
                (leave, min_rhs)
            } else {
                find_leave(&self.rhs[..m], tol)
            };
            let Some(row) = leave else {
                // Feasible.  A basic value deep in the tolerated-negative band
                // could be a violation under exact arithmetic — not confident.
                return Ok(FastOutcome {
                    feasible: true,
                    confident: m == 0 || min_rhs >= FEASIBLE_MARGIN,
                });
            };

            // Price the leaving row: flow column j carries
            // Σ_k (π_{2k+1} − π_{2k})·A_kj, slack column i carries π_i.
            {
                let ge = &self.ge[row * dpad..(row + 1) * dpad];
                let le = &self.le[row * dpad..(row + 1) * dpad];
                for ((d, &l), &g) in self.delta.iter_mut().zip(le).zip(ge) {
                    *d = l - g;
                }
            }
            let listed = self.nonbasic.len();
            price_listed(
                &mut self.rowbuf[..listed],
                &self.bands_t,
                &self.nonbasic,
                &self.delta,
                dpad,
            );
            let mut enter: Option<usize> = None;
            let mut best = self.epsilon;
            'scan: {
                for (pos, &j) in self.nonbasic.iter().enumerate() {
                    let a = self.rowbuf[pos];
                    if a < -self.epsilon {
                        if use_bland {
                            enter = Some(j);
                            break 'scan;
                        }
                        if -a > best {
                            best = -a;
                            enter = Some(j);
                        }
                    }
                }
                for i in 0..m {
                    let j = self.num_vars + i;
                    if self.in_basis[j] {
                        continue;
                    }
                    let a = self.slack_entry(row, i);
                    if a < -self.epsilon {
                        if use_bland {
                            enter = Some(j);
                            break 'scan;
                        }
                        if -a > best {
                            best = -a;
                            enter = Some(j);
                        }
                    }
                }
            }
            let Some(col) = enter else {
                // The row asserts a non-negative combination equals a negative
                // number: infeasible.  Capture the multipliers and judge the
                // margin: the violation must clear the tolerance comfortably
                // and no rejected candidate may sit in the risky sign window.
                for k in 0..self.num_bands {
                    self.farkas[2 * k] = self.ge[row * dpad + k];
                    self.farkas[2 * k + 1] = self.le[row * dpad + k];
                }
                self.infeasible_row = Some(row);
                let confident =
                    self.rhs[row] <= -INFEASIBLE_MARGIN && !self.infeasible_margin_risky(row);
                return Ok(FastOutcome {
                    feasible: false,
                    confident,
                });
            };
            self.load_column(col);
            self.pivot(row, col);
            *pivots += 1;
        }
    }

    /// After an infeasible exit on `row`: does any rejected entering candidate
    /// sit close enough to the pivot threshold that exact arithmetic could
    /// admit it?  Exact zeros are structural (disjoint supports) and safe;
    /// anything else in `(−ε, RISKY_ENTRY)` makes the verdict not confident.
    fn infeasible_margin_risky(&self, row: usize) -> bool {
        let risky = |a: f64| a != 0.0 && a < RISKY_ENTRY;
        // `rowbuf[..nonbasic.len()]` still holds this round's pricing pass:
        // no pivot ran between the scan that rejected every candidate and
        // this margin check, so the compact buffer is aligned with the list.
        let structural = self.rowbuf[..self.nonbasic.len()].iter().any(|&a| risky(a));
        structural
            || (0..2 * self.num_bands)
                .any(|i| !self.in_basis[self.num_vars + i] && risky(self.slack_entry(row, i)))
    }

    /// The leaving row's coefficient for slack `i` (interleaved numbering):
    /// `B⁻¹[row][i]`, read from the split blocks.
    #[inline]
    fn slack_entry(&self, row: usize, i: usize) -> f64 {
        let dpad = self.dpad;
        if i % 2 == 0 {
            self.ge[row * dpad + i / 2]
        } else {
            self.le[row * dpad + i / 2]
        }
    }

    /// Fills `colbuf` with the entering column in basis coordinates,
    /// `B⁻¹·a_col`.
    fn load_column(&mut self, col: usize) {
        let m = 2 * self.num_bands;
        let dpad = self.dpad;
        if col < self.num_vars {
            // Flow column: original entries alternate (−A_kj, +A_kj), so the
            // product collapses to one lane-parallel difference dot per row.
            let band_col = &self.bands_t[col * dpad..(col + 1) * dpad];
            ftran_into(&mut self.colbuf[..m], &self.ge, &self.le, band_col, dpad);
        } else {
            // Slack column: `a = e_s`, so `B⁻¹·a` is one split column read.
            let s = col - self.num_vars;
            let (block, k) = if s % 2 == 0 {
                (&self.ge, s / 2)
            } else {
                (&self.le, s / 2)
            };
            for i in 0..m {
                self.colbuf[i] = block[i * dpad + k];
            }
        }
    }

    /// Product-form (eta) update: pivots `col` (whose basis-coordinate column
    /// is already in `colbuf`) into `row`, applying the rank-1 elimination to
    /// both split blocks and the rhs.
    fn pivot(&mut self, row: usize, col: usize) {
        let m = 2 * self.num_bands;
        debug_assert!(self.colbuf[row].abs() > 0.0, "zero pivot");
        pivot_update(
            &mut self.ge,
            &mut self.le,
            &mut self.rhs[..m],
            &self.colbuf,
            row,
            self.dpad,
        );
        self.identity = false;
        let leaving = self.basis[row];
        self.in_basis[leaving] = false;
        self.in_basis[col] = true;
        self.basis[row] = col;
        if leaving < self.num_vars {
            if let Err(pos) = self.nonbasic.binary_search(&leaving) {
                self.nonbasic.insert(pos, leaving);
            }
        }
        if col < self.num_vars {
            if let Ok(pos) = self.nonbasic.binary_search(&col) {
                self.nonbasic.remove(pos);
            }
        }
        self.pivots_since_refactor += 1;
    }
}

/// `block[target] −= factor · block[source]` over one `dpad`-wide row of a
/// split block, with the split-borrow dance factored out of the pivot loop.
#[inline]
fn axpy_row(block: &mut [f64], source: usize, target: usize, dpad: usize, factor: f64) {
    let (src, dst) = if target < source {
        let (head, tail) = block.split_at_mut(source * dpad);
        (&tail[..dpad], &mut head[target * dpad..(target + 1) * dpad])
    } else {
        let (head, tail) = block.split_at_mut(target * dpad);
        (&head[source * dpad..(source + 1) * dpad], &mut tail[..dpad])
    };
    for (t, s) in dst.iter_mut().zip(src.iter()) {
        *t -= factor * s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_bands() -> Vec<Vec<f64>> {
        vec![
            vec![1.0, 2.0, 0.0],
            vec![0.0, 1.0, 1.0],
            vec![3.0, 0.0, 1.0],
        ]
    }

    #[test]
    fn detects_clearly_infeasible_bounds_with_confidence() {
        // x ≥ 0 with 1·x ≤ -1 is unsatisfiable by a wide margin.
        let bands = vec![vec![1.0]];
        let mut fast = FactorTableau::band(1, &bands);
        let out = fast.resolve(&[-5.0], &[-1.0]).expect("converges");
        assert!(!out.feasible);
        assert!(
            out.confident,
            "a unit-wide violation is not near-degenerate"
        );
        let pi = fast
            .farkas_multipliers()
            .expect("infeasible solve left multipliers");
        assert_eq!(pi.len(), 2);
    }

    #[test]
    fn refactorization_preserves_verdicts() {
        let bands = simple_bands();
        let mut eager = FactorTableau::band(3, &bands);
        eager.set_refactor_interval(1);
        let mut lazy = FactorTableau::band(3, &bands);
        lazy.set_refactor_interval(usize::MAX);
        for step in 0..40 {
            let t = step as f64;
            let lo = [t * 0.1 - 1.0, -t * 0.2, (t % 7.0) - 3.0];
            let hi = [lo[0] + 4.0, lo[1] + 2.0, lo[2] + 5.0];
            let a = eager.resolve(&lo, &hi).expect("eager converges");
            let b = lazy.resolve(&lo, &hi).expect("lazy converges");
            assert_eq!(a.feasible, b.feasible, "verdict diverged at step {step}");
        }
    }

    #[test]
    fn warm_basis_replay_matches_cold_solve() {
        let bands = simple_bands();
        let mut donor = FactorTableau::band(3, &bands);
        donor.resolve(&[1.0, 1.0, 1.0], &[5.0, 4.0, 9.0]).unwrap();
        let basis = donor.basis().to_vec();
        let mut warm = FactorTableau::band(3, &bands);
        let w = warm
            .resolve_with_basis(&[2.0, 0.0, 1.0], &[6.0, 3.0, 7.0], &basis)
            .expect("warm converges");
        let mut cold = FactorTableau::band(3, &bands);
        let c = cold
            .resolve(&[2.0, 0.0, 1.0], &[6.0, 3.0, 7.0])
            .expect("cold converges");
        assert_eq!(w.feasible, c.feasible);
    }

    #[test]
    fn padded_dot_kernels_ignore_the_zero_tail() {
        let a = [1.0, 2.0, 3.0, 0.0, 5.0, 0.0, 0.0, 0.0];
        let b = [2.0, 0.5, 1.0, 9.0, 2.0, 7.0, 7.0, 7.0];
        // The 9.0/7.0 entries multiply structural zeros.
        assert_eq!(dot4(&a, &b), 1.0 * 2.0 + 2.0 * 0.5 + 3.0 + 10.0);
        let c = [1.0; 8];
        assert_eq!(
            dot4_diff(&b, &a, &c),
            (2.0 - 1.0) + (0.5 - 2.0) + (1.0 - 3.0) + 9.0 + (2.0 - 5.0) + 7.0 + 7.0 + 7.0
        );
    }

    /// Decides `lo ≤ A·x ≤ hi`, `x ≥ 0` on a fresh tableau — the cold
    /// reference a warm-started sequence must agree with.
    fn band_feasible_cold(bands: &[Vec<f64>], lo: &[f64], hi: &[f64]) -> bool {
        FactorTableau::band(bands[0].len(), bands)
            .resolve(lo, hi)
            .expect("converges")
            .feasible
    }

    /// Asserts that the flows of the last feasible resolve satisfy every band
    /// within the acceptance tolerance.
    fn assert_flows_satisfy(tableau: &FactorTableau, bands: &[Vec<f64>], lo: &[f64], hi: &[f64]) {
        let mut x = vec![0.0; tableau.num_vars()];
        for (j, f) in tableau.basic_flows() {
            assert!(f >= -1e-7, "flow {j} is negative: {f}");
            x[j] = f;
        }
        for (k, band) in bands.iter().enumerate() {
            let mut v = 0.0;
            for (a, x) in band.iter().zip(&x) {
                v += a * x;
            }
            assert!(
                v >= lo[k] - 1e-6 && v <= hi[k] + 1e-6,
                "band {k}: {v} outside [{}, {}]",
                lo[k],
                hi[k]
            );
        }
    }

    #[test]
    fn tableau_band_matches_cold_solver() {
        // Cone generated by (1, 0) and (1, 1): y ≤ x over the non-negative
        // quadrant, probed through a batch of boxes.
        let bands = vec![vec![1.0, 1.0], vec![0.0, 1.0]];
        let cases: &[(&[f64; 2], &[f64; 2], bool)] = &[
            (&[9.0, 3.0], &[11.0, 5.0], true),    // strictly inside
            (&[9.0, 9.5], &[10.0, 10.5], true),   // straddles the y = x facet
            (&[4.0, 9.0], &[5.0, 10.0], false),   // y > x everywhere
            (&[0.0, 0.0], &[0.0, 0.0], true),     // the origin
            (&[-2.0, -1.0], &[-1.0, 1.0], false), // x forced negative
        ];
        let mut tableau = FactorTableau::band(2, &bands);
        assert_eq!(tableau.num_vars(), 2);
        assert_eq!(tableau.num_bands(), 2);
        for &(lo, hi, expected) in cases {
            let warm = tableau.resolve(lo, hi).unwrap().feasible;
            assert_eq!(warm, expected, "lo={lo:?} hi={hi:?}");
            assert_eq!(
                warm,
                band_feasible_cold(&bands, lo, hi),
                "lo={lo:?} hi={hi:?}"
            );
        }
    }

    #[test]
    fn tableau_warm_restart_reuses_basis() {
        // A drifting sequence of boxes: after the first solve, later solves
        // start from the previous basis and must still agree with a cold solve.
        let bands = vec![
            vec![2.0, 1.0, 0.0],
            vec![0.0, 1.0, 3.0],
            vec![1.0, 1.0, 1.0],
        ];
        let mut tableau = FactorTableau::band(3, &bands);
        for step in 0..40 {
            let t = step as f64;
            let lo = [5.0 + t, 2.0 + 0.5 * t, 3.0 + t];
            let hi = [7.0 + t, 4.0 + 0.5 * t, 4.0 + t];
            assert_eq!(
                tableau.resolve(&lo, &hi).unwrap().feasible,
                band_feasible_cold(&bands, &lo, &hi),
                "step {step}"
            );
        }
    }

    #[test]
    fn tableau_resolve_with_basis_seeds_a_fresh_tableau() {
        let bands = vec![vec![1.0, 1.0], vec![0.0, 1.0]];
        let mut first = FactorTableau::band(2, &bands);
        assert!(first.resolve(&[9.0, 3.0], &[11.0, 5.0]).unwrap().feasible);
        let basis: Vec<usize> = first.basis().to_vec();

        let mut second = FactorTableau::band(2, &bands);
        assert!(
            second
                .resolve_with_basis(&[9.5, 3.5], &[10.5, 4.5], &basis)
                .unwrap()
                .feasible
        );
        assert!(
            !second
                .resolve_with_basis(&[4.0, 9.0], &[5.0, 10.0], &basis)
                .unwrap()
                .feasible
        );
    }

    #[test]
    fn tableau_detects_infeasibility_with_no_structural_variables() {
        // Zero structural variables: feasible iff every band contains zero.
        let mut tableau = FactorTableau::band(0, &[vec![], vec![]]);
        assert!(tableau.resolve(&[-1.0, 0.0], &[1.0, 0.0]).unwrap().feasible);
        assert!(!tableau.resolve(&[1.0, 0.0], &[2.0, 0.0]).unwrap().feasible);
    }

    #[test]
    fn tableau_handles_degenerate_equal_bounds() {
        // lo == hi pins the band exactly: x + y = 10 with y ∈ [0, 4].
        let bands = vec![vec![1.0, 1.0], vec![0.0, 1.0]];
        let mut tableau = FactorTableau::band(2, &bands);
        assert!(
            tableau
                .resolve(&[10.0, 0.0], &[10.0, 4.0])
                .unwrap()
                .feasible
        );
        // x + y = 10 with y ≥ 12 is impossible.
        assert!(
            !tableau
                .resolve(&[10.0, 12.0], &[10.0, 14.0])
                .unwrap()
                .feasible
        );
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn tableau_bounds_length_mismatch_panics() {
        let mut tableau = FactorTableau::band(1, &[vec![1.0]]);
        let _ = tableau.resolve(&[0.0, 0.0], &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "expected 2")]
    fn tableau_band_length_mismatch_panics() {
        let _ = FactorTableau::band(2, &[vec![1.0]]);
    }

    #[test]
    fn equality_constraints() {
        // x + 2y = 4, x − y = 1 pins the unique point x = 2, y = 1.
        let bands = vec![vec![1.0, 2.0], vec![1.0, -1.0]];
        let mut tableau = FactorTableau::band(2, &bands);
        assert!(tableau.resolve(&[4.0, 1.0], &[4.0, 1.0]).unwrap().feasible);
        let mut x = [0.0; 2];
        for (j, f) in tableau.basic_flows() {
            x[j] = f;
        }
        assert!(
            (x[0] - 2.0).abs() < 1e-9 && (x[1] - 1.0).abs() < 1e-9,
            "{x:?}"
        );
    }

    #[test]
    fn infeasible_program() {
        // x ≤ 1 and x ≥ 2 cannot both hold.
        let mut tableau = FactorTableau::band(1, &[vec![1.0], vec![1.0]]);
        assert!(!tableau.resolve(&[0.0, 2.0], &[1.0, 10.0]).unwrap().feasible);
    }

    #[test]
    fn infeasible_due_to_nonnegativity() {
        // x + y ≤ −1 with x, y ≥ 0 is infeasible.
        let mut tableau = FactorTableau::band(2, &[vec![1.0, 1.0]]);
        assert!(!tableau.resolve(&[-5.0], &[-1.0]).unwrap().feasible);
    }

    #[test]
    fn pure_feasibility_problem() {
        // x + y + z = 10, x ≥ 2, y ≤ 5.
        let bands = vec![
            vec![1.0, 1.0, 1.0],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
        ];
        let (lo, hi) = ([10.0, 2.0, 0.0], [10.0, 100.0, 5.0]);
        let mut tableau = FactorTableau::band(3, &bands);
        assert!(tableau.resolve(&lo, &hi).unwrap().feasible);
        assert_flows_satisfy(&tableau, &bands, &lo, &hi);
    }

    #[test]
    fn negative_rhs_is_normalised() {
        // −x ∈ [−10, −3]  ⇔  x ∈ [3, 10]: negative coefficients and bounds.
        let bands = vec![vec![-1.0]];
        let mut tableau = FactorTableau::band(1, &bands);
        assert!(tableau.resolve(&[-10.0], &[-3.0]).unwrap().feasible);
        assert_flows_satisfy(&tableau, &bands, &[-10.0], &[-3.0]);
        // −x ∈ [1, 2] would need x < 0.
        assert!(!tableau.resolve(&[1.0], &[2.0]).unwrap().feasible);
    }

    #[test]
    fn degenerate_vertex_is_handled() {
        // Four bands meet at the single feasible point (1, 1).
        let bands = vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![1.0, -1.0],
        ];
        let (lo, hi) = ([0.0, 0.0, 2.0, -10.0], [1.0, 1.0, 2.0, 0.0]);
        let mut tableau = FactorTableau::band(2, &bands);
        assert!(tableau.resolve(&lo, &hi).unwrap().feasible);
        assert_flows_satisfy(&tableau, &bands, &lo, &hi);
    }

    #[test]
    fn cone_membership_as_lp() {
        // Is (5, 2) a non-negative combination of (1, 0) and (1, 1)?  (yes: 3, 2)
        let bands = vec![vec![1.0, 1.0], vec![0.0, 1.0]];
        let mut tableau = FactorTableau::band(2, &bands);
        assert!(tableau.resolve(&[5.0, 2.0], &[5.0, 2.0]).unwrap().feasible);
        // Is (1, 2)?  (no: would need negative flow on the first generator)
        assert!(!tableau.resolve(&[1.0, 2.0], &[1.0, 2.0]).unwrap().feasible);
    }

    #[test]
    fn many_variables_feasibility() {
        // A wide problem similar in shape to μpath-flow feasibility: 300 flow
        // variables, 10 bands.
        let n = 300;
        let bands: Vec<Vec<f64>> = (0..10)
            .map(|c| (0..n).map(|j| ((j + c) % 5) as f64).collect())
            .collect();
        let (lo, hi) = (vec![500.0; 10], vec![1000.0; 10]);
        let mut tableau = FactorTableau::band(n, &bands);
        assert!(tableau.resolve(&lo, &hi).unwrap().feasible);
        assert_flows_satisfy(&tableau, &bands, &lo, &hi);
    }

    #[test]
    fn error_display() {
        assert!(LpError::IterationLimit.to_string().contains("iteration"));
    }
}
