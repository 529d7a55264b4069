//! Exact rational arithmetic over `i128`.
//!
//! Counter signatures are small non-negative integers (0–4 per component) and the
//! cone dimensionality in the Haswell case study is at most a few dozen, so an
//! `i128` numerator/denominator pair with gcd normalisation after every operation
//! comfortably covers the intermediate magnitudes that appear during Gaussian
//! elimination and the double-description method.  Arithmetic is checked: an
//! overflow panics with a clear message instead of silently wrapping (this would
//! indicate the inputs are far outside CounterPoint's intended regime).

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Error type for fallible numeric conversions and operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NumericError {
    /// A denominator of zero was supplied.
    ZeroDenominator,
    /// An intermediate value exceeded the `i128` range.
    Overflow,
    /// A matrix operation was attempted with incompatible dimensions.
    DimensionMismatch {
        /// Expected dimension.
        expected: usize,
        /// Dimension that was supplied.
        found: usize,
    },
    /// An inverse of a singular matrix was requested.
    Singular,
}

impl fmt::Display for NumericError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericError::ZeroDenominator => write!(f, "denominator must be non-zero"),
            NumericError::Overflow => {
                write!(f, "arithmetic overflow in exact rational computation")
            }
            NumericError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            NumericError::Singular => write!(f, "matrix is singular"),
        }
    }
}

impl std::error::Error for NumericError {}

/// Greatest common divisor of two `i128` values (always non-negative).
///
/// ```
/// use counterpoint_numeric::gcd_i128;
/// assert_eq!(gcd_i128(12, -18), 6);
/// assert_eq!(gcd_i128(0, 5), 5);
/// assert_eq!(gcd_i128(0, 0), 0);
/// ```
pub fn gcd_i128(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple of two `i128` values (always non-negative).
///
/// # Panics
///
/// Panics on overflow.
///
/// ```
/// use counterpoint_numeric::lcm_i128;
/// assert_eq!(lcm_i128(4, 6), 12);
/// assert_eq!(lcm_i128(0, 3), 0);
/// ```
pub fn lcm_i128(a: i128, b: i128) -> i128 {
    if a == 0 || b == 0 {
        return 0;
    }
    let g = gcd_i128(a, b);
    (a / g)
        .checked_mul(b)
        .expect("overflow computing lcm")
        .abs()
}

/// An exact rational number `num / den` with `den > 0` and `gcd(num, den) == 1`.
///
/// `Rational` implements the full set of arithmetic operators plus total ordering,
/// so it can be used directly inside generic pivoting code.
///
/// ```
/// use counterpoint_numeric::Rational;
/// let a = Rational::new(3, 4);
/// let b = Rational::new(1, 4);
/// assert_eq!(a + b, Rational::from(1));
/// assert!(a > b);
/// assert_eq!((a - b).to_f64(), 0.5);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

impl Rational {
    /// The rational number zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The rational number one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates a new rational from a numerator and denominator, reducing to lowest
    /// terms and normalising the sign of the denominator.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    ///
    /// ```
    /// use counterpoint_numeric::Rational;
    /// assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
    /// ```
    pub fn new(num: i128, den: i128) -> Rational {
        Rational::try_new(num, den).expect("denominator must be non-zero")
    }

    /// Fallible constructor; returns [`NumericError::ZeroDenominator`] when `den == 0`.
    ///
    /// # Errors
    ///
    /// Returns an error when the denominator is zero.
    pub fn try_new(num: i128, den: i128) -> Result<Rational, NumericError> {
        if den == 0 {
            return Err(NumericError::ZeroDenominator);
        }
        let mut r = Rational { num, den };
        r.reduce();
        Ok(r)
    }

    /// Creates a rational representing the integer `n`.
    pub fn from_integer(n: i128) -> Rational {
        Rational { num: n, den: 1 }
    }

    fn reduce(&mut self) {
        if self.den < 0 {
            self.num = self.num.checked_neg().expect("overflow negating rational");
            self.den = self.den.checked_neg().expect("overflow negating rational");
        }
        let g = gcd_i128(self.num, self.den);
        if g > 1 {
            self.num /= g;
            self.den /= g;
        }
        if self.num == 0 {
            self.den = 1;
        }
    }

    /// Returns the numerator (in lowest terms, with non-negative denominator).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// Returns the denominator (always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Returns `true` if this rational is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Returns `true` if this rational is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// Returns `true` if this rational is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// Returns `true` if this rational is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Returns the sign of the rational as `-1`, `0` or `1`.
    pub fn signum(&self) -> i128 {
        self.num.signum()
    }

    /// Returns the absolute value.
    pub fn abs(&self) -> Rational {
        Rational {
            num: self.num.checked_abs().expect("overflow in abs"),
            den: self.den,
        }
    }

    /// Returns the multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rational {
        assert!(self.num != 0, "cannot invert zero");
        let mut r = Rational {
            num: self.den,
            den: self.num,
        };
        r.reduce();
        r
    }

    /// Converts to an `f64` approximation.
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Converts to an integer if the value is integral.
    pub fn to_integer(&self) -> Option<i128> {
        if self.den == 1 {
            Some(self.num)
        } else {
            None
        }
    }

    /// Overflow-safe addition: `None` when an intermediate exceeds `i128`
    /// instead of panicking like the `+` operator.  The batched feasibility
    /// engine recertifies near-degenerate float evidence through these checked
    /// entry points and degrades gracefully (drops the evidence, keeps the
    /// verdict) when a value falls outside the exact regime.
    pub fn checked_add(self, other: Rational) -> Option<Rational> {
        // a/b + c/d = (a*d + c*b) / (b*d); use lcm to keep magnitudes small.
        let g = gcd_i128(self.den, other.den);
        let lhs = self.num.checked_mul(other.den / g)?;
        let rhs = other.num.checked_mul(self.den / g)?;
        let num = lhs.checked_add(rhs)?;
        let den = (self.den / g).checked_mul(other.den)?;
        Rational::try_new(num, den).ok()
    }

    /// Overflow-safe multiplication: the checked counterpart of the `*`
    /// operator (see [`checked_add`](Rational::checked_add)).
    pub fn checked_mul(self, other: Rational) -> Option<Rational> {
        self.checked_mul_impl(other)
    }

    /// Overflow-safe subtraction (see [`checked_add`](Rational::checked_add)).
    pub fn checked_sub(self, other: Rational) -> Option<Rational> {
        let negated = Rational {
            num: other.num.checked_neg()?,
            den: other.den,
        };
        self.checked_add(negated)
    }

    /// The *exact* rational value of a finite `f64` — every finite double is
    /// a dyadic rational `±m · 2^e`, so no rounding is involved.  `None` for
    /// NaN, infinities, and values whose exact numerator or denominator
    /// exceeds `i128` (|e| too large): such values are far outside the
    /// counter-space regime and callers fall back to float arithmetic.
    ///
    /// ```
    /// use counterpoint_numeric::Rational;
    /// assert_eq!(Rational::try_from_f64(0.25), Some(Rational::new(1, 4)));
    /// assert_eq!(Rational::try_from_f64(-3.0), Some(Rational::from_integer(-3)));
    /// assert_eq!(Rational::try_from_f64(f64::NAN), None);
    /// ```
    pub fn try_from_f64(value: f64) -> Option<Rational> {
        if !value.is_finite() {
            return None;
        }
        if value == 0.0 {
            return Some(Rational::ZERO);
        }
        let bits = value.to_bits();
        let sign = if bits >> 63 == 1 { -1i128 } else { 1i128 };
        let biased = ((bits >> 52) & 0x7ff) as i64;
        let fraction = (bits & ((1u64 << 52) - 1)) as i128;
        // Subnormals have no implicit leading bit and a fixed exponent.
        let (mantissa, exponent) = if biased == 0 {
            (fraction, -1074i64)
        } else {
            (fraction + (1i128 << 52), biased - 1075)
        };
        if exponent >= 0 {
            let shift = u32::try_from(exponent).ok()?;
            let scale = 1i128.checked_shl(shift).filter(|_| shift < 127)?;
            let num = mantissa.checked_mul(scale)?;
            Some(Rational::from_integer(sign * num))
        } else {
            let shift = u32::try_from(-exponent).ok()?;
            if shift >= 127 {
                return None;
            }
            Rational::try_new(sign * mantissa, 1i128 << shift).ok()
        }
    }

    fn checked_mul_impl(self, other: Rational) -> Option<Rational> {
        // Cross-reduce before multiplying to limit magnitude growth.
        let g1 = gcd_i128(self.num, other.den);
        let g2 = gcd_i128(other.num, self.den);
        let num = (self.num / g1).checked_mul(other.num / g2)?;
        let den = (self.den / g2).checked_mul(other.den / g1)?;
        Rational::try_new(num, den).ok()
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl From<i128> for Rational {
    fn from(n: i128) -> Self {
        Rational::from_integer(n)
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::from_integer(n as i128)
    }
}

impl From<i32> for Rational {
    fn from(n: i32) -> Self {
        Rational::from_integer(n as i128)
    }
}

impl From<u32> for Rational {
    fn from(n: u32) -> Self {
        Rational::from_integer(n as i128)
    }
}

impl From<u64> for Rational {
    fn from(n: u64) -> Self {
        Rational::from_integer(n as i128)
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b   (b, d > 0)
        let lhs = self
            .num
            .checked_mul(other.den)
            .expect("overflow in comparison");
        let rhs = other
            .num
            .checked_mul(self.den)
            .expect("overflow in comparison");
        lhs.cmp(&rhs)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, other: Rational) -> Rational {
        self.checked_add(other)
            .expect("overflow in rational addition")
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, other: Rational) -> Rational {
        self.checked_add(-other)
            .expect("overflow in rational subtraction")
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, other: Rational) -> Rational {
        self.checked_mul_impl(other)
            .expect("overflow in rational multiplication")
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, other: Rational) -> Rational {
        assert!(!other.is_zero(), "division by zero rational");
        self.checked_mul_impl(other.recip())
            .expect("overflow in rational division")
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: self.num.checked_neg().expect("overflow negating rational"),
            den: self.den,
        }
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, other: Rational) {
        *self = *self + other;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, other: Rational) {
        *self = *self - other;
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, other: Rational) {
        *self = *self * other;
    }
}

impl DivAssign for Rational {
    fn div_assign(&mut self, other: Rational) {
        *self = *self / other;
    }
}

impl Sum for Rational {
    fn sum<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::ZERO, |acc, x| acc + x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basic() {
        assert_eq!(gcd_i128(12, 18), 6);
        assert_eq!(gcd_i128(-12, 18), 6);
        assert_eq!(gcd_i128(12, -18), 6);
        assert_eq!(gcd_i128(0, 0), 0);
        assert_eq!(gcd_i128(7, 0), 7);
        assert_eq!(gcd_i128(1, 1), 1);
        assert_eq!(gcd_i128(17, 13), 1);
    }

    #[test]
    fn lcm_basic() {
        assert_eq!(lcm_i128(4, 6), 12);
        assert_eq!(lcm_i128(3, 7), 21);
        assert_eq!(lcm_i128(0, 9), 0);
        assert_eq!(lcm_i128(-4, 6), 12);
    }

    #[test]
    fn construction_reduces() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, 5), Rational::ZERO);
        assert_eq!(Rational::new(0, 5).denom(), 1);
    }

    #[test]
    fn zero_denominator_is_error() {
        assert_eq!(Rational::try_new(1, 0), Err(NumericError::ZeroDenominator));
    }

    #[test]
    #[should_panic(expected = "denominator must be non-zero")]
    fn new_panics_on_zero_denominator() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = Rational::new(1, 3);
        let b = Rational::new(1, 6);
        assert_eq!(a + b, Rational::new(1, 2));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 18));
        assert_eq!(a / b, Rational::from(2));
        assert_eq!(-a, Rational::new(-1, 3));
    }

    #[test]
    fn assign_ops() {
        let mut x = Rational::new(1, 2);
        x += Rational::new(1, 2);
        assert_eq!(x, Rational::ONE);
        x -= Rational::new(1, 4);
        assert_eq!(x, Rational::new(3, 4));
        x *= Rational::from(4);
        assert_eq!(x, Rational::from(3));
        x /= Rational::from(6);
        assert_eq!(x, Rational::new(1, 2));
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::ZERO);
        assert!(Rational::new(7, 3) > Rational::from(2));
        let mut v = vec![Rational::new(3, 2), Rational::new(-1, 4), Rational::ONE];
        v.sort();
        assert_eq!(
            v,
            vec![Rational::new(-1, 4), Rational::ONE, Rational::new(3, 2)]
        );
    }

    #[test]
    fn predicates_and_accessors() {
        let r = Rational::new(-3, 9);
        assert_eq!(r.numer(), -1);
        assert_eq!(r.denom(), 3);
        assert!(r.is_negative());
        assert!(!r.is_positive());
        assert!(!r.is_zero());
        assert!(!r.is_integer());
        assert_eq!(r.signum(), -1);
        assert_eq!(r.abs(), Rational::new(1, 3));
        assert_eq!(Rational::from(5).to_integer(), Some(5));
        assert_eq!(Rational::new(5, 2).to_integer(), None);
    }

    #[test]
    fn recip() {
        assert_eq!(Rational::new(3, 4).recip(), Rational::new(4, 3));
        assert_eq!(Rational::new(-2, 5).recip(), Rational::new(-5, 2));
    }

    #[test]
    #[should_panic(expected = "cannot invert zero")]
    fn recip_of_zero_panics() {
        let _ = Rational::ZERO.recip();
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn divide_by_zero_panics() {
        let _ = Rational::ONE / Rational::ZERO;
    }

    #[test]
    fn to_f64() {
        assert_eq!(Rational::new(1, 2).to_f64(), 0.5);
        assert_eq!(Rational::new(-3, 4).to_f64(), -0.75);
    }

    #[test]
    fn display() {
        assert_eq!(Rational::new(3, 4).to_string(), "3/4");
        assert_eq!(Rational::from(7).to_string(), "7");
        assert_eq!(Rational::new(-1, 2).to_string(), "-1/2");
    }

    #[test]
    fn sum_iterator() {
        let total: Rational = (1..=4).map(|i| Rational::new(1, i)).sum();
        // 1 + 1/2 + 1/3 + 1/4 = 25/12
        assert_eq!(total, Rational::new(25, 12));
    }

    #[test]
    fn conversions_from_primitives() {
        assert_eq!(Rational::from(3i32), Rational::from_integer(3));
        assert_eq!(Rational::from(3i64), Rational::from_integer(3));
        assert_eq!(Rational::from(3u32), Rational::from_integer(3));
        assert_eq!(Rational::from(3u64), Rational::from_integer(3));
        assert_eq!(Rational::from(3i128), Rational::from_integer(3));
    }
}
