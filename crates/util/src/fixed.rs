//! Exact fixed-point arithmetic for the search hot path.
//!
//! [`Fixed64`] is a signed Q31.32 fixed-point number: an `i64` mantissa
//! interpreted as `mantissa / 2^32`. The representation is chosen for
//! the CAPS cost core, where the search accumulates and un-accumulates
//! per-worker load deltas millions of times per second:
//!
//! * **Addition and subtraction are exact** (integer adds), so an
//!   incremental accumulate/undo sequence reproduces the from-scratch
//!   sum bit-for-bit regardless of the order placements were applied —
//!   the property `f64` cannot offer and the reason the search once had
//!   to recost every stored plan from scratch.
//! * **Range** ±2^31 ≈ ±2.1e9 covers every load the model produces
//!   (raw worker loads stay below ~1e8) with ~20× headroom.
//! * **Resolution** 2^-32 ≈ 2.3e-10 keeps quantization error of a
//!   single model coefficient below the 1e-9 relative tolerance the
//!   differential tests demand against the legacy `f64` path.
//!
//! Arithmetic beyond add/sub widens through `i128` and saturates at
//! [`Fixed64::MAX`]/[`Fixed64::MIN`]; `checked_*` variants report
//! overflow instead. Saturation (rather than wrapping or panicking)
//! makes the type safe under `overflow-checks = on` and turns the
//! unbounded-threshold sentinel into ordinary arithmetic: `MAX`
//! compares greater than every representable load.
//!
//! JSON encoding is **hex-exact**: the mantissa round-trips through a
//! fixed-width hexadecimal string (`"0x0000000100000000"` for 1.0), so
//! journals and golden files carry the precise bit pattern rather than
//! a shortest-float rendering.

use std::fmt;
use std::ops::{Add, AddAssign, Neg, Sub, SubAssign};

use crate::json::{FromJson, Json, JsonError, ToJson};

/// A signed Q31.32 fixed-point number with exact add/sub and
/// saturating/checked wide ops. See the module docs for the design
/// rationale.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fixed64(i64);

impl Fixed64 {
    /// Number of fractional bits in the representation.
    pub const SCALE_BITS: u32 = 32;
    /// The value 0.
    pub const ZERO: Fixed64 = Fixed64(0);
    /// The value 1.
    pub const ONE: Fixed64 = Fixed64(1i64 << Self::SCALE_BITS);
    /// Largest representable value (also the saturation rail and the
    /// "unbounded" sentinel: it compares greater than any real load).
    pub const MAX: Fixed64 = Fixed64(i64::MAX);
    /// Smallest (most negative) representable value.
    pub const MIN: Fixed64 = Fixed64(i64::MIN);

    /// Builds a value from a raw mantissa (`bits / 2^32`).
    pub const fn from_bits(bits: i64) -> Fixed64 {
        Fixed64(bits)
    }

    /// Returns the raw mantissa.
    pub const fn to_bits(self) -> i64 {
        self.0
    }

    /// Converts an integer exactly, saturating outside ±2^31.
    pub fn from_int(v: i64) -> Fixed64 {
        Fixed64(v.saturating_mul(1i64 << Self::SCALE_BITS))
    }

    /// Converts from `f64`, rounding to the nearest representable value
    /// and saturating at the rails. `NaN` maps to zero and infinities
    /// to the matching rail, so model ingestion of sentinel thresholds
    /// (`α = ∞`) needs no special case.
    pub fn from_f64(v: f64) -> Fixed64 {
        if v.is_nan() {
            return Fixed64::ZERO;
        }
        let scaled = v * (1i64 << Self::SCALE_BITS) as f64;
        if scaled >= i64::MAX as f64 {
            Fixed64::MAX
        } else if scaled <= i64::MIN as f64 {
            Fixed64::MIN
        } else {
            Fixed64(scaled.round_ties_even() as i64)
        }
    }

    /// Converts to `f64` (exact for mantissas below 2^53, rounded
    /// above; use [`Fixed64::to_bits`] when exactness matters).
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / (1i64 << Self::SCALE_BITS) as f64
    }

    /// Exact addition, saturating at the rails.
    pub fn saturating_add(self, rhs: Fixed64) -> Fixed64 {
        Fixed64(self.0.saturating_add(rhs.0))
    }

    /// Exact subtraction, saturating at the rails.
    pub fn saturating_sub(self, rhs: Fixed64) -> Fixed64 {
        Fixed64(self.0.saturating_sub(rhs.0))
    }

    /// Exact addition, `None` on overflow.
    pub fn checked_add(self, rhs: Fixed64) -> Option<Fixed64> {
        self.0.checked_add(rhs.0).map(Fixed64)
    }

    /// Exact subtraction, `None` on overflow.
    pub fn checked_sub(self, rhs: Fixed64) -> Option<Fixed64> {
        self.0.checked_sub(rhs.0).map(Fixed64)
    }

    /// Multiplies by an integer **exactly** (no rounding: scaling an
    /// integer multiplies the mantissa directly), saturating at the
    /// rails. This is the hot-path product: `count × rate` distributes
    /// over addition, so `Σ (kᵢ·r)` equals `(Σ kᵢ)·r` bit-for-bit.
    pub fn mul_int(self, k: i64) -> Fixed64 {
        Fixed64(saturate(self.0 as i128 * k as i128))
    }

    /// Integer multiply, `None` on overflow.
    pub fn checked_mul_int(self, k: i64) -> Option<Fixed64> {
        let wide = self.0 as i128 * k as i128;
        i64::try_from(wide).ok().map(Fixed64)
    }

    /// Full fixed-point multiply via `i128`, truncating the extra 32
    /// fractional bits toward negative infinity, saturating.
    pub fn mul(self, rhs: Fixed64) -> Fixed64 {
        Fixed64(saturate(
            (self.0 as i128 * rhs.0 as i128) >> Self::SCALE_BITS,
        ))
    }

    /// Full fixed-point divide via `i128`, truncating toward zero,
    /// saturating. `None` when `rhs` is zero.
    pub fn checked_div(self, rhs: Fixed64) -> Option<Fixed64> {
        if rhs.0 == 0 {
            return None;
        }
        Some(Fixed64(saturate(
            ((self.0 as i128) << Self::SCALE_BITS) / rhs.0 as i128,
        )))
    }

    /// True when the value sits on the positive saturation rail (the
    /// "unbounded" sentinel).
    pub fn is_max(self) -> bool {
        self.0 == i64::MAX
    }

    /// Absolute value, saturating (`|MIN|` → `MAX`).
    pub fn abs(self) -> Fixed64 {
        Fixed64(self.0.saturating_abs())
    }
}

/// Clamps a widened mantissa back into `i64`.
fn saturate(wide: i128) -> i64 {
    if wide > i64::MAX as i128 {
        i64::MAX
    } else if wide < i64::MIN as i128 {
        i64::MIN
    } else {
        wide as i64
    }
}

impl Add for Fixed64 {
    type Output = Fixed64;
    fn add(self, rhs: Fixed64) -> Fixed64 {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Fixed64 {
    fn add_assign(&mut self, rhs: Fixed64) {
        *self = self.saturating_add(rhs);
    }
}

impl Sub for Fixed64 {
    type Output = Fixed64;
    fn sub(self, rhs: Fixed64) -> Fixed64 {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for Fixed64 {
    fn sub_assign(&mut self, rhs: Fixed64) {
        *self = self.saturating_sub(rhs);
    }
}

impl Neg for Fixed64 {
    type Output = Fixed64;
    fn neg(self) -> Fixed64 {
        Fixed64(self.0.saturating_neg())
    }
}

impl fmt::Debug for Fixed64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fixed64({})", self.to_f64())
    }
}

impl fmt::Display for Fixed64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

impl ToJson for Fixed64 {
    fn to_json(&self) -> Json {
        // Fixed-width two's-complement hex: exact round-trip, no float
        // formatting in the loop.
        Json::Str(format!("0x{:016x}", self.0 as u64))
    }
}

impl FromJson for Fixed64 {
    fn from_json(value: &Json) -> Result<Fixed64, JsonError> {
        let s = value
            .as_str()
            .ok_or_else(|| JsonError::msg("expected a hex fixed-point string"))?;
        let digits = s
            .strip_prefix("0x")
            .ok_or_else(|| JsonError::msg("fixed-point string must start with 0x"))?;
        if digits.len() != 16 {
            return Err(JsonError::msg(format!(
                "fixed-point string must have 16 hex digits, got {}",
                digits.len()
            )));
        }
        let bits = u64::from_str_radix(digits, 16)
            .map_err(|e| JsonError::msg(format!("bad fixed-point hex: {e}")))?;
        Ok(Fixed64(bits as i64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_and_float_conversions_round_trip() {
        assert_eq!(Fixed64::from_int(0), Fixed64::ZERO);
        assert_eq!(Fixed64::from_int(1), Fixed64::ONE);
        assert_eq!(Fixed64::from_int(-3).to_f64(), -3.0);
        // Powers of two and their sums are exactly representable.
        for v in [0.0, 0.5, 1.25, -7.75, 1024.0 + 1.0 / 1024.0] {
            assert_eq!(Fixed64::from_f64(v).to_f64(), v, "{v} must be exact");
        }
        // Quantization error is bounded by half a ulp of 2^-32.
        let v = 0.1;
        assert!((Fixed64::from_f64(v).to_f64() - v).abs() <= 0.5 / (1u64 << 32) as f64);
    }

    #[test]
    fn non_finite_floats_map_to_sentinels() {
        assert_eq!(Fixed64::from_f64(f64::INFINITY), Fixed64::MAX);
        assert_eq!(Fixed64::from_f64(f64::NEG_INFINITY), Fixed64::MIN);
        assert_eq!(Fixed64::from_f64(f64::NAN), Fixed64::ZERO);
        assert!(Fixed64::MAX.is_max());
        assert!(!Fixed64::ONE.is_max());
    }

    #[test]
    fn add_sub_are_exact_and_order_independent() {
        // The property the search relies on: any accumulate/undo
        // interleaving lands on the same bits as the straight sum.
        let xs: Vec<Fixed64> = (1..100)
            .map(|i| Fixed64::from_f64(0.1 * i as f64))
            .collect();
        let forward = xs.iter().fold(Fixed64::ZERO, |a, &b| a + b);
        let backward = xs.iter().rev().fold(Fixed64::ZERO, |a, &b| a + b);
        assert_eq!(forward, backward);
        let mut acc = forward;
        for &x in &xs {
            acc += x;
            acc -= x;
        }
        assert_eq!(acc, forward, "accumulate+undo must be a bit-exact no-op");
    }

    #[test]
    fn saturation_at_extremes() {
        assert_eq!(Fixed64::MAX + Fixed64::ONE, Fixed64::MAX);
        assert_eq!(Fixed64::MIN - Fixed64::ONE, Fixed64::MIN);
        assert_eq!(Fixed64::MAX.mul_int(2), Fixed64::MAX);
        assert_eq!(Fixed64::MIN.mul_int(2), Fixed64::MIN);
        assert_eq!(Fixed64::MAX.mul(Fixed64::MAX), Fixed64::MAX);
        assert_eq!(
            Fixed64::MAX.mul(-Fixed64::ONE),
            Fixed64::from_bits(-i64::MAX)
        );
        assert_eq!(Fixed64::MIN.mul(Fixed64::from_int(2)), Fixed64::MIN);
        assert_eq!(-Fixed64::MIN, Fixed64::MAX);
        assert_eq!(Fixed64::MIN.abs(), Fixed64::MAX);
        assert_eq!(Fixed64::from_int(i64::MAX), Fixed64::MAX);
        assert_eq!(Fixed64::from_f64(1e300), Fixed64::MAX);
        assert_eq!(Fixed64::from_f64(-1e300), Fixed64::MIN);
    }

    #[test]
    fn checked_ops_report_overflow() {
        assert_eq!(Fixed64::MAX.checked_add(Fixed64::ONE), None);
        assert_eq!(Fixed64::MIN.checked_sub(Fixed64::ONE), None);
        assert_eq!(Fixed64::MAX.checked_mul_int(2), None);
        assert!(Fixed64::ONE.checked_add(Fixed64::ONE).is_some());
        assert_eq!(Fixed64::ONE.checked_mul_int(7), Some(Fixed64::from_int(7)));
        assert_eq!(Fixed64::ONE.checked_div(Fixed64::ZERO), None);
        assert_eq!(
            Fixed64::from_int(10).checked_div(Fixed64::from_int(4)),
            Some(Fixed64::from_f64(2.5))
        );
    }

    #[test]
    fn mul_int_distributes_over_addition_exactly() {
        let r = Fixed64::from_f64(0.3337);
        let ks = [3i64, 7, 11, 20];
        let lhs: Fixed64 = ks
            .iter()
            .map(|&k| r.mul_int(k))
            .fold(Fixed64::ZERO, Add::add);
        let rhs = r.mul_int(ks.iter().sum());
        assert_eq!(lhs, rhs, "k·r must distribute bit-exactly");
    }

    #[test]
    fn json_round_trip_is_hex_exact() {
        for v in [
            Fixed64::ZERO,
            Fixed64::ONE,
            Fixed64::MAX,
            Fixed64::MIN,
            Fixed64::from_f64(-0.12345),
            Fixed64::from_bits(0x0123_4567_89ab_cdef),
        ] {
            let j = v.to_json();
            assert_eq!(Fixed64::from_json(&j).unwrap(), v);
            // Through the encoder and parser too.
            let text = j.to_string();
            let back = Json::parse(&text).unwrap();
            assert_eq!(Fixed64::from_json(&back).unwrap(), v);
        }
        assert_eq!(
            Fixed64::ONE.to_json(),
            Json::Str("0x0000000100000000".into())
        );
    }

    #[test]
    fn json_decode_rejects_malformed_input() {
        assert!(Fixed64::from_json(&Json::Num(1.0)).is_err());
        assert!(Fixed64::from_json(&Json::Str("1234".into())).is_err());
        assert!(Fixed64::from_json(&Json::Str("0x12".into())).is_err());
        assert!(Fixed64::from_json(&Json::Str("0xzzzzzzzzzzzzzzzz".into())).is_err());
    }

    #[test]
    fn ordering_follows_value() {
        assert!(Fixed64::MIN < Fixed64::from_int(-1));
        assert!(Fixed64::from_int(-1) < Fixed64::ZERO);
        assert!(Fixed64::ZERO < Fixed64::from_f64(1e-9));
        assert!(Fixed64::from_int(5) < Fixed64::MAX);
    }
}
