//! Scalar value types storable in GraphBLAS matrices and vectors.
//!
//! The GraphBLAS C API predefines a small set of numeric types
//! (`GrB_BOOL`, `GrB_INT8` … `GrB_FP64`).  Here the same role is played by
//! the [`ScalarType`] trait, which every kernel is generic over.  The trait
//! deliberately carries only the arithmetic primitives the predefined
//! operators need, so the crate has no dependency on `num-traits`.

/// A scalar type storable in a sparse matrix.
///
/// The trait provides the primitive operations out of which the predefined
/// [binary operators](crate::ops::binary) and [monoids](crate::ops::monoid)
/// are built.
pub trait ScalarType:
    Copy + PartialEq + PartialOrd + std::fmt::Debug + Default + Send + Sync + 'static
{
    /// Stable one-byte discriminant of the concrete type, recorded in
    /// on-disk headers so a file written as one type is never silently
    /// reinterpreted as another (e.g. `u64` bits read back as `f64`).
    /// Tags are part of the durable format and must never be reassigned.
    const TYPE_TAG: u8;

    /// Additive identity.
    fn zero() -> Self;

    /// Addition as used by the `Plus` operator (wrapping for integers).
    fn add(self, rhs: Self) -> Self;
    /// Multiplication as used by the `Times` operator (wrapping for
    /// integers).
    fn mul(self, rhs: Self) -> Self;
    /// Pairwise minimum.
    fn min_val(self, rhs: Self) -> Self;
    /// Pairwise maximum.
    fn max_val(self, rhs: Self) -> Self;

    /// Lossy conversion to `f64`, used for reporting and rate computations.
    fn to_f64(self) -> f64;
    /// Lossy conversion from `f64`, used by generators and tests.
    fn from_f64(v: f64) -> Self;
    /// Conversion from a `u64` count (used when values are edge weights/counts).
    fn from_u64(v: u64) -> Self;

    /// Exact 64-bit encoding for on-disk storage: bit-preserving for
    /// floats (`to_bits`), sign-extending for signed integers, zero-
    /// extending otherwise.  [`Self::decode_bits`] is its exact inverse
    /// for every value of `Self` (including float NaNs, bit for bit).
    fn encode_bits(self) -> u64;
    /// Inverse of [`Self::encode_bits`].
    fn decode_bits(bits: u64) -> Self;

    /// True when the value is exactly the additive identity.
    fn is_zero(self) -> bool {
        self == Self::zero()
    }
}

macro_rules! impl_scalar_float {
    ($($t:ty => $tag:expr),*) => {$(
        impl ScalarType for $t {
            const TYPE_TAG: u8 = $tag;
            fn zero() -> Self { 0.0 }
            fn add(self, rhs: Self) -> Self { self + rhs }
            fn mul(self, rhs: Self) -> Self { self * rhs }
            fn min_val(self, rhs: Self) -> Self { if self < rhs { self } else { rhs } }
            fn max_val(self, rhs: Self) -> Self { if self > rhs { self } else { rhs } }
            fn to_f64(self) -> f64 { self as f64 }
            fn from_f64(v: f64) -> Self { v as $t }
            fn from_u64(v: u64) -> Self { v as $t }
            fn encode_bits(self) -> u64 { self.to_bits() as u64 }
            fn decode_bits(bits: u64) -> Self { <$t>::from_bits(bits as _) }
        }
    )*};
}

macro_rules! impl_scalar_int {
    ($($t:ty => $tag:expr),*) => {$(
        impl ScalarType for $t {
            const TYPE_TAG: u8 = $tag;
            fn zero() -> Self { 0 }
            fn add(self, rhs: Self) -> Self { self.wrapping_add(rhs) }
            fn mul(self, rhs: Self) -> Self { self.wrapping_mul(rhs) }
            fn min_val(self, rhs: Self) -> Self { std::cmp::min(self, rhs) }
            fn max_val(self, rhs: Self) -> Self { std::cmp::max(self, rhs) }
            fn to_f64(self) -> f64 { self as f64 }
            fn from_f64(v: f64) -> Self { v as $t }
            fn from_u64(v: u64) -> Self { v as $t }
            // `as u64` sign-extends signed types, so truncating back with
            // `as $t` round-trips every value exactly.
            fn encode_bits(self) -> u64 { self as u64 }
            fn decode_bits(bits: u64) -> Self { bits as $t }
        }
    )*};
}

impl_scalar_float!(f32 => 10, f64 => 11);
impl_scalar_int!(
    i8 => 2, i16 => 3, i32 => 4, i64 => 5,
    u8 => 6, u16 => 7, u32 => 8, u64 => 9,
    usize => 12, isize => 13
);

impl ScalarType for bool {
    const TYPE_TAG: u8 = 1;
    fn zero() -> Self {
        false
    }
    fn add(self, rhs: Self) -> Self {
        self || rhs
    }
    fn mul(self, rhs: Self) -> Self {
        self && rhs
    }
    fn min_val(self, rhs: Self) -> Self {
        self && rhs
    }
    fn max_val(self, rhs: Self) -> Self {
        self || rhs
    }
    fn to_f64(self) -> f64 {
        if self {
            1.0
        } else {
            0.0
        }
    }
    fn from_f64(v: f64) -> Self {
        v != 0.0
    }
    fn from_u64(v: u64) -> Self {
        v != 0
    }
    fn encode_bits(self) -> u64 {
        self as u64
    }
    fn decode_bits(bits: u64) -> Self {
        bits != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_identity() {
        assert_eq!(f64::zero(), 0.0);
        assert!(f64::zero().is_zero());
        assert!(!1.0f64.is_zero());
    }

    #[test]
    fn integer_arithmetic_wraps() {
        assert_eq!(u8::MAX.add(1), 0);
        assert_eq!(200u8.mul(2), 144); // wrapping
        assert_eq!((-1i8).mul(-128), -128); // wrapping
    }

    #[test]
    fn min_max_values() {
        assert_eq!(3i64.min_val(-7), -7);
        assert_eq!(3i64.max_val(-7), 3);
        assert_eq!(3.5f64.min_val(2.5), 2.5);
        assert_eq!(3.5f64.max_val(2.5), 3.5);
    }

    #[test]
    fn conversions_round_trip() {
        assert_eq!(u64::from_f64(42.9), 42);
        assert_eq!(f64::from_u64(7), 7.0);
        assert_eq!(i32::from_u64(9), 9);
        assert_eq!(255u8.to_f64(), 255.0);
    }

    #[test]
    fn bool_algebra_is_or_and() {
        assert!(true.add(false));
        assert!(!false.add(false));
        assert!(!true.mul(false));
        assert!(true.mul(true));
        assert!(bool::from_u64(3));
        assert!(!bool::from_f64(0.0));
        assert_eq!(true.to_f64(), 1.0);
    }

    #[test]
    fn encode_bits_round_trips_exactly() {
        for v in [0i8, 1, -1, i8::MIN, i8::MAX] {
            assert_eq!(i8::decode_bits(v.encode_bits()), v);
        }
        for v in [0i64, -1, i64::MIN, i64::MAX, 42] {
            assert_eq!(i64::decode_bits(v.encode_bits()), v);
        }
        for v in [0u64, 1, u64::MAX] {
            assert_eq!(u64::decode_bits(v.encode_bits()), v);
        }
        for v in [
            0.0f64,
            -0.0,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ] {
            assert_eq!(f64::decode_bits(v.encode_bits()).to_bits(), v.to_bits());
        }
        // NaN payload bits survive the round trip.
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        assert_eq!(f64::decode_bits(nan.encode_bits()).to_bits(), nan.to_bits());
        for v in [0.25f32, -3.5, f32::NAN] {
            assert_eq!(f32::decode_bits(v.encode_bits()).to_bits(), v.to_bits());
        }
        assert!(bool::decode_bits(true.encode_bits()));
        assert!(!bool::decode_bits(false.encode_bits()));
    }

    #[test]
    fn type_tags_are_distinct_and_stable() {
        let tags = [
            bool::TYPE_TAG,
            i8::TYPE_TAG,
            i16::TYPE_TAG,
            i32::TYPE_TAG,
            i64::TYPE_TAG,
            u8::TYPE_TAG,
            u16::TYPE_TAG,
            u32::TYPE_TAG,
            u64::TYPE_TAG,
            f32::TYPE_TAG,
            f64::TYPE_TAG,
            usize::TYPE_TAG,
            isize::TYPE_TAG,
        ];
        let mut sorted = tags.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), tags.len(), "type tags must be unique");
        // Pin the values: they are part of the on-disk format.
        assert_eq!(u64::TYPE_TAG, 9);
        assert_eq!(f64::TYPE_TAG, 11);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(f64::default(), f64::zero());
        assert_eq!(u64::default(), u64::zero());
        assert_eq!(bool::default(), bool::zero());
    }
}
