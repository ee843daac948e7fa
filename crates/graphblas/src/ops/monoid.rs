//! Predefined commutative monoids.
//!
//! A monoid pairs an associative, commutative binary operator with its
//! identity.  The `Plus` monoid is the one the hierarchical hypersparse
//! matrix relies on: the cascade `A_{i+1} = A_{i+1} ⊕ A_i` only represents
//! the same object as the flat sum because `⊕` is associative and
//! commutative and because clearing a level corresponds to resetting it to
//! the identity-annihilated (empty) matrix.

use super::binary::{Max, Min, Plus};
use super::{BinaryOp, Monoid};
use crate::types::ScalarType;

/// The `(+, 0)` monoid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlusMonoid;

/// The `(min, +inf)` monoid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinMonoid;

/// The `(max, -inf)` monoid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaxMonoid;

impl<T: ScalarType> BinaryOp<T> for PlusMonoid {
    fn apply(&self, x: T, y: T) -> T {
        Plus.apply(x, y)
    }
}
impl<T: ScalarType> Monoid<T> for PlusMonoid {
    fn identity(&self) -> T {
        T::zero()
    }
}

impl<T: ScalarType> BinaryOp<T> for MinMonoid {
    fn apply(&self, x: T, y: T) -> T {
        Min.apply(x, y)
    }
}
impl<T: ScalarType> Monoid<T> for MinMonoid {
    fn identity(&self) -> T {
        T::max_value()
    }
}

impl<T: ScalarType> BinaryOp<T> for MaxMonoid {
    fn apply(&self, x: T, y: T) -> T {
        Max.apply(x, y)
    }
}
impl<T: ScalarType> Monoid<T> for MaxMonoid {
    fn identity(&self) -> T {
        T::min_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_identity<M: Monoid<i64>>(m: M, samples: &[i64]) {
        for &x in samples {
            assert_eq!(m.apply(m.identity(), x), x, "left identity failed");
            assert_eq!(m.apply(x, m.identity()), x, "right identity failed");
        }
    }

    fn check_assoc_comm<M: Monoid<i64>>(m: M, samples: &[i64]) {
        for &a in samples {
            for &b in samples {
                assert_eq!(m.apply(a, b), m.apply(b, a), "commutativity failed");
                for &c in samples {
                    assert_eq!(
                        m.apply(m.apply(a, b), c),
                        m.apply(a, m.apply(b, c)),
                        "associativity failed"
                    );
                }
            }
        }
    }

    const SAMPLES: &[i64] = &[-7, -1, 0, 1, 2, 13, 1000];

    #[test]
    fn plus_monoid_laws() {
        check_identity(PlusMonoid, SAMPLES);
        check_assoc_comm(PlusMonoid, SAMPLES);
    }

    #[test]
    fn min_max_monoid_laws() {
        check_identity(MinMonoid, SAMPLES);
        check_assoc_comm(MinMonoid, SAMPLES);
        check_identity(MaxMonoid, SAMPLES);
        check_assoc_comm(MaxMonoid, SAMPLES);
    }

    #[test]
    fn float_identities() {
        let m = MinMonoid;
        assert_eq!(Monoid::<f64>::identity(&m), f64::INFINITY);
        let m = MaxMonoid;
        assert_eq!(Monoid::<f64>::identity(&m), f64::NEG_INFINITY);
        let m = PlusMonoid;
        assert_eq!(Monoid::<f64>::identity(&m), 0.0);
    }
}
