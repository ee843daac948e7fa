//! Predefined semirings for matrix multiplication.

use super::binary::{First, Plus, Second, Times};
use super::monoid::{MinMonoid, PlusMonoid};
use super::Semiring;
use crate::types::ScalarType;

/// The conventional arithmetic semiring `(+, *)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlusTimes;

impl<T: ScalarType> Semiring<T> for PlusTimes {
    type Add = PlusMonoid;
    type Mul = Times;
    fn add(&self) -> PlusMonoid {
        PlusMonoid
    }
    fn mul(&self) -> Times {
        Times
    }
}

/// The tropical (shortest-path) semiring `(min, +)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinPlus;

impl<T: ScalarType> Semiring<T> for MinPlus {
    type Add = MinMonoid;
    type Mul = Plus;
    fn add(&self) -> MinMonoid {
        MinMonoid
    }
    fn mul(&self) -> Plus {
        Plus
    }
}

/// The `(min, second)` semiring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinSecond;

impl<T: ScalarType> Semiring<T> for MinSecond {
    type Add = MinMonoid;
    type Mul = Second;
    fn add(&self) -> MinMonoid {
        MinMonoid
    }
    fn mul(&self) -> Second {
        Second
    }
}

/// The `(min, first)` semiring, used by label-propagation algorithms
/// (connected components): `vxm` under this semiring carries the *vector*
/// value (the label) across each edge and keeps the minimum at the
/// destination.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinFirst;

impl<T: ScalarType> Semiring<T> for MinFirst {
    type Add = MinMonoid;
    type Mul = First;
    fn add(&self) -> MinMonoid {
        MinMonoid
    }
    fn mul(&self) -> First {
        First
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{BinaryOp, Monoid};

    #[test]
    fn plus_times_components() {
        let s = PlusTimes;
        let add = Semiring::<i64>::add(&s);
        let mul = Semiring::<i64>::mul(&s);
        assert_eq!(Monoid::<i64>::identity(&add), 0i64);
        assert_eq!(add.apply(2, 3), 5);
        assert_eq!(mul.apply(2, 3), 6);
    }

    #[test]
    fn min_plus_components() {
        let s = MinPlus;
        let add = Semiring::<f64>::add(&s);
        let mul = Semiring::<f64>::mul(&s);
        assert_eq!(Monoid::<f64>::identity(&add), f64::INFINITY);
        assert_eq!(add.apply(2.0, 3.0), 2.0);
        assert_eq!(mul.apply(2.0, 3.0), 5.0);
    }

    #[test]
    fn second_based_semirings() {
        let s = MinSecond;
        let mul = Semiring::<u32>::mul(&s);
        assert_eq!(mul.apply(100, 7), 7);
        let add = Semiring::<u32>::add(&s);
        assert_eq!(Monoid::<u32>::identity(&add), u32::MAX);
    }
}
