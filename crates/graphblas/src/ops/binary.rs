//! The predefined binary operators the hierarchy and its analyses use (a
//! subset of the `GrB_*` built-ins).

use super::BinaryOp;
use crate::types::ScalarType;

/// `z = x + y` (logical OR for `bool`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Plus;

/// `z = x * y` (logical AND for `bool`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Times;

/// `z = min(x, y)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Min;

/// `z = max(x, y)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Max;

/// `z = x` — keep the first operand.  Useful as a "no accumulate, last write
/// does not win" policy and as the multiplicative op of structural semirings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct First;

/// `z = y` — keep the second operand ("last write wins").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Second;

impl<T: ScalarType> BinaryOp<T> for Plus {
    const SPECULATION_SAFE: bool = true;
    fn apply(&self, x: T, y: T) -> T {
        x.add(y)
    }
}

impl<T: ScalarType> BinaryOp<T> for Times {
    const SPECULATION_SAFE: bool = true;
    fn apply(&self, x: T, y: T) -> T {
        x.mul(y)
    }
}

impl<T: ScalarType> BinaryOp<T> for Min {
    const SPECULATION_SAFE: bool = true;
    fn apply(&self, x: T, y: T) -> T {
        x.min_val(y)
    }
}

impl<T: ScalarType> BinaryOp<T> for Max {
    const SPECULATION_SAFE: bool = true;
    fn apply(&self, x: T, y: T) -> T {
        x.max_val(y)
    }
}

impl<T: ScalarType> BinaryOp<T> for First {
    const SPECULATION_SAFE: bool = true;
    fn apply(&self, x: T, _y: T) -> T {
        x
    }
}

impl<T: ScalarType> BinaryOp<T> for Second {
    const SPECULATION_SAFE: bool = true;
    fn apply(&self, _x: T, y: T) -> T {
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_ops() {
        assert_eq!(BinaryOp::<i64>::apply(&Plus, 3, 4), 7);
        assert_eq!(BinaryOp::<i64>::apply(&Times, 3, 4), 12);
        assert_eq!(BinaryOp::<f64>::apply(&Plus, 0.5, 0.25), 0.75);
    }

    #[test]
    fn ordering_ops() {
        assert_eq!(BinaryOp::<i64>::apply(&Min, 3, -4), -4);
        assert_eq!(BinaryOp::<i64>::apply(&Max, 3, -4), 3);
        assert_eq!(BinaryOp::<f64>::apply(&Min, 1.5, 2.5), 1.5);
    }

    #[test]
    fn selection_ops() {
        assert_eq!(BinaryOp::<u32>::apply(&First, 10, 20), 10);
        assert_eq!(BinaryOp::<u32>::apply(&Second, 10, 20), 20);
    }

    #[test]
    fn bool_specialisations() {
        assert!(BinaryOp::<bool>::apply(&Plus, true, false));
        assert!(!BinaryOp::<bool>::apply(&Times, true, false));
        assert!(!BinaryOp::<bool>::apply(&Min, true, false));
        assert!(BinaryOp::<bool>::apply(&Max, true, false));
    }
}
