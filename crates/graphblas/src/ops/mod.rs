//! The algebra the hierarchy rests on and the GraphBLAS operations built
//! from it.
//!
//! The hierarchy needs one fact: `⊕` is an associative, commutative
//! [`Monoid`], so a cascade `A_{i+1} ⊕= A_i` may run in any order.  The
//! operations are the ones its readers and analyses call: element-wise
//! add ([`ewise_add`]), reductions ([`reduce`]) and the products over level
//! slices ([`reader_mx`], one Gustavson/SPA kernel with [`spa`] as its
//! accumulator; a flat `Matrix` is a one-level reader).
//!
//! The operator traits are deliberately tiny: an operator is a zero-sized
//! `Copy` struct whose `apply` method is monomorphised into each kernel, so
//! there is no virtual dispatch on the hot path of a streaming update.

pub mod binary;
pub mod monoid;
pub mod semiring;

pub mod ewise_add;
pub mod reader_mx;
pub mod reduce;
pub mod spa;

use crate::types::ScalarType;

/// A binary operator `z = f(x, y)` over a scalar type.
///
/// Corresponds to `GrB_BinaryOp` restricted to operators whose three domains
/// coincide (the only kind the hierarchical-matrix workload needs).
pub trait BinaryOp<T: ScalarType>: Copy + Send + Sync {
    /// Apply the operator.
    fn apply(&self, x: T, y: T) -> T;

    /// True when [`BinaryOp::apply`] is total and side-effect free for
    /// *every* operand pair, so a kernel may evaluate it speculatively on
    /// operands that do not actually collide and discard the result.  The
    /// branchless merge kernel uses this to replace its collision branch
    /// with conditional moves.  All built-in operators opt in (integer
    /// arithmetic wraps, so none can panic); the default is `false` so a
    /// custom operator that may panic or observe its inputs keeps the
    /// guarded merge path.
    const SPECULATION_SAFE: bool = false;
}

/// A commutative monoid: an associative, commutative [`BinaryOp`] together
/// with an identity element.
///
/// Monoids are the algebraic backbone of the hierarchical hypersparse
/// matrix: because the reduction operator is associative and commutative,
/// entries can be accumulated level by level in any order and the final
/// `Σ A_i` is independent of the cascade schedule.
pub trait Monoid<T: ScalarType>: BinaryOp<T> {
    /// The identity element of the monoid.
    fn identity(&self) -> T;
}

/// A semiring: a [`Monoid`] used for "addition" plus a [`BinaryOp`] used for
/// "multiplication", as required by [`mxm_reader`](reader_mx::mxm_reader)
/// and friends.
pub trait Semiring<T: ScalarType>: Copy + Send + Sync {
    /// The additive monoid type.
    type Add: Monoid<T>;
    /// The multiplicative operator type.
    type Mul: BinaryOp<T>;

    /// The additive monoid.
    fn add(&self) -> Self::Add;
    /// The multiplicative operator.
    fn mul(&self) -> Self::Mul;
}

#[cfg(test)]
mod tests {
    use super::binary::*;
    use super::monoid::*;
    use super::*;

    // Generic helpers exercised through the traits, proving the kernels can be
    // written generically.
    fn fold<T: ScalarType, M: Monoid<T>>(m: M, xs: &[T]) -> T {
        xs.iter().fold(m.identity(), |acc, &x| m.apply(acc, x))
    }

    #[test]
    fn generic_fold_over_monoids() {
        assert_eq!(fold(PlusMonoid, &[1u64, 2, 3, 4]), 10);
        assert_eq!(fold(MinMonoid, &[5.0f64, -2.0, 7.5]), -2.0);
        assert_eq!(fold(MaxMonoid, &[5i64, -2, 7]), 7);
        assert_eq!(fold(PlusMonoid, &[] as &[u32]), 0);
    }

    #[test]
    fn binary_op_object_safety_not_required() {
        // Operators are Copy zero-sized types; ensure they can be passed by value.
        fn takes_op<T: ScalarType, O: BinaryOp<T>>(op: O, a: T, b: T) -> T {
            op.apply(a, b)
        }
        assert_eq!(takes_op(Plus, 2u8, 3), 5);
        assert_eq!(takes_op(First, 2u8, 3), 2);
        assert_eq!(takes_op(Second, 2u8, 3), 3);
    }
}
