//! Every retained reference implementation, and nothing else.
//!
//! The equivalence suites (`tests/algo_equivalence.rs`,
//! `tests/merge_equivalence.rs`, the in-crate unit tests) compare the product
//! kernels against these; product code never calls them (CI counts
//! `oracle::` on non-test lines).  Each is written for being obviously right,
//! not fast, and none stands on the code it checks: the two graph
//! algorithms run on one `BTreeMap` product over a pattern rebuilt from the
//! reader's plain entry cursor, the merge is one two-pointer walk over
//! `(row, col)` keys, and the transpose rebuilds from the swapped tuples
//! through the COO sort, not through the column radix of the twin it
//! checks.
//!
//! A reference fails with a typed error where its product fails (mismatched
//! dimensions), so a test compares `Result`s whole.

use crate::error::{GrbError, GrbResult};
use crate::formats::coo::Coo;
use crate::formats::dcsr::Dcsr;
use crate::index::Index;
use crate::matrix::Matrix;
use crate::ops::binary::{Min, Plus, Second, Times};
use crate::ops::BinaryOp;
use crate::reader::MatrixReader;
use crate::types::ScalarType;
use crate::vector::SparseVector;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// `w(j) = add over i of mul(u(i), a(i, j))` through a `BTreeMap`
/// accumulator, each column's products folded in ascending `i`.  The graph
/// references' one product; `u` is sized like `a`'s rows by every caller.
fn vxm_btree<T, M, A>(
    u: &SparseVector<T>,
    a: &Matrix<T>,
    mul: M,
    add: A,
) -> GrbResult<SparseVector<T>>
where
    T: ScalarType,
    M: BinaryOp<T>,
    A: BinaryOp<T>,
{
    let da = a.settled_content();
    let mut acc: BTreeMap<Index, T> = BTreeMap::new();
    for (i, ui) in u.iter() {
        let (cols, vals) = da.row(i).unwrap_or_default();
        for (&j, &aij) in cols.iter().zip(vals) {
            let p = mul.apply(ui, aij);
            acc.entry(j)
                .and_modify(|v| *v = add.apply(*v, p))
                .or_insert(p);
        }
    }
    let (idx, vals) = acc.into_iter().unzip();
    SparseVector::from_sorted_parts(a.ncols(), idx, vals)
}

/// `A ⊕ B`: set union of the patterns, `op.apply(a, b)` where both store a
/// cell — one two-pointer walk over the operands' row-major entries.  What
/// `Dcsr::{merge, merge_into, merge_sorted_coo_into}` must equal plane for
/// plane.
pub fn merge<T, Op>(a: &Dcsr<T>, b: &Dcsr<T>, op: Op) -> GrbResult<Dcsr<T>>
where
    T: ScalarType,
    Op: BinaryOp<T>,
{
    if (a.nrows(), a.ncols()) != (b.nrows(), b.ncols()) {
        return Err(GrbError::DimensionMismatch {
            detail: format!("{}x{} vs {}x{}", a.nrows(), a.ncols(), b.nrows(), b.ncols()),
        });
    }
    let mut out = Coo::try_new(a.nrows(), a.ncols())?;
    let (mut xs, mut ys) = (a.iter().peekable(), b.iter().peekable());
    loop {
        let order = match (xs.peek(), ys.peek()) {
            (Some(x), Some(y)) => (x.0, x.1).cmp(&(y.0, y.1)),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => break,
        };
        let x = xs.next_if(|_| order.is_le());
        let y = ys.next_if(|_| order.is_ge());
        match (x, y) {
            (Some(x), Some(y)) => out.push(x.0, x.1, op.apply(x.2, y.2)),
            (Some(e), None) | (None, Some(e)) => out.push(e.0, e.1, e.2),
            (None, None) => break,
        }
    }
    Dcsr::from_sorted_coo(&out)
}

/// `Aᵀ`: `a`'s tuples (pending ones settled in) with row and column
/// swapped, rebuilt by [`Dcsr::from_tuples`].  What
/// `Matrix::col_shadow`, the column twin behind every column read, must
/// equal plane for plane.  Fails only where a `Dcsr` of `a`'s dimensions
/// could not be built.
pub fn transpose<T: ScalarType>(a: &Matrix<T>) -> GrbResult<Matrix<T>> {
    let (rows, cols, vals) = a.extract_tuples();
    let t = Dcsr::from_tuples(a.ncols(), a.nrows(), &cols, &rows, &vals, Second)?;
    Ok(Matrix::from_dcsr(t))
}

/// What the graph references work on: the reader's stored cells, pulled
/// through its plain entry scan, and the side `n = max(nrows, ncols)` of
/// the square every vertex id fits in — the size the product algorithms
/// give their results, so a test compares whole vectors.
fn cells<V, R>(a: &mut R) -> (Index, Vec<Index>, Vec<Index>)
where
    V: ScalarType,
    R: MatrixReader<V> + ?Sized,
{
    let (mut rows, mut cols) = (Vec::new(), Vec::new());
    a.read_entries(&mut |r, c, _| {
        rows.push(r);
        cols.push(c);
    });
    let (nrows, ncols) = a.read_dims();
    (nrows.max(ncols), rows, cols)
}

/// The `n x n` ones pattern over `rows x cols`.
fn pattern(n: Index, rows: &[Index], cols: &[Index]) -> GrbResult<Matrix<u64>> {
    Matrix::from_tuples(n, n, rows, cols, &vec![1; rows.len()], Second)
}

/// The sorted distinct ids of `ids`.
fn distinct(ids: impl Iterator<Item = Index>) -> Vec<Index> {
    let mut ids: Vec<Index> = ids.collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// PageRank of the directed pattern of `a` (see
/// [`algo::pagerank`](crate::algo::pagerank) for the contract): the
/// row-stochastic transition matrix built flat, every iteration one
/// `vxm_btree` under `(times, plus)`.
pub fn pagerank_tuples<V, R>(
    a: &mut R,
    damping: f64,
    max_iters: usize,
    tol: f64,
) -> GrbResult<SparseVector<f64>>
where
    V: ScalarType,
    R: MatrixReader<V> + ?Sized,
{
    let (n, rows, cols) = cells(a);
    let active = distinct(rows.iter().chain(&cols).copied());
    // P(i, j) = 1 / outdeg(i), a source's out-degree being its stored cells.
    let mut outdeg: BTreeMap<Index, f64> = BTreeMap::new();
    for &i in &rows {
        *outdeg.entry(i).or_default() += 1.0;
    }
    let pvals: Vec<f64> = rows.iter().map(|i| 1.0 / outdeg[i]).collect();
    let p = Matrix::from_tuples(n, n, &rows, &cols, &pvals, Second)?;

    let uniform = 1.0 / active.len() as f64;
    let teleport = (1.0 - damping) * uniform;
    let mut rank = vec![uniform; active.len()];
    for _ in 0..max_iters {
        let held = SparseVector::from_sorted_parts(n, active.clone(), rank.clone())?;
        let spread = vxm_btree(&held, &p, Times, Plus)?;
        let mut delta = 0.0;
        for (r, &v) in rank.iter_mut().zip(&active) {
            let next = teleport + damping * spread.get(v).unwrap_or(0.0);
            delta += (next - *r).abs();
            *r = next;
        }
        if delta < tol {
            break;
        }
    }
    SparseVector::from_sorted_parts(n, active, rank)
}

/// BFS levels from `source` over the directed pattern of `a` (see
/// [`algo::bfs_levels`](crate::algo::bfs_levels)): every wave one
/// `vxm_btree` under `(second, min)`, visited vertices dropped afterwards.
pub fn bfs_levels_tuples<V, R>(a: &mut R, source: Index) -> GrbResult<SparseVector<u64>>
where
    V: ScalarType,
    R: MatrixReader<V> + ?Sized,
{
    let (n, rows, cols) = cells(a);
    let adjacency = pattern(n, &rows, &cols)?;
    let mut levels = SparseVector::new(n);
    if source >= a.read_dims().0 {
        return Ok(levels);
    }
    levels.set(source, 1)?;
    let mut frontier = levels.clone();
    let mut level = 1;
    while !frontier.is_empty() {
        level += 1;
        let reached = vxm_btree(&frontier, &adjacency, Second, Min)?;
        frontier = SparseVector::new(n);
        for (j, _) in reached.iter() {
            if levels.get(j).is_none() {
                levels.set(j, level)?;
                frontier.set(j, 1)?;
            }
        }
    }
    Ok(levels)
}
