//! Every retained reference implementation, and nothing else.
//!
//! The equivalence suites (`tests/algo_equivalence.rs`,
//! `tests/merge_equivalence.rs`, the in-crate unit tests) compare the product
//! kernels against these; product code never calls them (CI counts
//! `oracle::` on non-test lines).  Each is written for being obviously right,
//! not fast, and none stands on the code it checks: the two semiring products
//! fold into a `BTreeMap`, the four graph algorithms run on those two
//! products over a pattern rebuilt from the reader's plain entry cursor, and
//! the merge is one two-pointer walk over `(row, col)` keys.
//!
//! A reference fails with a typed error where its product fails (mismatched
//! dimensions), so a test compares `Result`s whole.

use crate::error::{GrbError, GrbResult};
use crate::formats::coo::Coo;
use crate::formats::dcsr::Dcsr;
use crate::index::Index;
use crate::matrix::Matrix;
use crate::ops::binary::Second;
use crate::ops::semiring::{MinFirst, MinSecond, PlusTimes};
use crate::ops::{BinaryOp, Semiring};
use crate::reader::{read_tuples, MatrixReader};
use crate::types::ScalarType;
use crate::vector::SparseVector;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// `acc(key) ⊕= p`, first arrival stored as is.
fn fold_in<K: Ord, T: ScalarType>(acc: &mut BTreeMap<K, T>, key: K, p: T, add: impl BinaryOp<T>) {
    acc.entry(key)
        .and_modify(|v| *v = add.apply(*v, p))
        .or_insert(p);
}

/// `C = A ⊕.⊗ B` through a `BTreeMap` accumulator: per output cell the
/// products fold in ascending inner index, which is the order the SPA
/// kernel reproduces.
pub fn mxm_btree<T, S>(a: &Matrix<T>, b: &Matrix<T>, semiring: S) -> GrbResult<Matrix<T>>
where
    T: ScalarType,
    S: Semiring<T>,
{
    if a.ncols() != b.nrows() {
        return Err(GrbError::DimensionMismatch {
            detail: format!(
                "inner dimensions differ: A is {}x{}, B is {}x{}",
                a.nrows(),
                a.ncols(),
                b.nrows(),
                b.ncols()
            ),
        });
    }
    let (da, db) = (a.settled_content(), b.settled_content());
    let mut acc: BTreeMap<(Index, Index), T> = BTreeMap::new();
    for (i, k, aik) in da.iter() {
        let (cols, vals) = db.row(k).unwrap_or_default();
        for (&j, &bkj) in cols.iter().zip(vals) {
            let p = semiring.mul().apply(aik, bkj);
            fold_in(&mut acc, (i, j), p, semiring.add());
        }
    }
    let rows: Vec<Index> = acc.keys().map(|k| k.0).collect();
    let cols: Vec<Index> = acc.keys().map(|k| k.1).collect();
    let vals: Vec<T> = acc.into_values().collect();
    Matrix::from_tuples(a.nrows(), b.ncols(), &rows, &cols, &vals, Second)
}

/// `w = u ⊕.⊗ A` through a `BTreeMap` accumulator.
pub fn vxm_btree<T, S>(
    u: &SparseVector<T>,
    a: &Matrix<T>,
    semiring: S,
) -> GrbResult<SparseVector<T>>
where
    T: ScalarType,
    S: Semiring<T>,
{
    if u.size() != a.nrows() {
        return Err(GrbError::DimensionMismatch {
            detail: format!("u has size {}, A is {}x{}", u.size(), a.nrows(), a.ncols()),
        });
    }
    let da = a.settled_content();
    let mut acc: BTreeMap<Index, T> = BTreeMap::new();
    for (i, ui) in u.iter() {
        let (cols, vals) = da.row(i).unwrap_or_default();
        for (&j, &aij) in cols.iter().zip(vals) {
            fold_in(&mut acc, j, semiring.mul().apply(ui, aij), semiring.add());
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

/// What the graph references work on: the reader's stored cells, pulled
/// through its plain entry cursor, and the side `n = max(nrows, ncols)` of
/// the square every vertex id fits in — the size the product algorithms
/// give their results, so a test compares whole vectors.
fn cells<V, R>(a: &mut R) -> (Index, Vec<Index>, Vec<Index>)
where
    V: ScalarType,
    R: MatrixReader<V> + ?Sized,
{
    let (rows, cols, _) = read_tuples(a);
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
/// [`vxm_btree`] over `(plus, times)`.
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
        let spread = vxm_btree(&held, &p, PlusTimes)?;
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

/// Connected components of the pattern of `a` taken symmetrically (see
/// [`algo::connected_components`](crate::algo::connected_components)): the
/// symmetrised pattern built flat, labels falling along [`vxm_btree`] over
/// `(min, first)` until none moves.
pub fn connected_components_tuples<V, R>(a: &mut R) -> GrbResult<SparseVector<u64>>
where
    V: ScalarType,
    R: MatrixReader<V> + ?Sized,
{
    let (n, rows, cols) = cells(a);
    let both: Vec<Index> = rows.iter().chain(&cols).copied().collect();
    let swapped: Vec<Index> = cols.iter().chain(&rows).copied().collect();
    let sym = pattern(n, &both, &swapped)?;
    let active = distinct(both.into_iter());
    // labels(v) = v to start with.
    let mut labels = SparseVector::from_sorted_parts(n, active.clone(), active)?;
    loop {
        let incoming = vxm_btree(&labels, &sym, MinFirst)?;
        let mut changed = false;
        for (v, label) in incoming.iter() {
            if labels.get(v).is_some_and(|held| label < held) {
                labels.set(v, label)?;
                changed = true;
            }
        }
        if !changed {
            return Ok(labels);
        }
    }
}

/// BFS levels from `source` over the directed pattern of `a` (see
/// [`algo::bfs_levels`](crate::algo::bfs_levels)): every wave one
/// [`vxm_btree`] over `(min, second)`, visited vertices dropped afterwards.
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
        let reached = vxm_btree(&frontier, &adjacency, MinSecond)?;
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

/// Triangles of the symmetric pattern of `a` (see
/// [`algo::triangle_count`](crate::algo::triangle_count)), by the explicit
/// `sum((A*A) .* A) / 6`: [`mxm_btree`] forms the 2-path counts, the stored
/// cells select the closed ones.
pub fn triangle_count_tuples<V, R>(a: &mut R) -> GrbResult<u64>
where
    V: ScalarType,
    R: MatrixReader<V> + ?Sized,
{
    let (n, rows, cols) = cells(a);
    let adjacency = pattern(n, &rows, &cols)?;
    let paths2 = mxm_btree(&adjacency, &adjacency, PlusTimes)?;
    let closed = rows
        .iter()
        .zip(&cols)
        .filter_map(|(&i, &j)| paths2.get(i, j));
    Ok(closed.fold(0u64, u64::wrapping_add) / 6)
}
