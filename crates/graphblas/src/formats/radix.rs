//! The crate's one radix sort: a stable MSD sort of `u64` keys carrying a
//! `Copy` payload, behind the settle sort, the column twin's per-settle
//! transpose, `Dcsr::transposed` and the graph algorithms' vertex relabel.
//!
//! An LSD radix scatters every key once per digit, and with high-entropy
//! keys nearly every store of every pass misses the cache.  This sort
//! scatters once, on the top `b` bits of the bits that vary across the
//! range (the OR of `k ^ k0`), `b` chosen from the range's length so that
//! buckets average a few keys and the write heads stay cache-resident.
//! Every bucket then finishes in cache: one of at most [`RANK_MAX`] keys by
//! a branch-free rank sort, a larger one by the same partition on its own
//! varying bits — at most `64 / DIGIT_BITS_MIN` levels deep.  Both steps
//! are stable: equal keys keep their input order.

use crate::formats::MemoryFootprint;

/// A bucket this short is finished by a rank sort, whose cost per key
/// grows with the bucket; past it one more partition is cheaper.
const RANK_MAX: usize = 24;

/// Fewest bits a partition splits on: a bucket just past [`RANK_MAX`]
/// splits into 16 buckets of one or two keys, not hundreds of empty ones.
const DIGIT_BITS_MIN: u32 = 4;

/// Most bits a partition splits on.  2^14 buckets keep one write head per
/// bucket in each of the two planes: 2 × 16,384 cache lines, 2 MiB — what
/// an L2 holds.  Wider digits miss on nearly every store.
const DIGIT_BITS_MAX: u32 = 14;

/// The one size limit of the position-carrying sort and of the structures
/// built on it (`Dcsr::transposed`, the graph algorithms' vertex relabel):
/// positions are `u32`.
///
/// # Panics
/// Panics when `n` exceeds `u32::MAX`.
pub(crate) fn assert_u32_positions(n: usize) {
    assert!(
        u32::try_from(n).is_ok(),
        "positions are carried as u32: {n} exceeds u32::MAX"
    );
}

/// Key and payload planes plus histogram space.  A caller that sorts batch
/// after batch keeps them: once they have grown to the longest batch, a
/// sort allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct RadixPlanes<P> {
    keys: Vec<u64>,
    vals: Vec<P>,
    keys_alt: Vec<u64>,
    vals_alt: Vec<P>,
    hist: Vec<usize>,
}

/// Manual impl: empty vectors need no bound on `P`.
impl<P> Default for RadixPlanes<P> {
    fn default() -> Self {
        Self {
            keys: Vec::new(),
            vals: Vec::new(),
            keys_alt: Vec::new(),
            vals_alt: Vec::new(),
            hist: Vec::new(),
        }
    }
}

impl<P: Copy + Default> RadixPlanes<P> {
    /// Sort `pairs` by key, stably, and borrow the answer from the planes
    /// (it stands until the next call).  The keys are loaded in one pass
    /// that also finds the bits on which they vary.
    pub(crate) fn sort(
        &mut self,
        pairs: impl ExactSizeIterator<Item = (u64, P)>,
    ) -> (&[u64], &[P]) {
        let n = pairs.len();
        resize_exact(&mut self.keys, n, 0);
        resize_exact(&mut self.vals, n, P::default());
        let (mut or, mut and) = (0u64, u64::MAX);
        for ((k, v), (dk, dv)) in pairs.zip(self.keys.iter_mut().zip(self.vals.iter_mut())) {
            or |= k;
            and &= k;
            *dk = k;
            *dv = v;
        }
        // With every key equal (or none) the input order is the answer.
        let varying = or & !and;
        if varying != 0 {
            resize_exact(&mut self.keys_alt, n, 0);
            resize_exact(&mut self.vals_alt, n, P::default());
            sort_range(
                &mut self.keys,
                &mut self.vals,
                &mut self.keys_alt[..n],
                &mut self.vals_alt[..n],
                &mut self.hist,
                0,
                varying,
                false,
            );
        }
        (&self.keys, &self.vals)
    }

    /// Bytes held: keys and histogram as index bytes, payloads as values.
    pub(crate) fn footprint(&self) -> MemoryFootprint {
        MemoryFootprint {
            index_bytes: (self.keys.capacity() + self.keys_alt.capacity())
                * std::mem::size_of::<u64>()
                + self.hist.capacity() * std::mem::size_of::<usize>(),
            value_bytes: (self.vals.capacity() + self.vals_alt.capacity())
                * std::mem::size_of::<P>(),
        }
    }
}

impl RadixPlanes<u32> {
    /// Sort a copy of `keys`, each carrying its position: the answer is
    /// `(sorted, pos)` with `sorted[i] == keys[pos[i]]`, equal keys in
    /// ascending position.
    ///
    /// # Panics
    /// Panics when there are more than `u32::MAX` keys
    /// ([`assert_u32_positions`]).
    pub(crate) fn sort_positions(&mut self, keys: &[u64]) -> (&[u64], &[u32]) {
        assert_u32_positions(keys.len());
        self.sort(keys.iter().copied().zip(0..keys.len() as u32))
    }
}

/// Partition width for a range of `len` keys: about `log2(len) - 3` bits,
/// so buckets average eight keys, inside the bounds above.
fn digit_bits(len: usize) -> u32 {
    len.ilog2()
        .saturating_sub(3)
        .clamp(DIGIT_BITS_MIN, DIGIT_BITS_MAX)
}

/// Stable sort of `ks` (payloads `vs` alongside), whose keys differ in the
/// bits of `varying` only, by one partition into `ka` / `va` (scratch, as
/// long).  The answer lands in `ka` when `into_alt`, else back in `ks`: a
/// bucket's own partition runs from `ka` into `ks` with the flag flipped,
/// so it lands where its parent wants it without a copy.  The histogram is
/// `hist[base..]`; a bucket's own stacks above it.
#[allow(clippy::too_many_arguments)]
fn sort_range<P: Copy>(
    ks: &mut [u64],
    vs: &mut [P],
    ka: &mut [u64],
    va: &mut [P],
    hist: &mut Vec<usize>,
    base: usize,
    varying: u64,
    into_alt: bool,
) {
    let n = ks.len();
    let top = u64::BITS - varying.leading_zeros();
    let bits = digit_bits(n).min(top);
    let shift = top - bits;
    let mask = (1u64 << bits) - 1;
    let digit = |k: u64| ((k >> shift) & mask) as usize;
    let buckets = 1usize << bits;
    // A partition two bits under the cap has room for twice the write
    // heads: it scatters the range's halves as two interleaved streams with
    // offsets of their own, so a run of equal digits (a hub's ids, a row's
    // ascending columns) alternates between two counters instead of
    // serialising every increment on one.
    let half = if bits + 2 <= DIGIT_BITS_MAX { n / 2 } else { 0 };
    let span = 2 * buckets;
    if hist.len() < base + span {
        hist.reserve_exact(base + span - hist.len());
        hist.resize(base + span, 0);
    }
    let (h1, h2) = hist[base..base + span].split_at_mut(buckets);
    h1.fill(0);
    h2.fill(0);
    let ((k1, k2), (v1, v2)) = (ks.split_at(half), vs.split_at(half));
    for (&a, &b) in k1.iter().zip(k2) {
        h1[digit(a)] += 1;
        h2[digit(b)] += 1;
    }
    for &b in &k2[half..] {
        h2[digit(b)] += 1;
    }
    // In every bucket the first half's keys go before the second's: stable.
    let mut sum = 0;
    for (s1, s2) in h1.iter_mut().zip(h2.iter_mut()) {
        let (c1, c2) = (*s1, *s2);
        (*s1, *s2) = (sum, sum + c1);
        sum += c1 + c2;
    }
    for ((&a, &x), (&b, &y)) in k1.iter().zip(v1).zip(k2.iter().zip(v2)) {
        let s = &mut h1[digit(a)];
        (ka[*s], va[*s]) = (a, x);
        *s += 1;
        let s = &mut h2[digit(b)];
        (ka[*s], va[*s]) = (b, y);
        *s += 1;
    }
    for (&b, &y) in k2[half..].iter().zip(&v2[half..]) {
        let s = &mut h2[digit(b)];
        (ka[*s], va[*s]) = (b, y);
        *s += 1;
    }
    // The second stream's offsets now hold every bucket's end, and every
    // bucket lies in `ka`.
    let mut lo = 0;
    for b in base + buckets..base + span {
        let hi = hist[b];
        let m = hi - lo;
        if m > RANK_MAX {
            let (or, and) = ka[lo..hi]
                .iter()
                .fold((0, u64::MAX), |(or, and), &k| (or | k, and & k));
            if or != and {
                sort_range(
                    &mut ka[lo..hi],
                    &mut va[lo..hi],
                    &mut ks[lo..hi],
                    &mut vs[lo..hi],
                    hist,
                    base + span,
                    or & !and,
                    !into_alt,
                );
            } else if !into_alt {
                ks[lo..hi].copy_from_slice(&ka[lo..hi]);
                vs[lo..hi].copy_from_slice(&va[lo..hi]);
            }
        } else if m > 1 {
            rank_into(&ka[lo..hi], &va[lo..hi], &mut ks[lo..hi], &mut vs[lo..hi]);
            if into_alt {
                ka[lo..hi].copy_from_slice(&ks[lo..hi]);
                va[lo..hi].copy_from_slice(&vs[lo..hi]);
            }
        } else if m == 1 && !into_alt {
            ks[lo] = ka[lo];
            vs[lo] = va[lo];
        }
        lo = hi;
    }
}

/// Stable sort of a short range from `sk` / `sv` into `dk` / `dv`: each key
/// goes to its rank — the keys before it that are not greater plus the
/// keys after it that are smaller.  Comparisons only, no data-dependent
/// branch.
fn rank_into<P: Copy>(sk: &[u64], sv: &[P], dk: &mut [u64], dv: &mut [P]) {
    let m = sk.len();
    let (sv, dk, dv) = (&sv[..m], &mut dk[..m], &mut dv[..m]);
    for (i, &k) in sk.iter().enumerate() {
        let before = sk[..i].iter().filter(|&&x| x <= k).count();
        let after = sk[i + 1..].iter().filter(|&&x| x < k).count();
        dk[before + after] = k;
        dv[before + after] = sv[i];
    }
}

/// `Vec::resize` that grows the allocation to exactly `n`: doubling would
/// double the planes whenever a sort is a key longer than any before it,
/// and the footprint would turn on the order of sorts.
fn resize_exact<U: Clone>(v: &mut Vec<U>, n: usize, fill: U) {
    v.reserve_exact(n.saturating_sub(v.len()));
    v.resize(n, fill);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// splitmix64.
    fn mix(i: u64) -> u64 {
        let mut z = i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `sort_positions` of `keys`, checked against a stable comparison sort
    /// of `(key, position)`: sorted, `pos` a permutation, ties ascending.
    fn check_positions(planes: &mut RadixPlanes<u32>, keys: &[u64]) {
        let mut want: Vec<(u64, u32)> = keys.iter().copied().zip(0..).collect();
        want.sort_by_key(|&(k, _)| k);
        let (sorted, pos) = planes.sort_positions(keys);
        assert_eq!(sorted.len(), keys.len());
        assert_eq!(pos.len(), keys.len());
        let got: Vec<(u64, u32)> = sorted.iter().copied().zip(pos.iter().copied()).collect();
        assert_eq!(got, want);
        for (i, &p) in pos.iter().enumerate() {
            assert_eq!(keys[p as usize], sorted[i]);
        }
    }

    #[test]
    fn positions_are_a_stable_permutation_at_every_shape() {
        let mut planes = RadixPlanes::default();
        let space = 1u64 << 40;
        for n in [0usize, 1, 2, 24, 25, 300, 5000, 70_000] {
            // Uniform over a 2^40 space, then few distinct ids (ties), then
            // one outlier above a block agreeing on all but the low bits.
            let uniform: Vec<u64> = (0..n as u64).map(|i| mix(i) % space).collect();
            let ties: Vec<u64> = (0..n as u64).map(|i| (mix(i) % 7) << 33).collect();
            let mut outlier: Vec<u64> =
                (0..n as u64).map(|i| (5 << 20) | (mix(i) & 0xFF)).collect();
            if let Some(k) = outlier.get_mut(n / 2) {
                *k = 1 << 63;
            }
            for keys in [&uniform, &ties, &outlier] {
                check_positions(&mut planes, keys);
            }
        }
    }

    #[test]
    fn a_second_sort_of_the_same_length_does_not_grow_the_planes() {
        let mut planes = RadixPlanes::default();
        let keys: Vec<u64> = (0..20_000).map(mix).collect();
        planes.sort_positions(&keys);
        let held = planes.footprint().total();
        let keys: Vec<u64> = (0..20_000).map(|i| mix(i) >> 20).collect();
        planes.sort_positions(&keys);
        assert_eq!(planes.footprint().total(), held);
    }
}
