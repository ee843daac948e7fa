//! The read side of the workloads: the seven query kinds an analyst runs
//! beside ingest, how their keys are sampled from the stream, and how an
//! answer is compared with the oracle's.

use crate::stream::{Batch, Oracle, SplitMix64};
use hyperstream_graphblas::MatrixReader;

/// Top-k width of the two degree-ranking queries.
pub const TOP_K: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Get,
    Row,
    RowDegree,
    Col,
    ColDegree,
    TopK,
    InTopK,
}

impl Kind {
    pub const ALL: [Kind; 7] = [
        Kind::Get,
        Kind::Row,
        Kind::RowDegree,
        Kind::Col,
        Kind::ColDegree,
        Kind::TopK,
        Kind::InTopK,
    ];

    /// Span name: the `read` layer, then the `MatrixReader` method.
    pub fn span(self) -> &'static str {
        match self {
            Kind::Get => "read.get",
            Kind::Row => "read.row",
            Kind::RowDegree => "read.row_degree",
            Kind::Col => "read.col",
            Kind::ColDegree => "read.col_degree",
            Kind::TopK => "read.top_k",
            Kind::InTopK => "read.in_top_k",
        }
    }
}

/// Queries per batch in `query_mix` (32 in all): the share of each kind an
/// analyst watching live traffic issues — mostly point and row look-ups,
/// some column-side reads, a few rankings.
pub const MIX: [(Kind, usize); 7] = [
    (Kind::Get, 10),
    (Kind::Row, 8),
    (Kind::RowDegree, 4),
    (Kind::Col, 4),
    (Kind::ColDegree, 2),
    (Kind::TopK, 2),
    (Kind::InTopK, 2),
];

/// Queries per kind in the burst that follows an ingest-only window (448
/// in all).
pub const BURST_PER_KIND: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    pub kind: Kind,
    pub row: u64,
    pub col: u64,
}

/// What a query returned, reduced to what the oracle can check.  Row and
/// column extracts are reduced to their length (a degree).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    Value(Option<u64>),
    Count(usize),
    Ranked(Vec<(u64, usize)>),
}

/// `count(kind)` queries of each kind on cells drawn from `batches`, in a
/// seeded shuffle so that no kind always runs first after a batch.
pub fn sample(
    batches: &[Batch],
    rng: &mut SplitMix64,
    count: impl Fn(Kind) -> usize,
) -> Vec<Query> {
    let mut out = Vec::new();
    for kind in Kind::ALL {
        for _ in 0..count(kind) {
            let b = &batches[rng.below(batches.len())];
            let i = rng.below(b.len());
            out.push(Query {
                kind,
                row: b.rows[i],
                col: b.cols[i],
            });
        }
    }
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i + 1));
    }
    out
}

/// The per-batch mix of `query_mix`: keys sampled from that batch.
pub fn sample_mix(batch: &Batch, rng: &mut SplitMix64) -> Vec<Query> {
    sample(std::slice::from_ref(batch), rng, |k| {
        MIX.iter().find(|m| m.0 == k).map_or(0, |m| m.1)
    })
}

/// Run one query through the reader surface.
pub fn run<R: MatrixReader<u64> + ?Sized>(
    r: &mut R,
    q: &Query,
    buf: &mut Vec<(u64, u64)>,
) -> Answer {
    match q.kind {
        Kind::Get => Answer::Value(r.read_get(q.row, q.col)),
        Kind::Row => {
            r.read_row(q.row, buf);
            Answer::Count(buf.len())
        }
        Kind::RowDegree => Answer::Count(r.read_row_degree(q.row)),
        Kind::Col => {
            r.read_col(q.col, buf);
            Answer::Count(buf.len())
        }
        Kind::ColDegree => Answer::Count(r.read_col_degree(q.col)),
        Kind::TopK => Answer::Ranked(r.read_top_k(TOP_K)),
        Kind::InTopK => Answer::Ranked(r.read_in_top_k(TOP_K)),
    }
}

/// The oracle's answer to `q` after batches `0..=upto`.  Rankings are only
/// known for the whole stream; `None` means "not checked".
pub fn expected(o: &Oracle, q: &Query, upto: u32) -> Option<Answer> {
    Some(match q.kind {
        Kind::Get => Answer::Value(o.get(q.row, q.col, upto)),
        Kind::Row | Kind::RowDegree => Answer::Count(o.row_degree(q.row, upto)),
        Kind::Col | Kind::ColDegree => Answer::Count(o.col_degree(q.col, upto)),
        Kind::TopK if upto >= o.last() => Answer::Ranked(o.top_rows().to_vec()),
        Kind::InTopK if upto >= o.last() => Answer::Ranked(o.top_cols().to_vec()),
        Kind::TopK | Kind::InTopK => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{generate, StreamKind, DIM};
    use hyperstream_graphblas::{Matrix, StreamingSink};

    #[test]
    fn mix_is_32_queries_and_burst_is_448() {
        assert_eq!(MIX.iter().map(|m| m.1).sum::<usize>(), 32);
        let batches = generate(StreamKind::PowerLaw, 1, 1, 1000);
        let mut rng = SplitMix64::new(1);
        assert_eq!(sample_mix(&batches[0], &mut rng).len(), 32);
        assert_eq!(sample(&batches, &mut rng, |_| BURST_PER_KIND).len(), 448);
    }

    #[test]
    fn answers_of_a_flat_matrix_match_the_oracle_at_every_prefix() {
        let batches = generate(StreamKind::PowerLaw, 3, 3, 2000);
        let o = Oracle::build(&batches);
        let mut rng = SplitMix64::new(9);
        let mut m = Matrix::<u64>::new(DIM, DIM);
        let mut buf = Vec::new();
        for (b, batch) in batches.iter().enumerate() {
            m.insert_batch(&batch.rows, &batch.cols, &batch.vals)
                .unwrap();
            for q in sample_mix(batch, &mut rng) {
                let got = run(&mut m, &q, &mut buf);
                if let Some(want) = expected(&o, &q, b as u32) {
                    assert_eq!(got, want, "{q:?} after batch {b}");
                }
            }
        }
        for kind in [Kind::TopK, Kind::InTopK] {
            let q = Query {
                kind,
                row: 0,
                col: 0,
            };
            assert_eq!(Some(run(&mut m, &q, &mut buf)), expected(&o, &q, o.last()));
        }
    }
}
