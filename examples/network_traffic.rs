//! Network-traffic analysis: the application that motivates the paper.
//!
//! Builds an origin–destination traffic matrix from a synthetic packet
//! stream with embedded "supernode" servers and botnet-like scanners, then
//! runs the analyses the paper's introduction lists: temporal fluctuation of
//! supernodes, background models (degree distributions), detection of
//! heavy scanners, and PageRank re-ranked live between ingest windows — all
//! expressed as GraphBLAS operations on the hierarchical matrix.
//!
//! Run with `cargo run --release --example network_traffic`.

use hyperstream::graphblas::algo::degree::{degree_distribution, row_degree};
use hyperstream::graphblas::algo::pagerank;
use hyperstream::prelude::*;

fn main() {
    let dim = IpVersion::V4.dim();
    let mut traffic = HierMatrix::<u64>::with_default_config(dim, dim).expect("valid dims");

    // A traffic mix with pronounced supernodes.
    let cfg = IpTrafficConfig {
        supernodes: 16,
        supernode_fraction: 0.4,
        active_hosts: 1 << 18,
        ..IpTrafficConfig::default()
    };
    let mut gen = IpTrafficGenerator::new(cfg);
    let supernode_addrs: Vec<u64> = gen.supernode_addresses().to_vec();

    // Observe traffic in 5 time windows and track supernode volume per window.
    println!("== streaming 5 windows of 200,000 flow updates each ==");
    let mut supernode_volume_per_window = Vec::new();
    for window in 0..5 {
        for flow in gen.by_ref().take(200_000) {
            traffic.update(flow.src, flow.dst, flow.weight).unwrap();
        }
        let snapshot = traffic.materialize();
        let per_dest = reduce_cols(&snapshot, PlusMonoid);
        let volume: u64 = supernode_addrs
            .iter()
            .filter_map(|&a| per_dest.get(a))
            .sum();
        supernode_volume_per_window.push(volume);
        println!(
            "window {window}: matrix nnz = {}, cumulative supernode packets = {volume}",
            snapshot.nvals()
        );
    }
    assert!(
        supernode_volume_per_window.windows(2).all(|w| w[0] <= w[1]),
        "cumulative supernode volume must be non-decreasing"
    );

    // Background model: out-degree distribution and its power-law exponent,
    // computed straight off the hierarchy's merged level cursors — no
    // materialised snapshot, streaming could continue concurrently.
    let dist = degree_distribution(&mut traffic);
    println!("\n== background model ==");
    println!(
        "distinct sources: {},  max out-degree: {}",
        dist.total_vertices(),
        dist.max_degree()
    );
    if let Some(alpha) = dist.powerlaw_exponent() {
        println!("fitted power-law exponent of the out-degree distribution: {alpha:.2}");
    }

    // Scanner detection: sources touching many distinct destinations but with
    // low per-destination volume -> high out-degree, low max entry.  Also
    // materialisation-free via the MatrixReader cursor layer.
    let degrees = row_degree(&mut traffic);
    let scanners = degrees.top_k(5);
    println!("\n== top fan-out sources (scanner candidates) ==");
    for (addr, fanout) in &scanners {
        println!(
            "  {:>12} contacts {} distinct destinations",
            format!("{addr:#010x}"),
            fanout
        );
    }

    // Victim detection is the transpose question: destinations contacted by
    // many distinct sources -> high IN-degree.  Served O(k) from the
    // lazily-maintained column degree index — the same report that used to
    // need a whole-matrix sweep or an explicitly transposed copy.
    let victims = traffic.read_in_top_k(16);
    println!("== top fan-in destinations (victim / supernode candidates) ==");
    for (addr, fanin) in victims.iter().take(5) {
        println!(
            "  {:>12} contacted by {} distinct sources",
            format!("{addr:#010x}"),
            fanin
        );
    }
    let supernode_hits = victims
        .iter()
        .filter(|&&(addr, _)| supernode_addrs.contains(&addr))
        .count();
    println!("  ({supernode_hits}/16 of the top fan-in destinations are embedded supernodes)");
    assert!(
        supernode_hits >= 8,
        "the fan-in ranking should recover most embedded supernodes"
    );

    // PageRank under ingest: ranking keeps pace with the stream.  After each
    // window the reader-native kernel walks the hierarchy's level cursors
    // directly — no snapshot is materialised — and streaming resumes
    // immediately afterwards.
    println!("\n== pagerank under ingest ==");
    let mut top_ranked: Vec<(u64, f64)> = Vec::new();
    for window in 0..3 {
        for flow in gen.by_ref().take(100_000) {
            traffic.update(flow.src, flow.dst, flow.weight).unwrap();
        }
        let ranks = pagerank(&mut traffic, 0.85, 20, 1e-9);
        top_ranked = ranks.top_k(16);
        let (top_addr, top_score) = top_ranked[0];
        println!(
            "window {window}: {} vertices ranked, top address {:#010x} (score {top_score:.6})",
            ranks.nvals(),
            top_addr
        );
    }
    // The streamed ranking must agree with a flat-oracle rerun: materialise
    // the whole matrix once and rank it again from scratch.
    let mut flat_oracle = traffic.materialize();
    let oracle_top = pagerank(&mut flat_oracle, 0.85, 20, 1e-9).top_k(16);
    assert_eq!(
        top_ranked.iter().map(|&(a, _)| a).collect::<Vec<_>>(),
        oracle_top.iter().map(|&(a, _)| a).collect::<Vec<_>>(),
        "streamed pagerank must rank the same top-16 addresses as the flat oracle"
    );
    for (&(_, streamed), &(_, oracle)) in top_ranked.iter().zip(&oracle_top) {
        assert!(
            (streamed - oracle).abs() < 1e-9,
            "streamed and oracle pagerank scores must agree"
        );
    }
    println!("  top-16 ranking agrees with a flat-oracle rerun of pagerank");

    // Heavy-flow extraction: flows with at least 16 packets, one filter over
    // the live hierarchy's merged entries, checked against the same filter
    // over the flat oracle.
    let heavy = heavy_flows(&mut traffic);
    assert_eq!(
        heavy,
        heavy_flows(&mut flat_oracle),
        "the hierarchy and the flat oracle must hold the same heavy flows"
    );
    println!("\nflows with >= 16 packets: {heavy}");
}

/// Stored cells whose accumulated packet count is at least 16.
fn heavy_flows<R: MatrixReader<u64>>(reader: &mut R) -> usize {
    let mut heavy = 0;
    reader.read_entries(&mut |_, _, packets| heavy += usize::from(packets >= 16));
    heavy
}
