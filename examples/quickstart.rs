//! Quickstart: build a hierarchical hypersparse traffic matrix, stream
//! updates into it, and query it — the end-to-end workflow of the paper's
//! §II in a few dozen lines.
//!
//! Run with `cargo run --release --example quickstart`.

use hyperstream::prelude::*;

fn main() {
    // 1. A 2^32 x 2^32 IPv4 traffic matrix with a 4-level hierarchy.
    //    Memory is O(entries), never O(2^32).
    let cuts = HierConfig::geometric(4, 1 << 14, 8).expect("valid cut schedule");
    let mut traffic =
        HierMatrix::<u64>::new(1u64 << 32, 1u64 << 32, cuts).expect("valid dimensions");

    // 2. Stream 500,000 synthetic flow updates into it.  The flows are
    //    generated first, so the timed loop is the matrix's `update` alone.
    let mut gen = IpTrafficGenerator::new(IpTrafficConfig::default());
    let flows = gen.batch(500_000);
    let start = std::time::Instant::now();
    for flow in &flows {
        traffic
            .update(flow.src, flow.dst, flow.weight)
            .expect("addresses are within the IPv4 index space");
    }
    let secs = start.elapsed().as_secs_f64();
    let stats = traffic.stats();
    println!(
        "update() took {:.2}s for {} pre-generated flows  ({:.3e} updates/s)",
        secs,
        stats.updates,
        stats.updates as f64 / secs
    );
    println!(
        "cascades per level: {:?}   entries per level: {:?}",
        stats.cascades,
        traffic.entries_per_level()
    );
    println!(
        "fraction of updates absorbed in fast memory (level 0): {:.3}",
        stats.fast_update_fraction()
    );

    // 3. Query: materialise A = Σ A_i and compute network statistics.
    let snapshot = traffic.materialize();
    println!("materialised matrix: {} stored entries", snapshot.nvals());

    let per_source = reduce_rows(&snapshot, PlusMonoid);
    let top = per_source.top_k(5);
    println!("top 5 sources by packet count:");
    for (addr, packets) in top {
        println!("  {:>12} -> {} packets", format!("{addr:#010x}"), packets);
    }

    // 4. Streaming continues transparently after a query.
    for flow in gen.take(1000) {
        traffic.update(flow.src, flow.dst, flow.weight).unwrap();
    }
    println!("total updates after resuming: {}", traffic.stats().updates);

    // 5. Flush: every entry moves to the top level, and the levels below
    //    give back the buffers they kept for ingest.
    let streaming = traffic.memory_bytes();
    traffic.flush().expect("an in-memory flush cannot fail");
    let per_level: Vec<usize> = traffic
        .memory_per_level()
        .iter()
        .map(|f| f.total())
        .collect();
    let entries = traffic.nvals_exact();
    println!(
        "after flush: bytes per level {:?}, {:.1} bytes per stored entry ({:.1} before the flush)",
        per_level,
        traffic.memory_bytes() as f64 / entries as f64,
        streaming as f64 / entries as f64
    );
}
