//! Pins the shard cut: every shard's `(first_node, end_node, bytes,
//! closure_bytes)` of `ShardPlan::build` and `ShardPlan::build_csr` at
//! d ∈ {1, 2, 3, 4, 8, 9} devices, over a reference-free and a
//! reference-compressed web graph and their CSRs, as one FNV-1a digest per
//! plan. Modeled exchange costs depend on these boundaries and residency
//! floors on these byte counts, so a refactor of the cut must leave every
//! constant here untouched. Only field access is used, so the test reads
//! any shard type that carries those four fields.

use gcgt_cgr::{CgrConfig, CgrGraph};
use gcgt_core::Strategy;
use gcgt_graph::gen::{web_graph, WebParams};
use gcgt_shard::ShardPlan;

/// 64-bit FNV-1a over little-endian `u64`s.
struct Fnv(u64);

impl Fnv {
    fn add(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn digest(plan: &ShardPlan) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for s in plan.shards() {
        h.add(u64::from(s.first_node));
        h.add(u64::from(s.end_node));
        h.add(s.bytes as u64);
        h.add(s.closure_bytes as u64);
    }
    h.0
}

const DEVICES: [usize; 6] = [1, 2, 3, 4, 8, 9];

/// `(graph, layout, devices) → digest`. The CSR rows were recorded from the
/// cut as it stood when `ShardPlan` carried its own bisection; the CGR rows
/// since the device offset index became two-level (`u32` entries under a
/// `u64` base per block), which reweighs every compressed byte extent and
/// every reference closure's index entries.
const PINNED: &[(&str, &str, usize, u64)] = &[
    ("uk2002", "cgr", 1, 0xbd84e59bb23099f8),
    ("uk2002", "cgr", 2, 0xece586193ab69ced),
    ("uk2002", "cgr", 3, 0xcd971a464a15ff3c),
    ("uk2002", "cgr", 4, 0x336381f86a1e54b9),
    ("uk2002", "cgr", 8, 0xc56633bc2370616d),
    ("uk2002", "cgr", 9, 0x899e2c16e97c3c57),
    ("uk2002", "csr", 1, 0x0a814120315a1a4a),
    ("uk2002", "csr", 2, 0x5c9cde613494d488),
    ("uk2002", "csr", 3, 0x18f5d624aa06ccba),
    ("uk2002", "csr", 4, 0xfad038bb8ceb5204),
    ("uk2002", "csr", 8, 0x619f83e54366ecc8),
    ("uk2002", "csr", 9, 0x629269fe19104d3c),
    ("eu2015", "cgr", 1, 0x3fbd978c4d6a92d0),
    ("eu2015", "cgr", 2, 0x4fef833855474e1e),
    ("eu2015", "cgr", 3, 0xebc756152b6707bf),
    ("eu2015", "cgr", 4, 0x9f1547cef00442b6),
    ("eu2015", "cgr", 8, 0x415970b49fc83c94),
    ("eu2015", "cgr", 9, 0x5d009c0ee16d9bed),
    ("eu2015", "csr", 1, 0x60cf4e686c31d087),
    ("eu2015", "csr", 2, 0x694abb62219d72de),
    ("eu2015", "csr", 3, 0xbff6b58f7b088caf),
    ("eu2015", "csr", 4, 0x60993ca9025e1e89),
    ("eu2015", "csr", 8, 0x876b8257d7a9ad2d),
    ("eu2015", "csr", 9, 0xfe9031b9cbdc13f0),
];

#[test]
fn shard_cut_is_pinned() {
    let full = Strategy::Full.cgr_config(&CgrConfig::paper_default());
    let inputs = [
        (
            "uk2002",
            web_graph(&WebParams::uk2002_like(2_000), 11),
            full,
        ),
        (
            "eu2015",
            web_graph(&WebParams::eu2015_like(1_200), 9),
            full.with_ref_window(32),
        ),
    ];
    let mut got = Vec::new();
    for (name, g, cfg) in &inputs {
        let cgr = CgrGraph::encode(g, cfg);
        for d in DEVICES {
            got.push((*name, "cgr", d, digest(&ShardPlan::build(&cgr, d))));
        }
        for d in DEVICES {
            got.push((*name, "csr", d, digest(&ShardPlan::build_csr(g, d))));
        }
    }
    let table: String = got
        .iter()
        .map(|(g, l, d, h)| format!("    (\"{g}\", \"{l}\", {d}, {h:#018x}),\n"))
        .collect();
    assert!(
        got == PINNED,
        "shard cut moved; this build produces:\n{table}"
    );
}
