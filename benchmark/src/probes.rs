//! Standalone host-time probes of the layers a traversal spends its time
//! inside. Host time *inside* `Session::run` cannot be split from outside,
//! so these stand in for it: the same public decode and encode entry points,
//! driven directly on the workload's primary graph.

use std::hint::black_box;
use std::time::Instant;

use gcgt_bits::{residual_gap_values, BitWriter, Code, DecodeTable};
use gcgt_cgr::decode::{decode_all, NeighborScanner};
use gcgt_cgr::{CgrConfig, CgrGraph, ValidationMode};
use gcgt_graph::{Csr, NodeId};
use gcgt_ooc::PartitionMap;
use gcgt_shard::ShardPlan;

use crate::layers::Layers;
use crate::span::Tracer;
use crate::workloads::cgr_config;

/// Best of `reps` runs, in seconds: the probes are short, and the fastest
/// run is the one least disturbed by the machine.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

const REPS: usize = 3;
/// Codewords per ζ3 probe run.
const ZETA3_VALUES: usize = 200_000;

/// ζ3 decode throughput over the shared residual-gap distribution, table
/// probe vs broadword slow path, and the cost of building the table.
pub fn bits(layers: &mut Layers, tracer: &Tracer) {
    let _span = tracer.span("probe.bits");
    let code = Code::Zeta(3);
    layers.set(
        "bits.table_build_ms",
        best_of(REPS, || DecodeTable::new(code)) * 1e3,
    );
    let mut writer = BitWriter::new();
    for value in residual_gap_values(ZETA3_VALUES) {
        code.encode(&mut writer, value);
    }
    let bits = writer.into_bitvec();
    let table = DecodeTable::shared(code);
    let mvals = |secs: f64| ZETA3_VALUES as f64 / secs / 1e6;
    let table_s = best_of(REPS, || {
        let (mut pos, mut acc) = (0usize, 0u64);
        for _ in 0..ZETA3_VALUES {
            let (value, next) = table.decode_at(&bits, pos).expect("valid stream");
            acc = acc.wrapping_add(value);
            pos = next;
        }
        acc
    });
    let slow_s = best_of(REPS, || {
        let (mut pos, mut acc) = (0usize, 0u64);
        for _ in 0..ZETA3_VALUES {
            let (value, next) = code.decode_at(&bits, pos).expect("valid stream");
            acc = acc.wrapping_add(value);
            pos = next;
        }
        acc
    });
    layers.set("bits.zeta3_table_mvals_per_s", mvals(table_s));
    layers.set("bits.zeta3_slow_mvals_per_s", mvals(slow_s));
}

/// Encode, write, load, validate and decode probes on one graph. Returns the
/// plain (window 0) encoding for the plan probes.
pub fn cgr(graph: &Csr, layers: &mut Layers, tracer: &Tracer) -> CgrGraph {
    let _span = tracer.span("probe.cgr");
    let medges = |secs: f64| graph.num_edges() as f64 / secs / 1e6;
    let encode_w0_s = best_of(REPS, || CgrGraph::encode(graph, &cgr_config(0)));
    // The exact-cost reference search is ~10× the plain encode: once is enough.
    let encode_w32_s = best_of(1, || CgrGraph::encode(graph, &cgr_config(32)));
    layers.set("cgr.encode_medges_per_s.w0", medges(encode_w0_s));
    layers.set("cgr.encode_medges_per_s.w32", medges(encode_w32_s));
    layers.set(
        "cgr.autotune_ms",
        best_of(REPS, || CgrConfig::autotune(graph)) * 1e3,
    );

    let encoded = CgrGraph::encode(graph, &cgr_config(0));
    let mut bytes = Vec::new();
    let write_s = best_of(REPS, || {
        bytes.clear();
        gcgt_cgr::io::write_cgr(&encoded, &mut bytes).expect("writing to a Vec cannot fail");
    });
    layers.set("cgr.write_ms", write_s * 1e3);
    let load = |mode| CgrGraph::from_bytes_with(&bytes, mode).expect("own output loads");
    layers.set(
        "cgr.load_eager_ms",
        best_of(REPS, || load(ValidationMode::Eager)) * 1e3,
    );
    layers.set(
        "cgr.load_deferred_ms",
        best_of(REPS, || load(ValidationMode::Deferred)) * 1e3,
    );
    // Validation is paid once per load, so each repetition loads afresh and
    // only the validation is timed.
    let validate_s = (0..REPS)
        .map(|_| {
            let deferred = load(ValidationMode::Deferred);
            let start = Instant::now();
            deferred
                .ensure_validated_all()
                .expect("own output validates");
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    layers.set("cgr.validate_ms", validate_s * 1e3);

    // Full-list expansion (what push levels do) ...
    layers.set(
        "cgr.decode_all_medges_per_s",
        medges(best_of(REPS, || decode_all(&encoded))),
    );
    // ... against early-exit scanning (what pull levels do): stop at the
    // first neighbour in a fixed pseudo-frontier holding every fourth node.
    let mut examined = 0u64;
    let scan_s = best_of(REPS, || {
        examined = 0;
        for u in 0..encoded.num_nodes() as NodeId {
            let mut scanner = NeighborScanner::new(&encoded, u);
            while let Some((v, _)) = scanner.next_with_step() {
                if v % 4 == 0 {
                    break;
                }
            }
            examined += scanner.examined();
        }
        examined
    });
    layers.set("cgr.scan_medges_per_s", examined as f64 / scan_s / 1e6);
    encoded
}

/// `PartitionMap::build` at the target the session uses for a budget of
/// scratch + a quarter of the structure: a quarter of the cache.
pub fn ooc_plan(cgr: &CgrGraph, layers: &mut Layers, tracer: &Tracer) {
    let _span = tracer.span("probe.ooc_plan");
    let cache_budget = gcgt_core::memory::gcgt_structure_bytes(cgr) / 4;
    let target = (cache_budget / 4).max(1);
    layers.set(
        "ooc.plan_ms",
        best_of(REPS, || PartitionMap::build(cgr, target)) * 1e3,
    );
}

pub fn shard_plan(cgr: &CgrGraph, devices: usize, layers: &mut Layers, tracer: &Tracer) {
    let _span = tracer.span("probe.shard_plan");
    layers.set(
        "shard.plan_ms",
        best_of(REPS, || ShardPlan::build(cgr, devices)) * 1e3,
    );
}
