//! Slice scaling: aggregate Mpps across 1→8 share-nothing node slices,
//! extending the fig7 method (throughput vs cores) to a `PepcNode`'s
//! Demux → slices partitioning.
//!
//! Two series per slice count N, both over the same 10K-user mixed
//! uplink/downlink workload:
//!
//! * `shard_scale/seq/N` — the criterion loop driving
//!   `PepcNode::process_burst` (Demux steering plus every slice)
//!   *sequentially* on one core (the overhead floor: it can only lose to
//!   a single slice). `process_burst` takes its burst by value and
//!   returns a fresh verdict `Vec`, so this series includes the node
//!   API's per-call allocations and is not comparable with figures from
//!   a loop that reuses its buffers.
//! * `shard_scale/aggregate/N` — printed in the same `bench … ns/iter`
//!   format but measured directly: steering by the node's Demux is
//!   untimed (it is the edge stage), per-slice busy time is clocked
//!   around each slice's `process_burst_into`, and the reported figure is
//!   `max(slice busy) / packets` — the per-packet wall-clock the slowest
//!   slice would impose if each slice ran on its own core, which is how
//!   fig7 counts a multi-core node. This is a model run on one thread,
//!   not a threaded measurement. `scripts/bench_shard.py` converts it to
//!   aggregate Mpps, checks the 1→4 scaling floor, and pins the
//!   per-stage ns/packet budget.
//!
//! Also printed per N: `stage_parse` / `stage_lookup` / `stage_enforce`
//! medians (merged across slices) and the steering imbalance (max/mean
//! packets per slice, ×1000 to survive the integer-ish ns format).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pepc::config::{EpcConfig, SliceConfig};
use pepc::data::PacketVerdict;
use pepc::node::{NodeVerdict, PepcNode};
use pepc::LatencyHistogram;
use pepc_bench::NodeSut;
use pepc_net::Mbuf;
use pepc_workload::harness::SystemUnderTest;
use pepc_workload::traffic::TrafficGen;
use std::time::Instant;

const USERS: u64 = 10_000;
const BURST: usize = 64;
const SLICE_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A node with `slices` slices, each sized for its share of the users,
/// with every user attached and given a serving eNodeB.
fn setup(slices: usize) -> (PepcNode, TrafficGen) {
    let config = EpcConfig {
        slices,
        slice: SliceConfig { expected_users: (USERS as usize).div_ceil(slices), ..SliceConfig::default() },
        ..EpcConfig::default()
    };
    let mut sut = NodeSut::new(PepcNode::new(config, None));
    let keys = sut.attach_all(&(0..USERS).collect::<Vec<_>>());
    (sut.node, TrafficGen::new(keys))
}

fn next_burst(gen: &mut TrafficGen) -> Vec<Mbuf> {
    (0..BURST).map(|_| gen.next_packet(0)).collect()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("shard_scale");
    for slices in SLICE_COUNTS {
        let (mut node, mut gen) = setup(slices);
        g.bench_with_input(BenchmarkId::new("seq", slices), &slices, |b, _| {
            b.iter(|| {
                for v in node.process_burst(next_burst(&mut gen)) {
                    if let NodeVerdict::Forward(out) = v {
                        gen.recycle(out);
                    }
                }
            })
        });
    }
    g.finish();
    for slices in SLICE_COUNTS {
        aggregate(slices);
    }
}

/// The parallel-cores model: steering is untimed (it is the edge stage),
/// each slice's burst run is timed separately, and the aggregate
/// per-packet figure is `max(per-slice busy ns) / packets` — wall-clock
/// of the slowest slice, as if each ran on its own core.
fn aggregate(slices: usize) {
    const ROUNDS: usize = 4_000;
    let (mut node, mut gen) = setup(slices);
    for k in 0..slices {
        node.slice(k).data.set_stage_timing(true);
    }
    let mut pending: Vec<Vec<Mbuf>> = (0..slices).map(|_| Vec::with_capacity(BURST)).collect();
    let mut verdicts: Vec<PacketVerdict> = Vec::with_capacity(BURST);
    let mut busy_ns = vec![0u64; slices];
    let mut steered = vec![0u64; slices];
    let mut pkts = 0u64;
    // Warmup: fill the tables' primary level and the branch predictors.
    for _ in 0..ROUNDS / 10 {
        for v in node.process_burst(next_burst(&mut gen)) {
            if let NodeVerdict::Forward(out) = v {
                gen.recycle(out);
            }
        }
    }
    for _ in 0..ROUNDS {
        for m in next_burst(&mut gen) {
            let k = node.demux().slice_for_packet(&m);
            steered[k] += 1;
            pending[k].push(m);
        }
        pkts += BURST as u64;
        for (k, burst) in pending.iter_mut().enumerate() {
            if burst.is_empty() {
                continue;
            }
            let t0 = Instant::now();
            node.slice(k).process_burst_into(burst, &mut verdicts);
            busy_ns[k] += t0.elapsed().as_nanos() as u64;
            for v in verdicts.drain(..) {
                if let PacketVerdict::Forward(out) = v {
                    gen.recycle(out);
                }
            }
        }
    }
    let max_busy = *busy_ns.iter().max().expect("at least one slice") as f64;
    emit(&format!("shard_scale/aggregate/{slices}"), max_busy / pkts as f64);
    let mut stages = [LatencyHistogram::new(), LatencyHistogram::new(), LatencyHistogram::new()];
    for k in 0..slices {
        for (total, h) in stages.iter_mut().zip(node.slice_ref(k).data.stage_latencies()) {
            total.merge(h);
        }
    }
    for (h, name) in stages.iter().zip(pepc::data::STAGE_NAMES) {
        emit(&format!("shard_scale/stage_{name}/{slices}"), h.quantile_ns(0.5) as f64);
    }
    // max/mean packets per slice, ×1000 (the format prints one decimal).
    let mean = pkts as f64 / slices as f64;
    let max = *steered.iter().max().expect("at least one slice") as f64;
    emit(&format!("shard_scale/imbalance/{slices}"), max / mean * 1000.0);
}

/// Print in the criterion shim's line format so one parser serves both
/// the criterion groups and the direct measurements.
fn emit(name: &str, value: f64) {
    println!("bench {name:<50} {value:>12.1} ns/iter");
}

criterion_group!(benches, bench);
criterion_main!(benches);
