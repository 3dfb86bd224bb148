// IMSI literals are written MCC_MNC_MSIN (e.g. 404_01_…).
#![allow(clippy::inconsistent_digit_grouping)]

//! Differential test: partitioning users across a node's slices must be
//! observationally invisible. A `PepcNode` with N share-nothing slices
//! behind its Demux gives the same per-packet verdicts (in input order),
//! the same per-IMSI counters, the same summed drop taxonomy, the same
//! IoT charging and the same pipeline-histogram population as a node
//! with one slice, on seeded mixed workloads. A one-slice node in turn
//! equals a bare `DataPlane`. Steering must be stable: the same key
//! lands on the same slice in every burst, and follows a user across a
//! migration.
//!
//! Users are installed with `adopt_user`, so every node sees the same
//! TEIDs and UE IPs regardless of which slice homes them. The population
//! and packet mix mirror `tests/burst_equivalence.rs` (which pins burst
//! == scalar), so the two differentials compose: N slices == 1 slice ==
//! single burst pipeline == scalar.

use pepc::config::{BatchingConfig, EpcConfig, IotConfig, SliceConfig, TwoLevelConfig};
use pepc::data::{DataPlane, DpUpdate};
use pepc::node::{NodeVerdict, PepcNode};
use pepc::pcef::PcefAction;
use pepc::state::{ControlState, CounterState, QosPolicy, TunnelState};
use pepc::twolevel::TwoLevelStats;
use pepc::{DataMetrics, UeHandle};
use pepc_fabric::VirtualClock;
use pepc_net::bpf::BpfProgram;
use pepc_net::gtp::encap_gtpu;
use pepc_net::ipv4::IpProto;
use pepc_net::udp::{UdpHdr, UDP_HDR_LEN};
use pepc_net::{Ipv4Hdr, Mbuf, IPV4_HDR_LEN};
use rand::{Rng, SeedableRng};

const GW_IP: u32 = 0x0AFE_0001;
const ENB_IP: u32 = 0xC0A8_0001;
const UE_IP_BASE: u32 = 0x0A00_0001;
const TEID_BASE: u32 = 0x1000;
const IOT_TEID_BASE: u32 = 0xF000_0000;
const IOT_IP_BASE: u32 = 0x6400_0000;
const USERS: u32 = 24;

#[derive(Clone, Copy, PartialEq)]
enum Flavour {
    Plain,
    RateLimited,
    Gated,
}

fn flavour(u: u32) -> Flavour {
    match u % 3 {
        0 => Flavour::Plain,
        1 => Flavour::RateLimited,
        _ => Flavour::Gated,
    }
}

fn iot() -> IotConfig {
    IotConfig { enabled: true, teid_base: IOT_TEID_BASE, ip_base: IOT_IP_BASE, pool_size: 64 }
}

fn rule() -> DpUpdate {
    DpUpdate::InstallRule {
        id: 1,
        program: BpfProgram::match_dst_port(53, 1),
        action: PcefAction { qci: 9, rate_kbps: 0, gate_closed: true },
    }
}

fn imsi(u: u32) -> u64 {
    404_01_0000000000 + u64::from(u)
}

fn user_ctrl(u: u32) -> ControlState {
    let mut ctrl = ControlState::new(imsi(u));
    ctrl.ue_ip = UE_IP_BASE + u;
    let ambr = if flavour(u) == Flavour::RateLimited { 8 } else { 0 };
    ctrl.qos = QosPolicy { qci: 9, ambr_kbps: ambr, gbr_kbps: 0 };
    ctrl.tunnels = TunnelState { enb_teid: 0xE000 + u, enb_ip: ENB_IP, gw_teid: TEID_BASE + u };
    if flavour(u) == Flavour::Gated {
        ctrl.pcef_rules.push(1);
    }
    ctrl
}

/// The bare single pipeline: one `DataPlane`, half its users demoted so
/// bursts exercise promotions.
fn build_single() -> (DataPlane, Vec<UeHandle>) {
    let mut dp = DataPlane::new(GW_IP, 256, TwoLevelConfig::default(), iot());
    dp.apply_update(rule(), 0);
    let handles: Vec<UeHandle> = (0..USERS).map(|u| dp.slab().alloc(user_ctrl(u), CounterState::default())).collect();
    for (u, &handle) in (0..USERS).zip(&handles) {
        dp.apply_update(DpUpdate::Insert { gw_teid: TEID_BASE + u, ue_ip: UE_IP_BASE + u, handle, active: true }, 0);
        if u % 2 == 1 {
            dp.apply_update(DpUpdate::Demote { gw_teid: TEID_BASE + u, ue_ip: UE_IP_BASE + u }, 0);
        }
    }
    (dp, handles)
}

/// A node with `slices` slices on `clock`, the DNS gate rule on every
/// slice, and every user adopted into its home slice. Odd users are then
/// demoted in their home slice, matching [`build_single`].
fn build_node(slices: usize, clock: &VirtualClock) -> PepcNode {
    let config = EpcConfig {
        slices,
        gw_ip: GW_IP,
        slice: SliceConfig {
            batching: BatchingConfig { sync_every_packets: 1 },
            iot: iot(),
            expected_users: 256,
            ..SliceConfig::default()
        },
        ..EpcConfig::default()
    };
    let mut node = PepcNode::new(config, None);
    node.set_clock(clock.clock());
    for k in 0..slices {
        node.slice(k).data.apply_update(rule(), 0);
    }
    for u in 0..USERS {
        let home = node.adopt_user(user_ctrl(u), CounterState::default());
        if u % 2 == 1 {
            node.slice(home).data.apply_update(DpUpdate::Demote { gw_teid: TEID_BASE + u, ue_ip: UE_IP_BASE + u }, 0);
        }
    }
    node
}

fn inner_udp(src: u32, dst: u32, dst_port: u16, payload_len: usize) -> Mbuf {
    let mut m = Mbuf::new();
    let mut hdr = vec![0u8; IPV4_HDR_LEN + UDP_HDR_LEN];
    Ipv4Hdr::new(src, dst, IpProto::Udp, UDP_HDR_LEN + payload_len).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
    UdpHdr::new(40_000, dst_port, payload_len).emit(&mut hdr[IPV4_HDR_LEN..]).unwrap();
    m.extend(&hdr);
    m.extend(&vec![0xAB; payload_len]);
    m
}

fn uplink(teid: u32, src: u32, dst_port: u16) -> Mbuf {
    let mut m = inner_udp(src, 0x0808_0808, dst_port, 64);
    encap_gtpu(&mut m, ENB_IP, GW_IP, teid).unwrap();
    m
}

/// One seeded packet of the mixed workload (same mix as
/// `burst_equivalence.rs`): known uplink/downlink with same-user runs,
/// gated ports, IoT pool, unknown keys, malformed frames.
fn next_packet(rng: &mut rand::rngs::StdRng, sticky_user: &mut u32) -> Mbuf {
    if rng.gen_range(0..2) == 0 {
        *sticky_user = rng.gen_range(0..USERS);
    }
    let u = *sticky_user;
    let dst_port = if rng.gen_range(0..3) == 0 { 53 } else { 443 };
    match rng.gen_range(0..10) {
        0..=3 => uplink(TEID_BASE + u, UE_IP_BASE + u, dst_port),
        4..=6 => inner_udp(0x0808_0808, UE_IP_BASE + u, dst_port, 48),
        7 => uplink(IOT_TEID_BASE + (u % 64), IOT_IP_BASE + (u % 64), dst_port),
        8 => inner_udp(0x0808_0808, IOT_IP_BASE + (u % 64), dst_port, 32),
        _ => {
            if rng.gen_range(0..2) == 0 {
                uplink(0x00DE_AD00 + u, UE_IP_BASE, dst_port)
            } else {
                Mbuf::from_payload(&[0xFF; 40])
            }
        }
    }
}

fn verdict_kind(v: &NodeVerdict) -> (u8, usize) {
    match v {
        NodeVerdict::Forward(m) => (0, m.len()),
        NodeVerdict::Drop => (1, 0),
        NodeVerdict::Buffered => (2, 0),
        NodeVerdict::Parked => (3, 0),
    }
}

/// The node's data-plane counters summed over its slices. Update counts
/// are zeroed: a rule install is applied once per slice.
fn taxonomy(node: &PepcNode) -> DataMetrics {
    DataMetrics { updates_applied: 0, ..node.metrics_snapshot().data_totals() }
}

fn slice_rx(node: &PepcNode) -> Vec<u64> {
    (0..node.slice_count()).map(|k| node.slice_ref(k).data.metrics().rx).collect()
}

fn iot_totals(node: &PepcNode) -> (u64, u64) {
    (0..node.slice_count()).fold((0, 0), |(p, b), k| {
        let d = &node.slice_ref(k).data;
        (p + d.iot_packets, b + d.iot_bytes)
    })
}

fn pipeline_population(node: &PepcNode) -> u64 {
    (0..node.slice_count()).map(|k| node.slice_ref(k).data.pipeline_latency().count()).sum()
}

/// Two-level table churn summed over the node's slices.
fn table_stats(node: &PepcNode) -> TwoLevelStats {
    (0..node.slice_count()).fold(TwoLevelStats::default(), |acc, k| {
        let t = node.slice_ref(k).data.table_stats();
        TwoLevelStats {
            primary_hits: acc.primary_hits + t.primary_hits,
            promotions: acc.promotions + t.promotions,
            demotions: acc.demotions + t.demotions,
            misses: acc.misses + t.misses,
        }
    })
}

fn counters(node: &PepcNode, u: u32) -> pepc::state::CounterSnapshot {
    let k = node.demux().slice_for_imsi(imsi(u)).expect("mapped");
    node.slice_ref(k).ctrl.counters_of(imsi(u)).expect("homed where the Demux says")
}

#[test]
fn sharded_path_is_observationally_identical_to_single_pipeline() {
    for slices in [2usize, 4, 8] {
        for seed in [7u64, 42, 1234] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let clock = VirtualClock::new();
            let mut one = build_node(1, &clock);
            let mut many = build_node(slices, &clock);

            let mut sticky = 0u32;
            let mut offered = 0u64;
            clock.advance_ns(1_000);
            for _round in 0..200 {
                let burst_size = rng.gen_range(1..49);
                clock.advance_ns(rng.gen_range(0..2_000_000));
                let packets: Vec<Mbuf> = (0..burst_size).map(|_| next_packet(&mut rng, &mut sticky)).collect();
                let copies: Vec<Mbuf> = packets.iter().map(|m| Mbuf::from_payload(m.data())).collect();
                offered += burst_size as u64;

                let many_out = many.process_burst(packets);
                let one_out = one.process_burst(copies);

                assert_eq!(many_out.len(), one_out.len());
                for (k, (a, b)) in many_out.iter().zip(&one_out).enumerate() {
                    assert_eq!(
                        verdict_kind(a),
                        verdict_kind(b),
                        "{slices} slices seed {seed} packet {k}: verdict diverged"
                    );
                }
            }

            // Summed counters equal the one-slice node's: same rx,
            // forwarded and full drop taxonomy, and nothing uncounted.
            let agg = taxonomy(&many);
            assert_eq!(agg, taxonomy(&one), "{slices} slices seed {seed}: drop taxonomy diverged");
            assert_eq!(agg.rx, offered, "{slices} slices seed {seed}: offered != sum of slice rx");
            assert!(many.metrics_snapshot().conservation_holds(), "{slices} slices seed {seed}");
            assert!(
                slice_rx(&many).iter().filter(|&&rx| rx > 0).count() > 1,
                "{slices} slices seed {seed}: traffic never left one slice"
            );
            assert_eq!(iot_totals(&many), iot_totals(&one), "{slices} slices seed {seed}: IoT charging diverged");
            assert_eq!(
                pipeline_population(&many),
                pipeline_population(&one),
                "{slices} slices seed {seed}: histogram population diverged"
            );
            assert_eq!(table_stats(&many), table_stats(&one), "{slices} slices seed {seed}: table churn diverged");
            assert!(table_stats(&many).promotions > 0, "{slices} slices seed {seed}: no promotion ran");
            for u in 0..USERS {
                assert_eq!(
                    counters(&many, u),
                    counters(&one, u),
                    "{slices} slices seed {seed}: user {u} counters diverged"
                );
            }
        }
    }
}

#[test]
fn steering_is_stable_and_respects_the_partition() {
    let clock = VirtualClock::new();
    let mut node = build_node(4, &clock);
    let demux_slice = |node: &PepcNode, u: u32| {
        let ul = node.demux().slice_for_packet(&uplink(TEID_BASE + u, UE_IP_BASE + u, 443));
        let dl = node.demux().slice_for_packet(&inner_udp(0x0808_0808, UE_IP_BASE + u, 443, 48));
        assert_eq!(ul, dl, "user {u}: both directions steer together");
        ul
    };
    // Both directions of a known user steer to its home slice, every time.
    let mut homed = vec![0u64; 4];
    for u in 0..USERS {
        let home = node.home_slice(imsi(u));
        assert_eq!(node.demux().slice_for_imsi(imsi(u)), Some(home));
        for _ in 0..3 {
            assert_eq!(demux_slice(&node, u), home, "user {u}");
        }
        homed[home] += 1;
    }
    assert!(homed.iter().filter(|&&n| n > 0).count() > 1, "users spread: {homed:?}");
    // Unknown keys and malformed frames all go to slice 0.
    for m in [
        uplink(0x00DE_AD77, UE_IP_BASE, 443),
        inner_udp(0x0808_0808, 0x0BAD_0001, 443, 48),
        Mbuf::from_payload(&[0xFF; 40]),
    ] {
        assert_eq!(node.demux().slice_for_packet(&m), 0);
    }
    // Each packet lands where steering says: one uplink per user puts
    // exactly the homed-user count into each slice's rx.
    let burst: Vec<Mbuf> = (0..USERS).map(|u| uplink(TEID_BASE + u, UE_IP_BASE + u, 443)).collect();
    assert!(node.process_burst(burst).iter().all(NodeVerdict::is_forward));
    assert_eq!(slice_rx(&node), homed);
    for u in 0..USERS {
        assert_eq!(demux_slice(&node, u), node.home_slice(imsi(u)), "user {u} after traffic");
    }

    // Migrate every third user to the next slice: steering follows the
    // user, stays stable, and the counters travel with it.
    let moved: Vec<u32> = (0..USERS).step_by(3).collect();
    for &u in &moved {
        let target = (node.home_slice(imsi(u)) + 1) % 4;
        assert!(node.migrate(imsi(u), target), "user {u}");
        for _ in 0..3 {
            assert_eq!(demux_slice(&node, u), target, "user {u} after migrate");
        }
    }
    let before = slice_rx(&node);
    let burst: Vec<Mbuf> = moved.iter().map(|&u| uplink(TEID_BASE + u, UE_IP_BASE + u, 443)).collect();
    assert!(node.process_burst(burst).iter().all(NodeVerdict::is_forward));
    let mut want = before;
    for &u in &moved {
        want[(node.home_slice(imsi(u)) + 1) % 4] += 1;
        assert_eq!(counters(&node, u).uplink_packets, 2, "user {u}");
    }
    assert_eq!(slice_rx(&node), want);
    assert!(node.metrics_snapshot().conservation_holds());
}

#[test]
fn shard_count_one_equals_the_single_pipeline_exactly() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let (mut single, single_ctxs) = build_single();
    let clock = VirtualClock::new();
    let mut node = build_node(1, &clock);
    let mut sticky = 0u32;
    let mut out = Vec::new();
    for i in 0..300u64 {
        let now = 1_000 + i * 10_000;
        clock.advance_ns(now - clock.now_ns());
        let m = next_packet(&mut rng, &mut sticky);
        let copy = Mbuf::from_payload(m.data());
        let a = node.process_burst(vec![m]);
        out.clear();
        single.process_burst_into(&mut vec![copy], now, &mut out);
        let b: Vec<NodeVerdict> = out.drain(..).map(NodeVerdict::from).collect();
        assert_eq!(verdict_kind(&a[0]), verdict_kind(&b[0]), "packet {i}");
    }
    assert_eq!(taxonomy(&node), DataMetrics { updates_applied: 0, ..single.metrics() });
    assert_eq!(iot_totals(&node), (single.iot_packets, single.iot_bytes));
    assert_eq!(pipeline_population(&node), single.pipeline_latency().count());
    assert_eq!(table_stats(&node), single.table_stats());
    for (u, h) in (0..USERS).zip(&single_ctxs) {
        let want = single.slab().resolve(*h).expect("live handle").counters().snapshot();
        assert_eq!(counters(&node, u), want, "user {u}");
    }
}
