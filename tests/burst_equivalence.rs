// IMSI literals are written MCC_MNC_MSIN (e.g. 404_01_…).
#![allow(clippy::inconsistent_digit_grouping)]

//! Differential test: the burst data path must be observationally
//! identical to the scalar path — same per-packet verdicts, same
//! per-user counters, same drop taxonomy, same histogram populations,
//! same two-level table churn — on seeded mixed workloads.
//!
//! Two identically-configured [`DataPlane`]s process the same packet
//! stream: one packet at a time vs in random-size bursts, with matching
//! `now_ns` per burst so token-bucket arithmetic is deterministic.

use pepc::config::{IotConfig, TwoLevelConfig};
use pepc::data::{DataPlane, DpUpdate, DropReason, PacketVerdict};
use pepc::pcef::PcefAction;
use pepc::state::{ControlState, CounterState, QosPolicy, TunnelState};
use pepc::{UeHandle, UeSlab};
use pepc_net::bpf::BpfProgram;
use pepc_net::gtp::encap_gtpu;
use pepc_net::ipv4::IpProto;
use pepc_net::udp::{UdpHdr, UDP_HDR_LEN};
use pepc_net::{Ipv4Hdr, Mbuf, IPV4_HDR_LEN};
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const GW_IP: u32 = 0x0AFE_0001;
const ENB_IP: u32 = 0xC0A8_0001;
const UE_IP_BASE: u32 = 0x0A00_0001;
const TEID_BASE: u32 = 0x1000;
const IOT_TEID_BASE: u32 = 0xF000_0000;
const IOT_IP_BASE: u32 = 0x6400_0000;
const USERS: u32 = 24;

/// Per-user flavour of the seeded population.
#[derive(Clone, Copy, PartialEq)]
enum Flavour {
    /// No PCEF rules, unlimited AMBR: the rule-less fast path.
    Plain,
    /// Tight AMBR, so some packets rate-drop.
    RateLimited,
    /// A gate-closed rule on DNS, so port-53 packets gate-drop.
    Gated,
}

fn flavour(u: u32) -> Flavour {
    match u % 3 {
        0 => Flavour::Plain,
        1 => Flavour::RateLimited,
        _ => Flavour::Gated,
    }
}

fn counters_of(slab: &UeSlab, h: UeHandle) -> CounterState {
    slab.resolve(h).expect("live handle").counters()
}

fn build_plane() -> (DataPlane, Vec<UeHandle>) {
    let iot = IotConfig { enabled: true, teid_base: IOT_TEID_BASE, ip_base: IOT_IP_BASE, pool_size: 64 };
    let mut dp = DataPlane::new(GW_IP, 256, TwoLevelConfig::default(), iot);
    dp.apply_update(
        DpUpdate::InstallRule {
            id: 1,
            program: BpfProgram::match_dst_port(53, 1),
            action: PcefAction { qci: 9, rate_kbps: 0, gate_closed: true },
        },
        0,
    );
    let mut handles = Vec::new();
    for u in 0..USERS {
        let mut ctrl = ControlState::new(404_01_0000000000 + u64::from(u));
        ctrl.ue_ip = UE_IP_BASE + u;
        let ambr = if flavour(u) == Flavour::RateLimited { 8 } else { 0 };
        ctrl.qos = QosPolicy { qci: 9, ambr_kbps: ambr, gbr_kbps: 0 };
        ctrl.tunnels = TunnelState { enb_teid: 0xE000 + u, enb_ip: ENB_IP, gw_teid: TEID_BASE + u };
        if flavour(u) == Flavour::Gated {
            ctrl.pcef_rules.push(1);
        }
        let handle = dp.slab().alloc(ctrl, CounterState::default());
        // Half the users start demoted so bursts exercise promotions.
        let active = u % 2 == 0;
        dp.apply_update(DpUpdate::Insert { gw_teid: TEID_BASE + u, ue_ip: UE_IP_BASE + u, handle, active }, 0);
        handles.push(handle);
    }
    (dp, handles)
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

/// One seeded packet of the mixed workload: known uplink/downlink (with
/// same-user repeats so runs form), gated ports, IoT pool, unknown keys,
/// and malformed frames.
fn next_packet(rng: &mut rand::rngs::StdRng, sticky_user: &mut u32) -> Mbuf {
    // Re-use the previous user 50% of the time so same-user runs form
    // inside bursts (the case group coalescing optimizes).
    if rng.gen_range(0..2) == 0 {
        *sticky_user = rng.gen_range(0..USERS);
    }
    let u = *sticky_user;
    let dst_port = if rng.gen_range(0..3) == 0 { 53 } else { 443 };
    match rng.gen_range(0..10) {
        // Known uplink (the bulk).
        0..=3 => uplink(TEID_BASE + u, UE_IP_BASE + u, dst_port),
        // Known downlink.
        4..=6 => inner_udp(0x0808_0808, UE_IP_BASE + u, dst_port, 48),
        // IoT pool, both directions.
        7 => uplink(IOT_TEID_BASE + (u % 64), IOT_IP_BASE + (u % 64), dst_port),
        8 => inner_udp(0x0808_0808, IOT_IP_BASE + (u % 64), dst_port, 32),
        // Unknown key or malformed frame.
        _ => {
            if rng.gen_range(0..2) == 0 {
                uplink(0x00DE_AD00 + u, UE_IP_BASE, dst_port)
            } else {
                Mbuf::from_payload(&[0xFF; 40])
            }
        }
    }
}

fn verdict_kind(v: &PacketVerdict) -> (u8, Option<DropReason>, usize) {
    match v {
        PacketVerdict::Forward(m) => (0, None, m.len()),
        PacketVerdict::Drop(r) => (1, Some(*r), 0),
        PacketVerdict::Buffered => (2, None, 0),
    }
}

#[test]
fn burst_path_is_observationally_identical_to_scalar() {
    for seed in [7u64, 42, 1234] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (mut scalar, scalar_ctxs) = build_plane();
        let (mut burst_dp, burst_ctxs) = build_plane();

        let mut sticky = 0u32;
        let mut now = 1_000u64;
        for _round in 0..200 {
            let burst_size = rng.gen_range(1..49);
            // Advance time between bursts so token buckets refill and
            // idle eviction timing matters; within a burst both paths
            // see one `now`, matching the one-clock-read design.
            now += rng.gen_range(0..2_000_000);
            let packets: Vec<Mbuf> = (0..burst_size).map(|_| next_packet(&mut rng, &mut sticky)).collect();
            // The scalar plane sees byte-identical copies.
            let copies: Vec<Mbuf> = packets.iter().map(|m| Mbuf::from_payload(m.data())).collect();

            let mut burst_in = packets;
            let mut burst_out = Vec::new();
            burst_dp.process_burst_into(&mut burst_in, now, &mut burst_out);
            let scalar_out: Vec<PacketVerdict> = copies.into_iter().map(|m| scalar.process(m, now)).collect();

            assert_eq!(burst_out.len(), scalar_out.len());
            for (k, (b, s)) in burst_out.iter().zip(&scalar_out).enumerate() {
                assert_eq!(verdict_kind(b), verdict_kind(s), "seed {seed} packet {k}");
            }
        }

        assert_eq!(scalar.metrics(), burst_dp.metrics(), "seed {seed}: drop taxonomy diverged");
        assert_eq!(scalar.iot_packets, burst_dp.iot_packets, "seed {seed}");
        assert_eq!(scalar.iot_bytes, burst_dp.iot_bytes, "seed {seed}");
        assert_eq!(scalar.table_stats(), burst_dp.table_stats(), "seed {seed}: table churn diverged");
        assert_eq!(
            scalar.pipeline_latency().count(),
            burst_dp.pipeline_latency().count(),
            "seed {seed}: histogram population diverged"
        );
        for (u, (a, b)) in scalar_ctxs.iter().zip(&burst_ctxs).enumerate() {
            assert_eq!(
                counters_of(scalar.slab(), *a),
                counters_of(burst_dp.slab(), *b),
                "seed {seed}: user {u} counters diverged"
            );
        }
    }
}

#[test]
fn burst_path_identical_under_concurrent_view_republish() {
    // Seqlock-path variant of the differential: while the burst plane
    // processes, a concurrent "control thread" keeps republishing each
    // user's view with unchanged values (a field written to itself goes
    // through the publishing write guard). Data-path reads race real
    // seqlock publish windows — retries happen — but since the values
    // never change, verdicts, metrics, and per-user counters must stay
    // byte-identical to the undisturbed scalar plane.
    use std::sync::atomic::{AtomicBool, Ordering};
    for seed in [7u64, 42, 1234] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (mut scalar, scalar_ctxs) = build_plane();
        let (mut burst_dp, burst_ctxs) = build_plane();

        let stop = Arc::new(AtomicBool::new(false));
        let republisher = {
            let slab = Arc::clone(burst_dp.slab());
            let handles = burst_ctxs.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rounds = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for h in &handles {
                        // Dropping the guard republishes the (identical)
                        // view, cycling the sequence odd→even under the
                        // data path's feet.
                        drop(slab.resolve(*h).expect("live handle").ctrl_write());
                    }
                    rounds += 1;
                    std::thread::yield_now();
                }
                rounds
            })
        };

        let mut sticky = 0u32;
        let mut now = 1_000u64;
        for _round in 0..200 {
            let burst_size = rng.gen_range(1..49);
            now += rng.gen_range(0..2_000_000);
            let packets: Vec<Mbuf> = (0..burst_size).map(|_| next_packet(&mut rng, &mut sticky)).collect();
            let copies: Vec<Mbuf> = packets.iter().map(|m| Mbuf::from_payload(m.data())).collect();

            let mut burst_in = packets;
            let mut burst_out = Vec::new();
            burst_dp.process_burst_into(&mut burst_in, now, &mut burst_out);
            let scalar_out: Vec<PacketVerdict> = copies.into_iter().map(|m| scalar.process(m, now)).collect();

            assert_eq!(burst_out.len(), scalar_out.len());
            for (k, (b, s)) in burst_out.iter().zip(&scalar_out).enumerate() {
                assert_eq!(verdict_kind(b), verdict_kind(s), "seed {seed} packet {k}");
            }
        }

        stop.store(true, Ordering::Relaxed);
        assert!(republisher.join().expect("republisher") > 0, "republisher made progress");

        assert_eq!(scalar.metrics(), burst_dp.metrics(), "seed {seed}: drop taxonomy diverged");
        assert_eq!(scalar.table_stats(), burst_dp.table_stats(), "seed {seed}: table churn diverged");
        for (u, (a, b)) in scalar_ctxs.iter().zip(&burst_ctxs).enumerate() {
            assert_eq!(
                counters_of(scalar.slab(), *a),
                counters_of(burst_dp.slab(), *b),
                "seed {seed}: user {u} counters diverged"
            );
        }
    }
}

#[test]
fn scalar_process_is_the_burst_size_one_case() {
    // Driving process_burst_into with singleton bursts must equal process().
    let (mut a, a_ctxs) = build_plane();
    let (mut b, b_ctxs) = build_plane();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut sticky = 0u32;
    for i in 0..500u64 {
        let now = 1_000 + i * 10_000;
        let m = next_packet(&mut rng, &mut sticky);
        let copy = Mbuf::from_payload(m.data());
        let va = a.process(m, now);
        let mut vb = Vec::new();
        b.process_burst_into(&mut vec![copy], now, &mut vb);
        assert_eq!(verdict_kind(&va), verdict_kind(&vb[0]), "packet {i}");
    }
    assert_eq!(a.metrics(), b.metrics());
    for (x, y) in a_ctxs.iter().zip(&b_ctxs) {
        assert_eq!(counters_of(a.slab(), *x), counters_of(b.slab(), *y));
    }
}
