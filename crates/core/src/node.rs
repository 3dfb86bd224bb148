//! The PEPC node — paper §3.3: several slices, a Demux, a scheduler and
//! the backend proxy on one server.
//!
//! This implementation drives its slices *inline* (single logical thread
//! per node), which keeps behaviour deterministic for tests and lets the
//! figure harnesses measure per-core work precisely; the threaded
//! execution mode lives in [`crate::slice::Slice::spawn`] and is
//! exercised by the slice tests and examples. The node scheduler's
//! responsibilities from the paper are all here: instantiating slices
//! from operator configuration, steering (via [`Demux`]), and state
//! migration with per-user packet queues.

use crate::config::EpcConfig;
use crate::ctrl::{Allocator, CtrlEvent};
use crate::data::PacketVerdict;
use crate::demux::{Demux, Steer};
use crate::migrate::UserSnapshot;
use crate::proxy::Proxy;
use crate::slice::Slice;
use pepc_backend::{Hss, Pcrf};
use pepc_fabric::Clock;
use pepc_net::Mbuf;
use pepc_sigproto::s1ap::S1apPdu;
use pepc_telemetry::{LatencyHistogram, MetricsSnapshot};
use std::sync::Arc;

/// Outcome of handing the node a data packet.
#[derive(Debug)]
pub enum NodeVerdict {
    /// Processed and forwarded by a slice.
    Forward(Mbuf),
    /// Dropped by a slice's pipeline, which charged one drop cause.
    Drop,
    /// Parked in a migration queue; will emerge later.
    Parked,
    /// Held in an idle-UE buffer behind a page; emerges via
    /// [`PepcNode::take_woken`] when the UE answers, or is dropped when
    /// the page expires.
    Buffered,
}

impl NodeVerdict {
    pub fn is_forward(&self) -> bool {
        matches!(self, NodeVerdict::Forward(_))
    }
}

impl From<PacketVerdict> for NodeVerdict {
    fn from(v: PacketVerdict) -> Self {
        match v {
            PacketVerdict::Forward(m) => NodeVerdict::Forward(m),
            PacketVerdict::Drop(_) => NodeVerdict::Drop,
            PacketVerdict::Buffered => NodeVerdict::Buffered,
        }
    }
}

/// A PEPC node.
pub struct PepcNode {
    config: EpcConfig,
    slices: Vec<Slice>,
    demux: Demux,
    proxy: Option<Arc<Proxy>>,
    /// Forwarded packets produced while draining migration queues.
    migration_out: Vec<Mbuf>,
    /// Per-user migration latency (park→drain), indexed by target slice —
    /// migration is a node procedure, so the node owns its histogram.
    migration_ns: Vec<LatencyHistogram>,
    /// Clock the node stamps migration latencies with (virtual under sim).
    clock: Clock,
    /// Verdict scratch for [`Self::process_burst`]'s same-slice runs.
    verdicts: Vec<PacketVerdict>,
}

impl PepcNode {
    /// Build a node with `config.slices` slices. Each slice gets a
    /// disjoint identifier region carved from the node's bases.
    pub fn new(config: EpcConfig, backends: Option<(Arc<Hss>, Arc<Pcrf>)>) -> Self {
        let proxy = backends.map(|(hss, pcrf)| Arc::new(Proxy::new(hss, pcrf, config.gw_ip, config.plmn)));
        let mut slices = Vec::with_capacity(config.slices);
        for k in 0..config.slices {
            let alloc = Self::allocator_for(&config, k);
            let mut slice_cfg = config.slice.clone();
            slice_cfg.ctrl_core = 2 * k;
            slice_cfg.data_core = 2 * k + 1;
            slices.push(Slice::new(&slice_cfg, config.gw_ip, config.tac, alloc, proxy.clone()));
        }
        let migration_ns = vec![LatencyHistogram::new(); config.slices];
        PepcNode {
            config,
            slices,
            demux: Demux::new(),
            proxy,
            migration_out: Vec::new(),
            migration_ns,
            clock: Clock::new(),
            verdicts: Vec::new(),
        }
    }

    /// Substitute the clock for this node and all its slices (the
    /// simulator installs a shared virtual clock so node time only moves
    /// when the harness advances it).
    pub fn set_clock(&mut self, clock: Clock) {
        self.clock = clock;
        for s in &mut self.slices {
            s.set_clock(clock);
        }
    }

    /// The identifier region slice `k` allocates from (24 bits ≈ 16M users
    /// per slice).
    fn allocator_for(config: &EpcConfig, k: usize) -> Allocator {
        let k = k as u32;
        Allocator {
            teid_base: config.teid_base + (k << 24),
            ue_ip_base: config.ue_ip_base + (k << 24),
            guti_base: 0xD00D_0000_0000 + (u64::from(k) << 32),
            mme_ue_id_base: 1 + (k << 24),
        }
    }

    /// Slice a fresh IMSI will be homed on (static hash, as the paper's
    /// Demux does for signaling).
    pub fn home_slice(&self, imsi: u64) -> usize {
        (imsi.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.slices.len()
    }

    /// Attach a user via the synthetic event path. Returns the slice it
    /// was homed on. Registers the Demux mapping.
    pub fn attach(&mut self, imsi: u64) -> usize {
        let k = self.demux.slice_for_imsi(imsi).unwrap_or_else(|| self.home_slice(imsi));
        self.slices[k].handle_ctrl_event(CtrlEvent::Attach { imsi });
        let ctx = self.slices[k].ctrl.context_of(imsi).expect("just attached");
        let (gw_teid, ue_ip) = {
            let c = ctx.ctrl_read();
            (c.tunnels.gw_teid, c.ue_ip)
        };
        self.demux.map_user(imsi, gw_teid, ue_ip, k);
        k
    }

    /// Detach a user everywhere.
    pub fn detach(&mut self, imsi: u64) -> bool {
        match self.demux.slice_for_imsi(imsi) {
            Some(k) => {
                let ctx = self.slices[k].ctrl.context_of(imsi);
                if let Some(ctx) = ctx {
                    let (gw_teid, ue_ip) = {
                        let c = ctx.ctrl_read();
                        (c.tunnels.gw_teid, c.ue_ip)
                    };
                    self.demux.unmap_user(imsi, gw_teid, ue_ip);
                }
                self.slices[k].handle_ctrl_event(CtrlEvent::Detach { imsi })
            }
            None => false,
        }
    }

    /// Apply a synthetic control event to the owning slice.
    pub fn ctrl_event(&mut self, ev: CtrlEvent) -> bool {
        match ev {
            CtrlEvent::Attach { .. } => {
                let CtrlEvent::Attach { imsi } = ev else { unreachable!() };
                self.attach(imsi);
                true
            }
            CtrlEvent::S1Handover { imsi, .. }
            | CtrlEvent::ModifyBearer { imsi, .. }
            | CtrlEvent::Release { imsi }
            | CtrlEvent::Detach { imsi } => match self.demux.slice_for_imsi(imsi) {
                Some(k) => self.slices[k].handle_ctrl_event(ev),
                None => false,
            },
        }
    }

    /// Route one S1AP PDU to the right slice and return its responses.
    ///
    /// InitialUEMessage is routed by the IMSI inside the NAS payload;
    /// UE-associated follow-ups are routed by the MME UE id, whose ranges
    /// are disjoint per slice.
    pub fn handle_s1ap(&mut self, pdu: &S1apPdu) -> Vec<S1apPdu> {
        let k = match pdu {
            S1apPdu::InitialUeMessage { nas, .. } => match pepc_sigproto::nas::NasMsg::decode(nas) {
                Ok(pepc_sigproto::nas::NasMsg::AttachRequest { imsi, .. }) => {
                    self.demux.slice_for_imsi(imsi).unwrap_or_else(|| self.home_slice(imsi))
                }
                // Service Requests carry only a GUTI; probe the slices for
                // the owner (GUTI regions are per-slice, so at most one
                // hit). Unknown GUTIs go to slice 0, which answers with
                // the release-and-reattach command.
                Ok(pepc_sigproto::nas::NasMsg::ServiceRequest { guti }) => {
                    (0..self.slices.len()).find(|&k| self.slices[k].ctrl.knows_guti(guti)).unwrap_or(0)
                }
                _ => return vec![],
            },
            S1apPdu::UplinkNasTransport { mme_ue_id, .. }
            | S1apPdu::InitialContextSetupResponse { mme_ue_id, .. }
            | S1apPdu::PathSwitchRequest { mme_ue_id, .. }
            | S1apPdu::HandoverRequired { mme_ue_id, .. }
            | S1apPdu::HandoverRequestAck { mme_ue_id, .. }
            | S1apPdu::UeContextReleaseRequest { mme_ue_id, .. }
            | S1apPdu::UeContextReleaseComplete { mme_ue_id, .. } => self.slice_of_mme_ue_id(*mme_ue_id),
            _ => return vec![],
        };
        let rsp = self.slices[k].handle_s1ap(pdu);
        // Context-setup completion reveals the user's data-plane keys;
        // register the Demux mapping then.
        if let S1apPdu::InitialContextSetupResponse { .. } = pdu {
            // The slice knows the user; find it via the ICS request we
            // would have emitted. Simplest robust approach: scan the
            // slice's IMSIs missing a demux mapping (attach volume per
            // call is 1, so this is the just-attached user).
            for imsi in self.slices[k].ctrl.imsis() {
                if self.demux.slice_for_imsi(imsi).is_none() {
                    if let Some(ctx) = self.slices[k].ctrl.context_of(imsi) {
                        let c = ctx.ctrl_read();
                        self.demux.map_user(imsi, c.tunnels.gw_teid, c.ue_ip, k);
                    }
                }
            }
        }
        rsp
    }

    /// Drive network-triggered paging on every slice; returns the paging
    /// PDUs (and supervision-sweep retransmits) to send to the eNodeBs.
    pub fn pump_paging(&mut self) -> Vec<S1apPdu> {
        let mut out = Vec::new();
        for s in &mut self.slices {
            out.extend(s.pump_paging());
        }
        out
    }

    /// Drain buffered downlink flushed by idle-UE wakes on every slice.
    pub fn take_woken(&mut self) -> Vec<Mbuf> {
        let mut out = Vec::new();
        for s in &mut self.slices {
            out.extend(s.take_woken());
        }
        out
    }

    /// Stuck-idle oracle over all slices: suspended UEs holding buffered
    /// downlink older than `bound_ns` with no page in flight.
    pub fn stuck_idle(&self, now_ns: u64, bound_ns: u64) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.slices.iter().flat_map(|s| s.stuck_idle(now_ns, bound_ns)).collect();
        v.sort_unstable();
        v
    }

    fn slice_of_mme_ue_id(&self, mme_ue_id: u32) -> usize {
        (((mme_ue_id - 1) >> 24) as usize).min(self.slices.len().saturating_sub(1))
    }

    /// Process one data packet end to end.
    pub fn process(&mut self, m: Mbuf) -> NodeVerdict {
        let (steer, m) = self.demux.steer(m);
        match steer {
            Steer::ToSlice(k) => self.slices[k].process_packet(m.expect("steered")).into(),
            Steer::Parked => NodeVerdict::Parked,
        }
    }

    /// Process a burst of data packets end to end, returning one verdict
    /// per packet in input order. Consecutive packets steered to the same
    /// slice are handed to that slice as one burst, so the slice-level
    /// lock coalescing and prefetching apply across the demux too.
    pub fn process_burst(&mut self, mut burst: Vec<Mbuf>) -> Vec<NodeVerdict> {
        let mut steered = Vec::with_capacity(burst.len());
        self.demux.steer_burst(&mut burst, &mut steered);
        let mut out = Vec::with_capacity(steered.len());
        // Flush buffer for the current same-slice run.
        let mut run: Vec<Mbuf> = Vec::new();
        let mut run_slice: Option<usize> = None;
        for (steer, m) in steered {
            match steer {
                Steer::ToSlice(k) => {
                    if run_slice != Some(k) {
                        self.flush_run(&mut run, &mut run_slice, &mut out);
                        run_slice = Some(k);
                    }
                    run.push(m.expect("steered"));
                }
                Steer::Parked => {
                    self.flush_run(&mut run, &mut run_slice, &mut out);
                    out.push(NodeVerdict::Parked);
                }
            }
        }
        self.flush_run(&mut run, &mut run_slice, &mut out);
        out
    }

    /// Drain a pending same-slice run through its slice's burst path.
    fn flush_run(&mut self, run: &mut Vec<Mbuf>, run_slice: &mut Option<usize>, out: &mut Vec<NodeVerdict>) {
        let Some(k) = run_slice.take() else { return };
        if run.is_empty() {
            return;
        }
        self.slices[k].process_burst_into(run, &mut self.verdicts);
        out.extend(self.verdicts.drain(..).map(NodeVerdict::from));
    }

    /// Migrate `imsi` from its current slice to `target`. Packets
    /// arriving mid-migration are parked and drained to the target
    /// afterwards; their outputs are retrievable via
    /// [`PepcNode::take_migration_output`]. Returns false if the user is
    /// unknown or already on `target`.
    pub fn migrate(&mut self, imsi: u64, target: usize) -> bool {
        let source = match self.demux.slice_for_imsi(imsi) {
            Some(s) => s,
            None => return false,
        };
        if source == target || target >= self.slices.len() {
            return false;
        }
        let t0 = self.clock.now_ns();
        // 1. Park subsequent packets.
        self.demux.begin_migration(imsi);
        // 2. Extract from the source slice (control thread removes its
        //    indexes and tells the source data thread to forget).
        let snap: UserSnapshot = match self.slices[source].extract_user(imsi) {
            Some(s) => s,
            None => {
                // Inconsistent mapping; heal by aborting the migration.
                let parked = self.demux.abort_migration(imsi);
                self.requeue(source, parked);
                return false;
            }
        };
        let (gw_teid, ue_ip) = (snap.gw_teid, snap.ue_ip);
        // 3. Install at the target.
        self.slices[target].install_user(snap);
        // 4. Repoint the Demux and drain the parked packets to the target.
        let parked = self.demux.finish_migration(imsi, gw_teid, ue_ip, target);
        self.requeue(target, parked);
        self.migration_ns[target].record(self.clock.now_ns().saturating_sub(t0));
        true
    }

    fn requeue(&mut self, slice: usize, parked: Vec<Mbuf>) {
        for m in parked {
            if let PacketVerdict::Forward(out) = self.slices[slice].process_packet(m) {
                self.migration_out.push(out);
            }
        }
    }

    /// Packets forwarded while draining migration queues.
    pub fn take_migration_output(&mut self) -> Vec<Mbuf> {
        std::mem::take(&mut self.migration_out)
    }

    /// Advance every slice's procedure-supervision clock.
    pub fn note_tick(&mut self, now: u64) {
        for s in &mut self.slices {
            s.note_tick(now);
        }
    }

    /// Expire stalled procedures on every slice; returns the total count.
    pub fn expire_procedures(&mut self, now: u64, max_age: u64) -> usize {
        self.slices.iter_mut().map(|s| s.expire_procedures(now, max_age)).sum()
    }

    /// UEs stuck mid-procedure beyond `bound` ticks across all slices,
    /// as `(imsi, age)` — the simulator's liveness-oracle input.
    pub fn stuck_procedures(&self, now: u64, bound: u64) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.slices.iter().flat_map(|s| s.ctrl.stuck_procedures(now, bound)).collect();
        v.sort_unstable();
        v
    }

    /// Direct access to a slice (harness / test hook).
    pub fn slice(&mut self, k: usize) -> &mut Slice {
        &mut self.slices[k]
    }

    /// Immutable access to a slice (oracles, inspection).
    pub fn slice_ref(&self, k: usize) -> &Slice {
        &self.slices[k]
    }

    /// Number of slices.
    pub fn slice_count(&self) -> usize {
        self.slices.len()
    }

    /// Total users attached across slices.
    pub fn user_count(&self) -> usize {
        self.slices.iter().map(|s| s.ctrl.user_count()).sum()
    }

    /// Snapshot every slice's observability registry, plus the node-owned
    /// migration histogram (slotted into the target slice's entry).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        for (k, s) in self.slices.iter().enumerate() {
            let mut sl = s.telemetry_snapshot(k as u64);
            sl.migration_ns = self.migration_ns[k].clone();
            snap.slices.push(sl);
        }
        snap
    }

    /// The node's Demux (inspection).
    pub fn demux(&self) -> &Demux {
        &self.demux
    }

    /// Recovery hook: re-register a restored user's steering keys (a
    /// recovery controller rebuilds the Demux from the same checkpoint it
    /// restored the slices from).
    pub fn demux_mut_for_recovery(&mut self, imsi: u64, gw_teid: u32, ue_ip: u32, slice: usize) {
        self.demux.map_user(imsi, gw_teid, ue_ip, slice);
    }

    /// Adopt a user recovered from another node's replica: restore the
    /// state into the IMSI's home slice (identifiers and tunnels are
    /// preserved, so in-flight GTP tunnels stay valid), push the
    /// data-plane insert through immediately, and register the Demux
    /// steering keys. Returns the slice the user landed on.
    pub fn adopt_user(&mut self, ctrl: crate::state::ControlState, counters: crate::state::CounterState) -> usize {
        let imsi = ctrl.imsi;
        let (gw_teid, ue_ip) = (ctrl.tunnels.gw_teid, ctrl.ue_ip);
        let k = self.demux.slice_for_imsi(imsi).unwrap_or_else(|| self.home_slice(imsi));
        self.slices[k].ctrl.restore_user(ctrl, counters);
        self.slices[k].sync_now();
        self.demux.map_user(imsi, gw_teid, ue_ip, k);
        k
    }

    /// The proxy, when backends were supplied.
    pub fn proxy(&self) -> Option<&Arc<Proxy>> {
        self.proxy.as_ref()
    }

    /// The node configuration.
    pub fn config(&self) -> &EpcConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pepc_net::gtp::{decap_gtpu, encap_gtpu};
    use pepc_net::ipv4::IpProto;
    use pepc_net::{Ipv4Hdr, IPV4_HDR_LEN};

    fn node(slices: usize) -> PepcNode {
        let config = EpcConfig {
            slices,
            slice: crate::config::SliceConfig {
                batching: crate::config::BatchingConfig { sync_every_packets: 1 },
                ..Default::default()
            },
            ..EpcConfig::default()
        };
        PepcNode::new(config, None)
    }

    fn uplink_for(node: &mut PepcNode, imsi: u64) -> Mbuf {
        let k = node.demux.slice_for_imsi(imsi).unwrap();
        let ctx = node.slice(k).ctrl.context_of(imsi).unwrap();
        let (teid, ue_ip) = {
            let c = ctx.ctrl_read();
            (c.tunnels.gw_teid, c.ue_ip)
        };
        let mut m = Mbuf::new();
        let mut hdr = vec![0u8; IPV4_HDR_LEN + 16];
        Ipv4Hdr::new(ue_ip, 0x08080808, IpProto::Udp, 16).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
        m.extend(&hdr);
        encap_gtpu(&mut m, 0xC0A80001, 0x0AFE0001, teid).unwrap();
        m
    }

    fn downlink_for(node: &mut PepcNode, imsi: u64) -> Mbuf {
        let k = node.demux.slice_for_imsi(imsi).unwrap();
        let ctx = node.slice(k).ctrl.context_of(imsi).unwrap();
        let ue_ip = ctx.ctrl_read().ue_ip;
        let mut m = Mbuf::new();
        let mut hdr = vec![0u8; IPV4_HDR_LEN + 8];
        Ipv4Hdr::new(0x08080808, ue_ip, IpProto::Udp, 8).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
        m.extend(&hdr);
        m
    }

    #[test]
    fn attach_and_bidirectional_traffic() {
        let mut n = node(2);
        n.attach(7);
        // Downlink tunnel endpoint comes from a handover/ICS; set one.
        n.ctrl_event(CtrlEvent::S1Handover { imsi: 7, new_enb_teid: 0xE0, new_enb_ip: 0xC0A80001 });
        assert_eq!(n.user_count(), 1);
        let up = uplink_for(&mut n, 7);
        assert!(n.process(up).is_forward());
        let down = downlink_for(&mut n, 7);
        match n.process(down) {
            NodeVerdict::Forward(mut m) => {
                let (gtp, _) = decap_gtpu(&mut m).unwrap();
                assert_eq!(gtp.teid, 0xE0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn users_spread_across_slices() {
        let mut n = node(4);
        for imsi in 0..64 {
            n.attach(imsi);
        }
        let counts: Vec<usize> = (0..4).map(|k| n.slice(k).ctrl.user_count()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 64);
        assert!(counts.iter().all(|&c| c > 0), "all slices used: {counts:?}");
    }

    #[test]
    fn unroutable_packets_dropped() {
        let mut n = node(1);
        let mut m = Mbuf::new();
        let mut hdr = vec![0u8; IPV4_HDR_LEN];
        Ipv4Hdr::new(1, 0x0BADF00D, IpProto::Udp, 0).emit(&mut hdr).unwrap();
        m.extend(&hdr);
        assert!(matches!(n.process(m), NodeVerdict::Drop));
    }

    #[test]
    fn every_offered_packet_is_counted_by_one_slice() {
        let mut n = node(4);
        for imsi in 0..8 {
            n.attach(imsi);
        }
        let mut burst = Vec::new();
        for imsi in 0..8 {
            burst.push(uplink_for(&mut n, imsi));
        }
        // Unknown TEID, unknown UE IP, and a frame whose first byte is not 0x45.
        let mut unknown_ul = Mbuf::new();
        let mut hdr = vec![0u8; IPV4_HDR_LEN + 16];
        Ipv4Hdr::new(1, 0x08080808, IpProto::Udp, 16).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
        unknown_ul.extend(&hdr);
        encap_gtpu(&mut unknown_ul, 0xC0A80001, 0x0AFE0001, 0xDEAD).unwrap();
        burst.push(unknown_ul);
        let mut unknown_dl = Mbuf::new();
        let mut hdr = vec![0u8; IPV4_HDR_LEN];
        Ipv4Hdr::new(1, 0x0BADF00D, IpProto::Udp, 0).emit(&mut hdr).unwrap();
        unknown_dl.extend(&hdr);
        burst.push(unknown_dl);
        burst.push(Mbuf::from_payload(&[0x60; 40]));
        let offered = burst.len() as u64;

        let verdicts = n.process_burst(burst);
        assert_eq!(verdicts.iter().filter(|v| v.is_forward()).count(), 8);
        let snap = n.metrics_snapshot();
        let rx: u64 = snap.slices.iter().map(|s| s.data.rx).sum();
        assert_eq!(offered, rx, "no packet dies at the Demux uncounted");
        assert!(snap.conservation_holds());
        assert_eq!(snap.slices[0].data.drop_unknown_user, 2);
        assert_eq!(snap.slices[0].data.drop_malformed, 1);
    }

    #[test]
    fn burst_processing_spans_slices_in_order() {
        let mut n = node(2);
        for imsi in 0..8 {
            n.attach(imsi);
            n.ctrl_event(CtrlEvent::S1Handover { imsi, new_enb_teid: 0xE0, new_enb_ip: 0xC0A80001 });
        }
        // Mixed burst: packets for users on different slices plus one
        // unroutable, interleaved so several same-slice runs form.
        let mut burst = Vec::new();
        let mut expect_forward = Vec::new();
        for imsi in [0u64, 0, 1, 2, 2, 3] {
            burst.push(uplink_for(&mut n, imsi));
            expect_forward.push(true);
        }
        let mut unroutable = Mbuf::new();
        let mut hdr = vec![0u8; IPV4_HDR_LEN];
        Ipv4Hdr::new(1, 0x0BADF00D, IpProto::Udp, 0).emit(&mut hdr).unwrap();
        unroutable.extend(&hdr);
        burst.push(unroutable);
        expect_forward.push(false);
        burst.push(downlink_for(&mut n, 5));
        expect_forward.push(true);

        let verdicts = n.process_burst(burst);
        assert_eq!(verdicts.len(), expect_forward.len());
        for (v, want) in verdicts.iter().zip(&expect_forward) {
            assert_eq!(v.is_forward(), *want, "{v:?}");
        }
        let snap = n.metrics_snapshot();
        assert!(snap.conservation_holds());
        assert_eq!(snap.data_totals().forwarded, 7);
    }

    #[test]
    fn migration_moves_user_and_preserves_packets() {
        let mut n = node(2);
        n.attach(7);
        let src = n.demux.slice_for_imsi(7).unwrap();
        let dst = 1 - src;
        // Traffic before migration.
        let up = uplink_for(&mut n, 7);
        assert!(n.process(up).is_forward());

        assert!(n.migrate(7, dst));
        assert_eq!(n.demux.slice_for_imsi(7), Some(dst));
        assert_eq!(n.slice(src).ctrl.user_count(), 0);
        assert_eq!(n.slice(dst).ctrl.user_count(), 1);
        // Counters travelled.
        assert_eq!(n.slice(dst).ctrl.counters_of(7).unwrap().uplink_packets, 1);
        // Traffic after migration still flows (same TEID).
        let up = uplink_for(&mut n, 7);
        assert!(n.process(up).is_forward());
        assert_eq!(n.slice(dst).ctrl.counters_of(7).unwrap().uplink_packets, 2);
    }

    #[test]
    fn node_snapshot_covers_slices_and_migration() {
        let mut n = node(2);
        n.attach(7);
        let src = n.demux.slice_for_imsi(7).unwrap();
        let dst = 1 - src;
        let up = uplink_for(&mut n, 7);
        assert!(n.process(up).is_forward());
        assert!(n.migrate(7, dst));

        let snap = n.metrics_snapshot();
        assert_eq!(snap.slices.len(), 2);
        assert!(snap.conservation_holds());
        assert_eq!(snap.slices[dst].migration_ns.count(), 1);
        assert_eq!(snap.slices[src].migration_ns.count(), 0);
        assert_eq!(snap.slices[dst].ctrl.migrations_in, 1);
        assert_eq!(snap.slices[src].ctrl.migrations_out, 1);
        assert_eq!(snap.data_totals().forwarded, 1);
        // The report renders and round-trips.
        let text = snap.render();
        assert!(text.contains("conservation=ok"), "{text}");
        let back = pepc_telemetry::MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert!(back.deterministic_eq(&snap));
    }

    #[test]
    fn migrate_rejects_bad_targets() {
        let mut n = node(2);
        n.attach(7);
        let src = n.demux.slice_for_imsi(7).unwrap();
        assert!(!n.migrate(7, src), "same slice");
        assert!(!n.migrate(7, 99), "out of range");
        assert!(!n.migrate(999, 0), "unknown user");
    }

    #[test]
    fn detach_cleans_node_state() {
        let mut n = node(2);
        n.attach(7);
        assert!(n.detach(7));
        assert_eq!(n.user_count(), 0);
        assert_eq!(n.demux().user_count(), 0);
        assert!(!n.detach(7));
    }

    #[test]
    fn s1ap_attach_routes_and_registers_demux() {
        use crate::ctrl::run_attach_with;
        let hss = Arc::new(Hss::new());
        hss.provision_range(1, 100, 100_000);
        let pcrf = Arc::new(Pcrf::with_standard_rules());
        let config = EpcConfig {
            slices: 2,
            slice: crate::config::SliceConfig {
                batching: crate::config::BatchingConfig { sync_every_packets: 1 },
                ..Default::default()
            },
            ..EpcConfig::default()
        };
        let mut n = PepcNode::new(config, Some((hss, pcrf)));
        // Drive the full attach through the node's S1AP routing.
        let (_, _, _) = run_attach_with(|pdu| n.handle_s1ap(pdu), 42, 1, 0xE0, 0xC0A80001).unwrap();
        assert_eq!(n.user_count(), 1);
        assert!(n.demux().slice_for_imsi(42).is_some(), "demux registered from ICS response");
        // Traffic flows both ways through node-level processing.
        let up = uplink_for(&mut n, 42);
        assert!(n.process(up).is_forward());
        let down = downlink_for(&mut n, 42);
        assert!(n.process(down).is_forward());
    }
}
