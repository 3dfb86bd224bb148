//! The PEPC node Demux — paper §3.3 / §4.3 `LookUpSlice`.
//!
//! "PEPC's Demux function is responsible for steering incoming signaling
//! and data traffic to its associated slice. [...] it uses the TEID (for
//! uplink) or user device IP address (for downlink) to map incoming
//! traffic to a specific slice", and IMSI/GUTI for signaling.
//!
//! The Demux also owns the **per-user migration queues** (§4.3): while a
//! user is mid-migration its packets are parked here and drained to the
//! new slice once the transfer completes, so migration loses no packets
//! and never exposes two slices writing one user's state.

use pepc_net::Mbuf;
use std::collections::HashMap;

/// Where the Demux wants a packet to go.
#[derive(Debug, PartialEq, Eq)]
pub enum Steer {
    /// Deliver to this slice index.
    ToSlice(usize),
    /// The user is migrating; the packet has been parked.
    Parked,
}

/// The steering table.
#[derive(Debug, Default)]
pub struct Demux {
    by_teid: HashMap<u32, usize>,
    by_ue_ip: HashMap<u32, usize>,
    by_imsi: HashMap<u64, usize>,
    /// IMSIs currently migrating, with their parked packets.
    migrating: HashMap<u64, Vec<Mbuf>>,
    /// Reverse key index so parking can recognise a migrating user's
    /// packets by TEID/IP.
    teid_to_imsi: HashMap<u32, u64>,
    ip_to_imsi: HashMap<u32, u64>,
}

impl Demux {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a user's keys as served by `slice`.
    pub fn map_user(&mut self, imsi: u64, gw_teid: u32, ue_ip: u32, slice: usize) {
        self.by_imsi.insert(imsi, slice);
        self.by_teid.insert(gw_teid, slice);
        self.by_ue_ip.insert(ue_ip, slice);
        self.teid_to_imsi.insert(gw_teid, imsi);
        self.ip_to_imsi.insert(ue_ip, imsi);
    }

    /// Remove a user entirely.
    pub fn unmap_user(&mut self, imsi: u64, gw_teid: u32, ue_ip: u32) {
        self.by_imsi.remove(&imsi);
        self.by_teid.remove(&gw_teid);
        self.by_ue_ip.remove(&ue_ip);
        self.teid_to_imsi.remove(&gw_teid);
        self.ip_to_imsi.remove(&ue_ip);
        self.migrating.remove(&imsi);
    }

    /// Slice serving a signaling-plane identifier.
    pub fn slice_for_imsi(&self, imsi: u64) -> Option<usize> {
        self.by_imsi.get(&imsi).copied()
    }

    /// Slice a data packet steers to, without parking it. Uplink GTP-U
    /// is keyed by TEID; downlink IP by destination address. A packet
    /// with no mapped key, or none at all, goes to slice 0, whose
    /// pipeline charges it to `drop_unknown_user` or `drop_malformed` (or
    /// serves it from the stateless IoT pool), so every packet the node
    /// receives is counted by exactly one slice.
    pub fn slice_for_packet(&self, m: &Mbuf) -> usize {
        self.slice_for_key(packet_key(m))
    }

    fn slice_for_key(&self, key: Option<PacketKey>) -> usize {
        let slice = match key {
            Some(PacketKey::Teid(teid)) => self.by_teid.get(&teid),
            Some(PacketKey::UeIp(ip)) => self.by_ue_ip.get(&ip),
            None => None,
        };
        slice.copied().unwrap_or(0)
    }

    /// Steer one data packet as [`Self::slice_for_packet`] does, except
    /// that packets of migrating users are parked.
    pub fn steer(&mut self, m: Mbuf) -> (Steer, Option<Mbuf>) {
        let key = packet_key(&m);
        if !self.migrating.is_empty() {
            let imsi = match key {
                Some(PacketKey::Teid(teid)) => self.teid_to_imsi.get(&teid),
                Some(PacketKey::UeIp(ip)) => self.ip_to_imsi.get(&ip),
                None => None,
            };
            if let Some(queue) = imsi.and_then(|imsi| self.migrating.get_mut(imsi)) {
                queue.push(m);
                return (Steer::Parked, None);
            }
        }
        (Steer::ToSlice(self.slice_for_key(key)), Some(m))
    }

    /// Steer a whole burst, appending one `(steer, packet)` pair per
    /// packet to `out` in input order. The burst vector is drained.
    /// Parked packets are consumed by their migration queue (the `Mbuf`
    /// side of the pair is `None`), exactly as in [`Self::steer`].
    pub fn steer_burst(&mut self, burst: &mut Vec<Mbuf>, out: &mut Vec<(Steer, Option<Mbuf>)>) {
        out.reserve(burst.len());
        for m in burst.drain(..) {
            out.push(self.steer(m));
        }
    }

    /// Begin parking packets for `imsi` (migration started).
    pub fn begin_migration(&mut self, imsi: u64) {
        self.migrating.entry(imsi).or_default();
    }

    /// Finish a migration: repoint the user's keys at `new_slice` and
    /// return the parked packets for delivery there.
    pub fn finish_migration(&mut self, imsi: u64, gw_teid: u32, ue_ip: u32, new_slice: usize) -> Vec<Mbuf> {
        self.by_imsi.insert(imsi, new_slice);
        self.by_teid.insert(gw_teid, new_slice);
        self.by_ue_ip.insert(ue_ip, new_slice);
        self.teid_to_imsi.insert(gw_teid, imsi);
        self.ip_to_imsi.insert(ue_ip, imsi);
        self.migrating.remove(&imsi).unwrap_or_default()
    }

    /// Abort a migration (source keeps the user); parked packets are
    /// returned for redelivery to the original slice.
    pub fn abort_migration(&mut self, imsi: u64) -> Vec<Mbuf> {
        self.migrating.remove(&imsi).unwrap_or_default()
    }

    /// Number of users currently mapped.
    pub fn user_count(&self) -> usize {
        self.by_imsi.len()
    }

    /// Number of packets currently parked across all migrations.
    pub fn parked_count(&self) -> usize {
        self.migrating.values().map(Vec::len).sum()
    }
}

/// Steering key of one data packet: the same identifier the data plane
/// will look the user up by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKey {
    /// Uplink GTP-U: the tunnel endpoint id.
    Teid(u32),
    /// Downlink plain IPv4: the destination (UE) address.
    UeIp(u32),
}

/// Extract the steering key without fully parsing the packet: uplink
/// GTP-U (outer UDP :2152) → TEID at a fixed offset; otherwise downlink
/// IPv4 → destination address. Shared by the node [`Demux`] and the
/// cluster balancer, so both layers agree on what a packet is keyed by.
pub fn packet_key(m: &Mbuf) -> Option<PacketKey> {
    let d = m.data();
    if d.len() >= 20 && d[0] == 0x45 {
        if d.len() >= 36 && d[9] == 17 && u16::from_be_bytes([d[22], d[23]]) == pepc_net::GTPU_PORT {
            // outer IPv4 (20) + UDP (8) + GTP flags/type/len (4) → TEID.
            return Some(PacketKey::Teid(u32::from_be_bytes([d[32], d[33], d[34], d[35]])));
        }
        return Some(PacketKey::UeIp(u32::from_be_bytes([d[16], d[17], d[18], d[19]])));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use pepc_net::gtp::encap_gtpu;
    use pepc_net::ipv4::IpProto;
    use pepc_net::{Ipv4Hdr, IPV4_HDR_LEN};

    fn downlink(dst: u32) -> Mbuf {
        let mut m = Mbuf::new();
        let mut hdr = vec![0u8; IPV4_HDR_LEN + 8];
        Ipv4Hdr::new(1, dst, IpProto::Udp, 8).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
        m.extend(&hdr);
        m
    }

    fn uplink(teid: u32) -> Mbuf {
        let mut m = downlink(0x08080808);
        encap_gtpu(&mut m, 2, 3, teid).unwrap();
        m
    }

    #[test]
    fn steers_uplink_by_teid_and_downlink_by_ip() {
        let mut d = Demux::new();
        d.map_user(7, 0x1000, 0x0A000001, 3);
        let (s, m) = d.steer(uplink(0x1000));
        assert_eq!(s, Steer::ToSlice(3));
        assert!(m.is_some());
        let (s, _) = d.steer(downlink(0x0A000001));
        assert_eq!(s, Steer::ToSlice(3));
    }

    #[test]
    fn unknown_keys_go_to_slice_zero() {
        let mut d = Demux::new();
        d.map_user(7, 0x1000, 0x0A000001, 3);
        assert_eq!(d.steer(uplink(0x9999)).0, Steer::ToSlice(0));
        assert_eq!(d.steer(downlink(0x0B000001)).0, Steer::ToSlice(0));
    }

    #[test]
    fn malformed_packets_go_to_slice_zero() {
        let mut d = Demux::new();
        d.map_user(7, 0x1000, 0x0A000001, 3);
        let (s, m) = d.steer(Mbuf::from_payload(&[0u8; 4]));
        assert_eq!(s, Steer::ToSlice(0));
        assert!(m.is_some(), "handed on, not swallowed");
    }

    #[test]
    fn signaling_steered_by_imsi() {
        let mut d = Demux::new();
        d.map_user(7, 1, 2, 5);
        assert_eq!(d.slice_for_imsi(7), Some(5));
        assert_eq!(d.slice_for_imsi(8), None);
    }

    #[test]
    fn migration_parks_and_drains_in_order() {
        let mut d = Demux::new();
        d.map_user(7, 0x1000, 0x0A000001, 0);
        d.begin_migration(7);
        // Both directions get parked.
        assert_eq!(d.steer(uplink(0x1000)).0, Steer::Parked);
        assert_eq!(d.steer(downlink(0x0A000001)).0, Steer::Parked);
        assert_eq!(d.parked_count(), 2);
        // Other users flow normally.
        d.map_user(8, 0x1001, 0x0A000002, 0);
        assert_eq!(d.steer(uplink(0x1001)).0, Steer::ToSlice(0));

        let parked = d.finish_migration(7, 0x1000, 0x0A000001, 1);
        assert_eq!(parked.len(), 2);
        assert_eq!(d.parked_count(), 0);
        // New packets go to the new slice.
        assert_eq!(d.steer(uplink(0x1000)).0, Steer::ToSlice(1));
    }

    #[test]
    fn abort_migration_returns_packets_and_keeps_mapping() {
        let mut d = Demux::new();
        d.map_user(7, 0x1000, 0x0A000001, 0);
        d.begin_migration(7);
        d.steer(uplink(0x1000));
        let parked = d.abort_migration(7);
        assert_eq!(parked.len(), 1);
        assert_eq!(d.steer(uplink(0x1000)).0, Steer::ToSlice(0), "mapping unchanged");
    }

    #[test]
    fn unmap_removes_all_keys() {
        let mut d = Demux::new();
        d.map_user(7, 0x1000, 0x0A000001, 2);
        d.unmap_user(7, 0x1000, 0x0A000001);
        assert_eq!(d.user_count(), 0);
        assert_eq!(d.slice_for_packet(&uplink(0x1000)), 0, "unmapped keys fall back to slice 0");
        assert_eq!(d.slice_for_imsi(7), None);
    }
}
