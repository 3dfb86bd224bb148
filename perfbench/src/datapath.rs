//! Data packets into `PepcNode::process_burst`, with every verdict
//! checked against what the generator sent.

use crate::trace::{Span, Tracer};
use pepc::demux::packet_key;
use pepc::node::{NodeVerdict, PepcNode};
use pepc_net::{classify_fast, Mbuf, GTPU_PORT};
use pepc_workload::TrafficGen;
use std::hint::black_box;
use std::time::Instant;

/// Outer IPv4 + UDP + GTP-U header bytes in front of an uplink's inner packet.
const GTPU_OVERHEAD: usize = pepc_net::gtp::GTPU_OVERHEAD;

/// Expected downlink tunnel per UE, indexed by UE IP offset from a base.
pub struct DlTable {
    base: u32,
    enb_teid: Vec<u32>,
}

impl DlTable {
    pub fn new(ue_ip_base: u32) -> Self {
        DlTable { base: ue_ip_base, enb_teid: Vec::new() }
    }

    fn slot(&self, ue_ip: u32) -> usize {
        ue_ip.wrapping_sub(self.base) as usize
    }

    pub fn set(&mut self, ue_ip: u32, enb_teid: u32) {
        let i = self.slot(ue_ip);
        if i >= self.enb_teid.len() {
            self.enb_teid.resize(i + 1, 0);
        }
        self.enb_teid[i] = enb_teid;
    }

    pub fn get(&self, ue_ip: u32) -> Option<u32> {
        self.enb_teid.get(self.slot(ue_ip)).copied().filter(|&t| t != 0)
    }
}

/// Packet outcomes as the node reported them.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub offered: u64,
    pub forwarded: u64,
    pub dropped: u64,
    pub buffered: u64,
    pub parked: u64,
}

impl Tally {
    pub fn lost(&self) -> u64 {
        self.offered - self.forwarded
    }
}

/// Tracks when the slice runs its batched sync (it syncs before a burst
/// once `sync_every_packets` packets have accumulated), so an open-loop
/// probe can ride the first burst the slice syncs before, and a traced
/// run can take that sync itself, timed, just before `process_burst`.
pub struct SyncSchedule {
    every: u32,
    since: u32,
}

impl SyncSchedule {
    /// Call right after a `sync_now`, when the slice's count is zero.
    pub fn new(node: &PepcNode) -> Self {
        SyncSchedule { every: node.config().slice.batching.sync_every_packets.max(1), since: 0 }
    }

    /// Whether the slice syncs before processing `n` more packets.
    pub fn peek(&self, n: usize) -> bool {
        self.since as usize + n >= self.every as usize
    }

    /// Account a burst of `n`; `explicit` when the caller takes the due
    /// sync itself (the slice's own check then starts again from zero).
    fn commit(&mut self, n: usize, explicit: bool) -> bool {
        let due = self.peek(n);
        let n32 = n.min(u32::MAX as usize) as u32;
        self.since = if !due {
            self.since + n32
        } else if explicit && n32 < self.every {
            n32
        } else {
            0
        };
        due
    }
}

/// What a burst packet must look like when it comes out.
#[derive(Clone, Copy)]
enum Expect {
    /// Uplink: decapsulated, with this inner source (the UE's IP).
    Uplink(u32),
    /// Downlink: encapsulated toward the eNodeB with this TEID.
    Downlink(u32),
}

fn expect_of(m: &Mbuf, dl: &DlTable) -> Result<Expect, String> {
    let d = m.data();
    if d.len() >= GTPU_OVERHEAD + 20 && u16::from_be_bytes([d[22], d[23]]) == GTPU_PORT {
        let o = GTPU_OVERHEAD + 12;
        return Ok(Expect::Uplink(u32::from_be_bytes([d[o], d[o + 1], d[o + 2], d[o + 3]])));
    }
    if d.len() < 20 {
        return Err("generated packet shorter than an IPv4 header".into());
    }
    let dst = u32::from_be_bytes([d[16], d[17], d[18], d[19]]);
    dl.get(dst).map(Expect::Downlink).ok_or_else(|| format!("downlink for unknown UE {dst:#x}"))
}

fn check_forwarded(m: &Mbuf, want: Expect) -> Result<(), String> {
    let d = m.data();
    match want {
        Expect::Uplink(src) => {
            let got = d.get(12..16).map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]));
            if got != Some(src) {
                return Err(format!("uplink decapsulated to source {got:x?}, generated for UE {src:#x}"));
            }
        }
        Expect::Downlink(teid) => {
            let port = d.get(22..24).map(|b| u16::from_be_bytes([b[0], b[1]]));
            let got = d.get(32..36).map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]));
            if port != Some(GTPU_PORT) || got != Some(teid) {
                return Err(format!("downlink left with TEID {got:x?} (port {port:?}), UE's eNodeB TEID is {teid:#x}"));
            }
        }
    }
    Ok(())
}

/// A traced run replays classify and key extraction on one burst in this
/// many, which keeps the replays' clock reads off most small polls.
const REPLAY_EVERY: u64 = 4;

/// Buffers reused from burst to burst.
#[derive(Default)]
pub struct BurstBuffers {
    expect: Vec<Expect>,
    bursts: u64,
}

/// Run one burst through the node and check every verdict. Returns the
/// instant the verdicts were back and the service time in nanoseconds;
/// `forwarded` gets one flag per packet. Forwarded buffers go back to
/// `gen`'s pool.
#[allow(clippy::too_many_arguments)]
pub fn run_burst(
    node: &mut PepcNode,
    burst: Vec<Mbuf>,
    dl: &DlTable,
    tally: &mut Tally,
    sync: &mut SyncSchedule,
    bufs: &mut BurstBuffers,
    gen: &mut TrafficGen,
    tr: &mut Tracer,
    forwarded: &mut Vec<bool>,
) -> Result<(Instant, u64), String> {
    let n = burst.len();
    bufs.expect.clear();
    for m in &burst {
        bufs.expect.push(expect_of(m, dl)?);
    }
    let sync_due = sync.commit(n, tr.on);
    bufs.bursts += 1;
    if tr.on && bufs.bursts.is_multiple_of(REPLAY_EVERY) {
        let t = Instant::now();
        for m in &burst {
            black_box(classify_fast(black_box(m.data())));
        }
        tr.add(Span::ClassifyReplay, t.elapsed().as_nanos() as u64, n as u64);
        let t = Instant::now();
        for m in &burst {
            black_box(packet_key(black_box(m)));
        }
        tr.add(Span::DemuxReplay, t.elapsed().as_nanos() as u64, n as u64);
    }
    if tr.on && sync_due {
        tr.time(Span::Sync, || node.slice(0).sync_now());
    }
    let t0 = Instant::now();
    let verdicts = node.process_burst(burst);
    let t1 = Instant::now();
    let service_ns = t1.duration_since(t0).as_nanos() as u64;
    if tr.on {
        tr.add(Span::ProcessBurst, service_ns, 1);
    }
    if verdicts.len() != n {
        return Err(format!("process_burst returned {} verdicts for {n} packets", verdicts.len()));
    }
    tally.offered += n as u64;
    forwarded.clear();
    for (v, want) in verdicts.into_iter().zip(&bufs.expect) {
        forwarded.push(matches!(v, NodeVerdict::Forward(_)));
        match v {
            NodeVerdict::Forward(m) => {
                check_forwarded(&m, *want)?;
                tally.forwarded += 1;
                gen.recycle(m);
            }
            NodeVerdict::Drop => tally.dropped += 1,
            NodeVerdict::Buffered => tally.buffered += 1,
            NodeVerdict::Parked => tally.parked += 1,
        }
    }
    Ok((t1, service_ns))
}
