//! Set-up and measurement loops of the three workloads, all on one
//! thread against one inline `PepcNode` (1 slice, live HSS/PCRF).

use crate::datapath::{run_burst, BurstBuffers, DlTable, SyncSchedule, Tally};
use crate::enb::{Enb, Ue, ENB_IP};
use crate::trace::{Span, Tracer};
use pepc::config::{EpcConfig, SliceConfig};
use pepc::ctrl::CtrlEvent;
use pepc::node::PepcNode;
use pepc_backend::{Hss, Pcrf};
use pepc_net::Mbuf;
use pepc_workload::traffic::UserKeys;
use pepc_workload::{Defaults, TrafficGen};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Packets per `process_burst` call in the closed loop (and the most an
/// open-loop burst collects).
pub const BURST: usize = 32;
/// Open-loop packet rate of `mixed_10k`, packets per second. The closed
/// loop reaches about 1 Mpps at 10K users on a 2-core x86-64 host, but
/// open-loop polls carry one or two packets and cost about 2 µs each, so
/// at half that rate the loop runs near saturation and its tail swings
/// between runs. At 0.1 Mpps the thread is busy about a fifth of the time.
pub const MIXED_RATE_PPS: f64 = 100_000.0;
/// `mixed_10k` interleaves one procedure per this many packets.
pub const PACKETS_PER_PROC: u64 = 1000;
/// Kinds of procedure-mix step, drawn with equal odds: an attach-new +
/// detach-oldest pair, an S1 handover, an idle round trip. Equal odds are
/// an assumption: no per-procedure breakdown of MME traffic is at hand.
const STEP_KINDS: u64 = 3;
/// Fresh subscribers are provisioned in the HSS this many at a time, as
/// the attach/detach churn uses them up.
const FRESH_BLOCK: u64 = 4096;
/// `mixed_10k` sends data to 9 users in 10; the other tenth is the
/// attach/detach churn pool.
const CHURN_POOL_DIVISOR: usize = 10;
/// Never-attached subscribers kept for the traced run's proxy replays.
const REPLAY_IMSIS: u64 = 1024;
/// Seconds of traffic or signaling run after set-up, before measuring.
const WARMUP_SECS: f64 = 0.2;
/// `data_1m` set-up syncs the slice once per this many attaches.
const SETUP_SYNC_EVERY: usize = 1024;
/// First downlink tunnel id the eNodeB hands out.
const FIRST_ENB_TEID: u32 = 0x00E0_0001;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Data1m,
    Sig10k,
    Mixed10k,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Data1m, Workload::Sig10k, Workload::Mixed10k];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Data1m => "data_1m",
            Workload::Sig10k => "sig_10k",
            Workload::Mixed10k => "mixed_10k",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn default_users(self) -> usize {
        match self {
            Workload::Data1m => 1_000_000,
            Workload::Sig10k | Workload::Mixed10k => 10_000,
        }
    }
}

/// splitmix64: the benchmark's own seeded generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Attached UEs the signaling mix works on: `resident` ones carry data
/// (in `mixed_10k`), `churn` is the attach-new / detach-oldest FIFO.
#[derive(Default)]
struct Population {
    resident: Vec<Ue>,
    churn: VecDeque<Ue>,
}

impl Population {
    fn len(&self) -> usize {
        self.resident.len() + self.churn.len()
    }

    fn get_mut(&mut self, i: usize) -> &mut Ue {
        let r = self.resident.len();
        if i < r {
            &mut self.resident[i]
        } else {
            &mut self.churn[i - r]
        }
    }
}

/// A built node with its population, ready to measure.
pub struct Bench {
    workload: Workload,
    pub node: PepcNode,
    gen: Option<TrafficGen>,
    dl: DlTable,
    enb: Option<Enb>,
    pop: Population,
    hss: Arc<Hss>,
    /// Next never-attached IMSI for the churn, and the end of the
    /// provisioned range it is drawn from. A detached IMSI is not reused.
    next_imsi: u64,
    provisioned_end: u64,
    replay_base: u64,
    replay_next: u64,
    rng: Rng,
    /// `mixed_10k` state carried from one measured window to the next:
    /// packets left before the next procedure, and new UEs' first uplinks
    /// not yet sent, with when their attach started.
    until_proc: u64,
    probes: Vec<(Mbuf, Instant)>,
}

/// What one measurement phase did.
#[derive(Debug, Default)]
pub struct Phase {
    pub wall_ns: u64,
    /// Wall time minus the open-loop generator's idle waits.
    pub busy_ns: u64,
    /// Completed operations: packets (data_1m, mixed_10k) or procedures
    /// (sig_10k).
    pub ops: u64,
    /// Latency of each operation's unit, ns: burst service time
    /// (data_1m), attach (sig_10k), packet due → verdict (mixed_10k).
    pub lat: Vec<u64>,
    pub tally: Tally,
    /// Packets the traffic generator produced.
    pub generated: u64,
    /// Packets handed over in bursts of two or more (the ones the slice's
    /// stage timing covers).
    pub staged_pkts: u64,
    /// Procedures completed, counted as the control plane counts them.
    pub procs: u64,
    /// Attach start → that UE's first uplink forwarded, ns.
    pub ready: Vec<u64>,
    /// Open loop: how late the generator produced each burst, ns.
    pub lag: Vec<u64>,
    /// Per-procedure latencies, ns.
    pub attach: Vec<u64>,
    pub detach: Vec<u64>,
    pub handover: Vec<u64>,
    pub service: Vec<u64>,
    /// S1AP PDUs and SCTP packets carried.
    pub pdus: u64,
    pub sctp_packets: u64,
}

/// The IMSI block for a seed: each seed gets its own 10M-wide block.
fn imsi_block(seed: u64) -> u64 {
    let mut r = Rng::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
    Defaults::IMSI_BASE + r.below(4096) * 10_000_000
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn secs_to_ns(secs: f64) -> u64 {
    (secs * 1e9) as u64
}

/// The first uplink a freshly attached UE sends (Table 2 uplink shape).
fn first_uplink(ue: &Ue) -> Mbuf {
    TrafficGen::new(vec![UserKeys { teid: ue.gw_teid, ue_ip: ue.ue_ip }]).next_packet(0)
}

/// Replay the three proxy exchanges an attach makes, on a never-attached
/// IMSI, timing each (traced runs only).
fn replay_proxy(node: &PepcNode, imsi: u64, request_id: u32, tr: &mut Tracer) -> Result<(), String> {
    let proxy = node.proxy().ok_or("node has no proxy")?;
    tr.time(Span::AuthInfoReplay, || proxy.authentication_info(imsi)).map_err(|e| format!("proxy replay: {e:?}"))?;
    tr.time(Span::UpdateLocationReplay, || proxy.update_location(imsi)).map_err(|e| format!("proxy replay: {e:?}"))?;
    tr.time(Span::FetchRulesReplay, || proxy.fetch_rules(request_id, imsi))
        .map_err(|e| format!("proxy replay: {e:?}"))?;
    Ok(())
}

impl Bench {
    /// Build the node, attach the population and warm up.
    pub fn setup(workload: Workload, seed: u64, users: usize) -> Result<Bench, String> {
        let users = users.max(2);
        let mut rng = Rng::new(seed);
        let block = imsi_block(seed);
        let replay_base = block + 9_000_000;
        let hss = Arc::new(Hss::new());
        hss.provision_range(replay_base, REPLAY_IMSIS, 100_000);
        let signaling = workload != Workload::Data1m;
        if signaling {
            hss.provision_range(block, users as u64, 100_000);
        }
        let config = EpcConfig {
            slices: 1,
            slice: SliceConfig { expected_users: users, ..SliceConfig::default() },
            ..EpcConfig::default()
        };
        let dl = DlTable::new(config.ue_ip_base);
        let node = PepcNode::new(config, Some((hss.clone(), Arc::new(Pcrf::with_standard_rules()))));
        let mut b = Bench {
            workload,
            node,
            gen: None,
            dl,
            enb: None,
            pop: Population::default(),
            hss,
            next_imsi: block + users as u64,
            provisioned_end: block + users as u64,
            replay_base,
            replay_next: 0,
            rng: Rng::new(rng.next_u64()),
            until_proc: PACKETS_PER_PROC,
            probes: Vec::new(),
        };
        let mut keys = if signaling { b.attach_over_s1ap(block, users)? } else { b.attach_synthetic(block, users)? };
        if !keys.is_empty() {
            rng.shuffle(&mut keys);
            b.gen = Some(TrafficGen::new(keys));
        }
        b.node.slice(0).sync_now();
        b.measure(WARMUP_SECS, &mut Tracer::new(false))?;
        Ok(b)
    }

    /// `PepcNode::attach` for every user, then a handover event giving
    /// each a downlink tunnel. Returns the data-plane keys.
    fn attach_synthetic(&mut self, block: u64, users: usize) -> Result<Vec<UserKeys>, String> {
        let mut keys = Vec::with_capacity(users);
        for i in 0..users {
            let imsi = block + i as u64;
            self.node.attach(imsi);
            let (gw_teid, ue_ip) = {
                let ctx = self.node.slice(0).ctrl.context_of(imsi).ok_or("attached user has no context")?;
                let c = ctx.ctrl_read();
                (c.tunnels.gw_teid, c.ue_ip)
            };
            let enb_teid = FIRST_ENB_TEID.wrapping_add(i as u32);
            if !self.node.ctrl_event(CtrlEvent::S1Handover { imsi, new_enb_teid: enb_teid, new_enb_ip: ENB_IP }) {
                return Err(format!("handover event for attached IMSI {imsi} refused"));
            }
            self.dl.set(ue_ip, enb_teid);
            keys.push(UserKeys { teid: gw_teid, ue_ip });
            // An idle data thread applies the attach flood as it comes.
            if i % SETUP_SYNC_EVERY == SETUP_SYNC_EVERY - 1 {
                self.node.slice(0).sync_now();
            }
        }
        Ok(keys)
    }

    /// Attach every user over S1AP. Returns the data-plane keys of the
    /// users that carry data (`mixed_10k` only).
    fn attach_over_s1ap(&mut self, block: u64, users: usize) -> Result<Vec<UserKeys>, String> {
        let mut enb = Enb::new(FIRST_ENB_TEID)?;
        let mut off = Tracer::new(false);
        let resident = match self.workload {
            Workload::Mixed10k => users - (users / CHURN_POOL_DIVISOR).max(1),
            _ => 0,
        };
        for i in 0..users {
            let ue = enb.attach(&mut self.node, block + i as u64, &mut off)?;
            // With no packets flowing, an idle data thread applies each
            // update as it arrives.
            self.node.slice(0).sync_now();
            self.dl.set(ue.ue_ip, ue.enb_teid);
            if i < resident {
                self.pop.resident.push(ue);
            } else {
                self.pop.churn.push_back(ue);
            }
        }
        enb.latency.clear();
        self.enb = Some(enb);
        Ok(self.pop.resident.iter().map(|u| UserKeys { teid: u.gw_teid, ue_ip: u.ue_ip }).collect())
    }

    /// Run the workload for `secs` seconds.
    pub fn measure(&mut self, secs: f64, tr: &mut Tracer) -> Result<Phase, String> {
        let mut ph = match self.workload {
            Workload::Data1m => self.data_phase(secs, tr)?,
            Workload::Sig10k => self.sig_phase(secs, tr)?,
            Workload::Mixed10k => self.mixed_phase(secs, tr)?,
        };
        if let Some(enb) = self.enb.as_mut() {
            let l = std::mem::take(&mut enb.latency);
            ph.attach = l.attach;
            ph.detach = l.detach;
            ph.handover = l.handover;
            ph.service = l.service;
        }
        Ok(ph)
    }

    /// A never-attached IMSI, provisioning the next block when the
    /// provisioned ones are used up.
    fn fresh_imsi(&mut self) -> Result<u64, String> {
        if self.next_imsi == self.provisioned_end {
            let n = FRESH_BLOCK.min(self.replay_base - self.provisioned_end);
            if n == 0 {
                return Err("the seed's IMSI block is used up".into());
            }
            self.hss.provision_range(self.provisioned_end, n, 100_000);
            self.provisioned_end += n;
        }
        self.next_imsi += 1;
        Ok(self.next_imsi - 1)
    }

    /// One step of the procedure mix. An attach-new + detach-oldest pair
    /// returns the new UE and when its attach started.
    fn step(&mut self, tr: &mut Tracer, ph: &mut Phase) -> Result<Option<(Ue, Instant)>, String> {
        let kind = self.rng.below(STEP_KINDS);
        let imsi = if kind == 0 { self.fresh_imsi()? } else { 0 };
        let enb = self.enb.as_mut().ok_or("signaling workload without an eNodeB")?;
        let (p0, s0) = (enb.pdus, enb.sctp_packets);
        let fresh = if kind == 0 {
            let t0 = Instant::now();
            let ue = enb.attach(&mut self.node, imsi, tr)?;
            if tr.on {
                let replay = self.replay_base + self.replay_next % REPLAY_IMSIS;
                self.replay_next += 1;
                replay_proxy(&self.node, replay, self.replay_next as u32, tr)?;
            }
            self.dl.set(ue.ue_ip, ue.enb_teid);
            self.pop.churn.push_back(ue);
            let old = self.pop.churn.pop_front().expect("churn pool holds the UE just pushed");
            enb.detach(&mut self.node, &old, tr)?;
            ph.procs += 2;
            Some((ue, t0))
        } else {
            let i = self.rng.below(self.pop.len() as u64) as usize;
            let ue = self.pop.get_mut(i);
            if kind == 1 {
                enb.handover(&mut self.node, ue, tr)?;
                self.dl.set(ue.ue_ip, ue.enb_teid);
                ph.procs += 1;
            } else {
                // Release and Service Request are one procedure each.
                enb.idle_cycle(&mut self.node, ue, tr)?;
                ph.procs += 2;
            }
            None
        };
        ph.pdus += enb.pdus - p0;
        ph.sctp_packets += enb.sctp_packets - s0;
        Ok(fresh)
    }

    /// data_1m: closed loop, 32-packet bursts, no signaling.
    fn data_phase(&mut self, secs: f64, tr: &mut Tracer) -> Result<Phase, String> {
        let gen = self.gen.as_mut().ok_or("data workload without a traffic generator")?;
        self.node.slice(0).sync_now();
        let mut sync = SyncSchedule::new(&self.node);
        let mut bufs = BurstBuffers::default();
        let mut fwd = Vec::with_capacity(BURST);
        let mut ph = Phase::default();
        let dur = secs_to_ns(secs);
        let start = Instant::now();
        loop {
            let mut burst = Vec::with_capacity(BURST);
            tr.time(Span::Traffic, || {
                for _ in 0..BURST {
                    burst.push(gen.next_packet(0));
                }
            });
            ph.generated += BURST as u64;
            ph.staged_pkts += BURST as u64;
            let (t1, service_ns) =
                run_burst(&mut self.node, burst, &self.dl, &mut ph.tally, &mut sync, &mut bufs, gen, tr, &mut fwd)?;
            ph.lat.push(service_ns);
            if t1.duration_since(start).as_nanos() as u64 >= dur {
                break;
            }
        }
        ph.wall_ns = ns_since(start);
        ph.busy_ns = ph.wall_ns;
        ph.ops = ph.tally.offered;
        Ok(ph)
    }

    /// sig_10k: closed-loop procedure mix, no data. The slice syncs after
    /// each step, as its idle data thread would. The operation is a
    /// procedure; its latency is that of the attaches.
    fn sig_phase(&mut self, secs: f64, tr: &mut Tracer) -> Result<Phase, String> {
        let mut ph = Phase::default();
        let dur = secs_to_ns(secs);
        let start = Instant::now();
        while ns_since(start) < dur {
            self.step(tr, &mut ph)?;
            tr.time(Span::Sync, || self.node.slice(0).sync_now());
        }
        ph.wall_ns = ns_since(start);
        ph.busy_ns = ph.wall_ns;
        let l = &self.enb.as_ref().expect("signaling workload has an eNodeB").latency;
        ph.ops = (l.attach.len() + l.detach.len() + l.handover.len() + l.service.len()) as u64;
        ph.lat = l.attach.clone();
        Ok(ph)
    }

    /// mixed_10k: open-loop data at `MIXED_RATE_PPS`, one procedure of the
    /// sig_10k mix per `PACKETS_PER_PROC` packets, all on this thread.
    fn mixed_phase(&mut self, secs: f64, tr: &mut Tracer) -> Result<Phase, String> {
        self.node.slice(0).sync_now();
        let mut sync = SyncSchedule::new(&self.node);
        let mut bufs = BurstBuffers::default();
        let mut fwd = Vec::with_capacity(2 * BURST);
        let mut ph = Phase::default();
        let period = 1e9 / MIXED_RATE_PPS;
        let due_of = |k: u64| (k as f64 * period) as u64;
        let mut scheduled = 0u64;
        let mut next_proc = self.until_proc;
        let mut idle_ns = 0u64;
        let mut probes = std::mem::take(&mut self.probes);
        let mut probe_starts: Vec<Instant> = Vec::new();
        let mut dues: Vec<u64> = Vec::with_capacity(BURST);
        let dur = secs_to_ns(secs);
        let start = Instant::now();
        loop {
            let now = ns_since(start);
            if now >= dur {
                break;
            }
            if scheduled >= next_proc {
                let before = ph.procs;
                if let Some((ue, t0)) = self.step(tr, &mut ph)? {
                    probes.push((first_uplink(&ue), t0));
                }
                next_proc += PACKETS_PER_PROC * (ph.procs - before);
                continue;
            }
            let due_count = (now as f64 / period) as u64 + 1;
            if scheduled >= due_count {
                // Ahead of schedule: wait for the next packet's due time.
                let next_due = due_of(scheduled);
                let t = Instant::now();
                while ns_since(start) < next_due {
                    std::hint::spin_loop();
                }
                idle_ns += ns_since(t);
                continue;
            }
            let n = (due_count - scheduled).min(BURST as u64).min(next_proc - scheduled) as usize;
            let gen = self.gen.as_mut().ok_or("mixed workload without a traffic generator")?;
            let mut burst = Vec::with_capacity(n + probes.len());
            dues.clear();
            tr.time(Span::Traffic, || {
                for k in 0..n as u64 {
                    let due = due_of(scheduled + k);
                    dues.push(due);
                    burst.push(gen.next_packet(due));
                }
            });
            scheduled += n as u64;
            ph.generated += n as u64;
            ph.lag.push(now.saturating_sub(dues[0]));
            // A new UE's first uplink rides the first burst the slice
            // syncs before, i.e. once its Insert has reached the data plane.
            probe_starts.clear();
            if !probes.is_empty() && sync.peek(n + probes.len()) {
                for (m, t0) in probes.drain(..) {
                    burst.push(m);
                    probe_starts.push(t0);
                }
            }
            if burst.len() >= 2 {
                ph.staged_pkts += burst.len() as u64;
            }
            let (t1, _) =
                run_burst(&mut self.node, burst, &self.dl, &mut ph.tally, &mut sync, &mut bufs, gen, tr, &mut fwd)?;
            let done = t1.duration_since(start).as_nanos() as u64;
            for (k, due) in dues.iter().enumerate() {
                // A packet that was not forwarded misses every latency limit.
                ph.lat.push(if fwd[k] { done.saturating_sub(*due) } else { u64::MAX });
            }
            for (j, t0) in probe_starts.iter().enumerate() {
                ph.ready.push(if fwd[n + j] { t1.duration_since(*t0).as_nanos() as u64 } else { u64::MAX });
            }
        }
        ph.wall_ns = ns_since(start);
        ph.busy_ns = ph.wall_ns - idle_ns;
        ph.ops = scheduled;
        self.until_proc = next_proc - scheduled;
        self.probes = probes;
        Ok(ph)
    }

    /// Correctness checks after a phase; any breach is an error.
    pub fn audit(&mut self, ph: &Phase, before: &pepc::MetricsSnapshot) -> Result<(), String> {
        let t = ph.tally;
        if t.offered != t.forwarded + t.dropped + t.buffered + t.parked {
            return Err(format!("verdicts do not add up: {t:?}"));
        }
        let after = self.node.metrics_snapshot();
        if !after.conservation_holds() {
            return Err("packet conservation identity broken".into());
        }
        let forwarded = after.data_totals().forwarded - before.data_totals().forwarded;
        if forwarded != t.forwarded {
            return Err(format!("node counted {forwarded} forwarded, verdicts say {}", t.forwarded));
        }
        let s = &after.slices[0];
        let ctrl = &self.node.slice_ref(0).ctrl;
        let in_flight = ctrl.procedures_in_flight();
        if !s.ctrl.signaling_conservation_holds(s.mailbox_backlog) {
            return Err("signaling conservation identity broken".into());
        }
        if !s.ctrl.procedure_accounting_holds(in_flight) {
            return Err("procedure accounting identity broken".into());
        }
        if !s.ctrl.paging_accounting_holds(ctrl.paging_in_flight()) {
            return Err("paging accounting identity broken".into());
        }
        if in_flight != 0 || s.mailbox_backlog != 0 {
            return Err(format!(
                "{in_flight} procedures in flight and {} messages parked after a closed-loop phase",
                s.mailbox_backlog
            ));
        }
        let completed = s.ctrl.proc_completed - before.slices[0].ctrl.proc_completed;
        if completed != ph.procs {
            return Err(format!("control plane completed {completed} procedures, the eNodeB saw {}", ph.procs));
        }
        Ok(())
    }
}
