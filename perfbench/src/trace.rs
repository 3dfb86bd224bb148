//! Spans taken from the benchmark's own calls into each layer.
//!
//! A span is the wall time of one call (or one batch of calls) into a
//! layer's public function. The tracer is off in untraced runs: `time`
//! then calls straight through with no clock read, so end-to-end numbers
//! carry no tracing cost.

use std::time::Instant;

/// Control-plane legs, one per S1AP PDU kind the eNodeB sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    AttachReq,
    AuthRsp,
    SmcComplete,
    IcsRsp,
    AttachComplete,
    HoRequired,
    HoAck,
    Release,
    ServiceReq,
    Detach,
}

impl Leg {
    pub const ALL: [Leg; 10] = [
        Leg::AttachReq,
        Leg::AuthRsp,
        Leg::SmcComplete,
        Leg::IcsRsp,
        Leg::AttachComplete,
        Leg::HoRequired,
        Leg::HoAck,
        Leg::Release,
        Leg::ServiceReq,
        Leg::Detach,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Leg::AttachReq => "attach_req",
            Leg::AuthRsp => "auth_rsp",
            Leg::SmcComplete => "smc_complete",
            Leg::IcsRsp => "ics_rsp",
            Leg::AttachComplete => "attach_complete",
            Leg::HoRequired => "ho_required",
            Leg::HoAck => "ho_ack",
            Leg::Release => "release",
            Leg::ServiceReq => "service_req",
            Leg::Detach => "detach",
        }
    }
}

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `TrafficGen::next_packet`, one span per burst.
    Traffic,
    /// `PepcNode::process_burst`.
    ProcessBurst,
    /// `Slice::sync_now`, called where the slice would sync anyway.
    Sync,
    /// SCTP `Association` send / handle / outbound and `SctpPacket` codec.
    Sctp,
    /// `S1apPdu` encode / decode.
    S1ap,
    /// `NasMsg` encode / decode.
    Nas,
    /// `PepcNode::handle_s1ap`, per leg.
    Leg(Leg),
    /// Replay of `classify_fast` on the burst's input bytes.
    ClassifyReplay,
    /// Replay of `demux::packet_key` on the burst's input packets.
    DemuxReplay,
    /// Replays of the three `Proxy` exchanges on never-attached IMSIs.
    AuthInfoReplay,
    UpdateLocationReplay,
    FetchRulesReplay,
}

const SPANS: usize = 21;

impl Span {
    fn index(self) -> usize {
        match self {
            Span::Traffic => 0,
            Span::ProcessBurst => 1,
            Span::Sync => 2,
            Span::Sctp => 3,
            Span::S1ap => 4,
            Span::Nas => 5,
            Span::ClassifyReplay => 6,
            Span::DemuxReplay => 7,
            Span::AuthInfoReplay => 8,
            Span::UpdateLocationReplay => 9,
            Span::FetchRulesReplay => 10,
            Span::Leg(l) => 11 + l as usize,
        }
    }
}

/// Total time and call count of one span kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acc {
    pub ns: u64,
    pub calls: u64,
}

impl Acc {
    /// Mean nanoseconds per `per` units (0 when there were none).
    pub fn ns_per(&self, per: u64) -> f64 {
        if per == 0 {
            0.0
        } else {
            self.ns as f64 / per as f64
        }
    }
}

pub struct Tracer {
    pub on: bool,
    acc: [Acc; SPANS],
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, acc: [Acc::default(); SPANS] }
    }

    /// Run `f`, adding its wall time to `span` when tracing is on.
    #[inline]
    pub fn time<R>(&mut self, span: Span, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.add(span, t.elapsed().as_nanos() as u64, 1);
        r
    }

    pub fn add(&mut self, span: Span, ns: u64, calls: u64) {
        let a = &mut self.acc[span.index()];
        a.ns += ns;
        a.calls += calls;
    }

    pub fn get(&self, span: Span) -> Acc {
        self.acc[span.index()]
    }

    /// Time spent in replays: measurement-only work the untraced run
    /// never does, so the ledger leaves it out of the end-to-end total.
    pub fn replay_ns(&self) -> u64 {
        [
            Span::ClassifyReplay,
            Span::DemuxReplay,
            Span::AuthInfoReplay,
            Span::UpdateLocationReplay,
            Span::FetchRulesReplay,
        ]
        .iter()
        .map(|s| self.get(*s).ns)
        .sum()
    }
}
