//! A closed-loop eNodeB (and its UEs) talking S1AP to one `PepcNode`
//! over an in-process SCTP-lite association pair.
//!
//! The MME end of the association lives here too: every PDU is encoded,
//! chunked, serialized and parsed in both directions exactly as on a
//! wire, and only the decoded PDU is handed to `PepcNode::handle_s1ap`.
//! Every procedure step checks that the node answered with the PDU the
//! protocol requires; anything else is a correctness failure.

use crate::trace::{Leg, Span, Tracer};
use pepc::node::PepcNode;
use pepc_backend::hss::sim_response;
use pepc_backend::Hss;
use pepc_sigproto::nas::{cause, NasMsg};
use pepc_sigproto::sctp::SctpEvent;
use pepc_sigproto::{Association, S1apPdu, SctpPacket};
use std::time::Instant;

/// The eNodeB's S1-U address (downlink tunnels end here).
pub const ENB_IP: u32 = pepc_workload::Defaults::ENB_IP;
const ECGI: u32 = 0x100;
const TAC: u16 = 1;
const S1AP_STREAM: u16 = 1;

/// One attached UE as the eNodeB knows it.
#[derive(Debug, Clone, Copy)]
pub struct Ue {
    pub imsi: u64,
    pub guti: u64,
    pub enb_ue_id: u32,
    pub mme_ue_id: u32,
    pub gw_teid: u32,
    pub ue_ip: u32,
    pub enb_teid: u32,
}

/// Per-procedure latencies in nanoseconds, first PDU sent to last reply.
#[derive(Debug, Default)]
pub struct ProcLatency {
    pub attach: Vec<u64>,
    pub detach: Vec<u64>,
    pub handover: Vec<u64>,
    /// Release request → Service Accept (the idle round trip).
    pub service: Vec<u64>,
}

impl ProcLatency {
    pub fn clear(&mut self) {
        *self = ProcLatency::default();
    }
}

pub struct Enb {
    enb: Association,
    mme: Association,
    next_enb_ue_id: u32,
    next_enb_teid: u32,
    /// SCTP packets exchanged, both directions.
    pub sctp_packets: u64,
    /// S1AP PDUs carried, both directions.
    pub pdus: u64,
    pub latency: ProcLatency,
}

fn unexpected(step: &str, got: &[S1apPdu]) -> String {
    format!("{step}: unexpected reply {got:?}")
}

fn nas_encode(tr: &mut Tracer, msg: &NasMsg) -> Vec<u8> {
    tr.time(Span::Nas, || msg.encode())
}

fn nas_decode(tr: &mut Tracer, step: &str, bytes: &[u8]) -> Result<NasMsg, String> {
    tr.time(Span::Nas, || NasMsg::decode(bytes)).map_err(|e| format!("{step}: NAS decode: {e:?}"))
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

impl Enb {
    /// Bring up the association (4-way handshake). `first_enb_teid` seeds
    /// the downlink tunnel ids this eNodeB hands out.
    pub fn new(first_enb_teid: u32) -> Result<Self, String> {
        let mut enb = Association::new(36412, 36412, 0xE7B0_0001, 0x5EED_0001);
        let mut mme = Association::new(36412, 36412, 0x33E0_0001, 0x5EED_0002);
        enb.connect().map_err(|e| format!("sctp connect: {e:?}"))?;
        loop {
            let up = enb.take_outbound();
            let down = mme.take_outbound();
            if up.is_empty() && down.is_empty() {
                break;
            }
            for p in up {
                mme.handle_packet(&p).map_err(|e| format!("sctp handshake: {e:?}"))?;
            }
            for p in down {
                enb.handle_packet(&p).map_err(|e| format!("sctp handshake: {e:?}"))?;
            }
        }
        Ok(Enb {
            enb,
            mme,
            next_enb_ue_id: 1,
            next_enb_teid: first_enb_teid,
            sctp_packets: 0,
            pdus: 0,
            latency: ProcLatency::default(),
        })
    }

    fn alloc_enb_teid(&mut self) -> u32 {
        let t = self.next_enb_teid;
        self.next_enb_teid = self.next_enb_teid.wrapping_add(1).max(1);
        t
    }

    /// Send one PDU eNodeB → node and return the node's replies, carrying
    /// everything over SCTP both ways.
    fn rpc(&mut self, node: &mut PepcNode, pdu: &S1apPdu, leg: Leg, tr: &mut Tracer) -> Result<Vec<S1apPdu>, String> {
        let bytes = tr.time(Span::S1ap, || pdu.encode());
        tr.time(Span::Sctp, || self.enb.send(S1AP_STREAM, bytes)).map_err(|e| format!("sctp send: {e:?}"))?;
        self.pdus += 1;
        let mut replies = Vec::new();
        loop {
            let up = tr.time(Span::Sctp, || self.enb.take_outbound());
            let down = tr.time(Span::Sctp, || self.mme.take_outbound());
            if up.is_empty() && down.is_empty() {
                break;
            }
            self.sctp_packets += (up.len() + down.len()) as u64;
            for p in up {
                let mme = &mut self.mme;
                let events = tr
                    .time(Span::Sctp, || SctpPacket::decode(&p.encode()).and_then(|wire| mme.handle_packet(&wire)))
                    .map_err(|e| format!("sctp (mme side): {e:?}"))?;
                for ev in events {
                    let SctpEvent::Delivery { payload, .. } = ev else { continue };
                    let req = tr.time(Span::S1ap, || S1apPdu::decode(&payload)).map_err(|e| format!("s1ap: {e:?}"))?;
                    let rsps = tr.time(Span::Leg(leg), || node.handle_s1ap(&req));
                    for rsp in rsps {
                        let b = tr.time(Span::S1ap, || rsp.encode());
                        tr.time(Span::Sctp, || self.mme.send(S1AP_STREAM, b))
                            .map_err(|e| format!("sctp send: {e:?}"))?;
                        self.pdus += 1;
                    }
                }
            }
            for p in down {
                let enb = &mut self.enb;
                let events = tr
                    .time(Span::Sctp, || SctpPacket::decode(&p.encode()).and_then(|wire| enb.handle_packet(&wire)))
                    .map_err(|e| format!("sctp (enb side): {e:?}"))?;
                for ev in events {
                    let SctpEvent::Delivery { payload, .. } = ev else { continue };
                    replies
                        .push(tr.time(Span::S1ap, || S1apPdu::decode(&payload)).map_err(|e| format!("s1ap: {e:?}"))?);
                }
            }
        }
        Ok(replies)
    }

    /// Full attach: Attach Request → authentication → security mode →
    /// context setup → Attach Complete. Returns the attached UE.
    pub fn attach(&mut self, node: &mut PepcNode, imsi: u64, tr: &mut Tracer) -> Result<Ue, String> {
        let t0 = Instant::now();
        let enb_ue_id = self.next_enb_ue_id;
        self.next_enb_ue_id += 1;
        let nas = nas_encode(tr, &NasMsg::AttachRequest { imsi, ue_capability: 0xF0 });
        let rsp =
            self.rpc(node, &S1apPdu::InitialUeMessage { enb_ue_id, ecgi: ECGI, tac: TAC, nas }, Leg::AttachReq, tr)?;
        let (mme_ue_id, rand) = match rsp.as_slice() {
            [S1apPdu::DownlinkNasTransport { enb_ue_id: e, mme_ue_id, nas }] if *e == enb_ue_id => {
                match nas_decode(tr, "attach request", nas)? {
                    NasMsg::AuthenticationRequest { rand, .. } => (*mme_ue_id, rand),
                    other => return Err(format!("attach request: expected AuthenticationRequest, got {other:?}")),
                }
            }
            other => return Err(unexpected("attach request", other)),
        };

        let res = sim_response(Hss::key_for(imsi), rand);
        let nas = nas_encode(tr, &NasMsg::AuthenticationResponse { res });
        let rsp = self.rpc(node, &S1apPdu::UplinkNasTransport { enb_ue_id, mme_ue_id, nas }, Leg::AuthRsp, tr)?;
        match rsp.as_slice() {
            [S1apPdu::DownlinkNasTransport { nas, .. }] => match nas_decode(tr, "auth response", nas)? {
                NasMsg::SecurityModeCommand { .. } => {}
                other => return Err(format!("auth response: expected SecurityModeCommand, got {other:?}")),
            },
            other => return Err(unexpected("auth response", other)),
        }

        let nas = nas_encode(tr, &NasMsg::SecurityModeComplete);
        let rsp = self.rpc(node, &S1apPdu::UplinkNasTransport { enb_ue_id, mme_ue_id, nas }, Leg::SmcComplete, tr)?;
        let (gw_teid, guti, ue_ip) = match rsp.as_slice() {
            [S1apPdu::InitialContextSetupRequest { enb_ue_id: e, mme_ue_id: m, gw_teid, nas, .. }]
                if *e == enb_ue_id && *m == mme_ue_id =>
            {
                match nas_decode(tr, "security mode complete", nas)? {
                    NasMsg::AttachAccept { guti, ue_ip, .. } => (*gw_teid, guti, ue_ip),
                    other => return Err(format!("security mode complete: expected AttachAccept, got {other:?}")),
                }
            }
            other => return Err(unexpected("security mode complete", other)),
        };

        let enb_teid = self.alloc_enb_teid();
        let ics = S1apPdu::InitialContextSetupResponse { enb_ue_id, mme_ue_id, enb_teid, enb_ip: ENB_IP };
        let rsp = self.rpc(node, &ics, Leg::IcsRsp, tr)?;
        if !rsp.is_empty() {
            return Err(unexpected("context setup response", &rsp));
        }

        let nas = nas_encode(tr, &NasMsg::AttachComplete);
        let rsp =
            self.rpc(node, &S1apPdu::UplinkNasTransport { enb_ue_id, mme_ue_id, nas }, Leg::AttachComplete, tr)?;
        if !rsp.is_empty() {
            return Err(unexpected("attach complete", &rsp));
        }
        self.latency.attach.push(elapsed_ns(t0));
        Ok(Ue { imsi, guti, enb_ue_id, mme_ue_id, gw_teid, ue_ip, enb_teid })
    }

    /// UE-initiated detach.
    pub fn detach(&mut self, node: &mut PepcNode, ue: &Ue, tr: &mut Tracer) -> Result<(), String> {
        let t0 = Instant::now();
        let nas = nas_encode(tr, &NasMsg::DetachRequest { guti: ue.guti });
        let pdu = S1apPdu::UplinkNasTransport { enb_ue_id: ue.enb_ue_id, mme_ue_id: ue.mme_ue_id, nas };
        let rsp = self.rpc(node, &pdu, Leg::Detach, tr)?;
        match rsp.as_slice() {
            [S1apPdu::DownlinkNasTransport { nas, .. }] => match nas_decode(tr, "detach", nas)? {
                NasMsg::DetachAccept => {}
                other => return Err(format!("detach: expected DetachAccept, got {other:?}")),
            },
            other => return Err(unexpected("detach", other)),
        }
        self.latency.detach.push(elapsed_ns(t0));
        Ok(())
    }

    /// S1 handover to a new downlink tunnel: HandoverRequired →
    /// HandoverRequest, HandoverRequestAck → HandoverCommand.
    pub fn handover(&mut self, node: &mut PepcNode, ue: &mut Ue, tr: &mut Tracer) -> Result<(), String> {
        let t0 = Instant::now();
        let pdu = S1apPdu::HandoverRequired { enb_ue_id: ue.enb_ue_id, mme_ue_id: ue.mme_ue_id, target_ecgi: ECGI + 1 };
        let rsp = self.rpc(node, &pdu, Leg::HoRequired, tr)?;
        match rsp.as_slice() {
            [S1apPdu::HandoverRequest { mme_ue_id, gw_teid, .. }]
                if *mme_ue_id == ue.mme_ue_id && *gw_teid == ue.gw_teid => {}
            other => return Err(unexpected("handover required", other)),
        }
        let new_enb_teid = self.alloc_enb_teid();
        let ack = S1apPdu::HandoverRequestAck { mme_ue_id: ue.mme_ue_id, new_enb_teid, new_enb_ip: ENB_IP };
        let rsp = self.rpc(node, &ack, Leg::HoAck, tr)?;
        match rsp.as_slice() {
            [S1apPdu::HandoverCommand { enb_ue_id, mme_ue_id }]
                if *enb_ue_id == ue.enb_ue_id && *mme_ue_id == ue.mme_ue_id => {}
            other => return Err(unexpected("handover request ack", other)),
        }
        ue.enb_teid = new_enb_teid;
        self.latency.handover.push(elapsed_ns(t0));
        Ok(())
    }

    /// Idle round trip: S1 release (request, command, complete), then a
    /// Service Request answered by a Service Accept.
    pub fn idle_cycle(&mut self, node: &mut PepcNode, ue: &mut Ue, tr: &mut Tracer) -> Result<(), String> {
        let t0 = Instant::now();
        let (enb_ue_id, mme_ue_id) = (ue.enb_ue_id, ue.mme_ue_id);
        let req = S1apPdu::UeContextReleaseRequest { enb_ue_id, mme_ue_id, cause: cause::SUCCESS };
        let rsp = self.rpc(node, &req, Leg::Release, tr)?;
        match rsp.as_slice() {
            [S1apPdu::UeContextReleaseCommand { enb_ue_id: e, .. }] if *e == enb_ue_id => {}
            other => return Err(unexpected("release request", other)),
        }
        let rsp = self.rpc(node, &S1apPdu::UeContextReleaseComplete { enb_ue_id, mme_ue_id }, Leg::Release, tr)?;
        if !rsp.is_empty() {
            return Err(unexpected("release complete", &rsp));
        }
        let nas = nas_encode(tr, &NasMsg::ServiceRequest { guti: ue.guti });
        let sr = S1apPdu::InitialUeMessage { enb_ue_id, ecgi: ECGI, tac: TAC, nas };
        let rsp = self.rpc(node, &sr, Leg::ServiceReq, tr)?;
        let new_mme_ue_id = match rsp.as_slice() {
            [S1apPdu::DownlinkNasTransport { enb_ue_id: e, mme_ue_id, nas }] if *e == enb_ue_id => {
                match nas_decode(tr, "service request", nas)? {
                    NasMsg::ServiceAccept => *mme_ue_id,
                    other => return Err(format!("service request: expected ServiceAccept, got {other:?}")),
                }
            }
            other => return Err(unexpected("service request", other)),
        };
        ue.mme_ue_id = new_mme_ue_id;
        self.latency.service.push(elapsed_ns(t0));
        Ok(())
    }
}
