//! Per-layer metrics and the time ledger of a traced run.
//!
//! Self time comes from three sources: spans around the benchmark's
//! calls into a layer, the slice's own stage-timing histograms (parse,
//! lookup, enforce), and replays of public functions on copies of the
//! same inputs (classify, demux key extraction, proxy exchanges). A
//! replayed layer runs inside another layer's span, so its estimate is
//! taken out of that parent's self time. Whatever the layers do not
//! cover is the unattributed leftover.

use crate::stats::{pct_us, ratio};
use crate::trace::{Leg, Span, Tracer};
use crate::workload::{Bench, Phase};
use crate::Metric;
use pepc::twolevel::TwoLevelStats;
use pepc::MetricsSnapshot;

/// Leftover above this share of the end-to-end time is flagged.
const LEFTOVER_FLAG: f64 = 0.15;

pub struct TracedRun<'a> {
    pub bench: &'a Bench,
    /// Busy time and operations of the untraced phases, to price the tracing.
    pub plain: (u64, u64),
    pub traced: &'a Phase,
    pub tr: &'a Tracer,
    pub before: &'a MetricsSnapshot,
    pub after: &'a MetricsSnapshot,
    pub tables: (TwoLevelStats, TwoLevelStats),
}

impl TracedRun<'_> {
    /// The per-layer metrics and the ledger lines.
    pub fn layers(&self) -> (Vec<Metric>, Vec<String>) {
        let tr = self.tr;
        let ph = self.traced;
        let pkts = ph.tally.offered;
        let (b0, b1) = (&self.before.slices[0], &self.after.slices[0]);
        let (d0, d1) = (&b0.data, &b1.data);
        let (c0, c1) = (&b0.ctrl, &b1.ctrl);
        let node = &self.bench.node;
        let ns = |s: Span| tr.get(s).ns as f64;
        let per_call = |s: Span| tr.get(s).ns_per(tr.get(s).calls);

        // Stage histograms hold one per-packet sample per multi-packet
        // burst (single packets take the scalar path, which records none),
        // and only while stage timing is on (the traced phase).
        let stage = |i: usize| b1.stage_ns.get(i).map_or(0.0, |h| h.mean_ns());
        let (parse, lookup, enforce) = (stage(0), stage(1), stage(2));
        let staged = ph.staged_pkts as f64;
        let (parse_total, lookup_total, enforce_total) = (parse * staged, lookup * staged, enforce * staged);
        // Replays run on a sample of bursts: scale their per-packet cost.
        let demux_total = per_call(Span::DemuxReplay) * pkts as f64;
        let classify_total = per_call(Span::ClassifyReplay) * pkts as f64;
        let node_self = ns(Span::ProcessBurst) - demux_total - parse_total - lookup_total - enforce_total;
        let syncs = tr.get(Span::Sync).calls;
        let updates = d1.updates_applied - d0.updates_applied;
        let mut lag = ph.lag.clone();
        let proxy_total = ns(Span::AuthInfoReplay) + ns(Span::UpdateLocationReplay) + ns(Span::FetchRulesReplay);
        let legs_total: f64 = Leg::ALL.iter().map(|l| ns(Span::Leg(*l))).sum();
        let proc_count = ph.procs;
        let drop = |a: u64, b: u64| (b - a) as f64;

        let mut m = vec![
            Metric::new("traffic.gen_ns_per_pkt", ratio(ns(Span::Traffic), ph.generated as f64), "ns", ph.generated),
            Metric::new("traffic.gen_lag_p99_us", pct_us(&mut lag, 0.99), "us", lag.len() as u64),
            Metric::new("demux.steer_ns_per_pkt", per_call(Span::DemuxReplay), "ns", tr.get(Span::DemuxReplay).calls),
            Metric::new(
                "demux.stale_maps",
                node.demux().user_count().saturating_sub(node.user_count()) as f64,
                "count",
                0,
            ),
            Metric::new("demux.parked", (node.demux().parked_count() as u64 + ph.tally.parked) as f64, "count", 0),
            Metric::new("node.burst_self_ns_per_pkt", ratio(node_self, pkts as f64), "ns", pkts),
            Metric::new("slice.syncs", syncs as f64, "count", 0),
            Metric::new("slice.sync_ns", per_call(Span::Sync), "ns", syncs),
            Metric::new("slice.updates_per_sync", ratio(updates as f64, syncs as f64), "count", syncs),
            Metric::new(
                "slice.update_delay_p99_us",
                b1.update_delay_ns.quantile_ns(0.99) as f64 / 1000.0,
                "us",
                b1.update_delay_ns.count(),
            ),
            Metric::new("data.parse_ns_per_pkt", parse, "ns", b1.stage_ns.first().map_or(0, |h| h.count())),
            Metric::new("data.lookup_ns_per_pkt", lookup, "ns", b1.stage_ns.get(1).map_or(0, |h| h.count())),
            Metric::new("data.enforce_ns_per_pkt", enforce, "ns", b1.stage_ns.get(2).map_or(0, |h| h.count())),
            Metric::new("data.drop.unknown_user", drop(d0.drop_unknown_user, d1.drop_unknown_user), "count", 0),
            Metric::new("data.drop.gate", drop(d0.drop_gate, d1.drop_gate), "count", 0),
            Metric::new("data.drop.qos", drop(d0.drop_qos, d1.drop_qos), "count", 0),
            Metric::new("data.drop.malformed", drop(d0.drop_malformed, d1.drop_malformed), "count", 0),
            Metric::new("data.drop.failover", drop(d0.drop_failover, d1.drop_failover), "count", 0),
            Metric::new("data.drop.idle_overflow", drop(d0.drop_idle_overflow, d1.drop_idle_overflow), "count", 0),
            Metric::new("data.drop.idle_expired", drop(d0.drop_idle_expired, d1.drop_idle_expired), "count", 0),
            Metric::new("data.drop.idle_uplink", drop(d0.drop_idle_uplink, d1.drop_idle_uplink), "count", 0),
            Metric::new("data.buffered", ph.tally.buffered as f64, "count", 0),
            Metric::new("data.woken", drop(d0.forwarded_on_wake, d1.forwarded_on_wake), "count", 0),
            Metric::new(
                "classify.ns_per_pkt",
                per_call(Span::ClassifyReplay),
                "ns",
                tr.get(Span::ClassifyReplay).calls,
            ),
            Metric::new(
                "twolevel.primary_hits",
                (self.tables.1.primary_hits - self.tables.0.primary_hits) as f64,
                "count",
                0,
            ),
            Metric::new(
                "twolevel.secondary_hits",
                (self.tables.1.promotions - self.tables.0.promotions) as f64,
                "count",
                0,
            ),
            Metric::new("twolevel.table_bytes", b1.table_bytes as f64, "bytes", 0),
            Metric::new("slab.bytes_per_user", b1.bytes_per_user as f64, "bytes", 0),
            Metric::new("slab.live_slots", b1.live_slots as f64, "count", 0),
            Metric::new("sctp.ns_per_msg", ratio(ns(Span::Sctp), ph.pdus as f64), "ns", ph.pdus),
            Metric::new("sctp.packets_per_proc", ratio(ph.sctp_packets as f64, proc_count as f64), "count", proc_count),
            Metric::new("s1ap.codec_ns_per_pdu", per_call(Span::S1ap), "ns", tr.get(Span::S1ap).calls),
            Metric::new("nas.codec_ns_per_msg", per_call(Span::Nas), "ns", tr.get(Span::Nas).calls),
            Metric::new("proxy.auth_info_ns", per_call(Span::AuthInfoReplay), "ns", tr.get(Span::AuthInfoReplay).calls),
            Metric::new(
                "proxy.update_location_ns",
                per_call(Span::UpdateLocationReplay),
                "ns",
                tr.get(Span::UpdateLocationReplay).calls,
            ),
            Metric::new(
                "proxy.fetch_rules_ns",
                per_call(Span::FetchRulesReplay),
                "ns",
                tr.get(Span::FetchRulesReplay).calls,
            ),
        ];
        for leg in Leg::ALL {
            let s = Span::Leg(leg);
            m.push(Metric::new(format!("ctrl.leg_ns.{}", leg.name()), per_call(s), "ns", tr.get(s).calls));
        }
        m.extend([
            Metric::new("ctrl.proc_started", drop(c0.proc_started, c1.proc_started), "count", 0),
            Metric::new("ctrl.proc_completed", drop(c0.proc_completed, c1.proc_completed), "count", 0),
            Metric::new("ctrl.proc_aborted", drop(c0.proc_aborted, c1.proc_aborted), "count", 0),
            Metric::new("ctrl.proc_expired", drop(c0.proc_expired, c1.proc_expired), "count", 0),
            Metric::new("ctrl.mailbox_backlog", b1.mailbox_backlog as f64, "count", 0),
        ]);

        // The ledger: self time per layer, per operation.
        let total = ph.busy_ns as f64 - tr.replay_ns() as f64;
        let rows: Vec<(&str, f64)> = vec![
            ("workload.traffic", ns(Span::Traffic)),
            ("demux", demux_total),
            ("node", node_self),
            ("slice", ns(Span::Sync)),
            ("data.parse", parse_total - classify_total),
            ("classify", classify_total),
            ("data.lookup", lookup_total),
            ("data.enforce", enforce_total),
            ("sctp", ns(Span::Sctp)),
            ("s1ap", ns(Span::S1ap)),
            ("nas", ns(Span::Nas)),
            ("proxy", proxy_total),
            ("ctrl", legs_total - proxy_total),
        ];
        let attributed: f64 = rows.iter().map(|r| r.1).sum();
        let leftover = total - attributed;
        let ops = ph.ops.max(1) as f64;
        let plain_per_op = ratio(self.plain.0 as f64, self.plain.1 as f64);
        let overhead_pct = (ratio(total / ops, plain_per_op) - 1.0) * 100.0;
        let leftover_pct = ratio(leftover, total) * 100.0;
        m.push(Metric::new("ledger.unattributed_pct", leftover_pct, "%", 0));
        m.push(Metric::new("ledger.trace_overhead_pct", overhead_pct, "%", 0));

        let mut lines = vec![format!(
            "ledger: self time per operation ({} ops, end-to-end {:.1} ns/op traced, {:.1} ns/op untraced)",
            ph.ops,
            total / ops,
            plain_per_op
        )];
        for (name, t) in &rows {
            lines.push(format!("  {:<18} {:>12.1} ns/op {:>6.1}%", name, t / ops, ratio(*t, total) * 100.0));
        }
        let flag = if leftover > LEFTOVER_FLAG * total { "  LEFTOVER ABOVE 15%" } else { "" };
        lines.push(format!("  {:<18} {:>12.1} ns/op {:>6.1}%{}", "unattributed", leftover / ops, leftover_pct, flag));
        lines.push(format!("  tracing overhead: {overhead_pct:.1}% (traced vs untraced ns/op, replays excluded)"));
        (m, lines)
    }
}
