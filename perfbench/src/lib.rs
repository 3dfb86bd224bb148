//! End-to-end benchmark of one inline `PepcNode`.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! what each per-layer number is expected to move.

pub mod datapath;
pub mod enb;
pub mod ledger;
pub mod stats;
pub mod trace;
pub mod workload;

use stats::{best_quarter_mean, median, pct_us, ratio, rss_mb};
use std::time::Instant;
use trace::Tracer;
use workload::{Bench, Phase, Workload};

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Population size (the workload's default unless shrunk for a smoke test).
    pub users: usize,
    /// Set-ups timed for `setup_s` (the last one is kept and measured).
    pub setups: usize,
}

/// A reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the number (0 for gauges and counts).
    pub samples: u64,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Self {
        Metric { name: name.into(), value, unit, samples }
    }
}

/// What a run produced: the metrics of the final JSON line, the
/// human-readable report printed above it, and the operation counts.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub report: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, json_number(m.value), m.unit))
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn format_metric(m: &Metric) -> String {
    if m.samples > 0 {
        format!("  {:<32} {:>14.4} {:<6} n={}", m.name, m.value, m.unit, m.samples)
    } else {
        format!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit)
    }
}

/// Run one workload as `opts` says.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    if opts.trace {
        run_traced(opts)
    } else {
        run_untraced(opts)
    }
}

/// An untraced run measures this many consecutive windows and reports
/// each timing as the mean over the best quarter of the windows. A shared
/// VM's host switches between a fast and a slow regime, often within
/// seconds (the same code runs 1.4 to 1.8 times slower in the slow one),
/// and the share of slow time differs from run to run; a statistic that
/// takes in the slow windows moves with that share. The best windows are
/// those the host ran fast in, where the program's own cost shows. They
/// are short because slow spells also come in bursts under a second,
/// which lift a longer window's upper percentiles.
pub const WINDOWS: usize = 160;

/// Mean over the best quarter of windows of a per-window value.
fn over_windows(windows: &mut [Phase], lower_is_better: bool, mut f: impl FnMut(&mut Phase) -> f64) -> f64 {
    let mut v: Vec<f64> = windows.iter_mut().map(&mut f).collect();
    best_quarter_mean(&mut v, lower_is_better)
}

/// A timing metric: the mean over the best quarter of the windows that
/// hold samples of a percentile, with the total sample count.
fn window_pct(windows: &mut [Phase], name: &str, q: f64, samples: fn(&mut Phase) -> &mut Vec<u64>) -> Metric {
    let n: usize = windows.iter_mut().map(|w| samples(w).len()).sum();
    let mut v: Vec<f64> =
        windows.iter_mut().map(samples).filter(|s| !s.is_empty()).map(|s| pct_us(s, q)).collect();
    Metric::new(name, best_quarter_mean(&mut v, true), "us", n as u64)
}

fn run_untraced(opts: &Opts) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut rss = 0.0;
    let mut bench = None;
    for k in 0..opts.setups.max(1) {
        drop(bench.take());
        let t = Instant::now();
        let b = Bench::setup(opts.workload, opts.seed, opts.users)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if k == 0 {
            rss = rss_mb()?;
        }
        bench = Some(b);
    }
    let mut b = bench.expect("at least one set-up ran");
    let setups = setup_s.len() as u64;
    let mut windows = Vec::with_capacity(WINDOWS);
    for _ in 0..WINDOWS {
        let before = b.node.metrics_snapshot();
        let ph = b.measure(opts.seconds / WINDOWS as f64, &mut Tracer::new(false))?;
        b.audit(&ph, &before)?;
        windows.push(ph);
    }
    let ops: u64 = windows.iter().map(|w| w.ops).sum();
    let metrics = vec![
        Metric::new("setup_s", median(&mut setup_s), "s", setups),
        Metric::new("rss_mb", rss, "MB", 0),
        Metric::new(
            "ops_per_s",
            over_windows(&mut windows, false, |w| ratio(w.ops as f64, w.busy_ns as f64 / 1e9)),
            "1/s",
            ops,
        ),
        window_pct(&mut windows, "lat_p50_us", 0.50, |w| &mut w.lat),
        window_pct(&mut windows, "lat_p75_us", 0.75, |w| &mut w.lat),
    ];
    let mut report = vec![format!(
        "{} seed={} seconds={} users={} windows={} (untraced) end-to-end:",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        opts.users,
        WINDOWS
    )];
    report.extend(metrics.iter().map(format_metric));
    report.push(format!("{} workload metrics:", opts.workload.name()));
    report.extend(workload_metrics(opts.workload, &mut windows).iter().map(format_metric));
    let offered: u64 = windows.iter().map(|w| w.tally.offered).sum();
    let procs: u64 = windows.iter().map(|w| w.procs).sum();
    let lost: u64 = windows.iter().map(|w| w.tally.lost()).sum();
    Ok(Outcome { metrics, report, attempted: offered + procs, failed: lost })
}

/// The per-workload numbers the paper's figures use, printed in the report. The
/// JSON carries only the metrics every workload has.
fn workload_metrics(w: Workload, windows: &mut [Phase]) -> Vec<Metric> {
    let mut out = Vec::new();
    let offered: u64 = windows.iter().map(|w| w.tally.offered).sum();
    let lost: u64 = windows.iter().map(|w| w.tally.lost()).sum();
    let procs: u64 = windows.iter().map(|w| w.procs).sum();
    let loss = Metric::new("pkt_loss_ratio", ratio(lost as f64, offered as f64), "ratio", offered);
    // Every procedure failure stops the run, so a finished run has none.
    let proc_fail = Metric::new("proc_fail_ratio", 0.0, "ratio", procs);
    match w {
        Workload::Data1m => {
            let mpps = over_windows(windows, false, |w| ratio(w.tally.offered as f64, w.busy_ns as f64 / 1e9) / 1e6);
            out.push(Metric::new("data_mpps", mpps, "Mpps", offered));
            out.push(window_pct(windows, "burst_lat_p50_us", 0.50, |w| &mut w.lat));
            out.push(window_pct(windows, "burst_lat_p99_us", 0.99, |w| &mut w.lat));
            out.push(loss);
        }
        Workload::Sig10k => {
            let rate = over_windows(windows, false, |w| ratio(w.procs as f64, w.wall_ns as f64 / 1e9));
            out.push(Metric::new("proc_per_s", rate, "1/s", procs));
            out.push(window_pct(windows, "attach_p50_us", 0.50, |w| &mut w.attach));
            out.push(window_pct(windows, "attach_p99_us", 0.99, |w| &mut w.attach));
            out.push(window_pct(windows, "handover_p99_us", 0.99, |w| &mut w.handover));
            out.push(window_pct(windows, "service_req_p99_us", 0.99, |w| &mut w.service));
            out.push(proc_fail);
        }
        Workload::Mixed10k => {
            out.push(window_pct(windows, "pkt_lat_p50_us", 0.50, |w| &mut w.lat));
            out.push(window_pct(windows, "pkt_lat_p99_us", 0.99, |w| &mut w.lat));
            out.push(loss);
            out.push(window_pct(windows, "attach_p50_us", 0.50, |w| &mut w.attach));
            out.push(window_pct(windows, "attach_p99_us", 0.99, |w| &mut w.attach));
            out.push(window_pct(windows, "attach_ready_p99_us", 0.99, |w| &mut w.ready));
            out.push(proc_fail);
            out.push(window_pct(windows, "gen_lag_p99_us", 0.99, |w| &mut w.lag));
        }
    }
    out
}

/// One set-up, then untraced, traced and untraced phases (a quarter, a
/// half and a quarter of the run). The traced phase yields the per-layer
/// metrics and the ledger; the untraced phases around it price the
/// tracing, so state that grows during a run shifts both sides alike.
fn run_traced(opts: &Opts) -> Result<Outcome, String> {
    let mut b = Bench::setup(opts.workload, opts.seed, opts.users)?;
    let quarter = opts.seconds / 4.0;
    let untraced = |b: &mut Bench| -> Result<Phase, String> {
        let before = b.node.metrics_snapshot();
        let ph = b.measure(quarter, &mut Tracer::new(false))?;
        b.audit(&ph, &before)?;
        Ok(ph)
    };
    let first = untraced(&mut b)?;

    b.node.slice(0).data.set_stage_timing(true);
    let before = b.node.metrics_snapshot();
    let tables_before = b.node.slice_ref(0).data.table_stats();
    let mut tr = Tracer::new(true);
    let traced = b.measure(2.0 * quarter, &mut tr)?;
    b.audit(&traced, &before)?;
    let after = b.node.metrics_snapshot();
    let tables_after = b.node.slice_ref(0).data.table_stats();
    b.node.slice(0).data.set_stage_timing(false);

    let second = untraced(&mut b)?;
    let plain = (first.busy_ns + second.busy_ns, first.ops + second.ops);

    let view = ledger::TracedRun {
        bench: &b,
        plain,
        traced: &traced,
        tr: &tr,
        before: &before,
        after: &after,
        tables: (tables_before, tables_after),
    };
    let (metrics, ledger_lines) = view.layers();
    let mut report = vec![format!(
        "{} seed={} seconds={} users={} (traced) per-layer:",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        opts.users
    )];
    report.extend(metrics.iter().map(format_metric));
    report.extend(ledger_lines);
    Ok(Outcome { metrics, report, attempted: traced.tally.offered + traced.procs, failed: traced.tally.lost() })
}
