//! `churn`: steady-state Poisson churn on n = 256 (b = 4, d = 6) with the
//! repair arm of the timeline experiment — half-life 20 s, churn until
//! 14 s, horizon 30 s, checkpoints every 2 s.
//!
//! One unit of work is a round over [`SCHEDULES`] schedules (seeds
//! `seed·K … seed·K + K − 1`), so one unlucky schedule does not swing a
//! run. The run loop is
//! `TimelineScenario::run_compiled`'s, restricted to crashes, joins and
//! checkpoints and written out so each joiner and each victim can be
//! checked; the traced run proves it produces the same protocol trace as
//! `TimelineScenario`.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use hyperring_core::{
    build_consistent_tables, DigestTrace, FailureDetector, IncrementalChecker, NeighborTable,
    ProtocolOptions, RetryPolicy, SharedSink, SimNetworkBuilder, Status,
};
use hyperring_harness::experiments::{poisson_timeline, PoissonChurnConfig};
use hyperring_harness::timeline::{ChurnLog, CompiledTimeline, TeeSink, TimelineScenario};
use hyperring_id::{IdSpace, NodeId};
use hyperring_sim::{Time, UniformDelay};

use crate::{median, percentile, setup_median, Args, Meter, Report, Spans};

/// Schedules per run.
const SCHEDULES: u64 = 10;
/// The timeline scenario's message-delay bounds (µs).
const DELAY: (Time, Time) = (1_000, 50_000);

fn config(smoke: bool) -> PoissonChurnConfig {
    let cfg = PoissonChurnConfig {
        members: 256,
        ..PoissonChurnConfig::default()
    };
    if smoke {
        PoissonChurnConfig {
            members: 32,
            churn_until: 4_000_000,
            horizon: 12_000_000,
            ..cfg
        }
    } else {
        cfg
    }
}

/// `run_poisson_churn`'s repair-arm options.
fn options(cfg: &PoissonChurnConfig) -> ProtocolOptions {
    let fd = FailureDetector {
        repair: true,
        max_repairs_in_flight: 4,
        repair_backoff: true,
        ..cfg.fd
    };
    let retry = RetryPolicy {
        timeout_us: 300_000,
        max_retries: 2,
        backoff_pct: 200,
        jitter_pct: 10,
        join_fallback: true,
        ..RetryPolicy::default()
    };
    ProtocolOptions::new()
        .with_failure_detector(fd)
        .with_retry(retry)
}

/// One schedule, compiled in set-up, and its initial members' tables.
struct Schedule {
    seed: u64,
    compiled: CompiledTimeline,
    /// What `SimNetworkBuilder::add_member` would build for each run:
    /// `build_consistent_tables` over the compiled members.
    members: Vec<NeighborTable>,
}

/// What one schedule's run produced.
#[derive(Default)]
struct Churned {
    trace_digest: u64,
    checkpoints: Vec<bool>,
    ttr_crash_us: Vec<u64>,
    evicted: u64,
    repaired: u64,
    delivered: u64,
    timers: u64,
    bytes: u64,
    /// Joiners not in_system at the horizon.
    stranded: u64,
    /// Crash victims a survivor's table still names at the horizon.
    named_dead: u64,
    /// Wall time inside `run_until` segments.
    run_time: Duration,
}

fn churn_once(space: IdSpace, opts: ProtocolOptions, s: &Schedule, spans: &mut Spans) -> Churned {
    let c = &s.compiled;
    let root = spans.open("churn.schedule", None);
    let mut b = SimNetworkBuilder::new(space);
    b.with_member_tables(s.members.clone());
    for (id, gw, at) in &c.joins {
        b.add_joiner(*id, *gw, *at);
    }
    b.options(opts);
    let crash_times: BTreeMap<NodeId, Time> = c.crashes.iter().copied().collect();
    let log = SharedSink::new(ChurnLog::new(crash_times));
    let digest = SharedSink::new(DigestTrace::new());
    b.trace(Box::new(TeeSink(log.clone(), digest.clone())));
    let mut net = b.build(UniformDelay::new(DELAY.0, DELAY.1), s.seed);
    for (id, at) in &c.crashes {
        net.crash_at(id, *at);
    }
    let mut out = Churned::default();
    let mut checker = IncrementalChecker::new(space);
    for (at, _) in &c.checkpoints {
        let t0 = Instant::now();
        net.run_until(*at);
        let t1 = Instant::now();
        let tables: Vec<&NeighborTable> = net
            .engines()
            .filter(|e| e.status() == Status::InSystem)
            .map(|e| e.table())
            .collect();
        out.checkpoints
            .push(checker.check(tables.iter().copied()).is_consistent());
        let t2 = Instant::now();
        spans.record("simnet.run_until", root, t0, t1);
        spans.record("incremental.check", root, t1, t2);
        out.run_time += t1 - t0;
    }
    let t0 = Instant::now();
    let report = net.run_until(c.horizon);
    out.run_time += t0.elapsed();
    spans.close(root);

    out.delivered = report.delivered;
    out.timers = report.timers_fired;
    out.trace_digest = digest.lock().digest();
    let log = log.lock();
    out.ttr_crash_us = log.ttr_from_crash_us.clone();
    out.evicted = log.evicted;
    out.repaired = log.repaired;
    let dead: BTreeSet<NodeId> = c.crashes.iter().map(|(id, _)| *id).collect();
    let named: BTreeSet<NodeId> = net
        .tables_iter()
        .flat_map(|t| t.iter())
        .map(|(_, _, e)| e.node)
        .filter(|id| dead.contains(id))
        .collect();
    out.named_dead = named.len() as u64;
    out.stranded = net
        .engines()
        .skip(c.members.len())
        .filter(|e| e.status() != Status::InSystem)
        .count() as u64;
    out.bytes = net.engines().map(|e| e.stats().total_bytes()).sum();
    out
}

fn ops(s: &Schedule) -> u64 {
    (s.compiled.crashes.len() + s.compiled.joins.len()) as u64
}

/// Runs the workload; with `spans.on()`, the traced variant.
pub fn run(args: &Args, spans: &mut Spans) -> Report {
    let cfg = config(args.smoke);
    let space = IdSpace::new(cfg.base, cfg.digits).expect("valid id space");
    let opts = options(&cfg);
    let mut compile_ms = Vec::new();
    let mut oracle_ms = Vec::new();
    let (schedules, setup_s) = setup_median(|| {
        (0..SCHEDULES)
            .map(|i| {
                let seed = args.seed.wrapping_mul(SCHEDULES).wrapping_add(i);
                let (timeline, _, _, _) = poisson_timeline(&cfg, seed);
                let t = Instant::now();
                let compiled = timeline.compile(space, cfg.members, seed);
                compile_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let t = Instant::now();
                let members = build_consistent_tables(space, &compiled.members);
                oracle_ms.push(t.elapsed().as_secs_f64() * 1e3);
                Schedule {
                    seed,
                    compiled,
                    members,
                }
            })
            .collect::<Vec<_>>()
    });
    let mut r = Report::default();
    if spans.on() {
        r.set("timeline.compile_ms", median(&mut compile_ms));
        r.set("oracle.build_ms", median(&mut oracle_ms));
        traced(space, opts, &schedules, spans, &mut r);
        return r;
    }

    // One unit is a round over every schedule: schedules differ in cost
    // per op, so a round's total is the steady sample. Counts come from
    // the first round; later rounds must trace identically.
    let round_ops: u64 = schedules.iter().map(ops).sum();
    let mut meter = Meter::default();
    let mut first: Option<Vec<Churned>> = None;
    while !meter.done(args.seconds, 1) {
        let outs = meter.time(round_ops, || {
            schedules
                .iter()
                .map(|s| churn_once(space, opts, s, spans))
                .collect::<Vec<_>>()
        });
        r.attempted += round_ops;
        r.failed += outs.iter().map(|c| c.stranded + c.named_dead).sum::<u64>();
        match &first {
            None => {
                for (s, c) in schedules.iter().zip(&outs) {
                    eprintln!(
                        "churn schedule {}: {} crashes, {} joins, {} joiners stranded, {} victims still named, consistent at {}/{} checkpoints",
                        s.seed,
                        s.compiled.crashes.len(),
                        s.compiled.joins.len(),
                        c.stranded,
                        c.named_dead,
                        c.checkpoints.iter().filter(|&&ok| ok).count(),
                        c.checkpoints.len()
                    );
                }
                first = Some(outs);
            }
            Some(f) => r.check(
                f.iter()
                    .zip(&outs)
                    .all(|(a, b)| a.trace_digest == b.trace_digest),
                || "a schedule traced differently on a rerun".into(),
            ),
        }
    }
    meter.report(setup_s, &mut r);
    let first = first.expect("at least one round");
    let sum = |f: fn(&Churned) -> u64| first.iter().map(f).sum::<u64>() as f64;
    r.set("msgs_per_op", sum(|c| c.delivered) / round_ops as f64);
    r.set("bytes_per_op", sum(|c| c.bytes) / round_ops as f64);
    r
}

/// The traced run: every schedule untraced, then traced, then through
/// `TimelineScenario::run_compiled` to prove the loop matches it.
fn traced(
    space: IdSpace,
    opts: ProtocolOptions,
    schedules: &[Schedule],
    spans: &mut Spans,
    r: &mut Report,
) {
    let t = Instant::now();
    let plain: Vec<Churned> = schedules
        .iter()
        .map(|s| churn_once(space, opts, s, &mut Spans::new(false)))
        .collect();
    let plain_wall = t.elapsed();
    let t = Instant::now();
    let outs: Vec<Churned> = schedules
        .iter()
        .map(|s| churn_once(space, opts, s, spans))
        .collect();
    let traced_wall = t.elapsed();
    for ((s, a), b) in schedules.iter().zip(&plain).zip(&outs) {
        r.attempted += ops(s);
        r.failed += b.stranded + b.named_dead;
        r.check(a.trace_digest == b.trace_digest, || {
            format!("schedule {} traced differently when traced", s.seed)
        });
        let lib = TimelineScenario::new(space)
            .members(s.compiled.members.len())
            .seed(s.seed)
            .options(opts)
            .delay_bounds(DELAY.0, DELAY.1)
            .run_compiled(&s.compiled);
        r.check(lib.trace_digest == b.trace_digest, || {
            format!(
                "schedule {}: benchmark loop and TimelineScenario differ",
                s.seed
            )
        });
    }
    let all_ops = r.attempted as f64;
    let sum = |f: fn(&Churned) -> u64| outs.iter().map(f).sum::<u64>() as f64;
    let run: Duration = outs.iter().map(|c| c.run_time).sum();
    r.set("timeline.run_s", run.as_secs_f64() / outs.len() as f64);
    r.set(
        "sim.events_per_op",
        (sum(|c| c.delivered) + sum(|c| c.timers)) / all_ops,
    );
    r.set("sim.timers_per_op", sum(|c| c.timers) / all_ops);
    r.set("failure.evictions_per_op", sum(|c| c.evicted) / all_ops);
    r.set("repair.installs_per_op", sum(|c| c.repaired) / all_ops);
    let verdicts: Vec<bool> = outs.iter().flat_map(|c| c.checkpoints.clone()).collect();
    let consistent = verdicts.iter().filter(|&&ok| ok).count();
    r.set(
        "timeline.consistent_share",
        consistent as f64 / verdicts.len() as f64,
    );
    let mut ttr: Vec<f64> = outs
        .iter()
        .flat_map(|c| c.ttr_crash_us.iter().map(|&us| us as f64 / 1e3))
        .collect();
    r.check(!ttr.is_empty(), || "no crash was repaired".into());
    if !ttr.is_empty() {
        r.set("repair.ttr_p50_ms", percentile(&mut ttr, 50.0));
        r.set("repair.ttr_p99_ms", percentile(&mut ttr, 99.0));
    }
    r.set(
        "trace.overhead",
        traced_wall.as_secs_f64() / plain_wall.as_secs_f64(),
    );
}
