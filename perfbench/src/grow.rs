//! `grow`: a §6.1 bootstrap from one seed node to n = 16384 (b = 16,
//! d = 8), joiners arriving through the seed in concurrent waves of 1024,
//! then one streaming Definition-3.8 check and one table digest.
//!
//! The wave loop is `bootstrap_batched_net`'s (shards = 1), written out so
//! each wave can be timed and its joiners checked; the traced run proves
//! it builds the same tables as the library call.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use hyperring_core::{
    bootstrap_batched_net, check_consistency_streaming, tables_digest_iter, JoinEngine,
    ProtocolOptions, SimNetworkBuilder, Status,
};
use hyperring_harness::distinct_ids;
use hyperring_harness::metrics::{current_rss_bytes, peak_rss_bytes, reset_peak_rss};
use hyperring_id::{IdSpace, NodeId};
use hyperring_sim::ConstantDelay;

use crate::replay::{replay, set_engine_metrics, Wire};
use crate::{add_violating_nodes, setup_median, Args, Meter, Report, Spans};

/// Engines cloned at the start of the last wave, and the wave's starts.
struct Capture {
    engines: Vec<JoinEngine>,
    starts: Vec<(usize, NodeId)>,
}

/// One bootstrap, check and digest.
#[derive(Default)]
struct Grown {
    digest: u64,
    /// Joiners not in_system after their wave, and nodes whose final
    /// table breaks Definition 3.8, each counted once.
    failed: u64,
    msgs: u64,
    bytes: u64,
    delivered: u64,
    timers: u64,
    /// Per wave: `add_joiners_live` and `run` wall time, and joiners.
    waves: Vec<(Duration, Duration, usize)>,
    check: Duration,
    digest_time: Duration,
    /// Time spent cloning engines for the replay (not workload time).
    capture_time: Duration,
    capture: Option<Capture>,
}

fn bootstrap(
    space: IdSpace,
    ids: &[NodeId],
    batch: usize,
    spans: &mut Spans,
    capture: bool,
) -> Grown {
    let opts = ProtocolOptions::new();
    let mut g = Grown::default();
    let mut failed = HashSet::new();
    let root = spans.open("grow.bootstrap", None);
    let seed_node = ids[0];
    let mut b = SimNetworkBuilder::new(space);
    let seed_table = JoinEngine::new_seed(space, opts, seed_node).table().clone();
    b.options(opts)
        .with_member_tables(vec![seed_table])
        .shards(1);
    let mut net = b.build(ConstantDelay(1), 0);
    let waves = ids[1..].chunks(batch).count();
    for (w, wave) in ids[1..].chunks(batch).enumerate() {
        let t0 = Instant::now();
        let base = net.add_joiners_live(wave, seed_node);
        let t1 = Instant::now();
        if capture && w + 1 == waves {
            g.capture = Some(Capture {
                engines: net.engines().cloned().collect(),
                starts: (base..base + wave.len()).map(|i| (i, seed_node)).collect(),
            });
        }
        let t2 = Instant::now();
        let report = net.run();
        let t3 = Instant::now();
        g.capture_time += t2 - t1;
        spans.record("simnet.add_joiners_live", root, t0, t1);
        spans.record("simnet.run", root, t2, t3);
        g.waves.push((t1 - t0, t3 - t2, wave.len()));
        g.delivered = report.delivered;
        g.timers = report.timers_fired;
        failed.extend(
            net.engines()
                .skip(base)
                .filter(|e| e.status() != Status::InSystem)
                .map(|e| e.id()),
        );
    }
    let t0 = Instant::now();
    let report = check_consistency_streaming(space, net.tables_iter());
    let t1 = Instant::now();
    g.digest = tables_digest_iter(net.tables_iter());
    let t2 = Instant::now();
    spans.record("consistency.check_streaming", root, t0, t1);
    spans.record("digest.tables_digest_iter", root, t1, t2);
    spans.close(root);
    g.check = t1 - t0;
    g.digest_time = t2 - t1;
    add_violating_nodes(&mut failed, report.violations());
    // Ops are joins; a bad table on the seed node fails no join of its own.
    g.failed = (failed.len() as u64).min(ids.len() as u64 - 1);
    for e in net.engines() {
        g.msgs += e.stats().total_sent();
        g.bytes += e.stats().total_bytes();
    }
    g
}

/// Runs the workload; with `spans.on()`, the traced variant.
pub fn run(args: &Args, spans: &mut Spans) -> Report {
    let (n, batch) = if args.smoke {
        (2048, 256)
    } else {
        (16384, 1024)
    };
    let space = IdSpace::new(16, 8).expect("valid id space");
    let (ids, setup_s) = setup_median(|| distinct_ids(space, n, args.seed));
    let joins = (n - 1) as u64;
    let mut r = Report::default();
    if spans.on() {
        traced(space, &ids, batch, spans, &mut r);
        return r;
    }

    // The first bootstrap in a process also pays for fresh heap pages, so
    // a run measures at least three and reports their median.
    let mut meter = Meter::default();
    let mut first: Option<Grown> = None;
    while !meter.done(args.seconds, 3) {
        let g = meter.time(joins, || bootstrap(space, &ids, batch, spans, false));
        r.attempted += joins;
        r.failed += g.failed;
        match &first {
            None => first = Some(g),
            Some(f) => r.check(f.digest == g.digest, || {
                format!(
                    "bootstrap digest changed: {:x} then {:x}",
                    f.digest, g.digest
                )
            }),
        }
    }
    let first = first.expect("at least one unit");
    meter.report(setup_s, &mut r);
    r.set("msgs_per_op", first.msgs as f64 / joins as f64);
    r.set("bytes_per_op", first.bytes as f64 / joins as f64);
    r
}

/// The traced run: an untraced bootstrap, a traced one that clones the
/// engines at its last wave, a replay of that wave, and the library's
/// `bootstrap_batched_net` with phase-scoped peak RSS.
fn traced(space: IdSpace, ids: &[NodeId], batch: usize, spans: &mut Spans, r: &mut Report) {
    let joins = (ids.len() - 1) as u64;
    let t = Instant::now();
    let plain = bootstrap(space, ids, batch, &mut Spans::new(false), false);
    let plain_wall = t.elapsed();

    let t = Instant::now();
    let mut g = bootstrap(space, ids, batch, spans, true);
    let traced_wall = t.elapsed() - g.capture_time;
    r.attempted = joins;
    r.failed = g.failed;
    r.check(g.digest == plain.digest, || {
        "traced bootstrap built other tables".into()
    });

    let cap = g.capture.take().expect("last wave captured");
    let last = *g.waves.last().expect("at least one wave");
    let t0 = Instant::now();
    let rep = replay(space, cap.engines, &cap.starts, 1, Wire::Direct, true);
    spans.record("replay.last_wave", None, t0, Instant::now());
    match rep {
        Ok(rep) => {
            r.check(rep.digest == g.digest, || {
                "replayed last wave built other tables than the simulator".into()
            });
            set_engine_metrics(r, &rep, last.2 as u64, last.1);
        }
        Err(e) => r.check(false, || format!("replay failed: {e}")),
    }

    // The library path, with phase-scoped peak RSS.
    let opts = ProtocolOptions::new();
    let rss_ok = reset_peak_rss();
    let before = current_rss_bytes().unwrap_or(0);
    let net = bootstrap_batched_net(space, opts, ids, batch, 1);
    let boot_peak = peak_rss_bytes().unwrap_or(0);
    reset_peak_rss();
    let before_check = current_rss_bytes().unwrap_or(0);
    let report = check_consistency_streaming(space, net.tables_iter());
    let check_peak = peak_rss_bytes().unwrap_or(0);
    if !rss_ok {
        eprintln!("peak RSS could not be reset; rss.* include earlier phases");
    }
    r.check(report.is_consistent(), || {
        "library bootstrap inconsistent".into()
    });
    r.check(tables_digest_iter(net.tables_iter()) == g.digest, || {
        "benchmark wave loop and bootstrap_batched_net built different tables".into()
    });
    drop(net);
    let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
    r.set("rss.bootstrap_mib", mib(boot_peak.saturating_sub(before)));
    r.set(
        "rss.check_mib",
        mib(check_peak.saturating_sub(before_check)),
    );

    let add: Duration = g.waves.iter().map(|w| w.0).sum();
    let run: Duration = g.waves.iter().map(|w| w.1).sum();
    r.set(
        "simnet.add_joiners_us_per_join",
        add.as_secs_f64() * 1e6 / joins as f64,
    );
    r.set(
        "simnet.run_us_per_join",
        run.as_secs_f64() * 1e6 / joins as f64,
    );
    let per_join = |w: &(Duration, Duration, usize)| w.1.as_secs_f64() / w.2 as f64;
    let first_full = g.waves.iter().find(|w| w.2 == batch).unwrap_or(&g.waves[0]);
    r.set("simnet.wave_growth", per_join(&last) / per_join(first_full));
    r.set(
        "sim.events_per_op",
        (g.delivered + g.timers) as f64 / joins as f64,
    );
    r.set("sim.timers_per_op", g.timers as f64 / joins as f64);
    r.set(
        "consistency.check_ns_per_table",
        g.check.as_nanos() as f64 / ids.len() as f64,
    );
    r.set(
        "digest.ns_per_table",
        g.digest_time.as_nanos() as f64 / ids.len() as f64,
    );
    r.set(
        "trace.overhead",
        traced_wall.as_secs_f64() / plain_wall.as_secs_f64(),
    );
}
