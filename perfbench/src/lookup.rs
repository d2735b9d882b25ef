//! `lookup`: Zipf (α = 0.9, 4096 keys) storms compiled once by
//! `StormSchedule::compile` and replayed through `ObjectStore::root_from`
//! over oracle-built consistent tables at n = 16384 (b = 16, d = 8).
//!
//! A run replays [`STORMS`] storms (seeds `seed·S … seed·S + S − 1`),
//! each over its own 4096 keys. Set-up also resolves every key's root from
//! one reference source; a lookup fails when its root differs (surrogate
//! uniqueness).

use std::time::Instant;

use hyperring_core::{build_consistent_tables, check_consistency_streaming, NeighborTable};
use hyperring_harness::{distinct_ids, storm_keys, StormSchedule};
use hyperring_id::{IdSpace, NodeId};
use hyperring_object::ObjectStore;

use crate::{median, percentile, setup_median, Args, Meter, Report, Spans};

/// Zipf exponent of key popularity.
const ALPHA: f64 = 0.9;

/// Storms per run, each over its own key set, so one key set's hop
/// counts and cache luck do not swing a run.
const STORMS: u64 = 8;

/// One compiled storm and each of its keys' root, resolved in set-up
/// from a reference source.
struct Storm {
    schedule: StormSchedule,
    roots: Vec<NodeId>,
}

struct Setup {
    tables: Vec<NeighborTable>,
    storms: Vec<Storm>,
    oracle_ms: f64,
    compile_ms: f64,
}

/// One pass over every storm.
#[derive(Default)]
struct Pass {
    wrong_roots: u64,
    hops: u64,
    /// Wall ns of each lookup, when timed.
    sampled_ns: Vec<f64>,
}

fn setup(space: IdSpace, n: usize, keys: usize, lookups: usize, seed: u64) -> Setup {
    let ids = distinct_ids(space, n, seed);
    let t = Instant::now();
    let tables = build_consistent_tables(space, &ids);
    let oracle_ms = t.elapsed().as_secs_f64() * 1e3;
    let store = ObjectStore::over(space, &tables);
    let mut compile_ms = 0.0;
    let storms = (0..STORMS)
        .map(|i| {
            let sub = seed.wrapping_mul(STORMS).wrapping_add(i);
            let t = Instant::now();
            let schedule = StormSchedule::compile(
                ids.clone(),
                storm_keys(space, &format!("perfbench-{sub}"), keys),
                lookups / STORMS as usize,
                ALPHA,
                sub,
            );
            compile_ms += t.elapsed().as_secs_f64() * 1e3;
            let roots = schedule
                .keys
                .iter()
                .enumerate()
                .map(|(k, key)| store.root_from(ids[(k * 7919 + 1) % n], key).0)
                .collect();
            Storm { schedule, roots }
        })
        .collect();
    Setup {
        tables,
        storms,
        oracle_ms,
        compile_ms,
    }
}

/// Replays every storm once; with `timed`, each lookup is timed alone.
fn pass(store: &ObjectStore<'_>, s: &Setup, timed: bool) -> Pass {
    let mut p = Pass::default();
    for storm in &s.storms {
        let sched = &storm.schedule;
        for &(src, key) in &sched.draws {
            let (src, key) = (sched.sources[src as usize], key as usize);
            let t = timed.then(Instant::now);
            let (root, hops) = store.root_from(src, &sched.keys[key]);
            if let Some(t) = t {
                p.sampled_ns.push(t.elapsed().as_nanos() as f64);
            }
            p.hops += hops as u64;
            p.wrong_roots += u64::from(root != storm.roots[key]);
        }
    }
    p
}

/// Runs the workload; with `spans.on()`, the traced variant.
pub fn run(args: &Args, spans: &mut Spans) -> Report {
    let (n, keys, lookups) = if args.smoke {
        (1024, 256, 16_000)
    } else {
        (16384, 4096, 1 << 17)
    };
    let space = IdSpace::new(16, 8).expect("valid id space");
    let mut oracle_ms = Vec::new();
    let mut compile_ms = Vec::new();
    let (s, setup_s) = setup_median(|| {
        let s = setup(space, n, keys, lookups, args.seed);
        oracle_ms.push(s.oracle_ms);
        compile_ms.push(s.compile_ms);
        s
    });
    let mut r = Report::default();
    r.check(
        check_consistency_streaming(space, &s.tables).is_consistent(),
        || "oracle tables are inconsistent".into(),
    );
    let store = ObjectStore::over(space, &s.tables);
    let per_pass: u64 = s.storms.iter().map(|st| st.schedule.len() as u64).sum();
    if spans.on() {
        r.set("oracle.build_ms", median(&mut oracle_ms));
        r.set("storm.compile_ms", median(&mut compile_ms));
        pass(&store, &s, false); // warm the caches
        let t0 = Instant::now();
        let plain = pass(&store, &s, false);
        let t1 = Instant::now();
        let mut timed = pass(&store, &s, true);
        let t2 = Instant::now();
        spans.record("object.root_from.untimed_pass", None, t0, t1);
        spans.record("object.root_from.timed_pass", None, t1, t2);
        r.attempted = per_pass;
        r.failed = timed.wrong_roots;
        r.check(plain.hops == timed.hops, || {
            "passes routed differently".into()
        });
        r.set(
            "object.route_ns.p50",
            percentile(&mut timed.sampled_ns, 50.0),
        );
        r.set(
            "object.route_ns.p99",
            percentile(&mut timed.sampled_ns, 99.0),
        );
        r.set(
            "object.ns_per_hop",
            (t1 - t0).as_nanos() as f64 / plain.hops as f64,
        );
        r.set(
            "trace.overhead",
            (t2 - t1).as_secs_f64() / (t1 - t0).as_secs_f64(),
        );
        return r;
    }

    let mut meter = Meter::default();
    let mut hops = None;
    while !meter.done(args.seconds, 1) {
        let p = meter.time(per_pass, || pass(&store, &s, false));
        r.attempted += per_pass;
        r.failed += p.wrong_roots;
        r.check(*hops.get_or_insert(p.hops) == p.hops, || {
            "a rerun of the storm routed differently".into()
        });
    }
    meter.report(setup_s, &mut r);
    let hops = hops.expect("at least one pass") as f64 / per_pass as f64;
    r.set("msgs_per_op", hops);
    // Modeled query bytes: each overlay hop forwards one lookup frame
    // (length, version and kind header, sender id, object id).
    let frame = 6 + 2 * hyperring_wire::packed_id_len(&space);
    r.set("bytes_per_op", hops * frame as f64);
    r
}
