//! `sockets`: one `LockstepNet` wave — 1024 oracle-built members plus 3072
//! joiners (b = 16, d = 4, gateways round-robin over the members,
//! lossless) — on one thread and one loopback socket, every message
//! encoded, sent, received and decoded.
//!
//! `LockstepNet` returns tables only, so after the measured waves the
//! benchmark replays the same wave over its own loopback socket: its
//! digest must equal every measured wave's, which makes its datagram and
//! byte counts those of the socket runs.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use hyperring_core::{
    build_consistent_tables, check_consistency_streaming, tables_digest, JoinEngine, NeighborTable,
    ProtocolOptions,
};
use hyperring_harness::distinct_ids;
use hyperring_id::{IdSpace, NodeId};
use hyperring_net::transport::UdpEndpoint;
use hyperring_net::LockstepNet;

use crate::replay::{replay, set_engine_metrics, ReplayOut, Wire};
use crate::{add_violating_nodes, median, setup_median, Args, Meter, Report, Spans};

/// `LockstepNet`'s default constant message delay (virtual µs).
const DELAY_US: u64 = 1_000;

struct Setup {
    members: Vec<NeighborTable>,
    /// `(joiner, gateway)` in start order.
    joiners: Vec<(NodeId, NodeId)>,
    oracle_ms: f64,
}

fn setup(space: IdSpace, members: usize, joiners: usize, seed: u64) -> Setup {
    let ids = distinct_ids(space, members + joiners, seed);
    let t = Instant::now();
    let tables = build_consistent_tables(space, &ids[..members]);
    let oracle_ms = t.elapsed().as_secs_f64() * 1e3;
    let joiners = ids[members..]
        .iter()
        .enumerate()
        .map(|(j, &id)| (id, ids[j % members]))
        .collect();
    Setup {
        members: tables,
        joiners,
        oracle_ms,
    }
}

/// One lockstep wave: every node's final table, or the runtime's error.
fn wave(space: IdSpace, s: &Setup) -> Result<Vec<NeighborTable>, String> {
    let mut net = LockstepNet::new(space, ProtocolOptions::new(), s.members.clone());
    for &(id, gw) in &s.joiners {
        net = net.add_joiner(id, gw, 0);
    }
    net.run().map_err(|e| e.to_string())
}

/// Checks one wave's output; returns its digest and failed joins.
fn verify(space: IdSpace, s: &Setup, out: &Result<Vec<NeighborTable>, String>) -> (u64, u64) {
    match out {
        Ok(tables) => {
            let report = check_consistency_streaming(space, tables);
            let mut failed = HashSet::new();
            add_violating_nodes(&mut failed, report.violations());
            let joins = s.joiners.len() as u64;
            (tables_digest(tables), (failed.len() as u64).min(joins))
        }
        Err(e) => {
            eprintln!("lockstep wave failed: {e}");
            (0, s.joiners.len() as u64)
        }
    }
}

/// The wave's engines as `LockstepNet` builds them, and its starts.
fn replay_wave(
    space: IdSpace,
    s: &Setup,
    wire: Wire<'_>,
    timed: bool,
) -> Result<ReplayOut, String> {
    let opts = ProtocolOptions::new();
    let m = s.members.len();
    let engines: Vec<JoinEngine> = s
        .members
        .iter()
        .map(|t| JoinEngine::new_member(space, opts, t.clone()))
        .chain(
            s.joiners
                .iter()
                .map(|&(id, _)| JoinEngine::new_joiner(space, opts, id)),
        )
        .collect();
    let starts: Vec<(usize, NodeId)> = s
        .joiners
        .iter()
        .enumerate()
        .map(|(j, &(_, gw))| (m + j, gw))
        .collect();
    replay(space, engines, &starts, DELAY_US, wire, timed)
}

/// Runs the workload; with `spans.on()`, the traced variant.
pub fn run(args: &Args, spans: &mut Spans) -> Report {
    let (members, joiners) = if args.smoke { (64, 192) } else { (1024, 3072) };
    let space = IdSpace::new(16, 4).expect("valid id space");
    let mut oracle_ms = Vec::new();
    let (s, setup_s) = setup_median(|| {
        let s = setup(space, members, joiners, args.seed);
        oracle_ms.push(s.oracle_ms);
        s
    });
    let joins = s.joiners.len() as u64;
    let mut r = Report::default();
    if spans.on() {
        r.set("oracle.build_ms", median(&mut oracle_ms));
        traced(space, &s, spans, &mut r);
        return r;
    }

    let mut meter = Meter::default();
    let mut digest = None;
    while !meter.done(args.seconds, 1) {
        let out = meter.time(joins, || wave(space, &s));
        let (d, failed) = verify(space, &s, &out);
        r.attempted += joins;
        r.failed += failed;
        r.check(*digest.get_or_insert(d) == d, || {
            "a rerun of the wave built other tables".into()
        });
    }
    meter.report(setup_s, &mut r);
    let rep = bind()
        .and_then(|(endpoint, addr)| replay_wave(space, &s, Wire::Socket(&endpoint, addr), false));
    match rep {
        Ok(rep) => {
            r.check(Some(rep.digest) == digest, || {
                "the socket replay built other tables than the lockstep wave".into()
            });
            r.set("msgs_per_op", rep.msgs as f64 / joins as f64);
            r.set("bytes_per_op", rep.dgram_bytes as f64 / joins as f64);
        }
        Err(e) => r.check(false, || format!("socket replay failed: {e}")),
    }
    r
}

/// A loopback socket for the replay, and its address.
fn bind() -> Result<(UdpEndpoint, SocketAddr), String> {
    let endpoint = UdpEndpoint::bind().map_err(|e| format!("bind failed: {e}"))?;
    let addr = endpoint.local_addr().map_err(|e| e.to_string())?;
    Ok((endpoint, addr))
}

/// The traced run: one untraced wave, one inside a span, and a replay over
/// a loopback socket timing the engine, the codec and the socket calls.
fn traced(space: IdSpace, s: &Setup, spans: &mut Spans, r: &mut Report) {
    let joins = s.joiners.len() as u64;
    let t = Instant::now();
    let plain = wave(space, s);
    let plain_wall = t.elapsed();
    let t0 = Instant::now();
    let out = wave(space, s);
    let t1 = Instant::now();
    spans.record("lockstep.run", None, t0, t1);
    let (d0, _) = verify(space, s, &plain);
    let (d1, failed) = verify(space, s, &out);
    r.attempted = joins;
    r.failed = failed;
    r.check(d0 == d1, || "traced wave built other tables".into());

    let (endpoint, addr) = match bind() {
        Ok(bound) => bound,
        Err(e) => {
            r.check(false, || e);
            return;
        }
    };
    let t2 = Instant::now();
    let rep = replay_wave(space, s, Wire::Socket(&endpoint, addr), true);
    spans.record("replay.socket_wave", None, t2, Instant::now());
    let rep = match rep {
        Ok(rep) => rep,
        Err(e) => {
            r.check(false, || format!("socket replay failed: {e}"));
            return;
        }
    };
    r.check(rep.digest == d1, || {
        "the socket replay built other tables than LockstepNet".into()
    });
    set_engine_metrics(r, &rep, joins, plain_wall);
    let msgs = rep.msgs as f64;
    r.set("wire.encode_ns_per_msg", rep.encode_ns as f64 / msgs);
    r.set("wire.decode_ns_per_msg", rep.decode_ns as f64 / msgs);
    r.set("wire.bytes_per_msg", rep.dgram_bytes as f64 / msgs);
    r.set("transport.send_ns_per_dgram", rep.send_ns as f64 / msgs);
    r.set("transport.recv_ns_per_dgram", rep.recv_ns as f64 / msgs);
    let layers = rep.engine_ns + rep.encode_ns + rep.decode_ns + rep.send_ns + rep.recv_ns;
    let rest = plain_wall.saturating_sub(Duration::from_nanos(layers));
    r.set("lockstep.loop_ns_per_msg", rest.as_nanos() as f64 / msgs);
    r.set(
        "trace.overhead",
        (t1 - t0).as_secs_f64() / plain_wall.as_secs_f64(),
    );
}
