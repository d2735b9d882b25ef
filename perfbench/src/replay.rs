//! Replays one join wave through [`EngineDriver`]s in a FIFO loop, timing
//! each layer the wave's messages pass through.
//!
//! Under a constant message delay and with no timers armed, every message
//! sent while handling an event at time `t` is due at `t + delay`, so the
//! simulator's `(time, seq)` order is exactly first-in, first-out. The
//! replay therefore does the same engine work as the run it was cloned
//! from, which callers prove by comparing table digests.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use hyperring_core::{
    tables_digest_iter, EffectHandler, EngineDriver, JoinEngine, Message, MessageKind, NodeInput,
    RuntimeDriver, TimerId,
};
use hyperring_id::{IdSpace, NodeId};
use hyperring_net::transport::{
    decode_scheduled, encode_scheduled, UdpEndpoint, WAIT_READ, WAIT_WRITE,
};

use crate::{Report, BOOTSTRAP_KINDS};

/// How captured sends reach their destination.
#[derive(Clone, Copy)]
pub enum Wire<'a> {
    /// Handed over in memory (the simulator's path).
    Direct,
    /// Framed as lockstep datagrams (`[to][deliver_at][seq][frame]`),
    /// sent to and received from a loopback socket, and decoded — the
    /// lockstep runtime's path.
    Socket(&'a UdpEndpoint, SocketAddr),
}

/// Counts and (when timed) nanoseconds per layer over one replayed wave.
#[derive(Debug, Default)]
pub struct ReplayOut {
    /// Digest of every engine's final table, in engine order.
    pub digest: u64,
    /// Messages delivered.
    pub msgs: u64,
    /// Bytes of the lockstep datagrams (frame plus scheduling header).
    pub dgram_bytes: u64,
    /// Deliveries per message kind.
    pub kind_msgs: [u64; MessageKind::ALL.len()],
    /// `EngineDriver::drive` time per delivered message kind.
    pub kind_ns: [u64; MessageKind::ALL.len()],
    /// `EngineDriver::drive` time over every input, join starts included.
    pub engine_ns: u64,
    /// `encode_scheduled` time.
    pub encode_ns: u64,
    /// `decode_scheduled` time.
    pub decode_ns: u64,
    /// `UdpEndpoint::try_send` time.
    pub send_ns: u64,
    /// `UdpEndpoint::try_recv` time.
    pub recv_ns: u64,
}

/// Collects one step's effects: sends are captured, timers must not occur.
struct Outbox {
    now_us: u64,
    sends: Vec<(NodeId, Message)>,
    timers: u64,
}

impl EffectHandler for Outbox {
    fn send(&mut self, to: NodeId, msg: Message) {
        self.sends.push((to, msg));
    }

    fn set_timer(&mut self, _id: TimerId, _delay_hint: u64) {
        self.timers += 1;
    }

    fn cancel_timer(&mut self, _id: TimerId) {}
}

impl RuntimeDriver for Outbox {
    fn now_us(&self) -> u64 {
        self.now_us
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Replays a wave: `engines` as they stood when it began, and each
/// joiner's `(engine index, gateway)` in the order its start was queued.
/// Every message takes `delay_us`; `timed` turns the per-call clocks on.
///
/// # Errors
///
/// A description of what broke: a timer armed (FIFO order would no longer
/// match the simulator's), an unknown destination, a codec or socket
/// error.
pub fn replay(
    space: IdSpace,
    engines: Vec<JoinEngine>,
    starts: &[(usize, NodeId)],
    delay_us: u64,
    wire: Wire<'_>,
    timed: bool,
) -> Result<ReplayOut, String> {
    let index: HashMap<NodeId, usize> = engines
        .iter()
        .enumerate()
        .map(|(i, e)| (e.id(), i))
        .collect();
    let mut drivers: Vec<EngineDriver> = engines.into_iter().map(EngineDriver::new).collect();
    let mut queue: VecDeque<(u64, usize, NodeInput)> = starts
        .iter()
        .map(|&(slot, gateway)| (0, slot, NodeInput::StartJoin { gateway }))
        .collect();
    // Sequence numbers as the lockstep runtime hands them out: one per
    // queued start, then one per send.
    let mut seq = starts.len() as u64;
    let mut out = ReplayOut::default();
    let mut rt = Outbox {
        now_us: 0,
        sends: Vec::new(),
        timers: 0,
    };
    let mut dgram: Vec<u8> = Vec::with_capacity(1024);
    let mut arrived: Vec<(u64, u64, usize, NodeInput)> = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    let clock = |on: bool| on.then(Instant::now);

    while let Some((at, slot, input)) = queue.pop_front() {
        rt.now_us = at;
        let kind = match &input {
            NodeInput::Deliver { msg, .. } => Some(msg.kind() as usize),
            _ => None,
        };
        let t0 = clock(timed);
        drivers[slot].drive(input, &mut rt, None);
        if let Some(t0) = t0 {
            let d = ns(t0.elapsed());
            out.engine_ns += d;
            if let Some(k) = kind {
                out.kind_ns[k] += d;
            }
        }
        if let Some(k) = kind {
            out.kind_msgs[k] += 1;
            out.msgs += 1;
        }
        if rt.timers > 0 {
            return Err("a timer was armed during the replayed wave".into());
        }
        let from = drivers[slot].engine().id();
        let due = at + delay_us;
        let (endpoint, addr) = match wire {
            Wire::Direct => {
                for (to, msg) in rt.sends.drain(..) {
                    let to = *index.get(&to).ok_or(format!("send to unknown node {to}"))?;
                    queue.push_back((due, to, NodeInput::Deliver { from, msg }));
                }
                continue;
            }
            Wire::Socket(endpoint, addr) => (endpoint, addr),
        };

        // Frame, send and receive every send as the lockstep runtime does.
        let expected = rt.sends.len();
        for (to, msg) in rt.sends.drain(..) {
            dgram.clear();
            let t = clock(timed);
            out.dgram_bytes +=
                encode_scheduled(&space, to, due, seq, from, &msg, &mut dgram) as u64;
            if let Some(t) = t {
                out.encode_ns += ns(t.elapsed());
            }
            seq += 1;
            loop {
                let t = clock(timed);
                let sent = endpoint.try_send(&dgram, addr).map_err(|e| e.to_string())?;
                if let Some(t) = t {
                    out.send_ns += ns(t.elapsed());
                }
                if sent {
                    break;
                }
                endpoint
                    .wait(WAIT_WRITE, Duration::from_millis(10))
                    .map_err(|e| e.to_string())?;
            }
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while arrived.len() < expected {
            let t = clock(timed);
            let got = endpoint.try_recv(&mut buf).map_err(|e| e.to_string())?;
            if let Some(t) = t {
                out.recv_ns += ns(t.elapsed());
            }
            let Some((n, _)) = got else {
                if Instant::now() >= deadline {
                    return Err(format!(
                        "loopback datagram lost: {}/{expected} returned",
                        arrived.len()
                    ));
                }
                endpoint
                    .wait(WAIT_READ, Duration::from_millis(10))
                    .map_err(|e| e.to_string())?;
                continue;
            };
            let t = clock(timed);
            let (to, at, sent_seq, from, msg) =
                decode_scheduled(&space, &buf[..n]).map_err(|e| e.to_string())?;
            if let Some(t) = t {
                out.decode_ns += ns(t.elapsed());
            }
            let slot = *index
                .get(&to)
                .ok_or(format!("datagram for unknown node {to}"))?;
            arrived.push((at, sent_seq, slot, NodeInput::Deliver { from, msg }));
        }
        // Queue arrivals in send order, whatever order the kernel chose.
        arrived.sort_by_key(|a| a.1);
        for (due, _, to, input) in arrived.drain(..) {
            queue.push_back((due, to, input));
        }
    }
    out.digest = tables_digest_iter(drivers.iter().map(|d| d.engine().table()));
    Ok(out)
}

/// Sets the per-kind engine metrics of a wave of `joins` joiners whose
/// runtime took `wave_wall`, from its timed replay.
pub fn set_engine_metrics(r: &mut Report, rep: &ReplayOut, joins: u64, wave_wall: Duration) {
    for kind in BOOTSTRAP_KINDS {
        let k = kind as usize;
        let msgs = rep.kind_msgs[k];
        r.set(
            &format!("engine.msgs_per_join.{kind:?}"),
            msgs as f64 / joins as f64,
        );
        if msgs > 0 {
            r.set(
                &format!("engine.ns_per_msg.{kind:?}"),
                rep.kind_ns[k] as f64 / msgs as f64,
            );
        }
    }
    r.set(
        "engine.replay_share",
        rep.engine_ns as f64 / wave_wall.as_nanos() as f64,
    );
}
