//! The hyperring benchmark: four workloads over the public APIs of
//! `hyperring-core`, `-harness`, `-object`, `-net` and `-wire`.
//!
//! ```text
//! perfbench --workload <grow|churn|lookup|sockets> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Inputs are generated from `--seed` only. A run sets up several times
//! (`setup_s` is the median), then repeats whole units of its workload
//! until `--seconds` of measured time have passed, checking every unit's
//! output. With `--trace 0` the last stdout line is a JSON object with
//! the end-to-end metrics; with `--trace 1` the run instead times the
//! calls the benchmark makes into each layer, writes its spans to
//! `.bench_spans/<workload>.jsonl`, and prints the per-layer metrics.
//! `--smoke` shrinks every workload for a quick self-test. See
//! `perfbench/README.md` for what each workload and metric means.

mod churn;
mod grow;
mod lookup;
mod replay;
mod sockets;
mod sys;

use std::collections::{BTreeMap, HashSet};
use std::io::Write as _;
use std::time::{Duration, Instant};

use hyperring_core::{MessageKind, Violation};
use hyperring_id::NodeId;

/// End-to-end metrics (`--trace 0`): name and unit. Every workload
/// reports every one of them; `README.md` gives each workload's reading.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mib", "MiB"),
    ("msgs_per_op", "count"),
    ("bytes_per_op", "bytes"),
];

/// The nine message kinds a bootstrap sends, in protocol order.
pub const BOOTSTRAP_KINDS: [MessageKind; 9] = [
    MessageKind::CpRst,
    MessageKind::CpRly,
    MessageKind::JoinWait,
    MessageKind::JoinWaitRly,
    MessageKind::JoinNoti,
    MessageKind::JoinNotiRly,
    MessageKind::InSysNoti,
    MessageKind::RvNghNoti,
    MessageKind::RvNghNotiRly,
];

/// Per-layer metrics (`--trace 1`): name and unit, without the per-kind
/// engine metrics, which [`layer_metrics`] appends. A workload that never
/// enters a layer reports 0 for it.
const LAYERS: &[(&str, &str)] = &[
    ("simnet.add_joiners_us_per_join", "us"),
    ("simnet.run_us_per_join", "us"),
    ("simnet.wave_growth", "ratio"),
    ("sim.events_per_op", "count"),
    ("sim.timers_per_op", "count"),
    ("engine.replay_share", "ratio"),
    ("consistency.check_ns_per_table", "ns"),
    ("digest.ns_per_table", "ns"),
    ("rss.bootstrap_mib", "MiB"),
    ("rss.check_mib", "MiB"),
    ("timeline.compile_ms", "ms"),
    ("timeline.run_s", "s"),
    ("timeline.consistent_share", "ratio"),
    ("failure.evictions_per_op", "count"),
    ("repair.installs_per_op", "count"),
    ("repair.ttr_p50_ms", "ms"),
    ("repair.ttr_p99_ms", "ms"),
    ("oracle.build_ms", "ms"),
    ("storm.compile_ms", "ms"),
    ("object.route_ns.p50", "ns"),
    ("object.route_ns.p99", "ns"),
    ("object.ns_per_hop", "ns"),
    ("wire.encode_ns_per_msg", "ns"),
    ("wire.decode_ns_per_msg", "ns"),
    ("wire.bytes_per_msg", "bytes"),
    ("transport.send_ns_per_dgram", "ns"),
    ("transport.recv_ns_per_dgram", "ns"),
    ("lockstep.loop_ns_per_msg", "ns"),
    ("trace.overhead", "ratio"),
];

/// Every per-layer metric, per-kind engine metrics included.
fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for kind in BOOTSTRAP_KINDS {
        all.push((format!("engine.msgs_per_join.{kind:?}"), "count"));
        all.push((format!("engine.ns_per_msg.{kind:?}"), "ns"));
    }
    all
}

/// A run repeats its set-up at least this many times and for at least
/// [`SETUP_MIN_SECONDS`]; `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 1.0;

/// Command-line settings shared by every workload.
#[derive(Debug)]
pub struct Args {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured time to fill with whole units of work.
    pub seconds: f64,
    /// Shrink the workload for the self-test.
    pub smoke: bool,
}

/// The measured phase: wall time, CPU time and operations of each unit
/// of work. Units of one run repeat identical work, so the per-unit rates
/// are samples of one quantity and the run reports their median.
#[derive(Debug, Default)]
pub struct Meter {
    units: Vec<(Duration, Duration, u64)>,
    wall: Duration,
}

impl Meter {
    /// Runs one unit of `ops` operations and records its cost.
    pub fn time<T>(&mut self, ops: u64, f: impl FnOnce() -> T) -> T {
        let cpu0 = sys::cpu_time();
        let wall0 = Instant::now();
        let out = f();
        let wall = wall0.elapsed();
        let cpu = sys::cpu_time().saturating_sub(cpu0);
        self.units.push((wall, cpu, ops));
        self.wall += wall;
        out
    }

    /// Whether at least `min_units` units and `seconds` of measured wall
    /// time are done.
    pub fn done(&self, seconds: f64, min_units: usize) -> bool {
        self.units.len() >= min_units.max(1) && self.wall.as_secs_f64() >= seconds
    }

    /// Fills in the four end-to-end metrics every workload shares.
    pub fn report(&self, setup_s: f64, r: &mut Report) {
        let mut rate: Vec<f64> = self
            .units
            .iter()
            .map(|(wall, _, ops)| *ops as f64 / wall.as_secs_f64())
            .collect();
        let mut cpu: Vec<f64> = self
            .units
            .iter()
            .map(|(_, cpu, ops)| cpu.as_secs_f64() * 1e6 / *ops as f64)
            .collect();
        eprintln!(
            "{} units, {:.2} s measured; per-unit ops/s {:?}",
            self.units.len(),
            self.wall.as_secs_f64(),
            rate
        );
        r.set("setup_s", setup_s);
        r.set("ops_per_s", median(&mut rate));
        r.set("cpu_us_per_op", median(&mut cpu));
        r.set("peak_rss_mib", sys::peak_rss_mib());
    }
}

/// Runs `setup` at least [`SETUP_MIN_REPS`] times and for at least
/// [`SETUP_MIN_SECONDS`]; returns the last result and the median wall
/// time of one set-up in seconds.
pub fn setup_median<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let start = Instant::now();
    let mut secs = Vec::new();
    loop {
        let t = Instant::now();
        let out = setup();
        secs.push(t.elapsed().as_secs_f64());
        if secs.len() >= SETUP_MIN_REPS && start.elapsed().as_secs_f64() >= SETUP_MIN_SECONDS {
            return (out, median(&mut secs));
        }
    }
}

/// Adds to `failed` every node whose table breaks Definition 3.8, so a
/// node with several bad entries counts once.
pub fn add_violating_nodes(failed: &mut HashSet<NodeId>, violations: &[Violation]) {
    failed.extend(violations.iter().map(|v| match v {
        Violation::FalseNegative { node, .. }
        | Violation::FalsePositive { node, .. }
        | Violation::UnknownNeighbor { node, .. }
        | Violation::StaleState { node, .. } => *node,
    }));
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

/// Nearest-rank `p`-th percentile of `xs`.
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of nothing");
    xs.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Spans around the benchmark's own calls into each layer, held in memory
/// and written out at exit. A disabled recorder keeps nothing.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

#[derive(Debug)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Spans {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span starting now under `parent`; returns its id.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Closes a span [`open`](Self::open) returned.
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Records a closed span `[start, end)` under `parent`; returns its id.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        Some(self.spans.len() - 1)
    }

    /// Writes the spans as JSON lines to `.bench_spans/<workload>.jsonl`.
    fn write(&self, workload: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(".bench_spans")?;
        let file = std::fs::File::create(format!(".bench_spans/{workload}.jsonl"))?;
        let mut w = std::io::BufWriter::new(file);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// What a run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (fixed by the generated inputs).
    pub attempted: u64,
    /// Operations that failed the workload's correctness rule.
    pub failed: u64,
    /// Run-level checks (determinism, digest parity) that did not hold.
    pub broken: Vec<String>,
    values: BTreeMap<String, f64>,
}

impl Report {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Records a run-level check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.broken.push(what());
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// in `names`, each with its unit.
    fn json(&self, names: &[(String, &str)], defaulted: bool) -> String {
        let correct = self.broken.is_empty() && self.attempted > 0;
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = match self.values.get(name) {
                    Some(v) => *v,
                    None if defaulted => 0.0,
                    None => panic!("workload did not report {name}"),
                };
                assert!(value.is_finite(), "{name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <grow|churn|lookup|sockets> --seed <n> --seconds <s> --trace <0|1> [--smoke]"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage())),
            "--seconds" => seconds = Some(value.parse::<f64>().unwrap_or_else(|_| usage())),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    if !(seconds > 0.0 && seconds.is_finite()) {
        usage();
    }
    let args = Args {
        seed,
        seconds,
        smoke,
    };
    let mut spans = Spans::new(trace);
    let report = match workload.as_str() {
        "grow" => grow::run(&args, &mut spans),
        "churn" => churn::run(&args, &mut spans),
        "lookup" => lookup::run(&args, &mut spans),
        "sockets" => sockets::run(&args, &mut spans),
        _ => usage(),
    };
    for what in &report.broken {
        eprintln!("check failed: {what}");
    }
    let line = if trace {
        if let Err(e) = spans.write(&workload) {
            eprintln!("could not write spans: {e}");
            std::process::exit(1);
        }
        report.json(&layer_metrics(), true)
    } else {
        let names: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        report.json(&names, false)
    };
    println!("{line}");
}
