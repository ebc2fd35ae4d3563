//! The simulator half of the benchmark; `run.py` drives it.
//!
//! ```text
//! spiderbench rep <workload> <seed> <index> plain|traced   one experiment, one JSON line
//! spiderbench check <workload> <seed>                      same-program check
//! ```
//!
//! A workload instance is a batch of experiments (see `workloads`); `rep`
//! runs the one at `index` and reports its batch size. Every experiment
//! runs in a process of its own, so its peak resident memory (`VmHWM`) is
//! its alone.

mod assemble;
mod probe;
mod workloads;

use assemble::Outcome;
use spider_sim::SimReport;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let words: Vec<&str> = args.iter().map(String::as_str).collect();
    match words.as_slice() {
        ["rep", name, seed, index, mode @ ("plain" | "traced")] => {
            let batch = parse(name, seed, false);
            match (batch, index.parse::<usize>()) {
                (Some(batch), Ok(i)) if i < batch.len() => {
                    println!("{}", rep(&batch[i], batch.len(), *mode == "traced"));
                    ExitCode::SUCCESS
                }
                _ => usage(),
            }
        }
        ["check", name, seed] => match parse(name, seed, true) {
            Some(batch) => check(name, &batch),
            None => usage(),
        },
        _ => usage(),
    }
}

fn parse(name: &str, seed: &str, short: bool) -> Option<Vec<workloads::Spec>> {
    workloads::batch(name, seed.parse().ok()?, short)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: spiderbench rep <workload> <seed> <index> plain|traced\n       \
         spiderbench check <workload> <seed>\nworkloads: {}",
        workloads::NAMES.join(", ")
    );
    ExitCode::from(2)
}

/// The deterministic digest every rep of one workload and seed must share.
fn digest(r: &SimReport, events: u64) -> String {
    let d = &r.drops_by_reason;
    format!(
        "events={events} completed={} delivered_drops={} units_locked={} \
         drops=[{} {} {} {} {} {} {} {} {}]",
        r.completed_payments,
        r.delivered_volume.drops(),
        r.units_locked,
        d.queue_timeout,
        d.queue_overflow,
        d.expired,
        d.channel_closed,
        d.message_lost,
        d.hop_timeout,
        d.node_crashed,
        d.shed,
        d.admission_rejected,
    )
}

fn report_json(r: &SimReport) -> String {
    serde_json::to_string(r).expect("report serializes")
}

/// 64-bit FNV-1a of the serialized report: equal hashes across processes
/// stand in for byte-identical reports.
fn report_hash(r: &SimReport) -> String {
    let h = report_json(r)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    format!("{h:016x}")
}

/// Peak resident set of this process in MiB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host nanoseconds per `Instant::now()` call: a timed hook pays two.
fn clock_ns() -> f64 {
    const N: u32 = 200_000;
    let t0 = Instant::now();
    let mut last = t0;
    for _ in 0..N {
        last = std::hint::black_box(Instant::now());
    }
    (last - t0).as_secs_f64() * 1e9 / f64::from(N)
}

/// Runs one experiment and renders what `run.py` aggregates: raw counts
/// and host seconds, named as in the benchmark's metrics.
fn rep(spec: &workloads::Spec, batch: usize, traced: bool) -> String {
    let out = if traced {
        assemble::run::<true>(spec)
    } else {
        assemble::run::<false>(spec)
    };
    let Outcome {
        report: r,
        slab,
        times: t,
        probe: p,
        ..
    } = &out;
    let mut s = String::new();
    let mut put = |k: &str, v: &dyn std::fmt::Display| {
        let sep = if s.is_empty() { '{' } else { ',' };
        write!(s, "{sep}\"{k}\":{v}").expect("write to string");
    };
    put("batch", &batch);
    put(
        "digest",
        &format!("\"{}\"", digest(r, slab.events_executed)),
    );
    put("report_hash", &format!("\"{}\"", report_hash(r)));
    put("wants_prewarm", &out.wants_prewarm);
    put("observes_outcomes", &out.observes_outcomes);
    put("peak_rss_mb", &peak_rss_mb());
    // `PathOracle::fill` fans prewarm out over this many threads.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    put("oracle_workers", &workers);
    put("attempted", &r.attempted_payments);
    put("completed", &r.completed_payments);
    put("attempted_drops", &r.attempted_volume.drops());
    put("delivered_drops", &r.delivered_volume.drops());
    put("units_locked", &r.units_locked);
    put("units_failed", &r.units_failed);
    put("retries", &r.retries);
    put("wall_s", &t.wall);
    put("setup_s", &t.setup);
    put("topology.build_s", &t.topology);
    put("workload.generate_s", &t.workload);
    put("core.scheme_build_s", &t.scheme_build);
    put("sim.new_s", &t.sim_new);
    put("sim.run_s", &t.run);
    put("sim.conservation_check_s", &t.conservation);
    put("sim.events", &slab.events_executed);
    put("sim.peak_live_events", &slab.peak_live_events);
    put("sim.peak_live_units", &slab.peak_live_units);
    put("sim.interned_paths", &slab.interned_paths);
    put("sim.topology_events", &r.topology_events);
    put("sim.units_shed", &r.drops_by_reason.shed);
    put("sim.admission_deferred", &r.admission_deferred);
    put("routing.prewarm_pairs", &p.prewarm_pairs.get());
    if traced {
        for (k, hook) in [
            ("routing.initialize", &p.initialize),
            ("routing.prewarm", &p.prewarm),
            ("routing.route", &p.route),
            ("protocol.outcome", &p.outcome),
            ("protocol.ack", &p.ack),
            ("routing.repair", &p.topology),
            ("protocol.window_gauge", &p.gauge),
        ] {
            put(&format!("{k}_s"), &hook.secs());
            put(&format!("{k}_calls"), &hook.calls.get());
        }
        put("sim.engine_self_s", &(t.run - p.hooks_secs()));
        put("trace.clock_ns", &clock_ns());
    }
    s.push('}');
    s
}

/// Same-program check at a short horizon: each hand-assembled run, plain
/// and traced, must serialize to exactly the report `ExperimentConfig::run`
/// (the entry point users call) gives, and all of them conserve funds.
fn check(name: &str, batch: &[workloads::Spec]) -> ExitCode {
    let mut ok = true;
    for spec in batch {
        let want = report_json(&spec.cfg.run().expect("experiment runs"));
        let plain = assemble::run::<false>(spec).report;
        let traced = assemble::run::<true>(spec).report;
        for (label, r) in [("plain", &plain), ("traced", &traced)] {
            if report_json(r) != want {
                eprintln!(
                    "{name} (seed {}): the {label} hand-assembled report differs from \
                     ExperimentConfig::run",
                    spec.cfg.seed
                );
                ok = false;
            }
        }
    }
    println!(
        "{{\"check\":\"{name}\",\"experiments\":{},\"ok\":{ok}}}",
        batch.len()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
