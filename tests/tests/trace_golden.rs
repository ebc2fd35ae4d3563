//! Golden payment-lifecycle traces: exact JSONL output recorded for tiny
//! fixed-seed runs in each engine operating mode (lockstep, Windowed AIMD,
//! and the queueing §5 protocol).
//!
//! The trace is an *observation* layer: it must be bit-reproducible for a
//! fixed seed (same `(time, seq)` event order every run) and must never
//! perturb the simulation itself. Each test renders the trace twice from
//! independent runs and compares byte-for-byte, then checks the pinned
//! golden under `tests/goldens/`. Regenerate with `UPDATE_GOLDENS=1` after
//! an *intentional* trace-schema change. A last test checks the trace
//! misses no unit drop in either engine mode.

use spider_core::congestion::{WindowConfig, Windowed};
use spider_core::{ExperimentConfig, SchemeConfig, TopologyConfig};
use spider_routing::ShortestPath;
use spider_sim::{
    DropBreakdown, QueueConfig, QueueingMode, Router, SimConfig, SimReport, SizeDistribution,
    Trace, WorkloadConfig,
};
use spider_types::{DropReason, SimDuration};
use std::path::PathBuf;

/// A run small enough that its golden stays a few KB: the 5-node §5.1
/// example topology, a dozen constant-size payments, a short horizon.
fn tiny_experiment(seed: u64, scheme: SchemeConfig) -> ExperimentConfig {
    ExperimentConfig {
        topology: TopologyConfig::PaperExample { capacity_xrp: 200 },
        workload: WorkloadConfig {
            count: 12,
            rate_per_sec: 10.0,
            size: SizeDistribution::Constant { xrp: 40.0 },
            sender_skew_scale: 4.0,
        },
        sim: SimConfig {
            horizon: SimDuration::from_secs(4),
            ..SimConfig::default()
        },
        scheme,
        dynamics: None,
        faults: None,
        overload: None,
        seed,
    }
}

/// Runs `cfg` with tracing on (against `router` when given) and returns
/// the report with its sealed trace.
fn run_traced(cfg: &ExperimentConfig, router: Option<Box<dyn Router>>) -> (SimReport, Trace) {
    let mut cfg = cfg.clone();
    cfg.sim.obs.trace = true;
    let run = cfg.simulate(router).expect("runs");
    (run.report, run.trace.expect("tracing was enabled"))
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

/// Compares `jsonl` against the pinned golden (or rewrites it when
/// `UPDATE_GOLDENS` is set), and checks the Chrome render is valid JSON.
fn check_golden(name: &str, trace: &Trace) {
    let jsonl = trace.to_jsonl();
    assert!(!jsonl.is_empty(), "{name}: trace rendered empty");
    serde_json::parse(&trace.to_chrome_trace())
        .unwrap_or_else(|e| panic!("{name}: chrome trace is not valid JSON: {e}"));

    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir goldens");
        std::fs::write(&path, &jsonl).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); record it with UPDATE_GOLDENS=1",
            path.display()
        )
    });
    if jsonl != want {
        // A full assert_eq! on multi-KB strings is unreadable; report the
        // first diverging line instead.
        for (i, (got, exp)) in jsonl.lines().zip(want.lines()).enumerate() {
            assert_eq!(got, exp, "{name}: first divergence at line {}", i + 1);
        }
        assert_eq!(
            jsonl.lines().count(),
            want.lines().count(),
            "{name}: line counts differ"
        );
        panic!("{name}: traces differ only in trailing whitespace?");
    }
}

#[test]
fn lockstep_shortest_path_trace_is_reproducible_and_matches_golden() {
    let cfg = tiny_experiment(11, SchemeConfig::ShortestPath);
    let (r1, t1) = run_traced(&cfg, None);
    let (r2, t2) = run_traced(&cfg, None);
    assert_eq!(r1.completed_payments, r2.completed_payments);
    assert_eq!(
        t1.to_jsonl(),
        t2.to_jsonl(),
        "trace is not bit-reproducible"
    );
    assert!(
        r1.completed_payments > 0,
        "nothing completed; golden is vacuous"
    );
    check_golden("trace_lockstep_shortest.jsonl", &t1);
}

#[test]
fn windowed_aimd_trace_is_reproducible_and_matches_golden() {
    let cfg = tiny_experiment(11, SchemeConfig::ShortestPath);
    // A window smaller than the 40-XRP payments forces the AIMD gate to
    // stagger injects, so this golden pins behavior the bare lockstep
    // golden cannot reach (it must NOT be byte-identical to it).
    let wcfg = WindowConfig {
        initial: spider_types::Amount::from_xrp(20),
        ..WindowConfig::default()
    };
    let windowed = || Box::new(Windowed::new(ShortestPath::new(), wcfg.clone()));
    let (r1, t1) = run_traced(&cfg, Some(windowed()));
    let (_, t2) = run_traced(&cfg, Some(windowed()));
    assert_eq!(
        t1.to_jsonl(),
        t2.to_jsonl(),
        "trace is not bit-reproducible"
    );
    assert!(
        r1.completed_payments > 0,
        "nothing completed; golden is vacuous"
    );
    let lockstep = std::fs::read_to_string(golden_path("trace_lockstep_shortest.jsonl"));
    if let Ok(lockstep) = lockstep {
        assert_ne!(
            t1.to_jsonl(),
            lockstep,
            "window gating never engaged; golden duplicates the lockstep one"
        );
    }
    check_golden("trace_windowed_shortest.jsonl", &t1);
}

#[test]
fn fault_injected_trace_is_reproducible_and_matches_golden() {
    let mut cfg = tiny_experiment(11, SchemeConfig::ShortestPath);
    // Heavy loss plus a crash-prone plan: the golden pins the `fault`
    // (crash/recover) and `refund` (fault-refunded unit) event kinds and
    // the fault `DropReason` spellings that zero-fault goldens never emit.
    cfg.faults = Some(spider_faults::FaultConfig {
        message_loss_prob: 0.2,
        ack_loss_prob: 0.1,
        stuck_unit_prob: 0.05,
        jitter_range_ms: None,
        spike_prob: 0.0,
        spike_ms: 0.0,
        hop_timeout_secs: 0.25,
        crash: Some(spider_faults::CrashConfig {
            rate_per_sec: 1.5,
            recovery_mean_secs: Some(1.0),
        }),
        horizon_secs: 4.0,
    });
    let (r1, t1) = run_traced(&cfg, None);
    let (r2, t2) = run_traced(&cfg, None);
    assert_eq!(r1.faults_injected, r2.faults_injected);
    assert_eq!(
        t1.to_jsonl(),
        t2.to_jsonl(),
        "trace is not bit-reproducible"
    );
    assert!(
        r1.units_dropped_fault > 0,
        "no unit lost to a fault; golden is vacuous"
    );
    assert!(
        r1.fault_events > 0,
        "no crash/recovery fired; golden is vacuous"
    );
    assert!(
        r1.completed_payments > 0,
        "nothing completed; golden only shows failures"
    );
    check_golden("trace_faulted_shortest.jsonl", &t1);
}

#[test]
fn spider_protocol_trace_is_reproducible_and_matches_golden() {
    let mut cfg = tiny_experiment(11, SchemeConfig::spider_protocol(4));
    cfg.sim.queueing = QueueingMode::PerChannelFifo(QueueConfig::default());
    let (r1, t1) = run_traced(&cfg, None);
    let (_, t2) = run_traced(&cfg, None);
    assert_eq!(
        t1.to_jsonl(),
        t2.to_jsonl(),
        "trace is not bit-reproducible"
    );
    assert!(
        r1.completed_payments > 0,
        "nothing completed; golden is vacuous"
    );
    assert!(
        r1.units_queued > 0 || r1.units_acked > 0,
        "protocol machinery never engaged; golden is vacuous"
    );
    check_golden("trace_spider_protocol.jsonl", &t1);
}

/// Every unit drop is traced, in both engine modes: under churn, faults
/// and griefing at once, the per-reason counts of `refund` (lockstep)
/// and `drop` (hop-by-hop) events equal the report's `drops_by_reason`,
/// less the payment-level admission rejections (traced as `expire`).
#[test]
fn every_unit_drop_is_traced_under_churn_faults_and_griefing() {
    let schemes = [
        SchemeConfig::SpiderWaterfilling { paths: 4 },
        SchemeConfig::MaxFlow,
        SchemeConfig::spider_protocol(4),
    ];
    for scheme in schemes {
        let cfg = ExperimentConfig {
            topology: TopologyConfig::Isp {
                capacity_xrp: 2_000,
            },
            workload: WorkloadConfig::small(500, 150.0),
            sim: SimConfig {
                horizon: SimDuration::from_secs(5),
                ..SimConfig::default()
            },
            scheme,
            dynamics: Some(spider_dynamics::DynamicsConfig {
                close_rate_per_sec: 2.0,
                reopen_mean_secs: Some(1.0),
                node_leave_rate_per_sec: 0.2,
                horizon_secs: 5.0,
                ..spider_dynamics::DynamicsConfig::default()
            }),
            faults: Some(spider_faults::FaultConfig {
                message_loss_prob: 0.02,
                stuck_unit_prob: 0.01,
                hop_timeout_secs: 0.25,
                horizon_secs: 5.0,
                ..spider_faults::FaultConfig::default()
            }),
            overload: Some(spider_overload::OverloadConfig {
                flash_crowd: None,
                hot_pairs: None,
                drain: None,
                griefing: Some(spider_overload::GriefingConfig {
                    fraction: 0.05,
                    hold_secs: 0.5,
                }),
                horizon_secs: 5.0,
            }),
            seed: 7,
        };
        let (report, trace) = run_traced(&cfg, None);
        let mut traced = DropBreakdown::default();
        for line in trace.to_jsonl().lines() {
            let v = serde_json::parse(line).expect("trace line is valid JSON");
            if !matches!(v["ev"].as_str(), Some("refund" | "drop")) {
                continue;
            }
            let name = v["reason"].as_str().expect("drop events carry a reason");
            let reason = DropReason::ALL
                .into_iter()
                .find(|r| r.name() == name)
                .expect("reason spelled as DropReason::name");
            *traced.slot_mut(reason) += 1;
        }
        let mut want = report.drops_by_reason;
        want.admission_rejected = 0;
        assert_eq!(traced, want, "{}: traced drops != report", report.scheme);
        let d = &report.drops_by_reason;
        assert!(
            d.channel_closed > 0,
            "{}: churn failed no unit",
            report.scheme
        );
        assert!(d.fault_total() > 0, "{}: no fault landed", report.scheme);
    }
}
