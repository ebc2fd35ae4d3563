//! The named workloads. An instance of one is a batch of experiments, each
//! an `ExperimentConfig` plus the arrival feed the benchmark hands the
//! engine. Every random choice derives from the seed, and arrivals are
//! open-loop in simulated time, so a seed fixes the whole input
//! independently of host speed.

use spider_core::{ExperimentConfig, SchemeConfig, TopologyConfig};
use spider_dynamics::DynamicsConfig;
use spider_overload::{
    DrainConfig, FlashCrowdConfig, GriefingConfig, HotPairsConfig, OverloadConfig,
};
use spider_sim::{
    AdmissionConfig, QueueConfig, QueueingMode, SimConfig, SizeDistribution, WorkloadConfig,
};
use spider_topology::gen::RIPPLE_NODES;
use spider_types::{Amount, SimDuration};

pub const NAMES: [&str; 4] = [
    "ripple-paper-protocol",
    "isp-lockstep-waterfilling",
    "isp-overload-protected",
    "isp-churn-protocol",
];

/// Simulated seconds of arrivals in each experiment of a measured rep.
fn measured_span_secs(name: &str) -> f64 {
    match name {
        "ripple-paper-protocol" => 60.0,
        "isp-lockstep-waterfilling" => 50.0,
        "isp-overload-protected" => 4.0,
        _ => 10.0,
    }
}

/// Simulated seconds of arrivals in the short same-program check.
const CHECK_SPAN_SECS: f64 = 2.0;

/// Experiments per ISP workload instance. On the 32-node ISP graph the
/// seed decides which few nodes send most of the demand (and, under
/// attack, which pairs are hot), which moves success and work by 5–15 %
/// from seed to seed; a batch of independently seeded experiments averages
/// that out. The 3,774-node Ripple graph needs no batch.
fn isp_batch(name: &str) -> u64 {
    match name {
        "isp-overload-protected" => 32,
        _ => 8,
    }
}

/// One experiment of a workload instance.
pub struct Spec {
    pub cfg: ExperimentConfig,
    /// Feed the engine a lazy `StreamingWorkload` instead of a
    /// materialized transaction list.
    pub streamed: bool,
}

/// The experiments of workload `name` at `seed`, run one after another;
/// `short` selects the brief instance the same-program check runs.
pub fn batch(name: &str, seed: u64, short: bool) -> Option<Vec<Spec>> {
    let span = if short {
        CHECK_SPAN_SECS
    } else {
        measured_span_secs(name)
    };
    if name == "ripple-paper-protocol" {
        return Some(vec![Spec {
            cfg: protocol(ripple(span, seed)),
            streamed: true,
        }]);
    }
    let isp_spec: fn(f64, u64) -> ExperimentConfig = match name {
        "isp-lockstep-waterfilling" => |span, seed| ExperimentConfig {
            scheme: SchemeConfig::SpiderWaterfilling { paths: 4 },
            ..isp(30_000, span, seed)
        },
        "isp-overload-protected" => |span, seed| overload_protected(isp(1_000, span, seed), 4.0),
        "isp-churn-protocol" => |span, seed| {
            let mut cfg = protocol(isp(4_000, span, seed));
            cfg.dynamics = Some(churn(cfg.sim.horizon.as_secs_f64()).scaled(2.0));
            cfg
        },
        _ => return None,
    };
    let n = isp_batch(name);
    let first = seed.wrapping_mul(n);
    let specs = (0..n)
        .map(|i| Spec {
            cfg: isp_spec(span, first.wrapping_add(i)),
            streamed: false,
        })
        .collect();
    Some(specs)
}

/// The §6.1 ISP graph at 1,000 tx/s with the paper's ISP size mix.
fn isp(capacity_xrp: u64, span_secs: f64, seed: u64) -> ExperimentConfig {
    let rate = 1_000.0;
    let count = (span_secs * rate) as usize;
    ExperimentConfig {
        topology: TopologyConfig::Isp { capacity_xrp },
        workload: WorkloadConfig {
            count,
            rate_per_sec: rate,
            size: SizeDistribution::RippleIsp,
            sender_skew_scale: 8.0,
        },
        sim: SimConfig {
            horizon: SimDuration::from_secs_f64(count as f64 / rate + 1.0),
            mtu: Amount::from_xrp(10),
            ..SimConfig::default()
        },
        scheme: SchemeConfig::ShortestPath,
        dynamics: None,
        faults: None,
        overload: None,
        seed,
    }
}

/// The full 3,774-node Ripple-like graph at the paper's 75,000/85 tx/s.
fn ripple(span_secs: f64, seed: u64) -> ExperimentConfig {
    let rate = 75_000.0 / 85.0;
    let count = (span_secs * rate) as usize;
    ExperimentConfig {
        topology: TopologyConfig::RippleLike {
            nodes: RIPPLE_NODES,
            capacity_xrp: 30_000,
        },
        workload: WorkloadConfig {
            count,
            rate_per_sec: rate,
            size: SizeDistribution::RippleFull,
            sender_skew_scale: RIPPLE_NODES as f64 / 8.0,
        },
        sim: SimConfig {
            horizon: SimDuration::from_secs_f64(count as f64 / rate + 1.0),
            mtu: Amount::from_xrp(20),
            ..SimConfig::default()
        },
        scheme: SchemeConfig::ShortestPath,
        dynamics: None,
        faults: None,
        overload: None,
        seed,
    }
}

/// The §5 protocol (k = 4) over per-channel FIFO queues.
fn protocol(cfg: ExperimentConfig) -> ExperimentConfig {
    let mut cfg = ExperimentConfig {
        scheme: SchemeConfig::spider_protocol(4),
        ..cfg
    };
    cfg.sim.queueing = QueueingMode::PerChannelFifo(QueueConfig::default());
    cfg
}

/// `overload_resilience`'s protected grid point at `load`× the base rate:
/// the same demand offered faster under the full attack (flash crowd, hot
/// pairs, drain, griefing), with 256-unit queues, deadline-aware shedding
/// and a shaping admission gate at the base rate. The protocol router's
/// circuit breakers are always on.
fn overload_protected(base: ExperimentConfig, load: f64) -> ExperimentConfig {
    let mut cfg = protocol(base);
    let base_rate = cfg.workload.rate_per_sec;
    let span_1x = cfg.workload.count as f64 / base_rate;
    let span = span_1x / load;
    cfg.workload.rate_per_sec = base_rate * load;
    cfg.sim.horizon = SimDuration::from_secs_f64(span_1x * 2.0 + 6.0);
    cfg.overload = Some(OverloadConfig {
        flash_crowd: Some(FlashCrowdConfig {
            start_secs: span * 0.3,
            duration_secs: span * 0.1,
            rate_multiplier: 2.0,
        }),
        hot_pairs: Some(HotPairsConfig::default()),
        drain: Some(DrainConfig::default()),
        griefing: Some(GriefingConfig {
            fraction: 0.05,
            hold_secs: 5.0,
        }),
        horizon_secs: span,
    });
    cfg.sim.queueing = QueueingMode::PerChannelFifo(QueueConfig {
        max_queue_delay: SimDuration::from_secs(10),
        max_queue_units: 256,
        ..QueueConfig::default()
    });
    cfg.sim.shedding = true;
    cfg.sim.admission = Some(AdmissionConfig {
        rate_per_sec: base_rate,
        defer: true,
        ..AdmissionConfig::default()
    });
    cfg
}

/// `churn_resilience`'s base (1×) churn schedule over `horizon_secs`.
fn churn(horizon_secs: f64) -> DynamicsConfig {
    DynamicsConfig {
        close_rate_per_sec: 0.4,
        reopen_mean_secs: Some(3.0),
        resize_rate_per_sec: 0.2,
        resize_factor_range: [0.5, 2.0],
        node_leave_rate_per_sec: 0.04,
        spawn_fraction: 0.04,
        flap_channels: 2,
        flap_period_secs: 5.0,
        horizon_secs,
    }
}
