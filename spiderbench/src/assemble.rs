//! One run assembled from the public API, the way `ExperimentConfig::run`
//! does it, with a host clock read between the layers.

use crate::probe::{Probe, ProbeStats};
use crate::workloads::Spec;
use spider_core::experiment::demand_graph;
use spider_dynamics::ChurnSchedule;
use spider_overload::OverloadPlan;
use spider_paygraph::PaymentGraph;
use spider_sim::{ArrivalSource, SimReport, Simulation, SlabStats, StreamingWorkload, Workload};
use spider_types::{DetRng, SimTime};
use std::rc::Rc;
use std::time::Instant;

/// Host seconds per layer of one run.
pub struct Times {
    pub topology: f64,
    pub workload: f64,
    pub scheme_build: f64,
    pub sim_new: f64,
    /// `sim.run()`, prewarm and the event loop included.
    pub run: f64,
    pub conservation: f64,
    /// Start of the build until the last pre-loop router hook returned.
    pub setup: f64,
    /// Start of the build through `check_conservation`.
    pub wall: f64,
}

pub struct Outcome {
    pub report: SimReport,
    pub slab: SlabStats,
    pub times: Times,
    pub probe: Rc<ProbeStats>,
    pub wants_prewarm: bool,
    pub observes_outcomes: bool,
}

/// Builds and runs `spec`; `TIMED` selects the per-hook timing probe.
pub fn run<const TIMED: bool>(spec: &Spec) -> Outcome {
    let cfg = &spec.cfg;
    assert!(cfg.faults.is_none(), "no workload injects faults");
    let t0 = Instant::now();
    let rng = DetRng::new(cfg.seed);
    let topo = cfg.topology.build(&rng).expect("topology builds");
    let n = topo.node_count();
    let t_topology = Instant::now();

    let wrng = rng.fork("workload");
    let (source, demands, overload): (ArrivalSource, _, _) = if spec.streamed {
        // A streamed feed has no materialized list to estimate demand
        // from; the streamed workloads run demand-oblivious schemes.
        let stream = StreamingWorkload::new(n, cfg.workload.clone(), wrng);
        (stream.into(), PaymentGraph::new(n), None)
    } else {
        let mut wrng = wrng;
        let mut workload = Workload::generate(n, &cfg.workload, &mut wrng);
        let demands = demand_graph(&workload, n);
        let plan = cfg.overload.as_ref().map(|ocfg| {
            let plan = OverloadPlan::generate(&topo, ocfg, &mut rng.fork("overload"))
                .expect("overload plan builds");
            let mut trng = DetRng::new(plan.transform_seed);
            for txn in &mut workload.txns {
                txn.time = SimTime::from_secs_f64(plan.warp_secs(txn.time.as_secs_f64()));
                (txn.src, txn.dst) = plan.transform_pair(txn.src, txn.dst, &mut trng);
            }
            plan
        });
        (workload.into(), demands, plan)
    };
    let t_workload = Instant::now();

    let inner = cfg
        .scheme
        .build(&topo, &demands, cfg.sim.confirmation_delay.as_secs_f64());
    let wants_prewarm = inner.wants_prewarm();
    let observes_outcomes = inner.observes_unit_outcomes();
    let probe = Rc::new(ProbeStats::default());
    let router = Box::new(Probe::<TIMED>::new(inner, Rc::clone(&probe)));
    let t_scheme = Instant::now();

    let mut sim =
        Simulation::new(topo, source, router, cfg.effective_sim()).expect("simulation builds");
    if let Some(dcfg) = &cfg.dynamics {
        let schedule = ChurnSchedule::generate(sim.topology(), dcfg, &mut rng.fork("dynamics"))
            .expect("churn schedule builds");
        sim.set_topology_events(schedule.events);
    }
    if let Some(plan) = overload {
        sim.set_overload_plan(plan);
    }
    let t_new = Instant::now();

    let report = sim.run();
    let t_run = Instant::now();
    sim.check_conservation();
    let t_end = Instant::now();

    let setup_end = probe
        .setup_end
        .get()
        .expect("the engine initializes the router");
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Outcome {
        times: Times {
            topology: secs(t0, t_topology),
            workload: secs(t_topology, t_workload),
            scheme_build: secs(t_workload, t_scheme),
            sim_new: secs(t_scheme, t_new),
            run: secs(t_new, t_run),
            conservation: secs(t_run, t_end),
            setup: secs(t0, setup_end),
            wall: secs(t0, t_end),
        },
        slab: sim.slab_stats(),
        report,
        probe,
        wants_prewarm,
        observes_outcomes,
    }
}
