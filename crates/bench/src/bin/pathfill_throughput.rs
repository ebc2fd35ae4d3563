//! Candidate-path fill benchmark: wall-clock cost of computing every
//! (src, dst) pair's candidate set on the 3,774-node Ripple-like graph,
//! plus the small-graph side of the same search on the 32-node ISP graph.
//!
//! ROADMAP's hot-path analysis found `ripple-fifo-protocol` wall time
//! dominated by the lazy per-pair `k_edge_disjoint_paths` fill (4 BFS plus
//! a workspace allocation per pair). This bin measures the replacement —
//! the batched per-source `PathOracle` behind `PathCache::prefill` — on
//! the exact pair list of the seed-42 ripple workload, next to a live
//! re-measurement of the lazy fill, and judges it against the committed
//! pre-oracle numbers in `baselines/pathfill_lazy.json`. The
//! `isp-32-edge-disjoint-k4` row fills all 992 ordered ISP pairs under each
//! of a fixed, seeded set of closed-channel masks — the shape of churn
//! repair, where every search is short and the graph is one bitset word.
//!
//! Two correctness gates ride along; the bin exits non-zero if either
//! fails, because this is a *throughput* benchmark, never a routing
//! change:
//!
//! * `matches_lazy` — the prefetched candidate sets (and the `PathId`s the
//!   fill order assigns) equal the lazy cache's, pair by pair;
//! * `matches_digest` — an FNV-1a digest of every pair's candidate node
//!   sequences equals the one committed in the baseline file. Both sides
//!   of `matches_lazy` run the same path search, so only the digest pins
//!   the candidate sets against an earlier implementation. Digests are
//!   recorded for seed 42 (full and `--quick` inputs).
//!
//! ```sh
//! cargo run --release -p spider-bench --bin pathfill_throughput -- --out .
//! # CI smoke (400-node graph, no throughput baseline comparison):
//! cargo run --release -p spider-bench --bin pathfill_throughput -- --quick --out .
//! ```

use spider_routing::{PathCache, PathPolicy};
use spider_sim::{PathTable, SizeDistribution, TopologyUpdate, Workload, WorkloadConfig};
use spider_topology::Topology;
use spider_types::{Amount, ChannelId, DetRng, NodeId};
use std::path::PathBuf;
use std::time::Instant;

/// The lazy per-pair fill throughput recorded on the pre-oracle tree
/// (seed 42, single core), and the expected candidate-set digests.
const BASELINE_JSON: &str = include_str!("../../baselines/pathfill_lazy.json");

/// The seed the committed throughput baselines and digests belong to.
const BASELINE_SEED: u64 = 42;

struct Case {
    name: &'static str,
    policy: PathPolicy,
}

/// One benchmark input: a graph, its pair list, and the closed-channel
/// masks every pair is filled under (one empty mask for a static graph).
struct Input {
    topology: &'static str,
    topo: Topology,
    pairs: Vec<(NodeId, NodeId)>,
    masks: Vec<Vec<ChannelId>>,
    cases: Vec<Case>,
}

struct Run {
    config: String,
    name: &'static str,
    pairs: usize,
    paths_interned: usize,
    lazy_wall: f64,
    batched_wall: f64,
    matches_lazy: bool,
    digest: u64,
}

/// The workload pair list on the Ripple-like graph: distinct (src, dst)
/// in first-arrival order — exactly what `Simulation::run` hands to
/// `Router::prewarm`.
fn ripple_input(seed: u64, quick: bool) -> Input {
    let (nodes, count, topology) = if quick {
        (400, 2_000, "ripple-400")
    } else {
        (spider_topology::gen::RIPPLE_NODES, 10_000, "ripple-3774")
    };
    let rng = DetRng::new(seed);
    let mut trng = rng.fork("topology");
    let raw = spider_topology::gen::ripple_like(nodes, Amount::from_xrp(30_000), &mut trng);
    let topo = spider_topology::analysis::largest_component(&raw);
    let mut wrng = rng.fork("workload");
    let wl = Workload::generate(
        topo.node_count(),
        &WorkloadConfig {
            count,
            rate_per_sec: 75_000.0 / 85.0,
            size: SizeDistribution::RippleFull,
            sender_skew_scale: nodes as f64 / 8.0,
        },
        &mut wrng,
    );
    Input {
        topology,
        pairs: wl.distinct_pairs(None),
        topo,
        masks: vec![Vec::new()],
        cases: vec![
            Case {
                name: "edge-disjoint-k4",
                policy: PathPolicy::EdgeDisjoint(4),
            },
            Case {
                name: "yen-k4",
                policy: PathPolicy::KShortest(4),
            },
            Case {
                name: "shortest",
                policy: PathPolicy::Shortest,
            },
        ],
    }
}

/// Closed-channel masks of the ISP row.
const ISP_MASKS: usize = 64;
/// Chance that a mask closes a given channel.
const ISP_CLOSE_CHANCE: f64 = 0.1;

/// Every ordered pair of the ISP graph under `ISP_MASKS` seeded masks.
fn isp_input(seed: u64) -> Input {
    let topo = spider_topology::gen::isp_topology(Amount::from_xrp(30_000));
    let n = topo.node_count() as u32;
    let pairs = (0..n)
        .flat_map(|s| {
            (0..n)
                .filter(move |&d| d != s)
                .map(move |d| (NodeId(s), NodeId(d)))
        })
        .collect();
    let mut mrng = DetRng::new(seed).fork("isp-masks");
    let masks = (0..ISP_MASKS)
        .map(|_| {
            topo.channels()
                .map(|(id, _)| id)
                .filter(|_| mrng.chance(ISP_CLOSE_CHANCE))
                .collect()
        })
        .collect();
    Input {
        topology: "isp-32",
        topo,
        pairs,
        masks,
        cases: vec![Case {
            name: "edge-disjoint-k4",
            policy: PathPolicy::EdgeDisjoint(4),
        }],
    }
}

/// FNV-1a (64-bit) over a stream of `u32`s: a stable, dependency-free
/// fingerprint of every candidate set.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, x: u32) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// A fresh cache that sees `mask`'s channels closed, as churn repair does.
fn masked_cache(
    topo: &Topology,
    table: &PathTable,
    policy: PathPolicy,
    mask: &[ChannelId],
) -> PathCache {
    let mut cache = PathCache::new(policy);
    if !mask.is_empty() {
        let update = TopologyUpdate {
            closed: mask.to_vec(),
            ..TopologyUpdate::default()
        };
        cache.on_topology_change(topo, table, &update);
    }
    cache
}

/// Wall-clock measurements take the fastest of `REPS` runs: the minimum
/// is the least-noise estimator of the true cost on a shared box, and it
/// is applied to the lazy and the batched side alike.
const REPS: usize = 3;

fn run_case(case: &Case, input: &Input) -> Run {
    let (topo, pairs) = (&input.topo, input.pairs.as_slice());
    let config = format!("{}-{}", input.topology, case.name);
    let mut lazy_wall = f64::INFINITY;
    let mut batched_wall = f64::INFINITY;
    let mut matches_lazy = true;
    let mut digest = Digest::new();
    let mut paths_interned = 0;
    for rep in 0..REPS {
        let (mut lazy_t, mut batched_t) = (0.0, 0.0);
        for mask in &input.masks {
            // Lazy reference: one `PathCache::get` per pair, in pair order.
            let lazy_table = PathTable::new();
            let mut lazy = masked_cache(topo, &lazy_table, case.policy, mask);
            let t0 = Instant::now();
            for &(s, d) in pairs {
                lazy.get(topo, &lazy_table, s, d);
            }
            lazy_t += t0.elapsed().as_secs_f64();
            // Batched: one `prefill` over the whole pair list.
            let table = PathTable::new();
            let mut cache = masked_cache(topo, &table, case.policy, mask);
            let t0 = Instant::now();
            cache.prefill(topo, &table, pairs);
            batched_t += t0.elapsed().as_secs_f64();
            if rep + 1 < REPS {
                continue;
            }
            paths_interned += table.len();
            // Candidate sets — and the PathIds this fill order assigns —
            // must be bit-identical to the lazy path. Ids are compared
            // *and* resolved to their node sequences: two
            // independently-interned tables can hand out equal ids for
            // different paths, so the id check alone could miss a
            // same-position drift.
            let mut same = table.len() == lazy_table.len();
            for &(s, d) in pairs {
                let batched_ids = cache.get(topo, &table, s, d).to_vec();
                let lazy_ids = lazy.get(topo, &lazy_table, s, d);
                let pair_same = batched_ids == lazy_ids
                    && batched_ids
                        .iter()
                        .zip(lazy_ids)
                        .all(|(&b, &l)| table.entry(b).nodes() == lazy_table.entry(l).nodes());
                digest.add(s.0);
                digest.add(d.0);
                digest.add(batched_ids.len() as u32);
                for &b in &batched_ids {
                    let entry = table.entry(b);
                    digest.add(entry.nodes().len() as u32);
                    for node in entry.nodes() {
                        digest.add(node.0);
                    }
                }
                if same && !pair_same {
                    eprintln!("ERROR: {config}: candidate set for {s}->{d} drifted");
                }
                same &= pair_same;
            }
            matches_lazy &= same;
        }
        lazy_wall = lazy_wall.min(lazy_t);
        batched_wall = batched_wall.min(batched_t);
    }
    Run {
        config,
        name: case.name,
        pairs: pairs.len() * input.masks.len(),
        paths_interned,
        lazy_wall,
        batched_wall,
        matches_lazy,
        digest: digest.0,
    }
}

/// What the baseline file records for one config.
#[derive(Default)]
struct Recorded {
    /// Lazy-fill throughput on the pre-oracle tree (full-scale Ripple
    /// configs only).
    pairs_per_sec: Option<f64>,
    /// Expected candidate-set digest.
    digest: Option<String>,
}

/// The committed baseline record of a config (empty when not recorded).
fn baseline(config: &str) -> Recorded {
    let root = serde_json::parse(BASELINE_JSON).ok();
    let record = root
        .as_ref()
        .and_then(|root| root["runs"].as_array())
        .and_then(|runs| runs.iter().find(|r| r["config"].as_str() == Some(config)))
        .and_then(serde_json::Value::as_object);
    let Some(fields) = record else {
        return Recorded::default();
    };
    let field = |name| serde_json::Value::get_field(fields, name);
    Recorded {
        pairs_per_sec: field("pairs_per_sec").as_f64(),
        digest: field("digest").as_str().map(str::to_string),
    }
}

fn main() {
    let mut quick = false;
    let mut seed = BASELINE_SEED;
    let mut out_dir = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed requires an integer");
            }
            "--out" => out_dir = PathBuf::from(args.next().expect("--out requires a path")),
            "--help" | "-h" => {
                eprintln!("options: --quick  --seed N  --out DIR");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown option {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    // Baselines and digests were recorded on the seed-42 inputs (the
    // throughput baseline only on the full-scale Ripple pair list).
    let at_baseline_seed = seed == BASELINE_SEED;
    if !at_baseline_seed {
        eprintln!(
            "note: baselines were recorded at seed {BASELINE_SEED}; \
             skipping baseline and digest comparison"
        );
    }

    let mut records = Vec::new();
    let mut speedups: Vec<f64> = Vec::new();
    let mut failed = false;
    for input in [ripple_input(seed, quick), isp_input(seed)] {
        eprintln!(
            "{}: {} nodes, {} channels, {} pairs x {} masks",
            input.topology,
            input.topo.node_count(),
            input.topo.channel_count(),
            input.pairs.len(),
            input.masks.len()
        );
        for case in &input.cases {
            eprintln!("running {}-{}…", input.topology, case.name);
            let run = run_case(case, &input);
            let lazy_pps = run.pairs as f64 / run.lazy_wall.max(1e-9);
            let batched_pps = run.pairs as f64 / run.batched_wall.max(1e-9);
            let recorded = if at_baseline_seed {
                baseline(&run.config)
            } else {
                Recorded::default()
            };
            let speedup = recorded.pairs_per_sec.map(|b| batched_pps / b);
            let digest = format!("{:016x}", run.digest);
            let matches_digest = recorded.digest.as_ref().map(|e| *e == digest);
            failed |= !run.matches_lazy || matches_digest == Some(false);
            eprintln!(
                "  lazy {:.3}s ({:.0} pairs/s) → batched {:.3}s ({:.0} pairs/s){}; digest {digest}{}",
                run.lazy_wall,
                lazy_pps,
                run.batched_wall,
                batched_pps,
                speedup
                    .map(|s| format!(", {s:.2}x vs committed lazy baseline"))
                    .unwrap_or_default(),
                match matches_digest {
                    Some(true) => " (matches baseline)",
                    Some(false) => " (ERROR: baseline digest differs)",
                    None => "",
                },
            );
            if let Some(s) = speedup {
                speedups.push(s);
            }
            let json_opt = |v: Option<String>| v.unwrap_or_else(|| "null".to_string());
            records.push(format!(
                "{{\"config\":\"{}\",\"topology\":\"{}\",\"policy\":\"{}\",\
                 \"pairs\":{},\"paths_interned\":{},\
                 \"lazy_wall_seconds\":{:.4},\"lazy_pairs_per_sec\":{:.0},\
                 \"batched_wall_seconds\":{:.4},\"batched_pairs_per_sec\":{:.0},\
                 \"live_speedup\":{:.2},\
                 \"baseline_pairs_per_sec\":{},\"speedup_vs_baseline\":{},\
                 \"matches_lazy\":{},\"digest\":\"{digest}\",\"expected_digest\":{},\
                 \"matches_digest\":{}}}",
                run.config,
                input.topology,
                run.name,
                run.pairs,
                run.paths_interned,
                run.lazy_wall,
                lazy_pps,
                run.batched_wall,
                batched_pps,
                batched_pps / lazy_pps.max(1e-9),
                json_opt(recorded.pairs_per_sec.map(|b| format!("{b:.0}"))),
                json_opt(speedup.map(|v| format!("{v:.2}"))),
                run.matches_lazy,
                json_opt(recorded.digest.map(|e| format!("\"{e}\""))),
                json_opt(matches_digest.map(|m| m.to_string())),
            ));
        }
    }
    let geomean = (!speedups.is_empty()).then(|| {
        let log_sum: f64 = speedups.iter().map(|s| s.ln()).sum();
        (log_sum / speedups.len() as f64).exp()
    });
    let doc = format!(
        "{{\"bench\":\"pathfill_throughput\",\"seed\":{seed},\"quick\":{quick},\
         \"geomean_speedup\":{},\"runs\":[\n{}\n]}}\n",
        geomean
            .map(|g| format!("{g:.2}"))
            .unwrap_or_else(|| "null".to_string()),
        records.join(",\n"),
    );
    print!("{doc}");
    if let Some(g) = geomean {
        eprintln!("geomean pair-fill speedup vs committed lazy baseline: {g:.2}x");
    }
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let path = out_dir.join("BENCH_pathfill.json");
    std::fs::write(&path, &doc).expect("write BENCH_pathfill.json");
    eprintln!("wrote {}", path.display());
    // Validate that what we wrote parses (the CI smoke step relies on it).
    serde_json::parse(&doc).expect("BENCH_pathfill.json is well-formed JSON");
    // A fill whose candidate sets drifted from the lazy oracle or from the
    // committed digests is not a faster oracle — it is a different one.
    if failed {
        eprintln!("candidate sets drifted from the lazy oracle or the committed digests; failing");
        std::process::exit(1);
    }
}
