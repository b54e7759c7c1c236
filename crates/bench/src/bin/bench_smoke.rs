//! Headless bench smoke: old-vs-new substrate microbenchmarks plus a
//! reduced E1/E6 sweep, written to `BENCH_substrate.json`, the E11
//! sweep-scaling row (jobs=1 vs jobs=all on a 16-seed chaos campaign),
//! written to `BENCH_sweep.json`, and the E13 `max_digis_per_sec` scaling
//! row (pooled testbeds at 10k/100k digis vs a per-digi-timer
//! baseline), written to `BENCH_scale.json`, and the E14 `islands_speedup`
//! row (one 2k-digi sim space-partitioned across island kernels at 1
//! worker vs one per core), written to `BENCH_islands.json`. Set
//! `DIGIBOX_E13_FULL=1` to add the million-digi row (minutes, not
//! CI-smoke material).
//!
//! It runs in minutes and needs no harness, so CI can execute it
//! report-only:
//!
//! ```text
//! cargo run --release -p digibox-bench --bin bench_smoke [out.json] [sweep.json] [obs.json] [scale.json] [islands.json]
//! ```
//!
//! Timings use `std::time::Instant`; each microbench is repeated and the
//! best of N kept, which is noisy but stable enough for the ≥2×/≥3×
//! speedup gates tracked in EXPERIMENTS.md.

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::time::Instant;

use digibox_bench::baseline::{OldEventQueue, OldTopicTrie};
use digibox_bench::{build_deployment, laptop, measure_gets, parallel_sweep, report};
use digibox_broker::TopicTrie;
use digibox_core::campaign::Campaign;
use digibox_core::islands::{self, IslandEnv, IslandSpec};
use digibox_core::properties::DigiCondition;
use digibox_core::{Condition, SceneProperty, Testbed, TestbedConfig};
use digibox_devices::full_catalog;
use digibox_net::chaos::{FaultKind, FaultPlan, FaultSpec};
use digibox_model::json::ToValue;
use digibox_model::{vmap, Value};
use digibox_net::{EventWheel, SimDuration};

const TIMERS: u64 = 1024;
const ROUNDS: u64 = 64;
const PERIOD_NS: u64 = 10_000_000;
const STANDING: u64 = 2048;
const REPS: usize = 7;

/// Best-of-N wall-clock seconds for `f`, with the result black-boxed by
/// summing into a sink the caller asserts on.
fn best_of<F: FnMut() -> u64>(mut f: F) -> (f64, u64) {
    let mut best = f64::MAX;
    let mut sink = 0;
    for _ in 0..REPS {
        let t = Instant::now();
        sink = f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best, sink)
}

fn periodic_old() -> u64 {
    let mut q = OldEventQueue::new();
    let mut seq = 0u64;
    let horizon = PERIOD_NS * ROUNDS;
    for s in 0..STANDING {
        q.push(horizon + 1 + s * 1_000_000, seq, u64::MAX - s);
        seq += 1;
    }
    for t in 0..TIMERS {
        q.push(1 + t * (PERIOD_NS / TIMERS), seq, t);
        seq += 1;
    }
    let mut fired = 0u64;
    while let Some((at, _, t)) = q.pop() {
        if at > horizon {
            break;
        }
        fired += 1;
        if at < horizon {
            q.push(at + PERIOD_NS, seq, t);
            seq += 1;
        }
    }
    fired
}

fn periodic_new() -> u64 {
    let mut q = EventWheel::new();
    let mut seq = 0u64;
    let horizon = PERIOD_NS * ROUNDS;
    for s in 0..STANDING {
        q.push(horizon + 1 + s * 1_000_000, seq, u64::MAX - s);
        seq += 1;
    }
    for t in 0..TIMERS {
        q.push(1 + t * (PERIOD_NS / TIMERS), seq, t);
        seq += 1;
    }
    let mut fired = 0u64;
    while let Some((at, _, t)) = q.pop() {
        if at > horizon {
            break;
        }
        fired += 1;
        if at < horizon {
            q.push(at + PERIOD_NS, seq, t);
            seq += 1;
        }
    }
    fired
}

fn filters(n: usize) -> Vec<String> {
    let mut f: Vec<String> = (0..n).map(|i| format!("digibox/mock/O{i}/status")).collect();
    f.push("digibox/mock/+/status".into());
    f.push("digibox/#".into());
    f
}

fn routing_old(trie: &OldTopicTrie<u32>, topics: &[String], publishes: usize) -> u64 {
    let mut routed = 0u64;
    for i in 0..publishes {
        let mut routes: Vec<u32> = trie.lookup(&topics[i % topics.len()]).into_iter().copied().collect();
        routes.sort_unstable();
        routes.dedup();
        routed += routes.len() as u64;
    }
    routed
}

fn routing_new(trie: &TopicTrie<u32>, topics: &[String], publishes: usize) -> u64 {
    let mut cache: HashMap<String, Rc<[u32]>> = HashMap::new();
    let mut routed = 0u64;
    for i in 0..publishes {
        let topic = &topics[i % topics.len()];
        let routes = match cache.get(topic) {
            Some(r) => Rc::clone(r),
            None => {
                let mut r: Vec<u32> = trie.lookup(topic).into_iter().copied().collect();
                r.sort_unstable();
                r.dedup();
                let r: Rc<[u32]> = r.into();
                cache.insert(topic.clone(), Rc::clone(&r));
                r
            }
        };
        routed += routes.len() as u64;
    }
    routed
}

/// The E11 fixture: a short chaos campaign (one crash window over a 10s
/// run) on the room/lamp/occupancy scene. One call = one seed's full
/// simulated campaign — heavy enough that thread-level parallelism is what
/// the wall-clock measures, not startup.
fn sweep_plan() -> FaultPlan {
    FaultPlan::new("e11", 10_000, 1_000).with(FaultSpec {
        at_ms: 2_000,
        duration_ms: 2_000,
        jitter_ms: 1_000,
        kind: FaultKind::CrashDigi { digi: "L1".into() },
    })
}

fn sweep_testbed(seed: u64) -> digibox_core::Result<Testbed> {
    let config = TestbedConfig { seed, logging: false, ..Default::default() };
    let mut tb = Testbed::ec2(2, full_catalog(), config);
    tb.run_with("Occupancy", "O1", Default::default(), true)?;
    tb.run_with("Room", "R1", Default::default(), false)?;
    tb.run_with("Lamp", "L1", Default::default(), false)?;
    tb.run_for(SimDuration::from_secs(1));
    tb.attach("O1", "R1")?;
    tb.attach("L1", "R1")?;
    tb.add_property(SceneProperty::leads_to(
        "lamp-follows-vacancy",
        vec![DigiCondition::new("O1", Condition::eq("triggered", false))],
        vec![DigiCondition::new("L1", Condition::eq("power.status", "off"))],
        SimDuration::from_secs(5),
    ));
    tb.run_for(SimDuration::from_secs(1));
    Ok(tb)
}

/// The E12 fixture: build a 50-sensor deployment with the obs layer on or
/// off and run it for 20 virtual seconds. Returns (wall-clock seconds,
/// kernel events recorded) — the event count is 0 when metrics are off
/// and identical across runs when on (the layer is deterministic).
fn obs_run(seed: u64, metrics: bool) -> (f64, u64) {
    let t = Instant::now();
    let mut tb = Testbed::laptop(
        full_catalog(),
        TestbedConfig { seed, logging: false, metrics, ..Default::default() },
    );
    build_deployment(&mut tb, 50, 2, 0);
    tb.run_for(SimDuration::from_secs(20));
    let wall = t.elapsed().as_secs_f64();
    (wall, tb.obs_snapshot().counter("kernel.events"))
}

/// One E13 measurement: `digis` pooled into 10k-digi pool pods across an
/// EC2 cluster, advanced `virtual_secs`. Returns (wall seconds, kernel
/// events, total pool ticks, batched deliveries, queue-depth histogram).
fn scale_pooled(digis: usize, virtual_secs: u64) -> (f64, u64, u64, u64, Value) {
    const PER_POOL: usize = 10_000;
    // one 10k pool pod (~2510 cpu millis) fits an m5.xlarge (4000); give
    // the cluster one node per pool plus slack for broker + control.
    let nodes = (digis.div_ceil(PER_POOL) + 2) as u32;
    let mut tb = Testbed::ec2(
        nodes,
        full_catalog(),
        TestbedConfig { seed: 13, logging: false, metrics: true, ..Default::default() },
    );
    let mut pools = Vec::new();
    let mut start = 0;
    while start < digis {
        let end = (start + PER_POOL).min(digis);
        let names: Vec<String> = (start..end).map(|i| format!("S{i}")).collect();
        let (pool, _) = tb.run_pool("Occupancy", &names, BTreeMap::new(), false).expect("pool runs");
        pools.push(pool);
        start = end;
    }
    tb.run_for(SimDuration::from_secs(2)); // warm-up: pods start, sessions connect
    let events_before = tb.sim().events_processed();
    let t = Instant::now();
    tb.run_for(SimDuration::from_secs(virtual_secs));
    let wall = t.elapsed().as_secs_f64();
    let events = tb.sim().events_processed() - events_before;
    let ticks: u64 = pools.iter().map(|p| p.borrow().stats().ticks_dispatched).sum();
    let snap = tb.obs_snapshot();
    let batched = snap.counter("kernel.batched_deliveries");
    let depth = snap
        .histograms
        .iter()
        .find(|(name, _)| name == "kernel.queue_depth")
        .map(|(_, h)| {
            vmap! {
                "count" => h.count.to_value(),
                "max" => h.max.to_value(),
                "mean" => h.sum as f64 / h.count.max(1) as f64,
            }
        })
        .unwrap_or(Value::Null);
    (wall, events, ticks, batched, depth)
}

/// The E13 baseline: the same digi kind, one microservice (a one-cell
/// pool with its own session and kernel timer) per digi.
fn scale_per_digi(digis: usize, virtual_secs: u64) -> (f64, u64) {
    // dedicated mock pods are 5 cpu millis each on 4000-milli nodes
    let nodes = (digis / 512 + 2) as u32;
    let mut tb = Testbed::ec2(
        nodes,
        full_catalog(),
        TestbedConfig { seed: 13, logging: false, metrics: true, ..Default::default() },
    );
    for i in 0..digis {
        tb.run_with("Occupancy", &format!("S{i}"), BTreeMap::new(), false).expect("digi runs");
    }
    tb.run_for(SimDuration::from_secs(2));
    let events_before = tb.sim().events_processed();
    let t = Instant::now();
    tb.run_for(SimDuration::from_secs(virtual_secs));
    let wall = t.elapsed().as_secs_f64();
    (wall, tb.sim().events_processed() - events_before)
}

/// The E14 fixture: four islands, each pooling `digis_per_island`
/// occupancy digis into one pool pod — one logical testbed split across
/// island kernels for the space-parallel scaling row.
fn island_specs(digis_per_island: usize) -> Vec<IslandSpec> {
    (0..4)
        .map(|i| {
            IslandSpec::new(format!("pool-{i}"), move |env: &IslandEnv| {
                let mut tb = Testbed::new(
                    env.topology.clone(),
                    full_catalog(),
                    TestbedConfig {
                        seed: env.seed,
                        home_node: Some(env.island as u32),
                        ..Default::default()
                    },
                );
                let names: Vec<String> =
                    (0..digis_per_island).map(|d| format!("P{i}x{d}")).collect();
                tb.run_pool("Occupancy", &names, Default::default(), false)?;
                tb.run_for(SimDuration::from_secs(1));
                Ok(tb)
            })
        })
        .collect()
}

/// One E14 run: the island campaign at the given worker count, reduced
/// to per-island digest strings plus wall-clock, epochs and cross count.
fn islands_run_at(workers: usize) -> (Vec<String>, f64, u64, u64) {
    let t = Instant::now();
    let run = islands::run(
        7,
        island_specs(500),
        workers,
        SimDuration::from_secs(5),
        &[],
        |island, tb, _t0| {
            format!(
                "island={island} now={} digis={} stats={}",
                tb.now().as_nanos(),
                tb.digi_count(),
                tb.obs_snapshot().to_json()
            )
        },
    )
    .expect("e14 island run");
    (run.results, t.elapsed().as_secs_f64(), run.epochs, run.cross_datagrams)
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_substrate.json".into());
    let sweep_path = std::env::args().nth(2).unwrap_or_else(|| "BENCH_sweep.json".into());
    let obs_path = std::env::args().nth(3).unwrap_or_else(|| "BENCH_obs.json".into());
    let scale_path = std::env::args().nth(4).unwrap_or_else(|| "BENCH_scale.json".into());
    let islands_path = std::env::args().nth(5).unwrap_or_else(|| "BENCH_islands.json".into());

    // ---- microbench 1: periodic timers, old heap vs timer wheel ----
    let (heap_s, heap_fired) = best_of(periodic_old);
    let (wheel_s, wheel_fired) = best_of(periodic_new);
    assert_eq!(heap_fired, wheel_fired, "old and new queues disagree on fired count");
    let timer_speedup = heap_s / wheel_s;
    report(
        "smoke",
        &format!("periodic_timer  old={:.3}ms new={:.3}ms speedup={timer_speedup:.2}x", heap_s * 1e3, wheel_s * 1e3),
    );

    // ---- microbench 2: repeated-topic publish routing ----
    let fs = filters(512);
    let mut old_trie = OldTopicTrie::new();
    let mut new_trie = TopicTrie::new();
    for (i, f) in fs.iter().enumerate() {
        old_trie.insert(f, i as u32);
        new_trie.insert(f, i as u32);
    }
    let topics: Vec<String> = (0..8).map(|i| format!("digibox/mock/O{i}/status")).collect();
    let (old_s, old_routed) = best_of(|| routing_old(&old_trie, &topics, 4096));
    let (new_s, new_routed) = best_of(|| routing_new(&new_trie, &topics, 4096));
    assert_eq!(old_routed, new_routed, "old and new routing disagree");
    let routing_speedup = old_s / new_s;
    report(
        "smoke",
        &format!("publish_routing old={:.3}ms new={:.3}ms speedup={routing_speedup:.2}x", old_s * 1e3, new_s * 1e3),
    );

    // ---- reduced E1: request latency on one laptop ----
    let mut tb = laptop(1);
    build_deployment(&mut tb, 50, 2, 0);
    let app = measure_gets(&mut tb, 50, 200);
    let app = app.borrow();
    let h = app.latencies();
    let e1 = vmap! {
        "sensors" => 50, "rooms" => 2, "gets" => 200,
        "mean_ms" => h.mean().as_millis_f64(),
        "p50_ms" => h.p50().as_millis_f64(),
        "p99_ms" => h.p99().as_millis_f64(),
        "count" => h.count().to_value(),
    };
    report("smoke", &format!("E1 reduced: mean={:.2}ms p99={:.2}ms", h.mean().as_millis_f64(), h.p99().as_millis_f64()));

    // ---- reduced E6: latency across seeds (sharded sweep) ----
    let seeds: Vec<u64> = (1..=4).collect();
    let sweep = parallel_sweep(&seeds, |seed| {
        let mut tb = laptop(seed);
        build_deployment(&mut tb, 50, 5, 0);
        let app = measure_gets(&mut tb, 50, 100);
        let app = app.borrow();
        app.latencies().mean().as_millis_f64()
    });
    let e6: Vec<Value> = seeds
        .iter()
        .zip(&sweep)
        .map(|(s, m)| vmap! { "seed" => s.to_value(), "mean_ms" => *m })
        .collect();
    report("smoke", &format!("E6 reduced: per-seed means {sweep:?}"));

    let doc = vmap! {
        "bench" => "substrate_hotpath smoke",
        "harness" => "bench_smoke bin (std::time::Instant, best of 7)",
        "micro" => vmap! {
            "periodic_timer" => vmap! {
                "timers" => TIMERS.to_value(),
                "rounds" => ROUNDS.to_value(),
                "period_ns" => PERIOD_NS.to_value(),
                "standing" => STANDING.to_value(),
                "old_binary_heap_ms" => heap_s * 1e3,
                "new_timer_wheel_ms" => wheel_s * 1e3,
                "speedup" => timer_speedup,
            },
            "publish_routing" => vmap! {
                "subscriptions" => fs.len(),
                "hot_topics" => topics.len(),
                "publishes" => 4096,
                "old_uncached_ms" => old_s * 1e3,
                "new_cached_interned_ms" => new_s * 1e3,
                "speedup" => routing_speedup,
            },
        },
        "e1_reduced" => e1,
        "e6_reduced" => e6,
    };
    std::fs::write(&out_path, doc.to_json_pretty()).expect("write report");
    report("smoke", &format!("wrote {out_path}"));

    // ---- E11: sweep scaling — same 16-seed campaign at jobs=1 vs jobs=all ----
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let seeds: Vec<u64> = (1..=16).collect();
    let campaign = Campaign::new(sweep_plan()).expect("e11 plan validates");

    let t = Instant::now();
    let serial = campaign.run_jobs(&seeds, 1, sweep_testbed).expect("jobs=1 sweep");
    let serial_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let parallel = campaign.run_jobs(&seeds, 0, sweep_testbed).expect("jobs=all sweep");
    let parallel_s = t.elapsed().as_secs_f64();

    let digest_match = serial.digest() == parallel.digest();
    assert!(digest_match, "jobs=1 and jobs={cores} scorecards diverged");
    assert!(serial.errors.is_empty(), "e11 sweep had seed failures");
    let speedup = serial_s / parallel_s;
    report(
        "smoke",
        &format!(
            "E11 sweep scaling: cores={cores} jobs1={serial_s:.2}s jobsN={parallel_s:.2}s \
             speedup={speedup:.2}x digest_match={digest_match}"
        ),
    );

    let sweep_doc = vmap! {
        "bench" => "sweep scaling (E11)",
        "harness" => "bench_smoke bin (std::time::Instant)",
        "cores" => cores,
        "seeds" => seeds.len(),
        "campaign" => vmap! {
            "plan" => "e11",
            "duration_ms" => 10_000,
            "convergence_ms" => 1_000,
        },
        "jobs1" => vmap! {
            "jobs" => 1,
            "wall_clock_s" => serial_s,
            "digest" => serial.digest().to_value(),
        },
        "jobsN" => vmap! {
            "jobs" => cores,
            "wall_clock_s" => parallel_s,
            "digest" => parallel.digest().to_value(),
        },
        "speedup" => speedup,
        "digest_match" => digest_match,
    };
    std::fs::write(&sweep_path, sweep_doc.to_json_pretty()).expect("write sweep report");
    report("smoke", &format!("wrote {sweep_path}"));

    // ---- E12: observability overhead — same scene, metrics on vs off ----
    let mut on_best = f64::MAX;
    let mut off_best = f64::MAX;
    let mut events = 0u64;
    for _ in 0..3 {
        let (on_s, on_events) = obs_run(1, true);
        let (off_s, off_events) = obs_run(1, false);
        assert!(on_events > 0, "metrics-on run recorded no kernel events");
        assert_eq!(off_events, 0, "metrics-off run must record nothing");
        events = on_events;
        on_best = on_best.min(on_s);
        off_best = off_best.min(off_s);
    }
    let overhead_pct = (on_best / off_best - 1.0) * 100.0;
    report(
        "smoke",
        &format!(
            "E12 obs overhead: enabled={:.3}s disabled={:.3}s overhead={overhead_pct:.1}% \
             ({events} kernel events recorded)",
            on_best, off_best
        ),
    );
    let obs_doc = vmap! {
        "bench" => "observability overhead (E12)",
        "harness" => "bench_smoke bin (std::time::Instant, best of 3)",
        "scene" => vmap! {
            "sensors" => 50, "rooms" => 2, "virtual_secs" => 20,
        },
        "enabled_s" => on_best,
        "disabled_s" => off_best,
        "overhead_pct" => overhead_pct,
        "kernel_events_recorded" => events.to_value(),
        "gate" => "overhead_pct < 5",
    };
    std::fs::write(&obs_path, obs_doc.to_json_pretty()).expect("write obs report");
    report("smoke", &format!("wrote {obs_path}"));

    // ---- E13: max_digis_per_sec — pooled testbeds vs per-digi timers ----
    const VIRTUAL_SECS: u64 = 5;
    let (base_wall, base_events) = scale_per_digi(10_000, VIRTUAL_SECS);
    let base_eps = base_events as f64 / base_wall;
    report(
        "smoke",
        &format!("E13 baseline: 10000 per-digi timers wall={base_wall:.2}s events/s={base_eps:.0}"),
    );
    let mut scales = vec![10_000usize, 100_000];
    if std::env::var("DIGIBOX_E13_FULL").is_ok_and(|v| v == "1") {
        scales.push(1_000_000);
    }
    let mut rows = Vec::new();
    let mut eps_100k = 0f64;
    for &digis in &scales {
        let (wall, events, ticks, batched, depth) = scale_pooled(digis, VIRTUAL_SECS);
        let eps = events as f64 / wall;
        // "max digis sustainable at real time": simulated digi-seconds per
        // wall second (each digi advances VIRTUAL_SECS in `wall` seconds)
        let max_digis = digis as f64 * VIRTUAL_SECS as f64 / wall;
        if digis == 100_000 {
            eps_100k = eps;
        }
        report(
            "smoke",
            &format!(
                "E13 pooled: digis={digis} wall={wall:.2}s events/s={eps:.0} \
                 max_digis_per_sec={max_digis:.0} ticks={ticks} batched={batched}"
            ),
        );
        rows.push(vmap! {
            "digis" => digis,
            "virtual_secs" => VIRTUAL_SECS.to_value(),
            "wall_clock_s" => wall,
            "kernel_events" => events.to_value(),
            "events_per_sec" => eps,
            "max_digis_per_sec" => max_digis,
            "pool_ticks" => ticks.to_value(),
            "batched_deliveries" => batched.to_value(),
            "queue_depth" => depth,
        });
    }
    let scale_ratio = eps_100k / base_eps;
    report("smoke", &format!("E13 gate: pooled@100k / per-digi@10k = {scale_ratio:.2}x (need >= 5)"));
    let scale_doc = vmap! {
        "bench" => "max_digis_per_sec scaling (E13)",
        "harness" => "bench_smoke bin (std::time::Instant)",
        "baseline" => vmap! {
            "digis" => 10_000,
            "mode" => "one microservice + one kernel timer per digi",
            "wall_clock_s" => base_wall,
            "kernel_events" => base_events.to_value(),
            "events_per_sec" => base_eps,
        },
        "rows" => rows,
        "speedup_100k_vs_baseline_10k" => scale_ratio,
        "gate" => "speedup_100k_vs_baseline_10k >= 5",
    };
    std::fs::write(&scale_path, scale_doc.to_json_pretty()).expect("write scale report");
    report("smoke", &format!("wrote {scale_path}"));

    // ---- E14: islands_speedup — one 2k-digi sim space-partitioned onto
    // 1 worker vs one per core; the digest match is the gate, the speedup
    // is honest wall-clock (≈1x on single-core runners) ----
    let (serial, w1_s, epochs1, cross1) = islands_run_at(1);
    let (parallel, wn_s, epochs_n, cross_n) = islands_run_at(0);
    let workers_n = cores.min(4);
    let islands_digest_match = serial == parallel;
    assert!(islands_digest_match, "workers=1 and workers={workers_n} island digests diverged");
    assert_eq!((epochs1, cross1), (epochs_n, cross_n), "island barrier protocol diverged");
    assert!(cross1 > 0, "e14 ran without cross-island traffic");
    let islands_speedup = w1_s / wn_s;
    report(
        "smoke",
        &format!(
            "E14 islands scaling: cores={cores} islands=4 digis=2000 epochs={epochs1} \
             cross={cross1} w1={w1_s:.2}s wN={wn_s:.2}s speedup={islands_speedup:.2}x \
             digest_match={islands_digest_match}"
        ),
    );
    let islands_doc = vmap! {
        "bench" => "islands_speedup (E14)",
        "harness" => "bench_smoke bin (std::time::Instant)",
        "cores" => cores,
        "islands" => 4, "digis" => 2_000, "virtual_secs" => 5,
        "epochs" => epochs1.to_value(),
        "cross_datagrams" => cross1.to_value(),
        "workers1" => vmap! { "workers" => 1, "wall_clock_s" => w1_s },
        "workersN" => vmap! { "workers" => workers_n, "wall_clock_s" => wn_s },
        "speedup" => islands_speedup,
        "digest_match" => islands_digest_match,
    };
    std::fs::write(&islands_path, islands_doc.to_json_pretty()).expect("write islands report");
    report("smoke", &format!("wrote {islands_path}"));
}
