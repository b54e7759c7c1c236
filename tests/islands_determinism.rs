//! The space-parallel island engine end-to-end (DESIGN.md §15): one
//! 10k-digi campaign partitioned into island kernels must produce
//! byte-identical stats snapshots and checkpoint hashes whether it runs
//! on 1 worker thread, 4, or one per core — the `--islands` knob is a
//! wall-clock knob, never a semantics knob. Also: a panicking island
//! fails the run by name without poisoning the process, and a fault
//! window healing between barriers cannot reorder delivery relative to
//! a committed lookahead horizon.

use digibox_core::islands::{self, IslandEnv, IslandSpec};
use digibox_core::{Testbed, TestbedConfig};
use digibox_devices::full_catalog;
use digibox_net::chaos::{FaultKind, FaultWindow};
use digibox_net::{SimDuration, SimTime};

/// An island-scoped testbed on the shared cluster topology: owns node
/// `env.island`, every foreign node cordoned at construction.
fn island_testbed(env: &IslandEnv) -> digibox_core::Result<Testbed> {
    Ok(Testbed::new(
        env.topology.clone(),
        full_catalog(),
        TestbedConfig { seed: env.seed, home_node: Some(env.island as u32), ..Default::default() },
    ))
}

/// Four islands, each hosting a 2500-digi occupancy pool — 10k digis in
/// one logical simulation, one kernel per island.
fn pooled_specs() -> Vec<IslandSpec> {
    (0..4)
        .map(|i| {
            IslandSpec::new(format!("pool-{i}"), move |env: &IslandEnv| {
                let mut tb = island_testbed(env)?;
                let names: Vec<String> = (0..2500).map(|d| format!("P{i}x{d}")).collect();
                tb.run_pool("Occupancy", &names, Default::default(), false)?;
                tb.run_for(SimDuration::from_secs(1));
                Ok(tb)
            })
        })
        .collect()
}

/// One full run at the given worker count, reduced to the per-island
/// digest tuple: final clock, digi count, obs snapshot JSON, and the
/// checkpoint hashes (taken after a fresh `checkpoint_all`).
fn digests(workers: usize, faults: &[FaultWindow]) -> (Vec<String>, u64, u64) {
    let run = islands::run(
        7,
        pooled_specs(),
        workers,
        SimDuration::from_secs(5),
        faults,
        |island, tb, t0| {
            tb.checkpoint_all();
            let hashes: Vec<String> = tb
                .checkpoint_digests()
                .into_iter()
                .map(|(name, digest)| format!("{name}={digest}"))
                .collect();
            format!(
                "island={island} t0={} now={} digis={} stats={} checkpoints=[{}]",
                t0.as_nanos(),
                tb.now().as_nanos(),
                tb.digi_count(),
                tb.obs_snapshot().to_json(),
                hashes.join(",")
            )
        },
    )
    .expect("island run succeeds");
    (run.results, run.epochs, run.cross_datagrams)
}

#[test]
fn ten_thousand_digis_digest_identically_across_worker_counts() {
    let (serial, epochs1, cross1) = digests(1, &[]);
    let (four, epochs4, cross4) = digests(4, &[]);
    let (all, epochs_all, cross_all) = digests(0, &[]);

    assert_eq!(serial.len(), 4);
    assert!(serial.iter().all(|d| d.contains("digis=2500")), "{serial:?}");
    assert_eq!(serial, four, "workers=4 diverged from workers=1");
    assert_eq!(serial, all, "workers=all diverged from workers=1");
    assert_eq!((epochs1, cross1), (epochs4, cross4));
    assert_eq!((epochs1, cross1), (epochs_all, cross_all));
    // the uplink beacons guarantee cross-island traffic actually flowed,
    // so the equality above exercises the canonical merge, not silence
    assert!(cross1 > 0, "expected cross-island datagrams, got none");
}

#[test]
fn mid_window_heal_cannot_slip_past_a_committed_horizon() {
    // A degrade window whose heal edge (2.35s) falls between the 5 ms
    // lookahead barriers and away from any uplink period multiple: the
    // engine must fence the barrier loop at both edges, recompute the
    // lookahead horizon, and keep delivery order identical on every
    // worker count. Before edge-fencing, a heal mid-epoch shrank link
    // delays retroactively and let a datagram arrive "before" a horizon
    // the serial run had already committed — which this catches as a
    // digest mismatch.
    let window = |start_ms: u64, end_ms: u64, kind: FaultKind| FaultWindow {
        index: 0,
        start: SimTime::ZERO + SimDuration::from_millis(start_ms),
        end: SimTime::ZERO + SimDuration::from_millis(end_ms),
        kind,
    };
    let faults = vec![
        window(1_200, 2_350, FaultKind::Degrade { loss: 0.0, extra_delay_ms: 40, extra_jitter_ms: 3 }),
        window(3_100, 4_750, FaultKind::Partition { left: vec![0], right: vec![1, 2, 3] }),
    ];

    let (serial, epochs_faulted, _) = digests(1, &faults);
    let (parallel, _, _) = digests(4, &faults);
    let (baseline, epochs_calm, _) = digests(1, &[]);

    assert_eq!(serial, parallel, "chaos windows broke worker invariance");
    // the fault edges are fences, so the faulted run takes extra epochs
    assert!(
        epochs_faulted > epochs_calm,
        "fault edges must fence the barrier loop ({epochs_faulted} vs {epochs_calm})"
    );
    // and the faults actually perturbed the simulation relative to calm
    assert_ne!(serial, baseline, "fault windows had no observable effect");
}

#[test]
fn panicking_island_fails_the_run_by_name_without_poisoning_others() {
    let mut specs = pooled_specs();
    specs[2] = IslandSpec::new("doomed", |env: &IslandEnv| {
        if env.island == 2 {
            panic!("island kernel exploded");
        }
        island_testbed(env)
    });

    let err = islands::run(
        7,
        specs,
        4,
        SimDuration::from_secs(2),
        &[],
        |_, tb, _| tb.now().as_nanos(),
    )
    .expect_err("a panicking island must fail the run");
    assert!(err.contains("island 2 (doomed)"), "error must name the island: {err}");
    assert!(err.contains("island kernel exploded"), "panic payload lost: {err}");

    // the engine unwound cleanly: the same process can immediately run a
    // healthy campaign and still digest deterministically
    let (a, _, _) = digests(1, &[]);
    let (b, _, _) = digests(4, &[]);
    assert_eq!(a, b, "a prior island panic must not poison later runs");
}
