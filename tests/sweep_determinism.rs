//! The parallel sweep engine end-to-end: the same campaign run at
//! `--jobs 1`, `--jobs 2`, and `--jobs all` must produce a byte-identical
//! scorecard (per-worker kernels keep each seed's event order exactly as
//! the single-threaded run; merging is in canonical seed order), and a
//! seed whose build panics must surface as a per-seed error without
//! aborting the rest of the sweep.

use digibox_core::campaign::Campaign;
use digibox_devices::demo_room;
use digibox_net::chaos::{FaultKind, FaultPlan, FaultSpec};

fn short_plan() -> FaultPlan {
    FaultPlan::new("sweep-det", 12_000, 2_000).with(FaultSpec {
        at_ms: 3_000,
        duration_ms: 2_000,
        jitter_ms: 1_000,
        kind: FaultKind::CrashDigi { digi: "L1".into() },
    })
}

#[test]
fn scorecard_is_byte_identical_across_jobs_counts() {
    let campaign = Campaign::new(short_plan()).unwrap();
    let seeds: Vec<u64> = (1..=6).collect();

    let serial = campaign.run_jobs(&seeds, 1, demo_room);
    let two = campaign.run_jobs(&seeds, 2, demo_room);
    let all = campaign.run_jobs(&seeds, 0, demo_room);

    assert!(serial.errors.is_empty(), "{:?}", serial.errors);
    assert_eq!(serial.per_seed.len(), seeds.len());
    assert_eq!(serial.to_json(), two.to_json(), "jobs=2 scorecard diverged");
    assert_eq!(serial.to_json(), all.to_json(), "jobs=all scorecard diverged");
    assert_eq!(serial.digest(), two.digest());
    assert_eq!(serial.digest(), all.digest());
}

#[test]
fn panicking_seed_is_reported_without_aborting_the_sweep() {
    let campaign = Campaign::new(short_plan()).unwrap();
    let seeds = [1, 13, 2];
    let build = |seed: u64| {
        if seed == 13 {
            panic!("boom at seed 13");
        }
        demo_room(seed)
    };

    let serial = campaign.run_jobs(&seeds, 1, build);
    let parallel = campaign.run_jobs(&seeds, 2, build);

    // the healthy seeds completed, in canonical order
    let ran: Vec<u64> = serial.per_seed.iter().map(|s| s.seed).collect();
    assert_eq!(ran, vec![1, 2]);

    // the panic became a per-seed error, not an abort
    assert_eq!(serial.errors.len(), 1);
    assert_eq!(serial.errors[0].seed, 13);
    assert!(
        serial.errors[0].error.contains("boom at seed 13"),
        "panic payload should be preserved: {:?}",
        serial.errors[0].error
    );

    // and the failure report is itself deterministic across jobs counts
    assert_eq!(serial.to_json(), parallel.to_json());
    assert_eq!(serial.digest(), parallel.digest());
}
