//! E12 — observability overhead (extension): the cost of leaving the
//! deterministic metrics layer on. E13's pooled 10k-digi fixture runs
//! three times with metrics on and three times off, alternating, and the
//! best 5 s window of each is reported.
//!
//! The gate: the kernel processes exactly as many events with metrics
//! on as off, because recording must not change the simulation. The
//! wall-clock overhead is reported, never asserted.

use digibox_bench::{report, scale_pooled};

fn main() {
    let (mut on_best, mut off_best) = (f64::MAX, f64::MAX);
    let mut events = 0;
    for _ in 0..3 {
        let on = scale_pooled(10_000, true);
        let off = scale_pooled(10_000, false);
        assert_eq!(
            on.total_events, off.total_events,
            "metrics on and off must process the same kernel events"
        );
        on_best = on_best.min(on.window_s);
        off_best = off_best.min(off.window_s);
        events = on.window_events;
    }
    report(
        "E12 obs overhead",
        &format!(
            "pooled 10000 digis, 5 s window best of 3: metrics on={on_best:.3}s \
             off={off_best:.3}s overhead={:.1}% kernel_events={events} (equal on and off)",
            (on_best / off_best - 1.0) * 100.0
        ),
    );
}
