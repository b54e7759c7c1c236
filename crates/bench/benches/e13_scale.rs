//! E13 — max digis per second (paper §6 "efficient simulation",
//! extension): occupancy mocks pooled 10k to a host against one host per
//! digi, on an EC2 cluster with logging off. Each row prints the set-up
//! (building the testbed plus a 2 s warm-up), the 5 s window, the kernel
//! events in the window and the process's VmHWM.
//!
//! Rows are positional `pooled:N` / `per-digi:N` arguments, run in order;
//! the default is `per-digi:10000 pooled:10000 pooled:100000`. The
//! million-digi row is
//! `cargo bench -p digibox-bench --bench e13_scale -- pooled:1000000`.
//! VmHWM is the peak of the whole process so far, so a per-row peak
//! needs one row per invocation.
//!
//! The gate: every window dispatches kernel events. Wall-clock numbers
//! are reported, never asserted.

use digibox_bench::{report, scale_per_digi, scale_pooled};

const DEFAULT_ROWS: [&str; 3] = ["per-digi:10000", "pooled:10000", "pooled:100000"];

fn main() {
    // `cargo bench` appends `--bench` to every bench's arguments.
    let args: Vec<String> = std::env::args().skip(1).filter(|a| a != "--bench").collect();
    let rows: Vec<&str> = if args.is_empty() {
        DEFAULT_ROWS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for row in rows {
        let bad_row = format!("bad row {row:?}: want pooled:N or per-digi:N");
        let (mode, digis) = row.split_once(':').expect(&bad_row);
        let digis: usize = digis.parse().expect(&bad_row);
        let run = match mode {
            "pooled" => scale_pooled(digis, true),
            "per-digi" => scale_per_digi(digis, true),
            _ => panic!("{bad_row}"),
        };
        assert!(run.window_events > 0, "{row}: the window dispatched no kernel events");
        let vm_hwm = vm_hwm_mib().map_or_else(|| "n/a".to_string(), |m| format!("{m:.1} MiB"));
        report(
            "E13 scale",
            &format!(
                "{mode:<8} digis={digis:<7} setup={:.2}s window={:.2}s kernel_events={} \
                 VmHWM={vm_hwm}",
                run.setup_s, run.window_s, run.window_events
            ),
        );
    }
}

/// This process's peak resident set so far (`VmHWM` in
/// `/proc/self/status`), or `None` where that file does not exist.
fn vm_hwm_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = kib.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}
