//! E13 — max digis per second (paper §6 "efficient simulation",
//! extension): occupancy mocks pooled 10k to a host against one host per
//! digi, on an EC2 cluster with logging off. Each row prints the set-up
//! (building the testbed plus a 2 s warm-up), the 5 s window, the kernel
//! events in the window, the process's VmHWM and its `heap_peak`: the
//! most heap bytes requested and not yet freed at any one time, counted
//! by a global allocator around `System`. VmHWM also holds the
//! allocator's own layout (free lists, fragmentation, arenas) and the
//! binary; `heap_peak` is the live state alone.
//!
//! Rows are positional `pooled:N` / `per-digi:N` / `pooled-fail:N`
//! arguments, run in order; the default is `per-digi:10000 pooled:10000
//! pooled:100000`. The million-digi row is
//! `cargo bench -p digibox-bench --bench e13_scale -- pooled:1000000`.
//! VmHWM and `heap_peak` are peaks of the whole process so far, so a
//! per-row peak needs one row per invocation.
//!
//! `pooled-fail:N` times a node failure under the pooled scene (metrics
//! on): after the warm-up, one `checkpoint_all`, `fail_node` on the
//! first pool's node, a 3 s window holding that pool's restart from its
//! checkpoints and a plain 3 s window.
//!
//! The gates: every window dispatches kernel events; after a failure
//! all N digis run again and the failed pool's digis sit on another
//! node. Wall-clock numbers are reported, never asserted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use digibox_bench::{report, scale_per_digi, scale_pooled, scale_pooled_fail};

/// Heap bytes requested and not yet freed, and the most there ever were.
/// Relaxed atomics: the rows run on one thread, so the counters only
/// need to be sound, not ordered with anything else.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// `System`, counting the bytes it holds.
struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only two
// atomics, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`, and that `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

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
        let bad_row = format!("bad row {row:?}: want pooled:N, per-digi:N or pooled-fail:N");
        let (mode, digis) = row.split_once(':').expect(&bad_row);
        let digis: usize = digis.parse().expect(&bad_row);
        let times = match mode {
            "pooled" | "per-digi" => {
                let run =
                    if mode == "pooled" { scale_pooled(digis, true) } else { scale_per_digi(digis, true) };
                assert!(run.window_events > 0, "{row}: the window dispatched no kernel events");
                format!(
                    "setup={:.2}s window={:.2}s kernel_events={}",
                    run.setup_s, run.window_s, run.window_events
                )
            }
            "pooled-fail" => {
                let run = scale_pooled_fail(digis);
                assert_eq!(run.digis_after, digis, "{row}: digis lost to the node failure");
                assert!(run.moved, "{row}: the failed pool did not move off its node");
                format!(
                    "setup={:.2}s checkpoint={:.3}s fail_node={:.3}s restart_window={:.2}s \
                     plain_window={:.2}s",
                    run.setup_s, run.checkpoint_s, run.fail_s, run.restart_window_s, run.plain_window_s
                )
            }
            _ => panic!("{bad_row}"),
        };
        let vm_hwm = vm_hwm_mib().map_or_else(|| "n/a".to_string(), |m| format!("{m:.1} MiB"));
        let heap_peak = PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0);
        report(
            "E13 scale",
            &format!("{mode:<8} digis={digis:<7} {times} VmHWM={vm_hwm} heap_peak={heap_peak:.1} MiB"),
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
