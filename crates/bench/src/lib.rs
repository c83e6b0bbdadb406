//! # mnm-bench
//!
//! Dependency-free throughput harness for the replay hot path.
//!
//! The crate deliberately uses no external benchmark framework (the
//! reference environment builds offline, so criterion is unavailable):
//! timing comes from [`std::time::Instant`], and allocation accounting
//! from [`CountingAlloc`], a `#[global_allocator]` wrapper around the
//! system allocator that counts every heap allocation made by the
//! calling thread.
//!
//! Run the harness with:
//!
//! ```text
//! cargo run --release -p mnm-bench --bin replay_throughput
//! ```
//!
//! It replays synthetic workloads through the cache hierarchy under
//! several filter configurations and writes `BENCH_replay.json` with
//! accesses/second and allocations-avoided counters, verifying along the
//! way that the steady-state hot path performs **zero** heap allocations
//! per access.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mnm_experiments::json::Json;

thread_local! {
    /// Heap allocations made by this thread since it started. The const
    /// initialiser and the `Drop`-free `Cell` mean the slot needs no lazy
    /// registration, so touching it from inside the allocator never
    /// allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// A counting wrapper around the system allocator. Register it in a
/// binary or test with:
///
/// ```text
/// #[global_allocator]
/// static ALLOC: mnm_bench::CountingAlloc = mnm_bench::CountingAlloc;
/// ```
///
/// Counts are kept per thread, so a measurement on one thread is not
/// disturbed by allocations on others (for example, other tests running
/// under the parallel test harness).
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
}

/// Allocations counted so far on the calling thread (monotone).
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Measurements from one benchmark scenario.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario label (`"baseline"`, `"hmnm4"`, ...).
    pub label: String,
    /// Accesses driven during the measured phase.
    pub accesses: u64,
    /// Wall-clock nanoseconds of the measured phase.
    pub nanos: u64,
    /// Heap allocations observed during the measured phase.
    pub allocations: u64,
    /// Per-access allocations the pre-refactor API would have performed
    /// over the same phase (probe vector + event vector + path clone,
    /// i.e. 3 per access), minus the allocations actually observed.
    pub allocations_avoided: u64,
}

impl ScenarioResult {
    /// Accesses per second.
    pub fn accesses_per_sec(&self) -> f64 {
        if self.nanos == 0 {
            0.0
        } else {
            self.accesses as f64 * 1e9 / self.nanos as f64
        }
    }

    /// One JSON object, built with the workspace's shared writer
    /// (`mnm_experiments::json`; the workspace carries no serde).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("label", Json::str(&self.label)),
            ("accesses", Json::num(self.accesses as f64)),
            ("nanos", Json::num(self.nanos as f64)),
            ("accesses_per_sec", Json::num((self.accesses_per_sec() * 10.0).round() / 10.0)),
            ("allocations", Json::num(self.allocations as f64)),
            ("allocations_avoided", Json::num(self.allocations_avoided as f64)),
        ])
    }
}

/// Number of heap allocations the pre-refactor per-access API performed:
/// a probe `Vec`, an event `Vec`, and a clone of the structure path.
pub const LEGACY_ALLOCS_PER_ACCESS: u64 = 3;

/// Render a full `BENCH_replay.json` document from scenario results.
pub fn render_report(results: &[ScenarioResult]) -> String {
    Json::obj(vec![
        ("benchmark", Json::str("replay_throughput")),
        ("scenarios", Json::Arr(results.iter().map(ScenarioResult::to_json).collect())),
    ])
    .render_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_is_well_formed() {
        let r = ScenarioResult {
            label: "baseline".into(),
            accesses: 1000,
            nanos: 2_000_000,
            allocations: 0,
            allocations_avoided: 3000,
        };
        assert!((r.accesses_per_sec() - 500_000.0).abs() < 1.0);
        let doc = render_report(&[r]);
        assert!(doc.contains("\"accesses_per_sec\": 500000"));
        assert!(doc.contains("\"allocations_avoided\": 3000"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        // The document parses back with the shared reader.
        let parsed = Json::parse(&doc).expect("well-formed");
        let scenarios = parsed.get("scenarios").and_then(Json::as_arr).unwrap();
        assert_eq!(scenarios[0].get("accesses").and_then(Json::as_f64), Some(1000.0));
    }
}
