//! `shard_2core`: `ShardedSim::run`, the default (pipelined) engine, on two
//! simulated cores with HMNM4, the default epoch and the default sharing
//! spec, over pre-generated `sharded_streams`. `run_single_threaded` runs
//! once before timing as the identity reference. Each operation builds a
//! fresh simulation (set-up) and runs it to the end of its streams.
//!
//! The traced run records no spans: its per-layer figures are the
//! engine's own `ShardReport` timing and a timed `run_single_threaded`.

use std::time::Instant;

use mnm_core::{MnmConfig, MnmStats};
use mnm_shard::{sharded_streams, ShardConfig, ShardReport, ShardedSim};
use trace_synth::{profiles, SharingSpec};

use crate::checks;
use crate::ledger::{self, median, percentile};
use crate::sim::coverage_of;
use crate::Outcome;

const PROFILE: &str = "181.mcf";
const CORES: usize = 2;
const ACCESSES_PER_CORE: usize = 120_000;
/// Consecutive runs whose median is one latency sample.
const OP_BLOCK: usize = 3;
/// Single-threaded reference runs timed in a traced run.
const SINGLE_REPS: usize = 3;

fn report_text(r: &ShardReport) -> String {
    format!("{:?} {:?} {}", r.cores, r.l3, r.epochs)
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let config =
        ShardConfig::new(CORES, MnmConfig::parse("HMNM4").expect("HMNM4 is a valid label"));
    let spec = SharingSpec {
        line_bytes: config.l3.block_bytes,
        seed: ledger::mix(seed, 0x5a4d),
        ..SharingSpec::new(CORES)
    };
    let mut profile = profiles::by_name(PROFILE).expect("shard profile exists");
    profile.seed = ledger::mix(seed, 0x5a4e);
    let streams = sharded_streams(&profile, &spec, ACCESSES_PER_CORE, config.l1.block_bytes);
    let total = (CORES * ACCESSES_PER_CORE) as u64;

    let reference = ShardedSim::new(config.clone(), streams.clone()).run_single_threaded();
    out.digest = format!("{:016x}", ledger::fnv1a(&report_text(&reference)));
    let stats: Vec<&MnmStats> = reference.cores.iter().map(|c| &c.mnm).collect();
    let coverage = coverage_of(&stats);

    let heap_before = ledger::live_heap();
    let (mut setups, mut op_ms, mut rates, mut peaks) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut compute, mut resolve, mut stall, mut occupancy) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first_mismatch: Result<(), String> = Ok(());
    let mut last = None;
    let start = Instant::now();
    while out.attempted == 0 || start.elapsed().as_secs_f64() < seconds {
        let input = streams.clone();
        ledger::reset_peak_heap();
        let t = Instant::now();
        let mut sim = ShardedSim::new(config.clone(), input);
        setups.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let report = sim.run();
        let secs = t.elapsed().as_secs_f64();
        out.attempted += 1;
        op_ms.push(secs * 1e3);
        rates.push(report.total_accesses() as f64 / secs);
        let tm = &report.timing;
        compute.push(tm.compute_nanos as f64 / total as f64);
        resolve.push(tm.resolve_nanos as f64 / total as f64);
        stall.push(tm.stall_nanos as f64 / (CORES as f64 * tm.wall_nanos as f64));
        occupancy.push(tm.resolver_occupancy());
        if let Err(e) = checks::shard_matches(&reference, &report) {
            out.failed += 1;
            if first_mismatch.is_ok() {
                first_mismatch = Err(e);
            }
        }
        peaks.push(ledger::peak_heap_mb_above(heap_before));
        last = Some(report);
        drop(sim);
    }
    println!(
        "shard_2core: {} runs of {total} accesses in {:.2} s",
        out.attempted,
        start.elapsed().as_secs_f64()
    );

    let mut altered = last.expect("at least one run");
    altered.cores[0].l3_bypasses += 1;
    out.check_with_negative(
        "every ShardedSim::run report equals run_single_threaded, zero unsound",
        first_mismatch,
        checks::shard_matches(&reference, &altered),
    );

    out.metric("setup_s", median(&setups));
    out.metric("accesses_per_s", median(&rates));
    // Latency percentiles are over medians of consecutive blocks of runs,
    // which filters single runs stalled by host noise.
    let blocks = ledger::block_medians(&op_ms, OP_BLOCK);
    out.metric("op_p50_ms", percentile(&blocks, 50.0));
    out.metric("op_p90_ms", percentile(&blocks, 90.0));
    out.metric("peak_heap_mb", median(&peaks));
    out.metric("coverage", coverage);

    if traced {
        let mut single = Vec::new();
        for _ in 0..SINGLE_REPS {
            let mut sim = ShardedSim::new(config.clone(), streams.clone());
            let t = Instant::now();
            let r = sim.run_single_threaded();
            single.push(r.total_accesses() as f64 / t.elapsed().as_secs_f64());
        }
        let single_rate = median(&single);
        out.metric("shard.compute_ns_per_access", median(&compute));
        out.metric("shard.resolve_ns_per_access", median(&resolve));
        out.metric("shard.stall_frac", median(&stall));
        out.metric("shard.resolver_occupancy", median(&occupancy));
        out.metric("shard.single_accesses_per_s", single_rate);
        out.metric("shard.speedup_vs_single", median(&rates) / single_rate);
    }
    out
}
