//! perfbench harness: runs one benchmark workload against the workspace's
//! public APIs, checks its outputs and prints its metrics.
//!
//! ```text
//! perfbench-harness --workload <name> --seed <n> --seconds <s> --trace <0|1> [--expect-digest <hex>]
//! ```
//!
//! Detail lines go to standard output first; the last line is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end set, with `--trace 1` the
//! per-layer set. See `perfbench/README.md` for what each workload and
//! metric means.

mod checks;
mod ledger;
mod serve;
mod shard;
mod sim;

use std::collections::BTreeMap;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: ledger::CountingAlloc = ledger::CountingAlloc;

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("accesses_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_heap_mb", "MB"),
    ("coverage", "frac"),
];

/// Per-layer metrics, reported by every workload's traced run.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("core.query_ns_per_access.small", "ns"),
    ("core.query_ns_per_access.large", "ns"),
    ("core.flagged_frac", "frac"),
    ("core.update_ns_per_access.small", "ns"),
    ("core.update_ns_per_access.large", "ns"),
    ("core.events_per_access", "count"),
    ("core.update_share.small", "frac"),
    ("core.update_share.large", "frac"),
    ("cache_sim.walk_ns_per_access.small", "ns"),
    ("cache_sim.walk_ns_per_access.large", "ns"),
    ("cache_sim.bypassed_probe_frac", "frac"),
    ("trace.generate_ns_per_instr", "ns"),
    ("cpu_model.self_ns_per_instr", "ns"),
    ("serve.protocol.crc_ns_per_frame", "ns"),
    ("serve.protocol.decode_ns_per_record", "ns"),
    ("serve.session.feed_ns_per_access", "ns"),
    ("serve.transport_wait_us_per_frame", "us"),
    ("serve.session.new_us", "us"),
    ("serve.session.first_feed_us", "us"),
    ("serve.sessions_parked", "count"),
    ("shard.compute_ns_per_access", "ns"),
    ("shard.resolve_ns_per_access", "ns"),
    ("shard.stall_frac", "frac"),
    ("shard.resolver_occupancy", "frac"),
    ("shard.single_accesses_per_s", "1/s"),
    ("shard.speedup_vs_single", "x"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.layer_self_frac", "frac"),
];

pub const WORKLOADS: [&str; 4] = ["sim_sweep", "serve_stream", "serve_churn", "shard_2core"];

/// Seconds a probe run lasts when a traced run borrows per-layer metrics
/// from a workload that drives a layer it does not.
const PROBE_SECONDS: f64 = 1.5;

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Digest of the run's deterministic simulated statistics.
    pub digest: String,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64) {
        if !value.is_finite() {
            self.problems.push(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.insert(name.to_string(), value);
    }

    /// Record a check's result.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        match result {
            Ok(()) => println!("check ok: {what}"),
            Err(e) => {
                println!("check FAILED: {what}: {e}");
                self.problems.push(format!("{what}: {e}"));
            }
        }
    }

    /// Record a check on the real output and its negative twin: the same
    /// check fed a deliberately perturbed output must fail.
    pub fn check_with_negative(
        &mut self,
        what: &str,
        real: Result<(), String>,
        perturbed: Result<(), String>,
    ) {
        self.check(what, real);
        match perturbed {
            Err(_) => println!("check ok: {what} rejects a perturbed output"),
            Ok(()) => {
                println!("check FAILED: {what} accepted a perturbed output");
                self.problems.push(format!("{what}: negative test passed a perturbed output"));
            }
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    expect_digest: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut expect_digest) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|e| format!("--seed {value}: {e}"))?)
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {value} is outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--expect-digest" => expect_digest = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        expect_digest,
    })
}

fn run_workload(workload: &str, seed: u64, seconds: f64, traced: bool) -> Outcome {
    match workload {
        "sim_sweep" => sim::run(seed, seconds, traced),
        "serve_stream" => serve::run_stream(seed, seconds, traced),
        "serve_churn" => serve::run_churn(seed, seconds, traced),
        "shard_2core" => shard::run(seed, seconds, traced),
        other => unreachable!("workload {other} was validated"),
    }
}

/// The workload whose traced run measures per-layer metric `name`.
fn owner_of(name: &str) -> &'static str {
    if name.starts_with("serve.") {
        "serve_stream"
    } else if name.starts_with("shard.") {
        "shard_2core"
    } else {
        "sim_sweep"
    }
}

fn json_result(correct: bool, out: &Outcome, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", out.metrics[*name])
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut out = run_workload(&args.workload, args.seed, args.seconds, args.trace);
    println!("digest {}", out.digest);
    if let Some(want) = &args.expect_digest {
        let r = checks::digest_matches(want, &out.digest);
        out.check("simulated-statistics digest of the default seed", r);
    }

    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        // A traced run reports every layer. Layers its own workload does
        // not drive are measured by a short traced probe of the workload
        // that does, on inputs from the same seed.
        let mut probed: BTreeMap<&str, Outcome> = BTreeMap::new();
        for (name, _) in PER_LAYER {
            if out.metrics.contains_key(name) {
                continue;
            }
            let owner = owner_of(name);
            let probe = probed.entry(owner).or_insert_with(|| {
                println!("probe {owner} for layers {} does not drive", args.workload);
                run_workload(owner, args.seed, PROBE_SECONDS, true)
            });
            if let Some(&v) = probe.metrics.get(name) {
                out.metrics.insert(name.to_string(), v);
            }
        }
        for (owner, probe) in probed {
            out.attempted += probe.attempted;
            out.failed += probe.failed;
            out.problems.extend(probe.problems.into_iter().map(|p| format!("probe {owner}: {p}")));
        }
    }
    for (name, unit) in names {
        match out.metrics.get(*name) {
            Some(v) => println!("metric {name} = {v} {unit}"),
            None => {
                eprintln!("perfbench-harness: workload {} did not measure {name}", args.workload);
                return ExitCode::FAILURE;
            }
        }
    }
    for p in &out.problems {
        println!("problem: {p}");
    }
    let correct = out.problems.is_empty();
    println!("{}", json_result(correct, &out, names));
    ExitCode::SUCCESS
}
