//! `sim_sweep`: how users regenerate the paper's figures.
//!
//! `run_app_functional` (Baseline, HMNM4, Perfect) and `run_app_timed`
//! (Baseline, HMNM4) over five profiles that span the data footprint
//! relative to the modelled caches, each reseeded from the workload seed
//! and warmed up before statistics start. Each sweep's 25 single-threaded
//! jobs go through `parallel_run` on the host's workers, as `run_all`
//! runs them. Whole sweeps repeat until the run's seconds are used.
//!
//! The traced run adds the layer ledger: each profile's stream is
//! generated (`trace`), replayed step by step through `Mnm::query`,
//! `Hierarchy::access_with_events` and `Mnm::observe_events` +
//! `note_probes` to record bypass sets, events and probes, and then
//! timed one layer at a time: the walk alone replaying the recorded
//! bypass sets, the filter update alone replaying the recorded events,
//! and query plus update (query time is the difference). These passes
//! alternate with spans on and off, which gives the tracing overhead.

use std::hint::black_box;
use std::time::Instant;

use cache_sim::{
    Access, BypassSet, CacheEvent, Hierarchy, HierarchyConfig, HierarchyStats, ProbeRecord,
    ReplayScratch,
};
use mnm_core::{Mnm, MnmConfig, MnmStats};
use mnm_experiments::params::RunParams;
use mnm_experiments::runner::{
    parallel_run, run_app_functional, run_app_timed, AppRun, ConfigKind,
};
use ooo_model::CpuConfig;
use trace_synth::{profiles, AppProfile, Instr, InstrKind, Program};

use crate::checks;
use crate::ledger::{self, median, percentile, Tracer};
use crate::Outcome;

pub const PROFILES: [&str; 5] = ["164.gzip", "171.swim", "301.apsi", "181.mcf", "179.art"];
/// Small-footprint group: filter query dominates.
const SMALL: [&str; 2] = ["164.gzip", "171.swim"];
/// Large-footprint group: filter update dominates.
const LARGE: [&str; 2] = ["181.mcf", "179.art"];

/// Instructions per job: warm-up (statistics reset after it) and measured.
/// About 7% of `RunParams::standard()`; README records how the figures at
/// this budget compare with the standard one.
const PARAMS: RunParams = RunParams { warmup: 40_000, measure: 120_000 };
/// Timed ledger passes with spans on, and as many with spans off; the
/// median over all of them is reported.
const LEDGER_REPS: usize = 3;
/// Set-ups measured before timing; the median is reported.
const SETUP_REPS: usize = 31;

#[derive(Clone, Copy, PartialEq)]
enum Job {
    Functional(&'static str),
    Timed(&'static str),
}

const JOBS: [Job; 5] = [
    Job::Functional("Baseline"),
    Job::Functional("HMNM4"),
    Job::Functional("Perfect"),
    Job::Timed("Baseline"),
    Job::Timed("HMNM4"),
];

pub fn profiles_for(seed: u64) -> Vec<AppProfile> {
    PROFILES
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut p = profiles::by_name(name).expect("sweep profile exists");
            p.seed = ledger::mix(seed, 0x5157 + i as u64);
            p
        })
        .collect()
}

fn hmnm4() -> MnmConfig {
    MnmConfig::parse("HMNM4").expect("HMNM4 is a valid label")
}

fn run_job(job: Job, profile: &AppProfile, hier: &HierarchyConfig, cpu: &CpuConfig) -> AppRun {
    match job {
        Job::Functional(c) => run_app_functional(profile, hier, &ConfigKind::parse(c), PARAMS),
        Job::Timed(c) => run_app_timed(profile, hier, cpu, &ConfigKind::parse(c), PARAMS),
    }
}

/// The simulated results of one sweep, for determinism and digest checks.
fn sweep_text(runs: &[AppRun]) -> String {
    runs.iter()
        .map(|r| format!("{}/{}: {:?} {:?} {:?}\n", r.app, r.config, r.hierarchy, r.mnm, r.cpu))
        .collect()
}

pub fn coverage_of(stats: &[&MnmStats]) -> f64 {
    let identified: u64 = stats.iter().map(|s| s.identified_misses()).sum();
    let bypassable: u64 = stats.iter().map(|s| s.bypassable_misses()).sum();
    identified as f64 / bypassable.max(1) as f64
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let profiles = profiles_for(seed);
    let hier = HierarchyConfig::paper_five_level();
    let cpu = CpuConfig::paper_eight_way();

    // Set-up: the objects each job builds before it replays anything.
    let heap_before = ledger::live_heap();
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        for p in &profiles {
            let h = Hierarchy::new(hier.clone());
            let m = Mnm::new(&h, hmnm4());
            black_box((&h, &m, Program::new(p.clone()), CpuConfig::paper_eight_way()));
        }
        setups.push(t.elapsed().as_secs_f64());
    }

    let start = Instant::now();
    let mut sweep_rates = Vec::new();
    let mut job_ns: Vec<Vec<f64>> = vec![Vec::new(); PROFILES.len() * JOBS.len()];
    let mut first: Option<Vec<AppRun>> = None;
    let mut sweeps = 0u64;
    let mut peaks = Vec::new();
    let mut drift = None;
    while sweeps == 0 || start.elapsed().as_secs_f64() < seconds {
        ledger::reset_peak_heap();
        let t_sweep = Instant::now();
        let mut runs = Vec::with_capacity(job_ns.len());
        let mut accesses = 0u64;
        let jobs: Vec<(usize, usize)> =
            (0..profiles.len()).flat_map(|pi| (0..JOBS.len()).map(move |ji| (pi, ji))).collect();
        let done = parallel_run(jobs, |&(pi, ji)| {
            let t = Instant::now();
            let run = run_job(JOBS[ji], &profiles[pi], &hier, &cpu);
            (pi, ji, t.elapsed().as_nanos() as f64, run)
        });
        for (pi, ji, ns, run) in done {
            out.attempted += 1;
            job_ns[pi * JOBS.len() + ji].push(ns);
            accesses += run.hierarchy.accesses;
            runs.push(run);
        }
        peaks.push(ledger::peak_heap_mb_above(heap_before));
        sweep_rates.push(accesses as f64 / t_sweep.elapsed().as_secs_f64());
        match &first {
            None => first = Some(runs),
            Some(f) => {
                if drift.is_none() && sweep_text(f) != sweep_text(&runs) {
                    drift = Some(format!("sweep {sweeps} differs from sweep 0"));
                }
            }
        }
        sweeps += 1;
    }
    let first = first.expect("at least one sweep ran");
    println!(
        "sim_sweep: {sweeps} sweeps of {} jobs ({} + {} instructions each) in {:.2} s",
        job_ns.len(),
        PARAMS.warmup,
        PARAMS.measure,
        start.elapsed().as_secs_f64()
    );
    out.check("every sweep repeats the first bit for bit", drift.map_or(Ok(()), Err));

    let hmnm_runs: Vec<&AppRun> =
        first.iter().filter(|r| r.config == "HMNM4" && r.cpu.cycles == 0).collect();
    let coverage = coverage_of(
        &hmnm_runs.iter().map(|r| r.mnm.as_ref().expect("HMNM4 has MNM stats")).collect::<Vec<_>>(),
    );
    out.digest = format!("{:016x}", ledger::fnv1a(&sweep_text(&first)));

    println!(
        "sim_sweep: sweep rates {:?}",
        sweep_rates.iter().map(|r| (r / 1e3).round()).collect::<Vec<_>>()
    );
    out.metric("setup_s", median(&setups));
    out.metric("accesses_per_s", median(&sweep_rates));
    // Each job's latency is the median of its runs across sweeps, which
    // filters bursts of host noise; the percentiles are over the jobs.
    let job_ms: Vec<f64> = job_ns.iter().map(|v| median(v) / 1e6).collect();
    out.metric("op_p50_ms", percentile(&job_ms, 50.0));
    out.metric("op_p90_ms", percentile(&job_ms, 90.0));
    out.metric("peak_heap_mb", median(&peaks));
    out.metric("coverage", coverage);
    println!(
        "sim_sweep: {} jobs timed {} times each, slowest job {:.3} ms",
        job_ms.len(),
        sweeps,
        percentile(&job_ms, 100.0)
    );

    // The replica: the functional HMNM4 job rebuilt from the layers' own
    // calls must reproduce run_app_functional's statistics bit for bit.
    let mut tracer = Tracer::new(traced);
    let ledger_start = Instant::now();
    let mut groups = GroupTotals::default();
    // Median pass time with spans on and off, summed over the profiles,
    // and the total time of the passes without spans.
    let (mut on_ns, mut off_ns, mut untraced_ns) = (0.0, 0.0, 0.0);
    for p in &profiles {
        let run = hmnm_runs.iter().find(|r| r.app == p.name).expect("HMNM4 run per profile");
        let stream = ProfileStream::generate(p, &mut tracer);
        let rec = stream.replica(&hier, &mut tracer);
        let mnm = run.mnm.as_ref().expect("HMNM4 has MNM stats");
        let real = checks::identical(
            &format!("{} replica hierarchy stats", p.name),
            &run.hierarchy,
            &rec.hier_stats,
        )
        .and_then(|()| {
            checks::identical(&format!("{} replica MNM stats", p.name), mnm, &rec.mnm_stats)
        });
        let mut perturbed = rec.mnm_stats.clone();
        perturbed.slots[0].identified_misses += 1;
        out.check_with_negative(
            &format!("{}: layer replica equals run_app_functional", p.name),
            real,
            checks::identical("perturbed MNM stats", mnm, &perturbed),
        );
        if traced {
            let mut reps = Vec::new();
            let (on, off) = ledger::time_on_off(LEDGER_REPS, &mut tracer, |t| {
                reps.push(stream.time_passes(&hier, &rec, t));
            });
            on_ns += median(&on);
            off_ns += median(&off);
            untraced_ns += off.iter().sum::<f64>();
            let agreement = reps.iter().map(|r| r.agreement.clone()).find(Result::is_err);
            out.check(
                &format!("{}: split layer passes reproduce the replica", p.name),
                agreement.unwrap_or(Ok(())),
            );
            groups.add(p.name.as_str(), &stream, &rec, &Passes::median_of(&reps));
        }
    }
    // The wall time spans were recorded in: the ledger minus its untraced passes.
    let ledger_wall = ledger_start.elapsed().as_nanos() as u64 - untraced_ns as u64;

    if traced {
        let n = groups.all_accesses * LEDGER_REPS as u64;
        let ledger_check = tracer.check(
            &[
                ("trace.generate", groups.all_instrs),
                ("cache_sim.walk", n),
                ("core.update", n),
                ("core.query_update", n),
                ("replica.step", groups.all_accesses),
            ],
            ledger_wall,
        );
        out.check("ledger: span counts equal accesses driven, self time within wall", ledger_check);
        let totals = tracer.totals();
        let layer_self: u64 = totals.values().map(|t| t.self_ns).sum();
        groups.gen_ns = totals["trace.generate"].total_ns as f64;
        groups.cpu_ns = profiles.iter().map(|p| cpu_self_ns(p, &hier, &cpu)).sum();
        groups.report(&mut out);
        out.metric("bench.trace_overhead_frac", ledger::trace_overhead(on_ns, off_ns));
        out.metric("bench.layer_self_frac", layer_self as f64 / ledger_wall as f64);
    }
    out
}

/// `cpu_model`'s own time on one profile: the timed HMNM4 job minus its
/// functional twin over the same stream, each the median of
/// `LEDGER_REPS` runs on this thread, interleaved.
fn cpu_self_ns(profile: &AppProfile, hier: &HierarchyConfig, cpu: &CpuConfig) -> f64 {
    let (mut timed, mut functional) = (Vec::new(), Vec::new());
    for _ in 0..LEDGER_REPS {
        for (job, times) in
            [(Job::Timed("HMNM4"), &mut timed), (Job::Functional("HMNM4"), &mut functional)]
        {
            let t = Instant::now();
            black_box(run_job(job, profile, hier, cpu));
            times.push(t.elapsed().as_nanos() as f64);
        }
    }
    median(&timed) - median(&functional)
}

/// One profile's instruction stream converted to accesses exactly as
/// `run_app_functional` converts it.
struct ProfileStream {
    instrs: u64,
    accesses: Vec<Access>,
    /// Accesses in the warm-up phase; statistics reset after them.
    warm: usize,
}

/// What the step-by-step replica recorded.
struct Recording {
    bypass: Vec<BypassSet>,
    events: Vec<CacheEvent>,
    event_end: Vec<u32>,
    probes: Vec<ProbeRecord>,
    probe_end: Vec<u32>,
    hier_stats: HierarchyStats,
    mnm_stats: MnmStats,
}

/// Time of each split pass over one profile.
struct Passes {
    walk_ns: f64,
    update_ns: f64,
    query_update_ns: f64,
    agreement: Result<(), String>,
}

impl Passes {
    /// Each pass's median time over `reps`.
    fn median_of(reps: &[Passes]) -> Passes {
        let m = |f: fn(&Passes) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
        Passes {
            walk_ns: m(|p| p.walk_ns),
            update_ns: m(|p| p.update_ns),
            query_update_ns: m(|p| p.query_update_ns),
            agreement: Ok(()),
        }
    }
}

impl ProfileStream {
    fn generate(profile: &AppProfile, tracer: &mut Tracer) -> ProfileStream {
        let n = PARAMS.warmup + PARAMS.measure;
        let span = tracer.enter("trace.generate");
        let instrs: Vec<Instr> = Program::new(profile.clone()).take(n as usize).collect();
        tracer.exit(span, n);
        let h = Hierarchy::new(HierarchyConfig::paper_five_level());
        let fetch_shift = h
            .structures()
            .iter()
            .find(|s| s.level == 1 && !s.data_only)
            .map(|s| s.block_bytes.trailing_zeros())
            .expect("L1 instruction structure");
        let mut accesses = Vec::with_capacity(instrs.len() * 2);
        let mut warm = 0;
        let (warmup, measured) = instrs.split_at(PARAMS.warmup as usize);
        for (phase, chunk) in [warmup, measured].into_iter().enumerate() {
            let mut cur_block = u64::MAX;
            for instr in chunk {
                let block = instr.pc >> fetch_shift;
                if block != cur_block {
                    cur_block = block;
                    accesses.push(Access::fetch(instr.pc));
                }
                match instr.kind {
                    InstrKind::Load { addr } => accesses.push(Access::load(addr)),
                    InstrKind::Store { addr } => accesses.push(Access::store(addr)),
                    InstrKind::Branch { mispredicted: true } => cur_block = u64::MAX,
                    _ => {}
                }
            }
            if phase == 0 {
                warm = accesses.len();
            }
        }
        ProfileStream { instrs: n, accesses, warm }
    }

    /// The per-access protocol of `ReplaySession::step`, one call per layer.
    fn replica(&self, hier: &HierarchyConfig, tracer: &mut Tracer) -> Recording {
        let mut h = Hierarchy::new(hier.clone());
        let mut m = Mnm::new(&h, hmnm4());
        let mut scratch = ReplayScratch::new();
        let n = self.accesses.len();
        let mut rec = Recording {
            bypass: Vec::with_capacity(n),
            events: Vec::new(),
            event_end: Vec::with_capacity(n),
            probes: Vec::new(),
            probe_end: Vec::with_capacity(n),
            hier_stats: HierarchyStats::default(),
            mnm_stats: MnmStats::default(),
        };
        let span = tracer.enter("replica.step");
        for (i, &a) in self.accesses.iter().enumerate() {
            if i == self.warm {
                h.reset_stats();
                m.reset_stats();
            }
            let bs = m.query(a);
            h.access_with_events(a, &bs, &mut scratch);
            m.observe_events(scratch.events());
            m.note_probes(scratch.probes());
            rec.bypass.push(bs);
            rec.events.extend_from_slice(scratch.events());
            rec.event_end.push(rec.events.len() as u32);
            rec.probes.extend_from_slice(scratch.probes());
            rec.probe_end.push(rec.probes.len() as u32);
        }
        tracer.exit(span, n as u64);
        rec.hier_stats = h.stats().clone();
        rec.mnm_stats = m.stats().clone();
        rec
    }

    /// Time each layer alone over the recording, once.
    fn time_passes(&self, hier: &HierarchyConfig, rec: &Recording, tracer: &mut Tracer) -> Passes {
        let n = self.accesses.len() as u64;

        // The walk alone, replaying the recorded bypass sets.
        let mut h = Hierarchy::new(hier.clone());
        let mut scratch = ReplayScratch::new();
        let t = Instant::now();
        let span = tracer.enter("cache_sim.walk");
        for (i, (&a, bs)) in self.accesses.iter().zip(&rec.bypass).enumerate() {
            if i == self.warm {
                h.reset_stats();
            }
            black_box(h.access_with_events(a, bs, &mut scratch));
        }
        tracer.exit(span, n);
        let walk_ns = t.elapsed().as_nanos() as f64;
        let walk_agrees =
            checks::identical("walk-only hierarchy stats", &rec.hier_stats, h.stats());

        // The filter update alone, replaying the recorded events.
        let template = Hierarchy::new(hier.clone());
        let mut m = Mnm::new(&template, hmnm4());
        let t = Instant::now();
        let span = tracer.enter("core.update");
        let (mut e0, mut p0) = (0usize, 0usize);
        for (&e1, &p1) in rec.event_end.iter().zip(&rec.probe_end) {
            let (e1, p1) = (e1 as usize, p1 as usize);
            m.observe_events(&rec.events[e0..e1]);
            m.note_probes(&rec.probes[p0..p1]);
            (e0, p0) = (e1, p1);
        }
        tracer.exit(span, n);
        let update_ns = t.elapsed().as_nanos() as f64;
        black_box(m.stats());

        // Query plus update; the query's share is the difference.
        let mut m = Mnm::new(&template, hmnm4());
        let mut diverged = 0u64;
        let t = Instant::now();
        let span = tracer.enter("core.query_update");
        let (mut e0, mut p0) = (0usize, 0usize);
        for (i, ((&a, &e1), &p1)) in
            self.accesses.iter().zip(&rec.event_end).zip(&rec.probe_end).enumerate()
        {
            if i == self.warm {
                m.reset_stats();
            }
            let (e1, p1) = (e1 as usize, p1 as usize);
            diverged += u64::from(m.query(a) != rec.bypass[i]);
            m.observe_events(&rec.events[e0..e1]);
            m.note_probes(&rec.probes[p0..p1]);
            (e0, p0) = (e1, p1);
        }
        tracer.exit(span, n);
        let query_update_ns = t.elapsed().as_nanos() as f64;
        let agreement = walk_agrees
            .and_then(|()| checks::identical("query-replay divergences", &0, &diverged))
            .and_then(|()| checks::identical("query+update MNM stats", &rec.mnm_stats, m.stats()));
        Passes { walk_ns, update_ns, query_update_ns, agreement }
    }
}

#[derive(Default, Clone, Copy)]
struct Group {
    accesses: u64,
    walk_ns: f64,
    update_ns: f64,
    query_ns: f64,
}

#[derive(Default)]
struct GroupTotals {
    small: Group,
    large: Group,
    all_accesses: u64,
    all_instrs: u64,
    gen_ns: f64,
    cpu_ns: f64,
    flagged: u64,
    queries: u64,
    events: u64,
    bypassed: u64,
    probed: u64,
}

impl GroupTotals {
    fn add(&mut self, name: &str, stream: &ProfileStream, rec: &Recording, p: &Passes) {
        let n = stream.accesses.len() as u64;
        let g = if SMALL.contains(&name) {
            Some(&mut self.small)
        } else if LARGE.contains(&name) {
            Some(&mut self.large)
        } else {
            None
        };
        if let Some(g) = g {
            g.accesses += n;
            g.walk_ns += p.walk_ns;
            g.update_ns += p.update_ns;
            g.query_ns += p.query_update_ns - p.update_ns;
        }
        self.all_accesses += n;
        self.all_instrs += stream.instrs;
        self.flagged += rec.mnm_stats.accesses_with_flags;
        self.queries += rec.mnm_stats.accesses;
        self.events += rec.events.len() as u64;
        for (s, info) in rec
            .hier_stats
            .structures
            .iter()
            .zip(Hierarchy::new(HierarchyConfig::paper_five_level()).structures())
        {
            if info.level > 1 {
                self.bypassed += s.bypasses;
                self.probed += s.probes + s.bypasses;
            }
        }
    }

    fn report(&self, out: &mut Outcome) {
        for (suffix, g) in [("small", self.small), ("large", self.large)] {
            let n = g.accesses as f64;
            out.metric(&format!("core.query_ns_per_access.{suffix}"), g.query_ns / n);
            out.metric(&format!("core.update_ns_per_access.{suffix}"), g.update_ns / n);
            out.metric(&format!("cache_sim.walk_ns_per_access.{suffix}"), g.walk_ns / n);
            out.metric(
                &format!("core.update_share.{suffix}"),
                g.update_ns / (g.walk_ns + g.update_ns + g.query_ns),
            );
            println!(
                "ledger {suffix}: walk {:.1} + query {:.1} + update {:.1} ns/access; filter update is {:.1}% of the three",
                g.walk_ns / n,
                g.query_ns / n,
                g.update_ns / n,
                100.0 * g.update_ns / (g.walk_ns + g.update_ns + g.query_ns)
            );
        }
        out.metric("core.flagged_frac", self.flagged as f64 / self.queries as f64);
        out.metric("core.events_per_access", self.events as f64 / self.all_accesses as f64);
        out.metric("cache_sim.bypassed_probe_frac", self.bypassed as f64 / self.probed as f64);
        out.metric("trace.generate_ns_per_instr", self.gen_ns / self.all_instrs as f64);
        out.metric("cpu_model.self_ns_per_instr", self.cpu_ns / self.all_instrs as f64);
    }
}
