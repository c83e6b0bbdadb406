//! Deterministic fault injection for supervised experiment runs.
//!
//! A [`FaultPlan`] — parsed from the `JSN_FAULT` environment variable —
//! decides, purely as a function of `(seed, fault kind, site)`, whether a
//! fault fires at a given site. Sites are stable string identities: job
//! names for panics and stalls, artifact file names for torn writes, and
//! `{filter}:{generator}:{seed}` scenario labels for filter-state bit
//! flips. Re-running with the same plan injects exactly the same faults,
//! which is what makes the recovery tests and the CI fault-smoke job
//! reproducible.
//!
//! Faults are deliberately *one-shot* per site: panics and stalls fire only
//! on a job's first attempt, and a torn write fires only on the first write
//! of a given file. One retry therefore deterministically recovers, letting
//! the tests assert "every injected fault recovered" rather than "the run
//! eventually gave up".
//!
//! The plan lives in process-global state (`install`) because the injection
//! points are buried under the supervisor's job closures and the atomic
//! write helper, far from anywhere a handle could be threaded through.
//! Everything injected is logged so the run manifest can report it.
//!
//! The plan grammar itself ([`PlanGrammar`]) is shared: `jsn chaos` reads
//! its `JSN_CHAOS` plan through the same parser with its own clause names.

use std::sync::Mutex;

use trace_synth::hash::{fnv1a, splitmix64};

use crate::json::Json;

/// Environment variable holding the fault plan.
pub const ENV_FAULT: &str = "JSN_FAULT";

/// The `JSN_FAULT` grammar. Clauses are in [`FaultKind`] order.
static FAULT_GRAMMAR: PlanGrammar = PlanGrammar {
    env: ENV_FAULT,
    title: "fault plan",
    clauses: &["panic", "stall", "torn", "flip"],
    timed: "stall",
    // Comfortably past any reasonable `--deadline`.
    default_ms: 30_000,
    sites: true,
};

/// The kinds of fault the plan can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the job closure (supervisor must isolate + retry).
    Panic,
    /// Sleep past the job deadline (watchdog must time the attempt out).
    Stall,
    /// Abort an artifact write halfway (atomic writer must leave no trace).
    Torn,
    /// Flip a bit of MNM filter state (soundness checker must catch it).
    Flip,
}

impl FaultKind {
    /// Stable name, used both for selection hashing and reporting.
    pub fn name(self) -> &'static str {
        FAULT_GRAMMAR.clauses[self as usize]
    }
}

/// How one clause of a plan chooses its victim sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Select {
    /// Never fires (clause absent from the plan).
    Never,
    /// Fires at roughly `m` out of `n` sites, chosen by seeded hash.
    Ratio(u64, u64),
    /// Fires at exactly one named site.
    Site(String),
}

impl Select {
    fn selects(&self, seed: u64, kind: &str, site: &str) -> bool {
        match self {
            Select::Never => false,
            Select::Site(s) => s == site,
            Select::Ratio(m, n) => {
                let h = splitmix64(seed ^ fnv1a(kind) ^ fnv1a(site));
                h % n < *m
            }
        }
    }

    fn describe(&self) -> String {
        match self {
            Select::Never => "off".to_owned(),
            Select::Ratio(m, n) => format!("{m}/{n}"),
            Select::Site(s) => format!("@{s}"),
        }
    }
}

/// A strict seeded-plan grammar: comma-separated `key=value` clauses,
/// `seed=N` plus one selector per named clause, where a selector is an
/// `m/n` ratio (fire at ~m of n sites) or, if the grammar allows it, a
/// literal site name (fire exactly there). One clause accepts a trailing
/// `:MS` duration. `seed` defaults to 0.
///
/// Parsing is strict: unknown or duplicate clauses, selectors that look
/// like ratios but are not, and malformed durations are all hard errors,
/// each prefixed by the grammar's environment variable. A long-running
/// process armed with a subtly-wrong plan would otherwise run for hours
/// with faults that silently never fire.
#[derive(Debug, PartialEq, Eq)]
pub struct PlanGrammar {
    /// Environment variable the plan is read from; names every error.
    pub env: &'static str,
    /// Banner prefix for [`Plan::summary`].
    pub title: &'static str,
    /// The selector clause names (besides `seed`), in [`Plan::selects`] order.
    pub clauses: &'static [&'static str],
    /// The clause that takes an optional `:MS` duration tail.
    pub timed: &'static str,
    /// The duration when the timed clause has no tail.
    pub default_ms: u64,
    /// Whether a selector may name a literal site instead of a ratio.
    pub sites: bool,
}

/// A plan parsed by [`PlanGrammar::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    grammar: &'static PlanGrammar,
    /// Seed folded into every selection hash.
    pub seed: u64,
    /// One selector per grammar clause, in the grammar's order.
    pub selects: Vec<Select>,
    /// The timed clause's duration in milliseconds.
    pub ms: u64,
}

impl PlanGrammar {
    /// Parse a plan like `seed=42,panic=1/8,stall=1/6:250,torn=job`.
    pub fn parse(&'static self, input: &str) -> Result<Plan, String> {
        let env = self.env;
        let mut plan = Plan {
            grammar: self,
            seed: 0,
            selects: vec![Select::Never; self.clauses.len()],
            ms: self.default_ms,
        };
        let mut seen: Vec<&str> = Vec::new();
        for clause in input.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("{env}: clause `{clause}` is not `key=value`"))?;
            let key = key.trim();
            if seen.contains(&key) {
                return Err(format!(
                    "{env}: duplicate `{key}` clause (the first would be silently ignored)"
                ));
            }
            seen.push(key);
            if key == "seed" {
                plan.seed =
                    value.trim().parse().map_err(|_| format!("{env}: bad seed `{value}`"))?;
                continue;
            }
            let slot = self
                .clauses
                .iter()
                .position(|c| *c == key)
                .ok_or_else(|| format!("{env}: unknown clause `{key}`"))?;
            let mut selector = value;
            // `sel:ms` — the duration is the numeric tail after the LAST
            // colon; site names never contain one, so a colon whose tail
            // is not a number is a typo (`stall=1/6:25x`), not a site name.
            if key == self.timed {
                if let Some((head, tail)) = value.rsplit_once(':') {
                    plan.ms = tail.trim().parse().map_err(|_| {
                        format!("{env}: {key} duration `{tail}` is not a millisecond count")
                    })?;
                    selector = head;
                }
            }
            plan.selects[slot] = self.parse_select(selector)?;
        }
        Ok(plan)
    }

    fn parse_select(&self, value: &str) -> Result<Select, String> {
        let env = self.env;
        let value = value.trim();
        if value.is_empty() {
            return Err(format!("{env}: empty fault selector"));
        }
        // Site names (job names, artifact file names, scenario labels)
        // never contain `/`, so a slash means the user meant a ratio; a
        // malformed one (`1/2x`, `a/b`) must not silently become a
        // never-matching site.
        let Some((m, n)) = value.split_once('/') else {
            if self.sites {
                return Ok(Select::Site(value.to_owned()));
            }
            return Err(format!("{env}: selector `{value}` is not an `m/n` ratio"));
        };
        let m = m
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("{env}: ratio `{value}` has a bad numerator"))?;
        let n = n
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("{env}: ratio `{value}` has a bad denominator"))?;
        if n == 0 {
            return Err(format!("{env}: ratio `{value}` has zero denominator"));
        }
        Ok(Select::Ratio(m, n))
    }

    /// Read the plan from the grammar's environment variable; `Ok(None)`
    /// when unset or empty. A value that is set but unreadable
    /// (non-unicode) or malformed is an error — never silently ignored.
    pub fn from_env(&'static self) -> Result<Option<Plan>, String> {
        match std::env::var(self.env) {
            Ok(v) if !v.trim().is_empty() => self.parse(&v).map(Some),
            Ok(_) | Err(std::env::VarError::NotPresent) => Ok(None),
            Err(std::env::VarError::NotUnicode(_)) => {
                Err(format!("{}: value is not valid unicode", self.env))
            }
        }
    }
}

impl Plan {
    /// One-line human description for run banners.
    pub fn summary(&self) -> String {
        let mut out = format!("{}: seed={}", self.grammar.title, self.seed);
        for (name, select) in self.grammar.clauses.iter().zip(&self.selects) {
            out.push_str(&format!(" {name}={}", select.describe()));
            if *name == self.grammar.timed {
                out.push_str(&format!(" ({}ms)", self.ms));
            }
        }
        out
    }
}

/// A parsed `JSN_FAULT` plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan(Plan);

impl FaultPlan {
    /// Parse a plan like `seed=42,panic=1/8,stall=1/6:250,torn=1/2,flip=1/4`
    /// under the [`PlanGrammar`] rules. Every clause also takes a literal
    /// site name; `stall` takes the `:ms` tail (default 30 s).
    pub fn parse(input: &str) -> Result<FaultPlan, String> {
        FAULT_GRAMMAR.parse(input).map(FaultPlan)
    }

    /// Read the plan from `JSN_FAULT`; `Ok(None)` when unset or empty.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        Ok(FAULT_GRAMMAR.from_env()?.map(FaultPlan))
    }

    /// Whether `kind` fires at `site` under this plan.
    pub fn selects(&self, kind: FaultKind, site: &str) -> bool {
        self.0.selects[kind as usize].selects(self.0.seed, kind.name(), site)
    }

    /// One-line human description for run banners.
    pub fn summary(&self) -> String {
        self.0.summary()
    }
}

/// One fault the plan actually fired, for the run manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Fault kind name (`panic` / `stall` / `torn` / `flip`).
    pub kind: &'static str,
    /// The site it fired at.
    pub site: String,
}

impl InjectedFault {
    /// JSON form for the manifest's `injected_faults` array.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![("kind", Json::str(self.kind)), ("site", Json::str(&self.site))])
    }
}

static ACTIVE: Mutex<Option<FaultPlan>> = Mutex::new(None);
static INJECTED: Mutex<Vec<InjectedFault>> = Mutex::new(Vec::new());
static TORN_FIRED: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Install (or with `None`, clear) the process-wide plan. Resets the
/// injected-fault log and the torn-write once-per-site registry.
pub fn install(plan: Option<FaultPlan>) {
    *ACTIVE.lock().unwrap() = plan;
    INJECTED.lock().unwrap().clear();
    TORN_FIRED.lock().unwrap().clear();
}

/// The currently installed plan, if any.
pub fn active() -> Option<FaultPlan> {
    ACTIVE.lock().unwrap().clone()
}

/// Everything injected since the last `install`.
pub fn injected() -> Vec<InjectedFault> {
    INJECTED.lock().unwrap().clone()
}

fn record(kind: FaultKind, site: &str) {
    INJECTED.lock().unwrap().push(InjectedFault { kind: kind.name(), site: site.to_owned() });
}

/// Hook run at the top of every supervised job attempt. Fires stalls and
/// panics — on the first attempt only, so a single retry recovers.
pub fn before_job(site: &str, attempt: u32) {
    if attempt != 0 {
        return;
    }
    let Some(plan) = active() else { return };
    if plan.selects(FaultKind::Stall, site) {
        record(FaultKind::Stall, site);
        eprintln!("fault: stalling job `{site}` for {}ms", plan.0.ms);
        std::thread::sleep(std::time::Duration::from_millis(plan.0.ms));
    }
    if plan.selects(FaultKind::Panic, site) {
        record(FaultKind::Panic, site);
        eprintln!("fault: panicking job `{site}`");
        panic!("injected fault: panic at `{site}`");
    }
}

/// Whether the atomic writer should tear THIS write of `site` (a file
/// name). Fires at most once per site, so the retry succeeds.
pub fn torn_write(site: &str) -> bool {
    let Some(plan) = active() else { return false };
    if !plan.selects(FaultKind::Torn, site) {
        return false;
    }
    let mut fired = TORN_FIRED.lock().unwrap();
    if fired.iter().any(|s| s == site) {
        return false;
    }
    fired.push(site.to_owned());
    drop(fired);
    record(FaultKind::Torn, site);
    true
}

/// If the plan flips filter state for this scenario site, the deterministic
/// seed driving the corruption search; `None` otherwise.
pub fn flip_seed(site: &str) -> Option<u64> {
    let plan = active()?;
    if !plan.selects(FaultKind::Flip, site) {
        return None;
    }
    record(FaultKind::Flip, site);
    Some(splitmix64(plan.0.seed ^ fnv1a("flip-seed") ^ fnv1a(site)))
}

/// Serializes tests (across this crate) that mutate the process-global
/// plan — `cargo test` runs unit tests of one binary concurrently.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let p = FaultPlan::parse("seed=42, panic=1/8, stall=1/6:250, torn=1/2, flip=1/4").unwrap();
        assert_eq!(p.0.seed, 42);
        let ratios = [(1, 8), (1, 6), (1, 2), (1, 4)].map(|(m, n)| Select::Ratio(m, n));
        assert_eq!(p.0.selects, ratios);
        assert_eq!(p.0.ms, 250);
        assert_eq!(
            p.summary(),
            "fault plan: seed=42 panic=1/8 stall=1/6 (250ms) torn=1/2 flip=1/4"
        );
    }

    #[test]
    fn site_selectors_hit_exactly_one_site() {
        let p = FaultPlan::parse("panic=fig15_execution_reduction,stall=table2:90").unwrap();
        assert!(p.selects(FaultKind::Panic, "fig15_execution_reduction"));
        assert!(!p.selects(FaultKind::Panic, "fig16_power_reduction"));
        assert!(p.selects(FaultKind::Stall, "table2"));
        assert_eq!(p.0.ms, 90);
    }

    #[test]
    fn selection_is_deterministic_and_kind_separated() {
        let p = FaultPlan::parse("seed=7,panic=1/2,torn=1/2").unwrap();
        let sites = ["a", "b", "c", "d", "e", "f", "g", "h"];
        let panics: Vec<bool> = sites.iter().map(|s| p.selects(FaultKind::Panic, s)).collect();
        let torns: Vec<bool> = sites.iter().map(|s| p.selects(FaultKind::Torn, s)).collect();
        // Same plan, same answers.
        let again: Vec<bool> = sites.iter().map(|s| p.selects(FaultKind::Panic, s)).collect();
        assert_eq!(panics, again);
        // Different kinds hash differently (overwhelmingly likely to differ
        // across 8 sites at ratio 1/2).
        assert_ne!(panics, torns);
        // A 1/2 ratio hits a nontrivial subset.
        assert!(panics.iter().any(|&b| b) && panics.iter().any(|&b| !b));
    }

    #[test]
    fn seed_changes_the_selection() {
        let a = FaultPlan::parse("seed=1,panic=1/2").unwrap();
        let b = FaultPlan::parse("seed=2,panic=1/2").unwrap();
        let sites: Vec<String> = (0..64).map(|i| format!("job{i}")).collect();
        let pick = |p: &FaultPlan| -> Vec<bool> {
            sites.iter().map(|s| p.selects(FaultKind::Panic, s)).collect()
        };
        assert_ne!(pick(&a), pick(&b));
    }

    /// Pinned selections and flip seeds: a replayed fault plan must fire
    /// exactly where it fired before.
    #[test]
    fn selection_known_answers() {
        let p = FaultPlan::parse("seed=7,panic=1/5,stall=1/8:40000,torn=1/2,flip=1/3").unwrap();
        let mask = |kind: FaultKind| -> u32 {
            (0..32).filter(|i| p.selects(kind, &format!("job{i}"))).fold(0, |m, i| m | 1 << i)
        };
        assert_eq!(mask(FaultKind::Panic), 0x0010_2002);
        assert_eq!(mask(FaultKind::Stall), 0x0484_0000);
        assert_eq!(mask(FaultKind::Torn), 0xd71d_554e);
        assert_eq!(mask(FaultKind::Flip), 0x0090_950d);

        let _guard = TEST_LOCK.lock().unwrap();
        install(Some(FaultPlan::parse("seed=5,flip=1/1").unwrap()));
        assert_eq!(flip_seed("TMNM_12x3:aliasing:0x10"), Some(0x6c7e_a272_4e81_eade));
        assert_eq!(flip_seed("job1"), Some(0xdcad_e074_c117_2541));
        install(None);
    }

    /// The site and duration shapes only `JSN_FAULT` accepts. Malformed
    /// plans are covered by the reject table shared with `JSN_CHAOS` in
    /// the serve crate's chaos tests.
    #[test]
    fn accepts_site_and_duration_shapes() {
        for good in [
            "stall=fig12_tmnm_coverage",
            "stall=fig12_tmnm_coverage:90",
            "stall=1/6:250,panic=1/8",
            "flip=TMNM_12x1:aliasing:0x10",
        ] {
            assert!(FaultPlan::parse(good).is_ok(), "rejected {good:?}");
        }
    }

    #[test]
    fn empty_plan_never_fires() {
        let p = FaultPlan::parse("").unwrap();
        for kind in [FaultKind::Panic, FaultKind::Stall, FaultKind::Torn, FaultKind::Flip] {
            assert!(!p.selects(kind, "anything"));
        }
    }

    #[test]
    fn torn_write_fires_once_per_site() {
        let _guard = TEST_LOCK.lock().unwrap();
        install(Some(FaultPlan::parse("torn=1/1").unwrap()));
        assert!(torn_write("all_experiments.json"));
        assert!(!torn_write("all_experiments.json"), "second write must succeed");
        assert!(torn_write("other.json"), "distinct site fires independently");
        let log = injected();
        assert_eq!(log.len(), 2);
        assert!(log.iter().all(|f| f.kind == "torn"));
        install(None);
        assert!(!torn_write("all_experiments.json"));
        assert!(injected().is_empty(), "install clears the log");
    }

    #[test]
    fn before_job_only_fires_on_first_attempt() {
        let _guard = TEST_LOCK.lock().unwrap();
        install(Some(FaultPlan::parse("panic=boom").unwrap()));
        // Attempt 1+ is exempt: must not panic.
        before_job("boom", 1);
        let caught = std::panic::catch_unwind(|| before_job("boom", 0));
        assert!(caught.is_err(), "attempt 0 must panic");
        assert_eq!(injected().len(), 1);
        install(None);
    }

    #[test]
    fn flip_seed_is_stable_per_site() {
        let _guard = TEST_LOCK.lock().unwrap();
        install(Some(FaultPlan::parse("seed=3,flip=1/1").unwrap()));
        let a = flip_seed("TMNM_12x1:aliasing:0x10");
        let b = flip_seed("TMNM_12x1:aliasing:0x10");
        let c = flip_seed("SMNM_13x2:aliasing:0x10");
        assert!(a.is_some());
        assert_eq!(a, b, "same site, same seed");
        assert_ne!(a, c, "different site, different seed");
        install(None);
        assert_eq!(flip_seed("TMNM_12x1:aliasing:0x10"), None);
    }
}
