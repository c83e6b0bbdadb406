//! `jsn chaos`: a deterministic network-fault proxy for the serving
//! stack.
//!
//! Sits between `jsn slam` and `jsn serve`, relaying bytes in both
//! directions while injecting faults decided **purely** by a seeded
//! plan — the `JSN_CHAOS` environment variable, read by the same
//! strict parser as the offline experiment runner's `JSN_FAULT`
//! ([`PlanGrammar`]):
//!
//! ```text
//! JSN_CHAOS=seed=42,tear=1/24,delay=1/16:5,drop=1/64,corrupt=1/24,dup=1/32
//! ```
//!
//! Each clause is an `m/n` ratio; `delay` takes a trailing `:ms`
//! duration. A soak armed with a typo'd plan would run clean and prove
//! nothing, so every malformed plan is a hard error.
//!
//! ## Determinism
//!
//! Every byte stream is divided into fixed [`CELL`]-byte cells. For
//! each `(fault kind, connection, direction, cell)` tuple the plan
//! derives a hash; the hash decides whether the fault fires in that
//! cell *and* at which absolute byte offset within it. Because
//! decisions are keyed to absolute stream offsets — never to how the
//! kernel happened to chunk a read — the same seed against the same
//! byte streams fires the same faults at the same offsets, and the
//! fired-fault log is reproducible byte for byte. Two details make
//! that hold at connection teardown, where TCP timing is inherently
//! racy:
//!
//! * a relay whose destination dies keeps *reading* its source and
//!   recording fault decisions (sinking the undeliverable bytes), so
//!   the log depends only on what the source wrote — which is decided
//!   by deterministic client/server code — never on which write
//!   happened to fail first;
//! * a terminal fault closes both sockets and lets the opposite relay
//!   drain its source to EOF, rather than signalling it to stop at a
//!   racy point mid-stream.
//!
//! Connection ids are assigned in accept order, so full-log
//! determinism holds when connections are sequential (single-session
//! soaks); concurrent soaks are still per-connection deterministic.
//!
//! The faults:
//!
//! | kind | effect at the fault offset |
//! |------|---------------------------|
//! | `corrupt` | XOR one byte with a seeded nonzero mask |
//! | `dup`     | emit the byte twice (a minimal duplicated write that desynchronizes framing) |
//! | `delay`   | stall the relay for the configured milliseconds |
//! | `tear`    | deliver bytes before the offset, then cut the connection (torn frame) |
//! | `drop`    | deliver bytes before the offset, then cut the connection (reset) |
//!
//! `tear` and `drop` are mechanically the same cut — delivering the
//! offset-exact prefix is what keeps the shear reproducible — but they
//! are sampled independently, so a profile can dial torn-frame-heavy
//! and reset-heavy mixes separately; at the peer they surface as torn
//! mid-frame reads or clean closes depending on where the offset lands
//! relative to frame boundaries.
//!
//! Every fired fault is recorded `(conn, direction, cell, offset,
//! kind)`; [`ChaosHandle::fired_log`] renders the log sorted so two
//! runs can be `diff`ed, and `jsn chaos` writes it through the
//! crash-safe `fsio` writer on shutdown.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mnm_experiments::faults::{Plan, PlanGrammar, Select};
use trace_synth::hash::{fnv1a, splitmix64};

use crate::server::{connect, Conn, Endpoint, Listener};
use crate::signal;

/// Environment variable holding the chaos plan.
pub const ENV_CHAOS: &str = "JSN_CHAOS";

/// Fault-decision granularity: one decision per fault kind per
/// [`CELL`] bytes of stream, keyed to absolute offsets so kernel read
/// chunking cannot move a fault.
pub const CELL: u64 = 1024;

/// The `JSN_CHAOS` grammar. Clauses are in [`ChaosKind`] order.
static CHAOS_GRAMMAR: PlanGrammar = PlanGrammar {
    env: ENV_CHAOS,
    title: "chaos plan",
    clauses: &["corrupt", "dup", "delay", "tear", "drop"],
    timed: "delay",
    default_ms: 5,
    sites: false,
};

/// Socket poll tick for the relay loops.
const TICK: Duration = Duration::from_millis(20);

/// The injectable fault kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChaosKind {
    /// Flip one byte.
    Corrupt,
    /// Duplicate one byte (desynchronizes framing downstream).
    Dup,
    /// Stall the relay.
    Delay,
    /// Close one direction mid-stream (torn write).
    Tear,
    /// Reset the whole connection.
    Drop,
}

impl ChaosKind {
    /// Stable name, used both for decision hashing and the log.
    pub fn name(self) -> &'static str {
        CHAOS_GRAMMAR.clauses[self as usize]
    }

    const ALL: [ChaosKind; 5] =
        [ChaosKind::Corrupt, ChaosKind::Dup, ChaosKind::Delay, ChaosKind::Tear, ChaosKind::Drop];
}

/// Relay direction, part of every fault decision and log line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Direction {
    /// Client → server bytes.
    ClientToServer,
    /// Server → client bytes.
    ServerToClient,
}

impl Direction {
    fn name(self) -> &'static str {
        match self {
            Direction::ClientToServer => "c2s",
            Direction::ServerToClient => "s2c",
        }
    }
}

/// A parsed `JSN_CHAOS` plan: a seed plus one optional `m/n` ratio per
/// fault kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan(Plan);

/// One scheduled fault inside a cell: where, and what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CellFault {
    kind: ChaosKind,
    /// Absolute byte offset in the stream where it fires.
    offset: u64,
}

impl ChaosPlan {
    /// Parse a plan like `seed=42,tear=1/24,delay=1/16:5,corrupt=1/24`
    /// under the shared [`PlanGrammar`] rules. Every fault clause takes an
    /// `m/n` ratio (fire in ~m of n cells), never a site name; `delay`
    /// takes the `:ms` tail.
    pub fn parse(input: &str) -> Result<ChaosPlan, String> {
        CHAOS_GRAMMAR.parse(input).map(ChaosPlan)
    }

    /// Read the plan from `JSN_CHAOS`; `Ok(None)` when unset or empty.
    pub fn from_env() -> Result<Option<ChaosPlan>, String> {
        Ok(CHAOS_GRAMMAR.from_env()?.map(ChaosPlan))
    }

    /// The configured delay duration.
    pub fn delay_ms(&self) -> u64 {
        self.0.ms
    }

    fn ratio(&self, kind: ChaosKind) -> Option<(u64, u64)> {
        match self.0.selects[kind as usize] {
            Select::Ratio(m, n) => Some((m, n)),
            _ => None,
        }
    }

    /// The per-kind decision hash for one cell of one stream.
    fn cell_hash(&self, kind: ChaosKind, conn: u64, dir: Direction, cell: u64) -> u64 {
        splitmix64(
            self.0.seed
                ^ fnv1a(kind.name())
                ^ fnv1a(dir.name())
                ^ splitmix64(conn).rotate_left(17)
                ^ splitmix64(cell).rotate_left(41),
        )
    }

    /// The faults scheduled for `cell` of `(conn, dir)`, sorted by
    /// offset. Pure: same inputs, same schedule, forever.
    fn cell_faults(&self, conn: u64, dir: Direction, cell: u64) -> Vec<CellFault> {
        let mut out = Vec::new();
        for kind in ChaosKind::ALL {
            let Some((m, n)) = self.ratio(kind) else { continue };
            let h = self.cell_hash(kind, conn, dir, cell);
            if h % n < m {
                out.push(CellFault { kind, offset: cell * CELL + splitmix64(h) % CELL });
            }
        }
        // Stable order: by offset, ties broken by kind so the schedule
        // never depends on iteration luck.
        out.sort_by_key(|f| (f.offset, f.kind));
        out
    }

    /// One-line human description for run banners.
    pub fn summary(&self) -> String {
        self.0.summary()
    }
}

/// One fault the proxy actually fired.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FiredFault {
    /// Connection id (accept order, starting at 1).
    pub conn: u64,
    /// Which direction's stream.
    pub dir: Direction,
    /// The absolute byte offset the fault fired at.
    pub offset: u64,
    /// What fired.
    pub kind: ChaosKind,
}

impl FiredFault {
    fn render(&self) -> String {
        format!(
            "conn={} dir={} cell={} offset={} kind={}",
            self.conn,
            self.dir.name(),
            self.offset / CELL,
            self.offset,
            self.kind.name()
        )
    }
}

/// Chaos proxy options.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Where the proxy listens (clients connect here).
    pub listen: Endpoint,
    /// The real server to relay to.
    pub upstream: Endpoint,
    /// The fault plan.
    pub plan: ChaosPlan,
    /// Where to write the fired-fault log on shutdown.
    pub log_path: Option<PathBuf>,
}

/// A handle for stopping a running proxy and reading its fault log.
#[derive(Clone)]
pub struct ChaosHandle {
    shutdown: Arc<AtomicBool>,
    fired: Arc<Mutex<Vec<FiredFault>>>,
}

impl ChaosHandle {
    /// Ask the proxy to stop accepting and exit.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Snapshot of every fault fired so far.
    pub fn fired(&self) -> Vec<FiredFault> {
        self.fired.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    /// The fired-fault log, one line per fault, sorted `(conn, dir,
    /// offset, kind)` so two runs of the same seed diff clean.
    pub fn fired_log(&self) -> String {
        let mut faults = self.fired();
        faults.sort();
        let mut out = String::with_capacity(faults.len() * 48 + 1);
        for f in &faults {
            out.push_str(&f.render());
            out.push('\n');
        }
        out
    }
}

/// The proxy: bind with [`ChaosProxy::bind`], then block in
/// [`ChaosProxy::run`].
pub struct ChaosProxy {
    listener: Listener,
    options: ChaosOptions,
    shutdown: Arc<AtomicBool>,
    fired: Arc<Mutex<Vec<FiredFault>>>,
    next_conn: AtomicU64,
}

impl ChaosProxy {
    /// Bind the listen endpoint. A stale unix socket file is removed
    /// first.
    pub fn bind(options: ChaosOptions) -> std::io::Result<ChaosProxy> {
        Ok(ChaosProxy {
            listener: Listener::bind(&options.listen)?,
            options,
            shutdown: Arc::new(AtomicBool::new(false)),
            fired: Arc::new(Mutex::new(Vec::new())),
            next_conn: AtomicU64::new(1),
        })
    }

    /// The bound listen endpoint (resolves TCP port 0).
    pub fn local_endpoint(&self) -> Endpoint {
        self.listener.local_endpoint(&self.options.listen)
    }

    /// A handle for shutdown and fault-log access.
    pub fn handle(&self) -> ChaosHandle {
        ChaosHandle { shutdown: Arc::clone(&self.shutdown), fired: Arc::clone(&self.fired) }
    }

    /// Accept and relay until shutdown, then flush the fired-fault log.
    pub fn run(self) -> std::io::Result<()> {
        let relays = self.listener.accept_until(
            &self.local_endpoint(),
            &self.shutdown,
            |client, relays| {
                let conn_id = self.next_conn.fetch_add(1, Ordering::Relaxed);
                let Ok(upstream) = connect(&self.options.upstream) else {
                    client.shutdown_both();
                    return;
                };
                let (Ok(client_r), Ok(upstream_r)) = (client.try_clone(), upstream.try_clone())
                else {
                    client.shutdown_both();
                    upstream.shutdown_both();
                    return;
                };
                for (src, dst, dir) in [
                    (client, upstream, Direction::ClientToServer),
                    (upstream_r, client_r, Direction::ServerToClient),
                ] {
                    let plan = self.options.plan.clone();
                    let fired = Arc::clone(&self.fired);
                    let shutdown = Arc::clone(&self.shutdown);
                    relays.push(std::thread::spawn(move || {
                        relay(src, dst, &plan, conn_id, dir, &fired, &shutdown);
                    }));
                }
            },
        )?;
        for r in relays {
            let _ = r.join();
        }
        if let Some(path) = &self.options.log_path {
            let log = self.handle().fired_log();
            mnm_experiments::fsio::write_artifact(path, log.as_bytes())?;
        }
        if let Endpoint::Unix(path) = &self.options.listen {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

fn record(fired: &Mutex<Vec<FiredFault>>, fault: FiredFault) {
    fired.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(fault);
}

/// Relay one direction of one connection, injecting the plan's faults.
///
/// Reads never cross a cell boundary, so each relayed chunk lies in
/// exactly one cell and every fault offset falls inside at most one
/// chunk — which is what makes the injected byte stream a pure
/// function of (plan, conn, dir, clean stream), independent of read
/// chunking.
///
/// A destination that dies does NOT stop the relay: it switches to
/// *sinking* — reading, deciding, and recording as before, discarding
/// the output. Which write fails first is a TCP-buffering race, and
/// letting it truncate the loop would make the fired-fault log depend
/// on that race; the source closing (a deterministic consequence of
/// client/server code) is the only clean end of stream.
fn relay(
    mut src: Conn,
    mut dst: Conn,
    plan: &ChaosPlan,
    conn_id: u64,
    dir: Direction,
    fired: &Mutex<Vec<FiredFault>>,
    shutdown: &AtomicBool,
) {
    let _ = src.set_timeouts(TICK);
    let _ = dst.set_timeouts(TICK);
    let mut offset: u64 = 0;
    let mut sinking = false;
    let mut buf = vec![0u8; CELL as usize];
    let mut out: Vec<u8> = Vec::with_capacity(CELL as usize + 8);
    let flush = |dst: &mut Conn, out: &mut Vec<u8>, sinking: &mut bool| {
        if !*sinking && !out.is_empty() && write_all_tolerant(dst, out, shutdown).is_err() {
            *sinking = true;
        }
        out.clear();
    };
    loop {
        if shutdown.load(Ordering::SeqCst) || signal::requested() {
            break;
        }
        let room = (CELL - offset % CELL) as usize;
        let n = match src.read(&mut buf[..room]) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        let chunk = &buf[..n];
        let start = offset;
        let end = offset + n as u64;
        offset = end;

        // Faults scheduled in this chunk's cell that land inside this
        // chunk's absolute byte range, in offset order.
        let cell = start / CELL;
        let faults: Vec<CellFault> = plan
            .cell_faults(conn_id, dir, cell)
            .into_iter()
            .filter(|f| f.offset >= start && f.offset < end)
            .collect();

        out.clear();
        let mut cursor = start;
        for fault in faults {
            let rel = (fault.offset - start) as usize;
            match fault.kind {
                ChaosKind::Delay => {
                    // Flush what precedes the fault point, then stall.
                    out.extend_from_slice(&chunk[(cursor - start) as usize..rel]);
                    cursor = fault.offset;
                    flush(&mut dst, &mut out, &mut sinking);
                    record(
                        fired,
                        FiredFault { conn: conn_id, dir, offset: fault.offset, kind: fault.kind },
                    );
                    std::thread::sleep(Duration::from_millis(plan.delay_ms()));
                }
                ChaosKind::Corrupt => {
                    out.extend_from_slice(&chunk[(cursor - start) as usize..rel]);
                    cursor = fault.offset + 1;
                    let mask = (splitmix64(plan.cell_hash(fault.kind, conn_id, dir, cell) ^ 0xC0)
                        % 255
                        + 1) as u8;
                    out.push(chunk[rel] ^ mask);
                    record(
                        fired,
                        FiredFault { conn: conn_id, dir, offset: fault.offset, kind: fault.kind },
                    );
                }
                ChaosKind::Dup => {
                    out.extend_from_slice(&chunk[(cursor - start) as usize..rel]);
                    cursor = fault.offset + 1;
                    out.push(chunk[rel]);
                    out.push(chunk[rel]);
                    record(
                        fired,
                        FiredFault { conn: conn_id, dir, offset: fault.offset, kind: fault.kind },
                    );
                }
                ChaosKind::Tear | ChaosKind::Drop => {
                    // Deliver exactly the bytes before the fault
                    // offset, then cut the whole connection. The
                    // delivered prefix is offset-exact, so reruns
                    // shear at the same byte.
                    out.extend_from_slice(&chunk[(cursor - start) as usize..rel]);
                    flush(&mut dst, &mut out, &mut sinking);
                    record(
                        fired,
                        FiredFault { conn: conn_id, dir, offset: fault.offset, kind: fault.kind },
                    );
                    src.shutdown_both();
                    dst.shutdown_both();
                    return;
                }
            }
        }
        out.extend_from_slice(&chunk[(cursor - start) as usize..]);
        flush(&mut dst, &mut out, &mut sinking);
    }
    // Natural end of stream: pass the FIN downstream but leave the
    // paired direction alone — it drains to its own EOF. A full
    // teardown here would cut the opposite relay's source at a
    // buffering-dependent instant and make the fired log racy.
    dst.shutdown_write();
}

/// `write_all` over a socket with a poll-tick timeout.
fn write_all_tolerant(conn: &mut Conn, mut buf: &[u8], shutdown: &AtomicBool) -> Result<(), ()> {
    while !buf.is_empty() {
        if shutdown.load(Ordering::SeqCst) {
            return Err(());
        }
        match conn.write(buf) {
            Ok(0) => return Err(()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return Err(()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let p =
            ChaosPlan::parse("seed=42, tear=1/24, delay=1/16:5, drop=1/64, corrupt=1/24, dup=1/32")
                .unwrap();
        assert_eq!(p.0.seed, 42);
        assert_eq!(p.ratio(ChaosKind::Tear), Some((1, 24)));
        assert_eq!(p.ratio(ChaosKind::Delay), Some((1, 16)));
        assert_eq!(p.delay_ms(), 5);
        assert_eq!(p.ratio(ChaosKind::Drop), Some((1, 64)));
        assert_eq!(p.ratio(ChaosKind::Corrupt), Some((1, 24)));
        assert_eq!(p.ratio(ChaosKind::Dup), Some((1, 32)));
        assert_eq!(
            p.summary(),
            "chaos plan: seed=42 corrupt=1/24 dup=1/32 delay=1/16 (5ms) tear=1/24 drop=1/64"
        );
    }

    /// Malformed plans, written over placeholder clause names: `{k}` is a
    /// plain fault clause and `{t}` the timed one. Both grammars must
    /// reject every entry and name their own environment variable.
    #[test]
    fn both_plan_grammars_reject_the_same_malformed_plans() {
        const MALFORMED: [&str; 11] = [
            "{k}",           // not key=value
            "wat=1/2",       // unknown clause
            "seed=x",        // bad seed
            "{k}=1/0",       // zero denominator
            "{k}=",          // empty selector
            "{k}=1/2x",      // almost-ratio, not a site
            "{k}=a/b",       // a slash always means a ratio
            "{t}=1/6:25x",   // malformed ms tail, not a site
            "{t}=1/6:",      // empty ms tail
            "{k}=1/4,{k}=1", // duplicate clause
            "seed=1,seed=2", // duplicate seed
        ];
        let reject_all =
            |env: &str, k: &str, t: &str, parse: &dyn Fn(&str) -> Result<(), String>| {
                for template in MALFORMED {
                    let plan = template.replace("{k}", k).replace("{t}", t);
                    match parse(&plan) {
                        Ok(()) => panic!("{env} accepted {plan:?}"),
                        Err(e) => assert!(e.starts_with(&format!("{env}: ")), "{plan:?}: {e}"),
                    }
                }
            };
        reject_all("JSN_FAULT", "panic", "stall", &|p| {
            mnm_experiments::faults::FaultPlan::parse(p).map(drop)
        });
        reject_all("JSN_CHAOS", "tear", "delay", &|p| ChaosPlan::parse(p).map(drop));
    }

    #[test]
    fn rejects_site_selectors() {
        for bad in ["corrupt=site", "delay=site:5"] {
            assert!(ChaosPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert!(ChaosPlan::parse("").is_ok(), "an empty plan relays clean");
    }

    #[test]
    fn cell_schedule_is_deterministic_and_seed_sensitive() {
        let a = ChaosPlan::parse("seed=1,corrupt=1/4,tear=1/8").unwrap();
        let b = ChaosPlan::parse("seed=2,corrupt=1/4,tear=1/8").unwrap();
        let schedule = |p: &ChaosPlan| -> Vec<Vec<CellFault>> {
            (0..256).map(|c| p.cell_faults(7, Direction::ClientToServer, c)).collect()
        };
        assert_eq!(schedule(&a), schedule(&a), "same plan, same schedule");
        assert_ne!(schedule(&a), schedule(&b), "seed changes the schedule");
        // Directions are independent decisions.
        let c2s: Vec<_> =
            (0..256).map(|c| a.cell_faults(7, Direction::ClientToServer, c)).collect();
        let s2c: Vec<_> =
            (0..256).map(|c| a.cell_faults(7, Direction::ServerToClient, c)).collect();
        assert_ne!(c2s, s2c);
        // A 1/4 ratio over 256 cells fires a nontrivial subset.
        let hits = c2s.iter().filter(|f| !f.is_empty()).count();
        assert!(hits > 16 && hits < 240, "{hits} of 256 cells faulted");
    }

    /// Pinned schedule for the CI corrupt profile: a replayed chaos plan
    /// must fire the same faults at the same offsets.
    #[test]
    fn cell_schedule_known_answers() {
        use ChaosKind::{Corrupt, Delay, Dup};
        let p = ChaosPlan::parse("seed=3,corrupt=1/8,dup=1/16,delay=1/6:1").unwrap();
        let schedule = |dir: Direction| -> Vec<(u64, ChaosKind)> {
            (0..32).flat_map(|c| p.cell_faults(1, dir, c)).map(|f| (f.offset, f.kind)).collect()
        };
        assert_eq!(
            schedule(Direction::ClientToServer),
            [
                (6697, Delay),
                (7248, Delay),
                (9080, Dup),
                (9237, Corrupt),
                (11247, Delay),
                (11697, Corrupt),
                (13032, Delay),
                (18862, Corrupt),
                (19494, Delay),
                (20101, Corrupt),
                (22794, Corrupt),
            ]
        );
        assert_eq!(
            schedule(Direction::ServerToClient),
            [
                (46, Delay),
                (3844, Delay),
                (4829, Delay),
                (7328, Dup),
                (11642, Delay),
                (14457, Dup),
                (16793, Delay),
                (17038, Corrupt),
                (19012, Corrupt),
                (26113, Delay),
                (26389, Dup),
                (30070, Corrupt),
                (31204, Corrupt),
            ]
        );
    }

    #[test]
    fn fault_offsets_stay_inside_their_cell() {
        let p = ChaosPlan::parse("seed=9,corrupt=1/1,dup=1/1,delay=1/1,tear=1/1,drop=1/1").unwrap();
        for cell in 0..64 {
            for f in p.cell_faults(3, Direction::ServerToClient, cell) {
                assert!(f.offset >= cell * CELL && f.offset < (cell + 1) * CELL, "{f:?}");
            }
        }
    }

    #[test]
    fn fired_log_renders_sorted() {
        let fired = Arc::new(Mutex::new(vec![
            FiredFault {
                conn: 2,
                dir: Direction::ClientToServer,
                offset: 10,
                kind: ChaosKind::Dup,
            },
            FiredFault {
                conn: 1,
                dir: Direction::ServerToClient,
                offset: 2048,
                kind: ChaosKind::Tear,
            },
            FiredFault {
                conn: 1,
                dir: Direction::ClientToServer,
                offset: 99,
                kind: ChaosKind::Corrupt,
            },
        ]));
        let handle = ChaosHandle { shutdown: Arc::new(AtomicBool::new(false)), fired };
        let log = handle.fired_log();
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "conn=1 dir=c2s cell=0 offset=99 kind=corrupt");
        assert_eq!(lines[1], "conn=1 dir=s2c cell=2 offset=2048 kind=tear");
        assert_eq!(lines[2], "conn=2 dir=c2s cell=0 offset=10 kind=dup");
    }
}
