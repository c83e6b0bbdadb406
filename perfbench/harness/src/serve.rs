//! `serve_stream` and `serve_churn`: an in-process `serve::Server` on a
//! unix socket with the default `ServerConfig`, driven by two closed-loop
//! client connections speaking protocol v2 through the crate's public
//! codec. Inputs are pre-generated with `slam::session_instrs` before
//! timing; frames per request and the window are `slam`'s defaults.
//!
//! Both workloads check the served verdicts against an offline
//! `SessionCore` replay of exactly the frames sent. The traced run times
//! the replay's layer calls (`frame_crc`, `decode_records`,
//! `SessionCore::new`, `SessionCore::feed`) and attributes the rest of
//! each frame's round trip to transport: socket, queue and ack. Its
//! tracing overhead is a prefix of that replay timed with spans on and off.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mnm_serve::metrics::scrape_value;
use mnm_serve::protocol::{
    decode_records, decode_summary, encode_frame, encode_hello, encode_records_payload, frame_crc,
    parse_frame_header, verify_frame_crc, FrameType, SessionStatsWire, FRAME_HEADER_BYTES, MAGIC,
    STATUS_OK, VERSION,
};
use mnm_serve::slam::{parse_verdicts, scrape_metrics, session_instrs, SlamOptions};
use mnm_serve::{Endpoint, Server, ServerConfig, ServerHandle, SessionCore};
use trace_synth::Instr;

use crate::checks::{self, Verdicts};
use crate::ledger::{self, median, percentile, LayerTotals, Tracer};
use crate::Outcome;

/// Closed-loop client connections (the host's core count).
const CONNECTIONS: usize = 2;
/// `serve_stream`: each connection cycles a pool of this many
/// `session_instrs` segments of `SEGMENT_RECORDS` records.
const SEGMENTS: usize = 96;
const SEGMENT_RECORDS: u64 = 4_096;
/// `serve_churn`: sessions per round, records per frame, frames per session.
const CHURN_SESSIONS: usize = 120;
const CHURN_FRAME_RECORDS: usize = 2_000;
const CHURN_FRAMES: usize = 4;
/// `serve_churn`'s fixed preset mix, by session index.
const CHURN_PRESETS: [&str; 3] = ["baseline", "TMNM_12x3", "HMNM4"];
/// Server set-ups measured by `serve_stream`; the median is reported.
const SETUP_REPS: usize = 31;
/// `SessionCore::new` calls timed by the traced ledger.
const NEW_REPS: usize = 16;
/// The replay prefix the tracing overhead is measured on: frames of a
/// `serve_stream` connection, or `serve_churn` sessions.
const OVERHEAD_FRAMES: u64 = 256;
const OVERHEAD_SESSIONS: usize = 30;
/// Replays of that prefix with spans on, and as many with spans off.
const OVERHEAD_REPS: usize = 3;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

fn socket_path(tag: usize) -> PathBuf {
    let dir =
        std::env::var("PERFBENCH_TMP").unwrap_or_else(|_| ".bench_build/perfbench".to_string());
    std::fs::create_dir_all(&dir).expect("create the benchmark's socket directory");
    PathBuf::from(dir).join(format!("s{}-{tag}.sock", std::process::id()))
}

struct Running {
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
    endpoint: Endpoint,
}

fn start_server(path: &Path) -> Running {
    let endpoint = Endpoint::Unix(path.to_path_buf());
    let server =
        Server::bind(endpoint.clone(), ServerConfig::default()).expect("bind the benchmark server");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    Running { handle, thread, endpoint }
}

fn stop(r: Running) -> Result<(), String> {
    r.handle.shutdown();
    match r.thread.join() {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("server exited with {e}")),
        Err(_) => Err("server thread panicked".to_string()),
    }
}

fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn hello(s: &mut UnixStream, preset: &str) -> Result<(), String> {
    s.write_all(&encode_hello(preset, 0)).map_err(io("hello"))?;
    let mut fixed = [0u8; 7];
    s.read_exact(&mut fixed).map_err(io("hello reply"))?;
    let mut len = [0u8; 2];
    s.read_exact(&mut len).map_err(io("hello reply"))?;
    let mut detail = vec![0u8; u16::from_le_bytes(len) as usize];
    s.read_exact(&mut detail).map_err(io("hello reply"))?;
    let version = u16::from_le_bytes([fixed[4], fixed[5]]);
    if fixed[..4] != MAGIC || version != VERSION || fixed[6] != STATUS_OK {
        return Err(format!(
            "hello refused (version {version}, status {}): {}",
            fixed[6],
            String::from_utf8_lossy(&detail)
        ));
    }
    let mut trailer = [0u8; 20];
    s.read_exact(&mut trailer).map_err(io("hello trailer"))
}

fn read_frame(s: &mut UnixStream) -> Result<(FrameType, Vec<u8>), String> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    s.read_exact(&mut header).map_err(io("frame header"))?;
    let parsed = parse_frame_header(&header, u32::MAX).map_err(|e| e.to_string())?;
    let mut payload = vec![0u8; parsed.payload_len as usize];
    s.read_exact(&mut payload).map_err(io("frame payload"))?;
    verify_frame_crc(&parsed, &payload).map_err(|e| e.to_string())?;
    Ok((parsed.frame_type, payload))
}

/// What one client session saw.
#[derive(Default)]
struct SessionLog {
    /// Frame round trips, send to summary, in microseconds.
    rtt_us: Vec<f64>,
    /// `(seconds since the run's origin, accesses)` per acknowledged frame.
    acks: Vec<(f64, u64)>,
    frames_sent: u64,
    frames_acked: u64,
    /// Connect to `Stats`, in milliseconds.
    session_ms: f64,
    stats: Option<SessionStatsWire>,
}

impl SessionLog {
    /// A log with room for `frames` frames. A long session's log is made
    /// before the heap baseline is taken, so its growth is not counted as
    /// server memory.
    fn with_capacity(frames: usize) -> SessionLog {
        SessionLog {
            rtt_us: Vec::with_capacity(frames),
            acks: Vec::with_capacity(frames),
            ..SessionLog::default()
        }
    }
}

/// When a session stops sending frames.
#[derive(Clone, Copy)]
enum Stop {
    After(u64),
    At(Instant),
}

/// One closed-loop session: hello, frames cycling through `chunks` with
/// at most `window` unacknowledged, finish, stats, recorded in `log`.
fn run_session(
    path: &Path,
    preset: &str,
    chunks: &[&[Instr]],
    stop: Stop,
    window: usize,
    origin: Instant,
    mut log: SessionLog,
) -> Result<SessionLog, String> {
    let t_session = Instant::now();
    let mut s = UnixStream::connect(path).map_err(io("connect"))?;
    s.set_read_timeout(Some(CLIENT_TIMEOUT)).map_err(io("timeout"))?;
    s.set_write_timeout(Some(CLIENT_TIMEOUT)).map_err(io("timeout"))?;
    hello(&mut s, preset)?;
    let mut in_flight: VecDeque<(u64, Instant)> = VecDeque::new();
    let (mut payload, mut frame) = (Vec::new(), Vec::new());
    let ack =
        |s: &mut UnixStream, in_flight: &mut VecDeque<(u64, Instant)>, log: &mut SessionLog| {
            let (ty, body) = read_frame(s)?;
            if ty != FrameType::Summary {
                return Err(format!(
                    "expected a summary, got {ty:?}: {}",
                    String::from_utf8_lossy(&body)
                ));
            }
            let (seq, vals) = decode_summary(&body).map_err(|e| e.to_string())?;
            let (want, t0) = in_flight.pop_front().ok_or("unsolicited summary")?;
            if seq != want {
                return Err(format!("summary for seq {seq}, expected {want}"));
            }
            log.rtt_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            log.acks.push((origin.elapsed().as_secs_f64(), vals[0]));
            log.frames_acked += 1;
            Ok::<(), String>(())
        };
    loop {
        let done = match stop {
            Stop::After(n) => log.frames_sent >= n,
            Stop::At(t) => Instant::now() >= t,
        };
        if done {
            break;
        }
        let seq = log.frames_sent + 1;
        payload.clear();
        encode_records_payload(seq, chunks[(seq as usize - 1) % chunks.len()], &mut payload);
        frame.clear();
        encode_frame(FrameType::Records, &payload, &mut frame);
        let t0 = Instant::now();
        s.write_all(&frame).map_err(io("send frame"))?;
        in_flight.push_back((seq, t0));
        log.frames_sent += 1;
        while in_flight.len() >= window {
            ack(&mut s, &mut in_flight, &mut log)?;
        }
    }
    while !in_flight.is_empty() {
        ack(&mut s, &mut in_flight, &mut log)?;
    }
    frame.clear();
    encode_frame(FrameType::Finish, &[], &mut frame);
    s.write_all(&frame).map_err(io("send finish"))?;
    let (ty, body) = read_frame(&mut s)?;
    if ty != FrameType::Stats {
        return Err(format!("expected stats, got {ty:?}"));
    }
    log.stats = Some(SessionStatsWire::decode(&body).map_err(|e| e.to_string())?);
    drop(s);
    log.session_ms = t_session.elapsed().as_secs_f64() * 1e3;
    Ok(log)
}

/// An offline `SessionCore` replay of the frames a session sent.
#[derive(Default)]
struct Offline {
    verdicts: Verdicts,
    accesses: u64,
    definite: u64,
    maybe: u64,
    first_feed_us: f64,
    layer_ns: f64,
}

fn offline(preset: &str, chunks: &[&[Instr]], frames: u64, tracer: &mut Tracer) -> Offline {
    let mut off = Offline::default();
    let span = tracer.enter("serve.session.new");
    let mut core = SessionCore::new(preset).expect("benchmark presets are valid");
    tracer.exit(span, 1);
    let (mut payload, mut records) = (Vec::new(), Vec::new());
    for i in 0..frames as usize {
        let chunk = chunks[i % chunks.len()];
        payload.clear();
        encode_records_payload(i as u64 + 1, chunk, &mut payload);
        let t = Instant::now();
        let span = tracer.enter("serve.protocol.crc");
        std::hint::black_box(frame_crc(FrameType::Records, &payload));
        tracer.exit(span, 1);
        records.clear();
        let span = tracer.enter("serve.protocol.decode");
        decode_records(&payload, &mut records).expect("own frames decode");
        tracer.exit(span, records.len() as u64);
        let span = tracer.enter("serve.session.feed");
        let summary = core.feed(&records);
        tracer.exit(span, summary.accesses);
        let ns = t.elapsed().as_nanos() as f64;
        if i == 0 {
            off.first_feed_us = ns / 1e3;
        }
        off.layer_ns += ns;
    }
    off.accesses = core.accesses();
    for v in core.verdicts() {
        for (verdict, n) in
            [("hit", v.hits), ("maybe_miss", v.maybe_misses), ("definite_miss", v.definite_misses)]
        {
            *off.verdicts.entry((v.name.clone(), verdict.to_string())).or_default() += n;
        }
        if v.level > 1 {
            off.definite += v.definite_misses;
            off.maybe += v.maybe_misses;
        }
    }
    off
}

fn add_verdicts(into: &mut Verdicts, from: &Verdicts) {
    for (k, v) in from {
        *into.entry(k.clone()).or_default() += v;
    }
}

/// `after - before`, per verdict key.
fn verdict_delta(before: &str, after: &str) -> Verdicts {
    let b = parse_verdicts(before);
    parse_verdicts(after)
        .into_iter()
        .map(|(k, v)| {
            let base = b.get(&k).copied().unwrap_or(0);
            (k, v - base)
        })
        .collect()
}

fn scrape(r: &Running) -> String {
    scrape_metrics(&r.endpoint).unwrap_or_else(|e| panic!("scrape /metrics: {e}"))
}

fn counter(page: &str, name: &str) -> u64 {
    scrape_value(page, name).unwrap_or_else(|| panic!("/metrics has no {name}"))
}

/// The checks both serve workloads share: served verdicts equal the
/// offline replay (and a one-off perturbation of them does not), the
/// exactly-once frame ledger holds and no frame went unacknowledged.
fn check_served(
    out: &mut Outcome,
    before: &str,
    after: &str,
    expected: &Verdicts,
    sent: u64,
    acked: u64,
) {
    let served = verdict_delta(before, after);
    let mut perturbed = served.clone();
    if let Some(v) = perturbed.values_mut().next() {
        *v += 1;
    }
    out.check_with_negative(
        "served jsn_verdict_total equals the offline SessionCore replay",
        checks::verdicts_match(expected, &served),
        checks::verdicts_match(expected, &perturbed),
    );
    let ledger = checks::frame_ledger(
        counter(after, "jsn_frames_in_total"),
        counter(after, "jsn_frames_applied_total"),
        counter(after, "jsn_frames_replayed_total"),
        sent,
        acked,
    );
    out.check("frames_in = applied + replayed, zero frames dropped", ledger);
}

/// Length of the windows `serve_stream` measures its rate over.
const WINDOW_S: f64 = 0.5;
/// Frames per second a `serve_stream` connection's log has room for,
/// several times what a connection reaches on the reference host.
const LOG_FRAMES_PER_S: f64 = 10_000.0;

/// Accesses per second: the median over whole windows of the accesses
/// acknowledged in them.
fn windowed_rate(acks: &[(f64, u64)], elapsed: f64) -> f64 {
    let windows = (elapsed / WINDOW_S).floor() as usize;
    let mut sums = vec![0u64; windows.max(1)];
    for &(t, n) in acks {
        let w = (t / WINDOW_S).floor() as usize;
        if w < windows {
            sums[w] += n;
        }
    }
    median(&sums.iter().map(|&s| s as f64 / WINDOW_S).collect::<Vec<_>>())
}

fn verdict_coverage(definite: u64, maybe: u64) -> f64 {
    definite as f64 / (definite + maybe).max(1) as f64
}

/// Per-layer serve metrics from the offline replays of a traced run.
fn report_layers(
    out: &mut Outcome,
    totals: &BTreeMap<&str, LayerTotals>,
    rtt_us: &[f64],
    frames: u64,
    parked: u64,
    first_feed_us: &[f64],
) {
    let t = |name: &str| totals.get(name).copied().unwrap_or_default();
    let (crc, decode, feed) =
        (t("serve.protocol.crc"), t("serve.protocol.decode"), t("serve.session.feed"));
    out.metric("serve.protocol.crc_ns_per_frame", crc.total_ns as f64 / crc.count.max(1) as f64);
    out.metric(
        "serve.protocol.decode_ns_per_record",
        decode.total_ns as f64 / decode.count.max(1) as f64,
    );
    out.metric("serve.session.feed_ns_per_access", feed.total_ns as f64 / feed.count.max(1) as f64);
    let layer_us_per_frame =
        (crc.total_ns + decode.total_ns + feed.total_ns) as f64 / 1e3 / frames.max(1) as f64;
    let mean_rtt = rtt_us.iter().sum::<f64>() / rtt_us.len().max(1) as f64;
    out.metric("serve.transport_wait_us_per_frame", mean_rtt - layer_us_per_frame);
    let mut news = Vec::new();
    for _ in 0..NEW_REPS {
        let t = Instant::now();
        std::hint::black_box(SessionCore::new("HMNM4").expect("HMNM4 is a valid preset"));
        news.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    out.metric("serve.session.new_us", median(&news));
    out.metric("serve.session.first_feed_us", median(first_feed_us));
    out.metric("serve.sessions_parked", parked as f64);
}

fn ledger_check(
    out: &mut Outcome,
    tracer: &Tracer,
    wall_ns: u64,
    frames: u64,
    records: u64,
    accesses: u64,
) {
    out.check(
        "ledger: span counts equal frames, records and accesses driven, self time within wall",
        tracer.check(
            &[
                ("serve.protocol.crc", frames),
                ("serve.protocol.decode", records),
                ("serve.session.feed", accesses),
            ],
            wall_ns,
        ),
    );
}

pub fn run_stream(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let slam = SlamOptions::default();
    let base = ledger::mix(seed, 0x57);
    let pools: Vec<Vec<Instr>> = (0..CONNECTIONS)
        .map(|c| {
            (0..SEGMENTS)
                .flat_map(|j| session_instrs(base, c * SEGMENTS + j, SEGMENT_RECORDS))
                .collect()
        })
        .collect();
    let chunks: Vec<Vec<&[Instr]>> =
        pools.iter().map(|p| p.chunks(slam.frame_records).collect()).collect();

    // Coverage and digest: one offline pass over each pool.
    let mut none = Tracer::new(false);
    let passes: Vec<Offline> =
        chunks.iter().map(|c| offline("HMNM4", c, c.len() as u64, &mut none)).collect();
    let coverage = verdict_coverage(
        passes.iter().map(|p| p.definite).sum(),
        passes.iter().map(|p| p.maybe).sum(),
    );
    out.digest = format!(
        "{:016x}",
        ledger::fnv1a(&passes.iter().map(|p| format!("{:?}\n", p.verdicts)).collect::<String>())
    );

    let client_logs: Vec<SessionLog> = (0..CONNECTIONS)
        .map(|_| SessionLog::with_capacity((seconds * LOG_FRAMES_PER_S) as usize))
        .collect();
    let heap_before = ledger::live_heap();
    let mut setups = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let path = socket_path(rep);
        let t = Instant::now();
        let running = start_server(&path);
        setups.push(t.elapsed().as_secs_f64());
        if let Some(old) = server.replace(running) {
            out.check("server shuts down cleanly", stop(old));
        }
    }
    let server = server.expect("a server was started");
    let path = match &server.endpoint {
        Endpoint::Unix(p) => p.clone(),
        Endpoint::Tcp(_) => unreachable!("the benchmark serves on a unix socket"),
    };
    let before = scrape(&server);

    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let mut peaks = Vec::new();
    let results: Vec<Result<SessionLog, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .zip(client_logs)
            .map(|(c, log)| {
                let path = &path;
                scope.spawn(move || {
                    run_session(path, "HMNM4", c, Stop::At(deadline), slam.window, origin, log)
                })
            })
            .collect();
        // Peak heap per window, so one unusual window cannot set the figure.
        while Instant::now() < deadline {
            ledger::reset_peak_heap();
            std::thread::sleep(Duration::from_secs_f64(WINDOW_S));
            peaks.push(ledger::peak_heap_mb_above(heap_before));
        }
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed = origin.elapsed().as_secs_f64();
    let after = scrape(&server);
    out.check("server shuts down cleanly", stop(server));

    let mut logs = Vec::new();
    for r in results {
        match r {
            Ok(log) => logs.push(log),
            Err(e) => {
                out.failed += 1;
                out.check("client session", Err(e));
            }
        }
    }
    let sent: u64 = logs.iter().map(|l| l.frames_sent).sum();
    let acked: u64 = logs.iter().map(|l| l.frames_acked).sum();
    out.attempted += sent + CONNECTIONS as u64;
    out.failed += sent - acked;
    println!("serve_stream: {CONNECTIONS} sessions, {sent} frames in {elapsed:.2} s");

    // The offline replay of each connection's frames, one thread each.
    let replays: Vec<(Offline, Tracer, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .zip(&logs)
            .map(|(c, log)| {
                scope.spawn(move || {
                    let mut tracer = Tracer::new(traced);
                    let t = Instant::now();
                    let off = offline("HMNM4", c, log.frames_sent, &mut tracer);
                    (off, tracer, t.elapsed().as_nanos() as u64)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("offline replay thread")).collect()
    });
    let mut expected = Verdicts::new();
    for ((off, _, _), log) in replays.iter().zip(&logs) {
        add_verdicts(&mut expected, &off.verdicts);
        let served = log.stats.as_ref().map_or(0, |s| s.accesses);
        out.check(
            "session Stats accesses equal the offline replay",
            checks::identical("accesses", &off.accesses, &served),
        );
    }
    check_served(&mut out, &before, &after, &expected, sent, acked);

    let acks: Vec<(f64, u64)> = logs.iter().flat_map(|l| l.acks.iter().copied()).collect();
    let rtt_us: Vec<f64> = logs.iter().flat_map(|l| l.rtt_us.iter().copied()).collect();
    let rtt_ms: Vec<f64> = rtt_us.iter().map(|u| u / 1e3).collect();
    println!(
        "serve_stream: frame rtt p50 {:.1} us p99 {:.1} us over {} frames",
        percentile(&rtt_us, 50.0),
        percentile(&rtt_us, 99.0),
        rtt_us.len()
    );
    out.metric("setup_s", median(&setups));
    out.metric("accesses_per_s", windowed_rate(&acks, elapsed));
    out.metric("op_p50_ms", percentile(&rtt_ms, 50.0));
    out.metric("op_p90_ms", percentile(&rtt_ms, 90.0));
    out.metric("peak_heap_mb", median(&peaks));
    out.metric("coverage", coverage);

    if traced {
        let mut totals = BTreeMap::new();
        let (mut self_ns, mut offline_ns) = (0, 0);
        for ((off, tracer, ns), (log, c)) in replays.iter().zip(logs.iter().zip(&chunks)) {
            let records = (0..log.frames_sent as usize).map(|i| c[i % c.len()].len() as u64).sum();
            ledger_check(&mut out, tracer, *ns, log.frames_sent, records, off.accesses);
            for (name, t) in tracer.totals() {
                let sum: &mut LayerTotals = totals.entry(name).or_default();
                sum.count += t.count;
                sum.total_ns += t.total_ns;
                self_ns += t.self_ns;
            }
            offline_ns += ns;
        }
        let first_feeds: Vec<f64> = replays.iter().map(|r| r.0.first_feed_us).collect();
        report_layers(
            &mut out,
            &totals,
            &rtt_us,
            sent,
            counter(&after, "jsn_sessions_parked"),
            &first_feeds,
        );
        let frames = logs.first().map_or(0, |l| l.frames_sent.min(OVERHEAD_FRAMES));
        let (on, off) = ledger::time_on_off(OVERHEAD_REPS, &mut Tracer::new(true), |t| {
            offline("HMNM4", &chunks[0], frames, t);
        });
        out.metric("bench.trace_overhead_frac", ledger::trace_overhead(median(&on), median(&off)));
        out.metric("bench.layer_self_frac", self_ns as f64 / offline_ns as f64);
    }
    out
}

pub fn run_churn(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let slam = SlamOptions::default();
    let base = ledger::mix(seed, 0x43);
    let records = (CHURN_FRAMES * CHURN_FRAME_RECORDS) as u64;
    let deck: Vec<Vec<Instr>> =
        (0..CHURN_SESSIONS).map(|k| session_instrs(base, k, records)).collect();
    let chunks: Vec<Vec<&[Instr]>> =
        deck.iter().map(|d| d.chunks(CHURN_FRAME_RECORDS).collect()).collect();
    let preset = |k: usize| CHURN_PRESETS[k % CHURN_PRESETS.len()];

    // The deck's offline replay: the expected verdicts of every round.
    let mut tracer = Tracer::new(traced);
    let t_offline = Instant::now();
    let offs: Vec<Offline> = chunks
        .iter()
        .enumerate()
        .map(|(k, c)| offline(preset(k), c, c.len() as u64, &mut tracer))
        .collect();
    let offline_ns = t_offline.elapsed().as_nanos() as u64;
    let mut expected = Verdicts::new();
    for o in &offs {
        add_verdicts(&mut expected, &o.verdicts);
    }
    let hmnm: Vec<&Offline> =
        offs.iter().enumerate().filter(|(k, _)| preset(*k) == "HMNM4").map(|(_, o)| o).collect();
    let coverage =
        verdict_coverage(hmnm.iter().map(|o| o.definite).sum(), hmnm.iter().map(|o| o.maybe).sum());
    out.digest = format!("{:016x}", ledger::fnv1a(&format!("{expected:?}")));

    let heap_before = ledger::live_heap();
    let mut peaks = Vec::new();
    let (mut setups, mut session_ms, mut rtt_us, mut rates) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut parked = 0;
    let start = Instant::now();
    let mut round = 0usize;
    while round == 0 || start.elapsed().as_secs_f64() < seconds {
        let path = socket_path(round);
        ledger::reset_peak_heap();
        let t = Instant::now();
        let server = start_server(&path);
        setups.push(t.elapsed().as_secs_f64());
        let before = scrape(&server);
        let t_round = Instant::now();
        let results: Vec<Vec<Result<SessionLog, String>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|c| {
                    let (path, chunks) = (&path, &chunks);
                    scope.spawn(move || {
                        (c..CHURN_SESSIONS)
                            .step_by(CONNECTIONS)
                            .map(|k| {
                                let n = chunks[k].len() as u64;
                                run_session(
                                    path,
                                    preset(k),
                                    &chunks[k],
                                    Stop::After(n),
                                    slam.window,
                                    t_round,
                                    SessionLog::default(),
                                )
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        let round_secs = t_round.elapsed().as_secs_f64();
        let after = scrape(&server);
        parked = counter(&after, "jsn_sessions_parked");
        peaks.push(ledger::peak_heap_mb_above(heap_before));
        out.check("server shuts down cleanly", stop(server));

        let (mut sent, mut acked, mut accesses) = (0, 0, 0);
        for (c, conn) in results.into_iter().enumerate() {
            for (i, r) in conn.into_iter().enumerate() {
                let k = c + i * CONNECTIONS;
                out.attempted += 1;
                match r {
                    Ok(log) => {
                        let served = log.stats.as_ref().map_or(0, |s| s.accesses);
                        if served != offs[k].accesses {
                            out.check(
                                "session Stats accesses equal the offline replay",
                                checks::identical("accesses", &offs[k].accesses, &served),
                            );
                        }
                        sent += log.frames_sent;
                        acked += log.frames_acked;
                        accesses += served;
                        session_ms.push(log.session_ms);
                        rtt_us.extend(log.rtt_us);
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.check("client session", Err(e));
                    }
                }
            }
        }
        out.attempted += sent;
        out.failed += sent - acked;
        rates.push(accesses as f64 / round_secs);
        check_served(&mut out, &before, &after, &expected, sent, acked);
        round += 1;
    }
    println!(
        "serve_churn: {round} rounds of {CHURN_SESSIONS} sessions in {:.2} s; {parked} sessions parked after a round",
        start.elapsed().as_secs_f64()
    );
    println!(
        "serve_churn: frame rtt p50 {:.1} us p99 {:.1} us over {} frames",
        percentile(&rtt_us, 50.0),
        percentile(&rtt_us, 99.0),
        rtt_us.len()
    );
    out.metric("setup_s", median(&setups));
    out.metric("accesses_per_s", median(&rates));
    out.metric("op_p50_ms", percentile(&session_ms, 50.0));
    out.metric("op_p90_ms", percentile(&session_ms, 90.0));
    out.metric("peak_heap_mb", median(&peaks));
    out.metric("coverage", coverage);

    if traced {
        let frames = (CHURN_SESSIONS * CHURN_FRAMES) as u64;
        let accesses: u64 = offs.iter().map(|o| o.accesses).sum();
        ledger_check(
            &mut out,
            &tracer,
            offline_ns,
            frames,
            frames * CHURN_FRAME_RECORDS as u64,
            accesses,
        );
        let first_feeds: Vec<f64> = offs.iter().map(|o| o.first_feed_us).collect();
        report_layers(&mut out, &tracer.totals(), &rtt_us, frames, parked, &first_feeds);
        let (on, off) = ledger::time_on_off(OVERHEAD_REPS, &mut Tracer::new(true), |t| {
            for (k, c) in chunks.iter().enumerate().take(OVERHEAD_SESSIONS) {
                offline(preset(k), c, c.len() as u64, t);
            }
        });
        out.metric("bench.trace_overhead_frac", ledger::trace_overhead(median(&on), median(&off)));
        let self_ns: u64 = tracer.totals().values().map(|t| t.self_ns).sum();
        out.metric("bench.layer_self_frac", self_ns as f64 / offline_ns as f64);
    }
    out
}
