//! Live server metrics: lock-free global counters, a fixed-bucket
//! latency histogram, per-structure verdict counters and per-session
//! gauges, rendered as a Prometheus-style text page.
//!
//! The registry is shared by every session thread through an `Arc`; all
//! hot-path updates are relaxed atomic adds. The only lock guards the
//! per-session gauge table: an entry is inserted with its label when a
//! session starts, and each frame rewrites its three counters in place
//! without allocating. The lock recovers from poisoning rather than
//! cascading a panic, like the experiment telemetry recorder.
//!
//! The global counters are each cache-line padded ([`CachePadded`]):
//! unpadded, all twelve `AtomicU64`s share two cache lines, so e.g.
//! `bytes_in` adds from one session thread steal line ownership from
//! another thread bumping `records_in` — counters that are logically
//! independent false-share. Measured alongside the shard SPSC work:
//! free on a single-core host (same instruction stream, just spaced
//! loads), and on multi-core hosts it removes the cross-counter
//! coherence traffic entirely. The `VerdictCell` triples stay unpadded
//! on purpose — a frame updates hits/maybe/definite together, so
//! keeping each triple on one line is the batching win, not a hazard.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cache_sim::{CachePadded, Hierarchy};

/// Upper bounds (microseconds) of the request-latency histogram buckets.
/// The final implicit bucket is `+Inf`.
pub const LATENCY_BOUNDS_US: [u64; 16] =
    [1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000, 250_000, 1_000_000];

/// A fixed-bucket histogram of request service times.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BOUNDS_US.len() + 1],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl LatencyHistogram {
    /// Record one observation of `us` microseconds.
    pub fn observe(&self, us: u64) {
        let idx = LATENCY_BOUNDS_US.partition_point(|&b| b < us);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The upper bound (µs) of the bucket containing the `p`-th
    /// percentile observation, or 0 with no data. `p` in `0.0..=1.0`.
    pub fn percentile_us(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return LATENCY_BOUNDS_US.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    fn render(&self, out: &mut String) {
        use std::fmt::Write;
        let mut cumulative = 0u64;
        for (i, &bound) in LATENCY_BOUNDS_US.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            let _ = writeln!(out, "jsn_request_latency_us_bucket{{le=\"{bound}\"}} {cumulative}");
        }
        let total = self.count();
        let _ = writeln!(out, "jsn_request_latency_us_bucket{{le=\"+Inf\"}} {total}");
        let _ = writeln!(out, "jsn_request_latency_us_sum {}", self.sum_us.load(Ordering::Relaxed));
        let _ = writeln!(out, "jsn_request_latency_us_count {total}");
        let _ = writeln!(out, "jsn_request_latency_us_p50 {}", self.percentile_us(0.50));
        let _ = writeln!(out, "jsn_request_latency_us_p99 {}", self.percentile_us(0.99));
    }
}

/// Global verdict counters for one cache structure.
#[derive(Debug)]
pub struct VerdictCell {
    /// Structure name ("dl1", "ul2", ...).
    pub name: String,
    /// 1-based cache level.
    pub level: u8,
    hits: AtomicU64,
    maybe_misses: AtomicU64,
    definite_misses: AtomicU64,
}

/// Live gauges for one active session.
#[derive(Debug, Clone, Default)]
pub struct SessionGauge {
    /// The filter preset the session requested.
    pub config: String,
    /// Filter entries currently tracked.
    pub occupancy_tracked: u64,
    /// Filter entry capacity.
    pub occupancy_capacity: u64,
    /// Accesses replayed by the session so far.
    pub accesses: u64,
}

/// The shared metrics registry.
#[derive(Debug)]
pub struct Registry {
    started: Instant,
    /// Sessions whose hello was accepted.
    pub sessions_accepted: CachePadded<AtomicU64>,
    /// Sessions turned away (session cap, bad hello).
    pub sessions_rejected: CachePadded<AtomicU64>,
    /// Sessions evicted for stalling past the read budget.
    pub sessions_evicted: CachePadded<AtomicU64>,
    /// Sessions that finished cleanly (`Finish` acknowledged).
    pub sessions_completed: CachePadded<AtomicU64>,
    /// Sessions that ended on a protocol or socket error.
    pub sessions_failed: CachePadded<AtomicU64>,
    /// Sessions currently live.
    pub sessions_active: CachePadded<AtomicU64>,
    /// Hellos shed by admission control (queue-depth watermark).
    pub sessions_shed: CachePadded<AtomicU64>,
    /// Sessions parked for resume after a retryable wire failure.
    pub sessions_parked: CachePadded<AtomicU64>,
    /// Parked sessions picked back up by a reconnecting client.
    pub sessions_resumed: CachePadded<AtomicU64>,
    /// Parked sessions dropped (resume window expired or table full).
    pub sessions_expired: CachePadded<AtomicU64>,
    /// Frames rejected for a CRC mismatch (wire corruption detected).
    pub crc_errors: CachePadded<AtomicU64>,
    /// `Records` frames applied to a session (first delivery).
    pub frames_applied: CachePadded<AtomicU64>,
    /// Duplicate `Records` frames re-acked without replay.
    pub frames_replayed: CachePadded<AtomicU64>,
    /// Frames currently queued between readers and workers (gauge).
    pub queue_depth: CachePadded<AtomicU64>,
    /// Bytes read off session sockets.
    pub bytes_in: CachePadded<AtomicU64>,
    /// `Records` frames processed.
    pub frames_in: CachePadded<AtomicU64>,
    /// Trace records processed.
    pub records_in: CachePadded<AtomicU64>,
    /// Cache accesses replayed.
    pub accesses: CachePadded<AtomicU64>,
    /// Frames or hellos that failed to decode.
    pub protocol_errors: CachePadded<AtomicU64>,
    /// `/metrics` scrapes served.
    pub scrapes: CachePadded<AtomicU64>,
    /// Per-frame service latency (decode + replay + summary write).
    pub latency: LatencyHistogram,
    verdicts: Vec<VerdictCell>,
    sessions: Mutex<BTreeMap<u64, SessionGauge>>,
}

fn lock_sessions(
    m: &Mutex<BTreeMap<u64, SessionGauge>>,
) -> std::sync::MutexGuard<'_, BTreeMap<u64, SessionGauge>> {
    // A panicking session thread must not wedge every future scrape:
    // recover the map from a poisoned lock (a gauge's counters are
    // overwritten each frame, so torn state self-heals).
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Registry {
    /// Build a registry with one verdict cell per structure of
    /// `hierarchy` (all sessions share the hierarchy shape).
    pub fn new(hierarchy: &Hierarchy) -> Registry {
        let verdicts = hierarchy
            .structures()
            .iter()
            .map(|info| VerdictCell {
                name: info.name.clone(),
                level: info.level,
                hits: AtomicU64::new(0),
                maybe_misses: AtomicU64::new(0),
                definite_misses: AtomicU64::new(0),
            })
            .collect();
        Registry {
            started: Instant::now(),
            sessions_accepted: CachePadded::new(AtomicU64::new(0)),
            sessions_rejected: CachePadded::new(AtomicU64::new(0)),
            sessions_evicted: CachePadded::new(AtomicU64::new(0)),
            sessions_completed: CachePadded::new(AtomicU64::new(0)),
            sessions_failed: CachePadded::new(AtomicU64::new(0)),
            sessions_active: CachePadded::new(AtomicU64::new(0)),
            sessions_shed: CachePadded::new(AtomicU64::new(0)),
            sessions_parked: CachePadded::new(AtomicU64::new(0)),
            sessions_resumed: CachePadded::new(AtomicU64::new(0)),
            sessions_expired: CachePadded::new(AtomicU64::new(0)),
            crc_errors: CachePadded::new(AtomicU64::new(0)),
            frames_applied: CachePadded::new(AtomicU64::new(0)),
            frames_replayed: CachePadded::new(AtomicU64::new(0)),
            queue_depth: CachePadded::new(AtomicU64::new(0)),
            bytes_in: CachePadded::new(AtomicU64::new(0)),
            frames_in: CachePadded::new(AtomicU64::new(0)),
            records_in: CachePadded::new(AtomicU64::new(0)),
            accesses: CachePadded::new(AtomicU64::new(0)),
            protocol_errors: CachePadded::new(AtomicU64::new(0)),
            scrapes: CachePadded::new(AtomicU64::new(0)),
            latency: LatencyHistogram::default(),
            verdicts,
            sessions: Mutex::new(BTreeMap::new()),
        }
    }

    /// Add per-structure verdict deltas (one triple per structure, in
    /// hierarchy order): (hits, maybe-misses, definite-misses).
    pub fn add_verdicts(&self, deltas: &[(u64, u64, u64)]) {
        for (cell, &(h, m, d)) in self.verdicts.iter().zip(deltas) {
            cell.hits.fetch_add(h, Ordering::Relaxed);
            cell.maybe_misses.fetch_add(m, Ordering::Relaxed);
            cell.definite_misses.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Read one structure's verdict counters: (hits, maybe, definite).
    pub fn verdict_counts(&self, name: &str) -> Option<(u64, u64, u64)> {
        self.verdicts.iter().find(|c| c.name == name).map(|c| {
            (
                c.hits.load(Ordering::Relaxed),
                c.maybe_misses.load(Ordering::Relaxed),
                c.definite_misses.load(Ordering::Relaxed),
            )
        })
    }

    /// Install or replace the live gauges for session `id`.
    pub fn set_session_gauge(&self, id: u64, gauge: SessionGauge) {
        lock_sessions(&self.sessions).insert(id, gauge);
    }

    /// Refresh session `id`'s counters in place; its label stays as
    /// [`Registry::set_session_gauge`] installed it, so a frame's update
    /// allocates nothing. A no-op for a session with no gauge.
    pub fn update_session_gauge(&self, id: u64, tracked: u64, capacity: u64, accesses: u64) {
        if let Some(g) = lock_sessions(&self.sessions).get_mut(&id) {
            g.occupancy_tracked = tracked;
            g.occupancy_capacity = capacity;
            g.accesses = accesses;
        }
    }

    /// Drop session `id`'s gauges (on session end).
    pub fn remove_session_gauge(&self, id: u64) {
        lock_sessions(&self.sessions).remove(&id);
    }

    /// Number of sessions with live gauges (for tests: proves slots are
    /// not leaked).
    pub fn gauge_count(&self) -> usize {
        lock_sessions(&self.sessions).len()
    }

    /// Render the scrape page.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(4096);
        let _ = writeln!(out, "# jsn serve metrics");
        let _ = writeln!(out, "jsn_uptime_seconds {:.3}", self.started.elapsed().as_secs_f64());
        for (name, v) in [
            ("jsn_sessions_accepted_total", &self.sessions_accepted),
            ("jsn_sessions_rejected_total", &self.sessions_rejected),
            ("jsn_sessions_evicted_total", &self.sessions_evicted),
            ("jsn_sessions_completed_total", &self.sessions_completed),
            ("jsn_sessions_failed_total", &self.sessions_failed),
            ("jsn_sessions_active", &self.sessions_active),
            ("jsn_sessions_shed_total", &self.sessions_shed),
            ("jsn_sessions_parked", &self.sessions_parked),
            ("jsn_sessions_resumed_total", &self.sessions_resumed),
            ("jsn_sessions_expired_total", &self.sessions_expired),
            ("jsn_crc_errors_total", &self.crc_errors),
            ("jsn_frames_applied_total", &self.frames_applied),
            ("jsn_frames_replayed_total", &self.frames_replayed),
            ("jsn_queue_depth", &self.queue_depth),
            ("jsn_bytes_in_total", &self.bytes_in),
            ("jsn_frames_in_total", &self.frames_in),
            ("jsn_records_in_total", &self.records_in),
            ("jsn_accesses_total", &self.accesses),
            ("jsn_protocol_errors_total", &self.protocol_errors),
            ("jsn_scrapes_total", &self.scrapes),
        ] {
            let _ = writeln!(out, "{name} {}", v.load(Ordering::Relaxed));
        }
        self.latency.render(&mut out);
        for cell in &self.verdicts {
            for (verdict, counter) in [
                ("hit", &cell.hits),
                ("maybe_miss", &cell.maybe_misses),
                ("definite_miss", &cell.definite_misses),
            ] {
                let _ = writeln!(
                    out,
                    "jsn_verdict_total{{structure=\"{}\",level=\"{}\",verdict=\"{verdict}\"}} {}",
                    cell.name,
                    cell.level,
                    counter.load(Ordering::Relaxed)
                );
            }
        }
        for (id, g) in lock_sessions(&self.sessions).iter() {
            let _ = writeln!(
                out,
                "jsn_session_occupancy_tracked{{session=\"{id}\",config=\"{}\"}} {}",
                g.config, g.occupancy_tracked
            );
            let _ = writeln!(
                out,
                "jsn_session_occupancy_capacity{{session=\"{id}\",config=\"{}\"}} {}",
                g.config, g.occupancy_capacity
            );
            let _ = writeln!(
                out,
                "jsn_session_accesses{{session=\"{id}\",config=\"{}\"}} {}",
                g.config, g.accesses
            );
        }
        out
    }
}

/// Parse one counter value back out of a rendered scrape page. `line`
/// is the full metric name including any `{label="..."}` suffix.
pub fn scrape_value(page: &str, metric: &str) -> Option<u64> {
    page.lines().find_map(|l| {
        let rest = l.strip_prefix(metric)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse::<u64>().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::HierarchyConfig;

    #[test]
    fn histogram_percentiles_are_monotone_and_bounded() {
        let h = LatencyHistogram::default();
        assert_eq!(h.percentile_us(0.5), 0);
        for us in [3, 3, 3, 8, 8, 40, 40, 900, 900, 30_000] {
            h.observe(us);
        }
        let p50 = h.percentile_us(0.50);
        let p99 = h.percentile_us(0.99);
        assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
        // 3 µs observations land in the le=5 bucket.
        assert_eq!(h.percentile_us(0.1), 5);
        // The largest observation lands in le=50000.
        assert_eq!(p99, 50_000);
    }

    #[test]
    fn overflow_bucket_catches_huge_latencies() {
        let h = LatencyHistogram::default();
        h.observe(10_000_000);
        assert_eq!(h.percentile_us(0.99), u64::MAX);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn render_and_scrape_round_trip() {
        let hier = Hierarchy::new(HierarchyConfig::paper_five_level());
        let reg = Registry::new(&hier);
        reg.sessions_accepted.fetch_add(3, Ordering::Relaxed);
        reg.bytes_in.fetch_add(1024, Ordering::Relaxed);
        let deltas: Vec<(u64, u64, u64)> = hier.structures().iter().map(|_| (7, 2, 1)).collect();
        reg.add_verdicts(&deltas);
        reg.set_session_gauge(
            1,
            SessionGauge {
                config: "HMNM4".to_string(),
                occupancy_tracked: 10,
                occupancy_capacity: 100,
                accesses: 55,
            },
        );

        let page = reg.render();
        assert_eq!(scrape_value(&page, "jsn_sessions_accepted_total"), Some(3));
        assert_eq!(scrape_value(&page, "jsn_bytes_in_total"), Some(1024));
        assert_eq!(
            scrape_value(&page, "jsn_verdict_total{structure=\"dl1\",level=\"1\",verdict=\"hit\"}"),
            Some(7)
        );
        assert_eq!(
            scrape_value(&page, "jsn_session_occupancy_tracked{session=\"1\",config=\"HMNM4\"}"),
            Some(10)
        );

        // A frame's update rewrites the counters under the same label; an
        // unknown session gets no gauge.
        reg.update_session_gauge(1, 12, 100, 80);
        reg.update_session_gauge(2, 1, 1, 1);
        let page = reg.render();
        assert_eq!(
            scrape_value(&page, "jsn_session_occupancy_tracked{session=\"1\",config=\"HMNM4\"}"),
            Some(12)
        );
        assert_eq!(
            scrape_value(&page, "jsn_session_accesses{session=\"1\",config=\"HMNM4\"}"),
            Some(80)
        );
        assert_eq!(reg.gauge_count(), 1);

        reg.remove_session_gauge(1);
        assert_eq!(reg.gauge_count(), 0);
        assert!(!reg.render().contains("jsn_session_occupancy_tracked"));
    }

    #[test]
    fn gauge_lock_recovers_from_poison() {
        let hier = Hierarchy::new(HierarchyConfig::paper_five_level());
        let reg = std::sync::Arc::new(Registry::new(&hier));
        let poisoner = std::sync::Arc::clone(&reg);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.sessions.lock().unwrap();
            panic!("poison the gauge lock");
        })
        .join();
        assert!(reg.sessions.lock().is_err(), "lock must actually be poisoned");
        reg.set_session_gauge(9, SessionGauge::default());
        assert_eq!(reg.gauge_count(), 1);
        assert!(reg.render().contains("session=\"9\""));
    }
}
