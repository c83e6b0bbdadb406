//! Spans, summary statistics and process probes shared by every workload.
//!
//! Spans are recorded only here, in the benchmark, around calls into the
//! workspace crates. Each span has a name (the layer), a parent, a start
//! and end on one monotonic clock, and a count of the work it covered
//! (accesses, records or frames). A layer's self time is its duration
//! minus the part its child spans cover.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

/// Per-thread span recorder. Disabled tracers record nothing and cost a
/// branch per call.
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// What one layer's spans add up to.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub spans: u64,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { origin: Instant::now(), on, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: 0,
            count: 0,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close span `id`, which must be the innermost open one, crediting it
    /// with `count` units of work.
    pub fn exit(&mut self, id: Option<usize>, count: u64) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.count = count;
    }

    /// Totals per span name, with self time.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.spans += 1;
            t.count += s.count;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// The ledger identities every traced run must satisfy: each named
    /// layer's span counts add up to the work driven through it, and the
    /// layers' self times add up to at most the wall time `wall_ns` the
    /// spans were recorded in.
    pub fn check(&self, expected_counts: &[(&str, u64)], wall_ns: u64) -> Result<(), String> {
        if !self.open.is_empty() {
            return Err(format!("{} spans left open", self.open.len()));
        }
        let totals = self.totals();
        for &(name, want) in expected_counts {
            let got = totals.get(name).map_or(0, |t| t.count);
            if got != want {
                return Err(format!("span `{name}` counted {got} units, {want} were driven"));
            }
        }
        let self_sum: u64 = totals.values().map(|t| t.self_ns).sum();
        if self_sum > wall_ns {
            return Err(format!(
                "layer self times sum to {self_sum} ns, more than the {wall_ns} ns wall"
            ));
        }
        Ok(())
    }
}

/// Median of `v` (NaN-free), or 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Medians of consecutive blocks of `k` samples (a trailing partial block
/// is dropped unless it is the only one).
pub fn block_medians(v: &[f64], k: usize) -> Vec<f64> {
    if v.len() < k {
        return vec![median(v)];
    }
    v.chunks_exact(k).map(median).collect()
}

/// Nearest-rank percentile `p` (0..=100) of `v`, or 0 for an empty slice.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Run `pass` `2 * reps` times, alternating `tracer` (recording spans)
/// with a disabled tracer, so host drift hits both alike. Returns the
/// time of each pass with spans on and of each with spans off, in ns.
pub fn time_on_off(
    reps: usize,
    tracer: &mut Tracer,
    mut pass: impl FnMut(&mut Tracer),
) -> (Vec<f64>, Vec<f64>) {
    let mut off_tracer = Tracer::new(false);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for i in 0..2 * reps {
        let spans = i % 2 == 0;
        let t = Instant::now();
        pass(if spans { &mut *tracer } else { &mut off_tracer });
        let ns = t.elapsed().as_nanos() as f64;
        if spans {
            on.push(ns);
        } else {
            off.push(ns);
        }
    }
    (on, off)
}

/// Tracing overhead of the same work taking `on_ns` with spans on and
/// `off_ns` with them off: 1 − traced rate / untraced rate.
pub fn trace_overhead(on_ns: f64, off_ns: f64) -> f64 {
    1.0 - off_ns / on_ns
}

/// The harness's global allocator: the system allocator, counting live
/// heap bytes and their high-water mark. Unlike RSS, the count does not
/// include freed memory an allocator keeps resident, which differs from
/// run to run with thread timing.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Live heap bytes now.
pub fn live_heap() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Restart the heap high-water mark from the live bytes now.
pub fn reset_peak_heap() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Heap high-water mark since the last [`reset_peak_heap`] above `base`
/// bytes, in MB.
pub fn peak_heap_mb_above(base: usize) -> f64 {
    PEAK.load(Ordering::Relaxed).saturating_sub(base) as f64 / 1e6
}

/// FNV-1a over `text`: the digest of a run's simulated statistics.
pub fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Derive an independent 64-bit seed from a workload seed and a salt.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_counts_add_up() {
        let mut t = Tracer::new(true);
        let root = t.enter("root");
        for _ in 0..3 {
            let c = t.enter("child");
            std::hint::black_box((0..1000).sum::<u64>());
            t.exit(c, 10);
        }
        t.exit(root, 30);
        let totals = t.totals();
        assert_eq!(totals["child"].count, 30);
        assert_eq!(totals["child"].spans, 3);
        assert!(totals["root"].self_ns <= totals["root"].total_ns - totals["child"].total_ns);
        let wall = totals["root"].total_ns;
        assert!(t.check(&[("child", 30)], wall).is_ok());
        assert!(t.check(&[("child", 31)], wall).is_err(), "a miscounted layer must fail");
        assert!(t.check(&[], 0).is_err(), "self time above the wall must fail");
    }

    #[test]
    fn on_off_timing_records_spans_only_when_on() {
        let mut t = Tracer::new(true);
        let mut passes = 0;
        let (on, off) = time_on_off(3, &mut t, |tr| {
            passes += 1;
            let s = tr.enter("pass");
            std::hint::black_box((0..1000).sum::<u64>());
            tr.exit(s, 1);
        });
        assert_eq!(passes, 6);
        assert_eq!((on.len(), off.len()), (3, 3));
        assert_eq!(t.totals()["pass"].spans, 3, "only the traced passes record spans");
        assert_eq!(trace_overhead(200.0, 150.0), 0.25);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(block_medians(&[1.0, 9.0, 2.0, 5.0, 4.0, 3.0, 7.0], 3), vec![2.0, 4.0]);
        assert_eq!(block_medians(&[1.0, 9.0], 3), vec![5.0]);
    }
}
