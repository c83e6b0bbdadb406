//! The paper's central correctness property (§3.6): an MNM **never**
//! incorrectly indicates a miss. Deterministic seeded sweeps (formerly
//! proptest) drive every technique with randomized traces over
//! aliasing-heavy address spaces; the hierarchy's debug assertions verify
//! every single bypass against actual cache contents, and we re-verify
//! through the public API here.

use cache_sim::{ProbeOutcome, ReplayScratch};
use just_say_no::prelude::*;
use trace_synth::hash::SplitMix64;

const CONFIGS: [&str; 10] = [
    "RMNM_128_1",
    "RMNM_512_2",
    "SMNM_10x2",
    "SMNM_13x2",
    "TMNM_10x1",
    "TMNM_12x3",
    "CMNM_2_9",
    "CMNM_8_12",
    "HMNM1",
    "HMNM4",
];

/// Test-input generator: a SplitMix64 stream plus input shapes.
struct Gen(SplitMix64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// A random access within a tight (conflict-heavy) arena.
    fn access(&mut self) -> Access {
        let addr = (self.next() % 0x8000) & !0x3;
        match self.next() % 3 {
            0 => Access::load(addr),
            1 => Access::store(addr),
            _ => Access::fetch(addr),
        }
    }

    fn trace(&mut self, max_len: u64) -> Vec<Access> {
        let n = 1 + self.next() % max_len;
        (0..n).map(|_| self.access()).collect()
    }
}

fn tiny_hierarchy() -> Hierarchy {
    Hierarchy::new(HierarchyConfig {
        levels: vec![
            LevelConfig::Split {
                instr: CacheConfig::new("il1", 128, 1, 32, 1),
                data: CacheConfig::new("dl1", 128, 1, 32, 1),
            },
            LevelConfig::Split {
                instr: CacheConfig::new("il2", 512, 2, 32, 3),
                data: CacheConfig::new("dl2", 512, 2, 32, 3),
            },
            LevelConfig::Unified(CacheConfig::new("ul3", 2048, 2, 64, 9)),
        ],
        memory_latency: 60,
        inclusive: false,
    })
}

/// Every flagged structure is genuinely missing the block, for every
/// technique, on every prefix of every random trace.
#[test]
fn no_technique_ever_flags_a_resident_block() {
    let mut gen = Gen(SplitMix64::new(0x50124D));
    for case in 0..48u64 {
        let config = CONFIGS[(case % CONFIGS.len() as u64) as usize];
        let trace = gen.trace(600);
        let mut hier = tiny_hierarchy();
        let mut mnm = Mnm::new(&hier, MnmConfig::parse(config).unwrap());
        for &access in &trace {
            // Manually verify the query against cache contents before
            // letting the hierarchy (whose debug_asserts double-check)
            // consume the bypass set.
            let bypass = mnm.query(access);
            for info in hier.structures() {
                if bypass.contains(info.id) {
                    assert!(
                        !hier.contains(info.id, access.addr),
                        "{} flagged {} which holds {:#x}",
                        config,
                        info.name,
                        access.addr
                    );
                }
            }
            mnm.run_access(&mut hier, access);
        }
    }
}

/// Bypassing never changes where data is found or what gets cached:
/// an MNM-guarded run supplies every access from the same level as an
/// unguarded run of the same trace. This is the "sound bypass sets are
/// functionally invisible" property: any sound `BypassSet` only removes
/// probes of structures that would have missed anyway.
#[test]
fn bypassing_is_functionally_invisible() {
    let mut gen = Gen(SplitMix64::new(0x14715));
    for case in 0..48u64 {
        let config = CONFIGS[(case % CONFIGS.len() as u64) as usize];
        let trace = gen.trace(400);
        let mut plain = tiny_hierarchy();
        let mut guarded = tiny_hierarchy();
        let mut mnm = Mnm::new(&guarded, MnmConfig::parse(config).unwrap());
        for &access in &trace {
            let a = plain.access(access, &BypassSet::none());
            let b = mnm.run_access(&mut guarded, access);
            assert_eq!(a.supply_level, b.supply_level, "divergence at {:#x}", access.addr);
            assert!(b.latency <= a.latency, "a bypass may only shorten the walk");
        }
        assert_eq!(plain.stats().supplies_by_level, guarded.stats().supplies_by_level);
    }
}

/// The perfect oracle is sound and complete: after bypassing, the only
/// probed misses left are L1 misses.
#[test]
fn perfect_oracle_is_exact() {
    let mut gen = Gen(SplitMix64::new(0x0124C1E));
    for _ in 0..48 {
        let trace = gen.trace(400);
        let mut hier = tiny_hierarchy();
        let mut scratch = ReplayScratch::new();
        for &access in &trace {
            let bypass = perfect_bypass(&hier, access);
            hier.access_with_events(access, &bypass, &mut scratch);
            let non_l1_misses = scratch
                .probes()
                .iter()
                .filter(|p| p.level > 1 && p.outcome == ProbeOutcome::Miss)
                .count();
            assert_eq!(non_l1_misses, 0, "perfect bypass left a probed miss");
        }
    }
}

/// Flushing both sides resets to a consistent (all-cold) state.
#[test]
fn flush_restores_consistency() {
    let mut gen = Gen(SplitMix64::new(0xF1054));
    for _ in 0..48 {
        let trace = gen.trace(200);
        let mut hier = tiny_hierarchy();
        let mut mnm = Mnm::new(&hier, MnmConfig::hmnm(2));
        for &access in &trace {
            mnm.run_access(&mut hier, Access::load(access.addr));
        }
        hier.flush();
        mnm.flush();
        // Every non-L1 level is flagged cold again, and the run stays sound.
        for &access in &trace {
            mnm.run_access(&mut hier, Access::load(access.addr));
        }
        assert_eq!(mnm.stats().accesses as usize, trace.len());
    }
}
