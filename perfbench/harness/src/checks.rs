//! Correctness checks over a run's outputs.
//!
//! Every check is a pure function of expected and produced values, so a
//! run can also feed it a deliberately perturbed copy and confirm that the
//! check rejects it (see [`crate::Outcome::check_with_negative`]).

use std::collections::BTreeMap;
use std::fmt::Debug;

use mnm_shard::ShardReport;

/// `(structure, verdict) → count`, as `jsn_verdict_total` reports it.
pub type Verdicts = BTreeMap<(String, String), u64>;

/// Two values that must be equal bit for bit.
pub fn identical<T: PartialEq + Debug>(what: &str, expected: &T, got: &T) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!("{what} differ: expected {expected:?}, got {got:?}"))
    }
}

/// Served verdict counts against the offline `SessionCore` replay of the
/// same inputs. Every key of either side is compared.
pub fn verdicts_match(expected: &Verdicts, served: &Verdicts) -> Result<(), String> {
    let mut bad = Vec::new();
    for key in expected.keys().chain(served.keys()) {
        let want = expected.get(key).copied().unwrap_or(0);
        let got = served.get(key).copied().unwrap_or(0);
        if want != got && bad.len() < 4 {
            bad.push(format!("{}/{}: served {got}, offline {want}", key.0, key.1));
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("verdicts differ from the offline replay: {}", bad.join("; ")))
    }
}

/// The serve exactly-once ledger `frames_in = applied + replayed`, and no
/// frame sent without its summary.
pub fn frame_ledger(
    frames_in: u64,
    applied: u64,
    replayed: u64,
    sent: u64,
    acked: u64,
) -> Result<(), String> {
    if frames_in != applied + replayed {
        return Err(format!("frames_in {frames_in} != applied {applied} + replayed {replayed}"));
    }
    if sent != acked {
        return Err(format!("{} of {sent} frames were dropped", sent.saturating_sub(acked)));
    }
    Ok(())
}

/// A sharded run against the single-threaded reference: equal reports
/// (timing excluded by `ShardReport`'s equality) and no unsound verdict.
pub fn shard_matches(reference: &ShardReport, got: &ShardReport) -> Result<(), String> {
    if got.total_unsound() != 0 {
        return Err(format!("{} unsound verdicts", got.total_unsound()));
    }
    if reference != got {
        let core = reference.cores.iter().zip(&got.cores).position(|(a, b)| a != b);
        return Err(format!(
            "sharded report differs from run_single_threaded (first differing core: {core:?}, epochs {} vs {})",
            reference.epochs, got.epochs
        ));
    }
    Ok(())
}

/// The digest of the default seed's simulated statistics against the one
/// recorded in `seeds.json`.
pub fn digest_matches(recorded: &str, computed: &str) -> Result<(), String> {
    if recorded == computed {
        Ok(())
    } else {
        Err(format!(
            "simulated statistics drifted: digest {computed}, seeds.json records {recorded}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnm_core::MnmConfig;
    use mnm_shard::{sharded_streams, ShardConfig, ShardedSim};
    use trace_synth::{profiles, SharingSpec};

    fn verdicts() -> Verdicts {
        let mut v = Verdicts::new();
        v.insert(("ul2".into(), "hit".into()), 10);
        v.insert(("ul2".into(), "definite_miss".into()), 3);
        v
    }

    #[test]
    fn verdict_count_off_by_one_fails() {
        let expected = verdicts();
        assert!(verdicts_match(&expected, &expected).is_ok());
        let mut served = expected.clone();
        *served.get_mut(&("ul2".to_string(), "hit".to_string())).unwrap() += 1;
        assert!(verdicts_match(&expected, &served).is_err());
        served = expected.clone();
        served.insert(("ul3".into(), "hit".into()), 1);
        assert!(verdicts_match(&expected, &served).is_err(), "an extra served key must fail");
    }

    #[test]
    fn frame_ledger_rejects_drops_and_imbalance() {
        assert!(frame_ledger(10, 10, 0, 10, 10).is_ok());
        assert!(frame_ledger(10, 9, 0, 10, 10).is_err());
        assert!(frame_ledger(10, 10, 0, 10, 9).is_err());
    }

    #[test]
    fn altered_shard_core_report_fails() {
        let config = ShardConfig::new(2, MnmConfig::parse("HMNM4").unwrap());
        let spec = SharingSpec { line_bytes: config.l3.block_bytes, ..SharingSpec::new(2) };
        let profile = profiles::by_name("181.mcf").unwrap();
        let streams = sharded_streams(&profile, &spec, 5_000, config.l1.block_bytes);
        let reference = ShardedSim::new(config.clone(), streams.clone()).run_single_threaded();
        let parallel = ShardedSim::new(config, streams).run();
        assert!(shard_matches(&reference, &parallel).is_ok());
        let mut altered = parallel.clone();
        altered.cores[1].l3_hits += 1;
        assert!(shard_matches(&reference, &altered).is_err());
        let mut unsound = parallel;
        unsound.cores[0].unsound_verdicts = 1;
        assert!(shard_matches(&reference, &unsound).is_err());
    }

    #[test]
    fn identity_and_digest_reject_differences() {
        assert!(identical("stats", &[1u64, 2], &[1u64, 2]).is_ok());
        assert!(identical("stats", &[1u64, 2], &[1u64, 3]).is_err());
        assert!(digest_matches("00ff", "00ff").is_ok());
        assert!(digest_matches("00ff", "00fe").is_err());
    }
}
