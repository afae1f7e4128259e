//! Property test: decomposed checking is indistinguishable from
//! whole-history checking — same verdicts, replayable recombined
//! witnesses, structurally valid recombined violation cores — over random
//! history × spec pairs (PC and mixed per-transaction specs included).

use txdpor_analysis::{decompose, DecomposingChecker};
use txdpor_history::check::satisfies;
use txdpor_history::testkit::{assert_verdict_valid, random_history, random_spec};
use txdpor_history::{satisfies_spec, ConsistencyChecker, IsolationLevel, LevelSpec};

/// A corpus wide enough (4 sessions over 4 variables) that a healthy
/// fraction of histories genuinely split into ≥ 2 components.
fn corpus(seed: u64) -> txdpor_history::History {
    random_history(seed, 4, 2, 4)
}

#[test]
fn decomposed_verdict_equals_whole_history_verdict_uniform() {
    let mut split_seen = 0u32;
    for seed in 0..250u64 {
        let h = corpus(seed);
        if decompose(&h).len() > 1 {
            split_seen += 1;
        }
        for level in IsolationLevel::ALL {
            let spec = LevelSpec::uniform(level);
            let expected = satisfies(&h, level);
            let mut dc = DecomposingChecker::new(&spec, true);
            assert_eq!(
                dc.check(&h),
                expected,
                "decomposed boolean verdict diverged for {level} on seed {seed}:\n{h}"
            );
            let verdict = dc.check_witnessed(&h);
            assert_verdict_valid(
                &h,
                &spec,
                &verdict,
                expected,
                &format!("decomposed {level} on seed {seed}"),
            );
        }
    }
    // The corpus must actually exercise the decomposed path, not just the
    // single-component fast path.
    assert!(
        split_seen >= 25,
        "corpus barely decomposes: only {split_seen}/250 histories split"
    );
}

#[test]
fn decomposed_verdict_equals_whole_history_verdict_mixed_specs() {
    for seed in 0..250u64 {
        let h = corpus(seed);
        let spec = random_spec(seed, &h);
        let expected = satisfies_spec(&h, &spec);
        let mut dc = DecomposingChecker::new(&spec, true);
        assert_eq!(
            dc.check(&h),
            expected,
            "decomposed boolean verdict diverged for spec {spec} on seed {seed}:\n{h}"
        );
        let verdict = dc.check_witnessed(&h);
        assert_verdict_valid(
            &h,
            &spec,
            &verdict,
            expected,
            &format!("decomposed spec {spec} on seed {seed}"),
        );
    }
}

#[test]
fn counters_track_the_decomposition() {
    // A history that provably splits (seeds are searched for that shape),
    // checked through `check_witnessed`, the one path that splits.
    for seed in 0..250u64 {
        let h = corpus(seed);
        let d = decompose(&h);
        if d.len() < 2 {
            continue;
        }
        let spec = LevelSpec::uniform(IsolationLevel::Serializability);
        let mut dc = DecomposingChecker::new(&spec, true);
        dc.check(&h);
        assert_eq!(dc.components(), 0, "a boolean check never splits");
        dc.check_witnessed(&h);
        assert_eq!(dc.components(), d.len() as u64);
        assert_eq!(dc.largest_component(), d.largest() as u64);
        dc.reset();
        assert_eq!(dc.components(), 0);
        return;
    }
    panic!("no splitting history found in the corpus");
}
