//! Differential test of the witness replay: `axioms::check_with_order_spec`,
//! which decides a commit order in one pass over the reads, must answer
//! exactly like the literal definition (all-pairs `so`, `wr_tx_edges`,
//! `axioms_hold_spec`) kept in `testkit::literal_check_with_order_spec`.

use txdpor_history::axioms::check_with_order_spec;
use txdpor_history::testkit::{
    literal_check_with_order_spec, perturbed_orders, random_history_with_pending_and_aborted,
    random_spec,
};
use txdpor_history::{engine_for_spec, IsolationLevel, LevelSpec};

#[test]
fn replay_answers_like_the_literal_definition_on_engine_witnesses() {
    let (mut ran, mut rejected, mut witnesses) = (0u64, 0u64, 0u64);
    for seed in 0..240u64 {
        let (sessions, max_tx, vars) = if seed % 2 == 0 { (3, 2, 2) } else { (4, 4, 3) };
        let h = random_history_with_pending_and_aborted(seed, sessions, max_tx, vars);
        let specs: Vec<LevelSpec> = IsolationLevel::ALL
            .into_iter()
            .map(LevelSpec::uniform)
            .chain([random_spec(seed, &h), random_spec(seed + 1000, &h)])
            .collect();
        for (k, spec) in specs.iter().enumerate() {
            let verdict = engine_for_spec(spec).check_witnessed(&h);
            let Some(w) = verdict.witness() else {
                continue;
            };
            witnesses += 1;
            let orders = std::iter::once(("witness", w.commit_order.clone()))
                .chain(perturbed_orders(&h, &w.commit_order, seed * 16 + k as u64));
            for (name, order) in orders {
                for replay_spec in &specs {
                    let fast = check_with_order_spec(&h, replay_spec, &order);
                    let literal = literal_check_with_order_spec(&h, replay_spec, &order);
                    assert_eq!(
                        fast, literal,
                        "seed {seed}: {name} of the {spec} witness replayed under \
                         {replay_spec}: {order:?}\n{h}"
                    );
                    ran += 1;
                    rejected += u64::from(!fast);
                }
            }
        }
    }
    println!(
        "witness replay on generated histories: {witnesses} witnesses, \
         {ran} (history, spec, order) triples, {rejected} rejected"
    );
    assert!(witnesses > 1000, "{witnesses} witnesses");
    assert!(
        rejected > ran / 4 && rejected < ran - ran / 4,
        "{rejected} of {ran} rejected: both answers need coverage"
    );
}

#[test]
fn the_unfinished_generator_leaves_pending_and_aborted_transactions() {
    let (mut pending, mut aborted, mut committed) = (0, 0, 0);
    for seed in 0..100u64 {
        let h = random_history_with_pending_and_aborted(seed, 3, 2, 2);
        for (_, txs) in h.sessions() {
            for (k, &t) in txs.iter().enumerate() {
                let log = h.tx(t);
                if log.is_pending() {
                    assert_eq!(k + 1, txs.len(), "seed {seed}: pending {t} is not last");
                    pending += 1;
                } else if log.is_aborted() {
                    aborted += 1;
                } else {
                    committed += 1;
                }
            }
        }
        for (_, _, _, source) in h.reads_from() {
            assert!(h.is_committed(source), "seed {seed}: read from {source}");
        }
    }
    assert!(pending > 20 && aborted > 20 && committed > aborted + pending);
}
