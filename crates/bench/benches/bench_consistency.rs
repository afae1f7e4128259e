//! Criterion benchmark A2: cost of the consistency checkers (the inner
//! loop of `ValidWrites` and `Optimality`) per isolation level, on the
//! histories produced by a serial execution of a benchmark client program.
//!
//! Two program shapes put the weak decision kernel on both sides of 64
//! vertices: 3 sessions × 3 transactions (10 vertices, one word per bit
//! row, the paper's benchmark size) and 8 × 10 (81 vertices, two words).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use txdpor_apps::workload::{client_program, App, WorkloadConfig};
use txdpor_history::IsolationLevel;
use txdpor_program::execute_serial;

fn bench_consistency(c: &mut Criterion) {
    let mut group = c.benchmark_group("consistency_check");
    group.sample_size(20);
    for (sessions, transactions_per_session) in [(3, 3), (8, 10)] {
        let program = client_program(&WorkloadConfig {
            app: App::Tpcc,
            sessions,
            transactions_per_session,
            seed: 1,
        });
        let (history, _) = execute_serial(&program).expect("serial execution succeeds");
        let shape = format!("{sessions}x{transactions_per_session}");
        for level in [
            IsolationLevel::ReadCommitted,
            IsolationLevel::ReadAtomic,
            IsolationLevel::CausalConsistency,
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::Serializability,
        ] {
            group.bench_with_input(
                BenchmarkId::new(&shape, level.short_name()),
                &level,
                |b, level| b.iter(|| black_box(level.satisfies(black_box(&history)))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_consistency);
criterion_main!(benches);
