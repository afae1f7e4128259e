//! Prefix Consistency anomalies, decided by the commit-order search of
//! [`crate::check::mixed`] under a uniform PC spec (test-only module).

mod tests {
    use crate::check::{engine_for, satisfies};
    use crate::event::{Event, EventId, EventKind};
    use crate::history::History;
    use crate::isolation::IsolationLevel;
    use crate::transaction::{SessionId, TxId};
    use crate::value::{Value, Var};

    fn satisfies_pc(h: &History) -> bool {
        satisfies(h, IsolationLevel::PrefixConsistency)
    }

    struct Builder {
        h: History,
        next_event: u32,
        next_tx: u32,
    }

    impl Builder {
        fn new() -> Self {
            Builder {
                h: History::new([]),
                next_event: 0,
                next_tx: 0,
            }
        }
        fn fresh(&mut self) -> EventId {
            self.next_event += 1;
            EventId(self.next_event)
        }
        fn begin(&mut self, s: u32) -> TxId {
            self.next_tx += 1;
            let id = TxId(self.next_tx);
            let idx = self.h.session_txs(SessionId(s)).len();
            let e = Event::new(self.fresh(), EventKind::Begin);
            self.h.begin_transaction(SessionId(s), id, idx, e);
            id
        }
        fn write(&mut self, s: u32, x: Var, v: i64) {
            let e = Event::new(self.fresh(), EventKind::Write(x, Value::Int(v)));
            self.h.append_event(SessionId(s), e);
        }
        fn read(&mut self, s: u32, x: Var, from: TxId) {
            let e = Event::new(self.fresh(), EventKind::Read(x));
            let id = e.id;
            self.h.append_event(SessionId(s), e);
            self.h.set_wr(id, from);
        }
        fn commit(&mut self, s: u32) {
            let e = Event::new(self.fresh(), EventKind::Commit);
            self.h.append_event(SessionId(s), e);
        }
    }

    #[test]
    fn empty_history_satisfies_pc() {
        assert!(satisfies_pc(&History::default()));
    }

    #[test]
    fn lost_update_satisfies_pc_but_not_si() {
        // Both transactions read x from init and write it: the Conflict
        // axiom rejects this under SI, but PC has no conflict rule.
        let x = Var(0);
        let mut b = Builder::new();
        b.begin(0);
        b.read(0, x, TxId::INIT);
        b.write(0, x, 1);
        b.commit(0);
        b.begin(1);
        b.read(1, x, TxId::INIT);
        b.write(1, x, 2);
        b.commit(1);
        assert!(satisfies_pc(&b.h));
        assert!(!satisfies(&b.h, IsolationLevel::SnapshotIsolation));
    }

    #[test]
    fn long_fork_violates_pc_but_not_cc() {
        // t1 writes x; t2 writes y; t3 reads x (new) and y (init); t4 reads
        // y (new) and x (init). The two readers need prefixes ordering t1
        // and t2 oppositely, so no snapshot assignment exists — yet there
        // is no causal relation between t1 and t2, so CC accepts.
        let (x, y) = (Var(0), Var(1));
        let mut b = Builder::new();
        let t1 = b.begin(0);
        b.write(0, x, 1);
        b.commit(0);
        let t2 = b.begin(1);
        b.write(1, y, 1);
        b.commit(1);
        b.begin(2);
        b.read(2, x, t1);
        b.read(2, y, TxId::INIT);
        b.commit(2);
        b.begin(3);
        b.read(3, y, t2);
        b.read(3, x, TxId::INIT);
        b.commit(3);
        assert!(!satisfies_pc(&b.h));
        assert!(satisfies(&b.h, IsolationLevel::CausalConsistency));
    }

    #[test]
    fn write_skew_satisfies_pc() {
        let (x, y) = (Var(0), Var(1));
        let mut b = Builder::new();
        b.begin(0);
        b.read(0, x, TxId::INIT);
        b.write(0, y, 1);
        b.commit(0);
        b.begin(1);
        b.read(1, y, TxId::INIT);
        b.write(1, x, 1);
        b.commit(1);
        assert!(satisfies_pc(&b.h));
    }

    #[test]
    fn session_order_respected() {
        // A later transaction of the same session must observe the earlier one.
        let x = Var(0);
        let mut b = Builder::new();
        b.begin(0);
        b.write(0, x, 1);
        b.commit(0);
        b.begin(0);
        b.read(0, x, TxId::INIT); // stale read of own session's past
        b.commit(0);
        assert!(!satisfies_pc(&b.h));
    }

    #[test]
    fn witness_order_is_a_replayable_commit_order() {
        let x = Var(0);
        let mut b = Builder::new();
        b.begin(0);
        b.read(0, x, TxId::INIT);
        b.write(0, x, 1);
        b.commit(0);
        b.begin(1);
        b.read(1, x, TxId::INIT);
        b.write(1, x, 2);
        b.commit(1);
        let verdict = engine_for(IsolationLevel::PrefixConsistency).check_witnessed(&b.h);
        let witness = verdict.witness().expect("lost update is PC-consistent");
        assert!(crate::axioms::check_with_order(
            &b.h,
            IsolationLevel::PrefixConsistency,
            &witness.commit_order
        ));
    }
}
