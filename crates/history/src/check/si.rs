//! Snapshot Isolation anomalies, decided by the commit-order search of
//! [`crate::check::mixed`] under a uniform SI spec (test-only module).

mod tests {
    use crate::check::satisfies;
    use crate::event::{Event, EventId, EventKind};
    use crate::history::History;
    use crate::isolation::IsolationLevel;
    use crate::transaction::{SessionId, TxId};
    use crate::value::{Value, Var};

    fn satisfies_si(h: &History) -> bool {
        satisfies(h, IsolationLevel::SnapshotIsolation)
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
    fn empty_history_satisfies_si() {
        assert!(satisfies_si(&History::default()));
    }

    #[test]
    fn lost_update_violates_si() {
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
        assert!(!satisfies_si(&b.h));
    }

    #[test]
    fn write_skew_satisfies_si() {
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
        assert!(satisfies_si(&b.h));
    }

    #[test]
    fn long_fork_violates_si() {
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
        assert!(!satisfies_si(&b.h));
    }

    #[test]
    fn fig6_counterexample_to_causal_extensibility() {
        // Fig. 6: session 0: write z=1, read x (from init), write y=1;
        //         session 1: write z=2, read y (from init), write x=2.
        // Both write z, both read the other's written variable from init:
        // write-conflict on z forces disjoint intervals while the stale
        // reads force overlapping ones — inconsistent with SI (and SER).
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let mut b = Builder::new();
        b.begin(0);
        b.write(0, z, 1);
        b.read(0, x, TxId::INIT);
        b.write(0, y, 1);
        b.commit(0);
        b.begin(1);
        b.write(1, z, 2);
        b.read(1, y, TxId::INIT);
        b.write(1, x, 2);
        b.commit(1);
        assert!(!satisfies_si(&b.h));
        assert!(!satisfies(&b.h, IsolationLevel::Serializability));
        // Without the write(x,2) (the blue event in Fig. 6) it satisfies SI.
        let mut b = Builder::new();
        b.begin(0);
        b.write(0, z, 1);
        b.read(0, x, TxId::INIT);
        b.write(0, y, 1);
        b.commit(0);
        b.begin(1);
        b.write(1, z, 2);
        b.read(1, y, TxId::INIT);
        b.commit(1);
        assert!(satisfies_si(&b.h));
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
        assert!(!satisfies_si(&b.h));
    }

    #[test]
    fn serializable_history_satisfies_si() {
        let x = Var(0);
        let mut b = Builder::new();
        let t1 = b.begin(0);
        b.write(0, x, 1);
        b.commit(0);
        b.begin(1);
        b.read(1, x, t1);
        b.write(1, x, 2);
        b.commit(1);
        assert!(satisfies_si(&b.h));
    }
}
