//! Serializability anomalies, decided by the commit-order search of
//! [`crate::check::mixed`] under a uniform SER spec (test-only module).

mod tests {
    use crate::check::satisfies;
    use crate::event::{Event, EventId, EventKind};
    use crate::history::History;
    use crate::isolation::IsolationLevel;
    use crate::transaction::{SessionId, TxId};
    use crate::value::{Value, Var};

    fn satisfies_ser(h: &History) -> bool {
        satisfies(h, IsolationLevel::Serializability)
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
        fn abort(&mut self, s: u32) {
            let e = Event::new(self.fresh(), EventKind::Abort);
            self.h.append_event(SessionId(s), e);
        }
    }

    #[test]
    fn empty_history_is_serializable() {
        assert!(satisfies_ser(&History::default()));
    }

    #[test]
    fn lost_update_is_not_serializable() {
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
        assert!(!satisfies_ser(&b.h));
    }

    #[test]
    fn write_skew_is_not_serializable() {
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
        assert!(!satisfies_ser(&b.h));
    }

    #[test]
    fn sequential_reads_are_serializable() {
        let x = Var(0);
        let mut b = Builder::new();
        let t1 = b.begin(0);
        b.write(0, x, 1);
        b.commit(0);
        b.begin(1);
        b.read(1, x, t1);
        b.commit(1);
        b.begin(2);
        b.read(2, x, t1);
        b.commit(2);
        assert!(satisfies_ser(&b.h));
    }

    #[test]
    fn reading_overwritten_value_in_session_is_not_serializable() {
        // Session 0: t1 writes x=1, t2 writes x=2. Session 1: reads x from t1
        // and then (another transaction) reads x from t2: serializable.
        let x = Var(0);
        let mut b = Builder::new();
        let t1 = b.begin(0);
        b.write(0, x, 1);
        b.commit(0);
        let t2 = b.begin(0);
        b.write(0, x, 2);
        b.commit(0);
        b.begin(1);
        b.read(1, x, t1);
        b.commit(1);
        b.begin(1);
        b.read(1, x, t2);
        b.commit(1);
        assert!(satisfies_ser(&b.h));

        // Reading them in the opposite order (t2 then t1) is not.
        let mut b = Builder::new();
        let t1 = b.begin(0);
        b.write(0, x, 1);
        b.commit(0);
        let t2 = b.begin(0);
        b.write(0, x, 2);
        b.commit(0);
        b.begin(1);
        b.read(1, x, t2);
        b.commit(1);
        b.begin(1);
        b.read(1, x, t1);
        b.commit(1);
        assert!(!satisfies_ser(&b.h));
    }

    #[test]
    fn aborted_writer_is_invisible() {
        // An aborted transaction writing x does not block others from
        // reading the initial value.
        let x = Var(0);
        let mut b = Builder::new();
        b.begin(0);
        b.write(0, x, 5);
        b.abort(0);
        b.begin(1);
        b.read(1, x, TxId::INIT);
        b.commit(1);
        assert!(satisfies_ser(&b.h));
    }

    #[test]
    fn long_fork_is_not_serializable() {
        // t1 writes x; t2 writes y; t3 reads x (new) and y (init);
        // t4 reads y (new) and x (init). Classic SI-but-not-SER anomaly.
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
        assert!(!satisfies_ser(&b.h));
    }
}
