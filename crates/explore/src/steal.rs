//! Work-stealing scheduling for the parallel exploration.
//!
//! The exploration tree is embarrassingly parallel — children of a node
//! depend only on that node — but subtree sizes are wildly skewed: one
//! heavy root subtree can hold almost all of the work, so a static
//! partition of the root frontier starves every worker but one. The
//! [`StealPool`] fixes the imbalance dynamically:
//!
//! * **Tasks are subtree roots.** A worker explores each task it pops to
//!   the end, in place on the task's history, exactly like the serial
//!   explorer. It materialises children as tasks of their own only to
//!   hand work out: in the seeding pass, and when [`wants_work`] says a
//!   sibling is idle while the worker's own deque is empty. It then
//!   hands out the untried children of the shallowest node on its path:
//!   the roots of the largest subtrees it has not entered.
//! * **Per-worker LIFO deques.** Each worker owns a `Mutex`-guarded
//!   [`VecDeque`]. The owner pushes at the *back* and pops from the
//!   *back*; thieves take from the *front*, where the oldest, shallowest
//!   tasks are. An idle worker steals half of a victim's deque, so whole
//!   subtrees migrate in one lock acquisition.
//! * **Idle count.** A worker that found nothing to pop or steal
//!   [`enter_idle`]s before backing off and [`leave_idle`]s once it finds
//!   work; busy workers read the count to decide when to hand work out.
//! * **Termination detection.** A task is *in flight* from the moment it
//!   is seeded or pushed until its owner finishes processing it; tasks
//!   handed out are counted *before* the task they came from is finished,
//!   so the atomic in-flight counter never touches zero while any work
//!   exists. A worker that finds nothing to pop or steal and sees the
//!   counter at zero can safely exit; until then it backs off (a few
//!   spin-yields, then short sleeps).
//!
//! The pool schedules; it never inspects tasks. Since every node of the
//! tree is explored by exactly one worker no matter how tasks migrate,
//! all order-independent exploration quantities (counts, fingerprint
//! sets) are bit-identical to a serial run.
//!
//! * **Panic safety.** The in-flight counter only reaches zero if every
//!   popped task is [`finish_task`]ed — a worker that panics mid-task
//!   would leave the count permanently positive and its siblings spinning
//!   in [`Backoff`] forever. A worker that catches a task panic must
//!   therefore call [`finish_task`] for the doomed task and [`poison`]
//!   the pool before re-raising; siblings observe [`is_poisoned`] and
//!   exit instead of waiting for a count that can no longer drain.
//!
//! [`finish_task`]: StealPool::finish_task
//! [`poison`]: StealPool::poison
//! [`is_poisoned`]: StealPool::is_poisoned
//! [`wants_work`]: StealPool::wants_work
//! [`enter_idle`]: StealPool::enter_idle
//! [`leave_idle`]: StealPool::leave_idle

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Work-stealing pool of exploration tasks; see the module documentation.
#[derive(Debug)]
pub struct StealPool<T> {
    /// One deque per worker: owner pushes/pops at the back, thieves take
    /// from the front.
    queues: Vec<Mutex<VecDeque<T>>>,
    /// Tasks seeded or pushed but not yet finished. Zero means the
    /// exploration is complete.
    in_flight: AtomicUsize,
    /// Total tasks migrated by steals.
    steals: AtomicU64,
    /// Workers currently backing off with nothing to do.
    idle: AtomicUsize,
    /// Set when a worker died mid-task (see the module documentation's
    /// panic-safety contract); tells the surviving workers to stop.
    poisoned: AtomicBool,
}

impl<T> StealPool<T> {
    /// Creates a pool with one deque per worker.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "a steal pool needs at least one worker");
        StealPool {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            in_flight: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            idle: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Number of worker deques.
    pub fn workers(&self) -> usize {
        self.queues.len()
    }

    /// Distributes the initial frontier round-robin across the deques (the
    /// seeding pass is only the initial distribution — stealing rebalances
    /// from there) and starts the in-flight accounting.
    pub fn seed<I: IntoIterator<Item = T>>(&self, tasks: I) {
        let mut count = 0usize;
        for (k, task) in tasks.into_iter().enumerate() {
            self.queues[k % self.queues.len()]
                .lock()
                .expect("steal deque lock")
                .push_back(task);
            count += 1;
        }
        self.in_flight.fetch_add(count, Ordering::SeqCst);
    }

    /// Pops the task worker `w` pushed last (LIFO).
    pub fn pop_local(&self, w: usize) -> Option<T> {
        self.queues[w].lock().expect("steal deque lock").pop_back()
    }

    /// Registers and enqueues tasks worker `w` hands out from the task it
    /// is processing. Must be called *before* [`finish_task`] on that
    /// task: the new tasks are added to the in-flight count first, so the
    /// count can never reach zero while work remains.
    ///
    /// [`finish_task`]: StealPool::finish_task
    pub fn push_children<I: IntoIterator<Item = T>>(&self, w: usize, children: I) {
        let mut queue = self.queues[w].lock().expect("steal deque lock");
        let before = queue.len();
        queue.extend(children);
        self.in_flight
            .fetch_add(queue.len() - before, Ordering::SeqCst);
    }

    /// Marks one popped task as fully processed (the tasks it handed out,
    /// if any, were already registered via [`push_children`]).
    ///
    /// [`push_children`]: StealPool::push_children
    pub fn finish_task(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    /// Attempts to steal work for worker `w`: scans the other deques
    /// round-robin from `w + 1` and moves the shallower half (rounded up)
    /// of the first non-empty victim's deque — taken from the *front*,
    /// i.e. the roots of the victim's largest untouched subtrees — onto
    /// `w`'s own deque. Returns the number of tasks migrated (zero when
    /// every other deque was empty). In-flight counts are unaffected:
    /// migration neither creates nor finishes tasks.
    pub fn steal_into(&self, w: usize) -> usize {
        let n = self.queues.len();
        for k in 1..n {
            let victim = (w + k) % n;
            let stolen: Vec<T> = {
                let mut queue = self.queues[victim].lock().expect("steal deque lock");
                let take = queue.len().div_ceil(2);
                queue.drain(..take).collect()
            };
            if stolen.is_empty() {
                continue;
            }
            let count = stolen.len();
            // Keep the stolen batch's order: its shallowest node ends up
            // at the thief's front, stealable onward; the thief resumes
            // from the batch's deepest node.
            self.queues[w]
                .lock()
                .expect("steal deque lock")
                .extend(stolen);
            self.steals.fetch_add(count as u64, Ordering::Relaxed);
            return count;
        }
        0
    }

    /// Marks one worker as idle: it found nothing to pop or steal and is
    /// about to back off. Paired with [`leave_idle`](StealPool::leave_idle).
    pub fn enter_idle(&self) {
        self.idle.fetch_add(1, Ordering::SeqCst);
    }

    /// Marks a worker that [`enter_idle`](StealPool::enter_idle)d as busy
    /// again (or exiting).
    pub fn leave_idle(&self) {
        self.idle.fetch_sub(1, Ordering::SeqCst);
    }

    /// Whether worker `w` should hand work out: a sibling is idle and `w`'s
    /// own deque holds nothing the sibling could steal. Cheap while every
    /// worker is busy (one atomic load).
    pub fn wants_work(&self, w: usize) -> bool {
        self.idle.load(Ordering::Relaxed) > 0
            && self.queues[w].lock().expect("steal deque lock").is_empty()
    }

    /// Whether every seeded or pushed task has been finished. Only
    /// meaningful as an exit check after [`pop_local`] and
    /// [`steal_into`] both came up empty: tasks in flight elsewhere may
    /// still spawn children.
    ///
    /// [`pop_local`]: StealPool::pop_local
    /// [`steal_into`]: StealPool::steal_into
    pub fn is_done(&self) -> bool {
        self.in_flight.load(Ordering::SeqCst) == 0
    }

    /// Total number of tasks migrated by steals so far.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Marks the pool as dead after a worker panicked mid-task. The
    /// panicking worker must also [`finish_task`](StealPool::finish_task)
    /// the task it was processing (its children were registered before the
    /// panic or not at all, and it will never reach the normal
    /// `finish_task` call), then re-raise so the panic propagates through
    /// the join.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// Whether a worker died mid-task. Surviving workers check this at the
    /// top of their loop and exit instead of backing off: with a task lost
    /// to a panic, the in-flight count may never reach zero again.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }
}

/// Backoff policy for a worker that found nothing to pop or steal: spin
/// with [`std::thread::yield_now`] for the first rounds, then sleep in
/// short slices so a long-idle thief wakes promptly when a victim finally
/// queues work.
#[derive(Debug, Default)]
pub struct Backoff {
    rounds: u32,
}

impl Backoff {
    /// Rounds of `yield_now` before the backoff switches to sleeping.
    const SPIN_ROUNDS: u32 = 64;
    /// Sleep slice once spinning has not paid off.
    const SLEEP: std::time::Duration = std::time::Duration::from_micros(50);

    /// Waits one round (yield or short sleep).
    pub fn idle(&mut self) {
        if self.rounds < Self::SPIN_ROUNDS {
            self.rounds += 1;
            std::thread::yield_now();
        } else {
            std::thread::sleep(Self::SLEEP);
        }
    }

    /// Resets the policy after useful work was found.
    pub fn reset(&mut self) {
        self.rounds = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_pops_lifo_thieves_steal_the_front_half() {
        let pool: StealPool<u32> = StealPool::new(2);
        pool.seed([]); // empty seed is fine
        pool.push_children(0, [1, 2, 3, 4, 5]);
        // Owner resumes from the deepest (last-pushed) node.
        assert_eq!(pool.pop_local(0), Some(5));
        // Thief takes the shallower half — ceil(4/2) = 2 from the front —
        // and resumes from the deepest node of the stolen batch.
        assert_eq!(pool.steal_into(1), 2);
        assert_eq!(pool.pop_local(1), Some(2));
        assert_eq!(pool.pop_local(1), Some(1));
        assert_eq!(pool.pop_local(1), None);
        // The victim keeps its deep nodes.
        assert_eq!(pool.pop_local(0), Some(4));
        assert_eq!(pool.pop_local(0), Some(3));
        assert_eq!(pool.pop_local(0), None);
        assert_eq!(pool.steals(), 2);
    }

    #[test]
    fn busy_workers_want_to_hand_out_work_only_to_an_idle_sibling() {
        let pool: StealPool<u32> = StealPool::new(2);
        assert!(!pool.wants_work(0), "nobody is idle");
        pool.enter_idle();
        assert!(pool.wants_work(0), "a sibling idles and deque 0 is empty");
        pool.push_children(0, [1]);
        assert!(
            !pool.wants_work(0),
            "the idle sibling can steal from deque 0"
        );
        assert_eq!(pool.steal_into(1), 1);
        pool.leave_idle();
        assert!(!pool.wants_work(0), "the sibling is busy again");
    }

    #[test]
    fn seeding_distributes_round_robin() {
        let pool: StealPool<u32> = StealPool::new(2);
        pool.seed([10, 11, 12]);
        assert_eq!(pool.pop_local(0), Some(12));
        assert_eq!(pool.pop_local(0), Some(10));
        assert_eq!(pool.pop_local(1), Some(11));
        assert!(!pool.is_done(), "seeded tasks are in flight until finished");
        for _ in 0..3 {
            pool.finish_task();
        }
        assert!(pool.is_done());
    }

    #[test]
    fn single_task_is_stolen_whole() {
        let pool: StealPool<u32> = StealPool::new(3);
        pool.seed([7]);
        assert_eq!(pool.steal_into(2), 1, "ceil(1/2) = 1: lone tasks move");
        assert_eq!(pool.pop_local(2), Some(7));
        assert_eq!(pool.steal_into(2), 0, "nothing left anywhere");
    }

    #[test]
    fn children_keep_the_pool_in_flight_until_finished() {
        // The parent's children are registered before the parent is
        // finished, so the in-flight count never dips to zero mid-subtree.
        let pool: StealPool<u32> = StealPool::new(1);
        pool.seed([0]);
        let parent = pool.pop_local(0).unwrap();
        pool.push_children(0, [parent + 1, parent + 2]);
        pool.finish_task();
        assert!(!pool.is_done(), "children still queued");
        while let Some(_child) = pool.pop_local(0) {
            pool.finish_task();
        }
        assert!(pool.is_done());
    }

    #[test]
    fn concurrent_workers_drain_a_synthetic_tree_exactly_once() {
        use std::sync::atomic::AtomicU64;
        // Each task is a (depth, id) pair spawning two children up to a
        // fixed depth; every worker counts the nodes it processes. The
        // total must equal the tree size exactly — no node lost, none
        // processed twice — regardless of how tasks migrate.
        const DEPTH: u32 = 10;
        let workers = 4;
        let pool: StealPool<(u32, u64)> = StealPool::new(workers);
        pool.seed([(0u32, 0u64)]);
        let processed = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let (pool, processed) = (&pool, &processed);
                scope.spawn(move || {
                    let mut backoff = Backoff::default();
                    loop {
                        if let Some((depth, id)) = pool.pop_local(w) {
                            backoff.reset();
                            processed.fetch_add(1, Ordering::Relaxed);
                            if depth < DEPTH {
                                pool.push_children(
                                    w,
                                    [(depth + 1, id * 2 + 1), (depth + 1, id * 2 + 2)],
                                );
                            }
                            pool.finish_task();
                            continue;
                        }
                        if pool.steal_into(w) > 0 {
                            backoff.reset();
                            continue;
                        }
                        if pool.is_done() {
                            break;
                        }
                        backoff.idle();
                    }
                });
            }
        });
        assert_eq!(processed.load(Ordering::Relaxed), 2u64.pow(DEPTH + 1) - 1);
        assert!(pool.is_done());
        // Whether steals happened depends on the machine's real
        // parallelism (on one core a single worker can drain the whole
        // tree before the others run), so only the exactly-once total is
        // asserted.
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _: StealPool<u32> = StealPool::new(0);
    }

    #[test]
    fn panicking_worker_poisons_the_pool_instead_of_hanging_siblings() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::AtomicU64;
        // Same synthetic tree as the exactly-once test, but one worker
        // panics on a specific node. Without the poisoning protocol the
        // panicking worker would never finish its task and every sibling
        // would spin on `is_done()` forever; with it, the test completes,
        // the siblings' partial counts stay coherent (every *finished*
        // task was processed exactly once) and the panic payload is
        // re-raised through the scope join.
        const DEPTH: u32 = 10;
        let workers = 4;
        let pool: StealPool<(u32, u64)> = StealPool::new(workers);
        pool.seed([(0u32, 0u64)]);
        let processed = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let (pool, processed) = (&pool, &processed);
                    scope.spawn(move || {
                        let mut backoff = Backoff::default();
                        loop {
                            if pool.is_poisoned() {
                                break;
                            }
                            if let Some((depth, id)) = pool.pop_local(w) {
                                backoff.reset();
                                let task = catch_unwind(AssertUnwindSafe(|| {
                                    // The doomed node: deep enough that
                                    // several siblings are already busy.
                                    assert!(
                                        !(depth == 5 && id == 2u64.pow(5) - 1),
                                        "deliberate test panic"
                                    );
                                    processed.fetch_add(1, Ordering::Relaxed);
                                    if depth < DEPTH {
                                        pool.push_children(
                                            w,
                                            [(depth + 1, id * 2 + 1), (depth + 1, id * 2 + 2)],
                                        );
                                    }
                                }));
                                match task {
                                    Ok(()) => {
                                        pool.finish_task();
                                        continue;
                                    }
                                    Err(payload) => {
                                        pool.finish_task();
                                        pool.poison();
                                        std::panic::resume_unwind(payload);
                                    }
                                }
                            }
                            if pool.steal_into(w) > 0 {
                                backoff.reset();
                                continue;
                            }
                            if pool.is_done() {
                                break;
                            }
                            backoff.idle();
                        }
                    });
                }
            });
        }));
        assert!(result.is_err(), "the panic must propagate through the join");
        assert!(pool.is_poisoned());
        // The doomed node and its whole subtree went unprocessed.
        assert!(processed.load(Ordering::Relaxed) < 2u64.pow(DEPTH + 1) - 1);
    }
}
