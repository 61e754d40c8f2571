//! The work-stealing pool under both host engines: `D × NK` cost-ranked
//! deques, the fleet's per-device loss flags, the count of jobs in a
//! worker's hand and the "more work may still be dealt" flag, all under
//! **one** mutex and condvar, drained by one worker loop.
//!
//! A batch is a stream whose producer has already finished: the batch
//! engine pre-fills the deques and starts the pool *closed*, the streaming
//! engine starts it *open*, [`deal`](Pool::deal)s as pairs are admitted and
//! [`close`](Pool::close)s it when the source ends. An idle worker parks
//! while the pool is open or a peer still holds a job (which it may
//! re-deal), and exits otherwise — so "exit on drain" and "park while the
//! producer is live" are the two values of that one flag. The front ends
//! differ only in the job payload (a borrowed pair of the caller's slice vs
//! an owned pair), the closure that receives each hand's terminal slots,
//! and `open`.
//!
//! **Group pops.** For an engine that scores several pairs in one pass
//! ([`PairEngine::group_width`] > 1) a worker that popped a job off its *own*
//! deque takes the like-cost jobs behind it under the same lock (the deques
//! are cost-ranked, so those are the pairs most like it), behind a front the
//! engine would group at all ([`PairEngine::group_cost_max`]). A thief takes
//! the same shape of run from the other end of a victim's deque: the
//! cheapest job and the like-cost jobs in front of it, each within the cost
//! bound, up to the width, handed over in deque order so the most expensive
//! leads. A width-1 engine steals one job. Neither waits for a group to
//! fill: a deque holding one job (the lockstep latency probe) yields that
//! job, which runs through [`SlotRun::attempt`] as before. A hand of several
//! goes to [`PairEngine::run_group`] — on an instrumented run through
//! [`SlotRun::attempt_group`], one deadline and one `catch_unwind` a pass,
//! with an uncharged fallback to one attempt per member. Every member is
//! then settled on its own, in hand order, and counted in `busy` until it
//! is; the hand's outputs and quarantine records reach the front end in one
//! call, so a front end pays its lock once a hand. Under the abort policy
//! the members ahead of a failed one are reported, it is the abort fault,
//! the ones behind it are dropped — what the per-pair loop reports too.

use std::borrow::Borrow;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::vec::Drain;

use dphls_core::{DpOutput, KernelSpec, SeqPair};
use dphls_systolic::SystolicRun;

use crate::engine::PairEngine;
use crate::resilience::{FaultCause, PairFault};
use crate::slot::{
    next_live_queue, steal_order, take_down, Job, RunTally, Settled, SlotRun, SlotTally,
};

struct Sched<P> {
    /// Queue `dev * nk + ch`, each sorted by descending cost: the owner
    /// pops expensive work from the front, thieves take the cheapest from
    /// the back.
    queues: Vec<VecDeque<Job<P>>>,
    /// One flag per fleet device; a lost device dispatches nothing more.
    lost: Vec<bool>,
    /// Jobs popped but not yet terminal (output, quarantine, re-deal or
    /// abort), so idle peers outwait a retry or a lost device's re-deals
    /// instead of exiting early; maintained on instrumented runs only
    /// (nothing is re-dealt otherwise).
    busy: usize,
    /// More work may still be dealt.
    open: bool,
    /// What each worker executed, indexed `(dev * nk + ch) * slots + slot`
    /// and written as that worker leaves.
    tallies: Vec<SlotTally>,
    /// The first pair to run out of retries under the abort policy.
    aborted: Option<PairFault>,
}

impl<P> Sched<P> {
    /// Inserts `job` into the first queue at or after `from` whose device
    /// is live, keeping that deque sorted by descending cost.
    fn insert(&mut self, nk: usize, from: usize, job: Job<P>) {
        let target = next_live_queue(&self.lost, nk, from);
        insert_ranked(&mut self.queues[target], job);
    }
}

/// Whether a job of cost `follower` may share a grouped pass led by a job of
/// cost `leader` (the hand's most expensive member, so `follower ≤ leader`:
/// the own deque's front, or the front of a run stolen off a tail). A pass
/// costs what its longest member costs, whatever else it holds, and that is
/// about what the leader costs alone (120-bp w20 pairs: a 16-lane pass
/// 15 µs, the leader alone 12.6); so a follower rides for the price of its
/// traceback, and the only thing it can lose is the cheaper pass it would
/// have shared with jobs of its own size, whose fill shrinks with their band
/// area. At half the leader's cost that pass is worth about what the padding
/// here wastes. Half is a round number on that line, not a tuned one.
fn rides_with(leader: u64, follower: u64) -> bool {
    follower >= leader / 2
}

fn insert_ranked<P>(queue: &mut VecDeque<Job<P>>, job: Job<P>) {
    let at = queue.partition_point(|j| j.cost >= job.cost);
    queue.insert(at, job);
}

/// A terminal slot of pair `idx`: its output, or its quarantine record.
pub(crate) type Terminal<S> = (usize, Result<DpOutput<S>, PairFault>);

/// One block slot between two pops: the queue it owns a share of, its
/// scratch arena (the per-alignment hot path stays allocation-free at any
/// slot count), its tally, the jobs in its hand and their outcomes.
struct Slot<K: KernelSpec, E: PairEngine<K>, P> {
    qown: usize,
    scratch: E::Scratch,
    tally: SlotTally,
    hand: Vec<Job<P>>,
    outcomes: Vec<Result<SystolicRun<K::Score>, FaultCause>>,
    settled: Vec<Terminal<K::Score>>,
}

impl<K: KernelSpec, E: PairEngine<K>, P> Slot<K, E, P> {
    fn new(engine: &E, qown: usize) -> Self {
        Slot {
            qown,
            scratch: engine.new_scratch(),
            tally: SlotTally::default(),
            hand: Vec::new(),
            outcomes: Vec::new(),
            settled: Vec::new(),
        }
    }
}

/// See the module docs.
pub(crate) struct Pool<'a, P> {
    run: &'a SlotRun<'a>,
    sched: Mutex<Sched<P>>,
    /// Wakes workers parked on empty deques.
    work_cv: Condvar,
    nk: usize,
    slots: usize,
}

impl<'a, P> Pool<'a, P> {
    /// The pool of `run`'s fleet — `D × NK` deques, `slots` workers each —
    /// holding `ranked`: jobs in descending cost order, dealt round-robin
    /// so every channel of every device starts with a balanced mix of
    /// expensive and cheap work.
    pub fn new(
        run: &'a SlotRun<'a>,
        slots: usize,
        open: bool,
        ranked: impl IntoIterator<Item = Job<P>>,
    ) -> Self {
        let nk = run.device.config().nk.max(1);
        let mut queues: Vec<VecDeque<Job<P>>> =
            (0..run.devices * nk).map(|_| VecDeque::new()).collect();
        for (rank, job) in ranked.into_iter().enumerate() {
            queues[rank % (run.devices * nk)].push_back(job);
        }
        Pool {
            run,
            sched: Mutex::new(Sched {
                tallies: vec![SlotTally::default(); queues.len() * slots],
                queues,
                lost: vec![false; run.devices],
                busy: 0,
                open,
                aborted: None,
            }),
            work_cv: Condvar::new(),
            nk,
            slots,
        }
    }

    /// Worker threads the front end must spawn: [`work`](Self::work) once
    /// for each of `0..workers()`.
    pub fn workers(&self) -> usize {
        self.run.devices * self.nk * self.slots
    }

    /// After every worker has left: the report figures summed over them,
    /// and the fault that aborted the run, if a pair did.
    pub fn finish(self) -> (RunTally, Option<PairFault>) {
        let sched = self.sched.into_inner().expect("pool mutex");
        let tally = self.run.tally(self.slots, sched.tallies.into_iter());
        (tally, sched.aborted)
    }

    fn lock(&self) -> MutexGuard<'_, Sched<P>> {
        self.sched.lock().expect("pool mutex")
    }

    /// Queues `job` on the first live queue at or after `from`.
    pub fn deal(&self, from: usize, job: Job<P>) {
        self.lock().insert(self.nk, from, job);
        self.work_cv.notify_one();
    }

    /// No more work will be dealt: idle workers exit once nothing is in a
    /// peer's hand.
    pub fn close(&self) {
        self.lock().open = false;
        self.work_cv.notify_all();
    }

    /// Wakes every parked worker after the run's abort flag was raised.
    /// Bridges through the mutex: a worker holds it between checking the
    /// flag and parking, so acquiring it first guarantees the notify lands
    /// after that worker is actually waiting (no lost wakeup).
    pub fn wake_all(&self) {
        drop(self.lock());
        self.work_cv.notify_all();
    }

    /// One block slot's life: worker number `worker` (slot `worker % slots`
    /// of queue `worker / slots`) pops a run off its own deque's expensive
    /// end, else steals one off a victim's tail, else parks or exits;
    /// attempts each hand, re-deals retries, and hands the hand's terminal
    /// slots — outputs and quarantine records, in hand order — to `report`
    /// in one call. Returns when the pool is drained and closed, its device
    /// is lost, or the run aborted.
    pub fn work<K, E>(
        &self,
        engine: &E,
        worker: usize,
        mut report: impl FnMut(Drain<'_, Terminal<K::Score>>),
    ) where
        K: KernelSpec,
        E: PairEngine<K>,
        P: Borrow<SeqPair<K>>,
    {
        let mut slot = Slot::new(engine, worker / self.slots);
        let (width, cost_max) = (engine.group_width(), engine.group_cost_max());
        while self.next_jobs(slot.qown, &mut slot.tally, width, cost_max, &mut slot.hand)
            && self.run_hand(engine, &mut slot, &mut report)
        {}
        self.lock().tallies[worker] = slot.tally;
    }

    /// Runs the jobs in `slot`'s hand — one through [`SlotRun::attempt`],
    /// several through one [`PairEngine::run_group`] call (on an
    /// instrumented run, [`SlotRun::attempt_group`]) — and settles each on
    /// its own: a retry goes back to a queue, and the outputs and quarantine
    /// records go to `report` together, once the hand is settled. `false`
    /// means the run aborted.
    fn run_hand<K, E>(
        &self,
        engine: &E,
        slot: &mut Slot<K, E, P>,
        report: &mut impl FnMut(Drain<'_, Terminal<K::Score>>),
    ) -> bool
    where
        K: KernelSpec,
        E: PairEngine<K>,
        P: Borrow<SeqPair<K>>,
    {
        let run = self.run;
        let dev = slot.qown / self.nk;
        let Slot {
            scratch,
            tally,
            hand,
            outcomes,
            settled,
            ..
        } = slot;
        let lose = || self.lose_device(dev);
        if let [job] = &hand[..] {
            outcomes.push(run.attempt::<K, E, P>(engine, scratch, job, dev, lose));
        } else if run.instrumented {
            run.attempt_group::<K, E, P>(engine, scratch, tally, hand, dev, lose, outcomes);
        } else {
            let views = hand.iter().map(|job| {
                let (q, r) = job.pair.borrow();
                (&q[..], &r[..])
            });
            let (pairs, mut runs) = (views.collect::<Vec<_>>(), Vec::with_capacity(hand.len()));
            tally.groups += engine.run_group(&pairs, run.device.config(), scratch, &mut runs);
            outcomes.extend(runs.into_iter().map(|run| run.map_err(FaultCause::Kernel)));
        }
        let members = hand.len();
        let mut aborted = None;
        for (at, (job, outcome)) in hand.drain(..).zip(outcomes.drain(..)).enumerate() {
            match run.settle(tally, job.idx, job.attempts, outcome) {
                Settled::Done(output) => settled.push((job.idx, Ok(output))),
                Settled::Quarantine(fault) => settled.push((fault.idx, Err(fault))),
                Settled::Retry => {
                    // Re-deal to the next queue on a *live* device: a
                    // different slot picks it up when one exists, and idle
                    // workers stay parked on the busy count until every job
                    // lands somewhere.
                    let attempts = job.attempts + 1;
                    let mut guard = self.lock();
                    guard.insert(self.nk, slot.qown + 1, Job { attempts, ..job });
                    // The job left this worker's hand for a queue.
                    guard.busy -= usize::from(run.instrumented);
                    drop(guard);
                    self.work_cv.notify_all();
                }
                Settled::Abort(fault) => {
                    // `settle` raised the abort flag. This member and the
                    // ones behind it leave the hand unsettled.
                    aborted = Some((fault, members - at));
                    break;
                }
            }
        }
        let reported = settled.len();
        if reported > 0 {
            report(settled.drain(..));
        }
        let Some((fault, unsettled)) = aborted else {
            self.release(reported);
            return true;
        };
        // Storing the fault takes the lock `wake_all` would bridge through.
        let mut guard = self.lock();
        guard.aborted.get_or_insert(fault);
        guard.busy -= (reported + unsettled) * usize::from(run.instrumented);
        drop(guard);
        self.work_cv.notify_all();
        false
    }

    /// Fills `hand` with the next work of a slot of queue `qown`: the front
    /// of its own deque plus — up to `width` jobs in all, and only behind a
    /// leader the engine would group at all (cost at most `cost_max`) — the
    /// jobs behind it that may share a grouped pass with it. An empty own
    /// deque steals the same shape of run from the first non-empty victim's
    /// tail: its cheapest job plus the jobs in front of it that are at most
    /// `cost_max` and that it may ride with, up to `width`, in deque order
    /// (the most expensive leads). A width-1 engine, or a cheapest job above
    /// the bound, steals one job. Parks while there is nothing to take and
    /// more may come; `false` means the slot is done.
    fn next_jobs(
        &self,
        qown: usize,
        tally: &mut SlotTally,
        width: usize,
        cost_max: u64,
        hand: &mut Vec<Job<P>>,
    ) -> bool {
        debug_assert!(hand.is_empty(), "the last hand was settled");
        let run = self.run;
        let (dev, ch) = (qown / self.nk, qown % self.nk);
        let mut guard = self.lock();
        loop {
            // A lost device dispatches nothing further; its queued work was
            // migrated when the loss fired.
            if run.aborted() || guard.lost[dev] {
                return false;
            }
            // The slots of one channel share its deque, so intra-channel
            // dispatch is not a steal.
            let own = &mut guard.queues[qown];
            if let Some(leader) = own.front().map(|job| job.cost) {
                let riders = own.iter().take(width).skip(1);
                let taken = 1 + riders
                    .take_while(|job| leader <= cost_max && rides_with(leader, job.cost))
                    .count();
                hand.extend(own.drain(..taken));
            } else if let Some((v, cheapest)) = steal_order(dev, ch, run.devices, self.nk)
                .find_map(|v| guard.queues[v].back().map(|job| (v, job.cost)))
            {
                let victim = &mut guard.queues[v];
                let leaders = victim.iter().rev().take(width).skip(1);
                let taken = 1 + leaders
                    .take_while(|job| job.cost <= cost_max && rides_with(job.cost, cheapest))
                    .count();
                tally.stolen += taken;
                hand.extend(victim.drain(victim.len() - taken..));
            }
            if !hand.is_empty() {
                // Counted under the same guard as the pop so peers never
                // observe empty queues with a job invisibly in a hand.
                guard.busy += hand.len() * usize::from(run.instrumented);
                return true;
            }
            if !guard.open && guard.busy == 0 {
                return false;
            }
            guard = self.work_cv.wait(guard).expect("pool mutex");
        }
    }

    /// `settled` jobs reached a terminal state. That can end a peer's wait
    /// only by taking `busy` to 0 on a closed pool, so only that transition
    /// wakes.
    fn release(&self, settled: usize) {
        if self.run.instrumented && settled > 0 {
            let mut guard = self.lock();
            guard.busy -= settled;
            if guard.busy == 0 && !guard.open {
                drop(guard);
                self.work_cv.notify_all();
            }
        }
    }

    /// The device-loss gate of [`SlotRun::attempt`]: takes `dev` down and
    /// migrates its queued jobs to the next live device, channel to
    /// channel, keeping each deque's cost order — unless `dev` is already
    /// lost or is the last live device.
    fn lose_device(&self, dev: usize) -> bool {
        let mut guard = self.lock();
        let Some(target) = take_down(&mut guard.lost, dev) else {
            return false;
        };
        for c in 0..self.nk {
            for job in std::mem::take(&mut guard.queues[dev * self.nk + c]) {
                insert_ranked(&mut guard.queues[target * self.nk + c], job);
            }
        }
        drop(guard);
        // Wakes the lost device's parked slots (they exit) and the
        // survivors (they pick the migrated work up).
        self.work_cv.notify_all();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExactEngine;
    use crate::faults::{injected_kernel_error, FaultKind, FaultPlan};
    use crate::fleet::FleetConfig;
    use crate::resilience::{FailurePolicy, FaultCause, ResilienceConfig};
    use dphls_core::KernelConfig;
    use dphls_kernels::{GlobalLinear, LinearParams};
    use dphls_seq::Base;
    use dphls_systolic::{
        CycleModelParams, Device, ExactScratch, KernelCycleInfo, SystolicError, SystolicRun,
    };
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    type Pair = SeqPair<GlobalLinear>;

    fn device(nk: usize) -> Device {
        Device::new(
            KernelConfig::new(8, 2, nk).with_max_lengths(96, 96),
            CycleModelParams::dphls(),
            KernelCycleInfo {
                sym_bits: 2,
                has_walk: true,
                ii: 1,
            },
            250.0,
        )
    }

    /// The exact engine behind a call counter; the first `fail_first` calls
    /// fail with a kernel error, every call on a pair whose query is
    /// `fail_len` long fails too, and one whose query is `panic_len` long
    /// panics. With `width` above 1 it takes groups, sleeps `group_delay`
    /// in each, and records the query lengths of each one (a pair's length
    /// names it: see [`ranked`]).
    struct Stub {
        inner: ExactEngine<GlobalLinear>,
        calls: AtomicUsize,
        fail_first: usize,
        fail_len: Option<usize>,
        panic_len: Option<usize>,
        width: usize,
        group_delay: Duration,
        groups: Mutex<Vec<Vec<usize>>>,
    }

    impl Stub {
        fn failing(fail_first: usize) -> Self {
            Stub {
                inner: ExactEngine::new(LinearParams::<i16>::dna()),
                calls: AtomicUsize::new(0),
                fail_first,
                fail_len: None,
                panic_len: None,
                width: 1,
                group_delay: Duration::ZERO,
                groups: Mutex::new(Vec::new()),
            }
        }

        fn grouping(width: usize) -> Self {
            Stub {
                width,
                ..Stub::failing(0)
            }
        }

        fn groups(&self) -> Vec<Vec<usize>> {
            self.groups.lock().expect("groups mutex").clone()
        }
    }

    impl PairEngine<GlobalLinear> for Stub {
        type Scratch = ExactScratch<i16>;

        fn new_scratch(&self) -> Self::Scratch {
            ExactScratch::new()
        }

        fn run_pair(
            &self,
            q: &[Base],
            r: &[Base],
            config: &KernelConfig,
            scratch: &mut Self::Scratch,
        ) -> Result<SystolicRun<i16>, SystolicError> {
            let call = self.calls.fetch_add(1, Ordering::Relaxed);
            assert!(self.panic_len != Some(q.len()), "stub panic");
            if call < self.fail_first || self.fail_len == Some(q.len()) {
                return Err(injected_kernel_error());
            }
            self.inner.run_pair(q, r, config, scratch)
        }

        fn group_width(&self) -> usize {
            self.width
        }

        fn run_group(
            &self,
            pairs: &[(&[Base], &[Base])],
            config: &KernelConfig,
            scratch: &mut Self::Scratch,
            out: &mut Vec<Result<SystolicRun<i16>, SystolicError>>,
        ) -> usize {
            let lens = pairs.iter().map(|(q, _)| q.len()).collect();
            self.groups.lock().expect("groups mutex").push(lens);
            std::thread::sleep(self.group_delay);
            out.extend(
                pairs
                    .iter()
                    .map(|(q, r)| self.run_pair(q, r, config, scratch)),
            );
            1
        }
    }

    /// `n` jobs in descending cost order (pair `idx` is `n - idx + 7` bases
    /// long), as [`Pool::new`] expects them.
    fn ranked(n: usize) -> impl Iterator<Item = Job<Pair>> {
        (0..n).map(move |idx| {
            let len = n - idx + 7;
            let seq = |shift: usize| -> Vec<Base> {
                (0..len)
                    .map(|i| [Base::A, Base::C, Base::G, Base::T][(i * shift + idx) % 4])
                    .collect()
            };
            Job::new(idx, (len * len) as u64, (seq(1), seq(3)))
        })
    }

    fn quarantine(max_retries: u32) -> ResilienceConfig {
        ResilienceConfig {
            max_retries,
            failure_policy: FailurePolicy::Quarantine,
            ..ResilienceConfig::disabled()
        }
    }

    /// What the workers of one pool run saw, summed.
    struct Drained {
        /// `(idx, completed)` of every terminal slot, sorted by `idx`.
        reports: Vec<(usize, bool)>,
        /// Pairs each worker executed.
        executed: Vec<usize>,
        /// Grouped passes run, and passes that fell back, over every worker.
        groups: usize,
        fallbacks: usize,
        aborted: Option<PairFault>,
    }

    /// Runs every worker of `pool` on its own thread, calls `during` on this
    /// one, and joins.
    fn drain(pool: &Pool<'_, Pair>, engine: &Stub, during: impl FnOnce()) -> Drained {
        let mut reports = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..pool.workers())
                .map(|worker| {
                    scope.spawn(move || {
                        let mut reports = Vec::new();
                        pool.work::<GlobalLinear, _>(engine, worker, |hand| {
                            reports.extend(hand.map(|(idx, slot)| (idx, slot.is_ok())));
                        });
                        reports
                    })
                })
                .collect();
            during();
            let joined = handles
                .into_iter()
                .map(|h| h.join().expect("worker thread"));
            joined.flatten().collect::<Vec<_>>()
        });
        reports.sort_unstable();
        let sched = pool.lock();
        Drained {
            reports,
            executed: sched.tallies.iter().map(|t| t.executed).collect(),
            groups: sched.tallies.iter().map(|t| t.groups).sum(),
            fallbacks: sched.tallies.iter().map(|t| t.fallbacks).sum(),
            aborted: sched.aborted.clone(),
        }
    }

    fn all_completed(n: usize) -> Vec<(usize, bool)> {
        (0..n).map(|idx| (idx, true)).collect()
    }

    #[test]
    fn closed_prefilled_pool_is_drained_exactly_once_and_every_worker_exits() {
        let dev = device(2);
        for res in [ResilienceConfig::disabled(), quarantine(1)] {
            let run = SlotRun::new(&dev, FleetConfig::new(2), &res, None);
            let pool = Pool::new(&run, 2, false, ranked(40));
            {
                // Rank `i` went to queue `i % 4`, so each deque is ranked.
                let sched = pool.lock();
                for (qi, queue) in sched.queues.iter().enumerate() {
                    let idxs: Vec<_> = queue.iter().map(|j| j.idx).collect();
                    assert_eq!(idxs, (qi..40).step_by(4).collect::<Vec<_>>());
                }
            }
            let engine = Stub::failing(0);
            let drained = drain(&pool, &engine, || ());
            assert_eq!(drained.reports, all_completed(40));
            assert_eq!(drained.executed.len(), 8);
            assert_eq!(drained.executed.iter().sum::<usize>(), 40);
            assert_eq!(engine.calls.load(Ordering::Relaxed), 40);
            assert!(drained.aborted.is_none());
            let sched = pool.lock();
            assert_eq!(sched.busy, 0);
            assert!(sched.queues.iter().all(VecDeque::is_empty));
        }
    }

    #[test]
    fn open_empty_pool_parks_workers_until_close() {
        let dev = device(2);
        for res in [ResilienceConfig::disabled(), quarantine(1)] {
            let run = SlotRun::new(&dev, FleetConfig::single(), &res, None);
            let pool: Pool<Pair> = Pool::new(&run, 2, true, std::iter::empty());
            let engine = Stub::failing(0);
            let exited = AtomicUsize::new(0);
            let (tx, rx) = mpsc::channel();
            std::thread::scope(|scope| {
                for worker in 0..4 {
                    let (pool, engine, exited, tx) = (&pool, &engine, &exited, tx.clone());
                    scope.spawn(move || {
                        pool.work::<GlobalLinear, _>(engine, worker, |hand| {
                            for (idx, slot) in hand {
                                tx.send((idx, slot.is_ok())).expect("test receiver");
                            }
                        });
                        exited.fetch_add(1, Ordering::SeqCst);
                    });
                }
                // Dealt into an empty open pool, every job is still executed …
                for job in ranked(6) {
                    pool.deal(job.idx, job);
                }
                let mut reports: Vec<_> = (0..6).map(|_| rx.recv().expect("a report")).collect();
                reports.sort_unstable();
                assert_eq!(reports, all_completed(6));
                // … and drained again, the open pool lets no worker leave.
                assert_eq!(exited.load(Ordering::SeqCst), 0);
                pool.close();
            });
            assert_eq!(exited.load(Ordering::SeqCst), 4);
            assert!(rx.try_recv().is_err(), "nothing ran twice");
        }
    }

    #[test]
    fn retry_redealt_after_every_queue_drained_is_still_executed() {
        // The only job fails once while in a hand — every deque is empty
        // when it is re-dealt. Instrumented peers outwait it on the busy
        // count; uninstrumented ones may have left, and the retrying worker
        // steals its own re-deal back.
        for (nk, instrumented) in [(1, true), (1, false), (3, true), (3, false)] {
            let dev = device(nk);
            let res = quarantine(1);
            let mut run = SlotRun::new(&dev, FleetConfig::single(), &res, None);
            run.instrumented = instrumented;
            let pool = Pool::new(&run, 1, false, ranked(1));
            let engine = Stub::failing(1);
            let drained = drain(&pool, &engine, || ());
            assert_eq!(drained.reports, vec![(0, true)], "nk {nk} {instrumented}");
            assert_eq!(engine.calls.load(Ordering::Relaxed), 2);
            assert_eq!(run.retries.load(Ordering::Relaxed), 1);
            assert_eq!(pool.lock().busy, 0);
        }
    }

    #[test]
    fn out_of_retries_is_reported_as_a_quarantined_slot() {
        let dev = device(2);
        let res = quarantine(1);
        let run = SlotRun::new(&dev, FleetConfig::single(), &res, None);
        let pool = Pool::new(&run, 2, false, ranked(1));
        let engine = Stub::failing(usize::MAX);
        let drained = drain(&pool, &engine, || ());
        assert_eq!(drained.reports, vec![(0, false)]);
        assert_eq!(engine.calls.load(Ordering::Relaxed), 2);
        assert!(drained.aborted.is_none());
    }

    #[test]
    fn device_loss_migrates_every_queued_job_and_spares_the_last_device() {
        let dev = device(2);
        let res = quarantine(1);
        let run = SlotRun::new(&dev, FleetConfig::new(3), &res, None);
        let pool = Pool::new(&run, 1, false, ranked(12));
        let queue_idxs =
            |qi: usize| -> Vec<usize> { pool.lock().queues[qi].iter().map(|j| j.idx).collect() };
        // Device 1's channels move to device 2, channel to channel, merged
        // by cost (lower index = more expensive here).
        assert!(pool.lose_device(1));
        assert!(!pool.lose_device(1), "already lost");
        assert_eq!(queue_idxs(2), Vec::<usize>::new());
        assert_eq!(queue_idxs(3), Vec::<usize>::new());
        assert_eq!(queue_idxs(4), vec![2, 4, 8, 10]);
        assert_eq!(queue_idxs(5), vec![3, 5, 9, 11]);
        assert!(pool.lose_device(2));
        assert_eq!(queue_idxs(0), vec![0, 2, 4, 6, 8, 10]);
        assert_eq!(queue_idxs(1), vec![1, 3, 5, 7, 9, 11]);
        assert!(!pool.lose_device(0), "the last live device stays");
        assert_eq!(pool.lock().lost, vec![false, true, true]);
        // New work skips the lost devices' queues.
        pool.deal(3, Job::new(12, 1, (vec![Base::A; 4], vec![Base::A; 4])));
        assert_eq!(queue_idxs(0).last(), Some(&12));

        let engine = Stub::failing(0);
        let drained = drain(&pool, &engine, || ());
        assert_eq!(drained.reports, all_completed(13));
        // Only device 0's two slots dispatched anything.
        assert_eq!(drained.executed[2..], [0; 4]);
        assert_eq!(drained.executed.iter().sum::<usize>(), 13);
    }

    #[test]
    fn device_loss_under_contention_loses_and_duplicates_nothing() {
        let dev = device(2);
        let res = quarantine(2);
        // More loss injections than the fleet can honour: whichever slots
        // draw them, at most `D - 1` fire.
        let plan = [3, 17, 31, 45].iter().fold(FaultPlan::new(), |p, &idx| {
            p.inject(idx, FaultKind::DeviceLoss)
        });
        for open in [false, true] {
            let run = SlotRun::new(&dev, FleetConfig::new(3), &res, Some(&plan));
            let pool = if open {
                Pool::new(&run, 2, true, std::iter::empty())
            } else {
                Pool::new(&run, 2, false, ranked(60))
            };
            let engine = Stub::failing(0);
            let drained = drain(&pool, &engine, || {
                if open {
                    for job in ranked(60) {
                        pool.deal(job.idx, job);
                    }
                    pool.close();
                }
            });
            assert_eq!(drained.reports, all_completed(60), "open {open}");
            assert_eq!(drained.executed.iter().sum::<usize>(), 60);
            let losses = run.device_losses.load(Ordering::Relaxed);
            assert!((1..=2).contains(&losses), "{losses} losses");
            let sched = pool.lock();
            assert_eq!(sched.lost.iter().filter(|&&l| l).count(), losses);
            // Each loss failed exactly the pair in flight on it, once.
            assert_eq!(run.retries.load(Ordering::Relaxed), losses);
            assert_eq!(engine.calls.load(Ordering::Relaxed), 60);
            assert_eq!(sched.busy, 0);
        }
    }

    #[test]
    fn abort_wakes_parked_workers_of_an_open_pool() {
        let dev = device(2);
        // Raised from outside (a source error, a producer stall) …
        let res = ResilienceConfig::disabled();
        let run = SlotRun::new(&dev, FleetConfig::single(), &res, None);
        let pool: Pool<Pair> = Pool::new(&run, 2, true, std::iter::empty());
        let engine = Stub::failing(0);
        let drained = drain(&pool, &engine, || {
            run.abort.store(true, Ordering::Relaxed);
            pool.wake_all();
        });
        assert!(drained.reports.is_empty() && drained.aborted.is_none());

        // … or by a pair out of retries under the Abort policy: the pool
        // keeps the fault, and every worker leaves while it is still open.
        let res = ResilienceConfig {
            max_retries: 1,
            ..ResilienceConfig::disabled()
        };
        let run = SlotRun::new(&dev, FleetConfig::single(), &res, None);
        let pool: Pool<Pair> = Pool::new(&run, 2, true, std::iter::empty());
        let engine = Stub::failing(usize::MAX);
        let drained = drain(&pool, &engine, || {
            let job = ranked(1).next().expect("one job");
            pool.deal(0, job);
        });
        assert!(run.aborted());
        assert!(drained.reports.is_empty());
        let fault = drained.aborted.expect("the abort fault");
        assert_eq!((fault.idx, fault.attempts), (0, 2));
        assert_eq!(fault.cause, FaultCause::Kernel(injected_kernel_error()));
    }

    /// The cost above which the engine of [`pop`] groups nothing.
    const COST_MAX: u64 = 1_000;

    /// The `idx`s of the jobs `next_jobs` hands a slot of queue `qown`.
    fn pop(pool: &Pool<'_, Pair>, qown: usize, width: usize, tally: &mut SlotTally) -> Vec<usize> {
        let mut hand = Vec::new();
        assert!(pool.next_jobs(qown, tally, width, COST_MAX, &mut hand));
        hand.iter().map(|job| job.idx).collect()
    }

    #[test]
    fn group_pops_take_like_cost_runs_from_the_own_front_or_a_victims_tail() {
        let dev = device(2);
        let res = ResilienceConfig::disabled();
        let run = SlotRun::new(&dev, FleetConfig::single(), &res, None);
        assert!(!run.instrumented);
        // Pair `idx` is `27 - idx` bases long and costs its square; queue 0
        // holds the even `idx`s, queue 1 the odd ones.
        let pool = Pool::new(&run, 1, false, ranked(20));
        let mut tally = SlotTally::default();
        // Up to `width` jobs, from the front of the own deque only.
        assert_eq!(pop(&pool, 0, 4, &mut tally), vec![0, 2, 4, 6]);
        assert_eq!(pop(&pool, 1, 3, &mut tally), vec![1, 3, 5]);
        // Width 1 is the per-pair pop.
        assert_eq!(pop(&pool, 1, 1, &mut tally), vec![7]);
        // The cost bound cuts a group short of the width: behind job 8
        // (19 bases, cost 361) job 14 (13 bases, 169 < 361 / 2) does not
        // ride, nor job 18 (81) behind job 14.
        assert_eq!(pop(&pool, 0, 8, &mut tally), vec![8, 10, 12]);
        assert_eq!(pop(&pool, 0, 8, &mut tally), vec![14, 16]);
        assert_eq!(pop(&pool, 0, 8, &mut tally), vec![18]);
        assert_eq!(tally.stolen, 0);
        // An empty own deque steals the victim's cheapest job and the jobs
        // in front of it that it rides with, in deque order: queue 1 holds
        // 9, 11, 13, 15, 17, 19 (costs 324, 256, 196, 144, 100, 64), and
        // job 19 rides with 17 (64 ≥ 100 / 2) but not with 15 (64 < 72).
        assert_eq!(pool.lock().queues[1].len(), 6);
        assert_eq!(pop(&pool, 0, 8, &mut tally), vec![17, 19]);
        // The width cuts a run short: 15 rides with 13 and 11 alike.
        assert_eq!(pop(&pool, 0, 2, &mut tally), vec![13, 15]);
        // A width-1 pop, and a victim holding one job, yield one job.
        assert_eq!(pop(&pool, 0, 1, &mut tally), vec![11]);
        assert_eq!(pop(&pool, 0, 8, &mut tally), vec![9]);
        // `stolen` counts jobs, not steals.
        assert_eq!(tally.stolen, 6);
        // The cost bound cuts a stolen run short as well: job 24 rides with
        // its neighbours but is too big for a grouped pass, and goes alone.
        let big = COST_MAX + 1;
        for (idx, cost) in [(24, big), (25, COST_MAX), (26, 900), (27, 800)] {
            pool.deal(1, Job::new(idx, cost, (vec![Base::A; 4], vec![Base::A; 4])));
        }
        assert_eq!(pop(&pool, 0, 8, &mut tally), vec![25, 26, 27]);
        assert_eq!(pop(&pool, 0, 8, &mut tally), vec![24]);
        assert_eq!(tally.stolen, 10);
        // A job the engine calls too big for a grouped pass goes alone, and
        // so does the job behind it if that one is too cheap to ride with
        // anything.
        for (idx, cost) in [(20, big), (21, big), (22, 40), (23, 30)] {
            pool.deal(0, Job::new(idx, cost, (vec![Base::A; 4], vec![Base::A; 4])));
        }
        assert_eq!(pop(&pool, 0, 8, &mut tally), vec![20]);
        assert_eq!(pop(&pool, 0, 8, &mut tally), vec![21]);
        assert_eq!(pop(&pool, 0, 8, &mut tally), vec![22, 23]);
        assert_eq!(tally.stolen, 10);
        assert_eq!(pool.lock().busy, 0, "uninstrumented pops are not counted");
    }

    #[test]
    fn a_thief_runs_a_stolen_run_as_one_pass_and_settles_it_per_member() {
        // Two channels, one slot each, and every job on queue 0: worker 1,
        // alone, only ever steals. Pair `idx` is `18 - idx` bases long, so
        // from the tail the cheapest (8 bases, 64) rides with pairs of up to
        // 11 bases (121 ≤ 128), the next cheapest (12 bases, 144) with up to
        // 17 (289 / 2 = 144), and pair 0 (18 bases) is left alone.
        let dev = device(2);
        for res in [ResilienceConfig::disabled(), quarantine(1)] {
            let run = SlotRun::new(&dev, FleetConfig::single(), &res, None);
            let pool = Pool::new(&run, 1, false, std::iter::empty());
            for job in ranked(11) {
                pool.deal(0, job);
            }
            let engine = Stub::grouping(8);
            let mut hands = Vec::new();
            pool.work::<GlobalLinear, _>(&engine, 1, |hand| {
                let hand: Vec<_> = hand.map(|(idx, slot)| (idx, slot.is_ok())).collect();
                hands.push(hand);
            });
            let ctx = format!("instrumented {}", run.instrumented);
            let runs = vec![vec![11, 10, 9, 8], vec![17, 16, 15, 14, 13, 12]];
            assert_eq!(engine.groups(), runs, "{ctx}");
            // Each pass's members are reported together, in hand order.
            let want = [&[7, 8, 9, 10][..], &[1, 2, 3, 4, 5, 6], &[0]];
            let want: Vec<Vec<_>> = want
                .iter()
                .map(|idxs| idxs.iter().map(|&idx| (idx, true)).collect())
                .collect();
            assert_eq!(hands, want, "{ctx}");
            assert_eq!(engine.calls.load(Ordering::Relaxed), 11, "{ctx}");
            let sched = pool.lock();
            assert_eq!(sched.tallies[1].stolen, 11, "{ctx}");
            assert_eq!(sched.tallies[1].executed, 11, "{ctx}");
            assert_eq!(sched.tallies[1].groups, 2, "{ctx}");
            assert_eq!(sched.busy, 0, "{ctx}");
        }
    }

    #[test]
    fn workers_group_on_both_kinds_of_run_and_settle_every_member_separately() {
        let dev = device(2);
        for instrumented in [false, true] {
            let res = match instrumented {
                false => ResilienceConfig::disabled(),
                true => quarantine(1),
            };
            let run = SlotRun::new(&dev, FleetConfig::new(2), &res, None);
            assert_eq!(run.instrumented, instrumented);
            let pool = Pool::new(&run, 1, false, ranked(60));
            let engine = Stub::grouping(8);
            let drained = drain(&pool, &engine, || ());
            // Every pair is reported exactly once either way.
            assert_eq!(drained.reports, all_completed(60));
            assert_eq!(drained.executed.iter().sum::<usize>(), 60);
            assert_eq!(engine.calls.load(Ordering::Relaxed), 60);
            let groups = engine.groups();
            assert!(!groups.is_empty(), "instrumented {instrumented}");
            assert_eq!((drained.groups, drained.fallbacks), (groups.len(), 0));
            for lens in &groups {
                assert!((2..=8).contains(&lens.len()), "{lens:?}");
                // Pair `idx` is `67 - idx` bases long and rank `idx` went to
                // queue `idx % 4`: members of one group are neighbours on one
                // deque, leader first, all within the cost bound of it.
                let idxs: Vec<usize> = lens.iter().map(|len| 67 - len).collect();
                assert!(idxs.windows(2).all(|w| w[1] == w[0] + 4), "{idxs:?}");
                let cost = |len: &usize| (len * len) as u64;
                assert!(lens.iter().all(|len| rides_with(cost(&lens[0]), cost(len))));
            }
            assert_eq!(pool.lock().busy, 0);
        }
    }

    #[test]
    fn a_failed_member_aborts_a_group_as_it_would_the_per_pair_loop() {
        // One worker, no retries, abort policy. Pair `idx` is `13 - idx`
        // bases long; the cost bound makes the first hand pairs 0..=3, and
        // pair 2 (11 bases) fails. The group is scored whole before anything
        // is settled — one call more than the per-pair loop makes — and then
        // reports what that loop reports: the members ahead of the failed
        // one, the fault of the first failure in hand order, and nothing
        // after it. Instrumented (a deadline alone turns it on), the abort
        // releases the failed member and the one behind it from `busy`.
        let dev = device(1);
        let instrumented = ResilienceConfig {
            pair_deadline: Some(Duration::from_secs(60)),
            ..ResilienceConfig::disabled()
        };
        for res in [ResilienceConfig::disabled(), instrumented] {
            for (width, calls) in [(1, 3), (8, 4)] {
                let run = SlotRun::new(&dev, FleetConfig::single(), &res, None);
                let ctx = format!("width {width} instrumented {}", run.instrumented);
                let pool = Pool::new(&run, 1, false, ranked(6));
                let engine = Stub {
                    fail_len: Some(11),
                    ..Stub::grouping(width)
                };
                let drained = drain(&pool, &engine, || ());
                assert!(run.aborted());
                assert_eq!(drained.reports, vec![(0, true), (1, true)], "{ctx}");
                let fault = drained.aborted.expect("the abort fault");
                assert_eq!((fault.idx, fault.attempts), (2, 1), "{ctx}");
                assert_eq!(fault.cause, FaultCause::Kernel(injected_kernel_error()));
                assert_eq!(engine.calls.load(Ordering::Relaxed), calls, "{ctx}");
                if width > 1 {
                    assert_eq!(engine.groups(), vec![vec![13, 12, 11, 10]], "{ctx}");
                }
                assert_eq!(drained.executed, vec![2], "{ctx}");
                assert_eq!(pool.lock().busy, 0, "{ctx}");
            }
        }
    }

    #[test]
    fn a_pass_that_panics_falls_back_pair_by_pair_and_charges_the_panicking_member_alone() {
        // One worker. Pair `idx` is `13 - idx` bases long, pair 2 (11 bases)
        // panics whenever it is scored. The first hand is pairs 0..=3: its
        // pass panics, every member runs again alone, and only pair 2 fails
        // — a retry. Re-dealt ahead of pairs 4 and 5 (cost order), it leads
        // the next hand, whose pass panics too; alone again, pair 2 is out of
        // retries and quarantined, and its two companions complete.
        let dev = device(1);
        let res = quarantine(1);
        let run = SlotRun::new(&dev, FleetConfig::single(), &res, None);
        let pool = Pool::new(&run, 1, false, ranked(6));
        let engine = Stub {
            panic_len: Some(11),
            ..Stub::grouping(8)
        };
        let drained = drain(&pool, &engine, || ());
        let mut want = all_completed(6);
        want[2].1 = false;
        assert_eq!(drained.reports, want);
        assert_eq!(engine.groups(), vec![vec![13, 12, 11, 10], vec![11, 9, 8]]);
        assert_eq!((drained.groups, drained.fallbacks), (0, 2));
        assert_eq!(run.retries.load(Ordering::Relaxed), 1, "pair 2's alone");
        assert_eq!(run.timeouts.load(Ordering::Relaxed), 0);
        assert_eq!(drained.executed, vec![5]);
        assert_eq!(pool.lock().busy, 0);
    }

    #[test]
    fn a_pass_over_its_deadline_falls_back_uncharged() {
        // Four pairs of at most 121 cells share a pass whose deadline is one
        // unit's, 100 ms; the pass sleeps 400 ms. Its results are dropped and
        // each member runs again alone, well inside its own deadline: no
        // timeout and no retry is counted, one fallback is.
        let dev = device(1);
        let res = ResilienceConfig {
            pair_deadline: Some(Duration::from_millis(100)),
            ..quarantine(1)
        };
        let run = SlotRun::new(&dev, FleetConfig::single(), &res, None);
        let pool = Pool::new(&run, 1, false, ranked(4));
        let engine = Stub {
            group_delay: Duration::from_millis(400),
            ..Stub::grouping(8)
        };
        let drained = drain(&pool, &engine, || ());
        assert_eq!(drained.reports, all_completed(4));
        assert_eq!(engine.groups(), vec![vec![11, 10, 9, 8]]);
        assert_eq!((drained.groups, drained.fallbacks), (1, 1));
        assert_eq!(run.timeouts.load(Ordering::Relaxed), 0);
        assert_eq!(run.retries.load(Ordering::Relaxed), 0);
        // Four calls in the pass, four alone.
        assert_eq!(engine.calls.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn an_injected_member_never_shares_a_pass() {
        // One worker; pair `idx` is `15 - idx` bases long. Pair 1 (14 bases)
        // fails on every attempt, pair 3 (12 bases) panics on its first.
        // Each runs alone on an attempt with an injection planned; the rest
        // of its hand shares the pass, and pair 3 joins one once its
        // injection is spent.
        let dev = device(1);
        let res = quarantine(1);
        let plan = FaultPlan::new()
            .inject_sticky(1, FaultKind::KernelError)
            .inject(3, FaultKind::Panic);
        let run = SlotRun::new(&dev, FleetConfig::single(), &res, Some(&plan));
        let pool = Pool::new(&run, 1, false, ranked(8));
        let engine = Stub::grouping(8);
        let drained = drain(&pool, &engine, || ());
        let mut want = all_completed(8);
        want[1].1 = false;
        assert_eq!(drained.reports, want);
        // Hands [0 1 2 3 4], [1 3 5] and [6 7].
        let groups = engine.groups();
        assert_eq!(groups, vec![vec![15, 13, 11], vec![12, 10], vec![9, 8]]);
        assert_eq!((drained.groups, drained.fallbacks), (3, 0));
        assert_eq!(run.retries.load(Ordering::Relaxed), 2);
        assert_eq!(pool.lock().busy, 0);
    }

    #[test]
    fn a_deque_holding_one_job_never_calls_run_group() {
        // Four deques, one job each: whether a worker pops its own or steals
        // a peer's, it holds one job, which runs through `run_pair`.
        let dev = device(2);
        for res in [ResilienceConfig::disabled(), quarantine(1)] {
            let run = SlotRun::new(&dev, FleetConfig::new(2), &res, None);
            let pool = Pool::new(&run, 1, false, ranked(4));
            let engine = Stub::grouping(8);
            let drained = drain(&pool, &engine, || ());
            assert_eq!(drained.reports, all_completed(4));
            assert!(engine.groups().is_empty(), "{res:?}");
            assert_eq!(engine.calls.load(Ordering::Relaxed), 4);
            assert_eq!(drained.groups, 0);
        }
    }

    #[test]
    fn loss_injected_on_a_slot_of_an_already_lost_device_runs_the_pair_there() {
        // Two slots of device 1 each hold a loss-injected pair before either
        // attempts it — the interleaving a loaded run produced by accident
        // (ROADMAP 7(a)), forced here by driving both slots from one thread.
        let dev = device(1);
        let res = quarantine(1);
        let plan = FaultPlan::new()
            .inject(1, FaultKind::DeviceLoss)
            .inject(3, FaultKind::DeviceLoss);
        let run = SlotRun::new(&dev, FleetConfig::new(2), &res, Some(&plan));
        // Queue 0 (device 0) holds pairs 0 and 2, queue 1 (device 1) 1 and 3.
        let pool = Pool::new(&run, 2, false, ranked(4));
        let engine = Stub::failing(0);
        let mut reports = Vec::new();
        let mut report = |hand: Drain<'_, Terminal<i16>>| {
            reports.extend(hand.map(|(idx, slot)| (idx, slot.is_ok())));
        };
        let mut slots = [(); 2].map(|()| Slot::<GlobalLinear, Stub, Pair>::new(&engine, 1));
        for slot in &mut slots {
            assert!(pool.next_jobs(1, &mut slot.tally, 1, 0, &mut slot.hand));
        }
        assert_eq!(pool.lock().busy, 2);
        // The first attempt takes device 1 down and fails with it: the pair
        // is re-dealt to device 0.
        assert!(pool.run_hand(&engine, &mut slots[0], &mut report));
        assert_eq!(pool.lock().lost, vec![false, true]);
        assert_eq!(run.device_losses.load(Ordering::Relaxed), 1);
        assert_eq!(run.retries.load(Ordering::Relaxed), 1);
        let queued: Vec<usize> = pool.lock().queues[0].iter().map(|j| j.idx).collect();
        assert_eq!(queued, vec![0, 1, 2]);
        // The second finds the device already lost: the injection is void,
        // the pair in hand completes on the dead device's slot, and no
        // second loss or retry is counted.
        assert!(pool.run_hand(&engine, &mut slots[1], &mut report));
        assert_eq!(reports, vec![(3, true)]);
        assert_eq!(run.device_losses.load(Ordering::Relaxed), 1);
        assert_eq!(run.retries.load(Ordering::Relaxed), 1);
        assert_eq!(slots[1].tally.executed, 1);
        assert_eq!(pool.lock().busy, 0);
        // Neither slot of the lost device dispatches again; device 0 drains
        // the rest, the re-dealt pair included, exactly once.
        for slot in &mut slots {
            assert!(!pool.next_jobs(1, &mut slot.tally, 1, 0, &mut slot.hand));
        }
        let drained = drain(&pool, &engine, || ());
        assert_eq!(drained.reports, vec![(0, true), (1, true), (2, true)]);
        assert_eq!(engine.calls.load(Ordering::Relaxed), 4);
        assert_eq!(pool.lock().busy, 0);
    }
}
