//! What a cold scatter does next: every query-path decision of the
//! coordinator as one plain value. A [`Dispatch`] holds no socket, no lock and
//! no clock. `coordinator.rs`'s shell asks it for the next [`Action`], does
//! the I/O, and reports back the time and each outcome; this module's seeded
//! tests drive it through random outcomes instead.
//!
//! Each shard the cache did not answer has one walk:
//!
//! 1. its **primary**, in a scatter round. The shards are grouped into one
//!    lane per primary and the lanes ordered by worker; round `r` asks the
//!    `r`-th shard of every lane. Every send of a round comes before any of
//!    its receives, and each link is held from its send until its own reply
//!    is in, so the rounds lock links in ascending worker order;
//! 2. once the round's links are released, a primary whose wait was
//!    abandoned has its **live replicas** asked in turn, as hedges;
//! 3. after the last round, and behind one cache fence, a shard whose query
//!    failed retryably is **re-dispatched**: to the live members of its
//!    replica set, then to every other live worker behind a fresh load. The
//!    worker that answers is promoted to primary.
//!
//! The deadline rules (`coordinator.rs` says why): a primary with another
//! live member in its set waits `hedge_after` from its own send and may
//! abandon the wait; every other ask waits the whole `read_timeout` from the
//! start of its own receive. Liveness is a predicate read at each
//! candidate's turn; a worker dead at its turn is never asked. A
//! deterministic failure fails the query when the recovery walk reaches it,
//! and so does a shard no live worker could answer.

use seabed_error::SeabedError;
use std::collections::VecDeque;
use std::time::Duration;

/// Whether a failed shard query is worth re-dispatching to another worker:
/// transport and wire failures (this worker or its link misbehaved) and
/// dist-protocol errors (e.g. "shard not resident" after a worker restart)
/// are; deterministic query-semantics failures are not — every worker would
/// answer the same.
pub(crate) fn retry_elsewhere(err: &SeabedError) -> bool {
    matches!(
        err,
        SeabedError::Net(_) | SeabedError::Wire(_) | SeabedError::Dist { .. }
    )
}

/// Why a shard query goes to its worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Ask {
    /// The shard's primary, in a scatter round.
    Primary,
    /// A live replica, racing a primary whose wait was abandoned.
    Hedge,
    /// A live worker, taking over a shard whose query failed retryably;
    /// with `load`, one that must first be loaded with the shard.
    Redispatch { load: bool },
}

/// The shell's next step. Every time is a duration since the walk began.
pub(crate) enum Action<A> {
    /// Load the retained copy of `shard` onto `worker` first if the ask
    /// says so, then lock `worker`'s link, number `shard`'s query under the
    /// lock and write it, keeping the link; report the time with
    /// [`Dispatch::sent`]. A failed load or send is the outcome its receive
    /// reports.
    Send { shard: u32, worker: usize, ask: Ask },
    /// Read the reply to the oldest query sent by `deadline`, release its
    /// link and [settle](Dispatch::settle) it. With `abandon`, running dry
    /// before the reply is `Ok(None)` and leaves the link healthy.
    Receive { deadline: Duration, abandon: bool },
    /// Fence the answer cache: the query is about to re-dispatch.
    Fence,
    /// Move `worker` to the front of `shard`'s replica set: it answered a
    /// re-dispatch.
    Promote { shard: u32, worker: usize },
    /// Every shard is answered: the answers, in the order the shards settled.
    Done(Vec<A>),
    /// The query fails with this error.
    Fail(SeabedError),
}

/// Where one shard's walk stands.
enum State {
    /// Waiting on its primary, in a scatter round.
    Primary,
    /// The primary's wait was abandoned: its replicas are asked in turn.
    Hedge,
    /// A retryable failure, for the recovery walk to re-dispatch.
    Retry,
    /// Being re-dispatched, with the last retryable failure.
    Redispatch(Option<SeabedError>),
    /// A deterministic failure, for the recovery walk to fail the query with.
    Failed(SeabedError),
    Answered,
}

struct Walk {
    shard: u32,
    primary: usize,
    /// The replica set, primary first, as the walk began.
    set: Vec<usize>,
    state: State,
    /// Candidates passed over so far: replicas for a hedge, then the set and
    /// the other workers for a re-dispatch.
    tried: usize,
    /// The worker asked last.
    worker: usize,
    /// An armed primary's hedge trigger; once sent, its deadline.
    hedge: Option<Duration>,
}

/// One queued step of a walk.
#[derive(Clone, Copy)]
enum Task {
    Send(usize),
    Receive(usize),
    /// Ask the next live replica if the primary's wait was abandoned.
    Hedge(usize),
    /// Fence the cache if a shard failed retryably, then walk the settled
    /// shards in order.
    Recover,
    /// Fail the query, or ask the next live worker, if the shard failed.
    Redispatch(usize),
    Promote(usize),
}

/// One cold scatter's decisions, shard by shard; `A` is a shard's answer.
pub(crate) struct Dispatch<A> {
    table_id: u32,
    workers: usize,
    hedge_after: Option<Duration>,
    read_timeout: Duration,
    walks: Vec<Walk>,
    answers: Vec<Option<A>>,
    /// How many lanes the first round has: one per distinct primary.
    pub(crate) lanes: usize,
    tasks: VecDeque<Task>,
    /// The walk last sent or received: the one reported on.
    current: usize,
    /// Walks in the order their scatter outcome settled: the order the
    /// recovery walk takes and the answers come in.
    settled: Vec<usize>,
}

impl<A> Dispatch<A> {
    /// The dispatch of table `table_id`'s shards, each with its replica
    /// set, over a pool of `workers` slots. `hedge_after` is the hedge
    /// trigger, `None` when it does not undercut `read_timeout`.
    pub(crate) fn new(
        table_id: u32,
        sets: Vec<(u32, Vec<usize>)>,
        workers: usize,
        hedge_after: Option<Duration>,
        read_timeout: Duration,
        alive: impl Fn(usize) -> bool,
    ) -> Dispatch<A> {
        // The primary is the first live member of the set, else its head, so
        // a fully dead set still fails over through re-dispatch.
        let walk = |(shard, set): (u32, Vec<usize>)| {
            let primary = set.iter().copied().find(|&w| alive(w)).or(set.first().copied());
            let primary = primary.unwrap_or(0);
            Walk {
                shard,
                primary,
                set,
                state: State::Primary,
                tried: 0,
                worker: primary,
                hedge: None,
            }
        };
        let walks: Vec<Walk> = sets.into_iter().map(walk).collect();
        // One lane per primary; round r asks every lane's r-th shard, in
        // ascending worker order: all sent, then all received, then hedged.
        let round_of = |i: usize| walks[..i].iter().filter(|w| w.primary == walks[i].primary).count();
        let mut order: Vec<(usize, usize, usize)> =
            (0..walks.len()).map(|i| (round_of(i), walks[i].primary, i)).collect();
        order.sort_unstable();
        let mut tasks = VecDeque::new();
        for round in order.chunk_by(|a, b| a.0 == b.0) {
            for task in [Task::Send as fn(usize) -> Task, Task::Receive, Task::Hedge] {
                tasks.extend(round.iter().map(|&(.., i)| task(i)));
            }
        }
        tasks.push_back(Task::Recover);
        Dispatch {
            table_id,
            workers,
            hedge_after,
            read_timeout,
            lanes: order.iter().filter(|(round, ..)| *round == 0).count(),
            answers: walks.iter().map(|_| None).collect(),
            walks,
            tasks,
            current: 0,
            settled: Vec::new(),
        }
    }

    /// The shell's next step at time `now`, with `alive` telling which
    /// workers are alive at this very turn.
    pub(crate) fn next(&mut self, now: Duration, alive: impl Fn(usize) -> bool) -> Action<A> {
        while let Some(task) = self.tasks.pop_front() {
            let state = |i: usize| &self.walks[i].state;
            match task {
                Task::Promote(i) => {
                    let Walk { shard, worker, .. } = self.walks[i];
                    return Action::Promote { shard, worker };
                }
                Task::Send(i) => {
                    let walk = &mut self.walks[i];
                    let ask = match walk.state {
                        State::Primary if !alive(walk.primary) => {
                            // A primary dead at its turn is refused unasked.
                            walk.state = State::Retry;
                            continue;
                        }
                        State::Primary => {
                            let replica = walk.set.iter().any(|&w| w != walk.primary && alive(w));
                            walk.hedge = self.hedge_after.filter(|_| replica);
                            Ask::Primary
                        }
                        State::Hedge => Ask::Hedge,
                        _ => Ask::Redispatch {
                            load: !walk.set.contains(&walk.worker),
                        },
                    };
                    self.current = i;
                    let (shard, worker) = (walk.shard, walk.worker);
                    return Action::Send { shard, worker, ask };
                }
                Task::Receive(i) if matches!(state(i), State::Retry) => self.settled.push(i),
                Task::Receive(i) => {
                    self.current = i;
                    let hedge = self.walks[i].hedge;
                    let (deadline, abandon) = (hedge.unwrap_or(now + self.read_timeout), hedge.is_some());
                    return Action::Receive { deadline, abandon };
                }
                Task::Hedge(i) if !matches!(state(i), State::Hedge) => {}
                Task::Hedge(i) => {
                    let walk = &mut self.walks[i];
                    let replicas = walk.set.iter().copied().filter(|&w| w != walk.primary);
                    match candidate(&mut walk.tried, replicas, &alive) {
                        Some(worker) => self.ask(i, worker, Task::Hedge(i)),
                        None => {
                            (walk.state, walk.tried) = (State::Retry, 0);
                            self.settled.push(i);
                        }
                    }
                }
                Task::Recover => {
                    self.tasks.extend(self.settled.iter().map(|&i| Task::Redispatch(i)));
                    if self.settled.iter().any(|&i| matches!(state(i), State::Retry)) {
                        return Action::Fence;
                    }
                }
                Task::Redispatch(i) => {
                    let walk = &mut self.walks[i];
                    let last = match std::mem::replace(&mut walk.state, State::Answered) {
                        State::Failed(err) => return Action::Fail(err),
                        State::Retry => None,
                        State::Redispatch(last) => last,
                        _ => continue,
                    };
                    let others = (0..self.workers).filter(|w| !walk.set.contains(w));
                    let Some(worker) = candidate(&mut walk.tried, walk.set.iter().copied().chain(others), &alive)
                    else {
                        let detail = last.map_or_else(
                            || "has no live replica or worker left to run on".to_string(),
                            |err| format!("could not be re-dispatched: {err}"),
                        );
                        let detail = format!("table {} shard {} {detail}", self.table_id, walk.shard);
                        return Action::Fail(SeabedError::dist("coordinator", detail));
                    };
                    walk.state = State::Redispatch(last);
                    self.ask(i, worker, Task::Redispatch(i));
                }
            }
        }
        let answers = self.settled.iter().filter_map(|&i| self.answers[i].take());
        Action::Done(answers.collect())
    }

    /// Queues walk `i`'s hedge or re-dispatch to `worker`, then `then`.
    fn ask(&mut self, i: usize, worker: usize, then: Task) {
        (self.walks[i].worker, self.walks[i].hedge) = (worker, None);
        for task in [then, Task::Receive(i), Task::Send(i)] {
            self.tasks.push_front(task);
        }
    }

    /// Reports that the query just sent left at `now`.
    pub(crate) fn sent(&mut self, now: Duration) {
        let hedge = &mut self.walks[self.current].hedge;
        *hedge = hedge.map(|after| now + after);
    }

    /// Reports how the query just received ended: its answer, `None` for an
    /// abandoned wait, or the error that felled it, its send or its load.
    pub(crate) fn settle(&mut self, reply: Result<Option<A>, SeabedError>) {
        let i = self.current;
        let walk = &mut self.walks[i];
        let next = match (reply, &walk.state) {
            (Ok(Some(answer)), state) => {
                if matches!(state, State::Redispatch(_)) {
                    self.tasks.push_front(Task::Promote(i));
                }
                self.answers[i] = Some(answer);
                State::Answered
            }
            (Err(err), _) if !retry_elsewhere(&err) => State::Failed(err),
            // An abandoned wait or a retryable failure: the walk's next
            // stage, or its next candidate.
            (Ok(None), State::Primary) | (_, State::Hedge) => State::Hedge,
            (_, State::Primary) => State::Retry,
            (failed, _) => State::Redispatch(failed.err()),
        };
        if !matches!((&walk.state, &next), (State::Redispatch(_), _) | (_, State::Hedge)) {
            self.settled.push(i);
        }
        walk.state = next;
    }
}

/// The first candidate past the `tried` already passed over that is alive at
/// this turn; moves `tried` past it.
fn candidate(tried: &mut usize, from: impl Iterator<Item = usize>, alive: impl Fn(usize) -> bool) -> Option<usize> {
    let (at, worker) = from.enumerate().skip(*tried).find(|&(_, w)| alive(w))?;
    *tried = at + 1;
    Some(worker)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::RefCell;

    const HEDGE: Duration = Duration::from_millis(2);
    const BUDGET: Duration = Duration::from_millis(10);

    fn ms(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    /// One step a dispatch asked for, as the tests compare them.
    #[derive(Debug, PartialEq)]
    enum Event {
        Send(u32, usize, Ask),
        Receive(Duration, bool),
        Fence,
        Promote(u32, usize),
        Done(Vec<u32>),
        Fail(SeabedError),
    }

    /// The simulated cluster: which workers are alive, and the clock.
    struct World {
        alive: Vec<bool>,
        now: Duration,
    }

    /// What a simulated worker did with one query: `(shard, worker, ask,
    /// abandon)` in, the reply the shell would settle out.
    type Script<'a> = dyn FnMut(&mut World, (u32, usize, Ask, bool)) -> Result<Option<u32>, SeabedError> + 'a;

    /// Drives `dispatch` as the shell does — every send takes 1 ms, a receive
    /// reads the oldest send — with `script` answering each receive, and
    /// returns the events, checking on the way that no send targets a worker
    /// dead at its turn and that each deadline follows its rule.
    fn drive(mut dispatch: Dispatch<u32>, world: &RefCell<World>, script: &mut Script<'_>) -> Vec<Event> {
        let (mut events, mut held) = (Vec::new(), VecDeque::new());
        loop {
            let now = world.borrow().now;
            let action = dispatch.next(now, |w| world.borrow().alive.get(w) == Some(&true));
            match action {
                Action::Send { shard, worker, ask } => {
                    assert!(
                        world.borrow().alive[worker],
                        "{events:?}: a send to dead worker {worker}"
                    );
                    events.push(Event::Send(shard, worker, ask));
                    dispatch.sent(now);
                    held.push_back((shard, worker, ask, now));
                    world.borrow_mut().now += ms(1);
                }
                Action::Receive { deadline, abandon } => {
                    let (shard, worker, ask, sent) = held.pop_front().expect("a receive follows its send");
                    let rule = if abandon { sent + HEDGE } else { now + BUDGET };
                    assert_eq!(deadline, rule, "{events:?}: the deadline of shard {shard}");
                    events.push(Event::Receive(deadline, abandon));
                    let reply = script(&mut world.borrow_mut(), (shard, worker, ask, abandon));
                    dispatch.settle(reply);
                }
                Action::Fence => events.push(Event::Fence),
                Action::Promote { shard, worker } => events.push(Event::Promote(shard, worker)),
                Action::Done(answers) => {
                    events.push(Event::Done(answers));
                    return events;
                }
                Action::Fail(err) => {
                    events.push(Event::Fail(err));
                    return events;
                }
            }
            assert!(events.len() < 1_000, "the walk never ends: {events:?}");
        }
    }

    /// The dispatch of table 0's `sets` over `workers` live workers.
    fn dispatch(sets: Vec<(u32, Vec<usize>)>, workers: usize, hedge: Option<Duration>) -> Dispatch<u32> {
        Dispatch::new(0, sets, workers, hedge, BUDGET, |_| true)
    }

    fn world(workers: usize) -> RefCell<World> {
        let alive = vec![true; workers];
        RefCell::new(World { alive, now: ms(0) })
    }

    fn answer(_: &mut World, (shard, ..): (u32, usize, Ask, bool)) -> Result<Option<u32>, SeabedError> {
        Ok(Some(shard))
    }

    /// Lane order: the lanes are sent in ascending worker order, not
    /// in shard order, so two queries meeting the same workers lock them in
    /// the same order.
    #[test]
    fn lanes_are_sent_in_ascending_worker_order() {
        let shards = vec![(0, vec![2]), (1, vec![0]), (2, vec![1])];
        let events = drive(dispatch(shards, 3, None), &world(3), &mut answer);
        let sends: Vec<&Event> = events.iter().filter(|e| matches!(e, Event::Send(..))).collect();
        let primary = |shard, worker| Event::Send(shard, worker, Ask::Primary);
        assert_eq!(sends, [&primary(1, 0), &primary(2, 1), &primary(0, 2)]);
    }

    /// A shard's primary is the first member of its set alive as the walk
    /// begins: a dead head is passed over, not asked.
    #[test]
    fn the_primary_is_the_first_live_member_of_the_set() {
        let world = world(3);
        world.borrow_mut().alive[0] = false;
        let sets = vec![(0, vec![0, 2]), (1, vec![1, 0])];
        let alive = |w: usize| world.borrow().alive[w];
        let events = drive(Dispatch::new(0, sets, 3, None, BUDGET, alive), &world, &mut answer);
        let sends: Vec<&Event> = events.iter().filter(|e| matches!(e, Event::Send(..))).collect();
        assert_eq!(
            sends,
            [&Event::Send(1, 1, Ask::Primary), &Event::Send(0, 2, Ask::Primary)]
        );
    }

    /// Overlap: every lane of a round is sent before any reply is
    /// read, so the workers scan while the coordinator waits.
    #[test]
    fn every_lane_is_sent_before_any_reply_is_read() {
        let shards = vec![(0, vec![0]), (1, vec![1]), (2, vec![2])];
        let events = drive(dispatch(shards, 3, None), &world(3), &mut answer);
        let primary = |shard, worker| Event::Send(shard, worker, Ask::Primary);
        let receive = || Event::Receive(ms(3) + BUDGET, false);
        let expected = [
            primary(0, 0),
            primary(1, 1),
            primary(2, 2),
            receive(),
            receive(),
            receive(),
            Event::Done(vec![0, 1, 2]),
        ];
        assert_eq!(events, expected);
    }

    /// Budget: an un-hedged lane's deadline runs from the start of
    /// its own receive, so a reply that waited behind another lane's stall
    /// does not condemn its worker.
    #[test]
    fn an_unhedged_budget_runs_from_its_own_receive() {
        let shards = vec![(0, vec![0]), (1, vec![1])];
        let mut stall_first = |world: &mut World, (shard, ..): (u32, usize, Ask, bool)| {
            if shard == 0 {
                world.now += ms(9);
            }
            Ok(Some(shard))
        };
        let events = drive(dispatch(shards, 2, Some(HEDGE)), &world(2), &mut stall_first);
        let expected = [
            Event::Send(0, 0, Ask::Primary),
            Event::Send(1, 1, Ask::Primary),
            Event::Receive(ms(2) + BUDGET, false),
            Event::Receive(ms(11) + BUDGET, false),
            Event::Done(vec![0, 1]),
        ];
        assert_eq!(events, expected);
    }

    /// No deadlock: an abandoned shard is hedged only once every link of
    /// its round is released — the hedge goes to a link the same round held —
    /// and its hedge deadline ran from its own send.
    #[test]
    fn hedges_start_after_the_rounds_links_are_released() {
        let shards = vec![(0, vec![0, 1]), (1, vec![1, 0])];
        let mut slow_first = |_: &mut World, (shard, _, ask, ..): (u32, usize, Ask, bool)| {
            Ok((shard == 1 || ask == Ask::Hedge).then_some(shard))
        };
        let events = drive(dispatch(shards, 2, Some(HEDGE)), &world(2), &mut slow_first);
        let expected = [
            Event::Send(0, 0, Ask::Primary),
            Event::Send(1, 1, Ask::Primary),
            Event::Receive(HEDGE, true),
            Event::Receive(ms(1) + HEDGE, true),
            Event::Send(0, 1, Ask::Hedge),
            Event::Receive(ms(3) + BUDGET, false),
            Event::Done(vec![1, 0]),
        ];
        assert_eq!(events, expected);
    }

    /// A primary's retryable failure is re-dispatched behind the cache fence:
    /// its live replica first, then another worker behind a fresh load, and
    /// the worker that answers is promoted. With nobody left, the query
    /// fails with a typed error.
    #[test]
    fn a_failed_shard_is_redispatched_behind_the_fence_and_its_winner_promoted() {
        let shards = || vec![(0, vec![0, 1])];
        let mut kill_all_but_2 = |world: &mut World, (shard, worker, ..): (u32, usize, Ask, bool)| {
            if worker == 2 {
                return Ok(Some(shard));
            }
            world.alive[worker] = false;
            Err(SeabedError::net("peer closed the connection"))
        };
        let events = drive(dispatch(shards(), 3, None), &world(3), &mut kill_all_but_2);
        let expected = [
            Event::Send(0, 0, Ask::Primary),
            Event::Receive(BUDGET + ms(1), false),
            Event::Fence,
            Event::Send(0, 1, Ask::Redispatch { load: false }),
            Event::Receive(BUDGET + ms(2), false),
            Event::Send(0, 2, Ask::Redispatch { load: true }),
            Event::Receive(BUDGET + ms(3), false),
            Event::Promote(0, 2),
            Event::Done(vec![0]),
        ];
        assert_eq!(events, expected);

        let mut kill = |world: &mut World, (_, worker, ..): (u32, usize, Ask, bool)| {
            world.alive[worker] = false;
            Err(SeabedError::net("peer closed the connection"))
        };
        let events = drive(dispatch(shards(), 2, None), &world(2), &mut kill);
        let Some(Event::Fail(SeabedError::Dist { message, .. })) = events.last() else {
            panic!("{events:?}");
        };
        assert!(message.contains("could not be re-dispatched"), "{message}");
    }

    /// Seeded exploration: 1 500 walks of random outcomes — reply, abandoned
    /// wait, retryable failure with or without the worker's death,
    /// deterministic failure, another worker's death, failed load — over 1–4
    /// workers, R from 1 to 3 and 1–6 shards, each checked against the
    /// walk's invariants. `drive` checks liveness and the deadline rules at
    /// every step.
    #[test]
    fn seeded_walks_keep_every_invariant() {
        for seed in 0..1_500u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let workers = rng.random_range(1usize..5);
            let r = rng.random_range(1usize..4).min(workers);
            let num_shards = rng.random_range(1u32..7);
            let world = world(workers);
            for alive in world.borrow_mut().alive.iter_mut() {
                *alive = rng.random_range(0u32..5) > 0;
            }
            let shards: Vec<(u32, Vec<usize>)> = (0..num_shards)
                .map(|shard| {
                    let mut set: Vec<usize> = (0..workers).collect();
                    for k in (1..workers).rev() {
                        set.swap(k, rng.random_range(0..k + 1));
                    }
                    set.truncate(r);
                    (shard, set)
                })
                .collect();
            // A primary is the first member of its set alive as the walk
            // begins, else the set's head.
            let primaries: Vec<usize> = shards
                .iter()
                .map(|(_, set)| *set.iter().find(|&&w| world.borrow().alive[w]).unwrap_or(&set[0]))
                .collect();
            let hedge = (rng.random_range(0u32..5) > 0).then_some(HEDGE);
            let (mut answered, mut deterministic) = (vec![false; num_shards as usize], false);
            let mut script = |world: &mut World, (shard, worker, ask, abandon): (u32, usize, Ask, bool)| {
                assert!(
                    !answered[shard as usize],
                    "seed {seed}: shard {shard} asked after its answer"
                );
                world.now += ms(rng.random_range(0u64..4));
                let dies = |world: &mut World, w: usize| world.alive[w] = false;
                if ask == (Ask::Redispatch { load: true }) && rng.random_range(0u32..4) == 0 {
                    dies(world, worker);
                    return Err(SeabedError::net("load refused"));
                }
                match rng.random_range(0u32..20) {
                    10..=12 if abandon => return Ok(None),
                    13..=15 => {
                        dies(world, worker);
                        return Err(SeabedError::net("peer closed the connection"));
                    }
                    16 => return Err(SeabedError::dist("worker", "shard not resident")),
                    17 => {
                        deterministic = true;
                        return Err(SeabedError::engine("corrupt shard"));
                    }
                    18 | 19 => dies(world, rng.random_range(0..workers)),
                    _ => {}
                }
                if !world.alive[worker] {
                    return Err(SeabedError::net("peer closed the connection"));
                }
                answered[shard as usize] = true;
                Ok(Some(shard))
            };
            let alive = |w: usize| world.borrow().alive[w];
            let events = drive(
                Dispatch::new(7, shards, workers, hedge, BUDGET, alive),
                &world,
                &mut script,
            );
            let context = format!("seed {seed}: {events:?}");

            // The walk ends within its bound: per shard a primary, R - 1
            // hedges, a re-dispatch to every worker and a promotion; one
            // fence, one end.
            let per_shard = 2 + 2 * (r - 1) + 2 * workers + 1;
            assert!(events.len() <= num_shards as usize * per_shard + 2, "{context}");
            // It ends with every shard answered, once, or with one typed
            // error.
            match events.last() {
                Some(Event::Done(answers)) => {
                    let mut answers = answers.clone();
                    answers.sort_unstable();
                    assert_eq!(answers, (0..num_shards).collect::<Vec<_>>(), "{context}");
                }
                Some(Event::Fail(SeabedError::Engine(_))) => assert!(deterministic, "{context}"),
                Some(Event::Fail(SeabedError::Dist { .. })) => {}
                _ => panic!("{context}"),
            }
            // No stage of a walk asks a worker twice.
            let mut asked: Vec<&Event> = events.iter().filter(|e| matches!(e, Event::Send(..))).collect();
            let sends = asked.len();
            asked.sort_by_key(|e| format!("{e:?}"));
            asked.dedup();
            assert_eq!(asked.len(), sends, "{context}");
            // A round's sends ascend by worker, one a worker.
            let mut previous: Option<usize> = None;
            for event in &events {
                match event {
                    Event::Send(shard, worker, Ask::Primary) => {
                        assert_eq!(*worker, primaries[*shard as usize], "{context}");
                        assert!(previous.is_none_or(|p| p < *worker), "{context}");
                        previous = Some(*worker);
                    }
                    _ => previous = None,
                }
            }
            // The cache is fenced once, before the first re-dispatch.
            let redispatch = events
                .iter()
                .position(|e| matches!(e, Event::Send(_, _, Ask::Redispatch { .. })));
            let fences: Vec<usize> = (0..events.len()).filter(|&i| events[i] == Event::Fence).collect();
            assert!(fences.len() <= 1, "{context}");
            if let Some(first) = redispatch {
                assert!(fences.first().is_some_and(|&fence| fence < first), "{context}");
            }
        }
    }

    /// The walk and the placement rules decide; they never do I/O, take a
    /// lock or read a clock.
    #[test]
    fn dispatch_names_no_socket_lock_or_clock() {
        for (file, source) in [
            ("dispatch.rs", include_str!("dispatch.rs")),
            ("placement.rs", include_str!("placement.rs")),
        ] {
            let product = &source[..source.find("#[cfg(test)]").expect("a test module")];
            for name in [
                "Instant::now",
                "SystemTime",
                "Mutex",
                "RwLock",
                "WorkerLink",
                "LockedLink",
                "FrameConn",
            ] {
                assert!(!product.contains(name), "{file} names `{name}`");
            }
        }
    }
}
