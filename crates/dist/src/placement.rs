//! Who holds shard *s*: the placement table and every rule that reads or
//! edits it.
//!
//! A [`Placement`] is a plain value — no socket, no lock, no clock — so each
//! rule is one function that this module's seeded tests drive through join /
//! leave / promote / death sequences. Liveness comes in as a predicate over
//! worker indices ([`crate::link::live`], which is wait-free).
//!
//! The coordinator keeps one `Placement` behind one mutex that is never held
//! across I/O: queries read it, [`Placement::promote`] edits it in place,
//! and a join or a leave — whose shard loads *are* I/O — is planned on a
//! copy and committed by storing the copy back once the loads went through.
//! (An edit between the copy and the commit is overwritten; the only
//! concurrent editor is `promote`, whose loss costs that shard's next query
//! one more re-dispatch, never an answer.)

use seabed_engine::Table;
use std::cmp::Reverse;
use std::fmt::Display;

/// Table → shard → replica set, primary first. Every member of a set holds a
/// loaded copy of the shard; queries go to the first live one.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Placement {
    tables: Vec<Vec<Vec<usize>>>,
}

impl Placement {
    /// The connect-time placement of tables with the given shard counts:
    /// table t's shard i lives on the R consecutive workers starting at
    /// (t + i) mod N, so several tables spread across the pool instead of
    /// piling their first shards onto worker 0, and every shard has a
    /// replica to hedge against or fail over to.
    pub(crate) fn initial(
        shards_per_table: impl IntoIterator<Item = usize>,
        num_workers: usize,
        replication: usize,
    ) -> Placement {
        let table_sets = |(table, shards): (usize, usize)| {
            (0..shards)
                .map(|shard| initial_replica_set(table, shard, num_workers, replication))
                .collect()
        };
        Placement {
            tables: shards_per_table.into_iter().enumerate().map(table_sets).collect(),
        }
    }

    /// Every replica set with its (table, shard) address, in table then
    /// shard order.
    pub(crate) fn sets(&self) -> impl Iterator<Item = (u32, u32, &[usize])> {
        self.tables.iter().enumerate().flat_map(|(table, shards)| {
            let shards = shards.iter().enumerate();
            shards.map(move |(shard, set)| (table as u32, shard as u32, set.as_slice()))
        })
    }

    /// The replica set of one shard, primary first.
    pub(crate) fn replicas(&self, table: u32, shard: u32) -> &[usize] {
        &self.tables[table as usize][shard as usize]
    }

    /// The worker a query for the shard goes to: the first live member of
    /// its set, falling back to the nominal head so a fully dead set still
    /// fails over through re-dispatch.
    pub(crate) fn primary(&self, table: u32, shard: u32, live: impl Fn(usize) -> bool) -> usize {
        let set = self.replicas(table, shard);
        let first_live = set.iter().copied().find(|&w| live(w));
        first_live.or_else(|| set.first().copied()).unwrap_or(0)
    }

    /// Replica slots held by each of `workers` worker indices.
    pub(crate) fn loads(&self, workers: usize) -> Vec<usize> {
        let mut loads = vec![0usize; workers];
        for (_, _, set) in self.sets() {
            for &w in set {
                loads[w] += 1;
            }
        }
        loads
    }

    /// The shards whose replica set names `worker`, as (table, shard) pairs.
    pub(crate) fn shards_of(&self, worker: usize) -> Vec<(u32, u32)> {
        let held = self.sets().filter(|(_, _, set)| set.contains(&worker));
        held.map(|(table, shard, _)| (table, shard)).collect()
    }

    /// Moves `worker` to the front of the shard's set (it just proved it can
    /// answer), evicting its own old slot or else the first dead member, so
    /// the set stays bounded.
    pub(crate) fn promote(&mut self, table: u32, shard: u32, worker: usize, live: impl Fn(usize) -> bool) {
        let set = &mut self.tables[table as usize][shard as usize];
        let own = set.iter().position(|&w| w == worker);
        if let Some(evicted) = own.or_else(|| set.iter().position(|&w| !live(w))) {
            set.remove(evicted);
        }
        set.insert(0, worker);
    }

    /// Plans a join: greedily moves replica slots from the most-loaded live
    /// workers onto `joiner` until it carries its fair share (⌊total slots /
    /// live workers⌋, at least one) or no eligible donor remains. Edits the
    /// sets and returns the moves in order as `(table, shard, donor)`, for
    /// the caller to load onto the joiner before committing and unload from
    /// the donors after. A move swaps the donor out of its set in place —
    /// the joiner inherits the donor's rank, so it takes query load and not
    /// just memory — and only ever touches a set that lacks the joiner:
    /// nothing is duplicated.
    pub(crate) fn join(
        &mut self,
        joiner: usize,
        workers: usize,
        live: impl Fn(usize) -> bool,
    ) -> Vec<(u32, u32, usize)> {
        let mut moves = Vec::new();
        if !live(joiner) {
            return moves;
        }
        let mut loads = self.loads(workers);
        let live_workers = (0..workers).filter(|&w| live(w)).count();
        let target = (loads.iter().sum::<usize>() / live_workers).max(1);
        while loads[joiner] < target {
            // Donor: the most-loaded live worker (the first on ties) holding
            // a shard whose set lacks the joiner; one no more loaded than
            // the joiner has nothing to give.
            let pick = self
                .sets()
                .filter(|(_, _, set)| !set.contains(&joiner))
                .flat_map(|(table, shard, set)| set.iter().map(move |&donor| (table, shard, donor)))
                .filter(|&(_, _, donor)| live(donor) && loads[donor] > loads[joiner])
                .min_by_key(|&(_, _, donor)| Reverse(loads[donor]));
            let Some((table, shard, donor)) = pick else {
                break;
            };
            for slot in &mut self.tables[table as usize][shard as usize] {
                if *slot == donor {
                    *slot = joiner;
                }
            }
            loads[donor] -= 1;
            loads[joiner] += 1;
            moves.push((table, shard, donor));
        }
        moves
    }

    /// Plans a leave: every replica slot `leaver` holds is re-homed onto the
    /// least-loaded live worker outside the shard's set, which `load` (the
    /// caller's I/O) must first hand a copy. A shard that keeps another live
    /// copy may lose the slot instead — degrade below R rather than block
    /// the departure — but a shard that would lose its *last* copy refuses
    /// the whole leave: `Err` says which, and `self` is exactly what it was.
    pub(crate) fn leave<E: Display>(
        &mut self,
        leaver: usize,
        workers: usize,
        live: impl Fn(usize) -> bool,
        mut load: impl FnMut(u32, u32, usize) -> Result<(), E>,
    ) -> Result<(), String> {
        let mut next = self.clone();
        let mut loads = self.loads(workers);
        for (table, shard, set) in self.sets().filter(|(_, _, set)| set.contains(&leaver)) {
            let has_survivor = set.iter().any(|&w| w != leaver && live(w));
            // Liveness is read per shard: a candidate whose load failed a
            // moment ago is dead by now and not asked again.
            let candidates = (0..workers).filter(|&w| live(w) && !set.contains(&w));
            let candidate = candidates.min_by_key(|&w| loads[w]);
            let replacement = match candidate.map(|c| load(table, shard, c).map(|()| c)) {
                Some(Ok(c)) => {
                    loads[c] += 1;
                    Some(c)
                }
                Some(Err(_)) | None if has_survivor => None,
                Some(Err(err)) => return Err(format!("table {table} shard {shard} would lose its last copy ({err})")),
                None => {
                    return Err(format!(
                        "table {table} shard {shard} has no other live replica and no worker to take it"
                    ))
                }
            };
            let slots = &mut next.tables[table as usize][shard as usize];
            slots.retain(|&w| w != leaver);
            slots.extend(replacement);
        }
        *self = next;
        Ok(())
    }
}

/// The replica set of shard `shard` of table `table_id` at connect time:
/// `R` consecutive workers starting at the old single-owner slot
/// `(table_id + shard) % N`, so `replication = 1` reproduces the legacy
/// placement exactly and the members are always distinct.
fn initial_replica_set(table_id: usize, shard: usize, num_workers: usize, replication: usize) -> Vec<usize> {
    let r = replication.clamp(1, num_workers);
    (0..r).map(|k| (table_id + shard + k) % num_workers).collect()
}

/// Splits a table's partitions into exactly `min(num_shards, partitions)`
/// contiguous shard tables whose sizes differ by at most one partition (the
/// first `len % shards` shards take the remainder), so no requested worker
/// silently idles. Global row IDs travel with their partitions, so ASHE's
/// telescoping decryption — and the exact de-inflated ID sets — are
/// unchanged.
pub(crate) fn split_into_shards(table: Table, num_shards: usize) -> Vec<Table> {
    let Table { schema, partitions } = table;
    let total = partitions.len();
    // An empty table still yields one (empty) shard.
    let shards_wanted = num_shards.clamp(1, total.max(1));
    let mut partitions = partitions.into_iter();
    let shard_of = |shard| Table {
        schema: schema.clone(),
        partitions: partitions
            .by_ref()
            .take(total / shards_wanted + usize::from(shard < total % shards_wanted))
            .collect(),
    };
    (0..shards_wanted).map(shard_of).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use seabed_engine::{ColumnData, ColumnType, Schema};
    use std::cell::Cell;

    fn table(rows: u64, partitions: usize) -> Table {
        Table::from_columns(
            Schema::new([("v".to_string(), ColumnType::UInt64)]),
            vec![ColumnData::UInt64((0..rows).collect())],
            partitions,
        )
    }

    #[test]
    fn sharding_preserves_partitions_and_row_ids() {
        let t = table(100, 8);
        let shards = split_into_shards(t.clone(), 3);
        assert_eq!(shards.len(), 3);
        assert_eq!(shards.iter().map(|s| s.num_rows()).sum::<usize>(), 100);
        // Partition start rows are preserved verbatim, in order.
        let mut starts = Vec::new();
        for shard in &shards {
            assert!(shard.validate_layout().is_ok());
            for p in &shard.partitions {
                starts.push(p.start_row);
            }
        }
        let original: Vec<u64> = t.partitions.iter().map(|p| p.start_row).collect();
        assert_eq!(starts, original);
    }

    #[test]
    fn sharding_degenerate_shapes() {
        // More shards than partitions: capped by the caller, but the splitter
        // itself never produces an empty shard unless the table is empty.
        let shards = split_into_shards(table(10, 2), 2);
        assert_eq!(shards.len(), 2);
        let empty = split_into_shards(table(0, 4), 3);
        assert_eq!(empty.iter().map(|s| s.num_rows()).sum::<usize>(), 0);
        assert!(!empty.is_empty());
    }

    /// The splitter must produce exactly the requested shard count with
    /// sizes differing by at most one partition — a greedy `div_ceil` chunking
    /// would leave workers idle (4 partitions over 3 workers used to yield
    /// shards of [2, 2] instead of [2, 1, 1]).
    #[test]
    fn sharding_spreads_the_remainder_instead_of_idling_workers() {
        for (partitions, wanted) in [(4usize, 3usize), (5, 4), (10, 4), (7, 7), (9, 2)] {
            let shards = split_into_shards(table(100, partitions), wanted);
            assert_eq!(shards.len(), wanted.min(partitions), "{partitions} over {wanted}");
            let sizes: Vec<usize> = shards.iter().map(|s| s.partitions.len()).collect();
            let min = sizes.iter().min().copied().unwrap_or(0);
            let max = sizes.iter().max().copied().unwrap_or(0);
            assert!(max - min <= 1, "{partitions} over {wanted}: uneven sizes {sizes:?}");
            assert_eq!(
                sizes.iter().sum::<usize>(),
                shards.iter().map(|s| s.partitions.len()).sum()
            );
        }
    }

    #[test]
    fn replica_sets_are_distinct_clamped_and_legacy_compatible() {
        // R = 1 reproduces the old single-owner placement.
        assert_eq!(initial_replica_set(0, 1, 4, 1), vec![1]);
        assert_eq!(initial_replica_set(2, 3, 4, 1), vec![1]);
        // R = 2 adds the next worker around the ring.
        assert_eq!(initial_replica_set(0, 1, 4, 2), vec![1, 2]);
        assert_eq!(initial_replica_set(0, 3, 4, 2), vec![3, 0]);
        // R is clamped to the pool size; members never repeat.
        assert_eq!(initial_replica_set(0, 0, 1, 3), vec![0]);
        for (t, s, n, r) in [(0usize, 0usize, 3usize, 5usize), (1, 2, 4, 4), (2, 7, 5, 3)] {
            let set = initial_replica_set(t, s, n, r);
            let mut dedup = set.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), set.len(), "replica set {set:?} repeats a worker");
            assert!(set.iter().all(|&w| w < n));
        }
    }

    /// The satellite's refused leave, on the plan alone: the leaver holds
    /// two slots, the first is re-homed, the second cannot be — the leave is
    /// refused and the placement is the value it was.
    #[test]
    fn a_leave_refused_on_its_second_shard_changes_nothing() {
        let original = Placement {
            tables: vec![vec![vec![0], vec![0]]],
        };
        let mut placement = original.clone();
        let mut asked = Vec::new();
        let refused = placement.leave(
            0,
            2,
            |_| true,
            |table, shard, to| {
                asked.push((table, shard, to));
                if shard == 0 {
                    Ok(())
                } else {
                    Err("load refused")
                }
            },
        );
        let refusal = refused.expect_err("shard 1 would lose its last copy");
        assert!(
            refusal.contains("shard 1") && refusal.contains("load refused"),
            "{refusal}"
        );
        assert_eq!(asked, vec![(0, 0, 1), (0, 1, 1)]);
        assert_eq!(placement, original);

        // With every load going through the same leave commits whole.
        placement
            .leave(0, 2, |_| true, |_, _, _| Ok::<(), &str>(()))
            .expect("leave");
        assert_eq!(placement.tables, vec![vec![vec![1], vec![1]]]);
    }

    /// What must hold of any placement the rules produce: members of a set
    /// are distinct and at most R, and `loads` accounts for every slot.
    fn assert_well_formed(placement: &Placement, workers: usize, r: usize, context: &str) {
        let mut slots = 0;
        for (table, shard, set) in placement.sets() {
            let mut distinct = set.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(
                distinct.len(),
                set.len(),
                "{context}: ({table}, {shard}) repeats a worker: {set:?}"
            );
            assert!(set.len() <= r, "{context}: ({table}, {shard}) outgrew R = {r}: {set:?}");
            slots += set.len();
        }
        assert_eq!(placement.loads(workers).iter().sum::<usize>(), slots, "{context}");
        let held: usize = (0..workers).map(|w| placement.shards_of(w).len()).sum();
        assert_eq!(held, slots, "{context}");
    }

    /// Seeded exploration of the rules: 1 200 sequences of join / leave /
    /// promote / worker death over 1–3 tables, 1–8 initial workers and
    /// R ∈ 1..=3, with the invariants checked after every operation. Loads
    /// fail at random (and kill the worker they were aimed at, as a failed
    /// exchange does), so refused and degraded leaves are covered too.
    #[test]
    fn seeded_membership_sequences_keep_every_invariant() {
        for seed in 0..1_200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let initial_workers = rng.random_range(1usize..9);
            let r = rng.random_range(1usize..4).min(initial_workers);
            let tables = rng.random_range(1usize..4);
            let shards: Vec<usize> = (0..tables).map(|_| rng.random_range(1..initial_workers + 1)).collect();
            let mut placement = Placement::initial(shards, initial_workers, r);
            // Worker slots are stable: joiners append, nobody is removed.
            let mut alive: Vec<Cell<bool>> = (0..initial_workers).map(|_| Cell::new(true)).collect();
            assert_well_formed(&placement, alive.len(), r, &format!("seed {seed}, initial"));

            for step in 0..24 {
                let context = format!("seed {seed}, step {step}");
                let before = placement.clone();
                match rng.random_range(0u32..4) {
                    // Join: a fresh live worker is appended and rebalanced onto.
                    0 if alive.len() < 12 => {
                        alive.push(Cell::new(true));
                        let joiner = alive.len() - 1;
                        let moves = placement.join(joiner, alive.len(), |w| alive[w].get());
                        let live_workers = alive.iter().filter(|a| a.get()).count();
                        let slots: usize = before.loads(alive.len()).iter().sum();
                        let share = placement.loads(alive.len())[joiner];
                        assert_eq!(share, moves.len(), "{context}");
                        assert!(
                            share <= (slots / live_workers).max(1),
                            "{context}: joiner overshot its share"
                        );
                        // Exactly the moved sets changed, each by donor → joiner.
                        let mut expected = before.clone();
                        for &(table, shard, donor) in &moves {
                            let set = &mut expected.tables[table as usize][shard as usize];
                            assert!(alive[donor].get() && !set.contains(&joiner), "{context}: {moves:?}");
                            let slot = set.iter_mut().find(|w| **w == donor).expect("donor is a member");
                            *slot = joiner;
                        }
                        assert_eq!(placement, expected, "{context}");
                    }
                    // Leave: any slot, dead or alive, already gone or not.
                    1 => {
                        let leaver = rng.random_range(0..alive.len());
                        let alive_before: Vec<bool> = alive.iter().map(Cell::get).collect();
                        let fail_one_in = rng.random_range(2u32..10);
                        let mut draws = StdRng::seed_from_u64(seed ^ (step as u64) << 32);
                        let outcome = placement.leave(
                            leaver,
                            alive.len(),
                            |w| alive[w].get(),
                            |_, _, to| {
                                assert!(alive[to].get() && to != leaver, "{context}: load aimed at {to}");
                                if draws.random_range(0..fail_one_in) == 0 {
                                    alive[to].set(false);
                                    return Err("load failed");
                                }
                                Ok(())
                            },
                        );
                        match outcome {
                            Err(_) => assert_eq!(placement, before, "{context}: a refused leave edited the placement"),
                            Ok(()) => {
                                alive[leaver].set(false);
                                for ((table, shard, was), (_, _, now)) in before.sets().zip(placement.sets()) {
                                    assert!(!now.contains(&leaver), "{context}: ({table}, {shard}) names the leaver");
                                    if was.contains(&leaver) {
                                        // Re-homed or degraded, never
                                        // orphaned: a copy stays with a
                                        // worker that was live as the leave
                                        // began (one may die during it).
                                        assert!(
                                            now.iter().any(|&w| alive_before[w]),
                                            "{context}: ({table}, {shard}) {now:?}"
                                        );
                                    } else {
                                        assert_eq!(was, now, "{context}: ({table}, {shard}) was not the leaver's");
                                    }
                                }
                            }
                        }
                    }
                    // Promote, as re-dispatch does: a live member, or — only
                    // when the set has no live member left — a live outsider.
                    2 => {
                        let table = rng.random_range(0..tables) as u32;
                        let shard = rng.random_range(0..before.tables[table as usize].len()) as u32;
                        let set = before.replicas(table, shard);
                        let live_members: Vec<usize> = set.iter().copied().filter(|&w| alive[w].get()).collect();
                        let outsiders: Vec<usize> = (0..alive.len())
                            .filter(|w| alive[*w].get() && !set.contains(w))
                            .collect();
                        let pool = if live_members.is_empty() {
                            outsiders
                        } else {
                            live_members
                        };
                        if !pool.is_empty() && !set.is_empty() {
                            let worker = pool[rng.random_range(0..pool.len())];
                            placement.promote(table, shard, worker, |w| alive[w].get());
                            assert_eq!(placement.replicas(table, shard)[0], worker, "{context}");
                            assert_eq!(placement.primary(table, shard, |w| alive[w].get()), worker, "{context}");
                            assert_eq!(placement.replicas(table, shard).len(), set.len(), "{context}");
                        }
                    }
                    // Death: no rule runs; the placement is only read differently.
                    _ => alive[rng.random_range(0..alive.len())].set(false),
                }
                assert_well_formed(&placement, alive.len(), r, &context);
            }
        }
    }
}
