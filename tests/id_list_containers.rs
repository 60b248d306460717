//! The rule that sizes every ID list the product ships: of the three
//! containers `RangesVbDiff`, `VbDiff` and `SpanBitmap`, the smallest, sized
//! in closed form, ties to the earlier. Held here over seeded random sets of
//! five shapes — contiguous runs, sparse singletons, a random half of a
//! span, a mix of those, and the empty set with identifiers at either end of
//! the `u64` range — and, end to end, on the paper's workload: rows uploaded
//! with consecutive identifiers, whose selections come back as ranges.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seabed::core::{PlainDataset, SeabedClient, SeabedServer, SeabedSession};
use seabed::encoding::{decode_runs, encode_runs, encoded_size, ids_to_runs, smallest_encoding, IdListEncoding, Run};
use seabed::engine::{Cluster, ClusterConfig};
use seabed::query::{parse, ColumnSpec, PlannerConfig};

/// Sizes past this are not encoded to be compared: a bitmap over most of the
/// identifier space would need exabytes. The closed form still sizes them.
const ENCODABLE: usize = 1 << 20;

/// Identifiers from `base` on: runs of 1–200 rows a gap of 1–50 apart.
fn contiguous(rng: &mut StdRng, base: u64) -> Vec<u64> {
    let mut ids = Vec::new();
    let mut at = base;
    for _ in 0..rng.random_range(1..20u32) {
        let len = rng.random_range(1..200u64);
        ids.extend(at..at + len);
        at += len + rng.random_range(1..50u64);
    }
    ids
}

/// Single rows 2–300 apart.
fn sparse(rng: &mut StdRng, base: u64) -> Vec<u64> {
    let mut at = base;
    (0..rng.random_range(1..300u32))
        .map(|_| {
            at += rng.random_range(2..300u64);
            at
        })
        .collect()
}

/// Each row of a span kept with probability one half.
fn random_half(rng: &mut StdRng, base: u64) -> Vec<u64> {
    let span = rng.random_range(1..4_000u64);
    (base..base + span).filter(|_| rng.random_range(0..2u32) == 0).collect()
}

/// The empty set, or a few identifiers at 0, at `u64::MAX`, or at both.
fn edges(rng: &mut StdRng) -> Vec<u64> {
    let low: Vec<u64> = (0..rng.random_range(0..6u64))
        .filter(|_| rng.random_range(0..2u32) == 0)
        .collect();
    let high: Vec<u64> = (0..rng.random_range(0..6u64))
        .filter(|_| rng.random_range(0..2u32) == 0)
        .map(|i| u64::MAX - 5 + i)
        .collect();
    match rng.random_range(0..4u32) {
        0 => Vec::new(),
        1 => low,
        2 => high,
        _ => low.into_iter().chain(high).collect(),
    }
}

fn set_of_shape(rng: &mut StdRng, shape: usize) -> Vec<u64> {
    let base = rng.random_range(0..1_000_000u64);
    match shape {
        0 => contiguous(rng, base),
        1 => sparse(rng, base),
        2 => random_half(rng, base),
        3 => {
            // A mix: the three shapes above, one after another.
            let mut ids = contiguous(rng, base);
            let next = ids.last().copied().unwrap_or(base) + 1 + rng.random_range(0..1_000u64);
            ids.extend(sparse(rng, next));
            let next = ids.last().copied().unwrap_or(next) + 1 + rng.random_range(0..1_000u64);
            ids.extend(random_half(rng, next));
            ids
        }
        _ => edges(rng),
    }
}

/// The argmin over the containers in tie order, from what each encodes to.
fn smallest_by_encoding(runs: &[Run]) -> (IdListEncoding, usize) {
    let mut best: Option<(IdListEncoding, usize)> = None;
    for encoding in IdListEncoding::ALL {
        let size = encoded_size(runs, encoding);
        let size = if size < ENCODABLE {
            encode_runs(runs, encoding).len()
        } else {
            size
        };
        if best.is_none_or(|(_, least)| size < least) {
            best = Some((encoding, size));
        }
    }
    best.expect("three containers")
}

#[test]
fn the_chooser_is_the_argmin_of_exact_closed_forms_over_five_shapes() {
    let mut rng = StdRng::seed_from_u64(0x1d_115);
    let mut chosen = [[0usize; 3]; 5];
    for round in 0..2_500 {
        let shape = round % 5;
        let ids = set_of_shape(&mut rng, shape);
        let runs = ids_to_runs(&ids);
        for encoding in IdListEncoding::ALL {
            let size = encoded_size(&runs, encoding);
            if size >= ENCODABLE {
                continue;
            }
            let bytes = encode_runs(&runs, encoding);
            assert_eq!(size, bytes.len(), "{encoding:?} of shape {shape}: {runs:?}");
            assert_eq!(
                decode_runs(&bytes, encoding).as_ref(),
                Some(&runs),
                "{encoding:?} of shape {shape}"
            );
        }
        let (encoding, size) = smallest_encoding(&runs);
        assert_eq!((encoding, size), smallest_by_encoding(&runs), "shape {shape}: {runs:?}");
        assert!(size < ENCODABLE, "the chosen container is always small: {runs:?}");
        chosen[shape][encoding as usize] += 1;
    }
    // Contiguous runs go as ranges, sparse singletons as deltas, a random
    // half of a span as a bitmap; the mix and the edges see more than one.
    let [ranges, per_id, bitmap] = [0, 1, 2];
    assert_eq!(chosen[0][ranges], 500, "{chosen:?}");
    assert_eq!(chosen[1][per_id], 500, "{chosen:?}");
    assert!(chosen[2][bitmap] > 450, "{chosen:?}");
    assert!(chosen[3].iter().filter(|&&n| n > 0).count() >= 2, "{chosen:?}");
    assert!(chosen[4][ranges] > 0 && chosen[4][per_id] > 0, "{chosen:?}");
}

#[test]
fn ties_go_to_the_earlier_container() {
    // {1–3, 10–12}: ranges `1 2 7 2` and a bitmap `1 12 07 0e` are four bytes each.
    let runs = ids_to_runs(&[1, 2, 3, 10, 11, 12]);
    assert_eq!(encoded_size(&runs, IdListEncoding::SpanBitmap), 4);
    assert_eq!(smallest_encoding(&runs), (IdListEncoding::RangesVbDiff, 4));
    // {5, 6}: ranges `5 1`, deltas `5 1`, a bitmap `5 2 03`.
    assert_eq!(
        smallest_encoding(&ids_to_runs(&[5, 6])),
        (IdListEncoding::RangesVbDiff, 2)
    );
    // {5, 7}: deltas `5 2` beat ranges `5 0 1 0` and tie nothing else.
    assert_eq!(smallest_encoding(&ids_to_runs(&[5, 7])), (IdListEncoding::VbDiff, 2));
    // {0, 2, 4, 6, 8, 10}: ranges 12 bytes, deltas 6, a bitmap `0 11 55 05` 4.
    let alternating = ids_to_runs(&[0, 2, 4, 6, 8, 10]);
    assert_eq!(smallest_encoding(&alternating), (IdListEncoding::SpanBitmap, 4));
}

/// The paper's workload: rows uploaded with consecutive identifiers, and
/// selections over them — the whole table, and a time range of it — come
/// back from the server as ranges, the paper's own choice (§4.5).
#[test]
fn a_consecutive_id_selection_travels_as_ranges() {
    let rows = 5_000u64;
    let dataset = PlainDataset::new("t")
        .with_uint_column("m", (0..rows).map(|i| i * 3 % 101).collect())
        .with_uint_column("day", (0..rows).map(|i| i / 50).collect());
    let columns = vec![ColumnSpec::sensitive("m"), ColumnSpec::public("day")];
    let samples = vec![parse("SELECT SUM(m) FROM t WHERE day < 10").expect("parse")];
    let mut client = SeabedClient::create_plan(b"paper", &columns, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 8, &mut rand::rng());
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
    let session = SeabedSession::single("t", client, &server);
    for sql in ["SELECT SUM(m) FROM t", "SELECT SUM(m) FROM t WHERE day < 70"] {
        let prepared = session.prepare(sql).expect("prepare");
        let (_, response) = session.execute_encrypted(&prepared, &[]).expect("execute");
        let ids = response.groups[0].ids.as_ref().expect("a sum ships its rows");
        assert_eq!(ids.encoding, IdListEncoding::RangesVbDiff, "{sql}");
        assert!(ids.id_list.len() <= 4, "{sql}: one run, {} bytes", ids.id_list.len());
    }
    // However many rows the run holds, from two on (a single row is one
    // delta, a byte shorter than a gap and a zero span).
    for len in [2u64, 100, 1 << 20, 1 << 40] {
        assert_eq!(
            smallest_encoding(&[Run::new(7, 7 + len - 1)]).0,
            IdListEncoding::RangesVbDiff
        );
    }
}
