//! Golden digests of the DEFLATE-style container `seabed_encoding` writes.
//!
//! The in-crate differential suite pins the decoder to the bit-by-bit oracle
//! *of the same commit*, and round-trip tests cannot see a compressor change
//! that its own decoder follows. This file pins the compressed bytes
//! themselves: SHA-256 of `compress` over a fixed corpus of encoded ID lists
//! at both levels. The digests were recorded by running this file on the
//! commit *before* the match finder got its per-thread hash table and the
//! decoder its canonical tables (PR 14), so a green run proves that no
//! compressed byte moved — and, since every block is also decompressed here,
//! that the new decoder reads the old format.
//!
//! The `selection-*` and `boundary-*` rows were added with PR 22 (the encoder
//! rebuilt piece by piece: accumulator bit writer, two-queue code lengths,
//! table symbols, chain heads sized to the input, blocks sized before they are
//! written); their digests were recorded by running these cases on PR 22's
//! *parent* commit, whose encoder was still the one of the older rows.

use seabed_crypto::sha256::digest_hex;
use seabed_encoding::{compress, decompress, encode_runs, ids_to_runs, IdListEncoding, Level, Run};

fn mix(i: u64) -> u64 {
    i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(23)
}

/// The corpus: what a worker's ID lists look like before the entropy coder.
fn corpus() -> Vec<(&'static str, Vec<u8>)> {
    let diff = |runs: &[Run]| encode_runs(runs, IdListEncoding::RangesVbDiff);
    // Every row that passes a ~60% filter: hundreds of short runs.
    let fragmented: Vec<u64> = (0..3_000u64).filter(|&i| mix(i) % 10 < 6).collect();
    // Irregular gaps and run lengths, cut to exactly 64 KiB of bounds.
    let mut runs = Vec::new();
    let mut next = 0u64;
    for i in 0..40_000u64 {
        let start = next + 2 + mix(3 * i) % 300;
        let end = start + mix(3 * i + 1) % 7 * (mix(3 * i + 2) % 50);
        runs.push(Run::new(start, end));
        next = end;
    }
    let mut big = diff(&runs);
    assert!(big.len() >= 64 * 1024);
    big.truncate(64 * 1024);
    // What `scan_adhoc`-shaped queries answer with: a seeded selection of
    // 12 288 shuffled rows, mostly single-row runs (`gap, 0, gap, 0, …`).
    // (`mix` alone will not do: multiples of the golden ratio fall into
    // three distinct gaps, and such a list compresses like no real one.)
    let selection = |percent: u64| {
        let scrambled = |i: u64| {
            let z = (mix(i + percent) ^ (i >> 7)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (z ^ (z >> 29)) % 100
        };
        let ids: Vec<u64> = (0..12_288u64).filter(|&i| scrambled(i) < percent).collect();
        diff(&ids_to_runs(&ids))
    };
    // A compressed block's header is 167 bytes, so a 167-byte body is stored
    // whatever it holds; this one compresses into a two-byte stream, so at 168
    // bytes it is still stored and at 169 it comes back compressed.
    let boundary = |len: usize| {
        let mut body = diff(&ids_to_runs(&(0..200u64).map(|i| i * 2).collect::<Vec<_>>()));
        body.truncate(len);
        assert_eq!(body.len(), len);
        body
    };
    vec![
        ("selection-1%", selection(1)),
        ("selection-10%", selection(10)),
        ("selection-50%", selection(50)),
        ("boundary-167", boundary(167)),
        ("boundary-168", boundary(168)),
        ("boundary-169", boundary(169)),
        ("fragmented", diff(&ids_to_runs(&fragmented))),
        ("contiguous", diff(&[Run::new(0, 4_095), Run::new(8_192, 1_000_000)])),
        ("empty", Vec::new()),
        ("one-byte", vec![0x2a]),
        ("64KiB", big),
        // Long literal-free stretches: exercises maximum-length matches.
        (
            "alternating",
            diff(&ids_to_runs(&(0..20_000u64).map(|i| i * 2).collect::<Vec<_>>())),
        ),
    ]
}

const GOLDEN: [(&str, &str, &str); 12] = [
    (
        "selection-1%",
        "c3b2229ccc9265f521158368c8b8e0d717fdd349ceaddcba1fce21a19951b46f",
        "c3b2229ccc9265f521158368c8b8e0d717fdd349ceaddcba1fce21a19951b46f",
    ),
    (
        "selection-10%",
        "edc7f09600005318638895c10d339175d523768915f5e0c88e642739cf25712e",
        "547d74cb3e7037dad226ec72034b6f50d532f49bcf480ded9346c6420df2eda7",
    ),
    (
        "selection-50%",
        "a922e425280246729b969b593c321bef46c2b8be3db86f772bcd1baa278b3c5e",
        "9f2c797008104b51eb90b391241a630d02eabc5c4fc778efc49b48247d00cad3",
    ),
    (
        "boundary-167",
        "16748eb9f9238fc1f04d39a19f32c3fcac613efad892e16eb7a65f60801e935d",
        "16748eb9f9238fc1f04d39a19f32c3fcac613efad892e16eb7a65f60801e935d",
    ),
    (
        "boundary-168",
        "83f4d1d5d77297f4224241063cd8bce07962b84f93c6db4e4be800f7df1087b4",
        "83f4d1d5d77297f4224241063cd8bce07962b84f93c6db4e4be800f7df1087b4",
    ),
    (
        "boundary-169",
        "93b05239e4d1b29b7ec7d77f1df0d759dd7fbff1c6ef990078e755ea6cf5792d",
        "93b05239e4d1b29b7ec7d77f1df0d759dd7fbff1c6ef990078e755ea6cf5792d",
    ),
    (
        "fragmented",
        "b73edffb4c318f390b95f9cd5facd41f2e8f6a002632d1e13922173206da1758",
        "fe774fee4eb02127e157f4c30d3483d6c4dde0768ff1e1daf1fc2df660137d1b",
    ),
    (
        "contiguous",
        "7f52be70df6aa2ddf5c436a2c3362d6d42ec73230d9c6bf753fb3d7d4d3ee093",
        "7f52be70df6aa2ddf5c436a2c3362d6d42ec73230d9c6bf753fb3d7d4d3ee093",
    ),
    (
        "empty",
        "8855508aade16ec573d21e6a485dfd0a7624085c1a14b5ecdd6485de0c6839a4",
        "8855508aade16ec573d21e6a485dfd0a7624085c1a14b5ecdd6485de0c6839a4",
    ),
    (
        "one-byte",
        "14f5bc21ca5d3371fe15904e6ac401c5c440d99bfcf9c9327e73460c6ecee94c",
        "14f5bc21ca5d3371fe15904e6ac401c5c440d99bfcf9c9327e73460c6ecee94c",
    ),
    (
        "64KiB",
        "16155f96f52609965bbaf039ffc7ef6b4a8d950dd90e9f091ffdf4a04fd47b5c",
        "b93d5b5e689e2defae61967226f44a2cf985253a2036f190a1fb382818d1ea17",
    ),
    (
        "alternating",
        "3615553780be8394dff9815ece3b96b3ff5ad7fa9db3190835df95ff373b6f60",
        "3615553780be8394dff9815ece3b96b3ff5ad7fa9db3190835df95ff373b6f60",
    ),
];

#[test]
fn compressed_bytes_match_the_recorded_digests() {
    let corpus = corpus();
    assert_eq!(corpus.len(), GOLDEN.len());
    for ((name, data), (golden_name, fast, compact)) in corpus.iter().zip(GOLDEN) {
        assert_eq!(*name, golden_name);
        for (level, golden) in [(Level::Fast, fast), (Level::Compact, compact)] {
            let compressed = compress(data, level);
            assert_eq!(
                digest_hex(&compressed),
                golden,
                "{name} at {level:?}: the compressed bytes moved ({} -> {} bytes)",
                data.len(),
                compressed.len()
            );
            assert_eq!(
                decompress(&compressed).as_deref(),
                Some(&data[..]),
                "{name} at {level:?}"
            );
        }
    }
}
