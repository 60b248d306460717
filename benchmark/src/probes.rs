//! Layer probes that do not depend on the workload: fixed inputs pushed
//! through one public entry point of one crate at a time, timed from outside.
//! They run in every traced run, so a kernel change shows here first and the
//! workload metrics say whether it reached a user.

use crate::gen::{Agg, Cmp, Col, Layout, PlainTable, Rng, Shape, HOUR_SECS};
use crate::stats::{best_quartile, Better};
use crate::sut::{self, Failure, Local, Proxy, Session, Stages, Stored};
use crate::workloads::PARTITIONS;
use std::collections::BTreeMap;
use std::time::Instant;

/// Timed passes per probe (after one warm-up pass).
const PASSES: usize = 8;
/// Rows of the fixed table the engine, codec and load probes use.
const PROBE_ROWS: usize = 32_768;
const PROBE_HOURS: u64 = 48;
/// The probe table's seed is fixed: these probes measure the program, not
/// the workload seed.
const PROBE_SEED: u64 = 0x005e_abed;

/// Seconds of the best-quartile pass of `f` (one warm-up, [`PASSES`] timed).
fn best_seconds(mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..PASSES)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    best_quartile(&times, Better::Lower)
}

/// Units per second of a kernel doing `units` of work per call.
fn rate(units: usize, f: impl FnMut()) -> f64 {
    units as f64 / best_seconds(f)
}

fn shape(aggs: &[Agg], preds: &[(Col, Cmp)], group: Option<Col>) -> Shape {
    Shape::new("probe", aggs, preds, group)
}

/// Mrows/s of `twin` executing `shape` with `literals`, one scan thread.
fn scan_rate(twin: &Local, proxy: &Proxy, shape: &Shape, literals: &[u64]) -> Result<f64, Failure> {
    let stages = Stages::new(&[proxy], twin);
    let planned = stages.translate(stages.parse(&shape.sql(None))?, 0)?;
    let bound = stages.bind(&planned, &sut::params(shape, literals))?;
    let mut failure = None;
    let per_second = rate(PROBE_ROWS * 4, || {
        for _ in 0..4 {
            if let Err(err) = sut::replay(twin, &planned, &bound) {
                failure = Some(err);
            }
        }
    });
    failure.map_or(Ok(per_second / 1e6), Err)
}

/// Runs every workload-independent probe into `out`.
pub fn run(out: &mut BTreeMap<&'static str, f64>) -> Result<(), Failure> {
    // crypto
    out.insert("crypto.aes_mblocks_s", rate(1 << 17, sut::kernel_aes(1 << 17)) / 1e6);
    out.insert("crypto.prf_mops", rate(1 << 17, sut::kernel_prf(1 << 17)) / 1e6);
    out.insert(
        "crypto.ore_encrypt_kops",
        rate(1_024, sut::kernel_ore_encrypt(1_024)) / 1e3,
    );
    out.insert("crypto.det_encrypt_kops", rate(8_192, sut::kernel_det(8_192)) / 1e3);
    out.insert(
        "crypto.ore_compare_mops",
        rate(1 << 16, sut::kernel_ore_compare(2_048, 32)) / 1e6,
    );
    // ashe
    out.insert(
        "ashe.encrypt_mrows_s",
        rate(1 << 17, sut::kernel_ashe_encrypt(1 << 17)) / 1e6,
    );
    let mut decrypt = sut::kernel_ashe_decrypt(1_000);
    out.insert(
        "ashe.decrypt_us_per_kruns",
        best_seconds(|| (0..64).for_each(|_| decrypt())) / 64.0 * 1e6,
    );
    // splashe
    out.insert(
        "splashe.encode_krows_s",
        rate(16_384, sut::kernel_splashe_encode(16_384)) / 1e3,
    );
    out.insert("splashe.storage_x", sut::splashe_storage_factor());
    // encoding
    let ids = 1 << 16;
    let (encode, encoded_bytes) = sut::kernel_idlist_encode(ids);
    out.insert("encoding.idlist_encode_mids_s", rate(ids, encode) / 1e6);
    out.insert(
        "encoding.idlist_decode_mids_s",
        rate(ids, sut::kernel_idlist_decode(ids)) / 1e6,
    );
    out.insert("encoding.idlist_bytes_per_id", encoded_bytes as f64 / ids as f64);

    // engine: one-thread executes over a fixed shuffled table.
    let plain = PlainTable::generate(
        "probe",
        PROBE_ROWS,
        PROBE_HOURS,
        Layout::Shuffled,
        &mut Rng::new(PROBE_SEED, 1),
    );
    let (proxy, stored) = sut::encrypt(&plain, PARTITIONS, PROBE_SEED)?;
    let twin = sut::local(&stored);
    let span = PROBE_HOURS * HOUR_SECS;
    let sum = [Agg::SumM0, Agg::Count];
    let hour_range = [(Col::Hour, Cmp::Ge), (Col::Hour, Cmp::Lt)];
    let ts_range = [(Col::Ts, Cmp::Ge), (Col::Ts, Cmp::Lt)];
    out.insert(
        "engine.scan_plain_mrows_s",
        scan_rate(&twin, &proxy, &shape(&sum, &hour_range, None), &[12, 24])?,
    );
    out.insert(
        "engine.scan_det_mrows_s",
        scan_rate(&twin, &proxy, &shape(&sum, &[(Col::Tag, Cmp::Eq)], None), &[3])?,
    );
    out.insert(
        "engine.scan_ore_mrows_s",
        scan_rate(&twin, &proxy, &shape(&sum, &ts_range, None), &[span / 4, span / 2])?,
    );
    out.insert(
        "engine.groupby_mrows_s",
        scan_rate(&twin, &proxy, &shape(&sum, &[], Some(Col::Hour)), &[])?,
    );
    merge_probe(&twin, &proxy, out)?;
    session_probes(&twin, &proxy, &ts_range, span, out)?;
    net_probes(&proxy, &stored, out)
}

/// `engine.merge_us`: one `merge_partial_groups` of two 24-group partials.
fn merge_probe(twin: &Local, proxy: &Proxy, out: &mut BTreeMap<&'static str, f64>) -> Result<(), Failure> {
    let by_hour = shape(
        &[Agg::SumM0, Agg::Count],
        &[(Col::Hour, Cmp::Ge), (Col::Hour, Cmp::Lt)],
        Some(Col::Hour),
    );
    let stages = Stages::new(&[proxy], twin);
    let planned = stages.translate(stages.parse(&by_hour.sql(None))?, 0)?;
    let bound = stages.bind(&planned, &sut::params(&by_hour, &[0, 24]))?;
    let copies = 200;
    let (merge, groups) = sut::kernel_merge(twin, &planned, &bound, copies, PASSES + 1)?;
    if groups != 24 {
        return Err(format!("merge probe expected 24 groups, got {groups}"));
    }
    out.insert("engine.merge_us", best_seconds(merge) / copies as f64 * 1e6);
    Ok(())
}

/// `core.bind_hit_us` / `core.bind_miss_us`: a session execute over a target
/// that answers at once, with a recurring binding (bind-memo hit) and with
/// fresh bindings (memo miss: two ORE encryptions). `core.prepare_us`: a cold
/// `session.prepare` of a new SQL text.
fn session_probes(
    twin: &Local,
    proxy: &Proxy,
    ts_range: &[(Col, Cmp)],
    span: u64,
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<(), Failure> {
    let by_window = shape(&[Agg::SumM1, Agg::Count], ts_range, None);
    let stages = Stages::new(&[proxy], twin);
    let planned = stages.translate(stages.parse(&by_window.sql(None))?, 0)?;
    // Can an answer with a one-row ID list: its decryption is constant and tiny.
    let canned = stages.bind(&planned, &sut::params(&by_window, &[0, 1]))?;
    let null = sut::null_target(twin, &planned, &canned)?;
    let session = Session::open(&[proxy], &null, true);
    let statement = session.prepare(&by_window.sql(None))?;
    let mut rng = Rng::new(PROBE_SEED, 2);
    let timed_execute = |literals: &[u64]| -> Result<f64, Failure> {
        let params = sut::params(&by_window, literals);
        let started = Instant::now();
        session.execute(&statement, &params)?;
        Ok(started.elapsed().as_secs_f64() * 1e6)
    };
    let hot = [span / 4, span / 2];
    timed_execute(&hot)?; // first sight: fills the memo
    let hits = (0..400).map(|_| timed_execute(&hot)).collect::<Result<Vec<_>, _>>()?;
    let misses = (0..400)
        .map(|_| {
            let lo = rng.below(span / 2);
            timed_execute(&[lo, lo + 1 + rng.below(span / 2)])
        })
        .collect::<Result<Vec<_>, _>>()?;
    out.insert("core.bind_hit_us", best_quartile(&hits, Better::Lower));
    out.insert("core.bind_miss_us", best_quartile(&misses, Better::Lower));
    let prepares = (0..200)
        .map(|i| {
            let sql = by_window.sql(Some(&[i, i + 1 + rng.below(span / 2)]));
            let started = Instant::now();
            session.prepare(&sql)?;
            Ok(started.elapsed().as_secs_f64() * 1e6)
        })
        .collect::<Result<Vec<_>, Failure>>()?;
    out.insert("core.prepare_us", best_quartile(&prepares, Better::Lower));
    Ok(())
}

/// `net.*`, `dist.load_shards_s` and `obs.snapshot_us` on a hosted copy of
/// the probe table.
fn net_probes(proxy: &Proxy, stored: &Stored, out: &mut BTreeMap<&'static str, f64>) -> Result<(), Failure> {
    let service = sut::serve(stored, true)?;
    let connects = (0..20)
        .map(|_| {
            let started = Instant::now();
            sut::connect(&service, proxy)?;
            Ok(started.elapsed().as_secs_f64() * 1e6)
        })
        .collect::<Result<Vec<_>, Failure>>()?;
    out.insert("net.connect_us", best_quartile(&connects, Better::Lower));
    let mut raw = sut::RawConnection::open(&service)?;
    let mut failure = None;
    let trips = 200;
    let rtt = best_seconds(|| {
        for _ in 0..trips {
            if let Err(err) = raw.round_trip() {
                failure = Some(err);
            }
        }
    });
    if let Some(err) = failure {
        return Err(err);
    }
    out.insert("net.null_rtt_us", rtt / trips as f64 * 1e6);
    // The service has now served a few thousand frames: a scrape of it has
    // something to render.
    let mut rendered = 0;
    out.insert(
        "obs.snapshot_us",
        best_seconds(|| (0..20).for_each(|_| rendered += service.scrape_len())) / 20.0 * 1e6,
    );
    if rendered == 0 {
        return Err("the metrics scrape rendered nothing".to_string());
    }
    drop(raw);
    service.shutdown();

    let (codec, frame_bytes) = sut::kernel_codec_big(stored)?;
    out.insert("net.codec_big_mb_s", frame_bytes as f64 / best_seconds(codec) / 1e6);

    // Load the probe table onto two fresh workers, a few times.
    let mut loads = Vec::new();
    let mut mb_per_s = Vec::new();
    for _ in 0..5 {
        let workers = sut::spawn_workers(2)?;
        let started = Instant::now();
        let coordinator = sut::connect_cluster(&workers, &[(proxy, stored)])?;
        let seconds = started.elapsed().as_secs_f64();
        let (sent, _) = sut::Target::wire_bytes(&coordinator);
        loads.push(seconds);
        mb_per_s.push(sent as f64 / seconds / 1e6);
        drop(coordinator);
        workers.into_iter().for_each(sut::Service::shutdown);
    }
    out.insert("dist.load_shards_s", best_quartile(&loads, Better::Lower));
    out.insert("net.load_shard_mb_s", best_quartile(&mb_per_s, Better::Higher));
    Ok(())
}
