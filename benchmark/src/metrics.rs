//! The metric catalogue: every name `seabench` prints, with its unit, its
//! better direction, and — for per-layer metrics — the end-to-end metric it
//! is expected to move. `BENCHMARK.json` lists the same names; a unit test
//! holds the two together.

use crate::env::NOISY_CANARY_SPREAD;
use crate::stats::{median, percentile, spread, Better, TAIL_PERCENTILE};
use crate::timed::{Slice, TimedRun};
use crate::traced::LayerRun;
use std::collections::BTreeMap;

/// One end-to-end metric.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, reported for every workload.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wire_bytes_per_op",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "stored_bytes_per_plain_byte",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.01,
    },
];

/// One per-layer metric. The layer is the name's prefix.
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
    /// The end-to-end metric(s) it should move, `workload.metric`; a workload
    /// in brackets is the bypass where the prediction is no change.
    pub moves: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics, reported by every traced run (0 where the layer is
/// not on the workload's path).
pub const PER_LAYER: [PerLayer; 60] = [
    layer("query.parse_us", "us", Lower, "scan_adhoc.lat_p50_ms [dash_remote]"),
    layer("query.translate_us", "us", Lower, "scan_adhoc.lat_p50_ms [dash_remote]"),
    layer("core.prepare_us", "us", Lower, "scan_adhoc.lat_p50_ms [dash_remote]"),
    layer("core.bind_miss_us", "us", Lower, "dash_remote.lat_p50_ms [scan_adhoc]"),
    layer("core.bind_hit_us", "us", Lower, "dash_remote.lat_p50_ms [scan_adhoc]"),
    layer(
        "core.decrypt_us",
        "us",
        Lower,
        "scan_adhoc.lat_p50_ms, scan_adhoc.lat_p95_ms [dash_remote]",
    ),
    layer(
        "core.decrypt_prf_evals",
        "count",
        Lower,
        "scan_adhoc.lat_p50_ms [dash_remote]",
    ),
    layer(
        "core.stmt_cache_hit_ratio",
        "ratio",
        Higher,
        "scan_adhoc.lat_p50_ms [dash_remote]",
    ),
    layer(
        "core.encrypt_dataset_krows_s",
        "krows/s",
        Higher,
        "ingest_load.qps, *.setup_s",
    ),
    layer(
        "crypto.aes_mblocks_s",
        "Mblocks/s",
        Higher,
        "ingest_load.qps, core.bind_miss_us",
    ),
    layer(
        "crypto.prf_mops",
        "Mops",
        Higher,
        "scan_adhoc.lat_p50_ms, ingest_load.qps",
    ),
    layer(
        "crypto.ore_encrypt_kops",
        "kops",
        Higher,
        "ingest_load.qps, core.bind_miss_us",
    ),
    layer(
        "crypto.det_encrypt_kops",
        "kops",
        Higher,
        "ingest_load.qps, core.bind_miss_us",
    ),
    layer(
        "crypto.ore_compare_mops",
        "Mops",
        Higher,
        "scan_adhoc.qps [cluster_mixed]",
    ),
    layer("ashe.encrypt_mrows_s", "Mrows/s", Higher, "ingest_load.qps"),
    layer(
        "ashe.decrypt_us_per_kruns",
        "us",
        Lower,
        "scan_adhoc.lat_p95_ms [dash_remote]",
    ),
    layer(
        "splashe.encode_krows_s",
        "krows/s",
        Higher,
        "ingest_load.qps (tables with a SPLASHE dimension)",
    ),
    layer(
        "splashe.storage_x",
        "ratio",
        Lower,
        "stored_bytes_per_plain_byte (tables with a SPLASHE dimension)",
    ),
    layer(
        "encoding.idlist_encode_mids_s",
        "Mids/s",
        Higher,
        "scan_adhoc.lat_p50_ms [dash_remote]",
    ),
    layer(
        "encoding.idlist_decode_mids_s",
        "Mids/s",
        Higher,
        "scan_adhoc.lat_p50_ms [dash_remote]",
    ),
    layer(
        "encoding.idlist_bytes_per_id",
        "bytes",
        Lower,
        "scan_adhoc.wire_bytes_per_op [dash_remote]",
    ),
    layer("engine.scan_plain_mrows_s", "Mrows/s", Higher, "cluster_mixed.qps"),
    layer("engine.scan_det_mrows_s", "Mrows/s", Higher, "cluster_mixed.qps"),
    layer(
        "engine.scan_ore_mrows_s",
        "Mrows/s",
        Higher,
        "scan_adhoc.qps [cluster_mixed]",
    ),
    layer("engine.groupby_mrows_s", "Mrows/s", Higher, "scan_adhoc.qps"),
    layer(
        "engine.server_execute_us",
        "us",
        Lower,
        "scan_adhoc.lat_p50_ms, cluster_mixed.lat_p95_ms",
    ),
    layer(
        "engine.operator_us",
        "us",
        Lower,
        "scan_adhoc.lat_p50_ms [dash_remote: server_execute minus this is fixed cost]",
    ),
    layer(
        "engine.rows_scanned_per_op",
        "count",
        Lower,
        "scan_adhoc.qps, cluster_mixed.qps",
    ),
    layer("engine.merge_us", "us", Lower, "cluster_mixed.lat_p50_ms"),
    layer("net.null_rtt_us", "us", Lower, "dash_remote.lat_p50_ms [scan_adhoc]"),
    layer(
        "net.transport_us",
        "us",
        Lower,
        "dash_remote.lat_p50_ms, dash_remote.qps [scan_adhoc]",
    ),
    layer(
        "net.encode_request_us",
        "us",
        Lower,
        "dash_remote.lat_p50_ms [scan_adhoc]",
    ),
    layer(
        "net.decode_response_us",
        "us",
        Lower,
        "dash_remote.lat_p50_ms, scan_adhoc.lat_p50_ms",
    ),
    layer("net.req_bytes", "bytes", Lower, "dash_remote.wire_bytes_per_op"),
    layer("net.resp_bytes", "bytes", Lower, "scan_adhoc.wire_bytes_per_op"),
    layer("net.codec_big_mb_s", "MB/s", Higher, "ingest_load.qps"),
    layer(
        "net.load_shard_mb_s",
        "MB/s",
        Higher,
        "ingest_load.qps, cluster_mixed.setup_s",
    ),
    layer("net.connect_us", "us", Lower, "*.setup_s"),
    layer(
        "dist.execute_hit_us",
        "us",
        Lower,
        "cluster_mixed.lat_p50_ms [dash_remote]",
    ),
    layer(
        "dist.execute_miss_us",
        "us",
        Lower,
        "cluster_mixed.lat_p95_ms, cluster_mixed.qps [dash_remote]",
    ),
    layer(
        "dist.coord_overhead_us",
        "us",
        Lower,
        "cluster_mixed.lat_p95_ms, cluster_mixed.qps [dash_remote]",
    ),
    layer("dist.gather_us", "us", Lower, "cluster_mixed.lat_p50_ms"),
    layer("dist.cache_hit_ratio", "ratio", Higher, "cluster_mixed.lat_p50_ms"),
    layer(
        "dist.hedged_reads",
        "count",
        Lower,
        "cluster_mixed.lat_p95_ms (must be 0 on a healthy run)",
    ),
    layer(
        "dist.redispatches",
        "count",
        Lower,
        "cluster_mixed.lat_p95_ms (must be 0 on a healthy run)",
    ),
    layer(
        "dist.load_shards_s",
        "s",
        Lower,
        "ingest_load.qps, cluster_mixed.setup_s",
    ),
    layer(
        "obs.on_off_delta_pct",
        "%",
        Lower,
        "dash_remote.lat_p50_ms, dash_remote.cpu_ms_per_op",
    ),
    layer(
        "obs.snapshot_us",
        "us",
        Lower,
        "dash_remote.cpu_ms_per_op (when scraped)",
    ),
    layer(
        "trace.unattributed_pct",
        "%",
        Lower,
        "none: how much of lat_p50_ms the stages do not explain",
    ),
    layer(
        "trace.overhead_pct",
        "%",
        Lower,
        "none: what the benchmark's own spans cost",
    ),
    layer("share.query_pct", "%", Lower, "none: share table of the traced pass"),
    layer("share.core_pct", "%", Lower, "none: share table of the traced pass"),
    layer("share.engine_pct", "%", Lower, "none: share table of the traced pass"),
    layer("share.net_pct", "%", Lower, "none: share table of the traced pass"),
    layer("share.dist_pct", "%", Lower, "none: share table of the traced pass"),
    layer("share.crypto_pct", "%", Lower, "none: share table of the traced pass"),
    layer("share.ashe_pct", "%", Lower, "none: share table of the traced pass"),
    layer("share.other_pct", "%", Lower, "none: traced time no stage span covers"),
    layer("env.canary_ms", "ms", Lower, "none: the host, not the program"),
    layer(
        "env.canary_spread_pct",
        "%",
        Lower,
        "none: above 10 the run is marked noisy",
    ),
];

/// One measured metric as printed and recorded.
#[derive(Clone, Debug)]
pub struct Measured {
    /// Metric name.
    pub name: &'static str,
    /// The reported value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (segments, repetitions, or 1).
    pub samples: usize,
    /// IQR / median of those samples (0 for a single sample).
    pub spread: f64,
}

/// Share of a run's slices the timing metrics are computed over: the
/// cleanest tenth.
pub const CLEAN_SHARE: f64 = 0.1;

/// The slices of a run ranked by *slowness*: the time a slice's operations
/// took over the time operations of their shapes typically take in this run
/// (the per-shape median latency). Ranking on slowness rather than on raw
/// time keeps a stretch of dear operations from looking like a slow host.
///
/// Why rank at all: on the shared reference box the kernel-heavy paths
/// (sockets, wake-ups, page faults) run 1.5× slower for stretches of
/// seconds at a time that the program has no part in — a null TCP round trip
/// alternates between 7 and 11 µs while an ALU loop stays within 2% — and a
/// 20 s run may sit mostly inside one. Identical runs differed by 20% in
/// their medians and by half that over their cleanest tenth, which is what
/// is reported: throughput, latency percentiles and CPU per operation over
/// the tenth of slices with the least slowness, pooled.
pub struct Ranked<'a> {
    /// The cleanest [`CLEAN_SHARE`] of the slices.
    pub clean: Vec<&'a Slice>,
    /// Slowness of every slice, for the spread.
    pub slowness: Vec<f64>,
}

impl<'a> Ranked<'a> {
    /// Ranks `slices`.
    pub fn new(slices: &'a [Slice]) -> Ranked<'a> {
        let mut by_shape: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (shape, latency) in slices.iter().flat_map(|s| &s.ops) {
            by_shape.entry(*shape).or_default().push(*latency);
        }
        let typical: BTreeMap<usize, f64> = by_shape.iter().map(|(shape, l)| (*shape, median(l))).collect();
        let slowness = |slice: &Slice| -> f64 {
            let took: f64 = slice.ops.iter().map(|(_, latency)| latency).sum();
            let expected: f64 = slice.ops.iter().map(|(shape, _)| typical[shape]).sum();
            took / expected.max(f64::MIN_POSITIVE)
        };
        let mut ranked: Vec<(f64, &Slice)> = slices.iter().map(|s| (slowness(s), s)).collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        let keep = ((slices.len() as f64 * CLEAN_SHARE).ceil() as usize).clamp(1, slices.len().max(1));
        Ranked {
            clean: ranked.iter().take(keep).map(|(_, s)| *s).collect(),
            slowness: ranked.iter().map(|(s, _)| *s).collect(),
        }
    }

    fn clean_ops(&self) -> f64 {
        self.clean.iter().map(|s| s.ops.len()).sum::<usize>() as f64
    }

    fn clean_latencies(&self) -> Vec<f64> {
        self.clean
            .iter()
            .flat_map(|s| s.ops.iter().map(|(_, latency)| *latency))
            .collect()
    }
}

/// The end-to-end metrics of a timed run whose slices are `ranked`, in
/// catalogue order.
pub fn end_to_end(run: &TimedRun, ranked: &Ranked<'_>) -> Vec<Measured> {
    let latencies = ranked.clean_latencies();
    let timed_ops: usize = run.slices.iter().map(|s| s.ops.len()).sum();
    END_TO_END
        .iter()
        .map(|spec| {
            // Timing metrics share one sample count and one spread: the
            // slices, and how far their slowness ranges.
            let timing = |value: f64| Measured {
                name: spec.name,
                value,
                unit: spec.unit,
                samples: run.slices.len(),
                spread: spread(&ranked.slowness),
            };
            let single = |value: f64| Measured {
                name: spec.name,
                value,
                unit: spec.unit,
                samples: 1,
                spread: 0.0,
            };
            match spec.name {
                // Set-up is repeated, not sliced: the median repetition.
                "setup_s" => Measured {
                    samples: run.setup_s.len(),
                    spread: spread(&run.setup_s),
                    ..single(median(&run.setup_s))
                },
                "qps" => timing(ranked.clean_ops() / ranked.clean.iter().map(|s| s.wall_s).sum::<f64>()),
                "lat_p50_ms" => timing(percentile(&latencies, 50.0)),
                "lat_p95_ms" => timing(percentile(&latencies, TAIL_PERCENTILE)),
                "cpu_ms_per_op" => timing(ranked.clean.iter().map(|s| s.cpu_ms).sum::<f64>() / ranked.clean_ops()),
                // A count, not a time: every timed operation counts.
                "wire_bytes_per_op" => single(run.wire_bytes as f64 / timed_ops.max(1) as f64),
                "peak_rss_mb" => single(run.peak_rss_mb),
                "stored_bytes_per_plain_byte" => single(run.stored_bytes as f64 / run.plain_bytes.max(1) as f64),
                other => unreachable!("no rule for end-to-end metric {other}"),
            }
        })
        .collect()
}

/// The per-layer metrics of a traced run, in catalogue order.
pub fn per_layer(run: &LayerRun) -> Vec<Measured> {
    let canary = median(&run.canary_ms);
    PER_LAYER
        .iter()
        .map(|spec| {
            let value = match spec.name {
                "env.canary_ms" => canary,
                "env.canary_spread_pct" => spread(&run.canary_ms) * 100.0,
                name => match name.strip_prefix("share.").and_then(|s| s.strip_suffix("_pct")) {
                    Some(layer) => run
                        .shares
                        .iter()
                        .find(|(l, _)| *l == layer)
                        .map_or(0.0, |(_, share)| *share),
                    None => run.values.get(name).copied().unwrap_or(0.0),
                },
            };
            Measured {
                name: spec.name,
                value,
                unit: spec.unit,
                samples: 1,
                spread: 0.0,
            }
        })
        .collect()
}

/// True when the canary readings spread further than a quiet host's do.
pub fn noisy(canary_ms: &[f64]) -> bool {
    spread(canary_ms) > NOISY_CANARY_SPREAD
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    fn valid(name: &str) -> bool {
        let head = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        head && name.len() <= 64 && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| valid(n)), "an invalid metric name");
        assert_eq!(
            names.iter().collect::<BTreeSet<_>>().len(),
            names.len(),
            "a name is used twice"
        );
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16 && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    /// `BENCHMARK.json` and the catalogue must list the same metrics with the
    /// same units, directions and bounds, and the same workloads.
    #[test]
    fn benchmark_json_agrees_with_the_catalogue() {
        let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let field = |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).unwrap_or("?").to_string();
        let direction = |better: Better| if better == Better::Lower { "lower" } else { "higher" };

        let listed: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .expect("end_to_end")
            .items()
            .iter()
            .map(|e| {
                (
                    field(e, "name"),
                    field(e, "unit"),
                    field(e, "better"),
                    e.get("bound").and_then(Json::as_f64).unwrap_or(-1.0),
                )
            })
            .collect();
        let catalogue: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    direction(m.better).to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(listed, catalogue);

        let listed: Vec<(String, String, String)> = doc
            .get("per_layer")
            .expect("per_layer")
            .items()
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect();
        let catalogue: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), direction(m.better).to_string()))
            .collect();
        assert_eq!(listed, catalogue);

        let workloads: Vec<String> = doc
            .get("workloads")
            .expect("workloads")
            .items()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let ours: Vec<String> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::RUN_SECONDS),
            "run_seconds is the default run length"
        );
    }

    fn slice(wall_s: f64, cpu_ms: f64, ops: &[(usize, f64)]) -> Slice {
        Slice {
            wall_s,
            cpu_ms,
            ops: ops.to_vec(),
        }
    }

    #[test]
    fn slices_rank_by_slowness_not_by_raw_time() {
        // Shape 0 typically takes 1 ms, shape 1 typically 10 ms. The slice of
        // dear operations ran at its typical speed; the last slice of cheap
        // ones ran 3x slow. Raw time would call the dear slice the slow one.
        let slices = vec![
            slice(0.002, 1.0, &[(0, 1.0), (0, 1.0)]),
            slice(0.020, 1.0, &[(1, 10.0), (1, 10.0)]),
            slice(0.002, 1.0, &[(0, 1.0), (0, 1.0)]),
            slice(0.006, 1.0, &[(0, 3.0), (0, 3.0)]),
        ];
        let ranked = Ranked::new(&slices);
        assert_eq!(ranked.slowness.len(), 4);
        assert!(
            (ranked.slowness[3] - 3.0).abs() < 1e-9,
            "the slowest slice is the 3x one"
        );
        assert!((ranked.slowness[0] - 1.0).abs() < 1e-9);
        assert_eq!(ranked.clean.len(), 1, "a tenth of four slices rounds up to one");
    }

    #[test]
    fn every_reported_metric_is_in_the_catalogue_and_back() {
        let mut slices: Vec<Slice> = (0..20).map(|_| slice(0.010, 4.0, &[(0, 5.0), (0, 5.0)])).collect();
        // Two clean slices (a tenth of twenty): twice as fast as the rest.
        slices[3] = slice(0.005, 2.0, &[(0, 2.0), (0, 3.0)]);
        slices[7] = slice(0.005, 2.0, &[(0, 2.5), (0, 2.5)]);
        let run = TimedRun {
            setup_s: vec![1.0, 2.0, 3.0],
            slices,
            wire_bytes: 400,
            stored_bytes: 30,
            plain_bytes: 10,
            ..TimedRun::default()
        };
        let reported = end_to_end(&run, &Ranked::new(&run.slices));
        assert_eq!(
            reported.iter().map(|m| m.name).collect::<Vec<_>>(),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        let value = |name: &str| reported.iter().find(|m| m.name == name).map(|m| m.value).unwrap();
        assert_eq!(value("setup_s"), 2.0, "set-up is the median repetition");
        assert!(
            (value("qps") - 400.0).abs() < 1e-9,
            "4 ops in 10 ms over the clean slices"
        );
        assert_eq!(value("lat_p50_ms"), 2.5);
        assert_eq!(value("lat_p95_ms"), 3.0);
        assert_eq!(value("cpu_ms_per_op"), 1.0);
        assert_eq!(value("wire_bytes_per_op"), 10.0, "bytes count every timed operation");
        assert_eq!(value("stored_bytes_per_plain_byte"), 3.0);
        let layers = per_layer(&LayerRun::default());
        assert_eq!(
            layers.iter().map(|m| m.name).collect::<Vec<_>>(),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
    }
}
