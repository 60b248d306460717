//! `seabench`: the end-to-end + per-layer benchmark of Seabed.
//!
//! Two ways in:
//!
//! * one measured run, the form `BENCHMARK.json`'s command takes:
//!   `seabench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!   prints one line per metric and, last, one JSON object with `correct`,
//!   `attempted`, `failed` and `metrics` (end-to-end with `--trace 0`,
//!   per-layer with `--trace 1`);
//! * everything at once:
//!   `seabench run --seed <n> [--workload <name>] [--out <dir>] [--seconds <s>] [--quick]`
//!   runs each workload's timed and traced pass in a fresh child process and
//!   writes `results.json` and `trace.json`.
//!
//! Both exit non-zero when any answer was wrong or any operation failed.

mod env;
mod gen;
mod json;
mod metrics;
mod probes;
mod reference;
mod stats;
mod sut;
mod timed;
mod trace;
mod traced;
mod workloads;

use json::Json;
use metrics::Measured;
use std::process::ExitCode;
use workloads::Workload;

/// `run_seconds` of `BENCHMARK.json`, the default length of a run.
const RUN_SECONDS: f64 = 20.0;
/// `--quick`: a smoke of every workload's timed pass in about 20 s. Its
/// numbers gate nothing.
const QUICK_SECONDS: f64 = 2.0;

const USAGE: &str = "usage:
  seabench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--detail <file>]
  seabench run --seed <n> [--workload <name>] [--out <dir>] [--seconds <s>] [--quick]
workloads: dash_remote scan_adhoc cluster_mixed ingest_load";

/// Parsed `--flag value` pairs.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument {flag}"));
            }
            if switches.contains(&flag.as_str()) {
                pairs.push((flag.clone(), "1".to_string()));
            } else {
                let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
                pairs.push((flag.clone(), value.clone()));
            }
        }
        Ok(Flags(pairs))
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0.iter().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|v| v.parse::<T>().map_err(|_| format!("{flag}: cannot read {v}")))
            .transpose()
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        self.get("--workload")
            .map(|name| Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}")))
            .transpose()
    }
}

/// What one measured run produced, in the shape both outputs are built from.
struct Outcome {
    workload: Workload,
    traced: bool,
    metrics: Vec<Measured>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Extra facts for `results.json`.
    detail: Vec<(&'static str, Json)>,
    spans: Json,
}

fn measure(workload: Workload, seed: u64, budget: timed::Budget, traced: bool) -> Result<Outcome, String> {
    if traced {
        let run = traced::run(workload, seed, budget)?;
        let shares = Json::obj(run.shares.iter().map(|(layer, pct)| (*layer, Json::Num(*pct))));
        Ok(Outcome {
            workload,
            traced,
            metrics: metrics::per_layer(&run),
            attempted: run.tally.attempted,
            failed: run.tally.failed,
            failures: run.tally.failures.clone(),
            detail: vec![
                ("shares_pct", shares),
                ("noisy", Json::Bool(metrics::noisy(&run.canary_ms))),
            ],
            spans: run.recorder.to_json(),
        })
    } else {
        let run = timed::run(workload, seed, budget)?;
        let ranked = metrics::Ranked::new(&run.slices);
        let clean_ops: usize = ranked.clean.iter().map(|s| s.ops.len()).sum();
        let canary = &run.canary_ms;
        let setup_parts = Json::obj(run.setup_parts.iter().map(|(name, s)| (*name, Json::Num(*s))));
        Ok(Outcome {
            workload,
            traced,
            metrics: metrics::end_to_end(&run, &ranked),
            attempted: run.tally.attempted,
            failed: run.tally.failed,
            failures: run.tally.failures.clone(),
            detail: vec![
                ("segments", Json::Num(run.segments as f64)),
                ("ops_per_segment", Json::Num(run.ops_per_segment as f64)),
                ("ops_per_slice", Json::Num(workload.ops_per_slice() as f64)),
                ("slices", Json::Num(run.slices.len() as f64)),
                ("clean_slices", Json::Num(ranked.clean.len() as f64)),
                ("clean_ops", Json::Num(clean_ops as f64)),
                ("slice_slowness", slowness_summary(&ranked)),
                (
                    "setup_repetitions_s",
                    Json::Arr(run.setup_s.iter().map(|s| Json::Num(*s)).collect()),
                ),
                ("clients", Json::Num(1.0)),
                ("input_fingerprint", Json::str(format!("{:016x}", run.fingerprint))),
                ("plain_bytes", Json::Num(run.plain_bytes as f64)),
                ("stored_bytes", Json::Num(run.stored_bytes as f64)),
                ("setup_parts_s", setup_parts),
                (
                    "p95_has_ten_samples_beyond",
                    Json::Bool(stats::tail_supported(clean_ops, stats::TAIL_PERCENTILE)),
                ),
                (
                    "highest_supported_percentile",
                    Json::Num(stats::highest_supported_percentile(clean_ops)),
                ),
                ("statement_cache_hits", Json::Num(run.statement_cache.0 as f64)),
                ("statement_cache_misses", Json::Num(run.statement_cache.1 as f64)),
                ("partial_cache_hits", Json::Num(run.partial_cache.0 as f64)),
                ("partial_cache_misses", Json::Num(run.partial_cache.1 as f64)),
                ("decrypt_prf_evals", Json::Num(run.prf_evals as f64)),
                ("canary_ms", Json::Num(stats::median(canary))),
                ("canary_spread", Json::Num(stats::spread(canary))),
                ("noisy", Json::Bool(metrics::noisy(canary))),
                ("truncated", Json::Bool(run.truncated)),
            ],
            spans: Json::Arr(Vec::new()),
        })
    }
}

/// How slow the run's slices were against its own typical operation: the
/// deciles of slowness (minimum to maximum) and the ceiling of the cleanest
/// tenth, which the timing metrics were computed over.
fn slowness_summary(ranked: &metrics::Ranked<'_>) -> Json {
    let sorted = &ranked.slowness;
    let at = |tenth: usize| sorted.get((sorted.len().saturating_sub(1)) * tenth / 10).copied();
    Json::obj([
        (
            "deciles",
            Json::Arr((0..=10).map(|t| at(t).map_or(Json::Null, Json::Num)).collect()),
        ),
        (
            "clean_at_most",
            sorted
                .get(ranked.clean.len().saturating_sub(1))
                .map_or(Json::Null, |s| Json::Num(*s)),
        ),
    ])
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The lines people read: `<workload> <metric> <value> <unit> n=<samples> spread=<pct>`.
    fn print_lines(&self) {
        for m in &self.metrics {
            println!(
                "{} {} {} {} n={} spread={:.1}%",
                self.workload.name(),
                m.name,
                m.value,
                m.unit,
                m.samples,
                m.spread * 100.0
            );
        }
        for (key, value) in &self.detail {
            if matches!(*key, "noisy" | "truncated") && *value == Json::Bool(true) {
                eprintln!("{}: {key} = true", self.workload.name());
            }
        }
        for failure in &self.failures {
            eprintln!("{}: FAILED {failure}", self.workload.name());
        }
    }

    /// The driver's result object.
    fn result_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
    }

    /// The fuller record a `run` parent folds into `results.json`.
    fn detail_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = vec![
            ("workload", Json::str(self.workload.name())),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Arr(
                    self.metrics
                        .iter()
                        .map(|m| {
                            Json::obj([
                                ("name", Json::str(m.name)),
                                ("value", Json::Num(m.value)),
                                ("unit", Json::str(m.unit)),
                                ("samples", Json::Num(m.samples as f64)),
                                ("spread", Json::Num(m.spread)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        pairs.extend(self.detail.iter().map(|(k, v)| (*k, v.clone())));
        pairs.push(("spans", self.spans.clone()));
        Json::obj(pairs)
    }
}

/// One measured run (the `BENCHMARK.json` command form).
fn single_run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &[])?;
    let workload = flags.workload()?.ok_or("--workload is required")?;
    let seed: u64 = flags.number("--seed")?.ok_or("--seed is required")?;
    let seconds: f64 = flags.number("--seconds")?.unwrap_or(RUN_SECONDS);
    let traced = match flags.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be within (0, 60], not {seconds}"));
    }
    // Before any thread exists: affinity is inherited at creation.
    match env::pin_to_one_cpu() {
        Some(cpu) => eprintln!("{}: pinned to cpu {cpu}", workload.name()),
        None => eprintln!("{}: could not pin to one cpu; running unpinned", workload.name()),
    }
    let outcome = measure(workload, seed, timed::Budget::new(seconds), traced)?;
    outcome.print_lines();
    if let Some(path) = flags.get("--detail") {
        std::fs::write(path, outcome.detail_json().pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", outcome.result_json().render());
    Ok(outcome.correct())
}

/// Everything at once: each workload's timed and traced pass in its own
/// child process (so CPU time and peak RSS are per workload and pass),
/// folded into `results.json` and `trace.json`.
fn full_run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["--quick"])?;
    let seed: u64 = flags.number("--seed")?.ok_or("--seed is required")?;
    let quick = flags.get("--quick").is_some();
    let seconds: f64 = flags
        .number("--seconds")?
        .unwrap_or(if quick { QUICK_SECONDS } else { RUN_SECONDS });
    let out_dir = std::path::PathBuf::from(flags.get("--out").unwrap_or("seabench_out"));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let workloads: Vec<Workload> = match flags.workload()? {
        Some(one) => vec![one],
        None => Workload::ALL.to_vec(),
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    let mut records = Vec::new();
    let mut traces = Vec::new();
    for workload in workloads {
        // The quick mode skips the traced pass: it is a smoke, not a ledger.
        for traced in [false, true].into_iter().take(if quick { 1 } else { 2 }) {
            let detail = out_dir.join(format!("{}.{}.json", workload.name(), u8::from(traced)));
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--detail")
                .arg(&detail)
                .status()
                .map_err(|e| format!("cannot start a child run: {e}"))?;
            all_correct &= status.success();
            let text = std::fs::read_to_string(&detail)
                .map_err(|e| format!("{} {}: no result ({e})", workload.name(), u8::from(traced)))?;
            let _ = std::fs::remove_file(&detail);
            let mut record = Json::parse(&text)?;
            all_correct &= record.get("correct") == Some(&Json::Bool(true));
            if let Json::Obj(pairs) = &mut record {
                if let Some(at) = pairs.iter().position(|(k, _)| k == "spans") {
                    let (_, spans) = pairs.remove(at);
                    if traced {
                        traces.push(Json::obj([("workload", Json::str(workload.name())), ("spans", spans)]));
                    }
                }
            }
            records.push(record);
        }
    }
    let results = Json::obj([
        ("benchmark", Json::str("seabench")),
        ("commit", Json::str(env::commit())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(quick)),
        ("nproc", Json::Num(env::nproc() as f64)),
        ("cpu_model", Json::str(env::cpu_model())),
        ("all_correct", Json::Bool(all_correct)),
        ("catalogue", catalogue_json()),
        ("runs", Json::Arr(records)),
    ]);
    let write = |name: &str, value: &Json| {
        let path = out_dir.join(name);
        std::fs::write(&path, value.pretty()).map_err(|e| format!("{}: {e}", path.display()))
    };
    write("results.json", &results)?;
    write("trace.json", &Json::Arr(traces))?;
    eprintln!("wrote {}/results.json and trace.json", out_dir.display());
    Ok(all_correct)
}

/// The metric catalogue as `results.json` carries it: what each number is,
/// which way is better, the regression bound of an end-to-end metric, and the
/// end-to-end metric a per-layer one should move.
fn catalogue_json() -> Json {
    let direction = |better: stats::Better| {
        Json::str(match better {
            stats::Better::Lower => "lower",
            stats::Better::Higher => "higher",
        })
    };
    Json::obj([
        (
            "end_to_end",
            Json::Arr(
                metrics::END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", direction(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                metrics::PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("layer", Json::str(m.name.split('.').next().unwrap_or(m.name))),
                            ("unit", Json::str(m.unit)),
                            ("better", direction(m.better)),
                            ("moves", Json::str(m.moves)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("run") => full_run(&args[1..]),
        Some(_) => single_run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("seabench: wrong answers or failed operations; see above");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("seabench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
