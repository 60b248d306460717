//! Experiment harness: regenerates the Seabed paper's tables and figures.
//!
//! ```text
//! cargo run -p seabed-bench --release --bin harness -- all
//! cargo run -p seabed-bench --release --bin harness -- fig6 fig8 table1
//! cargo run -p seabed-bench --release --bin harness -- --smoke all
//! cargo run -p seabed-bench --release --bin harness -- --json-dir=out fig6
//! ```
//!
//! The binary is a thin shell: it parses flags, registers every experiment
//! with the [`ExperimentRunner`] matrix, and prints what the runner reports.
//! Measurement lives in the `exp_*` functions, rendering and the
//! machine-readable `BENCH_<name>.json` artifacts (default directory
//! `bench_results/`) in `seabed_bench::metrics`.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use seabed_bench::*;
use std::sync::OnceLock;

/// Paillier's costs at [`PAILLIER_BITS`], measured on first use: once per
/// run, for Table 1 and every figure's Paillier estimate.
fn paillier(scale: &Scale) -> &'static PaillierCost {
    static COST: OnceLock<PaillierCost> = OnceLock::new();
    COST.get_or_init(|| PaillierCost::measure(&mut StdRng::seed_from_u64(scale.seed), PAILLIER_BITS))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_dir = args
        .iter()
        .find_map(|a| a.strip_prefix("--json-dir="))
        .unwrap_or("bench_results")
        .to_string();
    let scale = if smoke { Scale::smoke() } else { Scale::default() };
    let mut requested: Vec<String> = args.into_iter().filter(|a| !a.starts_with("--")).collect();
    if requested.is_empty() {
        requested.push("all".to_string());
    }

    // One provenance stamp per invocation: every artifact of this run
    // carries the same timestamp and commit.
    let meta = RunMeta::capture();
    let mut runner = ExperimentRunner::new(ExperimentConfig::new(scale).json_dir(json_dir).meta(meta));
    runner.register("table1", "Table 1: cost of cryptographic operations (ns/op)", |scale| {
        exp_table1(scale, paillier(scale))
    });
    runner.register("table2", "Table 2: query translation examples", |_| {
        exp_table2()
            .into_iter()
            .map(|(sql, plan)| Row::new(format!("{sql} => {plan}")))
            .collect()
    });
    runner.register("table3", "Table 3: ID-list encodings of [2..14, 19..23]", |_| {
        exp_table3()
    });
    runner.register("table4", "Table 4: query support categories", exp_table4);
    runner.register("table5", "Table 5: dataset sizes (scaled)", exp_table5);
    runner.register("table6", "Table 6: MDX function support matrix", |_| {
        exp_table6()
            .into_iter()
            .map(|(name, how, category)| Row::new(format!("{name} [{category}] {how}")))
            .collect()
    });
    runner.register("fig6", "Figure 6: end-to-end latency vs rows", |scale| {
        latency_rows(&exp_fig6(scale, paillier(scale)), false)
    });
    runner.register(
        "fig7",
        "Figure 7: server latency vs threads (measured) and cores (model)",
        |scale| latency_rows(&exp_fig7(scale, paillier(scale)), true),
    );
    // "fig8" runs both halves; the emitted JSON names "fig8ab"/"fig8c" are
    // also accepted so a file name seen in bench_results/ can be replayed.
    runner.register_aliased(
        "fig8ab",
        &["fig8"],
        "Figure 8(a,b): ID-list size and response time vs selectivity",
        exp_fig8ab,
    );
    runner.register_aliased("fig8c", &["fig8"], "Figure 8(c): OPE selection overhead", exp_fig8c);
    runner.register("fig9a", "Figure 9(a): group-by microbenchmark", |scale| {
        exp_fig9a(scale, paillier(scale))
    });
    runner.register("fig9bc", "Figure 9(b,c): Big Data Benchmark", |scale| {
        exp_fig9bc(scale, paillier(scale))
    });
    runner.register("fig10a", "Figure 10(a): Ad-Analytics response times", |scale| {
        exp_fig10a(scale, paillier(scale))
    });
    runner.register(
        "fig10b",
        "Figure 10(b): SPLASHE storage overhead (cumulative x)",
        exp_fig10b,
    );

    let unknown = runner.unknown(&requested);
    if !unknown.is_empty() {
        eprintln!(
            "unknown experiment(s): {unknown:?}\nvalid names: all {}",
            runner.names().join(" ")
        );
        std::process::exit(2);
    }

    println!(
        "Seabed experiment harness (scale: 1/{} of paper row counts)\n",
        scale.row_divisor
    );
    for report in runner.run(&requested) {
        println!("{}", report.rendered);
        match (&report.json_path, &report.json_error) {
            (Some(path), _) => println!("  -> wrote {}\n", path.display()),
            (None, Some(err)) => eprintln!("  !! could not write {} json: {err}\n", report.name),
            (None, None) => {}
        }
    }
}
