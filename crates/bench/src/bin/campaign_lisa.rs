//! The campaign-engine demonstrator: a ≥32-device LISA fleet attacked in
//! parallel, with per-device results, bit-for-bit reproducibility
//! verification and a measured parallel-vs-serial speedup.
//!
//! ```text
//! campaign_lisa [--devices N] [--seed S] [--threads K] [--early-exit]
//!               [--json PATH] [--csv PATH] [--skip-speedup]
//! ```
//!
//! On a multicore host the speedup section is expected to exceed 2×;
//! on a single-core host it degenerates to ≈1× and says so.

use ropuf_bench::{parse_flags, write_artifact};
use ropuf_campaign::{AttackKind, Campaign, FleetSpec};
use ropuf_constructions::pairing::lisa::LisaConfig;
use ropuf_sim::ArrayDims;

fn main() {
    let flags = parse_flags();
    flags.expect_known(&[
        "devices",
        "seed",
        "threads",
        "early-exit",
        "json",
        "csv",
        "skip-speedup",
    ]);
    let devices = flags.get_usize("devices").unwrap_or(32);
    let master_seed = flags.get_u64("seed").unwrap_or(1);
    let threads = flags.get_usize("threads").unwrap_or(0);
    let early_exit = flags.has("early-exit");
    // Resolve artifact flags up front so a value-less --json/--csv fails
    // before the campaign has burned its wall time.
    let json_path = flags.get_required_value("json");
    let csv_path = flags.get_required_value("csv");

    ropuf_bench::header(
        "CAMPAIGN — parallel LISA key recovery across a device fleet",
        "statistical attacks scale linearly over independent devices; per-device seeds make campaigns replayable",
    );

    let campaign = Campaign {
        attack: AttackKind::Lisa(LisaConfig::default()),
        fleet: FleetSpec {
            dims: ArrayDims::new(16, 8),
            devices,
            master_seed,
        },
        threads,
        early_exit,
        detector: None,
    };

    let report = campaign.run();
    println!(
        "{:>8} {:>20} {:>8} {:>8} {:>9} {:>8} {:>9}",
        "device", "attack seed", "success", "queries", "key bits", "hd", "wall ms"
    );
    for run in &report.runs {
        println!(
            "{:>8} {:>20} {:>8} {:>8} {:>9} {:>8} {:>9.2}",
            run.device_id,
            run.attack_seed,
            run.success,
            run.queries,
            run.key_bits,
            run.hamming_distance
                .map_or("-".to_string(), |d| d.to_string()),
            run.wall_ms,
        );
    }
    println!(
        "\nsummary: {}/{} recovered, {:.0} mean queries, {} threads, {:.1} ms wall, {:.0} oracle queries/s",
        report.succeeded(),
        report.runs.len(),
        report.mean_queries(),
        report.threads,
        report.total_wall_ms,
        report.total_queries() as f64 * 1e3 / report.total_wall_ms.max(1e-9),
    );

    // Reproducibility: an identical campaign must serialize identically.
    let replay = campaign.run();
    let identical = report.to_json(false) == replay.to_json(false);
    println!("reproducibility: replayed campaign JSON identical bit-for-bit: {identical}");
    assert!(identical, "campaign determinism violated");

    // Parallel speedup against a forced single-thread run.
    if !flags.has("skip-speedup") {
        let serial = Campaign {
            threads: 1,
            ..campaign
        }
        .run();
        let speedup = serial.total_wall_ms / report.total_wall_ms;
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        println!(
            "speedup: serial {:.1} ms / parallel {:.1} ms = {speedup:.2}x on {cores} core(s)",
            serial.total_wall_ms, report.total_wall_ms,
        );
        if cores > 2 {
            println!("expectation on this multicore host: > 2x");
        } else {
            println!("single/dual-core host: speedup necessarily ≈ 1x here; re-run on a multicore machine");
        }
    }

    if let Some(path) = json_path {
        write_artifact(path, &report.to_json(false));
    }
    if let Some(path) = csv_path {
        write_artifact(path, &report.to_csv(false));
    }
}
