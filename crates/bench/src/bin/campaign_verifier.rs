//! The closed-loop demonstrator: a mixed fleet of all four
//! constructions enrolled in a sharded verifier, benign authentication
//! traffic served (and never flagged), and the LISA devices attacked
//! with the defender-side detector watching — reporting
//! *time-to-detection* and *queries-before-flag* next to attack
//! success.
//!
//! ```text
//! campaign_verifier [--devices N] [--seed S] [--threads K] [--shards M]
//!                   [--rounds R] [--smoke] [--json PATH]
//! ```
//!
//! Acceptance shape: with the default thresholds the detector flags
//! every LISA-attacked device within a handful of queries — orders of
//! magnitude before key recovery — while a full benign serving epoch
//! across all four schemes produces zero flags.

use ropuf_bench::{parse_flags, write_artifact};
use ropuf_campaign::{AttackKind, Campaign, FleetSpec};
use ropuf_constructions::cooperative::{CooperativeConfig, CooperativeScheme, COOP_TAG};
use ropuf_constructions::group::{GroupBasedConfig, GroupBasedScheme, GROUP_TAG};
use ropuf_constructions::pairing::distilled::{
    DistilledConfig, DistilledPairingScheme, DISTILLED_TAG,
};
use ropuf_constructions::pairing::lisa::{LisaConfig, LisaScheme, LISA_TAG};
use ropuf_constructions::{Device, HelperDataScheme};
use ropuf_sim::{ArrayDims, Environment};
use ropuf_verifier::{device_auth_response, AuthRequest, BatchScratch, DetectorConfig, Verifier};

/// One enrolled fleet member: the simulated device plus its identity.
struct FleetMember {
    device_id: u64,
    scheme_name: &'static str,
    device: Device,
}

/// Scheme template + geometry for one fleet slice.
fn scheme_for(slot: usize) -> (&'static str, u8, ArrayDims, Box<dyn HelperDataScheme>) {
    match slot {
        0 => (
            "lisa",
            LISA_TAG,
            ArrayDims::new(16, 8),
            Box::new(LisaScheme::new(LisaConfig::default())),
        ),
        1 => (
            "cooperative",
            COOP_TAG,
            ArrayDims::new(16, 8),
            Box::new(CooperativeScheme::new(CooperativeConfig::default())),
        ),
        2 => (
            "group-based",
            GROUP_TAG,
            ArrayDims::new(10, 4),
            Box::new(GroupBasedScheme::new(GroupBasedConfig::default())),
        ),
        _ => (
            "distiller-pairing",
            DISTILLED_TAG,
            ArrayDims::new(10, 4),
            Box::new(DistilledPairingScheme::new(DistilledConfig::default())),
        ),
    }
}

fn main() {
    let flags = parse_flags();
    flags.expect_known(&[
        "devices", "seed", "threads", "shards", "rounds", "smoke", "json",
    ]);
    let smoke = flags.has("smoke");
    let devices = flags.get_usize("devices").unwrap_or(32);
    let master_seed = flags.get_u64("seed").unwrap_or(1);
    let threads = flags.get_usize("threads").unwrap_or(0);
    let shards = flags.get_usize("shards").unwrap_or(8);
    let rounds = flags
        .get_usize("rounds")
        .unwrap_or(if smoke { 4 } else { 16 });
    let json_path = flags.get_required_value("json");

    ropuf_bench::header(
        "VERIFIER — defender closed loop over a mixed fleet",
        "§VII: helper-data integrity checks + query monitoring flag every attack long before key recovery, at zero benign false positives",
    );

    let config = DetectorConfig::default();
    let verifier = Verifier::new(shards, config);

    // The first quarter of the fleet runs LISA (those devices get
    // attacked); the rest round-robins the other three constructions
    // and only ever serves benign traffic.
    let attacked = (devices / 4).max(1).min(devices);
    let mut fleet: Vec<FleetMember> = Vec::new();
    for id in 0..devices {
        let slot = if id < attacked {
            0
        } else {
            1 + (id - attacked) % 3
        };
        let (scheme_name, tag, dims, scheme) = scheme_for(slot);
        let spec = FleetSpec {
            dims,
            devices,
            master_seed,
        };
        match spec.provision_device(id, scheme.as_ref()) {
            Ok(device) => {
                verifier
                    .enroll(id as u64, tag, device.helper(), device.enrolled_key())
                    .expect("fresh ids cannot collide");
                fleet.push(FleetMember {
                    device_id: id as u64,
                    scheme_name,
                    device,
                });
            }
            Err(e) => println!("device {id} ({scheme_name}): enrollment failed, skipped: {e}"),
        }
    }
    let by_scheme = |name: &str| fleet.iter().filter(|m| m.scheme_name == name).count();
    println!(
        "enrolled {} devices into {} shards: {} lisa (attack targets), {} cooperative, {} group-based, {} distiller-pairing",
        fleet.len(),
        verifier.registry().shard_count(),
        by_scheme("lisa"),
        by_scheme("cooperative"),
        by_scheme("group-based"),
        by_scheme("distiller-pairing"),
    );

    // ── Benign serving epoch ────────────────────────────────────────
    // Every device authenticates once per round, batched, across a
    // temperature sweep; devices are staggered inside the rate window.
    let temps: Vec<Environment> = Environment::sweep(18.0, 32.0, rounds).collect();
    let gap = 2 * config.rate_window / config.rate_budget as u64; // well under budget
    let fleet_len = fleet.len();
    let (mut accepted, mut rejected, mut benign_flagged) = (0usize, 0usize, 0usize);
    let mut scratch = BatchScratch::new();
    let mut verdicts = Vec::with_capacity(fleet_len);
    for (round, env) in temps.iter().enumerate() {
        let mut batch: Vec<AuthRequest> = Vec::with_capacity(fleet_len);
        for member in fleet.iter_mut() {
            let nonce = format!("auth-{}-{round}", member.device_id).into_bytes();
            let response = device_auth_response(&mut member.device, &nonce, *env);
            batch.push(AuthRequest {
                device_id: member.device_id,
                now: round as u64 * gap * fleet_len as u64 + member.device_id * gap,
                nonce,
                response,
                presented_helper: Some(member.device.helper().to_vec()),
            });
        }
        let queries: Vec<_> = batch.iter().map(AuthRequest::as_query).collect();
        verifier.authenticate_batch_with(&queries, &mut scratch, &mut verdicts);
        for verdict in &verdicts {
            if verdict.is_flagged() {
                benign_flagged += 1;
            } else if verdict.is_accept() {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
    }
    println!(
        "\nbenign epoch: {} batched auths over {:.0}–{:.0} °C: {accepted} accepted, {rejected} rejected (noise), {benign_flagged} flagged",
        rounds * fleet.len(),
        temps.first().map_or(0.0, |e| e.temperature_c),
        temps.last().map_or(0.0, |e| e.temperature_c),
    );
    let registry_flags = verifier.registry().flagged_devices();
    println!("registry flag list after benign epoch: {registry_flags:?}");

    // ── Attack epoch: LISA devices under the engine's closed loop ──
    let campaign = Campaign {
        attack: AttackKind::Lisa(LisaConfig::default()),
        fleet: FleetSpec {
            dims: ArrayDims::new(16, 8),
            devices: attacked,
            master_seed,
        },
        threads,
        early_exit: false,
        detector: Some(config),
    };
    // The campaign feeds its fleet-level flag-latency histogram into
    // the verifier's own telemetry registry, so one scrape shows both
    // sides of the closed loop.
    let report = campaign.run_with_telemetry(verifier.telemetry());
    println!(
        "\n{:>8} {:>8} {:>8} {:>9} {:>12} {:>18}",
        "device", "success", "queries", "flagged@", "before key?", "reason"
    );
    for run in &report.runs {
        println!(
            "{:>8} {:>8} {:>8} {:>9} {:>12} {:>18}",
            run.device_id,
            run.success,
            run.queries,
            run.flagged_at_query
                .map_or("-".to_string(), |q| q.to_string()),
            run.flagged_at_query.is_some_and(|q| q < run.queries),
            run.flag_reason.as_deref().unwrap_or("-"),
        );
    }

    let caught = report.flagged_before_completion();
    let caught_pct = 100.0 * caught as f64 / report.runs.len().max(1) as f64;
    println!(
        "\nattacked: {}/{} keys recovered by the attacker; detector flagged {caught}/{} ({caught_pct:.1}%) BEFORE recovery completed",
        report.succeeded(),
        report.runs.len(),
        report.runs.len(),
    );
    if let Some(mean_flag) = report.mean_queries_to_flag() {
        println!(
            "time-to-detection: mean {mean_flag:.1} queries to flag vs mean {:.0} queries to key recovery ({:.0}x headroom)",
            report.mean_queries(),
            report.mean_queries() / mean_flag.max(1.0),
        );
    }
    println!(
        "benign false positives: {benign_flagged} of {} auths",
        rounds * fleet.len()
    );

    // ── Fleet telemetry ────────────────────────────────────────────
    // One registry carries the whole loop: per-shard entry gauges,
    // verdict counters from the benign epoch, and the campaign's
    // flag-latency distribution — rendered from the same snapshot the
    // wire would serve.
    let telemetry = verifier.telemetry_snapshot();
    println!(
        "\nfleet telemetry ({} bytes as ropuf-metrics/v1):",
        telemetry.encode().len()
    );
    print!("{}", telemetry.render_text());
    let flagged_devices = report
        .runs
        .iter()
        .filter(|r| r.flagged_at_query.is_some())
        .count() as u64;
    assert_eq!(
        telemetry.histogram_samples("campaign.flag_latency_queries"),
        flagged_devices,
        "one flag-latency sample per flagged device"
    );

    // ── Registry snapshot roundtrip ────────────────────────────────
    let snapshot = verifier.snapshot_v2();
    let restored = Verifier::from_snapshot_v2(&snapshot, config).expect("own snapshot must load");
    let roundtrip_ok = restored.snapshot_v2() == snapshot
        && restored.registry().len() == verifier.registry().len();
    println!(
        "\nsnapshot: {} bytes (binary, layout v{}), reload roundtrip byte-identical: {roundtrip_ok}",
        snapshot.len(),
        ropuf_verifier::store::snapshot::VERSION
    );
    assert!(roundtrip_ok, "snapshot roundtrip violated");

    if let Some(path) = json_path {
        write_artifact(path, &report.to_json(false));
    }

    // The acceptance gate this demonstrator exists for.
    assert_eq!(benign_flagged, 0, "benign devices must never be flagged");
    assert!(
        registry_flags.is_empty(),
        "registry must hold no benign flags"
    );
    assert!(
        caught_pct >= 90.0,
        "detector must flag >= 90% of attacked devices before key recovery, got {caught_pct:.1}%"
    );
    println!("\nverdict: closed loop holds — every signal combination above is asserted, not just printed.");
}
