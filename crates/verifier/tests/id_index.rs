//! The registry's open-addressed id index against a `HashMap` model.
//!
//! Random sequences of single and batched enrollments, over ids that
//! repeat (so duplicates arise against the registry and inside one
//! batch), ids that are multiples of 2^20 and arbitrary ids, drive
//! each shard's table through many growth boundaries. After every
//! step the registry must agree with the model on every answer:
//! duplicate verdicts, `len`, lookups, and membership. A registry
//! restored from its snapshot, whose tables are sized up front, must
//! agree too.

use std::collections::HashMap;

use proptest::prelude::*;
use ropuf_numeric::splitmix64;
use ropuf_verifier::{DetectorConfig, EnrollmentRecord, RegistryError, ShardedRegistry};

fn record(fill: u8) -> EnrollmentRecord {
    EnrollmentRecord {
        scheme_tag: b'L',
        helper: vec![fill; 3],
        key_digest: [fill; 32],
    }
}

/// An id from a random draw: half from a narrow range, so ids repeat,
/// a quarter multiples of 2^20, a quarter anything.
fn id_of(draw: u64) -> u64 {
    match draw % 4 {
        0 | 1 => (draw >> 2) % 96,
        2 => ((draw >> 2) % 4096) << 20,
        _ => draw >> 2,
    }
}

/// What the registry must answer for enrolling `id`, applying it to
/// the model.
fn expect_enroll(model: &mut HashMap<u64, u8>, id: u64, fill: u8) -> Result<(), RegistryError> {
    if model.contains_key(&id) {
        return Err(RegistryError::Duplicate { device_id: id });
    }
    model.insert(id, fill);
    Ok(())
}

/// The registry's view of `id`: the record's fill byte, if enrolled,
/// and whether the index resolves it.
fn lookup(registry: &ShardedRegistry, id: u64) -> (Option<u8>, bool) {
    (
        registry.record(id).map(|r| r.key_digest[0]),
        registry.handle(id).is_some(),
    )
}

proptest! {
    #[test]
    fn index_matches_a_hashmap_model_across_growth(
        ops in proptest::collection::vec(any::<u64>(), 1..120),
        shards in 1usize..4,
    ) {
        let registry = ShardedRegistry::new(shards, DetectorConfig::default());
        let mut model: HashMap<u64, u8> = HashMap::new();
        for (step, &op) in ops.iter().enumerate() {
            let fill = step as u8;
            let ids: Vec<u64> = if op % 3 == 0 {
                let size = 1 + (op >> 2) % 80;
                let ids: Vec<u64> = (0..size).map(|k| id_of(splitmix64(op ^ k))).collect();
                let batch = ids.iter().map(|&id| (id, record(fill))).collect();
                let results = registry.enroll_batch(batch);
                prop_assert_eq!(results.len(), ids.len());
                for (&id, result) in ids.iter().zip(&results) {
                    prop_assert_eq!(result, &expect_enroll(&mut model, id, fill));
                }
                ids
            } else {
                let id = id_of(op >> 2);
                prop_assert_eq!(registry.enroll(id, record(fill)), expect_enroll(&mut model, id, fill));
                vec![id]
            };
            prop_assert_eq!(registry.len(), model.len());
            for id in ids {
                prop_assert_eq!(lookup(&registry, id), (model.get(&id).copied(), true));
            }
        }
        // Every enrolled id resolves to its own record; ids never
        // enrolled resolve to nothing.
        for (&id, &fill) in &model {
            prop_assert_eq!(lookup(&registry, id), (Some(fill), true));
        }
        for probe in [u64::MAX, 97, 4096 << 20, 0xDEAD_BEEF_0000_0001] {
            if !model.contains_key(&probe) {
                prop_assert_eq!(lookup(&registry, probe), (None, false));
            }
        }
        // Handles stay dense per shard: shard s holds handles
        // 0..len(s), each exactly once.
        let mut handles: Vec<Vec<u32>> = vec![Vec::new(); registry.shard_count()];
        for &id in model.keys() {
            let (shard, handle) = registry.handle(id).expect("enrolled ids resolve");
            prop_assert_eq!(shard, registry.shard_of(id));
            handles[shard].push(handle);
        }
        for (shard, mut held) in handles.into_iter().enumerate() {
            held.sort_unstable();
            prop_assert_eq!(held.len(), registry.shard_lens()[shard]);
            prop_assert!(
                held.iter().enumerate().all(|(i, &h)| h as usize == i),
                "shard {} handles are not dense",
                shard
            );
        }
        // A restore sizes each shard's table up front instead of
        // growing it; it must answer exactly the same.
        let restored =
            ShardedRegistry::from_snapshot_v2(&registry.snapshot_v2(), DetectorConfig::default())
                .expect("own snapshot loads");
        prop_assert_eq!(restored.shard_lens(), registry.shard_lens());
        for (&id, &fill) in &model {
            prop_assert_eq!(lookup(&restored, id), (Some(fill), true));
        }
        for probe in [u64::MAX, 97, 4096 << 20, 0xDEAD_BEEF_0000_0001] {
            if !model.contains_key(&probe) {
                prop_assert_eq!(lookup(&restored, probe), (None, false));
            }
        }
    }
}
