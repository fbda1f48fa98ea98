//! Property tests pinning the HMAC fast path to the reference path.
//!
//! The serving stack verifies every authentication tag through a
//! cached [`HmacKey`] midstate; these properties guarantee the cache
//! is pure optimization — for arbitrary key and message lengths
//! (including the >64-byte hash-the-key-first branch and every block
//! boundary), the cached path, the one-shot path, and an incremental
//! re-derivation all agree bit-for-bit. A release-only timing floor
//! then checks that the cache is actually used.

use std::hint::black_box;
use std::time::{Duration, Instant};

use proptest::collection::vec;
use proptest::prelude::*;
use ropuf_hash::{hmac_sha256, sha256, HmacKey, Sha256};

/// `HMAC-SHA256(key, message)` from RFC 2104's formula on the raw
/// hasher, `H((k ^ opad) || H((k ^ ipad) || m))`: the key schedule is
/// re-derived per call, and nothing goes through [`HmacKey`].
fn rfc2104_hmac(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut block = [0u8; 64];
    if key.len() > 64 {
        block[..32].copy_from_slice(&sha256(key));
    } else {
        block[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha256::new();
    inner.update(&block.map(|b| b ^ 0x36));
    inner.update(message);
    let mut outer = Sha256::new();
    outer.update(&block.map(|b| b ^ 0x5c));
    outer.update(&inner.finalize());
    outer.finalize()
}

/// Wall time of `iters` calls to `f`.
fn time(iters: usize, mut f: impl FnMut()) -> Duration {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed()
}

/// A cached key tags a 32-byte nonce from its two midstates (two
/// compressions); the one-shot HMAC re-derives the key schedule first
/// (four). The one-shot side is [`rfc2104_hmac`], not `hmac_sha256`:
/// that one is built on `HmacKey::tag` and would slow down with it.
/// Best of 5 rounds per side, so a noisy neighbour must slow every
/// cached round to fail the floor.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing floor; run with cargo test --release"
)]
fn cached_key_tags_at_least_1_3x_faster_than_one_shot() {
    const FLOOR: f64 = 1.3;
    let key = [0x4Bu8; 32];
    let nonce = [0xA5u8; 32];
    let cached = HmacKey::new(&key);
    let iters = 100_000;
    let mut cached_time = Duration::MAX;
    let mut one_shot_time = Duration::MAX;
    // Alternate the sides so drift in the machine's speed hits both.
    for _ in 0..5 {
        cached_time = cached_time.min(time(iters, || {
            black_box(cached.tag(black_box(&nonce)));
        }));
        one_shot_time = one_shot_time.min(time(iters, || {
            black_box(rfc2104_hmac(black_box(&key), black_box(&nonce)));
        }));
    }
    let speedup = one_shot_time.as_secs_f64() / cached_time.as_secs_f64();
    println!("cached HMAC: {speedup:.2}x the one-shot path (floor {FLOOR}x)");
    assert!(
        speedup >= FLOOR,
        "cached HMAC {speedup:.2}x the one-shot path, below the {FLOOR}x floor \
         (cached {cached_time:?}, one-shot {one_shot_time:?} per {iters} tags)"
    );
}

proptest! {
    /// Cached midstates == one-shot HMAC for arbitrary inputs.
    #[test]
    fn cached_midstate_equals_oneshot(
        key in vec(any::<u8>(), 0..200),
        message in vec(any::<u8>(), 0..300),
    ) {
        let cached = HmacKey::new(&key);
        prop_assert_eq!(cached.tag(&message), hmac_sha256(&key, &message));
    }

    /// One precomputed key serves many messages identically to
    /// re-deriving the schedule per message.
    #[test]
    fn one_key_many_messages(
        key in vec(any::<u8>(), 0..150),
        messages in vec(vec(any::<u8>(), 0..120), 1..8),
    ) {
        let cached = HmacKey::new(&key);
        for message in &messages {
            prop_assert_eq!(cached.tag(message), hmac_sha256(&key, message));
        }
    }

    /// HMAC against the RFC 2104 formula spelled out with the raw
    /// hasher: H((k ^ opad) || H((k ^ ipad) || m)).
    #[test]
    fn matches_rfc_formula(
        key in vec(any::<u8>(), 0..200),
        message in vec(any::<u8>(), 0..300),
    ) {
        prop_assert_eq!(rfc2104_hmac(&key, &message), hmac_sha256(&key, &message));
    }

    /// The rolling-schedule compressor agrees with itself across every
    /// way of splitting the input stream (exercises buffered partial
    /// blocks around the unrolled path).
    #[test]
    fn sha256_split_invariance(
        data in vec(any::<u8>(), 0..200),
        split_seed in any::<u64>(),
    ) {
        let reference = sha256(&data);
        let split = if data.is_empty() { 0 } else { (split_seed % data.len() as u64) as usize };
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), reference);
    }

    /// Tag verification accepts exactly the matching tag.
    #[test]
    fn verify_matches_equality(
        key in vec(any::<u8>(), 0..100),
        message in vec(any::<u8>(), 0..100),
        flip_byte in 0usize..32,
        flip_bit in 0u8..8,
    ) {
        let cached = HmacKey::new(&key);
        let mut tag = cached.tag(&message);
        prop_assert!(cached.verify(&message, &tag));
        tag[flip_byte] ^= 1 << flip_bit;
        prop_assert!(!cached.verify(&message, &tag));
    }
}
