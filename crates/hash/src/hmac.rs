//! HMAC-SHA256 (RFC 2104), with a precomputed-midstate fast path.
//!
//! The key schedule of HMAC — hashing the ipad- and opad-masked key
//! blocks — depends only on the key, yet the naive formulation redoes
//! both compressions for every message. [`HmacKey`] computes the two
//! midstates once; [`HmacKey::tag`] then resumes a hasher from each
//! (a 32-byte copy) per message, halving the compression count for
//! short messages. This is what lets the verifier authenticate a
//! device without re-deriving the key schedule on every request.

use crate::sha256::Sha256;

/// A precomputed HMAC-SHA256 key schedule: the inner (ipad) and outer
/// (opad) SHA-256 midstates, computed once per key.
///
/// Only the two 32-byte chaining states are kept (64 bytes in all), not
/// two whole hashers with their empty block buffers: the verifier's
/// registry holds one `HmacKey` per enrolled device. Tagging a message
/// resumes a hasher from each midstate — a fixed-size stack copy, no
/// allocation — so a cached `HmacKey` turns per-message cost from
/// "4 compressions + key masking" into "2 compressions" for messages
/// that fit one block.
///
/// # Examples
///
/// ```
/// use ropuf_hash::{hmac_sha256, HmacKey};
///
/// let key = HmacKey::new(b"key");
/// let msg = b"The quick brown fox jumps over the lazy dog";
/// assert_eq!(key.tag(msg), hmac_sha256(b"key", msg));
/// ```
#[derive(Clone)]
pub struct HmacKey {
    /// SHA-256 chaining state after absorbing `key_block ^ ipad`.
    inner: [u32; 8],
    /// SHA-256 chaining state after absorbing `key_block ^ opad`.
    outer: [u32; 8],
}

/// Opaque on purpose: the midstates are forgery-equivalent to the key
/// (anyone holding both can tag arbitrary messages), so they must
/// never leak through a `{:?}` log or panic message.
impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HmacKey").finish_non_exhaustive()
    }
}

impl HmacKey {
    /// Precomputes the key schedule. Keys longer than the 64-byte
    /// SHA-256 block are hashed first, per RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; 64];
        if key.len() > 64 {
            let digest = crate::sha256::sha256(key);
            key_block[..32].copy_from_slice(&digest);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; 64];
        let mut opad = [0u8; 64];
        for i in 0..64 {
            ipad[i] = key_block[i] ^ 0x36;
            opad[i] = key_block[i] ^ 0x5c;
        }
        Self {
            inner: Sha256::one_block_midstate(&ipad),
            outer: Sha256::one_block_midstate(&opad),
        }
    }

    /// `HMAC-SHA256(key, message)` from the cached midstates.
    pub fn tag(&self, message: &[u8]) -> [u8; 32] {
        let mut inner = Sha256::resume_after_one_block(self.inner);
        inner.update(message);
        let inner_digest = inner.finalize();
        let mut outer = Sha256::resume_after_one_block(self.outer);
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// `true` when `tag` is the HMAC of `message` under this key.
    /// Constant-time over the tag bytes: the comparison inspects all
    /// 32 bytes regardless of where the first mismatch sits, so a
    /// network attacker cannot binary-search a valid tag through
    /// response timing.
    pub fn verify(&self, message: &[u8], tag: &[u8; 32]) -> bool {
        let expected = self.tag(message);
        let mut diff = 0u8;
        for (a, b) in expected.iter().zip(tag) {
            diff |= a ^ b;
        }
        diff == 0
    }
}

/// Computes `HMAC-SHA256(key, message)` in one shot (the reference
/// path: the full key schedule is re-derived per call — cache an
/// [`HmacKey`] instead when the key repeats).
///
/// # Examples
///
/// ```
/// use ropuf_hash::hmac_sha256;
///
/// let tag = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(
///     tag.iter().map(|b| format!("{b:02x}")).collect::<String>(),
///     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
/// );
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    HmacKey::new(key).tag(message)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let msg = [0xddu8; 50];
        let tag = hmac_sha256(&key, &msg);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn long_key_is_hashed_first() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn key_sensitivity() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }

    #[test]
    fn cached_midstate_is_reusable_across_messages() {
        let key = HmacKey::new(b"reused-key");
        for len in [0usize, 1, 55, 56, 63, 64, 65, 200] {
            let msg = vec![0x5Au8; len];
            assert_eq!(key.tag(&msg), hmac_sha256(b"reused-key", &msg), "len {len}");
        }
    }

    #[test]
    fn verify_accepts_only_the_right_tag() {
        let key = HmacKey::new(b"k");
        let mut tag = key.tag(b"m");
        assert!(key.verify(b"m", &tag));
        tag[0] ^= 1;
        assert!(!key.verify(b"m", &tag));
        assert!(!key.verify(b"other", &key.tag(b"m")));
    }

    #[test]
    fn key_is_two_midstates() {
        // One `HmacKey` per enrolled device: keep it at the two 32-byte
        // chaining states.
        assert_eq!(std::mem::size_of::<HmacKey>(), 64);
        assert_eq!(format!("{:?}", HmacKey::new(b"k")), "HmacKey { .. }");
    }

    #[test]
    fn long_key_midstate_matches_oneshot() {
        let key_bytes = [0xAAu8; 131];
        let key = HmacKey::new(&key_bytes);
        assert_eq!(key.tag(b"msg"), hmac_sha256(&key_bytes, b"msg"));
    }
}
