//! SHA-256 compression on the x86-64 SHA extensions.
//!
//! This is the crate's only `unsafe` code. [`compress`] follows the
//! instruction sequence of Intel's SHA Extensions paper (Gulley et al.,
//! 2013): the state lives in two registers ordered `ABEF` and `CDGH`,
//! each `sha256rnds2` runs two rounds, and `sha256msg1`/`sha256msg2`
//! expand the message schedule four words at a time. The kernel takes
//! `&mut [u32; 8]` and `&[u8; 64]`, so every load and store it makes is
//! in bounds by type.
//!
//! [`try_compress`] is the only caller: it runs the kernel when the CPU
//! reports every feature the kernel is compiled for, and otherwise
//! leaves the block to the portable compressor, which the tests pin this
//! kernel to.

#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
    _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
    _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
};

use super::K;

/// Compresses `block` into `state` on the SHA extensions and returns
/// `true`; on a CPU without them returns `false` and leaves `state` as
/// it was. `is_x86_feature_detected!` caches CPUID after its first
/// call, so the check costs a few loads.
pub(super) fn try_compress(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
    if !(is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1"))
    {
        return false;
    }
    // SAFETY: the CPU has just reported `sha`, `ssse3` and `sse4.1`, and
    // `sse2` is part of every x86-64 CPU: together these are every
    // target feature `compress` enables.
    unsafe { compress(state, block) };
    true
}

/// One SHA-256 compression of `block` into `state`, bit-identical to
/// the portable compressor.
///
/// # Safety
///
/// The CPU must support the `sha`, `sse2`, `ssse3` and `sse4.1` target
/// features; calling this on one that does not is undefined behaviour.
/// [`try_compress`] checks them before each call.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    // Byte-swaps each 32-bit lane: the message words are big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    let s = state.as_mut_ptr().cast::<__m128i>();
    let m = block.as_ptr().cast::<__m128i>();
    // SAFETY: `state` is 32 bytes and `block` 64, so the unaligned
    // 16-byte loads at offsets 0 and 16 of `state` and 0, 16, 32 and 48
    // of `block` all stay inside them.
    let (dcba, hgfe, mut w0, mut w1, mut w2, mut w3) = unsafe {
        (
            _mm_loadu_si128(s),
            _mm_loadu_si128(s.add(1)),
            _mm_shuffle_epi8(_mm_loadu_si128(m), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(m.add(1)), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(m.add(2)), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(m.add(3)), bswap),
        )
    };

    // Lanes are named from the highest down: `dcba` holds `a` in lane 0.
    let cdab = _mm_shuffle_epi32(dcba, 0xb1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
    let (abef_in, cdgh_in) = (abef, cdgh);

    /// Rounds `4i..4i + 4` on schedule words `w`: each `sha256rnds2`
    /// takes the two low lanes of `w + K`, and its result is the next
    /// `ABEF`, so the two state registers swap roles between the calls.
    macro_rules! rounds4 {
        ($w:expr, $i:expr) => {
            let wk = _mm_add_epi32(
                $w,
                _mm_set_epi32(
                    K[4 * $i + 3] as i32,
                    K[4 * $i + 2] as i32,
                    K[4 * $i + 1] as i32,
                    K[4 * $i] as i32,
                ),
            );
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
        };
    }

    /// Replaces the oldest four schedule words `$w0` with the next four
    /// (`W[t-16] + σ0(W[t-15]) + W[t-7] + σ1(W[t-2])`), then runs their
    /// rounds.
    macro_rules! schedule_rounds4 {
        ($w0:ident, $w1:ident, $w2:ident, $w3:ident, $i:expr) => {
            $w0 = _mm_sha256msg2_epu32(
                _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
                $w3,
            );
            rounds4!($w0, $i);
        };
    }

    rounds4!(w0, 0);
    rounds4!(w1, 1);
    rounds4!(w2, 2);
    rounds4!(w3, 3);
    schedule_rounds4!(w0, w1, w2, w3, 4);
    schedule_rounds4!(w1, w2, w3, w0, 5);
    schedule_rounds4!(w2, w3, w0, w1, 6);
    schedule_rounds4!(w3, w0, w1, w2, 7);
    schedule_rounds4!(w0, w1, w2, w3, 8);
    schedule_rounds4!(w1, w2, w3, w0, 9);
    schedule_rounds4!(w2, w3, w0, w1, 10);
    schedule_rounds4!(w3, w0, w1, w2, 11);
    schedule_rounds4!(w0, w1, w2, w3, 12);
    schedule_rounds4!(w1, w2, w3, w0, 13);
    schedule_rounds4!(w2, w3, w0, w1, 14);
    schedule_rounds4!(w3, w0, w1, w2, 15);

    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);

    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    // SAFETY: the same two in-bounds 16-byte halves of `state` as above.
    unsafe {
        _mm_storeu_si128(s, _mm_blend_epi16(feba, dchg, 0xf0));
        _mm_storeu_si128(s.add(1), _mm_alignr_epi8(dchg, feba, 8));
    }
}
