//! SHA-256 (FIPS 180-4) with an incremental API.
//!
//! Every block goes through one compressor, picked per call from the
//! CPU's reported features: on x86-64 with the SHA extensions it is the
//! hardware kernel in `shani`, everywhere else `compress_portable`.
//! The two are bit-identical; the tests pin the kernel to the portable
//! path and run the standard vectors through both.

#[cfg(target_arch = "x86_64")]
mod shani;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use ropuf_hash::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), ropuf_hash::sha256(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self::resume(H0, 0)
    }

    /// The chaining state after absorbing exactly `block` from the
    /// initial value: what an HMAC key schedule caches.
    pub(crate) fn one_block_midstate(block: &[u8; 64]) -> [u32; 8] {
        let mut state = H0;
        compress(&mut state, block);
        state
    }

    /// Resumes from a [`Self::one_block_midstate`], as if that block had
    /// just been absorbed.
    pub(crate) fn resume_after_one_block(midstate: [u32; 8]) -> Self {
        Self::resume(midstate, 64)
    }

    fn resume(state: [u32; 8], total_len: u64) -> Self {
        Self {
            state,
            buffer: [0; 64],
            buffer_len: 0,
            total_len,
        }
    }

    /// Absorbs bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress);
    }

    /// Finishes and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        self.finalize_with(compress)
    }

    /// [`Self::update`] through the compressor `compress`. Whole blocks
    /// are compressed straight from `data`; only a partial tail is
    /// buffered.
    fn update_with(&mut self, mut data: &[u8], compress: impl Fn(&mut [u32; 8], &[u8; 64])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(
                &mut self.state,
                block
                    .try_into()
                    .expect("chunks_exact yields 64-byte blocks"),
            );
        }
        let tail = blocks.remainder();
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// [`Self::finalize`] through the compressor `compress`. The padding
    /// is written into the buffered block in one step: the `0x80`
    /// marker, zeros, and the big-endian bit length in the last 8
    /// bytes. When fewer than 9 bytes are left after the message, the
    /// length spills into a second, otherwise zero block.
    fn finalize_with(mut self, compress: impl Fn(&mut [u32; 8], &[u8; 64])) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        let n = self.buffer_len;
        self.buffer[n] = 0x80;
        self.buffer[n + 1..].fill(0);
        if n >= 56 {
            compress(&mut self.state, &self.buffer);
            self.buffer = [0; 64];
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);
        let mut out = [0u8; 32];
        for (i, s) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&s.to_be_bytes());
        }
        out
    }
}

/// One compression on the hardware kernel when this CPU has the SHA
/// extensions, on [`compress_portable`] otherwise.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if shani::try_compress(state, block) {
        return;
    }
    compress_portable(state, block);
}

/// The portable compressor: one compression over a 64-byte block with
/// a rolling 16-word message schedule. `w` holds only the live window
/// instead of the classic 256-byte expansion, and the 64 rounds run as
/// 8 unrolled groups of 8 so the working variables never rotate through
/// a shift chain. The whole function is stack-only. It is the only path
/// on CPUs without the SHA extensions and the reference the hardware
/// kernel is tested against.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (i, word) in w.iter_mut().enumerate() {
        *word = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    /// One round with explicit variable roles — instantiated with the
    /// variables rotated at the call site, so the compiler keeps all
    /// eight in registers with no shuffling between rounds.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $k:expr, $wi:expr) => {
            let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
            let ch = ($e & $f) ^ (!$e & $g);
            let temp1 = $h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add($k)
                .wrapping_add($wi);
            let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
            let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
            $d = $d.wrapping_add(temp1);
            $h = temp1.wrapping_add(s0.wrapping_add(maj));
        };
    }

    /// Eight rounds (one full rotation of the working variables)
    /// against schedule words `base..base + 8`.
    macro_rules! octet {
        ($base:expr) => {
            round!(a, b, c, d, e, f, g, h, K[$base], w[$base % 16]);
            round!(h, a, b, c, d, e, f, g, K[$base + 1], w[($base + 1) % 16]);
            round!(g, h, a, b, c, d, e, f, K[$base + 2], w[($base + 2) % 16]);
            round!(f, g, h, a, b, c, d, e, K[$base + 3], w[($base + 3) % 16]);
            round!(e, f, g, h, a, b, c, d, K[$base + 4], w[($base + 4) % 16]);
            round!(d, e, f, g, h, a, b, c, K[$base + 5], w[($base + 5) % 16]);
            round!(c, d, e, f, g, h, a, b, K[$base + 6], w[($base + 6) % 16]);
            round!(b, c, d, e, f, g, h, a, K[$base + 7], w[($base + 7) % 16]);
        };
    }

    /// Advances the rolling schedule window by 16 words in place.
    macro_rules! expand {
        () => {
            for i in 0..16usize {
                let w15 = w[(i + 1) % 16];
                let w2 = w[(i + 14) % 16];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[i] = w[i]
                    .wrapping_add(s0)
                    .wrapping_add(w[(i + 9) % 16])
                    .wrapping_add(s1);
            }
        };
    }

    octet!(0);
    octet!(8);
    expand!();
    octet!(16);
    octet!(24);
    expand!();
    octet!(32);
    octet!(40);
    expand!();
    octet!(48);
    octet!(56);

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// SHA-256 through the portable compressor alone, whatever the CPU,
    /// so the fallback stays covered on machines with SHA extensions.
    fn sha256_portable(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update_with(data, compress_portable);
        h.finalize_with(compress_portable)
    }

    /// FIPS 180-4 §5.1.1 padding spelled out on a copy of the whole
    /// message, independent of `finalize`'s in-place padding, then the
    /// portable compressor over every block.
    fn sha256_reference(data: &[u8]) -> [u8; 32] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(64) {
            compress_portable(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Checks `data` against a published digest on both paths.
    fn assert_vector(data: &[u8], expected: &str) {
        assert_eq!(hex(&sha256(data)), expected, "dispatched compressor");
        assert_eq!(hex(&sha256_portable(data)), expected, "portable compressor");
    }

    #[test]
    fn fips_vector_empty() {
        assert_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a() {
        let expected = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        let mut dispatched = Sha256::new();
        let mut portable = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            dispatched.update(&chunk);
            portable.update_with(&chunk, compress_portable);
        }
        assert_eq!(hex(&dispatched.finalize()), expected);
        assert_eq!(hex(&portable.finalize_with(compress_portable)), expected);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn kernel_matches_portable_on_random_blocks() {
        // splitmix64: seeded, so a failing pair replays.
        let mut x = 0x5eed_5a25_6000_0001u64;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for pair in 0..10_000 {
            let mut state = [0u32; 8];
            for word in &mut state {
                *word = next() as u32;
            }
            let mut block = [0u8; 64];
            for bytes in block.chunks_exact_mut(8) {
                bytes.copy_from_slice(&next().to_le_bytes());
            }
            let mut expected = state;
            compress_portable(&mut expected, &block);
            if !shani::try_compress(&mut state, &block) {
                eprintln!("this CPU lacks the SHA extensions: the kernel is not exercised");
                return;
            }
            assert_eq!(state, expected, "pair {pair}");
        }
    }

    #[test]
    fn incremental_matches_oneshot_all_split_points() {
        let data: Vec<u8> = (0..200u8).collect();
        let reference = sha256(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), reference, "split {split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Every padding offset over two blocks and a bit: lengths with
        // `len % 64` in 56..=63 spill the bit length into a second block.
        for len in 0..=130usize {
            let data: Vec<u8> = (0..len)
                .map(|i| (i as u8).wrapping_mul(31) ^ 0x5a)
                .collect();
            let expected = sha256_reference(&data);
            assert_eq!(sha256(&data), expected, "len {len}");
            assert_eq!(sha256_portable(&data), expected, "len {len}, portable");
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), expected, "len {len}, byte at a time");
        }
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(sha256(b"a"), sha256(b"b"));
    }
}
