//! SHA-256 and HMAC-SHA256, implemented from scratch (FIPS 180-4 /
//! RFC 2104).
//!
//! Three consumers in the workspace:
//!
//! * the **verifier**, the hot one: every authentication hashes the
//!   presented helper data (the integrity check that flags a manipulated
//!   helper on its first query) and verifies an HMAC tag over the nonce
//!   with the device's cached [`HmacKey`];
//! * the **fuzzy extractor** reference construction (paper Section VII-A)
//!   compresses the noisy, non-uniform PUF response into a uniform key with
//!   a hash;
//! * the **device oracle** models "observable application behavior" by
//!   emitting an HMAC tag over an attacker-chosen nonce under the
//!   reconstructed key — the weakest observable consistent with the paper's
//!   attack model.
//!
//! Each 64-byte block goes through one of two compressors, picked at run
//! time from the CPU's reported features and never by configuration:
//!
//! * on x86-64 with the SHA extensions (`sha`, with SSSE3 and SSE4.1), a
//!   hardware kernel built on `sha256rnds2`, `sha256msg1` and
//!   `sha256msg2` — the crate's only `unsafe` code;
//! * everywhere else, the portable compressor, which is also the
//!   reference the tests pin the kernel to.
//!
//! Both give the same bytes, so digests and tags do not depend on the
//! machine.
//!
//! # Examples
//!
//! ```
//! use ropuf_hash::sha256;
//!
//! let digest = sha256(b"abc");
//! assert_eq!(
//!     hex(&digest),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! # fn hex(bytes: &[u8]) -> String {
//! #     bytes.iter().map(|b| format!("{b:02x}")).collect()
//! # }
//! ```

// `deny`, not `forbid`: the SHA-extensions kernel in `sha256::shani` is
// the sanctioned `#[allow(unsafe_code)]` island; everything else stays
// unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod hmac;
pub mod sha256;

pub use hmac::{hmac_sha256, HmacKey};
pub use sha256::{sha256, Sha256};
