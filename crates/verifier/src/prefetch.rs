//! Software prefetch hints for the auth step.
//!
//! This is the crate's only `unsafe` code. Serving an auth over a large
//! fleet misses cache on the device's registry entry and on its rate
//! window; [`Verifier`](crate::Verifier) asks for those lines before it
//! hashes, so the loads resolve during the digest and HMAC work instead
//! of stalling it. A hint changes no result: on targets other than
//! x86-64 these functions do nothing.

#![allow(unsafe_code)]

/// Cache line size assumed when walking a value's lines.
const LINE: usize = 64;

/// Asks the CPU to start loading every cache line `value` occupies.
#[inline(always)]
pub(crate) fn lines<T>(value: &T) {
    let start = std::ptr::from_ref(value).cast::<u8>();
    let size = std::mem::size_of::<T>();
    // From the line holding the first byte up to the one holding the
    // last. The addresses are only hints, so stepping outside `value`
    // with `wrapping_*` is fine.
    let mut line = start.wrapping_sub(start.addr() % LINE);
    let end = start.wrapping_add(size);
    while line < end {
        hint(line);
        line = line.wrapping_add(LINE);
    }
}

#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn hint(address: *const u8) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    // SAFETY: a prefetch is a hint: it never faults and reads nothing
    // into the program's state, whatever the address, so any pointer
    // is sound. `_mm_prefetch` needs SSE, which every x86-64 CPU has.
    unsafe { _mm_prefetch::<_MM_HINT_T0>(address.cast()) };
}

#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn hint(_address: *const u8) {}
