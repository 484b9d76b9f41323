//! CRC-64/WE over byte slices: the ECMA-182 polynomial, MSB-first,
//! initial value and final xor of all-ones (check value
//! `0x62EC_59E3_F1A4_F00A` over `b"123456789"`).
//!
//! Every log frame, snapshot file and wire frame is checked by this one
//! function, so its speed is paid on the read path, the write path,
//! checkpoints and recovery alike. A served read pays it twice over its
//! answer: once when the server seals the response and once when the
//! client checks it.
//!
//! [`crc64`] has one table step and one folding kernel over it:
//!
//! * **Folding** (Gopal et al., "Fast CRC Computation for Generic
//!   Polynomials Using PCLMULQDQ Instruction", Intel, 2009). An input of
//!   `FOLD_MIN` (128) bytes or more, on a CPU that reports `pclmulqdq` and
//!   `ssse3`, is read as four 16-byte lanes that each move 512 bits down
//!   the message per step by two carry-less multiplies with
//!   `x^576 mod P` and `x^512 mod P`. The lanes then merge into one
//!   128-bit remainder, which is congruent to the message modulo the
//!   polynomial, so the table step finishes it from a zero register
//!   together with the last `< 16` bytes. std caches the feature test.
//! * **Slice-by-8** (Kounavis & Berry, ISCC 2005). Eight independent
//!   table lookups per 8-byte word. It is the step the fold finishes
//!   with, the whole path for short frames (most log records and
//!   requests), and the only path on a CPU without carry-less multiply.
//!
//! Both produce the value of the byte-at-a-time table loop, so no byte on
//! disk or on the wire depends on which one ran. Release build on a
//! 2-vCPU Xeon, `crc64` folding at these sizes (`kernel_speed` below,
//! best of 5):
//!
//! | input     | `slice8`   | `crc64`    |
//! |-----------|------------|------------|
//! | 4,096 B   | 0.711 ns/B | 0.046 ns/B |
//! | 55,000 B  | 0.718 ns/B | 0.045 ns/B |
//! | 131,000 B | 0.717 ns/B | 0.046 ns/B |
//! | 14.1 MB   | 0.728 ns/B | 0.066 ns/B |
//!
//! so a mean `read-mostly` answer (131 KB) costs ≈6 µs a pass instead of
//! ≈94 µs, and a 14.1 MB snapshot ≈0.9 ms instead of ≈10 ms.
//!
//! Hand-rolled because the build environment has no registry access; the
//! adversary is a crashed `write(2)` or a damaged frame, not an attacker.

/// The ECMA-182 generator polynomial (normal form).
const POLY: u64 = 0x42F0_E1EB_A9EA_3693;

/// The 256-entry one-byte lookup table, computed at compile time.
const TABLE: [u64; 256] = build_table();

/// Slice-by-8 tables: `TABLES[k][b]` is the register contribution of byte
/// `b` followed by `k` zero bytes, so `TABLES[0]` is [`TABLE`].
const TABLES: [[u64; 256]; 8] = build_tables();

/// Inputs at least this long are folded where the CPU can. Shorter ones,
/// most log records and requests, take the table path: under 90 ns each.
const FOLD_MIN: usize = 128;

const fn build_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u64) << 56;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & (1 << 63) != 0 {
                (crc << 1) ^ POLY
            } else {
                crc << 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const fn build_tables() -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    tables[0] = TABLE;
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            tables[k][i] = step(tables[k - 1][i], 0);
            i += 1;
        }
        k += 1;
    }
    tables
}

/// `x^n mod P`, the 64 low coefficients (the `x^64` term of `P` implied).
const fn xpow_mod(n: u32) -> u64 {
    let mut r = 1u64;
    let mut i = 0;
    while i < n {
        r = if r & (1 << 63) != 0 {
            (r << 1) ^ POLY
        } else {
            r << 1
        };
        i += 1;
    }
    r
}

/// `[x^(d+64) mod P, x^d mod P]`: multiplying a 128-bit lane's high and
/// low halves by these and adding the products carries the lane `d` bits
/// further down the message.
const fn fold_by(d: u32) -> [u64; 2] {
    [xpow_mod(d + 64), xpow_mod(d)]
}

const FOLD_512: [u64; 2] = fold_by(512);
const FOLD_384: [u64; 2] = fold_by(384);
const FOLD_256: [u64; 2] = fold_by(256);
const FOLD_128: [u64; 2] = fold_by(128);

/// Folds one byte into the register.
const fn step(crc: u64, b: u8) -> u64 {
    TABLE[((crc >> 56) as u8 ^ b) as usize] ^ (crc << 8)
}

/// CRC-64/WE of `bytes` (initial value and final xor of all-ones, so
/// leading zero bytes and the empty input all checksum distinctly).
#[must_use]
pub fn crc64(bytes: &[u8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= FOLD_MIN
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("ssse3")
    {
        // SAFETY: `fold` is compiled for exactly these two features, and
        // both were detected on this CPU just above.
        return unsafe { fold(bytes) } ^ u64::MAX;
    }
    slice8(u64::MAX, bytes) ^ u64::MAX
}

/// Runs the register `crc` over `bytes` eight bytes per step.
fn slice8(mut crc: u64, bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    for word in words {
        let x = crc ^ u64::from_be_bytes(*word);
        crc = TABLES[7][(x >> 56) as usize]
            ^ TABLES[6][(x >> 48) as u8 as usize]
            ^ TABLES[5][(x >> 40) as u8 as usize]
            ^ TABLES[4][(x >> 32) as u8 as usize]
            ^ TABLES[3][(x >> 24) as u8 as usize]
            ^ TABLES[2][(x >> 16) as u8 as usize]
            ^ TABLES[1][(x >> 8) as u8 as usize]
            ^ TABLES[0][x as u8 as usize];
    }
    for &b in tail {
        crc = step(crc, b);
    }
    crc
}

/// The register after `bytes` from the all-ones start, by carry-less
/// multiplication: what `slice8(u64::MAX, bytes)` returns.
///
/// Lanes are loaded big-endian, so bit `i` of a lane is the coefficient of
/// `x^i` and no bit reflection is needed. The all-ones start is the
/// message with its first 64 bits inverted.
///
/// # Safety
///
/// The CPU must support `pclmulqdq` and `ssse3`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,ssse3")]
unsafe fn fold(bytes: &[u8]) -> u64 {
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_loadu_si128, _mm_set_epi64x, _mm_set_epi8,
        _mm_shuffle_epi8, _mm_storeu_si128, _mm_xor_si128,
    };

    let (blocks, tail) = bytes.as_chunks::<16>();
    let (groups, rest) = blocks.as_chunks::<4>();
    let Some((first, groups)) = groups.split_first() else {
        return slice8(u64::MAX, bytes);
    };

    let swap = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let load = |block: &[u8; 16]| {
        // SAFETY: `loadu` has no alignment requirement and reads the 16
        // bytes `block` borrows.
        let lane = unsafe { _mm_loadu_si128(block.as_ptr().cast()) };
        _mm_shuffle_epi8(lane, swap)
    };
    let constants = |[hi, lo]: [u64; 2]| _mm_set_epi64x(hi as i64, lo as i64);
    let carry = |lane: __m128i, k: __m128i| {
        _mm_xor_si128(
            _mm_clmulepi64_si128(lane, k, 0x11),
            _mm_clmulepi64_si128(lane, k, 0x00),
        )
    };

    let mut lanes = first.each_ref().map(load);
    // The all-ones start: the message's first 64 bits inverted.
    lanes[0] = _mm_xor_si128(lanes[0], _mm_set_epi64x(-1, 0));
    let by_512 = constants(FOLD_512);
    for group in groups {
        for (lane, block) in lanes.iter_mut().zip(group) {
            *lane = _mm_xor_si128(carry(*lane, by_512), load(block));
        }
    }
    // Carry the first three lanes on to where the fourth ends.
    let [a, b, c, d] = lanes;
    let by_128 = constants(FOLD_128);
    let mut acc = _mm_xor_si128(
        _mm_xor_si128(carry(a, constants(FOLD_384)), carry(b, constants(FOLD_256))),
        _mm_xor_si128(carry(c, by_128), d),
    );
    for block in rest {
        acc = _mm_xor_si128(carry(acc, by_128), load(block));
    }

    // `acc` is congruent to the message so far, so the table step run
    // over it from a zero register leaves the message's register.
    let mut remainder = [0u8; 16];
    // SAFETY: `storeu` has no alignment requirement and writes the 16
    // bytes of `remainder`.
    unsafe { _mm_storeu_si128(remainder.as_mut_ptr().cast(), _mm_shuffle_epi8(acc, swap)) };
    slice8(slice8(0, &remainder), tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop both kernels replaced: the reference every
    /// kernel value is checked against.
    fn reference_crc64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(u64::MAX, |crc, &b| step(crc, b)) ^ u64::MAX
    }

    /// A fixed xorshift byte stream, so failures reproduce.
    fn pseudo_random(len: usize) -> Vec<u8> {
        seeded_bytes(0x9E37_79B9_7F4A_7C15, len)
    }

    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    /// Lengths up to 16 KiB, half of them one byte either side of a place
    /// where the fold changes what it does: its 128-byte threshold, a
    /// 64-byte group edge or a 16-byte block edge.
    fn lengths() -> impl Strategy<Value = usize> {
        let near = |unit: usize| {
            (1..=16_384 / unit, 0..=2usize).prop_map(move |(k, d)| (k * unit + d - 1).min(16_384))
        };
        prop_oneof![
            0..=16_384usize,
            0..=16_384usize,
            0..=16_384usize,
            prop::sample::select(vec![127, 128, 129]),
            near(64),
            near(16),
        ]
    }

    #[test]
    fn known_answer_is_crc64_we() {
        assert_eq!(crc64(b"123456789"), 0x62EC_59E3_F1A4_F00A);
        assert_eq!(reference_crc64(b"123456789"), 0x62EC_59E3_F1A4_F00A);
        assert_eq!(
            slice8(u64::MAX, b"123456789") ^ u64::MAX,
            0x62EC_59E3_F1A4_F00A
        );
    }

    #[test]
    fn fold_constants_are_powers_of_x() {
        assert_eq!(xpow_mod(0), 1);
        assert_eq!(xpow_mod(63), 1 << 63);
        assert_eq!(xpow_mod(64), POLY);
        // x^(a+b) = x^a · x^b: one multiply-and-reduce through the table.
        assert_eq!(xpow_mod(72), step(POLY, 0));
    }

    /// Every length up to 16 KiB at every 16-byte misalignment, against
    /// the byte loop run once per offset.
    #[test]
    fn kernel_matches_the_byte_loop_at_every_length_and_offset() {
        const MAX: usize = 16_384;
        let buf = pseudo_random(MAX + 16);
        for start in 0..16 {
            let mut register = u64::MAX;
            for len in 0..=MAX {
                let bytes = &buf[start..start + len];
                assert_eq!(crc64(bytes), register ^ u64::MAX, "start {start} len {len}");
                if len < MAX {
                    register = step(register, buf[start + len]);
                }
            }
        }
    }

    /// Both kernels are pinned to a value the byte loop computed, not
    /// only to each other.
    #[test]
    fn a_mebibyte_checksums_to_its_pinned_value() {
        const PINNED: u64 = 0x06D2_E92E_43BA_9E51;
        let big = pseudo_random(1 << 20);
        assert_eq!(reference_crc64(&big), PINNED);
        assert_eq!(crc64(&big), PINNED);
        assert_eq!(slice8(u64::MAX, &big) ^ u64::MAX, PINNED);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn crc64_equals_the_byte_loop(
            len in lengths(),
            start in 0..16usize,
            seed in any::<u64>(),
        ) {
            let buf = seeded_bytes(seed, start + len);
            let bytes = &buf[start..];
            prop_assert_eq!(crc64(bytes), reference_crc64(bytes), "start {} len {}", start, len);
        }

        /// The table path on its own, from any register: the fallback on a
        /// CPU without carry-less multiply, and the fold's finish from 0.
        #[test]
        fn slice8_equals_the_byte_loop_from_any_register(
            len in lengths(),
            start in 0..16usize,
            seed in any::<u64>(),
            register in any::<u64>(),
        ) {
            let buf = seeded_bytes(seed, start + len);
            let bytes = &buf[start..];
            let expected = bytes.iter().fold(register, |crc, &b| step(crc, b));
            prop_assert_eq!(slice8(register, bytes), expected, "start {} len {}", start, len);
        }
    }

    /// ns/byte of each kernel at a page, a mid-size and a mean
    /// `read-mostly` answer, and a large snapshot. Run in release:
    /// `cargo test --release -p eve-store --lib checksum::tests::kernel_speed -- --ignored --nocapture`
    #[test]
    #[ignore = "timing: prints ns/byte, asserts nothing"]
    fn kernel_speed() {
        use std::hint::black_box;
        use std::time::Instant;
        for len in [4_096, 55_000, 131_000, 14_100_000] {
            let bytes = pseudo_random(len);
            let reps = (1 << 24) / len + 1;
            let best = |kernel: &dyn Fn(&[u8]) -> u64| {
                (0..5)
                    .map(|_| {
                        let started = Instant::now();
                        for _ in 0..reps {
                            black_box(kernel(black_box(&bytes)));
                        }
                        started.elapsed().as_secs_f64() * 1e9 / (reps * len) as f64
                    })
                    .fold(f64::INFINITY, f64::min)
            };
            let table = best(&|b| slice8(u64::MAX, b));
            let folded = best(&|b| crc64(b));
            println!("{len:>10} B  slice8 {table:.3} ns/B  crc64 {folded:.3} ns/B");
        }
    }

    #[test]
    fn empty_input_is_stable() {
        assert_eq!(crc64(&[]), crc64(&[]));
        assert_ne!(crc64(&[]), crc64(&[0]));
    }

    #[test]
    fn deterministic_and_sensitive() {
        let a = crc64(b"evolution log record");
        assert_eq!(a, crc64(b"evolution log record"));
        assert_ne!(a, crc64(b"evolution log recorD"));
        assert_ne!(a, crc64(b"evolution log recor"));
        assert_ne!(crc64(&[0]), crc64(&[0, 0]), "length-extension sensitive");
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base = b"0123456789abcdef".to_vec();
        let reference = crc64(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc64(&flipped), reference, "byte {byte} bit {bit}");
            }
        }
    }
}
