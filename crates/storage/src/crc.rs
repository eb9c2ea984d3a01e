//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) — the checksum guarding
//! every frame of the log and of a checkpoint. Implemented in-tree so
//! the storage crate stays dependency-free. Every byte a recovery reads
//! passes through it (a checkpoint load checksums each frame before it
//! decodes a field of it), so it runs in one of two tiers, chosen once
//! per process from the CPU:
//!
//! * **Portable** — table-driven *slicing-by-8*: eight table lookups fold
//!   eight input bytes per step instead of one lookup per byte. It is
//!   the only tier off x86-64, the reference the other is tested
//!   against, and the carry-less tier's code for inputs under 64 bytes
//!   and for the tail behind its last 16-byte block.
//! * **Carry-less** (x86-64 with PCLMULQDQ and SSE4.1) — four 128-bit
//!   accumulators each fold 16 bytes per step by carry-less
//!   multiplication with `x^(4·128±32) mod P`, are folded into one, and
//!   that one is reduced to 32 bits by a Barrett reduction (Gopal et
//!   al., *Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//!   Instruction*, Intel, 2009).
//!
//! Both compute the same polynomial, so every value — and every byte of
//! a log or checkpoint — is the same whichever tier ran.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
/// the CRC contribution of byte `b` followed by `k` zero bytes, so the
/// eight bytes of one step are looked up independently and XORed.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32; // exact: `i < 256`
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `bytes` (IEEE, reflected, init and final XOR `!0`).
pub fn crc32(bytes: &[u8]) -> u32 {
    // SAFETY: `Tier::best` names the carry-less tier only after
    // detecting PCLMULQDQ and SSE4.1.
    !unsafe { update_on(Tier::best(), !0, bytes) }
}

/// The instruction tiers, worst to best.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Clmul,
}

impl Tier {
    /// The best tier this CPU runs, detected once per process.
    #[inline]
    fn best() -> Tier {
        #[cfg(target_arch = "x86_64")]
        if clmul_detected() {
            return Tier::Clmul;
        }
        Tier::Portable
    }
}

/// Whether the CPU supports PCLMULQDQ and SSE4.1 (detected once,
/// cached): the gate of the carry-less tier.
#[cfg(target_arch = "x86_64")]
#[inline]
fn clmul_detected() -> bool {
    use std::sync::OnceLock;
    static CLMUL: OnceLock<bool> = OnceLock::new();
    *CLMUL.get_or_init(|| {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    })
}

/// Folds `bytes` into the running CRC register `crc` (the value before
/// the final XOR) on `tier`.
///
/// # Safety
///
/// `tier` must be [`Tier::Portable`] or [`Tier::best`].
unsafe fn update_on(tier: Tier, crc: u32, bytes: &[u8]) -> u32 {
    // SAFETY: the caller vouches that the CPU supports `tier`.
    unsafe {
        match tier {
            Tier::Portable => slicing_by_8(crc, bytes),
            #[cfg(target_arch = "x86_64")]
            Tier::Clmul => clmul::fold_by_4(crc, bytes),
        }
    }
}

/// The portable tier: folds `bytes` into the register `crc`, eight
/// bytes per step and the last 0–7 one at a time.
fn slicing_by_8(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = u32::from_le_bytes([word[0], word[1], word[2], word[3]]) ^ crc;
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// The carry-less tier. Everything is bit-reflected, as the CRC is: a
/// constant `[x^n mod P]' << 1` is the 32-bit reflection of
/// `x^n mod P`, shifted so that the 64-bit product of a reflected
/// operand lands where the next fold reads it.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Folds an accumulator four blocks (512 bits) forward:
    /// `[x^(4·128+32) mod P]' << 1` for its low half, `[x^(4·128−32)
    /// mod P]' << 1` for its high half.
    pub(super) const K1: u64 = 0x1_5444_2bd4;
    pub(super) const K2: u64 = 0x1_c6e4_1596;
    /// Folds an accumulator one block (128 bits) forward: `[x^(128+32)
    /// mod P]' << 1` and `[x^(128−32) mod P]' << 1`.
    pub(super) const K3: u64 = 0x1_7519_97d0;
    pub(super) const K4: u64 = 0x0_ccaa_009e;
    /// Reduces 96 bits to 64: `[x^64 mod P]' << 1`.
    pub(super) const K5: u64 = 0x1_63cd_6124;
    /// The polynomial with its `x^32` term, reflected over 33 bits.
    pub(super) const P: u64 = 0x1_db71_0641;
    /// Barrett's `μ = x^64 div P`, reflected over 33 bits.
    pub(super) const MU: u64 = 0x1_f701_1641;

    /// Bytes of one accumulator step: four 16-byte blocks.
    const STEP: usize = 64;

    /// Folds `bytes` into the register `crc` as the portable tier does.
    /// Inputs under [`STEP`] bytes, and the 0–15 bytes behind the last
    /// 16-byte block, go to the portable tier.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ and SSE4.1.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn fold_by_4(crc: u32, bytes: &[u8]) -> u32 {
        if bytes.len() < STEP {
            return super::slicing_by_8(crc, bytes);
        }
        let (blocks, tail) = bytes.as_chunks::<16>();
        // SAFETY: `_mm_loadu_si128` reads 16 bytes with no alignment
        // requirement, and `block` is 16 bytes long.
        let load = |block: &[u8; 16]| unsafe { _mm_loadu_si128(block.as_ptr().cast::<__m128i>()) };
        let (first, rest) = blocks.split_at(4);
        let mut acc: [__m128i; 4] = std::array::from_fn(|k| load(&first[k]));
        // The register is XORed into the first four bytes of the input,
        // the low lane of the first block (`cvtsi32`'s sign is
        // irrelevant: it fills the lane bit for bit).
        acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(crc as i32));

        let k1k2 = _mm_set_epi64x(K2 as i64, K1 as i64);
        let mut steps = rest.chunks_exact(4);
        for step in &mut steps {
            for (acc, block) in acc.iter_mut().zip(step) {
                *acc = fold(*acc, load(block), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4 as i64, K3 as i64);
        let mut x = acc[0];
        for &next in &acc[1..] {
            x = fold(x, next, k3k4);
        }
        for block in steps.remainder() {
            x = fold(x, load(block), k3k4);
        }

        // 128 bits to 96: the low half times `x^(128−32)` onto the high.
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        // 96 bits to 64: the low 32 bits times `x^64` onto the rest.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let k5 = _mm_set_epi64x(0, K5 as i64);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: `T1 = (x mod x^32)·μ`, `T2 = (T1 mod x^32)·P`, and
        // the register is the upper 32 bits of `x ⊕ T2`.
        let pu = _mm_set_epi64x(MU as i64, P as i64);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::slicing_by_8(crc, tail)
    }

    /// `acc` carried forward by the distance `keys` encode, onto `next`:
    /// its low half times `keys`' low, its high half times `keys`' high.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(next, _mm_xor_si128(lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook byte-at-a-time loop over the same table: the
    /// reference both tiers must reproduce exactly.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// The tiers this CPU runs, worst to best.
    fn tiers() -> Vec<Tier> {
        let mut tiers = vec![Tier::Portable];
        if Tier::best() != Tier::Portable {
            tiers.push(Tier::best());
        }
        tiers
    }

    /// CRC-32 of `bytes` on a chosen tier.
    fn crc32_on(tier: Tier, bytes: &[u8]) -> u32 {
        // SAFETY: `tiers()` yields only `Tier::Portable` and `Tier::best()`.
        !unsafe { update_on(tier, !0, bytes) }
    }

    /// `crc32`, each tier and the bytewise loop agree on `bytes`.
    fn assert_all_agree(bytes: &[u8], what: &str) {
        let want = crc32_bytewise(bytes);
        assert_eq!(crc32(bytes), want, "crc32, {what}");
        for tier in tiers() {
            assert_eq!(crc32_on(tier, bytes), want, "{tier:?}, {what}");
        }
    }

    /// The carry-less tier's constants, derived from `0xEDB88320` by
    /// carry-less arithmetic: each `K` is `[x^n mod P]' << 1`, `P` the
    /// 33-bit polynomial reflected, and `μ` the reflected quotient of
    /// `x^64` by `P`, from GF(2) long division.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_derive_from_the_polynomial() {
        // `x^n mod P`, reflected over 32 bits: `n` multiplications by
        // `x` (a right shift in the reflected order), each reducing
        // `x^32` to the polynomial's low terms, `0xEDB88320`.
        let x_pow_mod_p = |n| {
            let mut r = 1u32 << 31; // x^0
            for _ in 0..n {
                r = (r >> 1) ^ if r & 1 != 0 { 0xEDB8_8320 } else { 0 };
            }
            r
        };
        // `v`'s low `bits` bits in reverse order.
        let reflect = |v: u64, bits: u32| v.reverse_bits() >> (64 - bits);
        let k = |n| u64::from(x_pow_mod_p(n)) << 1;
        let found = [clmul::K1, clmul::K2, clmul::K3, clmul::K4, clmul::K5];
        assert_eq!(
            found,
            [
                k(4 * 128 + 32),
                k(4 * 128 - 32),
                k(128 + 32),
                k(128 - 32),
                k(64)
            ]
        );
        // The polynomial in normal order, its x^32 term included.
        let p = (1u64 << 32) | reflect(0xEDB8_8320, 32);
        assert_eq!(clmul::P, reflect(p, 33));
        let (mut rem, mut quotient) = (1u128 << 64, 0u64);
        for bit in (32..=64).rev() {
            if (rem >> bit) & 1 != 0 {
                rem ^= u128::from(p) << (bit - 32);
                quotient |= 1 << (bit - 32);
            }
        }
        assert!(rem < 1 << 32, "the remainder has a lower degree than P");
        assert_eq!(clmul::MU, reflect(quotient, 33));
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn detects_single_bit_flips() {
        let base = b"adaptive clustering".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut corrupted = base.clone();
                corrupted[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), reference, "flip at byte {i} bit {bit}");
            }
        }
    }

    /// Every tier the CPU reports agrees with the bytewise loop at
    /// every length from 0 to 1 024 bytes and start offsets 0 to 15 —
    /// so under 64 bytes, each count of folding steps and each tail of
    /// 0–15 bytes occurs at each misalignment — and on one 3 MB buffer.
    #[test]
    fn every_tier_agrees_with_the_bytewise_loop() {
        println!("crc tiers exercised: {:?}", tiers());
        let buffer: Vec<u8> = (0..1024 + 16u32).map(|i| (i * 151 + 7) as u8).collect();
        for start in 0..16 {
            for len in 0..=1024 {
                assert_all_agree(
                    &buffer[start..start + len],
                    &format!("start {start} len {len}"),
                );
            }
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let big: Vec<u8> = (0..3_000_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        assert_all_agree(&big, "3 MB");
    }

    proptest! {
        /// Both tiers equal the bytewise loop on random inputs of
        /// 0–64 KiB, read from every start misalignment of a 16-byte
        /// block, so every tail behind the eight- and 16-byte steps
        /// occurs.
        #[test]
        fn slicing_by_8_equals_the_bytewise_loop(
            bytes in prop::collection::vec(0u8..=255, 0..65536 + 16),
            start in 0usize..16,
            trim in 0usize..16,
        ) {
            let start = start.min(bytes.len());
            let end = bytes.len().saturating_sub(trim).max(start);
            let slice = &bytes[start..end];
            let want = crc32_bytewise(slice);
            prop_assert_eq!(crc32(slice), want);
            for tier in tiers() {
                prop_assert_eq!(crc32_on(tier, slice), want, "{:?}", tier);
            }
        }
    }
}
