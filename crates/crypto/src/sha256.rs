//! A from-scratch SHA-256 (FIPS 180-4) implementation.
//!
//! The approved dependency list has no hash crate, and the DLA protocols
//! need collision-resistant fingerprints everywhere: set elements are
//! hashed before commutative encryption, accumulator exponents and
//! Schnorr challenges are hash-derived, and evidence pieces are chained
//! by digest. Correctness is pinned by the FIPS test vectors in the
//! test module.
//!
//! One hasher, two compressors. Every run of whole 64-byte blocks goes
//! through one dispatcher, which picks the x86-64 SHA extensions when
//! the running CPU reports them (`sha`, `sse4.1`, `ssse3`; the probe is
//! the standard library's and is cached) and the portable compressor
//! otherwise. Nothing else selects it. The portable compressor is the
//! reference: [`digest_portable`] hashes on it alone, whatever the CPU,
//! and the hardware path must equal it byte for byte.

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; DIGEST_LEN];

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
/// use dla_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), dla_crypto::sha256::digest(b"hello world"));
/// ```
#[derive(Clone, Debug)]
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
    #[must_use]
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, compress);
    }

    /// Completes the hash and returns the digest.
    #[must_use]
    pub fn finalize(self) -> Digest {
        self.finish(compress)
    }

    /// [`Sha256::update`] on a given compressor: fills the buffer, then
    /// hands every run of whole blocks to `compress` in one call.
    fn absorb(&mut self, data: &[u8], compress: impl Fn(&mut [u32; 8], &[u8])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffer_len > 0 {
            let take = rest.len().min(64 - self.buffer_len);
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&rest[..take]);
            self.buffer_len += take;
            rest = &rest[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        let whole = rest.len() - rest.len() % 64;
        if whole > 0 {
            compress(&mut self.state, &rest[..whole]);
        }
        let tail = &rest[whole..];
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// [`Sha256::finalize`] on a given compressor.
    fn finish(mut self, compress: impl Fn(&mut [u32; 8], &[u8])) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding in one absorb: 0x80, zeros up to 56 mod 64, then the
        // 64-bit big-endian length (counted into `total_len` after
        // `bit_len` was read, so it changes nothing).
        let mut tail = [0u8; 72];
        tail[0] = 0x80;
        let length_at = 1 + (119 - self.buffer_len) % 64;
        tail[length_at..length_at + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.absorb(&tail[..length_at + 8], compress);
        debug_assert_eq!(self.buffer_len, 0, "the padding ends on a block boundary");

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Compresses every 64-byte block of `blocks` into `state`, on the
/// CPU's SHA extensions when it has them and portably otherwise.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if x86::detected() {
        // SAFETY: `x86::detected` has just confirmed, through the
        // standard library's cached CPU probe, that this CPU has sha,
        // sse4.1 and ssse3; sse2 is part of every x86-64 CPU.
        unsafe { x86::compress_blocks(state, blocks) };
        return;
    }
    compress_portable(state, blocks);
}

/// The portable compressor: FIPS 180-4 §6.2.2 on every 64-byte block
/// of `blocks`. The reference the hardware path is tested against, and
/// the only path on other CPUs.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[i * 4],
                block[i * 4 + 1],
                block[i * 4 + 2],
                block[i * 4 + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// The compressor on the x86-64 SHA extensions (`SHA256RNDS2`,
/// `SHA256MSG1`, `SHA256MSG2`): two rounds an instruction, the state
/// held as the `ABEF`/`CDGH` register pair the instructions take.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32,
        _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8,
    };

    /// Whether this CPU has every extension [`compress_blocks`] uses
    /// beyond x86-64's baseline sse2.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse4.1")
            && is_x86_feature_detected!("ssse3")
    }

    /// Compresses every 64-byte block of `blocks` into `state`,
    /// keeping the state in registers across the whole run.
    ///
    /// # Safety
    ///
    /// The CPU must support sha, sse2, ssse3 and sse4.1 — what
    /// [`detected`] reports.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
        // Register names list lanes from the highest: `dcba` holds a in
        // lane 0. The round instructions take `abef` and `cdgh`.
        let dcba = _mm_set_epi32(
            state[3] as i32,
            state[2] as i32,
            state[1] as i32,
            state[0] as i32,
        );
        let hgfe = _mm_set_epi32(
            state[7] as i32,
            state[6] as i32,
            state[5] as i32,
            state[4] as i32,
        );
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        // Reverses the bytes of each 32-bit lane: the message words are
        // big-endian.
        let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w = [0usize, 16, 32, 48].map(|at| {
                // SAFETY: `block` is 64 bytes long, so its 16 bytes from
                // `at` ≤ 48 are in bounds, and the load takes any
                // alignment. Its sse2 is x86-64's baseline; the caller
                // ran `detected` for the rest of this function.
                let bytes = unsafe { _mm_loadu_si128(block[at..].as_ptr().cast::<__m128i>()) };
                _mm_shuffle_epi8(bytes, be_words)
            });
            for quad in 0..16 {
                if quad >= 4 {
                    // W[4q..4q+4] from the four quads before it; it
                    // replaces W[4q-16..4q-12], which no later quad reads.
                    w[quad % 4] = schedule(
                        w[quad % 4],
                        w[(quad + 1) % 4],
                        w[(quad + 2) % 4],
                        w[(quad + 3) % 4],
                    );
                }
                rounds4(&mut abef, &mut cdgh, w[quad % 4], quad);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        *state = [
            _mm_extract_epi32(dcba, 0) as u32,
            _mm_extract_epi32(dcba, 1) as u32,
            _mm_extract_epi32(dcba, 2) as u32,
            _mm_extract_epi32(dcba, 3) as u32,
            _mm_extract_epi32(hgfe, 0) as u32,
            _mm_extract_epi32(hgfe, 1) as u32,
            _mm_extract_epi32(hgfe, 2) as u32,
            _mm_extract_epi32(hgfe, 3) as u32,
        ];
    }

    /// The next four schedule words from the sixteen before them.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Rounds `4q..4q+4` on the schedule words `w`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, quad: usize) {
        let k = &K[quad * 4..quad * 4 + 4];
        let wk = _mm_add_epi32(
            w,
            _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
        );
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
}

/// One-shot SHA-256.
#[must_use]
pub fn digest(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-256 on the portable compressor alone, whatever the CPU.
///
/// The test oracle for the hardware path: [`digest`] must return the
/// same bytes on every input. Nothing in the stack hashes through it.
#[must_use]
pub fn digest_portable(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.absorb(data, compress_portable);
    h.finish(compress_portable)
}

/// One-shot SHA-256 over the concatenation of several byte strings,
/// each length-prefixed so the encoding is injective.
#[must_use]
pub fn digest_parts(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for part in parts {
        h.update(&(part.len() as u64).to_be_bytes());
        h.update(part);
    }
    h.finalize()
}

/// Hexadecimal rendering of a digest.
#[must_use]
pub fn to_hex(d: &Digest) -> String {
    d.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    const FIPS: [(&[u8], &str); 3] = [
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
    ];
    const MILLION_A: &str = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";

    type Compressor = fn(&mut [u32; 8], &[u8]);

    /// The hardware compressor, when this CPU has it.
    fn hardware() -> Option<Compressor> {
        #[cfg(target_arch = "x86_64")]
        if x86::detected() {
            return Some(|state, blocks| {
                // SAFETY: `x86::detected` confirmed sha, sse4.1 and
                // ssse3 on this CPU before this closure was handed out.
                unsafe { x86::compress_blocks(state, blocks) }
            });
        }
        None
    }

    fn digest_on(data: &[u8], compress: impl Fn(&mut [u32; 8], &[u8]) + Copy) -> Digest {
        let mut h = Sha256::new();
        h.absorb(data, compress);
        h.finish(compress)
    }

    #[test]
    fn fips_vectors_on_both_compressors() {
        let million = vec![b'a'; 1_000_000];
        let vectors = FIPS.iter().copied().chain([(&million[..], MILLION_A)]);
        for (message, expected) in vectors {
            assert_eq!(to_hex(&digest_portable(message)), expected);
            assert_eq!(to_hex(&digest(message)), expected);
            if let Some(hardware) = hardware() {
                assert_eq!(to_hex(&digest_on(message, hardware)), expected);
            } else {
                eprintln!("no SHA extensions on this CPU: the dispatcher runs portably");
            }
        }
    }

    #[test]
    fn hardware_compressor_matches_the_portable_one() {
        let Some(hardware) = hardware() else {
            eprintln!("no SHA extensions on this CPU: nothing to compare");
            return;
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5a5a);
        for _ in 0..2_000 {
            let state: [u32; 8] = std::array::from_fn(|_| rng.gen());
            let blocks: Vec<u8> = (0..64 * rng.gen_range(0..=6)).map(|_| rng.gen()).collect();
            let (mut portable, mut hw) = (state, state);
            compress_portable(&mut portable, &blocks);
            hardware(&mut hw, &blocks);
            assert_eq!(
                hw,
                portable,
                "{} blocks from {state:08x?}",
                blocks.len() / 64
            );
        }
    }

    #[test]
    fn incremental_matches_oneshot_at_every_length_and_split() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xa5a5);
        for len in 0..=200 {
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let oneshot = digest(&data);
            assert_eq!(oneshot, digest_portable(&data), "length {len}");
            for _ in 0..4 {
                let mut cuts: Vec<usize> = (0..rng.gen_range(0..4))
                    .map(|_| rng.gen_range(0..=len))
                    .collect();
                cuts.sort_unstable();
                let mut h = Sha256::new();
                let mut from = 0;
                for cut in cuts.into_iter().chain([len]) {
                    h.update(&data[from..cut]);
                    from = cut;
                }
                assert_eq!(h.finalize(), oneshot, "length {len}");
            }
        }
        for (message, expected) in FIPS {
            let mut h = Sha256::new();
            message.iter().for_each(|byte| h.update(&[*byte]));
            assert_eq!(to_hex(&h.finalize()), expected);
        }
    }

    #[test]
    fn incremental_matches_oneshot_at_block_boundaries() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 128, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), digest(&data), "split at {split}");
        }
    }

    #[test]
    fn digest_parts_is_injective_on_boundaries() {
        // ("ab", "c") must differ from ("a", "bc") thanks to length prefixes.
        assert_ne!(digest_parts(&[b"ab", b"c"]), digest_parts(&[b"a", b"bc"]));
        assert_ne!(digest_parts(&[b"abc"]), digest_parts(&[b"abc", b""]));
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(digest(b"foo"), digest(b"bar"));
        assert_ne!(digest(b""), digest(b"\0"));
    }
}
