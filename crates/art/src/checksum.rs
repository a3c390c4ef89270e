//! The `.redsart` checksum: a word-parallel streaming digest.
//!
//! `docs/artifact-format.md` ("Checksums") is the normative definition;
//! this is its implementation. The input is cut into 32-byte blocks of
//! four little-endian `u64` words, word `k` feeding lane `k` through the
//! xxHash64 round `lane = rotl(lane + w·P2, 31)·P1`; a trailing partial
//! block is zero-padded and processed once. `finish` folds the four
//! lanes and the byte length with `d = (d ^ x)·0x100000001b3` and applies
//! the `fmix64` avalanche.
//!
//! Every step is a bijection in the value it updates: the round in the
//! word (for a fixed lane) and in the lane (for a fixed word), the fold
//! in each lane (with the others fixed), and `fmix64`. So two
//! equal-length inputs that differ only inside one aligned 8-byte word
//! always get different digests — every single-byte corruption of a
//! file is caught deterministically, not probabilistically. The four
//! independent lanes keep four multiply chains in flight, so the digest
//! runs at memory speed instead of one multiply latency per byte.

/// xxHash64 prime 1.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
/// xxHash64 prime 2.
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
/// Starting value of the finishing fold (the FNV-1a 64 offset basis).
const FOLD_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// Multiplier of the finishing fold (the FNV-1a 64 prime; odd).
const FOLD_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Bytes per block: one `u64` word for each of the four lanes.
const BLOCK: usize = 32;

/// Streaming `.redsart` checksum (see the module docs and
/// `docs/artifact-format.md`). The digest does not depend on how the
/// input is split across [`Checksum::update`] calls.
#[derive(Debug, Clone)]
pub struct Checksum {
    lanes: [u64; 4],
    /// The first `pending` bytes of a block not yet complete.
    partial: [u8; BLOCK],
    pending: usize,
    /// Total bytes fed so far.
    len: u64,
}

impl Default for Checksum {
    fn default() -> Self {
        Self::new()
    }
}

impl Checksum {
    /// A checksum over no bytes yet. The four lanes start from distinct
    /// constants (xxHash64's seed-0 lane values).
    pub fn new() -> Self {
        Self {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            partial: [0; BLOCK],
            pending: 0,
            len: 0,
        }
    }

    /// Feeds `bytes`, continuing the input fed so far.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending > 0 {
            let take = (BLOCK - self.pending).min(bytes.len());
            self.partial[self.pending..self.pending + take].copy_from_slice(&bytes[..take]);
            self.pending += take;
            bytes = &bytes[take..];
            if self.pending < BLOCK {
                return;
            }
            let block = self.partial;
            round(&mut self.lanes, &block);
            self.pending = 0;
        }
        // Local lanes keep the four chains in registers across blocks.
        let mut lanes = self.lanes;
        let mut blocks = bytes.chunks_exact(BLOCK);
        for block in &mut blocks {
            round(&mut lanes, block.try_into().expect("32-byte block"));
        }
        self.lanes = lanes;
        let rest = blocks.remainder();
        self.partial[..rest.len()].copy_from_slice(rest);
        self.pending = rest.len();
    }

    /// The digest of every byte fed so far (the checksum stays usable).
    pub fn finish(&self) -> u64 {
        let mut lanes = self.lanes;
        if self.pending > 0 {
            let mut block = [0u8; BLOCK];
            block[..self.pending].copy_from_slice(&self.partial[..self.pending]);
            round(&mut lanes, &block);
        }
        let fold = |d: u64, x: u64| (d ^ x).wrapping_mul(FOLD_PRIME);
        let d = lanes.iter().fold(FOLD_BASIS, |d, &lane| fold(d, lane));
        fmix64(fold(d, self.len))
    }
}

/// One block: word `k` (little-endian) goes through lane `k`'s round.
#[inline(always)]
fn round(lanes: &mut [u64; 4], block: &[u8; BLOCK]) {
    for (k, lane) in lanes.iter_mut().enumerate() {
        let w = u64::from_le_bytes(block[8 * k..8 * k + 8].try_into().expect("8-byte word"));
        *lane = lane
            .wrapping_add(w.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1);
    }
}

/// MurmurHash3's 64-bit finalizer: xor-shifts and odd multiplies, each
/// invertible, so the avalanche is a bijection.
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn digest(bytes: &[u8]) -> u64 {
        let mut sum = Checksum::new();
        sum.update(bytes);
        sum.finish()
    }

    /// The known-answer input of `len` bytes: byte `i` is `31·i + 7`.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    /// Pinned digests, computed by a separate implementation of the
    /// definition in `docs/artifact-format.md`: a change of any
    /// constant, of the padding or of the fold order fails here rather
    /// than at a user's load.
    #[test]
    fn known_answers_are_pinned() {
        let expected: [(usize, u64); 8] = [
            (0, 0xd967_b5c6_8a00_eb37),
            (1, 0x5d55_d562_f8f0_2b84),
            (7, 0x70d6_7230_9e77_c540),
            (8, 0x273a_4204_773f_bc42),
            (31, 0x0b27_ecf1_2b26_3194),
            (32, 0x2a09_75f3_90ce_6562),
            (33, 0xecb2_402c_0c26_15e7),
            (100, 0xdf6e_aae7_148f_80c1),
        ];
        for (len, want) in expected {
            assert_eq!(digest(&pattern(len)), want, "length {len}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn any_split_gives_the_one_call_digest(
            bytes in prop::collection::vec(0u32..256, 0..300),
            cuts in prop::collection::vec(0usize..301, 0..8),
        ) {
            let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (bytes.len() + 1)).collect();
            cuts.sort_unstable();
            let mut sum = Checksum::default();
            let mut from = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                sum.update(&bytes[from..cut]);
                from = cut;
            }
            prop_assert_eq!(sum.finish(), digest(&bytes));
        }
    }

    #[test]
    fn every_single_byte_change_changes_the_digest() {
        let original = pattern(100);
        let clean = digest(&original);
        for i in 0..original.len() {
            for x in 1..=255u8 {
                let mut bytes = original.clone();
                bytes[i] ^= x;
                assert_ne!(digest(&bytes), clean, "byte {i} xor {x:#04x}");
            }
        }
    }

    #[test]
    fn every_change_of_length_changes_the_digest() {
        let original = pattern(100);
        let clean = digest(&original);
        for len in 0..original.len() {
            assert_ne!(digest(&original[..len]), clean, "truncated to {len}");
        }
        // Zero extension keeps the padded blocks equal up to the next
        // block boundary: only the folded length tells them apart.
        for extra in 1..=64 {
            let mut longer = original.clone();
            longer.resize(original.len() + extra, 0);
            assert_ne!(digest(&longer), clean, "extended by {extra} zeros");
        }
    }
}
