//! The repo's one FNV-1a (64-bit) implementation.
//!
//! Every rerun-stable digest — output, failure report, race report,
//! workload checksums — and both codec checksums fold bytes through this
//! hasher, so "the digests agree" means the same thing everywhere.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01B3;

/// An incremental FNV-1a hasher.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self(OFFSET_BASIS)
    }

    /// Folds `bytes` in, in order.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// The digest of everything written so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a of one byte string.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn incremental_writes_equal_one_shot() {
        let mut h = Fnv1a::new();
        h.write(b"hello ");
        h.write(b"");
        h.write(b"world");
        assert_eq!(h.finish(), fnv1a(b"hello world"));
    }
}
