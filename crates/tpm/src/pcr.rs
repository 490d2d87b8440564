//! Platform configuration registers.
//!
//! PCRs accumulate measurements of the boot chain: each `extend`
//! replaces the register with `H(old ‖ H(data))`, so a register value
//! commits to the entire sequence of measurements. Keys and storage
//! can be bound to a *composite* digest over a selection of PCRs;
//! booting different software yields a different composite, and the
//! bound resources become inaccessible (§3.4).

use serde::{Deserialize, Serialize};
use sha2::{Digest as Sha2Digest, Sha256};
use std::fmt;

/// Digest length in bytes (SHA-256; the original TPM v1.1 used
/// 20-byte SHA-1, see "Paper vs. measured" in the workspace README
/// for the substitution rationale).
pub const DIGEST_LEN: usize = 32;

/// Number of PCRs (per TPM v1.2).
pub const PCR_COUNT: usize = 24;

/// A SHA-256 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Digest(pub [u8; DIGEST_LEN]);

impl Digest {
    /// The all-zero digest (PCR reset value for indices 0–15).
    pub const ZERO: Digest = Digest([0u8; DIGEST_LEN]);

    /// The all-ones digest (reset value for the resettable range).
    pub const ONES: Digest = Digest([0xffu8; DIGEST_LEN]);

    /// Hex rendering.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Parse from hex; `None` if malformed.
    pub fn from_hex(s: &str) -> Option<Digest> {
        if s.len() != DIGEST_LEN * 2 {
            return None;
        }
        let mut out = [0u8; DIGEST_LEN];
        for i in 0..DIGEST_LEN {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok()?;
        }
        Some(Digest(out))
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", &self.to_hex()[..16])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", &self.to_hex()[..16])
    }
}

/// A subset of PCR indices, e.g. "PCRs 0–7" for the boot chain.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PcrSelection {
    mask: u32,
}

impl PcrSelection {
    /// Empty selection.
    pub fn none() -> Self {
        PcrSelection { mask: 0 }
    }

    /// All PCRs.
    pub fn all() -> Self {
        PcrSelection {
            mask: (1u32 << PCR_COUNT) - 1,
        }
    }

    /// Selection of the given indices (out-of-range indices ignored).
    pub fn of(indices: &[usize]) -> Self {
        let mut mask = 0;
        for &i in indices {
            if i < PCR_COUNT {
                mask |= 1 << i;
            }
        }
        PcrSelection { mask }
    }

    /// The boot-chain registers (0–7) the Nexus measures firmware,
    /// boot loader, and kernel into.
    pub fn boot_chain() -> Self {
        PcrSelection::of(&[0, 1, 2, 3, 4, 5, 6, 7])
    }

    /// Is index `i` selected?
    pub fn contains(&self, i: usize) -> bool {
        i < PCR_COUNT && (self.mask >> i) & 1 == 1
    }

    /// Iterate over selected indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..PCR_COUNT).filter(move |&i| self.contains(i))
    }

    /// Number of selected registers.
    pub fn len(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// True if nothing selected.
    pub fn is_empty(&self) -> bool {
        self.mask == 0
    }
}

/// The bank of PCR registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcrBank {
    regs: [Digest; PCR_COUNT],
}

impl Default for PcrBank {
    fn default() -> Self {
        Self::new()
    }
}

impl PcrBank {
    /// A bank in power-on state: 0–15 zeroed, 16–23 all-ones (the
    /// resettable range).
    pub fn new() -> Self {
        let mut regs = [Digest::ZERO; PCR_COUNT];
        for r in regs.iter_mut().skip(16) {
            *r = Digest::ONES;
        }
        PcrBank { regs }
    }

    /// Read a register.
    pub fn read(&self, i: usize) -> Option<Digest> {
        self.regs.get(i).copied()
    }

    /// Extend register `i` with an already-computed digest:
    /// `PCR[i] ← H(PCR[i] ‖ digest)`.
    pub fn extend_digest(&mut self, i: usize, digest: &Digest) -> Option<Digest> {
        let reg = self.regs.get_mut(i)?;
        let mut h = Sha256::new();
        h.update(reg.0);
        h.update(digest.0);
        let out = h.finalize();
        reg.0.copy_from_slice(&out);
        Some(*reg)
    }

    /// Measure raw data into register `i` (hashes the data first).
    pub fn extend(&mut self, i: usize, data: &[u8]) -> Option<Digest> {
        let d = crate::hash(data);
        self.extend_digest(i, &d)
    }

    /// The composite digest over a selection: commits to both which
    /// registers are selected and their values.
    pub fn composite(&self, sel: &PcrSelection) -> Digest {
        let mut h = Sha256::new();
        h.update(b"pcr-composite");
        for i in sel.iter() {
            h.update((i as u32).to_le_bytes());
            h.update(self.regs[i].0);
        }
        let out = h.finalize();
        let mut d = [0u8; DIGEST_LEN];
        d.copy_from_slice(&out);
        Digest(d)
    }

    /// Reset a resettable register (16–23) to ones; lower registers
    /// only reset with the platform.
    pub fn reset(&mut self, i: usize) -> bool {
        if (16..PCR_COUNT).contains(&i) {
            self.regs[i] = Digest::ONES;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_on_state() {
        let bank = PcrBank::new();
        assert_eq!(bank.read(0), Some(Digest::ZERO));
        assert_eq!(bank.read(23), Some(Digest::ONES));
        assert_eq!(bank.read(24), None);
    }

    #[test]
    fn extend_changes_register_and_is_order_sensitive() {
        let mut a = PcrBank::new();
        let mut b = PcrBank::new();
        a.extend(0, b"bios");
        a.extend(0, b"loader");
        b.extend(0, b"loader");
        b.extend(0, b"bios");
        assert_ne!(a.read(0), b.read(0), "extension order must matter");
    }

    #[test]
    fn extend_is_deterministic() {
        let mut a = PcrBank::new();
        let mut b = PcrBank::new();
        a.extend(4, b"kernel-image");
        b.extend(4, b"kernel-image");
        assert_eq!(a.read(4), b.read(4));
    }

    #[test]
    fn composite_depends_on_selection_and_values() {
        let mut bank = PcrBank::new();
        bank.extend(0, b"x");
        let c1 = bank.composite(&PcrSelection::of(&[0]));
        let c2 = bank.composite(&PcrSelection::of(&[0, 1]));
        assert_ne!(c1, c2);
        bank.extend(0, b"y");
        let c3 = bank.composite(&PcrSelection::of(&[0]));
        assert_ne!(c1, c3);
    }

    #[test]
    fn selection_iteration() {
        let sel = PcrSelection::of(&[3, 1, 7, 99]);
        let v: Vec<usize> = sel.iter().collect();
        assert_eq!(v, vec![1, 3, 7]);
        assert_eq!(sel.len(), 3);
        assert!(PcrSelection::none().is_empty());
        assert_eq!(PcrSelection::all().len(), PCR_COUNT);
    }

    #[test]
    fn resettable_range() {
        let mut bank = PcrBank::new();
        bank.extend(16, b"app");
        assert!(bank.reset(16));
        assert_eq!(bank.read(16), Some(Digest::ONES));
        assert!(!bank.reset(0), "boot-chain PCRs are not resettable");
    }

    #[test]
    fn hex_round_trip() {
        let d = crate::hash(b"hello");
        let h = d.to_hex();
        assert_eq!(Digest::from_hex(&h), Some(d));
        assert_eq!(Digest::from_hex("zz"), None);
    }
}
