//! The secondary-storage device abstraction.
//!
//! The Nexus stores SSR blocks and the two VDIR state files on
//! ordinary (untrusted!) secondary storage — the paper even runs them
//! over TFTP/NFS to remote disks, relying entirely on the hash tree
//! for integrity. This module models the device as a named-file store
//! with two adversarial features used by the test suite:
//!
//! * **fault injection** — the device can be set to "lose power" after
//!   a given number of writes, leaving any prefix of the update
//!   protocol on disk;
//! * **tampering** — files can be corrupted or replayed (snapshot /
//!   restore) to simulate an attacker re-imaging the disk while the
//!   machine is dormant.

use crate::error::StorageError;
use std::collections::HashMap;

/// A named-file storage device.
pub trait Disk: Send {
    /// Write (create or replace) a file.
    fn write_file(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError>;
    /// Read a file.
    fn read_file(&self, name: &str) -> Result<Vec<u8>, StorageError>;
    /// Delete a file; `Ok` even if absent.
    fn delete_file(&mut self, name: &str) -> Result<(), StorageError>;
    /// Does the file exist?
    fn exists(&self, name: &str) -> bool;
    /// List file names with the given prefix.
    fn list(&self, prefix: &str) -> Vec<String>;
}

/// An in-memory disk with fault injection and tamper hooks.
#[derive(Debug, Default)]
pub struct RamDisk {
    files: HashMap<String, Vec<u8>>,
    /// Writes remaining before simulated power loss (`None` = no
    /// failure scheduled).
    fail_after_writes: Option<u64>,
}

impl RamDisk {
    /// Empty device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule a power failure: the next `n` writes succeed, then the
    /// device rejects everything until [`RamDisk::clear_fault`].
    pub fn fail_after(&mut self, n: u64) {
        self.fail_after_writes = Some(n);
    }

    /// Cancel fault injection ("power restored").
    pub fn clear_fault(&mut self) {
        self.fail_after_writes = None;
    }

    /// Flip one byte of a file (tamper simulation).
    pub fn corrupt(&mut self, name: &str, offset: usize) -> Result<(), StorageError> {
        let f = self
            .files
            .get_mut(name)
            .ok_or_else(|| StorageError::NoSuchFile(name.to_string()))?;
        if offset < f.len() {
            f[offset] ^= 0xff;
        }
        Ok(())
    }

    /// Snapshot the whole device (for replay attacks).
    pub fn snapshot(&self) -> HashMap<String, Vec<u8>> {
        self.files.clone()
    }

    /// Restore a snapshot, replaying old state over current state.
    pub fn restore(&mut self, snapshot: HashMap<String, Vec<u8>>) {
        self.files = snapshot;
    }
}

impl Disk for RamDisk {
    fn write_file(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        if let Some(left) = self.fail_after_writes {
            if left == 0 {
                return Err(StorageError::PowerFailure);
            }
            self.fail_after_writes = Some(left - 1);
        }
        self.files.insert(name.to_string(), data.to_vec());
        Ok(())
    }

    fn read_file(&self, name: &str) -> Result<Vec<u8>, StorageError> {
        self.files
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::NoSuchFile(name.to_string()))
    }

    fn delete_file(&mut self, name: &str) -> Result<(), StorageError> {
        self.files.remove(name);
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        self.files.contains_key(name)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        let mut v: Vec<String> = self
            .files
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_delete() {
        let mut d = RamDisk::new();
        d.write_file("/a", b"hello").unwrap();
        assert_eq!(d.read_file("/a").unwrap(), b"hello");
        assert!(d.exists("/a"));
        d.delete_file("/a").unwrap();
        assert!(!d.exists("/a"));
        assert!(matches!(
            d.read_file("/a"),
            Err(StorageError::NoSuchFile(_))
        ));
    }

    #[test]
    fn fault_injection_cuts_writes() {
        let mut d = RamDisk::new();
        d.fail_after(2);
        d.write_file("/1", b"x").unwrap();
        d.write_file("/2", b"y").unwrap();
        assert_eq!(d.write_file("/3", b"z"), Err(StorageError::PowerFailure));
        assert!(!d.exists("/3"));
        d.clear_fault();
        d.write_file("/3", b"z").unwrap();
    }

    #[test]
    fn corrupt_flips_byte() {
        let mut d = RamDisk::new();
        d.write_file("/a", b"abc").unwrap();
        d.corrupt("/a", 1).unwrap();
        assert_ne!(d.read_file("/a").unwrap(), b"abc");
        assert!(d.corrupt("/missing", 0).is_err());
    }

    #[test]
    fn snapshot_restore_replays_state() {
        let mut d = RamDisk::new();
        d.write_file("/a", b"v1").unwrap();
        let snap = d.snapshot();
        d.write_file("/a", b"v2").unwrap();
        d.restore(snap);
        assert_eq!(d.read_file("/a").unwrap(), b"v1");
    }

    #[test]
    fn list_by_prefix() {
        let mut d = RamDisk::new();
        d.write_file("ssr/x/0", b"").unwrap();
        d.write_file("ssr/x/1", b"").unwrap();
        d.write_file("ssr/y/0", b"").unwrap();
        assert_eq!(d.list("ssr/x/"), vec!["ssr/x/0", "ssr/x/1"]);
    }
}
