//! Isolated protection domains (IPDs) — Nexus processes.
//!
//! Every process is a subprincipal of the kernel: statements by
//! process 23 are attributed, fully qualified, to
//! `HW.kernel.process23` (§2.1 — the prefix is elided for clarity
//! where unambiguous). Each IPD carries its own labelstore and the set
//! of system calls it has relinquished (the web server in §4.1 drops
//! everything but IPC after initialization).

use crate::error::KernelError;
use nexus_core::LabelStore;
use nexus_nal::Principal;
use std::collections::{HashMap, HashSet};

/// A process.
pub struct Ipd {
    /// Process id.
    pub pid: u64,
    /// Human-readable name (e.g. `webserver`).
    pub name: String,
    /// Parent pid (0 = kernel).
    pub parent: u64,
    /// Launch-time hash of the binary (for hash-based labels).
    pub launch_hash: nexus_tpm::Digest,
    /// The process's labelstore.
    pub labelstore: LabelStore,
    /// System calls the process has permanently relinquished.
    pub relinquished: HashSet<&'static str>,
    /// Application-published introspection keys (`/proc/app/<pid>/…`).
    pub published: HashMap<String, String>,
}

impl Ipd {
    /// The principal name the kernel attributes this process's
    /// statements to: `/proc/ipd/<pid>`.
    pub fn principal(&self) -> Principal {
        Principal::name(format!("/proc/ipd/{}", self.pid))
    }
}

/// The process table.
#[derive(Default)]
pub struct IpdTable {
    ipds: HashMap<u64, Ipd>,
    next_pid: u64,
}

impl IpdTable {
    /// Empty table; pid 0 is reserved for the kernel.
    pub fn new() -> Self {
        IpdTable {
            ipds: HashMap::new(),
            next_pid: 1,
        }
    }

    /// Spawn a process from a binary image.
    pub fn spawn(&mut self, name: &str, parent: u64, image: &[u8]) -> u64 {
        let pid = self.next_pid;
        self.next_pid += 1;
        self.ipds.insert(
            pid,
            Ipd {
                pid,
                name: name.to_string(),
                parent,
                launch_hash: nexus_tpm::hash(image),
                labelstore: LabelStore::new(),
                relinquished: HashSet::new(),
                published: HashMap::new(),
            },
        );
        pid
    }

    /// Look up a process.
    pub fn get(&self, pid: u64) -> Result<&Ipd, KernelError> {
        self.ipds.get(&pid).ok_or(KernelError::NoSuchIpd(pid))
    }

    /// Look up a process mutably.
    pub fn get_mut(&mut self, pid: u64) -> Result<&mut Ipd, KernelError> {
        self.ipds.get_mut(&pid).ok_or(KernelError::NoSuchIpd(pid))
    }

    /// Parent pid.
    pub fn ppid(&self, pid: u64) -> Result<u64, KernelError> {
        Ok(self.get(pid)?.parent)
    }

    /// All pids, ascending.
    pub fn pids(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.ipds.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.ipds.len()
    }

    /// True if no processes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_assigns_increasing_pids() {
        let mut t = IpdTable::new();
        let a = t.spawn("a", 0, b"img-a");
        let b = t.spawn("b", a, b"img-b");
        assert!(b > a);
        assert_eq!(t.ppid(b).unwrap(), a);
        assert_eq!(t.get(a).unwrap().name, "a");
    }

    #[test]
    fn principal_names_follow_proc_convention() {
        let mut t = IpdTable::new();
        let pid = t.spawn("x", 0, b"");
        assert_eq!(
            t.get(pid).unwrap().principal().to_string(),
            format!("/proc/ipd/{pid}")
        );
    }

    #[test]
    fn launch_hash_distinguishes_binaries() {
        let mut t = IpdTable::new();
        let a = t.spawn("a", 0, b"one");
        let b = t.spawn("b", 0, b"two");
        let c = t.spawn("c", 0, b"one");
        assert_ne!(t.get(a).unwrap().launch_hash, t.get(b).unwrap().launch_hash);
        assert_eq!(t.get(a).unwrap().launch_hash, t.get(c).unwrap().launch_hash);
    }

    #[test]
    fn relinquish_tracked() {
        let mut t = IpdTable::new();
        let a = t.spawn("a", 0, b"");
        t.get_mut(a).unwrap().relinquished.insert("open");
        assert!(t.get(a).unwrap().relinquished.contains("open"));
    }
}
