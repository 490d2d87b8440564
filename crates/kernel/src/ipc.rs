//! IPC ports and channels.
//!
//! All interaction between Nexus components — including system calls
//! and user-level device drivers — flows over IPC, which is what makes
//! interpositioning (§3.2) a complete mediation point. The kernel
//! authoritatively binds ports to owning processes and mints the
//! corresponding labels (`Nexus says IPC.x speaksfor /proc/ipd/y`),
//! which is how authority processes get attributable channels without
//! cryptography (§2.4, §2.7).

use crate::error::KernelError;
use nexus_nal::{Formula, Principal};
use std::collections::{HashMap, VecDeque};

/// A message on a port.
pub type Message = Vec<u8>;

/// One IPC port.
pub struct Port {
    /// Port number.
    pub id: u64,
    /// Owning process.
    pub owner: u64,
    /// Queued messages (sender pid, payload).
    pub queue: VecDeque<(u64, Message)>,
    /// Pids that have connected (for the IPC connectivity graph).
    pub connected: Vec<u64>,
}

/// The port table.
#[derive(Default)]
pub struct IpcTable {
    ports: HashMap<u64, Port>,
    next: u64,
    /// (sender pid, receiver pid) edges observed — the transitive IPC
    /// connection graph the IPC analyzer walks (§2.2).
    edges: Vec<(u64, u64)>,
    sends: u64,
}

impl IpcTable {
    /// Empty table.
    pub fn new() -> Self {
        IpcTable {
            ports: HashMap::new(),
            next: 1,
            edges: Vec::new(),
            sends: 0,
        }
    }

    /// Create a port owned by `pid`; returns the port id and the
    /// kernel's binding label `Nexus says IPC.<id> speaksfor
    /// /proc/ipd/<pid>`.
    pub fn create_port(&mut self, pid: u64) -> (u64, Formula) {
        let id = self.next;
        self.next += 1;
        self.ports.insert(
            id,
            Port {
                id,
                owner: pid,
                queue: VecDeque::new(),
                connected: Vec::new(),
            },
        );
        let label = Formula::speaksfor(
            Principal::name("IPC").sub(id.to_string()),
            Principal::name(format!("/proc/ipd/{pid}")),
        )
        .says(Principal::name("Nexus"));
        (id, label)
    }

    /// Destroy a port.
    pub fn destroy_port(&mut self, id: u64) -> Result<(), KernelError> {
        self.ports
            .remove(&id)
            .map(|_| ())
            .ok_or(KernelError::NoSuchPort(id))
    }

    /// Look up a port.
    pub fn port(&self, id: u64) -> Result<&Port, KernelError> {
        self.ports.get(&id).ok_or(KernelError::NoSuchPort(id))
    }

    /// Owner of a port.
    pub fn owner_of(&self, id: u64) -> Result<u64, KernelError> {
        Ok(self.port(id)?.owner)
    }

    /// Enqueue a message from `sender` onto port `id`, recording the
    /// connectivity edge.
    pub fn send(&mut self, sender: u64, id: u64, msg: Message) -> Result<(), KernelError> {
        let port = self.ports.get_mut(&id).ok_or(KernelError::NoSuchPort(id))?;
        let receiver = port.owner;
        port.queue.push_back((sender, msg));
        if !port.connected.contains(&sender) {
            port.connected.push(sender);
        }
        if !self.edges.contains(&(sender, receiver)) {
            self.edges.push((sender, receiver));
        }
        self.sends += 1;
        Ok(())
    }

    /// Dequeue the next message for port `id`.
    pub fn recv(&mut self, id: u64) -> Result<(u64, Message), KernelError> {
        let port = self.ports.get_mut(&id).ok_or(KernelError::NoSuchPort(id))?;
        port.queue.pop_front().ok_or(KernelError::WouldBlock)
    }

    /// The directed IPC connectivity graph (sender → receiver pids).
    pub fn edges(&self) -> &[(u64, u64)] {
        &self.edges
    }

    /// Total messages sent (statistics).
    pub fn send_count(&self) -> u64 {
        self.sends
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_nal::parse;

    #[test]
    fn create_binds_owner_and_mints_label() {
        let mut t = IpcTable::new();
        let (id, label) = t.create_port(12);
        assert_eq!(t.owner_of(id).unwrap(), 12);
        assert_eq!(
            label,
            parse(&format!("Nexus says IPC.{id} speaksfor /proc/ipd/12")).unwrap()
        );
    }

    #[test]
    fn send_recv_fifo() {
        let mut t = IpcTable::new();
        let (id, _) = t.create_port(1);
        t.send(2, id, b"first".to_vec()).unwrap();
        t.send(3, id, b"second".to_vec()).unwrap();
        assert_eq!(t.recv(id).unwrap(), (2, b"first".to_vec()));
        assert_eq!(t.recv(id).unwrap(), (3, b"second".to_vec()));
        assert_eq!(t.recv(id), Err(KernelError::WouldBlock));
    }

    #[test]
    fn edges_accumulate_once() {
        let mut t = IpcTable::new();
        let (id, _) = t.create_port(1);
        t.send(2, id, vec![]).unwrap();
        t.send(2, id, vec![]).unwrap();
        t.send(3, id, vec![]).unwrap();
        assert_eq!(t.edges(), &[(2, 1), (3, 1)]);
        assert_eq!(t.send_count(), 3);
    }

    #[test]
    fn destroy_invalidates() {
        let mut t = IpcTable::new();
        let (id, _) = t.create_port(1);
        t.destroy_port(id).unwrap();
        assert!(t.send(2, id, vec![]).is_err());
        assert!(t.destroy_port(id).is_err());
    }
}
