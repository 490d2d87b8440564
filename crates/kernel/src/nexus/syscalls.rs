//! System-call dispatch, the filesystem and IPC entry points, and the
//! `interpose` system call.

use super::{Nexus, NexusConfig, SysRet, Syscall, SYSCALL_CHANNEL};
use crate::error::KernelError;
use crate::fs::RamFs;
use crate::interpose::{ChainOutcome, Interceptor, IpcCall, MonitorLevel};
use nexus_core::ResourceId;
use nexus_nal::Formula;
use parking_lot::MutexGuard;
use std::sync::atomic::Ordering;

impl Nexus {
    fn require_allowed(&self, pid: u64, name: &'static str) -> Result<(), KernelError> {
        if self.ipds.read().get(pid)?.relinquished.contains(name) {
            return Err(KernelError::SyscallRevoked(name));
        }
        Ok(())
    }

    /// The filesystem access check: with `authorize_fs` on, `pid` must
    /// be authorized for `op` on the file at `path`.
    fn require_fs_access(
        &self,
        cfg: &NexusConfig,
        pid: u64,
        op: &str,
        path: &str,
    ) -> Result<(), KernelError> {
        if cfg.authorize_fs && !self.authorize(pid, op, &ResourceId::file(path))? {
            return Err(KernelError::AccessDenied {
                reason: format!("{op} {path}"),
            });
        }
        Ok(())
    }

    /// Dispatch a system call for `pid`, running the redirector chain
    /// when syscall interposition is enabled.
    pub fn syscall(&self, pid: u64, call: Syscall) -> Result<SysRet, KernelError> {
        self.require_allowed(pid, call.name())?;
        let cfg = self.config();
        if cfg.interpose_syscalls {
            let mut ipc_call = IpcCall {
                subject: pid,
                operation: call.name().to_string(),
                object: String::new(),
                args: Vec::new(),
            };
            if let ChainOutcome::Blocked { monitor } =
                self.redirector.dispatch(SYSCALL_CHANNEL, &mut ipc_call)?
            {
                return Err(KernelError::Blocked { monitor });
            }
        }
        match call {
            Syscall::Null => Ok(SysRet::Unit),
            Syscall::GetPpid => Ok(SysRet::Int(self.ipds.read().ppid(pid)?)),
            Syscall::GetTimeOfDay => {
                Ok(SysRet::Int(self.clock.fetch_add(1, Ordering::Relaxed) + 1))
            }
            Syscall::Yield => {
                self.sched.next();
                Ok(SysRet::Unit)
            }
            Syscall::Open(path) => {
                self.require_fs_access(&cfg, pid, "open", &path)?;
                self.fs_server_hop(pid, b"open")?;
                Ok(SysRet::Int(self.fs.lock().open(&path)?))
            }
            Syscall::Close(fd) => {
                self.fs_server_hop(pid, b"close")?;
                self.fs.lock().close(fd)?;
                Ok(SysRet::Unit)
            }
            Syscall::Read(fd, n) => {
                let path = self.fs.lock().path_of(fd)?.to_string();
                self.require_fs_access(&cfg, pid, "read", &path)?;
                self.fs_server_hop(pid, b"read")?;
                Ok(SysRet::Data(self.fs.lock().read(fd, n)?))
            }
            Syscall::Write(fd, data) => {
                let path = self.fs.lock().path_of(fd)?.to_string();
                self.require_fs_access(&cfg, pid, "write", &path)?;
                self.fs_server_hop(pid, b"write")?;
                Ok(SysRet::Int(self.fs.lock().write(fd, &data)? as u64))
            }
        }
    }

    /// Model the client-server microkernel round trip to the
    /// user-level file server: request and reply each cross an IPC
    /// port (the cost that makes Table 1's file rows 2–3× Linux).
    /// The IPC lock is held across the hop so concurrent hops pair
    /// their own requests with their own replies.
    fn fs_server_hop(&self, pid: u64, op: &[u8]) -> Result<(), KernelError> {
        let mut ipc = self.ipc.lock();
        ipc.send(pid, self.fs_port, op.to_vec())?;
        let _ = ipc.recv(self.fs_port)?;
        ipc.send(0, self.fs_reply_port, b"ok".to_vec())?;
        let _ = ipc.recv(self.fs_reply_port)?;
        Ok(())
    }

    // ---- filesystem management ----

    /// Create a file: the file server executes it and deposits the
    /// ownership label in the creator's labelstore (§2.6).
    pub fn fs_create(&self, pid: u64, path: &str) -> Result<(), KernelError> {
        self.fs.lock().create(path, pid)?;
        let object = ResourceId::file(path);
        self.grant_ownership(pid, &object)?;
        Ok(())
    }

    /// Direct whole-file write (authorized).
    pub fn fs_write_all(&self, pid: u64, path: &str, data: &[u8]) -> Result<(), KernelError> {
        self.require_fs_access(&self.config(), pid, "write", path)?;
        self.fs.lock().write_all(path, data)
    }

    /// Raw filesystem access for resource managers (bypasses goals —
    /// kernel-internal use only).
    pub fn fs_raw(&self) -> MutexGuard<'_, RamFs> {
        self.fs.lock()
    }

    // ---- IPC ----

    /// Create a port for `pid`; the kernel's binding label lands in
    /// the owner's labelstore.
    pub fn create_port(&self, pid: u64) -> Result<u64, KernelError> {
        let (id, label) = self.ipc.lock().create_port(pid);
        if let Formula::Says(speaker, stmt) = label {
            self.kernel_label(pid, speaker, *stmt)?;
        }
        Ok(id)
    }

    /// Send on a port, traversing any interposed monitors.
    pub fn ipc_send(&self, pid: u64, port: u64, msg: Vec<u8>) -> Result<(), KernelError> {
        let mut call = IpcCall {
            subject: pid,
            operation: "send".into(),
            object: format!("ipc:{port}"),
            args: msg,
        };
        if let ChainOutcome::Blocked { monitor } = self.redirector.dispatch(port, &mut call)? {
            return Err(KernelError::Blocked { monitor });
        }
        self.ipc.lock().send(pid, port, call.args)
    }

    /// Receive on an owned port.
    pub fn ipc_recv(&self, pid: u64, port: u64) -> Result<(u64, Vec<u8>), KernelError> {
        let mut ipc = self.ipc.lock();
        if ipc.owner_of(port)? != pid {
            return Err(KernelError::AccessDenied {
                reason: format!("pid {pid} does not own port {port}"),
            });
        }
        ipc.recv(port)
    }

    /// The `interpose` system call: install a reference monitor on a
    /// channel. Interposition is subject to consent — authorized
    /// against the channel's `interpose` goal (default: port owner).
    pub fn interpose(
        &self,
        pid: u64,
        port: u64,
        interceptor: Box<dyn Interceptor>,
        level: MonitorLevel,
    ) -> Result<(), KernelError> {
        let object = ResourceId::ipc(port);
        // The port owner holds the ownership label from create_port;
        // others must satisfy an explicit goal. The syscall channel is
        // a kernel-owned virtual port.
        let owner = if port == SYSCALL_CHANNEL {
            0
        } else {
            self.ipc.lock().owner_of(port)?
        };
        let authorized = if owner == pid || pid == 0 {
            true
        } else {
            self.authorize(pid, "interpose", &object)?
        };
        if !authorized {
            return Err(KernelError::AccessDenied {
                reason: format!("interpose on port {port}"),
            });
        }
        self.redirector.install(port, interceptor, level);
        Ok(())
    }
}
