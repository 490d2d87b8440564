//! The introspection namespace (§3.1): a live, greybox view of kernel
//! state under `/proc`.

use super::Nexus;
use crate::error::KernelError;
use nexus_core::{OpName, ResourceId};

impl Nexus {
    /// Publish an application key=value binding under
    /// `/proc/app/<pid>/<key>`.
    pub fn publish(&self, pid: u64, key: &str, value: &str) -> Result<(), KernelError> {
        self.ipds
            .write()
            .get_mut(pid)?
            .published
            .insert(key.to_string(), value.to_string());
        Ok(())
    }

    /// Read an introspection node: a live, greybox view of kernel
    /// state. Paths mirror the paper's /proc conventions.
    pub fn introspect_read(&self, path: &str) -> Result<String, KernelError> {
        let parts: Vec<&str> = path.trim_start_matches('/').split('/').collect();
        match parts.as_slice() {
            ["proc", "ipds"] => Ok(self
                .ipds
                .read()
                .pids()
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(",")),
            ["proc", "ipd", pid, field] => {
                let pid: u64 = pid
                    .parse()
                    .map_err(|_| KernelError::NoSuchNode(path.into()))?;
                let ipds = self.ipds.read();
                let ipd = ipds.get(pid)?;
                match *field {
                    "name" => Ok(format!("name={}", ipd.name)),
                    "parent" => Ok(format!("parent={}", ipd.parent)),
                    "hash" => Ok(format!("hash={}", ipd.launch_hash.to_hex())),
                    _ => Err(KernelError::NoSuchNode(path.into())),
                }
            }
            ["proc", "ipc", "edges"] => Ok(self
                .ipc
                .lock()
                .edges()
                .iter()
                .map(|(a, b)| format!("{a}->{b}"))
                .collect::<Vec<_>>()
                .join(",")),
            ["proc", "ipc", port, "owner"] => {
                let port: u64 = port
                    .parse()
                    .map_err(|_| KernelError::NoSuchNode(path.into()))?;
                Ok(format!("owner={}", self.ipc.lock().owner_of(port)?))
            }
            ["proc", "sched", client, field] => {
                let sched = &self.sched;
                match *field {
                    "weight" => sched
                        .weight(client)
                        .map(|w| format!("weight={w}"))
                        .ok_or_else(|| KernelError::NoSuchNode(path.into())),
                    "usage" => sched
                        .usage(client)
                        .map(|u| format!("usage={u}"))
                        .ok_or_else(|| KernelError::NoSuchNode(path.into())),
                    "share" => sched
                        .share(client)
                        .map(|s| format!("share={s:.4}"))
                        .ok_or_else(|| KernelError::NoSuchNode(path.into())),
                    _ => Err(KernelError::NoSuchNode(path.into())),
                }
            }
            ["proc", "app", pid, key] => {
                let pid: u64 = pid
                    .parse()
                    .map_err(|_| KernelError::NoSuchNode(path.into()))?;
                self.ipds
                    .read()
                    .get(pid)?
                    .published
                    .get(*key)
                    .map(|v| format!("{key}={v}"))
                    .ok_or_else(|| KernelError::NoSuchNode(path.into()))
            }
            _ => Err(KernelError::NoSuchNode(path.into())),
        }
    }

    /// Goal-guarded introspection read: sensitive nodes carry goal
    /// formulas like any other resource.
    pub fn introspect_read_authorized(&self, pid: u64, path: &str) -> Result<String, KernelError> {
        let object = ResourceId::new("proc", path);
        if self.goals.get(&object, &OpName::from("read")).is_some()
            && !self.authorize(pid, "read", &object)?
        {
            return Err(KernelError::AccessDenied {
                reason: format!("introspect {path}"),
            });
        }
        self.introspect_read(path)
    }

    /// The raw IPC connectivity graph (pid → pid edges) for labeling
    /// functions like the IPC analyzer.
    pub fn ipc_graph(&self) -> Vec<(u64, u64)> {
        self.ipc.lock().edges().to_vec()
    }
}
