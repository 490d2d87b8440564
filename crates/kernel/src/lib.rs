//! # The Nexus kernel simulator
//!
//! A user-space model of the Nexus operating system (Sirer et al.,
//! SOSP 2011) with the same abstractions and communication topology as
//! the native x86 microkernel the paper describes:
//!
//! * [`ipd`] — isolated protection domains (processes), each a
//!   subprincipal of the kernel with its own labelstore;
//! * [`ipc`] — ports and channels; all component interaction flows
//!   over IPC, with kernel-minted port-binding labels;
//! * [`interpose`] — the redirector table and composable reference
//!   monitors (§3.2), including verdict caching;
//! * [`sched`] — proportional-share (stride) scheduling whose state is
//!   exported through introspection for resource attestation (§4.1);
//! * [`fs`] — the RAM filesystem behind the user-level file server;
//! * [`nic`] — the simulated network device and the UDP-echo paths of
//!   Figure 7, including the device-driver reference monitor;
//! * [`nexus`] — the kernel proper, one `Nexus` struct whose `impl` is
//!   split along its seams: `nexus/mod.rs` (the struct, boot (§3.4),
//!   configuration, subsystem accessors), `process` (IPDs and the
//!   lock-free hot index), `labels` (labelstore syscalls, the analyzer
//!   and replication hooks, and the two doors every credential write
//!   goes through), `goals` (goals, proofs, authorities), `authz` (the
//!   authorization path of Figure 1: decision cache → guard → goal,
//!   under a validated read stamp), `pipeline` (the `GuardPool`
//!   adapter and the invalidation fences), `telemetry` (the `Collect`
//!   walk over every stats surface), `syscalls` (Table 1's set, the
//!   filesystem, IPC and `interpose`), and `introspect` (the `/proc`
//!   namespace, §3.1).
//!
//! See "Paper vs. measured" in the workspace README for what is
//! simulated versus the paper's hardware and why the substitutions
//! preserve the evaluated behaviour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fs;
pub mod interpose;
pub mod ipc;
pub mod ipd;
pub mod nexus;
pub mod nic;
pub mod sched;

pub use error::KernelError;
pub use fs::RamFs;
pub use interpose::{
    ChainOutcome, Interceptor, InterposeStats, IpcCall, MonitorLevel, Redirector, Verdict,
};
pub use ipc::IpcTable;
pub use ipd::{Ipd, IpdTable};
pub use nexus::{
    AttestStats, BootImages, DistStats, Nexus, NexusConfig, SysRet, Syscall, SYSCALL_CHANNEL,
};
pub use nexus_authzd::{AuthzOutcome, AuthzTicket, GuardPoolConfig, PoolStats};
pub use nexus_obs::{
    AuditEvent, AuditPath, AuditVerdict, HistogramSnapshot, ObsConfig, TelemetrySnapshot,
};
pub use nic::{Ddrm, EchoPath, EchoWorld, NicDevice};
pub use sched::StrideScheduler;
