//! Figure 8: application-level impact of access control,
//! interpositioning, and attested storage on web-serving throughput
//! (static files and dynamic PyLite content) across file sizes.

use crate::boot_with;
use nexus_analyzers::pylite::{self, PyValue};
use nexus_core::{AuthorityKind, FnAuthority, ResourceId};
use nexus_kernel::{Interceptor, IpcCall, MonitorLevel, Nexus, NexusConfig, Verdict};
use nexus_nal::{parse, Principal, Proof};
use nexus_storage::SsrConfig;
use serde::Serialize;
use std::sync::Arc;

/// Access-control column (left pair of plots).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcMode {
    /// No authorization checks.
    None,
    /// Cacheable (label-backed) proof per request.
    Static,
    /// External authority consulted per request.
    Dynamic,
}

/// Interposition column (middle pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonMode {
    None,
    KernelCached,
    KernelUncached,
    UserCached,
    UserUncached,
}

/// Attested-storage column (right pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreMode {
    /// Plain RAM filesystem.
    None,
    /// SSR with hash-tree integrity.
    Hash,
    /// SSR with integrity + AES-CTR decryption.
    Decrypt,
}

/// Server flavor (top vs bottom row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerKind {
    StaticFiles,
    Python,
}

struct PassMonitor;
impl Interceptor for PassMonitor {
    fn name(&self) -> &str {
        "fig8-monitor"
    }
    fn on_call(&mut self, _call: &mut IpcCall) -> Verdict {
        Verdict::Continue
    }
    fn cacheable(&self) -> bool {
        true
    }
}

/// One web-serving world.
pub struct WebBench {
    nexus: Nexus,
    pid: u64,
    object: ResourceId,
    path: String,
    ssr: Option<&'static str>,
    port: Option<u64>,
    kind: ServerKind,
    ac: AcMode,
    size: usize,
}

impl WebBench {
    /// Build a world serving one file of `size` bytes.
    pub fn new(
        kind: ServerKind,
        ac: AcMode,
        mon: MonMode,
        store: StoreMode,
        size: usize,
    ) -> WebBench {
        // Defaults during setup (auto-prove discharges setgoal);
        // measurement config applied at the end.
        let nexus = boot_with(NexusConfig::default());
        let pid = nexus.spawn("www", b"www-image");
        let path = "/www/index".to_string();
        let object = ResourceId::file(&path);
        let body = vec![0x42u8; size];

        // Storage backend.
        let ssr = match store {
            StoreMode::None => {
                nexus.fs_raw().create(&path, pid).unwrap();
                nexus.fs_raw().write_all(&path, &body).unwrap();
                None
            }
            StoreMode::Hash | StoreMode::Decrypt => {
                let encrypt = if store == StoreMode::Decrypt {
                    Some(nexus.vkeys().create_symmetric(&mut nexus.tpm()))
                } else {
                    None
                };
                let ssr_cfg = SsrConfig {
                    block_size: 1024,
                    encrypt_with: encrypt,
                };
                let mut ssrs = nexus.ssrs();
                let mut vdirs = nexus.vdirs();
                ssrs.create("www", ssr_cfg, &mut vdirs, &mut nexus.tpm())
                    .unwrap();
                ssrs.write_all("www", &body, &mut *nexus.disk(), &mut vdirs, &nexus.vkeys())
                    .unwrap();
                Some("www")
            }
        };

        // Access control.
        let owner_goal = match ac {
            AcMode::None => None,
            AcMode::Static => Some(parse("Owner says ok").unwrap()),
            AcMode::Dynamic => Some(parse("Sessions says active(www)").unwrap()),
        };
        if let Some(goal) = owner_goal {
            nexus.grant_ownership(pid, &object).unwrap();
            nexus
                .sys_setgoal(pid, object.clone(), "get", goal.clone())
                .unwrap();
            match ac {
                AcMode::Static => {
                    nexus
                        .kernel_label(pid, Principal::name("Owner"), parse("ok").unwrap())
                        .unwrap();
                    nexus
                        .sys_set_proof(pid, "get", &object, Proof::assume(goal))
                        .unwrap();
                }
                AcMode::Dynamic => {
                    nexus
                        .sys_set_proof(pid, "get", &object, Proof::assume(goal))
                        .unwrap();
                    nexus.register_authority(
                        Principal::name("Sessions"),
                        Arc::new(FnAuthority(|s: &nexus_nal::Formula| {
                            s.to_string() == "active(www)"
                        })),
                        AuthorityKind::External,
                    );
                }
                AcMode::None => unreachable!(),
            }
        }

        // Interposition on the request channel.
        let port = match mon {
            MonMode::None => None,
            _ => {
                let port = nexus.create_port(pid).unwrap();
                let level = match mon {
                    MonMode::KernelCached | MonMode::KernelUncached => MonitorLevel::Kernel,
                    _ => MonitorLevel::User,
                };
                nexus
                    .interpose(pid, port, Box::new(PassMonitor), level)
                    .unwrap();
                nexus
                    .redirector()
                    .set_caching(matches!(mon, MonMode::KernelCached | MonMode::UserCached));
                Some(port)
            }
        };

        nexus.set_config(NexusConfig {
            authorize_fs: false, // serve() authorizes explicitly
            auto_prove: false,
            ..NexusConfig::default()
        });
        WebBench {
            nexus,
            pid,
            object,
            path,
            ssr,
            port,
            kind,
            ac,
            size,
        }
    }

    /// Serve one request; returns the response length.
    pub fn serve(&mut self) -> usize {
        // Request enters over the (possibly monitored) channel.
        if let Some(port) = self.port {
            self.nexus
                .ipc_send(self.pid, port, b"GET /index".to_vec())
                .expect("request");
            let _ = self.nexus.ipc_recv(self.pid, port);
        }
        // Access control.
        if self.ac != AcMode::None {
            let ok = self
                .nexus
                .authorize(self.pid, "get", &self.object)
                .expect("authorize");
            assert!(ok, "request must be authorized");
        }
        // Fetch the body.
        let body = match self.ssr {
            None => self.nexus.fs_raw().read_all(&self.path).expect("read"),
            Some(name) => {
                let ssrs = self.nexus.ssrs();
                let body = ssrs
                    .read_all(
                        name,
                        &*self.nexus.disk(),
                        &self.nexus.vdirs(),
                        &self.nexus.vkeys(),
                    )
                    .expect("ssr read");
                body
            }
        };
        // Dynamic content: the PyLite handler assembles the page.
        match self.kind {
            ServerKind::StaticFiles => body.len(),
            ServerKind::Python => {
                let mut interp = pylite::Interpreter::new();
                let len = body.len();
                interp.bind("body", PyValue::Handle(1));
                interp.register(
                    "render",
                    Box::new(move |_args| Ok(PyValue::Int(len as i64))),
                );
                let prog = pylite::parse("out = render(body)").expect("handler");
                interp.run(&prog).expect("tenant handler");
                match interp.get("out") {
                    Some(PyValue::Int(n)) => *n as usize,
                    _ => 0,
                }
            }
        }
    }

    /// Body size.
    pub fn size(&self) -> usize {
        self.size
    }
}

#[derive(Debug, Clone, Serialize)]
pub struct Point {
    pub kind: &'static str,
    pub column: &'static str,
    pub variant: &'static str,
    pub size: usize,
    pub rps: f64,
}

fn measure(
    kind: ServerKind,
    ac: AcMode,
    mon: MonMode,
    store: StoreMode,
    size: usize,
    reqs: u64,
) -> f64 {
    let mut world = WebBench::new(kind, ac, mon, store, size);
    for _ in 0..8 {
        world.serve();
    }
    let start = std::time::Instant::now();
    for _ in 0..reqs {
        world.serve();
    }
    reqs as f64 / start.elapsed().as_secs_f64()
}

/// Sizes on the x-axis (100 B to 1 MB, log scale in the paper).
pub const SIZES: [usize; 5] = [100, 1_000, 10_000, 100_000, 1_000_000];

/// The full sweep.
pub fn run(reqs: u64) -> Vec<Point> {
    let mut out = Vec::new();
    for (kind, kname) in [
        (ServerKind::StaticFiles, "static"),
        (ServerKind::Python, "www"),
    ] {
        for size in SIZES {
            // Column 1: access control.
            for (ac, vname) in [
                (AcMode::None, "none"),
                (AcMode::Static, "static"),
                (AcMode::Dynamic, "dynamic"),
            ] {
                out.push(Point {
                    kind: kname,
                    column: "access control",
                    variant: vname,
                    size,
                    rps: measure(kind, ac, MonMode::None, StoreMode::None, size, reqs),
                });
            }
            // Column 2: interposition.
            for (mon, vname) in [
                (MonMode::None, "none"),
                (MonMode::KernelCached, "kernel +"),
                (MonMode::KernelUncached, "kernel -"),
                (MonMode::UserCached, "user +"),
                (MonMode::UserUncached, "user -"),
            ] {
                out.push(Point {
                    kind: kname,
                    column: "introspection",
                    variant: vname,
                    size,
                    rps: measure(kind, AcMode::None, mon, StoreMode::None, size, reqs),
                });
            }
            // Column 3: attested storage.
            for (store, vname) in [
                (StoreMode::None, "none"),
                (StoreMode::Hash, "hash"),
                (StoreMode::Decrypt, "decrypt"),
            ] {
                out.push(Point {
                    kind: kname,
                    column: "attested storage",
                    variant: vname,
                    size,
                    rps: measure(kind, AcMode::None, MonMode::None, store, size, reqs),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_works_in_every_mode() {
        for kind in [ServerKind::StaticFiles, ServerKind::Python] {
            for ac in [AcMode::None, AcMode::Static, AcMode::Dynamic] {
                let mut w = WebBench::new(kind, ac, MonMode::None, StoreMode::None, 1000);
                assert_eq!(w.serve(), 1000);
            }
            for store in [StoreMode::Hash, StoreMode::Decrypt] {
                let mut w = WebBench::new(kind, AcMode::None, MonMode::None, store, 1000);
                assert_eq!(w.serve(), 1024, "SSR pads to block size");
            }
            for mon in [MonMode::KernelCached, MonMode::UserUncached] {
                let mut w = WebBench::new(kind, AcMode::None, mon, StoreMode::None, 500);
                assert_eq!(w.serve(), 500);
            }
        }
    }

    #[test]
    fn static_ac_is_cheap_dynamic_costs() {
        let _serial = crate::timing_guard();
        let none = measure(
            ServerKind::StaticFiles,
            AcMode::None,
            MonMode::None,
            StoreMode::None,
            1000,
            500,
        );
        let dynamic = measure(
            ServerKind::StaticFiles,
            AcMode::Dynamic,
            MonMode::None,
            StoreMode::None,
            1000,
            500,
        );
        assert!(
            none > dynamic,
            "dynamic AC ({dynamic:.0} rps) must cost more than none ({none:.0} rps)"
        );
    }

    #[test]
    fn encryption_costs_most_at_large_sizes() {
        let _serial = crate::timing_guard();
        let plain = measure(
            ServerKind::StaticFiles,
            AcMode::None,
            MonMode::None,
            StoreMode::None,
            1_000_000,
            20,
        );
        let decrypt = measure(
            ServerKind::StaticFiles,
            AcMode::None,
            MonMode::None,
            StoreMode::Decrypt,
            1_000_000,
            20,
        );
        assert!(
            plain > decrypt,
            "decryption ({decrypt:.0} rps) must be slower than plain ({plain:.0} rps)"
        );
    }
}
