//! Interpositioning (§3.2): synthetic trust via reference monitors.
//!
//! The `interpose` system call binds a reference monitor to an IPC
//! channel. Every call on the channel is rerouted through the
//! monitor, which may inspect and modify arguments, block the call,
//! and see (and modify) the return. Since *all* Nexus system calls go
//! through IPC, a monitor can mediate a process's entire interaction
//! with its environment. Interpositioning composes: multiple monitors
//! stack on one channel, and `interpose` itself can be monitored.

use crate::error::KernelError;
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// A call crossing an interposed channel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IpcCall {
    /// Calling pid.
    pub subject: u64,
    /// Operation name.
    pub operation: String,
    /// Object / target description.
    pub object: String,
    /// Marshaled arguments.
    pub args: Vec<u8>,
}

/// Monitor verdict for a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Let the call proceed (possibly with modified arguments).
    Continue,
    /// Block the call.
    Block,
}

/// A reference monitor.
pub trait Interceptor: Send {
    /// Monitor name (appears in block errors and audit logs).
    fn name(&self) -> &str;
    /// Inspect/modify/block an outgoing call.
    fn on_call(&mut self, call: &mut IpcCall) -> Verdict;
    /// Inspect/modify the response on the return path.
    fn on_return(&mut self, _call: &IpcCall, _response: &mut Vec<u8>) {}
    /// May the redirector cache this monitor's verdicts per
    /// (subject, operation, object)? Only monitors whose decisions
    /// don't depend on argument bytes or mutable state may say yes.
    fn cacheable(&self) -> bool {
        false
    }
}

/// Where a monitor runs. User-level monitors pay an extra marshaling
/// round-trip per call (they live in their own IPD and are reached by
/// IPC), which is the `kref` vs `uref` gap in Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorLevel {
    /// In-kernel monitor: direct call.
    Kernel,
    /// User-space monitor: marshaled across an IPC boundary.
    User,
}

struct Installed {
    /// Each monitor carries its own lock: the chain is traversed
    /// under a read lock, and stateful monitors (`on_call` takes
    /// `&mut self`) serialize only on themselves.
    interceptor: Mutex<Box<dyn Interceptor>>,
    level: MonitorLevel,
}

/// Outcome of running a channel's monitor chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainOutcome {
    /// All monitors passed; the (possibly modified) call may proceed.
    Proceed,
    /// A monitor blocked the call.
    Blocked {
        /// The blocking monitor's name.
        monitor: String,
    },
}

/// The kernel's redirector table: per-channel monitor chains plus a
/// verdict cache. Internally synchronized — `dispatch` takes `&self`
/// so interposed channels can carry traffic from many threads; the
/// chain map is read-mostly (a reader-writer lock), each monitor has
/// its own lock, and the verdict cache is a mutex.
pub struct Redirector {
    chains: RwLock<HashMap<u64, Vec<Installed>>>,
    /// Verdict cache keyed by (port, subject, operation, object) —
    /// only consulted/filled when every monitor on the chain is
    /// cacheable. This is the decision caching whose effect Figure 7
    /// measures (`min` vs `max`).
    cache: Mutex<HashMap<(u64, u64, String, String), ChainOutcome>>,
    /// Global switch for the verdict cache.
    caching_enabled: AtomicBool,
    counters: InterposeCounters,
}

impl Default for Redirector {
    fn default() -> Self {
        Self::new()
    }
}

impl Redirector {
    /// Empty table with caching enabled.
    pub fn new() -> Self {
        Redirector {
            chains: RwLock::new(HashMap::new()),
            cache: Mutex::new(HashMap::new()),
            caching_enabled: AtomicBool::new(true),
            counters: InterposeCounters::default(),
        }
    }

    /// Enable or disable the verdict cache (benchmark ablations).
    pub fn set_caching(&self, enabled: bool) {
        self.caching_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Is the verdict cache enabled?
    pub fn caching_enabled(&self) -> bool {
        self.caching_enabled.load(Ordering::Relaxed)
    }

    /// The `interpose` system call: append a monitor to a channel's
    /// chain. (Authorization — the consent goal formula — is enforced
    /// by the caller in `Nexus::interpose`.)
    pub fn install(&self, port: u64, interceptor: Box<dyn Interceptor>, level: MonitorLevel) {
        self.chains
            .write()
            .entry(port)
            .or_default()
            .push(Installed {
                interceptor: Mutex::new(interceptor),
                level,
            });
        // New monitor: previous verdicts no longer valid for the port.
        self.cache.lock().retain(|(p, _, _, _), _| *p != port);
    }

    /// Remove all monitors from a channel.
    pub fn clear(&self, port: u64) {
        self.chains.write().remove(&port);
        self.cache.lock().retain(|(p, _, _, _), _| *p != port);
    }

    /// Is the channel interposed?
    pub fn is_interposed(&self, port: u64) -> bool {
        self.chains
            .read()
            .get(&port)
            .map(|c| !c.is_empty())
            .unwrap_or(false)
    }

    /// Run the chain for `port` over `call`. Marshaling: each
    /// kernel-mode switch re-encodes the call; user-level monitors
    /// round-trip the encoding once more. A marshaling failure is an
    /// error — monitors must never see an empty or stale payload, or
    /// a call could slip past its monitor with a bogus encoding.
    pub fn dispatch(&self, port: u64, call: &mut IpcCall) -> Result<ChainOutcome, KernelError> {
        let chains = self.chains.read();
        let chain = match chains.get(&port) {
            Some(c) if !c.is_empty() => c,
            _ => return Ok(ChainOutcome::Proceed),
        };
        self.counters.invocations.add(1);
        // Re-queried on every dispatch (not snapshotted at install):
        // a stateful monitor may stop being cacheable over its life.
        let caching =
            self.caching_enabled() && chain.iter().all(|i| i.interceptor.lock().cacheable());
        let key = (
            port,
            call.subject,
            call.operation.clone(),
            call.object.clone(),
        );
        if caching {
            if let Some(outcome) = self.cache.lock().get(&key) {
                self.counters.hits.add(1);
                return Ok(outcome.clone());
            }
        }
        for installed in chain.iter() {
            // Parameter marshaling at the kernel-mode switch; user
            // monitors marshal across their own address space too.
            let encoded = serde_json::to_vec(&*call)
                .map_err(|e| KernelError::Interpose(format!("marshal call: {e}")))?;
            if installed.level == MonitorLevel::User {
                let copy: IpcCall = serde_json::from_slice(&encoded)
                    .map_err(|e| KernelError::Interpose(format!("unmarshal call: {e}")))?;
                *call = copy;
            }
            let mut interceptor = installed.interceptor.lock();
            if interceptor.on_call(call) == Verdict::Block {
                let outcome = ChainOutcome::Blocked {
                    monitor: interceptor.name().to_string(),
                };
                if caching {
                    self.cache.lock().insert(key, outcome.clone());
                }
                return Ok(outcome);
            }
        }
        if caching {
            self.cache.lock().insert(key, ChainOutcome::Proceed);
        }
        Ok(ChainOutcome::Proceed)
    }

    /// Run the return path for `port`.
    pub fn dispatch_return(&self, port: u64, call: &IpcCall, response: &mut Vec<u8>) {
        if let Some(chain) = self.chains.read().get(&port) {
            for installed in chain.iter().rev() {
                installed.interceptor.lock().on_return(call, response);
            }
        }
    }

    /// Verdict-cache statistics snapshot.
    pub fn stats(&self) -> InterposeStats {
        self.counters.snapshot()
    }
}

nexus_obs::counters! {
    /// Redirector statistics: interposed-dispatch verdict caching.
    pub struct InterposeStats, live InterposeCounters {
        /// Total dispatches that traversed an interposed channel.
        invocations: plain counter
            "nexus_interpose_invocations_total" "redirector monitor invocations",
        /// Dispatches answered from the verdict cache.
        hits: plain counter "nexus_interpose_hits_total" "redirector verdict-cache hits",
    }
}

impl InterposeStats {
    /// Hit fraction (0 when nothing dispatched).
    pub fn hit_rate(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.hits as f64 / self.invocations as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct BlockWrites {
        cacheable: bool,
    }
    impl Interceptor for BlockWrites {
        fn name(&self) -> &str {
            "block-writes"
        }
        fn on_call(&mut self, call: &mut IpcCall) -> Verdict {
            if call.operation == "write" {
                Verdict::Block
            } else {
                Verdict::Continue
            }
        }
        fn cacheable(&self) -> bool {
            self.cacheable
        }
    }

    struct Uppercase;
    impl Interceptor for Uppercase {
        fn name(&self) -> &str {
            "uppercase"
        }
        fn on_call(&mut self, call: &mut IpcCall) -> Verdict {
            call.args = call.args.to_ascii_uppercase();
            Verdict::Continue
        }
        fn on_return(&mut self, _call: &IpcCall, response: &mut Vec<u8>) {
            response.push(b'!');
        }
    }

    fn call(op: &str) -> IpcCall {
        IpcCall {
            subject: 7,
            operation: op.into(),
            object: "disk".into(),
            args: b"hello".to_vec(),
        }
    }

    #[test]
    fn uninterposed_channels_pass_through() {
        let r = Redirector::new();
        assert_eq!(
            r.dispatch(1, &mut call("write")).unwrap(),
            ChainOutcome::Proceed
        );
        assert!(!r.is_interposed(1));
    }

    #[test]
    fn monitor_blocks_matching_calls() {
        let r = Redirector::new();
        r.install(
            1,
            Box::new(BlockWrites { cacheable: false }),
            MonitorLevel::Kernel,
        );
        assert_eq!(
            r.dispatch(1, &mut call("read")).unwrap(),
            ChainOutcome::Proceed
        );
        assert!(matches!(
            r.dispatch(1, &mut call("write")).unwrap(),
            ChainOutcome::Blocked { .. }
        ));
    }

    #[test]
    fn monitors_can_rewrite_arguments_and_returns() {
        let r = Redirector::new();
        r.install(1, Box::new(Uppercase), MonitorLevel::Kernel);
        let mut c = call("read");
        r.dispatch(1, &mut c).unwrap();
        assert_eq!(c.args, b"HELLO");
        let mut resp = b"ok".to_vec();
        r.dispatch_return(1, &c, &mut resp);
        assert_eq!(resp, b"ok!");
    }

    #[test]
    fn chains_compose_in_order() {
        let r = Redirector::new();
        r.install(1, Box::new(Uppercase), MonitorLevel::Kernel);
        r.install(
            1,
            Box::new(BlockWrites { cacheable: false }),
            MonitorLevel::Kernel,
        );
        // Uppercase runs, then BlockWrites blocks.
        let mut c = call("write");
        assert!(matches!(
            r.dispatch(1, &mut c).unwrap(),
            ChainOutcome::Blocked { .. }
        ));
        assert_eq!(c.args, b"HELLO", "earlier monitor already ran");
    }

    #[test]
    fn cacheable_verdicts_are_cached() {
        let r = Redirector::new();
        r.install(
            1,
            Box::new(BlockWrites { cacheable: true }),
            MonitorLevel::Kernel,
        );
        for _ in 0..5 {
            r.dispatch(1, &mut call("read")).unwrap();
        }
        let stats = r.stats();
        assert_eq!(stats.invocations, 5);
        assert_eq!(stats.hits, 4);
        assert!((stats.hit_rate() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn non_cacheable_monitors_rerun() {
        let r = Redirector::new();
        r.install(
            1,
            Box::new(BlockWrites { cacheable: false }),
            MonitorLevel::Kernel,
        );
        for _ in 0..5 {
            r.dispatch(1, &mut call("read")).unwrap();
        }
        assert_eq!(r.stats().hits, 0);
    }

    #[test]
    fn caching_can_be_disabled() {
        let r = Redirector::new();
        r.set_caching(false);
        r.install(
            1,
            Box::new(BlockWrites { cacheable: true }),
            MonitorLevel::Kernel,
        );
        for _ in 0..5 {
            r.dispatch(1, &mut call("read")).unwrap();
        }
        assert_eq!(r.stats().hits, 0);
    }

    #[test]
    fn install_invalidates_port_cache() {
        let r = Redirector::new();
        r.install(
            1,
            Box::new(BlockWrites { cacheable: true }),
            MonitorLevel::Kernel,
        );
        r.dispatch(1, &mut call("write")).unwrap();
        // Installing another monitor resets cached verdicts.
        r.install(1, Box::new(Uppercase), MonitorLevel::Kernel);
        // Uppercase is not cacheable -> chain not cacheable; verdict
        // still computed fresh (and correct).
        assert!(matches!(
            r.dispatch(1, &mut call("write")).unwrap(),
            ChainOutcome::Blocked { .. }
        ));
    }
}
