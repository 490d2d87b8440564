//! The movie player (§4): escaping platform lock-down.
//!
//! Instead of whitelisting player binaries by hash, the content owner
//! demands a *property*: an IPC-connectivity analysis showing the
//! player has no channel to disk or network, plus an unexpired time
//! window vouched for by a clock authority. Any binary that passes
//! the analysis may play — the player's hash is never divulged.

use nexus_analyzers::IpcAnalyzer;
use nexus_core::{
    AccessRequest, AuthorityKind, AuthorityRegistry, FnAuthority, Guard, OpName, ProofRef,
    ResourceId,
};
use nexus_kernel::Nexus;
use nexus_nal::{parse, prove, CredSet, Creds, Formula, Principal, ProverConfig};
use parking_lot::Mutex;
use std::sync::Arc;

/// The content owner's streaming service.
pub struct MovieService {
    /// Deadline (yyyymmdd) after which streaming stops.
    pub deadline: i64,
    authorities: AuthorityRegistry,
    guard: Guard,
}

/// Outcome of a streaming request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamDecision {
    /// Stream granted.
    Granted,
    /// Denied with a reason.
    Denied(String),
}

impl MovieService {
    /// Build the service with a shared simulated clock.
    pub fn new(deadline: i64, clock: Arc<Mutex<i64>>) -> Self {
        let authorities = AuthorityRegistry::new();
        authorities.register(
            Principal::name("NTP"),
            Arc::new(FnAuthority(move |s: &Formula| {
                if let Formula::Cmp(op, a, b) = s {
                    if let (nexus_nal::Term::Sym(n), nexus_nal::Term::Int(bound)) = (&a.canon(), b)
                    {
                        if n == "TimeNow" {
                            return op.eval(&*clock.lock(), bound);
                        }
                    }
                }
                false
            })),
            AuthorityKind::External,
        );
        MovieService {
            deadline,
            authorities,
            guard: Guard::new(),
        }
    }

    /// The goal a player must discharge: the analyzer (attested by
    /// the kernel) says the player has no path to the filesystem or
    /// the network, and the deadline has not passed.
    pub fn goal(&self, player: u64, analyzer: &Principal) -> Formula {
        parse(&format!(
            "Nexus says {analyzer} speaksfor IPCAnalyzer \
             and {analyzer} says not hasPath(/proc/ipd/{player}, Filesystem) \
             and {analyzer} says not hasPath(/proc/ipd/{player}, Netdriver) \
             and NTP says TimeNow < {}",
            self.deadline
        ))
        .expect("well-formed goal")
    }

    /// Handle a streaming request: the client supplies its labels
    /// (fresh analyzer output plus the kernel's binding label); the
    /// service builds the proof obligation and checks it.
    pub fn request_stream(
        &mut self,
        nexus: &Nexus,
        player: u64,
        analyzer_pid: u64,
    ) -> StreamDecision {
        let analyzer_principal = match nexus.principal(analyzer_pid) {
            Ok(p) => p,
            Err(e) => return StreamDecision::Denied(e.to_string()),
        };
        // The client gathers credentials: kernel binding label + the
        // analyzer's fresh labels over the live IPC graph.
        let analyzer = IpcAnalyzer::new(analyzer_principal.clone());
        let report = analyzer.analyze(nexus);
        // Identify the sensitive services by name.
        let mut fs_pid = None;
        let mut net_pid = None;
        for pid in nexus.ipds().pids() {
            if let Ok(ipd) = nexus.ipds().get(pid) {
                match ipd.name.as_str() {
                    "fileserver" => fs_pid = Some(pid),
                    "netdriver" => net_pid = Some(pid),
                    _ => {}
                }
            }
        }
        let (Some(fs_pid), Some(net_pid)) = (fs_pid, net_pid) else {
            return StreamDecision::Denied("missing system services".into());
        };
        let mut labels = analyzer.labels_for(
            &report,
            player,
            &[(fs_pid, "Filesystem"), (net_pid, "Netdriver")],
        );
        labels.push(
            parse(&format!(
                "Nexus says {analyzer_principal} speaksfor IPCAnalyzer"
            ))
            .unwrap(),
        );
        // The time conjunct is authority-backed; include it as an
        // assumption the authority will vouch for.
        let time_stmt = parse(&format!("NTP says TimeNow < {}", self.deadline)).unwrap();
        let mut assumptions = labels.clone();
        assumptions.push(time_stmt);

        let goal = self.goal(player, &analyzer_principal);
        let Some(proof) = prove(&goal, &assumptions, ProverConfig::default()) else {
            return StreamDecision::Denied("could not assemble proof from analyzer labels".into());
        };
        let subject = Principal::name(format!("/proc/ipd/{player}"));
        let op = OpName::from("stream");
        let object = ResourceId::new("movie", "feature");
        let held = CredSet::new(&labels);
        let req = AccessRequest {
            subject: &subject,
            operation: &op,
            object: &object,
            proof: Some(ProofRef::Raw(&proof)),
            labels: Creds::new(&held),
        };
        let d = self.guard.check(&req, &goal, &self.authorities);
        if d.allow {
            StreamDecision::Granted
        } else {
            StreamDecision::Denied(format!("{:?}", d.reason))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_kernel::{BootImages, NexusConfig};
    use nexus_storage::RamDisk;
    use nexus_tpm::Tpm;

    fn world() -> (Nexus, u64, u64) {
        let nexus = Nexus::boot(
            Tpm::new_with_seed(0x3071e),
            RamDisk::new(),
            &BootImages::standard(),
            NexusConfig::default(),
        )
        .unwrap();
        nexus.spawn("fileserver", b"fs");
        nexus.spawn("netdriver", b"net");
        let player = nexus.spawn("any-player-binary", b"unknown-player");
        let analyzer = nexus.spawn("ipc-analyzer", b"analyzer");
        (nexus, player, analyzer)
    }

    #[test]
    fn confined_player_streams() {
        let (nexus, player, analyzer) = world();
        let clock = Arc::new(Mutex::new(20110301));
        let mut svc = MovieService::new(20110319, clock);
        assert_eq!(
            svc.request_stream(&nexus, player, analyzer),
            StreamDecision::Granted
        );
    }

    #[test]
    fn leaky_player_denied() {
        let (nexus, player, analyzer) = world();
        // The player opens a channel toward the file server.
        let fs_pid = nexus
            .ipds()
            .pids()
            .into_iter()
            .find(|&p| nexus.ipds().get(p).unwrap().name == "fileserver")
            .unwrap();
        let port = nexus.create_port(fs_pid).unwrap();
        nexus.ipc_send(player, port, b"exfil".to_vec()).unwrap();
        let clock = Arc::new(Mutex::new(20110301));
        let mut svc = MovieService::new(20110319, clock);
        assert!(matches!(
            svc.request_stream(&nexus, player, analyzer),
            StreamDecision::Denied(_)
        ));
    }

    #[test]
    fn expired_window_denied_without_revocation() {
        let (nexus, player, analyzer) = world();
        let clock = Arc::new(Mutex::new(20110301));
        let mut svc = MovieService::new(20110319, clock.clone());
        assert_eq!(
            svc.request_stream(&nexus, player, analyzer),
            StreamDecision::Granted
        );
        // Time passes; the same request now fails — the authority
        // simply answers differently; nothing was revoked.
        *clock.lock() = 20110401;
        assert!(matches!(
            svc.request_stream(&nexus, player, analyzer),
            StreamDecision::Denied(_)
        ));
    }
}
