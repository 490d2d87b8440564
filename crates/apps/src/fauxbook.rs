//! Fauxbook: the privacy-preserving social network (§4.1).
//!
//! Three tiers run as separate IPDs on one Nexus: a NIC driver
//! confined by a DDRM, a web server that relinquishes all system
//! calls but IPC after initialization, and a web framework that runs
//! developer-supplied tenant code in the PyLite sandbox over cobufs.
//!
//! The guarantees, and where they come from:
//!
//! * **cloud provider ← developer**: tenant code passes the
//!   import-whitelist analysis and the reflection-rewriting pass, so
//!   it stays inside the sandbox — no VMs needed;
//! * **developer ← provider**: the proportional-share scheduler's
//!   weights are exported via introspection, so resource reservations
//!   are attestable (resource attestation);
//! * **user ← everyone**: user data lives in cobufs that tenant code
//!   can only store, slice, and concatenate — never read; collation
//!   is gated on the social graph; wall visibility is decided by the
//!   guard using two embedded authorities (the web server's session
//!   authority and the framework's friendship authority).

use nexus_analyzers::attest::{AttestAnalyzer, Claim};
use nexus_analyzers::cobuf::{CobufStore, RenderToken};
use nexus_analyzers::pylite::{
    self, check_import_whitelist, find_reflection, rewrite_reflection, Program, PyValue,
};
use nexus_analyzers::CobufId;
use nexus_core::{
    AccessRequest, AuthorityKind, AuthorityRegistry, FnAuthority, Guard, OpName, ProofRef,
    ResourceId,
};
use nexus_kernel::{BootImages, EchoPath, EchoWorld, MonitorLevel, Nexus, NexusConfig};
use nexus_nal::{parse, CredSet, Creds, Formula, Principal, Proof};
use nexus_storage::RamDisk;
use nexus_tpm::Tpm;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Modules tenant code may import.
pub const TENANT_WHITELIST: &[&str] = &["fauxbook", "strings"];

/// A logged-in session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(pub u64);

/// Wall visibility policies (§4.1: private, public, or friends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WallPolicy {
    /// Only the owner.
    Private,
    /// Anyone.
    Public,
    /// Owner and friends.
    Friends,
}

/// Fauxbook errors.
#[derive(Debug, Clone, PartialEq)]
pub enum FauxbookError {
    /// Tenant code failed the static analysis.
    TenantRejected(String),
    /// Unknown user / session.
    NoSuchUser(String),
    /// Authorization denied by the guard.
    Denied(String),
    /// Kernel-level failure.
    Kernel(String),
    /// Tenant runtime failure.
    Tenant(String),
}

impl fmt::Display for FauxbookError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FauxbookError::TenantRejected(m) => write!(f, "tenant code rejected: {m}"),
            FauxbookError::NoSuchUser(u) => write!(f, "no such user: {u}"),
            FauxbookError::Denied(m) => write!(f, "denied: {m}"),
            FauxbookError::Kernel(m) => write!(f, "kernel: {m}"),
            FauxbookError::Tenant(m) => write!(f, "tenant: {m}"),
        }
    }
}

impl std::error::Error for FauxbookError {}

struct SharedState {
    /// session → user (the web server's authentication table).
    sessions: HashMap<u64, String>,
    /// The session authority's notion of "current user" per query.
    current_user: Option<String>,
    /// user → friends (backed by friend files in the Nexus fs).
    friends: HashMap<String, HashSet<String>>,
}

/// The deployed application.
pub struct Fauxbook {
    /// The underlying kernel.
    pub nexus: Nexus,
    /// NIC driver IPD.
    pub driver_pid: u64,
    /// Web server IPD.
    pub webserver_pid: u64,
    /// Web framework IPD.
    pub framework_pid: u64,
    /// Tenant-code IPD — holds the attestation analyzer's
    /// `imports_clean` credential once deployment succeeds.
    pub tenant_pid: u64,
    echo: EchoWorld,
    cobufs: CobufStore,
    render_token: RenderToken,
    tenant: Program,
    state: Arc<Mutex<SharedState>>,
    authorities: AuthorityRegistry,
    guard: Guard,
    walls: HashMap<String, Vec<CobufId>>,
    policies: HashMap<String, WallPolicy>,
    next_session: u64,
    attestations: Vec<Formula>,
}

impl Fauxbook {
    /// Deploy the stack with developer-supplied tenant code.
    ///
    /// Deployment runs the two labeling functions of §4.1: static
    /// import analysis (reject on violation) and reflection
    /// rewriting (always applied). The labels that would be published
    /// at the privacy-policy URL are collected in
    /// [`Fauxbook::attestation_labels`].
    pub fn deploy(tenant_source: &str) -> Result<Fauxbook, FauxbookError> {
        let nexus = Nexus::boot(
            Tpm::new_with_seed(0xfb00),
            RamDisk::new(),
            &BootImages::standard(),
            NexusConfig::default(),
        )
        .map_err(|e| FauxbookError::Kernel(e.to_string()))?;

        // --- tiers ---
        let echo = EchoWorld::new(&nexus, EchoPath::UserDriver)
            .map_err(|e| FauxbookError::Kernel(e.to_string()))?;
        let driver_pid = nexus.spawn("nic-driver-fb", b"nic-driver");
        let webserver_pid = nexus.spawn("lighttpd", b"lighttpd-image");
        let framework_pid = nexus.spawn("web-framework", b"framework-image");
        // DDRM on the driver path (synthetic basis).
        echo.install_monitor(&nexus, MonitorLevel::Kernel)
            .map_err(|e| FauxbookError::Kernel(e.to_string()))?;
        // The web server relinquishes everything but IPC after init.
        for call in ["open", "read", "write"] {
            nexus
                .relinquish(
                    webserver_pid,
                    match call {
                        "open" => "open",
                        "read" => "read",
                        _ => "write",
                    },
                )
                .map_err(|e| FauxbookError::Kernel(e.to_string()))?;
        }

        // --- labeling functions over the tenant code ---
        let parsed = pylite::parse(tenant_source)
            .map_err(|e| FauxbookError::TenantRejected(e.to_string()))?;
        check_import_whitelist(&parsed, TENANT_WHITELIST)
            .map_err(|e| FauxbookError::TenantRejected(e.to_string()))?;
        let reflections = find_reflection(&parsed);
        let tenant = rewrite_reflection(&parsed);

        // The whitelist verdict also flows through the attestation-
        // minting path (ISSUE 8): the tenant IPD earns a real
        // `imports_clean` credential, spoken by the analyzer's own
        // principal, sitting in its labelstore like any other label.
        let tenant_pid = nexus.spawn("fauxbook-tenant", tenant_source.as_bytes());
        let attest_analyzer =
            AttestAnalyzer::launch(&nexus).map_err(|e| FauxbookError::Kernel(e.to_string()))?;
        let tenant_attestation = attest_analyzer
            .attest_pylite(&nexus, tenant_pid, &parsed, TENANT_WHITELIST)
            .map_err(|e| FauxbookError::Kernel(e.to_string()))?;
        if !tenant_attestation.holds(Claim::ImportsClean) {
            return Err(FauxbookError::TenantRejected(
                tenant_attestation
                    .refusal(Claim::ImportsClean)
                    .unwrap_or("imports_clean refused")
                    .to_string(),
            ));
        }

        // --- attestation labels (the privacy-policy bundle) ---
        let fw = nexus
            .principal(framework_pid)
            .map_err(|e| FauxbookError::Kernel(e.to_string()))?;
        let mut attestations = vec![
            parse(&format!("{fw} says importsWhitelisted(tenant)")).unwrap(),
            parse(&format!("{fw} says reflectionRewritten(tenant)")).unwrap(),
            parse(&format!("{fw} says cobufConfined(tenant)")).unwrap(),
            parse("Nexus says ddrmConfined(nicdriver)").unwrap(),
            parse("Nexus says syscallsRelinquished(webserver)").unwrap(),
        ];
        if !reflections.is_empty() {
            attestations.push(parse(&format!("{fw} says reflectionNeutralized(tenant)")).unwrap());
        }
        // The analyzer-minted credential joins the published bundle.
        let tenant_prin = nexus
            .principal(tenant_pid)
            .map_err(|e| FauxbookError::Kernel(e.to_string()))?;
        attestations.push(attest_analyzer.credential(Claim::ImportsClean, &tenant_prin));
        // Resource attestation: register tenants on the scheduler.
        nexus.sched().set_weight("fauxbook", 3);
        nexus.sched().set_weight("other-tenant", 1);

        let state = Arc::new(Mutex::new(SharedState {
            sessions: HashMap::new(),
            current_user: None,
            friends: HashMap::new(),
        }));

        // --- embedded authorities (§4.1's two authorities) ---
        let authorities = AuthorityRegistry::new();
        let session_state = state.clone();
        authorities.register(
            Principal::name("name").sub("webserver"),
            Arc::new(FnAuthority(move |s: &Formula| {
                // name.webserver says user = <u>
                if let Formula::Cmp(nexus_nal::CmpOp::Eq, a, b) = s {
                    if a.subject_name() == Some("user") {
                        if let nexus_nal::Term::Sym(u) = &b.canon() {
                            return session_state.lock().current_user.as_deref() == Some(u);
                        }
                    }
                }
                false
            })),
            AuthorityKind::Embedded,
        );
        let friend_state = state.clone();
        authorities.register(
            Principal::name("name").sub("python"),
            Arc::new(FnAuthority(move |s: &Formula| {
                // name.python says inFriends(owner, viewer): the
                // authority introspects the (publicly readable)
                // friend file (§4.1).
                if let Formula::Pred(name, args) = s {
                    if name == "inFriends" && args.len() == 2 {
                        if let (nexus_nal::Term::Sym(owner), nexus_nal::Term::Sym(viewer)) =
                            (&args[0].canon(), &args[1].canon())
                        {
                            return friend_state
                                .lock()
                                .friends
                                .get(owner)
                                .map(|f| f.contains(viewer))
                                .unwrap_or(false);
                        }
                    }
                }
                false
            })),
            AuthorityKind::Embedded,
        );

        let (cobufs, render_token) = CobufStore::new();
        Ok(Fauxbook {
            nexus,
            driver_pid,
            webserver_pid,
            framework_pid,
            tenant_pid,
            echo,
            cobufs,
            render_token,
            tenant,
            state,
            authorities,
            guard: Guard::new(),
            walls: HashMap::new(),
            policies: HashMap::new(),
            next_session: 1,
            attestations,
        })
    }

    /// The labels a prospective user inspects before signing up
    /// (published at a well-known URL in X.509 form, §4.1).
    pub fn attestation_labels(&self) -> &[Formula] {
        &self.attestations
    }

    /// Create a user with the given wall policy.
    pub fn signup(&mut self, user: &str, policy: WallPolicy) -> Result<(), FauxbookError> {
        let path = format!("/fauxbook/{user}/wall");
        self.nexus
            .fs_create(self.framework_pid, &path)
            .map_err(|e| FauxbookError::Kernel(e.to_string()))?;
        let friends_path = format!("/fauxbook/{user}/friends");
        self.nexus
            .fs_create(self.framework_pid, &friends_path)
            .map_err(|e| FauxbookError::Kernel(e.to_string()))?;
        self.walls.insert(user.to_string(), Vec::new());
        self.policies.insert(user.to_string(), policy);
        self.state
            .lock()
            .friends
            .insert(user.to_string(), HashSet::new());
        Ok(())
    }

    /// Authenticate a user; returns the session the web server binds
    /// the owner identifier to.
    pub fn login(&mut self, user: &str) -> Result<SessionId, FauxbookError> {
        if !self.walls.contains_key(user) {
            return Err(FauxbookError::NoSuchUser(user.to_string()));
        }
        let id = self.next_session;
        self.next_session += 1;
        self.state.lock().sessions.insert(id, user.to_string());
        Ok(SessionId(id))
    }

    fn user_of(&self, session: SessionId) -> Result<String, FauxbookError> {
        self.state
            .lock()
            .sessions
            .get(&session.0)
            .cloned()
            .ok_or_else(|| FauxbookError::NoSuchUser(format!("session {}", session.0)))
    }

    /// A user-initiated friend addition: generates the speaksfor link
    /// in the social graph (§4.1). Friendship is mutual here.
    pub fn add_friend(&mut self, session: SessionId, friend: &str) -> Result<(), FauxbookError> {
        let user = self.user_of(session)?;
        if !self.walls.contains_key(friend) {
            return Err(FauxbookError::NoSuchUser(friend.to_string()));
        }
        {
            let mut st = self.state.lock();
            st.friends
                .get_mut(&user)
                .expect("user exists")
                .insert(friend.to_string());
            st.friends
                .get_mut(friend)
                .expect("friend exists")
                .insert(user.clone());
        }
        // Mirror into the publicly-readable friend file the python
        // authority introspects.
        let snapshot = {
            let st = self.state.lock();
            let mut v: Vec<String> = st.friends[&user].iter().cloned().collect();
            v.sort();
            v.join(",")
        };
        self.nexus
            .fs_raw()
            .write_all(&format!("/fauxbook/{user}/friends"), snapshot.as_bytes())
            .map_err(|e| FauxbookError::Kernel(e.to_string()))?;
        Ok(())
    }

    /// Post a status update. The web server attaches the owner
    /// identifier from the authenticated session; tenant code then
    /// manipulates the data purely as a cobuf.
    pub fn post(&mut self, session: SessionId, content: &str) -> Result<(), FauxbookError> {
        let user = self.user_of(session)?;
        // The packet traverses driver → web server (both confined).
        self.echo
            .echo(&self.nexus, content.as_bytes())
            .map_err(|e| FauxbookError::Kernel(e.to_string()))?;
        // Owner attribution happens here, in the web server layer —
        // tenant code cannot forge it.
        let buf = self
            .cobufs
            .ingest(Principal::name(&user), content.as_bytes().to_vec());
        // Tenant handler runs in the sandbox; it can only move the
        // handle around.
        let mut interp = pylite::Interpreter::new();
        interp.bind("post", PyValue::Handle(buf.0));
        let stored: Arc<Mutex<Option<u64>>> = Arc::new(Mutex::new(None));
        let sink = stored.clone();
        interp.register(
            "store_post",
            Box::new(move |args| match args.as_slice() {
                [PyValue::Handle(h)] => {
                    *sink.lock() = Some(*h);
                    Ok(PyValue::None)
                }
                _ => Err(pylite::PyError::Host("store_post: want handle".into())),
            }),
        );
        interp
            .run(&self.tenant)
            .map_err(|e| FauxbookError::Tenant(e.to_string()))?;
        let handle = stored
            .lock()
            .ok_or_else(|| FauxbookError::Tenant("tenant did not store the post".into()))?;
        self.walls
            .get_mut(&user)
            .expect("user exists")
            .push(CobufId(handle));
        Ok(())
    }

    /// View a user's wall. The goal formula is discharged through the
    /// two embedded authorities; the page is assembled by collating
    /// cobufs (flow-checked against the social graph) and rendered
    /// only at the web server boundary.
    pub fn view_wall(&mut self, session: SessionId, whose: &str) -> Result<String, FauxbookError> {
        let viewer = self.user_of(session)?;
        if !self.walls.contains_key(whose) {
            return Err(FauxbookError::NoSuchUser(whose.to_string()));
        }
        let policy = self.policies[whose];
        // Build the per-request goal formula.
        let goal = match policy {
            WallPolicy::Public => Formula::True,
            WallPolicy::Private => parse(&format!("name.webserver says user = {whose}")).unwrap(),
            WallPolicy::Friends => parse(&format!(
                "name.webserver says user = {whose} or name.python says inFriends({whose}, {viewer})"
            ))
            .unwrap(),
        };
        // The session authority answers for the *viewer's* session.
        self.state.lock().current_user = Some(viewer.clone());
        // Client-side proof construction: pick the satisfiable
        // disjunct (authorities will vouch at check time).
        let proof = match policy {
            WallPolicy::Public => None,
            WallPolicy::Private => Some(Proof::assume(
                parse(&format!("name.webserver says user = {whose}")).unwrap(),
            )),
            WallPolicy::Friends => {
                let own = parse(&format!("name.webserver says user = {whose}")).unwrap();
                let friend =
                    parse(&format!("name.python says inFriends({whose}, {viewer})")).unwrap();
                if viewer == whose {
                    Some(Proof::OrIntroL(Box::new(Proof::assume(own)), friend))
                } else {
                    Some(Proof::OrIntroR(own, Box::new(Proof::assume(friend))))
                }
            }
        };
        let subject = Principal::name(&viewer);
        let op = OpName::from("view");
        let object = ResourceId::file(&format!("/fauxbook/{whose}/wall"));
        // No labels: every leaf is an authority's to vouch for.
        let no_labels = CredSet::default();
        let req = AccessRequest {
            subject: &subject,
            operation: &op,
            object: &object,
            proof: proof.as_ref().map(ProofRef::Raw),
            labels: Creds::new(&no_labels),
        };
        let decision = self.guard.check(&req, &goal, &self.authorities);
        self.state.lock().current_user = None;
        if !decision.allow {
            return Err(FauxbookError::Denied(format!(
                "{viewer} may not view {whose}'s wall: {:?}",
                decision.reason
            )));
        }
        // Assemble the page: collation is flow-checked against the
        // social graph (viewer's page may carry owner's data only if
        // the viewer speaks for the owner, i.e. they are friends or
        // identical).
        let friends = self.state.clone();
        let flow = move |dst: &Principal, src: &Principal| {
            let (d, s) = (dst.to_string(), src.to_string());
            friends
                .lock()
                .friends
                .get(&s)
                .map(|f| f.contains(&d))
                .unwrap_or(false)
        };
        let parts = self.walls[whose].clone();
        let page = self
            .cobufs
            .concat(Principal::name(&viewer), &parts, &flow)
            .map_err(|e| FauxbookError::Denied(e.to_string()))?;
        // Render only at the web-server boundary for the
        // authenticated session.
        let bytes = self
            .cobufs
            .render(page, &self.render_token)
            .map_err(|e| FauxbookError::Denied(e.to_string()))?;
        Ok(String::from_utf8_lossy(bytes).into_owned())
    }

    /// What a malicious tenant would see: there is no builtin that
    /// exposes cobuf contents, so the attempt fails in the sandbox.
    pub fn tenant_tries_to_read(&mut self, code: &str) -> Result<PyValue, FauxbookError> {
        let parsed = pylite::parse(code).map_err(|e| FauxbookError::Tenant(e.to_string()))?;
        check_import_whitelist(&parsed, TENANT_WHITELIST)
            .map_err(|e| FauxbookError::TenantRejected(e.to_string()))?;
        let safe = rewrite_reflection(&parsed);
        let mut interp = pylite::Interpreter::new();
        interp.bind("post", PyValue::Handle(1));
        interp
            .run(&safe)
            .map_err(|e| FauxbookError::Tenant(e.to_string()))
    }

    /// Resource attestation: the share of CPU the scheduler grants a
    /// tenant, read through introspection (§4.1).
    pub fn attested_share(&self, tenant: &str) -> Option<f64> {
        self.nexus.sched().share(tenant)
    }
}

/// The stock Fauxbook tenant handler: store each post, data-blind.
pub const DEFAULT_TENANT: &str = "import fauxbook\nstore_post(post)\n";

#[cfg(test)]
mod tests {
    use super::*;

    fn deployed() -> Fauxbook {
        Fauxbook::deploy(DEFAULT_TENANT).unwrap()
    }

    #[test]
    fn deploy_emits_attestation_labels() {
        let fb = deployed();
        let labels: Vec<String> = fb
            .attestation_labels()
            .iter()
            .map(|l| l.to_string())
            .collect();
        assert!(labels.iter().any(|l| l.contains("importsWhitelisted")));
        assert!(labels.iter().any(|l| l.contains("reflectionRewritten")));
        assert!(labels.iter().any(|l| l.contains("ddrmConfined")));
    }

    #[test]
    fn tenant_with_forbidden_import_rejected() {
        let err = Fauxbook::deploy("import os\nstore_post(post)\n");
        assert!(matches!(err, Err(FauxbookError::TenantRejected(_))));
    }

    #[test]
    fn post_and_view_own_wall() {
        let mut fb = deployed();
        fb.signup("alice", WallPolicy::Friends).unwrap();
        let s = fb.login("alice").unwrap();
        fb.post(s, "hello world").unwrap();
        fb.post(s, " and more").unwrap();
        let page = fb.view_wall(s, "alice").unwrap();
        assert_eq!(page, "hello world and more");
    }

    #[test]
    fn friends_can_view_strangers_cannot() {
        let mut fb = deployed();
        fb.signup("alice", WallPolicy::Friends).unwrap();
        fb.signup("bob", WallPolicy::Friends).unwrap();
        fb.signup("carol", WallPolicy::Friends).unwrap();
        let sa = fb.login("alice").unwrap();
        let sb = fb.login("bob").unwrap();
        let sc = fb.login("carol").unwrap();
        fb.post(sa, "alice's status").unwrap();
        fb.add_friend(sa, "bob").unwrap();
        assert_eq!(fb.view_wall(sb, "alice").unwrap(), "alice's status");
        assert!(matches!(
            fb.view_wall(sc, "alice"),
            Err(FauxbookError::Denied(_))
        ));
    }

    #[test]
    fn private_walls_are_owner_only() {
        let mut fb = deployed();
        fb.signup("alice", WallPolicy::Private).unwrap();
        fb.signup("bob", WallPolicy::Private).unwrap();
        let sa = fb.login("alice").unwrap();
        let sb = fb.login("bob").unwrap();
        fb.post(sa, "secret").unwrap();
        fb.add_friend(sa, "bob").unwrap();
        // Even friends cannot view a private wall.
        assert!(fb.view_wall(sb, "alice").is_err());
        assert_eq!(fb.view_wall(sa, "alice").unwrap(), "secret");
    }

    #[test]
    fn public_walls_open_to_all() {
        let mut fb = deployed();
        fb.signup("alice", WallPolicy::Public).unwrap();
        fb.signup("rando", WallPolicy::Public).unwrap();
        let sa = fb.login("alice").unwrap();
        let sr = fb.login("rando").unwrap();
        fb.post(sa, "hi all").unwrap();
        // Public policy: the guard allows, but cobuf flow still
        // requires a friendship edge for cross-owner collation — the
        // paper's stricter data-flow rule dominates.
        assert!(fb.view_wall(sr, "alice").is_err());
        fb.add_friend(sa, "rando").unwrap();
        assert_eq!(fb.view_wall(sr, "alice").unwrap(), "hi all");
    }

    #[test]
    fn tenant_cannot_read_user_data() {
        let mut fb = deployed();
        // No builtin exposes cobuf bytes to tenant code.
        let err = fb.tenant_tries_to_read("x = read_bytes(post)");
        assert!(matches!(err, Err(FauxbookError::Tenant(_))));
        // Reflection tricks are rewritten to denials.
        let err2 = fb.tenant_tries_to_read("x = getattr(post, 'bytes')");
        assert!(matches!(err2, Err(FauxbookError::Tenant(_))));
    }

    #[test]
    fn session_forgery_fails() {
        let mut fb = deployed();
        fb.signup("alice", WallPolicy::Private).unwrap();
        let bogus = SessionId(999);
        assert!(matches!(
            fb.view_wall(bogus, "alice"),
            Err(FauxbookError::NoSuchUser(_))
        ));
    }

    #[test]
    fn resource_attestation_reports_share() {
        let fb = deployed();
        let share = fb.attested_share("fauxbook").unwrap();
        assert!((share - 0.75).abs() < 1e-9);
        // And it is visible through kernel introspection like the
        // paper's labeling function would read it.
        let node = fb
            .nexus
            .introspect_read("/proc/sched/fauxbook/share")
            .unwrap();
        assert!(node.starts_with("share=0.75"));
    }
}
