//! Kernel-level tests: boot, the authorization path of Figure 1,
//! system calls, and introspection.

use nexus_core::{AuthorityKind, DecisionCacheConfig, FnAuthority, ResourceId};
use nexus_kernel::{BootImages, GuardPoolConfig, Nexus, NexusConfig, SysRet, Syscall};
use nexus_nal::{parse, Formula, Principal, Proof};
use nexus_storage::RamDisk;
use nexus_tpm::Tpm;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn boot() -> Nexus {
    Nexus::boot(
        Tpm::new_with_seed(123),
        RamDisk::new(),
        &BootImages::standard(),
        NexusConfig::default(),
    )
    .unwrap()
}

#[test]
fn first_boot_takes_ownership() {
    let nexus = boot();
    assert!(nexus.first_boot());
    assert!(nexus.tpm().is_owned());
}

#[test]
fn reboot_recovers_state() {
    let nexus = boot();
    let (tpm, disk) = nexus.shutdown();
    let nexus2 = Nexus::boot(tpm, disk, &BootImages::standard(), NexusConfig::default()).unwrap();
    assert!(!nexus2.first_boot());
}

#[test]
fn modified_kernel_image_cannot_recover() {
    let nexus = boot();
    let (tpm, disk) = nexus.shutdown();
    let evil = BootImages {
        kernel: b"evil-kernel".to_vec(),
        ..BootImages::standard()
    };
    let err = Nexus::boot(tpm, disk, &evil, NexusConfig::default());
    assert!(err.is_err(), "PCR mismatch must block state recovery");
}

#[test]
fn basic_syscalls() {
    let nexus = boot();
    let parent = nexus.spawn("parent", b"img");
    let child = nexus.spawn_child(parent, "child", b"img").unwrap();
    assert_eq!(nexus.syscall(child, Syscall::Null).unwrap(), SysRet::Unit);
    assert_eq!(
        nexus.syscall(child, Syscall::GetPpid).unwrap(),
        SysRet::Int(parent)
    );
    let SysRet::Int(t1) = nexus.syscall(child, Syscall::GetTimeOfDay).unwrap() else {
        panic!()
    };
    let SysRet::Int(t2) = nexus.syscall(child, Syscall::GetTimeOfDay).unwrap() else {
        panic!()
    };
    assert!(t2 > t1);
    assert_eq!(nexus.syscall(child, Syscall::Yield).unwrap(), SysRet::Unit);
}

#[test]
fn relinquished_syscalls_fail() {
    let nexus = boot();
    let pid = nexus.spawn("ws", b"webserver");
    nexus.relinquish(pid, "open").unwrap();
    assert!(nexus.syscall(pid, Syscall::Open("/x".into())).is_err());
    // Other calls still work.
    assert!(nexus.syscall(pid, Syscall::Null).is_ok());
}

#[test]
fn file_owner_can_use_own_file_via_default_policy() {
    let nexus = boot();
    let pid = nexus.spawn("app", b"img");
    nexus.fs_create(pid, "/mine").unwrap();
    // Default policy: FS.file:/mine says <op>; the ownership label
    // plus the request statement discharge it via handoff.
    let SysRet::Int(fd) = nexus.syscall(pid, Syscall::Open("/mine".into())).unwrap() else {
        panic!()
    };
    assert!(matches!(
        nexus.syscall(pid, Syscall::Write(fd, b"hi".to_vec())),
        Ok(SysRet::Int(2))
    ));
    let SysRet::Int(fd2) = nexus.syscall(pid, Syscall::Open("/mine".into())).unwrap() else {
        panic!()
    };
    assert_eq!(
        nexus.syscall(pid, Syscall::Read(fd2, 10)).unwrap(),
        SysRet::Data(b"hi".to_vec())
    );
}

#[test]
fn stranger_denied_by_default_policy() {
    let nexus = boot();
    let owner = nexus.spawn("owner", b"img");
    let stranger = nexus.spawn("stranger", b"img");
    nexus.fs_create(owner, "/secret").unwrap();
    assert!(nexus
        .syscall(stranger, Syscall::Open("/secret".into()))
        .is_err());
}

#[test]
fn owner_can_setgoal_and_grant_access() {
    let nexus = boot();
    let owner = nexus.spawn("owner", b"img");
    let friend = nexus.spawn("friend", b"img");
    nexus.fs_create(owner, "/shared").unwrap();
    // Owner sets a goal admitting the friend's own request.
    let friend_principal = nexus.principal(friend).unwrap();
    let goal = parse(&format!("{friend_principal} says open")).unwrap();
    nexus
        .sys_setgoal(owner, ResourceId::file("/shared"), "open", goal)
        .unwrap();
    assert!(nexus
        .syscall(friend, Syscall::Open("/shared".into()))
        .is_ok());
    // A third process is still shut out.
    let other = nexus.spawn("other", b"img");
    assert!(nexus
        .syscall(other, Syscall::Open("/shared".into()))
        .is_err());
}

#[test]
fn stranger_cannot_setgoal_on_others_file() {
    let nexus = boot();
    let owner = nexus.spawn("owner", b"img");
    let mallory = nexus.spawn("mallory", b"img");
    nexus.fs_create(owner, "/f").unwrap();
    let err = nexus.sys_setgoal(mallory, ResourceId::file("/f"), "open", Formula::True);
    assert!(err.is_err());
}

#[test]
fn lockout_without_superuser_is_possible() {
    // Footnote 2: the owner can set an unsatisfiable goal and lock
    // out everyone — including themselves. There is no superuser.
    let nexus = boot();
    let owner = nexus.spawn("owner", b"img");
    nexus.fs_create(owner, "/oops").unwrap();
    nexus
        .sys_setgoal(owner, ResourceId::file("/oops"), "open", Formula::False)
        .unwrap();
    assert!(nexus.syscall(owner, Syscall::Open("/oops".into())).is_err());
}

#[test]
fn decision_cache_reduces_guard_upcalls() {
    let nexus = boot();
    let pid = nexus.spawn("app", b"img");
    nexus.fs_create(pid, "/f").unwrap();
    for _ in 0..50 {
        nexus.syscall(pid, Syscall::Open("/f".into())).unwrap();
    }
    let upcalls = nexus.guard_upcalls();
    assert!(
        upcalls <= 3,
        "repeat opens must be served by the decision cache, upcalls={upcalls}"
    );
    assert!(nexus.decision_cache_stats().hits >= 45);
}

#[test]
fn setgoal_invalidates_cached_decisions() {
    let nexus = boot();
    let pid = nexus.spawn("app", b"img");
    nexus.fs_create(pid, "/f").unwrap();
    // Warm the cache with an allow.
    nexus.syscall(pid, Syscall::Open("/f".into())).unwrap();
    nexus.syscall(pid, Syscall::Open("/f".into())).unwrap();
    // Owner locks the file.
    nexus
        .sys_setgoal(pid, ResourceId::file("/f"), "open", Formula::False)
        .unwrap();
    assert!(
        nexus.syscall(pid, Syscall::Open("/f".into())).is_err(),
        "stale cached allow must not survive setgoal"
    );
}

#[test]
fn authority_backed_goal_tracks_live_state() {
    let nexus = boot();
    let pid = nexus.spawn("app", b"img");
    nexus.fs_create(pid, "/timed").unwrap();
    // Clock authority (embedded): time is mutable state.
    let now = Arc::new(parking_lot::Mutex::new(20110301i64));
    let clock = now.clone();
    nexus.register_authority(
        Principal::name("NTP"),
        Arc::new(FnAuthority(move |s: &nexus_nal::Formula| {
            if let nexus_nal::Formula::Cmp(op, a, b) = s {
                if let (nexus_nal::Term::Sym(n), nexus_nal::Term::Int(bound)) = (a, b) {
                    if n == "TimeNow" {
                        return op.eval(&*clock.lock(), bound);
                    }
                }
            }
            false
        })),
        AuthorityKind::Embedded,
    );
    nexus
        .sys_setgoal(
            pid,
            ResourceId::file("/timed"),
            "open",
            parse("NTP says TimeNow < 20110319").unwrap(),
        )
        .unwrap();
    // Supply the proof (a single authority-backed assumption).
    let proof = nexus_nal::Proof::assume(parse("NTP says TimeNow < 20110319").unwrap());
    nexus
        .sys_set_proof(pid, "open", &ResourceId::file("/timed"), proof)
        .unwrap();
    assert!(nexus.syscall(pid, Syscall::Open("/timed".into())).is_ok());
    // The deadline passes; the very next check fails — no revocation
    // machinery needed (§2.7).
    *now.lock() = 20110401;
    assert!(nexus.syscall(pid, Syscall::Open("/timed".into())).is_err());
}

#[test]
fn introspection_views_live_state() {
    let nexus = boot();
    let pid = nexus.spawn("worker", b"image-bytes");
    assert!(nexus
        .introspect_read(&format!("/proc/ipd/{pid}/name"))
        .unwrap()
        .contains("worker"));
    nexus.publish(pid, "modules", "mod1,mod2").unwrap();
    assert_eq!(
        nexus
            .introspect_read(&format!("/proc/app/{pid}/modules"))
            .unwrap(),
        "modules=mod1,mod2"
    );
    nexus.sched().set_weight("tenant-a", 3);
    nexus.sched().set_weight("tenant-b", 1);
    assert_eq!(
        nexus
            .introspect_read("/proc/sched/tenant-a/weight")
            .unwrap(),
        "weight=3"
    );
    assert!(nexus
        .introspect_read("/proc/sched/tenant-a/share")
        .unwrap()
        .starts_with("share=0.75"));
    assert!(nexus.introspect_read("/proc/nope").is_err());
}

#[test]
fn ipc_graph_reflects_sends() {
    let nexus = boot();
    let a = nexus.spawn("a", b"");
    let b = nexus.spawn("b", b"");
    let port = nexus.create_port(b).unwrap();
    nexus.ipc_send(a, port, b"hello".to_vec()).unwrap();
    let (from, msg) = nexus.ipc_recv(b, port).unwrap();
    assert_eq!(from, a);
    assert_eq!(msg, b"hello");
    assert!(nexus.ipc_graph().contains(&(a, b)));
    let edges = nexus.introspect_read("/proc/ipc/edges").unwrap();
    assert!(edges.contains(&format!("{a}->{b}")));
}

#[test]
fn port_binding_label_deposited() {
    let nexus = boot();
    let pid = nexus.spawn("svc", b"");
    let port = nexus.create_port(pid).unwrap();
    let labels = nexus.labels_of(pid).unwrap();
    let expect = parse(&format!("Nexus says IPC.{port} speaksfor /proc/ipd/{pid}")).unwrap();
    assert!(labels.contains(&expect));
}

#[test]
fn recv_requires_ownership() {
    let nexus = boot();
    let a = nexus.spawn("a", b"");
    let b = nexus.spawn("b", b"");
    let port = nexus.create_port(b).unwrap();
    nexus.ipc_send(a, port, vec![1]).unwrap();
    assert!(nexus.ipc_recv(a, port).is_err());
    assert!(nexus.ipc_recv(b, port).is_ok());
}

#[test]
fn externalize_and_import_across_kernels() {
    // A label minted on one Nexus is verified on another machine
    // holding the first machine's EK.
    let nexus_a = boot();
    let pid = nexus_a.spawn("prover", b"img");
    let h = nexus_a.sys_say(pid, "isTypeSafe(PGM)").unwrap();
    let cert = nexus_a.externalize(pid, h).unwrap();
    let ek_a = nexus_a.tpm().ek_public();

    let nexus_b = Nexus::boot(
        Tpm::new_with_seed(9),
        RamDisk::new(),
        &BootImages::standard(),
        NexusConfig::default(),
    )
    .unwrap();
    let importer = nexus_b.spawn("verifier", b"img");
    let h2 = nexus_b.import_cert(importer, &cert, &ek_a).unwrap();
    let labels = nexus_b.labels_of(importer).unwrap();
    assert_eq!(labels.len(), 1);
    let _ = h2;
    // The imported statement is attributed to the fully-qualified
    // remote principal, not a local name.
    let s = labels[0].to_string();
    assert!(s.contains("says isTypeSafe(PGM)"));
    assert!(s.starts_with("key:"));
}

#[test]
fn interposed_syscalls_can_be_blocked() {
    struct DenyYield;
    impl nexus_kernel::Interceptor for DenyYield {
        fn name(&self) -> &str {
            "deny-yield"
        }
        fn on_call(&mut self, call: &mut nexus_kernel::IpcCall) -> nexus_kernel::Verdict {
            if call.operation == "yield" {
                nexus_kernel::Verdict::Block
            } else {
                nexus_kernel::Verdict::Continue
            }
        }
    }
    let nexus = boot();
    let pid = nexus.spawn("app", b"");
    nexus
        .interpose(
            0,
            nexus_kernel::SYSCALL_CHANNEL,
            Box::new(DenyYield),
            nexus_kernel::MonitorLevel::Kernel,
        )
        .unwrap();
    assert!(matches!(
        nexus.syscall(pid, Syscall::Yield),
        Err(nexus_kernel::KernelError::Blocked { .. })
    ));
    assert!(nexus.syscall(pid, Syscall::Null).is_ok());
}

#[test]
fn goal_guarded_introspection() {
    let nexus = boot();
    let owner = nexus.spawn("tenant-a", b"");
    let snoop = nexus.spawn("tenant-b", b"");
    nexus.sched().set_weight("tenant-a", 2);
    // Guard the tenant's weight file so only the tenant reads it
    // (§4.1: "goal statements ensure that file is not readable by
    // other tenants").
    let path = "/proc/sched/tenant-a/weight";
    let obj = ResourceId::new("proc", path);
    nexus.grant_ownership(owner, &obj).unwrap();
    let owner_principal = nexus.principal(owner).unwrap();
    nexus
        .sys_setgoal(
            owner,
            obj,
            "read",
            parse(&format!("{owner_principal} says read")).unwrap(),
        )
        .unwrap();
    assert!(nexus.introspect_read_authorized(owner, path).is_ok());
    assert!(nexus.introspect_read_authorized(snoop, path).is_err());
}

#[test]
fn transferred_away_label_invalidates_cached_allow() {
    // A cached allow whose auto-constructed proof rested on an
    // ownership label must not survive the label leaving the
    // subject's labelstore via transfer_label.
    let nexus = boot();
    let a = nexus.spawn("a", b"img-a");
    let b = nexus.spawn("b", b"img-b");
    let object = ResourceId::file("/owned");
    let h = nexus.grant_ownership(a, &object).unwrap();
    // Auto-proved from the ownership label and cached.
    assert!(nexus.authorize(a, "read", &object).unwrap());
    assert!(nexus.authorize(a, "read", &object).unwrap());
    assert!(nexus.decision_cache_stats().hits >= 1);

    nexus.transfer_label(a, h, b).unwrap();
    assert!(
        !nexus.authorize(a, "read", &object).unwrap(),
        "allow cached from a departed credential must not be served"
    );
    // The label's statement names `a`, so `b` gains nothing from it.
    assert!(!nexus.authorize(b, "read", &object).unwrap());
}

#[test]
fn resized_decision_cache_refills_and_stays_fenced() {
    // §2.8: the cache can be resized at runtime. Contents go, the
    // process's digest (published at spawn) still finds the refilled
    // slot, and a label removal clears the table now published.
    let nexus = boot();
    let a = nexus.spawn("a", b"img-a");
    let b = nexus.spawn("b", b"img-b");
    let object = ResourceId::file("/owned");
    let h = nexus.grant_ownership(a, &object).unwrap();
    assert!(nexus.authorize(a, "read", &object).unwrap());
    let warm = nexus.decision_cache_stats();
    assert!(nexus.authorize(a, "read", &object).unwrap());
    assert_eq!(nexus.decision_cache_stats().hits, warm.hits + 1);

    nexus.resize_decision_cache(DecisionCacheConfig {
        total_slots: 64,
        subregion_slots: 4,
    });
    let resized = nexus.decision_cache_stats();
    assert!(nexus.authorize(a, "read", &object).unwrap());
    let refilled = nexus.decision_cache_stats();
    assert_eq!(
        (refilled.hits, refilled.misses),
        (resized.hits, resized.misses + 1),
        "a resize discards every cached verdict"
    );
    assert!(nexus.authorize(a, "read", &object).unwrap());
    assert_eq!(nexus.decision_cache_stats().hits, refilled.hits + 1);

    nexus.transfer_label(a, h, b).unwrap();
    assert!(
        !nexus.authorize(a, "read", &object).unwrap(),
        "allow cached in the resized table outlived its credential"
    );
}

#[test]
fn resize_decision_cache_waits_for_in_flight_tickets() {
    let nexus = Arc::new(boot());
    let owner = nexus.spawn("owner", b"img");
    let object = ResourceId::new("svc", "gated");
    nexus.grant_ownership(owner, &object).unwrap();
    let goal = parse("Gate says open").unwrap();
    nexus
        .sys_setgoal(owner, object.clone(), "poke", goal.clone())
        .unwrap();
    // An authority that holds its batch in flight until released.
    let entered = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let (seen, gate) = (Arc::clone(&entered), Arc::clone(&release));
    nexus.register_authority(
        Principal::name("Gate"),
        Arc::new(FnAuthority(move |_: &Formula| {
            seen.store(true, Ordering::SeqCst);
            while !gate.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            true
        })),
        AuthorityKind::External,
    );
    let pid = nexus.spawn("caller", b"img");
    nexus
        .sys_set_proof(pid, "poke", &object, Proof::assume(goal))
        .unwrap();
    nexus.start_authz_pipeline(GuardPoolConfig::default());
    let ticket = nexus.authorize_async(pid, "poke", &object).unwrap();
    while !entered.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    std::thread::scope(|s| {
        let resizer = s.spawn(|| {
            nexus.resize_decision_cache(DecisionCacheConfig::default());
            assert!(
                ticket.try_outcome().is_some(),
                "resize returned with a ticket still in flight"
            );
        });
        // The sleep only sharpens a failure: an unfenced resize would
        // return long before the gate opens; a fenced one cannot.
        std::thread::sleep(Duration::from_millis(20));
        release.store(true, Ordering::SeqCst);
        resizer.join().expect("resizer");
    });
    assert!(ticket.wait().is_allow());
    nexus.stop_authz_pipeline();
}
