//! `layers`: isolated timings of each crate's public functions, on the
//! inputs the workloads generate — the `P` rows of the per-layer
//! table. Kept apart from `bench` because these calls reach past the
//! durable surface: an API refactor may break this binary without
//! taking the end-to-end numbers down with it.
//!
//! `layers --seed <n>` prints every probe by name and unit, then one
//! result line in `bench`'s format. Each value is the median of a few
//! hundred batches (ns-scale calls) or single calls (µs-scale calls).

use benchmark::report::result_line;
use benchmark::stats::median;
use benchmark::workloads::gate::{GateWorld, OP};
use benchmark::workloads::{cluster_revoke, miss_prove};
use nexus_authzd::{
    AuthzOutcome, AuthzRequest, BatchExecutor, BatchKey, GuardPool, GuardPoolConfig,
};
use nexus_core::{
    CacheKey, DecisionCache, DecisionCacheConfig, GoalStore, Guard, Label, LabelStore, OpName,
    ResourceId,
};
use nexus_dist::{
    BrbState, Cluster, Dot, LabelOp, LabelRecord, Membership, Message, OpEnvelope, OpSigner,
    OrSetLabels, Payload, SimConfig, SimEd25519,
};
use nexus_kernel::{NexusConfig, ObsConfig, Syscall};
use nexus_nal::{
    check, credential_fingerprint, normalize, parse, prove, Assumptions, BatchGoal, Formula,
    Principal, ProofSearch, ProverConfig,
};
use nexus_obs::{event, AuditJournal, AuditPath, AuditVerdict, Histogram, SampleValue};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

type Out = Vec<(&'static str, f64)>;

/// Revocations timed on the lossy network. Few: every anti-entropy
/// round there retransmits the whole history, so a cycle's cost grows
/// with the cycles before it.
const LOSSY_CYCLES: usize = 16;
/// `step`s after which a lossy revocation counts as hung. Most take
/// ≈ 50; one whose last copy of a message is dropped waits for
/// anti-entropy to resend it, and 4503 have been seen.
const LOSSY_MAX_STEPS: u64 = 1 << 20;

/// Median per-call ns over `batches` batches of `batch` calls of `f`.
fn per_call(batch: usize, batches: usize, mut f: impl FnMut()) -> f64 {
    (0..batch).for_each(|_| f());
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            (0..batch).for_each(|_| f());
            t0.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&samples)
}

/// Median of `n` samples; `f` does its untimed preparation and
/// returns the ns it timed.
fn median_of(n: usize, f: impl FnMut(usize) -> f64) -> f64 {
    median(&(0..n).map(f).collect::<Vec<f64>>())
}

fn ns_of(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64
}

/// Median per-read ns of `authorize` over the resident set — the
/// `hit_steady` read, measured the way the workload measures it.
fn hit_read_ns(w: &GateWorld, batches: usize) -> f64 {
    let mut k = 0;
    per_call(128, batches, || {
        let (pid, oi) = w.resident[k];
        k = (k + 1) % w.resident.len();
        assert!(matches!(
            w.nexus.authorize(pid, OP, &w.objects[oi as usize]),
            Ok(true)
        ));
    })
}

fn kernel_and_obs(w: &mut GateWorld, out: &mut Out) {
    let nexus = Arc::clone(&w.nexus);
    let (reader, object) = (w.resident[0].0, w.objects[w.resident[0].1 as usize].clone());

    out.push((
        "kernel.null_syscall_ns",
        per_call(256, 200, || {
            black_box(nexus.syscall(reader, Syscall::Null)).expect("null syscall");
        }),
    ));
    let config_read = per_call(256, 200, || {
        black_box(nexus.config());
    });
    out.push(("kernel.config_read_ns", config_read));

    let subject = nexus.principal(reader).expect("reader");
    let opname = per_call(256, 200, || {
        black_box(OpName::from(black_box(OP)));
    });
    out.push(("core.opname_from_ns", opname));
    let opn = OpName::from(OP);
    let key = || CacheKey {
        subject: subject.clone(),
        operation: opn.clone(),
        object: object.clone(),
    };
    let cachekey = per_call(256, 200, || {
        black_box(key());
    });
    out.push(("core.cachekey_build_ns", cachekey));

    let cache = DecisionCache::new(DecisionCacheConfig::default());
    cache.insert(key(), true);
    let present = key();
    let lookup_hit = per_call(256, 200, || {
        assert_eq!(black_box(cache.lookup(&present)), Some(true));
    });
    out.push(("core.dcache_lookup_hit_ns", lookup_hit));
    let absent = CacheKey {
        subject: Principal::name("nobody"),
        ..key()
    };
    out.push((
        "core.dcache_lookup_miss_ns",
        per_call(256, 200, || {
            assert_eq!(black_box(cache.lookup(&absent)), None);
        }),
    ));
    out.push((
        "core.dcache_insert_if_ns",
        median_of(200, |_| {
            let keys: Vec<CacheKey> = (0..256).map(|_| key()).collect();
            ns_of(|| {
                keys.into_iter()
                    .for_each(|k| assert!(cache.insert_if(k, true, || true)))
            }) / 256.0
        }),
    ));
    let read_set: Vec<CacheKey> = w
        .resident
        .iter()
        .filter(|&&(pid, _)| pid == reader)
        .map(|&(_, oi)| CacheKey {
            object: w.objects[oi as usize].clone(),
            ..key()
        })
        .collect();
    out.push((
        "core.dcache_clear_us",
        median_of(400, |_| {
            read_set.iter().for_each(|k| cache.insert(k.clone(), true));
            ns_of(|| cache.clear()) / 1e3
        }),
    ));

    let goals = GoalStore::new();
    for o in w.objects.iter().chain(&w.cold) {
        goals.set_goal(o.clone(), opn.clone(), w.goal.clone(), None);
    }
    let manager = Principal::name("Nexus");
    out.push((
        "core.goal_effective_ns",
        per_call(256, 200, || {
            black_box(goals.effective_goal(&manager, &object, &opn));
        }),
    ));
    let mut store = LabelStore::new();
    store.insert(Label {
        speaker: Principal::name("Gate"),
        statement: parse("g0").expect("parses"),
    });
    out.push((
        "core.label_snapshot_ns",
        per_call(256, 200, || {
            black_box(store.formulas_snapshot());
        }),
    ));

    // Where the hit goes: the measured read minus the parts a public
    // call can time alone. The hot-index read (pid → principal and
    // label shape) is not among them — no public kernel call performs
    // it without the rest of `authorize`, and `Nexus::principal` reads
    // the locked process table, which the hit path does not touch —
    // so its share stays in here.
    let hit = hit_read_ns(w, 2048);
    out.push((
        "kernel.unattributed_hit_ns",
        hit - (config_read + opname + cachekey + lookup_hit),
    ));

    // Telemetry on against off, alternating so drift cancels.
    let with = |enabled: bool| {
        let obs = if enabled {
            ObsConfig::default()
        } else {
            ObsConfig::disabled()
        };
        nexus.set_config(NexusConfig {
            obs,
            ..NexusConfig::default()
        });
        hit_read_ns(w, 512)
    };
    let rounds: Vec<(f64, f64)> = (0..5).map(|_| (with(true), with(false))).collect();
    nexus.set_config(NexusConfig::default());
    let (on, off): (Vec<f64>, Vec<f64>) = rounds.into_iter().unzip();
    out.push(("obs.hit_overhead_ratio", median(&on) / median(&off)));

    let hist = Histogram::new();
    let mut v = 0;
    out.push((
        "obs.hist_record_ns",
        per_call(256, 200, || {
            v += 97;
            hist.record(black_box(v));
        }),
    ));
    let journal = AuditJournal::new(ObsConfig::default().audit_capacity);
    out.push((
        "obs.audit_push_ns",
        per_call(64, 200, || {
            journal.push(event(
                reader,
                OP,
                object.0.as_str(),
                AuditVerdict::Allow,
                AuditPath::CacheHit,
            ));
        }),
    ));
    out.push((
        "obs.telemetry_snapshot_us",
        per_call(4, 100, || {
            black_box(nexus.telemetry_snapshot());
        }) / 1e3,
    ));
    let dropped = match nexus
        .telemetry_snapshot()
        .get("nexus_audit_dropped_total")
        .map(|m| &m.value)
    {
        Some(SampleValue::Counter(n)) => *n as f64,
        other => panic!("nexus_audit_dropped_total is not a counter: {other:?}"),
    };
    out.push(("obs.audit_dropped", dropped));

    // The fence, after the read set was cached, as `policy_churn`'s
    // write finds it.
    out.push((
        "kernel.revocation_fence_us",
        median_of(400, |_| {
            for k in &read_set {
                assert!(matches!(nexus.authorize(reader, OP, &k.object), Ok(true)));
            }
            ns_of(|| nexus.revocation_fence()) / 1e3
        }),
    ));
    let claim = parse("audited(vault)").expect("parses");
    let mut minted = Vec::new();
    out.push((
        "kernel.mint_credential_us",
        median_of(400, |_| {
            let claim = claim.clone();
            ns_of(|| {
                minted.push(
                    nexus
                        .mint_credential(w.owner, w.vault, claim)
                        .expect("mint"),
                )
            }) / 1e3
        }),
    ));
    let mut minted = minted.into_iter();
    out.push((
        "kernel.revoke_credential_us",
        median_of(400, |_| {
            let h = minted.next().expect("one handle per mint");
            ns_of(|| nexus.revoke_credential(w.vault, h).expect("revoke")) / 1e3
        }),
    ));
    let (ca, ok) = (Principal::name("CA"), parse("ok").expect("parses"));
    out.push((
        "dist.remote_revoke_apply_us",
        median_of(400, |_| {
            let h = nexus
                .apply_remote_mint(w.vault, ca.clone(), ok.clone())
                .expect("mint");
            ns_of(|| {
                nexus.apply_remote_revoke(w.vault, h).expect("revoke");
            }) / 1e3
        }),
    ));
}

fn nal_and_guard(out: &mut Out) {
    let goal_text = miss_prove::goal_text();
    let goal = parse(&goal_text).expect("goal parses");
    // One subject's credential set as the kernel assembles it: the
    // held labels plus the two utterances of the request itself.
    let subject = Principal::name("/proc/ipd/7");
    let mut creds: Vec<Formula> = miss_prove::subject_labels()
        .iter()
        .map(|(speaker, stmt)| {
            Label {
                speaker: Principal::name(speaker),
                statement: parse(stmt).expect("label parses"),
            }
            .formula()
        })
        .collect();
    creds.push(Formula::pred("op", vec![]).says(subject.clone()));
    creds.push(parse("op(proved)").expect("parses").says(subject));
    let cfg = ProverConfig::default();
    let us = |ns: f64| ns / 1e3;

    out.push((
        "nal.parse_us",
        us(per_call(16, 200, || {
            black_box(parse(&goal_text)).expect("parses");
        })),
    ));
    out.push((
        "nal.normalize_us",
        us(per_call(16, 200, || {
            black_box(normalize(&goal));
        })),
    ));
    out.push((
        "nal.cred_fingerprint_us",
        us(per_call(16, 200, || {
            black_box(credential_fingerprint(&creds));
        })),
    ));
    out.push((
        "nal.prove_us",
        us(per_call(1, 100, || {
            assert!(black_box(prove(&goal, &creds, cfg)).is_some());
        })),
    ));
    let proof = prove(&goal, &creds, cfg).expect("provable");
    let assumptions = Assumptions::from_iter(&creds);
    out.push((
        "nal.check_us",
        us(per_call(16, 200, || {
            black_box(check(&proof, &assumptions)).expect("sound");
        })),
    ));
    let window: Vec<BatchGoal<'_>> = (0..miss_prove::WINDOW)
        .map(|_| BatchGoal {
            goal: &goal,
            credentials: &creds,
        })
        .collect();
    out.push((
        "nal.prove_batch_us_per_goal",
        us(per_call(1, 50, || {
            let proofs = ProofSearch::new(cfg).prove_batch(&window);
            assert!(proofs.iter().all(Option::is_some));
        })) / window.len() as f64,
    ));
    // One window against the guard's persistent session, memo warm —
    // windows 1–7 of a `miss_prove` cycle.
    let guard = Guard::new();
    out.push((
        "core.guard_prove_batch_us",
        us(per_call(1, 50, || {
            let proofs = guard.prove_batch(0, &window, cfg);
            assert!(proofs.iter().all(Option::is_some));
        })),
    ));
}

/// Resolves every request at once: what is left is queue and hand-off.
struct NoOp;

impl BatchExecutor for NoOp {
    fn execute_batch(&self, _key: &BatchKey, reqs: &[AuthzRequest]) -> Vec<AuthzOutcome> {
        vec![AuthzOutcome::Allow; reqs.len()]
    }
}

fn authzd(out: &mut Out) {
    let pool = GuardPool::new(
        GuardPoolConfig {
            workers: 1,
            ..Default::default()
        },
        Arc::new(NoOp),
    );
    let request = || AuthzRequest {
        pid: 7,
        op: OpName::from("op"),
        object: ResourceId::new("bench", "proved"),
        proof: None,
        external: false,
        label_shape: 0,
        submitted_at: None,
    };
    out.push((
        "authzd.submit_ns",
        median_of(200, |_| {
            let reqs: Vec<AuthzRequest> = (0..miss_prove::WINDOW).map(|_| request()).collect();
            let mut tickets = Vec::with_capacity(reqs.len());
            let ns = ns_of(|| tickets.extend(reqs.into_iter().map(|r| pool.submit(r))));
            assert!(tickets.iter().all(|t| t.wait().is_allow()));
            ns / miss_prove::WINDOW as f64
        }),
    ));
    out.push((
        "authzd.roundtrip_us",
        median_of(400, |_| {
            let req = request();
            ns_of(|| assert!(pool.submit(req).wait().is_allow())) / 1e3
        }),
    ));
    out.push((
        "authzd.quiesce_idle_us",
        per_call(16, 200, || pool.quiesce()) / 1e3,
    ));
    pool.shutdown();
}

fn dist(seed: u64, out: &mut Out) {
    let nodes = cluster_revoke::NODES;
    let signers: Vec<SimEd25519> = (0..nodes).map(|i| SimEd25519::from_seed(seed, i)).collect();
    let membership = Membership::new(signers.iter().map(|s| s.public()).collect());
    let record = LabelRecord::new("alice", "CA", "ok");
    let mint = |n: u64| LabelOp::Mint {
        dot: Dot::new(0, n),
        label: record.clone(),
    };
    let us = |ns: f64| ns / 1e3;

    let mut seq = 0;
    out.push((
        "dist.envelope_sign_us",
        us(per_call(4, 200, || {
            seq += 1;
            black_box(OpEnvelope::sign(0, seq, mint(seq), &signers[0]));
        })),
    ));
    let envelope = OpEnvelope::sign(0, 1, mint(1), &signers[0]);
    out.push((
        "dist.envelope_verify_us",
        us(per_call(4, 200, || {
            assert!(black_box(&envelope).verify(&membership))
        })),
    ));
    let message = Message::sign(0, Payload::Send(envelope), &signers[0]);
    out.push((
        "dist.message_verify_us",
        us(per_call(4, 200, || {
            assert!(black_box(&message).verify(&membership))
        })),
    ));

    // One broadcast through five endpoints, delivered in order: the
    // mean cost of a `handle` call over the Send/Echo/Ready rounds.
    let mut endpoints: Vec<BrbState> = (0..nodes)
        .map(|i| BrbState::new(i, membership.clone()))
        .collect();
    let mut n = 0;
    out.push((
        "dist.brb_handle_us",
        us(median_of(200, |_| {
            n += 1;
            let first = endpoints[0].broadcast(mint(n), &signers[0]);
            let mut queue: VecDeque<_> = first.outgoing.into();
            let (mut ns, mut handled, mut delivered) = (0.0, 0.0, 0);
            while let Some((to, msg)) = queue.pop_front() {
                let t0 = Instant::now();
                let step = endpoints[to as usize].handle(&msg, &signers[to as usize]);
                ns += t0.elapsed().as_nanos() as f64;
                handled += 1.0;
                delivered += step.delivered.len();
                queue.extend(step.outgoing);
            }
            assert_eq!(delivered, nodes as usize, "every endpoint delivers");
            ns / handled
        })),
    ));

    let mut orset = OrSetLabels::new();
    let mut n = 0;
    out.push((
        "dist.orset_apply_us",
        us(per_call(16, 200, || {
            n += 1;
            assert!(!orset.apply(&mint(n)).is_noop());
            let revoke = LabelOp::Revoke {
                label: record.clone(),
                dots: vec![Dot::new(0, n)],
            };
            assert!(!orset.apply(&revoke).is_noop());
        })) / 2.0,
    ));

    // `cluster_revoke`'s write under a lossy, duplicating, delaying
    // network: drop 10 %, duplicate 15 %, delay up to 4 ticks.
    let mut cluster = Cluster::with_config(nodes as usize, SimConfig::lossy(seed, 10, 15, 4));
    let object = ResourceId::new("bench", "replicated");
    cluster.install_goal(&object, "op", "CA says ok");
    // Under loss "converged" can mean "agreed the mint has not arrived
    // yet", so re-minting waits until every replica holds the record.
    let mint_everywhere = |cluster: &mut Cluster, origin: u32| {
        cluster.run_to_quiescence(usize::MAX);
        let rec = cluster.mint(origin, "alice", "CA", "ok");
        for _ in 0..256 {
            cluster.run_to_quiescence(usize::MAX);
            if (0..nodes).all(|i| cluster.has_label(i, &rec)) {
                return rec;
            }
            cluster.anti_entropy();
        }
        panic!("lossy mint never reached every replica: seed={seed}");
    };
    let mut rec = mint_everywhere(&mut cluster, 0);
    out.push((
        "dist.lossy_revoke_p50_us",
        us(median_of(LOSSY_CYCLES, |cycle| {
            let origin = cycle as u32 % nodes;
            let ns = ns_of(|| {
                assert!(cluster.revoke(origin, &rec));
                let mut steps = 0;
                while (0..nodes).any(|i| cluster.has_label(i, &rec)) {
                    steps += 1;
                    assert!(
                        steps <= LOSSY_MAX_STEPS,
                        "lossy revocation never reached every replica: seed={seed}"
                    );
                    if !cluster.step() {
                        cluster.anti_entropy();
                    }
                }
            });
            assert!(
                (0..nodes).all(|i| !cluster.authorize(i, "alice", "op", &object)),
                "stale allow"
            );
            rec = mint_everywhere(&mut cluster, origin);
            ns
        })),
    ));
    let rejected: u64 = (0..nodes)
        .map(|i| {
            let s = cluster.node(i).stats();
            s.brb.rejected_sigs
                + s.brb.rejected_bounds
                + s.brb.equivocations
                + s.rejected_ops
                + s.apply_errors
        })
        .sum();
    out.push(("dist.brb_rejected", rejected as f64));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed: u64 = match args.as_slice() {
        [flag, value] if flag == "--seed" => value.parse().ok(),
        _ => None,
    }
    .unwrap_or_else(|| {
        eprintln!("usage: layers --seed <n>");
        std::process::exit(2);
    });

    // One CPU, as `bench` runs: the pool probes hand work between two
    // threads and would otherwise time the hypervisor's vCPU wake-ups.
    if benchmark::affinity::pin_to_one_cpu().is_none() {
        println!("could not pin to one CPU");
    }
    let mut out = Out::new();
    let mut world = GateWorld::build(&mut benchmark::driver::Recorder::new(false));
    kernel_and_obs(&mut world, &mut out);
    drop(world);
    nal_and_guard(&mut out);
    authzd(&mut out);
    dist(seed, &mut out);

    for &(name, value) in &out {
        println!(
            "{name:<36} {value:>16.4} {}",
            benchmark::metrics::unit_of(name)
        );
    }
    println!("{}", result_line(out.len() as u64, 0, &out));
}
