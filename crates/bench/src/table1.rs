//! Table 1: system call overhead — Nexus bare (no interposition),
//! Nexus (interposed), and a direct/monolithic comparator standing in
//! for Linux.

use crate::{boot_with, time_ns};
use nexus_kernel::{Nexus, NexusConfig, Syscall};
use serde::Serialize;

/// One measured row.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    pub call: &'static str,
    pub bare_ns: f64,
    pub nexus_ns: f64,
    pub direct_ns: f64,
}

fn prep(cfg: NexusConfig) -> (Nexus, u64, u64) {
    let nexus = boot_with(cfg);
    let parent = nexus.spawn("bench-parent", b"img");
    let pid = nexus.spawn_child(parent, "bench", b"img").unwrap();
    nexus.fs_create(pid, "/bench").unwrap();
    // Warm the authorization path so file ops measure the cached
    // steady state, as the paper's medians do.
    let _ = nexus.syscall(pid, Syscall::Open("/bench".into()));
    (nexus, pid, parent)
}

fn measure(nexus: &mut Nexus, pid: u64, which: &str, iters: u64) -> f64 {
    match which {
        "null" => time_ns(iters, || {
            nexus.syscall(pid, Syscall::Null).unwrap();
        }),
        "getppid" => time_ns(iters, || {
            nexus.syscall(pid, Syscall::GetPpid).unwrap();
        }),
        "gettimeofday" => time_ns(iters, || {
            nexus.syscall(pid, Syscall::GetTimeOfDay).unwrap();
        }),
        "yield" => time_ns(iters, || {
            nexus.syscall(pid, Syscall::Yield).unwrap();
        }),
        "open" => time_ns(iters, || {
            if let Ok(nexus_kernel::SysRet::Int(fd)) =
                nexus.syscall(pid, Syscall::Open("/bench".into()))
            {
                let _ = nexus.fs_raw().close(fd);
            }
        }),
        "close" => time_ns(iters, || {
            let fd = nexus.fs_raw().open("/bench").unwrap();
            nexus.syscall(pid, Syscall::Close(fd)).unwrap();
        }),
        "read" => {
            let fd = match nexus.syscall(pid, Syscall::Open("/bench".into())).unwrap() {
                nexus_kernel::SysRet::Int(fd) => fd,
                _ => unreachable!(),
            };
            time_ns(iters, || {
                nexus.syscall(pid, Syscall::Read(fd, 64)).unwrap();
            })
        }
        "write" => {
            let fd = match nexus.syscall(pid, Syscall::Open("/bench".into())).unwrap() {
                nexus_kernel::SysRet::Int(fd) => fd,
                _ => unreachable!(),
            };
            time_ns(iters, || {
                nexus
                    .syscall(pid, Syscall::Write(fd, vec![0u8; 64]))
                    .unwrap();
            })
        }
        other => panic!("unknown call {other}"),
    }
}

/// The "Linux" comparator: a monolithic kernel's syscall is a direct
/// handler invocation with no IPC hops or interposition.
fn measure_direct(nexus: &mut Nexus, pid: u64, parent: u64, which: &str, iters: u64) -> f64 {
    match which {
        "null" => time_ns(iters, || {
            std::hint::black_box(());
        }),
        "getppid" => time_ns(iters, || {
            std::hint::black_box(parent);
            let _ = nexus.ipds().get(pid).map(|i| i.parent);
        }),
        "gettimeofday" => time_ns(iters, || {
            let _ = std::hint::black_box(std::time::SystemTime::now());
        }),
        "yield" => time_ns(iters, || {
            nexus.sched().next();
        }),
        "open" => time_ns(iters, || {
            let fd = nexus.fs_raw().open("/bench").unwrap();
            let _ = nexus.fs_raw().close(fd);
        }),
        "close" => time_ns(iters, || {
            let fd = nexus.fs_raw().open("/bench").unwrap();
            nexus.fs_raw().close(fd).unwrap();
        }),
        "read" => {
            let fd = nexus.fs_raw().open("/bench").unwrap();
            time_ns(iters, || {
                let _ = nexus.fs_raw().read(fd, 64);
            })
        }
        "write" => {
            let fd = nexus.fs_raw().open("/bench").unwrap();
            time_ns(iters, || {
                let _ = nexus.fs_raw().write(fd, &[0u8; 64]);
            })
        }
        other => panic!("unknown call {other}"),
    }
}

/// Run the whole table.
pub fn run(iters: u64) -> Vec<Row> {
    let calls = [
        "null",
        "getppid",
        "gettimeofday",
        "yield",
        "open",
        "close",
        "read",
        "write",
    ];
    let bare_cfg = NexusConfig {
        interpose_syscalls: false,
        ..NexusConfig::default()
    };
    let nexus_cfg = NexusConfig::default();
    let mut rows = Vec::new();
    for call in calls {
        let (mut bare, pid_b, _) = prep(bare_cfg);
        let bare_ns = measure(&mut bare, pid_b, call, iters);
        let (mut full, pid_f, _) = prep(nexus_cfg);
        let nexus_ns = measure(&mut full, pid_f, call, iters);
        let (mut dir, pid_d, parent_d) = prep(bare_cfg);
        let direct_ns = measure_direct(&mut dir, pid_d, parent_d, call, iters);
        rows.push(Row {
            call,
            bare_ns,
            nexus_ns,
            direct_ns,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-row medians over `reps` runs of the whole table. One run
    /// visits every call, so a row's repetitions are interleaved with
    /// the others': a stall on the shared host costs a row one
    /// repetition, not its only sample.
    fn median_rows(iters: u64, reps: usize) -> Vec<Row> {
        let runs: Vec<Vec<Row>> = (0..reps).map(|_| run(iters)).collect();
        let median_of =
            |i: usize, f: fn(&Row) -> f64| crate::median(runs.iter().map(|r| f(&r[i])).collect());
        runs[0]
            .iter()
            .enumerate()
            .map(|(i, row)| Row {
                call: row.call,
                bare_ns: median_of(i, |r| r.bare_ns),
                nexus_ns: median_of(i, |r| r.nexus_ns),
                direct_ns: median_of(i, |r| r.direct_ns),
            })
            .collect()
    }

    #[test]
    fn shapes_hold() {
        let _serial = crate::timing_guard();
        let rows = median_rows(200, 5);
        let by_name = |n: &str| rows.iter().find(|r| r.call == n).unwrap().clone();
        // Interposition adds cost to the null call.
        let null = by_name("null");
        assert!(
            null.nexus_ns > null.bare_ns,
            "interposed null ({:.0}ns) must exceed bare ({:.0}ns)",
            null.nexus_ns,
            null.bare_ns
        );
        // File operations cost more on Nexus than direct (user-level
        // server IPC hops).
        for f in ["open", "read", "write"] {
            let r = by_name(f);
            assert!(
                r.nexus_ns > r.direct_ns,
                "{f}: nexus {:.0}ns vs direct {:.0}ns",
                r.nexus_ns,
                r.direct_ns
            );
        }
    }
}
