//! Figure 7: interpositioning overhead on the UDP-echo packet path,
//! in packets per second, for 100 B and 1500 B packets.

use crate::boot_with;
use nexus_kernel::{EchoPath, EchoWorld, MonitorLevel, NexusConfig};
use serde::Serialize;

/// Configurations on the x-axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    KernInt,
    UserInt,
    KernDrv,
    UserDrv,
    /// Kernel reference monitor, verdict cache on.
    KRefMin,
    /// Kernel reference monitor, verdict cache off.
    KRefMax,
    /// User-level reference monitor, cache on.
    URefMin,
    /// User-level reference monitor, cache off.
    URefMax,
}

impl Config {
    pub fn name(self) -> &'static str {
        match self {
            Config::KernInt => "kern int",
            Config::UserInt => "user int",
            Config::KernDrv => "kern drv",
            Config::UserDrv => "user drv",
            Config::KRefMin => "kref min",
            Config::KRefMax => "kref max",
            Config::URefMin => "uref min",
            Config::URefMax => "uref max",
        }
    }

    pub const ALL: [Config; 8] = [
        Config::KernInt,
        Config::UserInt,
        Config::KernDrv,
        Config::UserDrv,
        Config::KRefMin,
        Config::KRefMax,
        Config::URefMin,
        Config::URefMax,
    ];
}

#[derive(Debug, Clone, Serialize)]
pub struct Point {
    pub config: &'static str,
    pub pkt_size: usize,
    pub pps: f64,
}

/// Measure one configuration at one packet size.
pub fn measure(config: Config, pkt_size: usize, packets: u64) -> Point {
    let nexus = boot_with(NexusConfig::default());
    let (path, monitor, caching) = match config {
        Config::KernInt => (EchoPath::KernelInterrupt, None, true),
        Config::UserInt => (EchoPath::UserInterrupt, None, true),
        Config::KernDrv => (EchoPath::KernelDriver, None, true),
        Config::UserDrv => (EchoPath::UserDriver, None, true),
        Config::KRefMin => (EchoPath::UserDriver, Some(MonitorLevel::Kernel), true),
        Config::KRefMax => (EchoPath::UserDriver, Some(MonitorLevel::Kernel), false),
        Config::URefMin => (EchoPath::UserDriver, Some(MonitorLevel::User), true),
        Config::URefMax => (EchoPath::UserDriver, Some(MonitorLevel::User), false),
    };
    nexus.redirector().set_caching(caching);
    let mut world = EchoWorld::new(&nexus, path).expect("echo world");
    if let Some(level) = monitor {
        world.install_monitor(&nexus, level).expect("monitor");
    }
    let frame = vec![0x5au8; pkt_size];
    // Warm-up.
    for _ in 0..32 {
        world.echo(&nexus, &frame).expect("echo");
    }
    let start = std::time::Instant::now();
    for _ in 0..packets {
        world.echo(&nexus, &frame).expect("echo");
    }
    let secs = start.elapsed().as_secs_f64();
    Point {
        config: config.name(),
        pkt_size,
        pps: packets as f64 / secs,
    }
}

/// The full sweep (both packet sizes).
pub fn run(packets: u64) -> Vec<Point> {
    let mut out = Vec::new();
    for config in Config::ALL {
        for size in [100usize, 1500] {
            out.push(measure(config, size, packets));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pps(cfg: Config) -> f64 {
        measure(cfg, 100, 3000).pps
    }

    #[test]
    fn interrupt_paths_beat_ipc_paths() {
        let _serial = crate::timing_guard();
        let kern_int = pps(Config::KernInt);
        let user_drv = pps(Config::UserDrv);
        assert!(
            kern_int > user_drv,
            "in-interrupt echo ({kern_int:.0}pps) must beat user-driver IPC path ({user_drv:.0}pps)"
        );
    }

    #[test]
    fn caching_recovers_monitoring_overhead() {
        let _serial = crate::timing_guard();
        let min = pps(Config::URefMin);
        let max = pps(Config::URefMax);
        assert!(
            min > max,
            "cached monitoring ({min:.0}pps) must beat uncached ({max:.0}pps)"
        );
    }

    #[test]
    fn user_monitor_costs_more_than_kernel_monitor_uncached() {
        let _serial = crate::timing_guard();
        let kref = pps(Config::KRefMax);
        let uref = pps(Config::URefMax);
        assert!(
            kref > uref * 0.9,
            "kernel monitor ({kref:.0}pps) should be at least as fast as user monitor ({uref:.0}pps)"
        );
    }
}
