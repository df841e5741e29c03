//! What the guest can see of its host: the CPU time `/proc/stat` reports
//! as stolen. On a shared box it is the one direct sign that a timing was
//! inflated by a neighbour rather than by the code under test.

/// The machine's cumulative CPU time, in clock ticks.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    /// All states of all CPUs.
    total: u64,
    /// Time the hypervisor ran something else while a CPU was runnable.
    stolen: u64,
}

impl CpuTimes {
    /// Reads `/proc/stat`; `None` where it is missing or has no steal column.
    pub fn now() -> Option<CpuTimes> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .map_while(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // the guest columns are already part of user and nice.
        Some(CpuTimes {
            total: fields.get(..8)?.iter().sum(),
            stolen: fields[7],
        })
    }

    /// The share of the machine's CPU time stolen since `self` was read;
    /// `None` if no time has passed or `/proc/stat` is gone.
    pub fn stolen_share_since(self) -> Option<f64> {
        let now = CpuTimes::now()?;
        let total = now.total.checked_sub(self.total).filter(|&t| t > 0)?;
        Some(now.stolen.saturating_sub(self.stolen) as f64 / total as f64)
    }
}
