//! Scheduling policies (Sec. IV-C).
//!
//! * **Droop** — "focuses on mitigating voltage noise explicitly by
//!   reducing the number of times the hardware recovery mechanism
//!   triggers."
//! * **IPC** — classic throughput-oriented co-scheduling, the
//!   performance baseline.
//! * **IPC/Droopⁿ** — the paper's combined metric, "sensitive to
//!   recovery costs. The value of n is small for fine-grained schemes …
//!   n should be bigger to compensate for larger recovery penalties."
//! * **Random** — the control cluster of Fig. 18.

use crate::oracle::PairOracle;
use std::fmt;

/// A co-scheduling policy: how desirable is running a given pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Minimize chip-wide droops.
    Droop,
    /// Maximize throughput.
    Ipc,
    /// Maximize `IPC / Droopⁿ`; `n` grows with the recovery cost.
    IpcOverDroopN {
        /// The droop-aversion exponent.
        n: f64,
    },
    /// Uniformly random pairing (seeded).
    Random {
        /// RNG seed for reproducible random schedules.
        seed: u64,
    },
}

impl Policy {
    /// Desirability score of pair `(i, j)` — higher is better. Random
    /// returns a constant; the batch scheduler handles its sampling.
    ///
    /// Scores use the SPECrate-normalized metrics so no benchmark is
    /// preferred merely for having high absolute IPC.
    pub fn score(&self, oracle: &PairOracle, i: usize, j: usize) -> f64 {
        match self {
            Policy::Droop => -oracle.normalized_droops(i, j),
            Policy::Ipc => oracle.normalized_ipc(i, j),
            Policy::IpcOverDroopN { n } => {
                let d = oracle.normalized_droops(i, j).max(1e-6);
                oracle.normalized_ipc(i, j) / d.powf(*n)
            }
            Policy::Random { .. } => 0.0,
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::Droop => write!(f, "Droop"),
            Policy::Ipc => write!(f, "IPC"),
            Policy::IpcOverDroopN { n } => write!(f, "IPC/Droop^{n}"),
            Policy::Random { seed } => write!(f, "Random({seed})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(Policy::Droop.to_string(), "Droop");
        assert_eq!(Policy::Ipc.to_string(), "IPC");
        assert_eq!(Policy::IpcOverDroopN { n: 1.0 }.to_string(), "IPC/Droop^1");
        assert_eq!(Policy::Random { seed: 3 }.to_string(), "Random(3)");
    }
}
