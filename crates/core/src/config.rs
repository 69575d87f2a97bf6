//! System configuration (paper Table 3) and evaluated design points.

use janus_bmo::latency::BmoLatencies;
use janus_bmo::{BmoId, BmoMode, BmoStack};
use janus_nvm::device::NvmTiming;
use janus_sim::resource::UnitPool;
use janus_sim::time::Cycles;

use crate::irb::IrbPolicy;

/// The four system designs the evaluation compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SystemMode {
    /// Baseline: BMOs executed serially on every write's critical path
    /// (§5.1 "Serialized").
    Serialized,
    /// Sub-operations parallelized across BMOs, but no pre-execution
    /// (the "Parallelization" bars of Figures 9/13).
    Parallelized,
    /// Full Janus: parallelization + pre-execution through the software
    /// interface.
    Janus,
    /// The §5.2.2 ideal: write-backs do not block on BMOs at all (their
    /// latency is entirely off the critical path).
    Ideal,
}

impl SystemMode {
    /// Whether this mode consumes the software interface's pre-execution
    /// requests (other modes ignore them, charging only issue overhead).
    pub fn uses_pre_execution(self) -> bool {
        matches!(self, SystemMode::Janus)
    }

    /// The BMO scheduling discipline implied by the mode.
    /// `serialized_global` selects the stricter baseline reading where the
    /// controller processes one write's BMOs at a time (DESIGN.md §5a).
    pub fn bmo_mode_with(self, serialized_global: bool) -> BmoMode {
        match self {
            SystemMode::Serialized if serialized_global => BmoMode::SerializedGlobal,
            SystemMode::Serialized => BmoMode::Serialized,
            _ => BmoMode::Parallelized,
        }
    }

    /// The BMO scheduling discipline implied by the mode.
    pub fn bmo_mode(self) -> BmoMode {
        self.bmo_mode_with(false)
    }
}

impl std::fmt::Display for SystemMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SystemMode::Serialized => "serialized",
            SystemMode::Parallelized => "parallelized",
            SystemMode::Janus => "janus",
            SystemMode::Ideal => "ideal",
        };
        f.write_str(s)
    }
}

/// Cache writeback latency to the memory controller (15 ns, §2.3): what a
/// `clwb`'d line, a dirty L1 victim and a pre-execution request each take
/// to reach it.
pub const WRITEBACK: Cycles = Cycles::from_ns(15);

/// IRB entry maximum lifetime (§4.6 age register): 1 ms.
pub const IRB_MAX_AGE: Cycles = Cycles::from_ns(1_000_000);

/// Pre-execution admission is refused when the BMO units are booked
/// further than this into the future (demand writes must not starve
/// behind speculative work).
pub const PRE_ADMISSION_BACKLOG: Cycles = Cycles::from_ns(500);

/// Full system configuration.
#[derive(Clone, Debug)]
pub struct JanusConfig {
    /// Evaluated design point.
    pub mode: SystemMode,
    /// Number of cores (Figure 9 sweeps 1/2/4/8).
    pub cores: usize,
    /// BMO units per core ("4 units per core, shared").
    pub bmo_units_per_core: usize,
    /// IRB entries per core ("64 entries per core, shared").
    pub irb_entries_per_core: usize,
    /// Pre-execution Request Queue entries per core ("16 entries per core").
    pub req_queue_per_core: usize,
    /// Pre-execution Operation Queue entries per core ("64 entries per
    /// core").
    pub op_queue_per_core: usize,
    /// When true, resource pools are unbounded (Figure 14 "Unlimited").
    pub unlimited_resources: bool,
    /// BMO latencies (dedup algorithm, Merkle height, …).
    pub latencies: BmoLatencies,
    /// NVM device timing.
    pub nvm: NvmTiming,
    /// ADR write-queue capacity.
    pub wq_capacity: usize,
    /// Selective metadata atomicity (§4.3.2): only crash-status-mutating
    /// writes block on their metadata persists; otherwise every write does.
    pub selective_atomicity: bool,
    /// Reuse address-dependent pre-execution results when the data turned
    /// out stale (§4.3.1); disabling falls back to full invalidation
    /// (ablation knob).
    pub partial_reuse: bool,
    /// Coalesce same-line writes in the ADR write queue (ablation knob).
    pub wq_coalescing: bool,
    /// Stricter serialized-baseline interpretation: the controller
    /// processes one write's BMOs at a time (ablation; DESIGN.md §5a).
    pub serialized_global: bool,
    /// The BMO stack to run, in stack order. Any subset and ordering of the
    /// registered BMOs composes into a working system (§4.4 requirement 3:
    /// programs need no changes when BMOs change); the default is the
    /// paper's evaluated trio (encryption, integrity, dedup).
    pub bmo_stack: Vec<BmoId>,
    /// How IRB capacity is apportioned across threads/tenants
    /// ([`IrbPolicy::Shared`] — the paper's configuration — unless the
    /// multi-tenant sweeps say otherwise).
    pub irb_policy: IrbPolicy,
}

impl JanusConfig {
    /// The paper's Table 3 configuration for a given mode and core count.
    /// Zero cores is a configuration every run refuses
    /// ([`crate::system::ConfigError::ZeroSize`]).
    pub fn paper(mode: SystemMode, cores: usize) -> Self {
        JanusConfig {
            mode,
            cores,
            bmo_units_per_core: 4,
            irb_entries_per_core: 64,
            req_queue_per_core: 16,
            op_queue_per_core: 64,
            unlimited_resources: false,
            latencies: BmoLatencies::paper(),
            nvm: NvmTiming::pcm(),
            wq_capacity: 64,
            selective_atomicity: true,
            partial_reuse: true,
            wq_coalescing: true,
            serialized_global: false,
            bmo_stack: BmoStack::paper().members().to_vec(),
            irb_policy: IrbPolicy::Shared,
        }
    }

    /// The configured BMO stack, validated (panics on duplicate members —
    /// construction via [`BmoStack::parse`] or [`BmoStack::new`] can't
    /// produce one, but a hand-edited `bmo_stack` field could).
    pub fn stack(&self) -> BmoStack {
        BmoStack::new(self.bmo_stack.iter().copied()).expect("valid BMO stack")
    }

    /// Scales the pre-execution resources (BMO units + buffers) by `factor`
    /// — the Figure 14 sweep. `None` when a scaled per-core count, its
    /// total across the cores, or the BMO unit pool's window capacity
    /// (`units × UnitPool::WINDOW` unit-cycles) overflows.
    pub fn scale_resources(mut self, factor: usize) -> Option<Self> {
        assert!(factor >= 1, "scale factor must be positive");
        let cores = self.cores;
        let scale = |per_core: usize| {
            let scaled = per_core.checked_mul(factor)?;
            scaled.checked_mul(cores)?;
            Some(scaled)
        };
        self.bmo_units_per_core = scale(self.bmo_units_per_core)?;
        self.irb_entries_per_core = scale(self.irb_entries_per_core)?;
        self.req_queue_per_core = scale(self.req_queue_per_core)?;
        self.op_queue_per_core = scale(self.op_queue_per_core)?;
        u64::try_from(self.total_bmo_units())
            .ok()?
            .checked_mul(UnitPool::WINDOW)?;
        Some(self)
    }

    /// Makes every pre-execution resource unlimited (Figure 14 "Unlimited").
    pub fn unlimited(mut self) -> Self {
        self.unlimited_resources = true;
        self
    }

    /// Switches the dedup fingerprint to CRC-32 (Figure 12).
    pub fn with_crc32(mut self) -> Self {
        self.latencies = self.latencies.with_crc32();
        self
    }

    /// Total BMO units across the controller.
    pub fn total_bmo_units(&self) -> usize {
        if self.unlimited_resources {
            UnitPool::UNLIMITED
        } else {
            self.bmo_units_per_core * self.cores
        }
    }

    /// Total IRB entries.
    pub fn total_irb_entries(&self) -> usize {
        if self.unlimited_resources {
            usize::MAX
        } else {
            self.irb_entries_per_core * self.cores
        }
    }

    /// Total request-queue entries.
    pub fn total_req_queue(&self) -> usize {
        if self.unlimited_resources {
            usize::MAX / 2
        } else {
            self.req_queue_per_core * self.cores
        }
    }

    /// Total operation-queue entries.
    pub fn total_op_queue(&self) -> usize {
        if self.unlimited_resources {
            usize::MAX / 2
        } else {
            self.op_queue_per_core * self.cores
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table3() {
        let c = JanusConfig::paper(SystemMode::Janus, 1);
        assert_eq!(c.bmo_units_per_core, 4);
        assert_eq!(c.irb_entries_per_core, 64);
        assert_eq!(c.req_queue_per_core, 16);
        assert_eq!(c.op_queue_per_core, 64);
        assert_eq!(c.wq_capacity, 64);
        assert_eq!(c.irb_policy, IrbPolicy::Shared);
        assert_eq!(WRITEBACK, Cycles::from_ns(15));
        assert_eq!(IRB_MAX_AGE, Cycles::from_ns(1_000_000));
        assert_eq!(PRE_ADMISSION_BACKLOG, Cycles::from_ns(500));
    }

    #[test]
    fn totals_scale_with_cores() {
        let c = JanusConfig::paper(SystemMode::Janus, 4);
        assert_eq!(c.total_bmo_units(), 16);
        assert_eq!(c.total_irb_entries(), 256);
    }

    #[test]
    fn resource_scaling() {
        let c = JanusConfig::paper(SystemMode::Janus, 1)
            .scale_resources(4)
            .unwrap();
        assert_eq!(c.bmo_units_per_core, 16);
        assert_eq!(c.irb_entries_per_core, 256);
        // 4 units per core wrap to 0; 4 × 64 unit-cycles per window wrap.
        for overflowing in [1 << 62, 1 << 60] {
            assert!(JanusConfig::paper(SystemMode::Janus, 1)
                .scale_resources(overflowing)
                .is_none());
        }
        // Fits per core, overflows across 4 cores.
        assert!(JanusConfig::paper(SystemMode::Janus, 4)
            .scale_resources(1 << 58)
            .is_none());
    }

    #[test]
    fn unlimited_resources() {
        let c = JanusConfig::paper(SystemMode::Janus, 1).unlimited();
        assert_eq!(c.total_bmo_units(), UnitPool::UNLIMITED);
        assert!(c.total_irb_entries() > 1 << 40);
    }

    #[test]
    fn mode_properties() {
        assert!(SystemMode::Janus.uses_pre_execution());
        assert!(!SystemMode::Serialized.uses_pre_execution());
        assert!(!SystemMode::Parallelized.uses_pre_execution());
        assert!(!SystemMode::Ideal.uses_pre_execution());
        assert_eq!(SystemMode::Serialized.bmo_mode(), BmoMode::Serialized);
        assert_eq!(SystemMode::Janus.bmo_mode(), BmoMode::Parallelized);
    }

    #[test]
    fn crc_switch() {
        let c = JanusConfig::paper(SystemMode::Janus, 1).with_crc32();
        assert_eq!(c.latencies.dedup_algo, janus_crypto::FingerprintAlgo::Crc32);
    }

    #[test]
    fn default_stack_is_the_paper_trio() {
        let c = JanusConfig::paper(SystemMode::Janus, 1);
        assert_eq!(c.bmo_stack, BmoStack::paper().members());
        assert_eq!(c.stack().to_string(), "enc,int,dedup");
    }

    #[test]
    fn any_stack_is_configurable() {
        let mut c = JanusConfig::paper(SystemMode::Janus, 1);
        c.bmo_stack = BmoStack::parse("ecc,enc").unwrap().members().to_vec();
        assert_eq!(c.stack().members(), [BmoId::Ecc, BmoId::Encryption]);
    }

    #[test]
    fn display_names() {
        assert_eq!(SystemMode::Janus.to_string(), "janus");
        assert_eq!(SystemMode::Ideal.to_string(), "ideal");
    }
}
