//! Machine models: cache geometry plus cycle-cost parameters.
//!
//! Presets reproduce the paper's two experimental platforms (§6.1):
//!
//! * **UltraSparc II**, 296 MHz, on-chip `<16 K, 32 B, 1>`, L2
//!   `<1 M, 64 B, 1>`;
//! * **Pentium II**, 333 MHz, on-chip `<16 K, 32 B, 4>`, L2
//!   `<512 K, 32 B, 4>`;
//!
//! plus a modern three-level reference machine to show that the paper's
//! ranking persists as the CPU–memory gap keeps widening (its §8 prediction).
//!
//! Miss penalties are representative public figures for the respective
//! eras; the reproduction target is the *shape* of the curves (which method
//! wins, where crossovers fall), which depends on the geometry and the
//! penalty *ratios*, not on exact 1998 cycle counts.

use crate::cache::Cache;
use crate::hierarchy::CacheHierarchy;
use crate::timemodel::TimeModel;

/// Static description of a machine (geometry + cost parameters).
#[derive(Debug, Clone)]
pub struct MachineSpec {
    /// Human-readable name ("Ultra Sparc II", ...).
    pub name: &'static str,
    /// Clock rate in Hz, used to convert simulated cycles to seconds.
    pub clock_hz: f64,
    /// `(capacity, block bytes, associativity)` per level, L1 first.
    pub caches: Vec<(usize, usize, usize)>,
    /// Cycles to fetch from the level *below* each cache on a miss
    /// (same length as `caches`; the last entry is the memory penalty).
    pub miss_penalty_cycles: Vec<f64>,
    /// Cycles per key comparison (branch + compare).
    pub compare_cycles: f64,
    /// Cycles per node-to-node move (child address computation).
    pub descend_cycles: f64,
    /// Cycles per issued access that hits L1 (load latency).
    pub access_cycles: f64,
}

/// A runnable machine: spec + instantiated hierarchy.
#[derive(Debug, Clone)]
pub struct Machine {
    /// The machine description.
    pub spec: MachineSpec,
    /// The simulated cache hierarchy.
    pub hierarchy: CacheHierarchy,
}

impl MachineSpec {
    /// The paper's UltraSparc II (296 MHz).
    pub fn ultrasparc2() -> Self {
        Self {
            name: "Ultra Sparc II",
            clock_hz: 296e6,
            caches: vec![(16 * 1024, 32, 1), (1024 * 1024, 64, 1)],
            // ~3:1 between L2 and L1 penalties, memory ~2 orders of
            // magnitude above a cycle — the gap Fig. 1 is about.
            miss_penalty_cycles: vec![10.0, 80.0],
            compare_cycles: 2.0,
            descend_cycles: 3.0,
            access_cycles: 1.0,
        }
    }

    /// The paper's Pentium II (333 MHz).
    pub fn pentium2() -> Self {
        Self {
            name: "Pentium II",
            clock_hz: 333e6,
            caches: vec![(16 * 1024, 32, 4), (512 * 1024, 32, 4)],
            // Half-speed off-die L2 -> larger L1-miss penalty than Sparc.
            miss_penalty_cycles: vec![14.0, 70.0],
            compare_cycles: 2.0,
            descend_cycles: 3.0,
            access_cycles: 1.0,
        }
    }

    /// A modern three-level x86 machine (3 GHz, 64 B lines).
    pub fn modern() -> Self {
        Self {
            name: "Modern x86-64",
            clock_hz: 3.0e9,
            caches: vec![
                (32 * 1024, 64, 8),
                (1024 * 1024, 64, 16),
                (32 * 1024 * 1024, 64, 16),
            ],
            miss_penalty_cycles: vec![10.0, 40.0, 250.0],
            compare_cycles: 1.0,
            descend_cycles: 2.0,
            access_cycles: 1.0,
        }
    }

    /// Instantiate the cache hierarchy described by this spec.
    pub fn build_hierarchy(&self) -> CacheHierarchy {
        CacheHierarchy::new(
            self.caches
                .iter()
                .map(|&(cap, block, assoc)| Cache::new(cap, block, assoc))
                .collect(),
        )
    }

    /// The cycle-cost model for this machine.
    pub fn time_model(&self) -> TimeModel {
        TimeModel {
            clock_hz: self.clock_hz,
            miss_penalty_cycles: self.miss_penalty_cycles.clone(),
            compare_cycles: self.compare_cycles,
            descend_cycles: self.descend_cycles,
            access_cycles: self.access_cycles,
        }
    }
}

impl Machine {
    /// Instantiate a machine from its spec.
    pub fn new(spec: MachineSpec) -> Self {
        let hierarchy = spec.build_hierarchy();
        Self { spec, hierarchy }
    }

    /// Shorthand for [`MachineSpec::ultrasparc2`].
    pub fn ultrasparc2() -> Self {
        Self::new(MachineSpec::ultrasparc2())
    }

    /// Shorthand for [`MachineSpec::pentium2`].
    pub fn pentium2() -> Self {
        Self::new(MachineSpec::pentium2())
    }

    /// Shorthand for [`MachineSpec::modern`].
    pub fn modern() -> Self {
        Self::new(MachineSpec::modern())
    }

    /// Look up a machine preset by name (`ultrasparc`, `pentium2`,
    /// `modern`); used by the `figures` CLI.
    pub fn by_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "ultrasparc" | "ultrasparc2" | "sparc" => Some(Self::ultrasparc2()),
            "pentium" | "pentium2" | "p2" => Some(Self::pentium2()),
            "modern" | "x86" => Some(Self::modern()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_geometries() {
        let u = Machine::ultrasparc2();
        assert_eq!(u.hierarchy.depth(), 2);
        assert_eq!(u.hierarchy.level(0).capacity(), 16 * 1024);
        assert_eq!(u.hierarchy.level(0).block_bytes(), 32);
        assert_eq!(u.hierarchy.level(0).associativity(), 1);
        assert_eq!(u.hierarchy.level(1).capacity(), 1024 * 1024);
        assert_eq!(u.hierarchy.level(1).block_bytes(), 64);

        let p = Machine::pentium2();
        assert_eq!(p.hierarchy.level(0).associativity(), 4);
        assert_eq!(p.hierarchy.level(1).capacity(), 512 * 1024);
        assert_eq!(p.hierarchy.level(1).block_bytes(), 32);
    }

    #[test]
    fn by_name_resolves_aliases() {
        assert_eq!(
            Machine::by_name("ultrasparc").unwrap().spec.name,
            "Ultra Sparc II"
        );
        assert_eq!(Machine::by_name("P2").unwrap().spec.name, "Pentium II");
        assert_eq!(
            Machine::by_name("modern").unwrap().spec.name,
            "Modern x86-64"
        );
        assert!(Machine::by_name("vax").is_none());
    }

    #[test]
    fn penalties_align_with_cache_levels() {
        for spec in [
            MachineSpec::ultrasparc2(),
            MachineSpec::pentium2(),
            MachineSpec::modern(),
        ] {
            assert_eq!(
                spec.caches.len(),
                spec.miss_penalty_cycles.len(),
                "{}",
                spec.name
            );
            // Penalties must grow with depth (memory is the most expensive).
            for w in spec.miss_penalty_cycles.windows(2) {
                assert!(w[0] < w[1], "{}", spec.name);
            }
        }
    }

    #[test]
    fn modern_memory_gap_is_wider() {
        // §8: "the gap between CPU and memory speed is widening" — the
        // modern preset must charge relatively more for a memory miss.
        let old = MachineSpec::ultrasparc2();
        let new = MachineSpec::modern();
        let old_ratio = old.miss_penalty_cycles.last().unwrap() / old.compare_cycles;
        let new_ratio = new.miss_penalty_cycles.last().unwrap() / new.compare_cycles;
        assert!(new_ratio > old_ratio);
    }
}
