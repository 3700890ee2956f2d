//! Memory-budget allocation across levels — the paper's first future
//! direction (Section 6.2): "a more sophisticated algorithm for dynamically
//! allocating memory budgets for learned indexes, taking into account
//! workloads, query distribution, and dataset characteristics".
//!
//! Observation 5 shows that a uniform position boundary misallocates memory
//! when the read distribution is skewed across levels. This allocator takes
//! (a) each level's keys, table by table, (b) its measured/estimated share
//! of lookups, and
//! (c) a total index-memory budget, and greedily assigns *per-level position
//! boundaries*: repeatedly spend bytes where they buy the most expected I/O
//! time per byte. The result plugs directly into
//! `lsm_tree::Options::per_level_epsilon`.

use learned_index::{IndexConfig, IndexKind};

/// What the allocator needs to know about one level.
#[derive(Debug, Clone)]
pub struct LevelWorkload {
    /// Each index's sorted keys, as the engine trains them: one per table,
    /// or one for the whole level under a level model.
    pub tables: Vec<Vec<u64>>,
    /// Fraction of point lookups this level serves (Figure 10's read share).
    pub read_share: f64,
}

/// Device/layout parameters for the expected-cost model (Section 4.1).
#[derive(Debug, Clone)]
pub struct BoundaryAllocator {
    pub kind: IndexKind,
    /// Bytes per on-disk entry.
    pub entry_bytes: usize,
    /// I/O block size.
    pub block_bytes: usize,
    /// Modeled nanoseconds per block read.
    pub read_block_ns: u64,
    /// Candidate position boundaries, coarse → fine.
    pub candidates: Vec<usize>,
}

impl Default for BoundaryAllocator {
    fn default() -> Self {
        Self {
            kind: IndexKind::Pgm,
            entry_bytes: 1036,
            block_bytes: 4096,
            read_block_ns: 2_100,
            candidates: vec![256, 128, 64, 32, 16, 8],
        }
    }
}

/// The allocator's output.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationPlan {
    /// Chosen position boundary per level (aligned with the input slice).
    pub per_level_boundary: Vec<usize>,
    /// Estimated index memory per level at the chosen boundary.
    pub per_level_memory: Vec<usize>,
    /// Total estimated index memory.
    pub total_memory: usize,
    /// Expected modeled I/O nanoseconds per lookup under the read shares.
    pub expected_io_ns: f64,
}

/// Why [`BoundaryAllocator::allocate`] returned no plan: the coarsest
/// candidate on every level already needs more index memory than the
/// budget, and refining only ever adds bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverBudget {
    /// Estimated index memory at the coarsest candidate on every level.
    pub coarsest_bytes: usize,
    /// The budget it exceeds.
    pub budget_bytes: usize,
}

impl std::fmt::Display for OverBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no plan fits: the coarsest boundary on every level needs {} B, over the {} B budget",
            self.coarsest_bytes, self.budget_bytes
        )
    }
}

impl std::error::Error for OverBudget {}

impl AllocationPlan {
    /// Convert to the engine's `per_level_epsilon` override.
    pub fn to_per_level_epsilon(&self) -> Vec<usize> {
        self.per_level_boundary
            .iter()
            .map(|b| (b / 2).max(1))
            .collect()
    }
}

impl BoundaryAllocator {
    /// Worst-case blocks fetched for one lookup at `boundary`.
    fn io_ns(&self, boundary: usize) -> f64 {
        let span = (boundary.max(1) * self.entry_bytes) as u64;
        let blocks = span.div_ceil(self.block_bytes as u64) + 1;
        (blocks * self.read_block_ns) as f64
    }

    /// Measure the index memory a level costs at a given boundary by
    /// training the chosen index family over each of its tables' keys, as
    /// the engine does.
    fn memory_at(&self, level: &LevelWorkload, boundary: usize) -> usize {
        let config = IndexConfig::with_position_boundary(boundary);
        let tables = level.tables.iter().filter(|keys| !keys.is_empty());
        tables
            .map(|keys| self.kind.build(keys, &config).size_bytes())
            .sum()
    }

    /// Greedy allocation: start at the coarsest boundary everywhere, then
    /// repeatedly take the refinement with the best expected-time gain per
    /// byte that still fits the budget. When the coarsest boundaries alone
    /// exceed the budget, no plan fits and none is returned.
    pub fn allocate(
        &self,
        levels: &[LevelWorkload],
        budget_bytes: usize,
    ) -> Result<AllocationPlan, OverBudget> {
        assert!(!self.candidates.is_empty());
        let coarse = self.candidates[0];
        // Precompute the memory matrix level × candidate.
        let mem: Vec<Vec<usize>> = levels
            .iter()
            .map(|lvl| {
                self.candidates
                    .iter()
                    .map(|&b| self.memory_at(lvl, b))
                    .collect()
            })
            .collect();

        let mut choice = vec![0usize; levels.len()]; // candidate index per level
        let mut total: usize = mem.iter().map(|row| row[0]).sum();
        if total > budget_bytes {
            return Err(OverBudget {
                coarsest_bytes: total,
                budget_bytes,
            });
        }

        loop {
            let mut best: Option<(usize, f64, usize)> = None; // (level, gain/byte, extra)
            for (li, lvl) in levels.iter().enumerate() {
                let ci = choice[li];
                if ci + 1 >= self.candidates.len() {
                    continue;
                }
                let cur_b = self.candidates[ci];
                let next_b = self.candidates[ci + 1];
                let gain = lvl.read_share * (self.io_ns(cur_b) - self.io_ns(next_b));
                let extra = mem[li][ci + 1].saturating_sub(mem[li][ci]);
                if total + extra > budget_bytes || gain <= 0.0 {
                    continue;
                }
                let density = gain / (extra.max(1)) as f64;
                if best.is_none_or(|(_, d, _)| density > d) {
                    best = Some((li, density, extra));
                }
            }
            match best {
                Some((li, _, extra)) => {
                    choice[li] += 1;
                    total += extra;
                }
                None => break,
            }
        }

        let per_level_boundary: Vec<usize> = choice.iter().map(|&ci| self.candidates[ci]).collect();
        let per_level_memory: Vec<usize> = choice
            .iter()
            .enumerate()
            .map(|(li, &ci)| mem[li][ci])
            .collect();
        let expected_io_ns = levels
            .iter()
            .zip(&per_level_boundary)
            .map(|(lvl, &b)| lvl.read_share * self.io_ns(b))
            .sum();
        let total_memory = per_level_memory.iter().sum::<usize>();
        Ok(AllocationPlan {
            per_level_boundary,
            per_level_memory,
            total_memory,
            expected_io_ns,
        }
        .normalized(coarse))
    }
}

impl AllocationPlan {
    /// Guard against empty-level artifacts: levels with no keys keep the
    /// coarsest boundary.
    fn normalized(mut self, coarse: usize) -> Self {
        for (b, &m) in self
            .per_level_boundary
            .iter_mut()
            .zip(&self.per_level_memory)
        {
            if m == 0 {
                *b = coarse;
            }
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Irregular (pseudo-random) keys so index memory genuinely grows as the
    /// boundary tightens.
    fn level(n: u64, seed: u64, read_share: f64, tables: usize) -> LevelWorkload {
        let mut keys: Vec<u64> = (0..n)
            .map(|i| {
                // splitmix64: full avalanche so sorted keys are genuinely
                // random (a weaker mix yields a low-discrepancy sequence
                // that a single segment can model at any ε).
                let mut z = (i ^ seed).wrapping_add(0x9e3779b97f4a7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                (z ^ (z >> 31)) % (1 << 50)
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let per = keys.len().div_ceil(tables);
        LevelWorkload {
            tables: keys.chunks(per).map(<[u64]>::to_vec).collect(),
            read_share,
        }
    }

    #[test]
    fn hot_level_gets_tighter_boundary() {
        let levels = vec![
            level(5_000, 1, 0.8, 4),   // hot small level
            level(50_000, 2, 0.2, 16), // cold big level
        ];
        let alloc = BoundaryAllocator::default();
        let uniform_coarse: usize = levels.iter().map(|l| alloc.memory_at(l, 256)).sum();
        // Budget: enough to fully refine the hot level, nowhere near enough
        // for the cold one.
        let hot_delta = alloc.memory_at(&levels[0], 8) - alloc.memory_at(&levels[0], 256);
        let budget = uniform_coarse + hot_delta + hot_delta / 4;
        let plan = alloc.allocate(&levels, budget).unwrap();
        assert!(
            plan.per_level_boundary[0] < plan.per_level_boundary[1],
            "hot level must be refined first: {:?}",
            plan.per_level_boundary
        );
        assert!(plan.total_memory <= budget);
    }

    #[test]
    fn plan_respects_budget_and_improves_cost() {
        let levels = vec![level(2_000, 11, 0.3, 2), level(20_000, 13, 0.7, 8)];
        let alloc = BoundaryAllocator::default();
        let coarse_cost: f64 = levels.iter().map(|l| l.read_share * alloc.io_ns(256)).sum();
        let plan = alloc.allocate(&levels, 1 << 20).unwrap();
        assert!(plan.expected_io_ns < coarse_cost, "refinement must help");
        assert!(plan.total_memory <= 1 << 20);
        assert_eq!(plan.per_level_boundary.len(), 2);
    }

    /// A zero budget fits only levels that index nothing, and those keep
    /// the coarsest boundary; a level with keys gets no plan.
    #[test]
    fn zero_budget_keeps_coarsest() {
        let alloc = BoundaryAllocator::default();
        let empty = LevelWorkload {
            tables: vec![vec![]],
            read_share: 1.0,
        };
        let plan = alloc.allocate(&[empty], 0).unwrap();
        assert_eq!(plan.per_level_boundary, vec![256]);
        let levels = vec![level(5_000, 7, 1.0, 4)];
        assert!(alloc.allocate(&levels, 0).is_err());
    }

    /// A budget one byte below the coarsest candidates' total gets no plan,
    /// naming both byte counts; the exact total gets one, within it. (The
    /// allocator used to return the coarsest plan over any budget.)
    #[test]
    fn a_budget_below_the_coarsest_total_gets_no_plan() {
        let levels = vec![level(5_000, 1, 0.8, 4), level(20_000, 2, 0.2, 8)];
        let alloc = BoundaryAllocator::default();
        let coarsest: usize = levels.iter().map(|l| alloc.memory_at(l, 256)).sum();
        assert_eq!(
            alloc.allocate(&levels, coarsest - 1),
            Err(OverBudget {
                coarsest_bytes: coarsest,
                budget_bytes: coarsest - 1,
            })
        );
        // Only refinements that cost no byte fit.
        let plan = alloc.allocate(&levels, coarsest).unwrap();
        assert_eq!(plan.total_memory, coarsest);
    }

    #[test]
    fn unlimited_budget_reaches_finest() {
        let levels = vec![level(5_000, 7, 1.0, 4)];
        let alloc = BoundaryAllocator::default();
        let plan = alloc.allocate(&levels, usize::MAX).unwrap();
        assert_eq!(plan.per_level_boundary, vec![8]);
    }

    #[test]
    fn epsilon_conversion() {
        let plan = AllocationPlan {
            per_level_boundary: vec![256, 32, 8],
            per_level_memory: vec![1, 1, 1],
            total_memory: 3,
            expected_io_ns: 0.0,
        };
        assert_eq!(plan.to_per_level_epsilon(), vec![128, 16, 4]);
    }

    #[test]
    fn empty_level_is_harmless() {
        let levels = vec![
            LevelWorkload {
                tables: vec![vec![]],
                read_share: 0.5,
            },
            level(1_000, 3, 0.5, 1),
        ];
        let plan = BoundaryAllocator::default()
            .allocate(&levels, 1 << 16)
            .unwrap();
        assert_eq!(plan.per_level_boundary.len(), 2);
        assert_eq!(plan.per_level_memory[0], 0);
    }

    /// At the engine's own boundary the estimate is what the engine
    /// measures, byte for byte: both train one index per table on that
    /// table's keys. (Cutting a level's keys into equal chunks instead read
    /// 4 056 B where the engine measured 3 944 B on
    /// `examples/allocate_memory.rs`'s tree.)
    #[test]
    fn the_estimate_at_the_engines_boundary_is_what_it_measures() {
        use crate::{Granularity, Testbed, TestbedConfig};
        use lsm_workloads::Dataset;
        let mut config = TestbedConfig::quick(IndexKind::Pgm, 256, Dataset::Random);
        config.num_keys = 30_000;
        config.value_width = 64;
        config.granularity = Granularity::SstBytes(64 << 10);
        config.write_buffer_bytes = 64 << 10;
        let mut tb = Testbed::new(config).unwrap();
        tb.load_via_writes().unwrap();
        let version = tb.db().version();
        let levels: Vec<LevelWorkload> = version
            .levels
            .iter()
            .map(|tables| LevelWorkload {
                tables: tables
                    .iter()
                    .map(|t| t.reader.read_all_keys().unwrap())
                    .collect(),
                read_share: 1.0,
            })
            .collect();
        let populated = levels.iter().filter(|l| !l.tables.is_empty()).count();
        assert!(populated >= 2, "a layered tree: {populated} levels");
        let alloc = BoundaryAllocator::default();
        let estimate: usize = levels.iter().map(|l| alloc.memory_at(l, 256)).sum();
        assert_eq!(estimate, tb.db().index_memory_bytes());
    }
}
