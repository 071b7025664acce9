//! The inference engine: functional execution plus a cycle model.

use serde::{Deserialize, Serialize};

use mlscore_forest::{FlatForest, FlatTree, RandomForest};
use mlscore_sim::SimDuration;

use crate::bram::BramAllocator;
use crate::device::FpgaDevice;
use crate::error::FpgaError;

/// Where tree memories live — on-chip BRAM (the paper's design) or external
/// DDR (the A2 ablation: same engine, slower node reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryBackend {
    /// On-chip BRAM: one node read per cycle, initiation interval 1.
    Bram,
    /// External DDR: node reads stall the pipeline, initiation interval > 1.
    Ddr,
}

impl MemoryBackend {
    /// Pipeline initiation interval in cycles per record for this memory.
    pub fn initiation_interval(self) -> u64 {
        match self {
            MemoryBackend::Bram => 1,
            MemoryBackend::Ddr => 4,
        }
    }
}

/// Engine build-time configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Maximum supported tree depth (10 in the paper — bounded by BRAM).
    pub max_depth: usize,
    /// Number of processing elements, one tree each (128 in the paper).
    pub pe_count: usize,
    /// Capacity of the on-chip result memory, in records; larger batches
    /// flush results to the host in segments.
    pub result_buffer_records: usize,
    /// Tree memory placement.
    pub memory: MemoryBackend,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_depth: 10,
            pe_count: 128,
            result_buffer_records: 4 << 20,
            memory: MemoryBackend::Bram,
        }
    }
}

/// A model resident in the engine's tree memories, ready to score.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedModel {
    flat: FlatForest,
    passes: usize,
    model_bytes: u64,
    bram: BramAllocator,
}

impl LoadedModel {
    /// Number of engine passes needed (`ceil(trees / pe_count)`); the paper:
    /// "if the number of trees is greater than 128, we need to call the
    /// inference engine multiple times".
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// Total model image size transferred to tree memories, in bytes.
    pub fn model_bytes(&self) -> u64 {
        self.model_bytes
    }

    /// The BRAM plan for this load.
    pub fn bram(&self) -> &BramAllocator {
        &self.bram
    }

    /// The flat-encoded model.
    pub fn flat(&self) -> &FlatForest {
        &self.flat
    }
}

/// Per-run cycle accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleReport {
    /// Engine passes executed.
    pub passes: usize,
    /// Pipeline fill cycles per pass (tree depth plus voting latency).
    pub fill_cycles: u64,
    /// Streaming cycles across all passes (records × initiation interval).
    pub streaming_cycles: u64,
    /// Total cycles across all passes.
    pub total_cycles: u64,
    /// Result-memory flushes to the host.
    pub result_flushes: usize,
}

/// One engine pass over a batch: the pipeline and the overlapped PCIe
/// record stream run concurrently, so scoring takes the longer of the two.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassTime {
    /// Pipeline fill plus streaming cycles at the fabric clock.
    pub compute: SimDuration,
    /// The batch's records over the PCIe link.
    pub stream: SimDuration,
}

impl PassTime {
    /// The pass's scoring time: the longer of compute and stream.
    pub fn scoring(&self) -> SimDuration {
        self.compute.max(self.stream)
    }
}

/// The outcome of one engine run: real predictions plus cycle accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineRun {
    /// Class ids from the majority-voting unit.
    pub predictions: Vec<u32>,
    /// Cycle accounting for the run.
    pub report: CycleReport,
}

/// The random forest inference engine (Fig. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceEngine {
    device: FpgaDevice,
    config: EngineConfig,
}

impl InferenceEngine {
    /// Creates an engine on `device` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `pe_count` or `result_buffer_records` is zero.
    pub fn new(device: FpgaDevice, config: EngineConfig) -> Self {
        assert!(config.pe_count > 0, "engine needs at least one PE");
        assert!(
            config.result_buffer_records > 0,
            "result memory cannot be empty"
        );
        Self { device, config }
    }

    /// The paper's engine: 128 PEs, depth 10, BRAM-resident, on the
    /// Stratix 10.
    pub fn paper_default() -> Self {
        Self::new(FpgaDevice::stratix10_gx2800(), EngineConfig::default())
    }

    /// The device.
    pub fn device(&self) -> &FpgaDevice {
        &self.device
    }

    /// The configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Encodes and loads a model, planning BRAM.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::DepthExceeded`] for trees deeper than the engine
    /// supports, and [`FpgaError::BramExceeded`] when tree memories plus the
    /// result memory exceed on-chip capacity (only checked for the BRAM
    /// memory backend).
    pub fn load(&self, forest: &RandomForest) -> Result<LoadedModel, FpgaError> {
        let flat = FlatForest::from_forest(forest, self.config.max_depth)?;
        let passes = self.passes(forest.n_trees());
        let tree_mem_bytes = self.tree_memory_bytes();
        let mut bram = BramAllocator::new(self.device.bram_bytes);
        if self.config.memory == MemoryBackend::Bram {
            let resident_trees = forest.n_trees().min(self.config.pe_count) as u64;
            bram.alloc("tree memories", resident_trees * tree_mem_bytes)?;
            bram.alloc(
                "result memory",
                (self.config.result_buffer_records * 4) as u64,
            )?;
            bram.alloc("input staging", (self.config.pe_count * 256) as u64)?;
        }
        Ok(LoadedModel {
            model_bytes: flat.footprint_bytes() as u64,
            flat,
            passes,
            bram,
        })
    }

    /// Runs the engine over `records` (row-major), producing predictions
    /// and cycle accounting.
    ///
    /// Functionally: pass `p` maps trees `p*PE .. (p+1)*PE` onto the PEs;
    /// every record flows through the pipeline once per pass; per-tree
    /// outcomes accumulate into the voting unit, which emits the final
    /// class (ties to the lowest id, like every backend).
    ///
    /// # Panics
    ///
    /// Panics if `records.len()` is not a multiple of the model's feature
    /// count.
    pub fn execute(&self, model: &LoadedModel, records: &[f32]) -> EngineRun {
        let n_features = model.flat.n_features();
        assert_eq!(
            records.len() % n_features,
            0,
            "records length must be a multiple of the feature count"
        );
        let n_records = records.len() / n_features;
        let trees = model.flat.trees();
        let n_classes = model.flat.n_classes() as usize;
        let mut votes = vec![0u32; n_records * n_classes];
        for pass in trees.chunks(self.config.pe_count) {
            for (i, row) in records.chunks_exact(n_features).enumerate() {
                for tree in pass {
                    let class = tree.score(row) as usize;
                    votes[i * n_classes + class] += 1;
                }
            }
        }
        let predictions = votes
            .chunks_exact(n_classes)
            .map(RandomForest::majority)
            .collect();
        EngineRun {
            predictions,
            report: self.cycle_report(model, n_records as u64),
        }
    }

    /// Cycle accounting for scoring `n_records`, independent of data values
    /// (the pipeline is fully data-oblivious: every record takes the same
    /// slots regardless of its path).
    pub fn cycle_report(&self, model: &LoadedModel, n_records: u64) -> CycleReport {
        let fill = self.fill_cycles();
        let streaming = n_records * self.config.memory.initiation_interval();
        let passes = model.passes as u64;
        CycleReport {
            passes: model.passes,
            fill_cycles: fill,
            streaming_cycles: streaming * passes,
            total_cycles: passes * (fill + streaming),
            result_flushes: self.result_flushes(n_records),
        }
    }

    /// Engine passes for a model of `n_trees` trees: `ceil(n_trees /
    /// pe_count)`, and at least one, so a model with no trees (which
    /// [`FpgaBackend`](crate::FpgaBackend) refuses) still prices as one
    /// empty pass. The paper: "if the number of trees is greater than 128,
    /// we need to call the inference engine multiple times".
    pub fn passes(&self, n_trees: usize) -> usize {
        n_trees.div_ceil(self.config.pe_count).max(1)
    }

    /// Bytes of one PE's tree memory: a full tree at the engine's depth
    /// capacity in the Fig. 4b layout, 16 bytes a node.
    pub fn tree_memory_bytes(&self) -> u64 {
        (FlatTree::capacity_for_depth(self.config.max_depth) * 16) as u64
    }

    /// Pipeline fill cycles per pass: one level per cycle down the tree,
    /// the voting tree (log2 of the PE count) and output registration.
    fn fill_cycles(&self) -> u64 {
        self.config.max_depth as u64 + (self.config.pe_count as u64).ilog2() as u64 + 2
    }

    /// One pass over `n_records` records of `row_bytes` each: the pipeline
    /// cycles at the fabric clock, and the overlapped record stream.
    pub fn pass_time(&self, n_records: u64, row_bytes: u64) -> PassTime {
        let cycles = self.fill_cycles() + n_records * self.config.memory.initiation_interval();
        PassTime {
            compute: self.device.clock.cycles(cycles),
            stream: self.device.link.stream(n_records * row_bytes),
        }
    }

    /// Result-memory flushes to the host for `n_records`: one per result
    /// buffer's worth of records, rounded up, and at least one.
    pub fn result_flushes(&self, n_records: u64) -> usize {
        (n_records as usize)
            .div_ceil(self.config.result_buffer_records)
            .max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscore_data::Dataset;
    use mlscore_forest::ForestConfig;

    fn engine() -> InferenceEngine {
        InferenceEngine::paper_default()
    }

    #[test]
    fn predictions_match_reference_iris() {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(12, 4, 3).with_depth(8), 5);
        let data = Dataset::iris(200, 9).normalized();
        let model = engine().load(&forest).unwrap();
        let run = engine().execute(&model, data.frame().as_slice());
        assert_eq!(
            run.predictions,
            forest.predict_batch(data.frame().as_slice())
        );
    }

    #[test]
    fn multi_pass_votes_accumulate_correctly() {
        // 300 trees > 128 PEs: 3 passes, same predictions as reference.
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(300, 4, 3).with_depth(4), 6);
        let data = Dataset::iris(50, 2).normalized();
        let model = engine().load(&forest).unwrap();
        assert_eq!(model.passes(), 3);
        let run = engine().execute(&model, data.frame().as_slice());
        assert_eq!(
            run.predictions,
            forest.predict_batch(data.frame().as_slice())
        );
        assert_eq!(run.report.passes, 3);
    }

    #[test]
    fn deep_trees_rejected() {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(1, 4, 2).with_depth(11), 1);
        let err = engine().load(&forest).unwrap_err();
        assert_eq!(
            err,
            FpgaError::DepthExceeded {
                depth: 11,
                max_depth: 10
            }
        );
    }

    #[test]
    fn paper_configuration_fits_bram() {
        // 128 trees x depth 10: 128 x 2048 records x 16 B = 4 MiB of tree
        // memory — comfortably inside 28.6 MB alongside the result memory.
        let forest = RandomForest::synthetic_full(
            &ForestConfig::classification(128, 28, 2).with_depth(10),
            3,
        );
        let model = engine().load(&forest).unwrap();
        assert_eq!(model.passes(), 1);
        assert!(model.bram().used_bytes() <= model.bram().capacity());
    }

    #[test]
    fn oversized_result_buffer_exceeds_bram() {
        let cfg = EngineConfig {
            result_buffer_records: 16 << 20, // 64 MB of result memory
            ..EngineConfig::default()
        };
        let e = InferenceEngine::new(FpgaDevice::stratix10_gx2800(), cfg);
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(1, 4, 2).with_depth(4), 1);
        assert!(matches!(
            e.load(&forest).unwrap_err(),
            FpgaError::BramExceeded { .. }
        ));
    }

    #[test]
    fn ddr_backend_skips_bram_check_but_slows_pipeline() {
        let cfg = EngineConfig {
            memory: MemoryBackend::Ddr,
            result_buffer_records: 16 << 20,
            ..EngineConfig::default()
        };
        let e = InferenceEngine::new(FpgaDevice::stratix10_gx2800(), cfg);
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(8, 4, 2).with_depth(6), 2);
        let model = e.load(&forest).unwrap();
        let report = e.cycle_report(&model, 1000);
        let bram_report = engine().cycle_report(&engine().load(&forest).unwrap(), 1000);
        assert_eq!(report.streaming_cycles, 4 * bram_report.streaming_cycles);
    }

    #[test]
    fn cycle_counts_are_pipelined() {
        // 1M records in one pass: ~1M cycles + fill, i.e. ~4 ms at 250 MHz.
        let forest = RandomForest::synthetic_full(
            &ForestConfig::classification(128, 4, 2).with_depth(10),
            1,
        );
        let model = engine().load(&forest).unwrap();
        let report = engine().cycle_report(&model, 1_000_000);
        assert_eq!(report.passes, 1);
        assert!(report.total_cycles < 1_000_100);
        assert!(report.total_cycles >= 1_000_000);
    }

    #[test]
    fn result_flushes_scale_with_batch() {
        let cfg = EngineConfig {
            result_buffer_records: 100,
            ..EngineConfig::default()
        };
        let e = InferenceEngine::new(FpgaDevice::stratix10_gx2800(), cfg);
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(1, 4, 2).with_depth(4), 1);
        let model = e.load(&forest).unwrap();
        assert_eq!(e.cycle_report(&model, 1).result_flushes, 1);
        assert_eq!(e.cycle_report(&model, 250).result_flushes, 3);
    }
}
