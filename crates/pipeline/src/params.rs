//! Calibrated stage costs for the DBMS pipeline.

use mlscore_sim::{Bandwidth, SimDuration};

/// Per-stage cost parameters for the T-SQL → Python → scoring pipeline.
///
/// Defaults are calibrated to the paper's Fig. 11 narrative: launching the
/// external Python process costs on the order of 100 ms; the "transparent"
/// SQL↔Python data copy is row-oriented and slow (external-script data
/// marshaling moves on the order of only 10⁵ rows/s, which is what makes
/// data transfer the dominant component once scoring is accelerated);
/// model deserialization scales with bundle bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineParams {
    /// Launching the external Python process (Fig. 11 "Python invocation").
    pub python_invocation: SimDuration,
    /// Fixed setup of one SQL↔Python transfer channel.
    pub transfer_setup: SimDuration,
    /// Per-row marshaling cost of the SQL↔Python copy (row-oriented
    /// serialization dominates the copy).
    pub per_row_marshal: SimDuration,
    /// Byte-streaming bandwidth of the SQL↔Python copy.
    pub marshal_bandwidth: Bandwidth,
    /// Fixed model-deserialization cost (import, session setup).
    pub model_deserialize_fixed: SimDuration,
    /// Per-byte model-deserialization cost.
    pub model_deserialize_per_byte: SimDuration,
    /// Per-byte data-preparation cost (feature extraction, dtype
    /// conversion) inside the Python script.
    pub data_preprocess_per_byte: SimDuration,
    /// Per-record cost of assembling the results DataFrame.
    pub postprocess_per_record: SimDuration,
    /// Per-row marshaling cost of returning predictions (4-byte values are
    /// far cheaper to serialize than wide input rows).
    pub per_result_marshal: SimDuration,
    /// Cost of a warm artifact-cache lookup (hash the bundle bytes, probe
    /// the cache). Replaces the whole model-pre-processing stage on a hit.
    pub cache_lookup: SimDuration,
    /// Per-chunk handoff cost on the fused in-process path: bumping the
    /// scanner cursor and passing a borrowed chunk to the kernel. This is
    /// the *entire* data-transfer charge of a fused query — there is no
    /// row-oriented SQL↔Python copy and no separate pre-processing pass.
    pub chunk_handoff: SimDuration,
}

fn default_cache_lookup() -> SimDuration {
    SimDuration::from_micros(50.0)
}

fn default_chunk_handoff() -> SimDuration {
    SimDuration::from_micros(2.0)
}

impl Default for PipelineParams {
    fn default() -> Self {
        Self {
            python_invocation: SimDuration::from_millis(100.0),
            transfer_setup: SimDuration::from_millis(2.0),
            per_row_marshal: SimDuration::from_micros(12.0),
            marshal_bandwidth: Bandwidth::from_gb_per_sec(0.5),
            model_deserialize_fixed: SimDuration::from_millis(20.0),
            model_deserialize_per_byte: SimDuration::from_nanos(2.0),
            data_preprocess_per_byte: SimDuration::from_nanos(0.5),
            postprocess_per_record: SimDuration::from_nanos(500.0),
            per_result_marshal: SimDuration::from_micros(2.0),
            cache_lookup: default_cache_lookup(),
            chunk_handoff: default_chunk_handoff(),
        }
    }
}

impl PipelineParams {
    /// Time to marshal `rows` totalling `bytes` across the SQL↔Python
    /// boundary (one direction).
    pub fn marshal_time(&self, rows: u64, bytes: u64) -> SimDuration {
        self.transfer_setup
            + self.per_row_marshal * rows as f64
            + self.marshal_bandwidth.transfer_time(bytes)
    }

    /// Time to marshal `rows` prediction results back to the DBMS.
    pub fn marshal_results_time(&self, rows: u64) -> SimDuration {
        self.transfer_setup
            + self.per_result_marshal * rows as f64
            + self.marshal_bandwidth.transfer_time(rows * 4)
    }

    /// Model pre-processing (deserialization) time for a bundle of
    /// `model_bytes`.
    pub fn model_preprocess_time(&self, model_bytes: u64) -> SimDuration {
        self.model_deserialize_fixed + self.model_deserialize_per_byte * model_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marshal_time_is_row_dominated_for_narrow_rows() {
        let p = PipelineParams::default();
        // 1M IRIS rows: 16 MB of payload but 1M row conversions.
        let t = p.marshal_time(1_000_000, 16_000_000);
        let row_part = p.per_row_marshal * 1e6;
        assert!(t > row_part);
        assert!(t < row_part * 1.5);
    }

    #[test]
    fn cache_lookup_is_far_cheaper_than_model_preprocessing() {
        let p = PipelineParams::default();
        // The warm path's whole point: a hit costs a hash + probe, not a
        // deserialize — orders of magnitude under even the fixed cost.
        assert!(p.cache_lookup * 100.0 < p.model_preprocess_time(0));
    }

    #[test]
    fn chunk_handoff_is_negligible_next_to_per_row_marshal() {
        let p = PipelineParams::default();
        // The fused path's whole point: handing one 512-row chunk across a
        // function boundary must cost far less than marshalling even a
        // single row through the SQL↔Python copy — otherwise chunking
        // would just reintroduce the tax it removes.
        // One handoff covers a whole default chunk (512 rows), yet costs
        // less than marshalling a single row.
        assert!(p.chunk_handoff < p.per_row_marshal);
    }

    #[test]
    fn model_preprocess_scales_with_bytes() {
        let p = PipelineParams::default();
        let small = p.model_preprocess_time(1_000);
        let big = p.model_preprocess_time(10_000_000);
        assert!(big > small);
        assert!(small >= p.model_deserialize_fixed);
    }
}
