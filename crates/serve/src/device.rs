//! The device-contention model: which backends share which physical
//! device, and how many concurrent passes each device admits.
//!
//! Contention is what separates a serving simulation from the serial
//! back-to-back `sched::trace::replay`: the FPGA is exclusive (one
//! resident bitstream, one pass at a time), a GPU overlaps a few passes on
//! independent streams, and the CPU engines share the host's executor
//! seats. Each device is backed by a
//! [`DeviceLedger`](mlscore_sim::DeviceLedger) slot pool in the engine;
//! this module only describes the topology.

use mlscore_backend::ScoringBackend;

/// One physical device: a name (the Perfetto lane suffix) and how many
/// passes it runs concurrently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceSpec {
    /// Display name (`CPU`, `GPU`, `FPGA`).
    pub name: String,
    /// Concurrent passes (ledger slots): executor seats on the CPU,
    /// streams on the GPU, 1 on the FPGA.
    pub slots: usize,
}

/// Maps each backend in a roster to the device it occupies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceRoster {
    devices: Vec<DeviceSpec>,
    /// `by_backend[i]` = device index backing backend `i`.
    by_backend: Vec<usize>,
}

impl DeviceRoster {
    /// The paper topology: all `CPU*` backends share one CPU device with
    /// `cpu_seats` concurrent passes, all `GPU*` backends share one GPU
    /// device with `gpu_streams` streams, and every other backend (the
    /// FPGA) gets an exclusive single-slot device of its own name.
    pub fn paper_default(
        backends: &[Box<dyn ScoringBackend>],
        cpu_seats: usize,
        gpu_streams: usize,
    ) -> Self {
        let mut devices: Vec<DeviceSpec> = Vec::new();
        let mut by_backend = Vec::with_capacity(backends.len());
        for backend in backends {
            let (name, slots) = if backend.name().starts_with("CPU") {
                ("CPU".to_string(), cpu_seats.max(1))
            } else if backend.name().starts_with("GPU") {
                ("GPU".to_string(), gpu_streams.max(1))
            } else {
                (backend.name().to_string(), 1)
            };
            let device = match devices.iter().position(|d| d.name == name) {
                Some(i) => i,
                None => {
                    devices.push(DeviceSpec { name, slots });
                    devices.len() - 1
                }
            };
            by_backend.push(device);
        }
        Self {
            devices,
            by_backend,
        }
    }

    /// The devices, in first-appearance order.
    pub fn devices(&self) -> &[DeviceSpec] {
        &self.devices
    }

    /// The device index backing backend `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a roster backend index — the mapping is built
    /// with exactly one entry per backend at construction.
    pub fn device_of(&self, backend: usize) -> usize {
        // analyze: allow(P001, reason="by_backend is built with one entry per roster backend at construction; a miss is an engine bug, not load")
        self.by_backend[backend]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscore_sched::paper_backends;

    #[test]
    fn paper_roster_folds_six_backends_onto_three_devices() {
        let backends = paper_backends();
        let roster = DeviceRoster::paper_default(&backends, 52, 4);
        assert_eq!(
            roster
                .devices()
                .iter()
                .map(|d| (d.name.as_str(), d.slots))
                .collect::<Vec<_>>(),
            [("CPU", 52), ("GPU", 4), ("FPGA", 1)]
        );
        // CPU_SKLearn, CPU_ONNX x2 -> CPU; GPU-HB, GPU-RAPIDS -> GPU; FPGA.
        let names: Vec<&str> = (0..backends.len())
            .map(|i| roster.devices()[roster.device_of(i)].name.as_str())
            .collect();
        assert_eq!(names, ["CPU", "CPU", "CPU", "GPU", "GPU", "FPGA"]);
        assert_eq!(roster.device_of(5), 2);
    }
}
