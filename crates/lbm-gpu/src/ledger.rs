//! The traffic ledger every single-device driver keeps: the launch tallies
//! accumulated over all steps (the numerator of Table 2's measured B/F) and
//! the optional profiler each launch is mirrored into.

use gpu_sim::exec::LaunchStats;
use gpu_sim::memory::Tally;
use gpu_sim::profiler::Profiler;
use lbm_core::io::{CheckpointError, CheckpointReader, CheckpointWriter};
use std::sync::Arc;

#[derive(Default)]
pub(crate) struct Ledger {
    pub(crate) accum: Tally,
    pub(crate) profiler: Option<Arc<Profiler>>,
}

impl Ledger {
    /// Accumulate one launch; the profiler attributes it to `work_items()`
    /// nodes, evaluated only with a profiler attached (a geometry's fluid
    /// count is a full scan of the domain).
    pub(crate) fn record(&mut self, stats: &LaunchStats, work_items: impl FnOnce() -> usize) {
        self.accum.merge(&stats.tally);
        if let Some(p) = &self.profiler {
            p.record(stats, work_items() as u64);
        }
    }

    /// Measured DRAM bytes per node update over `updates` updates — zero
    /// (not NaN) before the first step, so the ratio never leaks 0/0 into
    /// serve quota math or bench JSON.
    pub(crate) fn bytes_per_update(&self, updates: u64) -> f64 {
        if updates == 0 {
            return 0.0;
        }
        self.accum.dram_bytes() as f64 / updates as f64
    }

    /// Append the accumulated tally to a checkpoint payload.
    pub(crate) fn write(&self, w: &mut CheckpointWriter) {
        let t = &self.accum;
        w.put_u64(t.reads)
            .put_u64(t.writes)
            .put_u64(t.bytes_read)
            .put_u64(t.bytes_written)
            .put_u64(t.dram_bytes_read)
            .put_u64(t.l2_read_hits);
    }

    /// Read back what [`Ledger::write`] appended.
    pub(crate) fn read(&mut self, r: &mut CheckpointReader) -> Result<(), CheckpointError> {
        self.accum = Tally {
            reads: r.take_u64()?,
            writes: r.take_u64()?,
            bytes_read: r.take_u64()?,
            bytes_written: r.take_u64()?,
            dram_bytes_read: r.take_u64()?,
            l2_read_hits: r.take_u64()?,
        };
        Ok(())
    }
}
