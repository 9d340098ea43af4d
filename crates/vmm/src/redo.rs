//! Redo logs for non-persistent virtual disks.
//!
//! A cloned (non-persistent) VM never writes its golden `.vmdk`; guest
//! writes append to a per-clone redo log, and guest reads consult the
//! redo log before the base disk — VMware's undoable/non-persistent disk
//! mode. The log is an ordinary file, so it can live on the local disk or
//! on the GVFS mount, where proxy write-back caching absorbs its latency
//! ("write-back can help save user time for writes to the redo logs").
//!
//! On-file format: a sequence of records `[guest_offset u64][len u32][data]`.
//! An in-memory extent index maps guest ranges to log positions.

use std::collections::BTreeMap;

use simnet::Env;
use vfs::{FileIo, Handle, IoResult, Payload};

/// A redo log bound to an open log file.
pub struct RedoLog {
    file: Handle,
    /// Guest offset -> (log data offset, length). Non-overlapping: new
    /// writes split/replace older extents.
    index: BTreeMap<u64, (u64, u32)>,
    /// Append position in the log file.
    tail: u64,
}

const RECORD_HEADER: u64 = 12;

impl RedoLog {
    /// Open a fresh redo log over an (empty) file.
    pub fn new(file: Handle) -> Self {
        RedoLog {
            file,
            index: BTreeMap::new(),
            tail: 0,
        }
    }

    /// The underlying file handle.
    pub fn file(&self) -> Handle {
        self.file
    }

    /// Bytes appended so far.
    pub fn log_bytes(&self) -> u64 {
        self.tail
    }

    /// Remove/split any indexed extents overlapping `[start, end)`.
    fn punch(&mut self, start: u64, end: u64) {
        // Collect overlapping extents (including one starting before).
        let mut touched: Vec<(u64, (u64, u32))> = Vec::new();
        if let Some((&gs, &v)) = self.index.range(..start).next_back() {
            if gs + v.1 as u64 > start {
                touched.push((gs, v));
            }
        }
        for (&gs, &v) in self.index.range(start..end) {
            touched.push((gs, v));
        }
        for (gs, (lo, len)) in touched {
            self.index.remove(&gs);
            let ge = gs + len as u64;
            if gs < start {
                // Keep the left part.
                self.index.insert(gs, (lo, (start - gs) as u32));
            }
            if ge > end {
                // Keep the right part.
                let cut = end - gs;
                self.index.insert(end, (lo + cut, (ge - end) as u32));
            }
        }
    }

    /// Record a guest write: append to the log file via `io` and index it.
    pub fn write(&mut self, env: &Env, io: &dyn FileIo, offset: u64, data: &[u8]) -> IoResult<()> {
        if data.is_empty() {
            return Ok(());
        }
        let mut rec = Vec::with_capacity(RECORD_HEADER as usize + data.len());
        rec.extend_from_slice(&offset.to_be_bytes());
        rec.extend_from_slice(&(data.len() as u32).to_be_bytes());
        rec.extend_from_slice(data);
        let rec_len = rec.len() as u64;
        io.write(env, self.file, self.tail, &Payload::from(rec))?;
        let data_pos = self.tail + RECORD_HEADER;
        self.tail += rec_len;
        self.punch(offset, offset + data.len() as u64);
        self.index.insert(offset, (data_pos, data.len() as u32));
        Ok(())
    }

    /// Read `len` guest bytes at `offset`: redo extents override the base
    /// disk, which is read through `base_io`/`base`. The result splices
    /// the two reads' pieces; past the base's end it reads as zeros.
    pub fn read(
        &self,
        env: &Env,
        io: &dyn FileIo,
        base_io: &dyn FileIo,
        base: Handle,
        offset: u64,
        len: u32,
    ) -> IoResult<Payload> {
        let end = offset + len as u64;
        // Base first (one read), then overlay redo extents.
        let base_data = base_io.read(env, base, offset, len)?;
        // `base[lo..hi]` of the request, zero past the base's end.
        let splice_base = |out: &mut Payload, lo: usize, hi: usize| {
            let have = hi.min(base_data.len()).max(lo);
            out.append(&base_data, lo..have);
            out.push_zeros(hi - have);
        };
        // Find overlapping extents.
        let mut overlaps: Vec<(u64, (u64, u32))> = Vec::new();
        if let Some((&gs, &v)) = self.index.range(..offset).next_back() {
            if gs + v.1 as u64 > offset {
                overlaps.push((gs, v));
            }
        }
        for (&gs, &v) in self.index.range(offset..end) {
            overlaps.push((gs, v));
        }
        let mut out = Payload::new();
        // Up to `at` (relative to `offset`) the result is built.
        let mut at = 0usize;
        for (gs, (lo, elen)) in overlaps {
            let ge = gs + elen as u64;
            let from = gs.max(offset);
            let to = ge.min(end);
            if from >= to {
                continue;
            }
            let log_off = lo + (from - gs);
            let chunk = io.read(env, self.file, log_off, (to - from) as u32)?;
            let (from, to) = ((from - offset) as usize, (to - offset) as usize);
            splice_base(&mut out, at, from);
            out.append(&chunk, 0..chunk.len());
            // A short log read leaves the base showing through.
            splice_base(&mut out, from + chunk.len(), to);
            at = to;
        }
        splice_base(&mut out, at, len as usize);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::Simulation;
    use std::rc::Rc;
    use vfs::{Disk, DiskModel, LocalIo, LocalIoConfig};

    fn setup(sim: &Simulation) -> Rc<LocalIo> {
        LocalIo::new(
            Disk::new(&sim.handle(), DiskModel::scsi_2004()),
            LocalIoConfig::default(),
            0,
        )
    }

    #[test]
    fn reads_fall_through_to_base_when_log_empty() {
        let sim = Simulation::new();
        let io = setup(&sim);
        sim.spawn("t", move |env| {
            let base = io.create_path(&env, "base.vmdk").unwrap();
            io.write(&env, base, 0, &Payload::from(b"BASEDATA"))
                .unwrap();
            let log_file = io.create_path(&env, "clone.REDO").unwrap();
            let redo = RedoLog::new(log_file);
            let got = redo.read(&env, &*io, &*io, base, 0, 8).unwrap().to_vec();
            assert_eq!(got, b"BASEDATA");
        });
        sim.run();
    }

    #[test]
    fn writes_overlay_base_data() {
        let sim = Simulation::new();
        let io = setup(&sim);
        sim.spawn("t", move |env| {
            let base = io.create_path(&env, "base.vmdk").unwrap();
            io.write(&env, base, 0, &Payload::from(&[0xBB; 100]))
                .unwrap();
            let log_file = io.create_path(&env, "clone.REDO").unwrap();
            let mut redo = RedoLog::new(log_file);
            redo.write(&env, &*io, 10, b"XXXXX").unwrap();
            let got = redo.read(&env, &*io, &*io, base, 0, 100).unwrap().to_vec();
            assert_eq!(&got[..10], &[0xBB; 10]);
            assert_eq!(&got[10..15], b"XXXXX");
            assert_eq!(&got[15..], &[0xBB; 85]);
        });
        sim.run();
    }

    #[test]
    fn overlapping_rewrites_use_latest_data() {
        let sim = Simulation::new();
        let io = setup(&sim);
        sim.spawn("t", move |env| {
            let base = io.create_path(&env, "base.vmdk").unwrap();
            io.write(&env, base, 0, &Payload::from(&[0u8; 64])).unwrap();
            let log_file = io.create_path(&env, "c.REDO").unwrap();
            let mut redo = RedoLog::new(log_file);
            redo.write(&env, &*io, 0, &[1u8; 32]).unwrap();
            redo.write(&env, &*io, 16, &[2u8; 32]).unwrap(); // overlaps tail
            redo.write(&env, &*io, 8, &[3u8; 4]).unwrap(); // punches a hole
            let got = redo.read(&env, &*io, &*io, base, 0, 64).unwrap().to_vec();
            assert_eq!(&got[0..8], &[1u8; 8]);
            assert_eq!(&got[8..12], &[3u8; 4]);
            assert_eq!(&got[12..16], &[1u8; 4]);
            assert_eq!(&got[16..48], &[2u8; 32]);
            assert_eq!(&got[48..64], &[0u8; 16]);
        });
        sim.run();
    }

    #[test]
    fn log_grows_with_record_overhead() {
        let sim = Simulation::new();
        let io = setup(&sim);
        sim.spawn("t", move |env| {
            let log_file = io.create_path(&env, "c.REDO").unwrap();
            let mut redo = RedoLog::new(log_file);
            redo.write(&env, &*io, 0, &[1u8; 100]).unwrap();
            redo.write(&env, &*io, 500, &[2u8; 200]).unwrap();
            assert_eq!(redo.log_bytes(), 100 + 200 + 2 * 12);
            assert_eq!(redo.index.len(), 2);
        });
        sim.run();
    }

    #[test]
    fn partial_overlap_reads_merge_correctly() {
        let sim = Simulation::new();
        let io = setup(&sim);
        sim.spawn("t", move |env| {
            let base = io.create_path(&env, "base.vmdk").unwrap();
            io.write(&env, base, 0, &Payload::from(&[9u8; 200]))
                .unwrap();
            let log_file = io.create_path(&env, "c.REDO").unwrap();
            let mut redo = RedoLog::new(log_file);
            redo.write(&env, &*io, 50, &[7u8; 100]).unwrap();
            // Read a window that cuts the extent on both sides.
            let got = redo.read(&env, &*io, &*io, base, 60, 50).unwrap().to_vec();
            assert_eq!(got, vec![7u8; 50]);
            let got2 = redo.read(&env, &*io, &*io, base, 140, 40).unwrap().to_vec();
            assert_eq!(&got2[..10], &[7u8; 10]);
            assert_eq!(&got2[10..], &[9u8; 30]);
        });
        sim.run();
    }

    #[test]
    fn a_read_past_the_base_splices_extents_over_zeros() {
        let sim = Simulation::new();
        let io = setup(&sim);
        sim.spawn("t", move |env| {
            let base = io.create_path(&env, "base.vmdk").unwrap();
            io.write(&env, base, 0, &Payload::from(&[9u8; 100]))
                .unwrap();
            let log_file = io.create_path(&env, "c.REDO").unwrap();
            let mut redo = RedoLog::new(log_file);
            redo.write(&env, &*io, 90, &[7u8; 20]).unwrap();
            redo.write(&env, &*io, 150, &[5u8; 10]).unwrap();
            let got = redo.read(&env, &*io, &*io, base, 80, 100).unwrap();
            let mut want = vec![9u8; 10];
            want.extend([7u8; 20]);
            want.extend([0u8; 40]);
            want.extend([5u8; 10]);
            want.extend([0u8; 20]);
            assert_eq!(got, want);
        });
        sim.run();
    }
}
