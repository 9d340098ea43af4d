//! The hosted VM monitor model.
//!
//! Models a VMware-GSX-style hosted VMM **purely in terms of host file
//! I/O on its state files** — which is the paper's transparency claim:
//! the monitor is unmodified and unaware of GVFS; it simply opens
//! `.vmx`/`.vmss`/`.vmdk` files that may live on a local disk, an NFS
//! mount, or behind symlinks into a GVFS mount.
//!
//! * `resume` reads the configuration and then the **entire** memory
//!   state file sequentially (the behaviour that motivates meta-data
//!   handling), then spends device-restore CPU time.
//! * `run` executes a guest I/O trace against the virtual disk, through
//!   a guest page cache (the VM's own RAM) and optionally a redo log
//!   (non-persistent mode).
//! * `suspend` writes the memory image back out.

use simnet::Shared;
use simnet::{Env, SimDuration};
use vfs::{IoError, IoResult, LruMap, MountTable, OpenFile, Payload};

use crate::image::VmImageSpec;
use crate::redo::RedoLog;

/// A guest-level operation, produced by workload generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestOp {
    /// Pure computation for the given virtual time.
    Compute(SimDuration),
    /// Guest disk read.
    DiskRead {
        /// Byte offset on the virtual disk.
        offset: u64,
        /// Length in bytes.
        len: u32,
    },
    /// Guest disk write.
    DiskWrite {
        /// Byte offset on the virtual disk.
        offset: u64,
        /// Length in bytes.
        len: u32,
    },
}

/// VM monitor tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct VmConfig {
    /// Fraction of guest RAM acting as guest page cache.
    pub guest_cache_fraction: f64,
    /// Guest block size.
    pub guest_block: u32,
    /// CPU cost of a guest-cache hit.
    pub guest_hit_cost: SimDuration,
    /// Chunk size the VMM uses to read the memory state on resume.
    pub resume_chunk: u32,
    /// Device save/restore CPU on resume/suspend.
    pub device_cpu: SimDuration,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            guest_cache_fraction: 0.5,
            guest_block: 4096,
            guest_hit_cost: SimDuration::from_micros(3),
            resume_chunk: 256 * 1024,
            device_cpu: SimDuration::from_secs(2),
        }
    }
}

/// Monitor counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct VmStats {
    /// Guest disk reads executed.
    pub guest_reads: u64,
    /// Guest disk writes executed.
    pub guest_writes: u64,
    /// Guest-cache block hits.
    pub guest_cache_hits: u64,
    /// Guest-cache block misses (host I/O issued).
    pub guest_cache_misses: u64,
    /// Bytes read from host files.
    pub host_bytes_read: u64,
    /// Bytes written to host files.
    pub host_bytes_written: u64,
}

struct VmState {
    guest_cache: LruMap<u64, ()>,
    redo: Option<RedoLog>,
    stats: VmStats,
    resumed: bool,
}

/// One virtual machine instance attached to its state files.
pub struct VmMonitor {
    spec: VmImageSpec,
    cfg: VmConfig,
    vmx: OpenFile,
    vmss: OpenFile,
    vmdk: OpenFile,
    /// Backend holding the redo log file (when non-persistent).
    redo_io: Option<OpenFile>,
    state: Shared<VmState>,
}

impl VmMonitor {
    /// Attach to the VM whose state files live in `vm_dir` (resolved
    /// through the host's mount table, following symlinks — so a cloned
    /// VM's `.vmdk` symlink transparently lands on the GVFS mount).
    ///
    /// `redo_path`: when `Some`, the disk runs non-persistent and guest
    /// writes go to a fresh redo log created at that path.
    pub fn attach(
        env: &Env,
        mounts: &MountTable,
        vm_dir: &str,
        spec: VmImageSpec,
        cfg: VmConfig,
        redo_path: Option<&str>,
    ) -> IoResult<VmMonitor> {
        let vmx = mounts.open(env, &format!("{vm_dir}/{}", spec.vmx_name()))?;
        let vmss = mounts.open(env, &format!("{vm_dir}/{}", spec.vmss_name()))?;
        let vmdk = mounts.open(env, &format!("{vm_dir}/{}", spec.vmdk_name()))?;
        let (redo_io, redo) = match redo_path {
            Some(p) => {
                let (io, rel) = mounts.route(p)?;
                let h = io.create_path(env, &rel)?;
                let open = OpenFile { io, handle: h };
                let log = RedoLog::new(h);
                (Some(open), Some(log))
            }
            None => (None, None),
        };
        let cache_blocks = ((spec.memory_bytes as f64 * cfg.guest_cache_fraction) as u64
            / cfg.guest_block as u64)
            .max(1) as usize;
        Ok(VmMonitor {
            spec,
            cfg,
            vmx,
            vmss,
            vmdk,
            redo_io,
            state: Shared::new(VmState {
                guest_cache: LruMap::new(cache_blocks),
                redo,
                stats: VmStats::default(),
                resumed: false,
            }),
        })
    }

    /// Image parameters.
    pub fn spec(&self) -> &VmImageSpec {
        &self.spec
    }

    /// Counter snapshot.
    pub fn stats(&self) -> VmStats {
        self.state.lock().stats
    }

    /// Whether `resume` has completed.
    pub fn is_resumed(&self) -> bool {
        self.state.lock().resumed
    }

    /// Resume the VM: read the config, read the **whole** memory state
    /// file, restore devices. Returns the memory bytes read.
    pub fn resume(&self, env: &Env) -> IoResult<u64> {
        // Config: one small read.
        let vmx_size = self.vmx.io.getattr(env, self.vmx.handle)?.size;
        let _cfg_bytes =
            self.vmx
                .io
                .read(env, self.vmx.handle, 0, vmx_size.min(64 * 1024) as u32)?;
        // Memory state: sequential full-file read, like VMware resuming a
        // suspended VM.
        let mem_size = self.vmss.io.getattr(env, self.vmss.handle)?.size;
        let mut off = 0u64;
        let mut total = 0u64;
        while off < mem_size {
            let want = (self.cfg.resume_chunk as u64).min(mem_size - off) as u32;
            let data = self.vmss.io.read(env, self.vmss.handle, off, want)?;
            if data.is_empty() {
                return Err(IoError::Io("short memory state read".into()));
            }
            total += data.len() as u64;
            off += data.len() as u64;
        }
        self.vmss.io.close(env, self.vmss.handle)?;
        env.sleep(self.cfg.device_cpu);
        let mut st = self.state.lock();
        st.stats.host_bytes_read += total;
        st.resumed = true;
        Ok(total)
    }

    /// Execute a guest trace against the virtual disk.
    pub fn run(&self, env: &Env, ops: &[GuestOp]) -> IoResult<()> {
        for op in ops {
            match *op {
                GuestOp::Compute(d) => env.sleep(d),
                GuestOp::DiskRead { offset, len } => self.guest_read(env, offset, len)?,
                GuestOp::DiskWrite { offset, len } => self.guest_write(env, offset, len)?,
            }
        }
        Ok(())
    }

    fn guest_blocks(&self, offset: u64, len: u32) -> (u64, u64) {
        let gb = self.cfg.guest_block as u64;
        let first = offset / gb;
        let last = if len == 0 {
            first
        } else {
            (offset + len as u64 - 1) / gb
        };
        (first, last)
    }

    fn guest_read(&self, env: &Env, offset: u64, len: u32) -> IoResult<()> {
        let (first, last) = self.guest_blocks(offset, len);
        let gb = self.cfg.guest_block as u64;
        // Partition into cache hits and host runs of consecutive misses.
        let mut miss_runs: Vec<(u64, u64)> = Vec::new(); // (first, last) inclusive
        {
            let mut st = self.state.lock();
            st.stats.guest_reads += 1;
            for b in first..=last {
                if st.guest_cache.get(&b).is_some() {
                    st.stats.guest_cache_hits += 1;
                } else {
                    st.stats.guest_cache_misses += 1;
                    st.guest_cache.insert(b, ());
                    match miss_runs.last_mut() {
                        Some((_, l)) if *l + 1 == b => *l = b,
                        _ => miss_runs.push((b, b)),
                    }
                }
            }
        }
        for b in first..=last {
            let _ = b;
            env.sleep(self.cfg.guest_hit_cost);
        }
        for (f, l) in miss_runs {
            let off = f * gb;
            let want = ((l - f + 1) * gb) as u32;
            // Take the redo log out of the state so no lock is held while
            // the simulated I/O blocks in virtual time.
            let redo_opt = { self.state.lock().redo.take() };
            let result = match &redo_opt {
                Some(redo) => {
                    let redo_io = self.redo_io.as_ref().expect("redo io present");
                    redo.read(
                        env,
                        &*redo_io.io,
                        &*self.vmdk.io,
                        self.vmdk.handle,
                        off,
                        want,
                    )
                }
                None => self.vmdk.io.read(env, self.vmdk.handle, off, want),
            };
            {
                let mut st = self.state.lock();
                if let Some(r) = redo_opt {
                    st.redo = Some(r);
                }
                let data = result?;
                st.stats.host_bytes_read += data.len() as u64;
            }
        }
        Ok(())
    }

    fn guest_write(&self, env: &Env, offset: u64, len: u32) -> IoResult<()> {
        let (first, last) = self.guest_blocks(offset, len);
        {
            let mut st = self.state.lock();
            st.stats.guest_writes += 1;
            for b in first..=last {
                st.guest_cache.insert(b, ());
            }
        }
        let data = guest_payload(offset, len);
        let redo_opt = { self.state.lock().redo.take() };
        match redo_opt {
            Some(mut redo) => {
                let redo_io = self.redo_io.as_ref().expect("redo io present");
                let result = redo.write(env, &*redo_io.io, offset, &data);
                let mut st = self.state.lock();
                st.redo = Some(redo);
                result?;
                st.stats.host_bytes_written += data.len() as u64;
            }
            None => {
                let n = data.len() as u64;
                let data = Payload::from(data);
                self.vmdk.io.write(env, self.vmdk.handle, offset, &data)?;
                self.state.lock().stats.host_bytes_written += n;
            }
        }
        Ok(())
    }

    /// Suspend: write the memory image back to the `.vmss` file (whole
    /// file, zero pages included, like VMware), then flush it.
    pub fn suspend(&self, env: &Env) -> IoResult<u64> {
        env.sleep(self.cfg.device_cpu);
        let mem = self.spec.memory_bytes;
        let chunk = self.cfg.resume_chunk as u64;
        let nonzero_every = (1.0 / self.spec.mem_nonzero_fraction.max(0.01)) as u64;
        let mut off = 0u64;
        while off < mem {
            let n = chunk.min(mem - off);
            // Mostly-zero content with periodic dirty pages.
            let mut data = vec![0u8; n as usize];
            let mut p = 0u64;
            while p < n {
                if ((off + p) / 4096).is_multiple_of(nonzero_every) {
                    let end = (p + 4096).min(n);
                    for (i, byte) in data[p as usize..end as usize].iter_mut().enumerate() {
                        *byte = ((off + p) as usize + i) as u8 | 1;
                    }
                }
                p += 4096;
            }
            let data = Payload::from(data);
            self.vmss.io.write(env, self.vmss.handle, off, &data)?;
            off += n;
        }
        self.vmss.io.close(env, self.vmss.handle)?;
        let mut st = self.state.lock();
        st.stats.host_bytes_written += mem;
        st.resumed = false;
        Ok(mem)
    }

    /// Periodic guest sync: the guest OS flushes its filesystem every few
    /// seconds (ext2 bdflush), which a hosted VMM turns into host-level
    /// flushes of the virtual disk. Benchmark drivers call this at phase
    /// boundaries so write costs land in the phase that produced them.
    pub fn sync_disk(&self, env: &Env) -> IoResult<()> {
        if let Some(redo_io) = &self.redo_io {
            redo_io.io.close(env, redo_io.handle)?;
        }
        self.vmdk.io.close(env, self.vmdk.handle)?;
        Ok(())
    }

    /// Flush guest state at the end of a session (closes the disk).
    pub fn shutdown(&self, env: &Env) -> IoResult<()> {
        if let Some(redo_io) = &self.redo_io {
            redo_io.io.close(env, redo_io.handle)?;
        }
        self.vmdk.io.close(env, self.vmdk.handle)?;
        Ok(())
    }

    /// Bytes appended to the redo log so far (non-persistent mode).
    pub fn redo_bytes(&self) -> Option<u64> {
        self.state.lock().redo.as_ref().map(|r| r.log_bytes())
    }
}

/// Deterministic page-ish payload of a guest write, so caches/codecs see
/// real bytes: byte `i` is `(offset + i) % 251`, laid down a cycle at a
/// time instead of divided out per byte.
fn guest_payload(offset: u64, len: u32) -> Vec<u8> {
    const CYCLE: [u8; 251] = {
        let mut cycle = [0u8; 251];
        let mut i = 0;
        while i < cycle.len() {
            cycle[i] = i as u8;
            i += 1;
        }
        cycle
    };
    let mut data = Vec::with_capacity(len as usize);
    let mut phase = (offset % 251) as usize;
    while data.len() < len as usize {
        let take = (CYCLE.len() - phase).min(len as usize - data.len());
        data.extend_from_slice(&CYCLE[phase..phase + take]);
        phase = 0;
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{install_image, VmImageSpec};
    use simnet::Simulation;
    use std::rc::Rc;
    use vfs::{Disk, DiskModel, FileIo, LocalIo, LocalIoConfig};

    #[test]
    fn guest_payload_is_the_offset_modulo_251_across_wraps() {
        for offset in [0, 1, 250, 251, 4096, u64::MAX - 600] {
            let want: Vec<u8> = (0..600).map(|i| ((offset + i) % 251) as u8).collect();
            assert_eq!(guest_payload(offset, 600), want, "offset {offset}");
        }
        assert!(guest_payload(7, 0).is_empty());
    }

    fn spec() -> VmImageSpec {
        VmImageSpec {
            name: "vm".into(),
            memory_bytes: 4 << 20,
            disk_bytes: 32 << 20,
            mem_nonzero_fraction: 0.1,
            disk_used_fraction: 0.2,
            seed: 7,
        }
    }

    fn host(sim: &Simulation) -> (Rc<LocalIo>, MountTable) {
        let local = LocalIo::new(
            Disk::new(&sim.handle(), DiskModel::scsi_2004()),
            LocalIoConfig::default(),
            0,
        );
        local.with_fs(|fs| {
            let root = fs.root();
            let dir = fs.mkdir(root, "vm", 0o755, 0).unwrap();
            install_image(fs, dir, &spec()).unwrap();
        });
        let table = MountTable::new().mount("/", local.clone());
        (local, table)
    }

    #[test]
    fn resume_reads_entire_memory_state() {
        let sim = Simulation::new();
        let (_local, table) = host(&sim);
        sim.spawn("t", move |env| {
            let vm =
                VmMonitor::attach(&env, &table, "/vm", spec(), VmConfig::default(), None).unwrap();
            let read = vm.resume(&env).unwrap();
            assert_eq!(read, 4 << 20);
            assert!(vm.is_resumed());
            // Device restore CPU is included.
            assert!(env.now().as_secs_f64() >= 2.0);
        });
        sim.run();
    }

    #[test]
    fn guest_rereads_hit_guest_cache() {
        let sim = Simulation::new();
        let (_local, table) = host(&sim);
        sim.spawn("t", move |env| {
            let vm =
                VmMonitor::attach(&env, &table, "/vm", spec(), VmConfig::default(), None).unwrap();
            let ops = vec![
                GuestOp::DiskRead {
                    offset: 0,
                    len: 64 * 1024,
                },
                GuestOp::DiskRead {
                    offset: 0,
                    len: 64 * 1024,
                },
            ];
            vm.run(&env, &ops).unwrap();
            let st = vm.stats();
            assert_eq!(st.guest_reads, 2);
            assert_eq!(st.guest_cache_hits, 16); // second pass: 16 x 4K blocks
            assert_eq!(st.guest_cache_misses, 16);
            assert_eq!(st.host_bytes_read, 64 * 1024);
        });
        sim.run();
    }

    #[test]
    fn nonpersistent_writes_go_to_redo_not_vmdk() {
        let sim = Simulation::new();
        let (local, table) = host(&sim);
        sim.spawn("t", move |env| {
            let vm = VmMonitor::attach(
                &env,
                &table,
                "/vm",
                spec(),
                VmConfig::default(),
                Some("/vm/clone.REDO"),
            )
            .unwrap();
            let vmdk_before = {
                let h = local.lookup_path(&env, "vm/vm.vmdk").unwrap();
                local.read(&env, h, 1 << 20, 4096).unwrap()
            };
            vm.run(
                &env,
                &[GuestOp::DiskWrite {
                    offset: 1 << 20,
                    len: 4096,
                }],
            )
            .unwrap();
            // Base vmdk unchanged; redo log grew.
            let vmdk_after = {
                let h = local.lookup_path(&env, "vm/vm.vmdk").unwrap();
                local.read(&env, h, 1 << 20, 4096).unwrap()
            };
            assert_eq!(vmdk_before, vmdk_after);
            assert_eq!(vm.redo_bytes(), Some(4096 + 12));
            // Read-back sees the redo data.
            vm.run(
                &env,
                &[GuestOp::DiskRead {
                    offset: 1 << 20,
                    len: 4096,
                }],
            )
            .unwrap();
        });
        sim.run();
    }

    #[test]
    fn suspend_writes_memory_size_bytes() {
        let sim = Simulation::new();
        let (local, table) = host(&sim);
        sim.spawn("t", move |env| {
            let vm =
                VmMonitor::attach(&env, &table, "/vm", spec(), VmConfig::default(), None).unwrap();
            vm.resume(&env).unwrap();
            let written = vm.suspend(&env).unwrap();
            assert_eq!(written, 4 << 20);
            assert!(!vm.is_resumed());
            let h = local.lookup_path(&env, "vm/vm.vmss").unwrap();
            assert_eq!(local.getattr(&env, h).unwrap().size, 4 << 20);
        });
        sim.run();
    }
}
