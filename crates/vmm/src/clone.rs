//! VM cloning (paper §3.2.3 and §4.3).
//!
//! "The cloning scheme ... includes copying the VM configuration file,
//! copying the VM memory state file, building symbolic links to the
//! virtual disk files, configuring the cloned VM, and at last resume the
//! new VM."
//!
//! The memory-state copy reads through the GVFS mount — which is where
//! zero maps, the compressed file channel and the proxy disk caches pay
//! off — and writes to the compute server's local disk. The virtual disk
//! is *not* copied: a local symlink points into the mount, and guest
//! accesses fault blocks over on demand.

use simnet::{Env, SimDuration, SimTime};
use vfs::{IoResult, MountTable, Payload};

use crate::image::VmImageSpec;
use crate::monitor::{VmConfig, VmMonitor};

/// Cloning knobs.
#[derive(Debug, Clone, Copy)]
pub struct CloneConfig {
    /// Chunk size for the memory-state copy.
    pub copy_chunk: u32,
    /// CPU time for configuring the clone (edit config, set identity).
    pub configure_cpu: SimDuration,
    /// Monitor configuration for the resumed clone.
    pub vm: VmConfig,
    /// Copy-on-write memory state: symlink the `.vmss` into the mount
    /// (like the `.vmdk`) instead of materializing a local byte copy, so
    /// resume reads stream through GVFS where the proxy's golden-snapshot
    /// reference cache serves them. Only sound for non-persistent clones:
    /// resume merely *reads* the memory state, and a clone that never
    /// suspends never writes it back through the link.
    pub cow_memory: bool,
}

impl Default for CloneConfig {
    fn default() -> Self {
        CloneConfig {
            copy_chunk: 1 << 20,
            configure_cpu: SimDuration::from_millis(3000),
            vm: VmConfig::default(),
            cow_memory: false,
        }
    }
}

/// Per-step wall-clock (virtual) durations of one cloning.
#[derive(Debug, Clone, Copy, Default)]
pub struct CloneTimes {
    /// Copying the `.vmx`.
    pub copy_config: SimDuration,
    /// Copying the `.vmss` (the dominant step).
    pub copy_memory: SimDuration,
    /// Building the `.vmdk` symlink.
    pub links: SimDuration,
    /// Configuring the clone.
    pub configure: SimDuration,
    /// Resuming (reads the local memory copy, restores devices).
    pub resume: SimDuration,
    /// End-to-end.
    pub total: SimDuration,
}

fn copy_file(env: &Env, mounts: &MountTable, src: &str, dst: &str, chunk: u32) -> IoResult<u64> {
    let from = mounts.open(env, src)?;
    let (dst_io, dst_rel) = mounts.route(dst)?;
    let to = dst_io.create_path(env, &dst_rel)?;
    let size = from.io.getattr(env, from.handle)?.size;
    let mut off = 0u64;
    while off < size {
        let want = (chunk as u64).min(size - off) as u32;
        let data = from.io.read(env, from.handle, off, want)?;
        if data.is_empty() {
            break;
        }
        dst_io.write(env, to, off, &data)?;
        off += data.len() as u64;
    }
    from.io.close(env, from.handle)?;
    dst_io.close(env, to)?;
    Ok(off)
}

/// Clone the golden image `spec` from `golden_dir` (a path on the GVFS
/// mount, as seen in the host namespace — e.g. `/mnt/gvfs/images`) into
/// the local directory `clone_dir`, then resume it. Returns the per-step
/// times and the running monitor (non-persistent: redo log in
/// `clone_dir`).
pub fn clone_vm(
    env: &Env,
    mounts: &MountTable,
    golden_dir: &str,
    spec: &VmImageSpec,
    clone_dir: &str,
    cfg: CloneConfig,
) -> IoResult<(CloneTimes, VmMonitor)> {
    let mut times = CloneTimes::default();
    let t0: SimTime = env.now();

    // Clone directory on the local filesystem.
    let (local_io, clone_rel) = mounts.route(clone_dir)?;
    if local_io.lookup_path(env, &clone_rel).is_err() {
        local_io.mkdir_path(env, &clone_rel)?;
    }

    // 1. Copy the VM configuration file.
    let t = env.now();
    copy_file(
        env,
        mounts,
        &format!("{golden_dir}/{}", spec.vmx_name()),
        &format!("{clone_dir}/{}", spec.vmx_name()),
        cfg.copy_chunk,
    )?;
    times.copy_config = env.now() - t;

    // 2. Memory state. Default: copy through GVFS (zero maps / file
    //    channel / proxy caches all apply on the mount side) into a
    //    local file. CoW: symlink into the mount instead — the resume
    //    step reads through the link, served by the proxy's reference
    //    cache, and no local materialization cost is paid up front.
    let t = env.now();
    if cfg.cow_memory {
        local_io.symlink_path(
            env,
            &format!("{clone_rel}/{}", spec.vmss_name()),
            &format!("{golden_dir}/{}", spec.vmss_name()),
        )?;
    } else {
        copy_file(
            env,
            mounts,
            &format!("{golden_dir}/{}", spec.vmss_name()),
            &format!("{clone_dir}/{}", spec.vmss_name()),
            cfg.copy_chunk,
        )?;
    }
    times.copy_memory = env.now() - t;

    // 3. Symbolic link to the virtual disk on the image server mount.
    let t = env.now();
    local_io.symlink_path(
        env,
        &format!("{clone_rel}/{}", spec.vmdk_name()),
        &format!("{golden_dir}/{}", spec.vmdk_name()),
    )?;
    times.links = env.now() - t;

    // 4. Configure the clone (hostname, identity, devices).
    let t = env.now();
    let vmx_path = format!("{clone_rel}/{}", spec.vmx_name());
    let vmx = local_io.lookup_path(env, &vmx_path)?;
    let patch = format!(
        "displayName = \"{}-clone\"\nuuid.action = \"create\"\n",
        spec.name
    );
    let size = local_io.getattr(env, vmx)?.size;
    local_io.write(env, vmx, size, &Payload::from(patch.into_bytes()))?;
    local_io.close(env, vmx)?;
    env.sleep(cfg.configure_cpu);
    times.configure = env.now() - t;

    // 5. Resume from the local memory copy; disk reads go through the
    //    symlink to the mount, with guest writes in a local redo log.
    let t = env.now();
    let redo_path = format!("{clone_dir}/{}.REDO", spec.name);
    let vm = VmMonitor::attach(
        env,
        mounts,
        clone_dir,
        spec.clone(),
        cfg.vm,
        Some(&redo_path),
    )?;
    vm.resume(env)?;
    times.resume = env.now() - t;

    times.total = env.now() - t0;
    Ok((times, vm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::install_image;
    use crate::monitor::GuestOp;
    use simnet::Simulation;
    use std::rc::Rc;
    use vfs::{Disk, DiskModel, FileIo, LocalIo, LocalIoConfig};

    fn spec() -> VmImageSpec {
        VmImageSpec {
            name: "golden".into(),
            memory_bytes: 4 << 20,
            disk_bytes: 32 << 20,
            mem_nonzero_fraction: 0.1,
            disk_used_fraction: 0.2,
            seed: 11,
        }
    }

    /// Both "image server" and compute server on local disks — exercises
    /// the mechanics; the WAN behaviour is covered by the bench crate.
    fn hosts(sim: &Simulation) -> (Rc<LocalIo>, Rc<LocalIo>, MountTable) {
        let local = LocalIo::new(
            Disk::new(&sim.handle(), DiskModel::scsi_2004()),
            LocalIoConfig::default(),
            0,
        );
        let images = LocalIo::new(
            Disk::new(&sim.handle(), DiskModel::server_array()),
            LocalIoConfig::default(),
            0,
        );
        images.with_fs(|fs| {
            let root = fs.root();
            let dir = fs.mkdir(root, "images", 0o755, 0).unwrap();
            install_image(fs, dir, &spec()).unwrap();
        });
        let table = MountTable::new()
            .mount("/", local.clone())
            .mount("/mnt/gvfs", images.clone());
        (local, images, table)
    }

    #[test]
    fn clone_produces_runnable_vm_with_symlinked_disk() {
        let sim = Simulation::new();
        let (local, _images, table) = hosts(&sim);
        sim.spawn("cloner", move |env| {
            let (times, vm) = clone_vm(
                &env,
                &table,
                "/mnt/gvfs/images",
                &spec(),
                "/clone1",
                CloneConfig::default(),
            )
            .unwrap();
            assert!(vm.is_resumed());
            // Memory copy dominates config copy.
            assert!(times.copy_memory > times.copy_config);
            assert!(times.total.as_secs_f64() > 0.0);
            // The local dir holds vmx + vmss + symlink + redo.
            let mut names = local.readdir_path(&env, "clone1").unwrap();
            names.sort();
            assert_eq!(
                names,
                vec!["golden.REDO", "golden.vmdk", "golden.vmss", "golden.vmx"]
            );
            // The vmdk is a symlink into the mount.
            let lh = local.lookup_path(&env, "clone1/golden.vmdk").unwrap();
            assert_eq!(
                local.readlink(&env, lh).unwrap(),
                "/mnt/gvfs/images/golden.vmdk"
            );
            // Guest I/O works: reads come from the golden disk, writes go
            // to the redo log.
            vm.run(
                &env,
                &[
                    GuestOp::DiskRead {
                        offset: 0,
                        len: 8192,
                    },
                    GuestOp::DiskWrite {
                        offset: 4096,
                        len: 4096,
                    },
                    GuestOp::DiskRead {
                        offset: 4096,
                        len: 4096,
                    },
                ],
            )
            .unwrap();
            assert!(vm.redo_bytes().unwrap() > 0);
        });
        sim.run();
    }

    #[test]
    fn golden_image_is_never_mutated_by_clone_execution() {
        let sim = Simulation::new();
        let (_local, images, table) = hosts(&sim);
        let before: Vec<u8> = images.with_fs(|fs| {
            let h = fs.resolve("images/golden.vmdk").unwrap();
            fs.read(h, 0, 1 << 20, 0).unwrap().0.to_vec()
        });
        let images2 = images.clone();
        sim.spawn("cloner", move |env| {
            let (_, vm) = clone_vm(
                &env,
                &table,
                "/mnt/gvfs/images",
                &spec(),
                "/c",
                CloneConfig::default(),
            )
            .unwrap();
            vm.run(
                &env,
                &[GuestOp::DiskWrite {
                    offset: 0,
                    len: 64 * 1024,
                }],
            )
            .unwrap();
            let after: Vec<u8> = images2.with_fs(|fs| {
                let h = fs.resolve("images/golden.vmdk").unwrap();
                fs.read(h, 0, 1 << 20, 0).unwrap().0.to_vec()
            });
            assert_eq!(before, after, "golden vmdk must stay pristine");
        });
        sim.run();
    }

    /// CoW memory mode: the `.vmss` is a symlink into the mount, resume
    /// still works (reads stream through GVFS), and the golden memory
    /// state stays pristine.
    #[test]
    fn cow_clone_symlinks_memory_state_and_resumes() {
        let sim = Simulation::new();
        let (local, images, table) = hosts(&sim);
        let before: Vec<u8> = images.with_fs(|fs| {
            let h = fs.resolve("images/golden.vmss").unwrap();
            fs.read(h, 0, 1 << 20, 0).unwrap().0.to_vec()
        });
        let images2 = images.clone();
        sim.spawn("cloner", move |env| {
            let (times, vm) = clone_vm(
                &env,
                &table,
                "/mnt/gvfs/images",
                &spec(),
                "/cow1",
                CloneConfig {
                    cow_memory: true,
                    ..CloneConfig::default()
                },
            )
            .unwrap();
            assert!(vm.is_resumed());
            let lh = local.lookup_path(&env, "cow1/golden.vmss").unwrap();
            assert_eq!(
                local.readlink(&env, lh).unwrap(),
                "/mnt/gvfs/images/golden.vmss"
            );
            // No local materialization: the link step is (near) free and
            // the read cost moves into resume.
            assert!(times.copy_memory < times.resume);
            let after: Vec<u8> = images2.with_fs(|fs| {
                let h = fs.resolve("images/golden.vmss").unwrap();
                fs.read(h, 0, 1 << 20, 0).unwrap().0.to_vec()
            });
            assert_eq!(before, after, "golden vmss must stay pristine");
        });
        sim.run();
    }

    /// CoW and copy clones expose bit-identical memory state: the local
    /// byte copy and the symlink both resolve to the same guest-visible
    /// `.vmss` contents, and both resumes read the full image.
    #[test]
    fn cow_clone_restores_same_memory_as_copy_clone() {
        let sim = Simulation::new();
        let (_local, _images, table) = hosts(&sim);
        sim.spawn("cloner", move |env| {
            let run = |dir: &str, cow_memory: bool| {
                let (_, vm) = clone_vm(
                    &env,
                    &table,
                    "/mnt/gvfs/images",
                    &spec(),
                    dir,
                    CloneConfig {
                        cow_memory,
                        ..CloneConfig::default()
                    },
                )
                .unwrap();
                assert_eq!(vm.stats().host_bytes_read, spec().memory_bytes);
                let f = table
                    .open(&env, &format!("{dir}/{}", spec().vmss_name()))
                    .unwrap();
                let size = f.io.getattr(&env, f.handle).unwrap().size;
                let mut bytes = Vec::with_capacity(size as usize);
                let mut off = 0u64;
                while off < size {
                    let want = (1u64 << 20).min(size - off) as u32;
                    let data = f.io.read(&env, f.handle, off, want).unwrap();
                    off += data.len() as u64;
                    bytes.extend_from_slice(&data.to_vec());
                }
                bytes
            };
            assert_eq!(run("/a", false), run("/b", true));
        });
        sim.run();
    }

    #[test]
    fn second_clone_into_new_dir_works() {
        let sim = Simulation::new();
        let (_local, _images, table) = hosts(&sim);
        sim.spawn("cloner", move |env| {
            for i in 0..2 {
                let (_, vm) = clone_vm(
                    &env,
                    &table,
                    "/mnt/gvfs/images",
                    &spec(),
                    &format!("/clone{i}"),
                    CloneConfig::default(),
                )
                .unwrap();
                assert!(vm.is_resumed());
            }
        });
        sim.run();
    }
}
