//! VM image construction.
//!
//! A hosted VM's state lives in ordinary files — that is the property the
//! whole paper rests on ("so long as the monitor allows for state to be
//! stored in file systems that can be mounted via NFS"):
//!
//! * `<name>.vmx`  — small text configuration,
//! * `<name>.vmss` — suspended memory state (RAM-sized, mostly zero
//!   pages after boot),
//! * `<name>.vmdk` — plain-mode virtual disk (full-size file, sparsely
//!   used by the guest filesystem).
//!
//! Generators here produce deterministic, realistic content: memory
//! images with a nonzero kernel/application region plus scattered dirty
//! pages, and virtual disks with clustered guest data. Determinism makes
//! every figure reproducible bit-for-bit.

use vfs::{Fs, FsResult, Handle};

/// Parameters of a VM image.
#[derive(Debug, Clone)]
pub struct VmImageSpec {
    /// Base name for the three state files.
    pub name: String,
    /// Virtual RAM size (`.vmss` size).
    pub memory_bytes: u64,
    /// Virtual disk size (`.vmdk` size; plain mode = full size).
    pub disk_bytes: u64,
    /// Fraction of memory pages that are non-zero. The paper measures a
    /// post-boot 512 MB RedHat 7.3 image at 60,452 / 65,750 zero reads,
    /// i.e. ~8% non-zero.
    pub mem_nonzero_fraction: f64,
    /// Fraction of the virtual disk holding guest data.
    pub disk_used_fraction: f64,
    /// RNG seed for content placement.
    pub seed: u64,
}

impl VmImageSpec {
    /// The cloning-experiment image: 320 MB RAM, 1.6 GB disk.
    pub fn clone_benchmark(name: &str) -> Self {
        VmImageSpec {
            name: name.to_string(),
            memory_bytes: 320 << 20,
            disk_bytes: 1_600 << 20,
            // Cloning images are application-configured (services started,
            // tools loaded), denser than a bare post-boot image.
            mem_nonzero_fraction: 0.12,
            disk_used_fraction: 0.25,
            seed: 0x1234_5678,
        }
    }

    /// The application-execution image: 512 MB RAM, 2 GB disk
    /// (RedHat 7.3 plus benchmarks and datasets).
    pub fn app_benchmark(name: &str) -> Self {
        VmImageSpec {
            name: name.to_string(),
            memory_bytes: 512 << 20,
            disk_bytes: 2_048 << 20,
            mem_nonzero_fraction: 0.08,
            disk_used_fraction: 0.30,
            seed: 0x8765_4321,
        }
    }

    /// File names.
    pub fn vmx_name(&self) -> String {
        format!("{}.vmx", self.name)
    }
    /// Memory state file name.
    pub fn vmss_name(&self) -> String {
        format!("{}.vmss", self.name)
    }
    /// Virtual disk file name.
    pub fn vmdk_name(&self) -> String {
        format!("{}.vmdk", self.name)
    }
}

/// Handles of an installed image.
#[derive(Debug, Clone, Copy)]
pub struct InstalledImage {
    /// Config file handle.
    pub vmx: Handle,
    /// Memory state handle.
    pub vmss: Handle,
    /// Virtual disk handle.
    pub vmdk: Handle,
}

/// Page granularity for memory content placement.
pub const PAGE: u64 = 4096;

/// Deterministic per-image PRNG (xorshift64*).
pub struct Prng(u64);

impl Prng {
    /// Seeded PRNG.
    pub fn new(seed: u64) -> Self {
        Prng(seed | 1)
    }

    /// Next pseudo-random u64.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

fn page_payload(rng: &mut Prng, len: usize) -> Vec<u8> {
    // Realistic page content: runs of repeated bytes (heap/stack patterns)
    // mixed with less compressible words — so the codec sees GZIP-like
    // structure rather than pure noise or pure zeros.
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let r = rng.next_u64();
        if r.is_multiple_of(4) {
            let run = (32 + (r >> 8) % 224) as usize;
            let b = (r >> 32) as u8;
            out.resize(out.len() + run.min(len - out.len()), b);
        } else {
            let n = (16 + (r >> 8) % 48).min((len - out.len()) as u64);
            let mut x = r;
            out.extend((0..n).map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            }));
        }
    }
    out
}

/// Install the three state files of `spec` into directory `dir` of `fs`.
/// Runs at scenario-setup time (no simulation cost).
pub fn install_image(fs: &mut Fs, dir: Handle, spec: &VmImageSpec) -> FsResult<InstalledImage> {
    let mut rng = Prng::new(spec.seed);

    // .vmx: a small key=value config.
    let vmx = fs.create(dir, &spec.vmx_name(), 0o644, 0)?;
    let config = format!(
        "config.version = \"8\"\nvirtualHW.version = \"3\"\nmemsize = \"{}\"\n\
         scsi0:0.fileName = \"{}\"\ndisplayName = \"{}\"\nguestOS = \"linux\"\n\
         checkpoint.vmState = \"{}\"\n",
        spec.memory_bytes >> 20,
        spec.vmdk_name(),
        spec.name,
        spec.vmss_name(),
    );
    fs.write(vmx, 0, config.as_bytes(), 0)?;

    // .vmss: device header + kernel region + scattered dirty pages.
    let vmss = fs.create(dir, &spec.vmss_name(), 0o644, 0)?;
    fs.setattr(vmss, Some(spec.memory_bytes), None, 0)?;
    let header = page_payload(&mut rng, 64 * 1024);
    fs.write(vmss, 0, &header, 0)?;
    let total_pages = spec.memory_bytes / PAGE;
    let nonzero_pages = ((total_pages as f64) * spec.mem_nonzero_fraction) as u64;
    // Two-thirds contiguous (kernel, libraries, daemons) from the bottom;
    // one-third scattered (page-allocator churn).
    let contiguous = nonzero_pages * 2 / 3;
    for p in 0..contiguous {
        let payload = page_payload(&mut rng, PAGE as usize);
        fs.write(vmss, 64 * 1024 + p * PAGE, &payload, 0)?;
    }
    // Scattered dirty pages come in 64 KB clusters (16 pages): buddy
    // allocation and slab locality make isolated dirty pages rare, and
    // clustering keeps sparse storage proportional to real content.
    let cluster_pages = 16u64;
    let clusters = (nonzero_pages - contiguous) / cluster_pages;
    for _ in 0..clusters {
        let p = rng.below(total_pages.saturating_sub(cluster_pages).max(1));
        let payload = page_payload(&mut rng, (cluster_pages * PAGE) as usize);
        fs.write(
            vmss,
            (p * PAGE).min(spec.memory_bytes.saturating_sub(cluster_pages * PAGE)),
            &payload,
            0,
        )?;
    }

    // .vmdk: plain-mode disk. Guest data clustered into extents.
    let vmdk = fs.create(dir, &spec.vmdk_name(), 0o644, 0)?;
    fs.setattr(vmdk, Some(spec.disk_bytes), None, 0)?;
    let used_bytes = (spec.disk_bytes as f64 * spec.disk_used_fraction) as u64;
    let extent = 4 << 20; // 4 MB extents
    let mut written = 0u64;
    while written < used_bytes {
        let pos = rng.below(spec.disk_bytes / extent) * extent;
        let chunk = page_payload(&mut rng, 64 * 1024);
        // One 64 KB representative chunk per extent start: keeps setup
        // fast while making the extent non-zero for cache/codec purposes.
        fs.write(
            vmdk,
            pos.min(spec.disk_bytes - chunk.len() as u64),
            &chunk,
            0,
        )?;
        written += extent;
    }

    Ok(InstalledImage { vmx, vmss, vmdk })
}

/// Granularity of divergence between sibling images: modified state
/// (logs, service configuration, page-cache churn) clusters into a few
/// megabyte-scale regions rather than scattering page by page.
pub const DIVERGE_REGION: u64 = 2 << 20;

/// Rewrite a clustered `fraction` of `img`'s memory state with fresh
/// content so a derived image diverges from its base install.
///
/// This is the picture a grid sees when a fleet of VMs descends from
/// one golden install: hostname, logs and service state differ, the
/// bulk of RAM does not. Regions are chosen by a PRNG seeded per image,
/// so siblings diverge in different places; some regions land on
/// previously-zero memory (new dirty pages), others overwrite base
/// content. Runs at scenario-setup time (no simulation cost).
pub fn diverge_image(
    fs: &mut Fs,
    img: &InstalledImage,
    spec: &VmImageSpec,
    seed: u64,
    fraction: f64,
) -> FsResult<()> {
    if spec.memory_bytes == 0 {
        return Ok(());
    }
    let mut rng = Prng::new(seed);
    let region = DIVERGE_REGION.clamp(PAGE, spec.memory_bytes.max(PAGE));
    let regions = ((spec.memory_bytes as f64 * fraction) / region as f64).ceil() as u64;
    // Slot count must cover the partial tail region of images whose
    // length is not a region multiple: flooring here would both exempt
    // the tail from ever diverging and, for images smaller than one
    // region, round the slot count (and with it all divergence) to zero.
    let slots = spec.memory_bytes.div_ceil(region);
    for _ in 0..regions {
        let pos = rng.below(slots) * region;
        // The tail slot is short; clamp so divergence never writes past
        // (and so never extends) the image.
        let len = region.min(spec.memory_bytes - pos) as usize;
        let payload = page_payload(&mut rng, len);
        fs.write(img.vmss, pos, &payload, 0)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> VmImageSpec {
        VmImageSpec {
            name: "test".into(),
            memory_bytes: 8 << 20,
            disk_bytes: 64 << 20,
            mem_nonzero_fraction: 0.10,
            disk_used_fraction: 0.2,
            seed: 42,
        }
    }

    #[test]
    fn install_creates_three_files_with_right_sizes() {
        let mut fs = Fs::new(0);
        let root = fs.root();
        let img = install_image(&mut fs, root, &small_spec()).unwrap();
        assert_eq!(fs.size(img.vmss).unwrap(), 8 << 20);
        assert_eq!(fs.size(img.vmdk).unwrap(), 64 << 20);
        let vmx_size = fs.size(img.vmx).unwrap();
        assert!(vmx_size > 100 && vmx_size < 4096);
        assert!(fs.resolve("test.vmss").is_ok());
        assert!(fs.resolve("test.vmdk").is_ok());
        assert!(fs.resolve("test.vmx").is_ok());
    }

    #[test]
    fn memory_image_is_mostly_zero_but_not_entirely() {
        let mut fs = Fs::new(0);
        let root = fs.root();
        let img = install_image(&mut fs, root, &small_spec()).unwrap();
        let total = 8 << 20;
        let block = 32 * 1024;
        let mut zero_blocks = 0;
        for off in (0..total).step_by(block) {
            if fs.is_zero_range(img.vmss, off as u64, block).unwrap() {
                zero_blocks += 1;
            }
        }
        let nblocks = total / block;
        // ~10% nonzero pages clustered: most 32K blocks outside the
        // cluster stay zero.
        assert!(
            zero_blocks > nblocks / 2,
            "only {zero_blocks}/{nblocks} zero"
        );
        assert!(zero_blocks < nblocks, "image must not be all zero");
    }

    #[test]
    fn generation_is_deterministic() {
        let build = || {
            let mut fs = Fs::new(0);
            let root = fs.root();
            let img = install_image(&mut fs, root, &small_spec()).unwrap();
            let a = fs.read(img.vmss, 0, 1 << 20, 0).unwrap().0.to_vec();
            let b = fs.read(img.vmdk, 0, 1 << 20, 0).unwrap().0.to_vec();
            (a, b)
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn page_payload_matches_the_byte_at_a_time_generator() {
        // The generator as it pushed one byte at a time: the bytes it
        // makes are every image's contents, so they must not move.
        fn one_at_a_time(rng: &mut Prng, len: usize) -> Vec<u8> {
            let mut out = Vec::new();
            while out.len() < len {
                let r = rng.next_u64();
                if r.is_multiple_of(4) {
                    for _ in 0..(32 + (r >> 8) % 224).min((len - out.len()) as u64) {
                        out.push((r >> 32) as u8);
                    }
                } else {
                    let mut x = r;
                    for _ in 0..(16 + (r >> 8) % 48).min((len - out.len()) as u64) {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        out.push((x >> 56) as u8);
                    }
                }
            }
            out
        }
        for seed in 0..16 {
            for len in [0, 1, 31, 4096, 65536 + 7] {
                let (mut a, mut b) = (Prng::new(seed), Prng::new(seed));
                assert_eq!(page_payload(&mut a, len), one_at_a_time(&mut b, len));
                assert_eq!(a.next_u64(), b.next_u64(), "seed {seed}, len {len}");
            }
        }
    }

    #[test]
    fn diverged_sibling_shares_most_content_with_base() {
        let spec = small_spec();
        let build = |diverge: Option<u64>| {
            let mut fs = Fs::new(0);
            let root = fs.root();
            let img = install_image(&mut fs, root, &spec).unwrap();
            if let Some(seed) = diverge {
                diverge_image(&mut fs, &img, &spec, seed, 0.04).unwrap();
            }
            fs.read(img.vmss, 0, spec.memory_bytes as usize, 0)
                .unwrap()
                .0
                .to_vec()
        };
        let base = build(None);
        let sib_a = build(Some(7));
        let sib_b = build(Some(8));
        assert_ne!(base, sib_a);
        assert_ne!(sib_a, sib_b, "per-image seeds must diverge differently");
        // Compare at the region granularity: writes are region-aligned,
        // so at most `ceil(4% / region)` regions change (fewer when the
        // PRNG collides), and at least one must.
        let region = DIVERGE_REGION as usize;
        let total = base.len().div_ceil(region);
        let expected = ((base.len() as f64 * 0.04) / region as f64).ceil() as usize;
        let changed = (0..total)
            .filter(|i| {
                let lo = i * region;
                let hi = (lo + region).min(base.len());
                base[lo..hi] != sib_a[lo..hi]
            })
            .count();
        assert!(changed >= 1, "divergence must change something");
        assert!(
            changed <= expected,
            "{changed}/{total} regions changed; wrote at most {expected}"
        );
        assert!(changed < total, "most of the image must stay shared");
    }

    /// Divergence on an image whose length is not a region multiple must
    /// be able to land on the short tail slot — and clamp there rather
    /// than writing past (or extending) the image.
    #[test]
    fn divergence_reaches_the_tail_of_unaligned_images() {
        let spec = VmImageSpec {
            memory_bytes: 5 << 20, // 2.5 regions: tail slot is 1 MB short
            ..small_spec()
        };
        let tail_lo = (2 * DIVERGE_REGION) as usize;
        let mut tail_hit = false;
        for seed in 0..64 {
            let mut fs = Fs::new(0);
            let root = fs.root();
            let img = install_image(&mut fs, root, &spec).unwrap();
            let before = fs
                .read(img.vmss, 0, spec.memory_bytes as usize, 0)
                .unwrap()
                .0
                .to_vec();
            diverge_image(&mut fs, &img, &spec, seed, 1.0).unwrap();
            assert_eq!(
                fs.size(img.vmss).unwrap(),
                spec.memory_bytes,
                "seed {seed}: divergence must never extend the image"
            );
            let after = fs
                .read(img.vmss, 0, spec.memory_bytes as usize, 0)
                .unwrap()
                .0
                .to_vec();
            if before[tail_lo..] != after[tail_lo..] {
                tail_hit = true;
            }
        }
        assert!(tail_hit, "tail region must be eligible for divergence");
    }

    /// An image smaller than one divergence region still diverges: the
    /// slot count must not round down to zero.
    #[test]
    fn sub_region_image_still_diverges() {
        let spec = VmImageSpec {
            memory_bytes: 1 << 20,
            ..small_spec()
        };
        let mut fs = Fs::new(0);
        let root = fs.root();
        let img = install_image(&mut fs, root, &spec).unwrap();
        let before = fs
            .read(img.vmss, 0, spec.memory_bytes as usize, 0)
            .unwrap()
            .0
            .to_vec();
        diverge_image(&mut fs, &img, &spec, 9, 0.02).unwrap();
        assert_eq!(fs.size(img.vmss).unwrap(), spec.memory_bytes);
        let after = fs
            .read(img.vmss, 0, spec.memory_bytes as usize, 0)
            .unwrap()
            .0
            .to_vec();
        assert_ne!(before, after, "small image must still diverge");
    }

    /// Sweep awkward sizes (page-odd tails, exact multiples, sub-region)
    /// at full divergence: the file length is invariant for every seed.
    #[test]
    fn divergence_preserves_image_length_across_boundary_sizes() {
        // Sizes start above the 64 KB device header install_image lays
        // down; sub-header images are outside the installer's contract.
        for memory_bytes in [
            (1 << 20) + PAGE,
            DIVERGE_REGION,
            DIVERGE_REGION + PAGE,
            (5 << 20) + 3 * PAGE,
            8 << 20,
        ] {
            let spec = VmImageSpec {
                memory_bytes,
                ..small_spec()
            };
            let mut fs = Fs::new(0);
            let root = fs.root();
            let img = install_image(&mut fs, root, &spec).unwrap();
            for seed in 0..8 {
                diverge_image(&mut fs, &img, &spec, seed, 1.0).unwrap();
            }
            assert_eq!(
                fs.size(img.vmss).unwrap(),
                memory_bytes,
                "{memory_bytes}-byte image changed length under divergence"
            );
        }
    }

    #[test]
    fn vmx_mentions_state_files() {
        let mut fs = Fs::new(0);
        let root = fs.root();
        let img = install_image(&mut fs, root, &small_spec()).unwrap();
        let size = fs.size(img.vmx).unwrap();
        let bytes = fs.read(img.vmx, 0, size as usize, 0).unwrap().0.to_vec();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("test.vmdk"));
        assert!(text.contains("test.vmss"));
        assert!(text.contains("memsize = \"8\""));
    }
}
