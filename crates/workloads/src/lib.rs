//! # workloads — guest benchmark traces for the GVFS evaluation
//!
//! Deterministic generators for the three application benchmarks of the
//! paper's §4.2 plus the SCP full-copy baseline of §4.3:
//!
//! * [`specseis`] — SPECseis96 (SPEC HPC): phase 1 generates a large
//!   trace file; phases 2–4 process it, phase 4 compute-dominated.
//! * [`latex`] — an interactive document-processing session: 20
//!   iterations of `latex` + `bibtex` + `dvipdf` over a 190-page
//!   document, one input patched per iteration.
//! * [`kernel`] — Linux 2.4.18 compilation: `make dep`, `make bzImage`,
//!   `make modules`, `make modules_install` over thousands of small
//!   files.
//! * [`scp`] — the full-file-copy baseline (GSI-enabled SCP) used to
//!   contrast against on-demand GVFS transfers.
//!
//! Traces are sequences of [`vmm::GuestOp`] against the VM's virtual
//! disk, organised into named [`Phase`]s so the benchmark harness can
//! report per-phase times exactly like the paper's figures. All
//! generators are deterministic: same parameters → same trace.

#![warn(missing_docs)]

pub mod kernel;
pub mod latex;
pub mod scp;
pub mod specseis;

use vmm::GuestOp;

/// A named group of guest operations (one bar segment in the figures).
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase name as the paper reports it.
    pub name: String,
    /// The operations of this phase.
    pub ops: Vec<GuestOp>,
}

/// A complete benchmark: ordered phases.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name.
    pub name: String,
    /// Ordered phases.
    pub phases: Vec<Phase>,
}

impl Workload {
    /// Total guest bytes read across all phases.
    pub fn bytes_read(&self) -> u64 {
        self.ops()
            .filter_map(|op| match op {
                GuestOp::DiskRead { len, .. } => Some(*len as u64),
                _ => None,
            })
            .sum()
    }

    /// Total guest bytes written across all phases.
    pub fn bytes_written(&self) -> u64 {
        self.ops()
            .filter_map(|op| match op {
                GuestOp::DiskWrite { len, .. } => Some(*len as u64),
                _ => None,
            })
            .sum()
    }

    fn ops(&self) -> impl Iterator<Item = &GuestOp> {
        self.phases.iter().flat_map(|p| p.ops.iter())
    }
}

/// Deterministic trace-generation PRNG (re-exported convenience).
pub use vmm::Prng;

/// Helper: a cluster of sequential guest reads starting at `offset`
/// (`count` × `block` bytes). One guest read call per `span` blocks, so
/// the kernel NFS client below sees multi-block reads it can pipeline.
pub(crate) fn sequential_reads(
    ops: &mut Vec<GuestOp>,
    offset: u64,
    count: u64,
    block: u32,
    span: u64,
) {
    let mut i = 0;
    while i < count {
        let n = span.min(count - i);
        ops.push(GuestOp::DiskRead {
            offset: offset + i * block as u64,
            len: (n * block as u64) as u32,
        });
        i += n;
    }
}

/// Helper: scattered single-block reads across a region (small-file
/// access: each read is its own host request, paying a WAN RTT when
/// uncached).
pub(crate) fn scattered_reads(
    ops: &mut Vec<GuestOp>,
    rng: &mut Prng,
    region_start: u64,
    region_len: u64,
    count: u64,
    block: u32,
) {
    let blocks_in_region = (region_len / block as u64).max(1);
    for _ in 0..count {
        let b = rng.below(blocks_in_region);
        ops.push(GuestOp::DiskRead {
            offset: region_start + b * block as u64,
            len: block,
        });
    }
}

/// Helper: sequential writes (file creation / large output).
pub(crate) fn sequential_writes(
    ops: &mut Vec<GuestOp>,
    offset: u64,
    count: u64,
    block: u32,
    span: u64,
) {
    let mut i = 0;
    while i < count {
        let n = span.min(count - i);
        ops.push(GuestOp::DiskWrite {
            offset: offset + i * block as u64,
            len: (n * block as u64) as u32,
        });
        i += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimDuration;

    #[test]
    fn workload_accounting_sums_ops() {
        let wl = Workload {
            name: "t".into(),
            phases: vec![Phase {
                name: "p".into(),
                ops: vec![
                    GuestOp::DiskRead {
                        offset: 0,
                        len: 100,
                    },
                    GuestOp::DiskWrite { offset: 0, len: 50 },
                    GuestOp::Compute(SimDuration::from_secs(2)),
                    GuestOp::Compute(SimDuration::from_secs(3)),
                ],
            }],
        };
        assert_eq!(wl.bytes_read(), 100);
        assert_eq!(wl.bytes_written(), 50);
    }

    #[test]
    fn helpers_generate_expected_spans() {
        let mut ops = Vec::new();
        sequential_reads(&mut ops, 0, 10, 4096, 4);
        assert_eq!(ops.len(), 3); // 4 + 4 + 2
        match ops[2] {
            GuestOp::DiskRead { offset, len } => {
                assert_eq!(offset, 8 * 4096);
                assert_eq!(len, 2 * 4096);
            }
            _ => panic!(),
        }
        let mut w = Vec::new();
        sequential_writes(&mut w, 100, 3, 512, 10);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn scattered_reads_stay_in_region() {
        let mut rng = Prng::new(5);
        let mut ops = Vec::new();
        scattered_reads(&mut ops, &mut rng, 1 << 20, 1 << 20, 100, 4096);
        for op in &ops {
            match op {
                GuestOp::DiskRead { offset, len } => {
                    assert!(*offset >= 1 << 20);
                    assert!(offset + *len as u64 <= 2 << 20);
                }
                _ => panic!(),
            }
        }
    }
}
