//! Dedup ablation — the CI guard for content-addressed redundancy
//! elimination (DESIGN.md §5.5): the channel ablation (one WAN-S1
//! cloning) and reduced-scale Fig 6 WAN-S2 / WAN-S3 probes with dedup on
//! and off, timings and `dedup.*` counters side by side, and every
//! `DedupTuning::off()` timing bit-for-bit against
//! `reports/dedup_off_baseline.txt` (driver and flags:
//! [`gvfs_bench::ablation`]).

use gvfs::{CowTuning, DedupTuning};
use gvfs_bench::ablation::{run, Ablation, Probe};
use gvfs_bench::{CloneParams, CloneScenario};

/// Large enough that the recipe, blob and LAN-share paths all carry real
/// traffic.
const PROBES: &[Probe] = &[
    Probe {
        name: "channel-s1x1",
        scenario: CloneScenario::WanS1,
        clones: 1,
        image_scale: 4,
    },
    Probe {
        name: "fig6-s2",
        scenario: CloneScenario::WanS2,
        clones: 4,
        image_scale: 8,
    },
    Probe {
        name: "fig6-s3",
        scenario: CloneScenario::WanS3,
        clones: 4,
        image_scale: 8,
    },
];

fn params(p: &Probe, on: bool) -> CloneParams {
    CloneParams {
        clones: p.clones,
        image_scale: Some(p.image_scale),
        dedup: if on {
            DedupTuning::default()
        } else {
            DedupTuning::off()
        },
        // This ablation isolates dedup; CoW cloning has its own
        // (cow_ablation), which holds dedup fixed instead.
        cow: CowTuning::off(),
        ..CloneParams::default()
    }
}

fn main() -> std::io::Result<()> {
    let ablation = Ablation {
        name: "dedup_ablation",
        banner: "Dedup ablation: content-addressed redundancy elimination on/off",
        knob: "dedup",
        off: "DedupTuning::off()",
        probes: PROBES,
        params,
        measure: ("(s)", |res| res.total_virtual_secs),
        extra: &[
            ("avoided MiB", |snap| {
                let avoided = snap.counter_sum("gvfs", ".dedup.bytes_avoided");
                format!("{:.1}", avoided as f64 / (1 << 20) as f64)
            }),
            ("acked skips", |snap| {
                snap.counter_sum("gvfs", ".dedup.acked_skips").to_string()
            }),
        ],
    };
    run(&ablation, |_| true)
}
