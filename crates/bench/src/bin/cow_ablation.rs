//! CoW ablation — the CI guard for copy-on-write golden-snapshot
//! cloning (DESIGN.md §5.9): reduced-scale cloning probes (WAN-S1 warm
//! repeat, Fig 6 WAN-S2 / WAN-S3) with CoW reference cloning on and off
//! — dedup on in *both* lanes, so the comparison isolates the
//! reference-file install path from the CAS itself — timings and `cow.*`
//! counters side by side, and every `CowTuning::off()` timing
//! bit-for-bit against `reports/cow_off_baseline.txt` (driver and flags:
//! [`gvfs_bench::ablation`]). On top, the warm-site contract: the Fig 6
//! S2 clone-latency sum with CoW on must be at least 40% below the
//! `CowTuning::off()` lane.

use gvfs::CowTuning;
use gvfs_bench::ablation::{run, Ablation, Probe};
use gvfs_bench::{CloneParams, CloneScenario};
use simnet::SimDuration;

/// Minimum saving CoW must buy on the Fig 6 S2 probe's clone-latency
/// sum (the warm-site acceptance bar).
const S2_MIN_SAVING_PCT: f64 = 40.0;

/// Large enough that the reference-install, CoW-break and
/// diverged-flush paths all carry real traffic. S1's repeats are the
/// warmest case (same image over and over); S2's sibling images share
/// all but ~4% of their content, so later clones install as
/// near-complete recipes; S3 adds the LAN second-level proxy in front.
const PROBES: &[Probe] = &[
    Probe {
        name: "fig6-s1",
        scenario: CloneScenario::WanS1,
        clones: 4,
        image_scale: 8,
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
    // VMM CPU terms scale with the image (as in the fleet scenario): at
    // 1/8 size an unscaled 9 s compute floor would bury the data path
    // this ablation measures.
    let scaled = |secs: u64| SimDuration::from_nanos(secs * 1_000_000_000 / p.image_scale);
    CloneParams {
        clones: p.clones,
        image_scale: Some(p.image_scale),
        device_cpu: scaled(6),
        configure_cpu: scaled(3),
        cow: if on {
            CowTuning::on()
        } else {
            CowTuning::off()
        },
        ..CloneParams::default()
    }
}

/// The warm-site bar, on the probes' savings.
fn warm_site_bar(savings: &[(&'static str, f64)]) -> bool {
    match savings.iter().find(|(name, _)| *name == "fig6-s2") {
        Some((_, saving)) if *saving >= S2_MIN_SAVING_PCT => {
            println!(
                "warm-site bar: fig6-s2 clone-latency sum {saving:.1}% lower with CoW \
                 (>= {S2_MIN_SAVING_PCT:.0}%)"
            );
            true
        }
        Some((_, saving)) => {
            eprintln!(
                "warm-site bar FAILED: fig6-s2 clone-latency sum only {saving:.1}% lower with \
                 CoW (bar: {S2_MIN_SAVING_PCT:.0}%)"
            );
            false
        }
        None => {
            eprintln!("warm-site bar FAILED: fig6-s2 probe missing");
            false
        }
    }
}

fn main() {
    let ablation = Ablation {
        name: "cow_ablation",
        banner: "CoW ablation: copy-on-write reference cloning on/off (dedup on in both lanes)",
        knob: "cow",
        off: "CowTuning::off()",
        probes: PROBES,
        params,
        // Sum of per-clone end-to-end latencies (the figure's headline).
        measure: ("Σ (s)", |res| res.total_secs()),
        extra: &[
            ("ref installs", |snap| {
                snap.counter_sum("gvfs", ".cow.ref_installs").to_string()
            }),
            ("pin-blocked", |snap| {
                snap.counter_sum("gvfs", ".cas.pin_blocked_evictions")
                    .to_string()
            }),
        ],
    };
    run(&ablation, warm_site_bar);
}
