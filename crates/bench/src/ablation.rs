//! The on/off ablations (`dedup_ablation`, `cow_ablation`): run every
//! probe with the knob off and on, print the lanes side by side, and hold
//! every off-lane timing bit-for-bit (`f64::to_bits`) against the
//! committed `reports/<knob>_off_baseline.txt` — the executable proof
//! that the knob's `off()` still reproduces the data paths from before
//! the knob existed. `--write-baseline` regenerates that file (use only
//! when an intentional change to the off paths shifts the numbers).

use std::io;

use gvfs::{CowTuning, DedupTuning};
use simnet::{SimDuration, Snapshot};

use crate::report::{render_table, scenario_report, Bound, Check};
use crate::suite::{BenchCli, Flag, Outcome};
use crate::{run_cloning, CloneParams, CloneResult, CloneScenario};

/// One reduced-scale cloning probe: small enough for CI, large enough
/// that the paths under ablation all carry real traffic.
pub struct Probe {
    /// Row label (and baseline key).
    pub name: &'static str,
    /// The cloning scenario it runs.
    pub scenario: CloneScenario,
    /// Clonings per lane.
    pub clones: usize,
    /// Image-size divisor.
    pub image_scale: u64,
}

/// A table column read off a lane's snapshot: `(title, cell)`.
pub type Column = (&'static str, fn(&Snapshot) -> String);

/// What one ablation switches and shows.
pub struct Ablation {
    /// Suite row and report name.
    pub name: &'static str,
    /// The knob, as scenario labels and the baseline file spell it.
    pub knob: &'static str,
    /// The knob's disabling constructor, for messages.
    pub off: &'static str,
    /// The probes, in table order.
    pub probes: &'static [Probe],
    /// Parameters of one lane of a probe (`true` = knob on).
    pub params: fn(&Probe, bool) -> CloneParams,
    /// The seconds the two lanes are compared on, and its column unit.
    pub measure: (&'static str, fn(&CloneResult) -> f64),
    /// Further columns, read off the on lane's snapshot.
    pub extra: &'static [Column],
    /// A saving one probe must beat, in percent, and why:
    /// `(probe, percent, why)`.
    pub bar: Option<(&'static str, f64, &'static str)>,
}

impl Ablation {
    /// The committed off-lane baseline.
    pub fn baseline(&self) -> String {
        format!("reports/{}_off_baseline.txt", self.knob)
    }
}

/// The dedup ablation (DESIGN.md §5.5): the channel ablation (one WAN-S1
/// cloning) and reduced-scale Fig 6 WAN-S2 / WAN-S3 probes, timings and
/// `dedup.*` counters side by side.
pub const DEDUP: Ablation = Ablation {
    name: "dedup_ablation",
    knob: "dedup",
    off: "DedupTuning::off()",
    // Large enough that the recipe, blob and LAN-share paths all carry
    // real traffic.
    probes: &[
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
    ],
    params: |p, on| CloneParams {
        clones: p.clones,
        image_scale: Some(p.image_scale),
        dedup: if on {
            DedupTuning::default()
        } else {
            DedupTuning::off()
        },
        // This ablation isolates dedup; the CoW one holds dedup fixed
        // instead.
        cow: CowTuning::off(),
        ..CloneParams::default()
    },
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
    bar: None,
};

/// The CoW ablation (DESIGN.md §5.9): reduced-scale cloning probes
/// (WAN-S1 warm repeat, Fig 6 WAN-S2 / WAN-S3) with reference cloning on
/// and off — dedup on in *both* lanes, so the comparison isolates the
/// reference-file install path from the CAS itself.
pub const COW: Ablation = Ablation {
    name: "cow_ablation",
    knob: "cow",
    off: "CowTuning::off()",
    // Large enough that the reference-install, CoW-break and
    // diverged-flush paths all carry real traffic. S1's repeats are the
    // warmest case (same image over and over); S2's sibling images share
    // all but ~4% of their content, so later clones install as
    // near-complete recipes; S3 adds the LAN second-level proxy in front.
    probes: &[
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
    ],
    params: |p, on| {
        // VMM CPU terms scale with the image (as in the fleet scenario):
        // at 1/8 size an unscaled 9 s compute floor would bury the data
        // path this ablation measures.
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
    },
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
    bar: Some((
        "fig6-s2",
        40.0,
        "the warm-site bar: sibling images install as near-complete recipes",
    )),
};

/// Both ablations, each a suite row with its own baseline file.
pub const ALL: [&Ablation; 2] = [&DEDUP, &COW];

/// Run the ablation: the report, the side-by-side table, the bar's row
/// and the baseline row (or, with `--write-baseline`, a new baseline).
pub fn run(ab: &Ablation, cli: &BenchCli) -> io::Result<Outcome> {
    let (unit, measure) = ab.measure;
    let mut out = Outcome::default();
    let mut rows = Vec::new();
    let mut savings = Vec::new();
    let mut rendered = String::new();
    for p in ab.probes {
        let lane = |on: bool| {
            let params = CloneParams {
                trace: cli.trace,
                ..(ab.params)(p, on)
            };
            run_cloning(p.scenario, &params)
        };
        let (off, on) = (lane(false), lane(true));
        for (res, state) in [(&off, "off"), (&on, "on")] {
            let label = format!("{} {}={state}", p.name, ab.knob);
            let report = scenario_report(&label, res.total_virtual_secs, &res.snapshot);
            out.scenarios.push(report);
        }
        rendered.push_str(&format!(
            "{} {:016x}\n",
            p.name,
            off.total_virtual_secs.to_bits()
        ));
        let (off_secs, on_secs) = (measure(&off), measure(&on));
        let saving = (1.0 - on_secs / off_secs) * 100.0;
        savings.push((p.name, saving));
        let mut row = vec![
            p.name.to_string(),
            format!("{off_secs:.3}"),
            format!("{on_secs:.3}"),
            format!("{saving:.1}%"),
        ];
        row.extend(ab.extra.iter().map(|(_, cell)| cell(&on.snapshot)));
        rows.push(row);
    }
    let mut header = vec![
        "Probe".to_string(),
        format!("off {unit}"),
        format!("on {unit}"),
        "saved".to_string(),
    ];
    header.extend(ab.extra.iter().map(|(title, _)| title.to_string()));
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    out.text = render_table(&header, &rows);

    if let Some((probe, min, why)) = ab.bar {
        let saving = savings.iter().find(|(name, _)| *name == probe);
        out.checks.push(Check {
            name: format!("{probe}: saving with {} on", ab.knob),
            paper: "contract",
            value: saving.map_or(f64::NAN, |(_, pct)| *pct),
            unit: "%",
            bound: Bound::Above(min),
            why,
        });
    }
    let baseline = ab.baseline();
    if cli.has(Flag::WriteBaseline) {
        std::fs::create_dir_all("reports")?;
        std::fs::write(&baseline, &rendered)?;
        out.text.push_str(&format!("baseline: wrote {baseline}\n"));
        return Ok(out);
    }
    // Probes whose off-lane timing no longer matches, bit for bit; NaN
    // when there is no baseline to compare against.
    let differ = match std::fs::read_to_string(&baseline) {
        Ok(committed) => {
            let (was, now) = (committed.lines(), rendered.lines());
            let lines = was.clone().count().abs_diff(now.clone().count());
            let differ = lines + was.zip(now).filter(|(a, b)| a != b).count();
            if differ > 0 {
                eprintln!("--- {baseline}\n{committed}--- measured\n{rendered}");
            }
            differ as f64
        }
        Err(e) => {
            eprintln!("cannot read {baseline} ({e}); run with --write-baseline first");
            f64::NAN
        }
    };
    out.checks.push(Check {
        name: format!("{} timings vs {baseline}", ab.off),
        paper: "contract",
        value: differ,
        unit: "differ",
        bound: Bound::Below(1.0),
        why: "off() reproduces the data paths from before the knob, bit for bit; \
              rerun with --write-baseline only for an intended change",
    });
    Ok(out)
}
