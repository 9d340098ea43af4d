//! The shared driver behind the on/off ablation binaries
//! (`dedup_ablation`, `cow_ablation`): run every probe with the knob off
//! and on, print the lanes side by side, write the JSON report, and hold
//! every off-lane timing bit-for-bit (`f64::to_bits`) against the
//! committed `reports/<knob>_off_baseline.txt` — the executable proof
//! that the knob's `off()` still reproduces the data paths from before
//! the knob existed. `--write-baseline` regenerates that file (use only
//! when an intentional change to the off paths shifts the numbers).

use simnet::Snapshot;

use crate::report::{render_table, scenario_report, write_report, BenchCli};
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

/// What one ablation binary switches and shows.
pub struct Ablation {
    /// Binary and report name.
    pub name: &'static str,
    /// First line printed.
    pub banner: &'static str,
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
}

/// Run the ablation. `gate` sees each probe's saving in percent (on
/// against off) and says whether the binary's own bar holds; a failed
/// gate or a baseline mismatch exits nonzero, and a report that could not
/// be written comes back as the error, after both checks have run.
pub fn run(
    ab: &Ablation,
    gate: impl FnOnce(&[(&'static str, f64)]) -> bool,
) -> std::io::Result<()> {
    let cli = BenchCli::parse(ab.name);
    println!("{}\n", ab.banner);
    let (unit, measure) = ab.measure;
    let mut rows = Vec::new();
    let mut scenarios = Vec::new();
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
            scenarios.push(scenario_report(
                &label,
                res.total_virtual_secs,
                &res.snapshot,
            ));
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
    println!("{}", render_table(&header, &rows));
    let written = match &cli.json_path {
        Some(path) => write_report(path, ab.name, scenarios),
        None => Ok(()),
    };

    let baseline = format!("reports/{}_off_baseline.txt", ab.knob);
    if cli.write_baseline {
        std::fs::create_dir_all("reports")?;
        std::fs::write(&baseline, &rendered)?;
        println!("baseline: wrote {baseline}");
        return written;
    }
    let mut ok = gate(&savings);
    let off = ab.off;
    match std::fs::read_to_string(&baseline) {
        Ok(committed) if committed == rendered => {
            println!("baseline: {off} matches {baseline} bit-for-bit");
        }
        Ok(committed) => {
            eprintln!(
                "baseline MISMATCH: {off} no longer reproduces the committed numbers.\n\
                 --- committed\n{committed}--- measured\n{rendered}\
                 If the change to the {}-off paths is intentional, rerun with \
                 --write-baseline and commit the result.",
                ab.knob
            );
            ok = false;
        }
        Err(e) => {
            eprintln!("baseline: cannot read {baseline} ({e}); run with --write-baseline first");
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
    written
}
