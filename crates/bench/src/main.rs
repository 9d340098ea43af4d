//! `gvfs-bench <scenario>|all [flags]`: runs one scenario of the suite
//! (or every one), writes its report to `reports/<name>.json`, prints
//! its tables and its checked rows as a markdown table, and exits 1
//! naming every row that failed — after running every chosen scenario.
//! A usage error exits 2. `gvfs-bench --help` lists the scenarios.

use std::process::ExitCode;

use gvfs_bench::report::{render_checks, write_report};
use gvfs_bench::suite::{usage, BenchCli};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let cli = match BenchCli::parse(args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("gvfs-bench: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut failed = Vec::new();
    for scn in &cli.scenarios {
        eprintln!("gvfs-bench: running {}...", scn.name);
        let out = match (scn.run)(&cli) {
            Ok(out) => out,
            Err(e) => {
                failed.push(format!("{}: {e}", scn.name));
                continue;
            }
        };
        if let Some(path) = cli.report_path(scn.name) {
            if let Err(e) = write_report(&path, scn.name, out.scenarios) {
                failed.push(format!("{}: {e}", scn.name));
            }
        }
        println!("## {}: {}\n\n{}", scn.name, scn.title, out.text);
        if !out.checks.is_empty() {
            println!("{}", render_checks(&out.checks));
        }
        let failures = out.checks.iter().filter(|c| !c.passed());
        failed.extend(failures.map(|c| format!("{}: {}", scn.name, c.name)));
    }
    if failed.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("gvfs-bench: {} failed:", failed.len());
    for f in &failed {
        eprintln!("  {f}");
    }
    ExitCode::FAILURE
}
