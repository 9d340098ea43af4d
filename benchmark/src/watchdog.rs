//! Run a process under a wall-clock deadline. A child that is still
//! alive at its deadline is sampled (where are its threads parked?),
//! killed and reaped, so a lost wakeup in the engine ends as a counted,
//! diagnosed failure and never as a stuck benchmark.

use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use crate::procfs::{self, ThreadSample};

/// How a watched process ended.
#[derive(Debug)]
pub enum Exit {
    /// It exited by itself.
    Finished(ExitStatus),
    /// It was killed at its deadline; the sample was taken just before.
    TimedOut(ThreadSample),
    /// It could not be started.
    SpawnFailed(std::io::Error),
}

/// How often the parent looks at the child. The parent sleeps in
/// between, so it costs the measured core nothing.
const POLL: Duration = Duration::from_millis(10);

/// Spawn `cmd` (stdout discarded, stderr inherited) and wait for it for
/// at most `deadline`. The process is always reaped before this returns.
pub fn run(mut cmd: Command, deadline: Duration) -> Exit {
    let start = Instant::now();
    let mut child = match cmd.stdin(Stdio::null()).stdout(Stdio::null()).spawn() {
        Ok(c) => c,
        Err(e) => return Exit::SpawnFailed(e),
    };
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Exit::Finished(status),
            Ok(None) if start.elapsed() < deadline => std::thread::sleep(POLL),
            Ok(None) => {
                let sample = procfs::sample_threads(child.id());
                // Kill can only fail if the child exited in between;
                // either way it is reaped below.
                let _ = child.kill();
                let _ = child.wait();
                return Exit::TimedOut(sample);
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Exit::SpawnFailed(e);
            }
        }
    }
}

/// `program args...`, run on CPU `cpu` alone when one is given. `taskset`
/// replaces itself with the program, so the watched pid is the program's.
pub fn command(program: &std::path::Path, args: &[String], cpu: Option<u32>) -> Command {
    match cpu {
        Some(cpu) => {
            let mut c = Command::new("taskset");
            c.arg("-c").arg(cpu.to_string()).arg(program).args(args);
            c
        }
        None => {
            let mut c = Command::new(program);
            c.args(args);
            c
        }
    }
}

/// Whether `taskset` can be run here.
pub fn taskset_available() -> bool {
    Command::new("taskset")
        .arg("--version")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_child_that_sleeps_forever_is_killed_sampled_and_reaped() {
        let mut cmd = Command::new("sleep");
        cmd.arg("1000000");
        let start = Instant::now();
        let Exit::TimedOut(sample) = run(cmd, Duration::from_millis(150)) else {
            panic!("a sleeping child must time out");
        };
        assert!(start.elapsed() < Duration::from_secs(30));
        assert_eq!(sample.threads, 1);
        assert_eq!(sample.wchan.iter().map(|(_, n)| n).sum::<u64>(), 1);
    }

    #[test]
    fn a_child_that_exits_reports_its_status() {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "exit 7"]);
        match run(cmd, Duration::from_secs(60)) {
            Exit::Finished(status) => assert_eq!(status.code(), Some(7)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_missing_program_is_a_spawn_failure() {
        let cmd = Command::new("/nonexistent/benchmark-child");
        assert!(matches!(
            run(cmd, Duration::from_secs(1)),
            Exit::SpawnFailed(_)
        ));
    }

    #[test]
    fn pinning_wraps_the_program_in_taskset() {
        let exe = std::path::Path::new("/bin/prog");
        let args = ["child".to_string(), "x".to_string()];
        let pinned = command(exe, &args, Some(3));
        assert_eq!(pinned.get_program(), "taskset");
        let got: Vec<_> = pinned.get_args().map(|a| a.to_str().unwrap()).collect();
        assert_eq!(got, ["-c", "3", "/bin/prog", "child", "x"]);
        let unpinned = command(exe, &args, None);
        assert_eq!(unpinned.get_program(), "/bin/prog");
    }
}
