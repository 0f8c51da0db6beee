//! Child processes with their own resource usage.
//!
//! Every measured run happens in a fresh process, and `peak_rss_mb` is the
//! peak resident memory of *that* process. The standard library reaps
//! children with `waitpid`, which discards their resource usage, so the
//! benchmark reaps them itself with `wait4` and reads `ru_maxrss` and CPU
//! time from the result.

use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How a child process ended and what it used.
#[derive(Clone, Copy, Debug)]
pub struct Exit {
    /// Exit code, or `None` when a signal killed the process.
    pub code: Option<i32>,
    /// Wall time from spawn to reap.
    pub wall: Duration,
    /// Peak resident set size, MiB.
    pub peak_rss_mb: f64,
    /// User plus system CPU time.
    pub cpu: Duration,
}

impl Exit {
    /// Whether the process exited with code 0.
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen `long`s,
/// of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

const EINTR: i32 = 4;

fn timeval(t: &Timeval) -> Duration {
    Duration::from_secs(t.tv_sec as u64) + Duration::from_micros(t.tv_usec as u64)
}

/// Runs `cmd` to completion with stdout and stderr redirected to the given
/// files, and returns its exit status and resource usage.
pub fn run(cmd: &mut Command, stdout: &Path, stderr: &Path) -> std::io::Result<Exit> {
    let out = File::create(stdout)?;
    let err = File::create(stderr)?;
    let start = Instant::now();
    let child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::from(out))
        .stderr(Stdio::from(err))
        .spawn()?;
    let pid = i32::try_from(child.id()).expect("process ids fit in pid_t");
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `pid` is our own unreaped child (the `Child` handle never
        // waits on it), and both out-pointers reference live, writable
        // locals of the exact C layout `wait4` fills on 64-bit Linux.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let e = std::io::Error::last_os_error();
        if e.raw_os_error() != Some(EINTR) {
            return Err(e);
        }
    }
    let wall = start.elapsed();
    // Decode the wait status: low 7 bits are the terminating signal (0 for
    // a normal exit), bits 8..16 the exit code.
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Exit {
        code,
        wall,
        peak_rss_mb: usage.ru_maxrss as f64 / 1024.0,
        cpu: timeval(&usage.ru_utime) + timeval(&usage.ru_stime),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_exit_codes_and_usage() {
        let dir = std::env::temp_dir().join(format!("perfbench-proc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (o, e) = (dir.join("o"), dir.join("e"));
        let ok = run(Command::new("sh").args(["-c", "echo hi"]), &o, &e).unwrap();
        assert!(ok.success());
        assert!(ok.peak_rss_mb > 0.0);
        assert_eq!(std::fs::read_to_string(&o).unwrap(), "hi\n");
        let bad = run(Command::new("sh").args(["-c", "exit 3"]), &o, &e).unwrap();
        assert_eq!(bad.code, Some(3));
        let killed = run(Command::new("sh").args(["-c", "kill -9 $$"]), &o, &e).unwrap();
        assert_eq!(killed.code, None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
