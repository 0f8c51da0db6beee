//! CLI entry point for regenerating the paper's tables and figures.
//!
//! Three modes: a one-shot run (the historical mode), a long-lived daemon
//! (`serve`) answering experiment requests over a Unix socket, and a thin
//! client (`request`) that sends one protocol line to a daemon. Parsing
//! lives in [`ola_harness::cli`]; the daemon in [`ola_harness::server`].
//!
//! Experiments run concurrently on a work queue; reports stream to stdout
//! in the order requested and are byte-identical at any `--jobs` value
//! (preparation is seeded and shared through a process-wide cache, with an
//! optional persistent disk tier behind `--cache-dir`). The run summary —
//! per-experiment wall time, phase breakdown, and cache hit/miss counters
//! — goes to stderr so stdout stays stable enough to diff.

use ola_harness::cli::{self, Command, USAGE};
use std::fs;
use std::process::exit;

/// Prints `msg` and the synopsis lines that open [`USAGE`], then exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    for (i, line) in USAGE.lines().take_while(|l| !l.is_empty()).enumerate() {
        eprintln!("{}{line}", if i == 0 { "usage: " } else { "       " });
    }
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(&args) {
        Err(msg) => usage_error(&msg),
        Ok(Command::Help) => println!("{USAGE}"),
        Ok(Command::Run { names, options }) => {
            if let Some(dir) = &options.cache_dir {
                if let Err(e) = ola_harness::prep::attach_disk_store(dir) {
                    usage_error(&format!("cannot open --cache-dir {}: {e}", dir.display()));
                }
            }
            if let Some(dir) = &options.out_dir {
                fs::create_dir_all(dir).expect("create output directory");
            }
            let names = cli::resolve_names(&names);
            let jobs = options.jobs.unwrap_or_else(ola_tensor::par::default_jobs);
            let out_dir = options.out_dir.clone();
            let result = ola_harness::engine::run_suite(&names, options.fast, jobs, |outcome| {
                if let Ok(report) = &outcome.report {
                    println!("{report}");
                    if let Some(dir) = &out_dir {
                        fs::write(dir.join(format!("{}.txt", outcome.name)), report)
                            .expect("write report");
                    }
                }
            });
            eprint!("{}", result.summary());
        }
        Ok(Command::Serve { socket, options }) => {
            match ola_harness::server::serve(&socket, &options) {
                Ok(summary) => eprintln!(
                    "served {} request(s), {} coalesced",
                    summary.requests, summary.coalesced
                ),
                Err(e) => {
                    eprintln!("error: {e}");
                    exit(1);
                }
            }
        }
        Ok(Command::Request { socket, line }) => {
            if let Err(msg) = ola_harness::server::request(&socket, &line) {
                eprintln!("error: {msg}");
                exit(1);
            }
        }
    }
}
