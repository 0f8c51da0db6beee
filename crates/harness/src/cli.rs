//! Command-line parsing for the `olaccel-repro` binary, split out of the
//! binary so it is unit-testable.
//!
//! The parser is strict where silence used to hide mistakes: a flag that
//! takes a value (`--out`, `--jobs`, `--cache-dir`, `--socket`) rejects a
//! flag-looking operand instead of consuming it. The historical parser
//! pre-scanned for `--fast` anywhere in the argument list, so
//! `olaccel-repro fig14 --out --fast` *both* enabled fast mode *and*
//! wrote reports into a directory literally named `--fast`; now `--fast`
//! is an ordinary flag and that spelling is a usage error.

use std::path::PathBuf;

/// The `--help` text.
pub const USAGE: &str = "\
olaccel-repro [EXPERIMENT]... [--fast] [--jobs N] [--out DIR] [--cache-dir DIR]
olaccel-repro serve --socket PATH [--fast] [--jobs N] [--out DIR] [--cache-dir DIR]
olaccel-repro request --socket PATH <PROTOCOL LINE>...

EXPERIMENT  fig1 fig2 fig3 table1 fig11 fig12 fig13 fig14 fig15 fig16
            fig17 fig18 fig19 validate summary sensitivity policy-panel
            validate-<network> extra-resnet101 extra-densenet121
            compare-<network> all (default)
--fast      reduced spatial scale / training budget (CI-friendly)
--jobs N    worker threads (default: available parallelism; 1 = serial).
            The budget is shared between concurrent experiments and the
            per-forward compute kernels; output is byte-identical at any N.
--out DIR   additionally write each report to DIR/<experiment>.txt
--cache-dir DIR
            persistent artifact store: workload sets, fig16's
            static-threshold counts, per-layer simulation results,
            accuracy-eval records, fig3's weight-SQNR surrogates and the
            trained SynthNet are written there on first build and loaded
            on later runs, skipping synthesis, forward and extraction
            and, when warm, the model and eval phases and SynthNet
            training entirely. Files are
            DIR/<prefix>-<key>-v<version>.olas, prefixes ws, static,
            simrun, simev, eval, wsqnr and synthnet. Artifacts are
            content-addressed by their inputs plus a per-kind code
            version fingerprint, so a stale or corrupt store never
            changes results — it only misses, with a stderr warning.

serve       run as a daemon on a Unix socket. Protocol: one request per
            line — `run <experiment> [--fast|--full] [--jobs N]`, `stats`,
            `ping`, `shutdown`. Identical in-flight requests coalesce onto
            one computation. SIGINT/SIGTERM (or `shutdown`) drains
            in-flight work and removes the socket.
request     send one protocol line to a running daemon; the response
            header goes to stderr, the report payload to stdout.
--help      print this help";

/// Options shared by a one-shot run and a daemon (`serve`) session.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Reduced spatial scale / training budget.
    pub fast: bool,
    /// Worker threads (`None` = available parallelism).
    pub jobs: Option<usize>,
    /// Directory to additionally write each report into.
    pub out_dir: Option<PathBuf>,
    /// Directory of the persistent artifact store (`None` = disk tier off).
    pub cache_dir: Option<PathBuf>,
}

/// A parsed invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// Print usage and exit.
    Help,
    /// Run experiments once and exit (the historical mode).
    Run {
        /// Experiment names as given (empty = the full suite).
        names: Vec<String>,
        /// Shared options.
        options: RunOptions,
    },
    /// Serve experiment requests over a Unix socket until shut down.
    Serve {
        /// Socket path to bind.
        socket: PathBuf,
        /// Shared options (per-request lines can override `fast`/`jobs`).
        options: RunOptions,
    },
    /// Send one protocol line to a running server and print the response.
    Request {
        /// Socket path of the server.
        socket: PathBuf,
        /// The protocol line, e.g. `run fig14 --fast`.
        line: String,
    },
}

/// Resolves the experiment list a `Run` command asked for: an empty list
/// or an explicit `all` means the full suite.
pub fn resolve_names(names: &[String]) -> Vec<&str> {
    if names.is_empty() || names.iter().any(|n| n == "all") {
        crate::EXPERIMENTS.to_vec()
    } else {
        names.iter().map(String::as_str).collect()
    }
}

/// Reads the value operand of a flag, rejecting a missing or flag-looking
/// one (so `--out --fast` is an error, not a directory named `--fast`).
fn value_of<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a String>,
) -> Result<&'a String, String> {
    match it.next() {
        None => Err(format!("{flag} needs a value")),
        Some(v) if v.starts_with('-') => {
            Err(format!("{flag} needs a value, got flag-like operand {v:?}"))
        }
        Some(v) => Ok(v),
    }
}

/// Parses a `--jobs` count: a positive integer. Shared with the daemon's
/// `run` request line.
pub(crate) fn parse_jobs(v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err("--jobs needs a positive integer".to_string()),
    }
}

impl RunOptions {
    /// Applies `flag` if it is one of the options `run` and `serve` share,
    /// taking its value from `it` when it has one. Returns whether `flag`
    /// was a shared option.
    fn read_flag<'a>(
        &mut self,
        flag: &str,
        it: &mut impl Iterator<Item = &'a String>,
    ) -> Result<bool, String> {
        match flag {
            "--fast" => self.fast = true,
            "--out" => self.out_dir = Some(PathBuf::from(value_of("--out", it)?)),
            "--cache-dir" => self.cache_dir = Some(PathBuf::from(value_of("--cache-dir", it)?)),
            "--jobs" => self.jobs = Some(parse_jobs(value_of("--jobs", it)?)?),
            _ => match flag.strip_prefix("--jobs=") {
                Some(v) => self.jobs = Some(parse_jobs(v)?),
                None => return Ok(false),
            },
        }
        Ok(true)
    }
}

/// Parses an argument list (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        Some("serve") => parse_serve(&args[1..]),
        Some("request") => parse_request(&args[1..]),
        _ => parse_run(args),
    }
}

fn parse_run(args: &[String]) -> Result<Command, String> {
    let mut options = RunOptions::default();
    let mut names = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if options.read_flag(a, &mut it)? {
            continue;
        }
        match a.as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            a if a.starts_with('-') => return Err(format!("unknown flag {a}")),
            _ => names.push(a.clone()),
        }
    }
    // Duplicate names are allowed on purpose: running the same experiment
    // twice is how the determinism tests exercise the cache. Internal
    // fault-injection hooks are not reachable from the command line.
    if let Some(bad) = names
        .iter()
        .find(|n| n.starts_with("__") || !crate::engine::is_known_experiment(n) && *n != "all")
    {
        return Err(format!(
            "unknown experiment {bad}; known: {}",
            crate::EXPERIMENTS.join(" ")
        ));
    }
    Ok(Command::Run { names, options })
}

fn parse_serve(args: &[String]) -> Result<Command, String> {
    let mut options = RunOptions::default();
    let mut socket = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if options.read_flag(a, &mut it)? {
            continue;
        }
        match a.as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            "--socket" => socket = Some(PathBuf::from(value_of("--socket", &mut it)?)),
            a => return Err(format!("serve does not accept {a}")),
        }
    }
    let socket = socket.ok_or("serve needs --socket PATH")?;
    Ok(Command::Serve { socket, options })
}

fn parse_request(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().peekable();
    let mut socket = None;
    // `--socket` leads; everything after it is the protocol line, verbatim
    // (the line's own `--fast`-style words belong to the server).
    while let Some(a) = it.peek() {
        match a.as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            "--socket" => {
                it.next();
                socket = Some(PathBuf::from(value_of("--socket", &mut it)?));
            }
            _ => break,
        }
    }
    let socket = socket.ok_or("request needs --socket PATH")?;
    let words: Vec<&str> = it.map(String::as_str).collect();
    if words.is_empty() {
        return Err("request needs a protocol line, e.g. `run fig14`".to_string());
    }
    Ok(Command::Request {
        socket,
        line: words.join(" "),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_names_every_experiment() {
        let words: Vec<&str> = USAGE.split_whitespace().collect();
        for name in crate::EXPERIMENTS {
            assert!(words.contains(name), "--help omits {name}");
        }
    }

    /// `--help` names every record kind's prefix, and the kinds stay
    /// distinct: the store keys each kind's version by its tag, and the
    /// retired tag 1 and prefix `prep` stay unused.
    #[test]
    fn usage_names_every_store_prefix() {
        use crate::prep::StaticThresholdCounts;
        use ola_nn::synthnet::TrainedSynthNet;
        use ola_quant::accuracy::{QuantAccuracy, WeightSqnr};
        use ola_sim::{EventRecord, LayerRun, WorkloadSet};
        use ola_store::Record;
        fn kind<R: Record>() -> (u8, &'static str) {
            (R::KIND, R::PREFIX)
        }
        let kinds = [
            kind::<WorkloadSet>(),
            kind::<StaticThresholdCounts>(),
            kind::<LayerRun>(),
            kind::<EventRecord>(),
            kind::<QuantAccuracy>(),
            kind::<WeightSqnr>(),
            kind::<TrainedSynthNet>(),
        ];
        let words: Vec<&str> = USAGE
            .split(|c: char| c.is_whitespace() || c == ',' || c == '.')
            .collect();
        for (i, &(tag, prefix)) in kinds.iter().enumerate() {
            assert!(words.contains(&prefix), "--help omits prefix {prefix}");
            assert_ne!(tag, 1, "{prefix} reuses the retired tag 1");
            assert_ne!(prefix, "prep", "tag {tag} reuses the retired prefix");
            for &(other_tag, other_prefix) in &kinds[i + 1..] {
                assert_ne!(tag, other_tag, "{prefix} and {other_prefix} share a tag");
                assert_ne!(
                    prefix, other_prefix,
                    "tags {tag} and {other_tag} share a prefix"
                );
            }
        }
        assert!(!words.contains(&"prep"), "--help names the retired prefix");
    }

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn plain_run_with_flags() {
        let cmd = parse(&s(&["fig14", "--fast", "--jobs", "3", "--out", "reports"])).unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                names: vec!["fig14".to_string()],
                options: RunOptions {
                    fast: true,
                    jobs: Some(3),
                    out_dir: Some(PathBuf::from("reports")),
                    cache_dir: None,
                },
            }
        );
    }

    #[test]
    fn flag_like_operand_after_out_is_rejected() {
        // The historical bug: this spelling silently enabled fast mode AND
        // created a directory named `--fast`.
        let err = parse(&s(&["fig14", "--out", "--fast"])).unwrap_err();
        assert!(err.contains("--out needs a value"), "got: {err}");
        let err = parse(&s(&["fig14", "--cache-dir", "--jobs"])).unwrap_err();
        assert!(err.contains("--cache-dir needs a value"), "got: {err}");
        let err = parse(&s(&["fig14", "--jobs", "--fast"])).unwrap_err();
        assert!(err.contains("--jobs needs a value"), "got: {err}");
    }

    #[test]
    fn fast_is_order_sensitive_like_any_flag() {
        let cmd = parse(&s(&["--fast", "fig14"])).unwrap();
        match cmd {
            Command::Run { options, .. } => assert!(options.fast),
            other => panic!("expected run, got {other:?}"),
        }
        // Without --fast anywhere, fast stays off.
        match parse(&s(&["fig14"])).unwrap() {
            Command::Run { options, .. } => assert!(!options.fast),
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn zero_jobs_rejected_in_both_spellings() {
        assert!(parse(&s(&["fig14", "--jobs", "0"]))
            .unwrap_err()
            .contains("positive integer"));
        assert!(parse(&s(&["fig14", "--jobs=0"]))
            .unwrap_err()
            .contains("positive integer"));
        assert!(parse(&s(&["fig14", "--jobs=boats"]))
            .unwrap_err()
            .contains("positive integer"));
    }

    #[test]
    fn unknown_names_and_flags_rejected() {
        assert!(parse(&s(&["fig99"]))
            .unwrap_err()
            .contains("unknown experiment"));
        assert!(parse(&s(&["--frobnicate"]))
            .unwrap_err()
            .contains("unknown flag"));
        // The fault-injection hook is not reachable from the CLI.
        assert!(parse(&s(&["__panic"]))
            .unwrap_err()
            .contains("unknown experiment"));
        // A `compare-`/`validate-` suffix must name a zoo network.
        for name in ["compare-nosuch", "validate-nosuch"] {
            let err = parse(&s(&[name, "--fast"])).unwrap_err();
            assert!(err.contains("unknown experiment"), "{name}: {err}");
        }
        assert!(parse(&s(&["compare-vgg16", "validate-resnet18"])).is_ok());
    }

    #[test]
    fn duplicate_names_are_allowed() {
        match parse(&s(&["table1", "table1"])).unwrap() {
            Command::Run { names, .. } => assert_eq!(names, vec!["table1", "table1"]),
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn all_and_empty_resolve_to_the_suite() {
        assert_eq!(resolve_names(&[]), crate::EXPERIMENTS.to_vec());
        assert_eq!(
            resolve_names(&["all".to_string()]),
            crate::EXPERIMENTS.to_vec()
        );
        assert_eq!(resolve_names(&["fig14".to_string()]), vec!["fig14"]);
    }

    #[test]
    fn serve_parses_and_requires_socket() {
        let cmd = parse(&s(&[
            "serve",
            "--socket",
            "/tmp/ola.sock",
            "--fast",
            "--cache-dir",
            "cache",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                socket: PathBuf::from("/tmp/ola.sock"),
                options: RunOptions {
                    fast: true,
                    jobs: None,
                    out_dir: None,
                    cache_dir: Some(PathBuf::from("cache")),
                },
            }
        );
        assert!(parse(&s(&["serve"])).unwrap_err().contains("--socket"));
        assert!(parse(&s(&["serve", "--socket", "--fast"]))
            .unwrap_err()
            .contains("--socket needs a value"));
    }

    #[test]
    fn request_collects_the_protocol_line_verbatim() {
        let cmd = parse(&s(&[
            "request",
            "--socket",
            "/tmp/ola.sock",
            "run",
            "fig14",
            "--fast",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Request {
                socket: PathBuf::from("/tmp/ola.sock"),
                line: "run fig14 --fast".to_string(),
            }
        );
        assert!(parse(&s(&["request", "--socket", "/tmp/x"]))
            .unwrap_err()
            .contains("protocol line"));
    }
}
