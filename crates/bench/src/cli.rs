//! Minimal argument parsing shared by the experiment binaries.

/// Configuration for one experiment run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Reduced problem sizes for smoke tests (`--quick`).
    pub quick: bool,
    /// Number of mechanism samples per configuration (`--trials N`,
    /// paper default 50).
    pub trials: usize,
    /// Master seed (`--seed N`); every run with the same seed is identical.
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            quick: false,
            trials: 50,
            seed: 20100913, // VLDB 2010 conference date
        }
    }
}

impl RunConfig {
    /// A configuration for fast smoke runs (used by integration tests).
    pub fn quick() -> Self {
        Self {
            quick: true,
            trials: 5,
            ..Self::default()
        }
    }

    /// Parses `std::env::args`-style arguments. Unknown flags abort with a
    /// usage message — experiments have no other knobs by design (change the
    /// code, rerun, diff the tables).
    pub fn from_args(args: impl Iterator<Item = String>) -> Self {
        let mut cfg = Self::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => {
                    cfg.quick = true;
                    if cfg.trials == Self::default().trials {
                        cfg.trials = 5;
                    }
                }
                "--trials" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage("--trials needs a value"));
                    cfg.trials = v
                        .parse()
                        .unwrap_or_else(|_| usage("--trials must be an integer"));
                }
                "--seed" => {
                    let v = args.next().unwrap_or_else(|| usage("--seed needs a value"));
                    cfg.seed = v
                        .parse()
                        .unwrap_or_else(|_| usage("--seed must be an integer"));
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        cfg
    }

    /// Parses the process arguments (skipping `argv[0]`).
    pub fn from_env() -> Self {
        Self::from_args(std::env::args().skip(1))
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: <experiment> [--quick] [--trials N] [--seed N]");
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> RunConfig {
        RunConfig::from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_match_paper_protocol() {
        let cfg = parse(&[]);
        assert!(!cfg.quick);
        assert_eq!(cfg.trials, 50);
    }

    #[test]
    fn quick_reduces_trials() {
        let cfg = parse(&["--quick"]);
        assert!(cfg.quick);
        assert_eq!(cfg.trials, 5);
    }

    #[test]
    fn explicit_trials_and_seed() {
        let cfg = parse(&["--trials", "7", "--seed", "99"]);
        assert_eq!(cfg.trials, 7);
        assert_eq!(cfg.seed, 99);
    }

    #[test]
    fn quick_does_not_override_explicit_trials() {
        let cfg = parse(&["--trials", "7", "--quick"]);
        assert_eq!(cfg.trials, 7);
        assert!(cfg.quick);
    }
}
