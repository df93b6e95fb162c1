//! Command-line parsing: strict, so a mistyped flag cannot silently
//! benchmark the defaults.

use std::path::PathBuf;

use crate::runner::Stop;
use crate::workloads::Workload;

pub const USAGE: &str = "\
usage: bench/run.sh [--workload NAME] [--seed N] [--reps N | --seconds S]
                    [--trace 0|1] [--smoke] [--out FILE]
       bench/run.sh --aa [the flags above]
       bench/run.sh --compare A.json B.json

  --workload NAME  one of diag-heavy, diag-heavy-j2, diag-wide, hunt,
                   ycsb-tracers (default: all five, one after the other)
  --seed N         derives capture seeds, hunt seed and YCSB seed (default 42)
  --reps N         timed passes per workload (default 5)
  --seconds S      keep starting timed passes for S seconds, at least 4
  --trace 0|1      1 adds the traced pass and the per-layer metrics; with
                   --workload it runs only that (and prints only those)
  --smoke          1 repetition of reduced sizes, under a minute in all
  --out FILE       results file (default bench/results/latest.json)
  --aa             two full sets of the same build, then --compare them
  --compare A B    per workload x metric: change, bound, verdict";

/// What to do.
#[derive(Debug, Clone)]
pub enum Mode {
    Run,
    Aa,
    Compare(PathBuf, PathBuf),
    Help,
    /// Internal: one pass in this process (`spawned_at` in UNIX seconds).
    ChildPass {
        spawned_at: f64,
    },
}

/// Parsed arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub mode: Mode,
    pub workload: Option<Workload>,
    pub seed: u64,
    pub stop: Stop,
    pub trace: bool,
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        mode: Mode::Run,
        workload: None,
        seed: 42,
        stop: Stop::Reps(5),
        trace: false,
        smoke: false,
        out: None,
    };
    let mut child = false;
    let mut spawned_at = 0.0;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value ({what})"))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot parse '{v}'"))
        }
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                out.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => {
                // Any whole number seeds the inputs; a negative one by its
                // two's complement.
                let v = value("a whole number")?;
                out.seed = match v.parse::<u64>() {
                    Ok(n) => n,
                    Err(_) => num::<i64>(&flag, v)? as u64,
                };
            }
            "--reps" => {
                let n: usize = num(&flag, value("a count")?)?;
                if n == 0 {
                    return Err("--reps must be at least 1".into());
                }
                out.stop = Stop::Reps(n);
            }
            "--seconds" => {
                let s: f64 = num(&flag, value("seconds")?)?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                out.stop = Stop::Seconds(s);
            }
            "--trace" => {
                out.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => out.smoke = true,
            "--out" => out.out = Some(PathBuf::from(value("a path")?)),
            "--aa" => out.mode = Mode::Aa,
            "--help" | "-h" => out.mode = Mode::Help,
            "--compare" => {
                let a = PathBuf::from(value("two result files")?);
                let b = PathBuf::from(value("two result files")?);
                out.mode = Mode::Compare(a, b);
            }
            "--child-pass" => child = true,
            "--spawned-at" => spawned_at = num(&flag, value("UNIX seconds")?)?,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if out.smoke {
        out.stop = Stop::Reps(1);
    }
    if child {
        if out.workload.is_none() {
            return Err("--child-pass needs --workload".into());
        }
        out.mode = Mode::ChildPass { spawned_at };
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Args, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_invocation_parses() {
        let a = p(&[
            "--workload",
            "diag-wide",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::DiagWide));
        assert_eq!(a.seed, 7);
        assert!(a.trace && matches!(a.stop, Stop::Seconds(s) if s == 15.0));
    }

    #[test]
    fn bad_input_is_refused() {
        assert!(p(&["--sed", "1"]).is_err());
        assert!(p(&["--seed", "abc"]).is_err());
        assert_eq!(p(&["--seed", "-1"]).unwrap().seed, u64::MAX);
        assert!(p(&["--seed"]).is_err());
        assert!(p(&["--workload", "nope"]).is_err());
        assert!(p(&["--trace", "2"]).is_err());
        assert!(p(&["--reps", "0"]).is_err());
        assert!(p(&["--compare", "a.json"]).is_err());
    }

    #[test]
    fn smoke_is_one_repetition() {
        let a = p(&["--reps", "9", "--smoke"]).unwrap();
        assert!(a.smoke && matches!(a.stop, Stop::Reps(1)));
    }
}
