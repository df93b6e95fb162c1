//! The one command-line parser of the bench binaries.
//!
//! A binary takes what it consumes — [`Args::flag`], [`Args::value`],
//! [`Args::jobs`] — and ends with [`Args::finish`] or [`Args::bugs`], which
//! reject whatever is left: an unknown flag, a flag this binary does not
//! consume, a repeated flag, a stray positional. Because every value flag
//! is taken together with its value (`--flag value` or `--flag=value`)
//! before positionals are read, a flag's value is never mistaken for a bug
//! name and a bug name is never swallowed as a flag's value.
//!
//! The parser is strict: a missing or unparsable value is an error, not a
//! silent default (a count that must not be zero is taken as a `NonZero`
//! type, so `0` is unparsable). Errors are recorded and reported by the
//! finishing call, which prints the message and the binary's usage to stderr
//! and exits with status 2 — so a binary must finish parsing before it has
//! side effects.

use std::path::PathBuf;
use std::str::FromStr;

use rose_apps::registry::BugId;

/// Command-line arguments not consumed yet, plus the first parse error.
pub struct Args {
    rest: Vec<String>,
    error: Option<String>,
}

impl Args {
    /// The process's arguments.
    pub fn from_env() -> Self {
        Args::new(std::env::args().skip(1))
    }

    /// Explicit arguments (the testable core).
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Args {
            rest: args.into_iter().collect(),
            error: None,
        }
    }

    fn fail(&mut self, msg: String) {
        self.error.get_or_insert(msg);
    }

    /// Takes the boolean flag `name`.
    pub fn flag(&mut self, name: &str) -> bool {
        let at = self.rest.iter().position(|a| a == name);
        if let Some(i) = at {
            self.rest.remove(i);
        }
        at.is_some()
    }

    /// Takes the value of `--name <value>` / `--name=<value>`. `None` when
    /// the flag is absent.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Option<T> {
        let prefix = format!("{name}=");
        let i = self
            .rest
            .iter()
            .position(|a| a == name || a.starts_with(&prefix))?;
        let arg = self.rest.remove(i);
        let raw = match arg.strip_prefix(&prefix) {
            Some(v) => v.to_string(),
            None if i < self.rest.len() && !self.rest[i].starts_with("--") => self.rest.remove(i),
            None => {
                self.fail(format!("{name} needs a value"));
                return None;
            }
        };
        let parsed = raw.parse().ok();
        if parsed.is_none() {
            self.fail(format!("invalid value '{raw}' for {name}"));
        }
        parsed
    }

    /// `--jobs N`: the worker count, 1 (sequential) when absent. Zero is
    /// clamped to 1.
    pub fn jobs(&mut self) -> usize {
        self.value::<usize>("--jobs").map_or(1, |n| n.max(1))
    }

    /// `--report <path>`: where the campaign's JSONL phase records are
    /// appended (see [`crate::ReportSink::open`]).
    pub fn report(&mut self) -> Option<PathBuf> {
        self.value("--report")
    }

    /// `--trace-dir <dir>`: persist captured traces as `<stem>.rosetrace`
    /// and diagnose from the reloaded binary trace.
    pub fn trace_dir(&mut self) -> Option<PathBuf> {
        self.value("--trace-dir")
    }

    /// `--causal <dir>`: collect causal provenance during testing runs and
    /// write propagation chains as `<stem>.flow.json` + `<stem>.dot`.
    pub fn causal_dir(&mut self) -> Option<PathBuf> {
        self.value("--causal")
    }

    /// Ends parsing: the positional arguments, or the first error — a
    /// recorded one, or a flag nothing consumed.
    pub fn check(self) -> Result<Vec<String>, String> {
        if let Some(e) = self.error {
            return Err(e);
        }
        match self.rest.iter().find(|a| a.starts_with('-')) {
            Some(flag) => Err(format!("unknown or repeated flag '{flag}'")),
            None => Ok(self.rest),
        }
    }

    /// Ends parsing for a binary without positional arguments; any error
    /// exits with `usage`.
    pub fn finish(self, usage: &str) {
        match self.check() {
            Ok(rest) if rest.is_empty() => {}
            Ok(rest) => exit_usage(&format!("unexpected argument '{}'", rest[0]), usage),
            Err(e) => exit_usage(&e, usage),
        }
    }

    /// Ends parsing for a binary whose positional arguments name registry
    /// cases (`BugId::parse`, case-insensitive); none picks `default`. Any
    /// error — an unknown name included — exits with `usage`.
    pub fn bugs(self, usage: &str, default: &[BugId]) -> Vec<BugId> {
        let names = self.check().unwrap_or_else(|e| exit_usage(&e, usage));
        let picked: Vec<BugId> = names
            .iter()
            .map(|name| {
                BugId::parse(name).unwrap_or_else(|| {
                    let known: Vec<&str> = BugId::all_with_hunted()
                        .iter()
                        .map(|id| id.info().name)
                        .collect();
                    let msg = format!("unknown bug '{name}'; known: {}", known.join(", "));
                    exit_usage(&msg, usage)
                })
            })
            .collect();
        if picked.is_empty() {
            default.to_vec()
        } else {
            picked
        }
    }
}

fn exit_usage(msg: &str, usage: &str) -> ! {
    eprintln!("error: {msg}\n{usage}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use std::num::NonZeroU64;

    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::new(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn path_flags_take_both_spellings() {
        type Take = fn(&mut Args) -> Option<PathBuf>;
        let takes: [(&str, Take); 3] = [
            ("--report", Args::report),
            ("--trace-dir", Args::trace_dir),
            ("--causal", Args::causal_dir),
        ];
        for (flag, take) in takes {
            let mut a = args(&["--quick", flag, "x"]);
            assert_eq!(take(&mut a), Some(PathBuf::from("x")));
            assert!(a.flag("--quick"));
            assert_eq!(a.check(), Ok(Vec::new()));
            assert_eq!(
                take(&mut args(&[&format!("{flag}=y")])),
                Some(PathBuf::from("y"))
            );
            assert_eq!(take(&mut args(&["--quick"])), None);
        }
    }

    #[test]
    fn boolean_flags_are_taken_once() {
        let mut a = args(&["--jobs", "2", "--quick"]);
        assert!(a.flag("--quick"));
        assert!(!a.flag("--quick"), "taken once");
        assert!(!args(&["--jobs", "2"]).flag("--quick"));
    }

    #[test]
    fn jobs_defaults_to_one_and_clamps_zero() {
        assert_eq!(args(&["--jobs", "4"]).jobs(), 4);
        assert_eq!(args(&["--jobs=6"]).jobs(), 6);
        assert_eq!(args(&[]).jobs(), 1);
        assert_eq!(args(&["--jobs", "0"]).jobs(), 1);
    }

    /// `jobs` + `--out` + positionals, as `hunt`/`redundancy` parse.
    fn names(v: &[&str]) -> Result<Vec<String>, String> {
        let mut a = args(v);
        a.jobs();
        a.flag("--quick");
        a.value::<PathBuf>("--out");
        a.check()
    }

    #[test]
    fn positionals_survive_any_flag_before_them() {
        let want = Ok(vec!["RedisRaft-42".to_string()]);
        assert_eq!(names(&["--jobs=4", "RedisRaft-42"]), want);
        assert_eq!(names(&["--jobs", "4", "RedisRaft-42"]), want);
        assert_eq!(names(&["--quick", "RedisRaft-42"]), want);
        assert_eq!(names(&["RedisRaft-42", "--out=o.json", "--quick"]), want);
        assert_eq!(
            names(&["HDFS-12070", "--out", "o.json", "Zookeeper-4203"]),
            Ok(vec!["HDFS-12070".to_string(), "Zookeeper-4203".to_string()])
        );
        let mut a = args(&["--out=o.json", "x"]);
        assert_eq!(a.value("--out"), Some(PathBuf::from("o.json")));
    }

    #[test]
    fn bad_input_is_an_error_not_a_default() {
        // Unknown flag, flag the binary does not consume, repeated flag.
        assert!(names(&["--no-such-flag"]).is_err());
        assert!(names(&["--ei"]).is_err());
        assert!(names(&["--quick=1"]).is_err());
        assert!(names(&["--jobs", "1", "--jobs", "2"]).is_err());
        // Missing value: last argument, or followed by another flag.
        assert!(names(&["--out"]).is_err());
        assert!(names(&["--out", "--quick"]).is_err());
        // Unparsable value.
        assert!(names(&["--jobs", "x"]).is_err());
        assert!(names(&["--jobs", "-1"]).is_err());
        let mut a = args(&["--secs", "abc"]);
        assert_eq!(a.value::<u64>("--secs"), None);
        assert!(a.check().unwrap_err().contains("--secs"));
        // Zero is not a count: a bin asks for the `NonZero` type.
        let mut a = args(&["--secs", "0"]);
        assert_eq!(a.value::<NonZeroU64>("--secs"), None);
        assert!(a.check().unwrap_err().contains("--secs"));
    }
}
