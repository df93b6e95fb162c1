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
//! silent default. Errors are recorded and reported by the finishing call,
//! which prints the message and the binary's usage to stderr and exits with
//! status 2 — so a binary must finish parsing before it has side effects.
//! `ROSE_*` environment variables stand in for absent value flags; unset or
//! empty means absent, set but unparsable is an error like the flag would be.

use std::path::PathBuf;
use std::str::FromStr;

use rose_apps::registry::BugId;

/// Command-line arguments not consumed yet, plus the first parse error.
pub struct Args {
    rest: Vec<String>,
    env: fn(&str) -> Option<String>,
    error: Option<String>,
}

impl Args {
    /// The process's arguments and environment.
    pub fn from_env() -> Self {
        Args::new(std::env::args().skip(1), |var| std::env::var(var).ok())
    }

    /// Explicit arguments and environment lookup (the testable core).
    pub fn new(args: impl IntoIterator<Item = String>, env: fn(&str) -> Option<String>) -> Self {
        Args {
            rest: args.into_iter().collect(),
            env,
            error: None,
        }
    }

    fn fail(&mut self, msg: String) {
        self.error.get_or_insert(msg);
    }

    /// The environment fallback of a flag: unset or empty is absent.
    fn env_value(&self, var: Option<&str>) -> Option<String> {
        (self.env)(var?).filter(|v| !v.is_empty())
    }

    /// Takes the boolean flag `name`.
    pub fn flag(&mut self, name: &str) -> bool {
        let at = self.rest.iter().position(|a| a == name);
        if let Some(i) = at {
            self.rest.remove(i);
        }
        at.is_some()
    }

    /// Takes the value of `--name <value>` / `--name=<value>`, falling back
    /// to `env_var`. `None` when neither is present.
    pub fn value<T: FromStr>(&mut self, name: &str, env_var: Option<&str>) -> Option<T> {
        let prefix = format!("{name}=");
        let at = self
            .rest
            .iter()
            .position(|a| a == name || a.starts_with(&prefix));
        let (source, raw) = match at {
            Some(i) => {
                let arg = self.rest.remove(i);
                let raw = match arg.strip_prefix(&prefix) {
                    Some(v) => v.to_string(),
                    None if i < self.rest.len() && !self.rest[i].starts_with("--") => {
                        self.rest.remove(i)
                    }
                    None => {
                        self.fail(format!("{name} needs a value"));
                        return None;
                    }
                };
                (name, raw)
            }
            None => (env_var?, self.env_value(env_var)?),
        };
        let parsed = raw.parse().ok();
        if parsed.is_none() {
            self.fail(format!("invalid value '{raw}' for {source}"));
        }
        parsed
    }

    /// `--jobs N` / `ROSE_JOBS`: the worker count, 1 (sequential) when
    /// absent. Zero is clamped to 1.
    pub fn jobs(&mut self) -> usize {
        self.value::<usize>("--jobs", Some("ROSE_JOBS"))
            .map_or(1, |n| n.max(1))
    }

    /// `--report <path>` / `ROSE_REPORT`: where the campaign's JSONL phase
    /// records are appended (see [`crate::ReportSink::open`]).
    pub fn report(&mut self) -> Option<PathBuf> {
        self.value("--report", Some("ROSE_REPORT"))
    }

    /// `--trace-dir <dir>` / `ROSE_TRACE_DIR`: persist captured traces as
    /// `<stem>.rosetrace` and diagnose from the reloaded binary trace.
    pub fn trace_dir(&mut self) -> Option<PathBuf> {
        self.value("--trace-dir", Some("ROSE_TRACE_DIR"))
    }

    /// `--causal <dir>` / `ROSE_CAUSAL`: collect causal provenance during
    /// testing runs and write propagation chains as `<stem>.flow.json` +
    /// `<stem>.dot`.
    pub fn causal_dir(&mut self) -> Option<PathBuf> {
        self.value("--causal", Some("ROSE_CAUSAL"))
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
    use super::*;

    fn no_env(_: &str) -> Option<String> {
        None
    }

    fn args(v: &[&str]) -> Args {
        Args::new(v.iter().map(|s| s.to_string()), no_env)
    }

    fn with_env(v: &[&str], env: fn(&str) -> Option<String>) -> Args {
        Args::new(v.iter().map(|s| s.to_string()), env)
    }

    #[test]
    fn path_flags_take_both_spellings_and_fall_back_to_env() {
        fn env(var: &str) -> Option<String> {
            match var {
                "ROSE_REPORT" => Some("env.jsonl".into()),
                "ROSE_TRACE_DIR" => Some("env-dir".into()),
                "ROSE_CAUSAL" => Some(String::new()),
                _ => None,
            }
        }
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
        // The flag beats the environment; an empty variable is absent.
        let mut a = with_env(&["--report=x.jsonl"], env);
        assert_eq!(a.report(), Some(PathBuf::from("x.jsonl")));
        let mut a = with_env(&["--quick"], env);
        assert_eq!(a.report(), Some(PathBuf::from("env.jsonl")));
        assert_eq!(a.trace_dir(), Some(PathBuf::from("env-dir")));
        assert_eq!(a.causal_dir(), None);
    }

    #[test]
    fn boolean_flags_come_from_the_command_line_only() {
        fn on(_: &str) -> Option<String> {
            Some("1".into())
        }
        let mut a = args(&["--jobs", "2", "--quick"]);
        assert!(a.flag("--quick"));
        assert!(!a.flag("--quick"), "taken once");
        assert!(!args(&["--jobs", "2"]).flag("--quick"));
        assert!(!with_env(&[], on).flag("--quick"));
    }

    #[test]
    fn jobs_prefers_flag_over_env_and_clamps_zero() {
        fn env(var: &str) -> Option<String> {
            (var == "ROSE_JOBS").then(|| "3".into())
        }
        assert_eq!(args(&["--jobs", "4"]).jobs(), 4);
        assert_eq!(with_env(&["--jobs=6"], env).jobs(), 6);
        assert_eq!(with_env(&["--quick"], env).jobs(), 3);
        assert_eq!(args(&[]).jobs(), 1);
        assert_eq!(args(&["--jobs", "0"]).jobs(), 1);
    }

    /// `jobs` + `--out` + positionals, as `hunt`/`redundancy` parse.
    fn names(v: &[&str]) -> Result<Vec<String>, String> {
        let mut a = args(v);
        a.jobs();
        a.flag("--quick");
        a.value::<PathBuf>("--out", None);
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
        assert_eq!(a.value("--out", None), Some(PathBuf::from("o.json")));
    }

    #[test]
    fn bad_input_is_an_error_not_a_default() {
        fn bad_jobs(var: &str) -> Option<String> {
            (var == "ROSE_JOBS").then(|| "many".into())
        }
        // Unknown flag, flag the binary does not consume, repeated flag.
        assert!(names(&["--no-such-flag"]).is_err());
        assert!(names(&["--ei"]).is_err());
        assert!(names(&["--quick=1"]).is_err());
        assert!(names(&["--jobs", "1", "--jobs", "2"]).is_err());
        // Missing value: last argument, or followed by another flag.
        assert!(names(&["--out"]).is_err());
        assert!(names(&["--out", "--quick"]).is_err());
        // Unparsable value, from the flag or from the environment.
        assert!(names(&["--jobs", "x"]).is_err());
        assert!(names(&["--jobs", "-1"]).is_err());
        let mut a = with_env(&[], bad_jobs);
        assert_eq!(a.jobs(), 1);
        assert!(a.check().unwrap_err().contains("ROSE_JOBS"));
        let mut a = args(&["--secs", "abc"]);
        assert_eq!(a.value::<u64>("--secs", None), None);
        assert!(a.check().unwrap_err().contains("--secs"));
    }
}
