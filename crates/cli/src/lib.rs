//! Shared command-line parsing for every dissemination-graph binary.
//!
//! All of the repo's binaries take the same `--flag value` / `--switch`
//! shape, so they share one tiny builder instead of each hand-rolling a
//! parser: declare the flags with [`Cli::flag`] / [`Cli::switch`], then
//! [`Cli::parse_env`] yields typed [`Matches`]. Unknown flags, missing
//! values, and unparsable values are uniform [`CliError`]s (rendered
//! with the usage text and exit code 2), and every binary answers
//! `--help` consistently — no panics on bad input.
//!
//! ```
//! let cli = dg_cli::Cli::new("dg-demo", "demonstrates the parser")
//!     .flag_default("rate", "PPS", "packets per second", "100")
//!     .flag("trace", "PATH", "trace file to replay")
//!     .switch("quick", "run the abbreviated variant");
//! let m = cli.parse(["--rate", "250", "--quick"].iter().map(|s| s.to_string())).unwrap();
//! assert_eq!(m.get_or::<u32>("rate", 0).unwrap(), 250);
//! assert!(m.value("trace").is_none());
//! assert!(m.is_set("quick"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;

/// One declared flag.
#[derive(Debug, Clone)]
struct FlagSpec {
    name: &'static str,
    /// Placeholder for the value in usage text; `None` marks a switch.
    value_name: Option<&'static str>,
    help: &'static str,
    default: Option<&'static str>,
}

/// A declarative command-line parser shared by all binaries.
#[derive(Debug, Clone)]
pub struct Cli {
    name: String,
    about: &'static str,
    flags: Vec<FlagSpec>,
}

/// Parsing failures, each mapped to a uniform message and exit code 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A flag that was never declared.
    UnknownFlag(String),
    /// A valued flag appeared without a value.
    MissingValue(&'static str),
    /// A value failed to parse into the requested type.
    BadValue {
        /// The flag whose value was rejected.
        flag: String,
        /// The offending input.
        value: String,
        /// The type it should have parsed into.
        expected: &'static str,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownFlag(flag) => write!(f, "unknown flag: {flag}"),
            CliError::MissingValue(flag) => write!(f, "--{flag} requires a value"),
            CliError::BadValue { flag, value, expected } => {
                write!(f, "--{flag}: cannot parse {value:?} as {expected}")
            }
        }
    }
}

impl std::error::Error for CliError {}

impl Cli {
    /// A parser for the binary `name`, described by `about` in `--help`.
    pub fn new(name: impl Into<String>, about: &'static str) -> Self {
        Cli { name: name.into(), about, flags: Vec::new() }
    }

    /// Declares an optional valued flag (`--name VALUE`).
    pub fn flag(
        mut self,
        name: &'static str,
        value_name: &'static str,
        help: &'static str,
    ) -> Self {
        self.flags.push(FlagSpec { name, value_name: Some(value_name), help, default: None });
        self
    }

    /// Declares a valued flag with a default shown in `--help` and used
    /// when the flag is absent.
    pub fn flag_default(
        mut self,
        name: &'static str,
        value_name: &'static str,
        help: &'static str,
        default: &'static str,
    ) -> Self {
        self.flags.push(FlagSpec {
            name,
            value_name: Some(value_name),
            help,
            default: Some(default),
        });
        self
    }

    /// Declares a boolean switch (`--name`, no value).
    pub fn switch(mut self, name: &'static str, help: &'static str) -> Self {
        self.flags.push(FlagSpec { name, value_name: None, help, default: None });
        self
    }

    /// The usage text printed by `--help` and appended to errors.
    pub fn usage(&self) -> String {
        let mut out = format!(
            "{} — {}\n\nUsage: {} [options]\n\nOptions:\n",
            self.name, self.about, self.name
        );
        let mut lefts: Vec<String> = Vec::with_capacity(self.flags.len() + 1);
        for spec in &self.flags {
            lefts.push(match spec.value_name {
                Some(v) => format!("--{} <{}>", spec.name, v),
                None => format!("--{}", spec.name),
            });
        }
        lefts.push("--help".to_string());
        let width = lefts.iter().map(String::len).max().unwrap_or(0);
        for (spec, left) in self.flags.iter().zip(&lefts) {
            out.push_str(&format!("  {left:width$}  {}", spec.help));
            if let Some(d) = spec.default {
                out.push_str(&format!(" [default: {d}]"));
            }
            out.push('\n');
        }
        out.push_str(&format!("  {:width$}  print this help\n", "--help"));
        out
    }

    /// Whether `--name` is one of the declared flags.
    pub fn declares(&self, name: &str) -> bool {
        self.spec(name).is_some()
    }

    fn spec(&self, name: &str) -> Option<&FlagSpec> {
        self.flags.iter().find(|s| s.name == name)
    }

    /// Parses an argument stream (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a [`CliError`] on unknown flags or missing values; typed
    /// value errors surface later from [`Matches::get`].
    pub fn parse<I: IntoIterator<Item = String>>(&self, args: I) -> Result<Matches, CliError> {
        let mut values = HashMap::new();
        let mut switches = Vec::new();
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(CliError::UnknownFlag(arg));
            };
            if name == "help" {
                switches.push("help".to_string());
                continue;
            }
            let Some(spec) = self.spec(name) else {
                return Err(CliError::UnknownFlag(arg));
            };
            if spec.value_name.is_some() {
                // A following token that looks like a declared flag is
                // not a value; report the missing value instead.
                let next_is_value = args.peek().is_some_and(|n| {
                    self.spec(n.strip_prefix("--").unwrap_or("")).is_none() && n != "--help"
                });
                if !next_is_value {
                    return Err(CliError::MissingValue(spec.name));
                }
                values.insert(spec.name.to_string(), args.next().expect("peeked"));
            } else {
                switches.push(spec.name.to_string());
            }
        }
        for spec in &self.flags {
            if let Some(default) = spec.default {
                values.entry(spec.name.to_string()).or_insert_with(|| default.to_string());
            }
        }
        Ok(Matches { values, switches })
    }

    /// Parses the process arguments; prints help or a uniform error (and
    /// the usage text) and exits when parsing cannot proceed.
    pub fn parse_env(&self) -> Matches {
        self.parse_or_exit(std::env::args().skip(1))
    }

    /// Parses `args` as [`Cli::parse_env`] parses the process
    /// arguments: help and errors print and exit.
    pub fn parse_or_exit<I: IntoIterator<Item = String>>(&self, args: I) -> Matches {
        match self.parse(args) {
            Ok(m) if m.is_set("help") => {
                print!("{}", self.usage());
                std::process::exit(0);
            }
            Ok(m) => m,
            Err(e) => {
                eprintln!("{}: {e}\n\n{}", self.name, self.usage());
                std::process::exit(2);
            }
        }
    }

    /// Exits with the uniform error rendering for a post-parse error
    /// (e.g. a typed [`Matches::get`] failure).
    pub fn exit_with(&self, error: &CliError) -> ! {
        eprintln!("{}: {error}\n\n{}", self.name, self.usage());
        std::process::exit(2);
    }
}

/// Parsed flag values; typed access via [`Matches::get`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Matches {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Matches {
    /// Whether a switch (or `--help`) was given.
    pub fn is_set(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The raw value for a flag, if present (or defaulted).
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Parses the value for `name` into `T`, `None` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::BadValue`] when the value does not parse.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        match self.values.get(name) {
            None => Ok(None),
            Some(raw) => raw.parse().map(Some).map_err(|_| CliError::BadValue {
                flag: name.to_string(),
                value: raw.clone(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// Parses the value for `name` into `T`, falling back to `default`
    /// when the flag is absent.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::BadValue`] when a present value does not
    /// parse.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        Ok(self.get(name)?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Cli {
        Cli::new("demo", "test binary")
            .flag_default("rate", "PPS", "packets per second", "100")
            .flag("trace", "PATH", "trace file")
            .switch("quick", "abbreviated run")
    }

    fn parse(cli: &Cli, args: &[&str]) -> Result<Matches, CliError> {
        cli.parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_values_and_switches() {
        let m = parse(&demo(), &["--rate", "250", "--quick"]).unwrap();
        assert_eq!(m.get_or::<u32>("rate", 0).unwrap(), 250);
        assert!(m.is_set("quick"));
        assert!(!m.is_set("help"));
        assert_eq!(m.value("trace"), None);

        let m = parse(&demo(), &[]).unwrap();
        assert_eq!(m.get_or::<u32>("rate", 0).unwrap(), 100, "default applies");
        assert!(!m.is_set("quick"));
    }

    #[test]
    fn errors_are_uniform_not_panics() {
        assert_eq!(parse(&demo(), &["--bogus", "1"]), Err(CliError::UnknownFlag("--bogus".into())));
        assert_eq!(parse(&demo(), &["--rate"]), Err(CliError::MissingValue("rate")));
        assert_eq!(parse(&demo(), &["--rate", "--quick"]), Err(CliError::MissingValue("rate")));
        assert_eq!(parse(&demo(), &["oops"]), Err(CliError::UnknownFlag("oops".into())));
        let m = parse(&demo(), &["--rate", "fast"]).unwrap();
        let err = m.get::<u32>("rate").unwrap_err();
        assert!(matches!(err, CliError::BadValue { .. }));
        assert!(err.to_string().contains("fast"));
    }

    #[test]
    fn help_is_a_switch_and_usage_lists_flags() {
        let m = parse(&demo(), &["--help"]).unwrap();
        assert!(m.is_set("help"));
        let usage = demo().usage();
        assert!(usage.contains("--rate <PPS>"));
        assert!(usage.contains("[default: 100]"));
        assert!(usage.contains("--quick"));
        assert!(usage.contains("--help"));
        assert!(demo().declares("rate") && demo().declares("quick"));
        assert!(!demo().declares("help") && !demo().declares("bogus"));
    }

    #[test]
    fn negative_and_path_values_parse() {
        let cli = Cli::new("t", "t").flag("offset", "N", "signed").flag("path", "P", "file");
        let m = cli
            .parse(["--offset", "-3", "--path", "/tmp/x.json"].iter().map(|s| s.to_string()))
            .unwrap();
        assert_eq!(m.get::<i64>("offset").unwrap(), Some(-3));
        assert_eq!(m.value("path"), Some("/tmp/x.json"));
    }
}
