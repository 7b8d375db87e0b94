//! Minimal dependency-free argument parsing for the `slimsim` CLI.

use std::collections::HashMap;

/// Parsed command line: a subcommand, positional arguments and
/// `--key value` / `--flag` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first argument).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` options.
    pub options: HashMap<String, String>,
    /// Bare `--flag` options.
    pub flags: Vec<String>,
}

/// Option keys that take no value.
const FLAG_KEYS: &[&str] = &[
    "help",
    "trace",
    "skip-lumping",
    "quiet",
    "dot",
    "paper-accuracy",
    "no-lint",
    "no-zones",
    "deny-lints",
    "json",
    "progress",
    "prune",
    "verify-bytecode",
    "thorough",
    "no-shrink",
];

impl Args {
    /// Parses an iterator of arguments (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Args {
        let mut out = Args::default();
        let mut it = args.into_iter().peekable();
        if let Some(cmd) = it.next() {
            out.command = cmd;
        }
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if FLAG_KEYS.contains(&key) {
                    out.flags.push(key.to_string());
                } else if let Some(v) = it.next() {
                    out.options.insert(key.to_string(), v);
                } else {
                    out.flags.push(key.to_string());
                }
            } else {
                out.positional.push(a);
            }
        }
        out
    }

    /// String option with default.
    pub fn opt<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.options.get(key).map(String::as_str).unwrap_or(default)
    }

    /// Required string option.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.options.get(key).map(String::as_str).ok_or_else(|| format!("missing --{key}"))
    }

    /// f64 option with default.
    pub fn opt_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: not a number: {v}")),
        }
    }

    /// u64 option with default.
    pub fn opt_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: not an integer: {v}")),
        }
    }

    /// usize option with default.
    pub fn opt_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: not an integer: {v}")),
        }
    }

    /// True if a bare flag was given.
    pub fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_command_positional_options_flags() {
        let a = parse("analyze model.slim --bound 3.5 --strategy asap --trace");
        assert_eq!(a.command, "analyze");
        assert_eq!(a.positional, vec!["model.slim"]);
        assert_eq!(a.opt("strategy", "progressive"), "asap");
        assert_eq!(a.opt_f64("bound", 1.0).unwrap(), 3.5);
        assert!(a.has_flag("trace"));
        assert!(!a.has_flag("quiet"));
    }

    #[test]
    fn defaults_and_errors() {
        let a = parse("ctmc m.slim");
        assert_eq!(a.opt_f64("bound", 2.0).unwrap(), 2.0);
        assert!(a.required("root").is_err());
        let bad = parse("x --bound abc");
        assert!(bad.opt_f64("bound", 1.0).is_err());
    }

    #[test]
    fn trailing_option_without_value_becomes_flag() {
        let a = parse("run --verbose");
        assert!(a.has_flag("verbose"));
    }
}
