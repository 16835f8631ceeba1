//! Option parsing for the `threefive` binary.
//!
//! Hand-rolled `--key value` parsing (the container build is offline, so
//! no clap), with two properties the original ad-hoc loop lacked:
//!
//! * a **valueless flag never swallows the next option**: in
//!   `--verbose --n 64` the token `--n` starts a new key, so `--verbose`
//!   becomes a boolean `"true"` and `--n` keeps its `64` — previously
//!   `--verbose` consumed `--n` as its value and `64` was silently lost;
//! * an **unparseable value is a diagnosed error**, not a silent fallback
//!   to the default: `--n abc` surfaces as
//!   [`CliError::InvalidValue`] naming the flag, and the binary exits
//!   nonzero.

use std::collections::HashMap;
use std::fmt;

/// Errors produced while interpreting command-line options.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// A `--flag value` pair whose value failed to parse as the expected
    /// type.
    InvalidValue {
        /// The offending flag, without the `--` prefix.
        flag: String,
        /// The value as given.
        value: String,
    },
    /// A flag the subcommand does not define (see [`ensure_known`]) — a
    /// typo like `--deadlien` is diagnosed, never silently ignored.
    UnknownFlag {
        /// The offending flag, without the `--` prefix.
        flag: String,
        /// The flags the subcommand accepts.
        expected: Vec<&'static str>,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::InvalidValue { flag, value } => {
                write!(f, "invalid value '{value}' for --{flag}")
            }
            CliError::UnknownFlag { flag, expected } if expected.is_empty() => {
                write!(f, "unknown flag --{flag} (this command takes no flags)")
            }
            CliError::UnknownFlag { flag, expected } => {
                write!(f, "unknown flag --{flag} (expected ")?;
                for (i, e) in expected.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "--{e}")?;
                }
                f.write_str(")")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// Parses `--key value` pairs into a map.
///
/// A `--key` followed by another `--`-prefixed token (or by nothing) is a
/// boolean flag and maps to `"true"`. Tokens that are not `--`-prefixed
/// and not consumed as values are ignored.
pub fn parse_opts(args: &[String]) -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            let val = match args.get(i + 1) {
                // A following `--token` starts a new key; the current
                // flag is valueless. (A bare negative number like `-0.5`
                // is still accepted as a value.)
                Some(next) if !next.starts_with("--") => {
                    i += 1;
                    next.clone()
                }
                _ => "true".to_string(),
            };
            map.insert(key.to_string(), val);
        }
        i += 1;
    }
    map
}

/// Typed option lookup: absent ⇒ `default`, present-but-unparseable ⇒
/// [`CliError::InvalidValue`] naming the flag (never a silent default).
pub fn get<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, CliError> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| CliError::InvalidValue {
            flag: key.to_string(),
            value: v.clone(),
        }),
    }
}

/// String option lookup with a default.
pub fn getstr(opts: &HashMap<String, String>, key: &str, default: &str) -> String {
    opts.get(key)
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

/// Rejects any parsed flag not in `known` with
/// [`CliError::UnknownFlag`] naming both the flag and the accepted set.
/// The binary calls this for every subcommand right after
/// [`parse_opts`], so a misspelled option is an error instead of a
/// silently applied default.
pub fn ensure_known(
    opts: &HashMap<String, String>,
    known: &'static [&'static str],
) -> Result<(), CliError> {
    for flag in opts.keys() {
        if !known.contains(&flag.as_str()) {
            return Err(CliError::UnknownFlag {
                flag: flag.clone(),
                expected: known.to_vec(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn valueless_flag_does_not_swallow_next_option() {
        // The historical bug: `--verbose` consumed `--n` as its value and
        // `64` fell on the floor.
        let opts = parse_opts(&args(&["--verbose", "--n", "64"]));
        assert_eq!(opts.get("verbose").map(String::as_str), Some("true"));
        assert_eq!(opts.get("n").map(String::as_str), Some("64"));
        assert_eq!(get(&opts, "n", 0usize), Ok(64));
    }

    #[test]
    fn trailing_flag_is_boolean() {
        let opts = parse_opts(&args(&["--n", "32", "--fast"]));
        assert_eq!(opts.get("fast").map(String::as_str), Some("true"));
        assert_eq!(get(&opts, "n", 0usize), Ok(32));
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        let opts = parse_opts(&args(&["--alpha", "-0.5"]));
        assert_eq!(get(&opts, "alpha", 0.0f64), Ok(-0.5));
    }

    #[test]
    fn unparseable_value_is_an_error_naming_the_flag() {
        let opts = parse_opts(&args(&["--n", "abc"]));
        let err = get(&opts, "n", 128usize).unwrap_err();
        assert_eq!(
            err,
            CliError::InvalidValue {
                flag: "n".into(),
                value: "abc".into()
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("--n") && msg.contains("abc"), "{msg}");
    }

    #[test]
    fn absent_key_takes_default() {
        let opts = parse_opts(&args(&["--n", "16"]));
        assert_eq!(get(&opts, "steps", 8usize), Ok(8));
        assert_eq!(getstr(&opts, "variant", "35d"), "35d");
    }

    #[test]
    fn zero_parses_fine_and_is_left_to_domain_validation() {
        // `--dimt 0` parses as a number; rejecting it is the executors'
        // job (Blocking35::try_new), not the parser's.
        let opts = parse_opts(&args(&["--dimt", "0"]));
        assert_eq!(get(&opts, "dimt", 2usize), Ok(0));
    }

    #[test]
    fn unknown_flag_is_an_error_naming_flag_and_expectations() {
        let opts = parse_opts(&args(&["--deadlien", "500", "--n", "16"]));
        let err = ensure_known(&opts, &["n", "deadline"]).unwrap_err();
        match &err {
            CliError::UnknownFlag { flag, expected } => {
                assert_eq!(flag, "deadlien");
                assert_eq!(expected, &["n", "deadline"]);
            }
            other => panic!("unexpected {other:?}"),
        }
        let msg = err.to_string();
        assert!(
            msg.contains("--deadlien") && msg.contains("--deadline"),
            "{msg}"
        );
    }

    #[test]
    fn known_flags_pass_ensure_known() {
        let opts = parse_opts(&args(&["--n", "16", "--chaos"]));
        assert_eq!(ensure_known(&opts, &["n", "chaos", "steps"]), Ok(()));
    }

    #[test]
    fn consecutive_boolean_flags() {
        let opts = parse_opts(&args(&["--a", "--b", "--c", "7"]));
        assert_eq!(opts.get("a").map(String::as_str), Some("true"));
        assert_eq!(opts.get("b").map(String::as_str), Some("true"));
        assert_eq!(get(&opts, "c", 0i32), Ok(7));
    }
}
