//! The argument cursor and the one error type of the `ftsched`
//! subcommands.
//!
//! Every subcommand walks its arguments with a [`Cursor`] and returns
//! `Result<(), CliError>`; `main` alone turns an error into stderr text
//! and an exit code, so each kind of mistake is reported one way.

use std::fmt::Display;
use std::str::FromStr;

/// Why a subcommand stopped before finishing its work.
pub(crate) enum CliError {
    /// `-h` / `--help`: print the usage text to stdout and succeed.
    Help,
    /// A malformed command line: the reason, then the usage text.
    Usage(String),
    /// Anything else (a bad value for a known flag, an unreadable or
    /// corrupt input, a failed write): one line naming what failed.
    Failed(String),
}

/// A [`CliError::Usage`] carrying `message`.
pub(crate) fn usage(message: impl Display) -> CliError {
    CliError::Usage(message.to_string())
}

/// A [`CliError::Failed`] carrying `message`.
pub(crate) fn fail(message: impl Display) -> CliError {
    CliError::Failed(message.to_string())
}

/// The usage error for an argument no arm of the subcommand accepts.
pub(crate) fn unexpected(arg: &str) -> CliError {
    usage(format!("unexpected argument `{arg}`"))
}

/// Takes `arg` as the subcommand's single positional argument, or
/// rejects it when the slot is taken or `arg` looks like a flag.
pub(crate) fn positional<'a>(slot: &mut Option<&'a str>, arg: &'a str) -> Result<(), CliError> {
    if slot.is_some() || arg.starts_with('-') {
        return Err(unexpected(arg));
    }
    *slot = Some(arg);
    Ok(())
}

/// Walks one subcommand's arguments.
pub(crate) struct Cursor<'a> {
    args: std::slice::Iter<'a, String>,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(args: &'a [String]) -> Self {
        Cursor { args: args.iter() }
    }

    /// The next flag or positional argument. `-q` / `--quiet` are
    /// skipped (`ui::init` applied them before dispatch) and `-h` /
    /// `--help` stops the subcommand with [`CliError::Help`].
    pub(crate) fn next_arg(&mut self) -> Result<Option<&'a str>, CliError> {
        for arg in self.args.by_ref() {
            match arg.as_str() {
                "-q" | "--quiet" => {}
                "-h" | "--help" => return Err(CliError::Help),
                arg => return Ok(Some(arg)),
            }
        }
        Ok(None)
    }

    /// The value that follows `flag`.
    pub(crate) fn value(&mut self, flag: &str) -> Result<&'a str, CliError> {
        self.args
            .next()
            .map(String::as_str)
            .ok_or_else(|| usage(format!("{flag} needs a value")))
    }

    /// The value that follows `flag`, parsed as a `T`.
    pub(crate) fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, CliError> {
        let value = self.value(flag)?;
        value
            .parse()
            .map_err(|_| usage(format!("invalid {flag} value `{value}`")))
    }

    /// A count that follows `flag` and must be at least 1.
    pub(crate) fn count(&mut self, flag: &str) -> Result<usize, CliError> {
        match self.parse(flag)? {
            0 => Err(usage(format!("{flag} needs a number >= 1"))),
            n => Ok(n),
        }
    }

    /// The one path argument of a subcommand that takes nothing else;
    /// `missing` is the usage error when there is none.
    pub(crate) fn lone_path(mut self, missing: &str) -> Result<&'a str, CliError> {
        let mut path = None;
        while let Some(arg) = self.next_arg()? {
            positional(&mut path, arg)?;
        }
        path.ok_or_else(|| usage(missing))
    }
}
