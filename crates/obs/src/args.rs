//! The workspace's one flag grammar: an argv cursor every binary
//! (`lpr`, `lpr serve`, `lpr-bench`, `experiments`) parses with, and
//! [`TraceOut`], the `--trace-out`/`--trace-level` pair they share.
//!
//! Flags are written `--flag value` (no `--flag=value` form); any token
//! not starting with `--` is a positional. Every failure reads the same
//! way, whichever binary reports it:
//!
//! * `--x wants a value` — the flag was last on the line;
//! * `--x: <reason>` — its value did not parse or is out of range;
//! * `unknown flag --x` / `unexpected argument x`.
//!
//! ```
//! use lpr_obs::args::{self, Arg};
//!
//! let argv: Vec<String> = ["a.warts", "--threads", "4", "--progress"]
//!     .iter().map(|s| s.to_string()).collect();
//! let (mut inputs, mut threads, mut progress) = (Vec::new(), 1usize, false);
//! args::each(&argv, |arg, a| {
//!     match arg {
//!         Arg::Flag("--threads") => threads = a.parse_where(|n| *n >= 1, "wants at least 1")?,
//!         Arg::Flag("--progress") => progress = true,
//!         Arg::Positional(path) => inputs.push(path.to_string()),
//!         Arg::Flag(_) => return Err(a.unknown()),
//!     }
//!     Ok(())
//! })?;
//! assert_eq!((inputs, threads, progress), (vec!["a.warts".to_string()], 4, true));
//! # Ok::<(), lpr_obs::args::ArgError>(())
//! ```

use crate::tracing::{Level, Tracer};
use std::fmt;
use std::str::FromStr;

/// A malformed command line, worded for the user.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// One token of the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arg<'a> {
    /// A `--flag`; its value, if it takes one, is read from the cursor.
    Flag(&'a str),
    /// Anything else.
    Positional(&'a str),
}

/// Hands every flag and positional of `args` to `f`, in order, with
/// the cursor a flag's value is read from; stops at the first error.
pub fn each<'a>(
    args: &'a [String],
    mut f: impl FnMut(Arg<'a>, &mut Args<'a>) -> Result<(), ArgError>,
) -> Result<(), ArgError> {
    let mut cursor = Args { rest: args, current: "" };
    while let Some(arg) = cursor.next() {
        f(arg, &mut cursor)?;
    }
    Ok(())
}

/// The cursor [`each`] reads flag values from.
pub struct Args<'a> {
    rest: &'a [String],
    /// The token handed out last, for error messages.
    current: &'a str,
}

impl<'a> Args<'a> {
    /// The next flag or positional, `None` at the end.
    fn next(&mut self) -> Option<Arg<'a>> {
        let (first, rest) = self.rest.split_first()?;
        self.rest = rest;
        self.current = first;
        Some(if first.starts_with("--") { Arg::Flag(first) } else { Arg::Positional(first) })
    }

    /// The token after the current one, without consuming it: how a
    /// flag with an optional value looks ahead.
    pub fn peek(&self) -> Option<&'a str> {
        self.rest.first().map(String::as_str)
    }

    /// Takes the current flag's value.
    pub fn value(&mut self) -> Result<String, ArgError> {
        let (first, rest) = self
            .rest
            .split_first()
            .ok_or_else(|| ArgError(format!("{} wants a value", self.current)))?;
        self.rest = rest;
        Ok(first.clone())
    }

    /// Takes the current flag's value and parses it.
    pub fn parse<T: FromStr>(&mut self) -> Result<T, ArgError>
    where
        T::Err: fmt::Display,
    {
        let v = self.value()?;
        v.parse().map_err(|e| self.error(format!("`{v}`: {e}")))
    }

    /// [`Args::parse`], then rejects a value failing `ok` with
    /// `--flag: <reason>`.
    pub fn parse_where<T: FromStr>(
        &mut self,
        ok: impl FnOnce(&T) -> bool,
        reason: &str,
    ) -> Result<T, ArgError>
    where
        T::Err: fmt::Display,
    {
        let v = self.parse()?;
        if ok(&v) {
            Ok(v)
        } else {
            Err(self.error(reason))
        }
    }

    /// `--flag: <reason>` for the current flag.
    pub fn error(&self, reason: impl fmt::Display) -> ArgError {
        ArgError(format!("{}: {reason}", self.current))
    }

    /// The current token, rejected: `unknown flag --x` or
    /// `unexpected argument x`.
    pub fn unknown(&self) -> ArgError {
        if self.current.starts_with("--") {
            ArgError(format!("unknown flag {}", self.current))
        } else {
            ArgError(format!("unexpected argument {}", self.current))
        }
    }
}

/// `--trace-out <trace.json>` and `--trace-level <level>`: whether to
/// journal spans, at what threshold, and where the Chrome
/// `trace_event` JSON goes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceOut {
    /// Where the trace is written; `None` leaves tracing off.
    pub path: Option<String>,
    /// Minimum journaled level (default info).
    pub level: Option<Level>,
}

impl TraceOut {
    /// Reads the value of `flag` when it is `--trace-out` or
    /// `--trace-level`; `Ok(false)` leaves any other flag to the caller.
    pub fn accept(&mut self, flag: &str, args: &mut Args<'_>) -> Result<bool, ArgError> {
        match flag {
            "--trace-out" => self.path = Some(args.value()?),
            "--trace-level" => self.level = Some(args.parse()?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// An enabled tracer at the requested level with `--trace-out`, a
    /// disabled one without.
    pub fn tracer(&self) -> Tracer {
        match self.path {
            Some(_) => Tracer::new(self.level.unwrap_or(Level::Info)),
            None => Tracer::disabled(),
        }
    }

    /// Writes `tracer`'s journal to the `--trace-out` path (nothing
    /// without one), warning on stderr when the ring wrapped. The error
    /// names the path.
    pub fn write(&self, tracer: &Tracer) -> Result<(), String> {
        let Some(path) = &self.path else { return Ok(()) };
        let snapshot = tracer.snapshot();
        if snapshot.dropped > 0 {
            eprintln!(
                "warning: trace journal wrapped, {} oldest events overwritten",
                snapshot.dropped
            );
        }
        std::fs::write(path, crate::export::chrome_trace(&snapshot))
            .map_err(|e| format!("{path}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn cursor(v: &[String]) -> Args<'_> {
        Args { rest: v, current: "" }
    }

    #[test]
    fn flags_and_positionals_arrive_in_order() {
        let v = argv(&["a", "--x", "b", "--y", "c", "--z"]);
        let mut seen = Vec::new();
        let stopped = each(&v, |arg, a| {
            seen.push(arg);
            if arg == Arg::Flag("--y") {
                seen.push(Arg::Positional(&v[4]));
                assert_eq!(a.value().unwrap(), "c", "a value is not handed out again");
            }
            match arg {
                Arg::Flag("--z") => Err(a.unknown()),
                _ => Ok(()),
            }
        });
        assert_eq!(stopped, Err(ArgError("unknown flag --z".into())));
        let expect = [
            Arg::Positional("a"),
            Arg::Flag("--x"),
            Arg::Positional("b"),
            Arg::Flag("--y"),
            Arg::Positional("c"),
            Arg::Flag("--z"),
        ];
        assert_eq!(seen, expect);
    }

    #[test]
    fn missing_value_names_the_flag() {
        let v = argv(&["--rib"]);
        let mut args = cursor(&v);
        args.next();
        assert_eq!(args.value(), Err(ArgError("--rib wants a value".into())));
    }

    #[test]
    fn unparsable_value_names_flag_value_and_reason() {
        let v = argv(&["--cycles", "x", "--threads", "0"]);
        let mut args = cursor(&v);
        args.next();
        let e = args.parse::<usize>().unwrap_err();
        assert!(e.0.starts_with("--cycles: `x`: "), "{e}");
        args.next();
        let e = args.parse_where(|n: &usize| *n >= 1, "wants at least 1").unwrap_err();
        assert_eq!(e, ArgError("--threads: wants at least 1".into()));
    }

    #[test]
    fn unknown_flag_and_unexpected_positional() {
        let v = argv(&["--bogus", "stray"]);
        let mut args = cursor(&v);
        args.next();
        assert_eq!(args.unknown(), ArgError("unknown flag --bogus".into()));
        args.next();
        assert_eq!(args.unknown(), ArgError("unexpected argument stray".into()));
    }

    #[test]
    fn peek_leaves_an_optional_value_in_place() {
        // `--threads-sweep` takes a list only when one follows.
        let v = argv(&["--threads-sweep", "--alloc", "--threads-sweep", "1,2"]);
        let mut args = cursor(&v);
        args.next();
        assert_eq!(args.peek(), Some("--alloc"));
        assert_eq!(args.next(), Some(Arg::Flag("--alloc")));
        args.next();
        assert_eq!(args.peek(), Some("1,2"));
        assert_eq!(args.value().unwrap(), "1,2");
        assert_eq!(args.peek(), None);
        assert_eq!(args.next(), None);
    }

    #[test]
    fn trace_out_takes_its_two_flags_only() {
        let v = argv(&["--trace-out", "t.json", "--trace-level", "debug", "--other"]);
        let mut args = cursor(&v);
        let mut trace = TraceOut::default();
        assert!(!trace.tracer().is_enabled());
        while let Some(Arg::Flag(f)) = args.next() {
            if !trace.accept(f, &mut args).unwrap() {
                assert_eq!(f, "--other");
            }
        }
        assert_eq!(trace.path.as_deref(), Some("t.json"));
        assert_eq!(trace.level, Some(Level::Debug));
        assert!(trace.tracer().is_enabled());

        let v = argv(&["--trace-level", "loud"]);
        let mut args = cursor(&v);
        args.next();
        let e = TraceOut::default().accept("--trace-level", &mut args).unwrap_err();
        assert!(e.0.starts_with("--trace-level: `loud`: not a level"), "{e}");
    }
}
