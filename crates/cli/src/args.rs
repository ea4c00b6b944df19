//! Minimal flag parser (kept dependency-free on purpose; see DESIGN.md).
//!
//! Every command declares its syntax — an optional positional and the
//! flags it reads — in one [`Command`] table. [`Parsed::parse`] looks the
//! command up there first, so a flag the command does not declare is an
//! error naming both, never a silently ignored no-op.

use std::collections::BTreeMap;
use std::fmt;

/// One flag a command declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--name VALUE`.
    Value(&'static str),
    /// A bare `--name` switch.
    Switch(&'static str),
}

impl Flag {
    /// The flag's name, without the leading `--`.
    pub fn name(self) -> &'static str {
        match self {
            Flag::Value(name) | Flag::Switch(name) => name,
        }
    }
}

/// One entry of a command table: the name, the syntax, and a handler.
#[derive(Debug)]
pub struct Command<H> {
    /// The subcommand name.
    pub name: &'static str,
    /// The usage line of the one positional the command takes (a spec
    /// file, a cache action), or `None` when it takes flags only.
    positional: Option<&'static str>,
    /// The flags it accepts, as shared groups.
    flags: &'static [&'static [Flag]],
    /// What runs it.
    pub handler: H,
}

impl<H> Command<H> {
    /// A table entry.
    pub const fn new(
        name: &'static str,
        positional: Option<&'static str>,
        flags: &'static [&'static [Flag]],
        handler: H,
    ) -> Self {
        Command { name, positional, flags, handler }
    }

    /// Every flag the command declares, in table order.
    pub fn flags(&self) -> impl Iterator<Item = Flag> + '_ {
        self.flags.iter().flat_map(|group| group.iter().copied())
    }
}

/// A parsed command line: the positional argument and `--key value`
/// flags of the command [`Parsed::parse`] matched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parsed {
    positional: String,
    flags: BTreeMap<String, String>,
}

/// A command-line parsing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseArgsError {
    /// No subcommand given.
    MissingCommand,
    /// The subcommand is not in the table.
    UnknownCommand(String),
    /// A `--flag` the command does not declare.
    UnknownFlag {
        /// The command.
        command: &'static str,
        /// The flag, without `--`.
        flag: String,
    },
    /// A `--flag` had no value.
    MissingValue(String),
    /// The command's positional argument is missing; carries its usage.
    MissingPositional(&'static str),
    /// A positional argument the command does not take.
    UnexpectedPositional(String),
    /// A flag's value failed to parse.
    BadValue {
        /// Flag name.
        flag: String,
        /// Offending value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
}

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseArgsError::MissingCommand => write!(f, "no command given (try `rrb help`)"),
            ParseArgsError::UnknownCommand(c) => {
                write!(f, "unknown command `{c}` (try `rrb help`)")
            }
            ParseArgsError::UnknownFlag { command, flag } => {
                write!(f, "`rrb {command}` takes no flag --{flag} (try `rrb help`)")
            }
            ParseArgsError::MissingValue(flag) => write!(f, "flag --{flag} needs a value"),
            ParseArgsError::MissingPositional(usage) => {
                write!(f, "missing argument (usage: {usage})")
            }
            ParseArgsError::UnexpectedPositional(arg) => {
                write!(f, "unexpected argument `{arg}`")
            }
            ParseArgsError::BadValue { flag, value, expected } => {
                write!(f, "--{flag}: `{value}` is not {expected}")
            }
        }
    }
}

impl std::error::Error for ParseArgsError {}

impl Parsed {
    /// Parses `argv` (without the program name) against `table`,
    /// returning the matched command with its parsed arguments. `--help`
    /// and `-h` in command position read as `help`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError`] on an unknown command, a flag the
    /// command does not declare, or a wrong number of positionals.
    pub fn parse<'t, H>(
        argv: &[String],
        table: &'t [Command<H>],
    ) -> Result<(&'t Command<H>, Self), ParseArgsError> {
        let mut it = argv.iter();
        let name = it.next().ok_or(ParseArgsError::MissingCommand)?.as_str();
        let name = if matches!(name, "--help" | "-h") { "help" } else { name };
        let command = table
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| ParseArgsError::UnknownCommand(name.to_string()))?;
        let mut positional = None;
        let mut flags = BTreeMap::new();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                if command.positional.is_none() || positional.is_some() {
                    return Err(ParseArgsError::UnexpectedPositional(arg.clone()));
                }
                positional = Some(arg.clone());
                continue;
            };
            let value = match command.flags().find(|f| f.name() == name) {
                None => {
                    return Err(ParseArgsError::UnknownFlag {
                        command: command.name,
                        flag: name.to_string(),
                    })
                }
                Some(Flag::Switch(_)) => String::from("true"),
                Some(Flag::Value(_)) => {
                    it.next().ok_or_else(|| ParseArgsError::MissingValue(name.to_string()))?.clone()
                }
            };
            flags.insert(name.to_string(), value);
        }
        if let (Some(usage), None) = (command.positional, &positional) {
            return Err(ParseArgsError::MissingPositional(usage));
        }
        let positional = positional.unwrap_or_default();
        Ok((command, Parsed { positional, flags }))
    }

    /// The positional argument (empty for commands that take none).
    pub fn positional(&self) -> &str {
        &self.positional
    }

    /// A string flag.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// An optional integer flag: `None` when absent, parsed when present.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError::BadValue`] when present but non-numeric.
    pub fn get_opt_u64(&self, flag: &str) -> Result<Option<u64>, ParseArgsError> {
        self.flags
            .get(flag)
            .map(|v| {
                v.parse().map_err(|_| ParseArgsError::BadValue {
                    flag: flag.to_string(),
                    value: v.clone(),
                    expected: "a non-negative integer",
                })
            })
            .transpose()
    }

    /// An integer flag with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError::BadValue`] when present but non-numeric.
    pub fn get_u64(&self, flag: &str, default: u64) -> Result<u64, ParseArgsError> {
        Ok(self.get_opt_u64(flag)?.unwrap_or(default))
    }

    /// A boolean switch.
    pub fn get_switch(&self, flag: &str) -> bool {
        self.flags.get(flag).is_some_and(|v| v == "true")
    }

    /// A comma-separated list flag (e.g. `--cores 2,3,4`), with a
    /// default when absent. Empty items are ignored.
    pub fn get_list(&self, flag: &str, default: &[&str]) -> Vec<String> {
        match self.flags.get(flag) {
            None => default.iter().map(|s| s.to_string()).collect(),
            Some(v) => v.split(',').filter(|s| !s.is_empty()).map(String::from).collect(),
        }
    }

    /// A comma-separated list of integers with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError::BadValue`] when any item is non-numeric.
    pub fn get_u64_list(&self, flag: &str, default: &[u64]) -> Result<Vec<u64>, ParseArgsError> {
        match self.flags.get(flag) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|item| {
                    item.parse().map_err(|_| ParseArgsError::BadValue {
                        flag: flag.to_string(),
                        value: item.to_string(),
                        expected: "a comma-separated list of non-negative integers",
                    })
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use Flag::{Switch, Value};

    const TABLE: &[Command<()>] = &[
        Command::new(
            "campaign",
            None,
            &[
                &[Value("arch"), Value("max-k"), Value("iterations")],
                &[Value("arbiters"), Value("accesses"), Value("cores")],
                &[Switch("no-cache")],
            ],
            (),
        ),
        Command::new("run", Some("rrb run <spec.json>"), &[&[Value("jobs")]], ()),
        Command::new("help", None, &[], ()),
    ];

    fn parse(s: &str) -> Result<Parsed, ParseArgsError> {
        command_and_parse(s).map(|(_, parsed)| parsed)
    }

    fn command_and_parse(s: &str) -> Result<(&'static str, Parsed), ParseArgsError> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        Parsed::parse(&argv, TABLE).map(|(command, parsed)| (command.name, parsed))
    }

    #[test]
    fn parses_command_and_flags() {
        let (command, p) = command_and_parse("campaign --arch var --max-k 70").expect("parse");
        assert_eq!(command, "campaign");
        assert_eq!(p.get("arch"), Some("var"));
        assert_eq!(p.get_u64("max-k", 0).expect("num"), 70);
        assert_eq!(p.get_u64("iterations", 500).expect("num"), 500);
        assert_eq!(p.get_opt_u64("iterations").expect("num"), None);
        assert_eq!(command_and_parse("--help").expect("parse").0, "help");
    }

    #[test]
    fn switches_take_no_value() {
        let p = parse("campaign --no-cache --max-k 10").expect("parse");
        assert!(p.get_switch("no-cache"));
        assert!(!p.get_switch("resume"));
        assert_eq!(p.get_u64("max-k", 0).expect("num"), 10);
    }

    #[test]
    fn missing_command_rejected() {
        assert_eq!(Parsed::parse(&[], TABLE).map(|(_, p)| p), Err(ParseArgsError::MissingCommand));
    }

    #[test]
    fn missing_value_rejected() {
        let e = parse("campaign --max-k").expect_err("must fail");
        assert_eq!(e, ParseArgsError::MissingValue("max-k".into()));
    }

    #[test]
    fn positionals_are_collected_and_rejectable() {
        let p = parse("run spec.json --jobs 2").expect("parse");
        assert_eq!(p.positional(), "spec.json");
        assert_eq!(p.get_u64("jobs", 1).expect("num"), 2);
        let e = parse("run a.json b.json").expect_err("must fail");
        assert_eq!(e, ParseArgsError::UnexpectedPositional("b.json".into()));
        let e = parse("campaign spec.json").expect_err("must fail");
        assert_eq!(e, ParseArgsError::UnexpectedPositional("spec.json".into()));
        let e = parse("run --jobs 2").expect_err("must fail");
        assert_eq!(e, ParseArgsError::MissingPositional("rrb run <spec.json>"));
    }

    #[test]
    fn undeclared_commands_and_flags_are_rejected() {
        let e = parse("derive --max-k 3").expect_err("must fail");
        assert_eq!(e, ParseArgsError::UnknownCommand("derive".into()));
        // Rejected before its value is read, so a stale `--flag N` can
        // never turn into a positional either.
        let e = parse("run spec.json --horizon 4096").expect_err("must fail");
        assert_eq!(e, ParseArgsError::UnknownFlag { command: "run", flag: "horizon".into() });
        let msg = e.to_string();
        assert!(msg.contains("rrb run") && msg.contains("--horizon"), "{msg}");
    }

    #[test]
    fn bad_number_rejected() {
        let p = parse("campaign --max-k many").expect("parse");
        assert!(matches!(p.get_u64("max-k", 0), Err(ParseArgsError::BadValue { .. })));
    }

    #[test]
    fn list_flags_split_on_commas() {
        let p = parse("campaign --arbiters rr,fifo --iterations 100,200").expect("parse");
        assert_eq!(p.get_list("arbiters", &["rr"]), vec!["rr", "fifo"]);
        assert_eq!(p.get_list("accesses", &["load"]), vec!["load"]);
        assert_eq!(p.get_u64_list("iterations", &[50]).expect("nums"), vec![100, 200]);
        assert_eq!(p.get_u64_list("cores", &[4]).expect("nums"), vec![4]);
        assert!(matches!(
            parse("campaign --iterations 1,x").expect("parse").get_u64_list("iterations", &[]),
            Err(ParseArgsError::BadValue { .. })
        ));
    }

    #[test]
    fn error_messages_are_helpful() {
        assert!(ParseArgsError::MissingCommand.to_string().contains("rrb help"));
        assert!(ParseArgsError::MissingValue("x".into()).to_string().contains("--x"));
        assert!(ParseArgsError::MissingPositional("rrb run <spec.json>")
            .to_string()
            .contains("rrb run <spec.json>"));
    }
}
