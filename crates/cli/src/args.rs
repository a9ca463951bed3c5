//! Tiny argument parser for the `sww` binary (flags + positionals, no
//! external dependency).

use std::collections::HashMap;
use std::str::FromStr;

/// Parsed command line: subcommand, positionals, `--key value` options and
/// `--flag` switches.
#[derive(Debug, Default, Clone)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positionals: Vec<String>,
    /// `--key value` options.
    pub options: HashMap<String, String>,
    /// Bare `--flag` switches.
    pub flags: Vec<String>,
}

/// Option keys that take a value.
const VALUE_KEYS: [&str; 23] = [
    "cluster",
    "replicas",
    "replication",
    "gossip-interval-ms",
    "addr",
    "h3-addr",
    "transport",
    "device",
    "model",
    "steps",
    "out",
    "site",
    "workers",
    "shards",
    "queue",
    "chaos",
    "batch-max",
    "batch-wait",
    "deadline-ms",
    "breaker-threshold",
    "breaker-cooldown-ms",
    "drain-after",
    "kernel-tiles",
];

/// The bare switches. Any other `--key` is a typo, not a switch.
const SWITCHES: [&str; 2] = ["naive", "render"];

impl Args {
    /// Parse from an iterator of arguments (without the program name).
    /// `options_of(command)` names the keys the command reads, `None`
    /// for a command that does not exist: its options are not judged,
    /// so the caller can answer it with the usage text. An unknown
    /// `--key`, a key the command does not read, or a value key with no
    /// value after it is an error naming the key.
    pub fn parse<I: IntoIterator<Item = String>>(
        args: I,
        options_of: impl Fn(&str) -> Option<&'static [&'static str]>,
    ) -> Result<Args, String> {
        let mut out = Args::default();
        let mut given = Vec::new();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if VALUE_KEYS.contains(&key) {
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("--{key} needs a value"))?;
                    out.options.insert(key.to_string(), value);
                } else if SWITCHES.contains(&key) {
                    out.flags.push(key.to_string());
                } else {
                    return Err(format!("unknown option --{key}"));
                }
                given.push(key.to_string());
            } else if out.command.is_empty() {
                out.command = arg;
            } else {
                out.positionals.push(arg);
            }
        }
        let Some(reads) = options_of(&out.command) else {
            return Ok(out);
        };
        match given.iter().find(|key| !reads.contains(&key.as_str())) {
            Some(key) => Err(format!("--{key} is not an option of {:?}", out.command)),
            None => Ok(out),
        }
    }

    /// Option lookup with a default.
    pub fn opt<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.options.get(key).map(String::as_str).unwrap_or(default)
    }

    /// `--key` as a `T`: `None` when the option was not given, an error
    /// naming the flag and the offending text when it does not parse.
    pub fn value<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.options
            .get(key)
            .map(|text| {
                text.trim().parse().map_err(|_| {
                    format!(
                        "bad --{key} {text:?}: expected {}",
                        std::any::type_name::<T>()
                    )
                })
            })
            .transpose()
    }

    /// Whether a switch was given.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_string), crate::options_of)
    }

    fn parse(s: &str) -> Args {
        try_parse(s).expect("well-formed command line")
    }

    #[test]
    fn subcommand_and_positionals() {
        let a = parse("fetch http://x/page other");
        assert_eq!(a.command, "fetch");
        assert_eq!(a.positionals, ["http://x/page", "other"]);
    }

    #[test]
    fn options_and_flags() {
        let a = parse("fetch 127.0.0.1:8443 /p --naive --device laptop");
        assert_eq!(a.opt("device", "x"), "laptop");
        assert!(a.has_flag("naive"));
        assert!(!a.has_flag("render"));
        let b = parse("serve --addr 127.0.0.1:8443");
        assert_eq!(b.opt("addr", ""), "127.0.0.1:8443");
    }

    #[test]
    fn defaults_apply() {
        let a = parse("generate prompt-here");
        assert_eq!(a.opt("steps", "15"), "15");
        assert_eq!(a.opt("model", "sd3"), "sd3");
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = try_parse("serve --addr").unwrap_err();
        assert_eq!(err, "--addr needs a value");
    }

    #[test]
    fn unknown_key_is_an_error() {
        // A misspelt value key used to become a switch and its value a
        // stray positional, so the command ran with the default.
        let err = try_parse("serve --replicaton 2").unwrap_err();
        assert_eq!(err, "unknown option --replicaton");
        assert!(try_parse("serve --ability 3").is_err(), "dead key is gone");
        assert!(try_parse("serve --tiles 8").is_err(), "dead key is gone");
    }

    /// An option of another command used to be accepted and ignored:
    /// `stock landscape --workers 9` printed the catalogue.
    #[test]
    fn a_key_the_command_does_not_read_is_an_error() {
        let err = try_parse("stock landscape --workers 9").unwrap_err();
        assert_eq!(err, "--workers is not an option of \"stock\"");
        let err = try_parse("stats --naive").unwrap_err();
        assert_eq!(err, "--naive is not an option of \"stats\"");
        // A command that does not exist is left to dispatch, which
        // prints the usage: its options are not what is wrong.
        assert_eq!(parse("serv --addr x").command, "serv");
        assert_eq!(parse("nonesuch").command, "nonesuch");
    }

    /// Every key a command reads has an arity here, and every key here
    /// is read by some command.
    #[test]
    fn the_key_lists_and_the_command_table_agree() {
        let read: Vec<&str> = crate::COMMANDS
            .iter()
            .flat_map(|(_, options, _)| options.iter().copied())
            .collect();
        for key in &read {
            assert!(
                VALUE_KEYS.contains(key) || SWITCHES.contains(key),
                "--{key}"
            );
        }
        for key in VALUE_KEYS.iter().chain(&SWITCHES) {
            assert!(read.contains(key), "no command reads --{key}");
        }
    }

    #[test]
    fn typed_values_parse_or_name_the_flag() {
        let a = parse("serve --workers 4 --deadline-ms 2500.5");
        assert_eq!(a.value::<usize>("workers"), Ok(Some(4)));
        assert_eq!(a.value::<f64>("deadline-ms"), Ok(Some(2500.5)));
        assert_eq!(a.value::<usize>("queue"), Ok(None), "absent, not defaulted");
    }

    #[test]
    fn malformed_scalar_is_an_error() {
        let a = parse("serve --workers abc --deadline-ms 0,05");
        assert_eq!(
            a.value::<usize>("workers").unwrap_err(),
            "bad --workers \"abc\": expected usize"
        );
        assert_eq!(
            a.value::<f64>("deadline-ms").unwrap_err(),
            "bad --deadline-ms \"0,05\": expected f64"
        );
    }

    #[test]
    fn empty_input() {
        let a = parse("");
        assert!(a.command.is_empty());
    }

    #[test]
    fn cluster_options_take_values() {
        let a = parse(
            "serve --cluster 4 --replicas 128 --replication 2 --gossip-interval-ms 100 \
             --chaos seed=7",
        );
        assert_eq!(a.opt("cluster", ""), "4");
        assert_eq!(a.opt("replicas", ""), "128");
        assert_eq!(a.opt("replication", ""), "2");
        assert_eq!(a.opt("gossip-interval-ms", ""), "100");
        assert_eq!(a.opt("chaos", ""), "seed=7");
        assert!(a.positionals.is_empty());
    }
}
