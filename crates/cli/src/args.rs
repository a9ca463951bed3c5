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
const VALUE_KEYS: [&str; 35] = [
    "betas",
    "cache",
    "k",
    "live-requests",
    "seed",
    "cluster",
    "nodes",
    "replicas",
    "replication",
    "gossip-interval-ms",
    "addr",
    "h3-addr",
    "transport",
    "pages",
    "recipes",
    "gen-latency-ms",
    "device",
    "model",
    "steps",
    "out",
    "site",
    "workers",
    "shards",
    "queue",
    "threads",
    "requests",
    "prompts",
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

/// `text` as a `T`, or the message `main` prints before exiting 2.
fn typed<T: FromStr>(key: &str, text: &str) -> Result<T, String> {
    text.trim().parse().map_err(|_| {
        format!(
            "bad --{key} {text:?}: expected {}",
            std::any::type_name::<T>()
        )
    })
}

impl Args {
    /// Parse from an iterator of arguments (without the program name).
    /// An unknown `--key`, or a value key with no value after it, is an
    /// error naming the key.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
        let mut out = Args::default();
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
            } else if out.command.is_empty() {
                out.command = arg;
            } else {
                out.positionals.push(arg);
            }
        }
        Ok(out)
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
            .map(|text| typed(key, text))
            .transpose()
    }

    /// `--key` as a comma-separated list of `T` (`default` when the
    /// option was not given); one bad element fails the whole list.
    pub fn list<T: FromStr>(&self, key: &str, default: &str) -> Result<Vec<T>, String> {
        self.opt(key, default)
            .split(',')
            .map(|item| typed(key, item))
            .collect()
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
        Args::parse(s.split_whitespace().map(str::to_string))
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
        let a = parse("serve --addr 127.0.0.1:8443 --naive --device laptop");
        assert_eq!(a.opt("addr", ""), "127.0.0.1:8443");
        assert_eq!(a.opt("device", "x"), "laptop");
        assert!(a.has_flag("naive"));
        assert!(!a.has_flag("render"));
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
        let err = try_parse("bench-cluster --replicaton 2").unwrap_err();
        assert_eq!(err, "unknown option --replicaton");
        assert!(try_parse("serve --ability 3").is_err(), "dead key is gone");
        assert!(
            try_parse("bench-cluster --tiles 8").is_err(),
            "dead key is gone"
        );
    }

    #[test]
    fn typed_values_parse_or_name_the_flag() {
        let a = parse("bench-workload --threads 4 --deadline-ms 2500.5 --nodes 4,1,2");
        assert_eq!(a.value::<usize>("threads"), Ok(Some(4)));
        assert_eq!(a.value::<f64>("deadline-ms"), Ok(Some(2500.5)));
        assert_eq!(
            a.value::<usize>("requests"),
            Ok(None),
            "absent, not defaulted"
        );
        assert_eq!(a.list::<usize>("nodes", "1,2,4"), Ok(vec![4, 1, 2]));
        assert_eq!(a.list::<usize>("workers", "1, 2"), Ok(vec![1, 2]));
    }

    #[test]
    fn malformed_scalar_is_an_error() {
        let a = parse("bench-workload --threads abc --deadline-ms 0,05");
        assert_eq!(
            a.value::<usize>("threads").unwrap_err(),
            "bad --threads \"abc\": expected usize"
        );
        assert_eq!(
            a.value::<f64>("deadline-ms").unwrap_err(),
            "bad --deadline-ms \"0,05\": expected f64"
        );
    }

    #[test]
    fn malformed_list_element_is_an_error() {
        let a = parse("bench-cluster --nodes 1,x,4");
        assert_eq!(
            a.list::<usize>("nodes", "1,2,4").unwrap_err(),
            "bad --nodes \"x\": expected usize"
        );
    }

    #[test]
    fn empty_input() {
        let a = parse("");
        assert!(a.command.is_empty());
    }

    #[test]
    fn workload_options_take_values() {
        let a = parse(
            "bench-workload --betas 0.02,0.2,1.0 --k 8 --cache 32 --live-requests 150 --seed 42",
        );
        assert_eq!(a.opt("betas", ""), "0.02,0.2,1.0");
        assert_eq!(a.opt("k", ""), "8");
        assert_eq!(a.opt("cache", ""), "32");
        assert_eq!(a.opt("live-requests", ""), "150");
        assert_eq!(a.opt("seed", ""), "42");
        assert!(a.positionals.is_empty());
    }

    #[test]
    fn cluster_options_take_values() {
        let a = parse("serve --cluster 4 --replicas 128 --replication 2 --gossip-interval-ms 100");
        assert_eq!(a.opt("cluster", ""), "4");
        assert_eq!(a.opt("replicas", ""), "128");
        assert_eq!(a.opt("replication", ""), "2");
        assert_eq!(a.opt("gossip-interval-ms", ""), "100");
        let b = parse("bench-cluster --nodes 1,2,4 --chaos seed=7 --replication 2");
        assert_eq!(b.opt("nodes", ""), "1,2,4");
        assert_eq!(b.opt("chaos", ""), "seed=7");
        assert_eq!(b.opt("replication", ""), "2");
    }
}
