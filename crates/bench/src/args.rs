//! Minimal command-line parsing for the experiment binaries (no external
//! dependency needed for `--key value` flags).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Parsed `--key value` flags. Every lookup is remembered, so
/// [`Flags::finish`] can reject what was passed but never asked for.
pub struct Flags {
    values: HashMap<String, String>,
    present: Vec<String>,
    /// Names looked up so far, by any accessor.
    read: RefCell<HashSet<String>>,
}

impl Flags {
    /// Parses the process arguments. Flags are `--name value` pairs;
    /// bare `--name` toggles are recorded as present.
    pub fn from_env() -> Self {
        Self::from_args(std::env::args().skip(1).collect())
    }

    /// Parses an explicit argument vector (no leading program name) —
    /// the testable entry point.
    pub fn from_args(argv: Vec<String>) -> Self {
        let mut values = HashMap::new();
        let mut present = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let arg = &argv[i];
            if let Some(name) = arg.strip_prefix("--") {
                if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                    values.insert(name.to_string(), argv[i + 1].clone());
                    i += 2;
                    continue;
                }
                present.push(name.to_string());
            }
            i += 1;
        }
        Self {
            values,
            present,
            read: RefCell::new(HashSet::new()),
        }
    }

    /// The value passed for `--name`, if any; records the lookup.
    fn value(&self, name: &str) -> Option<&String> {
        self.read.borrow_mut().insert(name.to_string());
        self.values.get(name)
    }

    /// Ends flag parsing: call once every flag the binary understands
    /// has been looked up, before any work starts.
    ///
    /// # Panics
    ///
    /// Panics if a flag was passed that no accessor asked for — a typo,
    /// or a flag this binary no longer has. Ignoring it would run the
    /// defaults under a command line that says otherwise (an old script
    /// passing `--stats-layout per-cluster` would measure the production
    /// path and label it an ablation).
    pub fn finish(&self) {
        let read = self.read.borrow();
        let mut unread: Vec<&str> = self
            .values
            .keys()
            .chain(&self.present)
            .map(String::as_str)
            .filter(|name| !read.contains(*name))
            .collect();
        unread.sort_unstable();
        assert!(
            unread.is_empty(),
            "unknown flag(s): --{}",
            unread.join(", --")
        );
    }

    /// Typed lookup with default.
    ///
    /// # Panics
    ///
    /// Panics on a present-but-unparseable value, naming the flag and
    /// giving the parser's own message: falling back to the default
    /// would run a different experiment than the command line says.
    pub fn get<T>(&self, name: &str, default: T) -> T
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        match self.value(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|e| panic!("--{name}: {e}")),
        }
    }

    /// Whether a bare flag was passed.
    pub fn has(&self, name: &str) -> bool {
        self.value(name).is_some() || self.present.iter().any(|p| p == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(argv: &[&str]) -> Flags {
        Flags::from_args(argv.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn finish_accepts_flags_that_were_all_read() {
        let flags = flags(&["--objects", "40", "--quick", "--dims", "8"]);
        assert_eq!(flags.get("objects", 7usize), 40);
        assert!(flags.has("quick"));
        assert_eq!(flags.get("dims", 16usize), 8);
        assert_eq!(flags.get("seed", 3u64), 3, "absent flags keep their default");
        flags.finish();
    }

    #[test]
    #[should_panic(expected = "unknown flag(s): --stats-layout, --zone-maps")]
    fn finish_rejects_flags_nobody_read() {
        let flags = flags(&["--zone-maps", "off", "--objects", "40", "--stats-layout", "per-cluster"]);
        assert_eq!(flags.get("objects", 7usize), 40);
        flags.finish();
    }

    #[test]
    #[should_panic(expected = "--objects: invalid digit")]
    fn get_rejects_a_malformed_value() {
        flags(&["--objects", "abc"]).get("objects", 7usize);
    }

    #[test]
    #[should_panic(expected = "unknown flag(s): --fulll")]
    fn finish_rejects_unread_bare_flags() {
        let flags = flags(&["--fulll"]);
        assert!(!flags.has("full"));
        flags.finish();
    }
}
