//! Minimal command-line parsing for the experiment binaries (no external
//! dependency needed for `--key value` flags).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

use acx_core::AdaptiveClusterIndex;
use acx_serve::{ShardBy, DEFAULT_QUEUE_CAP};
use acx_storage::{FileBacking, FlushPolicy, Wal};

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

    /// `--merge-cooldown N`: the split→merge thrash hysteresis window
    /// in reorganization passes (`0` = off, the default). This
    /// **changes reorganization decisions**, so only the binaries that
    /// study it expose it.
    pub fn merge_cooldown(&self) -> u64 {
        self.get("merge-cooldown", 0)
    }

    /// `--wal PATH` and `--flush-policy record|batch[:N]|epoch`: log
    /// every structural mutation to a write-ahead log at `PATH`. Off by
    /// default — the experiments measure the index itself unless
    /// durability overhead is the point; the policy defaults to
    /// `record` (every record flushed before the mutation applies) and
    /// is meaningful only together with a path.
    pub fn wal(&self) -> WalFlags {
        WalFlags {
            path: self.value("wal").map(PathBuf::from),
            policy: self.get("flush-policy", FlushPolicy::PerRecord),
        }
    }

    /// `--shards N`: shard count for the serving-tier runs. Defaults
    /// to the machine's parallelism (capped at 4 so quick runs stay
    /// bounded), like `--threads` in the batch path.
    pub fn shards(&self) -> usize {
        let default = std::thread::available_parallelism()
            .map(|n| n.get().min(4))
            .unwrap_or(1);
        self.get("shards", default).max(1)
    }

    /// `--shard-by hash|space`: subscription-to-shard assignment for
    /// the serving tier.
    pub fn shard_by(&self) -> ShardBy {
        self.get("shard-by", ShardBy::Hash)
    }

    /// `--queue-cap N`: per-shard ingestion queue capacity for the
    /// serving tier.
    pub fn queue_cap(&self) -> usize {
        self.get("queue-cap", DEFAULT_QUEUE_CAP).max(1)
    }
}

/// The parsed `--wal` / `--flush-policy` pair ([`Flags::wal`]).
pub struct WalFlags {
    path: Option<PathBuf>,
    policy: FlushPolicy,
}

impl WalFlags {
    /// Attaches a [`FileBacking`] WAL to `index` when `--wal PATH` was
    /// passed and returns whether one was attached. Logging adds I/O on
    /// the mutation path but never changes a clustering decision, so
    /// the bins that report decision-surface metrics stay byte-identical
    /// with and without it.
    pub fn attach(&self, index: &mut AdaptiveClusterIndex) -> bool {
        let Some(path) = &self.path else {
            return false;
        };
        let backing =
            FileBacking::create(path).unwrap_or_else(|e| panic!("--wal {}: {e}", path.display()));
        let wal = Wal::create(Box::new(backing), self.policy, index.config().dims)
            .unwrap_or_else(|e| panic!("--wal {}: {e}", path.display()));
        index
            .attach_wal(wal)
            .unwrap_or_else(|e| panic!("--wal {}: {e}", path.display()));
        true
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
        let flags = flags(&["--objects", "40", "--quick", "--shard-by", "space"]);
        assert_eq!(flags.get("objects", 7usize), 40);
        assert!(flags.has("quick"));
        assert_eq!(flags.shard_by(), ShardBy::Space);
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
