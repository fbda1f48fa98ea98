//! Shared helpers for the figure/table regeneration and benchmark
//! binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf_sim::{ArrayDims, RoArray, RoArrayBuilder};

/// A deterministic device array for the harness binaries.
pub fn standard_array(seed: u64, dims: ArrayDims) -> RoArray {
    let mut rng = StdRng::seed_from_u64(seed);
    RoArrayBuilder::new(dims).build(&mut rng)
}

/// Prints a standard experiment header.
pub fn header(id: &str, claim: &str) {
    println!("================================================================");
    println!("{id}");
    println!("paper claim: {claim}");
    println!("================================================================");
}

/// Parsed command-line flags of the form `--name value` or bare
/// `--switch` (shared across the harness binaries; no external argument
/// parser in the offline crate set).
#[derive(Debug, Clone, Default)]
pub struct Flags {
    entries: Vec<(String, Option<String>)>,
}

impl Flags {
    /// The raw value of `--name value`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// `true` when `--name` appeared (with or without a value).
    pub fn has(&self, name: &str) -> bool {
        self.entries.iter().any(|(n, _)| n == name)
    }

    /// `--name value` parsed as `usize`.
    ///
    /// # Panics
    ///
    /// Panics with a readable message when the value is not an integer.
    pub fn get_usize(&self, name: &str) -> Option<usize> {
        self.get(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--{name} expects an integer, got {v:?}"))
        })
    }

    /// `--name value` parsed as `u64`.
    ///
    /// # Panics
    ///
    /// Panics with a readable message when the value is not an integer.
    pub fn get_u64(&self, name: &str) -> Option<u64> {
        self.get(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--{name} expects an integer, got {v:?}"))
        })
    }

    /// The value of `--name`, panicking when the flag appeared without
    /// one (use for flags where silently skipping would lose work, e.g.
    /// artifact output paths).
    ///
    /// # Panics
    ///
    /// Panics when `--name` was given value-less.
    pub fn get_required_value(&self, name: &str) -> Option<&str> {
        if !self.has(name) {
            return None;
        }
        match self.get(name) {
            Some(v) => Some(v),
            None => panic!("--{name} requires a value"),
        }
    }

    /// Rejects flags outside `known`, so a typo fails loudly instead of
    /// silently running with defaults. Call once after [`parse_flags`].
    ///
    /// # Panics
    ///
    /// Panics naming the unknown flag and the accepted set.
    pub fn expect_known(&self, known: &[&str]) {
        for (name, _) in &self.entries {
            assert!(
                known.contains(&name.as_str()),
                "unknown flag --{name}; accepted: {}",
                known
                    .iter()
                    .map(|k| format!("--{k}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
        }
    }
}

/// Parses `std::env::args` into [`Flags`]: `--name value`, `--name=value`
/// or bare `--switch` (a following token starting with `--` leaves the
/// flag value-less).
pub fn parse_flags() -> Flags {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut entries = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            if let Some((name, value)) = name.split_once('=') {
                entries.push((name.to_string(), Some(value.to_string())));
            } else {
                let value = args.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
                if value.is_some() {
                    i += 1;
                }
                entries.push((name.to_string(), value));
            }
        } else {
            panic!(
                "unexpected positional argument {:?}; flags look like --name value",
                args[i]
            );
        }
        i += 1;
    }
    Flags { entries }
}

/// Writes a campaign artifact (JSON/CSV) to `path`, creating parent
/// directories, and logs the destination.
///
/// # Panics
///
/// Panics when the path is not writable — artifacts are the point of
/// the run, so failing loudly beats succeeding silently.
pub fn write_artifact(path: &str, content: &str) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", parent.display()));
        }
    }
    std::fs::write(path, content).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path} ({} bytes)", content.len());
}

#[cfg(test)]
mod tests {
    use super::Flags;

    #[test]
    fn flag_lookup() {
        let flags = Flags {
            entries: vec![
                ("devices".into(), Some("32".into())),
                ("early-exit".into(), None),
                ("seed".into(), Some("7".into())),
            ],
        };
        assert_eq!(flags.get_usize("devices"), Some(32));
        assert_eq!(flags.get_u64("seed"), Some(7));
        assert!(flags.has("early-exit"));
        assert!(!flags.has("json"));
        assert_eq!(flags.get("json"), None);
        assert_eq!(flags.get_required_value("json"), None);
        flags.expect_known(&["devices", "early-exit", "seed"]);
    }

    #[test]
    #[should_panic(expected = "unknown flag --devcies")]
    fn unknown_flag_is_rejected() {
        let flags = Flags {
            entries: vec![("devcies".into(), Some("32".into()))],
        };
        flags.expect_known(&["devices"]);
    }

    #[test]
    #[should_panic(expected = "--json requires a value")]
    fn valueless_artifact_flag_panics() {
        let flags = Flags {
            entries: vec![("json".into(), None)],
        };
        flags.get_required_value("json");
    }
}
