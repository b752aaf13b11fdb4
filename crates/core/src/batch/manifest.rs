//! The sweep manifest: a small line-oriented text format declaring a
//! [`SuitePlan`] — the on-disk face of `langeq sweep`.
//!
//! ## Format
//!
//! ```text
//! # Comments and blank lines are ignored.
//! #
//! # instance <name> <source> [split=K,K,...]
//! #   <source> is a .bench/.blif path (relative to the manifest), or a
//! #   built-in generator:
//! #     gen:figure3        the paper's Figure-3 circuit (default split: 1)
//! #     gen:sim_s510 ...   a Table-1 stand-in (default split: the table's)
//! #     gen:counterN       an N-bit counter (default split: upper half)
//! instance fig3   gen:figure3
//! instance s510   gen:sim_s510
//! instance custom circuits/custom.bench split=2,3
//!
//! # A file source may be a glob (`*` and `?` wildcards, per path
//! # component). The instance name must then be `*`: one instance per
//! # matching file, named by its file stem, in deterministic sorted order.
//! # Zero matches is an error.
//! instance * circuits/*.bench split=0
//!
//! # config <name> [flow=partitioned|monolithic|algorithm1] [trim=on|off]
//! #               [reorder=none|sifting|sifting:THRESHOLD]
//! #               [timeout=SECS] [node-limit=N] [max-states=N]
//! config part flow=partitioned
//! config mono flow=monolithic timeout=60
//! config sift flow=partitioned reorder=sifting
//! ```
//!
//! Instance and config names key the sweep journal, so they must be unique
//! ([`SuitePlan::validate`] enforces this at execution time — two globbed
//! files with the same stem in different directories collide there).

use std::path::{Path, PathBuf};
use std::time::Duration;

use langeq_logic::gen;

use crate::batch::{ConfigSpec, InstanceSpec, SuitePlan};
use crate::solver::{SolverKind, SolverLimits};

/// A manifest parse failure: 1-based line number and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError {
    /// 1-based line of the failure (0 for file-level errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl ManifestError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        ManifestError {
            line,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "manifest line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ManifestError {}

/// Loads and parses a manifest file; relative instance paths resolve
/// against the manifest's directory.
pub fn load_manifest(path: &Path) -> Result<SuitePlan, ManifestError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ManifestError::at(0, format!("reading {}: {e}", path.display())))?;
    let base = path.parent().unwrap_or_else(|| Path::new("."));
    parse_manifest(&text, base)
}

/// Parses manifest text; relative instance paths resolve against `base`.
pub fn parse_manifest(text: &str, base: &Path) -> Result<SuitePlan, ManifestError> {
    let mut plan = SuitePlan::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        match words.next() {
            Some("instance") => {
                for spec in parse_instance(lineno, words, base)? {
                    plan = plan.instance(spec);
                }
            }
            Some("config") => {
                plan = plan.config(parse_config(lineno, words)?);
            }
            Some(other) => {
                return Err(ManifestError::at(
                    lineno,
                    format!("unknown directive `{other}` (expected `instance` or `config`)"),
                ));
            }
            None => unreachable!("blank lines are skipped"),
        }
    }
    Ok(plan)
}

fn parse_instance<'a>(
    lineno: usize,
    mut words: impl Iterator<Item = &'a str>,
    base: &Path,
) -> Result<Vec<InstanceSpec>, ManifestError> {
    let name = words
        .next()
        .ok_or_else(|| ManifestError::at(lineno, "instance needs a name"))?;
    let source = words
        .next()
        .ok_or_else(|| ManifestError::at(lineno, "instance needs a source (path or gen:NAME)"))?;
    let mut split: Option<Vec<usize>> = None;
    for word in words {
        match word.split_once('=') {
            Some(("split", value)) => {
                split = Some(parse_usize_list(lineno, "split", value)?);
            }
            _ => {
                return Err(ManifestError::at(
                    lineno,
                    format!("unknown instance option `{word}` (expected split=K,K,...)"),
                ));
            }
        }
    }

    // Glob expansion: `instance * circuits/*.bench split=0` becomes one
    // instance per matching file, named by its stem, in sorted order.
    if is_glob(source) {
        if source.starts_with("gen:") {
            return Err(ManifestError::at(
                lineno,
                format!("`{source}`: wildcards only apply to file sources"),
            ));
        }
        if name != "*" {
            return Err(ManifestError::at(
                lineno,
                format!(
                    "a glob source needs instance name `*` \
                     (instances are named by their file stems), got `{name}`"
                ),
            ));
        }
        let matches = expand_glob(base, source)
            .map_err(|e| ManifestError::at(lineno, format!("expanding `{source}`: {e}")))?;
        if matches.is_empty() {
            return Err(ManifestError::at(
                lineno,
                format!("`{source}` matches no files under {}", base.display()),
            ));
        }
        let split = split.ok_or_else(|| {
            ManifestError::at(lineno, format!("glob `{source}` needs split=K,K,..."))
        })?;
        return matches
            .iter()
            .map(|path| {
                let stem = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or("unnamed")
                    .to_string();
                let network = load_network_file(path)
                    .map_err(|message| ManifestError::at(lineno, message))?;
                Ok(InstanceSpec::new(stem, network, split.clone()))
            })
            .collect();
    }

    let (network, default_split) =
        resolve_source(source, base).map_err(|message| ManifestError::at(lineno, message))?;
    let unknown_latches = match split.or(default_split) {
        Some(s) => s,
        None => {
            return Err(ManifestError::at(
                lineno,
                format!("instance `{name}` needs an explicit split=K,K,..."),
            ));
        }
    };
    Ok(vec![InstanceSpec::new(name, network, unknown_latches)])
}

/// Resolves an instance source — a `gen:` built-in or a `.bench`/`.blif`
/// path (relative paths against `base`) — to the network and, for
/// built-ins, their canonical default split.
///
/// Public because the serve layer resolves the same `source` strings from
/// request bodies; a drift between the two would make a submitted `gen:`
/// instance and its manifest twin hash to different cache keys.
pub fn resolve_source(
    source: &str,
    base: &Path,
) -> Result<(langeq_logic::Network, Option<Vec<usize>>), String> {
    if let Some(gen_name) = source.strip_prefix("gen:") {
        if gen_name == "figure3" {
            return Ok((gen::figure3(), Some(vec![1])));
        }
        if let Some(bits) = gen_name.strip_prefix("counter") {
            let bits: usize = bits
                .parse()
                .map_err(|_| format!("bad counter size in `{source}`"))?;
            if bits == 0 || bits > 24 {
                return Err(format!("counter size {bits} out of range (1..=24)"));
            }
            let split = (bits / 2..bits).collect();
            return Ok((gen::counter(gen_name, bits), Some(split)));
        }
        if let Some(inst) = gen::table1().into_iter().find(|i| i.name == gen_name) {
            return Ok((inst.network, Some(inst.unknown_latches)));
        }
        return Err(format!(
            "unknown generator `{source}` (gen:figure3, gen:counterN, or a Table-1 name)"
        ));
    }
    let path = base.join(source);
    load_network_file(&path).map(|network| (network, None))
}

/// Loads one `.bench`/`.blif` network file (message-only errors). The
/// extension gate runs *before* the read, so a path without a network
/// extension is never even opened (it could name a pipe or an unbounded
/// pseudo-file).
fn load_network_file(path: &Path) -> Result<langeq_logic::Network, String> {
    let ext = path
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("")
        .to_ascii_lowercase();
    let source = path.display();
    if !matches!(ext.as_str(), "bench" | "blif") {
        return Err(format!(
            "`{source}`: unknown network format `.{ext}` (.bench/.blif)"
        ));
    }
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    if ext == "bench" {
        langeq_logic::bench_fmt::parse(&text).map_err(|e| format!("{source}: {e}"))
    } else {
        langeq_logic::blif::parse(&text).map_err(|e| format!("{source}: {e}"))
    }
}

/// True when a source string contains glob wildcards.
fn is_glob(source: &str) -> bool {
    source.contains(['*', '?'])
}

/// Matches one path component against a `*`/`?` wildcard pattern
/// (iterative star matcher, no separators inside a component).
fn wildcard_match(pattern: &str, name: &str) -> bool {
    let (p, n) = (pattern.as_bytes(), name.as_bytes());
    let (mut pi, mut ni) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while ni < n.len() {
        if pi < p.len() && (p[pi] == b'?' || p[pi] == n[ni]) {
            pi += 1;
            ni += 1;
        } else if pi < p.len() && p[pi] == b'*' {
            star = Some((pi, ni));
            pi += 1;
        } else if let Some((sp, sn)) = star {
            // Backtrack: let the last `*` swallow one more character.
            pi = sp + 1;
            ni = sn + 1;
            star = Some((sp, sn + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == b'*' {
        pi += 1;
    }
    pi == p.len()
}

/// Expands a wildcard pattern against the filesystem, component by
/// component (no `**`), returning the matching **files** sorted by path —
/// the deterministic order the expanded instances appear in. Dotfiles only
/// match patterns that spell out the leading dot.
fn expand_glob(base: &Path, pattern: &str) -> std::io::Result<Vec<PathBuf>> {
    let mut candidates: Vec<PathBuf> = vec![if Path::new(pattern).is_absolute() {
        PathBuf::from("/")
    } else {
        base.to_path_buf()
    }];
    for comp in pattern.split('/').filter(|c| !c.is_empty() && *c != ".") {
        let mut next = Vec::new();
        if !is_glob(comp) {
            for dir in candidates {
                next.push(dir.join(comp));
            }
        } else {
            for dir in candidates {
                let entries = match std::fs::read_dir(&dir) {
                    Ok(entries) => entries,
                    Err(_) => continue, // a non-directory candidate matches nothing
                };
                for entry in entries {
                    let entry = entry?;
                    let name = entry.file_name();
                    let Some(name) = name.to_str() else { continue };
                    if name.starts_with('.') && !comp.starts_with('.') {
                        continue;
                    }
                    if wildcard_match(comp, name) {
                        next.push(dir.join(name));
                    }
                }
            }
        }
        candidates = next;
    }
    let mut files: Vec<PathBuf> = candidates.into_iter().filter(|p| p.is_file()).collect();
    files.sort();
    Ok(files)
}

fn parse_config<'a>(
    lineno: usize,
    mut words: impl Iterator<Item = &'a str>,
) -> Result<ConfigSpec, ManifestError> {
    let name = words
        .next()
        .ok_or_else(|| ManifestError::at(lineno, "config needs a name"))?;
    let mut spec = ConfigSpec::new(name, SolverKind::Partitioned);
    let mut limits = SolverLimits::default();
    for word in words {
        let Some((key, value)) = word.split_once('=') else {
            return Err(ManifestError::at(
                lineno,
                format!("config option `{word}` is not key=value"),
            ));
        };
        match key {
            "flow" => {
                spec.kind = value
                    .parse()
                    .map_err(|e| ManifestError::at(lineno, format!("{e}")))?;
            }
            "trim" => {
                spec.trim_dcn = match value {
                    "on" | "true" | "1" => true,
                    "off" | "false" | "0" => false,
                    _ => {
                        return Err(ManifestError::at(
                            lineno,
                            format!("bad trim value `{value}` (on|off)"),
                        ));
                    }
                };
            }
            "reorder" => {
                spec.reorder = value
                    .parse()
                    .map_err(|e| ManifestError::at(lineno, format!("{e}")))?;
            }
            "timeout" => {
                limits.time_limit = Some(Duration::from_secs(parse_number(lineno, key, value)?));
            }
            "node-limit" => {
                limits.node_limit = Some(parse_number::<usize>(lineno, key, value)?);
            }
            "max-states" => {
                limits.max_states = Some(parse_number::<usize>(lineno, key, value)?);
            }
            other => {
                return Err(ManifestError::at(
                    lineno,
                    format!("unknown config option `{other}`"),
                ));
            }
        }
    }
    spec.limits = limits;
    Ok(spec)
}

fn parse_number<T: std::str::FromStr>(
    lineno: usize,
    key: &str,
    value: &str,
) -> Result<T, ManifestError> {
    value
        .parse()
        .map_err(|_| ManifestError::at(lineno, format!("bad number `{value}` for {key}=")))
}

fn parse_usize_list(lineno: usize, key: &str, value: &str) -> Result<Vec<usize>, ManifestError> {
    value
        .split(',')
        .filter(|t| !t.is_empty())
        .map(|t| {
            t.trim()
                .parse()
                .map_err(|_| ManifestError::at(lineno, format!("bad index `{t}` in {key}=")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_manifest_parses() {
        let text = "\
# Table-1 style mini sweep
instance fig3 gen:figure3                 # default split
instance c4   gen:counter4
instance s510 gen:sim_s510 split=3,4,5

config part flow=partitioned
config mono flow=monolithic timeout=60 node-limit=1000000 max-states=500000
config ablate flow=partitioned trim=off
config sift flow=partitioned reorder=sifting:5000
";
        let plan = parse_manifest(text, Path::new(".")).unwrap();
        assert_eq!(plan.instances().len(), 3);
        assert_eq!(plan.configs().len(), 4);
        assert_eq!(plan.num_cells(), 12);
        assert_eq!(
            plan.configs()[3].reorder,
            langeq_bdd::ReorderPolicy::Sifting {
                auto_threshold: 5000,
                max_growth: langeq_bdd::DEFAULT_MAX_GROWTH,
            }
        );
        assert_eq!(
            plan.configs()[0].reorder,
            langeq_bdd::ReorderPolicy::None,
            "reorder defaults to off"
        );
        assert_eq!(plan.instances()[0].unknown_latches, vec![1]);
        assert_eq!(plan.instances()[1].unknown_latches, vec![2, 3]);
        assert_eq!(plan.instances()[2].unknown_latches, vec![3, 4, 5]);
        let mono = &plan.configs()[1];
        assert_eq!(mono.kind, SolverKind::Monolithic);
        assert_eq!(mono.limits.time_limit, Some(Duration::from_secs(60)));
        assert_eq!(mono.limits.node_limit, Some(1_000_000));
        assert_eq!(mono.limits.max_states, Some(500_000));
        assert!(!plan.configs()[2].trim_dcn);
        plan.validate().unwrap();
    }

    #[test]
    fn file_instances_resolve_relative_to_base() {
        let dir = std::env::temp_dir().join(format!("langeq-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("net.bench"),
            "INPUT(i)\nOUTPUT(o)\ncs = DFF(ns)\nns = AND(i, cs)\no = NOT(cs)\n",
        )
        .unwrap();
        let plan = parse_manifest(
            "instance n net.bench split=0\nconfig p flow=partitioned\n",
            &dir,
        )
        .unwrap();
        assert_eq!(plan.instances()[0].network.num_latches(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = [
            ("widget x", "unknown directive"),
            ("instance a", "needs a source"),
            ("instance a gen:warp", "unknown generator"),
            ("instance a gen:counter0", "out of range"),
            ("instance a missing.bench split=0", "reading"),
            (
                "instance a gen:figure3 frobnicate",
                "unknown instance option",
            ),
            ("config c flow=warp", "unknown flow"),
            ("config c trim=sideways", "bad trim value"),
            ("config c reorder=warp", "unknown reorder policy"),
            ("config c timeout=soon", "bad number"),
            ("config c verbose", "not key=value"),
            ("config c image-jobs=4", "unknown config option"),
            ("config c image-restrict=on", "unknown config option"),
        ];
        for (text, needle) in bad {
            let text = format!("\n{text}\n");
            let err = parse_manifest(&text, Path::new(".")).unwrap_err();
            assert_eq!(err.line, 2, "for `{text}`: {err}");
            assert!(err.message.contains(needle), "for `{text}`: {err}");
        }
    }

    #[test]
    fn wildcard_match_covers_star_and_question() {
        assert!(wildcard_match("*.bench", "s510.bench"));
        assert!(wildcard_match("s?10.bench", "s510.bench"));
        assert!(wildcard_match("*", "anything"));
        assert!(wildcard_match("a*b*c", "a-x-b-y-c"));
        assert!(!wildcard_match("*.bench", "s510.blif"));
        assert!(!wildcard_match("s?10.bench", "s5100.bench"));
        assert!(!wildcard_match("a*b", "a-x-c"));
    }

    #[test]
    fn glob_instances_expand_sorted_with_stem_names() {
        let dir = std::env::temp_dir().join(format!("langeq-manifest-glob-{}", std::process::id()));
        let sub = dir.join("circuits");
        std::fs::create_dir_all(&sub).unwrap();
        let bench = "INPUT(i)\nOUTPUT(o)\ncs = DFF(ns)\nns = AND(i, cs)\no = NOT(cs)\n";
        // Written out of sorted order on purpose; `.blif` must not match.
        for name in ["zeta.bench", "alpha.bench", "mid.bench", "skip.blif"] {
            std::fs::write(sub.join(name), bench).unwrap();
        }
        let plan = parse_manifest(
            "instance * circuits/*.bench split=0\nconfig p flow=partitioned\n",
            &dir,
        )
        .unwrap();
        let names: Vec<&str> = plan.instances().iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
        assert!(plan
            .instances()
            .iter()
            .all(|i| i.unknown_latches == vec![0]));
        plan.validate().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn glob_errors_are_clear() {
        let dir =
            std::env::temp_dir().join(format!("langeq-manifest-glob2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Zero matches.
        let err = parse_manifest("instance * nowhere/*.bench split=0\n", &dir).unwrap_err();
        assert!(err.message.contains("matches no files"), "{err}");
        // A literal name with a glob source.
        let err = parse_manifest("instance named *.bench split=0\n", &dir).unwrap_err();
        assert!(err.message.contains("instance name `*`"), "{err}");
        // A glob without a split.
        std::fs::write(
            dir.join("n.bench"),
            "INPUT(i)\nOUTPUT(o)\ncs = DFF(ns)\nns = AND(i, cs)\no = NOT(cs)\n",
        )
        .unwrap();
        let err = parse_manifest("instance * *.bench\n", &dir).unwrap_err();
        assert!(err.message.contains("split"), "{err}");
        // Wildcards in a generator source.
        let err = parse_manifest("instance * gen:counter* split=0\n", &dir).unwrap_err();
        assert!(err.message.contains("file sources"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_split_for_file_instances_is_an_error() {
        let dir = std::env::temp_dir().join(format!("langeq-manifest2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("net.bench"),
            "INPUT(i)\nOUTPUT(o)\ncs = DFF(ns)\nns = AND(i, cs)\no = NOT(cs)\n",
        )
        .unwrap();
        let err = parse_manifest("instance n net.bench\n", &dir).unwrap_err();
        assert!(err.message.contains("split"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
