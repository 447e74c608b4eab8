//! `lint.toml` parsing — a hand-rolled TOML subset (no dependencies).
//!
//! Supported grammar: `[table]` headers, `[[array-of-tables]]` headers,
//! `key = "string"` and `key = ["a", "b"]` entries (arrays may span several
//! lines and carry a trailing comma), `#` comments. That is all the
//! configuration needs; anything else is a hard error so typos fail CI
//! instead of silently disabling a lint.

/// A module region declared hot: allocation is banned inside the bodies of
/// the listed functions of the file.
#[derive(Clone, Debug, Default)]
pub struct HotRegion {
    /// Repo-relative file path (forward slashes).
    pub file: String,
    /// Function names whose bodies are allocation-free hot code.
    pub functions: Vec<String>,
}

/// The graf-lint configuration, deserialized from `lint.toml`.
#[derive(Clone, Debug)]
pub struct Config {
    /// Crates exempt from `wallclock-in-deterministic-crate`.
    pub wallclock_exempt_crates: Vec<String>,
    /// Crates where `unordered-map-iteration` applies.
    pub ordered_crates: Vec<String>,
    /// Files allowed to construct RNGs from raw seeds (`unseeded-rng`).
    pub rng_home: Vec<String>,
    /// Path prefixes excluded from the workspace walk.
    pub exclude: Vec<String>,
    /// Hot regions for `hot-alloc`.
    pub hot: Vec<HotRegion>,
    /// `[analyze] ordered-reduction-files`: the files allowed to use
    /// `std::thread`, whose parallelism is deterministic by construction
    /// (per-chunk seeds + ordered reduction).
    pub ordered_reduction_files: Vec<String>,
    /// `[analyze] parallel-adjacent-files`: where `unordered-float-reduction`
    /// applies — modules that run under, or adjacent to, thread parallelism.
    pub parallel_adjacent_files: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            wallclock_exempt_crates: vec!["obs".into(), "bench".into()],
            ordered_crates: vec!["sim".into(), "trace".into(), "core".into(), "gnn".into()],
            rng_home: vec!["crates/sim/src/rng.rs".into()],
            exclude: vec!["target".into()],
            hot: Vec::new(),
            ordered_reduction_files: Vec::new(),
            parallel_adjacent_files: Vec::new(),
        }
    }
}

impl Config {
    /// Parses the TOML-subset text. Returns a message on malformed input.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config { hot: Vec::new(), ..Config::default() };
        let mut section = String::new();
        let mut lines = text.lines().enumerate();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx + 1;
            let mut line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            // A `key = [` value may span several lines: keep consuming until
            // the brackets balance (quote-aware, so `"]"` never closes one).
            if line.contains('=') {
                let mut balance = bracket_balance(&line);
                while balance > 0 {
                    let Some((_, cont)) = lines.next() else {
                        return Err(format!("lint.toml:{lineno}: unterminated `[` array"));
                    };
                    let cont = strip_comment(cont).trim().to_string();
                    balance += bracket_balance(&cont);
                    line.push(' ');
                    line.push_str(&cont);
                }
            }
            let line = line.as_str();
            if let Some(name) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
                let name = name.trim();
                if name != "hot" {
                    return Err(format!("lint.toml:{lineno}: unknown array-of-tables [[{name}]]"));
                }
                cfg.hot.push(HotRegion::default());
                section = "hot".into();
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                section = name.trim().to_string();
                match section.as_str() {
                    "wallclock" | "unordered-map" | "rng" | "scan" | "analyze" => {}
                    other => return Err(format!("lint.toml:{lineno}: unknown table [{other}]")),
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("lint.toml:{lineno}: expected `key = value`"));
            };
            let key = key.trim();
            let value = value.trim();
            match (section.as_str(), key) {
                ("wallclock", "exempt-crates") => {
                    cfg.wallclock_exempt_crates = parse_string_array(value, lineno)?
                }
                ("unordered-map", "crates") => {
                    cfg.ordered_crates = parse_string_array(value, lineno)?
                }
                ("rng", "home") => cfg.rng_home = parse_string_array(value, lineno)?,
                ("scan", "exclude") => cfg.exclude = parse_string_array(value, lineno)?,
                ("analyze", "ordered-reduction-files") => {
                    cfg.ordered_reduction_files = parse_string_array(value, lineno)?
                }
                ("analyze", "parallel-adjacent-files") => {
                    cfg.parallel_adjacent_files = parse_string_array(value, lineno)?
                }
                ("hot", "file") => {
                    let entry = cfg
                        .hot
                        .last_mut()
                        .ok_or_else(|| format!("lint.toml:{lineno}: `file` outside [[hot]]"))?;
                    entry.file = parse_string(value, lineno)?;
                }
                ("hot", "functions") => {
                    let entry = cfg.hot.last_mut().ok_or_else(|| {
                        format!("lint.toml:{lineno}: `functions` outside [[hot]]")
                    })?;
                    entry.functions = parse_string_array(value, lineno)?;
                }
                (sec, key) => {
                    return Err(format!("lint.toml:{lineno}: unknown key `{key}` in [{sec}]"))
                }
            }
        }
        for h in &cfg.hot {
            if h.file.is_empty() {
                return Err("lint.toml: [[hot]] entry missing `file`".into());
            }
        }
        Ok(cfg)
    }
}

/// Strips a trailing `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

/// Net `[` minus `]` count outside double-quoted strings.
fn bracket_balance(line: &str) -> i32 {
    let mut in_str = false;
    let mut prev_backslash = false;
    let mut balance = 0i32;
    for c in line.chars() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '[' if !in_str => balance += 1,
            ']' if !in_str => balance -= 1,
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    balance
}

fn parse_string(value: &str, lineno: usize) -> Result<String, String> {
    let inner = value
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("lint.toml:{lineno}: expected a double-quoted string"))?;
    Ok(inner.to_string())
}

fn parse_string_array(value: &str, lineno: usize) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("lint.toml:{lineno}: expected `[\"a\", \"b\"]`"))?;
    let inner = inner.trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner
        .split(',')
        .map(|item| item.trim())
        .filter(|item| !item.is_empty()) // trailing comma
        .map(|item| parse_string(item, lineno))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let text = r#"
# comment
[wallclock]
exempt-crates = ["obs", "bench"]

[unordered-map]
crates = ["sim", "trace"]

[rng]
home = ["crates/sim/src/rng.rs"]

[scan]
exclude = ["target"] # trailing comment

[[hot]]
file = "crates/nn/src/matrix.rs"
functions = ["matmul_into", "dot"]

[[hot]]
file = "crates/nn/src/mlp.rs"
functions = ["forward_into"]
"#;
        let cfg = Config::parse(text).expect("parses");
        assert_eq!(cfg.wallclock_exempt_crates, vec!["obs", "bench"]);
        assert_eq!(cfg.ordered_crates, vec!["sim", "trace"]);
        assert_eq!(cfg.hot.len(), 2);
        assert_eq!(cfg.hot[0].functions, vec!["matmul_into", "dot"]);
        assert_eq!(cfg.hot[1].file, "crates/nn/src/mlp.rs");
    }

    #[test]
    fn multi_line_array_with_trailing_comma_parses() {
        let text = r#"
[[hot]]
file = "crates/nn/src/matrix.rs"
functions = [
    "matmul_into",  # per-layer kernel
    "dot",
    "fill_zero",
]
"#;
        let cfg = Config::parse(text).expect("parses");
        assert_eq!(cfg.hot[0].functions, vec!["matmul_into", "dot", "fill_zero"]);
    }

    #[test]
    fn multi_line_array_respects_brackets_in_strings() {
        let text = "[scan]\nexclude = [\n    \"a[b\",\n    \"c]d\",\n]\n";
        let cfg = Config::parse(text).expect("parses");
        assert_eq!(cfg.exclude, vec!["a[b", "c]d"]);
    }

    #[test]
    fn unterminated_array_is_an_error() {
        assert!(Config::parse("[scan]\nexclude = [\n    \"a\",\n").is_err());
    }

    #[test]
    fn parses_analyze_section() {
        let text = r#"
[analyze]
ordered-reduction-files = ["crates/gnn/src/model.rs"]
parallel-adjacent-files = [
    "crates/gnn/src/model.rs",
    "crates/bench/src/run.rs",
]
"#;
        let cfg = Config::parse(text).expect("parses");
        assert_eq!(cfg.ordered_reduction_files, vec!["crates/gnn/src/model.rs"]);
        assert_eq!(
            cfg.parallel_adjacent_files,
            vec!["crates/gnn/src/model.rs", "crates/bench/src/run.rs"]
        );
    }

    #[test]
    fn unknown_table_is_an_error() {
        assert!(Config::parse("[nonsense]\n").is_err());
    }

    #[test]
    fn unknown_key_is_an_error() {
        assert!(Config::parse("[scan]\ntypo = [\"x\"]\n").is_err());
        // The lint follows no calls, so there are no roots or barriers to
        // configure: these keys fail loudly instead of configuring nothing.
        for key in ["entry-points", "alloc-allowed", "exempt-crates"] {
            assert!(Config::parse(&format!("[analyze]\n{key} = []\n")).is_err(), "{key}");
        }
    }

    #[test]
    fn hot_without_file_is_an_error() {
        assert!(Config::parse("[[hot]]\nfunctions = [\"f\"]\n").is_err());
    }

    #[test]
    fn empty_array_parses() {
        let cfg = Config::parse("[scan]\nexclude = []\n").expect("parses");
        assert!(cfg.exclude.is_empty());
    }
}
