//! Minimal argument parsing: positionals and `--flag value` options.

use gogreen_data::MinSupport;

/// Parsed command line: positionals in order, options by name.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    options: Vec<(String, String)>,
}

impl Args {
    /// Splits `argv` into positionals and `--name value` / `-o value`
    /// options. An option whose name is not in `accepted` is an error
    /// listing the accepted names, and so is a `--name` at the end of
    /// the line.
    pub fn parse(argv: Vec<String>, accepted: &[&str]) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = argv.into_iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) {
                if !accepted.contains(&name) {
                    let names: Vec<String> = accepted
                        .iter()
                        .map(|n| if n.len() == 1 { format!("-{n}") } else { format!("--{n}") })
                        .collect();
                    let names = if names.is_empty() { "none".into() } else { names.join(" ") };
                    return Err(format!("unknown option {a} (accepted: {names})"));
                }
                let value = it.next().ok_or_else(|| format!("option --{name} expects a value"))?;
                out.options.push((name.to_owned(), value));
            } else {
                out.positional.push(a);
            }
        }
        Ok(out)
    }

    /// The `idx`-th positional, or an error naming it.
    pub fn positional(&self, idx: usize, what: &str) -> Result<&str, String> {
        self.positional.get(idx).map(String::as_str).ok_or_else(|| format!("missing {what}"))
    }

    /// An optional `--name` value.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.options.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// A required `--name` value.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.opt(name).ok_or_else(|| format!("missing required option --{name}"))
    }
}

/// Parses `5%` or `0.5%` as relative, `120` as absolute support.
pub fn parse_support(text: &str) -> Result<MinSupport, String> {
    if let Some(pct) = text.strip_suffix('%') {
        let p: f64 = pct.parse().map_err(|_| format!("invalid support percentage {text:?}"))?;
        if !(0.0..=100.0).contains(&p) {
            return Err(format!("support percentage {p} outside 0..=100"));
        }
        Ok(MinSupport::percent(p))
    } else {
        let n: u64 = text.parse().map_err(|_| format!("invalid support count {text:?}"))?;
        Ok(MinSupport::Absolute(n))
    }
}

/// Parses a comma-separated item id list.
pub fn parse_items(text: &str) -> Result<Vec<u32>, String> {
    text.split(',')
        .map(|t| t.trim().parse().map_err(|_| format!("invalid item id {t:?}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn positionals_and_options_mix() {
        let accepted = ["support", "o", "algo"];
        let a =
            Args::parse(argv(&["db.txt", "--support", "5%", "-o", "out.txt"]), &accepted).unwrap();
        assert_eq!(a.positional(0, "db").unwrap(), "db.txt");
        assert_eq!(a.opt("support"), Some("5%"));
        assert_eq!(a.opt("o"), Some("out.txt"));
        assert_eq!(a.opt("algo"), None);
        assert!(a.positional(1, "x").is_err());
        assert!(a.required("algo").is_err());
    }

    #[test]
    fn dangling_option_is_an_error() {
        assert!(Args::parse(argv(&["db.txt", "--support"]), &["support"]).is_err());
    }

    #[test]
    fn unknown_options_are_errors_listing_the_accepted_names() {
        let err = Args::parse(argv(&["db.txt", "--thread", "4"]), &["threads", "o"]).unwrap_err();
        assert_eq!(err, "unknown option --thread (accepted: --threads -o)");
        assert!(Args::parse(argv(&["db.txt"]), &[]).is_ok(), "positionals need no names");
        let err = Args::parse(argv(&["--o", "x"]), &[]).unwrap_err();
        assert_eq!(err, "unknown option --o (accepted: none)");
    }

    /// There is no valueless switch kind: a bare flag is an unknown
    /// option like any other, wherever it stands on the line.
    #[test]
    fn switches_consume_no_value() {
        for line in [&["--verbose"][..], &["db.txt", "--verbose", "--algo", "fp"]] {
            let err = Args::parse(argv(line), &["algo"]).unwrap_err();
            assert!(err.starts_with("unknown option --verbose"), "{err}");
        }
    }

    #[test]
    fn later_options_win() {
        let a = Args::parse(argv(&["--algo", "fp", "--algo", "tp"]), &["algo"]).unwrap();
        assert_eq!(a.opt("algo"), Some("tp"));
    }

    #[test]
    fn support_formats() {
        assert_eq!(parse_support("5%").unwrap(), MinSupport::percent(5.0));
        assert_eq!(parse_support("0.5%").unwrap(), MinSupport::percent(0.5));
        assert_eq!(parse_support("120").unwrap(), MinSupport::Absolute(120));
        assert!(parse_support("abc").is_err());
        assert!(parse_support("150%").is_err());
    }

    #[test]
    fn item_lists() {
        assert_eq!(parse_items("1,2, 3").unwrap(), vec![1, 2, 3]);
        assert!(parse_items("1,x").is_err());
    }
}
