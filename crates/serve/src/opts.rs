//! `--key value` flag parsing shared by every command-line front end:
//! `simserved`, `simload` and each `simseq` subcommand.
//!
//! Each command names the flags it reads; a flag outside that list, a
//! flag given twice, or a stray token is rejected before any work starts,
//! so a typo such as `--wall` cannot silently drop an option.

use std::fmt;
use std::str::FromStr;

/// A failed parse, printable for `main`.
#[derive(Debug)]
pub struct OptError(pub String);

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<OptError> for String {
    fn from(e: OptError) -> Self {
        e.0
    }
}

/// Parsed `--key value` pairs.
#[derive(Debug)]
pub struct Opts(Vec<(String, String)>);

impl Opts {
    /// Parses pairs from an argv slice (program and subcommand names
    /// excluded). `known` lists every flag the command reads, separated
    /// by spaces and without the leading `--`.
    pub fn parse(argv: &[String], known: &str) -> Result<Self, OptError> {
        let mut pairs: Vec<(String, String)> = Vec::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| OptError(format!("expected --flag, got `{flag}`")))?;
            if !known.split_whitespace().any(|k| k == key) {
                return Err(OptError(format!(
                    "unknown flag --{key} (accepted: --{})",
                    known.split_whitespace().collect::<Vec<_>>().join(" --")
                )));
            }
            let value = it
                .next()
                .ok_or_else(|| OptError(format!("--{key} needs a value")))?;
            if pairs.iter().any(|(k, _)| k == key) {
                return Err(OptError(format!("--{key} given twice")));
            }
            pairs.push((key.to_string(), value.clone()));
        }
        Ok(Self(pairs))
    }

    /// Looks up a flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Required flag.
    pub fn req(&self, key: &str) -> Result<&str, OptError> {
        self.get(key)
            .ok_or_else(|| OptError(format!("missing required --{key}")))
    }

    /// Optional parsed flag.
    pub fn parse_opt<T: FromStr>(&self, key: &str) -> Result<Option<T>, OptError>
    where
        T::Err: fmt::Display,
    {
        self.get(key)
            .map(|raw| {
                raw.parse()
                    .map_err(|e| OptError(format!("--{key}: bad value `{raw}` ({e})")))
            })
            .transpose()
    }

    /// Optional parsed flag with default.
    pub fn parse_or<T: FromStr>(&self, key: &str, default: T) -> Result<T, OptError>
    where
        T::Err: fmt::Display,
    {
        Ok(self.parse_opt(key)?.unwrap_or(default))
    }

    /// Required parsed flag.
    pub fn req_parse<T: FromStr>(&self, key: &str) -> Result<T, OptError>
    where
        T::Err: fmt::Display,
    {
        self.parse_opt(key)?
            .ok_or_else(|| OptError(format!("missing required --{key}")))
    }

    /// Optional inclusive `LO..HI` range flag, e.g. `--ma 5..34`.
    pub fn range(&self, key: &str) -> Result<Option<(usize, usize)>, OptError> {
        let Some(raw) = self.get(key) else {
            return Ok(None);
        };
        let (lo, hi) = raw
            .split_once("..")
            .ok_or_else(|| OptError(format!("--{key}: expected LO..HI, got `{raw}`")))?;
        let lo = lo
            .parse()
            .map_err(|_| OptError(format!("--{key}: bad LO `{lo}`")))?;
        let hi = hi
            .parse()
            .map_err(|_| OptError(format!("--{key}: bad HI `{hi}`")))?;
        if lo > hi {
            return Err(OptError(format!("--{key}: LO > HI in `{raw}`")));
        }
        Ok(Some((lo, hi)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    const KNOWN: &str = "addr conns ops ma bad rho";

    #[test]
    fn parses_flags() {
        let o = Opts::parse(&argv("--addr 127.0.0.1:0 --conns 8"), KNOWN).unwrap();
        assert_eq!(o.req("addr").unwrap(), "127.0.0.1:0");
        assert_eq!(o.parse_or("conns", 1usize).unwrap(), 8);
        assert_eq!(o.parse_or("ops", 5usize).unwrap(), 5);
        assert!(o.req("ops").is_err());
    }

    #[test]
    fn parses_typed_values() {
        let o = Opts::parse(&argv("--addr host --rho 0.96"), KNOWN).unwrap();
        let rho: f64 = o.req_parse("rho").unwrap();
        assert!((rho - 0.96).abs() < 1e-12);
        assert!(o.req_parse::<usize>("ops").is_err());
        assert!(o.get("ops").is_none());
        assert_eq!(o.parse_opt::<usize>("ops").unwrap(), None);
        assert!(o.parse_or("addr", 1usize).is_err());
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(Opts::parse(&argv("addr"), KNOWN).is_err());
        assert!(Opts::parse(&argv("--addr"), KNOWN).is_err());
        assert!(Opts::parse(&[], KNOWN).unwrap().get("addr").is_none());
    }

    #[test]
    fn rejects_unknown_flags() {
        let e = Opts::parse(&argv("--addr a --wall w"), KNOWN).unwrap_err();
        assert!(e.0.contains("unknown flag --wall"), "{e}");
    }

    #[test]
    fn rejects_repeated_flags() {
        let e = Opts::parse(&argv("--addr a --addr b"), KNOWN).unwrap_err();
        assert!(e.0.contains("--addr given twice"), "{e}");
        assert!(Opts::parse(&argv("--addr a stray"), KNOWN).is_err());
        assert!(Opts::parse(&argv("--addr a --conns"), KNOWN).is_err());
    }

    #[test]
    fn parses_ranges() {
        let o = Opts::parse(&argv("--ma 5..34 --bad x..y"), KNOWN).unwrap();
        assert_eq!(o.range("ma").unwrap(), Some((5, 34)));
        assert_eq!(o.range("ops").unwrap(), None);
        assert!(o.range("bad").is_err());
        let o = Opts::parse(&argv("--ma 9..3"), KNOWN).unwrap();
        let e = o.range("ma").unwrap_err();
        assert!(e.0.contains("LO > HI"), "{e}");
        let o = Opts::parse(&argv("--ma 7"), KNOWN).unwrap();
        assert!(o.range("ma").is_err());
    }
}
