//! The one keyword idiom behind the crate's `Display`/`FromStr` grammars.
//!
//! A grammar's keywords live in one table: each variant with the spellings
//! it accepts, canonical spelling first. `Display` prints the canonical
//! spelling and `FromStr` looks up the [`norm`]ed input, so every grammar
//! normalises input the same way and `Display` → `FromStr` round-trips.
//! Parameterised grammars (`ring_lbest:<k>`, `jobs=N,elems=M`, …) split
//! [`norm`]ed input themselves and read their numbers through [`field`].

use std::str::FromStr;

/// Each variant with its accepted spellings, canonical spelling first.
pub(crate) type Table<T> = [(T, &'static [&'static str])];

/// Input as every grammar sees it: trimmed and ASCII-lowercased.
pub(crate) fn norm(s: &str) -> String {
    s.trim().to_ascii_lowercase()
}

/// The canonical spelling of `v`.
pub(crate) fn key<T: PartialEq>(table: &Table<T>, v: T) -> &'static str {
    let row = table.iter().find(|(t, _)| *t == v);
    row.expect("every keyword variant has a table row").1[0]
}

/// The variant `s` spells, or an error naming `what` and the canonical keys.
pub(crate) fn parse<T: Copy>(table: &Table<T>, what: &str, s: &str) -> Result<T, String> {
    let s_norm = norm(s);
    if let Some(&(v, _)) = table.iter().find(|(_, ss)| ss.contains(&s_norm.as_str())) {
        return Ok(v);
    }
    let keys: Vec<_> = table.iter().map(|(_, ss)| ss[0]).collect();
    let (s, keys) = (s.trim(), keys.join(", "));
    Err(format!("unknown {what} {s:?} (expected one of: {keys})"))
}

/// The numeric field `what` of a parameterised grammar, or an error that
/// quotes `v` and names the whole `grammar`.
pub(crate) fn field<N: FromStr>(what: &str, v: &str, grammar: &str) -> Result<N, String> {
    v.parse()
        .map_err(|_| format!("bad {what} {v:?} ({grammar})"))
}
