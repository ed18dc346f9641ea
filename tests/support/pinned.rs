//! The pinned-bytes manifest: one helper for every test that pins output
//! bytes as 64-bit digests.
//!
//! A pinning test computes its `(name, digest)` list and hands it to
//! [`assert_pinned`], which compares it with the test's pin file
//! `tests/golden/pins/<test>.txt` at the workspace root: one `name 0x…`
//! line per digest, in the order the test produces them. Test files
//! include this module through `#[path]`, so no crate is needed for it.
//!
//! One failure reports every name that moved, that the file does not know,
//! or that the run did not produce, and every name that got two digests in
//! one run (say, at two thread budgets). After an intentional byte change,
//! re-bless the pins and the golden CSV together with
//!
//! ```sh
//! PGB_BLESS=1 cargo test
//! ```
//!
//! and review the diff of `tests/golden` like any other change. Bless
//! keeps the text of every digest that did not move, and refuses to write
//! a name that got two digests.

#![allow(dead_code)]

use std::fmt::Write as _;
use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};

/// 64-bit FNV-1a with the standard prime 2^40 + 0x1b3, continuing from
/// `h` (start from `pgb_par::FNV_BASIS`). Not `pgb_par::fnv1a_from`, whose
/// multiplier is 2^44 + 0x1b3: the Louvain and path-sweep digests were
/// taken with this one.
pub fn fnv1a_std(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The workspace's `tests/golden/pins` directory, found from the including
/// crate's manifest directory upwards.
fn pins_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .map(|dir| dir.join("tests/golden/pins"))
        .find(|dir| dir.is_dir())
        .expect("no tests/golden/pins directory above the crate")
}

/// Checks `got` against `test`'s pin file, or rewrites the file when
/// `PGB_BLESS` is set.
///
/// # Panics
/// Panics with every mismatch listed; see the module docs.
#[track_caller]
pub fn assert_pinned(test: &str, got: &[(String, u64)]) {
    let bless = std::env::var_os("PGB_BLESS").is_some();
    if let Err(report) = check(&pins_dir(), test, got, bless) {
        panic!("{report}");
    }
}

/// One line of a pin file.
struct Pin {
    name: String,
    /// The digest as written, underscores and all.
    text: String,
    value: u64,
}

fn parse(text: &str) -> Result<Vec<Pin>, String> {
    let mut pins: Vec<Pin> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let bad = || format!("line {}: expected `name 0x…`, found {line:?}", i + 1);
        let mut words = line.split_whitespace();
        let (Some(name), Some(text), None) = (words.next(), words.next(), words.next()) else {
            return Err(bad());
        };
        let digits = text.strip_prefix("0x").ok_or_else(bad)?.replace('_', "");
        let value = u64::from_str_radix(&digits, 16).map_err(|_| bad())?;
        if pins.iter().any(|p| p.name == name) {
            return Err(format!("line {}: {name} is pinned twice", i + 1));
        }
        pins.push(Pin { name: name.to_string(), text: text.to_string(), value });
    }
    Ok(pins)
}

/// A fresh digest's text: four underscore-separated groups of four.
fn hex(d: u64) -> String {
    format!(
        "0x{:04x}_{:04x}_{:04x}_{:04x}",
        d >> 48,
        (d >> 32) & 0xffff,
        (d >> 16) & 0xffff,
        d & 0xffff
    )
}

/// [`assert_pinned`] with the pin directory and the bless switch explicit:
/// `Err` carries the failure report.
pub fn check(dir: &Path, test: &str, got: &[(String, u64)], bless: bool) -> Result<(), String> {
    let path = dir.join(format!("{test}.txt"));
    let old = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let pins = parse(&old).map_err(|e| format!("{}: {e}", path.display()))?;

    // The run's digests by name, in order of first appearance.
    let mut run: Vec<(&str, Vec<u64>)> = Vec::new();
    for (name, digest) in got {
        assert!(
            !name.is_empty() && !name.contains(char::is_whitespace),
            "pin name {name:?} must be one word"
        );
        match run.iter_mut().find(|(n, _)| n == name) {
            Some((_, values)) if !values.contains(digest) => values.push(*digest),
            Some(_) => {}
            None => run.push((name, vec![*digest])),
        }
    }

    let mut problems = Vec::new();
    for (name, values) in &run {
        let pin = pins.iter().find(|p| p.name == *name);
        if values.len() > 1 {
            let values: Vec<String> = values.iter().map(|&v| hex(v)).collect();
            problems.push(format!("{name}: {} digests in one run", values.join(" and ")));
        } else if let Some(pin) = pin {
            if pin.value != values[0] {
                problems.push(format!("{name}: moved from {} to {}", pin.text, hex(values[0])));
            }
        } else {
            problems.push(format!("{name}: not pinned, got {}", hex(values[0])));
        }
    }
    for pin in pins.iter().filter(|p| !run.iter().any(|(n, _)| *n == p.name)) {
        problems.push(format!("{}: pinned {} but not produced", pin.name, pin.text));
    }

    let split = run.iter().any(|(_, values)| values.len() > 1);
    if bless && !split {
        let mut new = String::new();
        for (name, values) in &run {
            let kept = pins.iter().find(|p| p.name == *name && p.value == values[0]);
            let text = kept.map_or_else(|| hex(values[0]), |p| p.text.clone());
            writeln!(new, "{name} {text}").expect("writing to a String");
        }
        if new != old {
            fs::write(&path, new).map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("blessed {}", path.display());
        }
        return Ok(());
    }
    if problems.is_empty() {
        return Ok(());
    }
    let advice = if bless {
        "refusing to bless: a digest that differs within one run is not a pin"
    } else {
        "if the change is intentional, re-bless with PGB_BLESS=1 cargo test and review the diff \
         of tests/golden"
    };
    Err(format!(
        "{} of {test}'s digests disagree with {}:\n  {}\n{advice}",
        problems.len(),
        path.display(),
        problems.join("\n  ")
    ))
}
