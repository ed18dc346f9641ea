//! The pin helper's own contract (`tests/support/pinned.rs`), exercised on
//! pin files in a scratch directory: a missing or extra name fails, a name
//! with two digests in one run fails and is never blessed, a drift lists
//! every moved name, and bless keeps the text of the digests that held.

#[path = "support/pinned.rs"]
mod pinned;

use pgb_par::FNV_BASIS;
use pinned::{check, fnv1a_std};
use std::fs;
use std::path::PathBuf;

/// A scratch pin directory holding one pin file `t.txt`, removed on drop.
struct Pins(PathBuf);

impl Pins {
    fn new(label: &str, text: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("pgb-pins-{}-{label}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("t.txt"), text).unwrap();
        Pins(dir)
    }

    fn check(&self, got: &[(&str, u64)], bless: bool) -> Result<(), String> {
        let got: Vec<(String, u64)> = got.iter().map(|&(n, d)| (n.to_string(), d)).collect();
        check(&self.0, "t", &got, bless)
    }

    fn text(&self) -> String {
        fs::read_to_string(self.0.join("t.txt")).unwrap()
    }
}

impl Drop for Pins {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

const TWO: &str = "a 0x0000_0000_0000_000a\nb 0xb\n";

#[test]
fn matching_run_passes_at_any_repeat_count() {
    let pins = Pins::new("match", TWO);
    assert_eq!(pins.check(&[("a", 10), ("a", 10), ("b", 11), ("a", 10)], false), Ok(()));
}

#[test]
fn a_name_missing_from_the_file_fails() {
    let pins = Pins::new("missing", TWO);
    let err = pins.check(&[("a", 10), ("b", 11), ("c", 12)], false).unwrap_err();
    assert!(err.contains("c: not pinned, got 0x0000_0000_0000_000c"), "{err}");
}

#[test]
fn an_extra_name_in_the_file_fails() {
    let pins = Pins::new("extra", TWO);
    let err = pins.check(&[("a", 10)], false).unwrap_err();
    assert!(err.contains("b: pinned 0xb but not produced"), "{err}");
}

#[test]
fn two_digests_for_one_name_fail_and_refuse_to_bless() {
    let pins = Pins::new("split", TWO);
    let run = [("a", 10), ("b", 11), ("a", 99)];
    let err = pins.check(&run, false).unwrap_err();
    assert!(err.contains("a: 0x0000_0000_0000_000a and 0x0000_0000_0000_0063"), "{err}");
    let err = pins.check(&run, true).unwrap_err();
    assert!(err.contains("refusing to bless"), "{err}");
    assert_eq!(pins.text(), TWO, "a refused bless leaves the file alone");
}

#[test]
fn a_drift_lists_every_moved_name() {
    let pins = Pins::new("drift", TWO);
    let err = pins.check(&[("a", 1), ("b", 2)], false).unwrap_err();
    assert!(err.starts_with("2 of t's digests"), "{err}");
    assert!(err.contains("a: moved from 0x0000_0000_0000_000a to 0x0000_0000_0000_0001"), "{err}");
    assert!(err.contains("b: moved from 0xb to 0x0000_0000_0000_0002"), "{err}");
}

#[test]
fn bless_keeps_held_digests_verbatim_and_rewrites_the_rest() {
    let pins = Pins::new("bless", TWO);
    assert_eq!(pins.check(&[("b", 11), ("c", 0xdead_beef)], true), Ok(()));
    assert_eq!(pins.text(), "b 0xb\nc 0x0000_0000_dead_beef\n");
    assert_eq!(pins.check(&[("b", 11), ("c", 0xdead_beef)], false), Ok(()));
    // Blessing an unchanged run is a no-op.
    assert_eq!(pins.check(&[("b", 11), ("c", 0xdead_beef)], true), Ok(()));
    assert_eq!(pins.text(), "b 0xb\nc 0x0000_0000_dead_beef\n");
}

#[test]
fn malformed_lines_and_duplicate_names_fail() {
    for text in ["a 0xa\na 0xa\n", "a\n", "a 10\n", "a 0xzz\n", "a 0xa b\n"] {
        let pins = Pins::new("malformed", text);
        assert!(pins.check(&[("a", 10)], false).is_err(), "{text:?} parsed");
    }
}

#[test]
fn fnv1a_std_is_the_standard_fnv() {
    // Published FNV-1a 64-bit test vectors.
    assert_eq!(fnv1a_std(FNV_BASIS, b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a_std(FNV_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a_std(FNV_BASIS, b"foobar"), 0x8594_4171_f739_67e8);
    // Chaining continues the same hash.
    assert_eq!(fnv1a_std(fnv1a_std(FNV_BASIS, b"foo"), b"bar"), 0x8594_4171_f739_67e8);
}
