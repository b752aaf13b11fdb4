//! Mutation tests for the `.bench`, `.blif` and `.kiss` decoders: the
//! valid text of a built-in circuit or machine, randomly damaged, must
//! decode to `Ok` or to an `Err` — never a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use langeq_logic::kiss::{self, KissError};
use langeq_logic::{bench_fmt, blif, gen, Network, NetworkError};
use proptest::prelude::*;

/// Bytes the mutator inserts: the punctuation of both formats, a line
/// break, and a few name and keyword bytes.
const ALPHABET: &[u8] = b"()=,.#\\ \n01-aiqINPUTDF";

/// The `.bench` and `.blif` texts of the paper's Figure 3 and of the
/// smallest Table-1 stand-in, written once.
fn texts() -> &'static (Vec<String>, Vec<String>) {
    static TEXTS: OnceLock<(Vec<String>, Vec<String>)> = OnceLock::new();
    TEXTS.get_or_init(|| {
        let nets = [gen::figure3(), gen::table1().swap_remove(0).network];
        let bench = nets
            .iter()
            .map(|n| bench_fmt::write(n).expect("gate networks write as .bench"))
            .collect();
        (bench, nets.iter().map(blif::write).collect())
    })
}

/// A hand-written machine using every KISS2 header (`.i`/`.o`/`.p`/`.s`/
/// `.r`/`.e`), comments and input don't-cares.
const DETECTOR: &str = "\
# detects the input sequence 1 1
.i 2
.o 1
.p 5
.s 3
.r idle
0- idle idle 0
1- idle one  0   # first 1
0- one  idle 0
1- one  two  1
-- two  idle 0
.e
";

/// The `.kiss` texts: a random complete machine and [`DETECTOR`], each
/// checked to parse and synthesize before it is damaged.
fn kiss_texts() -> &'static [String; 2] {
    static TEXTS: OnceLock<[String; 2]> = OnceLock::new();
    TEXTS.get_or_init(|| {
        let texts = [kiss::random_fsm(7, 2, 2, 3).to_kiss(), DETECTOR.to_string()];
        for text in &texts {
            let fsm = kiss::parse(text).expect("undamaged text parses");
            fsm.to_network().expect("undamaged machine synthesizes");
        }
        texts
    })
}

/// Applies `edits` random line- and byte-level edits to `text`: duplicate
/// or drop a line, or insert, delete or swap bytes within one. The texts
/// are ASCII and so is every inserted byte, so the result stays UTF-8.
fn mutate(text: &str, seed: u64, edits: usize) -> String {
    let mut x = seed | 1;
    let mut below = move |n: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % n.max(1) as u64) as usize
    };
    let mut lines: Vec<Vec<u8>> = text.lines().map(|l| l.as_bytes().to_vec()).collect();
    for _ in 0..edits {
        if lines.is_empty() {
            break;
        }
        let k = below(lines.len());
        let at = below(lines[k].len() + 1);
        match below(5) {
            0 => {
                let copy = lines[k].clone();
                let to = below(lines.len() + 1);
                lines.insert(to, copy);
            }
            1 => {
                lines.remove(k);
            }
            2 => lines[k].insert(at, ALPHABET[below(ALPHABET.len())]),
            3 if at < lines[k].len() => {
                lines[k].remove(at);
            }
            _ => {
                let other = below(lines[k].len());
                if at < lines[k].len() {
                    lines[k].swap(at, other);
                }
            }
        }
    }
    let bytes = lines.join(&b'\n');
    String::from_utf8(bytes).expect("ASCII edits keep the text UTF-8")
}

/// Decodes `text`, failing the property on a panic; a decoder error is a
/// pass, and must carry a line number when it is a syntax error.
fn decodes_without_panic(
    decode: fn(&str) -> Result<Network, NetworkError>,
    text: &str,
) -> Result<(), TestCaseError> {
    match catch_unwind(AssertUnwindSafe(|| decode(text))) {
        Ok(Err(NetworkError::Parse { line, .. })) => {
            prop_assert!(
                (1..=text.lines().count()).contains(&line),
                "line {line} outside the text"
            );
            Ok(())
        }
        Ok(_) => Ok(()),
        Err(_) => Err(TestCaseError::fail(format!("decoder panicked on {text:?}"))),
    }
}

/// Parses `text` as KISS2 and synthesizes the machine when it parses,
/// failing the property on a panic in either step; a syntax error must
/// carry a line inside the text (0 for a file-level error).
fn kiss_decodes_without_panic(text: &str) -> Result<(), TestCaseError> {
    let decode = || kiss::parse(text).map(|fsm| fsm.to_network());
    match catch_unwind(AssertUnwindSafe(decode)) {
        Ok(Err(KissError::Syntax { line, .. })) => {
            prop_assert!(line <= text.lines().count(), "line {line} outside the text");
            Ok(())
        }
        Ok(_) => Ok(()),
        Err(_) => Err(TestCaseError::fail(format!(
            "kiss decoder panicked on {text:?}"
        ))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_bench_text_never_panics(seed in any::<u64>(), edits in 1usize..6) {
        for text in &texts().0 {
            decodes_without_panic(bench_fmt::parse, &mutate(text, seed, edits))?;
        }
    }

    #[test]
    fn mutated_blif_text_never_panics(seed in any::<u64>(), edits in 1usize..6) {
        for text in &texts().1 {
            decodes_without_panic(blif::parse, &mutate(text, seed, edits))?;
        }
    }

    #[test]
    fn mutated_kiss_text_never_panics(seed in any::<u64>(), edits in 1usize..6) {
        for text in kiss_texts() {
            kiss_decodes_without_panic(&mutate(text, seed, edits))?;
        }
    }
}
