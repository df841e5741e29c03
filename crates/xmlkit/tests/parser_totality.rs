//! Totality of `parse_xpath`: caller text is the input of the engine's
//! read path (`Snapshot::eval`), so no string may panic the parser — every
//! input is `Ok` or `Err` — and whatever parses must print to a form that
//! parses back to the same AST.
//!
//! Fuzz-style and deterministic, like the codec's corruption tests: every
//! truncation, every single-byte replacement, insertion and deletion of a
//! corpus of real paths — the evaluator's test paths
//! (`crates/core/src/plan.rs`'s `PATHS`) and the shapes rxbench and the
//! W1–W3 generators phrase — plus random strings over a path-flavoured
//! alphabet and raw random bytes.

use rxview_xmlkit::xpath::parse_xpath;

/// `crates/core/src/plan.rs`'s `PATHS`, then the benchmark's read and write
/// shapes and the W1–W3 workload shapes (bare and quoted literals).
const CORPUS: &[&str] = &[
    "course",
    "course[cno=CS320]",
    "//course",
    "//student",
    "//course[cno=CS320]//student[ssn=S02]",
    "course[cno=CS650]//course[cno=CS320]/prereq",
    "course/*",
    "course[prereq/course]",
    "course[not(prereq/course)]",
    "//course[cno=CS320 or cno=CS240]",
    "//takenBy/student[name=Bob]",
    "course[.//cno=CS240]",
    "*[label()=course]/prereq",
    "//prereq/course[takenBy/student]",
    "course[cno=CS650]/prereq/course[cno=CS320]",
    "nonexistent",
    "student/course",
    "node[id=40]",
    "node[id=40]/sub/node",
    "node[id=40]/payload",
    "node[id=40]//node",
    "node[id=40]/sub",
    "//node[id=40]/sub",
    "node[id=40]/sub/node[id=4000000001]",
    "//node[id=40]/sub/node[id=4000000001]",
    "node[id=\"40\"]//node[payload=\"7\"]",
    "node[id=40]/sub/node[id=41]/sub/node[payload=7]",
    "node[id=40][sub/node]/sub/node[payload=7][not(sub/node)]",
    "node[id=40][sub/node][payload=7]/sub",
    "node[id=40 and payload=7]",
    " course [ cno = 'CS 320' ] / prereq ",
];

/// `Ok` or `Err`, never a panic; an `Ok` prints and re-parses to itself.
fn check(input: &str) {
    if let Ok(path) = parse_xpath(input) {
        let text = path.to_string();
        match parse_xpath(&text) {
            Ok(again) => assert_eq!(again, path, "`{input}` printed as `{text}`"),
            Err(e) => panic!("`{input}` parsed, but its display `{text}` does not: {e}"),
        }
    }
}

fn check_bytes(bytes: &[u8]) {
    check(&String::from_utf8_lossy(bytes));
}

/// xorshift64*: a fixed stream, so a failure names a reproducible input.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[test]
fn the_corpus_parses_and_round_trips() {
    for path in CORPUS {
        let parsed = parse_xpath(path).unwrap_or_else(|e| panic!("`{path}`: {e}"));
        assert_eq!(
            parse_xpath(&parsed.to_string()).as_ref(),
            Ok(&parsed),
            "`{path}`"
        );
    }
}

#[test]
fn truncations_never_panic() {
    for path in CORPUS {
        for cut in 0..=path.len() {
            check_bytes(&path.as_bytes()[..cut]);
            check_bytes(&path.as_bytes()[cut..]);
        }
    }
}

#[test]
fn single_byte_mutations_never_panic() {
    for path in CORPUS {
        let bytes = path.as_bytes();
        for at in 0..bytes.len() {
            let mut deleted = bytes.to_vec();
            deleted.remove(at);
            check_bytes(&deleted);
            for b in 0..=255u8 {
                let mut replaced = bytes.to_vec();
                replaced[at] = b;
                check_bytes(&replaced);
                let mut inserted = bytes.to_vec();
                inserted.insert(at, b);
                check_bytes(&inserted);
            }
        }
    }
}

#[test]
fn random_strings_never_panic() {
    // Everything the grammar gives meaning to, and a few things it does not.
    const ALPHABET: &[&str] = &[
        "/", "//", "[", "]", "(", ")", "=", "*", ".", "..", "'", "\"", " ", "\t", "\n", "and",
        "or", "not", "label()", "label", "node", "id", "sub", "a", "Z", "_", "-", "0", "7", "42",
        "é", "∆", "\u{0}", "\\", "@", ",", "|", "!", "<", ">", "+",
    ];
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    for _ in 0..40_000 {
        let mut s = String::new();
        for _ in 0..rng.below(14) {
            s.push_str(ALPHABET[rng.below(ALPHABET.len())]);
        }
        check(&s);
    }
    for _ in 0..20_000 {
        let bytes: Vec<u8> = (0..rng.below(24)).map(|_| rng.next() as u8).collect();
        check_bytes(&bytes);
    }
    // Depth: nesting must not overflow the stack on caller input.
    for depth in [10, 100, 1_000, 10_000] {
        check(&format!("a{}", "[b".repeat(depth)));
        check(&format!("a{}{}", "[b".repeat(depth), "]".repeat(depth)));
        check(&format!(
            "a[{}b{}]",
            "not(".repeat(depth),
            ")".repeat(depth)
        ));
        check(&format!("a[{}b{}]", "(".repeat(depth), ")".repeat(depth)));
        check(&"/a".repeat(depth));
        check(&"/".repeat(depth));
    }
}

#[test]
fn the_depth_bound_is_on_the_tree_not_its_spelling() {
    use rxview_xmlkit::xpath::MAX_FILTER_DEPTH;
    // One bracket plus a chain of k connectives is a tree k + 1 deep, and
    // prints with k nested parentheses.
    let chain = |k: usize| format!("a[{}b]", "b and ".repeat(k));
    let deepest = parse_xpath(&chain(MAX_FILTER_DEPTH - 1)).expect("at the bound");
    assert_eq!(deepest.filter_depth(), MAX_FILTER_DEPTH);
    check(&chain(MAX_FILTER_DEPTH - 1));
    assert!(parse_xpath(&chain(MAX_FILTER_DEPTH)).is_err());
    // Negations and nested brackets are levels too.
    let nots = |k: usize| format!("a[{}b{}]", "not(".repeat(k), ")".repeat(k));
    check(&nots(MAX_FILTER_DEPTH - 1));
    assert!(parse_xpath(&nots(MAX_FILTER_DEPTH - 1)).is_ok());
    assert!(parse_xpath(&nots(MAX_FILTER_DEPTH)).is_err());
    // Redundant parentheses deepen nothing — until the parser's own bound.
    let parens = |k: usize| format!("a[{}b{}]", "(".repeat(k), ")".repeat(k));
    assert_eq!(parse_xpath(&parens(100)), parse_xpath("a[b]"));
    assert!(parse_xpath(&parens(1_000)).is_err());
}

#[test]
fn a_literal_prints_inside_the_quotes_it_does_not_hold() {
    for (path, printed) in [
        ("a[b='x\"y']", "a[b='x\"y']"),
        ("a[b=\"x'y\"]", "a[b=\"x'y\"]"),
        ("a[b='']", "a[b=\"\"]"),
        ("a[b=']']", "a[b=\"]\"]"),
    ] {
        let parsed = parse_xpath(path).unwrap_or_else(|e| panic!("`{path}`: {e}"));
        assert_eq!(parsed.to_string(), printed);
        check(path);
    }
}
