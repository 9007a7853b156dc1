//! Byte-identity of a trained AwarePen model.
//!
//! Training runs subtractive clustering, then an SVD least-squares solve
//! inside every ANFIS epoch, for both the classifier and the quality
//! measure. Faster versions of those kernels must train exactly the model
//! the old ones did, so this suite trains `train_pen(2026, 1)` and compares
//! its artifacts, serialized through the JSON codec, with
//! `tests/golden/pen_2026_1.txt`. That file was written by the build whose
//! Jacobi SVD still swept a row-major matrix and whose clustering still
//! cached the `n×n` distance matrix.
//!
//! Each golden line is `<name> <JSON>`: the classifier, the quality measure,
//! the threshold with its method, and the §2.33 tail probabilities in field
//! order. The codec prints every `f64` in its shortest round-trip form, so
//! equal bytes mean equal bits.

use std::path::Path;

use cqm::appliance::pen::{train_pen, PenBuild};

/// The golden lines of one build, in file order.
fn render(build: &PenBuild) -> String {
    let trained = &build.trained_cqm;
    let threshold = (
        trained.threshold.value,
        format!("{:?}", trained.threshold.method),
    );
    let p = &trained.probabilities;
    let tail = [
        p.threshold,
        p.selection_right,
        p.selection_wrong,
        p.false_negative,
        p.false_positive,
        p.posterior_right_given_accept,
        p.posterior_wrong_given_discard,
    ];
    let line = |name: &str, json: serde_json::Result<String>| {
        format!("{name} {}\n", json.expect("trained artifacts serialize"))
    };
    [
        line("classifier", serde_json::to_string(&build.classifier)),
        line("measure", serde_json::to_string(&trained.measure)),
        line("threshold", serde_json::to_string(&threshold)),
        line("tail", serde_json::to_string(&tail)),
    ]
    .concat()
}

#[test]
fn trained_pen_matches_golden_bytes() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/pen_2026_1.txt");
    let want = std::fs::read_to_string(&path).unwrap();
    let got = render(&train_pen(2026, 1).unwrap());
    // Point at the first differing byte rather than dumping both files.
    if let Some(at) = got.bytes().zip(want.bytes()).position(|(a, b)| a != b) {
        let near = |s: &str| {
            let b = &s.as_bytes()[at.saturating_sub(60)..(at + 40).min(s.len())];
            String::from_utf8_lossy(b).into_owned()
        };
        panic!(
            "differs at byte {at}:\n  got  …{}\n  want …{}",
            near(&got),
            near(&want)
        );
    }
    assert_eq!(got.len(), want.len(), "one is a prefix of the other");
}
