//! The one pin that outlived relevance slicing.
//!
//! Slicing (dropping hypotheses outside the goal's symbol cone, then
//! widening) has been removed; every piece now takes the single guarded
//! portfolio walk. What stays is its plain-path check: a method whose
//! preconditions contradict each other verifies, even though its bare
//! postcondition has counter-models. `REFUTED` here would be a
//! soundness bug.

use jahob_repro::jahob::{Config, Verifier};

#[test]
fn spurious_counter_models_widen_and_never_refute() {
    let src = r#"
class Spur {
  public static void vacuous(int j, int k, int y)
  /*: requires "j <= k & k + 1 <= j" ensures "y < 0" */
  {
  }
}
"#;
    let report = Verifier::new(Config::builder().build())
        .verify(src)
        .expect("pipeline");
    assert!(
        report.all_proved(),
        "a counter-model of the bare goal leaked into the verdict:\n{}",
        report.deterministic_lines().join("\n")
    );
}
