//! The Figure 2 client: two lists with disjoint contents, `move()` draining
//! one into the other — verified *modularly* against the List interface
//! (the implementation is not consulted; §2.2's point).
//!
//! ```sh
//! cargo run --release --example list_client
//! ```

fn main() {
    let source =
        std::fs::read_to_string("case_studies/client.javax").expect("run from the repository root");

    let report = jahob::Config::builder()
        .build_verifier()
        .verify(&source)
        .expect("pipeline");
    println!("{report}");

    if let Some(m) = report.method("Client", "move") {
        let verdict = match (m.all_proved(), m.bound()) {
            (true, None) => "VERIFIED".to_owned(),
            (true, Some(k)) => format!("VERIFIED (bounded, universe ≤ {k})"),
            (false, _) => "NOT fully verified".to_owned(),
        };
        println!(
            "Client.move {verdict} — the disjointness invariant of Figure 2 is {}.",
            if m.all_proved() {
                "preserved across the draining loop"
            } else {
                "not yet established (see the obligation list above)"
            }
        );
    }
}
