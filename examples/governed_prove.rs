//! Resource governance demo: the same dispatcher, with and without a
//! per-obligation deadline.
//!
//! A pathological Presburger goal (Cooper's elimination blows up on the
//! coefficient lcm) would run essentially forever ungoverned; under a
//! 1-second deadline it comes back as a diagnosed `unknown`, and the
//! easy sibling goals still prove afterwards.
//!
//! ```sh
//! cargo run --release --example governed_prove
//! ```

use jahob_logic::parse_form;
use jahob_logic::Sort;
use jahob_util::{FxHashMap, Symbol};
use std::time::{Duration, Instant};

const PATHOLOGICAL: &str = "ALL a. EX b. ALL c. EX d. ALL e. EX f1. ALL g1. EX h1. \
     30 * b + 42 * d + 70 * f1 + 105 * h1 = a + c + e + g1 + 1";

fn main() {
    let mut sig: FxHashMap<Symbol, Sort> = FxHashMap::default();
    for (n, s) in [
        ("S", Sort::objset()),
        ("T", Sort::objset()),
        ("i", Sort::Int),
        ("j", Sort::Int),
    ] {
        sig.insert(Symbol::intern(n), s);
    }
    let mut dispatcher = jahob::Dispatcher::new(sig);
    dispatcher.config.obligation_timeout = Some(Duration::from_secs(1));

    let goals = [
        PATHOLOGICAL,
        "i < j --> i + 1 <= j",
        "card (S Un T) <= card S + card T",
    ];
    for text in goals {
        let goal = parse_form(text).expect("parse");
        let start = Instant::now();
        let verdict = dispatcher.prove(&goal);
        let elapsed = start.elapsed();
        let shown = if text.len() > 60 { &text[..60] } else { text };
        println!("[{elapsed:>8.1?}] {shown}");
        match verdict {
            jahob::Verdict::Proved { prover, .. } => println!("           PROVED by {prover}"),
            jahob::Verdict::CounterModel(m) => {
                println!("           REFUTED over {} objects", m.universe)
            }
            jahob::Verdict::Unknown(diag) => println!("           UNKNOWN — {diag}"),
        }
    }
    println!("\ndispatcher statistics:\n{}", dispatcher.stats);
}
