//! A mini proving CLI: pass a formula in the annotation syntax and watch the
//! dispatcher route it through the portfolio.
//!
//! ```sh
//! cargo run --release --example prove -- 'card (S Un T) <= card S + card T'
//! cargo run --release --example prove -- 'x < y & y < z --> x < z'
//! cargo run --release --example prove -- 'x : S --> x : T'
//! ```

use jahob_logic::parse_form;
use jahob_util::FxHashMap;

fn main() {
    let input: Vec<String> = std::env::args().skip(1).collect();
    let text = if input.is_empty() {
        "card (S Un T) <= card S + card T".to_string()
    } else {
        input.join(" ")
    };
    let goal = match parse_form(&text) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("parse error: {e}");
            std::process::exit(1);
        }
    };
    let dispatcher = jahob::Dispatcher::new(FxHashMap::default());
    println!("goal: {goal}");
    match dispatcher.prove(&goal) {
        jahob::Verdict::Proved {
            prover,
            bound: None,
        } => {
            println!("PROVED by {prover}");
        }
        jahob::Verdict::Proved {
            prover,
            bound: Some(b),
        } => println!("PROVED by {prover} (validity up to universes of size {b})"),
        jahob::Verdict::CounterModel(model) => {
            println!("REFUTED — counter-model over {} objects:", model.universe);
            let mut keys: Vec<_> = model.interp.keys().collect();
            keys.sort_by_key(|k| k.as_str());
            for k in keys {
                println!("  {k} = {:?}", model.interp[k]);
            }
        }
        jahob::Verdict::Unknown(diag) => println!("UNKNOWN — {diag}"),
    }
    println!("\ndispatcher statistics:\n{}", dispatcher.stats);
}
