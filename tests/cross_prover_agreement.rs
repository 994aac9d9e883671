//! Cross-crate differential tests: the provers must agree with each other
//! and with the reference model evaluator on overlapping fragments.

use jahob_repro::logic::model::enumerate_models;
use jahob_repro::logic::{form, Sort};
use jahob_repro::util::{FxHashMap, Symbol};

fn sig() -> FxHashMap<Symbol, Sort> {
    [
        ("S", Sort::objset()),
        ("T", Sort::objset()),
        ("U", Sort::objset()),
        ("x", Sort::Obj),
        ("y", Sort::Obj),
    ]
    .iter()
    .map(|(n, s)| (Symbol::intern(n), s.clone()))
    .collect()
}

/// BAPA vs the bounded model finder vs exhaustive small models, on pure set
/// goals where a counter-example (if any) exists at universe ≤ 2.
#[test]
fn bapa_bmc_and_models_agree() {
    let goals = [
        ("S Int T <= S", true),
        ("S <= S Un T", true),
        ("S Un T <= S Int T", false),
        ("x : S & S <= T --> x : T", true),
        ("x : S | x : T --> x : S", false),
        ("S - T <= S", true),
        ("S Int T = {} & x : S --> x ~: T", true),
    ];
    let s = sig();
    let syms: Vec<(Symbol, Sort)> = s.iter().map(|(k, v)| (*k, v.clone())).collect();
    for (src, expected) in goals {
        let goal = form(src);
        // BAPA.
        assert_eq!(
            jahob_repro::bapa::bapa_valid(&goal, &s),
            Ok(expected),
            "bapa on {src}"
        );
        // Bounded model finder.
        let bmc = jahob_repro::models::refute(&goal, &s, 2).unwrap();
        assert_eq!(bmc.is_none(), expected, "bmc on {src}");
        // Exhaustive enumeration (the semantics).
        let all = enumerate_models(2, (0, 0), &syms, &mut |m| m.eval_bool(&goal).unwrap());
        assert_eq!(all, expected, "enumeration on {src}");
    }
}

/// The SMT core and the FOL prover agree on ground EUF goals.
#[test]
fn smt_and_fol_agree_on_euf() {
    let goals = [
        ("x = y --> f x = f y", true),
        ("f x = f y --> x = y", false),
        ("x = y & y = z --> f (f x) = f (f z)", true),
    ];
    let empty = FxHashMap::default();
    for (src, expected) in goals {
        let goal = form(src);
        assert_eq!(
            jahob_repro::smt::smt_valid(&goal, &empty),
            Ok(expected),
            "smt on {src}"
        );
        let fol = jahob_repro::fol::fol_valid(&goal).unwrap();
        if expected {
            assert!(fol, "fol must prove {src}");
        }
        // (fol returning false on invalid goals is give-up, not refutation.)
    }
}

/// Presburger (Cooper) agrees with the SMT core's LIA side on ground goals.
#[test]
fn cooper_and_smt_agree_on_lia() {
    let goals = [
        ("i < j --> i + 1 <= j", true),
        ("i <= j & j <= i --> i = j", true),
        ("i <= j --> i < j", false),
        ("2 * i ~= 2 * j + 1", true),
    ];
    let mut s = FxHashMap::default();
    s.insert(Symbol::intern("i"), Sort::Int);
    s.insert(Symbol::intern("j"), Sort::Int);
    for (src, expected) in goals {
        let goal = form(src);
        assert_eq!(
            jahob_repro::presburger::translate::decide_valid(&goal),
            Ok(expected),
            "cooper on {src}"
        );
        assert_eq!(
            jahob_repro::smt::smt_valid(&goal, &s),
            Ok(expected),
            "smt on {src}"
        );
    }
}

/// The WS1S engine agrees with set-algebra facts provable by BAPA when both
/// can express them (subset transitivity etc.).
#[test]
fn ws1s_agrees_with_bapa_on_set_facts() {
    use jahob_repro::mona::ws1s::{decide, WsForm, WsVerdict};
    let s = |n: &str| Symbol::intern(n);
    // X ⊆ Y ∧ Y ⊆ Z → X ⊆ Z: valid in WS1S...
    let ws = WsForm::All2(
        vec![s("WX"), s("WY"), s("WZ")],
        Box::new(WsForm::implies(
            WsForm::and(vec![
                WsForm::Sub(s("WX"), s("WY")),
                WsForm::Sub(s("WY"), s("WZ")),
            ]),
            WsForm::Sub(s("WX"), s("WZ")),
        )),
    );
    assert!(matches!(decide(&ws).unwrap(), WsVerdict::Valid));
    // ...and in BAPA.
    assert_eq!(
        jahob_repro::bapa::bapa_valid(&form("S <= T & T <= U --> S <= U"), &sig()),
        Ok(true)
    );
}

/// The full pipeline on a one-file program exercises every layer at once.
#[test]
fn pipeline_smoke() {
    let src = r#"
class K {
  /*: public static specvar total :: int; */
  public static void add2()
  /*: requires "0 <= total" modifies total ensures "total = old total + 2" */
  {
    //: total := "total + 1";
    //: noteThat "1 <= total";
    //: total := "total + 1";
  }
}
"#;
    let report = jahob_repro::jahob::Verifier::new(Default::default())
        .verify(src)
        .unwrap();
    assert!(report.all_proved(), "{report}");
}
