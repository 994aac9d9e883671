//! The inputs, their expected answers, and the check every report passes.
//!
//! `expected/<stem>.tsv` holds the classification (proved, refuted or
//! unknown) of every obligation of one input. Rows are keyed by class,
//! method and label, plus an occurrence number for a label that repeats
//! inside one method, so reordering methods moves no key. Only the
//! classification is compared, never the prover or the bound: a change
//! that turns a bounded proof into an unbounded one is not an error.

use crate::json::{self, Json};
use crate::stats::ratio;
use std::collections::BTreeMap;
use std::path::Path;

/// An error that stops the run: no result line is printed.
#[derive(Debug)]
pub struct Fatal(pub String);

impl From<String> for Fatal {
    fn from(message: String) -> Fatal {
        Fatal(message)
    }
}

/// One input file, named by its stem in the metrics.
#[derive(Debug)]
pub struct Input {
    pub stem: &'static str,
    pub path: &'static str,
    /// `Class.method` of every method with a deliberately seeded bug: a
    /// report that calls one of them verified is unsound.
    pub seeded_bugs: &'static [&'static str],
}

pub const CASE_STUDIES: [Input; 5] = [
    Input {
        stem: "list",
        path: "case_studies/list.javax",
        seeded_bugs: &[],
    },
    Input {
        stem: "client",
        path: "case_studies/client.javax",
        seeded_bugs: &[],
    },
    Input {
        stem: "assoclist",
        path: "case_studies/assoclist.javax",
        seeded_bugs: &[],
    },
    Input {
        stem: "globalset",
        path: "case_studies/globalset.javax",
        seeded_bugs: &[],
    },
    Input {
        stem: "game",
        path: "case_studies/game.javax",
        seeded_bugs: &[],
    },
];

/// The seeded-bug inputs; their broken methods are those the soundness
/// corpus (`tests/soundness_corpus.rs`) pins, plus `broken_add`'s `add`,
/// which drops the list's old content.
pub const SEEDED_BUGS: [Input; 3] = [
    Input {
        stem: "list_bug",
        path: "case_studies/list_bug.javax",
        seeded_bugs: &["List.add", "List.empty"],
    },
    Input {
        stem: "globalset_bug",
        path: "case_studies/globalset_bug.javax",
        seeded_bugs: &["GlobalCounter.inc", "GlobalSet.push"],
    },
    Input {
        stem: "broken_add",
        path: "crates/bench/data/broken_add.javax",
        seeded_bugs: &["List.add"],
    },
];

/// Every input, in the order of the `file.<stem>.ms` rows.
pub fn all_inputs() -> Vec<&'static Input> {
    CASE_STUDIES.iter().chain(SEEDED_BUGS.iter()).collect()
}

pub fn expected_path(root: &Path, stem: &str) -> std::path::PathBuf {
    root.join("perfbench/expected").join(format!("{stem}.tsv"))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Proved,
    Refuted,
    Unknown,
}

impl Kind {
    fn parse(s: &str) -> Option<Kind> {
        match s {
            "proved" => Some(Kind::Proved),
            "refuted" => Some(Kind::Refuted),
            "unknown" => Some(Kind::Unknown),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Proved => "proved",
            Kind::Refuted => "refuted",
            Kind::Unknown => "unknown",
        }
    }
}

/// One obligation's verdict as a report gives it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    pub class: String,
    pub method: String,
    pub label: String,
    pub kind: Kind,
    /// Proved, and the proof carries no universe bound.
    pub unbounded: bool,
}

/// A report reduced to what the benchmark checks and counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    pub rows: Vec<Row>,
    /// `Class.method` of every method the report calls verified.
    pub verified: Vec<String>,
    /// Pipeline failures of single methods.
    pub errors: Vec<String>,
}

type Key = (String, String, String, usize);

impl Outcome {
    /// Read the JSON report that `jahob verify --json` and the daemon print.
    pub fn from_json(text: &str) -> Result<Outcome, String> {
        let doc = json::parse(text)?;
        let methods = doc
            .get("methods")
            .and_then(Json::as_arr)
            .ok_or("report has no methods")?;
        let mut out = Outcome::default();
        for m in methods {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("method without `{k}`"))
            };
            let (class, method) = (field("class")?, field("method")?);
            if field("status")? == "verified" {
                out.verified.push(format!("{class}.{method}"));
            }
            if let Some(error) = m.get("error").and_then(Json::as_str) {
                out.errors.push(format!("{class}.{method}: {error}"));
            }
            let obligations = m
                .get("obligations")
                .and_then(Json::as_arr)
                .ok_or("method without obligations")?;
            for o in obligations {
                let label = o
                    .get("label")
                    .and_then(Json::as_str)
                    .ok_or("obligation without label")?;
                let verdict = o.get("verdict").ok_or("obligation without verdict")?;
                let kind = verdict
                    .get("kind")
                    .and_then(Json::as_str)
                    .and_then(Kind::parse)
                    .ok_or("obligation with a bad verdict kind")?;
                out.rows.push(Row {
                    class: class.to_owned(),
                    method: method.to_owned(),
                    label: label.to_owned(),
                    kind,
                    unbounded: kind == Kind::Proved
                        && matches!(verdict.get("bound"), None | Some(Json::Null)),
                });
            }
        }
        Ok(out)
    }

    /// Reduce an in-process report.
    pub fn from_report(report: &jahob::VerifyReport) -> Outcome {
        use jahob::VerdictSummary;
        let mut out = Outcome::default();
        for m in &report.methods {
            let (class, method) = (m.class.as_str(), m.method.as_str());
            if m.all_proved() {
                out.verified.push(format!("{class}.{method}"));
            }
            if let Some(error) = &m.error {
                out.errors.push(format!("{class}.{method}: {error}"));
            }
            for o in &m.obligations {
                let (kind, unbounded) = match &o.verdict {
                    VerdictSummary::Proved { bound, .. } => (Kind::Proved, bound.is_none()),
                    VerdictSummary::Refuted => (Kind::Refuted, false),
                    VerdictSummary::Unknown(_) => (Kind::Unknown, false),
                };
                out.rows.push(Row {
                    class: class.to_owned(),
                    method: method.to_owned(),
                    label: o.label.clone(),
                    kind,
                    unbounded,
                });
            }
        }
        out
    }

    fn keyed(&self) -> BTreeMap<Key, Kind> {
        let mut seen: BTreeMap<(&str, &str, &str), usize> = BTreeMap::new();
        self.rows
            .iter()
            .map(|r| {
                let n = seen.entry((&r.class, &r.method, &r.label)).or_insert(0);
                *n += 1;
                (
                    (r.class.clone(), r.method.clone(), r.label.clone(), *n),
                    r.kind,
                )
            })
            .collect()
    }

    /// The expected-answers file for this outcome.
    pub fn to_tsv(&self, path: &str) -> String {
        let mut out = format!(
            "# Expected classification of every obligation of {path}.\n\
             # class\tmethod\tlabel\tproved|refuted|unknown\n"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\n",
                r.class,
                r.method,
                r.label,
                r.kind.name()
            ));
        }
        out
    }
}

/// Counts behind the ratio metrics, summed over the requests of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub requests: u64,
    /// Requests that failed, were refused with BUSY, or contradicted the
    /// expected answers.
    pub errors: u64,
    pub obligations: u64,
    pub proved: u64,
    pub refuted: u64,
    pub unbounded: u64,
}

impl Tally {
    pub fn add(&mut self, outcome: &Outcome) {
        for r in &outcome.rows {
            self.obligations += 1;
            self.proved += u64::from(r.kind == Kind::Proved);
            self.refuted += u64::from(r.kind == Kind::Refuted);
            self.unbounded += u64::from(r.unbounded);
        }
    }

    /// Obligations proved or refuted ÷ obligations attempted.
    pub fn decided_ratio(&self) -> f64 {
        ratio(self.proved + self.refuted, self.obligations)
    }

    /// Proved obligations whose proof carries no universe bound ÷ proved
    /// obligations.
    pub fn unbounded_ratio(&self) -> f64 {
        ratio(self.unbounded, self.proved)
    }

    /// Failed, refused or wrong requests ÷ requests.
    pub fn error_ratio(&self) -> f64 {
        ratio(self.errors, self.requests)
    }
}

/// An input with its source text and expected answers.
#[derive(Debug)]
pub struct Loaded {
    pub input: &'static Input,
    pub src: String,
    answers: BTreeMap<Key, Kind>,
}

impl Loaded {
    pub fn load(root: &Path, input: &'static Input) -> Result<Loaded, String> {
        let read = |path: &Path| {
            std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))
        };
        let src = read(&root.join(input.path))?;
        let table = expected_path(root, input.stem);
        let mut rows = Vec::new();
        for (n, line) in read(&table)?.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("{}:{}: malformed row", table.display(), n + 1);
            let [class, method, label, kind] = line.split('\t').collect::<Vec<_>>()[..] else {
                return Err(bad());
            };
            rows.push(Row {
                class: class.to_owned(),
                method: method.to_owned(),
                label: label.to_owned(),
                kind: Kind::parse(kind).ok_or_else(bad)?,
                unbounded: false,
            });
        }
        let answers = Outcome {
            rows,
            ..Outcome::default()
        }
        .keyed();
        Ok(Loaded {
            input,
            src,
            answers,
        })
    }

    pub fn load_all(root: &Path, inputs: &[&'static Input]) -> Result<Vec<Loaded>, String> {
        inputs
            .iter()
            .map(|input| Loaded::load(root, input))
            .collect()
    }

    /// Check one report. The inner error is a wrong answer, counted
    /// against the run; the outer one is a seeded bug reported verified,
    /// which stops the run.
    pub fn check(&self, outcome: &Outcome) -> Result<Result<(), String>, Fatal> {
        let stem = self.input.stem;
        if let Some(bug) = self
            .input
            .seeded_bugs
            .iter()
            .find(|bug| outcome.verified.iter().any(|v| v == *bug))
        {
            return Err(Fatal(format!(
                "{stem}: seeded-bug method {bug} was reported verified"
            )));
        }
        Ok(self
            .compare(outcome)
            .map_err(|why| format!("{stem}: {why}")))
    }

    fn compare(&self, outcome: &Outcome) -> Result<(), String> {
        if let Some(error) = outcome.errors.first() {
            return Err(format!("pipeline failure in {error}"));
        }
        let got = outcome.keyed();
        for (key @ (class, method, label, _), want) in &self.answers {
            match got.get(key) {
                Some(kind) if kind == want => {}
                Some(kind) => {
                    return Err(format!(
                        "{class}.{method} `{label}`: expected {}, got {}",
                        want.name(),
                        kind.name()
                    ))
                }
                None => return Err(format!("{class}.{method} `{label}` is missing")),
            }
        }
        match got.keys().find(|key| !self.answers.contains_key(*key)) {
            Some((class, method, label, _)) => {
                Err(format!("{class}.{method} `{label}` is not expected"))
            }
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(method: &str, label: &str, kind: Kind, unbounded: bool) -> Row {
        Row {
            class: "C".into(),
            method: method.into(),
            label: label.into(),
            kind,
            unbounded,
        }
    }

    #[test]
    fn each_ratio_has_its_own_base() {
        // list.javax: 32 proved, 4 refuted; say 5 proofs carry no bound.
        let mut rows = vec![row("m", "a", Kind::Refuted, false); 4];
        rows.extend(vec![row("m", "b", Kind::Proved, true); 5]);
        rows.extend(vec![row("m", "c", Kind::Proved, false); 27]);
        rows.push(row("m", "d", Kind::Unknown, false));
        let outcome = Outcome {
            rows,
            ..Outcome::default()
        };
        let mut t = Tally::default();
        t.add(&outcome);
        t.add(&outcome);
        t.requests = 4;
        t.errors = 1;
        // Decided over all obligations attempted (37 per request).
        assert_eq!(t.decided_ratio(), 36.0 / 37.0);
        // Unbounded over proved obligations only.
        assert_eq!(t.unbounded_ratio(), 5.0 / 32.0);
        // Errors over requests, not obligations.
        assert_eq!(t.error_ratio(), 0.25);
    }

    fn loaded(rows: Vec<Row>, bugs: &'static [&'static str]) -> Loaded {
        let input = Box::leak(Box::new(Input {
            stem: "t",
            path: "t.javax",
            seeded_bugs: bugs,
        }));
        Loaded {
            input,
            src: String::new(),
            answers: Outcome {
                rows,
                ..Outcome::default()
            }
            .keyed(),
        }
    }

    #[test]
    fn classifications_are_compared_by_key_not_position() {
        let expected = vec![
            row("m", "x", Kind::Proved, false),
            row("m", "x", Kind::Refuted, false),
            row("n", "y", Kind::Proved, false),
        ];
        let l = loaded(expected.clone(), &[]);
        // Methods reordered; a bounded proof became unbounded.
        let reordered = Outcome {
            rows: vec![
                row("n", "y", Kind::Proved, true),
                expected[0].clone(),
                expected[1].clone(),
            ],
            ..Outcome::default()
        };
        assert!(l.check(&reordered).unwrap().is_ok());
        // Swapping the two `x` occurrences changes their classifications.
        let swapped = Outcome {
            rows: vec![
                expected[1].clone(),
                expected[0].clone(),
                expected[2].clone(),
            ],
            ..Outcome::default()
        };
        assert!(l.check(&swapped).unwrap().is_err());
        let missing = Outcome {
            rows: expected[..2].to_vec(),
            ..Outcome::default()
        };
        assert!(l.check(&missing).unwrap().is_err());
    }

    #[test]
    fn a_verified_seeded_bug_stops_the_run() {
        let l = loaded(vec![], &["C.m"]);
        let outcome = Outcome {
            verified: vec!["C.m".into()],
            ..Outcome::default()
        };
        assert!(l.check(&outcome).is_err());
    }

    #[test]
    fn json_reports_are_reduced() {
        let text = r#"{"methods":[{"class":"C","method":"m","status":"verified","error":null,
            "obligations":[{"label":"C.m: ensures","verdict":{"kind":"proved","prover":"hol-auto","bound":null}},
            {"label":"C.m: invariant 1","verdict":{"kind":"proved","prover":"bounded-models","bound":3}}]}],
            "tally":{},"stats":{}}"#;
        let outcome = Outcome::from_json(text).unwrap();
        assert_eq!(outcome.verified, vec!["C.m".to_string()]);
        assert_eq!(outcome.rows.len(), 2);
        assert!(outcome.rows[0].unbounded);
        assert!(!outcome.rows[1].unbounded);
    }
}
