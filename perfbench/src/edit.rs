//! Meaning-preserving source edits for the warm edit-and-recheck loop
//! (paper §6): the methods of each class are reordered, comment and blank
//! lines are inserted, and locals are consistently renamed.
//!
//! A local is renamed only when renaming it leaves the cache fingerprint
//! of every obligation unchanged. Locals that a loop modifies reach the
//! obligations as havoc symbols named after them, so renaming one turns
//! cache hits into misses; [`EditPlan::new`] leaves those alone, and the
//! warm workload keeps measuring a recheck that replays from the cache.

use crate::schedule::Rng;
use jahob_javalite::{parse_program, resolve};

const SUFFIXES: [&str; 3] = ["Tmp", "Alt", "Edited"];
const NOTE: &str = "   // edited before this recheck\n";

/// Which locals of one input may be renamed.
#[derive(Clone, Debug)]
pub struct EditPlan {
    renamable: Vec<String>,
}

impl EditPlan {
    pub fn new(src: &str) -> Result<EditPlan, String> {
        let base = fingerprints(src)?;
        let mut renamable = Vec::new();
        for local in locals(src) {
            let renamed = rename(src, &local, &format!("{}{}", local.name, SUFFIXES[0]));
            if fingerprints(&renamed)? == base {
                renamable.push(local.name);
            }
        }
        Ok(EditPlan { renamable })
    }
}

/// A seeded edit of `src`: rename some renamable locals, reorder the
/// methods of every class, and insert one to three comment or blank
/// lines.
pub fn edit(src: &str, plan: &EditPlan, rng: &mut Rng) -> String {
    let mut out = src.to_owned();
    for name in &plan.renamable {
        if rng.below(2) == 0 {
            continue;
        }
        let new = format!("{name}{}", SUFFIXES[rng.below(SUFFIXES.len())]);
        if let Some(local) = locals(&out).into_iter().find(|l| &l.name == name) {
            if occurrences(&out, &new, 0, out.len(), true).is_empty() {
                out = rename(&out, &local, &new);
            }
        }
    }
    let out = reorder_methods(&out, rng);
    insert_lines(&out, rng)
}

/// The cache fingerprint of every obligation, sorted by label.
pub fn fingerprints(src: &str) -> Result<Vec<(String, u128)>, String> {
    let program = parse_program(src).map_err(|e| e.to_string())?;
    let typed = resolve(&program).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for class in &typed.classes {
        for m in class.methods.iter().filter(|m| !m.contract.assumed) {
            let vcs = jahob_vcgen::method_obligations(&typed, m).map_err(|e| e.to_string())?;
            for ob in vcs.obligations {
                let normal = jahob::normalize(&ob.form);
                out.push((
                    ob.label,
                    jahob::goal_cache::fingerprint(&normal, &typed.sig, 0),
                ));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// One class member: a field, a standalone spec block, or a method.
#[derive(Clone, Copy, Debug)]
struct Member {
    start: usize,
    end: usize,
    method: bool,
}

/// Which bytes of a source are code (not comment or string), and the
/// members of every class in order. Members tile each class body from
/// its `{` to the end of its last member.
struct Layout {
    code: Vec<bool>,
    classes: Vec<Vec<Member>>,
}

fn find(b: &[u8], from: usize, pat: &[u8]) -> Option<usize> {
    b.get(from..)?
        .windows(pat.len())
        .position(|w| w == pat)
        .map(|p| p + from)
}

fn layout(src: &str) -> Layout {
    let b = src.as_bytes();
    let mut code = vec![true; b.len()];
    let mut classes: Vec<Vec<Member>> = Vec::new();
    let (mut depth, mut seg_start, mut seg_has_code) = (0usize, 0usize, false);
    let mut i = 0;
    while i < b.len() {
        let skip = if b[i..].starts_with(b"//") {
            Some(find(b, i, b"\n").unwrap_or(b.len()))
        } else if b[i..].starts_with(b"/*") {
            Some(find(b, i + 2, b"*/").map_or(b.len(), |j| j + 2))
        } else if b[i] == b'"' {
            Some(find(b, i + 1, b"\"").map_or(b.len(), |j| j + 1))
        } else {
            None
        };
        if let Some(end) = skip {
            code[i..end].fill(false);
            // A spec block standing alone in a class body (specvars,
            // invariants) is a member of its own; one after a method's
            // signature is that method's contract.
            if depth == 1 && !seg_has_code && b[i..].starts_with(b"/*:") {
                if let Some(members) = classes.last_mut() {
                    members.push(Member {
                        start: seg_start,
                        end,
                        method: false,
                    });
                }
                seg_start = end;
            }
            i = end;
            continue;
        }
        let mut close = |method: bool, end: usize, classes: &mut Vec<Vec<Member>>| {
            if let Some(members) = classes.last_mut() {
                members.push(Member {
                    start: seg_start,
                    end,
                    method,
                });
            }
            seg_start = end;
            seg_has_code = false;
        };
        match b[i] {
            b'{' => {
                depth += 1;
                if depth == 1 {
                    classes.push(Vec::new());
                    seg_start = i + 1;
                    seg_has_code = false;
                }
            }
            b'}' => {
                depth = depth.saturating_sub(1);
                if depth == 1 {
                    close(true, i + 1, &mut classes);
                }
            }
            b';' if depth == 1 => close(false, i + 1, &mut classes),
            c if depth == 1 && !c.is_ascii_whitespace() => seg_has_code = true,
            _ => {}
        }
        i += 1;
    }
    Layout { code, classes }
}

fn reorder_methods(src: &str, rng: &mut Rng) -> String {
    let layout = layout(src);
    let mut out = String::with_capacity(src.len());
    let mut cursor = 0;
    for members in &layout.classes {
        let mut methods: Vec<Member> = members.iter().copied().filter(|m| m.method).collect();
        rng.shuffle(&mut methods);
        let mut next = methods.into_iter();
        for m in members {
            let chosen = if m.method {
                next.next().expect("one method for every method slot")
            } else {
                *m
            };
            out.push_str(&src[cursor..m.start]);
            out.push_str(&src[chosen.start..chosen.end]);
            cursor = m.end;
        }
    }
    out.push_str(&src[cursor..]);
    out
}

fn insert_lines(src: &str, rng: &mut Rng) -> String {
    let layout = layout(src);
    let b = src.as_bytes();
    // Line starts whose newline is code: never inside a comment or string.
    let starts: Vec<usize> = (1..b.len())
        .filter(|&p| b[p - 1] == b'\n' && layout.code[p - 1])
        .collect();
    if starts.is_empty() {
        return src.to_owned();
    }
    let count = 1 + rng.below(3);
    let mut picks: Vec<usize> = (0..count)
        .map(|_| starts[rng.below(starts.len())])
        .collect();
    picks.sort_unstable();
    let mut out = String::with_capacity(src.len() + count * NOTE.len());
    let mut cursor = 0;
    for p in picks {
        out.push_str(&src[cursor..p]);
        out.push_str(if rng.below(2) == 0 { "\n" } else { NOTE });
        cursor = p;
    }
    out.push_str(&src[cursor..]);
    out
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Offsets of whole-word occurrences of `word` in `src[from..to]`,
/// including field selections (`x.word`) only when `selections` is set.
fn occurrences(src: &str, word: &str, from: usize, to: usize, selections: bool) -> Vec<usize> {
    let b = &src.as_bytes()[..to];
    let mut out = Vec::new();
    let mut at = from;
    while let Some(p) = find(b, at, word.as_bytes()) {
        let before = p.checked_sub(1).map(|q| b[q]);
        let after = src.as_bytes().get(p + word.len()).copied();
        if !before.is_some_and(|c| is_ident(c) || (!selections && c == b'.'))
            && !after.is_some_and(is_ident)
        {
            out.push(p);
        }
        at = p + 1;
    }
    out
}

/// A local declared in a method body whose name occurs nowhere outside
/// that method.
#[derive(Clone, Debug)]
struct Local {
    name: String,
    method_start: usize,
    method_end: usize,
}

fn locals(src: &str) -> Vec<Local> {
    let layout = layout(src);
    let b = src.as_bytes();
    let mut out: Vec<Local> = Vec::new();
    for m in layout.classes.iter().flatten().filter(|m| m.method) {
        let Some(body) = (m.start..m.end).find(|&i| layout.code[i] && b[i] == b'{') else {
            continue;
        };
        let mut tokens: Vec<&str> = Vec::new();
        let mut i = body;
        while i < m.end {
            if !layout.code[i] || !b[i].is_ascii_graphic() {
                i += 1;
            } else if is_ident(b[i]) {
                let start = i;
                while i < m.end && layout.code[i] && is_ident(b[i]) {
                    i += 1;
                }
                tokens.push(&src[start..i]);
            } else {
                tokens.push(&src[i..i + 1]);
                i += 1;
            }
        }
        for w in tokens.windows(3) {
            let (ty, name, next) = (w[0], w[1], w[2]);
            let typed =
                ty == "boolean" || ty == "int" || ty.starts_with(|c: char| c.is_ascii_uppercase());
            let declared = typed
                && (next == "=" || next == ";")
                && name.starts_with(|c: char| c.is_ascii_lowercase());
            let confined = occurrences(src, name, 0, src.len(), true)
                .iter()
                .all(|&p| (m.start..m.end).contains(&p));
            if declared && confined && !out.iter().any(|l| l.name == name) {
                out.push(Local {
                    name: name.to_owned(),
                    method_start: m.start,
                    method_end: m.end,
                });
            }
        }
    }
    out
}

/// Rename `local` to `new` throughout its method, specs included.
fn rename(src: &str, local: &Local, new: &str) -> String {
    let mut out = String::with_capacity(src.len() + 64);
    let mut cursor = 0;
    for p in occurrences(
        src,
        &local.name,
        local.method_start,
        local.method_end,
        false,
    ) {
        out.push_str(&src[cursor..p]);
        out.push_str(new);
        cursor = p + local.name.len();
    }
    out.push_str(&src[cursor..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expected::{all_inputs, Loaded, Outcome};
    use crate::schedule::edit_rng;
    use std::path::Path;

    const TOY: &str = "class A {\n   int f;\n   /*: invariant \"f = f\" */\n\
        \n   public void m()\n   /*: ensures \"True\" */\n   {\n      A tmp = this;\n      \
        //: f := \"f\";\n   }\n\n   public void n() { }\n}\n";

    fn root() -> &'static Path {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("the repository root")
    }

    #[test]
    fn members_tile_the_class_body() {
        let l = layout(TOY);
        assert_eq!(l.classes.len(), 1);
        let kinds: Vec<bool> = l.classes[0].iter().map(|m| m.method).collect();
        assert_eq!(kinds, vec![false, false, true, true]);
        let m = l.classes[0][2];
        assert!(TOY[m.start..m.end]
            .trim_start()
            .starts_with("public void m()"));
        assert!(TOY[m.start..m.end].ends_with('}'));
    }

    #[test]
    fn renaming_stays_inside_the_method() {
        let found = locals(TOY);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].name, "tmp");
        let renamed = rename(TOY, &found[0], "tmpAlt");
        assert!(renamed.contains("A tmpAlt = this;"));
        assert!(!renamed.contains("tmp "));
        // A name also used outside its method is not a candidate.
        let shared = TOY.replace("int f;", "int tmp;");
        assert!(locals(&shared).is_empty());
    }

    #[test]
    fn the_same_seed_gives_the_same_edit() {
        let src = std::fs::read_to_string(root().join("case_studies/list.javax")).unwrap();
        let plan = EditPlan::new(&src).unwrap();
        let a = edit(&src, &plan, &mut edit_rng(3, 1, 0));
        let b = edit(&src, &plan, &mut edit_rng(3, 1, 0));
        assert_eq!(a, b);
        let others: Vec<String> = (0..8)
            .map(|p| edit(&src, &plan, &mut edit_rng(4, p, 0)))
            .collect();
        assert!(others.iter().any(|o| *o != a));
    }

    /// Every edited input parses, and every obligation keeps its cache
    /// fingerprint, so a primed cache answers it exactly as before.
    #[test]
    fn edits_parse_and_keep_every_fingerprint() {
        let mut renamed_somewhere = false;
        for input in all_inputs() {
            let src = std::fs::read_to_string(root().join(input.path)).unwrap();
            let plan = EditPlan::new(&src).unwrap();
            renamed_somewhere |= !plan.renamable.is_empty();
            let base = fingerprints(&src).unwrap();
            for seed in 0..6 {
                let edited = edit(&src, &plan, &mut edit_rng(seed, 0, 0));
                assert_ne!(edited, src, "{} seed {seed}: no edit", input.stem);
                assert_eq!(
                    fingerprints(&edited).unwrap(),
                    base,
                    "{} seed {seed}",
                    input.stem
                );
            }
        }
        assert!(renamed_somewhere, "no input has a renamable local");
    }

    /// Every edited input keeps its expected classifications. Slow in a
    /// debug build: run with `cargo test --release`.
    #[test]
    fn edits_keep_the_expected_classifications() {
        for input in all_inputs() {
            let loaded = Loaded::load(root(), input).unwrap();
            let plan = EditPlan::new(&loaded.src).unwrap();
            for seed in 0..2 {
                let edited = edit(&loaded.src, &plan, &mut edit_rng(seed, 1, 0));
                let report = crate::trace::pinned()
                    .build_verifier()
                    .verify(&edited)
                    .unwrap();
                let verdict = loaded.check(&Outcome::from_report(&report)).unwrap();
                assert!(verdict.is_ok(), "{} seed {seed}: {verdict:?}", input.stem);
            }
        }
    }
}
