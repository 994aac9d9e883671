//! Deterministic finite automata over bit-vector alphabets.
//!
//! The alphabet of an automaton with `k` tracks is `0..2^k`: letter `σ`'s
//! bit `i` says whether the current position belongs to track `i`'s set.
//! All automata are complete (every state has a transition on every letter).

use jahob_util::budget::{Budget, Exhaustion};
use jahob_util::FxHashMap;
use std::collections::VecDeque;

/// A complete DFA over the alphabet `0..2^num_tracks`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dfa {
    pub num_tracks: usize,
    /// `trans[state][letter]` → next state.
    pub trans: Vec<Vec<u32>>,
    pub accept: Vec<bool>,
    pub init: u32,
}

impl Dfa {
    /// Alphabet size.
    pub fn alphabet(&self) -> usize {
        1usize << self.num_tracks
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.trans.len()
    }

    /// The automaton accepting every word (single accepting state).
    pub fn all(num_tracks: usize) -> Dfa {
        Dfa {
            num_tracks,
            trans: vec![vec![0; 1 << num_tracks]],
            accept: vec![true],
            init: 0,
        }
    }

    /// The automaton rejecting every word.
    pub fn none(num_tracks: usize) -> Dfa {
        Dfa {
            num_tracks,
            trans: vec![vec![0; 1 << num_tracks]],
            accept: vec![false],
            init: 0,
        }
    }

    /// A single-state DFA accepting exactly the words all of whose letters
    /// satisfy `pred` (used for the per-position set-algebra atoms: X ⊆ Y,
    /// X = Y ∪ Z, ... are letterwise conditions).
    pub fn letterwise(num_tracks: usize, pred: impl Fn(u32) -> bool) -> Dfa {
        let sigma = 1usize << num_tracks;
        // State 0: all letters so far OK (accepting). State 1: sink.
        let mut trans = vec![vec![0u32; sigma], vec![1u32; sigma]];
        for (letter, t) in trans[0].iter_mut().enumerate() {
            if !pred(letter as u32) {
                *t = 1;
            }
        }
        Dfa {
            num_tracks,
            trans,
            accept: vec![true, false],
            init: 0,
        }
    }

    /// Run the automaton on a word.
    pub fn accepts(&self, word: &[u32]) -> bool {
        let mut q = self.init;
        for &letter in word {
            q = self.trans[q as usize][letter as usize];
        }
        self.accept[q as usize]
    }

    /// Product construction combining acceptance with `combine`: fuel is
    /// charged per explored product state, the unit in which the
    /// construction blows up.
    pub fn product(
        &self,
        other: &Dfa,
        combine: impl Fn(bool, bool) -> bool,
        budget: &Budget,
    ) -> Result<Dfa, Exhaustion> {
        assert_eq!(self.num_tracks, other.num_tracks);
        let sigma = self.alphabet();
        let mut map: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        let mut order: Vec<(u32, u32)> = Vec::new();
        let mut queue = VecDeque::new();
        map.insert((self.init, other.init), 0);
        order.push((self.init, other.init));
        queue.push_back((self.init, other.init));
        let mut trans: Vec<Vec<u32>> = Vec::new();
        while let Some((a, b)) = queue.pop_front() {
            budget.check()?;
            let mut row = Vec::with_capacity(sigma);
            for letter in 0..sigma {
                let na = self.trans[a as usize][letter];
                let nb = other.trans[b as usize][letter];
                let key = (na, nb);
                let idx = match map.get(&key) {
                    Some(&i) => i,
                    None => {
                        let i = order.len() as u32;
                        map.insert(key, i);
                        order.push(key);
                        queue.push_back(key);
                        i
                    }
                };
                row.push(idx);
            }
            trans.push(row);
        }
        let accept = order
            .iter()
            .map(|&(a, b)| combine(self.accept[a as usize], other.accept[b as usize]))
            .collect();
        Dfa {
            num_tracks: self.num_tracks,
            trans,
            accept,
            init: 0,
        }
        .minimize(budget)
    }

    /// Intersection.
    pub fn intersect(&self, other: &Dfa, budget: &Budget) -> Result<Dfa, Exhaustion> {
        self.product(other, |a, b| a && b, budget)
    }

    /// Union.
    pub fn union(&self, other: &Dfa, budget: &Budget) -> Result<Dfa, Exhaustion> {
        self.product(other, |a, b| a || b, budget)
    }

    /// Complement (automata are complete, so flip acceptance).
    pub fn complement(&self) -> Dfa {
        Dfa {
            num_tracks: self.num_tracks,
            trans: self.trans.clone(),
            accept: self.accept.iter().map(|&a| !a).collect(),
            init: self.init,
        }
    }

    /// Project away track `t` (existential quantification): the result
    /// ignores bit `t` of every letter, nondeterministically guessing it,
    /// then determinizes. The caller must afterwards apply
    /// [`Dfa::zero_closure`] to keep the WS1S "don't care about padding"
    /// invariant; [`crate::ws1s`] does this.
    ///
    /// The projected automaton keeps the same number of tracks, with track
    /// `t` becoming irrelevant (both values of the bit behave identically).
    /// Keeping track indices stable simplifies the logic layer.
    ///
    /// Fuel is charged per explored subset state of the determinization,
    /// where the exponential lives.
    pub fn project(&self, t: usize, budget: &Budget) -> Result<Dfa, Exhaustion> {
        assert!(t < self.num_tracks);
        let sigma = self.alphabet();
        let bit = 1u32 << t;
        // Subset construction over sets of states.
        let mut map: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
        let mut order: Vec<Vec<u32>> = Vec::new();
        let mut queue: VecDeque<Vec<u32>> = VecDeque::new();
        let start = vec![self.init];
        map.insert(start.clone(), 0);
        order.push(start.clone());
        queue.push_back(start);
        let mut trans: Vec<Vec<u32>> = Vec::new();
        while let Some(states) = queue.pop_front() {
            budget.check()?;
            let mut row = Vec::with_capacity(sigma);
            for letter in 0..sigma as u32 {
                let mut next: Vec<u32> = Vec::new();
                for &q in &states {
                    for guessed in [letter & !bit, letter | bit] {
                        let nq = self.trans[q as usize][guessed as usize];
                        if !next.contains(&nq) {
                            next.push(nq);
                        }
                    }
                }
                next.sort_unstable();
                let idx = match map.get(&next) {
                    Some(&i) => i,
                    None => {
                        let i = order.len() as u32;
                        map.insert(next.clone(), i);
                        order.push(next.clone());
                        queue.push_back(next);
                        i
                    }
                };
                row.push(idx);
            }
            trans.push(row);
        }
        let accept = order
            .iter()
            .map(|states| states.iter().any(|&q| self.accept[q as usize]))
            .collect();
        Ok(Dfa {
            num_tracks: self.num_tracks,
            trans,
            accept,
            init: 0,
        })
    }

    /// Make states accepting when an all-zero-letter path reaches an
    /// accepting state. Required after projection: a witness for the
    /// projected set may live at positions past the end of the word, which
    /// corresponds to extending the word with zero letters.
    pub fn zero_closure(&self) -> Dfa {
        let mut accept = self.accept.clone();
        // Fixpoint: q accepting if trans[q][0] accepting.
        loop {
            let mut changed = false;
            for q in 0..self.num_states() {
                if !accept[q] && accept[self.trans[q][0] as usize] {
                    accept[q] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        Dfa {
            num_tracks: self.num_tracks,
            trans: self.trans.clone(),
            accept,
            init: self.init,
        }
    }

    /// Moore's minimization (partition refinement). Also removes
    /// unreachable states. Fuel is charged per state signature per
    /// refinement round.
    pub fn minimize(&self, budget: &Budget) -> Result<Dfa, Exhaustion> {
        // Reachable states first.
        let mut reachable = vec![false; self.num_states()];
        let mut queue = VecDeque::new();
        reachable[self.init as usize] = true;
        queue.push_back(self.init);
        while let Some(q) = queue.pop_front() {
            for &n in &self.trans[q as usize] {
                if !reachable[n as usize] {
                    reachable[n as usize] = true;
                    queue.push_back(n);
                }
            }
        }
        let states: Vec<usize> = (0..self.num_states()).filter(|&q| reachable[q]).collect();

        // Initial partition: accepting vs not.
        let mut class = vec![0u32; self.num_states()];
        for &q in &states {
            class[q] = u32::from(self.accept[q]);
        }
        let sigma = self.alphabet();
        loop {
            // Signature of each state: (class, classes of successors).
            let mut sig_map: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
            let mut new_class = vec![0u32; self.num_states()];
            for &q in &states {
                budget.check()?;
                let mut sig = Vec::with_capacity(sigma + 1);
                sig.push(class[q]);
                for letter in 0..sigma {
                    sig.push(class[self.trans[q][letter] as usize]);
                }
                let next_id = sig_map.len() as u32;
                let id = *sig_map.entry(sig).or_insert(next_id);
                new_class[q] = id;
            }
            if states.iter().all(|&q| new_class[q] == class[q])
                || sig_map.len() as u32
                    == states
                        .iter()
                        .map(|&q| class[q])
                        .collect::<std::collections::HashSet<_>>()
                        .len() as u32
            {
                class = new_class;
                break;
            }
            class = new_class;
        }

        // Build the quotient.
        let num_classes = states
            .iter()
            .map(|&q| class[q])
            .max()
            .map_or(0, |m| m as usize + 1);
        let mut trans = vec![vec![0u32; sigma]; num_classes];
        let mut accept = vec![false; num_classes];
        for &q in &states {
            let c = class[q] as usize;
            accept[c] = self.accept[q];
            for letter in 0..sigma {
                trans[c][letter] = class[self.trans[q][letter] as usize];
            }
        }
        Ok(Dfa {
            num_tracks: self.num_tracks,
            trans,
            accept,
            init: class[self.init as usize],
        })
    }

    /// Is the accepted language empty?
    pub fn is_empty(&self) -> bool {
        self.shortest_accepting().is_none()
    }

    /// Shortest accepting word (BFS), if any.
    pub fn shortest_accepting(&self) -> Option<Vec<u32>> {
        let mut prev: Vec<Option<(u32, u32)>> = vec![None; self.num_states()];
        let mut seen = vec![false; self.num_states()];
        let mut queue = VecDeque::new();
        seen[self.init as usize] = true;
        queue.push_back(self.init);
        let mut found: Option<u32> = None;
        if self.accept[self.init as usize] {
            found = Some(self.init);
        }
        while found.is_none() {
            let Some(q) = queue.pop_front() else { break };
            for (letter, &n) in self.trans[q as usize].iter().enumerate() {
                if !seen[n as usize] {
                    seen[n as usize] = true;
                    prev[n as usize] = Some((q, letter as u32));
                    if self.accept[n as usize] {
                        found = Some(n);
                        break;
                    }
                    queue.push_back(n);
                }
            }
        }
        let mut q = found?;
        let mut word = Vec::new();
        while let Some((p, letter)) = prev[q as usize] {
            word.push(letter);
            q = p;
        }
        word.reverse();
        Some(word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// DFA over one track accepting words with an even number of 1-letters.
    fn even_ones() -> Dfa {
        Dfa {
            num_tracks: 1,
            trans: vec![vec![0, 1], vec![1, 0]],
            accept: vec![true, false],
            init: 0,
        }
    }

    /// DFA over one track accepting words containing at least one 1.
    fn contains_one() -> Dfa {
        Dfa {
            num_tracks: 1,
            trans: vec![vec![0, 1], vec![1, 1]],
            accept: vec![false, true],
            init: 0,
        }
    }

    #[test]
    fn accepts_runs() {
        let d = even_ones();
        assert!(d.accepts(&[]));
        assert!(!d.accepts(&[1]));
        assert!(d.accepts(&[1, 0, 1]));
    }

    #[test]
    fn letterwise_condition() {
        // Two tracks; accept iff bit0 ≤ bit1 everywhere (X ⊆ Y).
        let d = Dfa::letterwise(2, |l| (l & 1 == 0) || (l & 2 != 0));
        assert!(d.accepts(&[0b00, 0b10, 0b11]));
        assert!(!d.accepts(&[0b01]));
        assert!(d.accepts(&[]));
    }

    #[test]
    fn product_intersection_union() {
        let a = even_ones();
        let b = contains_one();
        let both = a.intersect(&b, &Budget::unlimited()).unwrap();
        assert!(both.accepts(&[1, 1]));
        assert!(!both.accepts(&[1]));
        assert!(!both.accepts(&[]));
        let either = a.union(&b, &Budget::unlimited()).unwrap();
        assert!(either.accepts(&[]));
        assert!(either.accepts(&[1]));
        assert!(either.accepts(&[1, 1]));
        assert_eq!(
            either
                .union(&Dfa::none(1), &Budget::unlimited())
                .unwrap()
                .accepts(&[1]),
            either.accepts(&[1]),
            "union with the empty language is identity"
        );
    }

    #[test]
    fn complement_flips() {
        let d = even_ones().complement();
        assert!(!d.accepts(&[]));
        assert!(d.accepts(&[1]));
        // Double complement restores the language on samples.
        let dd = d.complement();
        for w in [&[][..], &[1][..], &[1, 0, 1][..], &[0, 0][..]] {
            assert_eq!(dd.accepts(w), even_ones().accepts(w));
        }
    }

    #[test]
    fn minimize_collapses() {
        // A 4-state automaton for "even ones" with duplicated states.
        let d = Dfa {
            num_tracks: 1,
            trans: vec![vec![2, 1], vec![1, 0], vec![0, 3], vec![3, 2]],
            accept: vec![true, false, true, false],
            init: 0,
        };
        let m = d.minimize(&Budget::unlimited()).unwrap();
        assert_eq!(m.num_states(), 2);
        for w in [&[][..], &[1][..], &[1, 1][..], &[0, 1, 0, 1][..]] {
            assert_eq!(m.accepts(w), d.accepts(w));
        }
    }

    #[test]
    fn minimize_drops_unreachable() {
        let d = Dfa {
            num_tracks: 1,
            trans: vec![vec![0, 0], vec![1, 1]],
            accept: vec![true, false],
            init: 0,
        };
        let m = d.minimize(&Budget::unlimited()).unwrap();
        assert_eq!(m.num_states(), 1);
        assert!(m.accepts(&[1, 0]));
    }

    #[test]
    fn projection_guesses_track() {
        // Two tracks. Language: track0 equals track1 pointwise (letters 00
        // or 11 only). Projecting track 1 should accept every word over
        // track 0 (any bit pattern can be matched).
        let eq = Dfa::letterwise(2, |l| (l & 1 != 0) == (l & 2 != 0));
        let proj = eq
            .project(1, &Budget::unlimited())
            .unwrap()
            .minimize(&Budget::unlimited())
            .unwrap();
        assert!(proj.accepts(&[0b00, 0b01, 0b01]));
        assert!(proj.accepts(&[]));
        // Language: track1 has a 1 somewhere AND track0 empty. After
        // projecting track1: words with track0 empty, but the witness
        // requires some position — zero-closure matters for the empty word.
        let t1_nonempty = Dfa {
            num_tracks: 2,
            trans: vec![vec![0, 0, 1, 1], vec![1, 1, 1, 1]],
            accept: vec![false, true],
            init: 0,
        };
        let t0_empty = Dfa::letterwise(2, |l| l & 1 == 0);
        let conj = t1_nonempty
            .intersect(&t0_empty, &Budget::unlimited())
            .unwrap();
        let proj = conj.project(1, &Budget::unlimited()).unwrap();
        // Without zero closure, the empty word is rejected (no position for
        // the witness)...
        assert!(!proj.accepts(&[]));
        // ...with zero closure it is accepted, matching EX X. X ≠ ∅.
        let closed = proj.zero_closure();
        assert!(closed.accepts(&[]));
        assert!(closed.accepts(&[0b00]));
        assert!(!closed.accepts(&[0b01]), "track0 must stay empty");
    }

    #[test]
    fn emptiness_and_shortest_word() {
        assert!(Dfa::none(1).is_empty());
        assert!(!Dfa::all(1).is_empty());
        assert_eq!(Dfa::all(1).shortest_accepting(), Some(vec![]));
        let d = contains_one();
        assert_eq!(d.shortest_accepting(), Some(vec![1]));
        let inter = even_ones()
            .intersect(&contains_one(), &Budget::unlimited())
            .unwrap();
        let w = inter.shortest_accepting().unwrap();
        assert_eq!(w.iter().filter(|&&l| l == 1).count() % 2, 0);
        assert!(w.contains(&1));
    }

    #[test]
    fn product_language_correct_exhaustive() {
        // Check product against direct evaluation on all words up to
        // length 6 over one track.
        let a = even_ones();
        let b = contains_one();
        let inter = a.intersect(&b, &Budget::unlimited()).unwrap();
        let union = a.union(&b, &Budget::unlimited()).unwrap();
        for len in 0..=6usize {
            for bits in 0..(1u32 << len) {
                let word: Vec<u32> = (0..len).map(|i| (bits >> i) & 1).collect();
                assert_eq!(inter.accepts(&word), a.accepts(&word) && b.accepts(&word));
                assert_eq!(union.accepts(&word), a.accepts(&word) || b.accepts(&word));
            }
        }
    }
}
