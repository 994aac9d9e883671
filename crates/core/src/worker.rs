//! Out-of-process prover attempts: the wire codec, the worker-side entry
//! point, and the parent-side [`ProcessBackend`].
//!
//! The dispatcher's portfolio normally runs every prover in-process under
//! cooperative fuel/deadline checks. With `Isolation::Process` selected,
//! the *remotable* portfolio members (everything except the model finder,
//! whose verdicts carry `Rc`-laden models) execute inside child worker
//! processes policed by [`jahob_util::supervisor`]: a prover wedged in a
//! non-fuel-metered loop is SIGKILLed at its deadline, a prover that blows
//! its memory ceiling is reaped as `ResourceExceeded`, and a crash-looping
//! lane is quarantined while the dispatcher falls back to the in-process
//! path — verdicts never change, only the isolation weakens.
//!
//! The request/reply payloads ride the CRC-framed protocol from
//! [`jahob_util::ipc`]. Formulas cross the pipe in a compact tag-prefixed
//! binary form; interned [`Symbol`]s travel as strings and are re-interned
//! on the far side, so parent and child never share interner state.

use crate::dispatcher::{Diagnosis, FailureReason, ProverId, Verdict};
use jahob_logic::{BinOp, Form, QKind, Sort, UnOp};
use jahob_util::budget::{Budget, Exhaustion, INFINITE_FUEL};
use jahob_util::counters::Stats;
use jahob_util::ipc::{Reader, Truncated, Writer};
use jahob_util::obs::Sink;
use jahob_util::supervisor::{
    self, Supervisor, SupervisorConfig, WorkerOptions, WorkerReply, ENV_WORKER_MEM,
};
use jahob_util::{FxHashMap, Symbol};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

// ---- chaos flags ---------------------------------------------------------
//
// IPC faults are *decided* in the parent (so the decision replays from the
// chaos plan) but *executed* cooperatively by the worker: the request
// carries a flag byte telling the child how to misbehave. A real defective
// prover would misbehave spontaneously; the effect on the parent — a hang,
// a dead pipe, a garbled frame — is identical.

/// Spin forever, ignoring the budget; only the parent's SIGKILL ends it.
pub(crate) const FLAG_HANG: u8 = 1 << 0;
/// Abort the process before replying.
pub(crate) const FLAG_DIE: u8 = 1 << 1;
/// Reply with a deliberately corrupted frame checksum.
pub(crate) const FLAG_GARBLE: u8 = 1 << 2;
/// Suppress heartbeats past the suspect threshold, then answer normally.
pub(crate) const FLAG_SLOW_BEAT: u8 = 1 << 3;
/// Allocate until the memory ceiling aborts the process.
pub(crate) const FLAG_OOM: u8 = 1 << 4;

/// The flag byte for an injected IPC fault.
pub(crate) fn ipc_fault_flag(fault: jahob_util::IpcFault) -> u8 {
    use jahob_util::IpcFault::*;
    match fault {
        HungChild => FLAG_HANG,
        KilledChild => FLAG_DIE,
        GarbledFrame => FLAG_GARBLE,
        SlowHeartbeat => FLAG_SLOW_BEAT,
        OomChild => FLAG_OOM,
    }
}

/// Which portfolio members may run out of process. The model finder stays
/// in-process: its counter-models hold `Rc` interpretations that are not
/// `Send`, let alone serializable, and its verdicts feed the watchdog's
/// reference evaluator directly.
pub(crate) fn remotable(prover: ProverId) -> bool {
    matches!(
        prover,
        ProverId::Hol | ProverId::Lia | ProverId::Bapa | ProverId::Smt | ProverId::Fol
    )
}

// ---- hypothesis filtering (shared by dispatcher and worker) --------------

/// Drop hypotheses outside a prover's fragment, at conjunct granularity:
/// one foreign conjunct must not take the rest of its conjunction down
/// with it ([`jahob_logic::sequent::Sequent::of`] does the flattening).
/// Dropping hypotheses is sound for validity. Returns `None` when nothing
/// was dropped (the full goal was already tried).
pub(crate) fn filtered(goal: &Form, keep: &mut dyn FnMut(&Form) -> bool) -> Option<Form> {
    let mut seq = jahob_logic::sequent::Sequent::of(goal);
    if seq.hyps.is_empty() {
        return None;
    }
    let total = seq.hyps.len();
    seq.hyps.retain(|h| keep(&h.form));
    if seq.hyps.len() == total {
        return None;
    }
    Some(seq.to_form())
}

// ---- the portfolio attempt (shared by both execution backends) -----------

/// One prover's pass over the goal variants — the body the dispatcher's
/// `guard` runs for every remotable portfolio member, extracted so the
/// in-process path and the worker process execute *the same code*: a
/// verdict can never depend on which side of the pipe computed it.
pub(crate) fn portfolio_attempt(
    prover: ProverId,
    variants: &[(Form, FxHashMap<Symbol, Sort>)],
    fol_iterations: usize,
    slice: &Budget,
    diag: &mut Diagnosis,
    stats: &Stats,
) -> Result<Option<Verdict>, Exhaustion> {
    match prover {
        ProverId::Hol => {
            for (goal, _) in variants {
                if jahob_hol::auto_proves_governed(goal, slice)? {
                    stats.bump("proved.hol");
                    return Ok(Some(Verdict::Proved {
                        prover: ProverId::Hol,
                        bound: None,
                    }));
                }
                diag.record(ProverId::Hol, FailureReason::GaveUp);
            }
            Ok(None)
        }
        ProverId::Lia => {
            for (goal, _) in variants {
                stats.bump("tried.presburger");
                let mut candidates = vec![goal.clone()];
                if let Some(f) = filtered(goal, &mut |h| {
                    jahob_presburger::translate::form_to_pform(h).is_ok()
                }) {
                    candidates.push(f);
                }
                for g in &candidates {
                    match jahob_presburger::translate::decide_valid_budgeted(g, slice) {
                        Ok(true) => {
                            stats.bump("proved.presburger");
                            return Ok(Some(Verdict::Proved {
                                prover: ProverId::Lia,
                                bound: None,
                            }));
                        }
                        Ok(false) => diag.record(ProverId::Lia, FailureReason::GaveUp),
                        Err(jahob_presburger::PresburgerFailure::Fragment(_)) => {
                            diag.record(ProverId::Lia, FailureReason::Unsupported)
                        }
                        Err(jahob_presburger::PresburgerFailure::Exhausted(why)) => {
                            return Err(why)
                        }
                    }
                }
            }
            Ok(None)
        }
        ProverId::Bapa => {
            for (goal, sig) in variants {
                stats.bump("tried.bapa");
                let mut candidates = vec![goal.clone()];
                if let Some(f) = filtered(goal, &mut |h| jahob_bapa::base_set_count(h, sig).is_ok())
                {
                    candidates.push(f);
                }
                for g in &candidates {
                    match jahob_bapa::bapa_valid_budgeted(g, sig, slice) {
                        Ok(true) => {
                            stats.bump("proved.bapa");
                            return Ok(Some(Verdict::Proved {
                                prover: ProverId::Bapa,
                                bound: None,
                            }));
                        }
                        Ok(false) => diag.record(ProverId::Bapa, FailureReason::GaveUp),
                        Err(jahob_bapa::BapaFailure::Fragment(_)) => {
                            diag.record(ProverId::Bapa, FailureReason::Unsupported)
                        }
                        Err(jahob_bapa::BapaFailure::Exhausted(why)) => return Err(why),
                    }
                }
            }
            Ok(None)
        }
        ProverId::Smt => {
            for (goal, sig) in variants {
                // The Nelson–Oppen core is for compact ground goals; on big
                // VC chains the lazy loop + arrangement enumeration
                // dominates.
                if goal.size() > 150 {
                    continue;
                }
                stats.bump("tried.smt");
                let mut candidates = vec![goal.clone()];
                if let Some(f) = filtered(goal, &mut |h| jahob_smt::in_fragment(h, sig)) {
                    candidates.push(f);
                }
                for g in &candidates {
                    let prepared = jahob_smt::lift_ite(g);
                    match jahob_smt::smt_valid_budgeted(&prepared, sig, slice) {
                        Ok(true) => {
                            stats.bump("proved.smt");
                            return Ok(Some(Verdict::Proved {
                                prover: ProverId::Smt,
                                bound: None,
                            }));
                        }
                        Ok(false) => diag.record(ProverId::Smt, FailureReason::GaveUp),
                        Err(jahob_smt::SmtFailure::Fragment(_)) => {
                            diag.record(ProverId::Smt, FailureReason::Unsupported)
                        }
                        Err(jahob_smt::SmtFailure::Exhausted(why)) => return Err(why),
                    }
                }
            }
            Ok(None)
        }
        ProverId::Fol => {
            for (goal, sig) in variants {
                stats.bump("tried.fol");
                let config = jahob_fol::ProverConfig {
                    max_iterations: fol_iterations,
                    ..Default::default()
                };
                let (prepared, axioms) = jahob_fol::reach::prepare(goal, sig);
                let negated = Form::not(prepared);
                let clauses = (|| -> Result<_, jahob_fol::clause::ClausifyError> {
                    let mut clauses = jahob_fol::clausify(&negated)?;
                    for ax in &axioms {
                        clauses.extend(jahob_fol::clausify(ax)?);
                    }
                    Ok(clauses)
                })();
                match clauses {
                    Err(_) => diag.record(ProverId::Fol, FailureReason::Unsupported),
                    Ok(clauses) => match jahob_fol::prove_budgeted(clauses, &config, slice)? {
                        jahob_fol::ProveResult::Proved => {
                            stats.bump("proved.fol");
                            return Ok(Some(Verdict::Proved {
                                prover: ProverId::Fol,
                                bound: None,
                            }));
                        }
                        _ => diag.record(ProverId::Fol, FailureReason::GaveUp),
                    },
                }
            }
            Ok(None)
        }
        ProverId::Simplifier | ProverId::Bmc => Ok(None),
    }
}

// ---- wire codec ----------------------------------------------------------

/// Decode failure: the payload ran short or held an invalid tag. A CRC-
/// clean frame that fails to decode means a protocol-version mismatch, not
/// line noise; the caller degrades to the in-process path.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Malformed;

impl From<Truncated> for Malformed {
    fn from(_: Truncated) -> Malformed {
        Malformed
    }
}

fn put_sort(w: &mut Writer, sort: &Sort) {
    match sort {
        Sort::Bool => w.put_u8(0),
        Sort::Int => w.put_u8(1),
        Sort::Obj => w.put_u8(2),
        Sort::Set(e) => {
            w.put_u8(3);
            put_sort(w, e);
        }
        Sort::Fun(args, ret) => {
            w.put_u8(4);
            w.put_u32(args.len() as u32);
            for a in args {
                put_sort(w, a);
            }
            put_sort(w, ret);
        }
        Sort::Var(v) => {
            w.put_u8(5);
            w.put_u32(*v);
        }
    }
}

fn get_sort(r: &mut Reader<'_>) -> Result<Sort, Malformed> {
    Ok(match r.get_u8()? {
        0 => Sort::Bool,
        1 => Sort::Int,
        2 => Sort::Obj,
        3 => Sort::Set(Box::new(get_sort(r)?)),
        4 => {
            let n = r.get_u32()? as usize;
            let mut args = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                args.push(get_sort(r)?);
            }
            Sort::Fun(args, Box::new(get_sort(r)?))
        }
        5 => Sort::Var(r.get_u32()?),
        _ => return Err(Malformed),
    })
}

fn put_binders(w: &mut Writer, binders: &[(Symbol, Sort)]) {
    w.put_u32(binders.len() as u32);
    for (name, sort) in binders {
        w.put_str(name.as_str());
        put_sort(w, sort);
    }
}

fn get_binders(r: &mut Reader<'_>) -> Result<Vec<(Symbol, Sort)>, Malformed> {
    let n = r.get_u32()? as usize;
    let mut out = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let name = Symbol::intern(r.get_str()?);
        out.push((name, get_sort(r)?));
    }
    Ok(out)
}

fn put_forms(w: &mut Writer, forms: &[Form]) {
    w.put_u32(forms.len() as u32);
    for f in forms {
        put_form(w, f);
    }
}

fn get_forms(r: &mut Reader<'_>) -> Result<Vec<Form>, Malformed> {
    let n = r.get_u32()? as usize;
    let mut out = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        out.push(get_form(r)?);
    }
    Ok(out)
}

fn put_form(w: &mut Writer, form: &Form) {
    match form {
        Form::Var(s) => {
            w.put_u8(0);
            w.put_str(s.as_str());
        }
        Form::IntLit(i) => {
            w.put_u8(1);
            w.put_i64(*i);
        }
        Form::BoolLit(b) => {
            w.put_u8(2);
            w.put_u8(*b as u8);
        }
        Form::Null => w.put_u8(3),
        Form::EmptySet => w.put_u8(4),
        Form::FiniteSet(es) => {
            w.put_u8(5);
            put_forms(w, es);
        }
        Form::Unop(op, e) => {
            w.put_u8(6);
            w.put_u8(match op {
                UnOp::Not => 0,
                UnOp::Neg => 1,
                UnOp::Card => 2,
            });
            put_form(w, e);
        }
        Form::Binop(op, a, b) => {
            w.put_u8(7);
            w.put_u8(match op {
                BinOp::Implies => 0,
                BinOp::Iff => 1,
                BinOp::Eq => 2,
                BinOp::Elem => 3,
                BinOp::Lt => 4,
                BinOp::Le => 5,
                BinOp::Subseteq => 6,
                BinOp::Add => 7,
                BinOp::Sub => 8,
                BinOp::Mul => 9,
                BinOp::Union => 10,
                BinOp::Inter => 11,
                BinOp::Diff => 12,
            });
            put_form(w, a);
            put_form(w, b);
        }
        Form::And(es) => {
            w.put_u8(8);
            put_forms(w, es);
        }
        Form::Or(es) => {
            w.put_u8(9);
            put_forms(w, es);
        }
        Form::App(head, args) => {
            w.put_u8(10);
            put_form(w, head);
            put_forms(w, args);
        }
        Form::Quant(kind, binders, body) => {
            w.put_u8(11);
            w.put_u8(match kind {
                QKind::All => 0,
                QKind::Ex => 1,
            });
            put_binders(w, binders);
            put_form(w, body);
        }
        Form::Lambda(binders, body) => {
            w.put_u8(12);
            put_binders(w, binders);
            put_form(w, body);
        }
        Form::Compr(name, sort, body) => {
            w.put_u8(13);
            w.put_str(name.as_str());
            put_sort(w, sort);
            put_form(w, body);
        }
        Form::Old(e) => {
            w.put_u8(14);
            put_form(w, e);
        }
        Form::Ite(c, t, e) => {
            w.put_u8(15);
            put_form(w, c);
            put_form(w, t);
            put_form(w, e);
        }
        Form::Tree(fields) => {
            w.put_u8(16);
            put_forms(w, fields);
        }
    }
}

fn get_form(r: &mut Reader<'_>) -> Result<Form, Malformed> {
    Ok(match r.get_u8()? {
        0 => Form::Var(Symbol::intern(r.get_str()?)),
        1 => Form::IntLit(r.get_i64()?),
        2 => Form::BoolLit(r.get_u8()? != 0),
        3 => Form::Null,
        4 => Form::EmptySet,
        5 => Form::FiniteSet(get_forms(r)?),
        6 => {
            let op = match r.get_u8()? {
                0 => UnOp::Not,
                1 => UnOp::Neg,
                2 => UnOp::Card,
                _ => return Err(Malformed),
            };
            Form::Unop(op, Rc::new(get_form(r)?))
        }
        7 => {
            let op = match r.get_u8()? {
                0 => BinOp::Implies,
                1 => BinOp::Iff,
                2 => BinOp::Eq,
                3 => BinOp::Elem,
                4 => BinOp::Lt,
                5 => BinOp::Le,
                6 => BinOp::Subseteq,
                7 => BinOp::Add,
                8 => BinOp::Sub,
                9 => BinOp::Mul,
                10 => BinOp::Union,
                11 => BinOp::Inter,
                12 => BinOp::Diff,
                _ => return Err(Malformed),
            };
            let a = get_form(r)?;
            let b = get_form(r)?;
            Form::Binop(op, Rc::new(a), Rc::new(b))
        }
        8 => Form::And(get_forms(r)?),
        9 => Form::Or(get_forms(r)?),
        10 => {
            let head = get_form(r)?;
            Form::App(Rc::new(head), get_forms(r)?)
        }
        11 => {
            let kind = match r.get_u8()? {
                0 => QKind::All,
                1 => QKind::Ex,
                _ => return Err(Malformed),
            };
            let binders = get_binders(r)?;
            Form::Quant(kind, binders, Rc::new(get_form(r)?))
        }
        12 => {
            let binders = get_binders(r)?;
            Form::Lambda(binders, Rc::new(get_form(r)?))
        }
        13 => {
            let name = Symbol::intern(r.get_str()?);
            let sort = get_sort(r)?;
            Form::Compr(name, sort, Rc::new(get_form(r)?))
        }
        14 => Form::Old(Rc::new(get_form(r)?)),
        15 => {
            let c = get_form(r)?;
            let t = get_form(r)?;
            let e = get_form(r)?;
            Form::Ite(Rc::new(c), Rc::new(t), Rc::new(e))
        }
        16 => Form::Tree(get_forms(r)?),
        _ => return Err(Malformed),
    })
}

/// Only the simple, worker-producible reasons cross the wire;
/// `Disagreement` carries verdict payloads and is minted exclusively by
/// the parent-side watchdog.
fn reason_code(reason: FailureReason) -> Option<u8> {
    Some(match reason {
        FailureReason::Unsupported => 0,
        FailureReason::CircuitOpen => 1,
        FailureReason::GaveUp => 2,
        FailureReason::FuelExhausted => 3,
        FailureReason::Timeout => 4,
        FailureReason::Panicked => 5,
        FailureReason::ResourceExceeded => 6,
        FailureReason::Unconfirmed => 7,
        FailureReason::Disagreement { .. } => return None,
    })
}

fn reason_from_code(code: u8) -> Result<FailureReason, Malformed> {
    Ok(match code {
        0 => FailureReason::Unsupported,
        1 => FailureReason::CircuitOpen,
        2 => FailureReason::GaveUp,
        3 => FailureReason::FuelExhausted,
        4 => FailureReason::Timeout,
        5 => FailureReason::Panicked,
        6 => FailureReason::ResourceExceeded,
        7 => FailureReason::Unconfirmed,
        _ => return Err(Malformed),
    })
}

/// One prover attempt shipped to a worker.
pub(crate) struct Request {
    pub prover: ProverId,
    /// Injected-misbehavior flags (`FLAG_*`), zero in production.
    pub chaos: u8,
    /// Fuel allowance for the attempt ([`INFINITE_FUEL`] = unmetered).
    pub fuel: u64,
    /// Wall-clock allowance in milliseconds; the worker times out
    /// cooperatively just inside the parent's hard SIGKILL deadline.
    pub deadline_ms: u64,
    pub fol_iterations: u64,
    /// Goal variants with their inferred signatures, as built by
    /// `prove_piece_inner`.
    pub variants: Vec<(Form, FxHashMap<Symbol, Sort>)>,
}

impl Request {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(self.prover.index() as u8);
        w.put_u8(self.chaos);
        w.put_u64(self.fuel);
        w.put_u64(self.deadline_ms);
        w.put_u64(self.fol_iterations);
        w.put_u32(self.variants.len() as u32);
        for (form, sig) in &self.variants {
            put_form(&mut w, form);
            // Signature entries sorted by name: FxHashMap iteration order
            // is arbitrary and request bytes should be content-determined.
            let mut entries: Vec<_> = sig.iter().collect();
            entries.sort_by_key(|(name, _)| name.as_str());
            w.put_u32(entries.len() as u32);
            for (name, sort) in entries {
                w.put_str(name.as_str());
                put_sort(&mut w, sort);
            }
        }
        w.into_vec()
    }

    pub(crate) fn decode(payload: &[u8]) -> Result<Request, Malformed> {
        let mut r = Reader::new(payload);
        let prover = ProverId::from_index(r.get_u8()? as usize).ok_or(Malformed)?;
        let chaos = r.get_u8()?;
        let fuel = r.get_u64()?;
        let deadline_ms = r.get_u64()?;
        let fol_iterations = r.get_u64()?;
        let n = r.get_u32()? as usize;
        let mut variants = Vec::with_capacity(n.min(16));
        for _ in 0..n {
            let form = get_form(&mut r)?;
            let entries = r.get_u32()? as usize;
            let mut sig = FxHashMap::default();
            for _ in 0..entries {
                let name = Symbol::intern(r.get_str()?);
                sig.insert(name, get_sort(&mut r)?);
            }
            variants.push((form, sig));
        }
        if !r.is_empty() {
            return Err(Malformed);
        }
        Ok(Request {
            prover,
            chaos,
            fuel,
            deadline_ms,
            fol_iterations,
            variants,
        })
    }
}

/// How a worker attempt ended, as decoded from the reply payload.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ReplyOutcome {
    /// The prover finished without deciding; the diagnosis says why.
    NoDecision,
    /// Proved (remotable provers never produce counter-models).
    Proved {
        prover: ProverId,
        bound: Option<u32>,
    },
    /// The attempt's budget slice ran dry inside the worker.
    Exhausted(Exhaustion),
    /// The prover panicked; the worker caught it and stayed up.
    Panicked,
}

/// The decoded reply: outcome plus the side effects the parent must
/// replay — fuel actually burned, diagnosis entries, and counter bumps.
pub(crate) struct DecodedReply {
    pub outcome: ReplyOutcome,
    pub fuel_spent: u64,
    pub diag: Vec<(ProverId, FailureReason)>,
    pub stats: Vec<(String, u64)>,
}

impl DecodedReply {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match &self.outcome {
            ReplyOutcome::NoDecision => w.put_u8(0),
            ReplyOutcome::Proved { prover, bound } => {
                w.put_u8(1);
                w.put_u8(prover.index() as u8);
                match bound {
                    Some(b) => {
                        w.put_u8(1);
                        w.put_u32(*b);
                    }
                    None => w.put_u8(0),
                }
            }
            ReplyOutcome::Exhausted(why) => {
                w.put_u8(2);
                w.put_u8(match why {
                    Exhaustion::Timeout => 0,
                    Exhaustion::Fuel => 1,
                });
            }
            ReplyOutcome::Panicked => w.put_u8(3),
        }
        w.put_u64(self.fuel_spent);
        w.put_u32(self.diag.len() as u32);
        for (prover, reason) in &self.diag {
            w.put_u8(prover.index() as u8);
            // Worker diagnoses are always simple reasons; unknown future
            // variants degrade to GaveUp rather than killing the reply.
            w.put_u8(reason_code(*reason).unwrap_or(2));
        }
        w.put_u32(self.stats.len() as u32);
        for (name, delta) in &self.stats {
            w.put_str(name);
            w.put_u64(*delta);
        }
        w.into_vec()
    }

    pub(crate) fn decode(payload: &[u8]) -> Result<DecodedReply, Malformed> {
        let mut r = Reader::new(payload);
        let outcome = match r.get_u8()? {
            0 => ReplyOutcome::NoDecision,
            1 => {
                let prover = ProverId::from_index(r.get_u8()? as usize).ok_or(Malformed)?;
                let bound = match r.get_u8()? {
                    0 => None,
                    1 => Some(r.get_u32()?),
                    _ => return Err(Malformed),
                };
                ReplyOutcome::Proved { prover, bound }
            }
            2 => ReplyOutcome::Exhausted(match r.get_u8()? {
                0 => Exhaustion::Timeout,
                1 => Exhaustion::Fuel,
                _ => return Err(Malformed),
            }),
            3 => ReplyOutcome::Panicked,
            _ => return Err(Malformed),
        };
        let fuel_spent = r.get_u64()?;
        let n = r.get_u32()? as usize;
        let mut diag = Vec::with_capacity(n.min(16));
        for _ in 0..n {
            let prover = ProverId::from_index(r.get_u8()? as usize).ok_or(Malformed)?;
            diag.push((prover, reason_from_code(r.get_u8()?)?));
        }
        let n = r.get_u32()? as usize;
        let mut stats = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            let name = r.get_str()?.to_owned();
            stats.push((name, r.get_u64()?));
        }
        if !r.is_empty() {
            return Err(Malformed);
        }
        Ok(DecodedReply {
            outcome,
            fuel_spent,
            diag,
            stats,
        })
    }
}

// ---- worker-side entry point ---------------------------------------------

/// The hidden `worker` mode: serve prover attempts over stdin/stdout until
/// the parent closes the pipe. Panics inside a prover are caught and
/// reported as [`ReplyOutcome::Panicked`]; only an abort (or the parent's
/// SIGKILL) takes the process down.
pub fn worker_main() -> std::io::Result<()> {
    let opts = WorkerOptions::from_env();
    let beat = opts.heartbeat_interval;
    supervisor::serve(opts, |ctl, payload| {
        let req = match Request::decode(payload) {
            Ok(req) => req,
            Err(Malformed) => {
                let reply = DecodedReply {
                    outcome: ReplyOutcome::NoDecision,
                    fuel_spent: 0,
                    diag: Vec::new(),
                    stats: Vec::new(),
                };
                return WorkerReply {
                    payload: reply.encode(),
                    corrupt: false,
                };
            }
        };
        if req.chaos & FLAG_HANG != 0 {
            // A wedged prover: spin past every cooperative check. The
            // heartbeat thread keeps beating — this models a *computation*
            // hang, which only the parent's hard deadline can end.
            loop {
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        if req.chaos & FLAG_DIE != 0 {
            std::process::abort();
        }
        if req.chaos & FLAG_OOM != 0 {
            // Allocate until the RLIMIT_AS ceiling aborts the process. If
            // no ceiling was configured, abort directly rather than
            // genuinely exhausting the host.
            if std::env::var(ENV_WORKER_MEM).is_ok() {
                let mut hoard: Vec<Vec<u8>> = Vec::new();
                loop {
                    hoard.push(vec![0xAB; 1 << 20]);
                    std::hint::black_box(&hoard);
                }
            }
            std::process::abort();
        }
        if req.chaos & FLAG_SLOW_BEAT != 0 {
            // Go quiet long enough for the parent to mark the lane
            // suspect, then answer normally: a slow worker is not a dead
            // worker, and must not lose its attempt.
            ctl.suppress(true);
            std::thread::sleep(beat * 6);
            ctl.suppress(false);
        }
        let stats = Stats::new();
        let mut diag = Diagnosis::default();
        let slice = Budget::new(Some(Duration::from_millis(req.deadline_ms)), req.fuel);
        let fuel_before = slice.fuel_remaining();
        let result = catch_unwind(AssertUnwindSafe(|| {
            portfolio_attempt(
                req.prover,
                &req.variants,
                req.fol_iterations as usize,
                &slice,
                &mut diag,
                &stats,
            )
        }));
        let outcome = match result {
            Ok(Ok(Some(Verdict::Proved { prover, bound }))) => {
                ReplyOutcome::Proved { prover, bound }
            }
            // Remotable provers never refute; a counter-model (or a bare
            // Unknown) from one would be a protocol bug. Degrade to
            // no-decision: the parent re-runs in-process if it matters.
            Ok(Ok(Some(_))) | Ok(Ok(None)) => ReplyOutcome::NoDecision,
            Ok(Err(why)) => ReplyOutcome::Exhausted(why),
            Err(_) => ReplyOutcome::Panicked,
        };
        let fuel_spent = if fuel_before == INFINITE_FUEL {
            0
        } else {
            fuel_before - slice.fuel_remaining()
        };
        let reply = DecodedReply {
            outcome,
            fuel_spent,
            diag: diag.attempts.clone(),
            stats: stats.snapshot(),
        };
        WorkerReply {
            payload: reply.encode(),
            corrupt: req.chaos & FLAG_GARBLE != 0,
        }
    })
}

// ---- parent-side backend -------------------------------------------------

/// The process-isolation execution backend: a [`Supervisor`] pool plus the
/// default wall-clock allowance granted to attempts whose obligation has
/// no deadline of its own (a hard ceiling is what makes SIGKILL possible;
/// "no deadline" cannot mean "hang forever" once hangs are survivable).
pub struct ProcessBackend {
    supervisor: Supervisor,
    attempt_deadline: Duration,
}

impl ProcessBackend {
    pub fn new(
        config: SupervisorConfig,
        sink: Option<Arc<dyn Sink>>,
        attempt_deadline: Duration,
    ) -> ProcessBackend {
        ProcessBackend {
            supervisor: Supervisor::new(config, sink),
            attempt_deadline,
        }
    }

    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }

    /// The wall-clock allowance for one attempt: the slice's own deadline
    /// when it has one, capped by the backend ceiling.
    pub(crate) fn deadline_for(&self, slice: &Budget) -> Duration {
        match slice.time_remaining() {
            Some(left) => left.min(self.attempt_deadline),
            None => self.attempt_deadline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nasty_form() -> Form {
        let x = Symbol::intern("x");
        let s = Symbol::intern("S");
        let next = Symbol::intern("Node.next");
        Form::Quant(
            QKind::All,
            vec![(x, Sort::Obj), (s, Sort::objset())],
            Rc::new(Form::implies(
                Form::And(vec![
                    Form::Binop(
                        BinOp::Elem,
                        Rc::new(Form::Var(x)),
                        Rc::new(Form::Binop(
                            BinOp::Union,
                            Rc::new(Form::Var(s)),
                            Rc::new(Form::FiniteSet(vec![Form::Null, Form::Var(x)])),
                        )),
                    ),
                    Form::Binop(
                        BinOp::Le,
                        Rc::new(Form::Unop(UnOp::Card, Rc::new(Form::Var(s)))),
                        Rc::new(Form::IntLit(-7)),
                    ),
                    Form::Tree(vec![Form::Var(next)]),
                ]),
                Form::Ite(
                    Rc::new(Form::BoolLit(false)),
                    Rc::new(Form::Old(Rc::new(Form::App(
                        Rc::new(Form::Var(next)),
                        vec![Form::Var(x)],
                    )))),
                    Rc::new(Form::Compr(
                        x,
                        Sort::Obj,
                        Rc::new(Form::Or(vec![
                            Form::EmptySet,
                            Form::Lambda(vec![(x, Sort::Var(3))], Rc::new(Form::Var(x))),
                        ])),
                    )),
                ),
            )),
        )
    }

    #[test]
    fn request_roundtrips_through_the_codec() {
        let mut sig = FxHashMap::default();
        sig.insert(Symbol::intern("Node.next"), Sort::field(Sort::Obj));
        sig.insert(
            Symbol::intern("p"),
            Sort::Fun(vec![Sort::Obj, Sort::Obj], Box::new(Sort::Bool)),
        );
        let req = Request {
            prover: ProverId::Smt,
            chaos: FLAG_GARBLE | FLAG_SLOW_BEAT,
            fuel: 123_456,
            deadline_ms: 9_999,
            fol_iterations: 700,
            variants: vec![(nasty_form(), sig.clone()), (Form::tt(), sig)],
        };
        let decoded = Request::decode(&req.encode()).expect("roundtrip");
        assert_eq!(decoded.prover, ProverId::Smt);
        assert_eq!(decoded.chaos, req.chaos);
        assert_eq!(decoded.fuel, req.fuel);
        assert_eq!(decoded.deadline_ms, req.deadline_ms);
        assert_eq!(decoded.fol_iterations, req.fol_iterations);
        assert_eq!(decoded.variants.len(), 2);
        assert_eq!(decoded.variants[0].0, req.variants[0].0);
        assert_eq!(decoded.variants[0].1, req.variants[0].1);
        assert_eq!(decoded.variants[1].0, Form::tt());
    }

    #[test]
    fn request_bytes_are_content_determined() {
        // Same logical request, differently-built signature maps: the
        // encoded bytes must agree (sorted signature entries), or request
        // frames would differ across runs for identical obligations.
        let mut sig_a = FxHashMap::default();
        sig_a.insert(Symbol::intern("a"), Sort::Int);
        sig_a.insert(Symbol::intern("b"), Sort::Bool);
        sig_a.insert(Symbol::intern("c"), Sort::Obj);
        let mut sig_b = FxHashMap::default();
        sig_b.insert(Symbol::intern("c"), Sort::Obj);
        sig_b.insert(Symbol::intern("b"), Sort::Bool);
        sig_b.insert(Symbol::intern("a"), Sort::Int);
        let mk = |sig: FxHashMap<Symbol, Sort>| Request {
            prover: ProverId::Lia,
            chaos: 0,
            fuel: INFINITE_FUEL,
            deadline_ms: 1000,
            fol_iterations: 1,
            variants: vec![(Form::tt(), sig)],
        };
        assert_eq!(mk(sig_a).encode(), mk(sig_b).encode());
    }

    #[test]
    fn reply_roundtrips_through_the_codec() {
        let reply = DecodedReply {
            outcome: ReplyOutcome::Proved {
                prover: ProverId::Fol,
                bound: Some(3),
            },
            fuel_spent: 42,
            diag: vec![
                (ProverId::Fol, FailureReason::GaveUp),
                (ProverId::Lia, FailureReason::Unsupported),
            ],
            stats: vec![("tried.fol".to_owned(), 2), ("proved.fol".to_owned(), 1)],
        };
        let decoded = DecodedReply::decode(&reply.encode()).expect("roundtrip");
        assert_eq!(
            decoded.outcome,
            ReplyOutcome::Proved {
                prover: ProverId::Fol,
                bound: Some(3),
            }
        );
        assert_eq!(decoded.fuel_spent, 42);
        assert_eq!(decoded.diag, reply.diag);
        assert_eq!(decoded.stats, reply.stats);
        for outcome in [
            ReplyOutcome::NoDecision,
            ReplyOutcome::Exhausted(Exhaustion::Timeout),
            ReplyOutcome::Exhausted(Exhaustion::Fuel),
            ReplyOutcome::Panicked,
        ] {
            let reply = DecodedReply {
                outcome,
                fuel_spent: 0,
                diag: Vec::new(),
                stats: Vec::new(),
            };
            let expect = reply.encode();
            assert_eq!(
                DecodedReply::decode(&expect).expect("roundtrip").encode(),
                expect
            );
        }
    }

    #[test]
    fn truncated_payloads_are_malformed_not_panics() {
        let req = Request {
            prover: ProverId::Hol,
            chaos: 0,
            fuel: 10,
            deadline_ms: 10,
            fol_iterations: 10,
            variants: vec![(nasty_form(), FxHashMap::default())],
        };
        let full = req.encode();
        for len in 0..full.len() {
            assert!(
                Request::decode(&full[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
        // Trailing garbage is rejected too: a frame is exactly one request.
        let mut padded = full.clone();
        padded.push(0);
        assert!(Request::decode(&padded).is_err());
    }
}
