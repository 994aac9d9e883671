//! Method-level desugaring: statements → guarded commands → obligations.

use crate::gc::{
    assigned_symbols, expand_field_writes, finalize, strip_old, wp_list, Obligation, GC,
};
use jahob_javalite::resolve::TypedMethod;
use jahob_javalite::{BinaryOp, Expr, JType, LValue, Stmt, TypedProgram, UnaryOp};
use jahob_logic::form::sym::{self, builtins};
use jahob_logic::{BinOp, Form, Sort};
use jahob_util::{FxHashMap, Symbol};
use std::fmt;

/// VC-generation failure.
#[derive(Debug, Clone)]
pub struct VcgenError {
    pub message: String,
}

impl fmt::Display for VcgenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vcgen: {}", self.message)
    }
}

impl std::error::Error for VcgenError {}

fn err<T>(message: impl Into<String>) -> Result<T, VcgenError> {
    Err(VcgenError {
        message: message.into(),
    })
}

/// All obligations of one method.
#[derive(Clone, Debug)]
pub struct MethodVcs {
    pub class: Symbol,
    pub method: Symbol,
    pub obligations: Vec<Obligation>,
}

struct Ctx<'a> {
    program: &'a TypedProgram,
    class: Symbol,
    /// Static types of locals/params (for call resolution).
    local_types: FxHashMap<Symbol, JType>,
    /// Qualified field lookup: bare name → qualified symbol.
    field_names: FxHashMap<Symbol, Symbol>,
    /// The enclosing class's own `vardefs`, unfolded into every
    /// specification formula before weakest preconditions are computed —
    /// the abstraction functions "establish a formal connection between the
    /// concrete implementation state and the abstract specification state"
    /// (§2.3), and the connection must be visible to the substitutions.
    /// Other classes' private vardefs stay opaque (modular reasoning).
    own_defs: FxHashMap<Symbol, Form>,
}

/// How a bare identifier in a method body resolves.
enum NameKind {
    Local,
    /// Instance field of the enclosing class: `x` means `this.x`.
    InstanceField(Symbol),
    /// Static field of the enclosing class.
    StaticField(Symbol),
}

impl<'a> Ctx<'a> {
    /// Unfold the enclosing class's abstraction functions in a spec formula.
    fn unfold(&self, f: &Form) -> Form {
        jahob_logic::transform::unfold_defs(f, &self.own_defs)
    }

    /// Resolve a bare identifier: locals and parameters shadow fields of the
    /// enclosing class (Java's implicit `this.f`).
    fn resolve_name(&self, name: Symbol) -> NameKind {
        if self.local_types.contains_key(&name) {
            return NameKind::Local;
        }
        let qualified = jahob_javalite::resolve::qualify(self.class, name);
        match self.program.sig.get(&qualified) {
            Some(Sort::Fun(_, _)) => NameKind::InstanceField(qualified),
            Some(_) => NameKind::StaticField(qualified),
            None => NameKind::Local,
        }
    }

    fn qualify_field(&self, name: Symbol) -> Result<Symbol, VcgenError> {
        self.field_names
            .get(&name)
            .copied()
            .ok_or_else(|| VcgenError {
                message: format!("unknown field `{name}`"),
            })
    }

    /// Translate a side-effect-free expression; null-dereference checks for
    /// every field access are appended to `checks`.
    fn expr_form(&self, e: &Expr, checks: &mut Vec<GC>) -> Result<Form, VcgenError> {
        match e {
            Expr::Local(x) => Ok(match self.resolve_name(*x) {
                NameKind::Local => Form::Var(*x),
                NameKind::InstanceField(q) => Form::app(Form::Var(q), vec![Form::v(sym::THIS)]),
                NameKind::StaticField(q) => Form::Var(q),
            }),
            Expr::This => Ok(Form::v(sym::THIS)),
            Expr::Null => Ok(Form::Null),
            Expr::BoolLit(b) => Ok(Form::BoolLit(*b)),
            Expr::IntLit(n) => Ok(Form::IntLit(*n)),
            Expr::Field(base, f) => {
                let b = self.expr_form(base, checks)?;
                checks.push(GC::Assert(
                    Form::ne(b.clone(), Form::Null),
                    format!("receiver of .{f} may be null"),
                ));
                let qf = self.qualify_field(*f)?;
                Ok(Form::app(Form::Var(qf), vec![b]))
            }
            Expr::Unary(UnaryOp::Not, inner) => Ok(Form::not(self.expr_form(inner, checks)?)),
            Expr::Unary(UnaryOp::Neg, inner) => Ok(Form::Unop(
                jahob_logic::UnOp::Neg,
                std::rc::Rc::new(self.expr_form(inner, checks)?),
            )),
            Expr::Binary(op, a, b) => {
                let fa = self.expr_form(a, checks)?;
                let fb = self.expr_form(b, checks)?;
                Ok(match op {
                    BinaryOp::Eq => Form::eq(fa, fb),
                    BinaryOp::Ne => Form::ne(fa, fb),
                    BinaryOp::And => Form::and(vec![fa, fb]),
                    BinaryOp::Or => Form::or(vec![fa, fb]),
                    BinaryOp::Add => Form::binop(BinOp::Add, fa, fb),
                    BinaryOp::Sub => Form::binop(BinOp::Sub, fa, fb),
                    BinaryOp::Mul => Form::binop(BinOp::Mul, fa, fb),
                    BinaryOp::Lt => Form::binop(BinOp::Lt, fa, fb),
                    BinaryOp::Le => Form::binop(BinOp::Le, fa, fb),
                    BinaryOp::Gt => Form::binop(BinOp::Lt, fb, fa),
                    BinaryOp::Ge => Form::binop(BinOp::Le, fb, fa),
                })
            }
            Expr::New(_) | Expr::Call { .. } => {
                err("calls/allocations only allowed as full right-hand sides")
            }
        }
    }

    /// Class of a receiver expression (for method lookup). A bare name may
    /// be a local, an instance field of the enclosing class, or a class
    /// name (static call).
    fn receiver_class(&self, e: &Expr) -> Result<Symbol, VcgenError> {
        match e {
            Expr::This => Ok(self.class),
            Expr::Local(x) => {
                if let Some(JType::Ref(c)) = self.local_types.get(x) {
                    return Ok(*c);
                }
                if self.program.classes.iter().any(|c| c.name == *x) {
                    return Ok(*x);
                }
                let qualified = jahob_javalite::resolve::qualify(self.class, *x);
                if let Some(c) = self.program.field_classes.get(&qualified) {
                    return Ok(*c);
                }
                err(format!("cannot resolve receiver `{x}`"))
            }
            other => err(format!("unsupported receiver expression {other:?}")),
        }
    }

    /// Is this receiver expression a class name (static call)?
    fn receiver_is_class(&self, e: &Expr) -> bool {
        matches!(e, Expr::Local(x)
            if !self.local_types.contains_key(x)
                && self.program.classes.iter().any(|c| c.name == *x))
    }
}

/// Default logical value of a field's target sort.
fn default_value(sort: &Sort) -> Form {
    match sort {
        Sort::Fun(_, ret) => default_value(ret),
        Sort::Bool => Form::ff(),
        Sort::Int => Form::IntLit(0),
        Sort::Set(_) => Form::EmptySet,
        _ => Form::Null,
    }
}

/// Generate the labeled obligations for one method.
pub fn method_obligations(
    program: &TypedProgram,
    method: &TypedMethod,
) -> Result<MethodVcs, VcgenError> {
    // Field-name lookup (bare names must be unambiguous program-wide).
    let mut field_names: FxHashMap<Symbol, Symbol> = FxHashMap::default();
    for class in &program.classes {
        for (qualified, _, _) in &class.fields {
            let bare = Symbol::intern(
                qualified
                    .as_str()
                    .split_once('.')
                    .map(|(_, b)| b)
                    .unwrap_or(qualified.as_str()),
            );
            if let Some(existing) = field_names.insert(bare, *qualified) {
                if existing != *qualified {
                    return err(format!(
                        "field name `{bare}` is ambiguous ({existing} vs {qualified})"
                    ));
                }
            }
        }
    }

    let prefix = format!("{}.", method.class);
    let own_defs: FxHashMap<Symbol, Form> = program
        .defs
        .iter()
        .filter(|(k, _)| k.as_str().starts_with(&prefix))
        .map(|(k, v)| (*k, v.clone()))
        .collect();
    let mut ctx = Ctx {
        program,
        class: method.class,
        local_types: FxHashMap::default(),
        field_names,
        own_defs,
    };
    // Track parameter types from the typed method.
    for (pname, jt) in &method.param_types {
        ctx.local_types.insert(*pname, jt.clone());
    }

    let mut gcs: Vec<GC> = Vec::new();

    // Background heap axioms (the closed-world runtime invariants every
    // Java execution maintains): fields of `null` read as `null`, and
    // fields of allocated objects hold allocated-or-null values, so nothing
    // unallocated is ever reachable.
    let alloc = Form::v(sym::ALLOC);
    for class in &program.classes {
        for (qualified, sort, _) in &class.fields {
            if *sort != Sort::field(Sort::Obj) {
                continue;
            }
            let f = Form::Var(*qualified);
            gcs.push(GC::Assume(Form::eq(
                Form::app(f.clone(), vec![Form::Null]),
                Form::Null,
            )));
            let x = Symbol::intern("$hx");
            let fx = Form::app(f.clone(), vec![Form::Var(x)]);
            gcs.push(GC::Assume(Form::forall(
                vec![(x, Sort::Obj)],
                Form::implies(
                    Form::elem(Form::Var(x), alloc.clone()),
                    Form::or(vec![
                        Form::eq(fx.clone(), Form::Null),
                        Form::elem(fx.clone(), alloc.clone()),
                    ]),
                ),
            )));
            // Objects that do not exist yet hold default fields — the
            // strongest closed-world fact the runtime guarantees, and the
            // one that makes global backbone invariants (`tree [...]`)
            // insensitive to junk outside the allocated heap.
            gcs.push(GC::Assume(Form::forall(
                vec![(x, Sort::Obj)],
                Form::implies(
                    Form::not(Form::elem(Form::Var(x), alloc.clone())),
                    Form::eq(fx, Form::Null),
                ),
            )));
        }
    }

    // Entry assumptions: this is allocated and non-null; object params are
    // allocated-or-null; requires; invariants of the receiver.
    if !method.is_static {
        gcs.push(GC::Assume(Form::and(vec![
            Form::ne(Form::v(sym::THIS), Form::Null),
            Form::elem(Form::v(sym::THIS), alloc.clone()),
        ])));
    }
    for (pname, sort) in &method.params {
        if *sort == Sort::Obj {
            gcs.push(GC::Assume(Form::or(vec![
                Form::eq(Form::Var(*pname), Form::Null),
                Form::elem(Form::Var(*pname), alloc.clone()),
            ])));
        }
    }
    if method.is_constructor {
        // A constructor starts from a freshly allocated receiver whose
        // fields hold their default values.
        if let Some(cls) = program.classes.iter().find(|c| c.name == method.class) {
            for (qualified, sort, _) in &cls.fields {
                gcs.push(GC::Assume(Form::eq(
                    Form::app(Form::Var(*qualified), vec![Form::v(sym::THIS)]),
                    default_value(sort),
                )));
            }
        }
    }
    if let Some(req) = &method.contract.requires {
        gcs.push(GC::Assume(ctx.unfold(&strip_old(req))));
    }
    // The receiver's invariants, unfolded once: assumed on entry, and
    // re-established at exit (numbered among all of the class's).
    let this_sym = builtins().this;
    let invariants: Vec<(usize, Form)> = program
        .invariants(method.class)
        .iter()
        .enumerate()
        .filter(|(_, inv)| !(method.is_static && inv.occurs_free(this_sym)))
        .map(|(i, inv)| (i, ctx.unfold(inv)))
        .collect();
    for (_, inv) in &invariants {
        gcs.push(GC::Assume(inv.clone()));
    }

    // Body.
    translate_stmts(&mut ctx, &method.body, &mut gcs)?;

    // Exit obligations.
    let mut posts: Vec<Obligation> = Vec::new();
    if let Some(ens) = &method.contract.ensures {
        posts.push(Obligation {
            label: format!("{}.{}: ensures", method.class, method.name),
            form: ctx.unfold(ens),
        });
    }
    for (i, inv) in invariants {
        posts.push(Obligation {
            label: format!("{}.{}: invariant {}", method.class, method.name, i + 1),
            form: inv,
        });
    }

    let raw = wp_list(&gcs, posts);
    let obligations = finalize(raw)
        .into_iter()
        .map(|o| Obligation {
            label: o.label,
            form: jahob_logic::transform::simplify(&expand_field_writes(&o.form)),
        })
        .collect();
    Ok(MethodVcs {
        class: method.class,
        method: method.name,
        obligations,
    })
}

fn translate_stmts(ctx: &mut Ctx, stmts: &[Stmt], out: &mut Vec<GC>) -> Result<(), VcgenError> {
    for stmt in stmts {
        translate_stmt(ctx, stmt, out)?;
    }
    Ok(())
}

fn translate_stmt(ctx: &mut Ctx, stmt: &Stmt, out: &mut Vec<GC>) -> Result<(), VcgenError> {
    match stmt {
        Stmt::LocalDecl(name, ty, init) => {
            ctx.local_types.insert(*name, ty.clone());
            match init {
                None => out.push(GC::Havoc(*name)),
                Some(Expr::New(cls)) => translate_new(ctx, *name, *cls, out)?,
                Some(Expr::Call {
                    receiver,
                    method,
                    args,
                }) => translate_call(ctx, Some(*name), receiver.as_deref(), *method, args, out)?,
                Some(e) => {
                    let mut checks = Vec::new();
                    let f = ctx.expr_form(e, &mut checks)?;
                    out.extend(checks);
                    out.push(GC::Assign(*name, f));
                }
            }
            Ok(())
        }
        Stmt::Assign(lv, rhs) => {
            match (lv, rhs) {
                (LValue::Local(name), Expr::New(cls)) => {
                    match ctx.resolve_name(*name) {
                        NameKind::Local => translate_new(ctx, *name, *cls, out),
                        _ => {
                            // Allocate into a temporary, then store.
                            let tmp = Symbol::fresh(*name);
                            ctx.local_types.insert(tmp, JType::Ref(*cls));
                            translate_new(ctx, tmp, *cls, out)?;
                            translate_stmt(
                                ctx,
                                &Stmt::Assign(LValue::Local(*name), Expr::Local(tmp)),
                                out,
                            )
                        }
                    }
                }
                (
                    LValue::Local(name),
                    Expr::Call {
                        receiver,
                        method,
                        args,
                    },
                ) => translate_call(ctx, Some(*name), receiver.as_deref(), *method, args, out),
                (LValue::Local(name), e) => {
                    let mut checks = Vec::new();
                    let f = ctx.expr_form(e, &mut checks)?;
                    out.extend(checks);
                    match ctx.resolve_name(*name) {
                        NameKind::Local => out.push(GC::Assign(*name, f)),
                        NameKind::InstanceField(q) => out.push(GC::Assign(
                            q,
                            Form::field_write(Form::Var(q), Form::v(sym::THIS), f),
                        )),
                        NameKind::StaticField(q) => out.push(GC::Assign(q, f)),
                    }
                    Ok(())
                }
                (LValue::Field(base, field), e) => {
                    let mut checks = Vec::new();
                    let b = ctx.expr_form(base, &mut checks)?;
                    let v = ctx.expr_form(e, &mut checks)?;
                    out.extend(checks);
                    out.push(GC::Assert(
                        Form::ne(b.clone(), Form::Null),
                        format!("assignment receiver of .{field} may be null"),
                    ));
                    let qf = ctx.qualify_field(*field)?;
                    out.push(GC::Assign(qf, Form::field_write(Form::Var(qf), b, v)));
                    Ok(())
                }
            }
        }
        Stmt::ExprStmt(Expr::Call {
            receiver,
            method,
            args,
        }) => translate_call(ctx, None, receiver.as_deref(), *method, args, out),
        Stmt::ExprStmt(other) => err(format!("expression statement must be a call: {other:?}")),
        Stmt::If(cond, then_b, else_b) => {
            let mut checks = Vec::new();
            let c = ctx.expr_form(cond, &mut checks)?;
            out.extend(checks);
            let mut tb = vec![GC::Assume(c.clone())];
            translate_stmts(ctx, then_b, &mut tb)?;
            let mut eb = vec![GC::Assume(Form::not(c))];
            translate_stmts(ctx, else_b, &mut eb)?;
            out.push(GC::Choice(vec![GC::Seq(tb), GC::Seq(eb)]));
            Ok(())
        }
        Stmt::While {
            cond,
            invariants,
            body,
        } => {
            // Calls in the condition (`while (!a.empty())`) are hoisted into
            // effect-free evaluation statements that run before *every*
            // guard test — in particular after the invariant havoc, so the
            // guard keeps its meaning on the arbitrary iteration and on
            // exit.
            let (guard_eval, cond2) = match hoist_condition_calls(cond) {
                Some((pre, cond2, _)) => (pre, cond2),
                None => (Vec::new(), cond.clone()),
            };
            // Evaluation statements declare their temporaries; translate a
            // first copy before the loop (entry guard state).
            translate_stmts(ctx, &guard_eval, out)?;

            let inv = ctx.unfold(&Form::and(invariants.clone()));
            let mut checks = Vec::new();
            let c = ctx.expr_form(&cond2, &mut checks)?;
            out.extend(checks.clone());
            // Invariant holds on entry.
            out.push(GC::Assert(inv.clone(), "loop invariant initially".into()));
            // Havoc everything the body (and the guard evaluation) assigns,
            // assume the invariant.
            let mut body_gcs: Vec<GC> = Vec::new();
            let mut body_ctx_types = ctx.local_types.clone();
            translate_stmts(ctx, body, &mut body_gcs)?;
            std::mem::swap(&mut ctx.local_types, &mut body_ctx_types);
            ctx.local_types.extend(body_ctx_types);
            let mut eval_gcs: Vec<GC> = Vec::new();
            translate_eval(ctx, &guard_eval, &mut eval_gcs)?;
            let mut touched = Vec::new();
            assigned_symbols(&body_gcs, &mut touched);
            assigned_symbols(&eval_gcs, &mut touched);
            for s in &touched {
                out.push(GC::Havoc(*s));
            }
            out.push(GC::Assume(inv.clone()));
            // Either run the body once more (and re-establish the
            // invariant, then stop exploring this path), or exit the loop.
            // Both branches re-evaluate the guard first.
            let mut arbitrary_iteration = eval_gcs.clone();
            arbitrary_iteration.push(GC::Assume(c.clone()));
            arbitrary_iteration.extend(checks.clone());
            arbitrary_iteration.extend(body_gcs);
            arbitrary_iteration.push(GC::Assert(inv.clone(), "loop invariant preserved".into()));
            arbitrary_iteration.push(GC::Assume(Form::ff()));
            let mut exit = eval_gcs;
            exit.push(GC::Assume(Form::not(c)));
            out.push(GC::Choice(vec![
                GC::Seq(arbitrary_iteration),
                GC::Seq(exit),
            ]));
            Ok(())
        }
        Stmt::Return(value) => {
            if let Some(e) = value {
                let mut checks = Vec::new();
                let f = ctx.expr_form(e, &mut checks)?;
                out.extend(checks);
                out.push(GC::Assign(Symbol::intern(sym::RESULT), f));
            }
            // Tail returns fall through to the exit obligations; early
            // returns are not supported (the figures use tail returns only).
            Ok(())
        }
        Stmt::GhostAssign(name, value) => {
            let value = &ctx.unfold(value);
            // Instance ghost of this class → fieldWrite at `this`; static →
            // plain assign; plain local ghost otherwise.
            let qualified = jahob_javalite::resolve::qualify(ctx.class, *name);
            if let Some(sort) = ctx.program.sig.get(&qualified) {
                let gc = if matches!(sort, Sort::Fun(_, _)) {
                    GC::Assign(
                        qualified,
                        Form::field_write(Form::Var(qualified), Form::v(sym::THIS), value.clone()),
                    )
                } else {
                    GC::Assign(qualified, value.clone())
                };
                out.push(gc);
            } else {
                out.push(GC::Assign(*name, value.clone()));
            }
            Ok(())
        }
        Stmt::Assert(f) => {
            out.push(GC::Assert(ctx.unfold(f), "assert".into()));
            Ok(())
        }
        Stmt::Assume(f) => {
            out.push(GC::Assume(ctx.unfold(f)));
            Ok(())
        }
        Stmt::NoteThat(f) => {
            let f = ctx.unfold(f);
            out.push(GC::Assert(f.clone(), "noteThat".into()));
            out.push(GC::Assume(f));
            Ok(())
        }
    }
}

/// Translate guard-evaluation statements as *assignments* (their
/// temporaries were already declared by the pre-loop copy).
fn translate_eval(ctx: &mut Ctx, stmts: &[Stmt], out: &mut Vec<GC>) -> Result<(), VcgenError> {
    for s in stmts {
        match s {
            Stmt::LocalDecl(name, _, Some(init)) => {
                translate_stmt(ctx, &Stmt::Assign(LValue::Local(*name), init.clone()), out)?
            }
            other => translate_stmt(ctx, other, out)?,
        }
    }
    Ok(())
}

/// If the condition contains method calls, hoist each into a fresh boolean
/// temporary: returns (pre-loop statements declaring the temporaries, the
/// rewritten condition, and the in-body statements recomputing them).
fn hoist_condition_calls(cond: &Expr) -> Option<(Vec<Stmt>, Expr, Vec<Stmt>)> {
    fn rewrite(e: &Expr, pre: &mut Vec<Stmt>, recompute: &mut Vec<Stmt>) -> Expr {
        match e {
            Expr::Call { .. } => {
                let tmp = Symbol::fresh(Symbol::intern("condcall"));
                pre.push(Stmt::LocalDecl(tmp, JType::Boolean, Some(e.clone())));
                recompute.push(Stmt::Assign(LValue::Local(tmp), e.clone()));
                Expr::Local(tmp)
            }
            Expr::Unary(op, inner) => Expr::Unary(*op, Box::new(rewrite(inner, pre, recompute))),
            Expr::Binary(op, a, b) => Expr::Binary(
                *op,
                Box::new(rewrite(a, pre, recompute)),
                Box::new(rewrite(b, pre, recompute)),
            ),
            other => other.clone(),
        }
    }
    let mut pre = Vec::new();
    let mut recompute = Vec::new();
    let rewritten = rewrite(cond, &mut pre, &mut recompute);
    if pre.is_empty() {
        None
    } else {
        Some((pre, rewritten, recompute))
    }
}

/// `x = new C();` — fresh object with default fields; run the user-defined
/// constructor contract when the class declares one.
fn translate_new(
    ctx: &mut Ctx,
    target: Symbol,
    class: Symbol,
    out: &mut Vec<GC>,
) -> Result<(), VcgenError> {
    ctx.local_types.insert(target, JType::Ref(class));
    let alloc_sym = Symbol::intern(sym::ALLOC);
    out.push(GC::Havoc(target));
    out.push(GC::Assume(Form::and(vec![
        Form::ne(Form::Var(target), Form::Null),
        Form::not(Form::elem(Form::Var(target), Form::Var(alloc_sym))),
    ])));
    // Fields of the fresh object are default-initialized.
    if let Some(cls) = ctx.program.classes.iter().find(|c| c.name == class) {
        for (qualified, sort, _) in &cls.fields {
            out.push(GC::Assume(Form::eq(
                Form::app(Form::Var(*qualified), vec![Form::Var(target)]),
                default_value(sort),
            )));
        }
    }
    out.push(GC::Assign(
        alloc_sym,
        Form::binop(
            BinOp::Union,
            Form::Var(alloc_sym),
            Form::FiniteSet(vec![Form::Var(target)]),
        ),
    ));
    // User-defined constructor contract.
    if let Some(ctor) = ctx
        .program
        .classes
        .iter()
        .find(|c| c.name == class)
        .and_then(|c| c.methods.iter().find(|m| m.is_constructor))
    {
        apply_contract(ctx, ctor, Some(Form::Var(target)), &[], None, out)?;
    }
    Ok(())
}

fn translate_call(
    ctx: &mut Ctx,
    target: Option<Symbol>,
    receiver: Option<&Expr>,
    method: Symbol,
    args: &[Expr],
    out: &mut Vec<GC>,
) -> Result<(), VcgenError> {
    let callee_class = match receiver {
        Some(r) => ctx.receiver_class(r)?,
        None => ctx.class,
    };
    let callee = ctx
        .program
        .classes
        .iter()
        .find(|c| c.name == callee_class)
        .and_then(|c| {
            c.methods
                .iter()
                .find(|m| m.name == method && !m.is_constructor)
        })
        .cloned();
    let Some(callee) = callee else {
        return err(format!("unknown method {callee_class}.{method}"));
    };
    let mut checks = Vec::new();
    let recv_form = match receiver {
        Some(r) if ctx.receiver_is_class(r) => None,
        Some(r) => {
            let f = ctx.expr_form(r, &mut checks)?;
            Some(f)
        }
        None => {
            if callee.is_static {
                None
            } else {
                Some(Form::v(sym::THIS))
            }
        }
    };
    let mut arg_forms = Vec::new();
    for a in args {
        arg_forms.push(ctx.expr_form(a, &mut checks)?);
    }
    out.extend(checks);
    if let Some(r) = &recv_form {
        out.push(GC::Assert(
            Form::ne(r.clone(), Form::Null),
            format!("call receiver of .{method} may be null"),
        ));
    }
    apply_contract(ctx, &callee, recv_form, &arg_forms, target, out)
}

/// Replace a call by its contract: assert the precondition, snapshot the
/// modified state, update it, and assume the postcondition.
///
/// All pre/post bookkeeping is by *substitution*: snapshots are plain
/// assignments (`snap := s`), updates are assignments of `fieldWrite`
/// terms based on the snapshots, and `old e` inside the callee's ensures is
/// rewritten to `e[s := snap]` — no function-equality assumptions are ever
/// introduced, keeping every obligation inside the provers' fragments.
///
/// Known limitation (documented in DESIGN.md): a call target must not also
/// appear among the arguments (`x = r.m(x)`), since the result havoc would
/// capture the argument occurrence.
fn apply_contract(
    _ctx: &mut Ctx,
    callee: &TypedMethod,
    receiver: Option<Form>,
    args: &[Form],
    target: Option<Symbol>,
    out: &mut Vec<GC>,
) -> Result<(), VcgenError> {
    if args.len() != callee.params.len() {
        return err(format!(
            "arity mismatch calling {}.{}",
            callee.class, callee.name
        ));
    }
    if let Some(t) = target {
        for a in args {
            if a.occurs_free(t) {
                return err(format!(
                    "call target `{t}` must not appear among the arguments"
                ));
            }
        }
    }
    // Parameter/this instantiation.
    let mut inst: FxHashMap<Symbol, Form> = FxHashMap::default();
    if let Some(r) = &receiver {
        inst.insert(Symbol::intern(sym::THIS), r.clone());
    }
    for ((pname, _), actual) in callee.params.iter().zip(args) {
        inst.insert(*pname, actual.clone());
    }

    // Precondition.
    if let Some(req) = &callee.contract.requires {
        let req = strip_old(&req.subst(&inst));
        out.push(GC::Assert(
            req,
            format!("precondition of {}.{}", callee.class, callee.name),
        ));
    }

    // Modified designators: `C.v this`-style applications are targeted
    // per-instance updates; plain symbols are whole-state havocs.
    struct Mod {
        symbol: Symbol,
        receiver: Option<Form>,
        snap: Symbol,
        fresh: Symbol,
    }
    let mut mods: Vec<Mod> = Vec::new();
    for designator in &callee.contract.modifies {
        let d = designator.subst(&inst);
        match &d {
            Form::Var(s) => {
                let s = *s;
                mods.push(Mod {
                    symbol: s,
                    receiver: None,
                    snap: Symbol::fresh(s),
                    fresh: Symbol::fresh(s),
                });
            }
            Form::App(head, dargs) if dargs.len() == 1 => {
                let Form::Var(s) = head.as_ref() else {
                    return err(format!("unsupported modifies designator {d}"));
                };
                let s = *s;
                mods.push(Mod {
                    symbol: s,
                    receiver: Some(dargs[0].clone()),
                    snap: Symbol::fresh(s),
                    fresh: Symbol::fresh(s),
                });
            }
            other => return err(format!("unsupported modifies designator {other}")),
        }
    }

    // 1. Snapshot pre-call state.
    for m in &mods {
        out.push(GC::Assign(m.snap, Form::Var(m.symbol)));
    }
    // 2. Havoc the call target.
    if let Some(t) = target {
        out.push(GC::Havoc(t));
    }
    // 3. Update the modified state (fresh values are unconstrained free
    // symbols; no havoc needed since they are globally fresh).
    for m in &mods {
        let updated = match &m.receiver {
            None => Form::Var(m.fresh),
            Some(r) => Form::field_write(Form::Var(m.snap), r.clone(), Form::Var(m.fresh)),
        };
        out.push(GC::Assign(m.symbol, updated));
    }
    // 4. Assume the postcondition: plain state names denote the post state
    // (the step-3 assignments substitute them backwards); `old e` denotes
    // the pre-call state, reached through the snapshots.
    let mut ens = callee
        .contract
        .ensures
        .clone()
        .unwrap_or_else(Form::tt)
        .subst(&inst);
    if let Some(t) = target {
        let mut m = FxHashMap::default();
        m.insert(Symbol::intern(sym::RESULT), Form::Var(t));
        ens = ens.subst(&m);
    }
    let snap_map: FxHashMap<Symbol, Form> =
        mods.iter().map(|m| (m.symbol, Form::Var(m.snap))).collect();
    let ens_final = replace_old(&ens, &snap_map);
    out.push(GC::Assume(ens_final));
    Ok(())
}

/// `old e` → `e[s := snap_s]` for the modified symbols (unmodified symbols
/// retain the same value across the call, so their plain names are already
/// the pre-call values).
fn replace_old(form: &Form, snap_map: &FxHashMap<Symbol, Form>) -> Form {
    replaced_old(form, snap_map).unwrap_or_else(|| form.clone())
}

/// [`replace_old`] as a rewrite: `None` when `form` has no `old`.
fn replaced_old(form: &Form, snap_map: &FxHashMap<Symbol, Form>) -> Option<Form> {
    match form {
        Form::Old(inner) => Some(replace_old(inner, snap_map).subst(snap_map)),
        _ => form.map_children(|child| replaced_old(child, snap_map)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jahob_javalite::{parse_program, resolve};
    use jahob_util::budget::Budget;

    fn vcs_for(src: &str, class: &str, method: &str) -> MethodVcs {
        let prog = parse_program(src).unwrap();
        let typed = resolve(&prog).unwrap();
        let m = typed.method(class, method).unwrap();
        method_obligations(&typed, m).unwrap()
    }

    #[test]
    fn straight_line_assignment() {
        let src = r#"
class C {
  /*: public static specvar g :: int; */
  public void m(int k)
  /*: requires "0 <= k" modifies g ensures "g = k + 1" */
  {
    //: g := "k + 1";
  }
}
"#;
        let vcs = vcs_for(src, "C", "m");
        // VC: 0 <= k --> k + 1 = k + 1 — discharged by the simplifier.
        assert!(vcs.obligations.is_empty(), "{:?}", vcs.obligations);
    }

    #[test]
    fn null_check_obligations() {
        let src = r#"
class C {
  C f;
  public void m(C x) {
    C y = x.f;
  }
}
"#;
        let vcs = vcs_for(src, "C", "m");
        assert!(
            vcs.obligations.iter().any(|o| o.label.contains("null")),
            "{:?}",
            vcs.obligations
        );
    }

    #[test]
    fn loop_produces_invariant_obligations() {
        let src = r#"
class C {
  /*: public static specvar g :: int; */
  public static void m(int k, int limit)
  /*: requires "k <= 0" modifies g ensures "k <= g" */
  {
    //: g := "0";
    while (g < limit)
    /*: inv "k <= g" */
    {
      //: g := "g + 1";
    }
  }
}
"#;
        let vcs = vcs_for(src, "C", "m");
        let labels: Vec<&str> = vcs.obligations.iter().map(|o| o.label.as_str()).collect();
        // "initially" (k ≤ 0 → k ≤ 0) is discharged by the simplifier;
        // "preserved" and "ensures" survive and must be LIA-valid.
        assert!(labels.iter().any(|l| l.contains("preserved")), "{labels:?}");
        assert!(labels.iter().any(|l| l.contains("ensures")), "{labels:?}");
        // And each surviving obligation is LIA-valid.
        for o in &vcs.obligations {
            assert_eq!(
                jahob_presburger::translate::decide_valid(&o.form, &Budget::unlimited()),
                Ok(true),
                "{}: {}",
                o.label,
                o.form
            );
        }
    }

    #[test]
    fn call_contract_inlined() {
        let src = r#"
class Cell {
  /*: public specvar val :: int; */
  public void set(int k)
  /*: modifies val ensures "val = k" */
  { //: val := "k";
  }
}
class User {
  public void use(Cell c)
  /*: requires "c ~= null" modifies "Cell.val" ensures "True" */
  {
    c.set(5);
    //: assert "c..Cell.val = 5";
  }
}
"#;
        let vcs = vcs_for(src, "User", "use");
        // The assert `c..Cell.val = 5` is discharged by pure simplification
        // of the inlined contract (fieldWrite at the same receiver), so no
        // obligation survives under that label — and any that do survive
        // must still mention only call-frame state.
        assert!(
            !vcs.obligations.iter().any(|o| o.label == "assert"),
            "{:?}",
            vcs.obligations
        );
    }

    #[test]
    fn new_object_is_fresh() {
        let src = r#"
class C {
  public Object make()
  /*: ensures "result ~= null & result ~: old Object.alloc" */
  {
    Object x = new Object();
    return x;
  }
}
class Object { }
"#;
        let vcs = vcs_for(src, "C", "make");
        // The ensures obligation should simplify toward True under the
        // freshness assumptions; at minimum it must not mention `old`.
        for o in &vcs.obligations {
            assert!(!o.form.contains_old(), "old left in {}", o.form);
        }
    }

    #[test]
    fn obligations_decompose_into_sequents() {
        let src = r#"
class C {
  public static int g;
  public static int h;
  public void m(int x)
  /*: requires "x > 0 & g > 0" ensures "True" */
  {
    //: assert "x + g > 0";
  }
}
"#;
        let vcs = vcs_for(src, "C", "m");
        let assert_ob = vcs
            .obligations
            .iter()
            .find(|o| o.label.contains("assert"))
            .expect("assert obligation");
        let seq = assert_ob.sequent();
        // The entry assumptions arrive as hypotheses at conjunct
        // granularity, and the goal is the asserted formula.
        assert!(!seq.hyps.is_empty(), "{:?}", assert_ob.form);
        assert!(
            seq.goal.to_string().contains("+"),
            "goal should be the asserted sum: {}",
            seq.goal
        );
        // Refolding the sequent is the obligation again, up to hypothesis
        // flattening — dispatching it must prove identically.
        let refolded = seq.to_form();
        assert_eq!(
            jahob_presburger::translate::decide_valid(&refolded, &Budget::unlimited()),
            jahob_presburger::translate::decide_valid(&assert_ob.form, &Budget::unlimited()),
        );
    }

    #[test]
    fn figure_list_add_generates() {
        let src = include_str!("../../../case_studies/list.javax");
        let vcs = vcs_for(src, "List", "add");
        assert!(!vcs.obligations.is_empty());
        // All obligations are old-free and mention the update of next or
        // first somewhere in the ensures obligation.
        let ens = vcs
            .obligations
            .iter()
            .find(|o| o.label.contains("ensures"))
            .expect("ensures obligation");
        let text = ens.form.to_string();
        // The abstraction function is unfolded and the heap updates flow
        // into it as case splits.
        assert!(text.contains("rtrancl_pt"), "{text}");
        assert!(text.contains("ite"), "{text}");
        assert!(!ens.form.contains_old());
    }
}
