//! Source-level loop unrolling, naive and careful (§4.4).
//!
//! *Naive* unrolling "consists simply of duplicating the loop body inside
//! the loop": each copy is followed by the induction-variable increment, so
//! array indices in different copies are computed from *different versions*
//! of the induction variable — the scheduler cannot prove the copies
//! independent and "false conflicts between the different copies" impose "a
//! sequential framework" on the computation, exactly as the paper observes.
//!
//! *Careful* unrolling keeps the induction variable fixed across the copies
//! (copy *k* uses `i + k*step`), renames reduction accumulators per copy
//! (combining them after the loop with a balanced tree — reassociation),
//! and thereby both removes the false memory conflicts and breaks the
//! accumulator dependence chain.
//!
//! Only innermost `for` loops in the canonical counted shape are unrolled;
//! a remainder loop handles trip counts not divisible by the factor.

use supersym_lang::ast::{BinOp, Block, Expr, FnDecl, GlobalKind, Module, Stmt, Ty};
use supersym_rng::HashMap;

/// The largest unroll factor `titalc --unroll` accepts. The paper's
/// largest factor, and the experiment registry's, is 10; compile time grows
/// much faster than the factor (the `titalc bound` suite takes about ten
/// times as long at ×32 as at ×16).
pub const MAX_UNROLL: usize = 16;

/// Options for [`unroll_loops`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnrollOptions {
    /// Number of copies of the body per iteration of the unrolled loop.
    pub factor: usize,
    /// Careful (reduction renaming + fixed induction base) vs naive.
    pub careful: bool,
}

impl UnrollOptions {
    /// Naive unrolling by `factor`.
    #[must_use]
    pub fn naive(factor: usize) -> Self {
        UnrollOptions {
            factor,
            careful: false,
        }
    }

    /// Careful unrolling by `factor`.
    #[must_use]
    pub fn careful(factor: usize) -> Self {
        UnrollOptions {
            factor,
            careful: true,
        }
    }
}

/// Unrolls every eligible innermost `for` loop in the module.
/// Returns the number of loops unrolled.
pub fn unroll_loops(module: &mut Module, options: UnrollOptions) -> usize {
    if options.factor < 2 {
        return 0;
    }
    let globals: HashMap<String, Ty> = module
        .globals
        .iter()
        .filter(|g| matches!(g.kind, GlobalKind::Scalar { .. }))
        .map(|g| (g.name.clone(), g.ty))
        .collect();
    let mut count = 0;
    let mut counter = 0_usize;
    let funcs: Vec<FnDecl> = module.funcs.clone();
    for (index, func) in funcs.iter().enumerate() {
        let mut scopes = vec![globals.clone()];
        scopes.push(func.params.iter().cloned().collect());
        let mut body = func.body.clone();
        count += unroll_block(&mut body, options, &mut scopes, &mut counter);
        module.funcs[index].body = body;
    }
    count
}

fn unroll_block(
    block: &mut Block,
    options: UnrollOptions,
    scopes: &mut Vec<HashMap<String, Ty>>,
    counter: &mut usize,
) -> usize {
    let mut count = 0;
    let mut new_stmts: Vec<Stmt> = Vec::with_capacity(block.stmts.len());
    scopes.push(HashMap::default());
    for stmt in block.stmts.drain(..) {
        match stmt {
            Stmt::Let { name, ty, init } => {
                scopes
                    .last_mut()
                    .expect("scope stack is never empty")
                    .insert(name.clone(), ty);
                new_stmts.push(Stmt::Let { name, ty, init });
            }
            Stmt::If {
                cond,
                mut then_blk,
                else_blk,
            } => {
                count += unroll_block(&mut then_blk, options, scopes, counter);
                let else_blk = else_blk.map(|mut b| {
                    count += unroll_block(&mut b, options, scopes, counter);
                    b
                });
                new_stmts.push(Stmt::If {
                    cond,
                    then_blk,
                    else_blk,
                });
            }
            Stmt::While { cond, mut body } => {
                count += unroll_block(&mut body, options, scopes, counter);
                new_stmts.push(Stmt::While { cond, body });
            }
            Stmt::For {
                var,
                init,
                cond,
                step,
                mut body,
            } => {
                // Recurse first: only innermost loops are expanded, but
                // inner loops of this one may themselves be innermost.
                scopes.push([(var.clone(), Ty::Int)].into_iter().collect());
                count += unroll_block(&mut body, options, scopes, counter);
                scopes.pop();
                let for_stmt = Stmt::For {
                    var,
                    init,
                    cond,
                    step,
                    body,
                };
                match try_unroll(&for_stmt, options, scopes, counter) {
                    Some(expansion) => {
                        count += 1;
                        new_stmts.extend(expansion);
                    }
                    None => new_stmts.push(for_stmt),
                }
            }
            other => new_stmts.push(other),
        }
    }
    scopes.pop();
    block.stmts = new_stmts;
    count
}

/// A recognized reduction `x = x op e` at a top-level position in the body.
struct Reduction {
    position: usize,
    name: String,
    op: BinOp,
    ty: Ty,
}

fn try_unroll(
    stmt: &Stmt,
    options: UnrollOptions,
    scopes: &[HashMap<String, Ty>],
    counter: &mut usize,
) -> Option<Vec<Stmt>> {
    let Stmt::For {
        var,
        init,
        cond,
        step,
        body,
    } = stmt
    else {
        return None;
    };
    let (factor, step) = (options.factor, *step);
    if step == 0 {
        return None;
    }
    // Innermost only.
    if block_has_loop(body) || block_has_return(body) {
        return None;
    }
    // The body must not redefine or assign the induction variable.
    if block_writes_var(body, var) || block_declares(body, var) {
        return None;
    }
    // Canonical condition: `var REL bound` (or `bound REL var`).
    let Expr::Binary { op, lhs, rhs } = cond else {
        return None;
    };
    if !matches!(op, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge) {
        return None;
    }
    let bound_ok = |e: &Expr| !e.references_var(var) && !e.contains_call();
    match (lhs.as_ref(), rhs.as_ref()) {
        (Expr::Var(v), bound) if v == var && bound_ok(bound) => {}
        (bound, Expr::Var(v)) if v == var && bound_ok(bound) => {}
        _ => return None,
    }

    *counter += 1;
    let u_name = format!("{var}__u{counter}");
    let u_var = Expr::Var(u_name.clone());

    // Shifted condition guards all `factor` copies: substitute
    // i -> u + (factor-1)*step.
    let last_index = Expr::binary(
        BinOp::Add,
        u_var.clone(),
        Expr::IntLit((factor as i64 - 1) * step),
    );
    let shifted_cond = cond.substitute_var(var, &last_index);
    let remainder_cond = cond.substitute_var(var, &u_var);

    let mut out: Vec<Stmt> = Vec::new();
    out.push(Stmt::Let {
        name: u_name.clone(),
        ty: Ty::Int,
        init: init.clone(),
    });

    if options.careful {
        let reductions = find_reductions(body, var, scopes);
        // Accumulators for copies 1..factor.
        for k in 1..factor {
            for r in &reductions {
                out.push(Stmt::Let {
                    name: acc_name(&r.name, k, *counter),
                    ty: r.ty,
                    init: identity(r.op, r.ty),
                });
            }
        }
        // Main loop: copies with fixed base `u + k*step`.
        let mut main_body: Vec<Stmt> = Vec::new();
        for k in 0..factor {
            let index_expr = if k == 0 {
                u_var.clone()
            } else {
                Expr::binary(BinOp::Add, u_var.clone(), Expr::IntLit(k as i64 * step))
            };
            for (position, body_stmt) in body.stmts.iter().enumerate() {
                let mut copy = subst_stmt(body_stmt, var, &index_expr);
                if k > 0 {
                    if let Some(r) = reductions.iter().find(|r| r.position == position) {
                        copy = retarget_reduction(&copy, &r.name, &acc_name(&r.name, k, *counter));
                    }
                }
                main_body.push(copy);
            }
        }
        main_body.push(Stmt::Assign {
            name: u_name.clone(),
            value: Expr::binary(
                BinOp::Add,
                u_var.clone(),
                Expr::IntLit(factor as i64 * step),
            ),
        });
        out.push(Stmt::While {
            cond: shifted_cond,
            body: Block { stmts: main_body },
        });
        // Combine accumulators with a balanced tree.
        for r in &reductions {
            let mut terms: Vec<Expr> = vec![Expr::Var(r.name.clone())];
            for k in 1..factor {
                terms.push(Expr::Var(acc_name(&r.name, k, *counter)));
            }
            while terms.len() > 1 {
                let mut next = Vec::with_capacity(terms.len().div_ceil(2));
                let mut iter = terms.chunks_exact(2);
                for pair in iter.by_ref() {
                    next.push(Expr::binary(r.op, pair[0].clone(), pair[1].clone()));
                }
                if let [odd] = iter.remainder() {
                    next.push(odd.clone());
                }
                terms = next;
            }
            out.push(Stmt::Assign {
                name: r.name.clone(),
                value: terms.pop().expect("non-empty"),
            });
        }
    } else {
        // Naive: copy; u = u + step; copy; ... inside the loop.
        let mut main_body: Vec<Stmt> = Vec::new();
        for k in 0..factor {
            for body_stmt in &body.stmts {
                main_body.push(subst_stmt(body_stmt, var, &u_var));
            }
            if k + 1 < factor {
                main_body.push(Stmt::Assign {
                    name: u_name.clone(),
                    value: Expr::binary(BinOp::Add, u_var.clone(), Expr::IntLit(step)),
                });
            }
        }
        main_body.push(Stmt::Assign {
            name: u_name.clone(),
            value: Expr::binary(BinOp::Add, u_var.clone(), Expr::IntLit(step)),
        });
        out.push(Stmt::While {
            cond: shifted_cond,
            body: Block { stmts: main_body },
        });
    }

    // Remainder loop.
    let mut rem_body: Vec<Stmt> = body
        .stmts
        .iter()
        .map(|s| subst_stmt(s, var, &u_var))
        .collect();
    rem_body.push(Stmt::Assign {
        name: u_name,
        value: Expr::binary(BinOp::Add, u_var, Expr::IntLit(step)),
    });
    out.push(Stmt::While {
        cond: remainder_cond,
        body: Block { stmts: rem_body },
    });
    Some(out)
}

fn acc_name(base: &str, copy: usize, counter: usize) -> String {
    format!("{base}__acc{counter}_{copy}")
}

fn identity(op: BinOp, ty: Ty) -> Expr {
    match (op, ty) {
        (BinOp::Add, Ty::Int) => Expr::IntLit(0),
        (BinOp::Add, Ty::Float) => Expr::FloatLit(0.0),
        (BinOp::Mul, Ty::Int) => Expr::IntLit(1),
        (BinOp::Mul, Ty::Float) => Expr::FloatLit(1.0),
        _ => unreachable!("reductions are adds or muls"),
    }
}

/// Finds `x = x op e` reductions among the body's top-level statements.
fn find_reductions(body: &Block, loop_var: &str, scopes: &[HashMap<String, Ty>]) -> Vec<Reduction> {
    let mut candidates: Vec<Reduction> = Vec::new();
    for (position, stmt) in body.stmts.iter().enumerate() {
        let Stmt::Assign { name, value } = stmt else {
            continue;
        };
        if name == loop_var {
            continue;
        }
        let Expr::Binary { op, lhs, rhs } = value else {
            continue;
        };
        if !matches!(op, BinOp::Add | BinOp::Mul) {
            continue;
        }
        let other = match (lhs.as_ref(), rhs.as_ref()) {
            (Expr::Var(v), e) if v == name => e,
            (e, Expr::Var(v)) if v == name => e,
            _ => continue,
        };
        if other.references_var(name) || other.contains_call() {
            continue;
        }
        let Some(ty) = lookup_ty(scopes, name) else {
            continue;
        };
        candidates.push(Reduction {
            position,
            name: name.clone(),
            op: *op,
            ty,
        });
    }
    // The accumulator must not appear anywhere else in the body.
    candidates.retain(|r| {
        body.stmts
            .iter()
            .enumerate()
            .all(|(position, stmt)| position == r.position || !stmt_references_var(stmt, &r.name))
    });
    // And must be unique (a variable reduced in two statements is carried).
    let mut unique: Vec<Reduction> = Vec::new();
    for r in candidates {
        if unique.iter().any(|u| u.name == r.name) {
            unique.retain(|u| u.name != r.name);
        } else {
            unique.push(r);
        }
    }
    unique
}

fn lookup_ty(scopes: &[HashMap<String, Ty>], name: &str) -> Option<Ty> {
    scopes.iter().rev().find_map(|s| s.get(name).copied())
}

fn retarget_reduction(stmt: &Stmt, from: &str, to: &str) -> Stmt {
    let Stmt::Assign { name, value } = stmt else {
        unreachable!("reduction positions hold assignments");
    };
    debug_assert_eq!(name, from);
    Stmt::Assign {
        name: to.to_string(),
        value: value.substitute_var(from, &Expr::Var(to.to_string())),
    }
}

fn block_has_loop(block: &Block) -> bool {
    block.stmts.iter().any(|s| match s {
        Stmt::For { .. } | Stmt::While { .. } => true,
        Stmt::If {
            then_blk, else_blk, ..
        } => block_has_loop(then_blk) || else_blk.as_ref().is_some_and(block_has_loop),
        _ => false,
    })
}

fn block_has_return(block: &Block) -> bool {
    block.stmts.iter().any(|s| match s {
        Stmt::Return(_) => true,
        Stmt::If {
            then_blk, else_blk, ..
        } => block_has_return(then_blk) || else_blk.as_ref().is_some_and(block_has_return),
        Stmt::For { body, .. } | Stmt::While { body, .. } => block_has_return(body),
        _ => false,
    })
}

fn block_writes_var(block: &Block, name: &str) -> bool {
    block.stmts.iter().any(|s| match s {
        Stmt::Assign { name: n, .. } => n == name,
        Stmt::If {
            then_blk, else_blk, ..
        } => {
            block_writes_var(then_blk, name)
                || else_blk.as_ref().is_some_and(|b| block_writes_var(b, name))
        }
        Stmt::For { body, .. } | Stmt::While { body, .. } => block_writes_var(body, name),
        _ => false,
    })
}

fn block_declares(block: &Block, name: &str) -> bool {
    block.stmts.iter().any(|s| match s {
        Stmt::Let { name: n, .. } => n == name,
        Stmt::For { var, body, .. } => var == name || block_declares(body, name),
        Stmt::If {
            then_blk, else_blk, ..
        } => {
            block_declares(then_blk, name)
                || else_blk.as_ref().is_some_and(|b| block_declares(b, name))
        }
        Stmt::While { body, .. } => block_declares(body, name),
        _ => false,
    })
}

fn stmt_references_var(stmt: &Stmt, name: &str) -> bool {
    match stmt {
        Stmt::Let { init, .. } => init.references_var(name),
        Stmt::Assign { name: n, value } => n == name || value.references_var(name),
        Stmt::AssignElem { index, value, .. } => {
            index.references_var(name) || value.references_var(name)
        }
        Stmt::If {
            cond,
            then_blk,
            else_blk,
        } => {
            cond.references_var(name)
                || then_blk.stmts.iter().any(|s| stmt_references_var(s, name))
                || else_blk
                    .as_ref()
                    .is_some_and(|b| b.stmts.iter().any(|s| stmt_references_var(s, name)))
        }
        Stmt::While { cond, body } => {
            cond.references_var(name) || body.stmts.iter().any(|s| stmt_references_var(s, name))
        }
        Stmt::For {
            var,
            init,
            cond,
            body,
            ..
        } => {
            init.references_var(name)
                || (var != name
                    && (cond.references_var(name)
                        || body.stmts.iter().any(|s| stmt_references_var(s, name))))
        }
        Stmt::Return(Some(e)) => e.references_var(name),
        Stmt::Return(None) => false,
        Stmt::ExprStmt(e) => e.references_var(name),
    }
}

fn subst_stmt(stmt: &Stmt, name: &str, replacement: &Expr) -> Stmt {
    match stmt {
        Stmt::Let { name: n, ty, init } => Stmt::Let {
            name: n.clone(),
            ty: *ty,
            init: init.substitute_var(name, replacement),
        },
        Stmt::Assign { name: n, value } => Stmt::Assign {
            name: n.clone(),
            value: value.substitute_var(name, replacement),
        },
        Stmt::AssignElem { arr, index, value } => Stmt::AssignElem {
            arr: arr.clone(),
            index: index.substitute_var(name, replacement),
            value: value.substitute_var(name, replacement),
        },
        Stmt::If {
            cond,
            then_blk,
            else_blk,
        } => Stmt::If {
            cond: cond.substitute_var(name, replacement),
            then_blk: subst_block(then_blk, name, replacement),
            else_blk: else_blk.as_ref().map(|b| subst_block(b, name, replacement)),
        },
        Stmt::While { cond, body } => Stmt::While {
            cond: cond.substitute_var(name, replacement),
            body: subst_block(body, name, replacement),
        },
        Stmt::For {
            var,
            init,
            cond,
            step,
            body,
        } => {
            let init = init.substitute_var(name, replacement);
            if var == name {
                // Shadowed inside.
                Stmt::For {
                    var: var.clone(),
                    init,
                    cond: cond.clone(),
                    step: *step,
                    body: body.clone(),
                }
            } else {
                Stmt::For {
                    var: var.clone(),
                    init,
                    cond: cond.substitute_var(name, replacement),
                    step: *step,
                    body: subst_block(body, name, replacement),
                }
            }
        }
        Stmt::Return(v) => Stmt::Return(v.as_ref().map(|e| e.substitute_var(name, replacement))),
        Stmt::ExprStmt(e) => Stmt::ExprStmt(e.substitute_var(name, replacement)),
    }
}

fn subst_block(block: &Block, name: &str, replacement: &Expr) -> Block {
    Block {
        stmts: block
            .stmts
            .iter()
            .map(|s| subst_stmt(s, name, replacement))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Module {
        let m = supersym_lang::parse(src).unwrap();
        supersym_lang::check(&m).unwrap();
        m
    }

    const SUM_SRC: &str = "global arr a[100];
        fn main() -> int {
            var s = 0;
            for (i = 0; i < 100; i = i + 1) { s = s + a[i]; }
            return s;
        }";

    #[test]
    fn naive_unroll_duplicates_body() {
        let mut module = parse(SUM_SRC);
        assert_eq!(unroll_loops(&mut module, UnrollOptions::naive(4)), 1);
        // The For is replaced: Let + main While + remainder While.
        let stmts = &module.funcs[0].body.stmts;
        let whiles = stmts
            .iter()
            .filter(|s| matches!(s, Stmt::While { .. }))
            .count();
        assert_eq!(whiles, 2);
        // Naive copies interleave induction updates: 4 copies + 4 updates.
        let Some(Stmt::While { body, .. }) = stmts.iter().find(|s| matches!(s, Stmt::While { .. }))
        else {
            panic!()
        };
        assert_eq!(body.stmts.len(), 8);
    }

    #[test]
    fn careful_unroll_creates_accumulators() {
        let mut module = parse(SUM_SRC);
        assert_eq!(unroll_loops(&mut module, UnrollOptions::careful(4)), 1);
        let stmts = &module.funcs[0].body.stmts;
        let lets = stmts
            .iter()
            .filter(|s| matches!(s, Stmt::Let { name, .. } if name.contains("__acc")))
            .count();
        assert_eq!(lets, 3); // copies 1..4
                             // Combining assignment exists.
        assert!(stmts.iter().any(
            |s| matches!(s, Stmt::Assign { name, value: Expr::Binary { .. } } if name == "s")
        ));
    }

    #[test]
    fn careful_copies_share_induction_base() {
        let mut module = parse(
            "global arr a[100];
             fn main() { for (i = 0; i < 100; i = i + 1) { a[i] = i; } }",
        );
        unroll_loops(&mut module, UnrollOptions::careful(2));
        let Some(Stmt::While { body, .. }) = module.funcs[0]
            .body
            .stmts
            .iter()
            .find(|s| matches!(s, Stmt::While { .. }))
        else {
            panic!()
        };
        // Two copies then one induction update.
        assert_eq!(body.stmts.len(), 3);
        assert!(matches!(&body.stmts[2], Stmt::Assign { .. }));
    }

    #[test]
    fn unrolled_sum_is_semantically_equal() {
        // Compare by interpretation-through-lowering in integration tests;
        // here, structurally: remainder loop exists for non-divisible trips.
        let mut module = parse(
            "global arr a[10];
             fn main() -> int {
                 var s = 0;
                 for (i = 0; i < 10; i = i + 3) { s = s + a[i]; }
                 return s;
             }",
        );
        assert_eq!(unroll_loops(&mut module, UnrollOptions::careful(4)), 1);
        // Still lowers and validates.
        let ir = supersym_ir::lower(&module).unwrap();
        ir.validate().unwrap();
    }

    #[test]
    fn non_canonical_loops_skipped() {
        // Condition not in `i REL bound` shape.
        let mut module = parse(
            "fn main() -> int {
                 var s = 0;
                 for (i = 0; s < 10; i = i + 1) { s = s + i; }
                 return s;
             }",
        );
        assert_eq!(unroll_loops(&mut module, UnrollOptions::naive(4)), 0);
    }

    #[test]
    fn loops_with_calls_in_bound_skipped() {
        let mut module = parse(
            "fn n() -> int { return 10; }
             fn main() -> int {
                 var s = 0;
                 for (i = 0; i < n(); i = i + 1) { s = s + i; }
                 return s;
             }",
        );
        assert_eq!(unroll_loops(&mut module, UnrollOptions::naive(4)), 0);
    }

    #[test]
    fn outer_loops_not_unrolled() {
        let mut module = parse(
            "global arr a[64];
             fn main() {
                 for (i = 0; i < 8; i = i + 1) {
                     for (j = 0; j < 8; j = j + 1) { a[i * 8 + j] = j; }
                 }
             }",
        );
        // Only the inner loop unrolls.
        assert_eq!(unroll_loops(&mut module, UnrollOptions::careful(2)), 1);
        let outer = module.funcs[0]
            .body
            .stmts
            .iter()
            .find(|s| matches!(s, Stmt::For { .. }));
        assert!(outer.is_some(), "outer for survives");
    }

    #[test]
    fn negative_step_unrolls() {
        let mut module = parse(
            "global arr a[100];
             fn main() -> int {
                 var s = 0;
                 for (i = 99; i > 0; i = i - 1) { s = s + a[i]; }
                 return s;
             }",
        );
        assert_eq!(unroll_loops(&mut module, UnrollOptions::careful(4)), 1);
        let ir = supersym_ir::lower(&module).unwrap();
        ir.validate().unwrap();
    }

    #[test]
    fn multiplicative_reduction_recognized() {
        let mut module = parse(
            "fn main() -> float {
                 fvar p = 1.0;
                 for (i = 0; i < 16; i = i + 1) { p = p * 1.01; }
                 return p;
             }",
        );
        assert_eq!(unroll_loops(&mut module, UnrollOptions::careful(4)), 1);
        let lets = module.funcs[0]
            .body
            .stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::Let { name, init, .. } if name.contains("__acc") => Some(init.clone()),
                _ => None,
            })
            .collect::<Vec<_>>();
        assert_eq!(lets.len(), 3);
        assert!(lets
            .iter()
            .all(|e| matches!(e, Expr::FloatLit(v) if *v == 1.0)));
    }

    #[test]
    fn reduction_used_elsewhere_not_renamed() {
        let mut module = parse(
            "global arr a[100]; global arr b[100];
             fn main() -> int {
                 var s = 0;
                 for (i = 0; i < 100; i = i + 1) { s = s + a[i]; b[i] = s; }
                 return s;
             }",
        );
        unroll_loops(&mut module, UnrollOptions::careful(4));
        // s is observed by b[i] = s each iteration: it is carried, not a
        // reduction; no accumulators may be created.
        let accs = module.funcs[0]
            .body
            .stmts
            .iter()
            .filter(|s| matches!(s, Stmt::Let { name, .. } if name.contains("__acc")))
            .count();
        assert_eq!(accs, 0);
    }
}
