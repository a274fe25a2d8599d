//! Semantic analysis: name resolution and type checking.

use crate::ast::*;
use crate::error::LangError;
use supersym_rng::HashMap;

/// Checks a module: all names defined, no duplicate definitions, all
/// expressions well-typed, `return` statements consistent with signatures.
///
/// # Errors
///
/// Returns the first semantic error found.
pub fn check(module: &Module) -> Result<(), LangError> {
    let mut checker = Checker::new(module)?;
    for func in &module.funcs {
        checker.check_function(func)?;
    }
    Ok(())
}

/// Signature of a function as seen by callers.
struct FnSig {
    params: Vec<Ty>,
    ret: Option<Ty>,
}

/// Maximum AST depth (statements + expressions) the checker accepts.
///
/// The parser's own limit bounds *parenthesized* nesting, but a left-
/// associated operator chain (`a + a + ... + a`) parses iteratively while
/// building an AST whose depth equals the chain length — and `check`,
/// IR lowering, the printers, and the unroller all recurse over that
/// depth. Gating here keeps every downstream recursion bounded, for
/// parsed source and for modules assembled directly from AST nodes alike.
pub const MAX_AST_DEPTH: u32 = 512;

struct Checker<'m> {
    scalars: HashMap<&'m str, Ty>,
    arrays: HashMap<&'m str, Ty>,
    funcs: HashMap<&'m str, FnSig>,
    /// Lexical scopes for the function currently being checked.
    scopes: Vec<HashMap<String, Ty>>,
    current_ret: Option<Ty>,
    /// Current recursion depth over the AST (see [`MAX_AST_DEPTH`]).
    depth: u32,
}

impl<'m> Checker<'m> {
    fn new(module: &'m Module) -> Result<Self, LangError> {
        let mut scalars = HashMap::default();
        let mut arrays = HashMap::default();
        for global in &module.globals {
            let duplicate = match global.kind {
                GlobalKind::Scalar { .. } => {
                    scalars.insert(global.name.as_str(), global.ty).is_some()
                }
                GlobalKind::Array { .. } => {
                    arrays.insert(global.name.as_str(), global.ty).is_some()
                }
            };
            if duplicate
                || (scalars.contains_key(global.name.as_str())
                    && arrays.contains_key(global.name.as_str()))
            {
                return Err(LangError::Redefined {
                    name: global.name.clone(),
                });
            }
        }
        let mut funcs = HashMap::default();
        for func in &module.funcs {
            let sig = FnSig {
                params: func.params.iter().map(|(_, t)| *t).collect(),
                ret: func.ret,
            };
            if funcs.insert(func.name.as_str(), sig).is_some() {
                return Err(LangError::Redefined {
                    name: func.name.clone(),
                });
            }
        }
        Ok(Checker {
            scalars,
            arrays,
            funcs,
            scopes: Vec::new(),
            current_ret: None,
            depth: 0,
        })
    }

    /// Bumps the AST recursion depth, failing with [`LangError::TooDeep`]
    /// at the limit.
    fn enter(&mut self) -> Result<(), LangError> {
        if self.depth >= MAX_AST_DEPTH {
            return Err(LangError::TooDeep {
                limit: MAX_AST_DEPTH,
                line: 0,
            });
        }
        self.depth += 1;
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn check_function(&mut self, func: &FnDecl) -> Result<(), LangError> {
        self.scopes.clear();
        self.scopes.push(HashMap::default());
        for (name, ty) in &func.params {
            if self.scopes[0].insert(name.clone(), *ty).is_some() {
                return Err(LangError::Redefined { name: name.clone() });
            }
        }
        self.current_ret = func.ret;
        self.check_block(&func.body)
    }

    fn check_block(&mut self, block: &Block) -> Result<(), LangError> {
        self.scopes.push(HashMap::default());
        for stmt in &block.stmts {
            self.check_stmt(stmt)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn lookup_var(&self, name: &str) -> Option<Ty> {
        for scope in self.scopes.iter().rev() {
            if let Some(&ty) = scope.get(name) {
                return Some(ty);
            }
        }
        self.scalars.get(name).copied()
    }

    fn declare(&mut self, name: &str, ty: Ty) -> Result<(), LangError> {
        let scope = self.scopes.last_mut().expect("inside a function");
        if scope.insert(name.to_string(), ty).is_some() {
            return Err(LangError::Redefined {
                name: name.to_string(),
            });
        }
        Ok(())
    }

    fn check_stmt(&mut self, stmt: &Stmt) -> Result<(), LangError> {
        self.enter()?;
        let result = self.check_stmt_inner(stmt);
        self.leave();
        result
    }

    fn check_stmt_inner(&mut self, stmt: &Stmt) -> Result<(), LangError> {
        match stmt {
            Stmt::Let { name, ty, init } => {
                let init_ty = self.expect_value(init)?;
                if init_ty != *ty {
                    return Err(LangError::TypeMismatch {
                        context: format!("initializer of `{name}` is {init_ty}, declared {ty}"),
                    });
                }
                self.declare(name, *ty)
            }
            Stmt::Assign { name, value } => {
                let Some(var_ty) = self.lookup_var(name) else {
                    return Err(LangError::Undefined {
                        name: name.clone(),
                        line: 0,
                    });
                };
                let value_ty = self.expect_value(value)?;
                if value_ty != var_ty {
                    return Err(LangError::TypeMismatch {
                        context: format!("assigning {value_ty} to `{name}` of type {var_ty}"),
                    });
                }
                Ok(())
            }
            Stmt::AssignElem { arr, index, value } => {
                let Some(&elem_ty) = self.arrays.get(arr.as_str()) else {
                    return Err(LangError::Undefined {
                        name: arr.clone(),
                        line: 0,
                    });
                };
                let index_ty = self.expect_value(index)?;
                if index_ty != Ty::Int {
                    return Err(LangError::TypeMismatch {
                        context: format!("index into `{arr}` must be int"),
                    });
                }
                let value_ty = self.expect_value(value)?;
                if value_ty != elem_ty {
                    return Err(LangError::TypeMismatch {
                        context: format!("storing {value_ty} into {elem_ty} array `{arr}`"),
                    });
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.expect_int(cond, "if condition")?;
                self.check_block(then_blk)?;
                if let Some(else_blk) = else_blk {
                    self.check_block(else_blk)?;
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                self.expect_int(cond, "while condition")?;
                self.check_block(body)
            }
            Stmt::For {
                var,
                init,
                cond,
                step: _,
                body,
            } => {
                let init_ty = self.expect_value(init)?;
                if init_ty != Ty::Int {
                    return Err(LangError::TypeMismatch {
                        context: format!("for initializer of `{var}` must be int"),
                    });
                }
                self.scopes.push(HashMap::default());
                self.declare(var, Ty::Int)?;
                self.expect_int(cond, "for condition")?;
                self.check_block(body)?;
                self.scopes.pop();
                Ok(())
            }
            Stmt::Return(value) => match (self.current_ret, value) {
                (None, None) => Ok(()),
                (Some(expected), Some(value)) => {
                    let ty = self.expect_value(value)?;
                    if ty != expected {
                        Err(LangError::TypeMismatch {
                            context: format!("returning {ty} from a function returning {expected}"),
                        })
                    } else {
                        Ok(())
                    }
                }
                (None, Some(_)) => Err(LangError::TypeMismatch {
                    context: "returning a value from a void function".into(),
                }),
                (Some(expected), None) => Err(LangError::TypeMismatch {
                    context: format!("empty return in a function returning {expected}"),
                }),
            },
            Stmt::ExprStmt(expr) => {
                self.check_expr(expr)?;
                Ok(())
            }
        }
    }

    fn expect_int(&mut self, expr: &Expr, context: &str) -> Result<(), LangError> {
        let ty = self.expect_value(expr)?;
        if ty != Ty::Int {
            return Err(LangError::TypeMismatch {
                context: format!("{context} must be int, found {ty}"),
            });
        }
        Ok(())
    }

    fn expect_value(&mut self, expr: &Expr) -> Result<Ty, LangError> {
        self.check_expr(expr)?
            .ok_or_else(|| LangError::TypeMismatch {
                context: "void call used as a value".into(),
            })
    }

    fn check_expr(&mut self, expr: &Expr) -> Result<Option<Ty>, LangError> {
        self.enter()?;
        let result = self.check_expr_inner(expr);
        self.leave();
        result
    }

    fn check_expr_inner(&mut self, expr: &Expr) -> Result<Option<Ty>, LangError> {
        match expr {
            Expr::IntLit(_) => Ok(Some(Ty::Int)),
            Expr::FloatLit(_) => Ok(Some(Ty::Float)),
            Expr::Var(name) => {
                self.lookup_var(name)
                    .map(Some)
                    .ok_or_else(|| LangError::Undefined {
                        name: name.clone(),
                        line: 0,
                    })
            }
            Expr::Elem { arr, index } => {
                let Some(&elem_ty) = self.arrays.get(arr.as_str()) else {
                    return Err(LangError::Undefined {
                        name: arr.clone(),
                        line: 0,
                    });
                };
                let index_ty = self.expect_value(index)?;
                if index_ty != Ty::Int {
                    return Err(LangError::TypeMismatch {
                        context: format!("index into `{arr}` must be int"),
                    });
                }
                Ok(Some(elem_ty))
            }
            Expr::Unary { op, expr } => {
                let ty = self.expect_value(expr)?;
                match op {
                    UnOp::Neg => Ok(Some(ty)),
                    UnOp::Not => {
                        if ty != Ty::Int {
                            Err(LangError::TypeMismatch {
                                context: "`!` needs an int operand".into(),
                            })
                        } else {
                            Ok(Some(Ty::Int))
                        }
                    }
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let lhs_ty = self.expect_value(lhs)?;
                let rhs_ty = self.expect_value(rhs)?;
                if lhs_ty != rhs_ty {
                    return Err(LangError::TypeMismatch {
                        context: format!("operands are {lhs_ty} and {rhs_ty}"),
                    });
                }
                if op.is_int_only() && lhs_ty != Ty::Int {
                    return Err(LangError::TypeMismatch {
                        context: "integer-only operator applied to floats".into(),
                    });
                }
                if op.is_comparison() {
                    Ok(Some(Ty::Int))
                } else {
                    Ok(Some(lhs_ty))
                }
            }
            Expr::Call { name, args } => {
                let Some(sig) = self.funcs.get(name.as_str()) else {
                    return Err(LangError::Undefined {
                        name: name.clone(),
                        line: 0,
                    });
                };
                if sig.params.len() != args.len() {
                    return Err(LangError::ArityMismatch {
                        name: name.clone(),
                        expected: sig.params.len(),
                        found: args.len(),
                    });
                }
                let params = sig.params.clone();
                let ret = sig.ret;
                for (arg, expected) in args.iter().zip(params) {
                    let ty = self.expect_value(arg)?;
                    if ty != expected {
                        return Err(LangError::TypeMismatch {
                            context: format!("argument to `{name}` is {ty}, expected {expected}"),
                        });
                    }
                }
                Ok(ret)
            }
            Expr::Cast { to, expr } => {
                let from = self.expect_value(expr)?;
                match (from, to) {
                    (Ty::Int, Ty::Float) | (Ty::Float, Ty::Int) => Ok(Some(*to)),
                    _ => Err(LangError::TypeMismatch {
                        context: format!("cast from {from} to {to}"),
                    }),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn check_src(src: &str) -> Result<(), LangError> {
        check(&parse(src).unwrap())
    }

    #[test]
    fn well_typed_program() {
        check_src(
            "global arr a[8];
             global fvar total = 0.0;
             fn sum(int n) -> int {
                 var s = 0;
                 for (i = 0; i < n; i = i + 1) { s = s + a[i]; }
                 return s;
             }
             fn main() { total = itof(sum(8)); }",
        )
        .unwrap();
    }

    #[test]
    fn undefined_variable() {
        let err = check_src("fn f() { x = 1; }").unwrap_err();
        assert!(matches!(err, LangError::Undefined { .. }));
    }

    #[test]
    fn type_mismatch_assignment() {
        let err = check_src("fn f() { var x = 1; x = 2.0; }").unwrap_err();
        assert!(matches!(err, LangError::TypeMismatch { .. }));
    }

    #[test]
    fn float_index_rejected() {
        let err = check_src("global arr a[4]; fn f() { a[1.5] = 0; }").unwrap_err();
        assert!(matches!(err, LangError::TypeMismatch { .. }));
    }

    #[test]
    fn arity_mismatch() {
        let err = check_src("fn g(int a) { } fn f() { g(); }").unwrap_err();
        assert!(matches!(err, LangError::ArityMismatch { .. }));
    }

    #[test]
    fn void_call_as_value_rejected() {
        let err = check_src("fn g() { } fn f() { var x = g(); }").unwrap_err();
        assert!(matches!(err, LangError::TypeMismatch { .. }));
    }

    #[test]
    fn return_type_checked() {
        assert!(check_src("fn f() -> int { return 1.0; }").is_err());
        assert!(check_src("fn f() -> int { return; }").is_err());
        assert!(check_src("fn f() { return 1; }").is_err());
        assert!(check_src("fn f() { return; }").is_ok());
    }

    #[test]
    fn deep_operator_chain_rejected() {
        // A left-associated chain parses iteratively (the parser never
        // recurses), but the checker walks the left spine — depth must be
        // gated here, not just at parse time.
        use crate::ast::{BinOp, Block, Expr, FnDecl, Module, Stmt};
        let chain = |terms: u32| {
            let mut e = Expr::IntLit(1);
            for _ in 0..terms {
                e = Expr::binary(BinOp::Add, e, Expr::IntLit(1));
            }
            Module {
                globals: vec![],
                funcs: vec![FnDecl {
                    name: "main".into(),
                    params: vec![],
                    ret: Some(Ty::Int),
                    body: Block {
                        stmts: vec![Stmt::Return(Some(e))],
                    },
                }],
            }
        };
        assert!(check(&chain(100)).is_ok());
        assert!(matches!(
            check(&chain(MAX_AST_DEPTH + 1)),
            Err(LangError::TooDeep { .. })
        ));
    }

    #[test]
    fn duplicate_definitions() {
        assert!(matches!(
            check_src("fn f() { } fn f() { }"),
            Err(LangError::Redefined { .. })
        ));
        assert!(matches!(
            check_src("global var x; global var x;"),
            Err(LangError::Redefined { .. })
        ));
        assert!(matches!(
            check_src("fn f(int a, int a) { }"),
            Err(LangError::Redefined { .. })
        ));
    }

    #[test]
    fn scoping_allows_reuse_across_blocks() {
        check_src(
            "fn f() {
                 if (1) { var x = 1; x = x + 1; } else { var x = 2; x = x; }
                 var x = 3;
                 x = x;
             }",
        )
        .unwrap();
    }

    #[test]
    fn for_var_scoped_to_loop() {
        // `i` can be reused by consecutive loops.
        check_src(
            "fn f() {
                 for (i = 0; i < 4; i = i + 1) { }
                 for (i = 0; i < 4; i = i + 1) { }
             }",
        )
        .unwrap();
        // ... but is not visible after the loop.
        assert!(check_src("fn f() { for (i = 0; i < 4; i = i + 1) { } i = 0; }").is_err());
    }

    #[test]
    fn int_only_ops_reject_float() {
        assert!(check_src("fn f(float a) -> float { return a % a; }").is_err());
        assert!(check_src("fn f(int a) -> int { return a % a; }").is_ok());
    }

    #[test]
    fn recursion_allowed() {
        check_src(
            "fn fib(int n) -> int {
                 if (n < 2) { return n; }
                 return fib(n - 1) + fib(n - 2);
             }",
        )
        .unwrap();
    }

    #[test]
    fn mixed_operand_types_rejected() {
        assert!(check_src("fn f(int a, float b) -> int { return a + b; }").is_err());
    }
}
