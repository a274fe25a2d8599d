//! Recursive-descent parser for Tital.

use crate::ast::*;
use crate::error::LangError;
use crate::lexer::{lex, Token, TokenKind};

/// Parses a Tital module from source text.
///
/// # Errors
///
/// Returns the first lexical or syntactic error.
///
/// ```
/// let module = supersym_lang::parse("fn main() { return; }")?;
/// assert_eq!(module.funcs[0].name, "main");
/// # Ok::<(), supersym_lang::LangError>(())
/// ```
pub fn parse(source: &str) -> Result<Module, LangError> {
    let tokens = lex(source)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    parser.module()
}

/// Maximum combined statement/expression nesting depth the parser accepts.
///
/// Each level of nesting costs about a dozen stack frames through the
/// precedence chain, so 200 levels stay far below any realistic stack
/// while comfortably above any program a human (or the unroller) writes.
/// Shared with the semantic checker so a [`Module`] built directly from
/// AST nodes is gated the same way as parsed source.
pub(crate) const MAX_NESTING_DEPTH: u32 = 200;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current statement + expression nesting depth (see
    /// [`MAX_NESTING_DEPTH`]).
    depth: u32,
}

impl Parser {
    /// Bumps the nesting depth, failing with [`LangError::TooDeep`] at the
    /// limit. Every recursive production calls this on entry and
    /// [`Self::leave`] on exit.
    fn enter(&mut self) -> Result<(), LangError> {
        if self.depth >= MAX_NESTING_DEPTH {
            return Err(LangError::TooDeep {
                limit: MAX_NESTING_DEPTH,
                line: self.line(),
            });
        }
        self.depth += 1;
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    /// Steps past the current token; the final `Eof` is never passed.
    fn advance(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    /// Steps past the current token and returns a copy of it, for the
    /// callers that read the token they consume.
    fn bump(&mut self) -> TokenKind {
        let kind = self.tokens[self.pos].kind.clone();
        self.advance();
        kind
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), TokenKind::Punct(s) if *s == p) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), LangError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("`{p}`")))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), TokenKind::Ident(s) if s == kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, LangError> {
        match self.peek() {
            TokenKind::Ident(s) if !is_keyword(s) => {
                let s = s.clone();
                self.advance();
                Ok(s)
            }
            _ => Err(self.unexpected("an identifier")),
        }
    }

    fn unexpected(&self, expected: &str) -> LangError {
        LangError::UnexpectedToken {
            found: self.peek().to_string(),
            expected: expected.to_string(),
            line: self.line(),
        }
    }

    fn module(&mut self) -> Result<Module, LangError> {
        let mut module = Module::default();
        loop {
            if matches!(self.peek(), TokenKind::Eof) {
                break;
            }
            if self.eat_keyword("global") {
                module.globals.push(self.global()?);
            } else if self.eat_keyword("fn") {
                module.funcs.push(self.function()?);
            } else {
                return Err(self.unexpected("`global` or `fn`"));
            }
        }
        Ok(module)
    }

    fn global(&mut self) -> Result<GlobalDecl, LangError> {
        let (ty, is_array) = if self.eat_keyword("var") {
            (Ty::Int, false)
        } else if self.eat_keyword("fvar") {
            (Ty::Float, false)
        } else if self.eat_keyword("arr") {
            (Ty::Int, true)
        } else if self.eat_keyword("farr") {
            (Ty::Float, true)
        } else {
            return Err(self.unexpected("`var`, `fvar`, `arr` or `farr`"));
        };
        let name = self.expect_ident()?;
        let kind = if is_array {
            self.expect_punct("[")?;
            let len = match self.bump() {
                TokenKind::Int(v) if v > 0 => v as usize,
                other => {
                    return Err(LangError::UnexpectedToken {
                        found: other.to_string(),
                        expected: "a positive array length".into(),
                        line: self.line(),
                    })
                }
            };
            self.expect_punct("]")?;
            GlobalKind::Array { len }
        } else if self.eat_punct("=") {
            let negative = self.eat_punct("-");
            let value = match self.bump() {
                TokenKind::Int(v) => v as f64,
                TokenKind::Float(v) => v,
                other => {
                    return Err(LangError::UnexpectedToken {
                        found: other.to_string(),
                        expected: "a literal initializer".into(),
                        line: self.line(),
                    })
                }
            };
            GlobalKind::Scalar {
                init: Some(if negative { -value } else { value }),
            }
        } else {
            GlobalKind::Scalar { init: None }
        };
        self.expect_punct(";")?;
        Ok(GlobalDecl { name, ty, kind })
    }

    fn ty(&mut self) -> Result<Ty, LangError> {
        if self.eat_keyword("int") {
            Ok(Ty::Int)
        } else if self.eat_keyword("float") {
            Ok(Ty::Float)
        } else {
            Err(self.unexpected("`int` or `float`"))
        }
    }

    fn function(&mut self) -> Result<FnDecl, LangError> {
        let name = self.expect_ident()?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            loop {
                let ty = self.ty()?;
                let pname = self.expect_ident()?;
                params.push((pname, ty));
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        let ret = if self.eat_punct("->") {
            Some(self.ty()?)
        } else {
            None
        };
        let body = self.block()?;
        Ok(FnDecl {
            name,
            params,
            ret,
            body,
        })
    }

    fn block(&mut self) -> Result<Block, LangError> {
        self.expect_punct("{")?;
        let mut stmts = Vec::new();
        while !self.eat_punct("}") {
            stmts.push(self.stmt()?);
        }
        Ok(Block { stmts })
    }

    fn stmt(&mut self) -> Result<Stmt, LangError> {
        self.enter()?;
        let stmt = self.stmt_inner();
        self.leave();
        stmt
    }

    fn stmt_inner(&mut self) -> Result<Stmt, LangError> {
        if self.eat_keyword("var") {
            let name = self.expect_ident()?;
            self.expect_punct("=")?;
            let init = self.expr()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Let {
                name,
                ty: Ty::Int,
                init,
            });
        }
        if self.eat_keyword("fvar") {
            let name = self.expect_ident()?;
            self.expect_punct("=")?;
            let init = self.expr()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Let {
                name,
                ty: Ty::Float,
                init,
            });
        }
        if self.eat_keyword("if") {
            return self.if_stmt();
        }
        if self.eat_keyword("while") {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let body = self.block()?;
            return Ok(Stmt::While { cond, body });
        }
        if self.eat_keyword("for") {
            return self.for_stmt();
        }
        if self.eat_keyword("return") {
            if self.eat_punct(";") {
                return Ok(Stmt::Return(None));
            }
            let value = self.expr()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Return(Some(value)));
        }
        // Assignment, element assignment, or expression statement.
        if let TokenKind::Ident(name) = self.peek() {
            if !is_keyword(name) {
                let name = name.clone();
                let save = self.pos;
                self.advance();
                if self.eat_punct("=") {
                    let value = self.expr()?;
                    self.expect_punct(";")?;
                    return Ok(Stmt::Assign { name, value });
                }
                if self.eat_punct("[") {
                    let index = self.expr()?;
                    self.expect_punct("]")?;
                    if self.eat_punct("=") {
                        let value = self.expr()?;
                        self.expect_punct(";")?;
                        return Ok(Stmt::AssignElem {
                            arr: name,
                            index,
                            value,
                        });
                    }
                }
                self.pos = save;
            }
        }
        let expr = self.expr()?;
        self.expect_punct(";")?;
        Ok(Stmt::ExprStmt(expr))
    }

    fn if_stmt(&mut self) -> Result<Stmt, LangError> {
        // `else if` chains recurse here without passing through `stmt`, so
        // the chain needs its own depth accounting.
        self.enter()?;
        let stmt = self.if_stmt_inner();
        self.leave();
        stmt
    }

    fn if_stmt_inner(&mut self) -> Result<Stmt, LangError> {
        self.expect_punct("(")?;
        let cond = self.expr()?;
        self.expect_punct(")")?;
        let then_blk = self.block()?;
        let else_blk = if self.eat_keyword("else") {
            if self.eat_keyword("if") {
                // `else if` chains become a nested block.
                let nested = self.if_stmt()?;
                Some(Block {
                    stmts: vec![nested],
                })
            } else {
                Some(self.block()?)
            }
        } else {
            None
        };
        Ok(Stmt::If {
            cond,
            then_blk,
            else_blk,
        })
    }

    fn for_stmt(&mut self) -> Result<Stmt, LangError> {
        self.expect_punct("(")?;
        let var = self.expect_ident()?;
        self.expect_punct("=")?;
        let init = self.expr()?;
        self.expect_punct(";")?;
        let cond = self.expr()?;
        self.expect_punct(";")?;
        let var2 = self.expect_ident()?;
        if var2 != var {
            return Err(LangError::UnexpectedToken {
                found: format!("`{var2}`"),
                expected: format!("the induction variable `{var}`"),
                line: self.line(),
            });
        }
        self.expect_punct("=")?;
        let var3 = self.expect_ident()?;
        if var3 != var {
            return Err(LangError::UnexpectedToken {
                found: format!("`{var3}`"),
                expected: format!("`{var} + <constant>` or `{var} - <constant>`"),
                line: self.line(),
            });
        }
        let negative = if self.eat_punct("+") {
            false
        } else if self.eat_punct("-") {
            true
        } else {
            return Err(self.unexpected("`+` or `-`"));
        };
        let step = match self.bump() {
            TokenKind::Int(v) => {
                if negative {
                    -v
                } else {
                    v
                }
            }
            other => {
                return Err(LangError::UnexpectedToken {
                    found: other.to_string(),
                    expected: "a constant step".into(),
                    line: self.line(),
                })
            }
        };
        self.expect_punct(")")?;
        let body = self.block()?;
        Ok(Stmt::For {
            var,
            init,
            cond,
            step,
            body,
        })
    }

    fn expr(&mut self) -> Result<Expr, LangError> {
        self.enter()?;
        let expr = self.or_expr();
        self.leave();
        expr
    }

    fn or_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.and_expr()?;
        while self.eat_punct("||") {
            let rhs = self.and_expr()?;
            // Non-short-circuit: (lhs != 0) | (rhs != 0).
            lhs = Expr::binary(
                BinOp::Or,
                Expr::binary(BinOp::Ne, lhs, Expr::IntLit(0)),
                Expr::binary(BinOp::Ne, rhs, Expr::IntLit(0)),
            );
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.bitor_expr()?;
        while self.eat_punct("&&") {
            let rhs = self.bitor_expr()?;
            lhs = Expr::binary(
                BinOp::And,
                Expr::binary(BinOp::Ne, lhs, Expr::IntLit(0)),
                Expr::binary(BinOp::Ne, rhs, Expr::IntLit(0)),
            );
        }
        Ok(lhs)
    }

    fn bitor_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.bitand_expr()?;
        loop {
            if self.eat_punct("|") {
                lhs = Expr::binary(BinOp::Or, lhs, self.bitand_expr()?);
            } else if self.eat_punct("^") {
                lhs = Expr::binary(BinOp::Xor, lhs, self.bitand_expr()?);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn bitand_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.equality_expr()?;
        while self.eat_punct("&") {
            lhs = Expr::binary(BinOp::And, lhs, self.equality_expr()?);
        }
        Ok(lhs)
    }

    fn equality_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.relational_expr()?;
        loop {
            if self.eat_punct("==") {
                lhs = Expr::binary(BinOp::Eq, lhs, self.relational_expr()?);
            } else if self.eat_punct("!=") {
                lhs = Expr::binary(BinOp::Ne, lhs, self.relational_expr()?);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn relational_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.shift_expr()?;
        loop {
            if self.eat_punct("<=") {
                lhs = Expr::binary(BinOp::Le, lhs, self.shift_expr()?);
            } else if self.eat_punct(">=") {
                lhs = Expr::binary(BinOp::Ge, lhs, self.shift_expr()?);
            } else if self.eat_punct("<") {
                lhs = Expr::binary(BinOp::Lt, lhs, self.shift_expr()?);
            } else if self.eat_punct(">") {
                lhs = Expr::binary(BinOp::Gt, lhs, self.shift_expr()?);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn shift_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.additive_expr()?;
        loop {
            if self.eat_punct("<<") {
                lhs = Expr::binary(BinOp::Shl, lhs, self.additive_expr()?);
            } else if self.eat_punct(">>") {
                lhs = Expr::binary(BinOp::Shr, lhs, self.additive_expr()?);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn additive_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.multiplicative_expr()?;
        loop {
            if self.eat_punct("+") {
                lhs = Expr::binary(BinOp::Add, lhs, self.multiplicative_expr()?);
            } else if self.eat_punct("-") {
                lhs = Expr::binary(BinOp::Sub, lhs, self.multiplicative_expr()?);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn multiplicative_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.unary_expr()?;
        loop {
            if self.eat_punct("*") {
                lhs = Expr::binary(BinOp::Mul, lhs, self.unary_expr()?);
            } else if self.eat_punct("/") {
                lhs = Expr::binary(BinOp::Div, lhs, self.unary_expr()?);
            } else if self.eat_punct("%") {
                lhs = Expr::binary(BinOp::Rem, lhs, self.unary_expr()?);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn unary_expr(&mut self) -> Result<Expr, LangError> {
        // `----x` and `!!!!x` recurse without re-entering `expr`, so unary
        // chains are depth-counted separately.
        self.enter()?;
        let expr = self.unary_expr_inner();
        self.leave();
        expr
    }

    fn unary_expr_inner(&mut self) -> Result<Expr, LangError> {
        if self.eat_punct("-") {
            let expr = self.unary_expr()?;
            return Ok(Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(expr),
            });
        }
        if self.eat_punct("!") {
            let expr = self.unary_expr()?;
            return Ok(Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(expr),
            });
        }
        self.primary_expr()
    }

    fn primary_expr(&mut self) -> Result<Expr, LangError> {
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.advance();
                Ok(Expr::IntLit(v))
            }
            TokenKind::Float(v) => {
                self.advance();
                Ok(Expr::FloatLit(v))
            }
            TokenKind::Punct("(") => {
                self.advance();
                let inner = self.expr()?;
                self.expect_punct(")")?;
                Ok(inner)
            }
            TokenKind::Ident(name) => {
                if name == "itof" || name == "ftoi" {
                    self.advance();
                    self.expect_punct("(")?;
                    let inner = self.expr()?;
                    self.expect_punct(")")?;
                    let to = if name == "itof" { Ty::Float } else { Ty::Int };
                    return Ok(Expr::Cast {
                        to,
                        expr: Box::new(inner),
                    });
                }
                if is_keyword(&name) {
                    return Err(self.unexpected("an expression"));
                }
                self.advance();
                if self.eat_punct("(") {
                    let mut args = Vec::new();
                    if !self.eat_punct(")") {
                        loop {
                            args.push(self.expr()?);
                            if self.eat_punct(")") {
                                break;
                            }
                            self.expect_punct(",")?;
                        }
                    }
                    return Ok(Expr::Call { name, args });
                }
                if self.eat_punct("[") {
                    let index = self.expr()?;
                    self.expect_punct("]")?;
                    return Ok(Expr::Elem {
                        arr: name,
                        index: Box::new(index),
                    });
                }
                Ok(Expr::Var(name))
            }
            _ => Err(self.unexpected("an expression")),
        }
    }
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "global"
            | "var"
            | "fvar"
            | "arr"
            | "farr"
            | "fn"
            | "if"
            | "else"
            | "while"
            | "for"
            | "return"
            | "int"
            | "float"
            | "itof"
            | "ftoi"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_function_with_params() {
        let m = parse("fn add(int a, int b) -> int { return a + b; }").unwrap();
        assert_eq!(m.funcs.len(), 1);
        let f = &m.funcs[0];
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.ret, Some(Ty::Int));
    }

    #[test]
    fn parse_globals() {
        let m =
            parse("global var x = 3; global fvar y = -2.5; global arr a[10]; global farr b[4];")
                .unwrap();
        assert_eq!(m.globals.len(), 4);
        assert_eq!(m.globals[0].kind, GlobalKind::Scalar { init: Some(3.0) });
        assert_eq!(m.globals[1].kind, GlobalKind::Scalar { init: Some(-2.5) });
        assert_eq!(m.globals[2].kind, GlobalKind::Array { len: 10 });
        assert_eq!(m.globals[2].ty, Ty::Int);
        assert_eq!(m.globals[3].ty, Ty::Float);
    }

    #[test]
    fn parse_for_loop_canonical() {
        let m = parse("fn f() { for (i = 0; i < 10; i = i + 2) { } }").unwrap();
        match &m.funcs[0].body.stmts[0] {
            Stmt::For { var, step, .. } => {
                assert_eq!(var, "i");
                assert_eq!(*step, 2);
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn parse_for_negative_step() {
        let m = parse("fn f() { for (i = 10; i > 0; i = i - 1) { } }").unwrap();
        match &m.funcs[0].body.stmts[0] {
            Stmt::For { step, .. } => assert_eq!(*step, -1),
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn for_must_use_same_variable() {
        assert!(parse("fn f() { for (i = 0; i < 10; j = j + 1) { } }").is_err());
    }

    #[test]
    fn precedence() {
        let m = parse("fn f() -> int { return 1 + 2 * 3; }").unwrap();
        match &m.funcs[0].body.stmts[0] {
            Stmt::Return(Some(Expr::Binary {
                op: BinOp::Add,
                rhs,
                ..
            })) => {
                assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn element_assignment() {
        let m = parse("global arr a[4]; fn f() { a[1] = a[0] + 1; }").unwrap();
        assert!(matches!(
            &m.funcs[0].body.stmts[0],
            Stmt::AssignElem { arr, .. } if arr == "a"
        ));
    }

    #[test]
    fn else_if_chain() {
        let m = parse("fn f(int x) { if (x > 0) { } else if (x < 0) { } else { } }").unwrap();
        match &m.funcs[0].body.stmts[0] {
            Stmt::If {
                else_blk: Some(b), ..
            } => {
                assert!(matches!(b.stmts[0], Stmt::If { .. }));
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn casts() {
        let m = parse("fn f(int x) -> float { return itof(x) * 2.0; }").unwrap();
        match &m.funcs[0].body.stmts[0] {
            Stmt::Return(Some(Expr::Binary { lhs, .. })) => {
                assert!(matches!(**lhs, Expr::Cast { to: Ty::Float, .. }));
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn call_statement() {
        let m = parse("fn g() { } fn f() { g(); }").unwrap();
        assert!(matches!(
            &m.funcs[1].body.stmts[0],
            Stmt::ExprStmt(Expr::Call { .. })
        ));
    }

    #[test]
    fn logical_ops_lowered() {
        let m = parse("fn f(int a, int b) -> int { return a && b; }").unwrap();
        match &m.funcs[0].body.stmts[0] {
            Stmt::Return(Some(Expr::Binary {
                op: BinOp::And,
                lhs,
                ..
            })) => {
                assert!(matches!(**lhs, Expr::Binary { op: BinOp::Ne, .. }));
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn deep_parens_rejected_not_crashed() {
        let depth = MAX_NESTING_DEPTH as usize + 10;
        let source = format!(
            "fn f() -> int {{ return {}1{}; }}",
            "(".repeat(depth),
            ")".repeat(depth)
        );
        assert!(matches!(parse(&source), Err(LangError::TooDeep { .. })));
        // Far past the limit must still be a typed error, not a stack
        // overflow.
        let source = format!(
            "fn f() -> int {{ return {}1{}; }}",
            "(".repeat(100_000),
            ")".repeat(100_000)
        );
        assert!(matches!(parse(&source), Err(LangError::TooDeep { .. })));
    }

    #[test]
    fn deep_unary_chain_rejected() {
        let source = format!("fn f() -> int {{ return {}1; }}", "-".repeat(100_000));
        assert!(matches!(parse(&source), Err(LangError::TooDeep { .. })));
    }

    #[test]
    fn deep_statement_nesting_rejected() {
        let depth = 100_000;
        let source = format!(
            "fn f(int x) {{ {}x = 1;{} }}",
            "if (x) {".repeat(depth),
            "}".repeat(depth)
        );
        assert!(matches!(parse(&source), Err(LangError::TooDeep { .. })));
    }

    #[test]
    fn moderate_nesting_accepted() {
        let source = format!(
            "fn f() -> int {{ return {}1{}; }}",
            "(".repeat(50),
            ")".repeat(50)
        );
        assert!(parse(&source).is_ok());
    }

    #[test]
    fn missing_semicolon_errors() {
        let err = parse("fn f() { var x = 1 }").unwrap_err();
        assert!(matches!(err, LangError::UnexpectedToken { .. }));
    }

    #[test]
    fn keyword_cannot_be_expression() {
        assert!(parse("fn f() { var x = if; }").is_err());
    }
}
