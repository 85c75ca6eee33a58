//! Recursive-descent parser: token stream → [`WorkloadAst`].
//!
//! The grammar is LL(1) except for the statement-initial identifier,
//! where one token of lookahead distinguishes keywords (`let`, `if`,
//! `compute`, …) from plain assignments (`name = expr;`). Every error
//! carries the position of the offending token.

use crate::ast::{BinOp, Builtin, Expr, HostDecl, KernelDecl, Stmt, StmtKind, WorkloadAst};
use crate::error::{DslError, Pos};
use crate::lexer::{Lexer, Token, TokenKind};

/// Parses a complete `.dsl` source text, pulling tokens from a
/// [`Lexer`] as it goes: it holds two tokens of lookahead, never the
/// token list.
///
/// # Errors
///
/// Returns the first error with its source position. A lexical error
/// anywhere in the source outranks any syntax error: after a syntax
/// error the rest of the input is still scanned (no token is kept), and
/// a lexical error found there is the one reported.
pub fn parse(src: &str) -> Result<WorkloadAst, DslError> {
    let mut p = Parser::new(src);
    let ast = p.file();
    // Scan what the parser left unread: a lexical error there outranks
    // the syntax error that stopped it.
    while p.lex_error.is_none() && p.bump() != TokenKind::Eof {}
    p.lex_error.map_or(ast, Err)
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The current token.
    cur: Token,
    /// One token of lookahead past `cur`.
    next: Token,
    /// The first lexical error; the token stream ends there.
    lex_error: Option<DslError>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        let eof = Token { kind: TokenKind::Eof, pos: Pos { line: 1, col: 1 } };
        let mut p = Parser { lexer: Lexer::new(src), cur: eof.clone(), next: eof, lex_error: None };
        p.bump();
        p.bump();
        p
    }

    /// The lexer's next token, or `Eof` once it has met an error.
    fn pull(&mut self) -> Token {
        self.lexer.next_token().unwrap_or_else(|e| {
            self.lex_error = Some(e);
            Token { kind: TokenKind::Eof, pos: self.lexer.pos() }
        })
    }

    fn peek(&self) -> &TokenKind {
        &self.cur.kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.next.kind
    }

    fn pos(&self) -> Pos {
        self.cur.pos
    }

    fn line(&self) -> u32 {
        self.pos().line
    }

    /// Moves the current token out and advances; at the end of input
    /// the current token stays `Eof`.
    fn bump(&mut self) -> TokenKind {
        let pulled = self.pull();
        let next = std::mem::replace(&mut self.next, pulled);
        std::mem::replace(&mut self.cur, next).kind
    }

    fn error(&self, message: impl Into<String>) -> DslError {
        DslError::Parse { pos: self.pos(), message: message.into() }
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<(), DslError> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected {what}, found {}", self.peek().describe())))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, DslError> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.error(format!("expected {what}, found {}", other.describe()))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), DslError> {
        match self.peek() {
            TokenKind::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => {
                Err(self.error(format!("expected keyword '{kw}', found {}", other.describe())))
            }
        }
    }

    fn expect_str(&mut self, what: &str) -> Result<String, DslError> {
        match self.peek().clone() {
            TokenKind::Str(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.error(format!("expected {what}, found {}", other.describe()))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s == kw)
    }

    // ---- file structure -------------------------------------------------

    fn file(&mut self) -> Result<WorkloadAst, DslError> {
        let mut ast = WorkloadAst::default();
        self.expect_keyword("workload")?;
        ast.name = self.expect_str("workload name string")?;
        if self.at_keyword("input") {
            self.bump();
            ast.input = self.expect_str("input name string")?;
        }
        self.expect(&TokenKind::Semi, "';'")?;
        while self.peek() != &TokenKind::Eof {
            let line = self.line();
            match self.peek().clone() {
                TokenKind::Ident(kw) if kw == "const" => {
                    self.bump();
                    let name = self.expect_ident("constant name")?;
                    self.expect(&TokenKind::Assign, "'='")?;
                    let value = self.expr()?;
                    self.expect(&TokenKind::Semi, "';'")?;
                    ast.consts.push((line, name, value));
                }
                TokenKind::Ident(kw) if kw == "region" => {
                    self.bump();
                    let name = self.expect_ident("region name")?;
                    self.expect(&TokenKind::LBracket, "'['")?;
                    let len = self.expr()?;
                    self.expect(&TokenKind::Comma, "','")?;
                    let elem = self.expr()?;
                    self.expect(&TokenKind::RBracket, "']'")?;
                    self.expect(&TokenKind::Semi, "';'")?;
                    ast.regions.push((line, name, len, elem));
                }
                TokenKind::Ident(kw) if kw == "data" => {
                    self.bump();
                    let name = self.expect_ident("data array name")?;
                    self.expect(&TokenKind::Assign, "'='")?;
                    self.expect(&TokenKind::LBracket, "'['")?;
                    let mut values = Vec::new();
                    while self.peek() != &TokenKind::RBracket {
                        match self.peek().clone() {
                            TokenKind::Int(v) => {
                                self.bump();
                                values.push(v);
                            }
                            other => {
                                return Err(self.error(format!(
                                    "expected integer in data array, found {}",
                                    other.describe()
                                )))
                            }
                        }
                        if self.peek() == &TokenKind::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.expect(&TokenKind::RBracket, "']'")?;
                    self.expect(&TokenKind::Semi, "';'")?;
                    ast.datas.push((line, name, values));
                }
                TokenKind::Ident(kw) if kw == "host" => {
                    self.bump();
                    let kind = self.named_arg("kind")?;
                    let param = self.named_arg("param")?;
                    let tbs = self.named_arg("tbs")?;
                    let threads = self.named_arg("threads")?;
                    let regs = self.named_arg("regs")?;
                    let smem = self.named_arg("smem")?;
                    self.expect(&TokenKind::Semi, "';'")?;
                    ast.hosts.push(HostDecl { line, kind, param, tbs, threads, regs, smem });
                }
                TokenKind::Ident(kw) if kw == "kernel" => {
                    self.bump();
                    let kind = self.expr()?;
                    let name = self.expect_str("kernel name string")?;
                    let threads = self.named_arg("threads")?;
                    let body = self.block()?;
                    ast.kernels.push(KernelDecl { line, kind, name, threads, body });
                }
                other => {
                    return Err(self.error(format!(
                        "expected 'const', 'region', 'data', 'host' or 'kernel', found {}",
                        other.describe()
                    )))
                }
            }
        }
        Ok(ast)
    }

    fn named_arg(&mut self, name: &str) -> Result<Expr, DslError> {
        self.expect_keyword(name)?;
        self.expect(&TokenKind::Assign, "'='")?;
        self.expr()
    }

    // ---- statements -----------------------------------------------------

    fn block(&mut self) -> Result<Vec<Stmt>, DslError> {
        self.expect(&TokenKind::LBrace, "'{'")?;
        let mut stmts = Vec::new();
        while self.peek() != &TokenKind::RBrace {
            if self.peek() == &TokenKind::Eof {
                return Err(self.error("unclosed block: expected '}'"));
            }
            stmts.push(self.stmt()?);
        }
        self.bump(); // consume '}'
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, DslError> {
        let line = self.line();
        let kind = match self.peek().clone() {
            TokenKind::Ident(kw) => match kw.as_str() {
                "let" => {
                    self.bump();
                    let name = self.expect_ident("variable name")?;
                    self.expect(&TokenKind::Assign, "'='")?;
                    let value = self.expr()?;
                    self.expect(&TokenKind::Semi, "';'")?;
                    StmtKind::Let(name, value)
                }
                "if" => {
                    self.bump();
                    let cond = self.expr()?;
                    let then = self.block()?;
                    let otherwise = if self.at_keyword("else") {
                        self.bump();
                        self.block()?
                    } else {
                        Vec::new()
                    };
                    StmtKind::If(cond, then, otherwise)
                }
                "for" => {
                    self.bump();
                    let name = self.expect_ident("loop variable name")?;
                    self.expect_keyword("in")?;
                    let lo = self.expr()?;
                    self.expect(&TokenKind::DotDot, "'..'")?;
                    let hi = self.expr()?;
                    let body = self.block()?;
                    StmtKind::For(name, lo, hi, body)
                }
                "while" => {
                    self.bump();
                    let cond = self.expr()?;
                    let body = self.block()?;
                    StmtKind::While(cond, body)
                }
                "return" => {
                    self.bump();
                    self.expect(&TokenKind::Semi, "';'")?;
                    StmtKind::Return
                }
                "compute" => {
                    self.bump();
                    let cycles = self.expr()?;
                    self.expect(&TokenKind::Semi, "';'")?;
                    StmtKind::Compute(cycles)
                }
                "compute_masked" => {
                    self.bump();
                    let cycles = self.expr()?;
                    self.expect(&TokenKind::Comma, "','")?;
                    let active = self.expr()?;
                    self.expect(&TokenKind::Semi, "';'")?;
                    StmtKind::ComputeMasked(cycles, active)
                }
                "sync" => {
                    self.bump();
                    self.expect(&TokenKind::Semi, "';'")?;
                    StmtKind::Sync
                }
                "shared" => {
                    self.bump();
                    self.expect(&TokenKind::Semi, "';'")?;
                    StmtKind::Shared
                }
                "load_slice" | "store_slice" => {
                    self.bump();
                    let region = self.expect_ident("region name")?;
                    self.expect(&TokenKind::Comma, "','")?;
                    let start = self.expr()?;
                    self.expect(&TokenKind::Comma, "','")?;
                    let count = self.expr()?;
                    self.expect(&TokenKind::Semi, "';'")?;
                    StmtKind::Slice { store: kw == "store_slice", region, start, count }
                }
                "load_bcast" | "store_bcast" => {
                    self.bump();
                    let region = self.expect_ident("region name")?;
                    self.expect(&TokenKind::Comma, "','")?;
                    let index = self.expr()?;
                    self.expect(&TokenKind::Semi, "';'")?;
                    StmtKind::Bcast { store: kw == "store_bcast", region, index }
                }
                "gather" | "scatter" => {
                    self.bump();
                    let body = self.block()?;
                    StmtKind::Addrs { store: kw == "scatter", body }
                }
                "yield" => {
                    self.bump();
                    let value = self.expr()?;
                    self.expect(&TokenKind::Semi, "';'")?;
                    StmtKind::Yield(value)
                }
                "launch" => {
                    self.bump();
                    let kind = self.expr()?;
                    self.expect(&TokenKind::Comma, "','")?;
                    let param = self.expr()?;
                    self.expect(&TokenKind::Comma, "','")?;
                    let num_tbs = self.expr()?;
                    self.expect(&TokenKind::Comma, "','")?;
                    let threads = self.expr()?;
                    self.expect(&TokenKind::Comma, "','")?;
                    let regs = self.expr()?;
                    self.expect(&TokenKind::Comma, "','")?;
                    let smem = self.expr()?;
                    self.expect(&TokenKind::Semi, "';'")?;
                    StmtKind::Launch { kind, param, num_tbs, threads, regs, smem }
                }
                _ => {
                    // Plain assignment: `name = expr;`. Anything else
                    // starting with an identifier is a mistake.
                    if self.peek2() == &TokenKind::Assign {
                        self.bump();
                        self.expect(&TokenKind::Assign, "'='")?;
                        let value = self.expr()?;
                        self.expect(&TokenKind::Semi, "';'")?;
                        StmtKind::Assign(kw, value)
                    } else {
                        return Err(self.error(format!(
                            "expected a statement, found identifier '{kw}' \
                             (did you mean '{kw} = …;' or a keyword?)"
                        )));
                    }
                }
            },
            other => {
                return Err(self.error(format!("expected a statement, found {}", other.describe())))
            }
        };
        Ok(Stmt { line, kind })
    }

    // ---- expressions ----------------------------------------------------

    fn expr(&mut self) -> Result<Expr, DslError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, DslError> {
        let mut lhs = self.and_expr()?;
        while self.peek() == &TokenKind::PipePipe {
            self.bump();
            let rhs = self.and_expr()?;
            lhs = Expr::Bin(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, DslError> {
        let mut lhs = self.cmp_expr()?;
        while self.peek() == &TokenKind::AmpAmp {
            self.bump();
            let rhs = self.cmp_expr()?;
            lhs = Expr::Bin(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, DslError> {
        let mut lhs = self.bitor_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::EqEq => BinOp::Eq,
                TokenKind::Ne => BinOp::Ne,
                TokenKind::Lt => BinOp::Lt,
                TokenKind::Le => BinOp::Le,
                TokenKind::Gt => BinOp::Gt,
                TokenKind::Ge => BinOp::Ge,
                _ => break,
            };
            self.bump();
            let rhs = self.bitor_expr()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn bitor_expr(&mut self) -> Result<Expr, DslError> {
        let mut lhs = self.bitand_expr()?;
        while self.peek() == &TokenKind::Pipe {
            self.bump();
            let rhs = self.bitand_expr()?;
            lhs = Expr::Bin(BinOp::BitOr, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn bitand_expr(&mut self) -> Result<Expr, DslError> {
        let mut lhs = self.shift_expr()?;
        while self.peek() == &TokenKind::Amp {
            self.bump();
            let rhs = self.shift_expr()?;
            lhs = Expr::Bin(BinOp::BitAnd, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn shift_expr(&mut self) -> Result<Expr, DslError> {
        let mut lhs = self.add_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Shl => BinOp::Shl,
                TokenKind::Shr => BinOp::Shr,
                _ => break,
            };
            self.bump();
            let rhs = self.add_expr()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<Expr, DslError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, DslError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, DslError> {
        if self.peek() == &TokenKind::Bang {
            self.bump();
            let inner = self.unary_expr()?;
            Ok(Expr::Not(Box::new(inner)))
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<Expr, DslError> {
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            TokenKind::LParen => {
                self.bump();
                let inner = self.expr()?;
                self.expect(&TokenKind::RParen, "')'")?;
                Ok(inner)
            }
            TokenKind::Ident(name) => {
                self.bump();
                match self.peek() {
                    TokenKind::LBracket => {
                        self.bump();
                        let index = self.expr()?;
                        self.expect(&TokenKind::RBracket, "']'")?;
                        Ok(Expr::Index(name, Box::new(index)))
                    }
                    TokenKind::LParen => self.call(&name),
                    _ => Ok(Expr::Var(name)),
                }
            }
            other => Err(self.error(format!("expected an expression, found {}", other.describe()))),
        }
    }

    fn call(&mut self, name: &str) -> Result<Expr, DslError> {
        self.expect(&TokenKind::LParen, "'('")?;
        let expr = match name {
            "len" => {
                let data = self.expect_ident("data array name")?;
                Expr::Len(data)
            }
            "addr" => {
                let region = self.expect_ident("region name")?;
                self.expect(&TokenKind::Comma, "','")?;
                let index = self.expr()?;
                Expr::Addr(region, Box::new(index))
            }
            "min" | "max" | "div_ceil" => {
                let builtin = match name {
                    "min" => Builtin::Min,
                    "max" => Builtin::Max,
                    _ => Builtin::DivCeil,
                };
                let a = self.expr()?;
                self.expect(&TokenKind::Comma, "','")?;
                let b = self.expr()?;
                Expr::Call(builtin, Box::new(a), Box::new(b))
            }
            other => {
                return Err(self.error(format!(
                    "unknown function '{other}' (expected len, addr, min, max or div_ceil)"
                )))
            }
        };
        self.expect(&TokenKind::RParen, "')'")?;
        Ok(expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = r#"
workload "toy" input "tiny";
const HEAVY = 4 * 2;
region values[16, 4];
data deg = [3, 0, 7, 1];
host kind = 0 param = 0 tbs = 2 threads = 32 regs = 24 smem = 256;
kernel 0 "toy-parent" threads = 32 {
    let a = tb * 8;
    let cnt = min(8, 16 - a);
    if cnt == 0 { compute 1; return; }
    load_slice values, a, cnt;
    gather {
        for i in 0 .. cnt {
            if deg[a + i] >= HEAVY { yield addr(values, a + i); }
        }
    }
    launch 1, a, div_ceil(cnt, 2), 32, 20, 0;
    sync;
    store_slice values, a, cnt;
}
"#;

    #[test]
    fn parses_a_full_workload() {
        let ast = parse(SMALL).expect("parses");
        assert_eq!(ast.name, "toy");
        assert_eq!(ast.input, "tiny");
        assert_eq!(ast.consts.len(), 1);
        assert_eq!(ast.regions.len(), 1);
        assert_eq!(ast.datas[0].2, vec![3, 0, 7, 1]);
        assert_eq!(ast.hosts.len(), 1);
        assert_eq!(ast.kernels[0].name, "toy-parent");
        assert_eq!(ast.kernels[0].body.len(), 8);
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let ast = parse("workload \"p\"; const C = 1 + 2 * 3;").expect("parses");
        let (_, _, expr) = &ast.consts[0];
        assert_eq!(
            *expr,
            Expr::Bin(
                BinOp::Add,
                Box::new(Expr::Int(1)),
                Box::new(Expr::Bin(BinOp::Mul, Box::new(Expr::Int(2)), Box::new(Expr::Int(3)))),
            )
        );
    }

    #[test]
    fn precedence_comparison_over_logic() {
        let ast = parse("workload \"p\"; const C = 1 < 2 && 3 < 4;").expect("parses");
        let (_, _, expr) = &ast.consts[0];
        match expr {
            Expr::Bin(BinOp::And, lhs, rhs) => {
                assert!(matches!(**lhs, Expr::Bin(BinOp::Lt, _, _)));
                assert!(matches!(**rhs, Expr::Bin(BinOp::Lt, _, _)));
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn missing_semicolon_is_a_parse_error() {
        let err = parse("workload \"p\"; const C = 1").expect_err("must fail");
        assert_eq!(err.stage(), "parse");
        assert!(err.to_string().contains("expected ';'"), "{err}");
    }

    #[test]
    fn lex_error_after_a_syntax_error_wins() {
        let err = parse("workload \"p\"; const C = 1\nconst D = 2;\nconst E = 3 @ 4;")
            .expect_err("must fail");
        assert_eq!(err.stage(), "lex", "{err}");
        assert_eq!(err.to_string(), "lex error at 3:13: unexpected character '@'");
    }

    #[test]
    fn syntax_error_alone_is_reported_where_it_is() {
        let err = parse("workload \"p\"; const C = 1\nconst D = 2;").expect_err("must fail");
        assert_eq!(err.to_string(), "parse error at 2:1: expected ';', found identifier 'const'");
    }

    #[test]
    fn bad_character_on_the_first_line() {
        let err = parse("@workload \"p\";").expect_err("must fail");
        assert_eq!(err.to_string(), "lex error at 1:1: unexpected character '@'");
    }

    #[test]
    fn unknown_function_is_a_parse_error() {
        let err = parse("workload \"p\"; kernel 0 \"k\" threads = 32 { compute foo(1, 2); }")
            .expect_err("must fail");
        assert!(err.to_string().contains("unknown function 'foo'"), "{err}");
    }

    #[test]
    fn unclosed_block_is_a_parse_error() {
        let err = parse("workload \"p\"; kernel 0 \"k\" threads = 32 { compute 1;")
            .expect_err("must fail");
        assert!(err.to_string().contains("unclosed block"), "{err}");
    }

    #[test]
    fn bare_identifier_statement_is_rejected_with_hint() {
        let err = parse("workload \"p\"; kernel 0 \"k\" threads = 32 { frobnicate; }")
            .expect_err("must fail");
        assert!(err.to_string().contains("frobnicate"), "{err}");
    }

    #[test]
    fn else_branch_parses() {
        let ast = parse(
            "workload \"p\"; kernel 0 \"k\" threads = 32 \
             { if tb == 0 { compute 1; } else { compute 2; } }",
        )
        .expect("parses");
        match &ast.kernels[0].body[0].kind {
            StmtKind::If(_, then, otherwise) => {
                assert_eq!(then.len(), 1);
                assert_eq!(otherwise.len(), 1);
            }
            other => panic!("unexpected statement: {other:?}"),
        }
    }
}
