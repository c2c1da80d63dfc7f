//! Recursive-descent parser producing a numbered AST.

use cirfix_ast::{
    BinaryOp, CaseArm, CaseKind, Connection, Decl, DeclKind, DeclVar, EventExpr, Expr, Instance,
    Item, LValue, Module, NodeIdGen, ParamDecl, Sensitivity, SourceFile, Stmt, UnaryOp,
};
use cirfix_logic::{EdgeKind, LiteralBase, LogicVec};

use crate::error::ParseError;
use crate::lexer::{tokenize, Spanned, Token};

/// Parses Verilog source text into a [`SourceFile`], numbering nodes from a
/// fresh [`NodeIdGen`].
///
/// # Errors
///
/// Returns a [`ParseError`] with line/column information when the source
/// does not conform to the supported subset.
///
/// # Examples
///
/// ```
/// let src = "module t (q); output reg q; initial q = 1'b0; endmodule";
/// let file = cirfix_parser::parse(src)?;
/// assert_eq!(file.modules[0].name, "t");
/// # Ok::<(), cirfix_parser::ParseError>(())
/// ```
pub fn parse(source: &str) -> Result<SourceFile, ParseError> {
    let mut ids = NodeIdGen::new();
    parse_with_ids(source, &mut ids)
}

/// Parses with an explicit id generator, so multiple files (design +
/// testbench) can share one numbering space.
///
/// # Errors
///
/// See [`parse`].
pub fn parse_with_ids(source: &str, ids: &mut NodeIdGen) -> Result<SourceFile, ParseError> {
    let tokens = tokenize(source).map_err(ParseError::from_lex)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        ids,
        depth: 0,
    };
    parser.parse_source_file()
}

/// Maximum statement/expression nesting depth. The parser (and every
/// recursive consumer downstream of it: printer, elaborator, linter)
/// walks the tree on the call stack, so unbounded nesting in hostile
/// input would abort with a stack overflow — which `catch_unwind`
/// cannot contain. Sized so a maximally nested tree still fits a 2 MiB
/// worker-thread stack in debug builds, yet no real design comes close
/// (the benchmark suite nests under 16 levels).
const MAX_DEPTH: u32 = 64;

struct Parser<'a> {
    tokens: Vec<Spanned>,
    pos: usize,
    ids: &'a mut NodeIdGen,
    /// Current statement/expression nesting depth (see [`MAX_DEPTH`]).
    depth: u32,
}

const KEYWORDS: &[&str] = &[
    "module",
    "endmodule",
    "input",
    "output",
    "inout",
    "wire",
    "reg",
    "integer",
    "event",
    "parameter",
    "localparam",
    "assign",
    "always",
    "initial",
    "begin",
    "end",
    "if",
    "else",
    "case",
    "casez",
    "casex",
    "endcase",
    "default",
    "for",
    "while",
    "repeat",
    "forever",
    "posedge",
    "negedge",
    "or",
    "wait",
];

impl Parser<'_> {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].token
    }

    fn here(&self) -> (u32, u32) {
        let s = &self.tokens[self.pos.min(self.tokens.len() - 1)];
        (s.line, s.col)
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)]
            .token
            .clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        let (line, col) = self.here();
        ParseError::new(message, line, col)
    }

    /// Runs `f` one nesting level deeper, failing cleanly once
    /// [`MAX_DEPTH`] is reached instead of overflowing the stack.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error("statement or expression nesting too deep"));
        }
        self.depth += 1;
        let result = f(self);
        self.depth -= 1;
        result
    }

    fn expect(&mut self, token: &Token) -> Result<(), ParseError> {
        if self.peek() == token {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected `{token}`, found `{}`", self.peek())))
        }
    }

    fn eat(&mut self, token: &Token) -> bool {
        if self.peek() == token {
            self.bump();
            true
        } else {
            false
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Token::Ident(s) if s == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{kw}`, found `{}`", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Token::Ident(name) => {
                if KEYWORDS.contains(&name.as_str()) {
                    Err(self.error(format!("expected identifier, found keyword `{name}`")))
                } else {
                    self.bump();
                    Ok(name)
                }
            }
            other => Err(self.error(format!("expected identifier, found `{other}`"))),
        }
    }

    // -- top level ---------------------------------------------------------

    fn parse_source_file(&mut self) -> Result<SourceFile, ParseError> {
        let mut modules = Vec::new();
        while !matches!(self.peek(), Token::Eof) {
            modules.push(self.parse_module()?);
        }
        Ok(SourceFile::new(modules))
    }

    fn parse_module(&mut self) -> Result<Module, ParseError> {
        self.expect_keyword("module")?;
        let id = self.ids.fresh();
        let name = self.expect_ident()?;
        let mut ports = Vec::new();
        let mut header_items = Vec::new();
        if self.eat(&Token::LParen) && !self.eat(&Token::RParen) {
            self.parse_port_list(&mut ports, &mut header_items)?;
            self.expect(&Token::RParen)?;
        }
        self.expect(&Token::Semi)?;
        let mut items = header_items;
        while !self.at_keyword("endmodule") {
            if matches!(self.peek(), Token::Eof) {
                return Err(self.error("unexpected end of input inside module"));
            }
            self.parse_item(&mut items)?;
        }
        self.expect_keyword("endmodule")?;
        Ok(Module {
            id,
            name,
            ports,
            items,
        })
    }

    /// Parses either a plain port-name list or an ANSI declaration list.
    fn parse_port_list(
        &mut self,
        ports: &mut Vec<String>,
        items: &mut Vec<Item>,
    ) -> Result<(), ParseError> {
        loop {
            if self.at_keyword("input") || self.at_keyword("output") || self.at_keyword("inout") {
                // ANSI declaration group.
                let kind = match self.bump() {
                    Token::Ident(s) if s == "input" => DeclKind::Input,
                    Token::Ident(s) if s == "output" => DeclKind::Output,
                    _ => DeclKind::Inout,
                };
                let also_reg = self.eat_keyword("reg");
                let range = self.parse_opt_range()?;
                loop {
                    let var_name = self.expect_ident()?;
                    ports.push(var_name.clone());
                    items.push(Item::Decl(Decl {
                        id: self.ids.fresh(),
                        kind,
                        range: range.clone(),
                        also_reg,
                        vars: vec![DeclVar {
                            id: self.ids.fresh(),
                            name: var_name,
                            array: None,
                            init: None,
                        }],
                    }));
                    if !self.eat(&Token::Comma) {
                        return Ok(());
                    }
                    // A direction keyword starts the next group.
                    if self.at_keyword("input")
                        || self.at_keyword("output")
                        || self.at_keyword("inout")
                    {
                        break;
                    }
                }
            } else {
                // Plain name list.
                loop {
                    ports.push(self.expect_ident()?);
                    if !self.eat(&Token::Comma) {
                        return Ok(());
                    }
                    if self.at_keyword("input")
                        || self.at_keyword("output")
                        || self.at_keyword("inout")
                    {
                        break;
                    }
                }
            }
        }
    }

    fn parse_opt_range(&mut self) -> Result<Option<(Expr, Expr)>, ParseError> {
        if self.eat(&Token::LBracket) {
            let msb = self.parse_expr()?;
            self.expect(&Token::Colon)?;
            let lsb = self.parse_expr()?;
            self.expect(&Token::RBracket)?;
            Ok(Some((msb, lsb)))
        } else {
            Ok(None)
        }
    }

    fn parse_item(&mut self, items: &mut Vec<Item>) -> Result<(), ParseError> {
        match self.peek().clone() {
            Token::Ident(kw) => match kw.as_str() {
                "input" | "output" | "inout" | "wire" | "reg" | "integer" | "event" => {
                    items.push(Item::Decl(self.parse_decl()?));
                    Ok(())
                }
                "parameter" | "localparam" => {
                    let local = kw == "localparam";
                    self.bump();
                    loop {
                        let id = self.ids.fresh();
                        let name = self.expect_ident()?;
                        self.expect(&Token::Assign)?;
                        let value = self.parse_expr()?;
                        items.push(Item::Param(ParamDecl {
                            id,
                            local,
                            name,
                            value,
                        }));
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                    self.expect(&Token::Semi)?;
                    Ok(())
                }
                "assign" => {
                    self.bump();
                    loop {
                        let id = self.ids.fresh();
                        let lhs = self.parse_lvalue()?;
                        self.expect(&Token::Assign)?;
                        let rhs = self.parse_expr()?;
                        items.push(Item::Assign { id, lhs, rhs });
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                    self.expect(&Token::Semi)?;
                    Ok(())
                }
                "always" => {
                    self.bump();
                    let id = self.ids.fresh();
                    let body = self.parse_stmt()?;
                    items.push(Item::Always { id, body });
                    Ok(())
                }
                "initial" => {
                    self.bump();
                    let id = self.ids.fresh();
                    let body = self.parse_stmt()?;
                    items.push(Item::Initial { id, body });
                    Ok(())
                }
                _ if !KEYWORDS.contains(&kw.as_str()) => {
                    items.push(Item::Instance(self.parse_instance()?));
                    Ok(())
                }
                other => Err(self.error(format!("unsupported module item `{other}`"))),
            },
            other => Err(self.error(format!("expected module item, found `{other}`"))),
        }
    }

    fn parse_decl(&mut self) -> Result<Decl, ParseError> {
        let id = self.ids.fresh();
        let kind = match self.bump() {
            Token::Ident(s) => match s.as_str() {
                "input" => DeclKind::Input,
                "output" => DeclKind::Output,
                "inout" => DeclKind::Inout,
                "wire" => DeclKind::Wire,
                "reg" => DeclKind::Reg,
                "integer" => DeclKind::Integer,
                "event" => DeclKind::Event,
                other => return Err(self.error(format!("not a declaration keyword `{other}`"))),
            },
            other => return Err(self.error(format!("not a declaration `{other}`"))),
        };
        let also_reg = kind.is_port() && self.eat_keyword("reg");
        let range = self.parse_opt_range()?;
        let mut vars = Vec::new();
        loop {
            let var_id = self.ids.fresh();
            let name = self.expect_ident()?;
            let array = self.parse_opt_range()?;
            let init = if self.eat(&Token::Assign) {
                Some(self.parse_expr()?)
            } else {
                None
            };
            vars.push(DeclVar {
                id: var_id,
                name,
                array,
                init,
            });
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::Semi)?;
        Ok(Decl {
            id,
            kind,
            range,
            also_reg,
            vars,
        })
    }

    fn parse_instance(&mut self) -> Result<Instance, ParseError> {
        let id = self.ids.fresh();
        let module = self.expect_ident()?;
        let params = if self.eat(&Token::Hash) {
            self.expect(&Token::LParen)?;
            let conns = self.parse_connections()?;
            self.expect(&Token::RParen)?;
            conns
        } else {
            Vec::new()
        };
        let name = self.expect_ident()?;
        self.expect(&Token::LParen)?;
        let ports = if self.peek() == &Token::RParen {
            Vec::new()
        } else {
            self.parse_connections()?
        };
        self.expect(&Token::RParen)?;
        self.expect(&Token::Semi)?;
        Ok(Instance {
            id,
            module,
            name,
            params,
            ports,
        })
    }

    fn parse_connections(&mut self) -> Result<Vec<Connection>, ParseError> {
        let mut conns = Vec::new();
        loop {
            let id = self.ids.fresh();
            if self.eat(&Token::Dot) {
                let name = self.expect_ident()?;
                self.expect(&Token::LParen)?;
                let expr = if self.peek() == &Token::RParen {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(&Token::RParen)?;
                conns.push(Connection {
                    id,
                    name: Some(name),
                    expr,
                });
            } else {
                let expr = self.parse_expr()?;
                conns.push(Connection {
                    id,
                    name: None,
                    expr: Some(expr),
                });
            }
            if !self.eat(&Token::Comma) {
                return Ok(conns);
            }
        }
    }

    // -- statements ----------------------------------------------------------

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Self::parse_stmt_inner)
    }

    fn parse_stmt_inner(&mut self) -> Result<Stmt, ParseError> {
        match self.peek().clone() {
            Token::Ident(kw) => match kw.as_str() {
                "begin" => self.parse_block(),
                "if" => self.parse_if(),
                "case" => self.parse_case(CaseKind::Case),
                "casez" => self.parse_case(CaseKind::Casez),
                "casex" => self.parse_case(CaseKind::Casex),
                "for" => self.parse_for(),
                "while" => {
                    self.bump();
                    let id = self.ids.fresh();
                    self.expect(&Token::LParen)?;
                    let cond = self.parse_expr()?;
                    self.expect(&Token::RParen)?;
                    let body = Box::new(self.parse_stmt()?);
                    Ok(Stmt::While { id, cond, body })
                }
                "repeat" => {
                    self.bump();
                    let id = self.ids.fresh();
                    self.expect(&Token::LParen)?;
                    let count = self.parse_expr()?;
                    self.expect(&Token::RParen)?;
                    let body = Box::new(self.parse_stmt()?);
                    Ok(Stmt::Repeat { id, count, body })
                }
                "forever" => {
                    self.bump();
                    let id = self.ids.fresh();
                    let body = Box::new(self.parse_stmt()?);
                    Ok(Stmt::Forever { id, body })
                }
                "wait" => {
                    self.bump();
                    let id = self.ids.fresh();
                    self.expect(&Token::LParen)?;
                    let cond = self.parse_expr()?;
                    self.expect(&Token::RParen)?;
                    let body = self.parse_opt_body()?;
                    Ok(Stmt::Wait { id, cond, body })
                }
                _ if !KEYWORDS.contains(&kw.as_str()) => self.parse_assignment(),
                other => Err(self.error(format!("unsupported statement keyword `{other}`"))),
            },
            Token::Hash => {
                self.bump();
                let id = self.ids.fresh();
                let amount = self.parse_delay_value()?;
                let body = self.parse_opt_body()?;
                Ok(Stmt::Delay { id, amount, body })
            }
            Token::At => self.parse_event_control(),
            Token::Arrow => {
                self.bump();
                let id = self.ids.fresh();
                let name = self.expect_ident()?;
                self.expect(&Token::Semi)?;
                Ok(Stmt::EventTrigger { id, name })
            }
            Token::SysIdent(name) => {
                self.bump();
                let id = self.ids.fresh();
                let args = if self.eat(&Token::LParen) {
                    let mut args = Vec::new();
                    if self.peek() != &Token::RParen {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat(&Token::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&Token::RParen)?;
                    args
                } else {
                    Vec::new()
                };
                self.expect(&Token::Semi)?;
                Ok(Stmt::SysCall { id, name, args })
            }
            Token::Semi => {
                let id = self.ids.fresh();
                self.bump();
                Ok(Stmt::Null { id })
            }
            Token::LBrace => self.parse_assignment(),
            other => Err(self.error(format!("expected statement, found `{other}`"))),
        }
    }

    /// A statement body that is omitted when the next token is `;`
    /// (e.g. `@(negedge clk);`).
    fn parse_opt_body(&mut self) -> Result<Option<Box<Stmt>>, ParseError> {
        if self.eat(&Token::Semi) {
            Ok(None)
        } else {
            Ok(Some(Box::new(self.parse_stmt()?)))
        }
    }

    fn parse_block(&mut self) -> Result<Stmt, ParseError> {
        self.expect_keyword("begin")?;
        let id = self.ids.fresh();
        let name = if self.eat(&Token::Colon) {
            Some(self.expect_ident()?)
        } else {
            None
        };
        let mut stmts = Vec::new();
        while !self.at_keyword("end") {
            if matches!(self.peek(), Token::Eof) {
                return Err(self.error("unexpected end of input inside begin/end"));
            }
            stmts.push(self.parse_stmt()?);
        }
        self.expect_keyword("end")?;
        Ok(Stmt::Block { id, name, stmts })
    }

    fn parse_if(&mut self) -> Result<Stmt, ParseError> {
        self.expect_keyword("if")?;
        let id = self.ids.fresh();
        self.expect(&Token::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(&Token::RParen)?;
        let then_s = Box::new(self.parse_stmt()?);
        let else_s = if self.eat_keyword("else") {
            Some(Box::new(self.parse_stmt()?))
        } else {
            None
        };
        Ok(Stmt::If {
            id,
            cond,
            then_s,
            else_s,
        })
    }

    fn parse_case(&mut self, kind: CaseKind) -> Result<Stmt, ParseError> {
        self.bump(); // case/casez/casex
        let id = self.ids.fresh();
        self.expect(&Token::LParen)?;
        let subject = self.parse_expr()?;
        self.expect(&Token::RParen)?;
        let mut arms = Vec::new();
        let mut default = None;
        while !self.at_keyword("endcase") {
            if matches!(self.peek(), Token::Eof) {
                return Err(self.error("unexpected end of input inside case"));
            }
            if self.eat_keyword("default") {
                self.eat(&Token::Colon);
                default = Some(Box::new(self.parse_stmt()?));
                continue;
            }
            let arm_id = self.ids.fresh();
            let mut labels = vec![self.parse_expr()?];
            while self.eat(&Token::Comma) {
                labels.push(self.parse_expr()?);
            }
            self.expect(&Token::Colon)?;
            let body = self.parse_stmt()?;
            arms.push(CaseArm {
                id: arm_id,
                labels,
                body,
            });
        }
        self.expect_keyword("endcase")?;
        Ok(Stmt::Case {
            id,
            kind,
            subject,
            arms,
            default,
        })
    }

    fn parse_for(&mut self) -> Result<Stmt, ParseError> {
        self.expect_keyword("for")?;
        let id = self.ids.fresh();
        self.expect(&Token::LParen)?;
        let init = Box::new(self.parse_headless_assignment()?);
        self.expect(&Token::Semi)?;
        let cond = self.parse_expr()?;
        self.expect(&Token::Semi)?;
        let step = Box::new(self.parse_headless_assignment()?);
        self.expect(&Token::RParen)?;
        let body = Box::new(self.parse_stmt()?);
        Ok(Stmt::For {
            id,
            init,
            cond,
            step,
            body,
        })
    }

    /// An assignment without trailing semicolon, as in `for` headers.
    fn parse_headless_assignment(&mut self) -> Result<Stmt, ParseError> {
        let id = self.ids.fresh();
        let lhs = self.parse_lvalue()?;
        self.expect(&Token::Assign)?;
        let rhs = self.parse_expr()?;
        Ok(Stmt::Blocking {
            id,
            lhs,
            delay: None,
            rhs,
        })
    }

    fn parse_assignment(&mut self) -> Result<Stmt, ParseError> {
        let id = self.ids.fresh();
        let lhs = self.parse_lvalue()?;
        let blocking = match self.bump() {
            Token::Assign => true,
            Token::LtEq => false,
            other => {
                return Err(self.error(format!("expected `=` or `<=`, found `{other}`")));
            }
        };
        let delay = if self.eat(&Token::Hash) {
            Some(self.parse_delay_value()?)
        } else {
            None
        };
        let rhs = self.parse_expr()?;
        self.expect(&Token::Semi)?;
        Ok(if blocking {
            Stmt::Blocking {
                id,
                lhs,
                delay,
                rhs,
            }
        } else {
            Stmt::NonBlocking {
                id,
                lhs,
                delay,
                rhs,
            }
        })
    }

    fn parse_event_control(&mut self) -> Result<Stmt, ParseError> {
        self.expect(&Token::At)?;
        let id = self.ids.fresh();
        let sensitivity = if self.eat(&Token::Star) {
            Sensitivity::Star
        } else if self.eat(&Token::LParen) {
            if self.eat(&Token::Star) {
                self.expect(&Token::RParen)?;
                Sensitivity::Star
            } else {
                let mut events = vec![self.parse_event_expr()?];
                while self.eat_keyword("or") || self.eat(&Token::Comma) {
                    events.push(self.parse_event_expr()?);
                }
                self.expect(&Token::RParen)?;
                Sensitivity::List(events)
            }
        } else {
            // Bare `@ident`.
            let ev_id = self.ids.fresh();
            let name = self.expect_ident()?;
            Sensitivity::List(vec![EventExpr {
                id: ev_id,
                edge: EdgeKind::Any,
                expr: Expr::Ident {
                    id: self.ids.fresh(),
                    name,
                },
            }])
        };
        let body = self.parse_opt_body()?;
        Ok(Stmt::EventControl {
            id,
            sensitivity,
            body,
        })
    }

    fn parse_event_expr(&mut self) -> Result<EventExpr, ParseError> {
        let id = self.ids.fresh();
        let edge = if self.eat_keyword("posedge") {
            EdgeKind::Pos
        } else if self.eat_keyword("negedge") {
            EdgeKind::Neg
        } else {
            EdgeKind::Any
        };
        let expr = self.parse_expr()?;
        Ok(EventExpr { id, edge, expr })
    }

    /// A delay amount: number, identifier, or parenthesized expression.
    fn parse_delay_value(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Token::Number { .. } => self.parse_primary(),
            Token::Ident(_) => {
                let id = self.ids.fresh();
                let name = self.expect_ident()?;
                Ok(Expr::Ident { id, name })
            }
            Token::LParen => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            other => Err(self.error(format!("expected delay value, found `{other}`"))),
        }
    }

    fn parse_lvalue(&mut self) -> Result<LValue, ParseError> {
        self.nested(Self::parse_lvalue_inner)
    }

    fn parse_lvalue_inner(&mut self) -> Result<LValue, ParseError> {
        if self.eat(&Token::LBrace) {
            let id = self.ids.fresh();
            let mut parts = vec![self.parse_lvalue()?];
            while self.eat(&Token::Comma) {
                parts.push(self.parse_lvalue()?);
            }
            self.expect(&Token::RBrace)?;
            return Ok(LValue::Concat { id, parts });
        }
        let id = self.ids.fresh();
        let base = self.expect_ident()?;
        if self.eat(&Token::LBracket) {
            let first = self.parse_expr()?;
            if self.eat(&Token::Colon) {
                let lsb = self.parse_expr()?;
                self.expect(&Token::RBracket)?;
                Ok(LValue::Range {
                    id,
                    base,
                    msb: first,
                    lsb,
                })
            } else {
                self.expect(&Token::RBracket)?;
                Ok(LValue::Index {
                    id,
                    base,
                    index: first,
                })
            }
        } else {
            Ok(LValue::Ident { id, name: base })
        }
    }

    // -- expressions ---------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::parse_expr_inner)
    }

    fn parse_expr_inner(&mut self) -> Result<Expr, ParseError> {
        let cond = self.parse_binary(0)?;
        if self.eat(&Token::Question) {
            let id = self.ids.fresh();
            let then_e = self.parse_expr()?;
            self.expect(&Token::Colon)?;
            let else_e = self.parse_expr()?;
            Ok(Expr::Cond {
                id,
                cond: Box::new(cond),
                then_e: Box::new(then_e),
                else_e: Box::new(else_e),
            })
        } else {
            Ok(cond)
        }
    }

    fn peek_binop(&self) -> Option<BinaryOp> {
        Some(match self.peek() {
            Token::Plus => BinaryOp::Add,
            Token::Minus => BinaryOp::Sub,
            Token::Star => BinaryOp::Mul,
            Token::Slash => BinaryOp::Div,
            Token::Percent => BinaryOp::Rem,
            Token::Eq => BinaryOp::Eq,
            Token::Neq => BinaryOp::Neq,
            Token::CaseEq => BinaryOp::CaseEq,
            Token::CaseNeq => BinaryOp::CaseNeq,
            Token::Lt => BinaryOp::Lt,
            Token::LtEq => BinaryOp::Le,
            Token::Gt => BinaryOp::Gt,
            Token::GtEq => BinaryOp::Ge,
            Token::AmpAmp => BinaryOp::LogicAnd,
            Token::PipePipe => BinaryOp::LogicOr,
            Token::Amp => BinaryOp::BitAnd,
            Token::Pipe => BinaryOp::BitOr,
            Token::Caret => BinaryOp::BitXor,
            Token::TildeCaret => BinaryOp::BitXnor,
            Token::Shl => BinaryOp::Shl,
            Token::Shr => BinaryOp::Shr,
            _ => return None,
        })
    }

    fn parse_binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_unary()?;
        while let Some(op) = self.peek_binop() {
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            self.bump();
            let id = self.ids.fresh();
            let rhs = self.parse_binary(prec + 1)?;
            lhs = Expr::Binary {
                id,
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::parse_unary_inner)
    }

    fn parse_unary_inner(&mut self) -> Result<Expr, ParseError> {
        let op = match self.peek() {
            Token::Bang => Some(UnaryOp::LogicNot),
            Token::Tilde => Some(UnaryOp::BitNot),
            Token::Minus => Some(UnaryOp::Minus),
            Token::Plus => Some(UnaryOp::Plus),
            Token::Amp => Some(UnaryOp::RedAnd),
            Token::Pipe => Some(UnaryOp::RedOr),
            Token::Caret => Some(UnaryOp::RedXor),
            Token::TildeAmp => Some(UnaryOp::RedNand),
            Token::TildePipe => Some(UnaryOp::RedNor),
            Token::TildeCaret => Some(UnaryOp::RedXnor),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let id = self.ids.fresh();
            let arg = self.parse_unary()?;
            Ok(Expr::Unary {
                id,
                op,
                arg: Box::new(arg),
            })
        } else {
            self.parse_primary()
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Token::Number {
                width,
                base,
                digits,
            } => {
                self.bump();
                let id = self.ids.fresh();
                let lit_base = base.unwrap_or(LiteralBase::Decimal);
                let value = LogicVec::parse_based(width, lit_base, &digits)
                    .map_err(|e| self.error(e.to_string()))?;
                Ok(Expr::Literal {
                    id,
                    value,
                    base: lit_base,
                    sized: width.is_some(),
                })
            }
            Token::Str(s) => {
                self.bump();
                Ok(Expr::Str {
                    id: self.ids.fresh(),
                    value: s,
                })
            }
            Token::LParen => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::LBrace => {
                self.bump();
                let id = self.ids.fresh();
                let first = self.parse_expr()?;
                if self.peek() == &Token::LBrace {
                    // Replication: {count{parts}}.
                    self.bump();
                    let mut parts = vec![self.parse_expr()?];
                    while self.eat(&Token::Comma) {
                        parts.push(self.parse_expr()?);
                    }
                    self.expect(&Token::RBrace)?;
                    self.expect(&Token::RBrace)?;
                    Ok(Expr::Repeat {
                        id,
                        count: Box::new(first),
                        parts,
                    })
                } else {
                    let mut parts = vec![first];
                    while self.eat(&Token::Comma) {
                        parts.push(self.parse_expr()?);
                    }
                    self.expect(&Token::RBrace)?;
                    Ok(Expr::Concat { id, parts })
                }
            }
            Token::SysIdent(name) => {
                self.bump();
                let id = self.ids.fresh();
                let args = if self.eat(&Token::LParen) {
                    let mut args = Vec::new();
                    if self.peek() != &Token::RParen {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat(&Token::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&Token::RParen)?;
                    args
                } else {
                    Vec::new()
                };
                Ok(Expr::SysCall { id, name, args })
            }
            Token::Ident(_) => {
                let id = self.ids.fresh();
                let name = self.expect_ident()?;
                if self.eat(&Token::LBracket) {
                    let first = self.parse_expr()?;
                    if self.eat(&Token::Colon) {
                        let lsb = self.parse_expr()?;
                        self.expect(&Token::RBracket)?;
                        Ok(Expr::Range {
                            id,
                            base: name,
                            msb: Box::new(first),
                            lsb: Box::new(lsb),
                        })
                    } else {
                        self.expect(&Token::RBracket)?;
                        Ok(Expr::Index {
                            id,
                            base: name,
                            index: Box::new(first),
                        })
                    }
                } else {
                    Ok(Expr::Ident { id, name })
                }
            }
            other => Err(self.error(format!("expected expression, found `{other}`"))),
        }
    }
}
