//! Recursive-descent parser for the Fig. 2 E-SQL grammar.
//!
//! ```text
//! view        := CREATE VIEW name [ '(' ident, … ')' ] [ '(' VE '=' ve ')' ] AS
//!                SELECT item, …  FROM rel, …  [ WHERE cond AND … ]
//! item        := column [ AS ident ] [ props ]
//! rel         := ident [ ident ] [ props ]
//! cond        := [ '(' ] column θ (column | literal) [ ')' ] [ props ]
//! props       := '(' (AD|AR|RD|RR|CD|CR) '=' (true|false), … ')'
//! ve          := '~' | '=' | '>=' | '<=' | string | approx|any|equal|superset|subset
//! ```
//!
//! The unicode spellings `≈ ≡ ⊇ ⊆` are accepted inside the VE string literal.

use eve_relational::{ColumnRef, CompOp, Operand, PrimitiveClause, Value};

use crate::ast::{
    AttrEvolution, CondEvolution, ConditionItem, FromItem, RelEvolution, SelectItem, ViewDef,
    ViewExtent,
};
use crate::error::{ParseError, ParseResult};
use crate::lexer::{tokenize, Token, TokenKind};

/// Parses a complete `CREATE VIEW` statement.
///
/// # Errors
///
/// Returns a positioned [`ParseError`] on any lexical or syntactic problem,
/// including trailing garbage after the statement.
pub fn parse_view(src: &str) -> ParseResult<ViewDef> {
    let tokens = tokenize(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let view = p.view()?;
    p.expect_eof()?;
    Ok(view)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

const PROP_KEYWORDS: [&str; 6] = ["AD", "AR", "RD", "RR", "CD", "CR"];

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_at(&self, offset: usize) -> &Token {
        &self.tokens[(self.pos + offset).min(self.tokens.len() - 1)]
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        let t = self.peek();
        ParseError::new(t.line, t.column, msg.into())
    }

    fn expect(&mut self, kind: &TokenKind) -> ParseResult<Token> {
        if &self.peek().kind == kind {
            Ok(self.advance())
        } else {
            Err(self.error(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().kind.describe()
            )))
        }
    }

    fn expect_eof(&self) -> ParseResult<()> {
        if self.peek().kind == TokenKind::Eof {
            Ok(())
        } else {
            Err(self.error(format!(
                "unexpected {} after view definition",
                self.peek().kind.describe()
            )))
        }
    }

    /// Consumes an identifier, returning its spelling.
    fn ident(&mut self, what: &str) -> ParseResult<String> {
        match &self.peek().kind {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.advance();
                Ok(s)
            }
            other => Err(self.error(format!("expected {what}, found {}", other.describe()))),
        }
    }

    /// Consumes a specific case-insensitive keyword.
    fn keyword(&mut self, kw: &str) -> ParseResult<()> {
        match &self.peek().kind {
            TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw) => {
                self.advance();
                Ok(())
            }
            other => Err(self.error(format!("expected `{kw}`, found {}", other.describe()))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn view(&mut self) -> ParseResult<ViewDef> {
        self.keyword("CREATE")?;
        self.keyword("VIEW")?;
        let name = self.ident("view name")?;

        let mut column_names = None;
        // Optional output-column list — but "(VE = …)" is the extent
        // parameter, not a column list.
        if self.peek().kind == TokenKind::LParen && !self.lookahead_ve() {
            self.advance();
            let mut cols = vec![self.ident("column name")?];
            while self.peek().kind == TokenKind::Comma {
                self.advance();
                cols.push(self.ident("column name")?);
            }
            self.expect(&TokenKind::RParen)?;
            column_names = Some(cols);
        }

        let mut ve = ViewExtent::default();
        if self.peek().kind == TokenKind::LParen && self.lookahead_ve() {
            self.advance();
            self.keyword("VE")?;
            self.expect(&TokenKind::Eq)?;
            ve = self.ve_value()?;
            self.expect(&TokenKind::RParen)?;
        }

        self.keyword("AS")?;
        self.keyword("SELECT")?;
        let mut select = vec![self.select_item()?];
        while self.peek().kind == TokenKind::Comma {
            self.advance();
            select.push(self.select_item()?);
        }

        self.keyword("FROM")?;
        let mut from = vec![self.from_item()?];
        while self.peek().kind == TokenKind::Comma {
            self.advance();
            from.push(self.from_item()?);
        }

        let mut conditions = Vec::new();
        if self.at_keyword("WHERE") {
            self.advance();
            conditions.push(self.condition()?);
            while self.at_keyword("AND") {
                self.advance();
                conditions.push(self.condition()?);
            }
        }

        if let Some(cols) = &column_names {
            if cols.len() != select.len() {
                return Err(self.error(format!(
                    "view column list has {} names but SELECT produces {} columns",
                    cols.len(),
                    select.len()
                )));
            }
        }

        Ok(ViewDef {
            name,
            column_names,
            ve,
            select,
            from,
            conditions,
        })
    }

    /// Whether the upcoming `(` opens a `(VE = …)` parameter.
    fn lookahead_ve(&self) -> bool {
        matches!(&self.peek_at(1).kind, TokenKind::Ident(s) if s.eq_ignore_ascii_case("VE"))
            && self.peek_at(2).kind == TokenKind::Eq
    }

    /// Whether the upcoming `(` opens an evolution-parameter list.
    fn lookahead_props(&self) -> bool {
        if self.peek().kind != TokenKind::LParen {
            return false;
        }
        let is_prop = matches!(&self.peek_at(1).kind,
            TokenKind::Ident(s) if PROP_KEYWORDS.iter().any(|k| s.eq_ignore_ascii_case(k)));
        is_prop && self.peek_at(2).kind == TokenKind::Eq
    }

    fn ve_value(&mut self) -> ParseResult<ViewExtent> {
        let tok = self.advance();
        let from_str = |s: &str| match s {
            "~" | "\u{2248}" => Some(ViewExtent::Approximate), // ≈
            "=" | "\u{2261}" => Some(ViewExtent::Equal),       // ≡
            ">=" | "\u{2287}" => Some(ViewExtent::Superset),   // ⊇
            "<=" | "\u{2286}" => Some(ViewExtent::Subset),     // ⊆
            _ => None,
        };
        let parsed = match &tok.kind {
            TokenKind::Str(s) => from_str(s).or_else(|| word_ve(s)),
            TokenKind::Ident(s) => word_ve(s),
            TokenKind::Tilde => Some(ViewExtent::Approximate),
            TokenKind::Eq => Some(ViewExtent::Equal),
            TokenKind::Ge => Some(ViewExtent::Superset),
            TokenKind::Le => Some(ViewExtent::Subset),
            _ => None,
        };
        parsed.ok_or_else(|| {
            ParseError::new(
                tok.line,
                tok.column,
                format!("invalid VE value {}", tok.kind.describe()),
            )
        })
    }

    /// Parses `(P = bool, …)` into flag assignments.
    fn props(&mut self) -> ParseResult<Vec<(String, bool)>> {
        self.expect(&TokenKind::LParen)?;
        let mut out = Vec::new();
        loop {
            let name = self.ident("evolution parameter")?;
            let upper = name.to_ascii_uppercase();
            if !PROP_KEYWORDS.contains(&upper.as_str()) {
                return Err(self.error(format!("unknown evolution parameter `{name}`")));
            }
            self.expect(&TokenKind::Eq)?;
            let v = self.ident("true or false")?;
            let value = if v.eq_ignore_ascii_case("true") {
                true
            } else if v.eq_ignore_ascii_case("false") {
                false
            } else {
                return Err(self.error(format!("expected `true` or `false`, found `{v}`")));
            };
            out.push((upper, value));
            if self.peek().kind == TokenKind::Comma {
                self.advance();
            } else {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(out)
    }

    fn attr_props(&mut self) -> ParseResult<AttrEvolution> {
        let mut ev = AttrEvolution::default();
        for (name, value) in self.props()? {
            match name.as_str() {
                "AD" => ev.dispensable = value,
                "AR" => ev.replaceable = value,
                other => return Err(self.error(format!("`{other}` is not valid on a SELECT item"))),
            }
        }
        Ok(ev)
    }

    fn rel_props(&mut self) -> ParseResult<RelEvolution> {
        let mut ev = RelEvolution::default();
        for (name, value) in self.props()? {
            match name.as_str() {
                "RD" => ev.dispensable = value,
                "RR" => ev.replaceable = value,
                other => return Err(self.error(format!("`{other}` is not valid on a FROM item"))),
            }
        }
        Ok(ev)
    }

    fn cond_props(&mut self) -> ParseResult<CondEvolution> {
        let mut ev = CondEvolution::default();
        for (name, value) in self.props()? {
            match name.as_str() {
                "CD" => ev.dispensable = value,
                "CR" => ev.replaceable = value,
                other => return Err(self.error(format!("`{other}` is not valid on a condition"))),
            }
        }
        Ok(ev)
    }

    fn column_ref(&mut self) -> ParseResult<ColumnRef> {
        let first = self.ident("column reference")?;
        if self.peek().kind == TokenKind::Dot {
            self.advance();
            let name = self.ident("attribute name")?;
            Ok(ColumnRef::qualified(first, name))
        } else {
            Ok(ColumnRef::bare(first))
        }
    }

    fn select_item(&mut self) -> ParseResult<SelectItem> {
        let attr = self.column_ref()?;
        let mut alias = None;
        if self.at_keyword("AS") {
            self.advance();
            alias = Some(self.ident("output alias")?);
        }
        let evolution = if self.lookahead_props() {
            self.attr_props()?
        } else {
            AttrEvolution::default()
        };
        Ok(SelectItem {
            attr,
            alias,
            evolution,
        })
    }

    #[allow(clippy::wrong_self_convention)] // parses a FROM item; not a conversion
    fn from_item(&mut self) -> ParseResult<FromItem> {
        let relation = self.ident("relation name")?;
        let mut alias = None;
        // An alias is a bare identifier that is not a keyword opener.
        if let TokenKind::Ident(s) = &self.peek().kind {
            if !s.eq_ignore_ascii_case("WHERE") && !s.eq_ignore_ascii_case("AS") {
                alias = Some(self.ident("relation alias")?);
            }
        }
        let evolution = if self.lookahead_props() {
            self.rel_props()?
        } else {
            RelEvolution::default()
        };
        Ok(FromItem {
            relation,
            alias,
            evolution,
        })
    }

    fn comp_op(&mut self) -> ParseResult<CompOp> {
        let tok = self.advance();
        match tok.kind {
            TokenKind::Lt => Ok(CompOp::Lt),
            TokenKind::Le => Ok(CompOp::Le),
            TokenKind::Eq => Ok(CompOp::Eq),
            TokenKind::Ge => Ok(CompOp::Ge),
            TokenKind::Gt => Ok(CompOp::Gt),
            other => Err(ParseError::new(
                tok.line,
                tok.column,
                format!("expected comparison operator, found {}", other.describe()),
            )),
        }
    }

    fn operand(&mut self) -> ParseResult<Operand> {
        match &self.peek().kind {
            TokenKind::Int(v) => {
                let v = *v;
                self.advance();
                Ok(Operand::Literal(Value::Int(v)))
            }
            TokenKind::Float(v) => {
                let v = *v;
                let tok = self.advance();
                Value::float(v).map(Operand::Literal).map_err(|_| {
                    ParseError::new(tok.line, tok.column, "float literal is not a number")
                })
            }
            TokenKind::Str(s) => {
                let s = s.clone();
                self.advance();
                Ok(Operand::Literal(Value::Text(s)))
            }
            TokenKind::Ident(s)
                if s.eq_ignore_ascii_case("true") || s.eq_ignore_ascii_case("false") =>
            {
                let v = s.eq_ignore_ascii_case("true");
                self.advance();
                Ok(Operand::Literal(Value::Bool(v)))
            }
            TokenKind::Ident(_) => Ok(Operand::Column(self.column_ref()?)),
            other => Err(self.error(format!(
                "expected column or literal, found {}",
                other.describe()
            ))),
        }
    }

    fn condition(&mut self) -> ParseResult<ConditionItem> {
        // A condition may be wrapped in parentheses — but "(" could also be a
        // prop list only after the clause, so here "(" always opens a clause.
        let parenthesized = self.peek().kind == TokenKind::LParen;
        if parenthesized {
            self.advance();
        }
        let left = self.column_ref()?;
        let op = self.comp_op()?;
        let right = self.operand()?;
        if parenthesized {
            self.expect(&TokenKind::RParen)?;
        }
        let evolution = if self.lookahead_props() {
            self.cond_props()?
        } else {
            CondEvolution::default()
        };
        Ok(ConditionItem {
            clause: PrimitiveClause { left, op, right },
            evolution,
        })
    }
}

fn word_ve(s: &str) -> Option<ViewExtent> {
    if s.eq_ignore_ascii_case("approx")
        || s.eq_ignore_ascii_case("approximate")
        || s.eq_ignore_ascii_case("any")
    {
        Some(ViewExtent::Approximate)
    } else if s.eq_ignore_ascii_case("equal") || s.eq_ignore_ascii_case("equivalent") {
        Some(ViewExtent::Equal)
    } else if s.eq_ignore_ascii_case("superset") {
        Some(ViewExtent::Superset)
    } else if s.eq_ignore_ascii_case("subset") {
        Some(ViewExtent::Subset)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ASIA: &str = "CREATE VIEW Asia-Customer (VE = '~') AS\n\
        SELECT C.Name, C.Address, C.Phone (AD = true, AR = true)\n\
        FROM Customer C (RR = true), FlightRes F\n\
        WHERE (C.Name = F.PName) AND (F.Dest = 'Asia') (CD = true)";

    #[test]
    fn parses_paper_query_2() {
        let v = parse_view(ASIA).unwrap();
        assert_eq!(v.name, "Asia-Customer");
        assert_eq!(v.ve, ViewExtent::Approximate);
        assert_eq!(v.select.len(), 3);
        assert_eq!(
            v.select[2].evolution,
            AttrEvolution {
                dispensable: true,
                replaceable: true
            }
        );
        assert_eq!(v.select[0].evolution, AttrEvolution::default());
        assert_eq!(v.from.len(), 2);
        assert_eq!(v.from[0].alias.as_deref(), Some("C"));
        assert!(v.from[0].evolution.replaceable);
        assert!(!v.from[0].evolution.dispensable);
        assert_eq!(v.conditions.len(), 2);
        assert!(v.conditions[1].evolution.dispensable);
        assert!(!v.conditions[0].evolution.dispensable);
    }

    #[test]
    fn parses_paper_query_6() {
        // Example 1's view V.
        let src = "CREATE VIEW V (VE = '=') AS\n\
            SELECT A, B (AD = true, AR = true), C (AD = true, AR = true)\n\
            FROM R\n\
            WHERE R.A > 10";
        let v = parse_view(src).unwrap();
        assert_eq!(v.select.len(), 3);
        assert_eq!(v.ve, ViewExtent::Equal);
        assert_eq!(v.conditions.len(), 1);
        assert_eq!(v.conditions[0].clause.to_string(), "R.A > 10");
    }

    #[test]
    fn ve_spellings() {
        for (s, want) in [
            ("'~'", ViewExtent::Approximate),
            ("'\u{2248}'", ViewExtent::Approximate),
            ("~", ViewExtent::Approximate),
            ("'='", ViewExtent::Equal),
            ("'\u{2261}'", ViewExtent::Equal),
            ("'>='", ViewExtent::Superset),
            ("'\u{2287}'", ViewExtent::Superset),
            (">=", ViewExtent::Superset),
            ("superset", ViewExtent::Superset),
            ("'<='", ViewExtent::Subset),
            ("'\u{2286}'", ViewExtent::Subset),
            ("subset", ViewExtent::Subset),
            ("approx", ViewExtent::Approximate),
            ("equal", ViewExtent::Equal),
        ] {
            let src = format!("CREATE VIEW V (VE = {s}) AS SELECT R.A FROM R");
            let v = parse_view(&src).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(v.ve, want, "spelling {s}");
        }
    }

    #[test]
    fn ve_defaults_to_equal_when_missing() {
        let v = parse_view("CREATE VIEW V AS SELECT R.A FROM R").unwrap();
        assert_eq!(v.ve, ViewExtent::Equal);
    }

    #[test]
    fn column_list_and_ve_both_accepted() {
        let v = parse_view("CREATE VIEW V (X, Y) (VE = '~') AS SELECT R.A, R.B FROM R").unwrap();
        assert_eq!(v.column_names, Some(vec!["X".into(), "Y".into()]));
        assert_eq!(v.output_columns(), vec!["X", "Y"]);
    }

    #[test]
    fn column_list_arity_mismatch_rejected() {
        let e = parse_view("CREATE VIEW V (X) AS SELECT R.A, R.B FROM R").unwrap_err();
        assert!(e.message.contains("column list"));
    }

    #[test]
    fn select_alias() {
        let v = parse_view("CREATE VIEW V AS SELECT R.A AS Alpha FROM R").unwrap();
        assert_eq!(v.select[0].alias.as_deref(), Some("Alpha"));
        assert_eq!(v.output_columns(), vec!["Alpha"]);
    }

    #[test]
    fn unparenthesized_condition() {
        let v =
            parse_view("CREATE VIEW V AS SELECT R.A FROM R WHERE R.A >= 3 AND R.A < 9").unwrap();
        assert_eq!(v.conditions.len(), 2);
        assert_eq!(v.conditions[0].clause.op, CompOp::Ge);
        assert_eq!(v.conditions[1].clause.op, CompOp::Lt);
    }

    #[test]
    fn condition_with_boolean_literal() {
        let v = parse_view("CREATE VIEW V AS SELECT R.A FROM R WHERE R.Ok = true").unwrap();
        assert_eq!(
            v.conditions[0].clause.right,
            Operand::Literal(Value::Bool(true))
        );
    }

    #[test]
    fn float_literal() {
        let v = parse_view("CREATE VIEW V AS SELECT R.A FROM R WHERE R.A < 3.5").unwrap();
        assert_eq!(
            v.conditions[0].clause.right,
            Operand::Literal(Value::Float(3.5))
        );
    }

    #[test]
    fn wrong_prop_on_select_item_rejected() {
        let e = parse_view("CREATE VIEW V AS SELECT R.A (RD = true) FROM R").unwrap_err();
        assert!(e.message.contains("not valid on a SELECT item"), "{e}");
    }

    #[test]
    fn wrong_prop_on_condition_rejected() {
        let e =
            parse_view("CREATE VIEW V AS SELECT R.A FROM R WHERE R.A > 1 (AD = true)").unwrap_err();
        assert!(e.message.contains("not valid on a condition"), "{e}");
    }

    #[test]
    fn trailing_garbage_rejected() {
        let e = parse_view("CREATE VIEW V AS SELECT R.A FROM R garbage garbage").unwrap_err();
        assert!(e.message.contains("unexpected"), "{e}");
    }

    #[test]
    fn missing_from_rejected() {
        assert!(parse_view("CREATE VIEW V AS SELECT R.A").is_err());
    }

    #[test]
    fn roundtrip_display_parse() {
        let v1 = parse_view(ASIA).unwrap();
        let printed = v1.to_string();
        let v2 = parse_view(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        assert_eq!(v1, v2);
    }

    #[test]
    fn keywords_case_insensitive() {
        let v = parse_view("create view V as select R.A from R where R.A > 1").unwrap();
        assert_eq!(v.name, "V");
    }

    #[test]
    fn error_position_is_useful() {
        let e = parse_view("CREATE VIEW V AS SELECT FROM R").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.column >= 25, "column {}", e.column);
    }
}
