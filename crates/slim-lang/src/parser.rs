//! Recursive-descent parser for the SLIM subset.

use crate::ast::*;
use crate::error::{LangError, LangErrorKind};
use crate::lexer::lex;
use crate::token::{Keyword, Pos, Token, TokenKind};

/// Parses a complete SLIM source file.
///
/// # Errors
/// [`LangError`] with position on the first syntax error.
///
/// # Examples
///
/// ```
/// let model = slim_lang::parser::parse(r#"
///     device GPS
///       features
///         fix: out data port bool := false;
///     end GPS;
/// "#)?;
/// assert_eq!(model.types.len(), 1);
/// # Ok::<(), slim_lang::error::LangError>(())
/// ```
pub fn parse(src: &str) -> Result<Model, LangError> {
    let tokens = lex(src)?;
    Parser { tokens, at: 0 }.model()
}

struct Parser {
    tokens: Vec<Token>,
    at: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.at.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn pos(&self) -> Pos {
        self.peek().pos
    }

    /// Steps past the current token (the trailing end-of-input token is
    /// never passed).
    fn bump(&mut self) {
        if self.at < self.tokens.len() - 1 {
            self.at += 1;
        }
    }

    fn error(&self, expected: impl Into<String>) -> LangError {
        LangError {
            kind: LangErrorKind::Expected {
                expected: expected.into(),
                found: self.peek_kind().to_string(),
            },
            pos: self.pos(),
        }
    }

    /// Keywords that may double as identifiers (contextual keywords):
    /// they only act as keywords in specific structural positions.
    fn soft_ident(kind: &TokenKind) -> Option<&str> {
        match kind {
            TokenKind::Ident(s) => Some(s.as_str()),
            TokenKind::Keyword(
                kw @ (Keyword::On
                | Keyword::Using
                | Keyword::Effect
                | Keyword::Model
                | Keyword::State
                | Keyword::States),
            ) => Some(kw.as_str()),
            _ => None,
        }
    }

    fn peek_ident_like(&self) -> bool {
        Self::soft_ident(self.peek_kind()).is_some()
    }

    fn eat_kind(&mut self, kind: &TokenKind) -> bool {
        if self.peek_kind() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kind(&mut self, kind: TokenKind) -> Result<(), LangError> {
        if self.eat_kind(&kind) {
            Ok(())
        } else {
            Err(self.error(kind.to_string()))
        }
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        self.eat_kind(&TokenKind::Keyword(kw))
    }

    fn expect_kw(&mut self, kw: Keyword) -> Result<(), LangError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(format!("keyword `{kw}`")))
        }
    }

    /// Consumes an identifier. An `Ident` token's text is taken, not
    /// cloned: the parser never looks back at a passed token.
    fn ident(&mut self) -> Result<String, LangError> {
        let at = self.at.min(self.tokens.len() - 1);
        let s = match &mut self.tokens[at].kind {
            TokenKind::Ident(s) => std::mem::take(s),
            kind => match Self::soft_ident(kind) {
                Some(kw) => kw.to_string(),
                None => return Err(self.error("identifier")),
            },
        };
        self.bump();
        Ok(s)
    }

    fn qname(&mut self) -> Result<QName, LangError> {
        let mut segs = vec![self.ident()?];
        while self.eat_kind(&TokenKind::Dot) {
            segs.push(self.ident()?);
        }
        Ok(QName(segs))
    }

    fn number(&mut self) -> Result<f64, LangError> {
        let neg = self.eat_kind(&TokenKind::Minus);
        let v = match *self.peek_kind() {
            TokenKind::Int(i) => {
                self.bump();
                i as f64
            }
            TokenKind::Real(r) => {
                self.bump();
                r
            }
            _ => return Err(self.error("number")),
        };
        Ok(if neg { -v } else { v })
    }

    fn literal(&mut self) -> Result<Literal, LangError> {
        match *self.peek_kind() {
            TokenKind::Keyword(Keyword::True) => {
                self.bump();
                Ok(Literal::Bool(true))
            }
            TokenKind::Keyword(Keyword::False) => {
                self.bump();
                Ok(Literal::Bool(false))
            }
            TokenKind::Int(i) => {
                self.bump();
                Ok(Literal::Int(i))
            }
            TokenKind::Real(r) => {
                self.bump();
                Ok(Literal::Real(r))
            }
            TokenKind::Minus => {
                self.bump();
                match *self.peek_kind() {
                    TokenKind::Int(i) => {
                        self.bump();
                        Ok(Literal::Int(-i))
                    }
                    TokenKind::Real(r) => {
                        self.bump();
                        Ok(Literal::Real(-r))
                    }
                    _ => Err(self.error("number after `-`")),
                }
            }
            _ => Err(self.error("literal")),
        }
    }

    fn category(&mut self) -> Option<Category> {
        let cat = match self.peek_kind() {
            TokenKind::Keyword(Keyword::System) => Category::System,
            TokenKind::Keyword(Keyword::Device) => Category::Device,
            TokenKind::Keyword(Keyword::Process) => Category::Process,
            TokenKind::Keyword(Keyword::Processor) => Category::Processor,
            TokenKind::Keyword(Keyword::Bus) => Category::Bus,
            TokenKind::Keyword(Keyword::Thread) => Category::Thread,
            TokenKind::Keyword(Keyword::Memory) => Category::Memory,
            TokenKind::Keyword(Keyword::Abstract) => Category::Abstract,
            _ => return None,
        };
        self.bump();
        Some(cat)
    }

    fn model(mut self) -> Result<Model, LangError> {
        let mut model = Model::default();
        loop {
            if self.eat_kind(&TokenKind::Eof) || matches!(self.peek_kind(), TokenKind::Eof) {
                return Ok(model);
            }
            if let Some(cat) = self.category() {
                if self.eat_kw(Keyword::Implementation) {
                    model.impls.push(self.component_impl(cat)?);
                } else {
                    model.types.push(self.component_type(cat)?);
                }
            } else if self.eat_kw(Keyword::Error) {
                self.expect_kw(Keyword::Model)?;
                model.error_models.push(self.error_model()?);
            } else if self.eat_kw(Keyword::Fault) {
                self.expect_kw(Keyword::Injection)?;
                model.injections.push(self.fault_injection()?);
            } else {
                return Err(self.error("component category, `error model` or `fault injection`"));
            }
        }
    }

    fn component_type(&mut self, category: Category) -> Result<ComponentType, LangError> {
        let pos = self.pos();
        let name = self.ident()?;
        let mut features = Vec::new();
        if self.eat_kw(Keyword::Features) {
            while !matches!(self.peek_kind(), TokenKind::Keyword(Keyword::End)) {
                features.push(self.feature()?);
            }
        }
        self.expect_kw(Keyword::End)?;
        let ended = self.ident()?;
        if ended != name {
            return Err(LangError {
                kind: LangErrorKind::EndMismatch { declared: name, ended },
                pos: self.pos(),
            });
        }
        self.expect_kind(TokenKind::Semi)?;
        Ok(ComponentType { category, name, features, pos })
    }

    fn feature(&mut self) -> Result<Feature, LangError> {
        let name = self.ident()?;
        self.expect_kind(TokenKind::Colon)?;
        let direction = if self.eat_kw(Keyword::In) {
            Direction::In
        } else if self.eat_kw(Keyword::Out) {
            Direction::Out
        } else {
            return Err(self.error("`in` or `out`"));
        };
        let feature = if self.eat_kw(Keyword::Event) {
            self.expect_kw(Keyword::Port)?;
            Feature { name, direction, data: None, default: None }
        } else if self.eat_kw(Keyword::Data) {
            self.expect_kw(Keyword::Port)?;
            let ty = self.data_type()?;
            let default =
                if self.eat_kind(&TokenKind::Assign) { Some(self.literal()?) } else { None };
            Feature { name, direction, data: Some(ty), default }
        } else {
            return Err(self.error("`event port` or `data port`"));
        };
        self.expect_kind(TokenKind::Semi)?;
        Ok(feature)
    }

    fn data_type(&mut self) -> Result<DataType, LangError> {
        if self.eat_kw(Keyword::Bool) {
            Ok(DataType::Bool)
        } else if self.eat_kw(Keyword::Int) {
            if self.eat_kind(&TokenKind::LBracket) {
                let lo = self.number()? as i64;
                self.expect_kind(TokenKind::DotDot)?;
                let hi = self.number()? as i64;
                self.expect_kind(TokenKind::RBracket)?;
                Ok(DataType::Int(Some((lo, hi))))
            } else {
                Ok(DataType::Int(None))
            }
        } else if self.eat_kw(Keyword::Real) {
            Ok(DataType::Real)
        } else if self.eat_kw(Keyword::Clock) {
            Ok(DataType::Clock)
        } else if self.eat_kw(Keyword::Continuous) {
            Ok(DataType::Continuous)
        } else {
            Err(self.error("data type"))
        }
    }

    fn component_impl(&mut self, category: Category) -> Result<ComponentImpl, LangError> {
        let pos = self.pos();
        let ty = self.ident()?;
        self.expect_kind(TokenKind::Dot)?;
        let im = self.ident()?;
        let mut ci = ComponentImpl {
            category,
            name: (ty.clone(), im.clone()),
            subcomponents: vec![],
            connections: vec![],
            flows: vec![],
            modes: vec![],
            transitions: vec![],
            pos,
        };
        // Sections may appear in any order (and repeat, accumulating).
        loop {
            if self.eat_kw(Keyword::Subcomponents) {
                while self.peek_ident_like() {
                    ci.subcomponents.push(self.subcomponent()?);
                }
            } else if self.eat_kw(Keyword::Connections) {
                while matches!(self.peek_kind(), TokenKind::Keyword(Keyword::Port)) {
                    self.bump();
                    let from = self.qname()?;
                    self.expect_kind(TokenKind::Arrow)?;
                    let to = self.qname()?;
                    self.expect_kind(TokenKind::Semi)?;
                    ci.connections.push(Connection { from, to });
                }
            } else if self.eat_kw(Keyword::Flows) {
                while self.peek_ident_like() {
                    let target = self.qname()?;
                    self.expect_kind(TokenKind::Assign)?;
                    let expr = self.expr()?;
                    self.expect_kind(TokenKind::Semi)?;
                    ci.flows.push(FlowDef { target, expr });
                }
            } else if self.eat_kw(Keyword::Modes) {
                while self.peek_ident_like() {
                    ci.modes.push(self.mode()?);
                }
            } else if self.eat_kw(Keyword::Transitions) {
                while self.peek_ident_like() {
                    ci.transitions.push(self.transition()?);
                }
            } else {
                break;
            }
        }
        self.expect_kw(Keyword::End)?;
        let ty2 = self.ident()?;
        self.expect_kind(TokenKind::Dot)?;
        let im2 = self.ident()?;
        if ty2 != ty || im2 != im {
            return Err(LangError {
                kind: LangErrorKind::EndMismatch {
                    declared: format!("{ty}.{im}"),
                    ended: format!("{ty2}.{im2}"),
                },
                pos: self.pos(),
            });
        }
        self.expect_kind(TokenKind::Semi)?;
        Ok(ci)
    }

    fn subcomponent(&mut self) -> Result<Subcomponent, LangError> {
        let pos = self.pos();
        let name = self.ident()?;
        self.expect_kind(TokenKind::Colon)?;
        if self.eat_kw(Keyword::Data) {
            let ty = self.data_type()?;
            let init = if self.eat_kind(&TokenKind::Assign) { Some(self.literal()?) } else { None };
            self.expect_kind(TokenKind::Semi)?;
            Ok(Subcomponent::Data { name, ty, init, pos })
        } else if let Some(category) = self.category() {
            let ty = self.ident()?;
            self.expect_kind(TokenKind::Dot)?;
            let im = self.ident()?;
            self.expect_kind(TokenKind::Semi)?;
            Ok(Subcomponent::Instance { name, category, impl_ref: (ty, im), pos })
        } else {
            Err(self.error("`data` or a component category"))
        }
    }

    fn mode(&mut self) -> Result<ModeDecl, LangError> {
        let pos = self.pos();
        let name = self.ident()?;
        self.expect_kind(TokenKind::Colon)?;
        let initial = self.eat_kw(Keyword::Initial);
        self.expect_kw(Keyword::Mode)?;
        let invariant = if self.eat_kw(Keyword::While) { Some(self.expr()?) } else { None };
        let mut derivatives = Vec::new();
        while self.eat_kw(Keyword::Der) {
            let var = self.qname()?;
            self.expect_kind(TokenKind::Eq)?;
            let rate = self.number()?;
            derivatives.push((var, rate));
        }
        self.expect_kind(TokenKind::Semi)?;
        Ok(ModeDecl { name, initial, invariant, derivatives, pos })
    }

    fn transition(&mut self) -> Result<TransitionDecl, LangError> {
        let pos = self.pos();
        let from = self.ident()?;
        self.expect_kind(TokenKind::TransOpen)?;
        let urgent = self.eat_kw(Keyword::Urgent);
        let trigger = if self.eat_kw(Keyword::Rate) {
            Trigger::Rate(self.number()?)
        } else if self.peek_ident_like() {
            Trigger::Port(self.qname()?)
        } else {
            Trigger::Internal
        };
        let guard = if self.eat_kw(Keyword::When) { Some(self.expr()?) } else { None };
        let mut effects = Vec::new();
        if self.eat_kw(Keyword::Then) {
            loop {
                let target = self.qname()?;
                self.expect_kind(TokenKind::Assign)?;
                let expr = self.expr()?;
                effects.push((target, expr));
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect_kind(TokenKind::TransClose)?;
        let to = self.ident()?;
        self.expect_kind(TokenKind::Semi)?;
        Ok(TransitionDecl { from, urgent, trigger, guard, effects, to, pos })
    }

    fn error_model(&mut self) -> Result<ErrorModel, LangError> {
        let pos = self.pos();
        let name = self.ident()?;
        self.expect_kw(Keyword::States)?;
        let mut states = Vec::new();
        while self.peek_ident_like() {
            let spos = self.pos();
            let sname = self.ident()?;
            self.expect_kind(TokenKind::Colon)?;
            let initial = self.eat_kw(Keyword::Initial);
            self.expect_kw(Keyword::State)?;
            let invariant = if self.eat_kw(Keyword::While) { Some(self.expr()?) } else { None };
            self.expect_kind(TokenKind::Semi)?;
            states.push(ErrorState { name: sname, initial, invariant, pos: spos });
        }
        self.expect_kw(Keyword::Transitions)?;
        let mut transitions = Vec::new();
        while self.peek_ident_like() {
            let tpos = self.pos();
            let from = self.ident()?;
            self.expect_kind(TokenKind::TransOpen)?;
            let trigger = if self.eat_kw(Keyword::Rate) {
                ErrorTrigger::Rate(self.number()?)
            } else if self.eat_kw(Keyword::When) {
                ErrorTrigger::When(self.expr()?)
            } else if self.peek_ident_like() {
                ErrorTrigger::Propagation(self.ident()?)
            } else {
                return Err(self.error("`rate`, `when` or a propagation name"));
            };
            self.expect_kind(TokenKind::TransClose)?;
            let to = self.ident()?;
            self.expect_kind(TokenKind::Semi)?;
            transitions.push(ErrorTransition { from, trigger, to, pos: tpos });
        }
        self.expect_kw(Keyword::End)?;
        let ended = self.ident()?;
        if ended != name {
            return Err(LangError {
                kind: LangErrorKind::EndMismatch { declared: name, ended },
                pos: self.pos(),
            });
        }
        self.expect_kind(TokenKind::Semi)?;
        Ok(ErrorModel { name, states, transitions, pos })
    }

    fn fault_injection(&mut self) -> Result<FaultInjection, LangError> {
        let pos = self.pos();
        self.expect_kw(Keyword::On)?;
        let target = self.qname()?;
        self.expect_kw(Keyword::Using)?;
        let error_model = self.ident()?;
        let mut effects = Vec::new();
        while self.eat_kw(Keyword::Effect) {
            let state = self.ident()?;
            self.expect_kind(TokenKind::Colon)?;
            let var = self.qname()?;
            self.expect_kind(TokenKind::Assign)?;
            let value = self.literal()?;
            self.expect_kind(TokenKind::Semi)?;
            effects.push((state, var, value));
        }
        self.expect_kw(Keyword::End)?;
        self.expect_kind(TokenKind::Semi)?;
        Ok(FaultInjection { target, error_model, effects, pos })
    }

    // ----- expressions -------------------------------------------------

    fn expr(&mut self) -> Result<Expr, LangError> {
        self.implies_expr()
    }

    fn implies_expr(&mut self) -> Result<Expr, LangError> {
        let lhs = self.or_expr()?;
        if self.eat_kind(&TokenKind::Implies) {
            let rhs = self.implies_expr()?; // right-associative
            Ok(Expr::Bin(BinOp::Implies, Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn or_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.and_expr()?;
        loop {
            let op = if self.eat_kw(Keyword::Or) {
                BinOp::Or
            } else if self.eat_kw(Keyword::Xor) {
                BinOp::Xor
            } else {
                return Ok(lhs);
            };
            let rhs = self.and_expr()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn and_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.cmp_expr()?;
        while self.eat_kw(Keyword::And) {
            let rhs = self.cmp_expr()?;
            lhs = Expr::Bin(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, LangError> {
        let lhs = self.add_expr()?;
        let op = match self.peek_kind() {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        Ok(Expr::Bin(op, Box::new(lhs), Box::new(rhs)))
    }

    fn add_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn mul_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn unary_expr(&mut self) -> Result<Expr, LangError> {
        if self.eat_kind(&TokenKind::Minus) {
            Ok(Expr::Neg(Box::new(self.unary_expr()?)))
        } else if self.eat_kw(Keyword::Not) {
            Ok(Expr::Not(Box::new(self.unary_expr()?)))
        } else {
            self.atom()
        }
    }

    fn atom(&mut self) -> Result<Expr, LangError> {
        match self.peek_kind().clone() {
            TokenKind::Keyword(Keyword::True) => {
                self.bump();
                Ok(Expr::Lit(Literal::Bool(true)))
            }
            TokenKind::Keyword(Keyword::False) => {
                self.bump();
                Ok(Expr::Lit(Literal::Bool(false)))
            }
            TokenKind::Int(i) => {
                self.bump();
                Ok(Expr::Lit(Literal::Int(i)))
            }
            TokenKind::Real(r) => {
                self.bump();
                Ok(Expr::Lit(Literal::Real(r)))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect_kind(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Keyword(Keyword::If) => {
                self.bump();
                let c = self.expr()?;
                self.expect_kw(Keyword::Then)?;
                let t = self.expr()?;
                self.expect_kw(Keyword::Else)?;
                let e = self.expr()?;
                Ok(Expr::Ite(Box::new(c), Box::new(t), Box::new(e)))
            }
            TokenKind::Keyword(kw @ (Keyword::Min | Keyword::Max)) => {
                self.bump();
                self.expect_kind(TokenKind::LParen)?;
                let a = self.expr()?;
                self.expect_kind(TokenKind::Comma)?;
                let b = self.expr()?;
                self.expect_kind(TokenKind::RParen)?;
                let op = if kw == Keyword::Min { BinOp::Min } else { BinOp::Max };
                Ok(Expr::Bin(op, Box::new(a), Box::new(b)))
            }
            ref k if Parser::soft_ident(k).is_some() => Ok(Expr::Name(self.qname()?)),
            _ => Err(self.error("expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_component_type_with_features() {
        let m = parse(
            r#"
            device GPS
              features
                activate: in event port;
                fix: out data port bool := false;
                level: out data port int [0..5] := 1;
            end GPS;
            "#,
        )
        .unwrap();
        assert_eq!(m.types.len(), 1);
        let t = &m.types[0];
        assert_eq!(t.name, "GPS");
        assert_eq!(t.features.len(), 3);
        assert!(t.features[0].is_event());
        assert_eq!(t.features[2].data, Some(DataType::Int(Some((0, 5)))));
    }

    #[test]
    fn parses_implementation_full() {
        let m = parse(
            r#"
            device implementation GPS.Impl
              subcomponents
                c: data clock;
                meas: data bool := false;
              modes
                acquisition: initial mode while c <= 120.0;
                active: mode;
              transitions
                acquisition -[ when c >= 10.0 then meas := true ]-> active;
                active -[ rate 0.001 ]-> acquisition;
            end GPS.Impl;
            "#,
        )
        .unwrap();
        let i = &m.impls[0];
        assert_eq!(i.name, ("GPS".into(), "Impl".into()));
        assert_eq!(i.subcomponents.len(), 2);
        assert_eq!(i.modes.len(), 2);
        assert!(i.modes[0].initial && !i.modes[1].initial);
        assert!(i.modes[0].invariant.is_some());
        assert_eq!(i.transitions.len(), 2);
        assert!(matches!(i.transitions[1].trigger, Trigger::Rate(r) if (r - 0.001).abs() < 1e-12));
        assert_eq!(i.transitions[0].effects.len(), 1);
    }

    #[test]
    fn parses_nested_instances_and_connections() {
        let m = parse(
            r#"
            system implementation Top.Impl
              subcomponents
                gps1: device GPS.Impl;
                gps2: device GPS.Impl;
              connections
                port gps1.fix -> gps2.activate;
            end Top.Impl;
            "#,
        )
        .unwrap();
        let i = &m.impls[0];
        assert_eq!(i.subcomponents.len(), 2);
        assert!(
            matches!(&i.subcomponents[0], Subcomponent::Instance { impl_ref, .. } if impl_ref.0 == "GPS")
        );
        assert_eq!(i.connections.len(), 1);
        assert_eq!(i.connections[0].from.to_string(), "gps1.fix");
    }

    #[test]
    fn parses_flows_and_derivatives() {
        let m = parse(
            r#"
            device implementation Batt.Impl
              subcomponents
                energy: data continuous := 100.0;
              flows
                level := energy / 100.0;
              modes
                on: initial mode while energy >= 0.0 der energy = -2.5;
            end Batt.Impl;
            "#,
        )
        .unwrap();
        let i = &m.impls[0];
        assert_eq!(i.flows.len(), 1);
        assert_eq!(i.modes[0].derivatives, vec![(QName::simple("energy"), -2.5)]);
    }

    #[test]
    fn parses_error_model_fig2() {
        // The paper's Fig. 2 GPS error model shape.
        let m = parse(
            r#"
            error model GpsError
              states
                ok: initial state;
                transient: state while c <= 300.0;
                hot: state;
                permanent: state;
              transitions
                ok -[ rate 0.1 ]-> transient;
                ok -[ rate 0.05 ]-> hot;
                ok -[ rate 0.01 ]-> permanent;
                transient -[ when c >= 200.0 and c <= 300.0 ]-> ok;
                hot -[ activation ]-> ok;
            end GpsError;
            "#,
        )
        .unwrap();
        let e = &m.error_models[0];
        assert_eq!(e.states.len(), 4);
        assert!(e.states[0].initial);
        assert!(e.states[1].invariant.is_some());
        assert_eq!(e.transitions.len(), 5);
        assert!(
            matches!(e.transitions[0].trigger, ErrorTrigger::Rate(r) if (r - 0.1).abs() < 1e-12)
        );
        assert!(matches!(&e.transitions[3].trigger, ErrorTrigger::When(_)));
        assert!(
            matches!(&e.transitions[4].trigger, ErrorTrigger::Propagation(p) if p == "activation")
        );
    }

    #[test]
    fn parses_fault_injection() {
        let m = parse(
            r#"
            fault injection on top.gps1 using GpsError
              effect permanent: top.gps1.fix_ok := false;
              effect ok: top.gps1.fix_ok := true;
            end;
            "#,
        )
        .unwrap();
        let fi = &m.injections[0];
        assert_eq!(fi.target.to_string(), "top.gps1");
        assert_eq!(fi.error_model, "GpsError");
        assert_eq!(fi.effects.len(), 2);
        assert_eq!(fi.effects[0].0, "permanent");
        assert_eq!(fi.effects[0].2, Literal::Bool(false));
    }

    #[test]
    fn expression_precedence() {
        let m = parse(
            r#"
            system implementation T.I
              flows
                x := a + b * c <= d and e or not f;
            end T.I;
            "#,
        );
        // `x` is a flow target; precedence: ((a + (b*c)) <= d) and e) or (not f)
        let m = m.unwrap();
        let e = &m.impls[0].flows[0].expr;
        match e {
            Expr::Bin(BinOp::Or, lhs, rhs) => {
                assert!(matches!(**rhs, Expr::Not(_)));
                assert!(matches!(**lhs, Expr::Bin(BinOp::And, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn if_and_minmax_expressions() {
        let m = parse(
            r#"
            system implementation T.I
              flows
                x := if a > 0 then min(a, 5) else max(b, -1);
            end T.I;
            "#,
        )
        .unwrap();
        assert!(matches!(&m.impls[0].flows[0].expr, Expr::Ite(..)));
    }

    #[test]
    fn sections_in_any_order() {
        let m = parse(
            r#"
            system implementation T.I
              flows
                y := x + 1;
              subcomponents
                x: data int := 1;
                y: data int := 0;
              modes
                a: initial mode;
            end T.I;
            "#,
        )
        .unwrap();
        assert_eq!(m.impls[0].subcomponents.len(), 2);
        assert_eq!(m.impls[0].flows.len(), 1);
        assert_eq!(m.impls[0].modes.len(), 1);
    }

    #[test]
    fn end_mismatch_rejected() {
        let r = parse("system S end T;");
        assert!(matches!(r.unwrap_err().kind, LangErrorKind::EndMismatch { .. }));
        let r = parse("system implementation A.B end A.C;");
        assert!(matches!(r.unwrap_err().kind, LangErrorKind::EndMismatch { .. }));
    }

    #[test]
    fn error_reports_position() {
        let err = parse("system S\n  features\n    p q\nend S;").unwrap_err();
        assert_eq!(err.pos.line, 3);
    }

    #[test]
    fn internal_trigger_with_guard_only() {
        let m = parse(
            r#"
            system implementation T.I
              modes
                a: initial mode;
                b: mode;
              transitions
                a -[ when true then x := 1 ]-> b;
                a -[ ]-> b;
            end T.I;
            "#,
        )
        .unwrap();
        assert!(matches!(m.impls[0].transitions[0].trigger, Trigger::Internal));
        assert!(m.impls[0].transitions[0].guard.is_some());
        assert!(m.impls[0].transitions[1].guard.is_none());
    }

    #[test]
    fn negative_rate_literal_parses() {
        // Negative rates are syntactically fine; lowering rejects them.
        let m = parse(
            r#"
            error model E
              states
                s: initial state;
              transitions
                s -[ rate -1.0 ]-> s;
            end E;
            "#,
        )
        .unwrap();
        assert!(
            matches!(m.error_models[0].transitions[0].trigger, ErrorTrigger::Rate(r) if r < 0.0)
        );
    }
}
