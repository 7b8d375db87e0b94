//! Lowering: instance tree → network of event-data automata.
//!
//! This is the Rust counterpart of the COMPASS backend that feeds the
//! simulator (§II-F/III-A): it flattens the component hierarchy, resolves
//! names, turns event-port connections into synchronizing actions,
//! data-port connections into flows, modes into locations — and performs
//! **model extension** (§II-D): each fault injection weaves its error
//! model in as an additional automaton whose state entries apply the
//! injected data effects.

use crate::ast::{self, Model, QName, Subcomponent, Trigger};
use crate::error::{LangError, LangErrorKind};
use crate::instance::{instantiate, Instance};
use crate::token::Pos;
use slim_automata::automaton::Effect;
use slim_automata::expr::VarId;
use slim_automata::prelude::{
    ActionId, AutomatonBuilder, Expr, Network, NetworkBuilder, Value, VarType,
};
use std::collections::HashMap;

/// The lowering result: the network plus name bookkeeping.
#[derive(Debug, Clone)]
pub struct Lowered {
    /// The validated network. Variable names are absolute instance paths
    /// (`top.gps1.fix`); automaton names are instance paths, error
    /// automata are `<path>.error_<model>`.
    pub network: Network,
    /// Source position of each transition, indexed
    /// `[automaton][transition]` in network order — the side table the
    /// profiler uses to resolve hot guards back to `file:line:col`.
    /// Every lowered transition traces back to a `trans` declaration (or
    /// an error-model transition), so entries are `Some` for `.slim`
    /// input; consumers must still tolerate `None` for forward
    /// compatibility with synthesized transitions.
    pub transition_spans: Vec<Vec<Option<Pos>>>,
}

fn err(kind: LangErrorKind) -> LangError {
    LangError { kind, pos: Pos::START }
}

/// The absolute path `prefix.rest₁.rest₂…` as one dotted string — what
/// `QName::to_string` gives for the extended name, without building it.
fn path_of<'a>(prefix: &'a QName, rest: impl IntoIterator<Item = &'a String>) -> String {
    let mut name = String::new();
    for (i, seg) in prefix.segments().iter().chain(rest).enumerate() {
        if i > 0 {
            name.push('.');
        }
        name.push_str(seg);
    }
    name
}

/// Lowers `root_ty.root_im` of `model` into a network, rooted at
/// `root_name`.
///
/// # Errors
/// Name-resolution failures, structural violations, and any
/// well-formedness error from network validation (reported as
/// [`LangErrorKind::Lowering`]).
pub fn lower(
    model: &Model,
    root_ty: &str,
    root_im: &str,
    root_name: &str,
) -> Result<Lowered, LangError> {
    let root = instantiate(model, root_ty, root_im, root_name)?;
    let mut lw = Lowering {
        model,
        builder: NetworkBuilder::new(),
        vars: HashMap::new(),
        event_ports: HashMap::new(),
        uf: UnionFind::default(),
        actions: HashMap::new(),
        spans: Vec::new(),
    };
    lw.declare_vars(&root)?;
    lw.register_event_ports(&root)?;
    lw.process_connections(&root)?;
    lw.build_automata(&root)?;
    lw.process_flows(&root)?;
    lw.weave_injections(&root)?;
    let network = lw.builder.build().map_err(|e| err(LangErrorKind::Lowering(e.to_string())))?;
    Ok(Lowered { network, transition_spans: lw.spans })
}

/// Simple union-find over event-port indices.
#[derive(Debug, Default)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn add(&mut self) -> usize {
        let i = self.parent.len();
        self.parent.push(i);
        i
    }

    fn find(&mut self, i: usize) -> usize {
        if self.parent[i] != i {
            let r = self.find(self.parent[i]);
            self.parent[i] = r;
            r
        } else {
            i
        }
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

struct Lowering<'m> {
    model: &'m Model,
    builder: NetworkBuilder,
    /// Absolute path → (var, surface type).
    vars: HashMap<String, (VarId, ast::DataType)>,
    /// Absolute event-port path → union-find node.
    event_ports: HashMap<String, usize>,
    uf: UnionFind,
    /// Union-find class representative (path of the class's first port) →
    /// action.
    actions: HashMap<usize, ActionId>,
    /// Per added automaton: source position of each transition, in the
    /// order the transitions are added (= network transition ids).
    spans: Vec<Vec<Option<Pos>>>,
}

impl<'m> Lowering<'m> {
    fn impl_of(&self, inst: &Instance) -> &'m ast::ComponentImpl {
        self.model
            .find_impl(&inst.impl_name.0, &inst.impl_name.1)
            .expect("instantiation verified the implementation exists")
    }

    fn type_of(&self, inst: &Instance) -> &'m ast::ComponentType {
        self.model.find_type(&inst.impl_name.0).expect("instantiation verified the type exists")
    }

    fn declare_vars(&mut self, root: &Instance) -> Result<(), LangError> {
        for inst in root.walk() {
            let ct = self.type_of(inst);
            for f in &ct.features {
                if let Some(ty) = f.data {
                    self.declare_var(&path_of(&inst.path, [&f.name]), ty, f.default)?;
                }
            }
            let ci = self.impl_of(inst);
            for sub in &ci.subcomponents {
                if let Subcomponent::Data { name, ty, init, .. } = sub {
                    self.declare_var(&path_of(&inst.path, [name]), *ty, *init)?;
                }
            }
        }
        Ok(())
    }

    fn declare_var(
        &mut self,
        name: &str,
        ty: ast::DataType,
        init: Option<ast::Literal>,
    ) -> Result<VarId, LangError> {
        if self.vars.contains_key(name) {
            return Err(err(LangErrorKind::Duplicate(name.to_string())));
        }
        let vt = to_var_type(ty);
        let value = match init {
            Some(lit) => to_value(lit),
            None => vt.default_value(),
        };
        let id = self.builder.var(name.to_string(), vt, value);
        self.vars.insert(name.to_string(), (id, ty));
        Ok(id)
    }

    fn register_event_ports(&mut self, root: &Instance) -> Result<(), LangError> {
        for inst in root.walk() {
            let ct = self.type_of(inst);
            for f in &ct.features {
                if f.is_event() {
                    let node = self.uf.add();
                    self.event_ports.insert(path_of(&inst.path, [&f.name]), node);
                }
            }
        }
        Ok(())
    }

    /// Resolves a connection endpoint `q` (relative to `inst`; a
    /// child-instance port's leading segments name a descendant) to the
    /// absolute port path, and whether it is an event port.
    fn resolve_port(&self, inst: &Instance, q: &QName) -> Result<(String, bool), LangError> {
        let name = path_of(&inst.path, q.segments());
        if self.event_ports.contains_key(name.as_str()) {
            Ok((name, true))
        } else if self.vars.contains_key(name.as_str()) {
            Ok((name, false))
        } else {
            Err(err(LangErrorKind::Unknown(format!("port `{q}` (resolved `{name}`)"))))
        }
    }

    fn process_connections(&mut self, root: &Instance) -> Result<(), LangError> {
        for inst in root.walk() {
            let ci = self.impl_of(inst);
            for conn in &ci.connections {
                let (from, from_event) = self.resolve_port(inst, &conn.from)?;
                let (to, to_event) = self.resolve_port(inst, &conn.to)?;
                if from_event != to_event {
                    return Err(err(LangErrorKind::Invalid(format!(
                        "connection `{from}` -> `{to}` mixes event and data ports"
                    ))));
                }
                if from_event {
                    let a = self.event_ports[&from];
                    let b = self.event_ports[&to];
                    self.uf.union(a, b);
                } else {
                    // Data connection: identity flow into the target port.
                    let src = self.vars[&from].0;
                    let dst = self.vars[&to].0;
                    self.builder.flow(dst, Expr::var(src));
                }
            }
        }
        Ok(())
    }

    /// The synchronizing action of an event port (creates it on first use).
    fn action_for_port(&mut self, abs_port: &str) -> Result<ActionId, LangError> {
        let node = *self
            .event_ports
            .get(abs_port)
            .ok_or_else(|| err(LangErrorKind::Unknown(format!("event port `{abs_port}`"))))?;
        let rep = self.uf.find(node);
        if let Some(&a) = self.actions.get(&rep) {
            return Ok(a);
        }
        let a = self.builder.action(format!("evt:{abs_port}"));
        self.actions.insert(rep, a);
        Ok(a)
    }

    /// Resolves a data reference `q` relative to instance path `prefix`.
    fn resolve_var(&self, prefix: &QName, q: &QName) -> Result<VarId, LangError> {
        let name = path_of(prefix, q.segments());
        self.vars
            .get(name.as_str())
            .map(|(v, _)| *v)
            .ok_or_else(|| err(LangErrorKind::Unknown(format!("`{q}` (resolved `{name}`)"))))
    }

    fn resolve_expr(&self, prefix: &QName, e: &ast::Expr) -> Result<Expr, LangError> {
        resolve_expr_with(e, &mut |q| self.resolve_var(prefix, q))
    }

    fn build_automata(&mut self, root: &Instance) -> Result<(), LangError> {
        for inst in root.walk() {
            let ci = self.impl_of(inst);
            if ci.modes.is_empty() {
                if !ci.transitions.is_empty() {
                    return Err(err(LangErrorKind::Invalid(format!(
                        "`{}` declares transitions but no modes",
                        inst.path
                    ))));
                }
                continue;
            }
            let mut ab = AutomatonBuilder::new(inst.path.to_string());
            let mut mode_ids = HashMap::new();
            let mut initial = None;
            for m in &ci.modes {
                let invariant = match &m.invariant {
                    Some(e) => self.resolve_expr(&inst.path, e)?,
                    None => Expr::TRUE,
                };
                let mut rates = Vec::new();
                for (q, r) in &m.derivatives {
                    rates.push((self.resolve_var(&inst.path, q)?, *r));
                }
                let id = ab.location_with(m.name.clone(), invariant, rates);
                if mode_ids.insert(m.name.clone(), id).is_some() {
                    return Err(err(LangErrorKind::Duplicate(format!(
                        "mode `{}` in `{}`",
                        m.name, inst.path
                    ))));
                }
                if m.initial {
                    if initial.is_some() {
                        return Err(err(LangErrorKind::Invalid(format!(
                            "`{}` has more than one initial mode",
                            inst.path
                        ))));
                    }
                    initial = Some(id);
                }
            }
            let initial = initial.ok_or_else(|| {
                err(LangErrorKind::Invalid(format!("`{}` has no initial mode", inst.path)))
            })?;
            ab.set_init(initial);

            let mut spans = Vec::with_capacity(ci.transitions.len());
            for t in &ci.transitions {
                let from = *mode_ids.get(&t.from).ok_or_else(|| {
                    err(LangErrorKind::Unknown(format!("mode `{}` in `{}`", t.from, inst.path)))
                })?;
                let to = *mode_ids.get(&t.to).ok_or_else(|| {
                    err(LangErrorKind::Unknown(format!("mode `{}` in `{}`", t.to, inst.path)))
                })?;
                let mut effects = Vec::new();
                for (q, e) in &t.effects {
                    effects.push(Effect::assign(
                        self.resolve_var(&inst.path, q)?,
                        self.resolve_expr(&inst.path, e)?,
                    ));
                }
                match &t.trigger {
                    Trigger::Rate(r) => {
                        if t.guard.is_some() {
                            return Err(err(LangErrorKind::Invalid(format!(
                                "transition in `{}` combines `rate` with `when`",
                                inst.path
                            ))));
                        }
                        if t.urgent {
                            return Err(err(LangErrorKind::Invalid(format!(
                                "transition in `{}` combines `rate` with `urgent`",
                                inst.path
                            ))));
                        }
                        ab.markovian(from, *r, effects, to);
                    }
                    Trigger::Internal => {
                        let guard = match &t.guard {
                            Some(g) => self.resolve_expr(&inst.path, g)?,
                            None => Expr::TRUE,
                        };
                        if t.urgent {
                            ab.guarded_urgent(from, ActionId::TAU, guard, effects, to);
                        } else {
                            ab.guarded(from, ActionId::TAU, guard, effects, to);
                        }
                    }
                    Trigger::Port(q) => {
                        let (abs, is_event) = self.resolve_port(inst, q)?;
                        if !is_event {
                            return Err(err(LangErrorKind::Invalid(format!(
                                "trigger `{q}` in `{}` is a data port",
                                inst.path
                            ))));
                        }
                        let action = self.action_for_port(&abs)?;
                        let guard = match &t.guard {
                            Some(g) => self.resolve_expr(&inst.path, g)?,
                            None => Expr::TRUE,
                        };
                        if t.urgent {
                            ab.guarded_urgent(from, action, guard, effects, to);
                        } else {
                            ab.guarded(from, action, guard, effects, to);
                        }
                    }
                }
                spans.push(Some(t.pos));
            }
            self.builder.add_automaton(ab);
            self.spans.push(spans);
        }
        Ok(())
    }

    fn process_flows(&mut self, root: &Instance) -> Result<(), LangError> {
        for inst in root.walk() {
            let ci = self.impl_of(inst);
            for f in &ci.flows {
                let target = self.resolve_var(&inst.path, &f.target)?;
                let expr = self.resolve_expr(&inst.path, &f.expr)?;
                self.builder.flow(target, expr);
            }
        }
        Ok(())
    }

    /// Model extension: weaves one error automaton per fault injection.
    fn weave_injections(&mut self, root: &Instance) -> Result<(), LangError> {
        for (n, inj) in self.model.injections.iter().enumerate() {
            let inst = root.find(&inj.target).ok_or_else(|| {
                err(LangErrorKind::Unknown(format!("injection target `{}`", inj.target)))
            })?;
            let em = self.model.find_error_model(&inj.error_model).ok_or_else(|| {
                err(LangErrorKind::Unknown(format!("error model `{}`", inj.error_model)))
            })?;
            let auto_name = format!("{}.error_{}{}", inst.path, em.name, disambiguate(n));
            // Implicit clock, reset on every error transition (Fig. 2).
            let clock_name = format!("{auto_name}.c");
            let clock = self.builder.var(clock_name.clone(), VarType::Clock, Value::Real(0.0));
            self.vars.insert(clock_name, (clock, ast::DataType::Clock));

            // Resolution inside the error model: `c` is the implicit
            // clock; anything else resolves relative to the target
            // instance (so guards may read nominal data).
            let target_path = inst.path.clone();
            let resolve = |this: &Self, q: &QName| -> Result<VarId, LangError> {
                if q.segments() == ["c"] {
                    Ok(clock)
                } else {
                    this.resolve_var(&target_path, q)
                }
            };

            let mut ab = AutomatonBuilder::new(auto_name);
            let mut state_ids = HashMap::new();
            let mut initial = None;
            for s in &em.states {
                let invariant = match &s.invariant {
                    Some(e) => resolve_expr_with(e, &mut |q| resolve(self, q))?,
                    None => Expr::TRUE,
                };
                let id = ab.location_with(s.name.clone(), invariant, []);
                if state_ids.insert(s.name.clone(), id).is_some() {
                    return Err(err(LangErrorKind::Duplicate(format!(
                        "error state `{}` in `{}`",
                        s.name, em.name
                    ))));
                }
                if s.initial {
                    if initial.is_some() {
                        return Err(err(LangErrorKind::Invalid(format!(
                            "error model `{}` has more than one initial state",
                            em.name
                        ))));
                    }
                    initial = Some(id);
                }
            }
            let initial = initial.ok_or_else(|| {
                err(LangErrorKind::Invalid(format!(
                    "error model `{}` has no initial state",
                    em.name
                )))
            })?;
            ab.set_init(initial);

            // Injection effects per target state.
            let mut effects_for: HashMap<&str, Vec<Effect>> = HashMap::new();
            for (state, var, value) in &inj.effects {
                if !em.states.iter().any(|s| &s.name == state) {
                    return Err(err(LangErrorKind::Unknown(format!(
                        "error state `{state}` in injection on `{}`",
                        inj.target
                    ))));
                }
                let target = self
                    .vars
                    .get(&var.to_string())
                    .map(|(v, _)| *v)
                    .ok_or_else(|| err(LangErrorKind::Unknown(format!("`{var}`"))))?;
                effects_for
                    .entry(state.as_str())
                    .or_default()
                    .push(Effect::assign(target, literal_expr(*value)));
            }

            let mut spans = Vec::with_capacity(em.transitions.len());
            for t in &em.transitions {
                let from = *state_ids.get(&t.from).ok_or_else(|| {
                    err(LangErrorKind::Unknown(format!("error state `{}`", t.from)))
                })?;
                let to = *state_ids.get(&t.to).ok_or_else(|| {
                    err(LangErrorKind::Unknown(format!("error state `{}`", t.to)))
                })?;
                let mut effects = vec![Effect::assign(clock, Expr::real(0.0))];
                if let Some(inj_effects) = effects_for.get(t.to.as_str()) {
                    effects.extend(inj_effects.iter().cloned());
                }
                match &t.trigger {
                    ast::ErrorTrigger::Rate(r) => {
                        ab.markovian(from, *r, effects, to);
                    }
                    ast::ErrorTrigger::When(g) => {
                        let guard = resolve_expr_with(g, &mut |q| resolve(self, q))?;
                        ab.guarded(from, ActionId::TAU, guard, effects, to);
                    }
                    ast::ErrorTrigger::Propagation(name) => {
                        let action = self.builder.action(format!("prop:{name}"));
                        ab.guarded(from, action, Expr::TRUE, effects, to);
                    }
                }
                spans.push(Some(t.pos));
            }
            self.builder.add_automaton(ab);
            self.spans.push(spans);
        }
        Ok(())
    }
}

fn disambiguate(n: usize) -> String {
    // Multiple injections may target the same instance with the same
    // model; suffix with the injection ordinal past the first.
    if n == 0 {
        String::new()
    } else {
        format!("_{n}")
    }
}

fn to_var_type(ty: ast::DataType) -> VarType {
    match ty {
        ast::DataType::Bool => VarType::Bool,
        ast::DataType::Int(None) => VarType::INT,
        ast::DataType::Int(Some((lo, hi))) => VarType::Int { lo, hi },
        ast::DataType::Real => VarType::Real,
        ast::DataType::Clock => VarType::Clock,
        ast::DataType::Continuous => VarType::Continuous,
    }
}

fn to_value(lit: ast::Literal) -> Value {
    match lit {
        ast::Literal::Bool(b) => Value::Bool(b),
        ast::Literal::Int(i) => Value::Int(i),
        ast::Literal::Real(r) => Value::Real(r),
    }
}

fn literal_expr(lit: ast::Literal) -> Expr {
    Expr::Const(to_value(lit))
}

fn resolve_expr_with(
    e: &ast::Expr,
    resolve: &mut dyn FnMut(&QName) -> Result<VarId, LangError>,
) -> Result<Expr, LangError> {
    Ok(match e {
        ast::Expr::Lit(l) => literal_expr(*l),
        ast::Expr::Name(q) => Expr::var(resolve(q)?),
        ast::Expr::Not(x) => resolve_expr_with(x, resolve)?.not(),
        ast::Expr::Neg(x) => resolve_expr_with(x, resolve)?.neg(),
        ast::Expr::Bin(op, a, b) => {
            let a = resolve_expr_with(a, resolve)?;
            let b = resolve_expr_with(b, resolve)?;
            let op = match op {
                ast::BinOp::Add => slim_automata::expr::BinOp::Add,
                ast::BinOp::Sub => slim_automata::expr::BinOp::Sub,
                ast::BinOp::Mul => slim_automata::expr::BinOp::Mul,
                ast::BinOp::Div => slim_automata::expr::BinOp::Div,
                ast::BinOp::Min => slim_automata::expr::BinOp::Min,
                ast::BinOp::Max => slim_automata::expr::BinOp::Max,
                ast::BinOp::And => slim_automata::expr::BinOp::And,
                ast::BinOp::Or => slim_automata::expr::BinOp::Or,
                ast::BinOp::Xor => slim_automata::expr::BinOp::Xor,
                ast::BinOp::Implies => slim_automata::expr::BinOp::Implies,
                ast::BinOp::Eq => slim_automata::expr::BinOp::Eq,
                ast::BinOp::Ne => slim_automata::expr::BinOp::Ne,
                ast::BinOp::Lt => slim_automata::expr::BinOp::Lt,
                ast::BinOp::Le => slim_automata::expr::BinOp::Le,
                ast::BinOp::Gt => slim_automata::expr::BinOp::Gt,
                ast::BinOp::Ge => slim_automata::expr::BinOp::Ge,
            };
            Expr::Bin(op, Box::new(a), Box::new(b))
        }
        ast::Expr::Ite(c, t, els) => Expr::ite(
            resolve_expr_with(c, resolve)?,
            resolve_expr_with(t, resolve)?,
            resolve_expr_with(els, resolve)?,
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn lower_src(src: &str, ty: &str, im: &str) -> Result<Lowered, LangError> {
        let m = parse(src).unwrap();
        lower(&m, ty, im, "root")
    }

    #[test]
    fn lowers_simple_component() {
        let l = lower_src(
            r#"
            device GPS
              features
                fix: out data port bool := false;
            end GPS;
            device implementation GPS.Impl
              subcomponents
                c: data clock;
              modes
                acq: initial mode while c <= 120.0;
                active: mode;
              transitions
                acq -[ when c >= 10.0 then fix := true ]-> active;
            end GPS.Impl;
            "#,
            "GPS",
            "Impl",
        )
        .unwrap();
        let net = &l.network;
        assert_eq!(net.automata().len(), 1);
        assert_eq!(net.automata()[0].name, "root");
        assert!(net.var_id("root.fix").is_some());
        assert!(net.var_id("root.c").is_some());
        let s = net.initial_state().unwrap();
        let w = net.delay_window(&s).unwrap();
        assert_eq!(w.prefix_from_zero(), Some((120.0, true)));
        // The span side table aligns with the network and points at the
        // `trans` declaration's source line.
        assert_eq!(l.transition_spans.len(), 1);
        assert_eq!(l.transition_spans[0].len(), net.automata()[0].transitions.len());
        let pos = l.transition_spans[0][0].expect("slim transitions carry a span");
        assert_eq!(pos.line, 13);
    }

    #[test]
    fn span_table_covers_error_automata() {
        let l = lower_src(
            r#"
            device Unit
            end Unit;
            device implementation Unit.I
              modes
                on: initial mode;
                off: mode;
              transitions
                on -[ rate 0.5 ]-> off;
            end Unit.I;
            error model Fail
              states
                ok: initial state;
                dead: state;
              transitions
                ok -[ rate 0.01 ]-> dead;
            end Fail;
            fault injection on root using Fail
            end;
            "#,
            "Unit",
            "I",
        )
        .unwrap();
        let net = &l.network;
        assert_eq!(net.automata().len(), 2);
        assert_eq!(l.transition_spans.len(), 2);
        for (a, spans) in net.automata().iter().zip(&l.transition_spans) {
            assert_eq!(a.transitions.len(), spans.len(), "automaton {}", a.name);
            assert!(spans.iter().all(Option::is_some));
        }
    }

    #[test]
    fn event_connections_synchronize() {
        let l = lower_src(
            r#"
            device Sender
              features
                fire: out event port;
            end Sender;
            device implementation Sender.I
              modes
                a: initial mode;
                b: mode;
              transitions
                a -[ fire ]-> b;
            end Sender.I;
            device Receiver
              features
                hear: in event port;
            end Receiver;
            device implementation Receiver.I
              modes
                idle: initial mode;
                got: mode;
              transitions
                idle -[ hear ]-> got;
            end Receiver.I;
            system Top end Top;
            system implementation Top.I
              subcomponents
                s: device Sender.I;
                r: device Receiver.I;
              connections
                port s.fire -> r.hear;
            end Top.I;
            "#,
            "Top",
            "I",
        )
        .unwrap();
        let net = &l.network;
        assert_eq!(net.automata().len(), 2);
        let s0 = net.initial_state().unwrap();
        let cands = net.guarded_candidates(&s0).unwrap();
        assert_eq!(cands.len(), 1, "one synchronized global transition");
        assert_eq!(cands[0].transition.parts.len(), 2, "both components join");
        let s1 = net.apply(&s0, &cands[0].transition).unwrap();
        assert_eq!(s1.locs.iter().map(|l| l.0).collect::<Vec<_>>(), vec![1, 1]);
    }

    #[test]
    fn data_connections_become_flows() {
        let l = lower_src(
            r#"
            device Source
              features
                v: out data port int := 3;
            end Source;
            device implementation Source.I end Source.I;
            device Sink
              features
                w: in data port int := 0;
            end Sink;
            device implementation Sink.I end Sink.I;
            system Top end Top;
            system implementation Top.I
              subcomponents
                src: device Source.I;
                dst: device Sink.I;
              connections
                port src.v -> dst.w;
            end Top.I;
            "#,
            "Top",
            "I",
        );
        // No automata at all — builder requires ≥1; expect a lowering error
        // complaining about the empty network.
        assert!(l.is_err());
    }

    #[test]
    fn data_connection_with_behavior() {
        let l = lower_src(
            r#"
            device Source
              features
                v: out data port int := 3;
            end Source;
            device implementation Source.I
              modes
                run: initial mode;
              transitions
                run -[ then v := v + 1 ]-> run;
            end Source.I;
            device Sink
              features
                w: in data port int := 0;
            end Sink;
            device implementation Sink.I end Sink.I;
            system Top end Top;
            system implementation Top.I
              subcomponents
                src: device Source.I;
                dst: device Sink.I;
              connections
                port src.v -> dst.w;
            end Top.I;
            "#,
            "Top",
            "I",
        )
        .unwrap();
        let net = &l.network;
        let s0 = net.initial_state().unwrap();
        let w = net.var_id("root.dst.w").unwrap();
        assert_eq!(s0.nu.get(w).unwrap(), Value::Int(3), "flow established at init");
        let cands = net.guarded_candidates(&s0).unwrap();
        let s1 = net.apply(&s0, &cands[0].transition).unwrap();
        assert_eq!(s1.nu.get(w).unwrap(), Value::Int(4), "flow re-established after step");
    }

    #[test]
    fn flows_section_lowered() {
        let l = lower_src(
            r#"
            device Batt
              features
                low: out data port bool := false;
            end Batt;
            device implementation Batt.I
              subcomponents
                energy: data continuous := 10.0;
              flows
                low := energy < 5.0;
              modes
                on: initial mode while energy >= 0.0 der energy = -1.0;
            end Batt.I;
            "#,
            "Batt",
            "I",
        )
        .unwrap();
        let net = &l.network;
        let s0 = net.initial_state().unwrap();
        let low = net.var_id("root.low").unwrap();
        assert_eq!(s0.nu.get(low).unwrap(), Value::Bool(false));
        let s1 = net.advance(&s0, 6.0).unwrap();
        assert_eq!(s1.nu.get(low).unwrap(), Value::Bool(true), "flow tracks dynamics");
    }

    #[test]
    fn error_model_weaving() {
        let l = lower_src(
            r#"
            device GPS
              features
                fix_ok: out data port bool := true;
            end GPS;
            device implementation GPS.I
              modes
                on: initial mode;
            end GPS.I;
            error model Fail
              states
                ok: initial state;
                dead: state;
              transitions
                ok -[ rate 0.5 ]-> dead;
            end Fail;
            fault injection on root using Fail
              effect dead: root.fix_ok := false;
            end;
            "#,
            "GPS",
            "I",
        )
        .unwrap();
        let net = &l.network;
        assert_eq!(net.automata().len(), 2);
        assert!(net.proc_id("root.error_Fail").is_some());
        assert!(net.var_id("root.error_Fail.c").is_some());
        let s0 = net.initial_state().unwrap();
        let ms = net.markovian_candidates(&s0);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].rate, 0.5);
        let s1 = net.apply(&s0, &ms[0].transition).unwrap();
        let fix = net.var_id("root.fix_ok").unwrap();
        assert_eq!(s1.nu.get(fix).unwrap(), Value::Bool(false), "injection applied");
    }

    #[test]
    fn error_model_timed_recovery_window() {
        let l = lower_src(
            r#"
            device D end D;
            device implementation D.I
              modes
                on: initial mode;
            end D.I;
            error model Trans
              states
                ok: initial state;
                transient: state while c <= 300.0;
              transitions
                ok -[ rate 0.1 ]-> transient;
                transient -[ when c >= 200.0 and c <= 300.0 ]-> ok;
            end Trans;
            fault injection on root using Trans end;
            "#,
            "D",
            "I",
        )
        .unwrap();
        let net = &l.network;
        let s0 = net.initial_state().unwrap();
        let ms = net.markovian_candidates(&s0);
        // Enter the transient state; the clock reset means the repair
        // window is exactly [200, 300] relative to entry.
        let s1 = net.apply(&s0, &ms[0].transition).unwrap();
        let cands = net.guarded_candidates(&s1).unwrap();
        assert_eq!(cands.len(), 1);
        assert!(cands[0].window.contains(200.0) && cands[0].window.contains(300.0));
        assert!(!cands[0].window.contains(199.9));
        let w = net.delay_window(&s1).unwrap();
        assert_eq!(w.prefix_from_zero(), Some((300.0, true)));
    }

    #[test]
    fn propagations_synchronize_error_models() {
        let l = lower_src(
            r#"
            device D end D;
            device implementation D.I
              modes
                on: initial mode;
            end D.I;
            error model A
              states
                ok: initial state;
                bad: state;
              transitions
                ok -[ blow ]-> bad;
            end A;
            error model B
              states
                ok: initial state;
                bad: state;
              transitions
                ok -[ blow ]-> bad;
            end B;
            fault injection on root using A end;
            fault injection on root using B end;
            "#,
            "D",
            "I",
        )
        .unwrap();
        let net = &l.network;
        let s0 = net.initial_state().unwrap();
        let cands = net.guarded_candidates(&s0).unwrap();
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].transition.parts.len(), 2, "propagation synchronizes");
    }

    #[test]
    fn unknown_names_reported() {
        let r = lower_src(
            r#"
            device D end D;
            device implementation D.I
              modes
                on: initial mode;
              transitions
                on -[ when nosuch > 0 ]-> on;
            end D.I;
            "#,
            "D",
            "I",
        );
        assert!(matches!(r.unwrap_err().kind, LangErrorKind::Unknown(_)));
    }

    #[test]
    fn no_initial_mode_rejected() {
        let r = lower_src(
            r#"
            device D end D;
            device implementation D.I
              modes
                a: mode;
            end D.I;
            "#,
            "D",
            "I",
        );
        assert!(
            matches!(r.unwrap_err().kind, LangErrorKind::Invalid(msg) if msg.contains("initial"))
        );
    }

    #[test]
    fn rate_with_guard_rejected() {
        let r = lower_src(
            r#"
            device D end D;
            device implementation D.I
              modes
                a: initial mode;
              transitions
                a -[ rate 1.0 when true ]-> a;
            end D.I;
            "#,
            "D",
            "I",
        );
        assert!(matches!(r.unwrap_err().kind, LangErrorKind::Invalid(msg) if msg.contains("rate")));
    }

    #[test]
    fn injection_unknown_state_rejected() {
        let r = lower_src(
            r#"
            device D
              features
                v: out data port bool := true;
            end D;
            device implementation D.I
              modes
                on: initial mode;
            end D.I;
            error model E
              states
                ok: initial state;
              transitions
            end E;
            fault injection on root using E
              effect nosuch: root.v := false;
            end;
            "#,
            "D",
            "I",
        );
        assert!(matches!(r.unwrap_err().kind, LangErrorKind::Unknown(_)));
    }

    #[test]
    fn lowering_error_from_validation() {
        // A flow into an effect-written variable is caught by network
        // validation and surfaced as a Lowering error.
        let r = lower_src(
            r#"
            device D
              features
                v: out data port int := 0;
            end D;
            device implementation D.I
              flows
                v := 1;
              modes
                a: initial mode;
              transitions
                a -[ then v := 2 ]-> a;
            end D.I;
            "#,
            "D",
            "I",
        );
        assert!(matches!(r.unwrap_err().kind, LangErrorKind::Lowering(_)));
    }
}
