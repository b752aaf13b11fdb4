//! Gate-level sequential networks: the multi-level networks of Figure 2 of
//! the paper ("structure of a sequential network").

use std::collections::HashMap;

use langeq_bdd::{Bdd, BddManager};

/// Index of a net (a named signal) within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The kind of a structural logic gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// N-ary conjunction.
    And,
    /// N-ary disjunction.
    Or,
    /// Negated conjunction.
    Nand,
    /// Negated disjunction.
    Nor,
    /// N-ary parity.
    Xor,
    /// Negated parity.
    Xnor,
    /// Inverter (unary).
    Not,
    /// Buffer (unary).
    Buf,
    /// 2:1 multiplexer: `fanins = [sel, then, else]`.
    Mux,
}

impl GateKind {
    /// Acceptable fan-in arity for the gate kind.
    fn arity_ok(self, n: usize) -> bool {
        match self {
            GateKind::Not | GateKind::Buf => n == 1,
            GateKind::Mux => n == 3,
            GateKind::Xor | GateKind::Xnor => n >= 1,
            _ => n >= 1,
        }
    }

    /// Evaluates the gate on Boolean inputs.
    pub fn eval(self, ins: &[bool]) -> bool {
        match self {
            GateKind::And => ins.iter().all(|&b| b),
            GateKind::Or => ins.iter().any(|&b| b),
            GateKind::Nand => !ins.iter().all(|&b| b),
            GateKind::Nor => !ins.iter().any(|&b| b),
            GateKind::Xor => ins.iter().filter(|&&b| b).count() % 2 == 1,
            GateKind::Xnor => ins.iter().filter(|&&b| b).count() % 2 == 0,
            GateKind::Not => !ins[0],
            GateKind::Buf => ins[0],
            GateKind::Mux => {
                if ins[0] {
                    ins[1]
                } else {
                    ins[2]
                }
            }
        }
    }

    /// Builds the gate function over BDD inputs.
    pub fn build(self, mgr: &BddManager, ins: &[Bdd]) -> Bdd {
        match self {
            GateKind::And => mgr.and_all(ins),
            GateKind::Or => mgr.or_all(ins),
            GateKind::Nand => mgr.and_all(ins).not(),
            GateKind::Nor => mgr.or_all(ins).not(),
            GateKind::Xor => ins.iter().fold(mgr.zero(), |a, b| a.xor(b)),
            GateKind::Xnor => ins.iter().fold(mgr.zero(), |a, b| a.xor(b)).not(),
            GateKind::Not => ins[0].not(),
            GateKind::Buf => ins[0].clone(),
            GateKind::Mux => mgr.ite(&ins[0], &ins[1], &ins[2]),
        }
    }
}

/// A structural gate instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// The logic function.
    pub kind: GateKind,
    /// Fan-in nets, in order.
    pub fanins: Vec<NetId>,
}

/// What drives a net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Driver {
    /// Primary input.
    Input,
    /// Output of latch `latches[i]`.
    FromLatch(usize),
    /// A structural gate.
    Gate(Gate),
    /// A sum-of-cubes cover (BLIF `.names`): each cube constrains a subset
    /// of `fanins` (`Some(phase)`) and the output takes `value` when any
    /// cube matches, `!value` otherwise.
    Cover {
        /// Fan-in nets, in order.
        fanins: Vec<NetId>,
        /// Cubes over the fan-ins; `None` entries are don't-cares.
        cubes: Vec<Vec<Option<bool>>>,
        /// Output phase when a cube matches.
        value: bool,
    },
    /// Constant signal.
    Const(bool),
}

/// A D-latch (flip-flop) with an initial value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latch {
    /// Net sampled at each clock (the next-state function's net).
    pub data: NetId,
    /// Net carrying the latch's current value.
    pub output: NetId,
    /// Power-up value.
    pub init: bool,
}

#[derive(Debug, Clone)]
struct NetData {
    name: String,
    driver: Option<Driver>,
}

/// Errors produced by network construction, validation, and I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// A net name was defined twice.
    DuplicateNet(String),
    /// A referenced net has no driver.
    Undriven(String),
    /// Combinational feedback through the given net.
    CombinationalCycle(String),
    /// A gate was built with an unsupported fan-in count.
    BadArity {
        /// Offending net name.
        net: String,
        /// Provided fan-in count.
        got: usize,
    },
    /// Parse failure in `.bench`/BLIF input.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        msg: String,
    },
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::DuplicateNet(n) => write!(f, "net `{n}` defined twice"),
            NetworkError::Undriven(n) => write!(f, "net `{n}` has no driver"),
            NetworkError::CombinationalCycle(n) => {
                write!(f, "combinational cycle through net `{n}`")
            }
            NetworkError::BadArity { net, got } => {
                write!(f, "gate `{net}` has unsupported fan-in count {got}")
            }
            NetworkError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// The partitioned BDD representation of a network: one next-state function
/// per latch and one function per primary output, all over the variables
/// supplied to [`Network::elaborate`].
#[derive(Debug, Clone)]
pub struct NetworkBdds {
    /// `T_k(i, cs)` — next-state function of latch `k`.
    pub next_state: Vec<Bdd>,
    /// `O_j(i, cs)` — function of primary output `j`.
    pub outputs: Vec<Bdd>,
}

/// Result of [`Network::split_latches`]: the paper's benchmark setup.
#[derive(Debug, Clone)]
pub struct LatchSplit {
    /// The fixed component `F`: all combinational logic plus the latches
    /// *not* selected. Gains one new primary input `v_<latch>` per selected
    /// latch (standing for the unknown's current state) and one new primary
    /// output `u_<latch>` per selected latch (the unknown's next-state
    /// line). New inputs/outputs are appended after the original ones.
    pub fixed: Network,
    /// The particular solution `X_P`: a pure register bank holding the
    /// selected latches, with inputs `u_*` and outputs `v_*`.
    pub unknown: Network,
    /// Number of original primary inputs of the source network (the `i`
    /// variables); `fixed.inputs()[num_original_inputs..]` are the `v`s.
    pub num_original_inputs: usize,
    /// Number of original primary outputs (the `o` variables);
    /// `fixed.outputs()[num_original_outputs..]` are the `u`s.
    pub num_original_outputs: usize,
}

/// A multi-level sequential network: primary inputs/outputs, logic gates and
/// latches (Figure 2 of the paper).
///
/// # Examples
///
/// Build the circuit of the paper's Figure 3
/// (`T1 = i & cs2`, `T2 = !i | cs1`, `o = cs1 ^ cs2`):
///
/// ```
/// use langeq_logic::{GateKind, Network};
///
/// let mut n = Network::new("figure3");
/// let i = n.add_input("i");
/// let (l1, cs1) = n.add_latch("cs1", false);
/// let (l2, cs2) = n.add_latch("cs2", false);
/// let ni = n.add_gate("ni", GateKind::Not, &[i]).unwrap();
/// let t1 = n.add_gate("t1", GateKind::And, &[i, cs2]).unwrap();
/// let t2 = n.add_gate("t2", GateKind::Or, &[ni, cs1]).unwrap();
/// let o = n.add_gate("o", GateKind::Xor, &[cs1, cs2]).unwrap();
/// n.set_latch_data(l1, t1);
/// n.set_latch_data(l2, t2);
/// n.add_output(o);
/// n.validate().unwrap();
/// assert_eq!((n.num_inputs(), n.num_outputs(), n.num_latches()), (1, 1, 2));
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    name: String,
    nets: Vec<NetData>,
    by_name: HashMap<String, NetId>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    latches: Vec<Latch>,
}

impl Network {
    /// Creates an empty network.
    pub fn new(name: impl Into<String>) -> Self {
        Network {
            name: name.into(),
            nets: Vec::new(),
            by_name: HashMap::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            latches: Vec::new(),
        }
    }

    /// The network's name (BLIF model name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the network.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    // ----- construction -----------------------------------------------------

    fn intern(&mut self, name: &str) -> NetId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = NetId(self.nets.len() as u32);
        self.nets.push(NetData {
            name: name.to_string(),
            driver: None,
        });
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Creates (or finds) a net by name without driving it. Used by parsers;
    /// prefer the typed `add_*` methods in library code.
    pub fn net(&mut self, name: &str) -> NetId {
        self.intern(name)
    }

    /// Looks up an existing net by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.by_name.get(name).copied()
    }

    /// A parse error at `line` when `name` already has a driver: the text
    /// parsers check this before [`add_input`](Self::add_input) and
    /// [`add_latch`](Self::add_latch), which panic on a redefinition.
    pub(crate) fn check_undriven(&self, name: &str, line: usize) -> Result<(), NetworkError> {
        match self.find_net(name).and_then(|id| self.driver(id)) {
            Some(_) => Err(NetworkError::Parse {
                line,
                msg: format!("net `{name}` defined twice"),
            }),
            None => Ok(()),
        }
    }

    /// The name of a net.
    pub fn net_name(&self, id: NetId) -> &str {
        &self.nets[id.index()].name
    }

    /// The driver of a net, if set.
    pub fn driver(&self, id: NetId) -> Option<&Driver> {
        self.nets[id.index()].driver.as_ref()
    }

    fn drive(&mut self, id: NetId, driver: Driver) -> Result<(), NetworkError> {
        let slot = &mut self.nets[id.index()].driver;
        if slot.is_some() {
            return Err(NetworkError::DuplicateNet(
                self.nets[id.index()].name.clone(),
            ));
        }
        *slot = Some(driver);
        Ok(())
    }

    /// Adds a primary input and returns its net.
    ///
    /// # Panics
    ///
    /// Panics if the name is already driven.
    pub fn add_input(&mut self, name: &str) -> NetId {
        let id = self.intern(name);
        self.drive(id, Driver::Input)
            .unwrap_or_else(|e| panic!("{e}"));
        self.inputs.push(id);
        id
    }

    /// Adds a latch with the given output-net name and initial value;
    /// returns `(latch index, output net)`. The data (next-state) net is
    /// connected later with [`Network::set_latch_data`].
    pub fn add_latch(&mut self, output_name: &str, init: bool) -> (usize, NetId) {
        let out = self.intern(output_name);
        let idx = self.latches.len();
        self.drive(out, Driver::FromLatch(idx))
            .unwrap_or_else(|e| panic!("{e}"));
        self.latches.push(Latch {
            data: out, // placeholder until set_latch_data
            output: out,
            init,
        });
        (idx, out)
    }

    /// Connects the data (next-state) net of latch `idx`.
    pub fn set_latch_data(&mut self, idx: usize, data: NetId) {
        self.latches[idx].data = data;
    }

    /// Adds a structural gate driving a new net `name`.
    pub fn add_gate(
        &mut self,
        name: &str,
        kind: GateKind,
        fanins: &[NetId],
    ) -> Result<NetId, NetworkError> {
        if !kind.arity_ok(fanins.len()) {
            return Err(NetworkError::BadArity {
                net: name.to_string(),
                got: fanins.len(),
            });
        }
        let id = self.intern(name);
        self.drive(
            id,
            Driver::Gate(Gate {
                kind,
                fanins: fanins.to_vec(),
            }),
        )?;
        Ok(id)
    }

    /// Adds a sum-of-cubes cover (BLIF `.names`) driving a new net.
    pub fn add_cover(
        &mut self,
        name: &str,
        fanins: &[NetId],
        cubes: Vec<Vec<Option<bool>>>,
        value: bool,
    ) -> Result<NetId, NetworkError> {
        let id = self.intern(name);
        self.drive(
            id,
            Driver::Cover {
                fanins: fanins.to_vec(),
                cubes,
                value,
            },
        )?;
        Ok(id)
    }

    /// Adds a constant-signal net.
    pub fn add_const(&mut self, name: &str, value: bool) -> Result<NetId, NetworkError> {
        let id = self.intern(name);
        self.drive(id, Driver::Const(value))?;
        Ok(id)
    }

    /// Marks a net as a primary output (a net may be listed once).
    pub fn add_output(&mut self, id: NetId) {
        self.outputs.push(id);
    }

    // ----- accessors ---------------------------------------------------------

    /// Primary inputs, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs, in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// The latches.
    pub fn latches(&self) -> &[Latch] {
        &self.latches
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of latches.
    pub fn num_latches(&self) -> usize {
        self.latches.len()
    }

    /// Number of nets (signals).
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of logic gates / covers.
    pub fn num_gates(&self) -> usize {
        self.nets
            .iter()
            .filter(|n| matches!(n.driver, Some(Driver::Gate(_)) | Some(Driver::Cover { .. })))
            .count()
    }

    /// The initial state (latch power-up values, in latch order).
    pub fn initial_state(&self) -> Vec<bool> {
        self.latches.iter().map(|l| l.init).collect()
    }

    // ----- validation & ordering ----------------------------------------------

    /// Checks that all nets are driven and the combinational logic is
    /// acyclic.
    ///
    /// # Errors
    ///
    /// [`NetworkError::Undriven`] or [`NetworkError::CombinationalCycle`].
    pub fn validate(&self) -> Result<(), NetworkError> {
        self.topo_order().map(|_| ())
    }

    /// Topological order of all nets (leaves first): inputs, latch outputs
    /// and constants come before the gates reading them.
    ///
    /// # Errors
    ///
    /// [`NetworkError::Undriven`] if a net has no driver,
    /// [`NetworkError::CombinationalCycle`] on combinational feedback.
    pub fn topo_order(&self) -> Result<Vec<NetId>, NetworkError> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks = vec![Mark::White; self.nets.len()];
        let mut order = Vec::with_capacity(self.nets.len());
        // Iterative DFS with explicit stack: (net, child cursor).
        let roots: Vec<NetId> = self
            .outputs
            .iter()
            .copied()
            .chain(self.latches.iter().map(|l| l.data))
            .collect();
        for root in roots {
            if marks[root.index()] == Mark::Black {
                continue;
            }
            let mut stack: Vec<(NetId, usize)> = vec![(root, 0)];
            while let Some(&mut (id, ref mut cursor)) = stack.last_mut() {
                let data = &self.nets[id.index()];
                let driver = data
                    .driver
                    .as_ref()
                    .ok_or_else(|| NetworkError::Undriven(data.name.clone()))?;
                if *cursor == 0 {
                    match marks[id.index()] {
                        Mark::Black => {
                            stack.pop();
                            continue;
                        }
                        Mark::Grey => {
                            return Err(NetworkError::CombinationalCycle(data.name.clone()))
                        }
                        Mark::White => marks[id.index()] = Mark::Grey,
                    }
                }
                let fanins: &[NetId] = match driver {
                    Driver::Gate(g) => &g.fanins,
                    Driver::Cover { fanins, .. } => fanins,
                    _ => &[],
                };
                if *cursor < fanins.len() {
                    let child = fanins[*cursor];
                    *cursor += 1;
                    match marks[child.index()] {
                        Mark::Black => {}
                        Mark::Grey => {
                            return Err(NetworkError::CombinationalCycle(
                                self.nets[child.index()].name.clone(),
                            ))
                        }
                        Mark::White => stack.push((child, 0)),
                    }
                } else {
                    marks[id.index()] = Mark::Black;
                    order.push(id);
                    stack.pop();
                }
            }
        }
        Ok(order)
    }

    // ----- simulation -----------------------------------------------------------

    /// Single-step simulation: computes primary outputs and the next state
    /// from the primary inputs and the current state.
    ///
    /// # Panics
    ///
    /// Panics if `pi`/`cs` lengths do not match the network, or if the
    /// network does not validate.
    pub fn eval_step(&self, pi: &[bool], cs: &[bool]) -> (Vec<bool>, Vec<bool>) {
        assert_eq!(pi.len(), self.inputs.len(), "wrong number of inputs");
        assert_eq!(cs.len(), self.latches.len(), "wrong number of state bits");
        let order = self.topo_order().expect("network must validate");
        let mut values = vec![false; self.nets.len()];
        for (k, &id) in self.inputs.iter().enumerate() {
            values[id.index()] = pi[k];
        }
        for (k, l) in self.latches.iter().enumerate() {
            values[l.output.index()] = cs[k];
        }
        for id in order {
            let v = match self.nets[id.index()].driver.as_ref().expect("validated") {
                Driver::Input | Driver::FromLatch(_) => values[id.index()],
                Driver::Const(b) => *b,
                Driver::Gate(g) => {
                    let ins: Vec<bool> = g.fanins.iter().map(|f| values[f.index()]).collect();
                    g.kind.eval(&ins)
                }
                Driver::Cover {
                    fanins,
                    cubes,
                    value,
                } => {
                    let ins: Vec<bool> = fanins.iter().map(|f| values[f.index()]).collect();
                    let hit = cubes.iter().any(|cube| {
                        cube.iter()
                            .zip(&ins)
                            .all(|(c, &b)| c.is_none_or(|phase| phase == b))
                    });
                    hit == *value
                }
            };
            values[id.index()] = v;
        }
        let po = self.outputs.iter().map(|o| values[o.index()]).collect();
        let ns = self
            .latches
            .iter()
            .map(|l| values[l.data.index()])
            .collect();
        (po, ns)
    }

    // ----- BDD elaboration ---------------------------------------------------------

    /// Computes the partitioned representation `{T_k}, {O_j}` over the given
    /// input and current-state variables.
    ///
    /// `pi_vars[k]` is substituted for primary input `k`, `cs_vars[k]` for
    /// the output of latch `k`. The arguments are arbitrary functions, which
    /// makes this double as general function composition (used by latch
    /// splitting and verification).
    ///
    /// # Errors
    ///
    /// Propagates validation errors.
    ///
    /// # Panics
    ///
    /// Panics if the variable slices have the wrong length.
    pub fn elaborate(
        &self,
        mgr: &BddManager,
        pi_vars: &[Bdd],
        cs_vars: &[Bdd],
    ) -> Result<NetworkBdds, NetworkError> {
        assert_eq!(pi_vars.len(), self.inputs.len(), "wrong number of inputs");
        assert_eq!(
            cs_vars.len(),
            self.latches.len(),
            "wrong number of state vars"
        );
        let order = self.topo_order()?;
        let mut funcs: Vec<Option<Bdd>> = vec![None; self.nets.len()];
        for (k, &id) in self.inputs.iter().enumerate() {
            funcs[id.index()] = Some(pi_vars[k].clone());
        }
        for (k, l) in self.latches.iter().enumerate() {
            funcs[l.output.index()] = Some(cs_vars[k].clone());
        }
        for id in order {
            if funcs[id.index()].is_some() {
                continue;
            }
            let f = match self.nets[id.index()].driver.as_ref().expect("validated") {
                Driver::Input | Driver::FromLatch(_) => unreachable!("seeded above"),
                Driver::Const(b) => {
                    if *b {
                        mgr.one()
                    } else {
                        mgr.zero()
                    }
                }
                Driver::Gate(g) => {
                    let ins: Vec<Bdd> = g
                        .fanins
                        .iter()
                        .map(|f| funcs[f.index()].clone().expect("topological order"))
                        .collect();
                    g.kind.build(mgr, &ins)
                }
                Driver::Cover {
                    fanins,
                    cubes,
                    value,
                } => {
                    let ins: Vec<Bdd> = fanins
                        .iter()
                        .map(|f| funcs[f.index()].clone().expect("topological order"))
                        .collect();
                    let mut acc = mgr.zero();
                    for cube in cubes {
                        let mut term = mgr.one();
                        for (c, b) in cube.iter().zip(&ins) {
                            match c {
                                Some(true) => term = term.and(b),
                                Some(false) => term = term.and(&b.not()),
                                None => {}
                            }
                        }
                        acc = acc.or(&term);
                    }
                    if *value {
                        acc
                    } else {
                        acc.not()
                    }
                }
            };
            funcs[id.index()] = Some(f);
        }
        let outputs = self
            .outputs
            .iter()
            .map(|o| funcs[o.index()].clone().expect("driven"))
            .collect();
        let next_state = self
            .latches
            .iter()
            .map(|l| funcs[l.data.index()].clone().expect("driven"))
            .collect();
        Ok(NetworkBdds {
            next_state,
            outputs,
        })
    }

    // ----- transforms & latch splitting -----------------------------------------------

    /// Rewrites every [`Driver::Cover`] and [`Driver::Const`] into plain
    /// structural gates (`AND`/`OR`/`NOT`/`NOR`/`BUF`), producing a
    /// behaviourally identical network expressible in gate-only formats such
    /// as ISCAS `.bench`.
    ///
    /// Each cube becomes an `AND` of literals (negative literals through
    /// memoised inverters), the cover becomes an `OR` of its cube nets
    /// (`NOR` when the cover's output phase is 0), and constants are built
    /// as `x ∧ ¬x` / `x ∨ ¬x` over an arbitrary existing signal.
    ///
    /// # Errors
    ///
    /// Returns an error only when a constant must be synthesized but the
    /// network has no primary input or latch to anchor it on.
    pub fn expand_covers(&self) -> Result<Network, NetworkError> {
        fn fresh_name(out: &Network, base: &str, tag: &str) -> String {
            let mut name = format!("{base}_{tag}");
            let mut k = 0usize;
            while out.by_name.contains_key(&name) {
                k += 1;
                name = format!("{base}_{tag}{k}");
            }
            name
        }
        /// Memoised inverter of `id`.
        fn invert(out: &mut Network, inverters: &mut HashMap<NetId, NetId>, id: NetId) -> NetId {
            if let Some(&n) = inverters.get(&id) {
                return n;
            }
            let base = out.nets[id.index()].name.clone();
            let name = fresh_name(out, &base, "not");
            let n = out
                .add_gate(&name, GateKind::Not, &[id])
                .expect("fresh name cannot collide");
            inverters.insert(id, n);
            n
        }
        /// Redrives `target` with the constant `value` as `x∨¬x` / `x∧¬x`.
        fn make_const(
            out: &mut Network,
            inverters: &mut HashMap<NetId, NetId>,
            anchor: Option<NetId>,
            target: NetId,
            value: bool,
        ) -> Result<(), NetworkError> {
            let Some(x) = anchor else {
                return Err(NetworkError::Parse {
                    line: 0,
                    msg: format!(
                        "cannot synthesize constant for `{}`: no input or latch to anchor on",
                        out.nets[target.index()].name
                    ),
                });
            };
            let nx = invert(out, inverters, x);
            let kind = if value { GateKind::Or } else { GateKind::And };
            out.nets[target.index()].driver = Some(Driver::Gate(Gate {
                kind,
                fanins: vec![x, nx],
            }));
            Ok(())
        }

        let mut out = self.clone();
        // An anchor signal for constant synthesis (any input or latch
        // output).
        let anchor = self
            .inputs
            .first()
            .copied()
            .or_else(|| self.latches.first().map(|l| l.output));
        let mut inverters: HashMap<NetId, NetId> = HashMap::new();

        for id in (0..self.nets.len()).map(|k| NetId(k as u32)) {
            let driver = self.nets[id.index()].driver.clone();
            match driver {
                Some(Driver::Cover {
                    fanins,
                    cubes,
                    value,
                }) => {
                    if cubes.is_empty() {
                        // "No cube matches", ever: constant !value.
                        make_const(&mut out, &mut inverters, anchor, id, !value)?;
                        continue;
                    }
                    let base = self.nets[id.index()].name.clone();
                    let mut cube_nets = Vec::with_capacity(cubes.len());
                    let mut constant_true = false;
                    for (k, cube) in cubes.iter().enumerate() {
                        let mut lits = Vec::new();
                        for (fi, trit) in fanins.iter().zip(cube) {
                            match trit {
                                Some(true) => lits.push(*fi),
                                Some(false) => lits.push(invert(&mut out, &mut inverters, *fi)),
                                None => {}
                            }
                        }
                        let cube_net = match lits.len() {
                            0 => {
                                // A fully don't-care cube: the cover is the
                                // constant `value`.
                                constant_true = true;
                                break;
                            }
                            1 => lits[0],
                            _ => {
                                let name = fresh_name(&out, &base, &format!("c{k}"));
                                out.add_gate(&name, GateKind::And, &lits)
                                    .expect("fresh name cannot collide")
                            }
                        };
                        cube_nets.push(cube_net);
                    }
                    if constant_true {
                        make_const(&mut out, &mut inverters, anchor, id, value)?;
                        continue;
                    }
                    let kind = match (cube_nets.len(), value) {
                        (1, true) => GateKind::Buf,
                        (1, false) => GateKind::Not,
                        (_, true) => GateKind::Or,
                        (_, false) => GateKind::Nor,
                    };
                    out.nets[id.index()].driver = Some(Driver::Gate(Gate {
                        kind,
                        fanins: cube_nets,
                    }));
                }
                Some(Driver::Const(v)) => {
                    make_const(&mut out, &mut inverters, anchor, id, v)?;
                }
                _ => {}
            }
        }
        Ok(out)
    }

    /// The paper's benchmark transformation: splits the network into a fixed
    /// component `F` (all logic + unselected latches) and a particular
    /// solution `X_P` (a register bank of the selected latches); see
    /// [`LatchSplit`].
    ///
    /// # Errors
    ///
    /// Returns an error if an index is out of range or listed twice.
    pub fn split_latches(&self, selected: &[usize]) -> Result<LatchSplit, NetworkError> {
        let mut chosen = vec![false; self.latches.len()];
        for &k in selected {
            if k >= self.latches.len() || chosen[k] {
                return Err(NetworkError::Parse {
                    line: 0,
                    msg: format!("bad latch selection index {k}"),
                });
            }
            chosen[k] = true;
        }

        // ---- F: clone, replacing each selected latch by (input v, output u).
        let mut fixed = self.clone();
        fixed.set_name(format!("{}_fixed", self.name));
        // Remove selected latches from the clone; renumber FromLatch drivers.
        let mut new_idx = vec![usize::MAX; self.latches.len()];
        let mut kept = Vec::new();
        for (k, latch) in self.latches.iter().enumerate() {
            if !chosen[k] {
                new_idx[k] = kept.len();
                kept.push(*latch);
            }
        }
        for (k, latch) in self.latches.iter().enumerate() {
            if chosen[k] {
                // The latch output net becomes primary input v_<name>.
                let out = latch.output;
                fixed.nets[out.index()].driver = Some(Driver::Input);
                fixed.inputs.push(out);
                // The latch data net becomes primary output u_<name>.
                fixed.outputs.push(latch.data);
            } else {
                let slot = &mut fixed.nets[latch.output.index()].driver;
                *slot = Some(Driver::FromLatch(new_idx[k]));
            }
        }
        fixed.latches = kept;

        // ---- X_P: register bank over the selected latches.
        let mut unknown = Network::new(format!("{}_xp", self.name));
        for (k, latch) in self.latches.iter().enumerate() {
            if !chosen[k] {
                continue;
            }
            let base = self.net_name(latch.output).to_string();
            let u = unknown.add_input(&format!("u_{base}"));
            let (li, vnet) = unknown.add_latch(&format!("v_{base}"), latch.init);
            unknown.set_latch_data(li, u);
            unknown.add_output(vnet);
        }

        Ok(LatchSplit {
            fixed,
            unknown,
            num_original_inputs: self.inputs.len(),
            num_original_outputs: self.outputs.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 3 circuit.
    pub(crate) fn figure3() -> Network {
        let mut n = Network::new("figure3");
        let i = n.add_input("i");
        let (l1, cs1) = n.add_latch("cs1", false);
        let (l2, cs2) = n.add_latch("cs2", false);
        let ni = n.add_gate("ni", GateKind::Not, &[i]).unwrap();
        let t1 = n.add_gate("t1", GateKind::And, &[i, cs2]).unwrap();
        let t2 = n.add_gate("t2", GateKind::Or, &[ni, cs1]).unwrap();
        let o = n.add_gate("o", GateKind::Xor, &[cs1, cs2]).unwrap();
        n.set_latch_data(l1, t1);
        n.set_latch_data(l2, t2);
        n.add_output(o);
        n
    }

    #[test]
    fn figure3_simulation_matches_paper() {
        let n = figure3();
        n.validate().unwrap();
        // From (00) under i=0: T1 = 0&cs2 = 0, T2 = 1|0 = 1 -> state (01),
        // output 0 (the paper's "00"-labelled arc).
        let (po, ns) = n.eval_step(&[false], &[false, false]);
        assert_eq!(po, vec![false]);
        assert_eq!(ns, vec![false, true]);
        // From (00) under i=1: T1 = 1&0 = 0, T2 = 0|0 = 0 -> state (00).
        let (_, ns) = n.eval_step(&[true], &[false, false]);
        assert_eq!(ns, vec![false, false]);
        // Output 1 in the mixed states (the "-1" arcs of the figure).
        let (po, _) = n.eval_step(&[false], &[true, false]);
        assert_eq!(po, vec![true]);
        let (po, _) = n.eval_step(&[false], &[false, true]);
        assert_eq!(po, vec![true]);
    }

    #[test]
    fn elaborate_matches_simulation() {
        let n = figure3();
        let mgr = BddManager::new();
        let i = mgr.new_var();
        let cs1 = mgr.new_var();
        let cs2 = mgr.new_var();
        let bdds = n
            .elaborate(&mgr, std::slice::from_ref(&i), &[cs1.clone(), cs2.clone()])
            .unwrap();
        for m in 0..8u32 {
            let env = [m & 1 == 1, m >> 1 & 1 == 1, m >> 2 & 1 == 1];
            let (po, ns) = n.eval_step(&[env[0]], &[env[1], env[2]]);
            assert_eq!(bdds.outputs[0].eval(&env), po[0]);
            assert_eq!(bdds.next_state[0].eval(&env), ns[0]);
            assert_eq!(bdds.next_state[1].eval(&env), ns[1]);
        }
    }

    #[test]
    fn undriven_net_detected() {
        let mut n = Network::new("bad");
        let a = n.add_input("a");
        let ghost = n.net("ghost");
        let g = n.add_gate("g", GateKind::And, &[a, ghost]).unwrap();
        n.add_output(g);
        assert_eq!(n.validate(), Err(NetworkError::Undriven("ghost".into())));
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut n = Network::new("cyc");
        let a = n.add_input("a");
        let fwd = n.net("fwd");
        let g1 = n.add_gate("g1", GateKind::And, &[a, fwd]).unwrap();
        // fwd = BUF(g1): closes the loop.
        let fwd2 = n.add_gate("fwd", GateKind::Buf, &[g1]).unwrap();
        assert_eq!(fwd, fwd2);
        n.add_output(g1);
        assert!(matches!(
            n.validate(),
            Err(NetworkError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn duplicate_driver_rejected() {
        let mut n = Network::new("dup");
        let a = n.add_input("a");
        let _ = n.add_gate("g", GateKind::Buf, &[a]).unwrap();
        let err = n.add_gate("g", GateKind::Not, &[a]).unwrap_err();
        assert_eq!(err, NetworkError::DuplicateNet("g".into()));
    }

    #[test]
    fn gate_arities_enforced() {
        let mut n = Network::new("arity");
        let a = n.add_input("a");
        let b = n.add_input("b");
        assert!(matches!(
            n.add_gate("bad_not", GateKind::Not, &[a, b]),
            Err(NetworkError::BadArity { .. })
        ));
        assert!(matches!(
            n.add_gate("bad_mux", GateKind::Mux, &[a, b]),
            Err(NetworkError::BadArity { .. })
        ));
    }

    #[test]
    fn expand_covers_preserves_behaviour() {
        // A network with covers (as BLIF/KISS produce): a 2-input XOR cover,
        // a negative-phase cover, and a constant.
        let mut n = Network::new("covers");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n
            .add_cover(
                "x",
                &[a, b],
                vec![vec![Some(true), Some(false)], vec![Some(false), Some(true)]],
                true,
            )
            .unwrap();
        let y = n
            .add_cover("y", &[a, b], vec![vec![Some(true), Some(true)]], false)
            .unwrap();
        let k = n.add_const("k", true).unwrap();
        let g = n.add_gate("g", GateKind::And, &[x, k]).unwrap();
        n.add_output(g);
        n.add_output(y);
        let expanded = n.expand_covers().unwrap();
        expanded.validate().unwrap();
        // No covers or constants remain.
        for id in 0..expanded.num_nets() {
            let d = expanded.driver(NetId(id as u32));
            assert!(
                !matches!(d, Some(Driver::Cover { .. }) | Some(Driver::Const(_))),
                "net {id} still a cover/const"
            );
        }
        // Identical combinational behaviour on all input minterms.
        for m in 0..4u32 {
            let pi = vec![m & 1 == 1, m & 2 == 2];
            let (o1, _) = n.eval_step(&pi, &[]);
            let (o2, _) = expanded.eval_step(&pi, &[]);
            assert_eq!(o1, o2, "minterm {m}");
        }
    }

    #[test]
    fn expand_covers_handles_degenerate_covers() {
        let mut n = Network::new("degen");
        let a = n.add_input("a");
        // Empty cover: constant !value = 1.
        let e = n.add_cover("e", &[a], vec![], false).unwrap();
        // Fully don't-care cube: constant value = 1.
        let t = n.add_cover("t", &[a], vec![vec![None]], true).unwrap();
        n.add_output(e);
        n.add_output(t);
        let x = n.expand_covers().unwrap();
        x.validate().unwrap();
        for v in [false, true] {
            let (o, _) = x.eval_step(&[v], &[]);
            assert_eq!(o, vec![true, true]);
        }
    }

    #[test]
    fn expand_covers_needs_an_anchor_for_constants() {
        let mut n = Network::new("noanchor");
        let k = n.add_const("k", false).unwrap();
        n.add_output(k);
        assert!(n.expand_covers().is_err());
    }

    #[test]
    fn latch_split_round_trip_behaviour() {
        // Splitting and recombining (X_P is just registers) must preserve
        // the sequential behaviour of the original network.
        let n = figure3();
        let split = n.split_latches(&[1]).unwrap();
        assert_eq!(split.fixed.num_latches(), 1);
        assert_eq!(split.unknown.num_latches(), 1);
        assert_eq!(split.fixed.num_inputs(), 2); // i, v_cs2
        assert_eq!(split.fixed.num_outputs(), 2); // o, u_cs2
        split.fixed.validate().unwrap();
        split.unknown.validate().unwrap();

        // Co-simulate F ∘ X_P against the original for a few steps.
        let mut s_orig = n.initial_state();
        let mut s_f = split.fixed.initial_state();
        let mut s_x = split.unknown.initial_state();
        for step in 0..32 {
            let i = step % 3 == 1;
            let (po, ns) = n.eval_step(&[i], &s_orig);
            // X_P outputs v (its state); F reads (i, v).
            let (v_out, _) = split.unknown.eval_step(&[false], &s_x); // outputs don't depend on u
            let fi = vec![i, v_out[0]];
            let (fo, f_ns) = split.fixed.eval_step(&fi, &s_f);
            assert_eq!(fo[0], po[0], "primary output at step {step}");
            // u = fo[1] feeds X_P.
            let (_, x_ns) = split.unknown.eval_step(&[fo[1]], &s_x);
            s_orig = ns;
            s_f = f_ns;
            s_x = x_ns;
        }
    }
}
