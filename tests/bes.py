"""Boolean equation systems (BES).

The classical route from alternation-free mu-calculus model checking to
linear-time solving goes through a BES: one boolean variable per
(subformula, state) pair, grouped into blocks of uniform fixpoint sign,
solved innermost-first with a worklist. CADP's Evaluator is built on
exactly this translation. No check runs on it: it is an independent
oracle, next to :mod:`tests.oracles`, against which the direct
vectorised checker (:mod:`repro.mucalc.checker`) is cross-validated —
on small LTSs in ``tests/mucalc/`` and on the probe LTSs of the
protocol matrix in ``tests/conformance/``.

Only negation-free formulas are translatable (negation over closed
subformulas can be eliminated beforehand by dualisation; the paper's
formulas are negation-free once action complements are pushed into
action predicates).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import FormulaSemanticsError
from repro.lts.lts import LTS
from repro.mucalc.checker import expand_regular
from repro.mucalc.syntax import (
    And,
    Box,
    Diamond,
    Ff,
    Formula,
    Mu,
    Not,
    Nu,
    Or,
    RAct,
    Tt,
    Var,
    assert_alternation_free,
)

#: equation operators
OP_AND = "and"
OP_OR = "or"
OP_TRUE = "true"
OP_FALSE = "false"
OP_ID = "id"


@dataclass
class Block:
    """A block of equations of one fixpoint sign.

    ``eqs[v] = (op, operands)`` where operands are global variable ids.
    """

    sign: str  # "mu" or "nu"
    eqs: dict[int, tuple[str, tuple[int, ...]]] = field(default_factory=dict)


@dataclass
class BES:
    """An alternation-free boolean equation system.

    ``blocks`` are stored outermost-first; solving proceeds
    innermost-first (reverse order). ``root`` is the variable whose
    value answers the model-checking question for the initial state;
    ``root_of_state[s]`` answers it for state ``s``.
    """

    blocks: list[Block] = field(default_factory=list)
    root: int = 0
    root_of_state: list[int] = field(default_factory=list)
    n_vars: int = 0

    def owner(self, var: int) -> Block:
        """The block defining ``var``."""
        for b in self.blocks:
            if var in b.eqs:
                return b
        raise KeyError(var)


def formula_to_bes(lts: LTS, formula: Formula) -> BES:
    """Translate ``formula`` over ``lts`` into an alternation-free BES."""
    f = expand_regular(formula)
    assert_alternation_free(f)

    n = lts.n_states
    bes = BES()
    # per-node variable base: var id = base[node] + state
    base: dict[int, int] = {}
    node_of_fixvar: dict[str, Formula] = {}

    def alloc(node: Formula) -> int:
        key = id(node)
        if key not in base:
            base[key] = bes.n_vars
            bes.n_vars += n
        return base[key]

    # pre-compute label-filtered adjacency once per predicate
    succ_cache: dict = {}

    def successors(pred, s: int) -> list[int]:
        lst = succ_cache.get(pred)
        if lst is None:
            lst = [[] for _ in range(n)]
            for t in lts.transitions():
                if pred.matches(t.label):
                    lst[t.src].append(t.dst)
            succ_cache[pred] = lst
        return lst[s]

    def translate(node: Formula, block: Block) -> int:
        """Emit equations for ``node``; returns its variable base."""
        b = alloc(node)
        if isinstance(node, Tt):
            for s in range(n):
                block.eqs[b + s] = (OP_TRUE, ())
        elif isinstance(node, Ff):
            for s in range(n):
                block.eqs[b + s] = (OP_FALSE, ())
        elif isinstance(node, Var):
            target = node_of_fixvar.get(node.name)
            if target is None:
                raise FormulaSemanticsError(f"unbound variable {node.name}")
            tb = alloc(target)
            for s in range(n):
                block.eqs[b + s] = (OP_ID, (tb + s,))
        elif isinstance(node, And):
            lb = translate(node.left, block)
            rb = translate(node.right, block)
            for s in range(n):
                block.eqs[b + s] = (OP_AND, (lb + s, rb + s))
        elif isinstance(node, Or):
            lb = translate(node.left, block)
            rb = translate(node.right, block)
            for s in range(n):
                block.eqs[b + s] = (OP_OR, (lb + s, rb + s))
        elif isinstance(node, Not):
            raise FormulaSemanticsError(
                "negation is not BES-translatable; dualise the formula first"
            )
        elif isinstance(node, (Diamond, Box)):
            if not isinstance(node.reg, RAct):
                raise FormulaSemanticsError("regular modality not expanded")
            ib = translate(node.inner, block)
            op = OP_OR if isinstance(node, Diamond) else OP_AND
            for s in range(n):
                ops = tuple(ib + d for d in successors(node.reg.pred, s))
                block.eqs[b + s] = (op, ops)
        elif isinstance(node, (Mu, Nu)):
            sign = "mu" if isinstance(node, Mu) else "nu"
            if sign == block.sign and block.eqs:
                inner_block = block
            else:
                inner_block = Block(sign)
                bes.blocks.append(inner_block)
            saved = node_of_fixvar.get(node.var)
            node_of_fixvar[node.var] = node
            # the fixpoint node's variables alias its body's
            bb = translate(node.body, inner_block)
            for s in range(n):
                inner_block.eqs[b + s] = (OP_ID, (bb + s,))
            if saved is None:
                del node_of_fixvar[node.var]
            else:
                node_of_fixvar[node.var] = saved
        else:
            raise TypeError(f"not a formula: {node!r}")
        return b

    top = Block("mu")
    bes.blocks.insert(0, top)
    root_base = translate(f, top)
    bes.root = root_base + lts.initial
    bes.root_of_state = [root_base + s for s in range(n)]
    bes.blocks = [blk for blk in bes.blocks if blk.eqs]
    return bes


def solve_bes(bes: BES) -> list[bool]:
    """Solve ``bes``; returns the value of every variable.

    Blocks are solved innermost-first (reverse storage order). Within a
    block, variables start at the sign's default (``mu`` -> false,
    ``nu`` -> true) and a worklist propagates one-directional flips —
    linear in the number of equation dependencies, as in the classical
    algorithm.
    """
    values = [False] * bes.n_vars
    defined: set[int] = set()

    # reverse dependency index per block, built lazily
    for block in reversed(bes.blocks):
        default = block.sign == "nu"
        for v in block.eqs:
            values[v] = default
        rdeps: dict[int, list[int]] = {}
        for v, (_op, ops) in block.eqs.items():
            for o in ops:
                if o in block.eqs:
                    rdeps.setdefault(o, []).append(v)

        def evaluate(v: int) -> bool:
            op, ops = block.eqs[v]
            if op == OP_TRUE:
                return True
            if op == OP_FALSE:
                return False
            if op == OP_ID:
                return values[ops[0]]
            if op == OP_AND:
                return all(values[o] for o in ops)
            if op == OP_OR:
                return any(values[o] for o in ops)
            raise AssertionError(op)

        queue = deque(block.eqs.keys())
        queued = set(queue)
        while queue:
            v = queue.popleft()
            queued.discard(v)
            new = evaluate(v)
            if new != values[v]:
                # monotone: mu flips false->true only, nu true->false only
                values[v] = new
                for w in rdeps.get(v, ()):
                    if w not in queued:
                        queue.append(w)
                        queued.add(w)
        defined.update(block.eqs)
    return values


def bes_holds(lts: LTS, formula: Formula) -> bool:
    """Check ``formula`` at the initial state via the BES backend."""
    bes = formula_to_bes(lts, formula)
    return solve_bes(bes)[bes.root]
