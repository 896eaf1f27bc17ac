"""Abstract syntax of the regular alternation-free mu-calculus.

Three layers, as in the logic used by the paper:

* **action predicates** — match individual transition labels
  (:class:`AnyAct` is the paper's ``T``; :class:`ActLit` a quoted label;
  complement :class:`NotAct` and union :class:`OrAct`);
* **regular formulas** — regular expressions over action predicates
  (:class:`RAct`, concatenation :class:`RSeq`, union :class:`RAlt`,
  iteration :class:`RStar`), used inside modalities: ``[T*.a] F``;
* **state formulas** — booleans, variables, ``/\\`` ``\\/``, the modal
  operators :class:`Diamond` and :class:`Box` over regular formulas, and
  the fixpoints :class:`Mu` / :class:`Nu`.

All nodes are immutable (frozen dataclasses) and hashable so the checker
can memoise closed subformulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import FormulaSemanticsError

# ---------------------------------------------------------------------------
# action predicates
# ---------------------------------------------------------------------------


class ActionPredicate:
    """Base class for label matchers."""

    def matches(self, label: str) -> bool:
        """Whether ``label`` satisfies this predicate."""
        raise NotImplementedError


@dataclass(frozen=True)
class AnyAct(ActionPredicate):
    """Matches every label — the paper's ``T`` inside modalities."""

    def matches(self, label: str) -> bool:
        return True

    def __str__(self) -> str:
        return "T"


@dataclass(frozen=True)
class ActLit(ActionPredicate):
    """Matches one concrete label exactly.

    With ``prefix=True`` it matches any label *starting with* the given
    text, convenient for parameterised actions: ``ActLit("write(",
    prefix=True)`` matches ``write(t0)``, ``write(t1)``, ...
    """

    label: str
    prefix: bool = False

    def matches(self, label: str) -> bool:
        if self.prefix:
            return label.startswith(self.label)
        return label == self.label

    def __str__(self) -> str:
        star = "*" if self.prefix else ""
        return f'"{self.label}{star}"'


@dataclass(frozen=True)
class NotAct(ActionPredicate):
    """Complement of a predicate — the paper writes ``not a``."""

    inner: ActionPredicate

    def matches(self, label: str) -> bool:
        return not self.inner.matches(label)

    def __str__(self) -> str:
        return f"not {self.inner}"


@dataclass(frozen=True)
class OrAct(ActionPredicate):
    """Union of two predicates."""

    left: ActionPredicate
    right: ActionPredicate

    def matches(self, label: str) -> bool:
        return self.left.matches(label) or self.right.matches(label)

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


# ---------------------------------------------------------------------------
# regular formulas
# ---------------------------------------------------------------------------


class Regular:
    """Base class for regular formulas over action predicates."""


@dataclass(frozen=True)
class RAct(Regular):
    """A single step matching an action predicate."""

    pred: ActionPredicate

    def __str__(self) -> str:
        return str(self.pred)


@dataclass(frozen=True)
class RSeq(Regular):
    """Concatenation ``left . right``."""

    left: Regular
    right: Regular

    def __str__(self) -> str:
        return f"{self.left}.{self.right}"


@dataclass(frozen=True)
class RAlt(Regular):
    """Union ``left | right``."""

    left: Regular
    right: Regular

    def __str__(self) -> str:
        return f"({self.left}|{self.right})"


@dataclass(frozen=True)
class RStar(Regular):
    """Kleene iteration ``inner*``."""

    inner: Regular

    def __str__(self) -> str:
        return f"{self.inner}*"


# ---------------------------------------------------------------------------
# state formulas
# ---------------------------------------------------------------------------


class Formula:
    """Base class for state formulas."""

    def children(self) -> tuple["Formula", ...]:
        """Direct state-formula subterms."""
        return ()


@dataclass(frozen=True)
class Tt(Formula):
    """Truth — every state satisfies it."""

    def __str__(self) -> str:
        return "T"


@dataclass(frozen=True)
class Ff(Formula):
    """Falsity — no state satisfies it."""

    def __str__(self) -> str:
        return "F"


@dataclass(frozen=True)
class Var(Formula):
    """A fixpoint variable occurrence."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class And(Formula):
    """Conjunction."""

    left: Formula
    right: Formula

    def children(self):
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} /\\ {self.right})"


@dataclass(frozen=True)
class Or(Formula):
    """Disjunction."""

    left: Formula
    right: Formula

    def children(self):
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} \\/ {self.right})"


@dataclass(frozen=True)
class Not(Formula):
    """Negation.

    Only allowed over subformulas without free fixpoint variables
    (checked by :func:`assert_alternation_free`), which keeps every
    fixpoint body monotone.
    """

    inner: Formula

    def children(self):
        return (self.inner,)

    def __str__(self) -> str:
        return f"~{self.inner}"


@dataclass(frozen=True)
class Diamond(Formula):
    """``<R> f`` — some R-matching path leads to an f-state."""

    reg: Regular
    inner: Formula

    def children(self):
        return (self.inner,)

    def __str__(self) -> str:
        return f"<{self.reg}>{self.inner}"


@dataclass(frozen=True)
class Box(Formula):
    """``[R] f`` — every R-matching path leads to an f-state."""

    reg: Regular
    inner: Formula

    def children(self):
        return (self.inner,)

    def __str__(self) -> str:
        return f"[{self.reg}]{self.inner}"


@dataclass(frozen=True)
class Mu(Formula):
    """Least fixpoint ``mu X. f``."""

    var: str
    body: Formula

    def children(self):
        return (self.body,)

    def __str__(self) -> str:
        return f"mu {self.var}.{self.body}"


@dataclass(frozen=True)
class Nu(Formula):
    """Greatest fixpoint ``nu X. f``."""

    var: str
    body: Formula

    def children(self):
        return (self.body,)

    def __str__(self) -> str:
        return f"nu {self.var}.{self.body}"


# ---------------------------------------------------------------------------
# static analysis
# ---------------------------------------------------------------------------


def subformulas(f: Formula) -> Iterator[Formula]:
    """Yield ``f`` and all state subformulas, depth first."""
    yield f
    for c in f.children():
        yield from subformulas(c)


def free_variables(f: Formula) -> frozenset[str]:
    """The fixpoint variables occurring free in ``f``."""
    if isinstance(f, Var):
        return frozenset([f.name])
    if isinstance(f, (Mu, Nu)):
        return free_variables(f.body) - {f.var}
    out: frozenset[str] = frozenset()
    for c in f.children():
        out |= free_variables(c)
    return out


def assert_alternation_free(f: Formula) -> None:
    """Validate that ``f`` is well formed and alternation free.

    Raises :class:`~repro.errors.FormulaSemanticsError` when:

    * a variable occurs free at top level;
    * a variable occurs under a negation (non-monotone);
    * a ``mu`` body contains a free variable bound by an enclosing
      ``nu`` or vice versa (true alternation, outside the fragment this
      checker — like the paper's Evaluator 3.x — supports).
    """
    if free_variables(f):
        raise FormulaSemanticsError(
            f"unbound fixpoint variable(s): {sorted(free_variables(f))}"
        )

    def walk(g: Formula, bound: dict[str, str], under_not: bool) -> None:
        if isinstance(g, Var):
            if under_not:
                raise FormulaSemanticsError(
                    f"variable {g.name} occurs under a negation"
                )
            return
        if isinstance(g, Not):
            if free_variables(g.inner):
                raise FormulaSemanticsError(
                    "negation over an open subformula "
                    f"(free: {sorted(free_variables(g.inner))})"
                )
            # the negated subformula is closed, hence a constant set with
            # respect to every enclosing fixpoint: its *internal* bound
            # variables are unaffected by the negation, so the walk
            # restarts fresh inside
            walk(g.inner, {}, False)
            return
        if isinstance(g, (Mu, Nu)):
            sign = "mu" if isinstance(g, Mu) else "nu"
            # alternation: the body of this fixpoint mentions (free) a
            # variable bound by an enclosing fixpoint of the other sign
            for v in free_variables(g.body) - {g.var}:
                if bound.get(v) is not None and bound[v] != sign:
                    raise FormulaSemanticsError(
                        f"alternating fixpoints: {sign} {g.var} uses "
                        f"{bound[v]}-bound variable {v}"
                    )
            walk(g.body, {**bound, g.var: sign}, under_not)
            return
        for c in g.children():
            walk(c, bound, under_not)

    walk(f, {}, False)
