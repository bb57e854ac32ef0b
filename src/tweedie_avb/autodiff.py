"""Reverse-mode automatic differentiation on a scalar tape, plus Adam.

The tape records every scalar node in creation order, so the backward
sweep is a single reversed pass over the node list (no topological sort
needed).  Nodes store their parents together with the local partial
derivative evaluated at forward time, which keeps the backward loop
generic across all primitives.

No program code builds tapes: the losses in ``avb`` and the likelihood
in ``model`` return numpy values and gradients, and the optimizer here
(:func:`adam_step`, :func:`clip_global_norm`) works on flat arrays
aligned with a :class:`ParamStore`.  The tape is a tested library piece
and the reference for those gradients: the scalar primitives build the
networks and sampling maps node by node (``avb``'s ``forward_tape``,
``sample_tape``, ``entropy_tape``), a vectorised computation enters a
tape as one :class:`TapeNode` whose parents carry its numpy partials,
and :func:`finite_diff_check` checks any ``(value, gradient)`` function
against central differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import digamma


class DomainError(ValueError):
    """A primitive was evaluated outside its mathematical domain."""


class TapeError(RuntimeError):
    """Tape misuse: mixed tapes, repeated backward, non-scalar output."""


class NonFiniteGradientError(RuntimeError):
    """A gradient component is NaN or infinite; the step was rejected."""

    def __init__(self, name: str, index: int, value: float):
        self.name = name
        self.index = index
        self.value = value
        super().__init__(
            f"non-finite gradient {value!r} for parameter {name!r} (flat index {index})"
        )


class TapeNode:
    """One scalar value in the computation graph.

    ``parents`` is a tuple of ``(parent_node, local_partial)`` pairs; the
    local partial is the derivative of this node's value with respect to
    the parent, evaluated at forward time.
    """

    __slots__ = ("tape", "value", "grad", "parents", "op")

    def __init__(self, tape: "Tape", value: float, parents=(), op: str = "leaf"):
        self.tape = tape
        self.value = value
        self.grad = 0.0
        self.parents = parents
        self.op = op
        tape.nodes.append(self)

    def __repr__(self):
        return f"TapeNode({self.op}, value={self.value:.6g}, grad={self.grad:.6g})"

    # Operator sugar; floats are folded into the local partials directly
    # rather than materialized as constant nodes.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return pow_const(self, exponent)


class Tape:
    """Append-only record of nodes; creation order is topological order."""

    __slots__ = ("nodes", "_backward_done")

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self._backward_done = False

    def leaf(self, value: float) -> TapeNode:
        return TapeNode(self, float(value), (), "leaf")

    def __len__(self):
        return len(self.nodes)


def _as_value(x) -> float:
    return x.value if isinstance(x, TapeNode) else float(x)


def _tape_of(*xs) -> Tape:
    tape = None
    for x in xs:
        if isinstance(x, TapeNode):
            if tape is None:
                tape = x.tape
            elif tape is not x.tape:
                raise TapeError("operands live on different tapes")
    if tape is None:
        raise TapeError("at least one operand must be a TapeNode")
    return tape


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def add(a, b) -> TapeNode:
    tape = _tape_of(a, b)
    parents = []
    if isinstance(a, TapeNode):
        parents.append((a, 1.0))
    if isinstance(b, TapeNode):
        parents.append((b, 1.0))
    return TapeNode(tape, _as_value(a) + _as_value(b), tuple(parents), "add")


def sub(a, b) -> TapeNode:
    tape = _tape_of(a, b)
    parents = []
    if isinstance(a, TapeNode):
        parents.append((a, 1.0))
    if isinstance(b, TapeNode):
        parents.append((b, -1.0))
    return TapeNode(tape, _as_value(a) - _as_value(b), tuple(parents), "sub")


def mul(a, b) -> TapeNode:
    tape = _tape_of(a, b)
    av, bv = _as_value(a), _as_value(b)
    parents = []
    if isinstance(a, TapeNode):
        parents.append((a, bv))
    if isinstance(b, TapeNode):
        parents.append((b, av))
    return TapeNode(tape, av * bv, tuple(parents), "mul")


def div(a, b) -> TapeNode:
    tape = _tape_of(a, b)
    av, bv = _as_value(a), _as_value(b)
    if bv == 0.0:
        raise DomainError("division by zero")
    value = av / bv
    parents = []
    if isinstance(a, TapeNode):
        parents.append((a, 1.0 / bv))
    if isinstance(b, TapeNode):
        parents.append((b, -value / bv))
    return TapeNode(tape, value, tuple(parents), "div")


def neg(a: TapeNode) -> TapeNode:
    return TapeNode(a.tape, -a.value, ((a, -1.0),), "neg")


def exp(a: TapeNode) -> TapeNode:
    value = math.exp(a.value)
    return TapeNode(a.tape, value, ((a, value),), "exp")


def log(a: TapeNode) -> TapeNode:
    if a.value <= 0.0:
        raise DomainError(f"log of non-positive value {a.value!r}")
    return TapeNode(a.tape, math.log(a.value), ((a, 1.0 / a.value),), "log")


def tanh(a: TapeNode) -> TapeNode:
    value = math.tanh(a.value)
    return TapeNode(a.tape, value, ((a, 1.0 - value * value),), "tanh")


def sigmoid(a: TapeNode) -> TapeNode:
    x = a.value
    if x >= 0.0:
        value = 1.0 / (1.0 + math.exp(-x))
    else:
        e = math.exp(x)
        value = e / (1.0 + e)
    return TapeNode(a.tape, value, ((a, value * (1.0 - value)),), "sigmoid")


def softplus(a: TapeNode) -> TapeNode:
    x = a.value
    # log(1 + e^x), stable for large |x|
    if x > 30.0:
        value = x
        sig = 1.0
    elif x < -30.0:
        value = math.exp(x)
        sig = value
    else:
        value = math.log1p(math.exp(x))
        sig = 1.0 / (1.0 + math.exp(-x))
    return TapeNode(a.tape, value, ((a, sig),), "softplus")


def pow_const(a: TapeNode, exponent: float) -> TapeNode:
    x = a.value
    c = float(exponent)
    if x < 0.0 and c != int(c):
        raise DomainError(f"non-integer power {c} of negative value {x}")
    if x == 0.0 and c < 1.0:
        raise DomainError(f"power {c} of zero has unbounded derivative")
    value = x ** c
    partial = c * x ** (c - 1.0) if c != 0.0 else 0.0
    return TapeNode(a.tape, value, ((a, partial),), "pow_const")


def log_gamma(a: TapeNode) -> TapeNode:
    if a.value <= 0.0:
        raise DomainError(f"log_gamma of non-positive value {a.value!r}")
    return TapeNode(
        a.tape, math.lgamma(a.value), ((a, float(digamma(a.value))),), "log_gamma"
    )


def log_sum_exp(terms: Sequence[TapeNode]) -> TapeNode:
    if not terms:
        raise DomainError("log_sum_exp of an empty list")
    tape = _tape_of(*terms)
    values = np.array([t.value for t in terms])
    m = float(values.max())
    if math.isinf(m) and m < 0:
        # all terms are -inf; result carries no gradient
        return TapeNode(tape, -math.inf, (), "log_sum_exp")
    w = np.exp(values - m)
    s = float(w.sum())
    value = m + math.log(s)
    coeffs = w / s
    parents = tuple(
        (t, float(c)) for t, c in zip(terms, coeffs) if isinstance(t, TapeNode)
    )
    return TapeNode(tape, value, parents, "log_sum_exp")


def dot(pairs: Iterable[tuple], bias=0.0) -> TapeNode:
    """Fused sum of products: sum(a_k * b_k) + bias.

    Each factor (and the bias) may be a TapeNode or a plain float; local
    partials are recorded only for node factors.
    """
    value = 0.0
    parents = []
    tape = None
    for a, b in pairs:
        a_node = isinstance(a, TapeNode)
        b_node = isinstance(b, TapeNode)
        av = a.value if a_node else float(a)
        bv = b.value if b_node else float(b)
        value += av * bv
        if a_node:
            parents.append((a, bv))
            tape = a.tape
        if b_node:
            parents.append((b, av))
            tape = b.tape
    if isinstance(bias, TapeNode):
        value += bias.value
        parents.append((bias, 1.0))
        tape = bias.tape
    else:
        value += float(bias)
    if tape is None:
        raise TapeError("dot needs at least one TapeNode operand")
    return TapeNode(tape, value, tuple(parents), "dot")


def affine(weights: Sequence, inputs: Sequence, bias=0.0) -> TapeNode:
    """Fused affine unit: sum_k weights[k] * inputs[k] + bias."""
    if len(weights) != len(inputs):
        raise TapeError("affine weight/input length mismatch")
    return dot(zip(weights, inputs), bias)


def backward(output: TapeNode) -> None:
    """Accumulate adjoints of ``output`` into every node on its tape.

    May be called once per tape; a second call without a fresh tape is a
    usage error because adjoints would double-accumulate.
    """
    tape = output.tape
    if tape._backward_done:
        raise TapeError("backward already ran on this tape")
    if not math.isfinite(output.value):
        raise TapeError(f"backward on non-finite output value {output.value!r}")
    tape._backward_done = True
    output.grad = 1.0
    for node in reversed(tape.nodes):
        g = node.grad
        if g == 0.0:
            continue
        for parent, coeff in node.parents:
            parent.grad += coeff * g


# ---------------------------------------------------------------------------
# Parameter storage
# ---------------------------------------------------------------------------

class ParamStore:
    """Flat trainable-parameter vector with named, disjoint slices."""

    def __init__(self):
        self.values = np.zeros(0)
        self.names: dict[str, tuple[int, int]] = {}

    @property
    def size(self) -> int:
        return self.values.size

    def register(self, name: str, init: np.ndarray) -> None:
        if name in self.names:
            raise KeyError(f"parameter {name!r} already registered")
        init = np.asarray(init, dtype=float).ravel()
        offset = self.values.size
        self.names[name] = (offset, init.size)
        self.values = np.concatenate([self.values, init])

    def span(self, name: str) -> slice:
        """Where ``name`` lives in ``values`` (and in any array aligned with it)."""
        offset, length = self.names[name]
        return slice(offset, offset + length)

    def get(self, name: str) -> np.ndarray:
        return self.values[self.span(name)]

    def set(self, name: str, arr) -> None:
        offset, length = self.names[name]
        arr = np.asarray(arr, dtype=float).ravel()
        if arr.size != length:
            raise ValueError(f"size mismatch for {name!r}: {arr.size} != {length}")
        self.values[offset:offset + length] = arr

    def name_of(self, index: int) -> str:
        for name, (offset, length) in self.names.items():
            if offset <= index < offset + length:
                return f"{name}[{index - offset}]"
        return f"<unregistered index {index}>"

    def copy(self) -> "ParamStore":
        other = ParamStore()
        other.values = self.values.copy()
        other.names = dict(self.names)
        return other

    def leaves(self, tape: Tape) -> list[TapeNode]:
        """Create one leaf node per parameter, aligned with ``values``."""
        return [tape.leaf(v) for v in self.values]


def slice_leaves(leaves: Sequence[TapeNode], store: ParamStore, name: str) -> list[TapeNode]:
    return list(leaves[store.span(name)])


def collect_gradient(leaves: Sequence[TapeNode]) -> np.ndarray:
    return np.array([leaf.grad for leaf in leaves])


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Bias-corrected Adam state over one flat parameter vector."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def for_store(cls, store: ParamStore, learning_rate: float = 1e-3,
                  beta1: float = 0.9, beta2: float = 0.999,
                  epsilon: float = 1e-8) -> "AdamState":
        return cls(
            first_moment=np.zeros(store.size),
            second_moment=np.zeros(store.size),
            learning_rate=learning_rate,
            beta1=beta1,
            beta2=beta2,
            epsilon=epsilon,
        )


def adam_step(params: ParamStore, gradient: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update, in place.

    Rejects the step (raises, leaving params and state untouched) if any
    gradient component is non-finite.
    """
    gradient = np.asarray(gradient, dtype=float)
    if gradient.size != params.size:
        raise ValueError(
            f"gradient length {gradient.size} != parameter count {params.size}"
        )
    bad = ~np.isfinite(gradient)
    if bad.any():
        index = int(np.argmax(bad))
        raise NonFiniteGradientError(params.name_of(index), index, float(gradient[index]))
    state.step_count += 1
    t = state.step_count
    state.first_moment *= state.beta1
    state.first_moment += (1.0 - state.beta1) * gradient
    state.second_moment *= state.beta2
    state.second_moment += (1.0 - state.beta2) * gradient * gradient
    m_hat = state.first_moment / (1.0 - state.beta1 ** t)
    v_hat = state.second_moment / (1.0 - state.beta2 ** t)
    params.values -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)


def clip_global_norm(gradient: np.ndarray, max_norm: float) -> np.ndarray:
    """Scale the gradient so its euclidean norm is at most ``max_norm``."""
    norm = float(np.linalg.norm(gradient))
    if norm > max_norm and norm > 0.0:
        return gradient * (max_norm / norm)
    return gradient


# ---------------------------------------------------------------------------
# Verification harness
# ---------------------------------------------------------------------------

def finite_diff_check(
    f: Callable[[ParamStore], tuple[float, np.ndarray]],
    params: ParamStore,
    h: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` evaluates the scalar function at the given store and returns
    ``(value, analytic_gradient)``.  The step ``h`` must lie in
    [1e-7, 1e-3].
    """
    if not (1e-7 <= h <= 1e-3):
        raise ValueError(f"step h={h} outside [1e-7, 1e-3]")
    _, analytic = f(params)
    analytic = np.asarray(analytic, dtype=float)
    bad_coords = []
    max_err = 0.0
    work = params.copy()
    for i in range(params.size):
        orig = work.values[i]
        work.values[i] = orig + h
        up, _ = f(work)
        work.values[i] = orig - h
        down, _ = f(work)
        work.values[i] = orig
        if not (math.isfinite(up) and math.isfinite(down)):
            bad_coords.append((params.name_of(i), up, down))
            continue
        fd = (up - down) / (2.0 * h)
        err = abs(analytic[i] - fd) / max(1.0, abs(fd))
        max_err = max(max_err, err)
    if bad_coords:
        detail = ", ".join(f"{n}: f(+h)={u!r}, f(-h)={d!r}" for n, u, d in bad_coords)
        raise DomainError(f"non-finite values under perturbation: {detail}")
    return max_err
