"""Seeded input generators for the benchmark.

Every generator takes a `numpy.random.Generator` and builds circuits with a
fixed shape (wire count, instruction count, instruction classes); the seed
only chooses operands and positions. The cost of an operation on a generated
circuit therefore depends on its shape, not on the seed, which keeps run-to-run
spread low while every seed still exercises different circuits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qrewrite.circuit import (
    ClassicalCtrl,
    ClassicalXor,
    Gate1,
    Gate2,
    Measure,
    circuit,
    prep_bell,
    prep_plus,
    prep_zero,
)

# A Choi matrix over d = 2^(n_in + n_out) is d*d complex128 entries. Ladder
# rungs whose Choi matrix is larger than this are refused, never allocated.
CHOI_BUDGET_BYTES = 512 * 2**20


def _pick(rng: np.random.Generator, items):
    return items[int(rng.integers(len(items)))]


def _random_gate(rng: np.random.Generator, wires: list[int]):
    if len(wires) < 2 or rng.random() < 0.5:
        return Gate1(_pick(rng, ("H", "X", "Z")), _pick(rng, wires))
    a, b = rng.choice(wires, size=2, replace=False)
    return Gate2(_pick(rng, ("CNOT", "CZ")), int(a), int(b))


def mixed_circuit(rng: np.random.Generator, n: int, with_input: bool = True):
    """A small circuit with preparations, measurement, feed-forward and XOR.

    Shape (fixed for a given n, 3 <= n <= 5): q0 is an input (or |0> when
    `with_input` is false), q1 is |0>, q2 is |+>, q3/q4 are |0> or a Bell
    pair; 13 instructions with planted simplification sites: a CNOT onto
    the |+> wire, a CNOT controlled by the |0> wire, an adjacent inverse
    pair, a measurement feeding a classically controlled X, and an XOR
    feeding a classically controlled Z.
    """
    if not 3 <= n <= 5:
        raise ValueError("mixed circuits have 3 to 5 qubits")
    qs = list(range(n))
    preps = [prep_zero(1), prep_plus(2)]
    if n == 4:
        preps.append(prep_zero(3))
    elif n == 5:
        preps.append(prep_bell(3, 4))
    if not with_input:
        preps.append(prep_zero(0))
    x = _pick(rng, [w for w in qs if w not in (1, 2)])
    y = _pick(rng, [w for w in qs if w != 1])
    body = [Gate2("CNOT", x, 2), Gate2("CNOT", 1, y)]
    body += [_random_gate(rng, qs) for _ in range(2)]
    pair = _random_gate(rng, qs)
    body += [pair, pair]
    a, b = (int(w) for w in rng.choice(n, size=2, replace=False))
    body.append(Measure(a, 0))
    body.append(_random_gate(rng, qs))
    body.append(ClassicalCtrl("CX", 0, _pick(rng, [w for w in qs if w != a])))
    body.append(Measure(b, 1))
    body.append(ClassicalXor(0, 1, 2))
    body.append(ClassicalCtrl("CZC", 2, _pick(rng, qs)))
    body.append(_random_gate(rng, qs))
    return circuit(
        n, 3, body, preps=preps, inputs=[0] if with_input else [],
        c_roles={2: "report"},
    )


def mixed_corpus(rng: np.random.Generator, count: int, with_input: bool = True):
    """`count` mixed circuits with qubit counts cycling 3, 4, 5."""
    return [mixed_circuit(rng, 3 + k % 3, with_input) for k in range(count)]


# ----------------------------------------------------------------------
# Equivalence ladder
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Rung:
    """One size on the ladder: `pure` circuits have every wire an input and
    no measurement; otherwise half the wires are measured ancillas."""

    kind: str  # "pure" | "half"
    n: int

    @property
    def name(self) -> str:
        return f"{self.kind}{self.n}"

    @property
    def modes(self) -> tuple[str, ...]:
        extra = "unitary" if self.kind == "pure" else "deferred"
        return ("channel", "oracle", extra)

    @property
    def choi_bytes(self) -> int:
        n_in = self.n if self.kind == "pure" else self.n // 2
        n_out = n_in
        d = 1 << (n_in + n_out)
        return d * d * 16


@dataclass(frozen=True)
class LadderPair:
    rung: Rung
    a: object
    b: object
    equal: bool


def _hcnot(rng: np.random.Generator, wires: list[int], count: int) -> list:
    out = []
    for _ in range(count):
        if rng.random() < 0.35:
            out.append(Gate1("H", _pick(rng, wires)))
        else:
            a, b = rng.choice(wires, size=2, replace=False)
            out.append(Gate2("CNOT", int(a), int(b)))
    return out


def _cnots(rng: np.random.Generator, wires: list[int], count: int) -> list:
    out = []
    for _ in range(count):
        a, b = rng.choice(wires, size=2, replace=False)
        out.append(Gate2("CNOT", int(a), int(b)))
    return out


def _identity_edit(rng: np.random.Generator, gates: list, wires: list[int]) -> list:
    """Two channel-preserving edits: an inserted self-inverse pair and a
    CNOT rewritten as H-conjugated reversed CNOT."""
    gates = list(gates)
    pos = int(rng.integers(len(gates) + 1))
    a, b = (int(w) for w in rng.choice(wires, size=2, replace=False))
    pair = _pick(rng, (Gate1("H", a), Gate2("CNOT", a, b)))
    gates[pos:pos] = [pair, pair]
    cnots = [k for k, g in enumerate(gates) if isinstance(g, Gate2)]
    if cnots:
        k = _pick(rng, cnots)
        c, t = gates[k].control, gates[k].target
        gates[k : k + 1] = [
            Gate1("H", c), Gate1("H", t), Gate2("CNOT", t, c), Gate1("H", c), Gate1("H", t)
        ]
    return gates


def _pure_pair(rng: np.random.Generator, n: int, equal: bool):
    qs = list(range(n))
    base = _hcnot(rng, qs, 3 * n)
    other = _identity_edit(rng, base, qs)
    if not equal:
        # Y on one wire (X then Z): U and Y_w U are never the same channel,
        # and the oracle's first probe tells them apart, since U|0..0> is a
        # real state and no real state is fixed by a single-wire Y.
        w = _pick(rng, qs)
        other += [Gate1("X", w), Gate1("Z", w)]
    mk = lambda body: circuit(n, 0, body, inputs=qs)  # noqa: E731
    return mk(base), mk(other)


def _half_pair(rng: np.random.Generator, n: int, equal: bool):
    """Data wires 0..h-1 are inputs and outputs; ancillas h..n-1 start in |0>.

    Body: CNOTs V on data, CNOT copies data -> ancilla, H on every ancilla
    then CNOTs among ancillas (every measurement outcome is then equally
    likely, so each input has 2^h branches), H/CNOT gates V2 on data, and
    finally a measurement of every ancilla. V fixes |0..0>, so for that
    input, the oracle's first probe, the output is the pure real state
    V2|0..0>, which a single-wire Y never fixes: appending Y to a data wire
    always changes the channel, and the oracle rejects at its first probe.
    """
    h = n // 2
    data, anc = list(range(h)), list(range(h, n))
    v = _cnots(rng, data, h)
    copy = [Gate2("CNOT", d, d + h) for d in data]
    w = [Gate1("H", a) for a in anc] + _cnots(rng, anc, h)
    v2 = _hcnot(rng, data, 2 * h)
    gates = v + copy + w + v2
    meas = [Measure(a, k) for k, a in enumerate(anc)]
    other = _identity_edit(rng, gates, data) + [Gate1("Z", _pick(rng, anc))]
    if not equal:
        d = _pick(rng, data)
        other += [Gate1("X", d), Gate1("Z", d)]
    mk = lambda body: circuit(  # noqa: E731
        n, h, body + meas, preps=[prep_zero(a) for a in anc], inputs=data
    )
    return mk(gates), mk(other)


LADDER = (
    Rung("pure", 4), Rung("pure", 5), Rung("pure", 6),
    Rung("pure", 7), Rung("pure", 8),
    Rung("half", 6), Rung("half", 8), Rung("half", 10),
)


def ladder_pair(rng: np.random.Generator, rung: Rung, equal: bool):
    make = _pure_pair if rung.kind == "pure" else _half_pair
    return make(rng, rung.n, equal)


def ladder_pairs(rng: np.random.Generator, rungs=LADDER):
    """One equal and one unequal pair per feasible rung, plus the refused
    rungs (Choi matrix over budget) with their computed sizes."""
    pairs, refused = [], []
    for rung in rungs:
        if rung.choi_bytes > CHOI_BUDGET_BYTES:
            refused.append(rung)
            continue
        for equal in (True, False):
            a, b = ladder_pair(rng, rung, equal)
            pairs.append(LadderPair(rung, a, b, equal))
    return pairs, refused
