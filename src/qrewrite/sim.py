"""Exact circuit execution: statevector evolution, measurement branching,
full-unitary construction, and Kraus channel extraction.

Every gate acts along axis 0 of a `(2^n,)` statevector or of a `(2^n, k)`
batch of statevector columns, so one pass over the circuit evolves a whole
input isometry. Gates act on an array the loop owns (`_gate`):
`_apply_gates` copies its input once, C-ordered, and the branch loop owns
its state. Z, CNOT and CZ change it in place, with at most a quarter-size
temporary (CNOT's swap); X and H return a new state-size array. The public
`apply_gate` still returns a new array and never changes its argument.

Measurement branching (`_branches`) keeps every branch in one array. A
measured wire leaves the state: each branch records its value, and the
live (unmeasured) wires, the same on every branch, index the rows of one
`(2^L, B*k)` array whose column blocks are the B branches. A measurement
splits the rows into two half-size blocks, so the array never grows
there. A later gate on a measured wire acts on its recorded value (X flips
it, Z is a sign, a measured control picks the branches a gate acts on).
Only H on a measured wire, or a CNOT onto it from a live control, brings
the wire back and doubles the array.

Two independent channel paths are provided: `extract_channel` enumerates
measurement branches once on the isometry, while `channel_of_deferred`
evolves the isometry through the gates of a circuit whose measurements all
sit at the end of the body. Cross checking the two is part of the
verification story. The Choi matrix is computed only on request
(`Channel.choi`); channel equality never forms it.

The joint state is one tensor with an axis per wire. `_prepare` builds
it from the input columns and each prep's vector, put in wire order by
one transpose, and `_kraus_rows` reads every Kraus row of a run by one
transpose of the branch state's wire axes, after it brings each measured
output wire back into the state as its value. So a state has at most
n + 2 axes, within numpy's limit of 32 for any n the budget allows. Only
`channel_of_deferred` reads through index tables.

Every gate and prep of the circuit language is a real matrix in the
computational basis, so the dtype follows the data: a circuit's isometry,
its branches, its Kraus operators and its unitary are float64, and an
array is complex128 only where a caller passes complex columns (`run`'s
input state, the oracle's probes).

Every dense array the simulator allocates is checked against
`BYTE_BUDGET` first: the prepared state, the branch array before each
split and each re-expansion, the Kraus rows with measured output wires
brought back (for `run`, every branch's state, taken together) and the
Kraus operators of `channel_of_deferred`. A request over it raises
`SimulationError` and allocates nothing.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuit import (
    Circuit,
    ClassicalCtrl,
    ClassicalXor,
    Gate1,
    Gate2,
    Instruction,
    Measure,
    WRITES,
)

SQRT_HALF = math.sqrt(0.5)
PRUNE_EPS = 1e-12  # zero-probability branch threshold
ATOL = 1e-9  # entrywise numerical tolerance
BYTE_BUDGET = 512 * 2**20  # largest array allocated, at 16 bytes an entry for any dtype
# |0>, |1>, |+> and |->, keyed by the names `circuit.wire_state_before` returns
STATE_VECTORS = {
    "zero": np.array([1.0, 0.0]),
    "one": np.array([0.0, 1.0]),
    "plus": np.array([SQRT_HALF, SQRT_HALF]),
    "minus": np.array([SQRT_HALF, -SQRT_HALF]),
}
_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0]])  # H without its 1/sqrt(2)


class SimulationError(ValueError):
    """Circuit cannot be executed as requested."""


def _require_budget(entries: int, what: str) -> None:
    """Refuse, before allocating, an array of `entries` values over
    `BYTE_BUDGET`; arrays that are returned or held together, such as
    `run`'s branch states, count as one. Every entry counts as 16 bytes, a
    complex128, even in a float64 array, so each refusal threshold and
    message is the same for real and complex data."""
    nbytes = entries * 16
    if nbytes > BYTE_BUDGET:
        raise SimulationError(
            f"{what} needs {nbytes} bytes, over the {BYTE_BUDGET}-byte budget"
        )


@dataclass
class Branch:
    """One measurement outcome path: classical assignments, cumulative
    probability, and the renormalized post-measurement state."""

    outcome: dict[int, int]
    probability: float
    state: np.ndarray


@dataclass
class Channel:
    """Kraus operators stacked as an (r, 2^n_out, 2^n_in) array, float64
    for every circuit (complex128 only if built from complex operators);
    the Choi matrix is derived from them on first access."""

    kraus: np.ndarray
    n_in: int
    n_out: int

    @cached_property
    def choi(self) -> np.ndarray:
        return choi_of_kraus(self.kraus)


def _wire_axes(state: np.ndarray, *wires: int) -> np.ndarray:
    """View of `state` with one length-2 axis per wire, at axes 1, 3, ... in
    ascending wire order; the last axis holds lower wires and batch columns."""
    shape: list[int] = []
    prev = -1
    for w in sorted(wires):
        shape += [1 << (w - prev - 1), 2]
        prev = w
    return state.reshape(shape + [-1])


def _gate(v: np.ndarray, instr: Gate1 | Gate2) -> np.ndarray:
    """Apply a pure gate along axis 0 of `v`, a C-ordered array the caller
    owns. Z, CNOT and CZ act in place and return `v`; X and H return a new
    C-ordered array of the state's size, which is faster than swapping or
    mixing the halves in place. X copies a reversed view. H is one product
    of the sign matrix `_SIGNS` with the wire's axis, then one scale by
    SQRT_HALF: every sign is +-1, so each entry is s0 + s1 or s0 - s1,
    rounded once, as an elementwise sum gives it."""
    kind = instr.kind
    if type(instr) is Gate1:
        if kind == "H":  # real and imaginary parts alike, through a float view
            out = np.matmul(_SIGNS, _wire_axes(v.view(float), instr.target))
            out *= SQRT_HALF
            return out.view(v.dtype).reshape(v.shape)
        s = _wire_axes(v, instr.target)
        if kind == "X":
            return s[:, ::-1].copy().reshape(v.shape)
        s[:, 1] *= -1  # Z
        return v
    s = _wire_axes(v, instr.control, instr.target)
    if kind == "CZ":
        s[:, 1, :, 1] *= -1
    else:  # CNOT: swap the target's two values where the control is 1
        if instr.control < instr.target:
            a, b = s[:, 1, :, 0], s[:, 1, :, 1]
        else:
            a, b = s[:, 0, :, 1], s[:, 1, :, 1]
        quarter = a.copy()
        a[...] = b
        b[...] = quarter
    return v


def apply_gate(state: np.ndarray, instr: Instruction) -> np.ndarray:
    """Apply a pure gate (H/X/Z/CNOT/CZ) along axis 0 of a statevector or of
    a (2^n, k) batch of statevector columns. Returns a new array, float64
    for a real `state` and complex128 for a complex one; `state` is not
    changed."""
    if state.ndim not in (1, 2):
        raise SimulationError("state must be a vector or a (2^n, k) array of columns")
    n = state.shape[0].bit_length() - 1
    if 1 << n != state.shape[0]:
        raise SimulationError("state dimension is not a power of two")
    return _apply_gates(state, (instr,))


def _apply_gates(state: np.ndarray, gates) -> np.ndarray:
    """`gates` applied in turn along axis 0 of one C-ordered copy of
    `state` by `_gate`; `state` is not changed. The order matters:
    an F-ordered copy would make `_wire_axes` reshape to a copy, and every
    write would be lost."""
    v = np.array(state, dtype=np.result_type(state, float), order="C")
    for instr in gates:
        if not isinstance(instr, (Gate1, Gate2)):
            raise SimulationError(f"non-unitary instruction {instr!r}")
        v = _gate(v, instr)
    return v


def _mask(n: int, wires) -> int:
    return sum(1 << (n - 1 - w) for w in wires)


def _scatter_index(n: int, wires) -> np.ndarray:
    """Full n-wire basis index of each assignment to `wires` (first wire most
    significant), with every other wire 0. Each wire doubles the table, so
    building it costs O(2^len(wires))."""
    full = np.zeros(1, dtype=np.int64)
    for w in wires:
        full = (full[:, None] | np.array([0, 1 << (n - 1 - w)], dtype=np.int64)).reshape(-1)
    return full


def _prepare(c: Circuit, columns: np.ndarray | None = None) -> np.ndarray:
    """(2^n, k) joint state over the n wires, wire 0 most significant: the
    input register (first input most significant) in each column of
    `columns` (shape (2^n_in, k); its basis if None, which gives the
    circuit's input isometry), tensored with each prep's vector. Its size
    is checked against `BYTE_BUDGET` first, and one transpose puts the
    preps' outer product with the columns in wire order.
    """
    n, inputs = c.num_qubits, c.effective_inputs
    k = 1 << len(inputs) if columns is None else columns.shape[1]
    _require_budget((1 << n) * k, "prepared state")
    if columns is None:
        columns = np.eye(1 << len(inputs))
    bell = np.array([SQRT_HALF, 0, 0, SQRT_HALF])  # (|00> + |11>)/sqrt(2)
    amp, order = np.ones(1), []
    for p in c.preps:
        amp = np.outer(amp, bell if p.kind == "bell" else STATE_VECTORS[p.kind]).reshape(-1)
        order += p.wires
    t = np.multiply.outer(amp, columns).reshape([2] * n + [k])
    return t.transpose(list(np.argsort(order + list(inputs))) + [n]).reshape(1 << n, k)


class _Branches:
    """Every branch of a run, as column blocks of one array over the live
    wires (see the module docstring).

    `state` is (2^L, B*k) over the L wires of `live` (ascending, first
    most significant); branch b is its columns b*k .. b*k + k - 1,
    unnormalized, so a block's squared norm is the branch's probability
    summed over the k input columns. `fixed[b, w]` is branch b's value of
    measured wire w (0 while w is live) and `outcomes[b, j]` its value of
    classical wire j (-1 while unassigned). The loop owns `state`, a
    C-ordered array (`_apply_gates`' copy, then the arrays it builds), and
    gates change it in place or replace it (`_gate`); a gate on some
    branches acts on a copy of their blocks, written back.
    """

    __slots__ = ("live", "at", "state", "k", "fixed", "outcomes")

    def __init__(self, c: Circuit, state: np.ndarray):
        self.state, self.k = state, state.shape[1]
        self.fixed = np.zeros((1, c.num_qubits), dtype=np.int64)
        self.outcomes = np.full((1, c.num_cbits), -1, dtype=np.int64)
        self._relive(list(range(c.num_qubits)))

    def _relive(self, live: list[int]) -> None:
        self.live = live
        self.at = {w: p for p, w in enumerate(live)}  # wire -> row axis

    def _blocks(self) -> np.ndarray:
        """`state` as (2^L, B, k)."""
        return self.state.reshape(len(self.state), len(self.fixed), self.k)

    def gate(self, instr: Gate1 | Gate2, on: np.ndarray | None = None) -> None:
        """Apply a pure gate on the branches in the (B,) mask `on` (all if
        None). A measured control makes it a gate on the branches where
        the control is 1; on a measured wire, X flips the value, Z is a
        sign, and H brings the wire back, as does a CNOT onto it from a
        live control."""
        at, kind, t = self.at, instr.kind, instr.target
        if type(instr) is Gate2:
            c = instr.control
            if kind == "CZ" and t not in at:
                c, t = t, c  # CZ is symmetric: let a measured wire control
            if c in at:
                if t not in at:
                    self._expand(t, hadamard=False)
                local = Gate2(kind, self.at[c], self.at[t])
                return self._on_branches(on, lambda s: _gate(s, local))
            one = self.fixed[:, c] == 1
            on = one if on is None else on & one
            kind = "X" if kind == "CNOT" else "Z"
        if t in at:
            local = Gate1(kind, at[t])
            self._on_branches(on, lambda s: _gate(s, local))
        elif kind == "H":  # never masked: H is not classically controlled
            self._expand(t, hadamard=True)
        elif kind == "X":
            self.fixed[slice(None) if on is None else on, t] ^= 1
        else:
            one = self.fixed[:, t] == 1
            self._on_branches(one if on is None else on & one, np.negative)

    def _on_branches(self, on: np.ndarray | None, fn) -> None:
        """Replace the blocks of the branches in mask `on` (all if None) by
        `fn` of them, a function of a C-ordered (2^L, j) array that may
        change it in place: `state` itself, or a copy of those blocks."""
        sel = None if on is None else np.flatnonzero(on)
        if sel is None or len(sel) == len(on):
            self.state = fn(self.state)
        elif len(sel):
            blocks = self._blocks()
            rows = len(blocks)
            part = fn(blocks.take(sel, axis=1).reshape(rows, -1))
            blocks[:, sel] = part.reshape(rows, len(sel), self.k)
            self.state = blocks.reshape(rows, -1)

    def _expand(self, w: int, hadamard: bool) -> None:
        """Bring measured wire w back into the state: as H of its value on
        each branch, or (not `hadamard`) as its value."""
        _require_budget(2 * self.state.size, "re-expanded branch state")
        p = bisect_left(self.live, w)
        rows, f = len(self.state), self.fixed[:, w]
        old = self.state.reshape(1 << p, rows >> p, len(f), self.k)
        new = np.empty((1 << p, 2, rows >> p, len(f), self.k), dtype=self.state.dtype)
        if hadamard:
            np.multiply(old, SQRT_HALF, out=new[:, 0])
            np.multiply(new[:, 0], (1 - 2 * f)[:, None], out=new[:, 1])
        else:
            np.multiply(old, (f == 0)[:, None], out=new[:, 0])
            np.multiply(old, (f == 1)[:, None], out=new[:, 1])
        self.fixed[:, w] = 0
        self.state = new.reshape(2 * rows, -1)
        self._relive(self.live[:p] + [w] + self.live[p:])

    def measure(self, w: int, result: int) -> None:
        """Measure wire w into classical wire `result`: a live wire splits
        every branch in two half-size blocks (value 0 first), dropping
        blocks under PRUNE_EPS; a measured one reads its value."""
        if w not in self.at:
            self.outcomes[:, result] = self.fixed[:, w]
            return
        _require_budget(self.state.size, "measurement branches")
        p, rows, count, k = self.at[w], len(self.state), len(self.fixed), self.k
        shape = (1 << p, 2, rows >> (p + 1), count, -1)
        parts = self.state.view(float).reshape(shape)  # any imaginary part beside the real
        weight = np.einsum("abcde,abcde->db", parts, parts)  # (branch, value)
        kb, kv = np.nonzero(weight >= PRUNE_EPS)
        halves = self.state.reshape(shape[:-1] + (k,)).transpose(0, 2, 3, 1, 4)
        if len(kb) < 2 * count:
            halves = halves[:, :, kb, kv]
        self.state = np.ascontiguousarray(halves).reshape(rows >> 1, -1)
        self.fixed, self.outcomes = self.fixed[kb], self.outcomes[kb]
        self.fixed[:, w] = self.outcomes[:, result] = kv
        self._relive(self.live[:p] + self.live[p + 1 :])

    def probabilities(self) -> np.ndarray:
        """(B, k): each branch's probability for each input column."""
        parts = self.state.view(float)
        sq = np.einsum("ij,ij->j", parts, parts)
        return sq.reshape(len(self.fixed), self.k, -1).sum(axis=2)


def _branches(c: Circuit, state: np.ndarray) -> _Branches:
    """The branch-enumeration loop: run the body on a prepared (2^n, k)
    state, splitting at every measurement, with every branch a column
    block of one array over the live wires (`_Branches`).

    Up to the first measurement the body runs as plain gates on the whole
    state, at the cost of a circuit with no measurement; from there on,
    each instruction acts on all branches at once. The byte budget is
    checked before every split and every re-expansion.
    """
    body = c.body
    first = next((i for i, ins in enumerate(body) if type(ins) is Measure), len(body))
    branches = _Branches(c, _apply_gates(state, body[:first]))
    for instr in body[first:]:
        cls = type(instr)
        if cls is Measure:
            branches.measure(instr.target, instr.result)
        elif cls is ClassicalCtrl:
            gate = Gate1("X" if instr.kind == "CX" else "Z", instr.target)
            branches.gate(gate, branches.outcomes[:, instr.control] == 1)
        elif cls is ClassicalXor:
            out = branches.outcomes
            out[:, instr.out] = out[:, instr.a] ^ out[:, instr.b]
        else:
            branches.gate(instr)
    return branches


def run(c: Circuit, input_state: np.ndarray | None = None) -> list[Branch]:
    """Execute the circuit, splitting a branch at every measurement.

    Returns all surviving branches (probability >= 1e-12); their
    probabilities sum to 1 and each state is renormalized. The states are
    the rows `_kraus_rows` reads with every wire an output, so together
    they are checked against `BYTE_BUDGET` before they are allocated; each
    is a row of that one array, normalized in place. An input with a NaN
    or infinite amplitude, or not of norm 1, raises `SimulationError`.
    """
    dim_in = 1 << len(c.effective_inputs)
    if input_state is None:
        if c.effective_inputs:
            raise SimulationError("circuit has input wires but no input was given")
        input_state = np.ones(1, dtype=complex)
    vec = np.asarray(input_state, dtype=complex).reshape(-1)
    if vec.shape[0] != dim_in:
        raise SimulationError(f"input has dimension {vec.shape[0]}, expected {dim_in}")
    if not np.isfinite(vec).all():
        raise SimulationError("input state has a non-finite amplitude")
    if abs(np.linalg.norm(vec) - 1.0) > ATOL:
        raise SimulationError("input state is not normalized")
    branches = _branches(c, _prepare(c, vec[:, None]))
    states = _kraus_rows(branches, range(c.num_qubits), ())[:, 0, :, 0].T
    cbits = [getattr(i, WRITES[type(i)]) for i in c.body if type(i) in WRITES]
    out = []
    for s, outcome in zip(states, branches.outcomes.tolist()):
        flat = np.ascontiguousarray(s)  # so vdot sums it as it sums a lone column
        p = float(np.vdot(flat, flat).real)
        s /= math.sqrt(p)
        out.append(Branch({j: outcome[j] for j in cbits}, p, s))
    return out


def build_unitary(c: Circuit) -> np.ndarray:
    """Unitary of a pure-gate circuit: its gates applied to the identity."""
    if c.preps:
        raise SimulationError("circuit with preps is not a pure gate circuit")
    _require_budget(1 << (2 * c.num_qubits), "unitary")
    return _apply_gates(np.eye(1 << c.num_qubits), c.body)


# ----------------------------------------------------------------------
# Channels
# ----------------------------------------------------------------------


def choi_of_kraus(kraus: np.ndarray) -> np.ndarray:
    """Sum over Kraus operators of vec(K) vec(K)^dag, vec taken row-major."""
    kraus = np.asarray(kraus)
    d = kraus[0].size
    _require_budget(d * d, "Choi matrix")
    vecs = kraus.reshape(len(kraus), d)
    return vecs.T @ vecs.conj()


def make_channel(kraus: np.ndarray | list[np.ndarray], n_in: int, n_out: int) -> Channel:
    """Assemble a channel, pruning negligible Kraus terms and checking
    completeness (sum K^dag K = I). Real operators stay real (float64);
    complex ones stay complex128."""
    dim_in = 1 << n_in
    kraus = np.asarray(kraus)
    kraus = kraus.astype(np.result_type(kraus, float), copy=False).reshape(-1, 1 << n_out, dim_in)
    kraus = kraus[np.linalg.norm(kraus.reshape(len(kraus), -1), axis=1) > PRUNE_EPS]
    if not len(kraus):
        raise SimulationError("channel has no Kraus operators")
    stacked = kraus.reshape(-1, dim_in)  # rows of every K: sum K^dag K = S^dag S
    if np.max(np.abs(stacked.conj().T @ stacked - np.eye(dim_in))) > ATOL:
        raise SimulationError("Kraus completeness violated")
    return Channel(kraus, n_in, n_out)


def unitary_channel(mat: np.ndarray) -> Channel:
    n = mat.shape[0].bit_length() - 1
    return make_channel([mat], n, n)


def _kraus_rows(branches: _Branches, outs, discards) -> np.ndarray:
    """Rows of every Kraus operator of a finished run, from the wires
    `outs` (in that order) tracing out `discards`, as a (2^len(outs), 2^D,
    B, k) array: entry [o, d, b] is row o of branch b's operator for basis
    state d of the D live discarded wires. This consumes the run.

    A measured discarded wire has one value per branch, so it needs no
    slice. A measured output wire is brought back into the state as its
    value (`_Branches._expand`, as a CNOT onto it does), after the grown
    state is checked against `BYTE_BUDGET`; then one transpose of the
    state's wire axes reads every row.
    """
    measured = [w for w in outs if w not in branches.at]
    _require_budget(branches.state.size << len(measured), "output rows")
    for w in measured:
        branches._expand(w, hadamard=False)
    at, count, k = branches.at, len(branches.fixed), branches.k
    axes = [at[w] for w in outs] + [at[w] for w in discards if w in at]
    t = branches.state.reshape([2] * len(at) + [count, k])
    rows = t.transpose(axes + [len(at), len(at) + 1])
    return rows.reshape(1 << len(outs), 1 << (len(axes) - len(outs)), count, k)


def extract_channel(c: Circuit) -> Channel:
    """Channel from input wires to output wires by branch enumeration.

    The circuit runs once on its input isometry. Each surviving branch,
    restricted to one basis state d of its live discarded wires, is one
    Kraus operator (`_kraus_rows`). Channel equality compares the span
    these operators generate, so it does not depend on the Kraus
    decomposition.
    """
    rows = _kraus_rows(_branches(c, _prepare(c)), c.output_wires, c.discard_wires)
    kraus = rows.transpose(2, 1, 0, 3).reshape(-1, len(rows), rows.shape[3])
    return make_channel(kraus, len(c.effective_inputs), len(c.output_wires))


def channel_of_deferred(c: Circuit) -> Channel:
    """Channel of a circuit whose body is pure gates followed only by
    measurements (the Rule III canonical form), via one gate pass over the
    input isometry.

    This is an independent code path from `extract_channel`: no branch
    enumeration, one isometry evolution plus index arithmetic.
    """
    n = c.num_qubits
    split = len(c.body)
    for i, instr in enumerate(c.body):
        if isinstance(instr, Measure):
            split = i
            break
    gates, tail = c.body[:split], c.body[split:]
    measured: list[int] = []
    for instr in tail:
        if not isinstance(instr, Measure):
            raise SimulationError("body is not gates followed by measurements")
        if instr.target in measured:
            raise SimulationError("wire measured twice in deferred form")
        measured.append(instr.target)

    outs, disc = c.output_wires, c.discard_wires
    v = _apply_gates(_prepare(c), gates)

    # One Kraus operator per assignment to the measured wires and the
    # unmeasured discards. Its row o reads the isometry at o's output bits
    # plus the assignment's discard bits, and is zero unless o agrees with
    # the assignment on measured output wires.
    m_sorted = tuple(sorted(measured))
    labels = m_sorted + tuple(w for w in disc if w not in m_sorted)
    label_full = _scatter_index(n, labels)[:, None]
    out_full = _scatter_index(n, outs)[None, :]
    disc_mask = _mask(n, disc)
    meas_out_mask = _mask(n, (w for w in m_sorted if w in outs))
    _require_budget((v.shape[1] << len(labels)) << len(outs), "deferred Kraus operators")
    consistent = (out_full & meas_out_mask) == (label_full & meas_out_mask)
    rows = v[out_full | (label_full & disc_mask)]
    kraus = np.where(consistent[:, :, None], rows, 0)
    return make_channel(kraus, len(c.effective_inputs), len(outs))
