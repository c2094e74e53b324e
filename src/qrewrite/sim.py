"""Exact circuit execution: statevector evolution, measurement branching,
full-unitary construction, and Kraus channel extraction.

Every gate acts along axis 0 of a `(2^n,)` statevector or of a `(2^n, k)`
batch of statevector columns, so one pass over the circuit evolves a whole
input isometry. Two independent channel paths are provided:
`extract_channel` enumerates measurement branches once on the isometry,
while `channel_of_deferred` evolves the isometry through the gates of a
circuit whose measurements all sit at the end of the body. Cross checking
the two is part of the verification story. The Choi matrix is computed
only on request (`Channel.choi`); channel equality never forms it.

Every dense array the simulator allocates is checked against
`BYTE_BUDGET` first; a request over it raises `SimulationError` and
allocates nothing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuit import (
    Circuit,
    ClassicalCtrl,
    Gate1,
    Gate2,
    Instruction,
    Measure,
)

SQRT_HALF = math.sqrt(0.5)
PRUNE_EPS = 1e-12  # zero-probability branch threshold
ATOL = 1e-9  # entrywise numerical tolerance
BYTE_BUDGET = 512 * 2**20  # largest complex array the simulator allocates


class SimulationError(ValueError):
    """Circuit cannot be executed as requested."""


def _require_budget(entries: int, what: str) -> None:
    """Refuse, before allocating, an array of `entries` complex128 values
    (or a set of branch states totalling that many) over `BYTE_BUDGET`."""
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
    """Kraus operators stacked as an (r, 2^n_out, 2^n_in) array; the Choi
    matrix is derived from them on first access."""

    kraus: np.ndarray
    n_in: int
    n_out: int

    @cached_property
    def choi(self) -> np.ndarray:
        return choi_of_kraus(self.kraus)


def _bit(idx: np.ndarray, n: int, wire: int) -> np.ndarray:
    return (idx >> (n - 1 - wire)) & 1


def _wire_axes(state: np.ndarray, *wires: int) -> np.ndarray:
    """View of `state` with one length-2 axis per wire, at axes 1, 3, ... in
    ascending wire order; the last axis holds lower wires and batch columns."""
    shape: list[int] = []
    prev = -1
    for w in sorted(wires):
        shape += [1 << (w - prev - 1), 2]
        prev = w
    return state.reshape(shape + [-1])


def apply_gate(state: np.ndarray, instr: Instruction) -> np.ndarray:
    """Apply a pure gate (H/X/Z/CNOT/CZ) along axis 0 of a statevector or of
    a (2^n, k) batch of statevector columns."""
    if state.ndim not in (1, 2):
        raise SimulationError("state must be a vector or a (2^n, k) array of columns")
    n = state.shape[0].bit_length() - 1
    if 1 << n != state.shape[0]:
        raise SimulationError("state dimension is not a power of two")
    if isinstance(instr, Gate1):
        v = _wire_axes(state, instr.target)
        if instr.kind == "X":
            out = v[:, ::-1]
        elif instr.kind == "Z":
            out = v.copy()
            out[:, 1] *= -1
        else:  # H: new[w=0] = (s0 + s1) / sqrt(2), new[w=1] = (s0 - s1) / sqrt(2)
            out = np.empty_like(v)
            np.add(v[:, 0], v[:, 1], out=out[:, 0])
            np.subtract(v[:, 0], v[:, 1], out=out[:, 1])
            out *= SQRT_HALF
        return out.reshape(state.shape)
    if isinstance(instr, Gate2):
        v = _wire_axes(state, instr.control, instr.target)
        out = v.copy()
        if instr.kind == "CZ":
            out[:, 1, :, 1] *= -1
        elif instr.control < instr.target:
            out[:, 1] = v[:, 1, :, ::-1]
        else:
            out[:, :, :, 1] = v[:, ::-1, :, 1]
        return out.reshape(state.shape)
    raise SimulationError(f"not a pure gate instruction: {instr!r}")


def _apply_gates(state: np.ndarray, gates) -> np.ndarray:
    for instr in gates:
        if not isinstance(instr, (Gate1, Gate2)):
            raise SimulationError(f"non-unitary instruction {instr!r}")
        state = apply_gate(state, instr)
    return state


def _mask(n: int, wires) -> int:
    return sum(1 << (n - 1 - w) for w in wires)


def _scatter_index(n: int, wires) -> np.ndarray:
    """Full n-wire basis index of each assignment to `wires` (first wire most
    significant), with every other wire 0."""
    k = len(wires)
    sub = np.arange(1 << k)
    full = np.zeros(1 << k, dtype=np.int64)
    for pos, w in enumerate(wires):
        full |= ((sub >> (k - 1 - pos)) & 1) << (n - 1 - w)
    return full


def _prepare(c: Circuit, columns: np.ndarray | None = None) -> np.ndarray:
    """Joint state over all wires, input register tensored with the
    preparations, for each column of `columns` (shape (2^n_in, k)).

    With `columns` None the input register runs over its basis, which gives
    the circuit's (2^n, 2^n_in) input isometry.
    """
    inputs = c.effective_inputs
    n = c.num_qubits
    dim_in = 1 << len(inputs)
    k = dim_in if columns is None else columns.shape[1]
    _require_budget((1 << n) * k, "prepared state")
    if columns is None:
        columns = np.eye(dim_in, dtype=complex)

    idx = np.arange(1 << n)
    in_index = np.zeros(1 << n, dtype=np.int64)
    for pos, w in enumerate(inputs):
        in_index |= _bit(idx, n, w) << (len(inputs) - 1 - pos)
    amp = np.ones(1 << n)
    for p in c.preps:
        if p.kind == "zero":
            amp = amp * (_bit(idx, n, p.wires[0]) == 0)
        elif p.kind == "plus":
            amp = amp * SQRT_HALF
        else:  # bell pair: (|00> + |11>)/sqrt(2) on the two wires
            a, b = p.wires
            amp = amp * (_bit(idx, n, a) == _bit(idx, n, b)) * SQRT_HALF
    return amp[:, None] * columns[in_index]


def _branches(c: Circuit, state: np.ndarray) -> list[tuple[dict[int, int], np.ndarray]]:
    """The branch-enumeration loop: run the body on a prepared (2^n, k)
    state, splitting at every measurement.

    Branches stay unnormalized, so a branch's squared norm is its total
    probability over the k columns; branches under PRUNE_EPS are dropped.
    Classical outcomes are shared by all columns of a branch.
    """
    branches = [({}, state)]
    for instr in c.body:
        if isinstance(instr, (Gate1, Gate2)):
            branches = [(o, apply_gate(s, instr)) for o, s in branches]
        elif isinstance(instr, Measure):
            _require_budget(2 * len(branches) * state.size, "measurement branches")
            new_branches = []
            for outcome, s in branches:
                zero = _wire_axes(s, instr.target)  # the loop owns s: project in place
                one = zero.copy()
                one[:, 0] = 0
                zero[:, 1] = 0
                for value, proj in ((0, zero.reshape(s.shape)), (1, one.reshape(s.shape))):
                    if float(np.vdot(proj, proj).real) >= PRUNE_EPS:
                        new_branches.append(({**outcome, instr.result: value}, proj))
            branches = new_branches
        elif isinstance(instr, ClassicalCtrl):
            gate = Gate1("X" if instr.kind == "CX" else "Z", instr.target)
            for i, (outcome, s) in enumerate(branches):
                if outcome[instr.control]:
                    branches[i] = (outcome, apply_gate(s, gate))
        else:  # ClassicalXor
            for outcome, _ in branches:
                outcome[instr.out] = outcome[instr.a] ^ outcome[instr.b]
    return branches


def run(c: Circuit, input_state: np.ndarray | None = None) -> list[Branch]:
    """Execute the circuit, splitting a branch at every measurement.

    Returns all surviving branches (probability >= 1e-12); their
    probabilities sum to 1 and each state is renormalized.
    """
    dim_in = 1 << len(c.effective_inputs)
    if input_state is None:
        if c.effective_inputs:
            raise SimulationError("circuit has input wires but no input was given")
        input_state = np.ones(1, dtype=complex)
    vec = np.asarray(input_state, dtype=complex).reshape(-1)
    if vec.shape[0] != dim_in:
        raise SimulationError(f"input has dimension {vec.shape[0]}, expected {dim_in}")
    if abs(np.linalg.norm(vec) - 1.0) > ATOL:
        raise SimulationError("input state is not normalized")
    out = []
    for outcome, s in _branches(c, _prepare(c, vec[:, None])):
        s = s[:, 0]
        p = float(np.vdot(s, s).real)
        out.append(Branch(outcome, p, s / math.sqrt(p)))
    return out


def build_unitary(c: Circuit) -> np.ndarray:
    """Unitary of a pure-gate circuit: its gates applied to the identity."""
    if c.preps:
        raise SimulationError("circuit with preps is not a pure gate circuit")
    _require_budget(1 << (2 * c.num_qubits), "unitary")
    return _apply_gates(np.eye(1 << c.num_qubits, dtype=complex), c.body)


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
    completeness (sum K^dag K = I)."""
    dim_in = 1 << n_in
    kraus = np.asarray(kraus, dtype=complex).reshape(-1, 1 << n_out, dim_in)
    kraus = kraus[np.linalg.norm(kraus.reshape(len(kraus), -1), axis=1) > PRUNE_EPS]
    if not len(kraus):
        raise SimulationError("channel has no Kraus operators")
    stacked = kraus.reshape(-1, dim_in)  # rows of every K: sum K^dag K = S^dag S
    if np.max(np.abs(stacked.conj().T @ stacked - np.eye(dim_in))) > ATOL:
        raise SimulationError("Kraus completeness violated")
    return Channel(kraus, n_in, n_out)


def unitary_channel(mat: np.ndarray) -> Channel:
    n = mat.shape[0].bit_length() - 1
    return make_channel([np.array(mat, dtype=complex)], n, n)


def _restriction_indices(n: int, outs: tuple[int, ...], rest: tuple[int, ...]) -> np.ndarray:
    """index_map[o, d] = full basis index with O-bits o and rest-bits d."""
    return _scatter_index(n, outs)[:, None] | _scatter_index(n, rest)[None, :]


def extract_channel(c: Circuit) -> Channel:
    """Channel from input wires to output wires by branch enumeration.

    The circuit runs once on its input isometry. Each surviving branch,
    restricted to one basis index d of the discarded wires, is one Kraus
    operator: its rows with discard bits d. Channel equality compares the
    span these operators generate, so it does not depend on the Kraus
    decomposition.
    """
    outs = c.output_wires
    branches = _branches(c, _prepare(c))
    fi = _restriction_indices(c.num_qubits, outs, c.discard_wires)
    kraus = []
    for _, s in branches:
        # a measured discard wire leaves most d-slices zero: skip them unread
        weight = (np.linalg.norm(s, axis=1) ** 2)[fi].sum(axis=0)
        kraus.append(s[fi[:, weight > PRUNE_EPS**2]].transpose(1, 0, 2))
    return make_channel(np.concatenate(kraus), len(c.effective_inputs), len(outs))


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
    consistent = (out_full & meas_out_mask) == (label_full & meas_out_mask)
    rows = v[out_full | (label_full & disc_mask)]
    kraus = np.where(consistent[:, :, None], rows, 0)
    return make_channel(kraus, len(c.effective_inputs), len(outs))
