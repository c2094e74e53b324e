"""Circuit equivalence: exact/phase unitary equality, channel equality by
the Frobenius distance of Choi matrices (computed from the Kraus
operators without forming either Choi matrix), and an independent
brute-force oracle over probe inputs.

The oracle runs both circuits on a fixed probe set (every basis state,
|+>, |-> and |+i> on each input wire, 20 seeded random states) and
compares, probe by probe, the outcome-marginalized output density and
the labeled distribution on report-role classical wires. The probes are
the columns of one matrix and run through the simulator's branch loop
(`sim._prepare`, `sim._branches`) as batches: probe 0 alone, so a pair
that differs there costs one column, then passes of at most 2^n_in
columns, narrowed (down to one column) when the branch states could
exceed `sim.BYTE_BUDGET`. That loop is all the oracle shares with the
channel path: it reads densities from the branch states itself and never
touches Kraus operators, `make_channel`, `extract_channel` or
`channel_equal`.
"""
from __future__ import annotations

import numpy as np

from . import sim
from .circuit import Circuit, Measure
from .sim import Channel, SQRT_HALF

UNITARY_ATOL = 1e-9
CHANNEL_ATOL = 1e-9
ORACLE_ATOL = 1e-8
_ORACLE_SEED = 20240 * 37  # fixed: oracle probes are part of the contract
_N_RANDOM_PROBES = 20
_DENSITY_CHUNK = 1 << 14  # density entries the oracle forms at a time (or one density)


class EquivalenceError(ValueError):
    """Operands are not comparable (dimension or role mismatch)."""


def unitary_equal(
    a: np.ndarray, b: np.ndarray, up_to_phase: bool = False, atol: float = UNITARY_ATOL
) -> bool:
    """Entrywise equality of two unitaries, optionally modulo global phase.

    The phase reference is the largest-magnitude entry of b, which avoids
    division by a near-zero entry.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise EquivalenceError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if up_to_phase:
        k = int(np.argmax(np.abs(b)))
        phi = a.reshape(-1)[k] / b.reshape(-1)[k]
        if abs(phi) < 1e-12:
            return False
        b = (phi / abs(phi)) * b
    return bool(np.max(np.abs(a - b)) <= atol)


def channel_equal(a: Channel, b: Channel, atol: float = CHANNEL_ATOL) -> bool:
    """Choi matrices agree to `atol` in Frobenius norm, which implies they
    agree entrywise; Kraus decompositions may differ.

    With V the vec(K) columns of a channel, Choi = V V^dag. Factoring
    [V_A V_B] = Q [R_A R_B] with orthonormal Q gives
    ||Choi_A - Choi_B||_F = ||R_A R_A^dag - R_B R_B^dag||_F, a matrix of
    side at most r_A + r_B (the Kraus counts) instead of 2^(n_in + n_out).
    """
    if a.n_in != b.n_in or a.n_out != b.n_out:
        raise EquivalenceError("channel dimension mismatch")
    r_a = len(a.kraus)
    vecs = np.concatenate([a.kraus.reshape(r_a, -1), b.kraus.reshape(len(b.kraus), -1)])
    r = np.linalg.qr(vecs.T, mode="r")
    ra, rb = r[:, :r_a], r[:, r_a:]
    return bool(np.linalg.norm(ra @ ra.conj().T - rb @ rb.conj().T) <= atol)


def probe_states(n_in: int) -> tuple[list[str], np.ndarray]:
    """Probe names and the (2^n_in, k) matrix whose columns are the probes,
    in order: the computational basis, |+>/|->/|+i> on one input wire with
    the others |0>, and 20 seeded random states."""
    dim = 1 << n_in
    names = [f"basis |{j:0{n_in}b}>" if n_in else "scalar input" for j in range(dim)]
    single = np.zeros((dim, 3 * n_in), dtype=complex)
    single[0] = SQRT_HALF
    for w in range(n_in):
        for i, (label, amp) in enumerate((("+", 1), ("-", -1), ("+i", 1j))):
            single[1 << (n_in - 1 - w), 3 * w + i] = amp * SQRT_HALF
            names.append(f"{label} on input wire {w}")
    rng = np.random.default_rng(_ORACLE_SEED)
    random = np.empty((dim, _N_RANDOM_PROBES), dtype=complex)
    for k in range(_N_RANDOM_PROBES):
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        random[:, k] = vec / np.linalg.norm(vec)
        names.append(f"random state #{k}")
    return names, np.hstack([np.eye(dim, dtype=complex), single, random])


def _pass_width(c: Circuit, n_in: int) -> int:
    """Probe columns per pass: at most 2^n_in, and few enough that the
    branch states fit `sim.BYTE_BUDGET` even if every measurement splits
    every branch (at worst one column, as a single-input run)."""
    splits = sum(isinstance(instr, Measure) for instr in c.body)
    return max(1, min(1 << n_in, sim.BYTE_BUDGET // (16 << (c.num_qubits + splits))))


def _probe_outputs(c: Circuit, columns: np.ndarray):
    """Run `c` once on every probe column through the branch loop.

    Returns the rows R, a (k, 2^n_out, m) array whose slice j gives probe
    j's outcome-marginalized output density R_j R_j^dag (one row block per
    branch and nonzero basis state of the discarded wires), and the labeled
    distribution on report-role classical wires (sorted order) as a dict
    from outcome to a (k,) array of probabilities.
    """
    n, outs = c.num_qubits, c.output_wires
    # index[o, d]: basis index with output bits o and discard bits d
    index = np.arange(1 << n).reshape([2] * n).transpose(outs + c.discard_wires)
    index = index.reshape(1 << len(outs), -1)
    reports = c.report_cbits
    rows, dist = [], {}
    for outcome, s in sim._branches(c, sim._prepare(c, columns)):
        v = s.view(float)  # real and imaginary parts side by side
        weight = np.einsum("ij,ij->i", v, v)[index].sum(axis=0)
        # a measured discard wire leaves most discard slices zero: skip them
        r = s.T[:, index[:, weight > sim.PRUNE_EPS**2]]
        rows.append(r)
        key = tuple(outcome.get(w, -1) for w in reports)
        dist[key] = dist.get(key, 0.0) + (r.real**2 + r.imag**2).sum(axis=(1, 2))
    return np.concatenate(rows, axis=2), dist


def _first_difference(out1, out2, atol: float) -> int | None:
    """First probe column whose output densities or report distributions
    differ by more than `atol` in some entry, or None."""
    (r1, d1), (r2, d2) = out1, out2
    k = len(r1)
    bad = np.zeros(k, dtype=bool)
    for key in d1.keys() | d2.keys():
        bad |= np.abs(d1.get(key, 0.0) - d2.get(key, 0.0)) > atol
    step = max(1, _DENSITY_CHUNK // r1.shape[1] ** 2)
    for j in range(0, k, step):
        a, b = r1[j : j + step], r2[j : j + step]
        diff = a @ a.conj().transpose(0, 2, 1) - b @ b.conj().transpose(0, 2, 1)
        bad[j : j + step] |= np.abs(diff).max(axis=(1, 2)) > atol
    hits = np.flatnonzero(bad)
    return int(hits[0]) if len(hits) else None


def _require_matching_roles(c1: Circuit, c2: Circuit) -> int:
    n_in1, n_in2 = len(c1.effective_inputs), len(c2.effective_inputs)
    if n_in1 != n_in2:
        raise EquivalenceError("input role mismatch")
    if len(c1.output_wires) != len(c2.output_wires):
        raise EquivalenceError("output role mismatch")
    if len(c1.report_cbits) != len(c2.report_cbits):
        raise EquivalenceError("report role mismatch")
    return n_in1


def oracle_equal(c1: Circuit, c2: Circuit, atol: float = ORACLE_ATOL) -> bool:
    """Brute-force equivalence check, independent of the Choi machinery:
    no probe in `probe_states` tells the circuits apart."""
    return distinguishing_probe(c1, c2, atol) is None


def distinguishing_probe(
    c1: Circuit, c2: Circuit, atol: float = ORACLE_ATOL
) -> str | None:
    """Name of the first probe on which the circuits differ, or None.

    Probe 0 runs alone, so a pair that differs there costs one column; the
    rest run in passes of `_pass_width` columns.
    """
    n_in = _require_matching_roles(c1, c2)
    names, probes = probe_states(n_in)
    width = min(_pass_width(c1, n_in), _pass_width(c2, n_in))
    bounds = (0, 1, *range(1 + width, len(names), width), len(names))
    for start, stop in zip(bounds, bounds[1:]):
        cols = probes[:, start:stop]
        j = _first_difference(_probe_outputs(c1, cols), _probe_outputs(c2, cols), atol)
        if j is not None:
            return names[start + j]
    return None


def states_equal_up_to_phase(
    a: np.ndarray, b: np.ndarray, atol: float = UNITARY_ATOL
) -> bool:
    k = int(np.argmax(np.abs(b)))
    if abs(b[k]) < 1e-12:
        return bool(np.max(np.abs(a - b)) <= atol)
    phi = a[k] / b[k]
    if abs(abs(phi) - 1.0) > atol:
        return False
    return bool(np.max(np.abs(a - phi * b)) <= atol)
