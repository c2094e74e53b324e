"""Circuit equivalence: exact/phase unitary equality, channel equality by
the Frobenius distance of Choi matrices (computed from the Kraus
operators without forming either Choi matrix), and an independent
brute-force oracle over probe inputs.

The oracle runs both circuits on a fixed probe set (every basis state,
|+>, |-> and |+i> on each input wire, 20 seeded random states) and
compares, probe by probe, the outcome-marginalized output state and
the labeled distribution on report-role classical wires. The probes run
through the simulator's branch loop (`sim._prepare`, `sim._branches`)
in one loop of passes, each a block of probe columns built when it runs
(`probe_columns`), so the whole probe set, 2^n_in + 3 n_in + 20
columns, is never held. Probe 0 is the first pass, alone, so a pair
that differs there costs one column and no random draws; with no input
wires it is the only probe. The rest run in one pass, halved each time
the simulator's budget check refuses it, down to one column. Where both
circuits give one pure output row per probe (one branch, no live
discarded wire), the rows are compared up to one phase per probe and no
density is formed. Only mixed outputs form densities, a few at a time,
and one density over the budget is refused. The loop and its row
readout (`sim._kraus_rows`) are all the oracle shares with the channel
path: it compares the rows itself and never touches `make_channel`,
`extract_channel`, `channel_equal` or `unitary_equal`.
"""
from __future__ import annotations

import numpy as np

from . import sim
from .circuit import Circuit
from .sim import Channel, SQRT_HALF

UNITARY_ATOL = 1e-9
CHANNEL_ATOL = 1e-9
ORACLE_ATOL = 1e-8
_ORACLE_SEED = 20240 * 37  # fixed: oracle probes are part of the contract
_N_RANDOM_PROBES = 20
_DENSITY_CHUNK = 1 << 14  # density entries the oracle forms at a time (or one density)


class EquivalenceError(ValueError):
    """Operands are not comparable (dimension or role mismatch)."""


def unitary_equal(a: np.ndarray, b: np.ndarray, up_to_phase: bool = False) -> bool:
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
    return bool(np.max(np.abs(a - b)) <= UNITARY_ATOL)


def channel_equal(a: Channel, b: Channel) -> bool:
    """Choi matrices agree to CHANNEL_ATOL in Frobenius norm, which implies they
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
    return bool(np.linalg.norm(ra @ ra.conj().T - rb @ rb.conj().T) <= CHANNEL_ATOL)


_SINGLE_AMPS = (("+", 1), ("-", -1), ("+i", 1j))


def probe_columns(n_in: int, start: int, stop: int) -> np.ndarray:
    """Columns `start` to `stop - 1` of the oracle's probe set, as a
    (2^n_in, stop - start) array checked against `sim.BYTE_BUDGET` first.
    In order, the probes are the computational basis, |+>/|->/|+i> on one
    input wire with the others |0>, and 20 seeded random states (drawn in
    order from the start, so a block holds the same states as the set)."""
    dim = 1 << n_in
    sim._require_budget(dim * (stop - start), "probe set")
    out = np.zeros((dim, stop - start), dtype=complex)
    basis = np.arange(start, min(stop, dim))
    out[basis, basis - start] = 1
    for j in range(max(start, dim), min(stop, dim + 3 * n_in)):
        w, i = divmod(j - dim, 3)
        out[0, j - start] = SQRT_HALF
        out[1 << (n_in - 1 - w), j - start] = _SINGLE_AMPS[i][1] * SQRT_HALF
    first = dim + 3 * n_in
    rng = np.random.default_rng(_ORACLE_SEED) if stop > first else None
    for j in range(first, stop):
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        if j >= start:
            out[:, j - start] = vec / np.linalg.norm(vec)
    return out


def probe_name(n_in: int, j: int) -> str:
    """Name of column j of the probe set (see `probe_columns`)."""
    dim = 1 << n_in
    if j < dim:
        return f"basis |{j:0{n_in}b}>" if n_in else "scalar input"
    w, i = divmod(j - dim, 3)
    if w < n_in:
        return f"{_SINGLE_AMPS[i][0]} on input wire {w}"
    return f"random state #{j - dim - 3 * n_in}"


def _probe_outputs(c: Circuit, columns: np.ndarray):
    """Run `c` once on every probe column through the branch loop.

    Returns the rows R, a (k, 2^n_out, m) array whose slice j gives probe
    j's outcome-marginalized output density R_j R_j^dag (one row block per
    branch and basis state of its live discarded wires, read by
    `sim._kraus_rows`), and the labeled distribution on report-role
    classical wires (sorted order) as a dict from outcome to a (k,) array
    of probabilities.
    """
    branches = sim._branches(c, sim._prepare(c, columns))
    dist = {}
    reported = branches.outcomes[:, list(c.report_cbits)].tolist()
    for key, p in zip(map(tuple, reported), branches.probabilities()):
        dist[key] = dist.get(key, 0.0) + p
    rows = sim._kraus_rows(branches, c.output_wires, c.discard_wires)  # last: it consumes the run
    r = rows.transpose(3, 0, 2, 1).reshape(rows.shape[3], len(rows), -1)
    return r, dist


def _first_difference(out1, out2) -> int | None:
    """First probe column whose outputs or report distributions differ by
    more than ORACLE_ATOL in some entry, or None.

    Where both sides give one output row per probe (pure outputs: one
    branch, no live discarded wire), each probe's rows a and b are compared
    without forming a density: b is turned by the phase of a against b's
    largest-magnitude entry, and the rows must then agree entrywise to
    ORACLE_ATOL / 2. Both rows have norm at most 1, so with a = phase b + e
    each density entry differs by at most 2 max|e|, and no pair the
    density check refuses is accepted. Otherwise the output densities are
    formed as many at a time as fit `_DENSITY_CHUNK` and the byte budget;
    one density over the budget raises `SimulationError`."""
    (r1, d1), (r2, d2) = out1, out2
    k = len(r1)
    bad = np.zeros(k, dtype=bool)
    for key in d1.keys() | d2.keys():
        bad |= np.abs(d1.get(key, 0.0) - d2.get(key, 0.0)) > ORACLE_ATOL
    if r1.shape[2] == r2.shape[2] == 1:
        a, b = r1[:, :, 0], r2[:, :, 0]
        ref = np.abs(b).argmax(axis=1)[:, None]
        phase = np.take_along_axis(a, ref, 1) * np.take_along_axis(b, ref, 1).conj()
        size = np.abs(phase)
        np.divide(phase, size, out=phase, where=size > 0)  # 0 where a is 0 there: a differs
        bad |= np.abs(a - phase * b).max(axis=1) > ORACLE_ATOL / 2
    else:
        size = r1.shape[1] ** 2
        sim._require_budget(size, "output density")
        step = max(1, min(_DENSITY_CHUNK, sim.BYTE_BUDGET // 16) // size)
        for j in range(0, k, step):
            a, b = r1[j : j + step], r2[j : j + step]
            diff = a @ a.conj().transpose(0, 2, 1) - b @ b.conj().transpose(0, 2, 1)
            bad[j : j + step] |= np.abs(diff).max(axis=(1, 2)) > ORACLE_ATOL
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


def oracle_equal(c1: Circuit, c2: Circuit) -> bool:
    """Brute-force equivalence check, independent of the Choi machinery:
    no probe of `probe_columns` tells the circuits apart."""
    return distinguishing_probe(c1, c2) is None


def distinguishing_probe(c1: Circuit, c2: Circuit) -> str | None:
    """Name of the first probe on which the circuits differ, or None.

    The probes run in blocks of columns, each built when its pass runs:
    probe 0, the basis state |0...0>, alone, so a pair that differs there
    costs one column and draws no random probe, then all the others in
    one pass, halved each time it raises `SimulationError`, down to one
    column. With no input wires every probe is a global phase of probe 0,
    so probe 0 is the only probe.
    """
    n_in = _require_matching_roles(c1, c2)
    sim._require_budget(1 << n_in, "probe state")
    count = (1 << n_in) + 3 * n_in + _N_RANDOM_PROBES if n_in else 1
    width, start, stop = count - 1, 0, 1
    while start < count:
        try:
            cols = probe_columns(n_in, start, stop)
            j = _first_difference(_probe_outputs(c1, cols), _probe_outputs(c2, cols))
        except sim.SimulationError:
            if stop - start == 1:
                raise
            width = (stop - start) // 2
            stop = start + width
            continue
        if j is not None:
            return probe_name(n_in, start + j)
        start, stop = stop, min(stop + width, count)
    return None
