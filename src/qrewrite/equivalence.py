"""Circuit equivalence: exact/phase unitary equality, channel equality by
the Frobenius distance of Choi matrices (computed from the Kraus
operators without forming either Choi matrix), and an independent
brute-force oracle over probe inputs."""
from __future__ import annotations

import numpy as np

from .circuit import Circuit
from .sim import Channel, SQRT_HALF, basis_state, reduced_density, run

UNITARY_ATOL = 1e-9
CHANNEL_ATOL = 1e-9
ORACLE_ATOL = 1e-8
_ORACLE_SEED = 20240 * 37  # fixed: oracle probes are part of the contract
_N_RANDOM_PROBES = 20


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


def _single_wire_probes(n_in: int) -> list[tuple[str, np.ndarray]]:
    plus = np.array([1, 1], dtype=complex) * SQRT_HALF
    minus = np.array([1, -1], dtype=complex) * SQRT_HALF
    plus_i = np.array([1, 1j], dtype=complex) * SQRT_HALF
    zero = np.array([1, 0], dtype=complex)
    probes = []
    for w in range(n_in):
        for name, single in (("+", plus), ("-", minus), ("+i", plus_i)):
            vec = np.ones(1, dtype=complex)
            for k in range(n_in):
                vec = np.kron(vec, single if k == w else zero)
            probes.append((f"{name} on input wire {w}", vec))
    return probes


def probe_states(n_in: int) -> list[tuple[str, np.ndarray]]:
    """Probe set: computational basis, |+>/|->/|+i> per wire, 20 seeded randoms."""
    probes: list[tuple[str, np.ndarray]] = [
        (f"basis |{j:0{n_in}b}>" if n_in else "scalar input", basis_state(n_in, j))
        for j in range(1 << n_in)
    ]
    probes.extend(_single_wire_probes(n_in))
    rng = np.random.default_rng(_ORACLE_SEED)
    for k in range(_N_RANDOM_PROBES):
        vec = rng.normal(size=1 << n_in) + 1j * rng.normal(size=1 << n_in)
        probes.append((f"random state #{k}", vec / np.linalg.norm(vec)))
    return probes


def _report_distribution(c: Circuit, branches) -> dict[tuple[int, ...], float]:
    """Probability of each labeled outcome on report-role wires (sorted order),
    marginalizing scratch wires."""
    reports = c.report_cbits
    dist: dict[tuple[int, ...], float] = {}
    for br in branches:
        key = tuple(br.outcome.get(w, -1) for w in reports)
        dist[key] = dist.get(key, 0.0) + br.probability
    return dist


def _check_probe(c1: Circuit, c2: Circuit, vec: np.ndarray, atol: float) -> bool:
    b1 = run(c1, vec)
    b2 = run(c2, vec)
    rho1 = sum(br.probability * reduced_density(br.state, c1.output_wires) for br in b1)
    rho2 = sum(br.probability * reduced_density(br.state, c2.output_wires) for br in b2)
    if np.max(np.abs(rho1 - rho2)) > atol:
        return False
    d1, d2 = _report_distribution(c1, b1), _report_distribution(c2, b2)
    for key in set(d1) | set(d2):
        if abs(d1.get(key, 0.0) - d2.get(key, 0.0)) > atol:
            return False
    return True


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
    """Brute-force equivalence check, independent of the Choi machinery.

    Runs both circuits on every probe input and compares the
    outcome-marginalized output density matrices plus the labeled
    distributions on report-role classical wires.
    """
    return distinguishing_probe(c1, c2, atol) is None


def distinguishing_probe(
    c1: Circuit, c2: Circuit, atol: float = ORACLE_ATOL
) -> str | None:
    """Name of the first probe on which the circuits differ, or None."""
    n_in = _require_matching_roles(c1, c2)
    for name, vec in probe_states(n_in):
        if not _check_probe(c1, c2, vec, atol):
            return name
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
