"""Equivalence deciders: unitary (exact / up to phase), channel, oracle."""
import dataclasses

import numpy as np
import pytest

from qrewrite import sim
from qrewrite.circuit import Gate1, Gate2, Measure, circuit, parse, prep_zero
from qrewrite.engine import RewriteError, find_matches, rewrite_at
from qrewrite.equivalence import (
    CHANNEL_ATOL,
    EquivalenceError,
    channel_equal,
    distinguishing_probe,
    oracle_equal,
    probe_states,
    unitary_equal,
)
from qrewrite.rules import CATALOG_IDS, RULES
from qrewrite.scenarios import make
from qrewrite.sim import build_unitary, channel_of_deferred, extract_channel, unitary_channel

from util import (
    kron_probe_states,
    per_probe_oracle,
    random_bindings,
    random_circuit,
    rule_pair,
)


def test_cnot_equals_h_cz_h_exactly():
    cnot = build_unitary(parse("qubits 2\ncbits 0\nCNOT q0 q1"))
    sandwich = build_unitary(parse("qubits 2\ncbits 0\nH q1\nCZ q0 q1\nH q1"))
    assert unitary_equal(cnot, sandwich)  # no phase needed


def test_cz_is_symmetric():
    a = build_unitary(parse("qubits 2\ncbits 0\nCZ q0 q1"))
    b = build_unitary(parse("qubits 2\ncbits 0\nCZ q1 q0"))
    assert unitary_equal(a, b)


def test_unitary_self_equal_and_phase():
    u = build_unitary(make("BellGenerator"))
    assert unitary_equal(u, u)
    phased = np.exp(1j * 0.7) * u
    assert not unitary_equal(u, phased)
    assert unitary_equal(u, phased, up_to_phase=True)


def test_unitary_dimension_mismatch():
    with pytest.raises(EquivalenceError):
        unitary_equal(np.eye(2), np.eye(4))


def test_up_to_phase_is_equivalence_relation_on_scenarios():
    mats = [
        build_unitary(make(n)) for n in ("XorSwap", "AltSwap", "BellGenerator", "BellDecoder")
    ]
    phases = [np.exp(1j * t) for t in (0.0, 0.3, 1.1)]
    for u in mats:
        assert unitary_equal(u, u, up_to_phase=True)  # reflexive
    for u in mats:
        for phi in phases:
            assert unitary_equal(u, phi * u, up_to_phase=True)
            assert unitary_equal(phi * u, u, up_to_phase=True)  # symmetric
    # transitive spot check
    u = mats[2]
    a, b, c = u, phases[1] * u, phases[2] * u
    assert unitary_equal(a, b, up_to_phase=True)
    assert unitary_equal(b, c, up_to_phase=True)
    assert unitary_equal(a, c, up_to_phase=True)


def test_teleportation_channel_equals_wire():
    wire = parse("qubits 1\ncbits 0\nINPUT q0")
    assert channel_equal(extract_channel(make("Teleportation")), extract_channel(wire))


def test_rule3_pair_channel_equal():
    a = parse("qubits 2\ncbits 1\nINPUT q0\nINPUT q1\nMEASURE q0 c0\nCX c0 q1")
    b = parse("qubits 2\ncbits 1\nINPUT q0\nINPUT q1\nCNOT q0 q1\nMEASURE q0 c0")
    assert channel_equal(extract_channel(a), extract_channel(b))
    assert oracle_equal(a, b)


def test_x_not_identity():
    x = parse("qubits 1\ncbits 0\nINPUT q0\nX q0")
    ident = parse("qubits 1\ncbits 0\nINPUT q0")
    assert not channel_equal(extract_channel(x), unitary_channel(np.eye(2)))
    assert not oracle_equal(x, ident)
    assert distinguishing_probe(x, ident) == "basis |0>"


def test_oracle_self_equal():
    for name in ("XorSwap", "Teleportation", "DenseFull"):
        c = make(name)
        assert oracle_equal(c, c)


def test_oracle_swap_vs_altswap():
    assert oracle_equal(make("XorSwap"), make("AltSwap"))


def test_oracle_encoder_vs_full_dense():
    assert not oracle_equal(make("DenseEncode"), make("DenseFull"))


def test_oracle_role_mismatch():
    with pytest.raises(EquivalenceError):
        oracle_equal(make("XorSwap"), make("Teleportation"))


def test_report_wires_compared_as_labeled_distributions():
    # same output state, but the reported bit differs deterministically
    a = parse("qubits 1\ncbits 1\nPREP q0 0\nREPORT c0\nMEASURE q0 c0")
    b = parse("qubits 1\ncbits 1\nPREP q0 0\nREPORT c0\nX q0\nMEASURE q0 c0\nX q0")
    assert not oracle_equal(a, b)
    # as scratch wires the outcomes are marginalized away
    a2 = parse("qubits 1\ncbits 1\nPREP q0 0\nMEASURE q0 c0")
    b2 = parse("qubits 1\ncbits 1\nPREP q0 0\nX q0\nMEASURE q0 c0\nX q0")
    assert oracle_equal(a2, b2)


def test_rule4_cz_counterexample():
    # replacing the CNOT of the XOR-substitution pattern by a CZ must break
    # the equivalence: the classical XOR no longer reproduces the statistics
    lhs = parse(
        "qubits 3\ncbits 2\nINPUT q0\nINPUT q1\nINPUT q2\n"
        "CZ q0 q1\nMEASURE q0 c0\nMEASURE q1 c1\nCX c1 q2"
    )
    rhs = parse(
        "qubits 3\ncbits 3\nINPUT q0\nINPUT q1\nINPUT q2\n"
        "MEASURE q0 c0\nMEASURE q1 c1\nXOR c0 c1 c2\nCX c2 q2"
    )
    assert not channel_equal(extract_channel(lhs), extract_channel(rhs))
    assert not oracle_equal(lhs, rhs)


def test_channel_and_oracle_agree_on_rule_samples():
    rng = np.random.default_rng(91)
    for rule_id in CATALOG_IDS:
        for _ in range(3):
            variant = str(rng.choice(RULES[rule_id].variants))
            bindings = random_bindings(rng, rule_id, variant)
            c1, c2 = rule_pair(rule_id, bindings, variant)
            ch = channel_equal(extract_channel(c1), extract_channel(c2))
            assert ch == oracle_equal(c1, c2)
            assert ch, (rule_id, variant, bindings)


def _explicit_choi(ch) -> np.ndarray:
    """Choi matrix as a sum of outer products of row-major vec(K)."""
    d = ch.kraus[0].size
    choi = np.zeros((d, d), dtype=complex)
    for k in ch.kraus:
        v = k.reshape(-1)
        choi += np.outer(v, v.conj())
    return choi


def _rule_rewrite(c):
    for rule_id in RULES:
        for m in find_matches(c, rule_id):
            try:
                return rewrite_at(c, m)
            except RewriteError:
                continue
    return None


def test_channel_equal_agrees_with_entrywise_choi_comparison():
    rng = np.random.default_rng(2024)
    verdicts = []
    for _ in range(150):
        c = random_circuit(rng, max_qubits=5, max_instructions=12, p_input=0.4)
        w = int(rng.integers(c.num_qubits))
        pauli = Gate1(str(rng.choice(["X", "Z"])), w)
        partners = [_rule_rewrite(c), dataclasses.replace(c, body=c.body + (pauli,))]
        a = extract_channel(c)
        for other in partners:
            if other is None:
                continue
            b = extract_channel(other)
            entrywise = np.max(np.abs(_explicit_choi(a) - _explicit_choi(b))) <= CHANNEL_ATOL
            assert channel_equal(a, b) == entrywise, (c, other)
            verdicts.append(entrywise)
    assert len(verdicts) >= 200
    assert sum(verdicts) >= 50 and len(verdicts) - sum(verdicts) >= 50


def test_branch_and_deferred_paths_agree_at_eight_qubits():
    # all eight wires are inputs: the Choi matrix would be 64 GiB
    rng = np.random.default_rng(8)
    body = []
    for _ in range(30):
        if rng.random() < 0.35:
            body.append(Gate1("H", int(rng.integers(8))))
        else:
            a, b = (int(w) for w in rng.choice(8, size=2, replace=False))
            body.append(Gate2("CNOT", a, b))
    c = circuit(8, 0, body, inputs=range(8))
    branch_path, unitary_path = extract_channel(c), channel_of_deferred(c)
    assert np.max(np.abs(branch_path.kraus[0] - build_unitary(c))) <= 1e-12
    assert channel_equal(branch_path, unitary_path)
    y = circuit(8, 0, body + [Gate1("X", 3), Gate1("Z", 3)], inputs=range(8))
    assert not channel_equal(branch_path, channel_of_deferred(y))


def test_probe_states_equal_the_kron_construction():
    for n_in in range(7):
        names, probes = probe_states(n_in)
        reference = kron_probe_states(n_in)
        assert names == [name for name, _ in reference]
        assert probes.shape == (1 << n_in, len(reference))
        for j, (_, vec) in enumerate(reference):
            assert np.array_equal(probes[:, j], vec), (n_in, names[j])


def _measured_ancilla_pair(rng, n: int, equal: bool):
    """H/CNOT circuits on n/2 input data wires and n/2 |0> ancillas that copy
    the data, are mixed by H and CNOT, and are measured at the end. The
    partner inserts a self-inverse pair; without `equal` it also ends in Y
    or Z on a data wire, which changes the channel unless the measurements
    dephase that wire."""
    h = n // 2
    data = list(range(h))
    gates = [Gate2("CNOT", d, d + h) for d in data] + [Gate1("H", a) for a in range(h, n)]
    for _ in range(2 * n):
        a, b = (int(w) for w in rng.choice(n, size=2, replace=False))
        gates.append(Gate1("H", a) if rng.random() < 0.3 else Gate2("CNOT", a, b))
    pos = int(rng.integers(len(gates) + 1))
    pair = Gate2("CNOT", int(rng.integers(h)), int(rng.integers(h, n)))
    other = gates[:pos] + [pair, pair] + gates[pos:]
    if not equal:
        w = int(rng.integers(h))
        other += [Gate1("X", w), Gate1("Z", w)] if rng.random() < 0.5 else [Gate1("Z", w)]
    meas = [Measure(a, k) for k, a in enumerate(range(h, n))]
    preps = [prep_zero(a) for a in range(h, n)]
    return tuple(
        circuit(n, h, body + meas, preps=preps, inputs=data) for body in (gates, other)
    )


def test_batched_oracle_agrees_with_per_probe_reference():
    rng = np.random.default_rng(4401)
    pairs = []
    for k in range(60):
        p_input = 0.0 if k % 10 == 0 else 0.4
        c = random_circuit(rng, max_qubits=4, max_instructions=10, p_input=p_input)
        if k % 3 == 0 and c.num_cbits:
            c = dataclasses.replace(c, c_roles=("report",) * c.num_cbits)
            # X around a measurement flips its reported bit, not the output
            i = next((i for i, ins in enumerate(c.body) if isinstance(ins, Measure)), None)
            if i is not None:
                x = Gate1("X", c.body[i].target)
                flipped = c.body[:i] + (x, c.body[i], x) + c.body[i + 1 :]
                pairs.append((c, dataclasses.replace(c, body=flipped)))
        w = int(rng.integers(c.num_qubits))
        pauli = Gate1(str(rng.choice(["X", "Z"])), w)
        pairs.append((c, dataclasses.replace(c, body=c.body + (pauli,))))
        other = _rule_rewrite(c)
        if other is not None:
            pairs.append((c, other))
    for n in (4, 6, 8):
        for equal in (True, False, False):
            pairs.append(_measured_ancilla_pair(rng, n, equal))
    names = []
    for a, b in pairs:
        name = distinguishing_probe(a, b)
        assert name == per_probe_oracle(a, b), (a, b)
        assert oracle_equal(a, b) == (name is None)
        names.append(name)
    n_in_zero = [a for a, _ in pairs if not a.effective_inputs]
    reported = [a for a, _ in pairs if a.report_cbits]
    later = [x for x in names if x is not None and ("wire" in x or "random" in x)]
    assert names.count(None) >= 40 and len(names) - names.count(None) >= 40
    assert len(n_in_zero) >= 6 and len(reported) >= 10 and len(later) >= 10


def test_input_free_pairs_are_decided_on_probe_zero(monkeypatch):
    # with no input wires every probe is a global phase of probe 0, so one
    # branch loop per circuit decides the pair
    widths = []
    branches = sim._branches
    monkeypatch.setattr(
        sim, "_branches", lambda c, s: widths.append(s.shape[1]) or branches(c, s)
    )
    rng = np.random.default_rng(4402)
    circuits = [random_circuit(rng, p_input=0.0) for _ in range(30)]
    assert not any(c.effective_inputs for c in circuits)
    assert all(oracle_equal(c, c) for c in circuits)
    assert widths == [1] * 60
    widths.clear()
    zero = parse("qubits 1\ncbits 0\nPREP q0 0")
    one = dataclasses.replace(zero, body=(Gate1("X", 0),))
    assert distinguishing_probe(zero, one) == "scalar input"
    assert widths == [1, 1]
    assert per_probe_oracle(zero, one) == "scalar input"


def test_oracle_narrows_passes_to_fit_the_byte_budget(monkeypatch):
    a, equal_b = _measured_ancilla_pair(np.random.default_rng(6), 6, equal=True)
    _, b = _measured_ancilla_pair(np.random.default_rng(6), 6, equal=False)
    # worst case for one column: every one of the 3 measurements splits
    monkeypatch.setattr(sim, "BYTE_BUDGET", 16 << (6 + 3))
    _, probes = probe_states(3)
    with pytest.raises(sim.SimulationError):
        sim._branches(a, sim._prepare(a, probes[:, :8]))
    for other in (b, equal_b):
        assert distinguishing_probe(a, other) == per_probe_oracle(a, other)
    assert oracle_equal(a, equal_b)
    assert not oracle_equal(a, b)
