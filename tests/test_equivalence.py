"""Equivalence deciders: unitary (exact / up to phase), channel, oracle."""
import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from qrewrite import equivalence, sim
from qrewrite.circuit import Gate1, Gate2, Measure, circuit, parse, prep_zero
from qrewrite.engine import RewriteError, find_matches, rewrite_at
from qrewrite.equivalence import (
    CHANNEL_ATOL,
    ORACLE_ATOL,
    EquivalenceError,
    channel_equal,
    distinguishing_probe,
    oracle_equal,
    probe_columns,
    probe_name,
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

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def _kraus_set(rng, r: int, d_out: int, d_in: int, real: bool) -> np.ndarray:
    """r Kraus operators of a random channel: a random isometry, cut into
    r blocks of rows."""
    shape = (r * d_out, d_in)
    m = rng.normal(size=shape) if real else rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return np.linalg.qr(m)[0].reshape(r, d_out, d_in)


def _remixed(rng, kraus: np.ndarray, pad: int, real: bool) -> np.ndarray:
    """The same channel by other operators: `kraus` padded with `pad` zero
    operators, mixed by a random orthogonal (`real`) or unitary matrix,
    then padded with `pad` zero operators again."""
    zeros = np.zeros((pad,) + kraus.shape[1:])
    padded = np.concatenate([kraus, zeros])
    u = _kraus_set(rng, 1, len(padded), len(padded), real)[0]
    return np.concatenate([np.tensordot(u, padded, axes=1), zeros])


def _channel(kraus: np.ndarray) -> sim.Channel:
    """A channel of exactly these operators: `make_channel` would prune the
    zero ones."""
    d_out, d_in = kraus.shape[1:]
    return sim.Channel(kraus, d_in.bit_length() - 1, d_out.bit_length() - 1)


def _remixed_pairs(rng):
    for real in (True, False):
        for r, d_out, d_in in ((1, 2, 2), (3, 4, 2), (4, 8, 4), (2, 16, 16)):
            kraus = _kraus_set(rng, r, d_out, d_in, real)
            for pad in (0, 2, 5):
                yield _channel(kraus), _channel(_remixed(rng, kraus, pad, not real))


def _rank_deficient_pairs(rng):
    # V_A with a duplicated pair of columns and zero columns, against a
    # full-rank V_B of the same channel and of other channels; with 2 and
    # 4 operators of a one-qubit channel, V_A has more columns than rows
    for r, d in ((2, 2), (4, 2), (3, 4)):
        kraus = _kraus_set(rng, r, d, d, real=True)
        half = kraus[:1] * np.sqrt(0.5)
        deficient = _channel(np.concatenate([half, kraus[1:], half, np.zeros((2, d, d))]))
        yield deficient, _channel(kraus)
        yield deficient, _channel(_remixed(rng, kraus, 1, real=False))
        yield deficient, _channel(_kraus_set(rng, r, d, d, real=True))
        yield deficient, _channel(_kraus_set(rng, r + 1, d, d, real=False))


def _unequal_count_pairs(rng):
    for r, d_out, d_in in ((1, 4, 4), (2, 4, 2), (3, 8, 8)):
        kraus = _kraus_set(rng, r, d_out, d_in, real=True)
        yield _channel(kraus), _channel(_remixed(rng, kraus, r + 1, real=True))
        for other in (r + 1, 2 * r + 3):
            yield _channel(kraus), _channel(_kraus_set(rng, other, d_out, d_in, real=True))


def _near_tolerance_pairs(rng):
    # B = A + a small change out of A's span (the residual E) or within
    # it, scaled to a Choi distance of 0.3 and 3 times CHANNEL_ATOL
    for r, d_out, d_in in ((2, 4, 4), (3, 8, 4)):
        kraus = _kraus_set(rng, r, d_out, d_in, real=False)
        for step in (rng.normal(size=kraus.shape), kraus[::-1]):
            unit = np.linalg.norm(sim.choi_of_kraus(kraus + 1e-6 * step) - sim.choi_of_kraus(kraus))
            for ratio in (0.3, 3.0):
                moved = kraus + (ratio * CHANNEL_ATOL * 1e-6 / unit) * step
                yield _channel(kraus), _channel(moved)
    # two tiny maps (not channels) on orthogonal rows, so P = 0 and
    # ||E^dag E|| alone is B's Choi norm: 0.1 CHANNEL_ATOL against 0.3 and
    # 3 times it
    row = np.zeros((1, 2, 2))
    row[0, 0] = rng.normal(size=2)
    for ratio in (0.3, 3.0):
        other = np.roll(row, 1, axis=1) * np.sqrt(ratio * CHANNEL_ATOL) / np.linalg.norm(row)
        yield _channel(row * np.sqrt(0.1 * CHANNEL_ATOL) / np.linalg.norm(row)), _channel(other)


def _half10_pairs(rng):
    # the channels the benchmark's equivalence ladder decides on its
    # largest rung, with its seed 1: the equal and the unequal pair, by
    # both channel paths, and each circuit's two paths against each other
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # its dataclasses look their module up
    try:
        spec.loader.exec_module(gen)
    finally:
        del sys.modules[spec.name]
    pairs, _ = gen.ladder_pairs(np.random.default_rng(1))
    for p in pairs:
        if p.rung.name == "half10":
            for path in (extract_channel, channel_of_deferred):
                yield path(p.a), path(p.b)
            yield extract_channel(p.b), channel_of_deferred(p.b)


@pytest.mark.parametrize("pairs, equal, unequal", [
    (_remixed_pairs, 24, 0),
    (_rank_deficient_pairs, 6, 6),
    (_unequal_count_pairs, 3, 6),
    (_near_tolerance_pairs, 5, 5),
    (_half10_pairs, 4, 2),
], ids=["remixed and padded", "rank-deficient", "unequal counts", "near the tolerance", "half10"])
def test_channel_equal_agrees_with_the_choi_distance_in_both_orders(pairs, equal, unequal, monkeypatch):
    # `channel_equal` factors its first argument only, so each pair is
    # decided both ways, against the Frobenius distance of the two Choi
    # matrices formed entry by entry
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    verdicts = []
    for a, b in pairs(np.random.default_rng(2727)):
        want = bool(np.linalg.norm(sim.choi_of_kraus(a.kraus) - sim.choi_of_kraus(b.kraus)) <= CHANNEL_ATOL)
        assert channel_equal(a, b) == want and channel_equal(b, a) == want, (a.kraus.shape, b.kraus.shape)
        verdicts.append(want)
    assert (sum(verdicts), len(verdicts) - sum(verdicts)) == (equal, unequal)


def _as_complex(ch: sim.Channel) -> sim.Channel:
    return sim.Channel(ch.kraus.astype(complex), ch.n_in, ch.n_out)


def test_channel_equal_gives_one_verdict_for_real_and_complex_operators():
    # every circuit's channel is real; its complex cast, on either side or
    # both, must not change a verdict
    rng = np.random.default_rng(2525)
    verdicts = []
    for _ in range(150):
        c = random_circuit(rng, max_qubits=5, max_instructions=12, p_input=0.4)
        w = int(rng.integers(c.num_qubits))
        pauli = Gate1(str(rng.choice(["X", "Z"])), w)
        partners = [_rule_rewrite(c), dataclasses.replace(c, body=c.body + (pauli,))]
        a = extract_channel(c)
        assert a.kraus.dtype == np.float64
        assert channel_equal(a, _as_complex(a)) and channel_equal(_as_complex(a), a)
        for other in partners:
            if other is None:
                continue
            b = extract_channel(other)
            verdict = channel_equal(a, b)
            for x in (a, _as_complex(a)):
                for y in (b, _as_complex(b)):
                    assert channel_equal(x, y) == verdict, (c, other)
            verdicts.append(verdict)
    assert sum(verdicts) >= 50 and len(verdicts) - sum(verdicts) >= 50


def test_real_and_complex_unitary_channels_meet_extracted_ones():
    one = "qubits 1\ncbits 0\nINPUT q0\n"
    wire = extract_channel(parse(one + "H q0\nH q0"))
    flip = extract_channel(parse(one + "X q0"))
    phase = extract_channel(parse(one + "Z q0"))
    for u in (np.eye(2), np.eye(2, dtype=complex), 1j * np.eye(2)):
        ch = unitary_channel(u)
        assert ch.kraus.dtype == u.dtype
        assert channel_equal(ch, wire) and channel_equal(wire, ch)
        assert not channel_equal(ch, flip) and not channel_equal(flip, ch)
    s_gate = unitary_channel(np.diag([1, 1j]))
    assert not channel_equal(s_gate, phase) and not channel_equal(phase, wire)
    assert channel_equal(unitary_channel(np.diag([1.0, -1.0])), phase)


def test_a_perturbation_is_judged_alike_whether_real_or_imaginary():
    # one zero entry of the measured wire's |0><0| moved by a real or a
    # purely imaginary amount moves the Choi matrix by sqrt(2) times it in
    # Frobenius norm: within CHANNEL_ATOL at half of it, past it at twice.
    # An imaginary amount makes the operators complex, so that verdict runs
    # the complex path and must see it
    measured = extract_channel(parse("qubits 1\ncbits 1\nINPUT q0\nOUTPUT q0\nMEASURE q0 c0"))
    assert measured.kraus.dtype == np.float64 and measured.kraus[0, 0, 1] == 0
    for scale, equal in ((0.5, True), (2.0, False)):
        for amount in (scale * CHANNEL_ATOL, 1j * scale * CHANNEL_ATOL):
            kraus = measured.kraus.astype(np.result_type(measured.kraus, amount))
            kraus[0, 0, 1] += amount
            bent = sim.Channel(kraus, 1, 1)
            real = isinstance(amount, float)
            assert bent.kraus.dtype == (np.float64 if real else np.complex128)
            for a in (measured, _as_complex(measured)):
                for b in (bent, _as_complex(bent)):
                    assert channel_equal(a, b) == equal, (scale, amount)
                    assert channel_equal(b, a) == equal, (scale, amount)


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
        reference = kron_probe_states(n_in)
        names = [probe_name(n_in, j) for j in range(len(reference))]
        assert names == [name for name, _ in reference]
        probes = probe_columns(n_in, 0, len(reference))
        assert probes.shape == (1 << n_in, len(reference))
        for j, (_, vec) in enumerate(reference):
            assert np.array_equal(probes[:, j], vec), (n_in, names[j])
            assert np.array_equal(probe_columns(n_in, j, j + 1)[:, 0], vec), (n_in, names[j])


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
    # the reference runs each probe through `run`, whose 8 branch states of
    # 6 qubits do not fit the budget below; the branch loop holds at most
    # the 6-qubit state per column, since the 3 measurements split it into
    # half-size blocks and nothing brings a measured wire back
    references = [per_probe_oracle(a, other) for other in (b, equal_b)]
    monkeypatch.setattr(sim, "BYTE_BUDGET", 16 << 6)
    with pytest.raises(sim.SimulationError, match="budget"):
        sim._branches(a, sim._prepare(a, probe_columns(3, 0, 2)))
    widths = []
    branches = sim._branches
    monkeypatch.setattr(
        sim, "_branches", lambda c, s: widths.append(s.shape[1]) or branches(c, s)
    )
    for other, reference in zip((b, equal_b), references):
        assert distinguishing_probe(a, other) == reference
    assert set(widths) == {1}
    assert oracle_equal(a, equal_b)
    assert not oracle_equal(a, b)


def test_the_probe_set_is_built_one_pass_at_a_time(monkeypatch):
    # an equal 3-input pair that probe 0 does not separate, at a budget that
    # holds one 6-qubit column but not the whole 8 x 37 probe set
    a, b = _measured_ancilla_pair(np.random.default_rng(6), 6, equal=True)
    monkeypatch.setattr(sim, "BYTE_BUDGET", 16 << 6)
    assert len(kron_probe_states(3)) == 37
    with pytest.raises(sim.SimulationError, match="probe set needs 4736 bytes"):
        probe_columns(3, 0, 37)
    blocks = []
    outputs = equivalence._probe_outputs
    monkeypatch.setattr(
        equivalence, "_probe_outputs", lambda c, cols: blocks.append(cols.nbytes) or outputs(c, cols)
    )
    assert oracle_equal(a, b)
    # probe 0, then the other 36 probes: `probe_columns` refuses them in
    # blocks of 36, 18 and 9, and the first circuit's prepared state refuses
    # blocks of 4 and 2, so they run one column a pass
    assert blocks == [16 * 8] * 2 + [16 * 8 * 4, 16 * 8 * 2] + [16 * 8] * (2 * 36)


def test_a_refusal_on_probe_zero_is_not_retried(monkeypatch):
    # one output density of 8 qubits (4^8 entries), mixed by a discarded
    # wire entangled with q0, is over the budget whatever the pass width,
    # so probe 0 raises and no wider pass is tried
    zeros = "qubits 9\ncbits 0\nINPUT q0\nINPUT q1\nDISCARD q8\n" + "".join(
        f"PREP q{w} 0\n" for w in range(2, 9)
    )
    h, x = parse(zeros + "H q0\nCNOT q0 q8"), parse(zeros + "X q0\nCNOT q0 q8")
    monkeypatch.setattr(sim, "BYTE_BUDGET", 64 << 10)
    widths = []
    outputs = equivalence._probe_outputs
    monkeypatch.setattr(
        equivalence, "_probe_outputs", lambda c, cols: widths.append(cols.shape[1]) or outputs(c, cols)
    )
    with pytest.raises(sim.SimulationError, match="output density needs 1048576 bytes"):
        distinguishing_probe(h, x)
    assert widths == [1, 1]


def test_a_pure_pair_is_decided_without_a_density(monkeypatch):
    # the pair above without its discarded wire has pure outputs: at the
    # same budget its rows are compared and no density is formed
    zeros = "qubits 8\ncbits 0\nINPUT q0\nINPUT q1\n" + "".join(
        f"PREP q{w} 0\n" for w in range(2, 8)
    )
    h, x = parse(zeros + "H q0"), parse(zeros + "X q0")
    references = per_probe_oracle(h, x), per_probe_oracle(h, h)
    monkeypatch.setattr(sim, "BYTE_BUDGET", 64 << 10)
    assert (distinguishing_probe(h, x), distinguishing_probe(h, h)) == references
    assert references == ("basis |00>", None)


def _phase_pairs(rng: np.random.Generator) -> list:
    """Pairs of gate circuits on input wires whose outputs differ by one
    phase per probe: a Z or CZ appended last (a sign on some basis probes,
    told apart on a superposed one), X Z X Z (a global -1), or nothing."""
    pairs = []
    for _ in range(12):
        c = random_circuit(rng, max_qubits=4, max_cbits=0, max_instructions=10, p_input=1.0)
        a, b = (int(w) for w in rng.choice(c.num_qubits, size=2, replace=c.num_qubits < 2))
        tails = [(), (Gate1("Z", a),), (Gate1("X", a), Gate1("Z", a)) * 2]
        if a != b:
            tails.append((Gate2("CZ", a, b),))
        pairs += [(c, dataclasses.replace(c, body=c.body + tail)) for tail in tails]
    return pairs


def test_row_comparison_agrees_with_the_per_probe_reference(monkeypatch):
    # pure pairs (rows compared) and mixed pairs (densities formed) both
    # name the probe `per_probe_oracle` names
    rng = np.random.default_rng(2314)
    pairs = _phase_pairs(rng)
    for _ in range(12):
        c = random_circuit(rng, max_qubits=4, max_instructions=10, p_input=0.5)
        pauli = Gate1(str(rng.choice(["X", "Z"])), int(rng.integers(c.num_qubits)))
        pairs += [(c, c), (c, dataclasses.replace(c, body=c.body + (pauli,)))]
    for equal in (True, False):
        pairs.append(_measured_ancilla_pair(rng, 6, equal))
    widths = []
    first = equivalence._first_difference
    monkeypatch.setattr(
        equivalence,
        "_first_difference",
        lambda o1, o2: widths.append(max(o1[0].shape[2], o2[0].shape[2])) or first(o1, o2),
    )
    names = []
    for a, b in pairs:
        widths.clear()
        name = distinguishing_probe(a, b)
        assert name == per_probe_oracle(a, b), (a, b)
        names.append((name, max(widths)))
    pure = [name for name, width in names if width == 1]
    assert pure.count(None) >= 20 and len(pure) - pure.count(None) >= 10
    assert sum(name is not None and "wire" in name for name in pure) >= 5
    assert sum(width > 1 for _, width in names) >= 10


def test_row_comparison_is_within_the_density_tolerance():
    # rows that are one phase apart per probe, plus an error in one entry:
    # accepted up to ORACLE_ATOL / 2 and refused past it, and never
    # accepted where their densities (the same rows beside a zero column,
    # so the density path runs) are refused
    rng = np.random.default_rng(2315)
    k, d = 40, 16
    b = rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d))
    b /= np.linalg.norm(b, axis=1)[:, None]
    a = np.exp(2j * np.pi * rng.random(k))[:, None] * b
    at = rng.integers(d, size=k)
    errors = np.linspace(0.1, 3, k) * ORACLE_ATOL * np.exp(2j * np.pi * rng.random(k))
    a[np.arange(k), at] += errors

    def first(rows1, rows2):
        return equivalence._first_difference((rows1, {}), (rows2, {}))

    def flags(rows1, rows2):
        return [first(rows1[j : j + 1], rows2[j : j + 1]) is not None for j in range(k)]

    rows = flags(a[:, :, None], b[:, :, None])
    pad = np.zeros((k, d, 1), dtype=complex)
    densities = flags(np.concatenate([a[:, :, None], pad], 2), np.concatenate([b[:, :, None], pad], 2))
    assert rows == list(np.abs(errors) > ORACLE_ATOL / 2)
    assert all(r for r, dens in zip(rows, densities) if dens)
    assert first(a[:, :, None], b[:, :, None]) == int(np.argmax(np.abs(errors) > ORACLE_ATOL / 2))
    assert first(b[:, :, None] * 1j, b[:, :, None]) is None


def test_a_ten_input_pure_pair_is_decided_by_rows():
    # 1,074 probes of 1,024 output entries each: rows, not 4^10-entry densities
    wide = "qubits 10\ncbits 0\n" + "".join(f"INPUT q{w}\n" for w in range(10))
    empty, hh = parse(wide), parse(wide + "H q0\nH q0")
    assert distinguishing_probe(empty, hh) is None
    assert distinguishing_probe(empty, parse(wide + "Z q9")) == "+ on input wire 9"


def test_narrowed_passes_fit_the_budget_and_keep_the_verdicts(monkeypatch):
    # at a budget of 4 prepared columns (or one output density), the pass
    # after probe 0 is halved until it fits; where a measured wire comes
    # back into the state, it is refused past the prepared state too
    rng = np.random.default_rng(4403)
    pairs = []
    for _ in range(30):
        c = random_circuit(rng, max_qubits=4, max_instructions=12, p_input=0.6)
        pauli = Gate1(str(rng.choice(["X", "Z"])), int(rng.integers(c.num_qubits)))
        pairs += [(c, c), (c, dataclasses.replace(c, body=c.body + (pauli,)))]
    for n in (4, 6):
        for equal in (True, False):
            pairs.append(_measured_ancilla_pair(rng, n, equal))
    references = [per_probe_oracle(a, b) for a, b in pairs]
    requested, built = [], []
    columns = equivalence.probe_columns

    def recording(n_in, start, stop):
        requested.append(stop - start)
        block = columns(n_in, start, stop)
        built.append(block.nbytes)
        return block

    monkeypatch.setattr(equivalence, "probe_columns", recording)
    narrowed = 0
    for (a, b), reference in zip(pairs, references):
        budget = 16 * max(4 << a.num_qubits, 1 << (2 * len(a.output_wires)))
        monkeypatch.setattr(sim, "BYTE_BUDGET", budget)
        requested.clear()
        built.clear()
        assert distinguishing_probe(a, b) == reference, (a, b)
        assert max(built) <= budget
        narrowed += len(set(requested[1:])) > 1
    assert narrowed >= 30


def test_oracle_runs_one_pass_after_probe_zero(monkeypatch):
    # the passes are sized by the byte budget alone, not by 2^n_in: a
    # one-input pair runs probe 0 and then its other 24 probes together
    widths = []
    branches = sim._branches
    monkeypatch.setattr(
        sim, "_branches", lambda c, s: widths.append(s.shape[1]) or branches(c, s)
    )
    a = parse("qubits 2\ncbits 1\nINPUT q0\nPREP q1 0\nCNOT q0 q1\nMEASURE q1 c0")
    b = dataclasses.replace(a, body=a.body[:1] + (Gate1("Z", 0),) + a.body[1:])
    assert oracle_equal(a, b)
    assert widths == [1, 1, 24, 24]


def test_half10_pairs_decided_by_channel_oracle_and_deferred_paths():
    # the largest measured rung the benchmark runs: 5 input wires and 5
    # measured ancillas, so 32 branches per input column
    rng = np.random.default_rng(10)
    for equal in (True, False):
        a, b = _measured_ancilla_pair(rng, 10, equal)
        assert channel_equal(extract_channel(a), extract_channel(b)) == equal
        assert channel_equal(channel_of_deferred(a), channel_of_deferred(b)) == equal
        assert oracle_equal(a, b) == equal
