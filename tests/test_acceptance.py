"""Acceptance criteria.

Each test implements one criterion at its stated tolerance and prints a
pass line (run with `pytest tests/test_acceptance.py -v -s` to see them).
"""
import numpy as np
import pytest

from qrewrite.circuit import Gate1, Gate2, circuit, parse, serialize
from qrewrite.engine import defer_measurements, simplify
from qrewrite.equivalence import (
    channel_equal,
    oracle_equal,
    unitary_equal,
)
from qrewrite.rules import CATALOG_IDS, RULES, instantiate
from qrewrite.scenarios import (
    DERIVATION_NAMES,
    SCENARIO_NAMES,
    derive,
    make,
)
from qrewrite.sim import (
    SQRT_HALF,
    apply_gate,
    build_unitary,
    channel_of_deferred,
    extract_channel,
    run,
    unitary_channel,
)

from util import (
    basis_state,
    fidelity,
    random_bindings,
    random_circuit,
    random_state,
    reduced_density,
    rule_pair,
    states_equal_up_to_phase,
)


def _ok(msg: str) -> None:
    print(f"PASS {msg}")


def test_criterion_01_gate_semantics():
    """Table I (XOR), Table II (CZ/CNOT), H action and self-inverse, 1e-12."""
    # XOR truth table through the simulator
    c = parse(
        "qubits 2\ncbits 3\nINPUT q0\nINPUT q1\nMEASURE q0 c0\nMEASURE q1 c1\nXOR c0 c1 c2"
    )
    for a in range(2):
        for b in range(2):
            (br,) = run(c, basis_state(2, 2 * a + b))
            assert br.outcome[2] == a ^ b
    # CZ and CNOT truth tables, exact
    for idx in range(4):
        cz = apply_gate(basis_state(2, idx), Gate2("CZ", 0, 1))
        assert np.array_equal(cz, (-1 if idx == 3 else 1) * basis_state(2, idx))
    for before, after in ((0, 0), (1, 1), (2, 3), (3, 2)):
        out = apply_gate(basis_state(2, before), Gate2("CNOT", 0, 1))
        assert np.array_equal(out, basis_state(2, after))
    # H maps |0> -> |+>, |1> -> |->, and is self-inverse within 1e-12
    assert np.max(np.abs(apply_gate(basis_state(1, 0), Gate1("H", 0)) - [SQRT_HALF, SQRT_HALF])) <= 1e-12
    assert np.max(np.abs(apply_gate(basis_state(1, 1), Gate1("H", 0)) - [SQRT_HALF, -SQRT_HALF])) <= 1e-12
    hh = build_unitary(circuit(1, 0, [Gate1("H", 0), Gate1("H", 0)]))
    assert np.max(np.abs(hh - np.eye(2))) <= 1e-12
    _ok("criterion 1: gate semantics conform to the XOR/CZ/CNOT tables and H definition")


def test_criterion_02_rule_soundness_suite():
    """12 rules x 50 random bindings: channel_equal within 1e-9; pure-gate
    rules exact unitaries with no global phase; oracle cross-check on any
    failing candidate."""
    assert len(CATALOG_IDS) == 12
    for rule_id in CATALOG_IDS:
        rng = np.random.default_rng(hash(rule_id) % 2**32)
        rule = RULES[rule_id]
        for k in range(50):
            variant = rule.variants[k % len(rule.variants)]
            bindings = random_bindings(rng, rule_id, variant)
            c1, c2 = rule_pair(rule_id, bindings, variant)
            if not channel_equal(extract_channel(c1), extract_channel(c2)):
                oracle = oracle_equal(c1, c2)
                raise AssertionError(
                    f"{rule_id} {variant} {bindings}: channel mismatch "
                    f"(oracle cross-check says equal={oracle})"
                )
            if rule.pure_gate:
                assert unitary_equal(
                    build_unitary(c1), build_unitary(c2), up_to_phase=False
                ), (rule_id, variant, bindings)
    _ok("criterion 2: all 12 rules sound on 50 random bindings each")


def test_criterion_03_rule_v_exact_identity():
    """Both distributed-CNOT variants equal CNOT (x) identity within 1e-12."""
    expected = build_unitary(circuit(3, 0, [Gate2("CNOT", 0, 2)]))
    for variant in ("i", "ii"):
        _, rep = instantiate("R5_DistributeCNOT", {"c": 0, "t": 2, "a": 1}, variant)
        u = build_unitary(circuit(3, 0, rep))
        assert np.max(np.abs(u - expected)) <= 1e-12, variant
    _ok("criterion 3: distributed CNOT variants equal CNOT (x) I within 1e-12")


def test_criterion_04_rules_vi_vii():
    """R6/R7: XOR arithmetic on all 8 basis states and 8x8 unitary equality
    within 1e-12."""

    def xor_eval(body, bits):
        vals = list(bits)
        for g in body:
            vals[g.target] ^= vals[g.control]
        return tuple(vals)

    cases = [("R6_CNOTMirror", v, {"a": 0, "b": 1, "c": 2}) for v in RULES["R6_CNOTMirror"].variants]
    cases.append(("R7_ParallelToLambda", "default", {"c": 0, "t1": 1, "t2": 2}))
    for rule_id, variant, bindings in cases:
        pat, rep = instantiate(rule_id, bindings, variant)
        for idx in range(8):
            bits = [(idx >> 2) & 1, (idx >> 1) & 1, idx & 1]
            assert xor_eval(pat, bits) == xor_eval(rep, bits), (rule_id, variant, idx)
        u = build_unitary(circuit(3, 0, pat))
        v = build_unitary(circuit(3, 0, rep))
        assert np.max(np.abs(u - v)) <= 1e-12, (rule_id, variant)
    _ok("criterion 4: CNOT mirror and parallel-to-lambda identities hold exactly")


def test_criterion_05_teleportation():
    """Teleportation channel equals identity within 1e-9; per-branch
    post-correction fidelity >= 1 - 1e-9 over 100 random inputs."""
    tele = make("Teleportation")
    assert channel_equal(extract_channel(tele), unitary_channel(np.eye(2)))
    rng = np.random.default_rng(2024)
    for _ in range(100):
        psi = random_state(rng, 1)
        for br in run(tele, psi):
            assert fidelity(psi, reduced_density(br.state, (2,))) >= 1 - 1e-9
    _ok("criterion 5: teleportation is the identity channel on every branch")


def test_criterion_06_dense_coding():
    """All four (a,b) round-trip with probability 1 within 1e-9; intermediate
    states are beta_ab up to global phase; no-erasure negative test."""
    dense, encoder = make("DenseFull"), make("DenseEncode")
    for a in range(2):
        for b in range(2):
            (br,) = run(dense, basis_state(2, 2 * a + b))
            rho = reduced_density(br.state, (2, 3))
            p = (br.probability * rho[2 * a + b, 2 * a + b]).real
            assert abs(p - 1.0) <= 1e-9
            (enc,) = run(encoder, basis_state(2, 2 * a + b))
            pair = enc.state.reshape(4, 4)[2 * a + b, :]
            beta = np.zeros(4, dtype=complex)
            beta[b] = SQRT_HALF
            beta[2 + (b ^ 1)] = SQRT_HALF * (-1) ** a
            assert states_equal_up_to_phase(pair, beta)
    copy = parse(
        "qubits 4\ncbits 0\nINPUT q0\nINPUT q1\nDISCARD q0\nDISCARD q1\n"
        "PREP q2 0\nPREP q3 0\nCNOT q0 q2\nCNOT q1 q3"
    )
    assert not channel_equal(extract_channel(copy), unitary_channel(np.eye(4)))
    _ok("criterion 6: dense coding round-trips and the no-erasure copy is not a transfer")


def test_criterion_07_gate_teleportation():
    """Gate teleportation channel equals the CNOT channel within 1e-9; chi
    amplitudes are 1/2 at indices {0, 3, 13, 14} within 1e-12."""
    cnot = build_unitary(parse("qubits 2\ncbits 0\nCNOT q0 q1"))
    assert channel_equal(
        extract_channel(make("GateTeleportation")), unitary_channel(cnot)
    )
    (br,) = run(make("Chi"))
    expected = np.zeros(16, dtype=complex)
    expected[[0, 3, 13, 14]] = 0.5
    assert np.max(np.abs(br.state - expected)) <= 1e-12
    _ok("criterion 7: gate teleportation implements CNOT and chi has the stated amplitudes")


def test_criterion_08_derivation_replays():
    """All three derivations complete with every step VERIFIED and final
    circuits structurally equal to their make() targets."""
    targets = {
        "TeleportFromTransfer": "Teleportation",
        "DenseFromCopy": "DenseFull",
        "GateTeleportFromTeleport": "GateTeleportation",
    }
    for name in DERIVATION_NAMES:
        trace = derive(name)  # raises if any step fails or target mismatch
        assert all(step.verified for step in trace.steps)
        assert trace.final == make(targets[name])
    _ok("criterion 8: teleportation, dense coding and gate teleportation derivations replay verified")


def test_criterion_09_deferred_measurement_cross_path():
    """Branch-enumeration channel vs Rule-III-canonicalized unitary channel
    agree within 1e-9 on every scenario circuit containing measurement."""
    checked = 0
    for name in SCENARIO_NAMES:
        c = make(name)
        if not c.measured:
            continue
        a = extract_channel(c)
        b = channel_of_deferred(defer_measurements(c))
        assert np.max(np.abs(a.choi - b.choi)) <= 1e-9, name
        checked += 1
    assert checked >= 4
    _ok("criterion 9: branch and deferred-unitary channel paths agree on all measured scenarios")


def test_criterion_10_engine_termination_determinism():
    """simplify halts within (instruction count)^2 steps on 200 seeded random
    circuits and serializes byte-identically across two runs."""
    rng = np.random.default_rng(99)
    for _ in range(200):
        c = random_circuit(rng, max_qubits=6, max_cbits=3, max_instructions=20)
        f1, t1 = simplify(c, verify=False)
        f2, t2 = simplify(c, verify=False)
        assert len(t1.steps) <= max(1, len(c.body)) ** 2
        assert serialize(f1).encode() == serialize(f2).encode()
        assert [s.label for s in t1.steps] == [s.label for s in t2.steps]
    _ok("criterion 10: simplify terminates within bound and is byte-deterministic")
