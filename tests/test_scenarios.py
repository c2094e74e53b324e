"""Protocol circuits and their verified derivations."""
import numpy as np
import pytest

from qrewrite.circuit import parse
from qrewrite.engine import defer_measurements
from qrewrite.equivalence import (
    channel_equal,
    oracle_equal,
    unitary_equal,
)
from qrewrite.scenarios import (
    DERIVATION_NAMES,
    SCENARIO_NAMES,
    derive,
    make,
)
from qrewrite.sim import (
    SQRT_HALF,
    build_unitary,
    channel_of_deferred,
    extract_channel,
    run,
    unitary_channel,
)

from util import (
    basis_state,
    fidelity,
    random_state,
    reduced_density,
    states_equal_up_to_phase,
)


def bell_state(a: int, b: int) -> np.ndarray:
    """beta_ab = (|0 b> + (-1)^a |1 not-b>) / sqrt(2)."""
    vec = np.zeros(4, dtype=complex)
    vec[b] = SQRT_HALF
    vec[2 + (b ^ 1)] = SQRT_HALF * (-1) ** a
    return vec


def test_bell_generator_produces_all_bell_states():
    u = build_unitary(make("BellGenerator"))
    for a in range(2):
        for b in range(2):
            out = u @ basis_state(2, 2 * a + b)
            assert np.max(np.abs(out - bell_state(a, b))) <= 1e-12
    assert np.allclose(u @ basis_state(2, 0), [SQRT_HALF, 0, 0, SQRT_HALF])


def test_bell_decoder_inverts_generator():
    gen = build_unitary(make("BellGenerator"))
    dec = build_unitary(make("BellDecoder"))
    assert unitary_equal(dec @ gen, np.eye(4))


def test_swap_circuits_are_swap():
    swap = np.eye(4)[[0, 2, 1, 3]]
    assert unitary_equal(build_unitary(make("XorSwap")), swap)
    assert unitary_equal(build_unitary(make("AltSwap")), swap)
    # basis check |10> -> |01>
    assert np.array_equal(build_unitary(make("XorSwap"))[:, 2], basis_state(2, 1))
    assert oracle_equal(make("XorSwap"), make("AltSwap"))


def test_chi_state_amplitudes():
    (br,) = run(make("Chi"))
    expected = np.zeros(16, dtype=complex)
    expected[[0, 3, 13, 14]] = 0.5
    assert np.max(np.abs(br.state - expected)) <= 1e-12


def test_chi_same_for_either_qubit_of_second_pair():
    variant = parse("qubits 4\ncbits 0\nBELL q0 q1\nBELL q2 q3\nCNOT q1 q3")
    (a,) = run(make("Chi"))
    (b,) = run(variant)
    assert np.max(np.abs(a.state - b.state)) <= 1e-12


def test_teleportation_channel_is_identity():
    ch = extract_channel(make("Teleportation"))
    assert channel_equal(ch, unitary_channel(np.eye(2)))


def test_teleportation_every_branch_delivers_the_state():
    rng = np.random.default_rng(42)
    tele = make("Teleportation")
    for _ in range(100):
        psi = random_state(rng, 1)
        branches = run(tele, psi)
        assert len(branches) == 4
        for br in branches:
            assert br.probability == pytest.approx(0.25, abs=1e-9)
            rho = reduced_density(br.state, (2,))
            assert fidelity(psi, rho) >= 1 - 1e-9


def test_dense_coding_round_trip():
    dense = make("DenseFull")
    encoder = make("DenseEncode")
    for a in range(2):
        for b in range(2):
            (br,) = run(dense, basis_state(2, 2 * a + b))
            assert br.probability == pytest.approx(1.0, abs=1e-9)
            out = reduced_density(br.state, (2, 3))
            assert out[2 * a + b, 2 * a + b].real == pytest.approx(1.0, abs=1e-9)
            # the intermediate encoded pair is the matching Bell state
            (enc,) = run(encoder, basis_state(2, 2 * a + b))
            pair = enc.state.reshape(4, 4)[2 * a + b, :]
            assert states_equal_up_to_phase(pair, bell_state(a, b))


def test_dense_coding_cannot_send_two_qubits():
    # copy without erasure is not a two-qubit state transfer channel
    copy = derive("DenseFromCopy", verify=False).start
    transfer = parse(
        "qubits 4\ncbits 0\nINPUT q0\nINPUT q1\nDISCARD q0\nDISCARD q1\n"
        "PREP q2 0\nPREP q3 0\n"
        "CNOT q0 q2\nCNOT q2 q0\nCNOT q1 q3\nCNOT q3 q1"
    )
    assert not channel_equal(extract_channel(copy), extract_channel(transfer))
    assert not oracle_equal(copy, transfer)
    # while the full transfer is the identity channel onto the fresh wires
    assert channel_equal(
        extract_channel(transfer), unitary_channel(np.eye(4))
    )


def test_gate_teleportation_channel_is_cnot():
    cnot = build_unitary(parse("qubits 2\ncbits 0\nCNOT q0 q1"))
    ch = extract_channel(make("GateTeleportation"))
    assert channel_equal(ch, unitary_channel(cnot))


@pytest.mark.parametrize("name", DERIVATION_NAMES)
def test_derivations_verified_and_reach_target(name):
    trace = derive(name)
    assert trace.steps
    assert all(step.verified for step in trace.steps)
    text = trace.render()
    assert "VERIFIED" in text and "step 1:" in text


def test_derivation_starts_already_channel_equal_to_targets():
    for name, target in (
        ("TeleportFromTransfer", "Teleportation"),
        ("DenseFromCopy", "DenseFull"),
        ("GateTeleportFromTeleport", "GateTeleportation"),
    ):
        assert channel_equal(
            extract_channel(derive(name, verify=False).start),
            extract_channel(make(target)),
        )


def test_deferred_cross_path_on_measured_scenarios():
    for name in SCENARIO_NAMES:
        c = make(name)
        if not c.measured:
            continue
        branch_path = extract_channel(c)
        unitary_path = channel_of_deferred(defer_measurements(c))
        assert np.max(np.abs(branch_path.choi - unitary_path.choi)) <= 1e-9, name


def test_scenario_roundtrip_and_probability_sums():
    rng = np.random.default_rng(8)
    for name in SCENARIO_NAMES:
        c = make(name)
        n_in = len(c.effective_inputs)
        branches = run(c, random_state(rng, n_in) if n_in else None)
        assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-9)


def test_scenario_channels_are_complete():
    # sum K^dag K = I within 1e-9 for the whole library (checked at
    # construction; failure raises)
    for name in SCENARIO_NAMES:
        ch = extract_channel(make(name))
        total = sum(k.conj().T @ k for k in ch.kraus)
        assert np.max(np.abs(total - np.eye(1 << ch.n_in))) <= 1e-9, name


def test_catalog_rules_preserve_channels_on_scenario_matches():
    # every rule applied anywhere in the scenario library is channel-preserving
    from qrewrite.engine import RewriteError, find_matches, rewrite_at
    from qrewrite.rules import CATALOG_IDS

    checked = 0
    for name in SCENARIO_NAMES:
        c = make(name)
        base = extract_channel(c)
        for rule_id in CATALOG_IDS:
            for direction in ("forward", "backward"):
                for m in find_matches(c, rule_id, direction)[:3]:
                    try:
                        new = rewrite_at(c, m)
                    except RewriteError:
                        continue  # e.g. no free ancilla wire for R5
                    assert channel_equal(base, extract_channel(new)), (name, m.label())
                    checked += 1
    assert checked > 40
