"""Simulator: gate semantics, branch enumeration, unitaries, channels."""
import dataclasses
import tracemalloc

import numpy as np
import pytest

from qrewrite import equivalence, sim
from qrewrite.circuit import (
    _STATE_TABLE,
    ClassicalCtrl,
    Gate1,
    Gate2,
    Measure,
    ParseError,
    circuit,
    parse,
    prep_bell,
    prep_plus,
    prep_zero,
)
from qrewrite.equivalence import channel_equal, oracle_equal, unitary_equal
from qrewrite.scenarios import SCENARIO_NAMES, make
from qrewrite.sim import (
    ATOL,
    SQRT_HALF,
    STATE_VECTORS,
    SimulationError,
    apply_gate,
    build_unitary,
    channel_of_deferred,
    extract_channel,
    run,
)

from util import (
    basis_state,
    fidelity,
    full_channel,
    full_run,
    is_unitary,
    random_circuit,
    random_state,
    reduced_density,
    reference_gate,
    reference_kraus_rows,
    reference_prepare,
)


def xor_swap_permutation() -> np.ndarray:
    """Independent oracle: evaluate the three XOR steps on every basis pair."""
    mat = np.zeros((4, 4), dtype=complex)
    for x in range(2):
        for y in range(2):
            a, b = x, y
            b ^= a
            a ^= b
            b ^= a
            mat[2 * a + b, 2 * x + y] = 1.0
    return mat


def test_swap_circuit_matches_xor_oracle():
    expected = xor_swap_permutation()
    u = build_unitary(make("XorSwap"))
    assert np.array_equal(u, expected)
    # frozen: the swap exchanges basis indices 1 and 2
    assert np.array_equal(expected, np.eye(4)[[0, 2, 1, 3]])


def test_h_on_zero_and_one():
    plus = apply_gate(basis_state(1, 0), Gate1("H", 0))
    minus = apply_gate(basis_state(1, 1), Gate1("H", 0))
    assert np.allclose(plus, [SQRT_HALF, SQRT_HALF], atol=1e-12)
    assert np.allclose(minus, [SQRT_HALF, -SQRT_HALF], atol=1e-12)


def test_cnot_truth_table():
    # |00>->|00>, |01>->|01>, |10>->|11>, |11>->|10>
    for before, after in ((0, 0), (1, 1), (2, 3), (3, 2)):
        out = apply_gate(basis_state(2, before), Gate2("CNOT", 0, 1))
        assert np.array_equal(out, basis_state(2, after))


def test_cz_truth_table():
    for idx in range(4):
        out = apply_gate(basis_state(2, idx), Gate2("CZ", 0, 1))
        sign = -1.0 if idx == 3 else 1.0
        assert np.array_equal(out, sign * basis_state(2, idx))


def test_xor_truth_table_via_run():
    c = parse("qubits 2\ncbits 3\nINPUT q0\nINPUT q1\nMEASURE q0 c0\nMEASURE q1 c1\nXOR c0 c1 c2")
    for a in range(2):
        for b in range(2):
            (br,) = run(c, basis_state(2, 2 * a + b))
            assert br.outcome == {0: a, 1: b, 2: a ^ b}


def test_run_h_then_measure():
    c = parse("qubits 1\ncbits 1\nPREP q0 0\nH q0\nMEASURE q0 c0")
    branches = run(c)
    assert len(branches) == 2
    by_bit = {br.outcome[0]: br for br in branches}
    for bit, br in by_bit.items():
        assert br.probability == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(br.state, basis_state(1, bit), atol=1e-12)


def test_bell_measurements_correlated():
    c = parse("qubits 2\ncbits 2\nBELL q0 q1\nMEASURE q0 c0\nMEASURE q1 c1")
    branches = run(c)
    outcomes = {tuple(sorted(br.outcome.items())): br.probability for br in branches}
    assert set(outcomes) == {((0, 0), (1, 0)), ((0, 1), (1, 1))}
    assert all(p == pytest.approx(0.5, abs=1e-12) for p in outcomes.values())


def test_x_single_branch():
    c = parse("qubits 1\ncbits 0\nPREP q0 0\nX q0")
    (br,) = run(c)
    assert br.probability == 1.0
    assert np.array_equal(br.state, basis_state(1, 1))


def test_classical_control_semantics():
    # cX applies X only on branches whose control bit is 1
    c = parse("qubits 2\ncbits 1\nPREP q0 0\nPREP q1 0\nH q0\nMEASURE q0 c0\nCX c0 q1")
    for br in run(c):
        assert np.allclose(
            br.state, basis_state(2, 3 if br.outcome[0] else 0), atol=1e-12
        )


def test_unassigned_classical_wire_errors():
    # rejected when parsed, so no unassigned wire ever reaches `run`
    with pytest.raises(ParseError, match="c0 is read before it is written"):
        parse("qubits 1\ncbits 1\nPREP q0 0\nCX c0 q0")


def test_input_required_and_dimension_checked():
    c = parse("qubits 2\ncbits 0\nINPUT q0\nPREP q1 0\nH q0")
    with pytest.raises(SimulationError):
        run(c)
    with pytest.raises(SimulationError, match="dimension"):
        run(c, basis_state(2, 0))
    run(c, basis_state(1, 0))


def test_branch_probabilities_sum_to_one():
    for name in SCENARIO_NAMES:
        c = make(name)
        n_in = len(c.effective_inputs)
        rng = np.random.default_rng(11)
        branches = run(c, random_state(rng, n_in) if n_in else None)
        assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-9)


def test_norm_preserved_on_random_states():
    rng = np.random.default_rng(5)
    gates = [Gate1(k, int(rng.integers(4))) for k in ("H", "X", "Z")] + [
        Gate2("CNOT", 0, 1),
        Gate2("CZ", 2, 3),
    ]
    for _ in range(100):
        state = random_state(rng, 4)
        g = gates[int(rng.integers(len(gates)))]
        assert abs(np.linalg.norm(apply_gate(state, g)) - 1.0) <= 1e-9


def _state_table_faults() -> list:
    """Where `circuit._STATE_TABLE` or `sim.STATE_VECTORS` disagrees with the
    simulator: a gate whose image of a state's vector is not, up to global
    phase, the vector the table names, or a prep whose state `_prepare`
    (which reads `STATE_VECTORS`) makes otherwise than the mask reference,
    which has amplitudes of its own."""
    faults = []
    for kind, images in _STATE_TABLE.items():
        for state, image in images.items():
            out = apply_gate(STATE_VECTORS[state], Gate1(kind, 0))
            if not unitary_equal(out, STATE_VECTORS[image], up_to_phase=True):
                faults.append((kind, state))
    for prep in (prep_zero(0), prep_plus(0), prep_bell(0, 1)):
        c = circuit(len(prep.wires), 0, (), preps=[prep])
        if not np.allclose(sim._prepare(c), reference_prepare(c), rtol=0, atol=ATOL):
            faults.append(prep)
    return faults


def test_state_table_matches_the_simulator(monkeypatch):
    assert set(_STATE_TABLE) == {"X", "Z", "H"}
    assert all(set(images) == set(STATE_VECTORS) for images in _STATE_TABLE.values())
    assert _state_table_faults() == []
    # any single wrong entry or vector is found
    plus_i = np.array([SQRT_HALF, 1j * SQRT_HALF])
    for kind, images in _STATE_TABLE.items():
        for state, image in images.items():
            for wrong in set(STATE_VECTORS) - {image}:
                with monkeypatch.context() as m:
                    m.setitem(images, state, wrong)
                    assert _state_table_faults(), (kind, state, wrong)
    for state in list(STATE_VECTORS):
        others = [v for name, v in STATE_VECTORS.items() if name != state]
        for wrong in others + [plus_i]:
            with monkeypatch.context() as m:
                m.setitem(STATE_VECTORS, state, wrong)
                assert _state_table_faults(), (state, wrong)


def test_apply_gate_on_columns_matches_column_by_column():
    rng = np.random.default_rng(17)
    batch = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
    gates = [Gate1(k, w) for k in ("H", "X", "Z") for w in range(3)] + [
        Gate2(k, a, b) for k in ("CNOT", "CZ") for a in range(3) for b in range(3) if a != b
    ]
    for g in gates:
        out = apply_gate(batch, g)
        assert out.shape == batch.shape
        for j in range(batch.shape[1]):
            assert np.array_equal(out[:, j], apply_gate(batch[:, j], g)), (g, j)


def _gate_inputs(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    """One input of each layout the gate kernels take: a vector, a C-ordered
    (2^n, k) batch, its F-ordered transpose and a strided column view."""
    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    return {
        "vector": draw(1 << n),
        "C batch": draw(1 << n, 3),
        "F batch": draw(3, 1 << n).T,
        "strided batch": draw(1 << n, 6)[:, ::2],
    }


def test_gate_kernels_equal_the_reference_and_never_write_their_input():
    # every kind, CNOT and CZ with the control below and above the target,
    # on each input layout: `apply_gate`, and `_apply_gates` one gate at a
    # time and as a run, equal `reference_gate`; the input is unchanged and
    # no result is a view of it (X on one qubit once returned one)
    rng = np.random.default_rng(2323)
    for n in (1, 3):
        gates = [Gate1(k, w) for k in ("H", "X", "Z") for w in range(n)] + [
            Gate2(k, a, b) for k in ("CNOT", "CZ") for a in range(n) for b in range(n) if a != b
        ]
        for layout, x in _gate_inputs(rng, n).items():
            before = x.copy()
            want = x
            for g in gates:
                ref = reference_gate(x, g)
                for out in (apply_gate(x, g), sim._apply_gates(x, [g])):
                    assert np.array_equal(out, ref), (n, layout, g)
                    assert not np.shares_memory(out, x), (n, layout, g)
                assert np.array_equal(x, before), (n, layout, g)
                want = reference_gate(want, g)
            assert np.array_equal(sim._apply_gates(x, gates), want), (n, layout)
            assert np.array_equal(x, before), (n, layout)


def test_apply_gate_rejects_more_than_two_axes():
    with pytest.raises(SimulationError):
        apply_gate(np.zeros((4, 2, 2), dtype=complex), Gate1("H", 0))


def test_oversized_requests_are_refused_before_allocation():
    wide = circuit(30, 0, [Gate1("H", 0)], inputs=range(30))
    for fn in (extract_channel, channel_of_deferred, build_unitary):
        with pytest.raises(SimulationError, match="budget"):
            fn(wide)
    with pytest.raises(SimulationError, match="budget"):
        run(circuit(30, 0, [Gate1("H", 0)], preps=[prep_zero(w) for w in range(30)]))
    # an 8-qubit unitary channel is cheap, but its Choi matrix is 64 GiB
    ch = extract_channel(circuit(8, 0, [], inputs=range(8)))
    with pytest.raises(SimulationError, match="budget"):
        ch.choi


def test_budget_counts_sixteen_bytes_an_entry_for_a_real_state_too(monkeypatch):
    # a prepared isometry is float64, 8 bytes an entry, but the budget counts
    # 16 for every dtype: a real state is refused at the same entry count,
    # with the same text, as a complex one
    def zeros(n):
        return circuit(n, 0, [], preps=[prep_zero(w) for w in range(n)])

    monkeypatch.setattr(sim, "BYTE_BUDGET", 16 << 6)
    complex_column = np.ones((1, 1), dtype=complex)
    assert sim._prepare(zeros(6)).dtype == np.float64
    assert sim._prepare(zeros(6), complex_column).dtype == np.complex128
    refusal = "^prepared state needs 2048 bytes, over the 1024-byte budget$"
    for call in (
        lambda: sim._prepare(zeros(7)),
        lambda: sim._prepare(zeros(7), complex_column),
        lambda: extract_channel(zeros(7)),
    ):
        with pytest.raises(SimulationError, match=refusal):
            call()


def test_re_expansion_is_refused_over_budget(monkeypatch):
    # each H on the measured wire brings it back into the branch state, and
    # each measurement then doubles the branches: round r holds 2^(r+2) entries
    rounds = 6
    body = [g for r in range(rounds) for g in (Gate1("H", 0), Measure(0, r))]
    c = circuit(3, rounds, body, preps=[prep_zero(w) for w in range(3)])
    monkeypatch.setattr(sim, "BYTE_BUDGET", 16 << (3 + rounds - 1))
    branches = sim._branches(c, sim._prepare(c))
    assert len(branches.fixed) == 1 << rounds
    assert np.allclose(branches.probabilities(), 1 / (1 << rounds), rtol=0, atol=1e-12)
    # `run` returns every branch's state on all 3 wires: 64 states of 8
    # entries, twice what the branch loop holds
    with pytest.raises(SimulationError, match="needs 8192 bytes"):
        run(c)
    monkeypatch.setattr(sim, "BYTE_BUDGET", 16 << (3 + rounds))
    branches = run(c)
    assert len(branches) == 1 << rounds
    assert all(b.probability == pytest.approx(1 / (1 << rounds), abs=1e-12) for b in branches)
    monkeypatch.setattr(sim, "BYTE_BUDGET", 16 << (3 + rounds - 2))
    with pytest.raises(SimulationError, match="re-expanded branch state needs"):
        run(c)


def _over_budget_cases():
    """One call per array the simulator must refuse before allocating it:
    (call, budget, bytes of the refused array)."""
    measured_plus = parse(
        "qubits 14\ncbits 7\n"
        + "".join(f"PREP q{w} {'+' if w < 7 else '0'}\n" for w in range(14))
        + "".join(f"MEASURE q{w} c{w}\n" for w in range(7))
    )
    zeros = "qubits 9\ncbits 0\nDISCARD q8\n" + "".join(f"PREP q{w} 0\n" for w in range(9))
    h, x = parse(zeros + "H q0\nCNOT q0 q8"), parse(zeros + "X q0\nCNOT q0 q8")
    return {
        # 128 branch states of 14 qubits, 32 MiB together
        "run": (lambda: run(measured_plus), 1 << 20, 16 << 21),
        # one output density of 8 qubits, 4^8 entries, mixed by the
        # discarded wire q8
        "oracle_equal": (lambda: oracle_equal(h, x), 64 << 10, 16 << 16),
        # 2^6 Kraus operators of 2^6 x 2^6 entries, one per measured outcome
        "channel_of_deferred": (
            lambda: channel_of_deferred(_all_measured_outputs(6)), 16 << 12, 16 << 18
        ),
    }


def _all_measured_outputs(n: int):
    """n input wires, each measured, each an output."""
    return parse(
        f"qubits {n}\ncbits {n}\n"
        + "".join(f"INPUT q{w}\nOUTPUT q{w}\n" for w in range(n))
        + "".join(f"MEASURE q{w} c{w}\n" for w in range(n))
    )


@pytest.mark.parametrize("name", ["run", "oracle_equal", "channel_of_deferred"])
def test_each_array_is_refused_before_it_is_allocated(monkeypatch, name):
    call, budget, refused = _over_budget_cases()[name]
    monkeypatch.setattr(sim, "BYTE_BUDGET", budget)
    tracemalloc.start()
    try:
        with pytest.raises(SimulationError, match=f"needs {refused} bytes"):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < refused


def test_deferred_channel_is_refused_with_the_branch_channel(monkeypatch):
    c = _all_measured_outputs(6)
    monkeypatch.setattr(sim, "BYTE_BUDGET", 16 << 17)
    for path in (extract_channel, channel_of_deferred):
        with pytest.raises(SimulationError, match="needs 4194304 bytes"):
            path(c)
    monkeypatch.setattr(sim, "BYTE_BUDGET", 16 << 18)
    assert channel_equal(extract_channel(c), channel_of_deferred(c))


def _measured_wire_cases(c) -> set[str]:
    """What `c`'s body does to measured wires, tracked by the branch loop's
    rule: a measurement takes a wire out of the state, and H on it or a
    CNOT onto it from a live control brings it back."""
    cases, out = set(), set()
    for instr in c.body:
        if isinstance(instr, Measure):
            if instr.target in out:
                cases.add("re-measurement")
            out.add(instr.target)
        elif isinstance(instr, ClassicalCtrl):
            if instr.target in out:
                cases.add("classical control on measured target")
        elif isinstance(instr, Gate1):
            if instr.target in out:
                cases.add(f"{instr.kind} on measured wire")
                if instr.kind == "H":
                    out.discard(instr.target)
        elif isinstance(instr, Gate2):
            control, target = instr.control in out, instr.target in out
            if control and target:
                cases.add(f"{instr.kind} with both measured")
            elif control:
                cases.add(f"{instr.kind} with measured control")
            elif target:
                cases.add(f"{instr.kind} with measured target")
                if instr.kind == "CNOT":
                    out.discard(instr.target)
    if any(c.q_roles[w] == "output" for w in out):
        cases.add("measured output wire")
    return cases


def test_branch_loop_agrees_with_full_dimension_reference():
    rng = np.random.default_rng(1616)
    seen: dict[str, int] = {}
    for k in range(300):
        c = random_circuit(rng, max_qubits=4, max_cbits=4, max_instructions=16, p_input=0.3)
        if k % 2:  # measured wires default to discard: let some be outputs
            roles = rng.choice(["output", "discard"], size=c.num_qubits)
            c = dataclasses.replace(c, q_roles=tuple(str(r) for r in roles))
        for case in _measured_wire_cases(c):
            seen[case] = seen.get(case, 0) + 1
        assert channel_equal(extract_channel(c), full_channel(c)), c
        vec = random_state(rng, len(c.effective_inputs))
        got, want = run(c, vec), full_run(c, vec)
        assert len(got) == len(want), c
        for a, b in zip(got, want):
            assert a.outcome == b.outcome, c
            assert a.probability == b.probability, c
            assert np.array_equal(a.state, b.state), c
    cases = [
        "X on measured wire",
        "Z on measured wire",
        "H on measured wire",
        "CNOT with measured control",
        "CNOT with measured target",
        "CNOT with both measured",
        "CZ with measured control",
        "CZ with measured target",
        "CZ with both measured",
        "classical control on measured target",
        "re-measurement",
        "measured output wire",
    ]
    assert all(seen.get(case, 0) >= 3 for case in cases), seen


def test_prepare_equals_the_mask_reference():
    # interleaved inputs, BELL pairs on wires far apart, preps in any order,
    # the input basis or given columns: bit for bit the mask reference, in
    # its complex dtype (a prepared isometry is float64)
    rng = np.random.default_rng(2020)
    far_pairs = 0
    for k in range(200):
        n = int(rng.integers(1, 8))
        wires = [int(w) for w in rng.permutation(n)]
        preps, inputs = [], []
        while wires:
            w, roll = wires.pop(), rng.random()
            if roll < 0.3:
                inputs.append(w)
            elif roll < 0.55 and wires:
                preps.append(prep_bell(w, wires.pop()))
                far_pairs += preps[-1].wires[1] - preps[-1].wires[0] > 1
            elif roll < 0.8:
                preps.append(prep_zero(w))
            else:
                preps.append(prep_plus(w))
        c = circuit(n, 0, [], preps=preps, inputs=inputs)
        columns = None
        if k % 2:
            shape = (1 << len(c.effective_inputs), int(rng.integers(1, 4)))
            columns = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got, want = sim._prepare(c, columns), reference_prepare(c, columns)
        assert got.shape == want.shape, c
        assert got.astype(complex).tobytes() == want.tobytes(), c
    assert far_pairs >= 30


def _real_part_of(got: np.ndarray, want: np.ndarray) -> bool:
    """`got` is float64 and, bitwise, the real part of the complex128
    `want`, whose imaginary part is exactly zero. Zeros are made positive
    first (x + 0.0): the two dtypes may give a zero opposite signs."""
    assert got.dtype == np.float64 and want.dtype == np.complex128
    assert not np.any(want.imag)
    return got.shape == want.shape and _zero_signed_bytes(got) == _zero_signed_bytes(want.real)


def _zero_signed_bytes(a: np.ndarray) -> bytes:
    return (a + 0.0).tobytes()


def test_channel_deferred_and_unitary_paths_are_real():
    # every gate and prep is a real matrix, so each path returns float64
    # arrays whose entries are those of the complex reference; `run` and the
    # oracle, given complex columns, still compute in complex128
    rng = np.random.default_rng(9090)
    deferred = unitaries = 0
    for k in range(1000):
        if k % 4:
            c = random_circuit(rng)
        else:
            c = random_circuit(rng, p_input=1.0, allow_measure=k % 8 == 0)
        reference = full_channel(c).kraus
        assert _real_part_of(extract_channel(c).kraus, reference), c
        try:
            ops = channel_of_deferred(c).kraus
        except SimulationError:
            pass
        else:
            # the same operators, though listed by the assignment to the
            # sorted measured wires, not in measurement order
            assert ops.dtype == np.float64 and ops.shape == reference.shape, c
            assert sorted(map(_zero_signed_bytes, ops)) == sorted(
                map(_zero_signed_bytes, reference.real)
            ), c
            deferred += 1
        if not c.preps and all(isinstance(i, (Gate1, Gate2)) for i in c.body):
            want = np.eye(1 << c.num_qubits, dtype=complex)
            for g in c.body:
                want = reference_gate(want, g)
            assert _real_part_of(build_unitary(c), want), c
            unitaries += 1
        n_in = len(c.effective_inputs)
        real_input = np.eye(1 << n_in)[:, -1]
        assert all(b.state.dtype == np.complex128 for b in run(c, real_input)), c
        probes = equivalence.probe_columns(n_in, 0, 1)
        assert probes.dtype == np.complex128
        assert equivalence._probe_outputs(c, probes)[0].dtype == np.complex128, c
    assert deferred >= 300 and unitaries >= 100


def test_kraus_rows_equal_the_table_and_placement_reference():
    # measured output wires come back into the state as their values, and
    # measured discarded wires need no slice: entry for entry, the rows an
    # index table reads and a placement among zeros puts at each branch's
    # own values of the measured output wires
    rng = np.random.default_rng(2121)
    measured_outputs = 0
    for _ in range(200):
        c = random_circuit(rng, max_qubits=5, max_cbits=4, max_instructions=16, p_input=0.3)
        roles = rng.choice(["output", "discard"], size=c.num_qubits)
        c = dataclasses.replace(c, q_roles=tuple(str(r) for r in roles))
        want = reference_kraus_rows(
            sim._branches(c, sim._prepare(c)), c.output_wires, c.discard_wires
        )
        branches = sim._branches(c, sim._prepare(c))
        measured_outputs += any(w not in branches.at for w in c.output_wires)
        got = sim._kraus_rows(branches, c.output_wires, c.discard_wires)
        assert got.shape == want.shape and np.array_equal(got, want), c
    assert measured_outputs >= 40


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_run_refuses_a_non_finite_input_state(bad):
    c = parse("qubits 1\ncbits 1\nINPUT q0\nMEASURE q0 c0")
    with pytest.raises(SimulationError, match="non-finite"):
        run(c, np.array([bad, 1]))
    with pytest.raises(SimulationError, match="non-finite"):
        run(c, np.array([0, 1j * bad]))


def test_run_holds_its_branch_states_once():
    # H on all 15 wires, then two measurements: four states of 2^15 entries.
    # `run` brings the measured wires back into the one branch array and
    # normalizes its rows in place, so it never holds the states twice
    n = 15
    body = [Gate1("H", w) for w in range(n)] + [Measure(0, 0), Measure(n - 1, 1)]
    c = circuit(n, 2, body, preps=[prep_zero(w) for w in range(n)])
    tracemalloc.start()
    try:
        branches = run(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [b.outcome for b in branches] == [{0: i, 1: j} for i in (0, 1) for j in (0, 1)]
    for b in branches:
        assert b.probability == pytest.approx(0.25, abs=1e-12)
        assert np.vdot(b.state, b.state).real == pytest.approx(1.0, abs=1e-12)
    states = sum(b.state.nbytes for b in branches)
    assert states == 4 * 16 << n
    assert peak < 2 * states


def test_gates_are_involutions():
    specs = [
        (1, [Gate1("H", 0)] * 2),
        (1, [Gate1("X", 0)] * 2),
        (1, [Gate1("Z", 0)] * 2),
        (2, [Gate2("CNOT", 0, 1)] * 2),
        (2, [Gate2("CZ", 0, 1)] * 2),
    ]
    for n, body in specs:
        u = build_unitary(circuit(n, 0, body))
        assert np.max(np.abs(u - np.eye(1 << n))) <= 1e-12


def test_build_unitary_empty_is_identity():
    assert np.array_equal(build_unitary(circuit(2, 0, [])), np.eye(4))


def test_build_unitary_rejects_measurement_and_preps():
    with pytest.raises(SimulationError):
        build_unitary(parse("qubits 1\ncbits 1\nMEASURE q0 c0"))
    with pytest.raises(SimulationError):
        build_unitary(parse("qubits 1\ncbits 0\nPREP q0 0\nX q0"))


def test_identity_channel_choi():
    c = parse("qubits 1\ncbits 0\nINPUT q0")
    ch = extract_channel(c)
    assert len(ch.kraus) == 1
    assert np.array_equal(ch.kraus[0], np.eye(2))
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 1.0
    assert np.allclose(ch.choi, expected, atol=1e-12)
    assert ch.choi.trace() == pytest.approx(2.0)


def test_measurement_channel_kraus():
    c = parse("qubits 1\ncbits 1\nINPUT q0\nOUTPUT q0\nMEASURE q0 c0")
    ch = extract_channel(c)
    assert len(ch.kraus) == 2
    proj0 = np.diag([1.0, 0.0])
    proj1 = np.diag([0.0, 1.0])
    found = {np.allclose(k, proj0) or np.allclose(k, proj1) for k in ch.kraus}
    assert found == {True}
    assert not np.allclose(ch.kraus[0], ch.kraus[1])


def test_channel_completeness_on_random_circuits():
    rng = np.random.default_rng(23)
    for _ in range(25):
        c = random_circuit(rng, max_qubits=4, max_instructions=10)
        ch = extract_channel(c)
        total = sum(k.conj().T @ k for k in ch.kraus)
        assert np.max(np.abs(total - np.eye(1 << ch.n_in))) <= 1e-9
        # Choi is Hermitian positive semidefinite
        assert np.max(np.abs(ch.choi - ch.choi.conj().T)) <= 1e-9
        assert np.linalg.eigvalsh(ch.choi).min() >= -1e-9


def test_unmeasured_discard_is_traced_out():
    # discarding half a Bell pair leaves the maximally mixed state
    c = parse("qubits 2\ncbits 0\nBELL q0 q1\nDISCARD q1")
    ch = extract_channel(c)
    rho = sum(k @ k.conj().T for k in ch.kraus)
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-9)


def test_channel_of_deferred_matches_branch_path():
    c = parse(
        "qubits 2\ncbits 1\nINPUT q0\nPREP q1 0\nH q0\nCNOT q0 q1\nMEASURE q0 c0"
    )
    a = extract_channel(c)
    b = channel_of_deferred(c)
    assert np.max(np.abs(a.choi - b.choi)) <= 1e-9


def test_channel_of_deferred_with_measured_output_wire():
    # a measured wire kept as output contributes projectors, not a trace
    c = parse(
        "qubits 2\ncbits 1\nINPUT q0\nINPUT q1\nOUTPUT q0\nH q0\nCNOT q0 q1\nMEASURE q0 c0"
    )
    a = extract_channel(c)
    b = channel_of_deferred(c)
    assert np.max(np.abs(a.choi - b.choi)) <= 1e-9


def test_scenario_unitaries_are_unitary():
    for name in ("XorSwap", "AltSwap", "BellGenerator", "BellDecoder"):
        assert is_unitary(build_unitary(make(name)))


def test_channel_of_deferred_rejects_interleaved():
    c = parse("qubits 1\ncbits 1\nINPUT q0\nOUTPUT q0\nMEASURE q0 c0\nH q0")
    with pytest.raises(SimulationError):
        channel_of_deferred(c)


def test_measured_wire_reuse_is_permitted():
    c = parse("qubits 1\ncbits 1\nPREP q0 0\nH q0\nMEASURE q0 c0\nH q0")
    branches = run(c)
    assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-12)


def test_reduced_density_and_fidelity():
    rng = np.random.default_rng(2)
    psi = random_state(rng, 1)
    joint = np.kron(psi, basis_state(1, 0))
    rho = reduced_density(joint, (0,))
    assert fidelity(psi, rho) == pytest.approx(1.0, abs=1e-12)
