"""Shared helpers for the test suite: random circuits, rule pair builders,
state and matrix checks, and the per-probe reference oracle."""
from __future__ import annotations

from itertools import permutations

import numpy as np

from qrewrite.circuit import (
    _STATE_TABLE,
    Circuit,
    ClassicalCtrl,
    ClassicalXor,
    Gate1,
    Gate2,
    Measure,
    WireRef,
    circuit,
    prep_bell,
    prep_plus,
    prep_zero,
    wires,
)
from qrewrite.engine import Match, RewriteError, _admit, _check_applicable
from qrewrite.equivalence import _N_RANDOM_PROBES, _ORACLE_SEED, ORACLE_ATOL, UNITARY_ATOL
from qrewrite.rules import ground, ground_preps, rule_forms
from qrewrite.sim import (
    ATOL,
    PRUNE_EPS,
    SQRT_HALF,
    Branch,
    make_channel,
    run,
)


def basis_state(n_wires: int, index: int) -> np.ndarray:
    vec = np.zeros(1 << n_wires, dtype=complex)
    vec[index] = 1.0
    return vec


def random_state(rng: np.random.Generator, n_wires: int) -> np.ndarray:
    vec = rng.normal(size=1 << n_wires) + 1j * rng.normal(size=1 << n_wires)
    return vec / np.linalg.norm(vec)


def reduced_density(state: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Density matrix of the kept wires, tracing out the rest."""
    n = state.shape[0].bit_length() - 1
    rest = tuple(w for w in range(n) if w not in keep)
    t = state.reshape([2] * n if n else [1])
    if n:
        t = t.transpose(keep + rest)
    t = t.reshape(1 << len(keep), -1)
    return t @ t.conj().T


def fidelity(state: np.ndarray, rho: np.ndarray) -> float:
    return float((state.conj() @ rho @ state).real)


def is_unitary(mat: np.ndarray, tol: float = ATOL) -> bool:
    dim = mat.shape[0]
    return mat.shape == (dim, dim) and bool(
        np.max(np.abs(mat.conj().T @ mat - np.eye(dim))) <= tol
    )


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


def random_circuit(
    rng: np.random.Generator,
    max_qubits: int = 5,
    max_cbits: int = 3,
    max_instructions: int = 15,
    allow_measure: bool = True,
    p_input: float = 0.25,
):
    """A random valid circuit: every wire prepped or input, classical wires
    single-assignment, classical reads only after assignment."""
    n = int(rng.integers(2, max_qubits + 1))
    m = int(rng.integers(0, max_cbits + 1)) if allow_measure else 0
    preps, inputs = [], []
    w = 0
    while w < n:
        roll = rng.random()
        if roll < p_input:
            inputs.append(w)
            w += 1
        elif roll < p_input + 0.15 and w + 1 < n:
            preps.append(prep_bell(w, w + 1))
            w += 2
        elif roll < 0.75:
            preps.append(prep_zero(w))
            w += 1
        else:
            preps.append(prep_plus(w))
            w += 1

    body = []
    assigned: list[int] = []
    for _ in range(int(rng.integers(0, max_instructions + 1))):
        kinds = ["g1", "g2", "g2"]
        if m and len(assigned) < m:
            kinds.append("measure")
        if assigned:
            kinds.append("cctrl")
        if assigned and len(assigned) < m:
            kinds.append("xor")
        k = rng.choice(kinds)
        if k == "g1":
            body.append(Gate1(str(rng.choice(["H", "X", "Z"])), int(rng.integers(n))))
        elif k == "g2":
            a, b = rng.choice(n, size=2, replace=False)
            body.append(Gate2(str(rng.choice(["CNOT", "CZ"])), int(a), int(b)))
        elif k == "measure":
            free = [cb for cb in range(m) if cb not in assigned]
            cb = int(rng.choice(free))
            assigned.append(cb)
            body.append(Measure(int(rng.integers(n)), cb))
        elif k == "cctrl":
            body.append(
                ClassicalCtrl(
                    str(rng.choice(["CX", "CZC"])),
                    int(rng.choice(assigned)),
                    int(rng.integers(n)),
                )
            )
        else:
            free = [cb for cb in range(m) if cb not in assigned]
            out = int(rng.choice(free))
            a, b = (int(x) for x in rng.choice(assigned, size=2, replace=True))
            assigned.append(out)
            body.append(ClassicalXor(a, b, out))
    return circuit(n, m, body, preps=preps, inputs=inputs)


def instantiate(
    rule_id: str, bindings: dict, variant: str | None = None, direction: str = "forward"
):
    """Concrete (pattern, replacement) instruction lists for a rule, swapped
    for the backward direction.

    Bindings must be total and injective on quantum variables (up to the
    rule's declared aliases); fresh wires introduced by the replacement
    (R4's r3, R5's ancilla) must be supplied.
    """
    forms = rule_forms(rule_id, direction)
    variant = variant or next(iter(forms))
    if variant not in forms:
        raise ValueError(f"unknown variant {variant!r} for {rule_id}")
    form = forms[variant]
    reason = form.binding_error(bindings)
    for var in form.dst_vars:
        if reason is None and var not in bindings:
            reason = f"missing fresh wire binding for {var!r}"
    if reason is not None:
        raise ValueError(reason)
    return ground(form.src, bindings), ground(form.dst, bindings)


def random_bindings(rng: np.random.Generator, rule_id: str, variant: str, n_qubits=4):
    """Random injective wire bindings for a rule variant (aliases respected)."""
    form = rule_forms(rule_id, "forward")[variant]
    used = dict.fromkeys(form.src_vars + form.dst_vars)
    qvars = [v for v in used if form.kinds[v] == "q"]
    cvars = [v for v in used if form.kinds[v] == "c"]
    if rule_id == "CzControlCommute":
        x, y, t = (int(v) for v in rng.choice(n_qubits, size=3, replace=False))
        a = int(rng.choice([w for w in range(n_qubits) if w != t]))
        return {"x": x, "y": y, "t": t, "a": a}
    qs = rng.choice(n_qubits, size=len(qvars), replace=False)
    bindings = {v: int(w) for v, w in zip(qvars, qs)}
    bindings.update({v: i for i, v in enumerate(cvars)})
    return bindings


def rule_pair(rule_id: str, bindings: dict, variant: str, n_qubits: int = 4):
    """Pattern and replacement as standalone circuits with matching roles,
    including the preps a conditional rule relies on."""
    form = rule_forms(rule_id, "forward")[variant]
    pat, rep = instantiate(rule_id, bindings, variant)
    preps_p = ground_preps(form.src_preps, bindings)
    preps_r = ground_preps(form.dst_preps, bindings)
    extra = []
    if rule_id == "R1_TargetPlus":
        extra = [prep_plus(bindings["t"])]
    if rule_id == "R1_ControlZero":
        extra = [prep_zero(bindings["c"])]
    roles = {}
    if rule_id in ("DiscardedWireTail", "MeasureDiscarded"):
        roles = {bindings["w"]: "discard"}
    cbits = [v for k, v in bindings.items() if form.kinds.get(k) == "c"]
    m = max(cbits, default=-1) + 1
    c1 = circuit(n_qubits, m, pat, preps=extra + preps_p, q_roles=dict(roles))
    c2 = circuit(n_qubits, m, rep, preps=extra + preps_r, q_roles=dict(roles))
    return c1, c2


def linear_touched(c, wire, start=0, stop=None, skip=()) -> bool:
    """`circuit.touched` by a scan of every body index in range: the
    reference for the indexed query."""
    stop = len(c.body) if stop is None else stop
    return any(j not in skip and wire in wires(c.body[j]) for j in range(start, stop))


def linear_state_before(c, w: int, pos: int) -> str | None:
    """`circuit.wire_state_before` by a scan of the body prefix: the
    reference for the indexed query."""
    p = c.prep_of(w)
    if p is None or p.kind == "bell":
        return None
    state = p.kind
    for instr in c.body[:pos]:
        if WireRef("q", w) not in wires(instr):
            continue
        if not isinstance(instr, Gate1):
            return None
        state = _STATE_TABLE[instr.kind][state]
    return state


def exhaustive_insertions(c, rule_id: str, direction: str) -> tuple[list, int]:
    """The matches of an insertion rule (empty matched side) found by brute
    force: every position with every injective binding of the variables,
    each kept if `engine._admit` accepts it. Returns the matches in
    `find_matches` order and the number of candidates refused."""
    forms = rule_forms(rule_id, direction)
    variants = list(forms)
    found, refused = [], 0
    for form in forms.values():
        assert not form.src, (rule_id, direction)
        qvars = [v for v in form.dst_vars if form.kinds[v] == "q"]
        cvars = [v for v in form.dst_vars if form.kinds[v] == "c"]
        for pos in range(len(c.body) + 1):
            for qs in permutations(range(c.num_qubits), len(qvars)):
                for cs in permutations(range(c.num_cbits), len(cvars)):
                    b = dict(zip(qvars + cvars, qs + cs))
                    if _admit(c, form, (pos,), b)[0] is None:
                        found.append(
                            Match(rule_id, direction, (pos,), tuple(sorted(b.items())), form.variant)
                        )
                    else:
                        refused += 1
    found.sort(key=lambda m: (m.site, variants.index(m.variant), m.bindings))
    return found, refused


def full_rewrite(c, m) -> Circuit:
    """`engine.rewrite_at(c, m)` with every match checked by
    `_check_applicable` and `_admit`, spliced by a copy of the body and
    built by `Circuit(...)`, so that the full `validate` checks the output:
    the reference for the engine's reuse of found admissions and for its
    local check."""
    form = rule_forms(m.rule, m.direction).get(m.variant)
    reason = _check_applicable(c, form, m) if form else f"unknown variant {m.variant!r}"
    if reason is None:
        reason, bindings, num_cbits = _admit(c, form, m.site, m.binding_map)
    if reason is not None:
        raise RewriteError(f"{m.rule}: {reason}")
    body = list(c.body)
    if m.rule == "Commute":
        i = m.site[0]
        body[i : i + 2] = body[i + 1], body[i]
    elif form.src:
        pos, end = m.site[0], m.site[-1] + 1
        skipped = [body[j] for j in range(pos, end) if j not in m.site]
        body[pos:end] = ground(form.dst, bindings) + skipped
    else:
        pos = m.site[0] if m.site else len(body)
        body[pos:pos] = ground(form.dst, bindings)
    preps = list(c.preps)
    for p in ground_preps(form.src_preps, bindings):
        preps.remove(p)
    preps.extend(ground_preps(form.dst_preps, bindings))
    return Circuit(
        c.num_qubits,
        num_cbits,
        tuple(sorted(preps, key=lambda p: p.wires)),
        c.inputs,
        tuple(body),
        c.q_roles,
        c.c_roles + ("scratch",) * (num_cbits - c.num_cbits),
    )


def kron_probe_states(n_in: int) -> list[tuple[str, np.ndarray]]:
    """The oracle's probe set built one probe at a time from Kronecker
    products: the reference for `equivalence.probe_states`."""
    plus = np.array([1, 1], dtype=complex) * SQRT_HALF
    minus = np.array([1, -1], dtype=complex) * SQRT_HALF
    plus_i = np.array([1, 1j], dtype=complex) * SQRT_HALF
    zero = np.array([1, 0], dtype=complex)
    probes = [
        (f"basis |{j:0{n_in}b}>" if n_in else "scalar input", basis_state(n_in, j))
        for j in range(1 << n_in)
    ]
    for w in range(n_in):
        for name, single in (("+", plus), ("-", minus), ("+i", plus_i)):
            vec = np.ones(1, dtype=complex)
            for k in range(n_in):
                vec = np.kron(vec, single if k == w else zero)
            probes.append((f"{name} on input wire {w}", vec))
    rng = np.random.default_rng(_ORACLE_SEED)
    for k in range(_N_RANDOM_PROBES):
        vec = rng.normal(size=1 << n_in) + 1j * rng.normal(size=1 << n_in)
        probes.append((f"random state #{k}", vec / np.linalg.norm(vec)))
    return probes


def per_probe_oracle(c1, c2, atol: float = ORACLE_ATOL) -> str | None:
    """The oracle one probe at a time: both circuits `run` on each probe in
    turn, and the first probe whose outcome-marginalized output densities or
    report distributions differ by more than `atol` is named (None if none
    does). The reference for `equivalence.distinguishing_probe`."""

    def outputs(c, vec):
        branches = run(c, vec)
        rho = sum(br.probability * reduced_density(br.state, c.output_wires) for br in branches)
        dist: dict[tuple[int, ...], float] = {}
        for br in branches:
            key = tuple(br.outcome.get(w, -1) for w in c.report_cbits)
            dist[key] = dist.get(key, 0.0) + br.probability
        return rho, dist

    for name, vec in kron_probe_states(len(c1.effective_inputs)):
        (rho1, d1), (rho2, d2) = outputs(c1, vec), outputs(c2, vec)
        if np.max(np.abs(rho1 - rho2)) > atol or any(
            abs(d1.get(key, 0.0) - d2.get(key, 0.0)) > atol for key in d1.keys() | d2.keys()
        ):
            return name
    return None


def _mask(state: np.ndarray, w: int) -> int:
    """Wire w's bit in a basis index of `state`, wire 0 most significant."""
    return 1 << (len(state).bit_length() - 2 - w)


def _bit(state: np.ndarray, w: int) -> np.ndarray:
    """Wire w's value in each basis index of `state`, shaped to broadcast
    along axis 0."""
    bits = (np.arange(len(state)) & _mask(state, w)) > 0
    return bits.astype(int).reshape((-1,) + (1,) * (state.ndim - 1))


def reference_gate(state: np.ndarray, instr) -> np.ndarray:
    """A pure gate along axis 0 of a statevector or a (2^n, k) batch, by
    basis-index arithmetic: X and CNOT read each row at its index with the
    target bit flipped, Z and CZ negate where the bits are 1, and H sums
    each pair of rows. The reference for `sim.apply_gate`."""
    s = np.asarray(state, dtype=complex)
    t = _bit(s, instr.target)
    flipped = s[np.arange(len(s)) ^ _mask(s, instr.target)]
    on = 1 if isinstance(instr, Gate1) else _bit(s, instr.control)
    if instr.kind in ("X", "CNOT"):
        return np.where(on == 1, flipped, s)
    if instr.kind in ("Z", "CZ"):
        return np.where((on & t) == 1, -s, s)
    return np.where(t == 0, s + flipped, flipped - s) * SQRT_HALF


def full_branches(c, state: np.ndarray) -> list[tuple[dict[int, int], np.ndarray]]:
    """The branch loop on full-dimension states: every branch keeps all n
    wires, gates act by `reference_gate`, and a measurement projects a copy
    of its state on each value. The reference for `sim._branches`."""
    branches = [({}, state)]
    for instr in c.body:
        if isinstance(instr, (Gate1, Gate2)):
            branches = [(o, reference_gate(s, instr)) for o, s in branches]
        elif isinstance(instr, Measure):
            split = []
            for outcome, s in branches:
                for value in (0, 1):
                    proj = np.where(_bit(s, instr.target) == value, s, 0)
                    if float(np.vdot(proj, proj).real) >= PRUNE_EPS:
                        split.append(({**outcome, instr.result: value}, proj))
            branches = split
        elif isinstance(instr, ClassicalCtrl):
            gate = Gate1("X" if instr.kind == "CX" else "Z", instr.target)
            branches = [
                (o, reference_gate(s, gate) if o[instr.control] else s) for o, s in branches
            ]
        else:  # ClassicalXor
            branches = [({**o, instr.out: o[instr.a] ^ o[instr.b]}, s) for o, s in branches]
    return branches


def reference_prepare(c, columns: np.ndarray | None = None) -> np.ndarray:
    """`sim._prepare` by bit masks: one pass over all 2^n basis indices per
    input wire, to read each row's input-register index, and per prep, to
    weigh each row by the prep's amplitude. The reference for
    `sim._prepare`."""
    inputs, n = c.effective_inputs, c.num_qubits
    if columns is None:
        columns = np.eye(1 << len(inputs), dtype=complex)
    idx = np.arange(1 << n)

    def bit(w):
        return (idx >> (n - 1 - w)) & 1

    in_index = np.zeros(1 << n, dtype=np.int64)
    for pos, w in enumerate(inputs):
        in_index |= bit(w) << (len(inputs) - 1 - pos)
    amp = np.ones(1 << n)
    for p in c.preps:
        if p.kind == "zero":
            amp = amp * (bit(p.wires[0]) == 0)
        elif p.kind == "plus":
            amp = amp * SQRT_HALF
        else:  # bell pair: (|00> + |11>)/sqrt(2) on the two wires
            a, b = p.wires
            amp = amp * (bit(a) == bit(b)) * SQRT_HALF
    return amp[:, None] * columns[in_index]


def reference_indices(n: int, outs, rest) -> np.ndarray:
    """index[o, d]: the n-wire basis index whose bits on `outs` spell o and
    on `rest` spell d (first wire most significant), every other bit 0,
    one bit at a time."""
    index = np.zeros((1 << len(outs), 1 << len(rest)), dtype=np.int64)
    for o in range(1 << len(outs)):
        for d in range(1 << len(rest)):
            full = 0
            for pos, w in enumerate(outs):
                full |= ((o >> (len(outs) - 1 - pos)) & 1) << (n - 1 - w)
            for pos, w in enumerate(rest):
                full |= ((d >> (len(rest) - 1 - pos)) & 1) << (n - 1 - w)
            index[o, d] = full
    return index


def reference_kraus_rows(branches, outs, discards) -> np.ndarray:
    """`sim._kraus_rows` by an index table and a placement, leaving
    `branches` as it is: the rows at the live output and discarded wires
    are read through `reference_indices`, and each branch's rows are put,
    among zeros, at its own values of the measured output wires."""
    at, fixed = branches.at, branches.fixed
    live = [i for i, w in enumerate(outs) if w in at]
    table = reference_indices(
        len(at), [at[outs[i]] for i in live], [at[w] for w in discards if w in at]
    )
    rows = branches._blocks()[table]  # (2^len(live), 2^D, B, k)
    placed = np.zeros((1 << len(outs),) + rows.shape[1:], dtype=complex)
    for b in range(len(fixed)):
        own = sum(int(fixed[b, w]) << (len(outs) - 1 - i) for i, w in enumerate(outs))
        for o in range(len(rows)):
            at_row = own
            for pos, i in enumerate(live):
                at_row |= ((o >> (len(live) - 1 - pos)) & 1) << (len(outs) - 1 - i)
            placed[at_row, :, b] = rows[o, :, b]
    return placed


def full_channel(c):
    """`sim.extract_channel` from `full_branches` and the references: each
    branch restricted to each basis state of the discarded wires is one
    Kraus operator."""
    index = reference_indices(c.num_qubits, c.output_wires, c.discard_wires)
    branches = full_branches(c, reference_prepare(c))
    kraus = [s[index].transpose(1, 0, 2) for _, s in branches]
    return make_channel(np.concatenate(kraus), len(c.effective_inputs), len(c.output_wires))


def full_run(c, vec: np.ndarray) -> list[Branch]:
    """`sim.run` from `full_branches` and `reference_prepare`."""
    out = []
    for outcome, s in full_branches(c, reference_prepare(c, vec[:, None])):
        p = float(np.vdot(s, s).real)
        out.append(Branch(outcome, p, s[:, 0] / np.sqrt(p)))
    return out
