"""Rewrite engine: match rules modulo disjoint-support commutation, apply
rewrites with optional channel verification, simplify greedily, record
derivation traces, and defer measurements (Rule III canonical form).

A match names a rule, direction and variant, which select one compiled
`RuleForm` (`rules.rule_forms`); its templates, variables, kinds and
aliases drive matching, checking and rewriting alike.

`_occurrences` is the one search for where a form applies: adjacent
disjoint pairs for `Commute`, the pattern occurrences `_find_sites`
gathers (its instructions may be interleaved with others that touch no
wire of a later one, so commuting gathers them at the first index), and
the positions and injective bindings of an insertion (empty `src`). Both
read the circuit's wire index (`Circuit.wire_index`) rather than each
instruction's wires; `_find_sites` walks it from wire to wire instead of
scanning the body, and `find_matches` searches no form whose `src` needs
more of an opcode (`RuleForm.src_ops`) than the body holds.
A rule's condition is a list of tests, each on one variable's wire
(`rules.WireTest`), so one filter, `_wires_for`, decides which wire a
variable may take: the declared wires of its kind that carry the prep
`src_preps` requires and pass its tests at the occurrence. An insertion
search takes the position-free part (`_prepped_wires`) once per
variable and runs only the tests at each position; there it takes
injective tuples of those wires, so it never enumerates a binding a test
refuses, and where every variable's wires equal the previous position's
it reuses the tuples already enumerated. It counts the tuples before it
builds them, and refuses to list more than `MAX_MATCHES` in one call.
`_admit` is the one admission check of an occurrence: it binds the fresh
wires a rewrite needs (`dst` variables left unbound) among those the
filter offers that the match has not bound, the qubits to the first
injective tuple, as the insertion search does, each cbit to the first
(with none, a new one), then checks the required preps and runs the
condition's tests, in order, on the complete bindings.
One generator, `_found`, keeps the occurrences `_admit` accepts, so every
match `find_matches` and `defer_measurements` find applies, and each
match carries what `_admit` returned for the circuit object it was found
on. An insertion form with no condition is admitted once per bindings
dict the search shares among positions, since `_admit` reads the position
only through the condition's tests. `rewrite_at` applies such a match to
that very circuit without checking it again; every other match,
hand-built or found on another circuit, is checked by `_check_applicable`
(bindings, site shape, then the search restricted to the site), then
`_admit`. So a bad match is a `RewriteError`, never a wrong rewrite. The
replacement is grounded once per form and binding tuple
(`RuleForm._ground_dst`, a memo on the form bounded by
`rules._GROUND_MEMO_SIZE`), and rewrites with the same wires share its
immutable instructions. One splice (`circuit._splice`) puts the
replacement at the occurrence's position, after gathering the matched
instructions there (an insertion gathers none); `Commute` swaps. The
output differs from its valid input only in that window, the preps and
new scratch cbits, so the splice checks only those, with the code
`circuit.validate` runs on a whole circuit (a grounded replacement once
per pair of wire counts).

A verified step passes one check, in `rewrite_at`, which `apply_steps`
and `simplify` call: the window of the step's match (`_window_equal`),
its matched instructions against the replacement, decided on its own,
exactly in any context, reports included, on the bound wires alone. Two
small window circuits, one per side, are compared by their channels
(`_window_circuits_equal`), so each local identity is decided once per
local form. A step the window cannot decide raises `VerificationError`.
`defer_measurements` only applies found `Commute` and `R3_DeferMeasure`
forward matches, so `sim.channel_of_deferred` on its result cross-checks both.
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import prod
from typing import NamedTuple

from .circuit import (
    FIELD_KINDS,
    Circuit,
    CircuitError,
    Gate1,
    Gate2,
    ClassicalCtrl,
    Instruction,
    Measure,
    WireRef,
    _splice,
    circuit,
    opcode,
    prep_plus,
    prep_zero,
    serialize,
    touched,
    wire_state_before,
)
from .equivalence import channel_equal
from .rules import RuleForm, ground, ground_preps, rule_forms
from .sim import _require_budget, extract_channel


MAX_MATCHES = 1 << 18  # most matches one `find_matches` call may list


class RewriteError(ValueError):
    """Match cannot be applied (stale site, failed condition, no fresh wire)."""


class VerificationError(RuntimeError):
    """A rewrite step failed its window check."""


class _Admitted(NamedTuple):
    """What `_admit` returned for a found match, and the circuit it was
    found on."""

    circuit: Circuit
    form: RuleForm
    bindings: dict[str, int]  # complete: fresh wires bound
    num_cbits: int


@dataclass(frozen=True)
class Match:
    """A located rule occurrence: ordered body indices plus variable bindings
    (an insertion's site is its position, or empty for the end of the body).

    A found match (`_found`) also carries its admission for the circuit
    it was found on; this takes no part in equality, hashing or repr, and
    a copy (`dataclasses.replace`) or a hand-built match has none.
    """

    rule: str
    direction: str = "forward"
    site: tuple[int, ...] = ()
    bindings: tuple[tuple[str, int], ...] = ()
    variant: str = "default"
    _admitted: _Admitted | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def binding_map(self) -> dict[str, int]:
        return dict(self.bindings)

    def label(self) -> str:
        parts = [self.rule]
        if self.direction != "forward":
            parts.append("backward")
        if self.variant != "default":
            parts.append(f"[{self.variant}]")
        parts.append(f"@ {self.site}")
        if self.bindings:
            parts.append(
                "{" + ", ".join(f"{k}={v}" for k, v in sorted(self.bindings)) + "}"
            )
        return " ".join(parts)


def match(
    rule: str,
    direction: str = "forward",
    site: tuple[int, ...] = (),
    bindings: dict[str, int] | None = None,
    variant: str | None = None,
) -> Match:
    forms = rule_forms(rule, direction)
    return Match(
        rule,
        direction,
        tuple(site),
        tuple(sorted((bindings or {}).items())),
        variant or next(iter(forms)),
    )


# ----------------------------------------------------------------------
# Matching
# ----------------------------------------------------------------------


def _unify(
    tpl: Instruction, instr: Instruction, bindings: dict[str, int], form: RuleForm
) -> dict[str, int] | None:
    # a gate's kind is its one field that is not a wire slot; a template's
    # wire slots all hold variable names
    kind = getattr(tpl, "kind", None)
    if type(tpl) is not type(instr) or getattr(instr, "kind", None) != kind:
        return None
    new = bindings
    for name, _ in FIELD_KINDS[type(tpl)]:
        want = getattr(tpl, name)
        have = getattr(instr, name)
        if want in new:
            if new[want] != have:
                return None
            continue
        if form.clash(new, want, have) is not None:
            return None
        if new is bindings:
            new = dict(bindings)
        new[want] = have
    return new if new is not bindings else dict(bindings)


def _bound_wire(tpl: Instruction, bindings: dict[str, int]) -> WireRef | None:
    """The wire of the template instruction's first variable that
    `bindings` binds, or None."""
    for name, kind in FIELD_KINDS[type(tpl)]:
        var = getattr(tpl, name)
        if var in bindings:
            return WireRef(kind, bindings[var])
    return None


def _find_sites(
    c: Circuit,
    form: RuleForm,
    site: tuple[int, ...] | None = None,
    bindings: dict[str, int] | None = None,
) -> list[tuple[tuple[int, ...], dict[str, int]]]:
    """All gatherable occurrences of the form's `src` side in body order,
    only at the indices `site` and extending `bindings` if these are given.
    The one definition of an occurrence, for found and hand-built sites.

    Each template instruction is picked after the one before, walking the
    wire index: the first takes its opcode's positions; a later one on a
    bound variable's wire takes the next position on that wire, since a
    later one would share that wire with an instruction left out between
    the picks; any other takes its opcode's positions after the last pick.
    A later pick is gatherable iff nothing but the picks touches its wires
    between the first pick and it (`touched`), so commuting gathers the
    picks there."""
    body, index = c.body, c.wire_index
    body_wires, positions = index.wires, index.positions
    tpl = form.src
    results: list[tuple[tuple[int, ...], dict[str, int]]] = []

    def extend(slot: int, picked: list[int], bindings: dict[str, int]) -> None:
        if slot == len(tpl):
            results.append((tuple(picked), bindings))
            return
        t = tpl[slot]
        last = picked[-1] if picked else -1
        if site is not None:
            j = site[slot]
            candidates = (j,) if last < j < len(body) else ()
        else:
            on = _bound_wire(t, bindings) if picked else None
            if on is None:
                at = index.ops.get(opcode(t), ())
                candidates = at[bisect_right(at, last) :]
            else:  # the next instruction on that wire
                at = positions.get(on, ())
                k = bisect_right(at, last)
                candidates = at[k : k + 1]
        for j in candidates:
            if picked and any(touched(c, w, picked[0], j, picked) for w in body_wires[j]):
                continue
            b2 = _unify(t, body[j], bindings, form)
            if b2 is not None:
                extend(slot + 1, picked + [j], b2)

    extend(0, [], bindings or {})
    return results


def _anchor(
    c: Circuit, form: RuleForm, site: tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    """An occurrence's position and its matched indices (none for an insertion)."""
    if form.src:
        return site[0], site
    return (site[0] if site else len(c.body)), ()


def _occurrences(
    c: Circuit,
    form: RuleForm,
    site: tuple[int, ...] | None = None,
    bindings: dict[str, int] | None = None,
    listed: int = 0,
) -> Iterator[tuple[tuple[int, ...], dict[str, int]]]:
    """Every occurrence of the form in `c` as (site, bindings), by first
    index; with `site` and `bindings`, only the one they name, if it is
    one (a named insertion keeps its checked, maybe partial, bindings).
    Insertions at different positions may share one bindings dict, which
    the caller does not change. An insertion search raises `RewriteError`
    before it builds the candidate tuples that take its count, after the
    `listed` matches found before it, over `MAX_MATCHES`."""
    body = c.body
    if form.rule == "Commute":
        body_wires = c.wire_index.wires
        for i in range(len(body) - 1) if site is None else site:
            if 0 <= i < len(body) - 1 and not (body_wires[i] & body_wires[i + 1]):
                yield (i,), {}
    elif form.src:
        yield from _find_sites(c, form, site, bindings)
    elif site is not None:
        if 0 <= _anchor(c, form, site)[0] <= len(body):
            yield site, bindings or {}
    else:
        qvars = [v for v in form.dst_vars if form.kinds[v] == "q"]
        cvars = [v for v in form.dst_vars if form.kinds[v] == "c"]
        names, n = qvars + cvars, len(qvars)
        prepped = [_prepped_wires(c, form, v) for v in names]
        last, found = None, []
        for pos in range(len(body) + 1):
            ok = [_wires_for(c, form, v, pos, (), ws) for v, ws in zip(names, prepped)]
            if ok != last:
                # some variable's tests admit other wires here than before
                last, found, size = ok, None, prod(map(len, ok))
            listed += size
            if listed > MAX_MATCHES:
                raise RewriteError(
                    f"insertion search needs at least {listed} bindings, "
                    f"over the limit of {MAX_MATCHES}"
                )
            if found is None:
                found = [
                    dict(zip(names, qs + cs))
                    for qs in _injective(ok[:n])
                    for cs in _injective(ok[n:])
                ]
            for bindings in found:
                yield (pos,), bindings


def _prepped_wires(c: Circuit, form: RuleForm, var: str) -> list[int]:
    """The declared wires of `var`'s kind that carry the prep `src_preps`
    requires of it, which `_wires_for` filters by its tests. It reads no
    position, so an insertion search takes it once per variable."""
    ws = list(range(c.num_qubits if form.kinds[var] == "q" else c.num_cbits))
    for p in form.src_preps:
        if var in p.wires:
            ws = [w for w in ws if getattr(c.prep_of(w), "kind", None) == p.kind]
    return ws


def _wires_for(
    c: Circuit, form: RuleForm, var: str, pos: int, matched: tuple[int, ...], ws: list[int]
) -> list[int]:
    """The declared wires `var` may take at an occurrence anchored at `pos`
    with matched indices `matched`: those of its kind that carry the prep
    `src_preps` requires of it (`ws`, from `_prepped_wires`) and pass its
    condition's tests. The caller does not change the list it gets."""
    for v, test in form.condition:
        if v == var:
            ws = [w for w in ws if test(c, pos, matched, w) is None]
    return ws


def _injective(choices: list[list[int]]) -> Iterator[tuple[int, ...]]:
    """Tuples with one entry from each list, no two entries equal."""
    for ws in product(*choices):
        if len(set(ws)) == len(ws):
            yield ws


def _admit(
    c: Circuit, form: RuleForm, site: tuple[int, ...], bindings: dict[str, int]
) -> tuple[str | None, dict[str, int], int]:
    """Admit an occurrence: bind the unbound `dst` variables among the
    wires `_wires_for` offers that the match has not bound, the qubits to
    the first `_injective` tuple in `dst_vars` order, as the insertion
    search does, each cbit to the first (with none, a new one); check the
    required preps, then run the rule's condition, which is called nowhere
    else, on the complete bindings at the occurrence's `_anchor`. Returns
    the reason it refuses (None if it admits), the complete bindings and
    the new cbit count."""
    pos, matched = _anchor(c, form, site)
    b, num_cbits = dict(bindings), c.num_cbits
    qvars, cvars = [], []
    for var in form.dst_vars:
        if var not in b:
            (qvars if form.kinds[var] == "q" else cvars).append(var)
    if qvars or cvars:
        def free(var: str) -> list[int]:
            kind = form.kinds[var]
            taken = {w for v, w in b.items() if form.kinds[v] == kind}
            ws = _wires_for(c, form, var, pos, matched, _prepped_wires(c, form, var))
            return [w for w in ws if w not in taken]

        choices, qs = [free(v) for v in qvars], ()
        # the first variable that no injective tuple reaches is the one that fails
        for k, var in enumerate(qvars, start=1):
            qs = next(_injective(choices[:k]), None)
            if qs is None:
                return f"fresh-wire allocation failure for {var!r}", b, num_cbits
        b.update(zip(qvars, qs))
        for var in cvars:  # the first free cbit, else a new one
            ws = free(var)
            b[var], num_cbits = (ws[0], num_cbits) if ws else (num_cbits, num_cbits + 1)
    if form.src_preps:
        for p in ground_preps(form.src_preps, b):
            if p not in c.preps:
                return f"required prep {p} not present", b, num_cbits
    for var, test in form.condition:
        reason = test(c, pos, matched, b[var])
        if reason is not None:
            return reason, b, num_cbits
    return None, b, num_cbits


def _found(
    c: Circuit, form: RuleForm, site: tuple[int, ...] | None = None, listed: int = 0
) -> Iterator[Match]:
    """Each occurrence of the form in `c` that `_admit` admits, by first
    index (only at `site`, if given), as a `Match` that carries its
    admission: the one place a found match is built. `listed` matches were
    found before this search, and count toward `MAX_MATCHES`."""
    # a swap reads the same both ways, so a `Commute` match says forward
    said = "forward" if form.rule == "Commute" else form.direction
    # `_admit` reads the position only through the condition's tests, so an
    # insertion form with none admits a bindings dict, which the search
    # shares among positions, once (the dict is kept, so its id is not
    # reused within this search)
    once = {} if not (form.src or form.condition or form.rule == "Commute") else None
    for found, bindings in _occurrences(c, form, site, listed=listed):
        entry = None if once is None else once.get(id(bindings))
        if entry is None:
            # the search checked the rest of what `_check_applicable` checks
            reason, complete, num_cbits = _admit(c, form, found, bindings)
            key = admission = None
            if reason is None:
                key = tuple(sorted(bindings.items()))
                admission = _Admitted(c, form, complete, num_cbits)
            entry = bindings, key, admission
            if once is not None:
                once[id(bindings)] = entry
        _, key, admission = entry
        if admission is not None:
            m = Match(form.rule, said, found, key, form.variant)
            object.__setattr__(m, "_admitted", admission)
            yield m


def find_matches(c: Circuit, rule_id: str, direction: str = "forward") -> list[Match]:
    """All rule occurrences, ordered left to right by first matched index.

    Conditional rules only report sites whose static condition holds.
    Unknown rule ids raise KeyError, unknown directions ValueError.
    """
    out: list[Match] = []
    for form in rule_forms(rule_id, direction).values():
        # a body with fewer of an opcode than `src` holds has no occurrence
        if form.src_ops:
            ops = c.wire_index.ops
            if any(len(ops.get(op, ())) < n for op, n in form.src_ops):
                continue
        out.extend(_found(c, form, listed=len(out)))
    out.sort(key=lambda m: (m.site, m._admitted.form._rank, m.bindings))
    return out


# ----------------------------------------------------------------------
# Rewriting
# ----------------------------------------------------------------------


def _check_applicable(c: Circuit, form: RuleForm, m: Match) -> str | None:
    """None if the match names an occurrence of its form in `c`, else the
    reason it does not: its bindings fit the form and name declared wires,
    its site has the form's shape, and `_occurrences`, restricted to the
    site and seeded with the bindings, finds it."""
    bindings = m.binding_map
    reason = form.binding_error(bindings)
    if reason is not None:
        return reason
    for var, wire in m.bindings:
        kind = form.kinds[var]
        if not 0 <= wire < (c.num_qubits if kind == "q" else c.num_cbits):
            return f"binding of {var!r} to undeclared wire {kind}{wire}"
    if form.src:
        if len(m.site) != len(form.src):
            return "site length does not match pattern"
    elif len(m.site) > 1 or (m.rule == "Commute" and not m.site):
        return "site must be a single index"
    if next(_occurrences(c, form, m.site, bindings), None) is None:
        return "site is not a gatherable occurrence of the pattern"
    return None


def _gather(
    c: Circuit, form: RuleForm, site: tuple[int, ...]
) -> tuple[int, int, Sequence[Instruction], Sequence[Instruction]]:
    """An occurrence's position `pos`, the end of its span body[pos:end],
    its matched instructions, and the instructions of the span it skipped
    (`kept`), which a rewrite keeps after its replacement. A `Commute`
    match matches none and keeps its two instructions swapped."""
    if form.rule == "Commute":
        i = site[0]
        return i, i + 2, [], [c.body[i + 1], c.body[i]]
    pos, matched = _anchor(c, form, site)
    end = matched[-1] + 1 if matched else pos
    body = c.body
    if end - pos == len(matched):  # nothing skipped
        return pos, end, body[pos:end], ()
    kept = [body[j] for j in range(pos, end) if j not in matched]
    return pos, end, [body[j] for j in matched], kept


def rewrite_at(c: Circuit, m: Match, verify: bool = False) -> Circuit:
    """Apply a match: gather the matched instructions at the occurrence's
    position and splice in the instantiated replacement (a `Commute` match
    swaps its two instructions). Preps and roles carry over. A match that
    `find_matches` found on `c` itself applies without a second check;
    any other is checked first. With `verify`, a rewrite that the window
    of its match (`_window_equal`) does not show equal to `c` raises
    `VerificationError`. Unknown rule ids raise KeyError, unknown
    directions ValueError."""
    if m._admitted is not None and m._admitted.circuit is c:
        _, form, bindings, num_cbits = m._admitted
    else:
        form = rule_forms(m.rule, m.direction).get(m.variant)
        reason = _check_applicable(c, form, m) if form else f"unknown variant {m.variant!r}"
        if reason is None:
            reason, bindings, num_cbits = _admit(c, form, m.site, m.binding_map)
        if reason is not None:
            raise RewriteError(f"{m.rule}: {reason}")

    # a `Commute` match's two instructions are disjoint: no wire's order changes
    pos, end, _, kept = _gather(c, form, m.site)
    dst = form._ground_dst(bindings)
    preps = None
    if form.src_preps or form.dst_preps:
        preps = list(c.preps)
        for p in ground_preps(form.src_preps, bindings):
            preps.remove(p)
        preps.extend(ground_preps(form.dst_preps, bindings))
        preps = tuple(sorted(preps, key=lambda p: p.wires))
    # the matched and inserted instructions touch only bound wires
    cbits = [w for v, w in bindings.items() if form.kinds[v] == "c"]
    new = _splice(c, pos, end, dst, kept, num_cbits, preps, cbits)
    if verify and not _window_equal(c, new, m):
        raise VerificationError(f"step {m.label()} is not shown equal on its window")
    return new


# ----------------------------------------------------------------------
# Derivation traces
# ----------------------------------------------------------------------


@dataclass
class TraceStep:
    label: str
    circuit: Circuit
    verified: bool | None  # None when verification was off; never False


@dataclass
class DerivationTrace:
    start: Circuit
    steps: list[TraceStep]

    @property
    def final(self) -> Circuit:
        return self.steps[-1].circuit if self.steps else self.start

    def render(self) -> str:
        out = ["step 0: initial", _indent(serialize(self.start))]
        for k, step in enumerate(self.steps, start=1):
            tag = "" if step.verified is None else "  VERIFIED"
            out.append(f"step {k}: {step.label}{tag}")
            out.append(_indent(serialize(step.circuit)))
        return "\n".join(out)


def _indent(text: str) -> str:
    return "\n".join("    " + line for line in text.splitlines())


def _window_equal(a: Circuit, b: Circuit, m: Match) -> bool:
    """True if the window of the match `m` of `a`, which `b` is the rewrite
    of, shows `a` and `b` equal in any context they share: same channel,
    same joint law of the reports and the outputs. False if it cannot tell,
    not a proof that they differ.

    The window is the matched instructions against the replacement, at the
    match's position, read in `a`'s gathered circuit: `rewrite_at`'s splice
    with `src` in place of `dst`, so the prefix before the position, then
    the matched instructions, then the skipped ones and the rest of the
    body. Each later matched instruction shares no wire with any skipped
    before it, so swaps of disjoint instructions make that circuit of `a`,
    and its window touches the bound wires alone. A `b` that is not that
    circuit with the replacement in place of the matched instructions
    cannot tell.

    The qubit count, inputs and qubit roles must be identical. An empty
    window, such as a `Commute` match's, whose gathered circuit is its
    rewrite, is equal if the declarations are identical too. Any other
    window becomes two small window circuits, one per side, whose channels
    `_window_circuits_equal` compares:
    - a qubit whose state `wire_state_before` knows (|0>, |1>, |+> or |->,
      up to a global phase) enters in that state, a qubit whose prep the
      two sides declare differently enters as its side's prep, and every
      other qubit is an input;
    - a cbit written before the window is an input qubit measured into it,
      so each of its values is checked;
    - a cbit the window writes is copied to an output qubit if it is a
      report or the suffix reads it, and is summed out otherwise;
    - a discarded qubit that nothing after the window touches is traced
      out there, as it is at the end.
    A rewrite only appends cbits, so `b` must declare `a`'s cbits with
    their roles, and may append scratch cbits only. The preps may differ
    only on wires that both sides declare and nothing before the window
    touches (BellPrepFold): those wires are in their preps' states there,
    uncorrelated with every other wire. Any other difference, or a window
    circuit that is not a valid circuit (a copied cbit only one side
    writes), cannot tell.

    This is sound: at the window the joint state is classical on the cbits
    and arbitrary, entanglement included, on the input qubits. Equal window
    channels (equal Choi matrices) mean that, for every value of the cbits
    the window reads, both windows leave the same state on the qubits and
    cbits anything after them reads. The prefix and the suffix are shared,
    so the whole channel and the joint law of the reports are equal. A
    window circuit over `sim.BYTE_BUDGET` raises `SimulationError` before
    it is built.

    Each verdict depends on nothing but the window's local form: its
    instructions with qubits and cbits numbered, each kind on its own, in
    order of first appearance (then changed preps' wires), and each wire's
    descriptor (its state or prep and whether it is traced; whether a cbit
    is read, copied or summed out). Both sides share one numbering, so the
    same form on other wires or at another step has the same verdict, and
    the memo is exact. The budget check runs here, before the lookup, on
    every call, so a hit is refused over budget just as a miss is.
    """
    if (a.num_qubits, a.inputs, a.q_roles) != (b.num_qubits, b.inputs, b.q_roles):
        return False
    x, y = a.body, b.body
    p, end, src, kept = _gather(a, rule_forms(m.rule, m.direction)[m.variant], m.site)
    old, rest = tuple(src), tuple(kept) + x[end:]
    k = len(y) - len(rest)
    if k < p or y[:p] != x[:p] or y[k:] != rest:
        return False  # `b` is not the rewrite of `a` at the match
    # the gathered circuit's suffix `rest` is body[p:] but the matched indices
    new, skip = y[p:k], m.site if src else ()
    same = (a.num_cbits, a.preps, a.c_roles) == (b.num_cbits, b.preps, b.c_roles)
    if same and not old and not new:
        return True
    qs: dict[int, int] = {}
    cs: dict[int, int] = {}
    for instr in old + new:
        for name, kind in FIELD_KINDS[type(instr)]:
            local = qs if kind == "q" else cs
            local.setdefault(getattr(instr, name), len(local))
    changed = []
    if a.preps != b.preps:
        pa, pb = a._prep_by_wire, b._prep_by_wire
        changed = sorted(w for w in pa.keys() | pb.keys() if pa.get(w) != pb.get(w))
    for w in changed:
        if w not in pa or w not in pb or touched(a, WireRef("q", w), stop=p):
            return False
        qs.setdefault(w, len(qs))
    if b.c_roles[: a.num_cbits] != a.c_roles or "report" in b.c_roles[a.num_cbits :]:
        return False
    def later(wire: WireRef) -> bool:  # touched in the suffix
        return touched(a, wire, p, skip=skip)

    traced = {w for w in qs if a.q_roles[w] == "discard" and not later(WireRef("q", w))}
    states = tuple("prep" if w in changed else wire_state_before(a, w, p) for w in qs)
    old, new = tuple(ground(old, qs, cs)), tuple(ground(new, qs, cs))
    cbits = tuple(
        "read" if touched(a, WireRef("c", r), stop=p)
        else "copied" if b.c_roles[r] == "report" or later(WireRef("c", r))
        else "summed"
        for r in cs
    )
    qubits = tuple(
        (state, "discard" if w in traced else "output") for w, state in zip(qs, states)
    )
    read, copied = cbits.count("read"), cbits.count("copied")
    inputs = states.count(None) + read
    _require_budget((1 << (len(qs) + read + copied)) << inputs, "prepared state")
    preps_a, preps_b = (
        tuple(sorted(
            ground_preps([prep for prep in c.preps if prep.wires[0] in changed], qs),
            key=lambda prep: prep.wires,
        ))
        for c in (a, b)
    )
    return _window_circuits_equal(old, new, qubits, cbits, preps_a, preps_b)


_WINDOW_MEMO_SIZE = 4096  # distinct window forms whose verdicts the memo keeps


@lru_cache(maxsize=_WINDOW_MEMO_SIZE)
def _window_circuits_equal(
    old: tuple, new: tuple, qubits: tuple, cbits: tuple, preps_a: tuple, preps_b: tuple
) -> bool:
    """Whether window circuits running `old` and `new`, on local qubits
    0..k-1 and local cbits, have equal channels (`channel_equal`, within
    `CHANNEL_ATOL`); False if either is not a valid circuit.

    `qubits[j]` is local qubit j's (state, role): a state name of
    `sim.STATE_VECTORS`, made by a |0> or |+> prep and X or Z; "prep",
    for its side's prep in `preps_a` or `preps_b`; or None, for an input.
    Its role is "discard" where it is traced out. `cbits[r]` is local cbit
    r's use: "read" (an input qubit after the local ones, measured into r
    first), "copied" (`CX r` onto a fresh |0> output qubit after the
    inputs, last) or "summed". `_window_equal` checks the size of the
    prepared state before the memo lookup."""
    k = len(qubits)
    read = [r for r, use in enumerate(cbits) if use == "read"]
    copied = [r for r, use in enumerate(cbits) if use == "copied"]
    preps, head, roles = [], [], {}
    for j, (state, role) in enumerate(qubits):
        roles[j] = role
        if state in ("zero", "one"):
            preps.append(prep_zero(j))
        elif state in ("plus", "minus"):
            preps.append(prep_plus(j))
        if state in ("one", "minus"):
            head.append(Gate1("X" if state == "one" else "Z", j))
    for j, r in enumerate(read, start=k):
        head.append(Measure(j, r))
    tail = []
    for j, r in enumerate(copied, start=k + len(read)):
        preps.append(prep_zero(j))
        tail.append(ClassicalCtrl("CX", r, j))
    channels = []
    for body, side in ((old, preps_a), (new, preps_b)):
        try:
            c = circuit(
                k + len(read) + len(copied), len(cbits), head + list(body) + tail,
                preps=preps + list(side), q_roles=roles,
            )
        except CircuitError:
            return False
        channels.append(extract_channel(c))
    return channel_equal(*channels)


def apply_steps(c: Circuit, steps: list[Match], verify: bool = True) -> DerivationTrace:
    """Apply a scripted sequence of matches. With `verify`, `rewrite_at`
    checks each step against the step before it, so every accepted step is
    equal to the start."""
    trace = DerivationTrace(c, [])
    for m in steps:
        trace.steps.append(TraceStep(m.label(), rewrite_at(trace.final, m, verify), verify or None))
    return trace


# ----------------------------------------------------------------------
# Greedy simplification
# ----------------------------------------------------------------------

_SIMPLIFY_PRIORITY = (
    ("R1_InverseCancel", "forward"),
    ("R1_ControlZero", "forward"),
    ("R1_TargetPlus", "forward"),
    ("R3_DeferMeasure", "backward"),
    ("R4_XorSubstitute", "forward"),
)


def gate_measure(c: Circuit) -> tuple[int, int, int]:
    """Lexicographic cost: quantum gates, classically controlled gates, length."""
    q = sum(isinstance(i, (Gate1, Gate2)) for i in c.body)
    cc = sum(isinstance(i, ClassicalCtrl) for i in c.body)
    return (q, cc, len(c.body))


def simplify(c: Circuit, verify: bool = True) -> tuple[Circuit, DerivationTrace]:
    """Greedy fixpoint of the null-gate and classical-substitution rules.

    Deterministic: fixed rule priority, leftmost match first, and the first
    match found is committed. Each priority form's replacement counts less
    than its pattern by `gate_measure` and needs no fresh qubit, so every
    step applies and strictly reduces the measure, and the loop terminates.
    """
    trace = DerivationTrace(c, [])
    while True:
        c = trace.final
        found = (m for rule in _SIMPLIFY_PRIORITY for m in find_matches(c, *rule))
        m = next(found, None)
        if m is None:
            return c, trace
        trace.steps.append(TraceStep(m.label(), rewrite_at(c, m, verify), verify or None))


# ----------------------------------------------------------------------
# Rule III canonicalization (measurement deferral)
# ----------------------------------------------------------------------


def defer_measurements(c: Circuit) -> Circuit:
    """Rule III canonical form: move measurements right, leftmost movable
    one first, by found matches only, until none moves.

    A measurement at i takes the `R3_DeferMeasure` forward match at
    (i, i + 1) if there is one, becoming the quantum control of the
    classically controlled gate that reads its result, else the `Commute`
    match at i, passing a disjoint instruction. It stops at another
    measurement, at a reuse of its wire, at an XOR reading its result, or
    at a reader that targets the measured wire. Only if every measurement
    reaches the end is the result the gates-then-measurements form
    `channel_of_deferred` reads.
    """
    i = 0
    while i < len(c.body) - 1:
        if isinstance(c.body[i], Measure) and not isinstance(c.body[i + 1], Measure):
            found = (
                m
                for rule, site in (("R3_DeferMeasure", (i, i + 1)), ("Commute", (i,)))
                for form in rule_forms(rule, "forward").values()
                for m in _found(c, form, site)
            )
            m = next(found, None)
            if m is not None:
                # no pair before i - 1 changed, and none of them moves
                c, i = rewrite_at(c, m), max(i - 1, 0)
                continue
        i += 1
    return c

