"""Reference aliases (``$b =& $a``) across branches and loops are sound.

Seeded random programs over a few variables — taint and clean writes,
copies, ``=&`` links, ``echo`` sinks, ``if``/``else`` and ``foreach`` —
are run two ways: by the engine, and by a concrete interpreter that
follows PHP's reference semantics (names bound to shared storage slots)
along every path.  Every ``echo`` that prints tainted data on some path
must be reported.  Programs without ``=&`` must be reported exactly:
with copies as the only data flow, the engine's per-variable join loses
nothing.

A ``foreach`` runs zero or two times on the concrete side, which is the
engine's loop model (two passes joined with the skipped loop).
"""

import random

from repro.config.vulnerability import VulnKind

from tests.helpers import findings_of

SEEDS = range(200)
NAMES = ("a", "b", "c", "d")


class ProgramGenerator:
    """Builds a random program and its PHP source together, one source
    line per statement, so an ``echo`` op knows its line."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.lines = ["<?php"]

    def statement(self) -> tuple:
        x, y = self.rng.choice(NAMES), self.rng.choice(NAMES)
        kind = self.rng.choice(("taint", "clean", "copy", "ref", "echo"))
        if kind == "echo":
            return self.echo(x)
        self.lines.append({
            "taint": f"${x} = $_GET['p'];",
            "clean": f"${x} = 'safe';",
            "copy": f"${x} = ${y};",
            "ref": f"${x} =& ${y};",
        }[kind])
        return (kind, x, y)

    def echo(self, name: str) -> tuple:
        self.lines.append(f"echo ${name};")
        return ("echo", name, len(self.lines))

    def block(self, depth: int) -> list:
        ops = []
        for _ in range(self.rng.randint(1, 4)):
            roll = self.rng.random()
            if depth >= 2 or roll < 0.6:
                ops.append(self.statement())
            elif roll < 0.85:
                self.lines.append("if ($c) {")
                then = self.block(depth + 1)
                orelse = None
                if self.rng.random() < 0.5:
                    self.lines.append("} else {")
                    orelse = self.block(depth + 1)
                self.lines.append("}")
                ops.append(("if", then, orelse))
            else:
                self.lines.append("foreach ($rows as $row) {")
                ops.append(("loop", self.block(depth + 1)))
                self.lines.append("}")
        return ops

    def program(self) -> list:
        return self.block(0) + [self.echo(name) for name in NAMES]


def run_concrete(ops: list, states: list, tainted_echoes: set) -> list:
    """Run ``ops`` from every state; a state is ``(env, slots)`` with
    ``env`` mapping a name to its slot and ``slots`` a slot to taint."""
    for op in ops:
        kind = op[0]
        if kind == "if":
            taken = run_concrete(op[1], [copy(s) for s in states], tainted_echoes)
            if op[2] is None:
                states = taken + states
            else:
                states = taken + run_concrete(op[2], states, tainted_echoes)
        elif kind == "loop":
            twice = [copy(s) for s in states]
            for _ in range(2):
                twice = run_concrete(op[1], twice, tainted_echoes)
            states = twice + states
        else:
            for state in states:
                step(op, state, tainted_echoes)
        states = dedupe(states)
    return states


def step(op: tuple, state: tuple, tainted_echoes: set) -> None:
    env, slots = state
    kind, x = op[0], op[1]
    if kind == "echo":
        if x in env and slots[env[x]]:
            tainted_echoes.add(op[2])
    elif kind == "ref":
        y = op[2]
        if y not in env:
            env[y] = len(slots)
            slots.append(False)
        env[x] = env[y]
    else:
        value = kind == "taint" or (kind == "copy" and op[2] in env and slots[env[op[2]]])
        if x not in env:
            env[x] = len(slots)
            slots.append(False)
        slots[env[x]] = value


def copy(state: tuple) -> tuple:
    return dict(state[0]), list(state[1])


def dedupe(states: list) -> list:
    unique = {}
    for env, slots in states:
        names = sorted(env)
        key = (tuple(names), tuple(env[n] for n in names), tuple(slots))
        unique.setdefault(key, (env, slots))
    return list(unique.values())


def has_ref(ops: list) -> bool:
    for op in ops:
        if op[0] == "ref":
            return True
        if op[0] in ("if", "loop") and any(
            has_ref(block) for block in op[1:] if block is not None
        ):
            return True
    return False


def test_every_tainted_echo_on_some_path_is_reported():
    with_refs = 0
    for seed in SEEDS:
        generator = ProgramGenerator(seed)
        program = generator.program()
        tainted = set()
        run_concrete(program, [({}, [])], tainted)
        source = "\n".join(generator.lines)
        reported = {f.line for f in findings_of(source) if f.kind is VulnKind.XSS}
        missed = tainted - reported
        assert not missed, f"seed {seed}: lines {sorted(missed)} missed in\n{source}"
        if has_ref(program):
            with_refs += 1
        else:
            assert reported == tainted, f"seed {seed}: imprecise on\n{source}"
    assert with_refs > len(SEEDS) // 2
