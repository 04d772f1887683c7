"""Written-name joins agree with a join over every name.

``Scope.join_from`` visits only the names the joined scopes wrote since
they were copied.  The reference join below visits every name in every
scope.  Over seeded random programs of writes, nested branches (joins
in joins), loops, loop-style ``scope.join_from(snapshot)`` calls and
direct writes to the outermost scope while snapshots of it are live (a
function called in a branch writing through ``global``), the engine's
``_exec_branches``/``_exec_loop``/``join_from`` must leave exactly the
records the reference leaves.
"""

import random

from repro.config.vulnerability import ALL_KINDS, InputVector
from repro.core.engine import Scope, TaintEngine
from repro.core.oop import join_class_names
from repro.core.taint import ConcreteSource, TaintState, VariableRecord

SEEDS = range(300)
NAMES = ("a", "b", "c", "d", "e", "f", "g")
CLASSES = ("", "", "wpdb", "Widget")


def reference_join(target: Scope, *branches: Scope) -> None:
    names = set(target.records)
    for branch in branches:
        names.update(branch.records)
    scopes = (target, *branches)
    for name in names:
        variants = [scope.records[name] for scope in scopes if name in scope.records]
        if all(record is variants[0] for record in variants):
            target.records[name] = variants[0]
            continue
        taint = variants[0].taint
        for record in variants[1:]:
            taint = taint.joined(record.taint)
        class_name = join_class_names(record.class_name or "" for record in variants)
        target.records[name] = variants[-1].updated(
            taint=taint, class_name=class_name or None
        )


class Interpreter:
    """Runs a random program against one scope tree."""

    def __init__(self, reference: bool, root: Scope) -> None:
        self.reference = reference
        self.root = root
        self.engine = TaintEngine.__new__(TaintEngine)  # only the join methods run
        self.engine._exec_block = self.run
        # no scope of these programs is the engine's global scope: a
        # "root" op writes the pre-state while the branches run
        self.engine.globals = None

    def run(self, program, scope: Scope) -> None:
        for op in program:
            kind = op[0]
            if kind == "set":
                scope.set(op[1])
            elif kind == "root":
                self.root.set(op[1])
            elif kind == "branches":
                self.branches(op[1], scope, op[2])
            elif kind == "loop":
                self.loop(op[1], scope)
            else:  # "join": one snapshot joined straight back
                snapshot = scope.copy()
                self.run(op[1], snapshot)
                if self.reference:
                    reference_join(scope, snapshot)
                else:
                    scope.join_from(snapshot)

    def branches(self, branches, scope: Scope, exhaustive: bool) -> None:
        if not self.reference:
            self.engine._exec_branches(branches, scope, exhaustive=exhaustive)
            return
        outcomes = []
        for branch in branches:
            snapshot = scope.copy()
            self.run(branch, snapshot)
            outcomes.append(snapshot)
        if not exhaustive:
            outcomes.append(scope.copy())
        reference_join(outcomes[0], *outcomes[1:])
        scope.records = outcomes[0].records

    def loop(self, body, scope: Scope) -> None:
        if not self.reference:
            self.engine._exec_loop(body, scope)
            return
        snapshot = scope.copy()
        self.run(body, snapshot)
        self.run(body, snapshot)
        reference_join(scope, snapshot)


class ProgramGenerator:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.serial = 0
        self.taints = [TaintState.clean()] + [
            TaintState.from_label(
                ConcreteSource(vector=vector, name=f"${vector.value}", file="p.php", line=line),
                ALL_KINDS,
            )
            for line, vector in enumerate((InputVector.GET, InputVector.POST, InputVector.DB))
        ]

    def record(self) -> VariableRecord:
        self.serial += 1
        return VariableRecord(
            name=self.rng.choice(NAMES),
            file="p.php",
            line=self.serial,
            taint=self.rng.choice(self.taints),
            class_name=self.rng.choice(CLASSES) or None,
            trace=(f"write {self.serial}",),
        )

    def program(self, depth: int) -> list:
        ops = []
        for _ in range(self.rng.randint(0, 6)):
            roll = self.rng.random()
            if depth >= 3 or roll < 0.45:
                ops.append(("set", self.record()))
            elif roll < 0.55:
                ops.append(("root", self.record()))
            elif roll < 0.75:
                branches = [self.program(depth + 1) for _ in range(self.rng.randint(1, 3))]
                ops.append(("branches", branches, self.rng.random() < 0.5))
            elif roll < 0.9:
                ops.append(("loop", self.program(depth + 1)))
            else:
                ops.append(("join", self.program(depth + 1)))
        return ops


def test_written_name_joins_match_the_all_names_join():
    visited_nested = 0
    for seed in SEEDS:
        generator = ProgramGenerator(seed)
        prelude = [generator.record() for _ in range(generator.rng.randint(0, 5))]
        program = generator.program(0)
        visited_nested += any(op[0] != "set" for op in program)
        results = []
        for reference in (True, False):
            root = Scope("<global>")
            for record in prelude:
                root.set(record)
            # the program runs on the root itself, so "root" writes land
            # in the pre-state of the branches and loops it runs
            Interpreter(reference, root).run(program, root)
            results.append(dict(root.records))
        assert results[0] == results[1], f"seed {seed}: records differ"
    assert visited_nested > len(SEEDS) // 2


def test_join_visits_only_written_names():
    tainted = ProgramGenerator(0).taints[1]
    scope = Scope()
    for index in range(100):
        scope.set(VariableRecord(name=f"v{index}"))
    snapshot = scope.copy()
    snapshot.set(VariableRecord(name="v7", taint=tainted))
    scope.written = set()
    scope.join_from(snapshot)
    assert scope.written == {"v7"}
    assert scope.records["v7"].taint is tainted
