"""The AST side of ``benchmarks/census.py`` on a toy module."""

import textwrap

from benchmarks.census import Function, functions_in, never_entered, report

TOY = textwrap.dedent('''\
    import functools


    def used():
        return 1


    class Box:
        @property
        def size(self):
            return 2

        @functools.lru_cache()
        @staticmethod
        def cached():
            def inner():
                return 3
            return inner


    async def later():
        return 4
''')


def test_every_def_with_its_code_object_line():
    functions = functions_in(TOY, "repro/toy.py")
    assert [(f.qualname, f.first, f.start, f.last) for f in functions] == [
        ("used", 4, 4, 5),
        ("Box.size", 9, 10, 11),
        ("Box.cached", 13, 15, 18),
        ("Box.cached.<locals>.inner", 16, 16, 17),
        ("later", 21, 21, 22),
    ]


def test_keys_match_what_the_interpreter_reports():
    namespace = {}
    exec(compile(TOY, "toy", "exec"), namespace)
    box = namespace["Box"]
    codes = [
        namespace["used"].__code__,
        box.__dict__["size"].fget.__code__,
        box.__dict__["cached"].__wrapped__.__func__.__code__,
        box.cached().__code__,
        namespace["later"].__code__,
    ]
    entered = {("repro/toy.py", c.co_firstlineno, c.co_name) for c in codes}
    assert {f.key for f in functions_in(TOY, "repro/toy.py")} == entered


def test_never_entered_sorts_and_totals_by_package():
    functions = [
        Function("repro/sim/b.py", 3, 3, 4, "late"),
        Function("repro/experiments/x.py", 1, 2, 5, "run"),
        Function("repro/sim/a.py", 7, 7, 9, "f"),
        Function("repro/sim/a.py", 2, 2, 2, "g"),
    ]
    missed = never_entered(functions, {("repro/sim/a.py", 2, "g")})
    assert [(f.path, f.first) for f in missed] == [
        ("repro/experiments/x.py", 1), ("repro/sim/a.py", 7), ("repro/sim/b.py", 3),
    ]
    assert report(missed, len(functions)).splitlines() == [
        "repro/experiments/x.py:1  run  (4 lines)",
        "repro/sim/a.py:7  f  (3 lines)",
        "repro/sim/b.py:3  late  (2 lines)",
        "tier-1 enters 1 of 4 functions",
        "never entered outside experiments/: 2 functions, 5 lines",
        "never entered in experiments/: 1 functions, 4 lines",
    ]
