"""Fixture-snippet tests for every simlint rule.

Each rule gets at least one positive fixture (the rule fires, with the
right code and location) and one suppressed fixture (the documented
suppression syntax silences it).  The snippets are linted through
:func:`repro.devtools.simlint.lint_source` with paths chosen to exercise
the path-derived rule scoping.
"""

from __future__ import annotations

import textwrap

from repro.devtools.simlint import Finding, lint_paths, lint_source, main

SIM_PATH = "src/repro/sim/module.py"
HW_PATH = "src/repro/hw/module.py"
ANALYSIS_PATH = "src/repro/analysis/module.py"
NEUTRAL_PATH = "src/repro/core/module.py"
BENCH_PATH = "benchmarks/bench_module.py"
TEST_PATH = "tests/sim/test_module.py"


def lint(source: str, path: str = SIM_PATH) -> list[Finding]:
    return lint_source(textwrap.dedent(source), path)


def codes(source: str, path: str = SIM_PATH) -> list[str]:
    return [finding.code for finding in lint(source, path)]


# --------------------------------------------------------------------- #
# SIM001 — global RNG
# --------------------------------------------------------------------- #
class TestSIM001:
    def test_numpy_free_function_fires(self):
        assert codes("import numpy as np\nnp.random.seed(1)\n") == ["SIM001"]
        assert codes("import numpy as np\nx = np.random.random(4)\n") == ["SIM001"]

    def test_fires_in_every_scope(self):
        for path in (SIM_PATH, NEUTRAL_PATH, TEST_PATH, BENCH_PATH, ANALYSIS_PATH):
            assert codes("import random\nrandom.random()\n", path) == ["SIM001"]

    def test_unseeded_default_rng_fires(self):
        assert codes("import numpy as np\nrng = np.random.default_rng()\n") == [
            "SIM001"
        ]

    def test_seeded_default_rng_is_clean(self):
        assert codes("import numpy as np\nrng = np.random.default_rng((7, 3))\n") == []
        assert codes("import numpy as np\nrng = np.random.default_rng(seed=5)\n") == []

    def test_generator_method_calls_are_clean(self):
        # rng.random() is a bound Generator method, not the global RNG
        assert codes("x = rng.random(4)\n") == []

    def test_suppressed(self):
        source = "import numpy as np\nnp.random.seed(1)  # simlint: ignore[SIM001]\n"
        assert codes(source) == []

    def test_location_and_hint(self):
        (finding,) = lint("import numpy as np\n\nnp.random.seed(1)\n")
        assert finding.line == 3
        assert finding.code == "SIM001"
        assert "default_rng" in finding.hint
        assert finding.render().startswith(f"{SIM_PATH}:3:")


# --------------------------------------------------------------------- #
# SIM002 — wall-clock reads
# --------------------------------------------------------------------- #
class TestSIM002:
    def test_perf_counter_fires(self):
        assert codes("import time\nt = time.perf_counter()\n") == ["SIM002"]

    def test_datetime_now_fires(self):
        source = "import datetime\nnow = datetime.datetime.now()\n"
        assert codes(source, NEUTRAL_PATH) == ["SIM002"]

    def test_benchmarks_are_exempt(self):
        assert codes("import time\nt = time.perf_counter()\n", BENCH_PATH) == []

    def test_suppressed(self):
        source = "import time\nt = time.time()  # simlint: ignore[SIM002]\n"
        assert codes(source) == []

    def test_blanket_ignore_suppresses(self):
        source = "import time\nt = time.time()  # simlint: ignore\n"
        assert codes(source) == []


# --------------------------------------------------------------------- #
# SIM003 — unordered iteration
# --------------------------------------------------------------------- #
class TestSIM003:
    def test_set_call_iteration_fires(self):
        source = "for item in set(values):\n    use(item)\n"
        assert codes(source) == ["SIM003"]
        assert codes(source, HW_PATH) == ["SIM003"]

    def test_dict_keys_iteration_fires(self):
        assert codes("for key in table.keys():\n    use(key)\n") == ["SIM003"]

    def test_comprehension_over_set_fires(self):
        assert codes("out = [f(x) for x in set(values)]\n") == ["SIM003"]

    def test_tracked_set_name_fires(self):
        source = "pending = set()\nfor item in pending:\n    use(item)\n"
        assert codes(source) == ["SIM003"]

    def test_sorted_wrapper_is_clean(self):
        assert codes("for item in sorted(set(values)):\n    use(item)\n") == []

    def test_literal_set_is_clean(self):
        # a literal's iteration order is the source order
        assert codes("for item in {1, 2, 3}:\n    use(item)\n") == []

    def test_only_sim_hw_scoped(self):
        source = "for item in set(values):\n    use(item)\n"
        for path in (NEUTRAL_PATH, TEST_PATH, BENCH_PATH, ANALYSIS_PATH):
            assert codes(source, path) == []

    def test_suppressed_with_ordered(self):
        source = "for item in set(values):  # simlint: ordered — max() below\n    use(item)\n"
        assert codes(source) == []


# --------------------------------------------------------------------- #
# SIM004 — float equality
# --------------------------------------------------------------------- #
class TestSIM004:
    def test_float_literal_equality_fires(self):
        assert codes("if x == 0.5:\n    pass\n") == ["SIM004"]
        assert codes("if x != 1.0:\n    pass\n", HW_PATH) == ["SIM004"]

    def test_float_arithmetic_equality_fires(self):
        assert codes("flag = a == b * 1.5\n") == ["SIM004"]

    def test_float_call_equality_fires(self):
        assert codes("flag = float(a) == b\n") == ["SIM004"]

    def test_integer_equality_is_clean(self):
        assert codes("if count == 0:\n    pass\n") == []

    def test_ordering_comparisons_are_clean(self):
        assert codes("if x <= 0.5:\n    pass\n") == []

    def test_only_sim_hw_scoped(self):
        for path in (NEUTRAL_PATH, TEST_PATH, BENCH_PATH):
            assert codes("if x == 0.5:\n    pass\n", path) == []

    def test_suppressed_with_exact(self):
        source = "if x == 0.0:  # simlint: exact — sentinel, never computed\n    pass\n"
        assert codes(source) == []


# --------------------------------------------------------------------- #
# SIM005 — raw event pushes
# --------------------------------------------------------------------- #
class TestSIM005:
    def test_raw_heappush_subkey_fires(self):
        source = "heappush(entries, (now, 5, payload))\n"
        assert codes(source) == ["SIM005"]

    def test_packed_heappush_is_clean(self):
        assert codes("heappush(entries, (now, base + seq, payload))\n") == []

    def test_raw_schedule_priority_fires(self):
        assert codes("loop.schedule(t, callback, priority=3)\n") == ["SIM005"]
        assert codes("loop.schedule(t, callback, 3)\n") == ["SIM005"]

    def test_named_schedule_priority_is_clean(self):
        assert codes("loop.schedule(t, callback, priority=PRIO_LINK)\n") == []

    def test_raw_queue_push_fires(self):
        assert codes("queue.push(t, 7, payload)\n") == ["SIM005"]

    def test_packed_queue_push_is_clean(self):
        assert codes("queue.push(t, pack_subkey(PRIO_LINK, rank, seq), payload)\n") == []

    def test_tests_are_exempt(self):
        assert codes("heappush(entries, (now, 5, payload))\n", TEST_PATH) == []

    def test_suppressed(self):
        source = "heappush(entries, (now, 5, payload))  # simlint: ignore[SIM005]\n"
        assert codes(source) == []


# --------------------------------------------------------------------- #
# SIM006 — NaN-unaware comparisons
# --------------------------------------------------------------------- #
class TestSIM006:
    def test_nan_equality_fires(self):
        source = "import numpy as np\nbad = x == np.nan\n"
        assert codes(source, ANALYSIS_PATH) == ["SIM006"]

    def test_nan_ordering_fires(self):
        assert codes('bad = x > float("nan")\n', ANALYSIS_PATH) == ["SIM006"]

    def test_math_nan_fires(self):
        source = "import math\nbad = x != math.nan\n"
        assert codes(source, ANALYSIS_PATH) == ["SIM006"]

    def test_isnan_is_clean(self):
        source = "import numpy as np\nok = np.isnan(x)\n"
        assert codes(source, ANALYSIS_PATH) == []

    def test_only_analysis_scoped(self):
        source = "import numpy as np\nbad = x == np.nan\n"
        assert codes(source, NEUTRAL_PATH) == []

    def test_suppressed(self):
        source = "import numpy as np\nbad = x == np.nan  # simlint: ignore[SIM006]\n"
        assert codes(source, ANALYSIS_PATH) == []


# --------------------------------------------------------------------- #
# file-wide suppressions, syntax errors, CLI
# --------------------------------------------------------------------- #
# --------------------------------------------------------------------- #
# SIM007 — identity keys
# --------------------------------------------------------------------- #
class TestSIM007:
    def test_id_call_fires_in_sim_and_hw(self):
        source = "key = (id(system), tuple(id(p) for p in profiles))\n"
        assert codes(source, SIM_PATH) == ["SIM007", "SIM007"]
        assert codes("cache[id(profile)] = priced\n", HW_PATH) == ["SIM007"]

    def test_location_and_message(self):
        (finding,) = lint("x = 1\nkey = id(profile)\n")
        assert (finding.line, finding.col) == (2, 7)
        assert "cache key" in finding.message

    def test_other_scopes_and_other_names_are_clean(self):
        for path in (NEUTRAL_PATH, TEST_PATH, BENCH_PATH, ANALYSIS_PATH):
            assert codes("key = id(profile)\n", path) == []
        # attributes and arguments named ``id`` are not the builtin
        assert codes("key = profile.id()\nrow = table.get(id=3)\nsid = session_id(p)\n") == []

    def test_suppressed(self):
        assert codes("key = id(profile)  # simlint: ignore[SIM007]\n") == []


# --------------------------------------------------------------------- #
# SIM008 — builtin sum
# --------------------------------------------------------------------- #
class TestSIM008:
    def test_float_sum_fires_in_sim_and_hw(self):
        source = "total = sum(row.wait_s for row in rows)\n"
        assert codes(source, SIM_PATH) == ["SIM008"]
        assert codes(source, HW_PATH) == ["SIM008"]

    def test_location_and_hint(self):
        (finding,) = lint("x = 1\ntotal = 1.0 + sum(parts)\n")
        assert (finding.line, finding.col) == (2, 15)
        assert "0.0" in finding.hint

    def test_left_fold_and_other_scopes_are_clean(self):
        assert codes("total = reduce(add, (row.wait_s for row in rows), 0.0)\n") == []
        assert codes("total = np.sum(column) + column.sum()\n") == []
        for path in (NEUTRAL_PATH, TEST_PATH, BENCH_PATH, ANALYSIS_PATH):
            assert codes("total = sum(rows)\n", path) == []

    def test_annotated_integer_sum_is_silent(self):
        source = "moved = sum(m.jobs for m in migrations)  # simlint: int-sum — job counts\n"
        assert codes(source) == []
        multiline = "n = sum(  # simlint: int-sum — a count\n    1 for m in migrations\n)\n"
        assert codes(multiline) == []


class TestSuppressionsAndCLI:
    def test_skip_file(self):
        source = "# simlint: skip-file\nimport numpy as np\nnp.random.seed(1)\n"
        assert codes(source) == []

    def test_file_ignore_listed_rules(self):
        source = (
            "# simlint: file-ignore[SIM002]\n"
            "import time\n"
            "t = time.time()\n"
            "if x == 0.5:\n"
            "    pass\n"
        )
        assert codes(source) == ["SIM004"]

    def test_hash_inside_string_is_not_a_suppression(self):
        source = 'label = "# simlint: skip-file"\nif x == 0.5:\n    pass\n'
        assert codes(source) == ["SIM004"]

    def test_syntax_error_reports_sim000(self):
        (finding,) = lint("def broken(:\n")
        assert finding.code == "SIM000"

    def test_multiline_statement_suppression(self):
        # the suppression comment may sit on any physical line of the node
        source = "flag = (x ==\n        0.5)  # simlint: exact — pinned\n"
        assert codes(source) == []

    def test_lint_paths_and_main(self, tmp_path, capsys):
        clean = tmp_path / "src" / "repro" / "sim" / "clean.py"
        clean.parent.mkdir(parents=True)
        clean.write_text("x = 1\n")
        dirty = tmp_path / "src" / "repro" / "sim" / "dirty.py"
        dirty.write_text("if x == 0.5:\n    pass\n")

        findings = lint_paths([tmp_path])
        assert [finding.code for finding in findings] == ["SIM004"]

        assert main([str(clean)]) == 0
        assert "clean" in capsys.readouterr().out
        assert main([str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "SIM004" in out and "dirty.py:1:" in out
        assert main([]) == 2
        capsys.readouterr()
        assert main(["--rules"]) == 0
        out = capsys.readouterr().out
        for code in ("SIM001", "SIM002", "SIM003", "SIM004", "SIM005", "SIM006", "SIM007", "SIM008"):
            assert code in out
