"""Unit tests for the module-global mutation pass."""

import textwrap
from pathlib import Path

from repro.analysis.context import Project
from repro.analysis.dataflow import module_global_mutations


def write(root: Path, relpath: str, source: str) -> None:
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")


def project(root: Path) -> Project:
    return Project(root)


class TestModuleGlobalMutations:
    def test_mutation_kinds_attributed_to_functions(self, tmp_path):
        write(tmp_path, "src/repro/state.py", """\
            MEMO = {}
            LOG = []
            COUNT = 0
            LOCAL_ONLY = {}


            def fill(key, value):
                MEMO[key] = value
                LOG.append(key)


            def bump():
                global COUNT
                COUNT += 1


            def clean(key):
                del MEMO[key]


            def innocent():
                mine = {}
                mine["x"] = 1
                return mine
        """)
        ctx = project(tmp_path).module("src/repro/state.py")
        muts = {(m.name, m.function, m.how)
                for m in module_global_mutations(ctx)}
        assert ("MEMO", "fill", "[...] = ...") in muts
        assert ("LOG", "fill", ".append(...)") in muts
        assert ("COUNT", "bump", "augment") in muts
        assert ("MEMO", "clean", "del [...]") in muts
        assert not any(m[1] == "innocent" for m in muts)

    def test_top_level_initialization_not_reported(self, tmp_path):
        write(tmp_path, "src/repro/init.py", """\
            TABLE = {}
            TABLE["seed"] = 1
        """)
        ctx = project(tmp_path).module("src/repro/init.py")
        assert module_global_mutations(ctx) == []

    def test_nested_function_gets_its_own_qualname(self, tmp_path):
        write(tmp_path, "src/repro/nest.py", """\
            MEMO = {}


            def outer():
                def inner():
                    MEMO["k"] = 1
                return inner
        """)
        ctx = project(tmp_path).module("src/repro/nest.py")
        muts = module_global_mutations(ctx)
        assert [(m.name, m.function) for m in muts] == [
            ("MEMO", "outer.inner")]
