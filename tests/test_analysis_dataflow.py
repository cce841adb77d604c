"""Unit tests for the interprocedural core: call graph + dataflow."""

import textwrap
from pathlib import Path

from repro.analysis.context import Project
from repro.analysis.dataflow import fork_entry_points, module_global_mutations


def write(root: Path, relpath: str, source: str) -> None:
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")


def project(root: Path) -> Project:
    return Project(root)


class TestCallGraph:
    def test_same_module_and_cross_module_edges(self, tmp_path):
        write(tmp_path, "src/repro/util.py", """\
            def helper():
                return 1
        """)
        write(tmp_path, "src/repro/main.py", """\
            from repro.util import helper
            import repro.util as util


            def local():
                return helper()


            def entry():
                local()
                return util.helper()
        """)
        g = project(tmp_path).callgraph()
        entry = ("src/repro/main.py", "entry")
        assert ("src/repro/main.py", "local") in g.calls[entry]
        assert ("src/repro/util.py", "helper") in g.calls[entry]
        assert ("src/repro/util.py", "helper") in g.calls[
            ("src/repro/main.py", "local")]

    def test_self_method_and_class_method_edges(self, tmp_path):
        write(tmp_path, "src/repro/obj.py", """\
            class Thing:
                def outer(self):
                    return self.inner()

                def inner(self):
                    return Thing.static_like()

                def static_like():
                    return 0
        """)
        g = project(tmp_path).callgraph()
        rel = "src/repro/obj.py"
        assert (rel, "Thing.inner") in g.calls[(rel, "Thing.outer")]
        assert (rel, "Thing.static_like") in g.calls[(rel, "Thing.inner")]

    def test_callback_reference_recorded_and_reachable(self, tmp_path):
        write(tmp_path, "src/repro/work.py", """\
            def worker(item):
                return item


            def driver(pool, items):
                return pool.imap_unordered(worker, items)
        """)
        g = project(tmp_path).callgraph()
        rel = "src/repro/work.py"
        assert (rel, "worker") in g.refs[(rel, "driver")]
        assert (rel, "worker") not in g.calls[(rel, "driver")]
        assert (rel, "worker") in g.reachable([(rel, "driver")])

    def test_unresolvable_calls_add_no_edges(self, tmp_path):
        write(tmp_path, "src/repro/dyn.py", """\
            def entry(obj):
                obj.method()
                getattr(obj, "x")()
                unknown_name()
        """)
        g = project(tmp_path).callgraph()
        assert g.calls[("src/repro/dyn.py", "entry")] == set()

    def test_relative_import_resolution(self, tmp_path):
        write(tmp_path, "src/repro/pkg/__init__.py", "")
        write(tmp_path, "src/repro/pkg/a.py", """\
            def target():
                return 1
        """)
        write(tmp_path, "src/repro/pkg/b.py", """\
            from .a import target


            def caller():
                return target()
        """)
        g = project(tmp_path).callgraph()
        assert ("src/repro/pkg/a.py", "target") in g.calls[
            ("src/repro/pkg/b.py", "caller")]


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


class TestForkEntryPoints:
    def test_pool_and_process_targets(self, tmp_path):
        write(tmp_path, "src/repro/sweep/run.py", """\
            import multiprocessing


            def worker(item):
                return item


            def spawned():
                return None


            def run(items):
                with multiprocessing.Pool() as pool:
                    out = list(pool.imap_unordered(worker, items))
                proc = multiprocessing.Process(target=spawned)
                proc.start()
                return out
        """)
        p = project(tmp_path)
        g = p.callgraph()
        ctx = p.module("src/repro/sweep/run.py")
        entries = fork_entry_points(g, ctx)
        workers = {e.worker[1]: e.dispatcher for e in entries}
        assert workers == {
            "worker": "pool.imap_unordered",
            "spawned": "multiprocessing.Process"}

    def test_plain_method_calls_are_not_entries(self, tmp_path):
        write(tmp_path, "src/repro/sweep/calm.py", """\
            def helper(x):
                return x


            def run(items):
                return [helper(i) for i in items]
        """)
        p = project(tmp_path)
        g = p.callgraph()
        assert fork_entry_points(g, p.module("src/repro/sweep/calm.py")) == []
