"""A repository check parses each source once and builds each CFG
once, and stays inside its wall-time budget."""

import ast
import time

from repro.check import check_repository, default_lint_paths
from repro.check import simflow, taint
from repro.check.cfg import build_cfg, function_defs
from repro.check.pragmas import collect_pragmas


class TestParseOnce:
    def test_each_file_parsed_once_and_each_cfg_built_once(
            self, monkeypatch):
        parses = []
        cfgs = []
        real_parse = ast.parse

        def counting_parse(source, *args, **kwargs):
            parses.append(kwargs.get("filename"))
            return real_parse(source, *args, **kwargs)

        def counting_build_cfg(func):
            cfgs.append(func)
            return build_cfg(func)

        monkeypatch.setattr(ast, "parse", counting_parse)
        monkeypatch.setattr(simflow, "build_cfg", counting_build_cfg)
        monkeypatch.setattr(taint, "build_cfg", counting_build_cfg)
        check_repository(models=False)
        monkeypatch.undo()

        files = [f for root in default_lint_paths()
                 for f in sorted(root.rglob("*.py"))]
        assert len(parses) == len(files)
        # The flow pass skips opted-out files; every function of every
        # other file gets exactly one CFG, shared by simflow and taint.
        functions = []
        for file in files:
            text = file.read_text(encoding="utf-8")
            if not collect_pragmas(text).skip_file:
                functions += [func for _, func in
                              function_defs(ast.parse(text))]
        assert len(cfgs) == len(functions)
        assert len(set(cfgs)) == len(cfgs)


class TestRepoCheckBudget:
    def test_wall_time_budget(self):
        # Generous CI budget: lint + flow over src/, benchmarks/ and
        # examples/ in under 60 s (typically ~2 s); a superlinear
        # regression in the CFG or taint fixpoint blows this up.
        t0 = time.perf_counter()
        check_repository(models=False, lint=True, flow=True)
        cold = time.perf_counter() - t0
        assert cold < 60.0
        t0 = time.perf_counter()
        check_repository(models=False, lint=True, flow=True)
        warm = time.perf_counter() - t0
        assert warm < 60.0
