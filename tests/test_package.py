"""The package's public names, and which modules each entry point imports.

Module loads are checked in fresh interpreters: this test process has
imported every module already.
"""

import ast
import functools
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import steinerchains
from steinerchains import Gauge, chain_at_phase, cli, save_chain

from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent

# Every public name of the package, frozen, by the module that defines it.
PUBLIC = {
    "config": ["DEFAULT_TOLERANCE", "set_tolerance", "tolerance"],
    "document": [
        "chain_to_document", "document_to_chain", "load_chain", "render_svg", "save_chain",
        "sweep_csv_text", "write_sweep_csv",
    ],
    "feasibility": [
        "FeasibilityReport", "VirtualGaugeResult", "actual_moments", "feasibility_check",
        "third_moment_relation_residual", "virtual_gauge",
    ],
    "geometry": [
        "Orientation", "OrientedCircle", "PlanePoint", "external_tangency_residual",
        "internal_tangency_residual", "invert_circle", "invert_point", "limiting_points",
    ],
    "moments": [
        "GeneralMomentParams", "InvarianceReport", "MomentSet", "bending_moment", "closed_form_I",
        "complex_moment", "first_two_moments_general", "invariance_sweep", "invariant_pairs",
        "moment_set",
    ],
    "porism": [
        "ConcentricModel", "Gauge", "GaugeValidation",
        "InfeasibleGaugeError", "PoristicRange", "SteinerChain", "YiuCoefficients",
        "chain_at_phase", "chain_by_yiu", "chain_residuals", "concentric_model",
        "conjugate_chain", "is_valid_chain", "neighbor_bend_sum", "neighbor_bends",
        "neighbor_radius_sum", "parent_circles", "pedoe_distance", "poristic_range",
        "validate_gauge", "yiu_coefficients",
    ],
    "symmetric": [
        "AxialBendsN6Report", "AxialTriplesN3Report", "SymmetricChainKind", "axial_bends_n6",
        "axial_closed_form_n4", "axial_triples_n3_printed", "lateral_chain_n4", "symmetric_chain",
    ],
}
ALL_NAMES = {*PUBLIC, *(name for names in PUBLIC.values() for name in names)}

# Prints [exit code, the steinerchains submodules loaded] after
# main(sys.argv[1:]) in a fresh interpreter.
RUN_MAIN = """\
import contextlib, io, json, sys
from steinerchains.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("steinerchains."))]))
"""


def fresh(code: str, *args: str) -> str:
    """stdout of `python -c code args` with this checkout's src/ on the path."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=child_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestPublicNames:
    def test_exported_names_are_unchanged(self):
        assert set(steinerchains.__all__) == ALL_NAMES
        assert ALL_NAMES <= set(dir(steinerchains))

    def test_each_name_is_the_defining_modules_object(self):
        for module, names in PUBLIC.items():
            owner = importlib.import_module(f"steinerchains.{module}")
            assert getattr(steinerchains, module) is owner
            for name in names:
                assert getattr(steinerchains, name) is getattr(owner, name), name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from steinerchains import *", namespace)
        assert set(namespace) - {"__builtins__"} == ALL_NAMES
        for name in ALL_NAMES:
            assert namespace[name] is getattr(steinerchains, name)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'cli_main'"):
            steinerchains.cli_main
        assert not hasattr(cli, "no_such_name")

    def test_bare_import_loads_no_submodule_and_resolves_them_on_use(self):
        out = fresh(
            "import json, sys, steinerchains\n"
            "before = [m for m in sys.modules if m.startswith('steinerchains.')]\n"
            "print(json.dumps([before, steinerchains.moments.__name__, steinerchains.Gauge.__module__]))"
        )
        assert json.loads(out) == [[], "steinerchains.moments", "steinerchains.porism"]


BASE = ["steinerchains.cli", "steinerchains.config", "steinerchains.geometry", "steinerchains.porism"]
DOCUMENT = ["steinerchains.document", "steinerchains.moments"]  # document imports moments


class TestCommandImports:
    @pytest.mark.parametrize(
        "argv, loaded",
        [
            (["gauge", "--n", "3", "--R", "15", "--r", "1"], []),
            (["gauge", "--n", "4", "--R", "6", "--r", "1", "--d", "1"], []),
            (["chain", "--n", "4", "--R", "6", "--r", "1", "--d", "1", "--phase", "0.3",
              "--out", "{tmp}/out.json"], DOCUMENT),
            (["invariants", "--chain", "{tmp}/c.json"], DOCUMENT),
            (["sweep", "--n", "4", "--R", "6", "--r", "1", "--d", "1", "--samples", "3",
              "--csv", "{tmp}/s.csv"], DOCUMENT),
            (["symmetric", "--n", "4", "--R", "6", "--r", "1", "--d", "1", "--kind", "lateral"],
             [*DOCUMENT, "steinerchains.symmetric"]),
            (["feasible", "--radii", "1,2,3,4"], ["steinerchains.feasibility"]),
            (["render", "--chain", "{tmp}/c.json", "--svg", "{tmp}/c.svg"], DOCUMENT),
        ],
    )
    def test_command_loads_only_the_modules_it_uses(self, tmp_path, argv, loaded):
        save_chain(chain_at_phase(Gauge(4, 6.0, 1.0, 1.0), 0.3), tmp_path / "c.json")
        code, modules = json.loads(fresh(RUN_MAIN, *(a.format(tmp=tmp_path) for a in argv)))
        assert code in (0, 1)
        assert modules == sorted({*BASE, *loaded})


def test_feasibility_check_loads_neither_moments_nor_cmath():
    out = fresh(
        "import json, sys, steinerchains\n"
        "steinerchains.feasibility_check((1.0, 2.0, 3.0, 4.0), 'constructive')\n"
        "print(json.dumps(['steinerchains.moments' in sys.modules, 'cmath' in sys.modules]))"
    )
    assert json.loads(out) == [False, False]


def test_gauge_command_does_not_import_json():
    # the probe reports without json, which it would otherwise load itself
    out = fresh(
        "import contextlib, io, sys\n"
        "from steinerchains.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['gauge', '--n', '3', '--R', '15', '--r', '1'])\n"
        "print(code, 'json' in sys.modules)"
    )
    assert out.split() == ["0", "False"]


# dataclasses and the modules it would pull in; none is needed to start
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
# argparse and the modules its help texts pull in; the CLI parses from its own table
PARSER = {"argparse", "gettext", "locale"}


@functools.cache
def startup_imports():
    """The modules a fresh main(["gauge", ...]) loads, the modules importing
    every other one then adds, and the modules each file of src/ imports."""
    out = fresh(
        "import contextlib, importlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "from steinerchains.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['gauge', '--n', '3', '--R', '15', '--r', '1'])\n"
        "after_gauge = set(sys.modules)\n"
        "for name in sys.argv[1:]:\n"
        "    importlib.import_module(f'steinerchains.{name}')\n"
        "print(json.dumps([sorted(after_gauge - before), sorted(set(sys.modules) - after_gauge)]))",
        *PUBLIC, "cli",
    )
    by_gauge, by_modules = json.loads(out)
    assert "steinerchains.cli" in by_gauge and "steinerchains.symmetric" in by_modules
    imported = {}
    for path in sorted((ROOT / "src" / "steinerchains").glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        imported[path.name] = {a.name for node in nodes if isinstance(node, ast.Import) for a in node.names}
        imported[path.name] |= {node.module for node in nodes if isinstance(node, ast.ImportFrom)}
    return set(by_gauge), set(by_modules), imported


def test_no_module_loads_dataclasses():
    by_gauge, by_modules, imported = startup_imports()
    assert HEAVY.isdisjoint(by_gauge) and HEAVY.isdisjoint(by_modules)
    for name, modules in imported.items():
        assert "dataclasses" not in modules, name


def test_no_module_loads_argparse():
    by_gauge, by_modules, imported = startup_imports()
    assert PARSER.isdisjoint(by_gauge) and PARSER.isdisjoint(by_modules)
    for name, modules in imported.items():
        assert PARSER.isdisjoint(modules), name


def load_tracing():
    """bench/tracing.py, loaded by path as the benchmark loads it."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracedBindings:
    """The benchmark's traced run wraps names where their callers look them
    up; a binding that stops resolving, or that the caller no longer calls
    through, drops calls from the trace without an error."""

    def test_every_traced_binding_resolves(self):
        for _, bindings, _ in load_tracing().LAYERS:
            for binding in bindings:
                module_name, attr = binding.split(":")
                owner = importlib.import_module(module_name)
                for part in attr.split("."):
                    owner = getattr(owner, part)
                assert callable(owner), binding

    def test_main_calls_through_the_cli_bindings(self, tmp_path):
        # patched in a fresh interpreter, before any command has run, as
        # the traced run patches them
        code = """\
import contextlib, io, json, sys
from steinerchains import cli
calls = []
def spy(name, real):
    return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)
for name in ("save_chain", "moment_set", "feasibility_check", "symmetric_chain"):
    setattr(cli, name, spy(name, getattr(cli, name)))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, calls]))
"""
        gauge = ["--n", "4", "--R", "6", "--r", "1", "--d", "1"]
        chain = str(tmp_path / "c.json")
        argvs = [
            ["chain", *gauge, "--phase", "0.3", "--out", chain],
            ["invariants", "--chain", chain],
            ["feasible", "--radii", "1,2,3,4"],
            ["symmetric", *gauge, "--kind", "lateral"],
        ]
        codes, calls = json.loads(fresh(code, json.dumps(argvs)))
        assert codes[:2] == [0, 0] and codes[3] == 0
        assert calls == ["save_chain", "moment_set", "feasibility_check", "symmetric_chain"]


def test_no_unused_import_in_src():
    # a name a top-level import binds is used in its module's code, unless
    # it is a binding the benchmark's traced run wraps there
    traced = {
        tuple(binding.split(":"))
        for _, bindings, _ in load_tracing().LAYERS
        for binding in bindings
    }
    unused = []
    for path in sorted((ROOT / "src" / "steinerchains").glob("*.py")):
        module = "steinerchains" if path.stem == "__init__" else f"steinerchains.{path.stem}"
        tree = ast.parse(path.read_text())
        bound = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound += [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [a.asname or a.name for a in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{module}:{name}"
            for name in bound
            if name not in used and (module, name) not in traced
        ]
    assert unused == []
