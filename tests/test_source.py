"""Static checks on the package source (no linter is a dependency)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "granger_lab"
# __init__.py imports names to re-export them, not to use them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# The acceptance suite: its tests and the Monte Carlo criteria they run.
ACCEPTANCE = [Path(__file__).resolve().parent / name
              for name in ("test_acceptance.py", "acceptance_criteria.py")]


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_guard_flags_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(source) == ["os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_names(source: str) -> set[str]:
    """Names that a module's ``from granger_lab... import`` statements bind."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "granger_lab" for alias in node.names}


def unread_definitions(sources: dict[str, str], exempt: set[str]) -> list[str]:
    """Top-level functions, classes and constants, not in ``exempt``, that
    no module reads (as a name or an attribute) outside their own definition."""
    defined, read = {}, set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[own] = f"{module}.{own}"
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        defined[target.id] = f"{module}.{target.id}"
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if name != own:
                    read.add(name)
    return sorted(qualified for name, qualified in defined.items()
                  if name not in read | exempt)


def test_guard_flags_an_unread_definition():
    sources = {"a": "def used():\n    return helper()\n\n"
                    "def helper():\n    return helper\n\n"
                    "def recursive():\n    return recursive()\n\n"
                    "class Exported:\n    pass\n\n"
                    "def ols_fit():\n    pass\n",
               "b": "from .a import used\nused()\n"}
    # Only imports from the package exempt a name: a test-side reference
    # of the same name does not keep a copy in src/ alive.
    acceptance = "from granger_lab.a import Exported\nfrom kernel_reference import ols_fit\n"
    assert imported_names(acceptance) == {"Exported"}
    assert unread_definitions(sources, imported_names(acceptance)) == ["a.ols_fit", "a.recursive"]


def test_guard_flags_an_unread_constant():
    sources = {"a": "USED = 1\n_UNREAD = (1, 2)\nTYPED: int = 3\n"
                    "def f():\n    return USED\n",
               "b": "from . import a\na.f()\nprint(a.TYPED)\n"}
    assert unread_definitions(sources, exempt=set()) == ["a._UNREAD"]


def test_no_unread_definitions():
    # A public name stays if the acceptance suite imports it; anything else
    # that nothing in src/ reads is dead code. A re-export from __init__.py
    # exempts nothing, since exporting a name does not read it.
    exempt = set().union(*(imported_names(p.read_text(encoding="utf-8"))
                           for p in ACCEPTANCE))
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert unread_definitions(sources, exempt) == []


def exit_code_sites(source: str) -> list[str]:
    """Functions that return an integer constant or reference ``sys.stderr``."""
    sites = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            returns_int = (isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
                           and type(node.value.value) is int)
            stderr = (isinstance(node, ast.Attribute) and node.attr == "stderr"
                      and isinstance(node.value, ast.Name) and node.value.id == "sys")
            if returns_int or stderr:
                sites.add(func.name)
    return sorted(sites)


def test_guard_flags_exit_codes_outside_main():
    source = ("import sys\n"
              "def main():\n    print('usage', file=sys.stderr)\n    return 2\n"
              "def cmd(args):\n    return 0\n"
              "def warn():\n    sys.stderr.write('x')\n"
              "def quiet(args):\n    return None\n"
              "def ratio():\n    return 0.5\n")
    assert exit_code_sites(source) == ["cmd", "main", "warn"]


def test_only_main_decides_exit_codes():
    # Commands raise; cli.main alone maps a failure to an exit code and a
    # stderr line.
    assert exit_code_sites((PACKAGE / "cli.py").read_text(encoding="utf-8")) == ["main"]


#: ``scipy.special`` ufuncs whose scalar C kernels ``criteria`` calls instead.
TAIL_UFUNCS = {"chdtrc", "fdtrc", "ndtr"}


def ufunc_tail_uses(source: str) -> list[str]:
    """Lines that import a tail ufunc from ``scipy.special`` or read one as
    an attribute of anything but ``cython_special``."""
    uses = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "scipy.special":
            uses.update(f"{alias.name} (line {node.lineno})" for alias in node.names
                        if alias.name in TAIL_UFUNCS)
        elif isinstance(node, ast.Attribute) and node.attr in TAIL_UFUNCS:
            owner = node.value
            if getattr(owner, "attr", getattr(owner, "id", None)) != "cython_special":
                uses.add(f"{node.attr} (line {node.lineno})")
    return sorted(uses)


def test_guard_flags_a_tail_ufunc():
    source = ("from scipy.special import chdtrc, gammaln\n"
              "import scipy.special as sp\n"
              "from scipy import special\n"
              "from scipy.special import cython_special\n"
              "from scipy.special.cython_special import ndtr\n"
              "a = sp.fdtrc(1.0, 2.0, 3.0)\n"
              "b = special.ndtr(0.0)\n"
              "c = scipy.special.cython_special.fdtrc['double']\n"
              "d = cython_special.chdtrc\n")
    assert ufunc_tail_uses(source) == ["chdtrc (line 1)", "fdtrc (line 6)", "ndtr (line 7)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_tails_come_from_the_scalar_kernels(path):
    # The ufuncs give the same bits at several times the cost per scalar call.
    assert ufunc_tail_uses(path.read_text(encoding="utf-8")) == []


def callers(sources: dict[str, str], name: str) -> list[str]:
    """Functions (module.function) that call ``name``, as a name or an attribute."""
    found = set()
    for module, source in sources.items():
        for func in ast.walk(ast.parse(source)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                           getattr(node.func, "attr", None)):
                    found.add(f"{module}.{func.name}")
    return sorted(found)


def test_guard_flags_every_caller():
    sources = {"a": "def one(x):\n    return kernel(x)\n\n"
                    "def two(x):\n    return m.kernel(x) + other(x)\n",
               "b": "def three():\n    return kernel\n"}
    assert callers(sources, "kernel") == ["a.one", "a.two"]


def attribute_reads(source: str, attr: str) -> list[int]:
    """Lines that read ``attr`` as an attribute of anything."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and node.attr == attr})


def test_guard_flags_an_attribute_read():
    source = ("cfg = Config(sigmas_or_snrs=(1, 2, 3))\n"
              "a = cfg.sigmas_or_snrs\n"
              "b = configs[0].sigmas_or_snrs[1]\n")
    assert attribute_reads(source, "sigmas_or_snrs") == [2, 3]


def test_noise_reaches_the_monte_carlo_path_as_level_rows():
    # Only datagen reads a config's sigma or SNR triple; everything else
    # passes the levels it resolved, so an SNR that overflows is refused
    # where its levels are resolved, not where a cell is generated.
    readers = [p.stem for p in MODULES
               if attribute_reads(p.read_text(encoding="utf-8"), "sigmas_or_snrs")]
    assert readers == ["datagen"]


def name_reads(source: str, name: str) -> list[int]:
    """Lines that read ``name``, as a name or as an attribute of anything."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if (isinstance(node, ast.Name) and node.id == name
                       and isinstance(node.ctx, ast.Load))
                   or (isinstance(node, ast.Attribute) and node.attr == name)})


def test_guard_flags_a_name_read():
    source = ("TOL = 1e-10\n"
              "def rule(x):\n    return x <= TOL\n"
              "limit = regress.TOL * 2\n")
    assert name_reads(source, "TOL") == [3, 4]


def caught(source: str, name: str) -> list[int]:
    """Lines of the ``except`` clauses that catch ``name``, alone or in a tuple."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(name in (getattr(t, "id", None), getattr(t, "attr", None)) for t in types):
                lines.add(node.lineno)
    return sorted(lines)


def test_guard_flags_every_except_clause():
    source = ("try:\n    f()\nexcept Error:\n    pass\n"
              "try:\n    f()\nexcept (KeyError, m.Error) as exc:\n    pass\n"
              "try:\n    f()\nexcept OtherError:\n    raise Error()\n")
    assert caught(source, "Error") == [3, 7]


def test_one_function_builds_designs_and_factors_them():
    # Samples reach their RSS values along one path: a batched kernel has
    # one loop to replace. Every sample takes the same three passes; one
    # rule, read once a block, decides which are rank deficient, and
    # nothing catches a rank-deficient pass.
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert callers(sources, "nested_rss") == ["granger.block_pvalues"]
    assert callers(sources, "_lag_stack") == ["granger.block_pvalues"]
    assert callers(sources, "rank_deficient") == ["granger.block_pvalues"]
    assert [m for m, source in sources.items() if name_reads(source, "RANK_TOL")] == ["granger"]
    assert {m: caught(source, "RankDeficient") for m, source in sources.items()
            if caught(source, "RankDeficient")} == {}


def test_the_module_that_factors_the_stacks_owns_the_qr_kernel():
    # ``granger`` lays out R in its own buffers and re-factors column subsets
    # of it, so the kernel that leaves R there lives beside it: no second
    # module shares that layout or calls LAPACK's QR.
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert "regress" not in sources
    assert [m for m, source in sources.items() if name_reads(source, "dgeqrf")] == ["granger"]
    assert callers(sources, "dgeqrf") == ["granger.nested_rss"]


def test_one_function_generates_samples():
    # Every sample is drawn by one generator: ``generate`` for one seed, and
    # ``_count_block`` for the chunks of a Monte Carlo block, each with the
    # levels of the cells it finds once per chunk.
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert callers(sources, "generate_rows") == ["datagen.generate", "experiments._count_block"]


def test_every_experiment_runs_at_one_lag_depth():
    # The Monte Carlo loop reads no lag depth but ``LAGS``: no experiment
    # function takes one, and no config object carries one to it.
    experiments = (PACKAGE / "experiments.py").read_text(encoding="utf-8")
    assert name_reads(experiments, "lags") == []
    definers = [p.stem for p in PACKAGE.glob("*.py")
                if any(getattr(node, "name", None) == "GrangerConfig"
                       for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"))))]
    assert definers == []
