import ast
import inspect
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hclat
from hclat import bernoulli, bundles, exact, genera, lattices, plumbing, verify
from hclat.exact import INDEX_MAX

MODULES = (exact, bernoulli, genera, plumbing, lattices, bundles, verify)


def test_all_is_the_module_lists_in_order():
    names = [name for mod in MODULES for name in mod.__all__]
    assert hclat.__all__ == names
    assert len(set(names)) == len(names)


def test_every_name_is_the_module_object():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(hclat, name) is getattr(mod, name), f"{mod.__name__}.{name}"


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from hclat import *", namespace)
    assert set(hclat.__all__) <= namespace.keys()
    for name in hclat.__all__:
        assert namespace[name] is getattr(hclat, name)


def _index_functions() -> list:
    """Every public function whose first parameter is an index, with 1 for its other
    required arguments (``sigma_m``'s ``num4``)."""
    out = []
    for name in hclat.__all__:
        fn = getattr(hclat, name)
        if not inspect.isfunction(fn):
            continue
        first, *rest = inspect.signature(fn).parameters.values()
        if first.name in ("m", "n", "k", "limit", "m_max"):
            required = [1 for p in rest if p.default is p.empty]
            out.append(pytest.param(fn, first.name, required, id=name))
    return out


INDEX_FUNCTIONS = _index_functions()


def test_index_functions_are_found():
    # a discovery that quietly shrank would leave the gate test below checking less;
    # 32 since s_of_Q_formulas(k) left the public surface (s_of_Q(2k) computes both formulas)
    names = {p.id for p in INDEX_FUNCTIONS}
    assert {"tangent_number", "record_range", "shat", "profile", "sigma_m", "lambda_k"} <= names
    assert {"kernel_structure", "kappa_basis", "verify_identity_suite"} <= names
    assert len(names) >= 32


@pytest.mark.parametrize("fn,index,rest", INDEX_FUNCTIONS)
@pytest.mark.parametrize("bad", [6.0, True, Fraction(6)], ids=repr)
def test_every_index_argument_is_gated_cold_and_warm(cold, fn, index, rest, bad):
    def call(value):
        fn(value, *rest)  # record_range checks its limit here, not on its first step

    message = re.escape(f"{index} must be an int, got {bad!r}")
    with pytest.raises(ValueError, match=message):
        call(bad)
    try:
        call(int(bad))  # warms every memo the int reaches
    except ValueError:
        pass
    with pytest.raises(ValueError, match=message):
        call(bad)


class _Work(Exception):
    """Raised by every stubbed route to real work."""


def _work(*args):
    raise _Work


# the one ceiling that is not INDEX_MAX: p2k_solve(k) reads profile(2k), dimension 8k
OWN_CEILINGS = {
    "p2k_solve": INDEX_MAX // 2,
}


@pytest.mark.parametrize("fn,index,rest", INDEX_FUNCTIONS)
def test_every_index_argument_has_one_ceiling(monkeypatch, cold, fn, index, rest):
    for mod, name in [
        (bernoulli, "_tangents"), (bernoulli, "_sieve"),
        (plumbing, "factorial"), (genera, "factorial"),
    ]:
        monkeypatch.setattr(mod, name, _work)
    hi = OWN_CEILINGS.get(fn.__name__, INDEX_MAX)
    for _ in range(2):  # cold, then warm from the call below: a refusal is not kept
        with pytest.raises(OverflowError) as info:
            fn(hi + 1, *rest)  # record_range checks its limit here, not on its first step
        assert str(info.value) == f"{index} must be <= {hi}, got {hi + 1}"
        try:
            fn(hi, *rest)  # through the gate, to a stubbed route or a cheap answer
        except _Work:
            pass


@pytest.mark.parametrize("claim", sorted(verify.CLAIMS))
def test_workers_is_gated(claim):
    with pytest.raises(ValueError, match="workers must be an int, got True"):
        verify.CLAIMS[claim](4, workers=True)
    with pytest.raises(OverflowError, match=f"workers must be <= {INDEX_MAX}, got "):
        verify.CLAIMS[claim](4, workers=INDEX_MAX + 1)


def test_no_process_pool_modules_outside_the_identity_pool():
    # only identity-suite with workers > 1 opens a pool, so no other use of the
    # package may pay for importing multiprocessing and concurrent.futures
    code = """
import sys
import hclat, hclat.cli
from hclat.verify import (
    verify_gcd_power_of_two, verify_identity_suite, verify_numerator_coprimality,
)
verify_gcd_power_of_two(40)
verify_numerator_coprimality(40, workers=2)
verify_identity_suite(12)
print(sorted(m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent")))
"""
    assert _python(code) == "[]\n"


def _python(code: str) -> str:
    """What ``code`` prints when run by a new interpreter that imports this ``hclat``."""
    src = str(Path(hclat.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = "print(sorted(m for m in sys.modules if m.startswith('hclat')))"
COLD = ["hclat", "hclat.bernoulli", "hclat.cli", "hclat.exact"]


@pytest.mark.parametrize(
    "code,loaded",
    [
        # the cold path of every command: the parser, the encoder and the records
        ("import hclat.cli", COLD),
        ("from hclat import bernoulli", ["hclat", "hclat.bernoulli", "hclat.exact"]),
        # a submodule's name does not resolve the public surface
        ("import hclat; assert not hasattr(hclat, 'lattices')", ["hclat"]),
        (
            "import contextlib, io, hclat.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert hclat.cli.main(['verify', 'gcd-power-of-two', '--max', '40']) == 0",
            [*COLD, "hclat.plumbing", "hclat.verify"],
        ),
    ],
    ids=["cli", "bernoulli", "hasattr", "prefix-scan"],
)
def test_each_use_loads_only_its_layers(code, loaded):
    assert _python(f"import sys\n{code}\n{LOADED}") == f"{loaded}\n"


@pytest.mark.parametrize("code", ["import hclat.cli", "import hclat.bernoulli"])
def test_import_builds_no_prime_table(code):
    # the sieve is built on the first von Staudt-Clausen product, not at import
    check = "from hclat.bernoulli import _sieve; print(_sieve.cache_info().currsize)"
    assert _python(f"{code}\n{check}") == "0\n"


def test_one_public_access_binds_the_whole_surface():
    code = """
import hclat
before = set(vars(hclat))
hclat.nu2
# bound names are read from the namespace, and no hook is left to slow those reads
print(all(name in vars(hclat) for name in hclat.__all__), "__all__" in vars(hclat))
print("__getattr__" in vars(hclat), "__dir__" in vars(hclat))
print("nu2" in before, sorted(n for n in dir(hclat) if not n.startswith("_")) == sorted(
    [*hclat.__all__, "bernoulli", "bundles", "exact", "genera", "lattices", "plumbing", "verify"]
))
try:
    hclat.no_such_name
except AttributeError as exc:
    print(exc)
"""
    assert _python(code) == (
        "True True\nFalse False\nFalse True\nmodule 'hclat' has no attribute 'no_such_name'\n"
    )


def test_dir_lists_the_surface_before_any_access():
    code = """
import hclat
names = dir(hclat)
print(names == sorted(vars(hclat)), set(hclat.__all__) <= set(names))
"""
    assert _python(code) == "True True\n"


def _tree(mod) -> ast.Module:
    return ast.parse(Path(mod.__file__).read_text())


def test_bernoulli_data_and_factorials_come_from_the_profile():
    # genera, lattices and bundles read T_m and |B_2m| through plumbing.profile,
    # and lattices, bundles and verify read (2m-1)! there too
    for mod in (genera, lattices, bundles):
        imported = {
            node.module
            for node in ast.walk(_tree(mod))
            if isinstance(node, ast.ImportFrom) and node.level == 1
        }
        assert "bernoulli" not in imported, mod.__name__
    for mod in (lattices, bundles, verify):
        names = {
            getattr(node, "id", None) or getattr(node, "attr", None) or node.name
            for node in ast.walk(_tree(mod))
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        }
        assert "factorial" not in names, mod.__name__


def test_a_given_bezout_pair_is_checked_only_where_answers_are_read():
    # plumbing._answer checks a pair other than the canonical one; the compute
    # functions take it as checked and read None as the canonical pair
    for mod in (genera, lattices, bundles):
        names = {
            getattr(node, "id", None) or getattr(node, "attr", None) or node.name
            for node in ast.walk(_tree(mod))
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        }
        assert "require_bezout_for" not in names, mod.__name__
    callers = {
        fn.name
        for fn in ast.walk(_tree(plumbing))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "require_bezout_for"
    }
    assert callers == {"_answer"}
