"""Every function the benchmark harness in ``perfbench/`` looks up by name still resolves.

perfbench finds eprsim's functions by name in whichever module defines them
(``perfbench/api.py``), so a function may move between modules but must keep its
name and call signature.  This reads ``perfbench/`` and writes nothing there.
"""

import ast
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: The names the roadmap's standing rules list: the layer functions, the sweeps and the
#: scalar probability functions.
LISTED = (
    "fresnel_propagate", "truncated_aperture_field", "integrate_detector",
    "signal_difference_map", "audit_wedge", "audit_polar", "audit_mz", "render_csv",
    "render_json", "events_table", "distribution_from_amplitudes", "polar_joint_amplitudes",
    "sample_outcome_codes", "estimate_chsh", "build_parser", "main", "parse_angle",
    "parse_config", "polar_sweep", "mz_sweep", "mz_marginal_sweep",
    "polar_joint_probabilities", "mz_joint_probabilities", "mz_bob_marginals",
)


def _traced() -> list[str]:
    """The keys of ``traced_cli.TRACED``, read from its source."""
    tree = ast.parse((PERFBENCH / "traced_cli.py").read_text(encoding="utf-8"))
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [target.id for target in node.targets] == ["TRACED"]]
    return [key.value for key in value.keys]


def _found() -> list[str]:
    """Every name that perfbench's sources pass to ``api.find`` as a literal."""
    return [name for path in sorted(PERFBENCH.glob("*.py"))
            for name in re.findall(r'api\.find\("(\w+)"\)', path.read_text(encoding="utf-8"))]


NAMES = sorted({*LISTED, *_traced(), *_found()})


@pytest.fixture(scope="module")
def api():
    """``perfbench/api.py``, loaded without writing bytecode next to it."""
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_api", PERFBENCH / "api.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_the_lists_are_read():
    assert len(_traced()) >= 20 and {"build_parser", "render_csv"} <= set(_found())


@pytest.mark.parametrize("name", NAMES)
def test_resolves_to_exactly_one_definition(api, name):
    defining = [module.__name__ for module in api.modules()
                if callable(fn := vars(module).get(name))
                and getattr(fn, "__module__", None) == module.__name__]
    assert len(defining) == 1, defining
    assert api.find(name).__module__ == defining[0]


@pytest.mark.parametrize("name, positional", [
    ("audit_polar", ["grid", "tolerance"]),
    ("audit_mz", ["grid", "tolerance"]),
    ("audit_wedge", ["grid", "tolerance", "geometry"]),
])
def test_audits_keep_their_positional_parameters(api, name, positional):
    # perfbench calls audit_polar(200, 1e-12), audit_mz(50, 1e-12), audit_wedge(3, 1e-4, geom)
    params = list(inspect.signature(api.find(name)).parameters.values())
    assert [p.name for p in params] == positional
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
