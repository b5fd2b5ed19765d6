import ast
import importlib
import re
import runpy
import types
from pathlib import Path

import numpy as np
import pytest

import qcut
import qcut.cli
from qcut import experiments
from qcut.channel import ChannelState, ClassicalMessage, teleport
from qcut.haar import exact_moment_fraction, sample_states
from qcut.linalg import BipartitePureState, DensityMatrix, PureState
from qcut.povm import CutPovm, SubsetIndex
from qcut.rng import stream

ROOT = Path(__file__).resolve().parents[1]


def test_top_level_names_are_the_documented_api():
    readme = (ROOT / "README.md").read_text()
    rows = [line for line in readme.splitlines() if re.match(r"\| `qcut\.\w+` \| `", line)]
    documented = {name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[2])}
    exported = {
        name
        for name, value in vars(qcut).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == documented


def test_every_public_module_name_is_used_in_the_package():
    # A public module-level def, class or assignment of src/qcut must be
    # loaded (as a name or an attribute) or imported by some other top-level
    # statement of the package; what only the tests reach belongs in
    # tests/oracles.py.
    uses, defined = {}, []
    for path in sorted((ROOT / "src" / "qcut").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            uses[stmt] = names
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, stmt.name, stmt))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    defined += [
                        (path.stem, node.id, stmt)
                        for node in ast.walk(target)
                        if isinstance(node, ast.Name)
                    ]
    unused = [
        f"{module}.{name}"
        for module, name, own in defined
        if not name.startswith("_")
        and not any(name in names for stmt, names in uses.items() if stmt is not own)
    ]
    assert unused == []


def test_every_benchmark_hook_resolves_to_a_callable():
    # perfbench's tracer wraps the (module, attribute) pairs of its HOOKS
    # table; a name renamed or removed here fails in seconds, not first in
    # the traced benchmark run.  run_path reads the table without importing
    # perfbench or writing its bytecode.
    hooks = runpy.run_path(str(ROOT / "perfbench" / "spans.py"))["HOOKS"]
    unresolved = [
        f"{module}.{attribute}"
        for module, attribute, *_ in hooks
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert hooks and unresolved == []


# The hooked names that ``qcut verify`` reaches: the tracer can time a row
# only while the row's route is called through its module attribute.
VERIFY_HOOKS = {
    "qcut.cli.main",
    "qcut.cli._max_completeness_deviation",
    "qcut.experiments.relation_check",
    "qcut.experiments.composition_check",
    "qcut.experiments.exact_pure_via_moments",
    "qcut.experiments.exact_entangled_via_moments",
    "qcut.experiments.horodecki_bound",
    "qcut.experiments.exact_moment_fraction",
}


def test_verify_calls_every_hook_it_reaches(capsys):
    # perfbench's tracer, read by run_path (nothing under perfbench/ is
    # written), wraps its hooks around one default verify and removes them.
    # A route that verify came to reach past its module attribute would
    # record no call, which the traced benchmark run also refuses.
    spans = runpy.run_path(str(ROOT / "perfbench" / "spans.py"))
    tracer = spans["Tracer"]()
    tracer.install()
    try:
        code = qcut.cli.main(["verify"])
    finally:
        tracer.remove()
    assert code == 0 and capsys.readouterr().out.endswith("verify: PASS\n")
    assert {span.hook for span in tracer.spans} == VERIFY_HOOKS
    assert {f"{module}.{attribute}" for module, attribute, *_ in spans["HOOKS"]} >= VERIFY_HOOKS


_INTS = np.array([3, 4])
_FLOATS = _INTS.astype(float)
_PSI = PureState.basis_state(2, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        # The closed forms and exact routes, on ints and on verify's arrays.
        (lambda: experiments.analytic_pure(2.5, 1), "n 2.5 is not an integer"),
        (lambda: experiments.analytic_pure(3, 4), "m 4 is above 3"),
        (lambda: experiments.analytic_entangled(3, 2, 1.5), "r 1.5 is not an integer"),
        (lambda: experiments.analytic_entangled(3, 2, 0), "r 0 is below 1"),
        (lambda: experiments.analytic_state_estimation(4.0, 2), "n 4.0 is not an integer"),
        (lambda: experiments.horodecki_bound(3.5, 2), "n 3.5 is not an integer"),
        (lambda: experiments.relation_check(3.0, 2, 1), "n 3.0 is not an integer"),
        (lambda: experiments.relation_check(3, 3, 1), "m 3 is above 2"),
        (lambda: experiments.composition_check(3, 2.0, 1, 1), "k 2.0 is not an integer"),
        (lambda: experiments.composition_check(3, 4, 1, 1), "k 4 is above 3"),
        (lambda: experiments.exact_pure_via_moments(3.0, 2), "n 3.0 is not an integer"),
        (lambda: experiments.exact_entangled_via_moments(3, 2, 1.5), "r 1.5 is not an integer"),
        (lambda: experiments.analytic_pure(_FLOATS, _INTS - 1), "n of dtype float64 is not an integer array"),
        (lambda: experiments.analytic_entangled(_INTS, _INTS - 1, _FLOATS), "r of dtype float64 is not an integer array"),
        (lambda: experiments.analytic_entangled(_INTS, _INTS - 1, 1.5), "r 1.5 is not an integer"),
        (lambda: experiments.analytic_state_estimation(_FLOATS, _INTS - 1), "n of dtype float64 is not an integer array"),
        (lambda: experiments.horodecki_bound(_INTS, _FLOATS - 1), "m of dtype float64 is not an integer array"),
        (lambda: experiments.horodecki_bound(_INTS, np.array([2, 5])), "m 5 is above 4"),
        (lambda: experiments.relation_check(_FLOATS, _INTS - 1, _INTS), "n of dtype float64 is not an integer array"),
        (lambda: experiments.composition_check(_INTS, _FLOATS, _INTS - 1, _INTS), "k of dtype float64 is not an integer array"),
        (lambda: experiments.exact_pure_via_moments(_INTS, _INTS > 3), "m of dtype bool is not an integer array"),
        (lambda: experiments.exact_entangled_via_moments(_INTS, _INTS - 1, _FLOATS), "r of dtype float64 is not an integer array"),
        (lambda: experiments.exact_entangled_via_moments(_INTS, _INTS - 1, np.array([1, -2])), "r -2 is below 1"),
        (lambda: exact_moment_fraction(3.0, (2,)), "dim 3.0 is not an integer"),
        (lambda: exact_moment_fraction(3, (1.5,)), "exponent 1.5 is not an integer"),
        (lambda: exact_moment_fraction(_FLOATS, (2,)), "dim of dtype float64 is not an integer array"),
        (lambda: experiments.analytic_pure(_INTS.astype(object) + 0.5, _INTS.astype(object)), "n 3.5 is not an integer"),
        # Configs, thread counts and seeds.
        (lambda: experiments.ExperimentConfig(n=3, m=2, samples=0), "samples 0 is below 1"),
        (lambda: experiments.ExperimentConfig(n=3, m=2, samples=10, shards=0), "shards 0 is below 1"),
        (lambda: experiments.ExperimentConfig(n=2, m=3, samples=10), "m 3 is above 2"),
        # A config is one case, so an array of dims is not an integer.
        (lambda: experiments.ExperimentConfig(n=_INTS, m=2, samples=10), "n array([3, 4]) is not an integer"),
        (lambda: experiments.check_run(experiments.ExperimentConfig(n=3, m=2), 0), "threads 0 is below 1"),
        (lambda: stream(-1), "seed -1 is below 0"),
        (lambda: stream(7, 2**64), f"shard {2**64} is above {2**64 - 1}"),
        # States, samplers, subsets, the POVM and the channel.
        (lambda: BipartitePureState(2, 0, []), "dim_aux 0 is below 1"),
        (lambda: PureState.basis_state(3, 3), "index 3 is above 2"),
        (lambda: DensityMatrix(0, np.zeros((0, 0))), "dim 0 is below 1"),
        (lambda: sample_states(3, -1, stream(1)), "count -1 is below 0"),
        (lambda: SubsetIndex((0, 1.5)), "index 1.5 is not an integer"),
        (lambda: SubsetIndex(("0", "2")), "index '0' is not an integer"),
        (lambda: SubsetIndex((-1, 2)), "index -1 is below 0"),
        (lambda: CutPovm(3, 4), "m 4 is above 3"),
        (lambda: CutPovm(3, 0), "m 0 is below 1"),
        (lambda: ChannelState(0), "m 0 is below 1"),
        (lambda: ClassicalMessage(1.5, 0), "a 1.5 is not an integer"),
        (lambda: ClassicalMessage(0, -1), "b -1 is below 0"),
        (lambda: teleport(_PSI, ChannelState(2), force_outcome=(0, 1.5)), "b 1.5 is not an integer"),
        (lambda: teleport(_PSI, ChannelState(2), force_outcome=(1.0, 0)), "a 1.0 is not an integer"),
        (lambda: teleport(_PSI, ChannelState(2), force_outcome=(2, 0)), "a 2 is above 1"),
        # A bool, though operator.index(True) is 1: as np.True_ and a bool
        # array were, in every place above (analytic_pure(3, True) was 0.5).
        (lambda: experiments.analytic_pure(3, True), "m True is not an integer"),
        (lambda: experiments.analytic_pure(3, np.True_), "m np.True_ is not an integer"),
        (lambda: experiments.analytic_pure(_INTS, True), "m True is not an integer"),
        (lambda: experiments.analytic_pure(_INTS.astype(object), np.array([2, True], dtype=object)), "m True is not an integer"),
        (lambda: CutPovm(True, True), "n True is not an integer"),
        (lambda: experiments.ExperimentConfig(n=3, m=True, samples=True, seed=False), "m True is not an integer"),
        (lambda: experiments.ExperimentConfig(n=3, m=2, samples=10, seed=False), "seed False is not an integer"),
        (lambda: stream(True), "seed True is not an integer"),
        (lambda: PureState.basis_state(2, True), "index True is not an integer"),
        (lambda: SubsetIndex((False, True)), "index False is not an integer"),
        (lambda: ClassicalMessage(True, 0), "a True is not an integer"),
    ],
)
def test_integer_rule_refuses_by_name(call, message):
    # One rule, rng._integer, refuses every dimension, count, index and label
    # by its value and the bound it breaks; an array of cases is refused by
    # its dtype, or at its first case out of bounds as that case's ints.
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_numpy_integers_are_accepted_as_python_ints():
    subset = SubsetIndex((np.int64(0), np.uint8(2)))
    assert subset == SubsetIndex((0, 2)) and all(type(index) is int for index in subset.indices)
    message = ClassicalMessage(np.int64(1), np.int8(0))
    assert message == ClassicalMessage(1, 0) and type(message.a) is type(message.b) is int
    state = PureState(3, [0.6, 0.0, 0.8])
    forced, received = teleport(state, ChannelState(3), force_outcome=(np.int64(2), np.uint16(1)))
    assert forced == ClassicalMessage(2, 1) and type(forced.a) is type(forced.b) is int
    np.testing.assert_array_equal(received.matrix, teleport(state, ChannelState(3), force_outcome=(2, 1))[1].matrix)
    moment = exact_moment_fraction(np.int64(5), (np.int8(2), np.uint64(1)))
    assert moment == exact_moment_fraction(5, (2, 1)) and all(type(part) is int for part in moment)


def test_object_arrays_of_python_ints_are_checked_case_by_case():
    # Past the int64 range the exact routes hold Python ints in object arrays.
    n, m = np.array([3, 2**70], dtype=object), np.array([2, 5], dtype=object)
    assert experiments.analytic_pure(n, m).tolist() == [3 / 4, 6 / (2**70 + 1)]
    r = np.array([10**8, 2])
    assert np.array_equal(experiments.exact_entangled_via_moments(_INTS, _INTS - 2, r),
                          experiments.analytic_entangled(_INTS, _INTS - 2, r))
    with pytest.raises(ValueError, match="^m 5 is above 4$"):
        experiments.analytic_pure(np.array([3, 4], dtype=object), m)
