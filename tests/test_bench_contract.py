"""What the benchmark in perfbench/ uses of the package keeps working.

The benchmark wraps the targets listed in perfbench/spans.py and builds
its inputs through a few public names; a rename or deletion here would
only show when the benchmark runs, so these tests pin the contract.
"""

import importlib
import importlib.util
from pathlib import Path

from cantorenv import (
    CellPartition,
    Exhaustion,
    ZPartialAction,
    bratteli_build,
    cell_partition,
    default_schedule,
    equivariance_sign,
    isomorphism_suite,
    truncated_relation,
)
from cantorenv.prefix_map import ODOMETER, GeneratedMap, PrefixMap

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    spans = _load("spans")
    missing = []
    for name, (module, *targets) in spans.SPANS.items():
        owner = importlib.import_module(module)
        for target in targets:
            if "." in target:
                cls_name, attr = target.split(".")
                # the tracer patches the attribute the class itself defines
                found = attr in vars(getattr(owner, cls_name, object))
            else:
                found = callable(getattr(owner, target, None))
            if not found:
                missing.append(f"{name}: {module}.{target}")
    assert not missing


def test_actions_expose_what_the_tracer_keys_on():
    spans = _load("spans")
    for a in (ZPartialAction(ODOMETER), ZPartialAction(ODOMETER).stage(2),
              ZPartialAction(PrefixMap.parse("[0 -> 1]"))):
        assert {"generator", "counts", "clopen"} <= set(dir(a))
        key = spans._domain_key((a, 0), {})
        assert key == (a.generator, a.counts, None, 0)


def test_partitions_expose_classes():
    # the tracer's cell_partition hook reads `classes` off every result
    odo = ZPartialAction(ODOMETER)
    part = cell_partition(odo.stage(1), 1, 2)
    tr = truncated_relation(odo, 1, 1, 2)
    assert isinstance(tr, CellPartition)
    assert part.classes and tr.classes == part.classes


def test_workload_entry_points_still_run():
    ex = Exhaustion(GeneratedMap("rules", (("00", "01"), ("01", "10"))))
    diagram = bratteli_build(ex, default_schedule(ex, 2))
    assert len(diagram.levels) == 2
    odo = ZPartialAction(ODOMETER)
    report = isomorphism_suite(odo, trials=2, seed=0, max_index=2, depth=4,
                               level=1)
    eps, signs = equivariance_sign(odo, trials=2, seed=0, max_index=2,
                                   depth=4, level=1)
    assert report.ok and signs.ok and eps == -1
