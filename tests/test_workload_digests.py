"""One-pass output digests of the benchmark workloads, pinned for seeds 1-3.

Each value is the digest ``perfbench/run.py`` prints: sha256 over the
concatenated item digests of one pass over the seed's items.  The
workloads module is loaded from its file and only read.  A change that
states an output change updates these values with it.
"""

import hashlib
import importlib.util
import sys
import warnings
from pathlib import Path

import pytest

from lefgroup.fibration import TransversalityWarning

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

PINNED = {
    ("realize", 1): "2996bd383908245bc60866978b38321e14191d149e529863e46511527b9b4f5e",
    ("realize", 2): "697d7f833dbe3001b19f96cd4d31788c2686c2e2129611de0e691c206d74660c",
    ("realize", 3): "59f55eab2fecf0b5268a648f393c11b668ffcab7fa95563f4a28938b12e3ec72",
    ("certify", 1): "bb8bb8019fa76f3fbd5936e24ef5402ec016d0a8f788788645b7e6c8c1623d4e",
    ("certify", 2): "5cc65d3dc37f5d729763b9833cf81662a0cf6edc76f01e48d6267eeb485a818c",
    ("certify", 3): "2c076b1d37c3922376f979d267ab5a4973a74cbf13231da7f1bbc8558d1b29fc",
    ("invariants", 1): "62f0e9a1b785f9e52c9f247fdc16052fe638a43c1bfd4fcdc81d0c5f612392e6",
    ("invariants", 2): "04921622495d258ed66862debf0422e08df484d8f2b92c5759fd08426b8da98c",
    ("invariants", 3): "496349bde6fbf3ae92e6fd3d0bc0eca5e00a4da6b06b26442dc7b17a88b4909a",
}


@pytest.fixture(scope="module")
def workloads():
    # the module puts its checkout's src/ first on sys.path, and its
    # dataclasses need it in sys.modules while they are built; undo both
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("name, seed", PINNED, ids=[f"{n}-{s}" for n, s in PINNED])
def test_one_pass_digest(workloads, name, seed):
    workload = workloads.WORKLOADS[name]
    items = workload.items(seed)
    ctx = workload.setup()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TransversalityWarning)
        digests = [workloads.item_digest(workload.digest_text(item, workload.call(item, ctx)))
                   for item in items]
    assert hashlib.sha256("".join(digests).encode()).hexdigest() == PINNED[name, seed]
