"""Meta-tests on the public API surface.

Guarantees the release-hygiene properties a downstream user relies on:
every name a package exports exists, everything public is documented,
and the top-level quickstart in the package docstring actually runs.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.baselines",
    "repro.bench",
    "repro.cluster",
    "repro.cpu",
    "repro.gf256",
    "repro.gpu",
    "repro.kernels",
    "repro.multicast",
    "repro.obs",
    "repro.p2p",
    "repro.rlnc",
    "repro.serving",
    "repro.streaming",
    "repro.workloads",
]

#: Names deleted from the public surface; none may come back.
#: (The registry class and its default-registry functions are guarded
#: everywhere in ``repro`` by ``tests/test_registry_writers.py``.)
REMOVED = {
    "repro.obs": ("Gauge",),
    "repro.obs.registry": ("Gauge", "LabelItems"),
    "repro.workloads": ("ADMISSION_DELAY_HISTOGRAM", "UTILIZATION_GAUGE"),
}


@pytest.mark.parametrize("package_name", PACKAGES)
class TestExports:
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        assert hasattr(package, "__all__"), f"{package_name} lacks __all__"
        for name in package.__all__:
            assert hasattr(package, name), f"{package_name}.{name} missing"

    def test_all_is_sorted_and_unique(self, package_name):
        package = importlib.import_module(package_name)
        exported = list(package.__all__)
        assert exported == sorted(exported), f"{package_name}.__all__ unsorted"
        assert len(exported) == len(set(exported))

    def test_public_classes_and_functions_documented(self, package_name):
        package = importlib.import_module(package_name)
        undocumented = []
        for name in package.__all__:
            obj = getattr(package, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(name)
        assert not undocumented, f"{package_name}: no docstring on {undocumented}"

    def test_package_docstring_present(self, package_name):
        package = importlib.import_module(package_name)
        assert (package.__doc__ or "").strip()


@pytest.mark.parametrize("module_name", sorted(REMOVED))
def test_removed_names_stay_removed(module_name):
    module = importlib.import_module(module_name)
    for name in REMOVED[module_name]:
        assert not hasattr(module, name), f"{module_name}.{name} is back"
        assert name not in getattr(module, "__all__", ())


def test_removed_methods_stay_removed():
    from repro.obs import SpanRecord
    from repro.rlnc import ChannelPipeline

    assert not hasattr(ChannelPipeline, "from_rates")
    assert not hasattr(SpanRecord, "end_ns")


class TestQuickstartDocstring:
    def test_readme_quickstart_pattern_runs(self):
        import numpy as np

        from repro import CodingParams, Encoder, ProgressiveDecoder, Segment

        params = CodingParams(num_blocks=8, block_size=32)
        segment = Segment.from_bytes(b"hello network coding", params)
        encoder = Encoder(segment, np.random.default_rng(0))
        decoder = ProgressiveDecoder(params)
        while not decoder.is_complete:
            decoder.consume(encoder.encode_block())
        recovered = decoder.recover_segment(original_length=20)
        assert recovered.to_bytes() == segment.to_bytes() == b"hello network coding"

    def test_version_exported(self):
        import repro

        assert repro.__version__ == "1.0.0"


class TestErrorHierarchy:
    def test_every_error_derives_from_repro_error(self):
        from repro import errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if (
                inspect.isclass(obj)
                and issubclass(obj, Exception)
                and obj is not errors.ReproError
                and obj.__module__ == "repro.errors"
            ):
                assert issubclass(obj, errors.ReproError), name
