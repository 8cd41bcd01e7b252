"""KernelSpec parsing, registry and API integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import evaluate_ordering
from repro.errors import ValidationError
from repro.gpu.perf import model_run
from repro.gpu.specs import scaled_platform
from repro.graphs.corpus import load_graph
from repro.trace import KernelSpec, kernel_kinds
from repro.trace.kernel_traces import spmm_csr_trace, spmv_coo_trace, spmv_csr_trace
from repro.sparse.convert import csr_to_coo


class TestParse:
    def test_simple_kinds(self):
        for name in ("spmv-csr", "spmv-coo"):
            spec = KernelSpec.parse(name)
            assert spec == KernelSpec(name=name, kind=name, k=None)

    def test_parametric(self):
        spec = KernelSpec.parse("spmm-csr-256")
        assert spec.kind == "spmm-csr"
        assert spec.k == 256
        assert spec.name == "spmm-csr-256"

    @pytest.mark.parametrize(
        "bad",
        [
            "spmm-csr-0",
            "spmm-csr--4",
            "spmm-csr-",
            "spmm-csr-04",
            "spmm-csr-4.5",
            "spmm-csr-x",
            "fft",
            "",
            "SPMV-CSR",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValidationError):
            KernelSpec.parse(bad)

    def test_non_string_rejected(self):
        with pytest.raises(ValidationError):
            KernelSpec.parse(4)

    def test_coerce(self):
        spec = KernelSpec.parse("spmm-csr-4")
        assert KernelSpec.coerce(spec) is spec
        assert KernelSpec.coerce("spmm-csr-4") == spec

    def test_registry_listing(self):
        kinds = kernel_kinds()
        assert "spmv-csr" in kinds
        assert "spmm-csr-<k>" in kinds

    def test_frozen(self):
        spec = KernelSpec.parse("spmv-csr")
        with pytest.raises(AttributeError):
            spec.name = "other"


class TestBuildTrace:
    @pytest.fixture(scope="class")
    def graph(self):
        return load_graph("test-comm")

    @pytest.fixture(scope="class")
    def platform(self):
        return scaled_platform("test")

    def test_matches_direct_builders(self, graph, platform):
        csr = graph.adjacency
        lb = platform.line_bytes
        pairs = [
            ("spmv-csr", spmv_csr_trace(csr, line_bytes=lb)),
            ("spmv-coo", spmv_coo_trace(csr_to_coo(csr), line_bytes=lb)),
            ("spmm-csr-4", spmm_csr_trace(csr, k=4, line_bytes=lb)),
        ]
        for name, direct in pairs:
            built = KernelSpec.parse(name).build_trace(csr, platform)
            assert built.kernel == direct.kernel
            assert np.array_equal(built.lines, direct.lines)
            assert built.regions == direct.regions

    @pytest.mark.parametrize("kind", kernel_kinds())
    def test_every_kind_builds_and_models(self, graph, platform, kind):
        # Product paths hand every kernel the graph's CSR; a kind whose
        # builder needs another format fails here, not in a serve request.
        name = kind.replace("<k>", "4")
        trace = KernelSpec.parse(name).build_trace(graph.adjacency, platform)
        assert trace.kernel == name
        assert trace.n_accesses > 0
        run = model_run(trace, platform)
        assert run.compulsory_bytes > 0
        assert run.modeled_seconds > 0

    def test_graph_unwrapped(self, graph, platform):
        from_graph = KernelSpec.parse("spmv-csr").build_trace(graph, platform)
        from_csr = KernelSpec.parse("spmv-csr").build_trace(graph.adjacency, platform)
        assert np.array_equal(from_graph.lines, from_csr.lines)

    def test_schedule_forwarded(self, graph, platform):
        sequential = KernelSpec.parse("spmv-csr").build_trace(graph.adjacency, platform)
        interleaved = KernelSpec.parse("spmv-csr").build_trace(
            graph.adjacency, platform, schedule="interleaved"
        )
        assert interleaved.schedule == "interleaved"
        assert not np.array_equal(sequential.lines, interleaved.lines)

    def test_line_bytes_override(self, graph):
        built = KernelSpec.parse("spmv-csr").build_trace(graph.adjacency, line_bytes=64)
        assert built.line_bytes == 64


class TestApiIntegration:
    def test_evaluate_ordering_accepts_spec(self):
        graph = load_graph("test-mesh")
        platform = scaled_platform("test")
        via_str = evaluate_ordering(graph, platform=platform, kernel="spmm-csr-4")
        via_spec = evaluate_ordering(
            graph, platform=platform, kernel=KernelSpec.parse("spmm-csr-4")
        )
        assert via_str.stats == via_spec.stats

    @pytest.mark.parametrize("bad", ["spmm-csr-0", "spmm-csr--4", "fft"])
    def test_evaluate_ordering_rejects_malformed(self, bad):
        graph = load_graph("test-mesh")
        with pytest.raises(ValidationError):
            evaluate_ordering(graph, platform=scaled_platform("test"), kernel=bad)

    def test_model_run_builds_from_kernel(self):
        graph = load_graph("test-mesh")
        platform = scaled_platform("test")
        direct = model_run(
            KernelSpec.parse("spmv-csr").build_trace(graph.adjacency, platform),
            platform,
        )
        via_kernel = model_run(graph.adjacency, platform, kernel="spmv-csr")
        assert direct.stats == via_kernel.stats

    def test_model_run_requires_trace_or_kernel(self):
        graph = load_graph("test-mesh")
        with pytest.raises(ValidationError):
            model_run(graph.adjacency, scaled_platform("test"))

    def test_runner_accepts_spec_paths(self):
        from repro.experiments.runner import ExperimentRunner

        runner = ExperimentRunner(profile="test", use_cache=False)
        record = runner.run("test-comm", "original", kernel="spmm-csr-4")
        assert record.kernel == "spmm-csr-4"
        assert record.accesses > 0
