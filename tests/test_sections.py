"""Dataflow-section tests: the partition and the site map.

The contract under test (:mod:`repro.kir.analysis.sections`): a
validated kernel partitions deterministically into ordered sections at
top-level loops and barriers, and every injection site maps to exactly
one section.
"""

from __future__ import annotations

import pytest

from repro.errors import KIRValidationError
from repro.kir import parse_kernel
from repro.kir.analysis import kernel_sections, site_section_map
from repro.workloads import get_workload

CHAIN_SRC = """
kernel chain(float* a, float* b, int n) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    float x = a[tid] * 2.0;
    float acc = 0.0;
    for (int i = 0; i < n; i++) {
        acc = acc + x;
    }
    float y = acc * 0.5;
    b[tid] = y;
}
"""

# Two dataflow-independent chains: a -> oa and b -> ob, split by a
# barrier, with no shared intermediate names.
TWO_CHAIN_SRC = """
kernel two(float* a, float* b, float* oa, float* ob) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    float x = a[tid] * 2.0;
    oa[tid] = x;
    __syncthreads();
    int ujd = blockIdx.x * blockDim.x + threadIdx.x;
    float y = b[ujd] + 1.0;
    ob[ujd] = y;
}
"""


class TestPartition:
    def test_chain_partition(self):
        sections = kernel_sections(parse_kernel(CHAIN_SRC))
        assert [s.name for s in sections] == ["s0", "s1", "s2", "s3"]
        assert [s.kind for s in sections] == \
            ["params", "straight", "loop", "straight"]

    def test_requires_validated_kernel(self):
        kernel = parse_kernel(CHAIN_SRC)
        object.__setattr__(kernel, "validated", False)
        with pytest.raises(KIRValidationError):
            kernel_sections(kernel)

    def test_barrier_ends_its_section(self):
        sections = kernel_sections(parse_kernel(TWO_CHAIN_SRC))
        assert [s.kind for s in sections] == ["params", "straight", "straight"]
        # the barrier belongs to the section it terminates
        assert any(
            type(stmt).__name__ == "SyncThreads"
            for stmt in sections[1].statements
        )

    def test_every_site_mapped_once(self):
        kernel = parse_kernel(CHAIN_SRC)
        mapping = site_section_map(kernel)
        assert sorted(mapping) == list(range(kernel.n_sites))
        sections = kernel_sections(kernel)
        seen = [site for sec in sections for site in sec.site_ids]
        assert sorted(seen) == sorted(set(seen))

    def test_real_workloads_partition(self):
        for name in ("CP", "PNS"):
            kernel = get_workload(name).kernel
            sections = kernel_sections(kernel)
            assert sections[0].kind == "params"
            assert len(sections) >= 3
            assert sorted(site_section_map(kernel)) == \
                list(range(kernel.n_sites))
