"""Malformed kernel source raises a typed error, never a traceback.

The property mutates the source of one of the nine workloads by one to
three token edits (delete, duplicate, swap two, or replace one with a
token of the same source or a troublesome literal) and runs the text
through everything a kernel source meets before it launches:
:func:`~repro.kir.parser.parse_kernel`, each of the five translator
builds and :class:`~repro.kir.interp.codegen.CompiledKernel` of each
build.  Every stage must succeed or raise a
:class:`~repro.errors.ReproError` subclass.  Tokens come from the
parser's own tokenizer, so ``blockIdx.x`` and ``<=``/``++`` stay one
token.

Tier-1 runs a few dozen examples; the ``engine-fuzz`` hypothesis
profile (``tests/conftest.py``) runs twenty thousand::

    PYTHONPATH=src python -m pytest tests/test_property_mutation_fuzz.py \\
        --hypothesis-profile engine-fuzz
"""

from hypothesis import event, given, settings, strategies as st

from repro.core.translator import MODES, HauberkTranslator
from repro.errors import ReproError
from repro.gpu.costmodel import CostModel
from repro.kir.interp.codegen import CompiledKernel
from repro.kir.parser import parse_kernel, tokenize
from repro.workloads import all_workloads, get_workload

#: Examples per tier-1 run; the ``engine-fuzz`` profile replaces it.
TIER1_EXAMPLES = 40
#: Tokens a replacement may draw besides the source's own: int32 and
#: float edges, a barrier, a type, a literal string, closers.
LITERALS = ("0", "-1", "2147483647", "2147483648", "1e39", "0x7fffffff", "__syncthreads",
            "int", "float", "\"x\"", ";", "}", ")", "]", "shared")
SOURCES = {name: [t.text for t in tokenize(get_workload(name).source)]
           for name in all_workloads()}

edits = st.lists(st.tuples(st.sampled_from(("delete", "duplicate", "swap", "replace")),
                           st.integers(0, 10**6), st.integers(0, 10**6),
                           st.one_of(st.sampled_from(LITERALS), st.integers(0, 10**6))),
                 min_size=1, max_size=3)


def _fuzz_settings():
    long_run = settings.get_profile("engine-fuzz")
    if settings.default is long_run:
        return settings(long_run)
    return settings(max_examples=TIER1_EXAMPLES, deadline=None)


def _mutate(tokens: list, edits) -> str:
    tokens = list(tokens)
    for kind, at, other, replacement in edits:
        i, j = at % len(tokens), other % len(tokens)
        if kind == "delete" and len(tokens) > 1:
            del tokens[i]
        elif kind == "duplicate":
            tokens.insert(i, tokens[i])
        elif kind == "swap":
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif kind == "replace":
            tokens[i] = replacement if isinstance(replacement, str) else tokens[replacement % len(tokens)]
    return " ".join(tokens)


def _stages(source: str) -> str:
    """Where a ReproError stopped ``source``: at the parse, at a build,
    at a compile (the other builds still run), or nowhere.  Any other
    exception fails the test."""
    try:
        kernel = parse_kernel(source)
    except ReproError:
        return "parse"
    translator = HauberkTranslator()
    stopped = "nowhere"
    for mode in MODES:
        try:
            build = translator.build(kernel, mode)
        except ReproError:
            return "build"
        try:
            CompiledKernel(build.kernel, CostModel())
        except ReproError:
            stopped = "compile"
    return stopped


@_fuzz_settings()
@given(name=st.sampled_from(sorted(SOURCES)), edits=edits)
def test_mutated_sources_raise_typed_errors(name, edits):
    event(f"stopped at: {_stages(_mutate(SOURCES[name], edits))}")


def test_unmutated_sources_pass_every_stage():
    for name, tokens in SOURCES.items():
        # a barrier kernel has no compiled thread function
        assert _stages(" ".join(tokens)) == ("compile" if name == "TPACF" else "nowhere"), name
