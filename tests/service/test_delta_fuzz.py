"""Property fuzz of the ``POST /batch`` delta form: every malformed ``deltas``
document is a clean 400 that names the offending position.

Each generated batch is a run of valid records, then one broken record, then
more valid records, sent over HTTP to an in-process server.  Whatever the
breakage — a record that is not an object, a wrong or missing ``format``, an
unknown key, a vector of the wrong length or type, an unknown task, demand on
a bank the platform lacks, an edge that closes a cycle — the server must
answer 400 with ``deltas[i]`` in the message, never another status or a
dropped connection.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import PatchedProblem, StructureOverlay, compile_problem
from repro.errors import ServiceError
from repro.generators import ChainsConfig, generate_chains
from repro.io import delta_to_dict, problem_to_dict, structure_delta_to_dict
from repro.service import AnalysisServer, EngineRuntime, ServiceClient

KERNEL = compile_problem(
    generate_chains(
        ChainsConfig(chains=3, length=4, core_count=3, bank_count=2, seed=8)
    ).to_problem(horizon=100_000)
)
NAMES = list(KERNEL.names)
N = KERNEL.task_count
PARENT = problem_to_dict(KERNEL.problem)

FUZZ = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.fixture(scope="module")
def client():
    runtime = EngineRuntime(backend="inline")
    server = AnalysisServer(runtime, port=0).start()
    try:
        yield ServiceClient(server.url, timeout=30)
    finally:
        server.close()
        runtime.close()


def _descendants(index):
    seen, stack = set(), list(KERNEL.dependents_of(index))
    while stack:
        task = stack.pop()
        if task not in seen:
            seen.add(task)
            stack.extend(KERNEL.dependents_of(task))
    return seen


#: (ancestor, descendant) name pairs: an edge descendant -> ancestor closes a cycle
REACHABLE = [
    (NAMES[a], NAMES[d]) for a in range(N) for d in sorted(_descendants(a))
]

# -- valid records -------------------------------------------------------

overlay_records = st.builds(
    lambda factor, name: delta_to_dict(
        KERNEL.with_overlay(KERNEL.scaled_wcet_overlay(factor), name=name)
    ),
    st.sampled_from([1.0, 1.25, 2.0]),
    st.sampled_from(["w-a", "w-b"]),
)
structure_records = st.builds(
    lambda delta: delta_to_dict(PatchedProblem(KERNEL, delta, name="s")),
    st.sampled_from(
        [
            StructureOverlay.noop(),
            StructureOverlay.remove_task(NAMES[-1]),
            StructureOverlay.add_task("extra", wcet=5, core=1),
        ]
    ),
)
valid_records = st.one_of(overlay_records, structure_records)

# -- broken records ------------------------------------------------------

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text()
)
non_objects = st.one_of(json_scalars, st.lists(json_scalars, max_size=3))


@st.composite
def wrong_format(draw):
    record = dict(draw(valid_records))
    if draw(st.booleans()):
        del record["format"]
    else:
        record["format"] = draw(
            json_scalars.filter(
                lambda v: v not in ("repro-overlay", "repro-structure-delta")
            )
        )
    return record


@st.composite
def unknown_keys(draw):
    record = dict(draw(valid_records))
    key = draw(st.text(min_size=1).filter(lambda key: key not in record))
    allowed = {
        "format", "version", "name", "kind", "wcet", "accesses", "has_horizon",
        "horizon", "task", "core", "min_release", "deadline", "position",
        "producer", "consumer", "volume",
    }
    # keep the fuzz on names that no record format accepts
    if key in allowed:
        key = f"x-{key}"
    record[key] = draw(json_scalars)
    return record


def _is_int_text(text):
    return text.strip().lstrip("+-").isdigit()


#: values ``int()`` rejects (a digit string or a float would be accepted)
not_an_int = st.one_of(
    st.none(),
    st.text().filter(lambda text: not _is_int_text(text)),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@st.composite
def bad_vectors(draw):
    record = delta_to_dict(KERNEL.with_overlay(KERNEL.scaled_wcet_overlay(1.5)))
    field = draw(st.sampled_from(["wcet", "accesses"]))
    shape = draw(st.sampled_from(["length", "element", "scalar"]))
    if shape == "length":
        length = draw(st.integers(0, 2 * N).filter(lambda size: size != N))
        element = st.integers(1, 50) if field == "wcet" else st.just({"0": 1})
        record[field] = draw(st.lists(element, min_size=length, max_size=length))
    elif shape == "element":
        # right length, one element of the wrong type
        vector = [1] * N if field == "wcet" else [{"0": 1} for _ in range(N)]
        bad_demand = st.one_of(
            not_an_int.filter(lambda value: not isinstance(value, dict)),
            st.dictionaries(
                st.text(min_size=1).filter(lambda key: not _is_int_text(key)),
                st.integers(),
                min_size=1,
                max_size=2,
            ),
        )
        vector[draw(st.integers(0, N - 1))] = draw(
            not_an_int if field == "wcet" else bad_demand
        )
        record[field] = vector
    else:
        # not a vector at all
        record[field] = draw(
            st.one_of(
                st.integers(),
                st.booleans(),
                st.dictionaries(st.text(max_size=3), st.integers(), min_size=1, max_size=2),
            )
        )
    return record


unknown_task = st.text(min_size=1).filter(lambda name: name not in NAMES)


@st.composite
def unknown_tasks(draw):
    kind = draw(st.sampled_from(["remove_task", "remap_task", "add_edge", "remove_edge"]))
    ghost = draw(unknown_task)
    if kind == "remove_task":
        delta = StructureOverlay.remove_task(ghost)
    elif kind == "remap_task":
        delta = StructureOverlay.remap_task(ghost, core=draw(st.sampled_from([0, 1, 2])))
    else:
        known = draw(st.sampled_from(NAMES))
        producer, consumer = (ghost, known) if draw(st.booleans()) else (known, ghost)
        delta = getattr(StructureOverlay, kind)(producer, consumer)
    return structure_delta_to_dict(delta, name="broken")


@st.composite
def unknown_banks(draw):
    record = delta_to_dict(KERNEL.with_overlay(KERNEL.scaled_demand_overlay(1.0)))
    bank = draw(st.integers(KERNEL.problem.platform.bank_count, 10**6))
    record["accesses"][draw(st.integers(0, N - 1))] = {str(bank): draw(st.integers(1, 50))}
    return record


cycle_edges = st.sampled_from(REACHABLE).map(
    lambda pair: structure_delta_to_dict(StructureOverlay.add_edge(pair[1], pair[0]))
)

broken_records = {
    "non-object": non_objects,
    "wrong-format": wrong_format(),
    "unknown-key": unknown_keys(),
    "bad-vector": bad_vectors(),
    "unknown-task": unknown_tasks(),
    "unknown-bank": unknown_banks(),
    "cycle": cycle_edges,
}


def _assert_400_naming(client, document, needle):
    with pytest.raises(ServiceError) as excinfo:
        client._request("POST", "/batch", document)
    assert excinfo.value.status == 400, str(excinfo.value)
    assert needle in str(excinfo.value)


@pytest.mark.parametrize("breakage", sorted(broken_records))
def test_broken_record_is_a_400_naming_its_position(client, breakage):
    @FUZZ
    @given(
        before=st.lists(valid_records, max_size=3),
        bad=broken_records[breakage],
        after=st.lists(valid_records, max_size=2),
    )
    def check(before, bad, after):
        document = {"problem": PARENT, "deltas": [*before, bad, *after]}
        _assert_400_naming(client, document, f"deltas[{len(before)}]")

    check()


@FUZZ
@given(
    deltas=st.one_of(
        st.just([]),
        json_scalars,
        st.dictionaries(st.text(max_size=4), json_scalars, max_size=2),
    )
)
def test_non_list_or_empty_deltas_is_a_400(client, deltas):
    _assert_400_naming(client, {"problem": PARENT, "deltas": deltas}, "'deltas'")


@FUZZ
@given(records=st.lists(valid_records, min_size=1, max_size=4))
def test_valid_batches_are_served(client, records):
    response = client._request("POST", "/batch", {"problem": PARENT, "deltas": records})
    assert response["count"] == len(records)
    assert response["failures"] == {}
