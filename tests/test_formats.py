"""Properties shared by the four text formats: graph, snapshot, scenario, sweep spec.

Every value a format can hold survives ``from_text(to_text(x)) == x``, and
no line of input, however malformed, escapes as anything but a ParseError
(or a GraphInvariantError for a well-formed but invalid graph). The one
record reader gives every format the result or the error that each
format's own loop over the line-by-line reader it replaced gave. The bulk
readers of canonical graph and snapshot files either return exactly what
the record reader returns or leave the document to it.
"""

import os
import tracemalloc
from contextlib import AbstractContextManager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from trustconnect import errors
from trustconnect.errors import (
    GraphInvariantError,
    ParseError,
    SnapshotMismatchError,
    admit,
    finite_float,
)
from trustconnect.experiment import (
    SWEEP_HEADER,
    SWEEP_RECORDS,
    RandomGraphSpec,
    SweepSpec,
    _check_grid_axis,
    load_sweep_spec,
    _random_graph_spec,
    parse_sweep_spec,
    reference_fixture,
    reference_sweep_spec,
    sweep_spec_to_text,
)
from trustconnect.graph import (
    GRAPH_HEADER,
    GRAPH_RECORDS,
    DependencyGraph,
    EcuNode,
    EpsilonDistribution,
    _compile,
    _read_canonical as graph_read_canonical,
    _read_records as graph_read_records,
    from_text as graph_from_text,
    load_graph,
    to_text as graph_to_text,
    validate,
)
from trustconnect.snapshot import (
    ATTACK_MODES,
    SCENARIO_HEADER,
    SCENARIO_RECORDS,
    SNAPSHOT_HEADER,
    SNAPSHOT_RECORDS,
    AttackSpec,
    ScenarioSpec,
    Snapshot,
    _read_aligned as snapshot_read_aligned,
    attack_from_fields,
    check_noise_sigma,
    deviations,
    from_text as snapshot_from_text,
    load_scenario,
    load_snapshot,
    scenario_from_text,
    scenario_to_text,
    synthesize_snapshot,
    to_text as snapshot_to_text,
    validate_snapshot,
)
from trustconnect.trust import MODES, check_mode

node_ids = st.integers(min_value=0, max_value=10**6)
ids = st.integers(min_value=-10**6, max_value=10**6)
finite = st.floats(allow_nan=False, allow_infinity=False)
nonnegative = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
unit = st.floats(min_value=0.0, max_value=1.0)


def _label_is_valid(label):
    return validate(DependencyGraph(nodes=(EcuNode(0, label, 0.5),), edges=())) == []


# '#', ',' and whitespace are drawn often, so the labels validate() must
# reject are tried on every run
labels = st.text(
    alphabet=st.sampled_from("E0_-#,. \t") | st.characters(), min_size=1, max_size=8
).filter(_label_is_valid)
# valid by construction, so drawing a graph costs no rejected labels
plain_labels = st.text(alphabet="E0_-.:/éλ中", min_size=1, max_size=8)


@st.composite
def graphs(draw, min_nodes=0, labels=labels):
    ids_drawn = draw(st.lists(node_ids, unique=True, min_size=min_nodes, max_size=8))
    nodes = tuple(EcuNode(i, draw(labels), draw(unit)) for i in ids_drawn)
    edges = []
    if len(ids_drawn) > 1:
        pairs = st.tuples(st.sampled_from(ids_drawn), st.sampled_from(ids_drawn))
        edges = draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), unique=True, max_size=16))
    return DependencyGraph(nodes=nodes, edges=tuple(edges))


snapshots = st.builds(
    Snapshot,
    observed=st.dictionaries(ids, finite, max_size=12),
    inferred=st.dictionaries(st.tuples(ids, ids), finite, max_size=12),
)
attacks = st.none() | st.builds(
    AttackSpec,
    compromised=st.frozensets(ids, min_size=1, max_size=5),
    mode=st.sampled_from(ATTACK_MODES),
    delta=nonnegative,
)
scenarios = st.builds(
    ScenarioSpec,
    ground_truth=st.dictionaries(ids, finite, max_size=12),
    noise_sigma=nonnegative,
    attack=attacks,
    seed=st.integers(),
)


@st.composite
def epsilon_distributions(draw):
    if draw(st.booleans()):
        return EpsilonDistribution("constant", draw(unit))
    low, high = sorted((draw(unit), draw(unit)))
    return EpsilonDistribution("uniform", low, high)


random_graphs = st.builds(
    RandomGraphSpec,
    n=st.integers(min_value=1, max_value=10**6),
    edge_probability=unit,
    epsilon=epsilon_distributions(),
    seed=st.integers(),
)
grid_axes = st.lists(nonnegative, min_size=1, max_size=5, unique=True).map(
    lambda values: tuple(sorted(values))
)
sweep_fields = dict(
    truth_constant=finite,
    truth_overrides=st.dictionaries(ids, finite, max_size=6).map(
        lambda truth: tuple(sorted(truth.items()))
    ),
    noise_sigma=nonnegative,
    attack=attacks,
    scenario_seed=st.integers(),
    k_values=grid_axes,
    alpha_values=grid_axes,
    mode=st.sampled_from(MODES),
)
sweep_specs = st.one_of(
    st.builds(SweepSpec, graph_file=st.from_regex(r"[\w./-]+", fullmatch=True), **sweep_fields),
    st.builds(SweepSpec, graph_random=random_graphs, **sweep_fields),
)


@given(graphs())
def test_graph_round_trips(graph):
    assert graph_from_text(graph_to_text(graph)) == graph


@given(snapshots)
def test_snapshot_round_trips(snapshot):
    assert snapshot_from_text(snapshot_to_text(snapshot)) == snapshot


@given(scenarios)
def test_scenario_round_trips(scenario):
    assert scenario_from_text(scenario_to_text(scenario)) == scenario


@given(sweep_specs)
def test_sweep_spec_round_trips(spec):
    assert parse_sweep_spec(sweep_spec_to_text(spec)) == spec


FORMATS = [
    (GRAPH_HEADER, GRAPH_RECORDS, graph_from_text),
    (SNAPSHOT_HEADER, SNAPSHOT_RECORDS, snapshot_from_text),
    (SCENARIO_HEADER, SCENARIO_RECORDS, scenario_from_text),
    (SWEEP_HEADER, SWEEP_RECORDS, parse_sweep_spec),
]

# fields that reach each conversion: numbers, non-finite values, lists,
# key=value pairs, modes and comments
fields = st.one_of(
    st.sampled_from([
        "0", "1", "-1", "0.5", "1e400", "nan", "-inf", "x", "", "1,2", "2,1", ",",
        "n=5", "p=0.5", "p=nan", "seed=3", "epsilon=constant:0.5", "epsilon=uniform:1,0",
        "bogus=1", "n", "=", "both", "self-injection", "fixed-point", "#", "a#b",
    ]),
    st.text(max_size=6),
)


@st.composite
def documents(draw, header, usage):
    kinds = st.sampled_from(sorted(usage)) | st.text(max_size=6)
    records = st.builds(
        lambda kind, rest: " ".join([kind, *rest]), kinds, st.lists(fields, max_size=6)
    )
    lines = draw(st.lists(records | st.text(max_size=12), max_size=8))
    return "\n".join([header, *lines]) + "\n"


@pytest.mark.parametrize(
    "header, usage, parse", FORMATS, ids=["graph", "snapshot", "scenario", "sweep"]
)
@settings(max_examples=100)
@given(data=st.data())
def test_malformed_lines_raise_only_parse_errors(header, usage, parse, data):
    text = data.draw(documents(header, usage))
    try:
        parse(text, path="doc.txt")
    except ParseError as exc:
        assert str(exc).startswith("doc.txt")
    except GraphInvariantError:
        pass


@pytest.mark.parametrize("line_no", [2, 3000])
@pytest.mark.parametrize(
    "header, load",
    [(GRAPH_HEADER, load_graph), (SNAPSHOT_HEADER, load_snapshot),
     (SCENARIO_HEADER, load_scenario), (SWEEP_HEADER, load_sweep_spec)],
    ids=["graph", "snapshot", "scenario", "sweep"],
)
def test_a_byte_that_is_not_utf8_is_a_parse_error_at_its_line(tmp_path, header, load, line_no):
    # line 3000 starts 18 kB in: its number counts the lines of the whole file
    path = tmp_path / "doc.txt"
    path.write_bytes(f"{header}\n".encode() + b"# pad\n" * (line_no - 2) + b"# caf\xe9\n")
    with pytest.raises(ParseError) as excinfo:
        load(path)
    assert (excinfo.value.path, excinfo.value.line_no) == (str(path), line_no)
    assert str(excinfo.value) == (
        f"{path}:{line_no}: invalid UTF-8 byte 0xe9: invalid continuation byte"
    )


def _reference_documents():
    graph, scenario = reference_fixture()
    return {
        "graph": graph_to_text(graph),
        "snapshot": snapshot_to_text(synthesize_snapshot(graph, scenario)),
        "scenario": scenario_to_text(scenario),
        "sweep": sweep_spec_to_text(reference_sweep_spec()),
    }


@pytest.mark.parametrize(
    "name, load",
    [("graph", load_graph), ("snapshot", load_snapshot),
     ("scenario", load_scenario), ("sweep", load_sweep_spec)],
    ids=["graph", "snapshot", "scenario", "sweep"],
)
def test_a_byte_order_mark_reads_as_the_file_without_it(tmp_path, name, load):
    text = _reference_documents()[name]
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert load(marked) == load(plain)
    # a bad byte after the mark is still named at its own line
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode() + b"# caf\xe9\n")
    with pytest.raises(ParseError) as excinfo:
        load(marked)
    assert (excinfo.value.path, excinfo.value.line_no) == (str(marked), len(text.splitlines()) + 1)


@pytest.mark.parametrize(
    "fields",
    ["", " n=3", " n=3 p=0.5 seed=1 epsilon=uniform n=4", " n=3 p=0.5 seed=1 epsilon=uniform x=1"],
    ids=["1-field", "2-fields", "6-fields-repeated-key", "6-fields-unknown-key"],
)
def test_graph_random_checks_its_own_field_count(fields):
    text = f"{SWEEP_HEADER}\ntruth_constant 1.0\ngraph_random{fields}\n"
    with pytest.raises(ParseError) as excinfo:
        parse_sweep_spec(text, "s.txt")
    assert str(excinfo.value) == (
        "s.txt:3: expected: graph_random n=<int> p=<float> [seed=<int>] [epsilon=<spec>]")


class ReferenceRecordReader(AbstractContextManager):
    """The line-by-line reader the one record reader replaced, as it was.

    Each format looped over its field lists, converting them itself.
    """

    def __init__(self, text, path, header, usage, single=()):
        self.lines = text.splitlines()
        if not self.lines or self.lines[0].strip() != header:
            raise ParseError(f"missing header {header!r}", path, 1)
        self.path = path
        self.usage = usage
        self.single = frozenset(single)
        self.line_no = 1
        self.counts = {kind: len(fields.split()) + 1 for kind, fields in usage.items()}

    def __iter__(self):
        counts, single, seen = self.counts, self.single, set()
        for line_no, raw in enumerate(self.lines[1:], start=2):
            if "#" in raw:
                raw = raw.split("#", 1)[0]
            fields = raw.split()
            if not fields:
                continue
            self.line_no = line_no
            kind = fields[0]
            if kind in single:
                if kind in seen:
                    raise ParseError(f"duplicate {kind} record", self.path, line_no)
                seen.add(kind)
            if counts.get(kind) != len(fields):
                usage = self.usage.get(kind)
                if usage is None:
                    raise ParseError(f"unknown record type {kind!r}", self.path, line_no)
                if not counts[kind] - usage.count("[") <= len(fields) < counts[kind]:
                    raise ParseError(f"expected: {kind} {usage}", self.path, line_no)
            yield fields

    def __exit__(self, exc_type, exc, traceback):
        if isinstance(exc, ValueError):
            raise ParseError(str(exc), self.path, self.line_no) from exc


REFERENCE_GRAPH_USAGE = {"node": "<id> <label> <epsilon>", "edge": "<i> <j>"}
REFERENCE_SNAPSHOT_USAGE = {"obs": "<i> <value>", "inf": "<i> <j> <value>"}
REFERENCE_SCENARIO_USAGE = {
    "truth": "<id> <value>",
    "noise_sigma": "<value>",
    "seed": "<int>",
    "attack": "<mode> <delta> <id,id,...>",
}
REFERENCE_SWEEP_USAGE = {
    "graph_file": "<path>",
    "graph_random": "n=<int> p=<float> [seed=<int>] [epsilon=<spec>]",
    "truth_constant": "<value>",
    "truth": "<id> <value>",
    "noise_sigma": "<value>",
    "scenario_seed": "<int>",
    "attack": "<mode> <delta> <id,id,...>",
    "k_values": "<v,v,...>",
    "alpha_values": "<v,v,...>",
    "mode": "<single-pass|fixed-point>",
}


def reference_graph_from_text(text, path):
    canonical = graph_read_canonical(text)
    if canonical:
        return canonical
    nodes, edges = [], []
    with ReferenceRecordReader(text, path, GRAPH_HEADER, REFERENCE_GRAPH_USAGE) as records:
        for fields in records:
            if fields[0] == "node":
                nodes.append(EcuNode(int(fields[1]), fields[2], float(fields[3])))
            else:
                edges.append((int(fields[1]), int(fields[2])))
    graph = DependencyGraph(nodes=tuple(nodes), edges=tuple(edges))
    violations = validate(graph)
    if violations:
        raise GraphInvariantError(violations, path)
    return graph


def reference_snapshot_from_text(text, path):
    observed, inferred = {}, {}
    usage = REFERENCE_SNAPSHOT_USAGE
    with ReferenceRecordReader(text, path, SNAPSHOT_HEADER, usage) as records:
        for fields in records:
            if fields[0] == "obs":
                if (i := int(fields[1])) in observed:
                    raise ValueError(f"duplicate obs {i} record")
                observed[i] = finite_float(fields[2])
            else:
                if (edge := (int(fields[1]), int(fields[2]))) in inferred:
                    raise ValueError(f"duplicate inf {edge[0]} {edge[1]} record")
                inferred[edge] = finite_float(fields[3])
    return Snapshot(observed=observed, inferred=inferred)


def reference_scenario_from_text(text, path):
    truth, kwargs = {}, {}
    usage = REFERENCE_SCENARIO_USAGE
    single = set(usage) - {"truth"}
    with ReferenceRecordReader(text, path, SCENARIO_HEADER, usage, single) as records:
        for fields in records:
            kind = fields[0]
            if kind == "truth":
                if (i := int(fields[1])) in truth:
                    raise ValueError(f"duplicate truth {i} record")
                truth[i] = finite_float(fields[2])
            elif kind == "noise_sigma":
                kwargs[kind] = check_noise_sigma(finite_float(fields[1]))
            elif kind == "seed":
                kwargs[kind] = int(fields[1])
            else:
                kwargs[kind] = attack_from_fields(fields)
    return ScenarioSpec(ground_truth=truth, **kwargs)


def reference_parse_sweep_spec(text, path):
    kwargs, overrides = {}, {}
    usage = REFERENCE_SWEEP_USAGE
    single = set(usage) - {"truth"}
    with ReferenceRecordReader(text, path, SWEEP_HEADER, usage, single) as records:
        for fields in records:
            kind = fields[0]
            if kind == "truth":
                if (i := int(fields[1])) in overrides:
                    raise ValueError(f"duplicate truth {i} record")
                overrides[i] = finite_float(fields[2])
            elif kind == "graph_file":
                graph_path = fields[1]
                if path is not None and not os.path.isabs(graph_path):
                    graph_path = str(Path(path).parent / graph_path)
                kwargs[kind] = graph_path
            elif kind == "graph_random":
                kwargs[kind] = _random_graph_spec(fields)
            elif kind == "attack":
                kwargs[kind] = attack_from_fields(fields)
            elif kind in ("k_values", "alpha_values"):
                values = tuple(finite_float(v) for v in fields[1].split(","))
                _check_grid_axis(kind, values)
                kwargs[kind] = values
            elif kind == "mode":
                kwargs[kind] = check_mode(fields[1])
            elif kind == "scenario_seed":
                kwargs[kind] = int(fields[1])
            elif kind == "noise_sigma":
                kwargs[kind] = check_noise_sigma(finite_float(fields[1]))
            else:
                kwargs[kind] = finite_float(fields[1])
    try:
        return SweepSpec(truth_overrides=tuple(overrides.items()), **kwargs)
    except ValueError as exc:
        raise ParseError(str(exc), path=path) from exc


@st.composite
def repeated_records(draw, values, to_text):
    """A valid document with a copy of one record inserted after it: the
    copy has an extra field, a non-finite last field, or its first id
    zero-padded."""
    lines = to_text(draw(values)).splitlines()
    if len(lines) > 1:
        k = draw(st.integers(1, len(lines) - 1))
        fields = lines[k].split(" ")
        trap = draw(st.sampled_from(["extra field", "non-finite value", "leading zero"]))
        if trap == "extra field":
            fields.append("9")
        elif trap == "non-finite value":
            fields[-1] = draw(st.sampled_from(["nan", "inf", "-inf", "1e999"]))
        else:
            fields[1] = "0" + fields[1]
        lines.insert(draw(st.integers(k + 1, len(lines))), " ".join(fields))
    return "\n".join(lines) + "\n"


REFERENCES = [
    (GRAPH_HEADER, GRAPH_RECORDS, graphs(labels=plain_labels), graph_to_text,
     graph_from_text, reference_graph_from_text),
    (SNAPSHOT_HEADER, SNAPSHOT_RECORDS, snapshots, snapshot_to_text,
     snapshot_from_text, reference_snapshot_from_text),
    (SCENARIO_HEADER, SCENARIO_RECORDS, scenarios, scenario_to_text,
     scenario_from_text, reference_scenario_from_text),
    (SWEEP_HEADER, SWEEP_RECORDS, sweep_specs, sweep_spec_to_text,
     parse_sweep_spec, reference_parse_sweep_spec),
]


@pytest.mark.parametrize(
    "header, records, values, to_text, parse, reference", REFERENCES,
    ids=["graph", "snapshot", "scenario", "sweep"],
)
@settings(max_examples=200)
@given(data=st.data())
def test_reader_matches_the_per_format_loops_it_replaced(
        header, records, values, to_text, parse, reference, data):
    text = data.draw(documents(header, records) | repeated_records(values, to_text))
    path = data.draw(st.sampled_from([None, "doc.txt", "dir/doc.txt"]))
    assert _outcome(parse, text, path) == _outcome(reference, text, path)


# edits of a canonical graph or snapshot document, each applied at a drawn
# record; the first three need the record after it too. The last four leave
# every line canonical, so only the bulk graph read's own checks refuse them;
# the first of those applies to snapshots too (two obs lines swapped).
PAIRWISE = ("misaligned pair", "swapped records", "traded field")
GRAPH_ONLY = ("self-loop", "epsilon out of range", "negative id")
MUTATIONS = PAIRWISE + (
    "canonical", "tab", "double space", "trailing space", "crlf", "other line break",
    "section line break", "no final newline", "blank line", "comment line", "trailing comment",
    "leading zero", "duplicate record", "missing record", "missing last record", "unknown id",
    "extra field", "non-finite value", "kind as field", "nodes out of order",
) + GRAPH_ONLY
# the mutations that leave the document's value as it is
SAME_VALUE = ("canonical", "crlf", "other line break", "section line break", "no final newline")
# every line break str.splitlines knows but "\n" and "\r\n"
OTHER_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _mutated(name, text, draw):
    lines = text.splitlines()
    k = draw(st.integers(1, len(lines) - (2 if name in PAIRWISE else 1)))
    line = lines[k]
    fields = line.split(" ")
    # lines 1..nodes are the node (or obs) records, in ascending id
    nodes = text.count(f"\n{lines[1].split(' ')[0]} ")
    if name == "nodes out of order":
        k = draw(st.integers(1, nodes - 1))
        lines[k:k + 2] = [lines[k + 1], lines[k]]
    elif name == "kind as field":
        # a node labelled "node", or an obs value "obs"
        k = draw(st.integers(1, nodes))
        record = lines[k].split(" ")
        lines[k] = " ".join([*record[:2], record[0], *record[3:]])
    elif name == "epsilon out of range":
        k = draw(st.integers(1, nodes))
        epsilon = draw(st.sampled_from(["-0.1", "-1e-300", "1.0000000000000002", "1.5"]))
        lines[k] = " ".join([*lines[k].split(" ")[:-1], epsilon])
    elif name == "self-loop":
        node = int(lines[draw(st.integers(1, nodes))].split(" ")[1])
        # inserted where it sorts, so the edge lines still ascend
        after = [k for k in range(nodes + 1, len(lines))
                 if tuple(map(int, lines[k].split(" ")[1:])) > (node, node)]
        lines.insert(after[0] if after else len(lines), f"edge {node} {node}")
    elif name == "negative id":
        # the smallest id, wherever it stands, so ids and edges still ascend
        smallest = lines[1].split(" ")[1]
        for k, record in enumerate(map(str.split, lines[1:]), start=1):
            positions = (1, 2) if record[0] == "edge" else (1,)
            lines[k] = " ".join("-1" if f in positions and record[f] == smallest else field
                                for f, field in enumerate(record))
    elif name == "misaligned pair":
        # "inf 1 2" + "5.0 inf 3 4 6.0": every field lands in its column
        lines[k:k + 2] = [" ".join(fields[:-1]), f"{fields[-1]} {lines[k + 1]}"]
    elif name == "swapped records":
        lines[k:k + 2] = [lines[k + 1], line]
    elif name == "traded field":
        # "node 1 A 0.5 node 7" + "node 0.2": each line starts with its kind and the two hold
        # eight fields, but the second's kind stands where its label stood
        after = lines[k + 1].split(" ")
        lines[k:k + 2] = [" ".join([line, *after[:-2]]), f"{after[0]} {after[-1]}"]
    elif name in ("tab", "double space"):
        cut = draw(st.integers(1, len(fields) - 1))
        gap = "\t" if name == "tab" else "  "
        lines[k] = " ".join(fields[:cut]) + gap + " ".join(fields[cut:])
    elif name == "trailing space":
        lines[k] = line + " "
    elif name in ("other line break", "section line break"):
        if name == "section line break":  # before the first edge or inf line, or else the last
            k = min(nodes + 1, len(lines) - 1)
        lines[k - 1:k + 1] = [lines[k - 1] + draw(st.sampled_from(OTHER_LINE_BREAKS)) + lines[k]]
    elif name == "blank line":
        lines.insert(k, "")
    elif name == "comment line":
        lines.insert(k, "# note")
    elif name == "trailing comment":
        lines[k] = line + " # note"
    elif name == "duplicate record":
        lines.insert(k, line)
    elif name == "missing record":
        del lines[k]
    elif name == "missing last record":
        del lines[-1]
    elif name == "extra field":
        lines[k] = line + " 1"
    elif name in ("leading zero", "unknown id", "non-finite value"):
        if name == "non-finite value":
            position = -1
            value = draw(st.sampled_from(["nan", "inf", "-inf", "1e999"]))
        else:
            position = draw(st.sampled_from([1, 2] if fields[0] in ("inf", "edge") else [1]))
            value = "0" + fields[position] if name == "leading zero" else "99999999"
        fields[position] = value
        lines[k] = " ".join(fields)
    text = "\n".join(lines) + ("" if name == "no final newline" else "\n")
    return text.replace("\n", "\r\n") if name == "crlf" else text


def _deviation_bits(graph, snapshot):
    try:
        return [value.hex() for value in deviations(graph, snapshot)]
    except SnapshotMismatchError as exc:
        return str(exc)


def _small_chunks(draw):
    """The bulk readers' chunk size, patched so that a drawn document spans several chunks."""
    return mock.patch.object(errors, "LINE_CHUNK", draw(st.integers(1, 40)))


def _outcome(parse, *args):
    try:
        return parse(*args)
    except (ParseError, GraphInvariantError, SnapshotMismatchError) as exc:
        return type(exc), str(exc)


two_node_graphs = graphs(min_nodes=2, labels=plain_labels)


@pytest.mark.parametrize("mutation", MUTATIONS)
@settings(max_examples=12)
@given(data=st.data())
def test_bulk_graph_read_is_the_reader_or_falls_back(mutation, data):
    graph = data.draw(two_node_graphs)
    text = _mutated(mutation, graph_to_text(graph), data.draw)
    reader = _outcome(graph_read_records, text, "doc.txt")
    with _small_chunks(data.draw):
        bulk = graph_read_canonical(text)
        assert _outcome(graph_from_text, text, "doc.txt") == reader
    assert bulk is None or bulk == reader
    assert mutation not in SAME_VALUE or bulk == graph
    if mutation in GRAPH_ONLY + ("nodes out of order",):
        assert bulk is None


@given(graphs(labels=plain_labels))
@example(DependencyGraph(nodes=(), edges=()))
@example(DependencyGraph(nodes=(EcuNode(7, "E7", 0.0), EcuNode(9, "E9", 1.0)), edges=()))
@example(DependencyGraph(
    nodes=tuple(EcuNode(i, f"E{i}", i / 100) for i in (3, 10, 42, 99)),
    edges=((3, 42), (10, 3), (10, 99), (42, 3)),
))
def test_bulk_read_graph_arrives_compiled_as_compile_builds_it(graph):
    text = graph_to_text(graph)
    bulk = graph_read_canonical(text)
    assert "compiled" in vars(bulk)  # placed by the read, not built on first use
    assert "edges" not in vars(bulk)  # built from compiled on first read
    assert bulk.edges == graph_read_records(text, "doc.txt").edges
    assert type(bulk.edges) is tuple
    assert all(type(edge) is tuple and list(map(type, edge)) == [int, int] for edge in bulk.edges)
    assert bulk == graph
    expected = _compile(bulk)
    for name in ("ids", "epsilons", "offsets", "dst"):
        assert type(getattr(bulk.compiled, name)) is tuple
        assert getattr(bulk.compiled, name) == getattr(expected, name), name
    assert bulk.compiled.baselines == {}


@pytest.mark.parametrize("mutation", [m for m in MUTATIONS if m not in GRAPH_ONLY])
@settings(max_examples=12)
@given(data=st.data())
def test_aligned_snapshot_read_is_the_reader_or_falls_back(mutation, data):
    graph = data.draw(two_node_graphs)
    values = st.floats(min_value=-1e300, max_value=1e300)
    snapshot = Snapshot(
        observed={i: data.draw(values) for i in graph.node_ids},
        inferred={edge: data.draw(values) for edge in graph.edges},
    )
    text = _mutated(mutation, snapshot_to_text(snapshot), data.draw)
    reader = _outcome(snapshot_from_text, text, "doc.txt")
    with _small_chunks(data.draw):
        bulk = snapshot_read_aligned(text, graph)
        public = _outcome(snapshot_from_text, text, "doc.txt", graph)
    if bulk is not None:
        # the column path gives the lookup's deviations bit for bit
        assert _deviation_bits(graph, bulk) == _deviation_bits(graph, reader)
        assert "inferred" not in vars(bulk)  # built from the column on first read
        assert type(bulk.inferred) is dict and bulk.inferred == reader.inferred
    assert bulk is None or bulk == reader
    assert mutation not in SAME_VALUE or bulk == snapshot
    if isinstance(reader, Snapshot) and validate_snapshot(graph, reader):
        # counts that match leave a wrong edge for evaluation to name
        assert public == reader or public[0] is SnapshotMismatchError
    else:
        assert public == reader


@given(text=st.text(alphabet="ab \n" + OTHER_LINE_BREAKS))
@example(text="a\r\nb\rc\r\n\r\n")
@example(text="a\nb\u2028 b")
def test_admit_gives_the_lines_of_splitlines(text):
    lines = text.splitlines()
    expected = "".join(f"{line}\n" for line in lines) if lines[:1] == ["a"] else ""
    assert admit(text, "a") == expected


def test_bulk_read_of_20k_edges_peaks_below_a_fixed_bound():
    # 2,000 nodes with 10 out-edges each, and a noisy reading of them. The
    # bound sits between the two layouts measured with CPython 3.11: 9.1 MB
    # when each file was split into a list of all its lines and the id text
    # of every edge's endpoints was listed, 2.3 MB when read a chunk at a time.
    n = 2000
    graph = DependencyGraph(
        nodes=tuple(EcuNode(i, f"E{i}", i % 97 / 96) for i in range(n)),
        edges=tuple((i, (i + step) % n) for i in range(n) for step in range(1, 11)),
    )
    scenario = ScenarioSpec(ground_truth={i: float(i) for i in range(n)}, noise_sigma=0.5, seed=3)
    graph_text = graph_to_text(graph)
    snapshot_text = snapshot_to_text(synthesize_snapshot(graph, scenario))
    tracemalloc.start()
    try:
        bulk_graph = graph_from_text(graph_text)
        bulk_snapshot = snapshot_from_text(snapshot_text, None, bulk_graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "compiled" in vars(bulk_graph) and "_graph" in vars(bulk_snapshot)  # read in bulk
    assert peak < 4_000_000, f"{peak / 1e6:.2f} MB"
