"""Every spelling of a number in an instance file gives the same verdict.

The reader keeps an integer entry as an int and makes a Fraction only of
a "p/q" string, so `check` on integer data never builds a Fraction
before the answer.  These tests write the same random control and DAG
matrices with each entry spelled as a JSON int, "5", "+5", "007", "-0"
or "10/2" (and p/q entries as "p/q", "+p/q", "00p/00q" or "2p/2q"), run
`check` on each file through `main`, and require byte-identical text
and payloads, equal as well to those of the same instance built with
every entry a Fraction.  Strings outside the rational grammar must be
refused with a SchemaError, including those `int()` itself would
accept.  A row of plain integers is decoded in one pass; every row must
read as it did entry by entry, refusals included.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from git_topo import cli
from git_topo.cli import main
from git_topo.errors import SchemaError
from git_topo.families import base
from git_topo.families.base import matrix_from_json, rational_from_json
from git_topo.families.control import ControlInstance
from git_topo.families.dag import DagInstance
from git_topo.linalg import Matrix
from git_topo.serialize import instance_from_json

SPELLINGS = ("json", "plain", "signed", "padded", "scaled")


def spell(value: Fraction, how: str):
    """One spelling of value; "json" writes an integer as a JSON int."""
    p, q = value.numerator, value.denominator
    sign = "-" if p < 0 else ""
    if q == 1:
        return {
            "json": p,
            "plain": str(p),
            "signed": ("-" if p <= 0 else "+") + str(abs(p)),
            "padded": f"{sign}00{abs(p)}",
            "scaled": f"{2 * p}/2",
        }[how]
    return {
        "json": f"{p}/{q}",
        "plain": f"{p}/{q}",
        "signed": f"{sign or '+'}{abs(p)}/{q}",
        "padded": f"{sign}00{abs(p)}/00{q}",
        "scaled": f"{2 * p}/{2 * q}",
    }[how]


# Mostly small integers, so rank-deficient points are common; about one
# entry in six a p/q.
small = st.integers(-2, 2).map(Fraction)
values = st.one_of(
    small,
    small,
    small,
    small,
    st.integers(-9, 9).map(Fraction),
    st.tuples(st.integers(-9, 9), st.integers(2, 6)).map(lambda pq: Fraction(*pq)),
)


def _matrix(rows: int, cols: int):
    return st.lists(
        st.lists(values, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


controls = st.tuples(st.integers(1, 3), st.integers(1, 2)).flatmap(
    lambda nm: st.fixed_dictionaries(
        {
            "family": st.just("control"),
            "n": st.just(nm[0]),
            "m": st.just(nm[1]),
            "A": _matrix(nm[0], nm[0]),
            "B": _matrix(nm[0], nm[1]),
        }
    )
)
# Mostly n >= k, so that --stabilize usually has a deficient block to repair.
dag_shapes = st.integers(1, 3).flatmap(
    lambda k: st.tuples(st.integers(max(1, k - 1), k + 2), st.just(k))
)
dags = dag_shapes.flatmap(
    lambda nk: st.fixed_dictionaries(
        {
            "family": st.just("dag"),
            "n": st.just(nk[0]),
            "k": st.just(nk[1]),
            "Y": _matrix(nk[0], nk[1] + 1),
        }
    )
)
MATRIX_KEYS = ("A", "B", "Y")


def _spelled(instance: dict, choose) -> dict:
    return {
        key: [[choose(v) for v in row] for row in value] if key in MATRIX_KEYS else value
        for key, value in instance.items()
    }


def _check(path, flags: list[str]) -> tuple[int, str, bytes]:
    """(exit status, stdout, --json payload bytes) of one `check`."""
    out_file = path.with_suffix(".out.json")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(["check", str(path), *flags, "--json", str(out_file)])
    return code, sink.getvalue(), out_file.read_bytes()


def _fractions(m: Matrix) -> Matrix:
    return Matrix(m.rows, m.cols, tuple(Fraction(e) for e in m.entries))


def _with_fraction_entries(data):
    """The instance the reader builds, with every matrix entry a Fraction."""
    inst = instance_from_json(data)
    if isinstance(inst, ControlInstance):
        return ControlInstance(inst.n, inst.m, _fractions(inst.a), _fractions(inst.b))
    return DagInstance(inst.n, inst.k, _fractions(inst.y))


@given(st.one_of(controls, dags), st.data())
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_every_spelling_gives_the_same_payload(tmp_path_factory, instance, data):
    path = tmp_path_factory.getbasetemp() / "spelled.json"
    flag_sets = [[]] + ([["--stabilize", "--mle"]] if instance["family"] == "dag" else [])
    files = [_spelled(instance, lambda v, how=how: spell(v, how)) for how in SPELLINGS]
    files.append(
        _spelled(instance, lambda v: spell(v, data.draw(st.sampled_from(SPELLINGS))))
    )
    # Integer entries are read as ints, p/q entries as Fractions.
    plain = instance_from_json(files[SPELLINGS.index("plain")])
    read = [e for m in vars(plain).values() if isinstance(m, Matrix) for e in m.entries]
    written = [e for key in MATRIX_KEYS for row in instance.get(key, ()) for e in row]
    assert [type(e) for e in read] == [
        int if e.denominator == 1 else Fraction for e in written
    ]
    for flags in flag_sets:
        outputs = []
        for spelled in files:
            path.write_text(json.dumps(spelled, ensure_ascii=False), encoding="utf-8")
            outputs.append(_check(path, flags))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "instance_from_json", _with_fraction_entries)
            outputs.append(_check(path, flags))
        assert all(out == outputs[0] for out in outputs), (flags, outputs)


REFUSED = {
    "underscore": "5_000",
    "leading_space": " 5",
    "arabic_indic_digit": "٣",
    "decimal_point": "1.0",
    "exponent": "1e3",
    "zero_denominator": "1/0",
    "underscore_denominator": "1/2_0",
    "digits_past_the_limit": "7" * 5000,
}


@pytest.mark.parametrize("text", REFUSED.values(), ids=REFUSED.keys())
def test_strings_outside_the_grammar_are_refused(text, capsys, tmp_path):
    path = tmp_path / "bad.json"
    instance = {"family": "control", "n": 1, "m": 1, "A": [["1"]], "B": [[text]]}
    path.write_text(json.dumps(instance, ensure_ascii=False), encoding="utf-8")
    out_file = tmp_path / "err.json"
    code = main(["check", str(path), "--json", str(out_file)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: B[0][0]: ")
    assert len(captured.err.splitlines()) == 1
    error = json.loads(out_file.read_text(encoding="utf-8"))["error"]
    assert error["type"] == "SchemaError"


# One pass per integer row.  matrix_from_json decodes a row whose entries
# are all JSON ints or plain integer strings with one map(int, row), and
# any other row entry by entry; the reader it replaced, below, read every
# entry through rational_from_json.  Both must agree on every row: the
# same entries of the same types, or the same SchemaError naming the
# same [i][j].


def entry_by_entry(value, rows, cols, field):
    """matrix_from_json as it was before the one-pass rows."""
    if not isinstance(value, list) or len(value) != rows:
        raise SchemaError(f"{field}: expected {rows} rows")
    data = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"{field}[{i}]: expected {cols} entries")
        data.append(
            [rational_from_json(e, f"{field}[{i}][{j}]") for j, e in enumerate(row)]
        )
    return Matrix.from_rows(data)


def _outcome(reader, value, rows, cols):
    try:
        m = reader(value, rows, cols, "A")
    except SchemaError as exc:
        return "refused", str(exc)
    return [type(e) for e in m.entries], m.entries


NOT_PLAIN_INTEGERS = {
    "bool": True,
    "float": 5.0,
    "leading_space": " 5",
    "underscore": "5_000",
    "arabic_indic_digit": "٣",
    "digits_past_the_limit": "7" * 5000,
}
integer_spellings = st.integers(-10**6, 10**6).flatmap(
    lambda p: st.sampled_from(
        [p, str(p), spell(Fraction(p), "signed"), spell(Fraction(p), "padded")]
    )
)
row_entries = st.one_of(
    integer_spellings,
    integer_spellings,
    integer_spellings,
    integer_spellings,
    values.map(lambda v: spell(v, "scaled")),
    st.sampled_from([*NOT_PLAIN_INTEGERS.values(), "1/0", None, [], "", "+", False]),
)


@given(
    st.integers(1, 4).flatmap(
        lambda cols: st.lists(
            st.lists(row_entries, min_size=cols, max_size=cols), min_size=1, max_size=4
        )
    )
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_rows_decode_as_they_did_entry_by_entry(rows):
    assert _outcome(matrix_from_json, rows, len(rows), len(rows[0])) == _outcome(
        entry_by_entry, rows, len(rows), len(rows[0])
    )


def test_integer_rows_mixing_spellings_decode_to_ints():
    rows = [[1, "-2", "+3", "007"], ["-0", 5, "6", -7], ["8", "9/3", 10, "1/2"]]
    m = matrix_from_json(rows, 3, 4, "Y")
    assert m.entries == (1, -2, 3, 7, 0, 5, 6, -7, 8, 3, 10, Fraction(1, 2))
    assert [type(e) for e in m.entries] == [int] * 9 + [Fraction, int, Fraction]


def test_a_p_over_q_entry_is_never_handed_to_int(monkeypatch):
    # A "/" keeps a row off the one-pass path before int() can see it;
    # int() refusing "4/2" is not what decides.
    seen = []

    class RecordedInt(int):
        def __new__(cls, value):
            seen.append(value)
            return int(value)

    monkeypatch.setattr(base, "int", RecordedInt, raising=False)
    m = matrix_from_json([["1", "4/2", "3"]], 1, 3, "A")
    assert m.entries == (1, 2, 3)
    assert [type(e) for e in m.entries] == [int, Fraction, int]
    assert seen == ["1", "3"]


@pytest.mark.parametrize("column", [0, 2])
@pytest.mark.parametrize(
    "entry", NOT_PLAIN_INTEGERS.values(), ids=NOT_PLAIN_INTEGERS.keys()
)
def test_check_names_the_entry_an_integer_row_refuses(entry, column, capsys, tmp_path):
    if entry == "7" * 5000:
        with pytest.raises(ValueError) as exc:
            int(entry)
        message = str(exc.value)
    elif isinstance(entry, str):
        message = f"malformed rational string {entry!r}"
    else:
        message = "rationals must be strings or integers"
    row = [4, "5", "-6"]
    row[column] = entry
    instance = {
        "family": "control", "n": 3, "m": 1,
        "A": [["1", 2, "+3"], row, ["7", "8", 9]], "B": [["1/2"], ["1"], [0]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(instance, ensure_ascii=False), encoding="utf-8")
    out_file = tmp_path / "err.json"
    code = main(["check", str(path), "--json", str(out_file)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: A[1][{column}]: {message}\n"
    error = json.loads(out_file.read_text(encoding="utf-8"))["error"]
    assert error == {"type": "SchemaError", "message": f"A[1][{column}]: {message}"}
